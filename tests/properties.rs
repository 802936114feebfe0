//! Property-style tests on the core invariants: randomized datatype trees
//! and message geometries must round-trip exactly through every transfer
//! path (CPU pack, GPU pack, eager, staged pipeline, any block size).
//!
//! Each test runs a fixed number of cases drawn from a seeded [`XorShift64`]
//! stream, so failures are fully reproducible.

use gpu_nc_repro::mpi_sim::flat::{rows as rows_of_runs, Run, Segment};
use gpu_nc_repro::mpi_sim::pack::{PackCursor, UnpackCursor};
use gpu_nc_repro::mpi_sim::{
    Canonical, Datatype, MpiConfig, MpiWorld, Plan, SubarrayOrder, WireDescriptor,
};
use gpu_nc_repro::mv2_gpu_nc::gpu_pack::enqueue_gather;
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_sim::{Copy2d, CostModel, DevPtr, Gpu, Loc, Stream};
use hostmem::HostBuf;
use sim_core::{Completion, Sim, SimTime};
use xorshift::XorShift64;

/// A random, commit-able datatype tree plus the count to send. Kept small
/// so a single case stays fast.
#[derive(Debug, Clone)]
struct TypeSpec {
    dt: DtSpec,
    count: usize,
}

#[derive(Debug, Clone)]
enum DtSpec {
    Float,
    Double,
    Contig(usize, Box<DtSpec>),
    Vector(usize, usize, usize, Box<DtSpec>), // count, blocklen, stride>=blocklen
    Indexed(Vec<(usize, usize)>, Box<DtSpec>),
    // The constructors below are drawn by `wild_spec` only: layouts that
    // are legal to describe but not to receive into (rows may overlap or
    // run backwards), for the layout properties rather than the transfers.
    Hvector(usize, usize, isize, Box<DtSpec>), // count, blocklen, stride in bytes
    Hindexed(Vec<(usize, isize)>, Box<DtSpec>), // (blocklen, byte displacement)
    Resized(isize, isize, Box<DtSpec>),        // lb, extent
}

impl DtSpec {
    fn build(&self) -> Datatype {
        match self {
            DtSpec::Float => Datatype::float(),
            DtSpec::Double => Datatype::double(),
            DtSpec::Contig(n, c) => Datatype::contiguous(*n, &c.build()),
            DtSpec::Vector(n, bl, stride, c) => {
                Datatype::vector(*n, *bl, *stride as isize, &c.build())
            }
            // Displacements are strictly increasing so blocks do not
            // overlap (overlapping receive layouts are invalid MPI).
            DtSpec::Indexed(_, c) => Datatype::indexed(&self.indexed_blocks(), &c.build()),
            DtSpec::Hvector(n, bl, stride, c) => Datatype::hvector(*n, *bl, *stride, &c.build()),
            DtSpec::Hindexed(blocks, c) => Datatype::hindexed(blocks, &c.build()),
            DtSpec::Resized(lb, extent, c) => Datatype::resized(&c.build(), *lb, *extent),
        }
    }

    /// The row-level oracle: one element's typemap as byte runs in pack
    /// order, walked child by child from the spec (extents are the built
    /// types'), merging a run into the previous one only when it starts
    /// where that one ends. Shares no code with the run-list builder.
    fn rows(&self, base: isize, out: &mut Vec<Segment>) {
        let block = |c: &DtSpec, blocklen: usize, at: isize, out: &mut Vec<Segment>| {
            let cext = c.build().extent();
            for j in 0..blocklen {
                c.rows(at + j as isize * cext, out);
            }
        };
        match self {
            DtSpec::Float | DtSpec::Double => push_row(out, seg(base, self.build().size())),
            DtSpec::Contig(n, c) => block(c, *n, base, out),
            DtSpec::Vector(n, bl, stride, c) => {
                let cext = c.build().extent();
                for i in 0..*n {
                    block(c, *bl, base + (i * stride) as isize * cext, out);
                }
            }
            DtSpec::Hvector(n, bl, stride, c) => {
                for i in 0..*n {
                    block(c, *bl, base + i as isize * stride, out);
                }
            }
            DtSpec::Indexed(_, c) => {
                let cext = c.build().extent();
                for (bl, disp) in self.indexed_blocks() {
                    block(c, bl, base + disp * cext, out);
                }
            }
            DtSpec::Hindexed(blocks, c) => {
                for &(bl, disp) in blocks {
                    block(c, bl, base + disp, out);
                }
            }
            DtSpec::Resized(_, _, c) => c.rows(base, out),
        }
    }

    /// An indexed spec's `(blocklen, gap)` list as `(blocklen, displacement)`.
    fn indexed_blocks(&self) -> Vec<(usize, isize)> {
        let DtSpec::Indexed(blocks, _) = self else {
            panic!("not an indexed spec")
        };
        let mut disp = 0isize;
        blocks
            .iter()
            .map(|&(bl, gap)| {
                let d = disp;
                disp += (bl + gap) as isize;
                (bl, d)
            })
            .collect()
    }

    /// The oracle rows of `count` elements, `extent` apart.
    fn expanded(&self, count: usize) -> Vec<Segment> {
        let extent = self.build().extent();
        let mut out = Vec::new();
        for i in 0..count {
            self.rows(i as isize * extent, &mut out);
        }
        out
    }
}

fn push_row(out: &mut Vec<Segment>, s: Segment) {
    match out.last_mut() {
        _ if s.len == 0 => {}
        Some(last) if last.offset + last.len as isize == s.offset => last.len += s.len,
        _ => out.push(s),
    }
}

fn leaf(rng: &mut XorShift64) -> DtSpec {
    if rng.gen_bool() {
        DtSpec::Float
    } else {
        DtSpec::Double
    }
}

/// A random datatype tree of at most `depth` derived levels over a leaf.
fn dt_spec(rng: &mut XorShift64, depth: usize) -> DtSpec {
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0, 4) {
        // Descend without wrapping sometimes, so shallow trees also occur.
        0 => dt_spec(rng, depth - 1),
        1 => DtSpec::Contig(rng.gen_range(1, 5), Box::new(dt_spec(rng, depth - 1))),
        2 => {
            let bl = rng.gen_range(1, 3);
            let stride = bl + rng.gen_range(0, 4);
            DtSpec::Vector(
                rng.gen_range(1, 6),
                bl,
                stride,
                Box::new(dt_spec(rng, depth - 1)),
            )
        }
        _ => {
            let blocks: Vec<(usize, usize)> = (0..rng.gen_range(1, 4))
                .map(|_| (rng.gen_range(1, 3), rng.gen_range(0, 4)))
                .collect();
            DtSpec::Indexed(blocks, Box::new(dt_spec(rng, depth - 1)))
        }
    }
}

/// A random tree over every constructor, including what no receive may
/// use: byte strides and displacements of either sign, zero block lengths,
/// and `resized` extents that make consecutive elements interleave or
/// overlap.
fn wild_spec(rng: &mut XorShift64, depth: usize) -> DtSpec {
    if depth == 0 {
        return leaf(rng);
    }
    let signed =
        |rng: &mut XorShift64, span: usize| rng.gen_range(0, 2 * span + 1) as isize - span as isize;
    let child = Box::new(wild_spec(rng, depth - 1));
    match rng.gen_range(0, 5) {
        0 => dt_spec(rng, depth),
        1 => DtSpec::Hvector(
            rng.gen_range(0, 6),
            rng.gen_range(0, 3),
            4 * signed(rng, 12),
            child,
        ),
        2 => {
            let blocks = (0..rng.gen_range(1, 4))
                .map(|_| (rng.gen_range(0, 3), 4 * signed(rng, 16)))
                .collect();
            DtSpec::Hindexed(blocks, child)
        }
        3 => {
            // One leaf wide (a column type), the true extent, or padded.
            let built = child.build();
            let extent = match rng.gen_range(0, 3) {
                0 => 4,
                1 => built.extent(),
                _ => built.extent() + 4 * rng.gen_range(1, 4) as isize,
            };
            DtSpec::Resized(4 * signed(rng, 2), extent, child)
        }
        _ => DtSpec::Vector(
            rng.gen_range(1, 6),
            rng.gen_range(1, 3),
            rng.gen_range(1, 6),
            child,
        ),
    }
}

fn type_spec(rng: &mut XorShift64) -> TypeSpec {
    TypeSpec {
        dt: dt_spec(rng, 2),
        count: rng.gen_range(1, 4),
    }
}

/// Footprint of (count, dtype) in bytes, with headroom.
fn footprint(dt: &Datatype, count: usize) -> usize {
    let (lo, hi) = dt.flat().byte_range(count);
    assert!(lo >= 0, "these specs never go negative");
    (hi as usize).max(1) + 64
}

/// Reference pack on the CPU from a byte pattern.
fn reference_pack(dt: &Datatype, count: usize, pattern: &[u8]) -> Vec<u8> {
    let segs = dt.flat().expanded(count);
    let mut out = Vec::new();
    for s in segs {
        let o = s.offset as usize;
        out.extend_from_slice(&pattern[o..o + s.len]);
    }
    out
}

/// Host -> host transfers with random derived types deliver exactly the
/// typemap bytes, regardless of path (eager or staged).
#[test]
fn host_transfer_round_trips() {
    let mut rng = XorShift64::new(0x5EED_0001);
    for _ in 0..24 {
        let spec = type_spec(&mut rng);
        let seed = rng.next_u64() as u8;
        let dt = spec.dt.build();
        dt.commit();
        let count = spec.count;
        let fp = footprint(&dt, count);
        let pattern: Vec<u8> = (0..fp).map(|i| (i as u8).wrapping_add(seed)).collect();
        let dtc = dt.clone();
        let patc = pattern.clone();
        MpiWorld::new(2).run(move |comm| {
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec(patc.clone());
                comm.send(buf.base(), count, &dtc, 1, 0);
            } else {
                let buf = HostBuf::alloc(fp);
                comm.recv(buf.base(), count, &dtc, 0, 0);
                assert_eq!(
                    reference_pack(&dtc, count, &buf.read(0, fp)),
                    reference_pack(&dtc, count, &patc),
                    "typemap bytes differ"
                );
            }
        });
    }
}

/// GPU -> GPU transfers with random derived types deliver exactly the
/// typemap bytes through the device pack/unpack pipeline.
#[test]
fn gpu_transfer_round_trips() {
    let mut rng = XorShift64::new(0x5EED_0002);
    for _ in 0..24 {
        let spec = type_spec(&mut rng);
        let seed = rng.next_u64() as u8;
        let dt = spec.dt.build();
        dt.commit();
        let count = spec.count;
        let fp = footprint(&dt, count);
        let pattern: Vec<u8> = (0..fp)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
            .collect();
        let dtc = dt.clone();
        let patc = pattern.clone();
        GpuCluster::new(2).run(move |env| {
            let dev = env.gpu.malloc(fp);
            if env.comm.rank() == 0 {
                env.gpu.write_bytes(dev, &patc);
                env.comm.send(dev, count, &dtc, 1, 0);
            } else {
                env.comm.recv(dev, count, &dtc, 0, 0);
                let got = env.gpu.read_bytes(dev, fp);
                assert_eq!(
                    reference_pack(&dtc, count, &got),
                    reference_pack(&dtc, count, &patc),
                    "typemap bytes differ"
                );
            }
        });
    }
}

/// The pipeline delivers identical bytes for any block size and any
/// message size (chunk boundaries hit arbitrary offsets).
#[test]
fn any_block_size_is_correct() {
    let mut rng = XorShift64::new(0x5EED_0003);
    for _ in 0..24 {
        let total = rng.gen_range(1, 96) << 10;
        let block = 1usize << rng.gen_range(12, 18);
        GpuCluster::new(2).block_size(block).run(move |env| {
            use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
            let x = VectorXfer::paper(total);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 5);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 5);
            }
        });
    }
}

/// Matching semantics, specific tags: however the receiver permutes its
/// posts, each receive pairs with the message of its tag.
#[test]
fn matching_specific_tags_pairs_by_tag() {
    let mut rng = XorShift64::new(0x5EED_0004);
    for _ in 0..24 {
        let ntags = rng.gen_range(2, 10);
        let send_order: Vec<u32> = {
            let mut v: Vec<u32> = (0..ntags as u32).collect();
            rng.shuffle(&mut v);
            v
        };
        let post_order: Vec<u32> = {
            let mut v: Vec<u32> = (0..ntags as u32).collect();
            rng.shuffle(&mut v);
            v
        };
        MpiWorld::new(2).run(move |comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for &tag in &send_order {
                    let buf = HostBuf::from_vec(vec![tag as u8 + 1; 64]);
                    comm.send(buf.base(), 64, &t, 1, tag);
                }
            } else {
                let reqs: Vec<_> = post_order
                    .iter()
                    .map(|&tag| {
                        let buf = HostBuf::alloc(64);
                        (tag, buf.clone(), comm.irecv(buf.base(), 64, &t, 0, tag))
                    })
                    .collect();
                for (tag, buf, req) in reqs {
                    let st = comm.wait(req).unwrap();
                    assert_eq!(st.tag, tag);
                    assert_eq!(buf.read(0, 64), vec![tag as u8 + 1; 64]);
                }
            }
        });
    }
}

/// Matching semantics, full wildcards: receives complete in message
/// arrival order (MPI's non-overtaking rule).
#[test]
fn matching_wildcards_preserve_arrival_order() {
    let mut rng = XorShift64::new(0x5EED_0005);
    for _ in 0..24 {
        let n = rng.gen_range(1, 12);
        let seed = rng.next_u64() as u8;
        MpiWorld::new(2).run(move |comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for i in 0..n {
                    let buf = HostBuf::from_vec(vec![seed.wrapping_add(i as u8); 32]);
                    comm.send(buf.base(), 32, &t, 1, i as u32);
                }
            } else {
                use gpu_nc_repro::mpi_sim::{ANY_SOURCE, ANY_TAG};
                let reqs: Vec<_> = (0..n)
                    .map(|_| {
                        let buf = HostBuf::alloc(32);
                        (
                            buf.clone(),
                            comm.irecv(buf.base(), 32, &t, ANY_SOURCE, ANY_TAG),
                        )
                    })
                    .collect();
                for (i, (buf, req)) in reqs.into_iter().enumerate() {
                    let st = comm.wait(req).unwrap();
                    assert_eq!(st.tag, i as u32, "wildcard recv {i} overtaken");
                    assert_eq!(buf.read(0, 32), vec![seed.wrapping_add(i as u8); 32]);
                }
            }
        });
    }
}

/// Staged-path flow control survives arbitrary (tiny) window/pool
/// configurations without deadlock or corruption.
#[test]
fn tiny_windows_never_deadlock() {
    for window in 1usize..4 {
        for pool_extra in 0usize..4 {
            let cfg = MpiConfig {
                window_slots: window,
                pool_vbufs: 2 * window + pool_extra,
                ..MpiConfig::default()
            };
            GpuCluster::new(2).mpi_config(cfg).run(move |env| {
                use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
                let x = VectorXfer::paper(512 << 10);
                let dev = env.gpu.malloc(x.extent());
                if env.comm.rank() == 0 {
                    fill_vector(&env.gpu, dev, &x, 8);
                    env.comm.send(dev, 1, &x.dtype(), 1, 0);
                } else {
                    env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                    verify_vector(&env.gpu, dev, &x, 8);
                }
            });
        }
    }
}

/// A cached plan is identical to one built from a fresh row expansion —
/// runs, totals and shape — including after the LRU has evicted and
/// re-inserted the count.
#[test]
fn cached_plan_matches_fresh_expansion() {
    let mut rng = XorShift64::new(0x5EED_0005);
    let mut evictions = 0u64;
    for _ in 0..12 {
        let dt = dt_spec(&mut rng, 2).build();
        dt.commit();
        let before = dt.plan_cache_stats();
        // More distinct counts than the cache holds, revisited in random
        // order: every count gets evicted and rebuilt at least once.
        let lookups = 40usize;
        for _ in 0..lookups {
            let count = rng.gen_range(1, 24);
            let plan = dt.plan(count);
            let fresh = Plan::from_segments(dt.flat().expanded(count));
            assert_eq!(plan.runs(), fresh.runs(), "run list diverged");
            assert_eq!(
                Canonical::of(&plan),
                Canonical::of(&fresh),
                "shape diverged"
            );
            assert_eq!(plan.total(), fresh.total());
            assert_eq!(plan.num_segments(), fresh.num_segments());
        }
        let s = dt.plan_cache_stats();
        assert_eq!(
            (s.hits + s.misses) - (before.hits + before.misses),
            lookups as u64,
            "every lookup is a hit or a miss"
        );
        evictions += s.evictions;
    }
    assert!(evictions > 0, "count churn past capacity must evict");
}

fn seg(offset: isize, len: usize) -> Segment {
    Segment { offset, len }
}

/// The run list a non-`Irregular` shape stands for, in pack order.
fn expand(shape: Canonical) -> Vec<Segment> {
    let blocks = |first: isize, block, stride: usize, count| {
        (0..count).map(move |i| seg(first + (i * stride) as isize, block))
    };
    match shape {
        Canonical::Contig { len: 0, .. } => Vec::new(),
        Canonical::Contig { offset, len } => vec![seg(offset, len)],
        Canonical::Strided1D {
            first,
            block,
            stride,
            count,
        } => blocks(first, block, stride, count).collect(),
        Canonical::Strided2D {
            first,
            block,
            stride,
            count,
            outer_stride,
            outer_count,
        } => (0..outer_count)
            .flat_map(|g| blocks(first + (g * outer_stride) as isize, block, stride, count))
            .collect(),
        Canonical::Irregular => panic!("an irregular shape stands for no run list"),
    }
}

/// The three things every consumer of a non-`Irregular` shape relies on:
/// the shape *is* the run list, the lowered descriptor clipped at any byte
/// is the packed-range mapping, and lowering needs exactly one entry per
/// group. Returns the shape so callers can count coverage.
fn check_shape(plan: &Plan, rng: &mut XorShift64) -> Canonical {
    let shape = Canonical::of(plan);
    let groups = match shape {
        Canonical::Irregular => {
            assert!(WireDescriptor::lower(plan, usize::MAX).is_none());
            return shape;
        }
        Canonical::Strided2D { outer_count, .. } => outer_count,
        _ => 1,
    };
    assert_eq!(
        expand(shape),
        plan.segments(),
        "{shape:?} is not the run list"
    );

    let total = plan.total();
    if total == 0 {
        assert!(
            WireDescriptor::lower(plan, 256).is_none(),
            "nothing to move"
        );
        return shape;
    }
    assert!(
        WireDescriptor::lower(plan, groups - 1).is_none(),
        "{shape:?} fits no fewer than {groups} entries"
    );
    let desc = WireDescriptor::lower(plan, groups).expect("one entry per group");
    assert_eq!((desc.entries().len(), desc.total()), (groups, total));

    // Clip at every row boundary and one byte either side of it, plus
    // seeded random offsets.
    let mut cuts: Vec<usize> = row_starts(&plan.segments())
        .into_iter()
        .flat_map(|b| [b.saturating_sub(1), b, (b + 1).min(total)])
        .collect();
    cuts.extend((0..8).map(|_| rng.gen_range(0, total + 1)));
    for b in cuts {
        let clipped = desc.prefix(b);
        assert_eq!(clipped.total(), b);
        assert!(
            clipped.entries().len() <= groups + 1,
            "at most one tail entry"
        );
        assert_eq!(
            rows_of_runs(clipped.entries()),
            slice_rows(&plan.segments(), 0, b),
            "prefix({b}) of {shape:?}"
        );
        assert_eq!(clipped.entries(), plan.pieces(0, b), "one clip function");
    }
    shape
}

/// Packed offset of every row of `rows`, and the total.
fn row_starts(rows: &[Segment]) -> Vec<usize> {
    let mut at = 0;
    let mut starts = vec![0];
    starts.extend(rows.iter().map(|s| {
        at += s.len;
        at
    }));
    starts
}

/// The row-level reference for `Plan::pieces`: the parts of `rows` that
/// carry packed bytes `[off, off + len)`, found by walking every row.
fn slice_rows(rows: &[Segment], off: usize, len: usize) -> Vec<Segment> {
    let (mut at, mut out) = (0, Vec::new());
    for s in rows {
        let (lo, hi) = (off.max(at), (off + len).min(at + s.len));
        if lo < hi {
            out.push(seg(s.offset + (lo - at) as isize, hi - lo));
        }
        at += s.len;
    }
    out
}

/// What `enqueue_gather` did before layouts were run lists, kept as the
/// reference: classify the chunk's *rows* and pick the device ops from the
/// shape — one copy, one 2-D copy, a 2-D copy between trimmed end rows, or
/// the pack kernel charged by bytes and rows.
fn reference_gather(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    rows: &[Segment],
    contig: DevPtr,
) -> Completion {
    let total: usize = rows.iter().map(|p| p.len).sum();
    let copy1d =
        |at: isize, len: usize, to: DevPtr| gpu.memcpy_async(to, user.add_signed(at), len, stream);
    let copy2d = |first: isize, block: usize, stride: usize, count: usize, to: DevPtr| {
        let p = Copy2d {
            dst: Loc::Device(to),
            dpitch: block,
            src: Loc::Device(user.add_signed(first)),
            spitch: stride,
            width: block,
            height: count,
        };
        gpu.memcpy_2d_async(p, stream)
    };
    match Canonical::classify(rows) {
        Canonical::Contig { offset, .. } => return copy1d(offset, total, contig),
        Canonical::Strided1D {
            first,
            block,
            stride,
            count,
        } if stride != block => return copy2d(first, block, stride, count, contig),
        Canonical::Strided1D { first, .. } => return copy1d(first, total, contig),
        Canonical::Strided2D { .. } | Canonical::Irregular => {}
    }
    if let [head, middle @ .., tail] = rows {
        if let Canonical::Strided1D {
            first,
            block,
            stride,
            count,
        } = Canonical::classify(middle)
        {
            if head.len <= block && tail.len <= block {
                copy1d(head.offset, head.len, contig);
                let mid = contig.add(head.len);
                copy2d(first, block, stride, count, mid);
                return copy1d(tail.offset, tail.len, mid.add(block * count));
            }
        }
    }
    let cost = gpu.cost_model().pack_kernel(total as u64, rows.len());
    gpu.launch_kernel("pack_gather", cost, stream, |g| {
        let mut to = contig;
        for p in rows {
            g.write_bytes(to, &g.read_bytes(user.add_signed(p.offset), p.len));
            to = to.add(p.len);
        }
    })
}

/// Run one gather of `len` packed bytes in a world of its own: the packed
/// bytes, the `(cudaMemcpyAsync, cudaMemcpy2DAsync, kernelLaunch)` counts
/// and the virtual instant the last op completes.
fn gather_outcome(
    pattern: &[u8],
    base: usize,
    len: usize,
    gather: impl FnOnce(&Gpu, &Stream, DevPtr, DevPtr) -> Completion + Send + 'static,
) -> (Vec<u8>, [u64; 3], SimTime) {
    let out = std::sync::Arc::new(std::sync::Mutex::new(None));
    let (sink, pattern) = (std::sync::Arc::clone(&out), pattern.to_vec());
    let sim = Sim::new();
    sim.spawn("gather", move || {
        let gpu = Gpu::new(0, CostModel::tesla_c2050(), 1 << 20);
        let user = gpu.malloc(pattern.len());
        gpu.write_bytes(user, &pattern);
        let packed = gpu.malloc(len);
        let stream = gpu.create_stream();
        let calls = ["cudaMemcpyAsync", "cudaMemcpy2DAsync", "kernelLaunch"];
        let before = calls.map(|c| gpu.counters().get(c));
        let done = gather(&gpu, &stream, user.add(base), packed);
        done.wait();
        let counts = [0, 1, 2].map(|i| gpu.counters().get(calls[i]) - before[i]);
        *sink.lock().unwrap() = Some((gpu.read_bytes(packed, len), counts, sim_core::now()));
    });
    sim.run();
    let got = out.lock().unwrap().take();
    got.expect("the gather process ran")
}

/// Everything the run list promises, against row-level references, for one
/// `(datatype, count)`: `rows` is the oracle's typemap.
fn check_layout(dt: &Datatype, count: usize, rows: &[Segment], rng: &mut XorShift64) {
    let plan = dt.plan(count);
    let what = format!("count {count} of rows {rows:?}");
    // The run list walked row by row is the typemap, and the summary
    // numbers are the row list's.
    assert_eq!(plan.segments(), rows, "{what}");
    assert_eq!(dt.flat().expanded(count), rows, "{what}");
    let total: usize = rows.iter().map(|s| s.len).sum();
    assert_eq!((plan.total(), plan.num_segments()), (total, rows.len()));
    // ... in normal form: the one run list these rows have.
    assert_eq!(
        plan.runs(),
        Plan::from_segments(rows.to_vec()).runs(),
        "{what}"
    );
    assert!(plan
        .runs()
        .iter()
        .all(|r| r.count == 1 || r.stride != r.len));
    assert_eq!(Canonical::of(&plan), Canonical::classify(rows), "{what}");
    if total == 0 {
        return;
    }

    // Cuts: whole, row-aligned, mid-row and seeded.
    let starts = row_starts(rows);
    let mut cuts = vec![(0, total), (0, 1), (total - 1, 1)];
    for _ in 0..6 {
        let off = rng.gen_range(0, total);
        cuts.push((off, rng.gen_range(1, total - off + 1)));
        let i = rng.gen_range(0, rows.len());
        let j = rng.gen_range(i, rows.len()) + 1;
        cuts.push((starts[i], starts[j] - starts[i]));
    }
    // A buffer that holds every row, wherever the typemap starts.
    let lo = rows.iter().map(|s| s.offset).min().unwrap();
    let hi = rows
        .iter()
        .map(|s| s.offset + s.len as isize)
        .max()
        .unwrap();
    let base = (-lo).max(0) as usize + 8;
    let span = base + hi.max(0) as usize + 8;
    let pattern: Vec<u8> = (0..span)
        .map(|i| (i as u8).wrapping_mul(29) ^ 0x5a)
        .collect();
    let at = |s: &Segment| (base as isize + s.offset) as usize;
    let packed: Vec<u8> = rows
        .iter()
        .flat_map(|s| pattern[at(s)..at(s) + s.len].to_vec())
        .collect();
    let pitched = plan.runs().iter().all(|r| r.stride >= r.len);
    for &(off, len) in &cuts {
        let pieces = plan.pieces(off, len);
        let slice = slice_rows(rows, off, len);
        assert_eq!(
            rows_of_runs(&pieces),
            slice,
            "pieces({off}, {len}) of {what}"
        );
        assert_eq!(pieces, Plan::from_segments(slice.clone()).runs());
        // A `cudaMemcpy2D` cannot express rows that overlap.
        if !pitched {
            continue;
        }
        let new = {
            let pieces = pieces.clone();
            gather_outcome(&pattern, base, len, move |g, s, user, to| {
                enqueue_gather(g, s, user, &pieces, to)
            })
        };
        let old = gather_outcome(&pattern, base, len, move |g, s, user, to| {
            reference_gather(g, s, user, &slice, to)
        });
        assert_eq!(new, old, "gather({off}, {len}) of {what}");
        assert_eq!(new.0, &packed[off..off + len]);
    }

    // The CPU cursors over seeded chunkings: the packed stream, and an
    // unpack that writes what a row-by-row scatter writes.
    let src = HostBuf::from_vec(pattern.clone());
    let dst = HostBuf::alloc(span);
    let mut pack = PackCursor::from_plan(src.ptr(base), std::sync::Arc::clone(&plan));
    let mut unpack = UnpackCursor::from_plan(dst.ptr(base), plan);
    let (mut got, mut done) = (Vec::new(), 0);
    while done < total {
        let chunk = rng.gen_range(1, (total - done).min(40) + 1);
        let mut tmp = vec![0u8; chunk];
        pack.pack_into(&mut tmp);
        unpack.unpack_from(&tmp);
        got.extend(tmp);
        done += chunk;
    }
    assert!(pack.finished() && unpack.finished());
    assert_eq!(got, packed, "chunked pack of {what}");
    let mut scattered = vec![0u8; span];
    let mut from = 0;
    for s in rows {
        scattered[at(s)..at(s) + s.len].copy_from_slice(&packed[from..from + s.len]);
        from += s.len;
    }
    assert_eq!(dst.read(0, span), scattered, "chunked unpack of {what}");
}

/// The run list is the layout: for generated datatype trees over every
/// constructor and counts 0..=4, everything derived from the runs —
/// rows, totals, shape, chunk slices, the device ops a chunk turns into and
/// the bytes the CPU cursors move — equals its row-level reference.
#[test]
fn run_list_is_the_row_oracle() {
    let mut rng = XorShift64::new(0x5EED_0007);
    // [single run, several runs, rows that merged across elements]
    let mut seen = [0usize; 3];
    for case in 0..160 {
        let spec = if case % 2 == 0 {
            wild_spec(&mut rng, 3)
        } else {
            dt_spec(&mut rng, 3)
        };
        let dt = spec.build();
        dt.commit();
        for count in 0..=4 {
            let rows = spec.expanded(count);
            check_layout(&dt, count, &rows, &mut rng);
            let runs = dt.plan(count).runs().len();
            seen[0] += usize::from(runs == 1 && rows.len() > 1);
            seen[1] += usize::from(runs > 1);
            seen[2] += usize::from(count > 1 && rows.len() < count * spec.expanded(1).len());
        }
    }
    assert!(seen.iter().all(|&n| n > 10), "coverage too thin: {seen:?}");

    // The boundary cases by hand. Two progressions that are one.
    let halves = DtSpec::Hindexed(
        vec![(1, 0), (1, 64)],
        Box::new(DtSpec::Vector(4, 1, 4, Box::new(DtSpec::Float))),
    );
    let dt = halves.build();
    dt.commit();
    assert_eq!(
        dt.plan(1).runs(),
        &[Run {
            offset: 0,
            len: 4,
            stride: 16,
            count: 8
        }]
    );
    check_layout(&dt, 1, &halves.expanded(1), &mut rng);
    // A resized column at count 2: two levels with interleaved extents.
    let col = DtSpec::Resized(
        0,
        4,
        Box::new(DtSpec::Vector(4, 1, 6, Box::new(DtSpec::Float))),
    );
    let dt = col.build();
    dt.commit();
    assert!(matches!(
        Canonical::of(&dt.plan(2)),
        Canonical::Strided2D {
            outer_stride: 4,
            outer_count: 2,
            ..
        }
    ));
    check_layout(&dt, 2, &col.expanded(2), &mut rng);
    // A negative first offset, rows running backwards, a 1-row and a
    // 2-row plan, and no rows.
    let below = DtSpec::Hindexed(vec![(1, -8), (2, 4)], Box::new(DtSpec::Float));
    let back = DtSpec::Hvector(3, 1, -16, Box::new(DtSpec::Double));
    let one = DtSpec::Contig(3, Box::new(DtSpec::Float));
    let two = DtSpec::Hvector(2, 1, 12, Box::new(DtSpec::Float));
    assert_eq!(below.expanded(1)[0].offset, -8);
    for (spec, count) in [
        (&below, 2),
        (&back, 2),
        (&one, 1),
        (&one, 3),
        (&two, 1),
        (&two, 0),
    ] {
        let dt = spec.build();
        dt.commit();
        check_layout(&dt, count, &spec.expanded(count), &mut rng);
    }
    assert_eq!(back.expanded(1)[0].offset, 0);
    assert_eq!(back.expanded(1)[2].offset, -32);
    let empty = two.build();
    empty.commit();
    assert!(empty.plan(0).runs().is_empty() && empty.plan(0).pieces(0, 0).is_empty());
}

/// `Canonical` carries every consumer of a layout, so what it claims about
/// a run list must be exactly that run list: generated datatype trees at
/// counts 1..=4, plus hand-built shapes aimed at the two-level recovery,
/// `WireDescriptor::prefix`'s mid-block split and the 256-entry budget.
#[test]
fn canonical_shape_is_the_run_list() {
    let mut rng = XorShift64::new(0x5EED_0006);
    // [contig, one level, two levels, irregular] seen among generated trees.
    let mut seen = [0usize; 4];
    for _ in 0..200 {
        let dt = type_spec(&mut rng).dt.build();
        dt.commit();
        for count in 1..=4 {
            let slot = match check_shape(&dt.plan(count), &mut rng) {
                Canonical::Contig { .. } => 0,
                Canonical::Strided1D { .. } => 1,
                Canonical::Strided2D { .. } => 2,
                Canonical::Irregular => 3,
            };
            seen[slot] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "the generator must reach every shape: {seen:?}"
    );

    let shape_of =
        |rng: &mut XorShift64, segs: Vec<Segment>| check_shape(&Plan::from_segments(segs), rng);
    // Two planes of three rows, and the smallest two-level list there is.
    let planes: Vec<Segment> = (0..2)
        .flat_map(|p| (0..3).map(move |r| seg(p * 100 + r * 16, 8)))
        .collect();
    assert_eq!(
        shape_of(&mut rng, planes.clone()),
        Canonical::Strided2D {
            first: 0,
            block: 8,
            stride: 16,
            count: 3,
            outer_stride: 100,
            outer_count: 2
        }
    );
    assert!(matches!(
        shape_of(
            &mut rng,
            vec![seg(0, 4), seg(8, 4), seg(100, 4), seg(108, 4)]
        ),
        Canonical::Strided2D {
            count: 2,
            outer_count: 2,
            ..
        }
    ));
    // Near misses are soup: a late outer pitch, a late inner pitch, one odd
    // width, groups that do not tile, a group restarting below the first,
    // a second break that would regroup the list, and a constant pitch
    // that is not positive.
    let bent = |i: usize, by: isize, grow: usize| {
        let mut s = planes.clone();
        s[i] = seg(s[i].offset + by, s[i].len + grow);
        s
    };
    let mut three_planes = planes.clone();
    three_planes.extend((0..3).map(|r| seg(210 + r * 16, 8)));
    for soup in [
        three_planes,
        bent(5, 2, 0),
        bent(4, 0, 1),
        planes[..5].to_vec(),
        vec![seg(50, 4), seg(58, 4), seg(0, 4), seg(8, 4)],
        [0, 8, 100, 150, 158, 166].map(|o| seg(o, 4)).to_vec(),
        vec![seg(100, 4), seg(50, 4), seg(0, 4)],
        vec![seg(0, 4), seg(0, 4), seg(0, 4)],
    ] {
        assert_eq!(shape_of(&mut rng, soup), Canonical::Irregular);
    }

    // A 3-D subarray: rows within planes.
    let sub = Datatype::subarray(
        &[4, 6, 8],
        &[3, 2, 5],
        &[1, 2, 3],
        SubarrayOrder::C,
        &Datatype::float(),
    );
    sub.commit();
    assert!(matches!(
        check_shape(&sub.plan(1), &mut rng),
        Canonical::Strided2D {
            block: 20,
            count: 2,
            outer_count: 3,
            ..
        }
    ));
    // The halo column: a strided vector resized to one element, so `count`
    // columns interleave — one level alone, two levels together.
    let col = Datatype::resized(&Datatype::vector(4, 1, 300, &Datatype::float()), 0, 4);
    col.commit();
    assert!(matches!(
        check_shape(&col.plan(1), &mut rng),
        Canonical::Strided1D { count: 4, .. }
    ));
    for count in 2..=4 {
        assert_eq!(
            check_shape(&col.plan(count), &mut rng),
            Canonical::Strided2D {
                first: 0,
                block: 4,
                stride: 1200,
                count: 4,
                outer_stride: 4,
                outer_count: count
            }
        );
    }
    // A row type resized to its full extent continues its own pitch.
    let rows = Datatype::resized(&Datatype::hvector(4, 1, 24, &Datatype::float()), 0, 96);
    rows.commit();
    assert!(matches!(
        check_shape(&rows.plan(3), &mut rng),
        Canonical::Strided1D {
            count: 12,
            stride: 24,
            ..
        }
    ));

    // The HCA's entry budget: 256 groups lower, 257 do not.
    assert!(matches!(
        check_shape(&col.plan(256), &mut rng),
        Canonical::Strided2D {
            outer_count: 256,
            ..
        }
    ));
    assert_eq!(
        WireDescriptor::lower(&col.plan(256), 256).map(|d| d.entries().len()),
        Some(256)
    );
    assert!(matches!(
        Canonical::of(&col.plan(257)),
        Canonical::Strided2D {
            outer_count: 257,
            ..
        }
    ));
    assert!(WireDescriptor::lower(&col.plan(257), 256).is_none());
}
