//! Property-style tests on the core invariants. Generated datatype trees are
//! checked against a row oracle that shares no code with the run list: first
//! the layout (runs, shape, chunk slices, device ops, CPU cursors), then one
//! differential generator that sends them through every scheme and world and
//! compares the schemes with one another.
//!
//! Each test runs a fixed number of cases drawn from a seeded [`XorShift64`]
//! stream, so failures are fully reproducible.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gpu_nc_repro::ib_sim::NetModel;
use gpu_nc_repro::mpi_sim::flat::{rows as rows_of_runs, Run, Segment};
use gpu_nc_repro::mpi_sim::pack::{CpuModel, PackCursor, UnpackCursor};
use gpu_nc_repro::mpi_sim::{
    Canonical, ChunkPolicy, CollAlgo, Comm, ConfigError, DataScheme, Datatype, FaultSpec,
    MpiConfig, MpiError, MpiWorld, Outcome, Plan, SchemeSel, SubarrayOrder, WireDescriptor,
};
use gpu_nc_repro::mv2_gpu_nc::gpu_pack::{enqueue_gather, pitched_run};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_sim::{Copy2d, CostModel, DevPtr, Gpu, Loc, Stream};
use hostmem::HostBuf;
use sim_core::{Completion, ExecMode, SanitizerMode, Sim, SimTime};
use sim_trace::{analysis, chrome_trace, EventKind, LaneKind, Recorder};
use xorshift::XorShift64;

/// A random, commit-able datatype tree plus the count to send. Kept small
/// so a single case stays fast.
#[derive(Debug, Clone)]
struct TypeSpec {
    dt: DtSpec,
    count: usize,
}

#[derive(Clone)]
enum DtSpec {
    Float,
    Double,
    Contig(usize, Box<DtSpec>),
    Vector(usize, usize, usize, Box<DtSpec>), // count, blocklen, stride>=blocklen
    Indexed(Vec<(usize, usize)>, Box<DtSpec>),
    // The constructors below can describe layouts that are legal to send
    // from but not to receive into (rows may overlap): `wild_spec` draws
    // them freely, `recv_spec` keeps only trees whose rows never collide.
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
        let Some(c) = self.child() else {
            return push_row(out, seg(base, self.build().size()));
        };
        let cext = c.build().extent();
        let mut block = |blocklen: usize, at: isize| {
            for j in 0..blocklen {
                c.rows(at + j as isize * cext, out);
            }
        };
        match self {
            DtSpec::Contig(n, _) => block(*n, base),
            DtSpec::Vector(n, bl, stride, _) => {
                for i in 0..*n {
                    block(*bl, base + (i * stride) as isize * cext);
                }
            }
            DtSpec::Hvector(n, bl, stride, _) => {
                for i in 0..*n {
                    block(*bl, base + i as isize * stride);
                }
            }
            DtSpec::Indexed(..) => {
                for (bl, disp) in self.indexed_blocks() {
                    block(bl, base + disp * cext);
                }
            }
            DtSpec::Hindexed(blocks, _) => {
                for &(bl, disp) in blocks {
                    block(bl, base + disp);
                }
            }
            _ => c.rows(base, out),
        }
    }

    /// The tree below this node (`None` for a leaf).
    fn child(&self) -> Option<&DtSpec> {
        match self {
            DtSpec::Float | DtSpec::Double => None,
            DtSpec::Contig(.., c)
            | DtSpec::Vector(.., c)
            | DtSpec::Indexed(.., c)
            | DtSpec::Hvector(.., c)
            | DtSpec::Hindexed(.., c)
            | DtSpec::Resized(.., c) => Some(c),
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
        let (mut one, mut out) = (Vec::new(), Vec::new());
        self.rows(0, &mut one);
        let extent = self.build().extent();
        for i in 0..count as isize {
            for s in &one {
                push_row(&mut out, seg(s.offset + i * extent, s.len));
            }
        }
        out
    }
}

/// As the expression that builds the tree (with `DtSpec::*` in scope), so a
/// failing tree prints as source.
impl std::fmt::Debug for DtSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.child().map(|c| format!(", Box::new({c:?})"));
        let c = c.unwrap_or_default();
        match self {
            DtSpec::Float => write!(f, "Float"),
            DtSpec::Double => write!(f, "Double"),
            DtSpec::Contig(n, _) => write!(f, "Contig({n}{c})"),
            DtSpec::Vector(n, bl, stride, _) => write!(f, "Vector({n}, {bl}, {stride}{c})"),
            DtSpec::Indexed(blocks, _) => write!(f, "Indexed({blocks:?}{c})"),
            DtSpec::Hvector(n, bl, stride, _) => write!(f, "Hvector({n}, {bl}, {stride}{c})"),
            DtSpec::Hindexed(blocks, _) => write!(f, "Hindexed({blocks:?}{c})"),
            DtSpec::Resized(lb, extent, _) => write!(f, "Resized({lb}, {extent}{c})"),
        }
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
    [DtSpec::Double, DtSpec::Float][rng.gen_range(0, 2)].clone()
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

// --- the differential generator ---------------------------------------------
//
// One seeded list of draws — a receivable datatype tree × count × residency
// × world — each run once per scheme, or as one 4-rank `alltoallv`. Every run
// is checked three ways: the receiver's whole buffer against the row oracle
// (holes included); a collecting sanitizer with no report (protocol
// invariants included); and, within a draw, event identity of every two runs
// that took the same path — `Auto` against the `Force` it resolved to, every
// forced scheme that fell back against the rest. The path is the receiver's
// first `cts*` proto instant (staged, direct, offload or dev), eager or
// shm_eager without one, or the sender's typed rejection; on the GPU, runs
// of one path are twins only if both packed and unpacked alike, since
// `Auto` may cross PCIe pitched where a forced scheme packs (and must
// deliver the same bytes). A failure shrinks greedily and panics with the
// minimal draw as a `named_rows()` entry.

/// Seed of the generated draws.
const SEED: u64 = 0x5EED_0025;

/// Both `Auto` policies and every forced scheme.
const SCHEMES: [SchemeSel; 6] = [
    SchemeSel::Auto { offload: false },
    SchemeSel::Auto { offload: true },
    SchemeSel::Force(DataScheme::Staged),
    SchemeSel::Force(DataScheme::Direct),
    SchemeSel::Force(DataScheme::DeviceD2D),
    SchemeSel::Force(DataScheme::NicOffload),
];

/// The smallest message of the largest size regime.
const LARGE: usize = 64 << 10;

/// The world a draw runs in: ranks per node (1 puts a pair on two nodes, 2
/// on one), the carrier, the seed of a mix of control drops and delays,
/// RDMA and descriptor-fetch errors (`None`: a reliable fabric) and a
/// `ChunkPolicy::Fixed` block (`None`: the adaptive default).
#[derive(Clone, Debug)]
struct World(usize, ExecMode, Option<u64>, Option<usize>);

/// One draw: a receivable tree × count, in GPU memory or not, in a world;
/// run once under every scheme — or, given a collective, as one 4-rank
/// `alltoallv` at ppn 2 trading blocks of the tree for blocks of the
/// collective's tree, `count` times the smallest pair whose bytes match.
#[derive(Clone, Debug)]
struct Draw(TypeSpec, bool, World, Option<(CollAlgo, DtSpec)>);

fn bytes(rows: &[Segment]) -> usize {
    rows.iter().map(|s| s.len).sum()
}

/// Where `blocks` copies of `rows` sit in a buffer, as `(base, stride,
/// span)`: copy `j` at `base + j * stride`, clear of each other and of
/// negative offsets.
fn frame(rows: &[Segment], blocks: usize) -> (usize, usize, usize) {
    let lo = rows.iter().map(|s| s.offset).min().unwrap_or(0).min(0);
    let hi = rows.iter().map(|s| s.offset + s.len as isize).max();
    let (base, stride) = ((8 - lo) as usize, (hi.unwrap_or(0).max(0) - lo) as usize);
    (base, stride, base + blocks * stride + 8)
}

/// A receive may use `rows` (no byte written twice) and a test can afford
/// their buffer.
fn fits(rows: &[Segment]) -> bool {
    let mut spans: Vec<_> = rows.iter().map(|s| (s.offset, s.len as isize)).collect();
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0) && frame(rows, 1).2 <= 4 << 20
}

/// The bytes buffer `id` starts with (rank `r` sends from `r` and receives
/// into `r + 4`): unlike every other buffer's at every offset and varying
/// along it, so a misplaced byte or a written hole shows.
fn fill(id: usize, len: usize) -> Vec<u8> {
    let k = (id as u8).wrapping_mul(0x3B);
    let at = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
    (1..=len as u64).map(|i| at(i) ^ k).collect()
}

/// Values below `n` for a shrinking step, the biggest cut first (`n - n/2`,
/// `n - n/4`, ..., `n - 1`): a search rather than a walk down to a count
/// the failure needs.
fn smaller(n: usize) -> impl Iterator<Item = usize> {
    let cuts = (1..usize::BITS).map(move |k| n >> k).take_while(|&c| c > 1);
    cuts.map(move |c| n - c).chain(n.checked_sub(1))
}

/// A tree a receive may use: `dt_spec`'s constructors plus empty and long
/// vectors, and byte strides, displacements and lower bounds below zero
/// (`fits` sorts out the trees whose rows collide).
fn recv_spec(rng: &mut XorShift64, depth: usize) -> DtSpec {
    if depth == 0 {
        return leaf(rng);
    }
    let c = Box::new(recv_spec(rng, depth - 1));
    let (ext, bl) = (c.build().extent(), rng.gen_range(1, 3));
    match rng.gen_range(0, 8) {
        0 => dt_spec(rng, depth),
        1 => *c,
        2 => DtSpec::Vector([0, 1, 3, 5, 200][rng.gen_range(0, 5)], bl, bl + 1, c),
        // Rows of single blocks run backwards.
        3 => DtSpec::Hvector(3, bl, [-1, 1][bl - 1] * (bl as isize * ext + 4), c),
        4 | 5 => {
            let mut at: Vec<isize> = (0..rng.gen_range(2, 5) as isize).collect();
            rng.shuffle(&mut at);
            let (mid, w) = (at.len() as isize / 2, 2 * ext + 4);
            DtSpec::Hindexed(at.iter().map(|&s| (bl, (s - mid) * w)).collect(), c)
        }
        6 => DtSpec::Resized(-4 * bl as isize, [4, ext, ext + 8][rng.gen_range(0, 3)], c),
        _ => DtSpec::Contig(rng.gen_range(0, 4), c),
    }
}

/// A receivable tree and a count putting its total in size regime `regime`:
/// zero, eager, shm-eager, staged, or at or above [`LARGE`]. Most
/// are `recv_spec` trees, the rest the regular shapes the fast paths serve:
/// a resized column (`count` of them interleave as `count` descriptor
/// groups), one long vector sent once, or a leaf resized apart. An eager
/// draw may also be at most 62 wide rows sent once: one strided run, which
/// a device side under `Auto` crosses PCIe in one pitched copy.
fn sized(rng: &mut XorShift64, regime: usize) -> TypeSpec {
    let lo = [0, 1, 8 << 10, 32 << 10, LARGE][regime];
    let hi = [1, 8 << 10, 32 << 10, LARGE, 256 << 10][regime];
    loop {
        let (target, bl, f) = (rng.gen_range(lo, hi), rng.gen_range(1, 4), DtSpec::Float);
        let (rows, stride) = (rng.gen_range(2, 512), rng.gen_range(100, 400));
        let few = rows % 61 + 2;
        let dt = match rng.gen_range(0, 8 + 2 * usize::from(regime == 1)) {
            0 => DtSpec::Resized(0, 4, Box::new(DtSpec::Vector(rows, 1, stride, Box::new(f)))),
            1 => DtSpec::Vector((target / (4 * bl)).max(1), bl, 2 * bl, Box::new(f)),
            2 => DtSpec::Resized(-4, 4 * (bl + 1) as isize, Box::new(leaf(rng))),
            8 | 9 => {
                let w = (target / (4 * few)).max(1);
                DtSpec::Vector(few, w, w + bl, Box::new(f))
            }
            _ => recv_spec(rng, 3),
        };
        let one = bytes(&dt.expanded(1));
        let count = [(target / one.max(1)).max(usize::from(lo > 0)), bl][usize::from(one == 0)];
        let mut halvings = std::iter::successors(Some(count), |c| (*c > 1).then_some(c / 2));
        if let Some(count) = halvings.find(|&c| fits(&dt.expanded(c))) {
            return TypeSpec { dt, count };
        }
    }
}

/// The generated draws: 48 pairs cycling residency × placement and walking
/// the size regimes, then 8 `alltoallv`s (at most 48 KiB a block)
/// alternating residency and algorithm; carrier, faults and block drawn.
fn draws() -> Vec<Draw> {
    const REGIMES: [usize; 12] = [0, 1, 2, 3, 4, 4, 1, 2, 3, 4, 4, 2];
    let mut rng = XorShift64::new(SEED);
    let mut out = Vec::new();
    for i in 0..56 {
        let exec = [ExecMode::Event, ExecMode::Event, ExecMode::Threads][rng.gen_range(0, 3)];
        let faults = (rng.gen_range(0, 3) == 0).then(|| rng.next_u64() % 1000);
        let block = (rng.gen_range(0, 4) > 0).then(|| rng.gen_range(4 << 10, 256 << 10));
        let world = World(1 + usize::from(i >= 48 || i % 4 >= 2), exec, faults, block);
        let (gpu, algo) = (i % 2 == 1, [CollAlgo::Flat, CollAlgo::Hier][i / 2 % 2]);
        if i < 48 {
            out.push(Draw(sized(&mut rng, REGIMES[i / 4]), gpu, world, None));
            continue;
        }
        out.push(loop {
            let (dt, recv) = (sized(&mut rng, 1).dt, sized(&mut rng, 1).dt);
            let one = bytes(&dt.expanded(1)) * bytes(&recv.expanded(1));
            let k = rng.gen_range(1, 48 << 10) / one.max(1);
            let (count, coll) = ([k.max(1), 3][usize::from(one == 0)], Some((algo, recv)));
            let d = Draw(TypeSpec { dt, count }, gpu, world.clone(), coll);
            let [(s, ..), (r, ..)] = d.sides();
            if fits(&s) && fits(&r) && bytes(&s) <= 48 << 10 {
                break d;
            }
        });
    }
    out
}

/// Rows kept in the generator by name: the HCA's 256-entry descriptor
/// budget met exactly (128 + 128 groups, at exactly [`LARGE`]) and
/// missed by one group a side; and `offload_sweep`'s `strided2d` at 16 KiB,
/// whose 64 + 64 descriptor fetches cost more than packing and unpacking
/// its 256 rows on the CPU; and a halo i-face on the GPU (16 rows of 64 B),
/// which `Auto` moves in one pitched copy a side. A failure prints its
/// replay row for here.
#[allow(unused_imports)]
fn named_rows() -> Vec<(String, Draw)> {
    use {CollAlgo::*, DtSpec::*, ExecMode::*};
    let host = |dt, count| {
        Draw(
            TypeSpec { dt, count },
            false,
            World(1, Event, None, None),
            None,
        )
    };
    let column = |count| {
        host(
            Resized(0, 4, Box::new(Vector(128, 1, 300, Box::new(Float)))),
            count,
        )
    };
    let planes = Hvector(64, 1, 768, Box::new(Vector(4, 16, 32, Box::new(Float))));
    let face = Draw(
        TypeSpec {
            dt: Vector(16, 16, 48, Box::new(Float)),
            count: 1,
        },
        true,
        World(1, Event, None, None),
        None,
    );
    let rows = [
        ("256 entries", column(128)),
        ("258 entries", column(129)),
        ("a walk that costs more than the pack", host(planes, 1)),
        ("a halo face crosses PCIe pitched", face),
    ];
    rows.map(|(name, d)| (name.into(), d)).into()
}

impl DtSpec {
    /// This node's counts and block lengths, each a shrinking step's
    /// target, and its child.
    fn parts(&mut self) -> (Vec<&mut usize>, Option<&mut DtSpec>) {
        match self {
            DtSpec::Float | DtSpec::Double => (Vec::new(), None),
            DtSpec::Contig(n, c) => (vec![n], Some(c.as_mut())),
            DtSpec::Vector(n, bl, _, c) => (vec![n, bl], Some(c.as_mut())),
            DtSpec::Hvector(n, bl, _, c) => (vec![n, bl], Some(c.as_mut())),
            DtSpec::Indexed(v, c) => (v.iter_mut().map(|b| &mut b.0).collect(), Some(c.as_mut())),
            DtSpec::Hindexed(v, c) => (v.iter_mut().map(|b| &mut b.0).collect(), Some(c.as_mut())),
            DtSpec::Resized(.., c) => (Vec::new(), Some(c.as_mut())),
        }
    }

    /// Trees one step smaller: this level dropped, a smaller count or block
    /// length (an indexed block cut to zero is dropped), or a smaller child.
    fn shrinks(&self) -> Vec<DtSpec> {
        let Some(c) = self.child() else {
            return Vec::new();
        };
        let mut out = vec![c.clone()];
        for (i, n) in self.clone().parts().0.into_iter().enumerate() {
            for m in smaller(*n) {
                let mut t = self.clone();
                *t.parts().0[i] = m;
                if let DtSpec::Indexed(v, _) = &mut t {
                    v.retain(|b| b.0 > 0);
                } else if let DtSpec::Hindexed(v, _) = &mut t {
                    v.retain(|b| b.0 > 0);
                }
                out.push(t);
            }
        }
        for smaller_child in c.shrinks() {
            let mut t = self.clone();
            *t.parts().1.unwrap() = smaller_child;
            out.push(t);
        }
        out
    }

    fn any(&self, f: &dyn Fn(&DtSpec) -> bool) -> bool {
        f(self) || self.child().is_some_and(|c| c.any(f))
    }
}

/// One side of a message: the oracle rows, the element count, and the
/// `(base, stride, span)` frame of a buffer with one block per rank.
type Side = (Vec<Segment>, usize, (usize, usize, usize));

impl Draw {
    /// Both sides of one message (a pair sends and receives one type;
    /// `alltoallv` sends `count` times the receive type's size in elements
    /// of the send type, and receives the reverse).
    fn sides(&self) -> [Side; 2] {
        let side = |dt: &DtSpec, count, blocks| {
            let rows = dt.expanded(count);
            let at = frame(&rows, blocks);
            (rows, count, at)
        };
        let Draw(TypeSpec { dt, count: k }, ..) = self;
        let Some((_, recv)) = &self.3 else {
            return [(); 2].map(|()| side(dt, *k, 1));
        };
        let (s, r) = (bytes(&dt.expanded(1)), bytes(&recv.expanded(1)));
        [side(dt, k * r, 4), side(recv, k * s, 4)]
    }

    /// Draws one shrinking step smaller that a receive may still use.
    fn shrinks(&self) -> Vec<Draw> {
        let Draw(TypeSpec { dt, count }, gpu, world, coll) = self.clone();
        let mut ones = vec![(dt.clone(), count, coll.clone())];
        ones.extend(smaller(count).map(|c| (dt.clone(), c, coll.clone())));
        ones.extend(dt.shrinks().into_iter().map(|t| (t, count, coll.clone())));
        for r in coll.iter().flat_map(|(_, recv)| recv.shrinks()) {
            ones.push((dt.clone(), count, coll.clone().map(|(algo, _)| (algo, r))));
        }
        let draw = |(dt, count, coll)| Draw(TypeSpec { dt, count }, gpu, world.clone(), coll);
        let draws = ones.into_iter().skip(1).map(draw);
        let fit = |d: &Draw| d.sides().iter().all(|(rows, ..)| fits(rows));
        draws.filter(fit).collect()
    }
}

/// What every rank holds after a correct run: its receive buffer's bytes
/// with the oracle's rows of each message written in — `(me, j, from, to)`:
/// sender `j`'s block `from` into receiver `me`'s block `to`. A pair's
/// sender holds nothing.
fn want(sides: &[Side; 2], messages: &[(usize, usize, usize, usize)], pair: bool) -> Vec<Vec<u8>> {
    let [(srows, _, (sb, ss, sspan)), (rrows, _, (rb, rs, rspan))] = sides;
    let at = |base: usize, s: &Segment| (base as isize + s.offset) as usize;
    let n = 4 - 2 * usize::from(pair);
    let mut ranks: Vec<_> = (0..n).map(|me| fill(me + 4, *rspan)).collect();
    for &(me, j, from, to) in messages {
        let src = fill(j, *sspan);
        let bytes_of = |s: &Segment| &src[at(sb + from * ss, s)..][..s.len];
        let mut stream = srows.iter().flat_map(bytes_of);
        for s in rrows {
            ranks[me][at(rb + to * rs, s)..][..s.len].fill_with(|| *stream.next().unwrap());
        }
    }
    ranks[0].truncate(if pair { 0 } else { *rspan });
    ranks
}

/// One rank of a run: its buffers filled with its own bytes, its part
/// played (a pair's receiver posts only when a message is `coming`), and
/// what it returns — a pair sender's typed error, or its whole receive
/// buffer.
fn rank(d: &Draw, sides: &[Side; 2], coming: bool, comm: &Comm, gpu: Option<&Gpu>) -> Got {
    let buf = |bytes: Vec<u8>| match gpu {
        None => Loc::Host(HostBuf::from_vec(bytes).base()),
        Some(gpu) => {
            let dev = gpu.malloc(bytes.len());
            gpu.write_bytes(dev, &bytes);
            Loc::Device(dev)
        }
    };
    let [(_, sc, (sb, ss, sspan)), (_, rc, (rb, rs, rspan))] = *sides;
    let (me, send) = (comm.rank(), d.0.dt.build());
    send.commit();
    if d.3.is_none() && me == 0 {
        let req = comm.isend(buf(fill(0, sspan)).add(sb), sc, &send, 1, 0);
        return (comm.wait_result(req).err(), Vec::new());
    }
    let to = buf(fill(me + 4, rspan));
    match &d.3 {
        None if coming => drop(comm.recv(to.add(rb), rc, &send, 0, 0)),
        None => {}
        Some((_, recv)) => {
            let (recv, displs) = (recv.build(), |b, s| [0, 1, 2, 3].map(|j| b + j * s));
            recv.commit();
            let (from, sd, rd) = (buf(fill(me, sspan)), displs(sb, ss), displs(rb, rs));
            comm.alltoallv(from, &[sc; 4], &sd, &send, to.clone(), &[rc; 4], &rd, &recv);
        }
    }
    match (&to, gpu) {
        (Loc::Host(p), _) => (None, p.buf().read(0, rspan)),
        (Loc::Device(p), Some(gpu)) => (None, gpu.read_bytes(*p, rspan)),
        _ => unreachable!("device memory without a GPU"),
    }
}

/// What a rank returns: a pair sender's typed error, a receiver's buffer.
type Got = (Option<MpiError>, Vec<u8>);

/// What one run left behind: the ranks' returns, the receiver's first
/// `cts*` proto instant, what two runs of one path must agree on besides
/// `end` — every counter of the run and its Chrome trace — and whether the
/// device packed and unpacked (any `pack`, any `unpack` stage span).
type Ran = (Outcome<Got>, Option<&'static str>, Events, [bool; 2]);

/// Every counter of a run, and its Chrome trace.
type Events = (BTreeMap<String, u64>, String);

/// The typed refusal of `Force(NicOffload)` on a layout the HCA cannot walk.
const REJECTED: MpiError = MpiError::Rejected {
    err: ConfigError::ForcedOffloadIrregular,
};

fn run(d: &Draw, sel: SchemeSel, sides: &[Side; 2], coming: bool) -> Ran {
    let (World(ppn, exec, faults, block), rec) = (d.2.clone(), Recorder::new());
    let mut cfg = MpiConfig::default();
    (cfg.scheme, cfg.ppn, cfg.coll.algo) = (sel, ppn, d.3.as_ref().map_or(CollAlgo::Hier, |c| c.0));
    if let Some(block) = block {
        (cfg.chunk_size, cfg.policy) = (block, ChunkPolicy::Fixed);
    }
    let faults = faults.map(|seed| {
        let mut f = FaultSpec::seeded(seed);
        (f.ctrl_drop, f.ctrl_delay, f.rdma_error, f.desc_fetch_error) = (0.1, 0.1, 0.1, 0.2);
        f
    });
    let (n, d2, sides) = (if d.3.is_some() { 4 } else { 2 }, d.clone(), sides.clone());
    let out = if d.1 {
        let c = GpuCluster::new(n).mpi_config(cfg).recorder(rec.clone());
        let c = faults.into_iter().fold(c, GpuCluster::faults);
        let c = c.exec(exec).sanitizer(SanitizerMode::Collect);
        c.try_run(move |env| rank(&d2, &sides, coming, &env.comm, Some(&env.gpu)))
    } else {
        let w = MpiWorld::new(n).with_config(cfg).with_recorder(rec.clone());
        let w = faults.into_iter().fold(w, MpiWorld::with_faults);
        let w = w.with_exec(exec).with_sanitizer(SanitizerMode::Collect);
        w.try_run(move |comm| rank(&d2, &sides, coming, &comm, None))
    };
    let proto = rec.lane("rank1", "proto", LaneKind::Proto).id();
    let cts = rec.events().into_iter().find_map(|e| match e.kind {
        EventKind::Instant { name, .. } if e.lane == proto => name.strip_prefix("cts"),
        _ => None,
    });
    let spans = analysis::spans(&rec);
    let stage = |lane: &str| spans.iter().any(|s| s.lane_name == lane);
    let packed = [stage("pack"), stage("unpack")];
    (out, cts, (rec.metrics(), chrome_trace(&rec)), packed)
}

/// Run `d` under each of its schemes and check every run; runs that took
/// the same path must agree event for event. Counts the cells of the matrix
/// the draw reaches into `cells`.
fn check(d: &Draw, cells: &Mutex<BTreeMap<String, usize>>) -> Result<(), String> {
    let hit = |yes: bool, cell: &str| {
        yes.then(|| *cells.lock().unwrap().entry(cell.into()).or_default() += 1)
    };
    let Draw(TypeSpec { dt, count }, gpu, World(ppn, exec, faults, _), coll) = d;
    let (sides, near, pair) = (d.sides(), *ppn == 2, coll.is_none());
    let (rows, res) = (&sides[0].0, ["host", "GPU"][usize::from(*gpu)]);
    let (shape, rendezvous) = (Canonical::classify(rows), bytes(rows) > 8 << 10);
    let has = |f: &dyn Fn(&DtSpec) -> bool| pair && !rows.is_empty() && dt.any(f);
    let form = format!("{shape:?} ");
    let layout = format!("{} on the {res}", form.split(' ').next().unwrap());
    let alltoallv = coll
        .as_ref()
        .map(|(algo, _)| format!("alltoallv under {algo:?}"));
    let zero = ["zero-size type", "zero-count type"][usize::from(*count == 0)];
    hit(true, &format!("ppn {ppn}"));
    hit(true, &format!("{exec:?}"));
    hit(true, &format!("faults: {}", faults.is_some()));
    hit(pair, &layout);
    hit(!pair, &alltoallv.unwrap_or_default());
    hit(pair && rows.is_empty(), zero);
    let hvector = has(&|t| matches!(t, DtSpec::Hvector(_, 1.., ..=-1, _)));
    let resized = has(&|t| matches!(t, DtSpec::Resized(..=-1, ..)));
    let hindexed = has(&|t| matches!(t, DtSpec::Hindexed(v, _) if v.iter().any(|b| b.1 < 0)));
    hit(hvector, "negative-stride hvector");
    hit(resized, "negative-lb resized");
    hit(hindexed, "negative-displacement hindexed");
    let groups = WireDescriptor::lower(&Plan::from_segments(rows.clone()), usize::MAX);
    let groups = groups.map(|w| w.entries().len());
    let entries = ["offload on, <= 256 entries", "offload on, > 256 entries"];
    let entries = entries[usize::from(groups > Some(128))];
    // Offload was on the table: a remote host pair at rendezvous size whose
    // layout lowers to a descriptor of `groups` entries a side.
    let considered = !near && !gpu && rendezvous && groups.is_some();
    // ... and the HCA walks it: both sides within the 256-entry budget, and
    // forced, or under `Auto` when fetching both descriptors costs less than
    // packing and unpacking the rows on the CPU — unless a direct R-PUT
    // serves it first.
    let walks = considered && groups <= Some(128);
    let contig = matches!(shape, Canonical::Contig { .. });
    // An eager device message is one chunk: `Auto` moves it in one pitched
    // copy a side where the device's cost model prices that below pack +
    // copy, and packs it otherwise, as every forced scheme does.
    let pieces = Plan::from_segments(rows.clone()).pieces(0, bytes(rows));
    let model = CostModel::tesla_c2050();
    let device = *gpu && !contig && !rows.is_empty();
    let pitched = [true, false].map(|g| pitched_run(&model, g, &pieces).is_some());
    let (entry_ns, cpu) = (NetModel::qdr().offload_entry_ns, CpuModel::westmere());
    let walk_ns = 2 * groups.unwrap_or(0) as u64 * entry_ns;
    let pays = walk_ns < 2 * cpu.pack_time(bytes(rows), rows.len()).as_nanos();
    let auto_walks = walks && !contig && pays;
    // Receiver, sender, sender's block, receiver's block: a pair's one
    // message, or `alltoallv`'s sixteen.
    let message = |m: usize| (m / 4 + usize::from(pair), m % 4, m / 4, m % 4);
    let all: Vec<_> = (0..[16, 1][usize::from(pair)]).map(message).collect();
    let mut seen: Vec<(&str, SchemeSel, Ran)> = Vec::new();
    let nic = SchemeSel::Force(DataScheme::NicOffload);
    for &sel in &SCHEMES[..if pair { SCHEMES.len() } else { 1 }] {
        let refused = sel == nic && !gpu && !near && groups.is_none() && rendezvous;
        let messages = &all[..if pair && refused { 0 } else { all.len() }];
        let ran = run(d, sel, &sides, !messages.is_empty());
        let (out, counters) = (&ran.0, &ran.2 .0);
        let fail = |what: String| Err(format!("{sel:?}: {what}"));
        if let Err(e) = &out.end {
            return fail(format!("the job died: {e}"));
        }
        if let Some(r) = out.reports.first() {
            return fail(format!("a sanitizer report: {r}"));
        }
        let wants = want(&sides, messages, pair);
        for (r, ((_, got), want)) in out.ranks.iter().zip(wants).enumerate() {
            let differs = |i: &usize| got.get(*i) != want.get(*i);
            if let Some(i) = (got != &want).then(|| (0..).find(differs)).flatten() {
                let (got, want) = (got.get(i), want.get(i));
                return fail(format!("rank {r} byte {i} is {got:?}, not {want:?}"));
            }
        }
        if !pair {
            continue;
        }
        let rejected = out.ranks[0].0 == Some(REJECTED);
        let path = match (&out.ranks[0].0, ran.1) {
            _ if rejected => "rejected",
            (Some(e), _) => return fail(format!("the send failed: {e}")),
            (None, Some("")) => "staged",
            (None, Some(cts)) => &cts[1..],
            (None, None) => ["eager", "shm_eager"][usize::from(near)],
        };
        let hca = counters.get("node0.hca.tx_bytes").copied().unwrap_or(0);
        if near && hca > 0 {
            return fail(format!("{hca} bytes went through the HCA"));
        }
        let priced = matches!(sel, SchemeSel::Auto { .. });
        if device && ["eager", "shm_eager"].contains(&path) {
            let want = pitched.map(|p| !(priced && p));
            if ran.3 != want {
                return fail(format!(
                    "packed/unpacked {:?}; the price says {want:?}",
                    ran.3
                ));
            }
        }
        // Same path, same events: `Auto` and the `Force` it resolved to, and
        // every forced scheme that fell back — where they crossed PCIe alike.
        let twin = |(p, _, twin): &&(&str, SchemeSel, Ran)| *p == path && twin.3 == ran.3;
        if let Some((_, first, twin)) = seen.iter().find(twin).filter(|_| !rejected) {
            if (&twin.0.end, &twin.2) != (&out.end, &ran.2) {
                let ends = (&twin.0.end, &out.end);
                return fail(format!("took {path} as {first:?} did; ends {ends:?}"));
            }
        }
        let mode = ["Force", "Auto"][usize::from(matches!(sel, SchemeSel::Auto { .. }))];
        if (path == "offload") != (sel == nic && walks || sel == SCHEMES[1] && auto_walks) {
            return fail(format!("took {path}; the offload policy says otherwise"));
        }
        hit(true, &format!("{path} under {mode}"));
        hit(
            device && ran.3 != [true; 2],
            "a device pair crosses PCIe pitched",
        );
        if sel == SchemeSel::Force(DataScheme::Staged) && *gpu && out.ranks != seen[0].2 .0.ranks {
            return fail("delivered other bytes than Auto".into());
        }
        hit(near && !rows.is_empty(), "co-located pair, no HCA bytes");
        hit(considered && (sel == nic || sel == SCHEMES[1]), entries);
        let auto = [
            "Auto declines a walkable layout",
            "Auto walks a walkable layout",
        ];
        hit(
            sel == SCHEMES[1] && walks && !contig,
            auto[usize::from(auto_walks)],
        );
        seen.push((path, sel, ran));
    }
    Ok(())
}

/// Every named row and generated draw holds, and together they reach every
/// cell of the matrix: each `Canonical` form on the host and on the GPU;
/// every path under `Auto` and forced; offload enabled with combined
/// descriptor entries on both sides of the 256-entry budget; `Auto` both
/// taking and declining the walk of a layout the HCA can walk; both
/// placements, carriers and fault settings; zero-count and zero-size types;
/// a negative-stride `hvector`, a negative-displacement `hindexed` and a
/// negative-lb `resized` received into; the typed rejection of
/// `Force(NicOffload)` on `Irregular`; co-located pairs that keep off the
/// HCA; `alltoallv` under both algorithms. The draws are a pure function of
/// [`SEED`], so the table printed is too. A failing draw shrinks greedily to
/// a minimal one, printed as a `named_rows()` entry that replays it.
#[test]
fn generated_draws_hold_and_reach_every_cell() {
    assert_eq!(format!("{:?}", draws()), format!("{:?}", draws()));
    let mut rows = named_rows();
    rows.extend((0..).zip(draws()).map(|(i, d)| (format!("draw {i}"), d)));
    // The named rows' cells and the generated draws' apart, so the table
    // shows what the generator reaches on its own.
    let (named, drawn) = (&Mutex::new(BTreeMap::new()), &Mutex::new(BTreeMap::new()));
    // Two halves at once: every run is a world of its own.
    std::thread::scope(|s| {
        for half in rows.chunks(rows.len().div_ceil(2)) {
            s.spawn(move || {
                for (n, d) in half {
                    hold(
                        n,
                        d.clone(),
                        [named, drawn][usize::from(n.starts_with("draw "))],
                    );
                }
            });
        }
    });
    let (mut cells, drawn) = (named.lock().unwrap().clone(), drawn.lock().unwrap());
    for (cell, n) in drawn.iter() {
        *cells.entry(cell.clone()).or_default() += n;
    }
    println!("cases per cell: {cells:#?}");
    let pitched = "a device pair crosses PCIe pitched";
    let generated = drawn.get(pitched).copied().unwrap_or(0);
    println!("of them generated, {pitched}: {generated}");
    assert!(generated > 0, "no generated draw reached \"{pitched}\"");
    let want = "Contig on the host|Contig on the GPU|Strided1D on the host|Strided1D on the GPU|\
        Strided2D on the host|Strided2D on the GPU|Irregular on the host|Irregular on the GPU|\
        eager under Auto|eager under Force|shm_eager under Auto|shm_eager under Force|\
        staged under Auto|staged under Force|direct under Auto|direct under Force|\
        offload under Auto|offload under Force|dev under Auto|dev under Force|\
        offload on, <= 256 entries|offload on, > 256 entries|Auto walks a walkable layout|\
        Auto declines a walkable layout|zero-count type|zero-size type|\
        negative-stride hvector|negative-displacement hindexed|negative-lb resized|\
        rejected under Force|co-located pair, no HCA bytes|a device pair crosses PCIe pitched|\
        alltoallv under Flat|\
        alltoallv under Hier|ppn 1|ppn 2|Event|Threads|faults: false|faults: true";
    let missing = |c: &&str| !cells.contains_key(*c);
    let empty: Vec<&str> = want.split('|').filter(missing).collect();
    assert!(empty.is_empty(), "cells never reached: {empty:?}");
}

/// Check one row; on a failure shrink it greedily to a minimal draw and
/// panic with the `named_rows()` entry that replays it.
fn hold(name: &str, mut d: Draw, cells: &Mutex<BTreeMap<String, usize>>) {
    let Err(mut msg) = check(&d, cells) else {
        return;
    };
    let fails = |c: &Draw| Some((c.clone(), check(c, &Mutex::default()).err()?));
    while let Some((smaller, m)) = d.shrinks().iter().find_map(fails) {
        (d, msg) = (smaller, m);
    }
    let row = format!("{d:?}").replace('[', "vec![");
    panic!("{name} (seed {SEED:#x}) fails. Shrunk: {msg}\nReplay with this row of `named_rows()`: {row}");
}
