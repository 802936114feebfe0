//! GPU-offloaded datatype packing: turn runs of a flattened datatype into
//! device-internal copy operations.
//!
//! This is the paper's first contribution (§IV-A): instead of moving each
//! non-contiguous row across PCIe, the layout is packed *inside* device
//! memory — ideally with a single strided `cudaMemcpy2D` — and then crosses
//! PCIe as one contiguous block.
//!
//! A pipeline chunk is a packed-byte range of the message's shared
//! [`mpi_sim::Plan`]; [`mpi_sim::Plan::pieces`] clips the plan's run list
//! to it. [`enqueue_gather`] / [`enqueue_scatter`] pick the cheapest device
//! operation sequence off that short list — never looking at a row:
//!
//! * one contiguous `memcpy` for a single row,
//! * one strided 2-D copy for a single run (optionally around a first and
//!   last row that chunk boundaries trimmed),
//! * a generic gather/scatter pack kernel for everything else
//!   (indexed/struct types and two-level shapes — beyond what the paper
//!   evaluated, but what its production descendants do), charged by bytes
//!   and rows and executed as one in-arena pitched copy per run.
//!
//! Packing is how the paper crosses PCIe. Its §I-A prices three ways to
//! move a strided device buffer to the host — (a) one pitched copy strided
//! on both sides, (b) one pitched copy into contiguous host memory, (c) a
//! device pack, then one contiguous copy — and always takes (c), because
//! its vectors have thousands of narrow rows. A one-chunk message of a few
//! wide rows is the other way round: [`Crossing::of`] prices (b) and (c)
//! with the device's own closed forms, [`pitched_run`] picks by that price
//! and [`enqueue_pitched`] enqueues (b).

use gpu_sim::{Copy2d, CopyDir, CostModel, DevPtr, Gpu, Loc, Shape2D, Stream};
use hostmem::HostPtr;
use mpi_sim::flat::{push_run, Run};
use sim_core::{Completion, SimDur};

/// Enqueue the device ops that pack `pieces` of the user buffer at `user`
/// into contiguous device memory at `dst`. Returns the completion of the
/// last op.
pub fn enqueue_gather(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    pieces: &[Run],
    dst: DevPtr,
) -> Completion {
    enqueue_strided(gpu, stream, user, pieces, dst, true)
}

/// Enqueue the device ops that scatter contiguous device memory at `src`
/// into `pieces` of the user buffer at `user`.
pub fn enqueue_scatter(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    pieces: &[Run],
    src: DevPtr,
) -> Completion {
    enqueue_strided(gpu, stream, user, pieces, src, false)
}

/// `pieces` (two or more runs in normal form) as first row, middle, last
/// row — when every row between the first and the last is one progression
/// of at least two rows, no narrower than either end. Chunk boundaries
/// often clip the ends of an otherwise single-level pattern this way.
fn peel(pieces: &[Run]) -> Option<(Run, Run, Run)> {
    let (first, last) = (pieces.first()?, pieces.last()?);
    let mut middle = Vec::new();
    push_run(&mut middle, first.slice(1, first.count - 1));
    for r in &pieces[1..pieces.len() - 1] {
        push_run(&mut middle, *r);
    }
    push_run(&mut middle, last.slice(0, last.count - 1));
    let (head, tail) = (first.slice(0, 1), last.slice(last.count - 1, 1));
    match middle[..] {
        [m] if m.count >= 2 && head.len <= m.len && tail.len <= m.len => Some((head, m, tail)),
        _ => None,
    }
}

/// The copy between the rows of `run` in the user buffer at `user` and the
/// same bytes packed at `packed`: into `packed` when `gather`, out of it
/// otherwise.
fn run_copy(user: DevPtr, run: &Run, packed: Loc, gather: bool) -> Copy2d {
    let strided = Loc::Device(user.add_signed(run.offset));
    let ((dst, dpitch), (src, spitch)) = if gather {
        ((packed, run.len), (strided, run.stride))
    } else {
        ((strided, run.stride), (packed, run.len))
    };
    Copy2d {
        dst,
        dpitch,
        src,
        spitch,
        width: run.len,
        height: run.count,
    }
}

/// The PCIe crossing of one strided run, priced both ways by the device's
/// closed forms: what [`enqueue_pitched`] charges against what
/// [`enqueue_gather`]/[`enqueue_scatter`] plus one contiguous copy charge.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Crossing {
    /// One pitched copy between the user's rows and the contiguous host
    /// bytes (§I-A option (b)).
    pub pitched: SimDur,
    /// The device pack or unpack of the run — one strided device-internal
    /// copy — plus one contiguous copy across PCIe (option (c)).
    pub packed: SimDur,
}

impl Crossing {
    /// The crossing of `run` (rows `stride` apart) to the host when
    /// `gather` (D2H), from it otherwise (H2D).
    pub fn of(model: &CostModel, gather: bool, run: &Run) -> Crossing {
        let dir = if gather { CopyDir::D2H } else { CopyDir::H2D };
        let (width, height) = (run.len as u64, run.count as u64);
        let rows = |dir| model.copy2d(dir, Shape2D::OneStrided, width, height);
        Crossing {
            pitched: rows(dir),
            packed: rows(CopyDir::D2D) + model.copy1d(dir, width * height),
        }
    }
}

/// The run a one-chunk message whose packed bytes are `pieces` crosses
/// PCIe as, in one pitched copy: `Some` when they are one strided run and
/// [`Crossing::of`] prices that copy below pack + copy; `gather` as there.
pub fn pitched_run(model: &CostModel, gather: bool, pieces: &[Run]) -> Option<Run> {
    let [run] = *pieces else { return None };
    let strided = run.count >= 2 && run.stride != run.len;
    let c = Crossing::of(model, gather, &run);
    (strided && c.pitched < c.packed).then_some(run)
}

/// Enqueue one pitched copy between `run` of the user buffer at `user` and
/// the contiguous host bytes at `host`: a D2H when `gather`, an H2D
/// otherwise.
pub fn enqueue_pitched(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    run: &Run,
    host: HostPtr,
    gather: bool,
) -> Completion {
    gpu.memcpy_2d_async(run_copy(user, run, Loc::Host(host), gather), stream)
}

fn enqueue_strided(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    pieces: &[Run],
    contig: DevPtr,
    gather: bool,
) -> Completion {
    assert!(!pieces.is_empty(), "empty piece list");
    let total: usize = pieces.iter().map(Run::bytes).sum();

    // The rows of `run` in the user buffer <-> packed at `cbase`.
    let params = |run: &Run, cbase: DevPtr| run_copy(user, run, Loc::Device(cbase), gather);
    // One row (or unmerged back-to-back rows) is a plain copy, any other
    // run one 2-D copy.
    let copy = |run: &Run, cbase: DevPtr| {
        let p = params(run, cbase);
        if run.count == 1 || run.stride == run.len {
            gpu.memcpy_async(p.dst, p.src, run.bytes(), stream)
        } else {
            gpu.memcpy_2d_async(p, stream)
        }
    };

    if let [run] = pieces {
        return copy(run, contig);
    }
    if let Some((head, middle, tail)) = peel(pieces) {
        copy(&head, contig);
        let mid = contig.add(head.len);
        gpu.memcpy_2d_async(params(&middle, mid), stream);
        return copy(&tail, mid.add(middle.bytes()));
    }

    // Everything else: one generic gather/scatter kernel.
    let rows = pieces.iter().map(|r| r.count).sum();
    let cost = gpu.cost_model().pack_kernel(total as u64, rows);
    let name = if gather {
        "pack_gather"
    } else {
        "unpack_scatter"
    };
    gpu.launch_kernel(name, cost, stream, |g| {
        let mut coff = contig;
        g.copy_2d_untimed_d2d(pieces.iter().map(|run| {
            let p = params(run, coff);
            coff = coff.add(run.bytes());
            p
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::flat::{rows, Segment};
    use mpi_sim::{Canonical, Datatype, Plan};
    use sim_core::Sim;
    use std::sync::Arc;

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("t", f);
        sim.run();
    }

    fn plan_of(dt: &Datatype, count: usize) -> Arc<Plan> {
        dt.commit();
        dt.plan(count)
    }

    fn segs(runs: &[(isize, usize)]) -> Vec<Segment> {
        runs.iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect()
    }

    #[test]
    fn pieces_slices_ranges() {
        let dt = Datatype::vector(4, 1, 4, &Datatype::float());
        let m = plan_of(&dt, 1); // rows of 4 at 0,16,32,48
        assert_eq!(m.total(), 16);
        let all = segs(&[(0, 4), (16, 4), (32, 4), (48, 4)]);
        assert_eq!(rows(&m.pieces(0, 16)), all);
        assert_eq!(rows(&m.pieces(2, 4)), segs(&[(2, 2), (16, 2)]));
        assert_eq!(rows(&m.pieces(6, 6)), segs(&[(18, 2), (32, 4)]));
        assert!(m.pieces(16, 0).is_empty());
    }

    #[test]
    fn peel_needs_a_two_row_middle_no_narrower_than_the_ends() {
        let m = plan_of(&Datatype::vector(32, 1, 8, &Datatype::float()), 1);
        let run = |offset, len, stride, count| Run {
            offset,
            len,
            stride,
            count,
        };
        // Clipped at both ends, and an unclipped first row with a clipped
        // last one: the first row is peeled off either way.
        assert_eq!(
            peel(&m.pieces(2, 100)),
            Some((run(2, 2, 2, 1), run(32, 4, 32, 24), run(800, 2, 2, 1)))
        );
        assert_eq!(
            peel(&m.pieces(0, 14)),
            Some((run(0, 4, 32, 1), run(32, 4, 32, 2), run(96, 2, 2, 1)))
        );
        // One whole row between the clipped ends is not a 2-D copy.
        assert_eq!(peel(&m.pieces(2, 8)), None);
        // Ends wider than the middle's rows, or two progressions between.
        let soup = Plan::from_segments(segs(&[(0, 8), (16, 4), (32, 4), (48, 4), (64, 2)]));
        assert_eq!(peel(soup.runs()), None);
        let planes = plan_of(
            &Datatype::resized(&Datatype::vector(4, 1, 8, &Datatype::float()), 0, 4),
            3,
        );
        assert_eq!(peel(planes.runs()), None);
    }

    #[test]
    fn a_few_rows_cross_pitched_and_the_paper_vectors_stay_packed() {
        let model = CostModel::tesla_c2050();
        let vector = |len, count| Run {
            offset: 0,
            len,
            stride: 2 * len,
            count,
        };
        // The pitched copy's per-row cost outgrows the pack's fixed cost at
        // these row counts: send (D2H) and receive (H2D), 4- and 64-byte
        // rows. Past them the difference only grows.
        let last_pitched = |gather, len| {
            (2..)
                .take_while(|&n| pitched_run(&model, gather, &[vector(len, n)]).is_some())
                .last()
        };
        assert_eq!(
            [last_pitched(true, 4), last_pitched(false, 4)],
            [Some(62), Some(286)]
        );
        assert_eq!(
            [last_pitched(true, 64), last_pitched(false, 64)],
            [Some(62), Some(303)]
        );
        // The shapes the paper measures stay packed both ways: a 4 KiB
        // vector of floats and anything longer.
        for (gather, n) in [(true, 1024), (false, 1024), (true, 4096), (false, 4096)] {
            let c = Crossing::of(&model, gather, &vector(4, n));
            assert!(c.packed < c.pitched, "{n} rows, gather {gather}: {c:?}");
            assert_eq!(pitched_run(&model, gather, &[vector(4, n)]), None);
        }
        // Only one strided run is priced: a single row, back-to-back rows
        // and two runs keep what `enqueue_gather` does with them.
        let contiguous = Run {
            stride: 4,
            ..vector(4, 16)
        };
        for pieces in [
            vec![vector(64, 1)],
            vec![contiguous],
            vec![vector(64, 4), vector(64, 4)],
        ] {
            assert_eq!(pitched_run(&model, true, &pieces), None, "{pieces:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds packed size")]
    fn pieces_out_of_range_panics() {
        let dt = Datatype::float();
        let m = plan_of(&dt, 1);
        let _ = m.pieces(0, 5);
    }

    #[test]
    fn chunk_shape_detection() {
        let shape = |runs: &[(isize, usize)]| Canonical::classify(&segs(runs));
        assert_eq!(
            shape(&[(0, 4), (16, 4), (32, 4)]),
            Canonical::Strided1D {
                first: 0,
                block: 4,
                stride: 16,
                count: 3
            }
        );
        assert_eq!(shape(&[(8, 4)]), Canonical::Contig { offset: 8, len: 4 });
        assert_eq!(shape(&[(0, 4), (16, 8)]), Canonical::Irregular);
        assert_eq!(shape(&[(0, 4), (16, 4), (30, 4)]), Canonical::Irregular);
        assert_eq!(shape(&[]), Canonical::Contig { offset: 0, len: 0 });
    }

    #[test]
    fn gather_uniform_uses_one_2d_copy() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(256);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..=255).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::vector(8, 1, 8, &Datatype::float());
            let m = plan_of(&dt, 1);
            let before = gpu.counters().get("cudaMemcpy2DAsync");
            let c = enqueue_gather(&gpu, &s, user, &m.pieces(0, 32), tbuf);
            c.wait();
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), before + 1);
            let got = gpu.read_bytes(tbuf, 32);
            for r in 0..8 {
                assert_eq!(&got[r * 4..r * 4 + 4], gpu.read_bytes(user.add(r * 32), 4));
            }
        });
    }

    #[test]
    fn gather_with_clipped_head_tail() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(1024);
            let tbuf = gpu.malloc(256);
            gpu.write_bytes(
                user,
                &(0..1024).map(|i| (i * 7 % 251) as u8).collect::<Vec<_>>(),
            );
            let s = gpu.create_stream();
            let dt = Datatype::vector(32, 1, 8, &Datatype::float());
            let m = plan_of(&dt, 1); // 32 runs of 4 bytes
                                     // A range that starts and ends mid-run.
            let pieces = m.pieces(2, 100);
            let c = enqueue_gather(&gpu, &s, user, &pieces, tbuf);
            c.wait();
            // Reference: CPU-computed expected packed bytes.
            let all: Vec<u8> = (0..32)
                .flat_map(|r| gpu.read_bytes(user.add(r * 32), 4))
                .collect();
            assert_eq!(gpu.read_bytes(tbuf, 100), &all[2..102]);
        });
    }

    #[test]
    fn irregular_layout_uses_pack_kernel() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(256);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..=255).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::indexed(&[(1, 0), (2, 9), (1, 30), (3, 40)], &Datatype::int());
            let m = plan_of(&dt, 1);
            let before = gpu.counters().get("kernelLaunch");
            let c = enqueue_gather(&gpu, &s, user, &m.pieces(0, m.total()), tbuf);
            c.wait();
            assert_eq!(gpu.counters().get("kernelLaunch"), before + 1);
            let mut expect = Vec::new();
            for (bl, disp) in [(1usize, 0usize), (2, 9), (1, 30), (3, 40)] {
                expect.extend(gpu.read_bytes(user.add(disp * 4), bl * 4));
            }
            assert_eq!(gpu.read_bytes(tbuf, m.total()), expect);
        });
    }

    #[test]
    fn two_level_layout_uses_pack_kernel() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(256);
            let tbuf = gpu.malloc(64);
            gpu.write_bytes(user, &(0..=255).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            // Three columns of four rows: `Strided2D`, which no single
            // `cudaMemcpy2D` covers.
            let col = Datatype::vector(4, 1, 8, &Datatype::float());
            let m = plan_of(&Datatype::resized(&col, 0, 4), 3);
            assert!(matches!(Canonical::of(&m), Canonical::Strided2D { .. }));
            let (k, c2d) = ("kernelLaunch", "cudaMemcpy2DAsync");
            let before = (gpu.counters().get(k), gpu.counters().get(c2d));
            enqueue_gather(&gpu, &s, user, &m.pieces(0, m.total()), tbuf).wait();
            let after = (gpu.counters().get(k), gpu.counters().get(c2d));
            assert_eq!(after, (before.0 + 1, before.1));
            let expect: Vec<u8> = (0..3)
                .flat_map(|c| {
                    (0..4).flat_map(move |r| (0..4).map(move |b| (c * 4 + r * 32 + b) as u8))
                })
                .collect();
            assert_eq!(gpu.read_bytes(tbuf, m.total()), expect);
        });
    }

    #[test]
    fn scatter_inverts_gather() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let a = gpu.malloc(512);
            let b = gpu.malloc(512);
            let tbuf = gpu.malloc(128);
            gpu.write_bytes(a, &(0..512).map(|i| (i % 241) as u8).collect::<Vec<_>>());
            let s = gpu.create_stream();
            let dt = Datatype::vector(16, 2, 8, &Datatype::float());
            let m = plan_of(&dt, 1); // 16 runs of 8 bytes, pitch 32
            let pieces = m.pieces(0, m.total());
            enqueue_gather(&gpu, &s, a, &pieces, tbuf).wait();
            enqueue_scatter(&gpu, &s, b, &pieces, tbuf).wait();
            for r in 0..16 {
                assert_eq!(
                    gpu.read_bytes(b.add(r * 32), 8),
                    gpu.read_bytes(a.add(r * 32), 8),
                    "run {r}"
                );
            }
        });
    }

    #[test]
    fn contiguous_range_uses_1d_copy() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(128);
            let tbuf = gpu.malloc(128);
            gpu.write_bytes(user, &(0..128).collect::<Vec<u8>>());
            let s = gpu.create_stream();
            let dt = Datatype::contiguous(32, &Datatype::float());
            let m = plan_of(&dt, 1);
            let before2d = gpu.counters().get("cudaMemcpy2DAsync");
            enqueue_gather(&gpu, &s, user, &m.pieces(0, 128), tbuf).wait();
            assert_eq!(gpu.counters().get("cudaMemcpy2DAsync"), before2d);
            assert_eq!(gpu.read_bytes(tbuf, 128), gpu.read_bytes(user, 128));
        });
    }
}
