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

use gpu_sim::{Copy2d, DevPtr, Gpu, Loc, Stream};
use mpi_sim::flat::{push_run, Run};
use sim_core::Completion;

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
    let params = |run: &Run, cbase: DevPtr| {
        let (strided, packed) = (Loc::Device(user.add_signed(run.offset)), Loc::Device(cbase));
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
    };
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
        for run in pieces {
            g.copy_2d_untimed(&params(run, coff));
            coff = coff.add(run.bytes());
        }
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
