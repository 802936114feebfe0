//! GPU-offloaded datatype packing: turn runs of a flattened datatype into
//! device-internal copy operations.
//!
//! This is the paper's first contribution (§IV-A): instead of moving each
//! non-contiguous row across PCIe, the layout is packed *inside* device
//! memory — ideally with a single strided `cudaMemcpy2D` — and then crosses
//! PCIe as one contiguous block.
//!
//! A pipeline chunk is a packed-byte range of the message's shared
//! [`mpi_sim::Plan`]; [`mpi_sim::Plan::pieces`] maps it to the runs of the
//! user buffer it covers. [`enqueue_gather`] / [`enqueue_scatter`] read the
//! shape of that run list off the workspace's one classifier
//! ([`Canonical::classify`]) and emit the cheapest device operation
//! sequence for it:
//!
//! * one contiguous `memcpy` for [`Canonical::Contig`],
//! * one strided 2-D copy for [`Canonical::Strided1D`] (optionally around
//!   trimmed head/tail runs from chunk boundaries),
//! * a generic gather/scatter pack kernel for everything else
//!   (indexed/struct types and two-level shapes — beyond what the paper
//!   evaluated, but what its production descendants do).

use gpu_sim::{Copy2d, DevPtr, Gpu, Loc, Stream};
use mpi_sim::flat::Segment;
use mpi_sim::Canonical;
use sim_core::Completion;

/// Enqueue the device ops that pack `pieces` of the user buffer at `user`
/// into contiguous device memory at `dst`. Returns the completion of the
/// last op.
pub fn enqueue_gather(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    pieces: &[Segment],
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
    pieces: &[Segment],
    src: DevPtr,
) -> Completion {
    enqueue_strided(gpu, stream, user, pieces, src, false)
}

fn enqueue_strided(
    gpu: &Gpu,
    stream: &Stream,
    user: DevPtr,
    pieces: &[Segment],
    contig: DevPtr,
    gather: bool,
) -> Completion {
    assert!(!pieces.is_empty(), "empty piece list");
    let total: usize = pieces.iter().map(|p| p.len).sum();

    // One run of the user buffer <-> `cbase`.
    let copy1d = |run: isize, len: usize, cbase: DevPtr| {
        let run = user.add_signed(run);
        let (dst, src) = if gather { (cbase, run) } else { (run, cbase) };
        gpu.memcpy_async(dst, src, len, stream)
    };
    // `count` blocks of the user buffer, `stride` apart <-> `cbase`.
    let copy2d = |first: isize, block: usize, stride: usize, count: usize, cbase: DevPtr| {
        let (strided, packed) = (Loc::Device(user.add_signed(first)), Loc::Device(cbase));
        let ((dst, dpitch), (src, spitch)) = if gather {
            ((packed, block), (strided, stride))
        } else {
            ((strided, stride), (packed, block))
        };
        gpu.memcpy_2d_async(
            Copy2d {
                dst,
                dpitch,
                src,
                spitch,
                width: block,
                height: count,
            },
            stream,
        )
    };

    match Canonical::classify(pieces) {
        Canonical::Contig { offset, .. } => return copy1d(offset, total, contig),
        // Unmerged back-to-back blocks are still one plain copy.
        Canonical::Strided1D {
            first,
            block,
            stride,
            ..
        } if stride == block => return copy1d(first, total, contig),
        Canonical::Strided1D {
            first,
            block,
            stride,
            count,
        } => return copy2d(first, block, stride, count, contig),
        Canonical::Strided2D { .. } | Canonical::Irregular => {}
    }

    // Chunk boundaries often clip the first/last run of an otherwise
    // single-level pattern: peel them off and 2-D-copy the middle.
    if let [head, middle @ .., tail] = pieces {
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

    // Everything else: one generic gather/scatter kernel.
    let cost = gpu.cost_model().pack_kernel(total as u64, pieces.len());
    let name = if gather {
        "pack_gather"
    } else {
        "unpack_scatter"
    };
    gpu.launch_kernel(name, cost, stream, |g| {
        let mut coff = contig;
        for p in pieces {
            let run = user.add_signed(p.offset);
            let (dst, src) = if gather { (coff, run) } else { (run, coff) };
            g.write_bytes(dst, &g.read_bytes(src, p.len));
            coff = coff.add(p.len);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::{Datatype, Plan};
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
        let m = plan_of(&dt, 1); // runs of 4 at 0,16,32,48
        assert_eq!(m.total(), 16);
        assert_eq!(m.pieces(0, 16), segs(&[(0, 4), (16, 4), (32, 4), (48, 4)]));
        assert_eq!(m.pieces(2, 4), segs(&[(2, 2), (16, 2)]));
        assert_eq!(m.pieces(6, 6), segs(&[(18, 2), (32, 4)]));
        assert!(m.pieces(16, 0).is_empty());
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
