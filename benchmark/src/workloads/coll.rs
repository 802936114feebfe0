//! `coll_256`: 256 ranks, four per node, hierarchical collectives on device
//! buffers. Each round is one 16 Ki-`f32` `allreduce(Sum)` and one
//! transpose-style `alltoallv` of an n = 1024 `f64` matrix whose send tile
//! is an `hindexed` of strided-column `hvector`s and whose receive tile is
//! one `hvector` (the layout of `coll_apps::transpose`).

use std::sync::Arc;

use gpu_nc_repro::hostmem::{bytes_to_scalars, scalars_to_bytes};
use gpu_nc_repro::mpi_sim::{CollAlgo, Datatype, MpiConfig, ReduceOp};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_core;

use super::{skew, stream};
use crate::harness::{Rep, RepCfg, Stopwatch};

#[derive(Clone, Copy)]
struct Shape {
    ranks: usize,
    /// Matrix dimension of the transpose.
    n: usize,
    /// `f32` elements of the allreduce.
    grad: usize,
    rounds: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            ranks: 32,
            n: 128,
            grad: 4 << 10,
            rounds: 1,
        }
    } else {
        Shape {
            ranks: 256,
            n: 1024,
            grad: 16 << 10,
            rounds: 2,
        }
    }
}

/// Rank `r`'s integer-valued contribution to element `k` in `round`: sums
/// over 256 ranks stay exact in `f32` whatever the fold order.
fn grad_of(key: u64, round: usize, r: usize, k: usize) -> f32 {
    let h = (key ^ ((round as u64) << 40) ^ ((r as u64) << 20) ^ k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 60) as f32
}

/// Matrix element `(g, k)` in `round`; values are only moved.
fn elem_of(key: u64, round: usize, n: usize, g: usize, k: usize) -> f64 {
    ((g * n + k) as u64 ^ (key & 0xF_FFFF)) as f64 + 0.25 * (round + 1) as f64
}

pub fn run(cfg: &RepCfg) -> Rep {
    let s = shape(cfg.smoke);
    let key = stream(cfg.seed, 3).next_u64();
    let attempted = (s.ranks * s.rounds * 2) as u64;
    // The serial sums every rank's allreduce result must equal.
    let sums: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..s.rounds)
            .map(|q| {
                (0..s.grad)
                    .map(|k| (0..s.ranks).map(|r| grad_of(key, q, r, k)).sum())
                    .collect()
            })
            .collect(),
    );
    let sw = Stopwatch::new();
    let mut mpi = MpiConfig {
        ppn: 4,
        ..MpiConfig::default()
    };
    mpi.coll.algo = CollAlgo::Hier;
    let (cluster, tap) = cfg.tap(GpuCluster::new(s.ranks).mpi_config(mpi));
    let clock = sw.clone();
    let seed = cfg.seed;
    sw.launch();
    let (outcome, _) = cluster.try_run_with_reports(move |env| {
        let (comm, gpu) = (&env.comm, &env.gpu);
        let (me, np, n) = (comm.rank(), comm.size(), s.n);
        let b = n / np;
        let row_bytes = n * 8;
        let (grad_bytes, tile_bytes) = (s.grad * 4, b * row_bytes);
        let d_grad = gpu.malloc(grad_bytes);
        let d_sum = gpu.malloc(grad_bytes);
        let d_send = gpu.malloc(tile_bytes);
        let d_recv = gpu.malloc(tile_bytes);

        let f32t = Datatype::float();
        f32t.commit();
        let f64t = Datatype::double();
        f64t.commit();
        let col = Datatype::hvector(b, 1, row_bytes as isize, &f64t);
        let tile_cols: Vec<(usize, isize)> = (0..b).map(|c| (1, (c * 8) as isize)).collect();
        let stile = Datatype::hindexed(&tile_cols, &col);
        stile.commit();
        let rtile = Datatype::hvector(b, b, row_bytes as isize, &f64t);
        rtile.commit();
        let counts = vec![1usize; np];
        let displs: Vec<usize> = (0..np).map(|j| j * b * 8).collect();

        let mut rng = stream(seed, 0x5e00 + me as u64);
        clock.segment(comm, || {
            for q in 0..s.rounds {
                clock.untimed(|| {
                    let g: Vec<f32> = (0..s.grad).map(|k| grad_of(key, q, me, k)).collect();
                    gpu.write_bytes(d_grad, &scalars_to_bytes(&g));
                    let mine: Vec<f64> = (0..b)
                        .flat_map(|r| (0..n).map(move |k| elem_of(key, q, n, me * b + r, k)))
                        .collect();
                    gpu.write_bytes(d_send, &scalars_to_bytes(&mine));
                });
                let t0 = sim_core::now().as_nanos();
                skew(&mut rng);
                comm.allreduce(d_grad, d_sum, s.grad, &f32t, ReduceOp::Sum);
                let t1 = sim_core::now().as_nanos();
                let ok = clock.untimed(|| {
                    bytes_to_scalars::<f32>(&gpu.read_bytes(d_sum, grad_bytes)) == sums[q]
                });
                clock.op(me, t0, t1, ok);

                let t0 = sim_core::now().as_nanos();
                skew(&mut rng);
                comm.alltoallv(
                    d_send, &counts, &displs, &stile, d_recv, &counts, &displs, &rtile,
                );
                let t1 = sim_core::now().as_nanos();
                let ok = clock.untimed(|| {
                    // Row `r` of my block of the transpose is column
                    // `me*b + r` of the original.
                    let got = bytes_to_scalars::<f64>(&gpu.read_bytes(d_recv, tile_bytes));
                    (0..b).all(|r| {
                        (0..n).all(|k| got[r * n + k] == elem_of(key, q, n, k, me * b + r))
                    })
                });
                clock.op(me, t0, t1, ok);
            }
        });
        clock.verified();
        for d in [d_grad, d_sum, d_send, d_recv] {
            gpu.free(d);
        }
    });
    let timing = sw.finish();
    let traces = tap.into_trace(timing.window).into_iter().collect();
    Rep::from_world(timing, attempted, outcome.map(|_| ()), traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributions_are_small_integers() {
        for k in 0..1000 {
            let v = grad_of(0xDEAD_BEEF, 1, k % 256, k);
            assert!((0.0..16.0).contains(&v) && v.fract() == 0.0);
        }
        assert_ne!(
            (0..64).map(|k| grad_of(1, 0, 0, k)).collect::<Vec<_>>(),
            (0..64).map(|k| grad_of(2, 0, 0, k)).collect::<Vec<_>>()
        );
    }
}
