//! # halo3d — 3-D Jacobi with six-face halo exchange
//!
//! The paper closes with "we also plan to evaluate the impact of our
//! approach with more applications". This crate is that evaluation: a 3-D
//! 7-point Jacobi solver whose halo exchange stresses the datatype engine
//! harder than Stencil2D —
//!
//! * **i-faces** are contiguous slabs (no packing needed),
//! * **j-faces** are long uniformly-strided rows (one strided device copy),
//! * **k-faces** are planes of single elements whose rows are *not*
//!   uniformly spaced across planes, so the original host-staged code needs
//!   a loop of `cudaMemcpy2D` calls per face while MV2-GPU-NC packs them
//!   with subarray datatypes.
//!
//! Both variants compute identical fields (verified against a serial
//! reference), and the k-face-heavy decompositions show the largest wins,
//! extending the paper's Table II pattern to three dimensions.

#![warn(missing_docs)]

mod params;
mod rank;

use mv2_gpu_nc::GpuCluster;
use sim_core::{Report, SimDur};
use stencil2d::Real;

pub use params::{initial_value, Axis, Halo3dParams, Side, Variant};
pub use rank::{kernel_time, Halo3dRank, W_CENTER, W_FACE};

/// One rank's result.
#[derive(Clone, Debug)]
pub struct Rank3dReport {
    /// The rank.
    pub rank: usize,
    /// Barrier-to-barrier time.
    pub elapsed: SimDur,
    /// Interior checksum.
    pub checksum: f64,
    /// Interior bytes (when requested).
    pub interior: Option<Vec<u8>>,
}

/// Aggregated run result.
#[derive(Clone, Debug)]
pub struct Halo3dOutcome {
    /// Slowest rank's time.
    pub wall: SimDur,
    /// All ranks, ordered.
    pub ranks: Vec<Rank3dReport>,
}

impl Halo3dOutcome {
    /// Global checksum.
    pub fn checksum(&self) -> f64 {
        self.ranks.iter().map(|r| r.checksum).sum()
    }
}

/// Run one configuration on the default cluster (one rank per node);
/// `collect` returns interiors for verification.
pub fn run_halo3d<T: Real>(p: Halo3dParams, variant: Variant, collect: bool) -> Halo3dOutcome {
    run_halo3d_on::<T>(GpuCluster::new(p.nranks()), p, variant, collect).0
}

/// Like [`run_halo3d`], on a cluster the caller configured — placement
/// (`ppn`, `topology`), sanitizer, faults, recorder, carrier: every
/// [`GpuCluster`] knob — also returning the sanitizer reports the run
/// collected (empty when the sanitizer is off). `cluster` must have
/// `p.nranks()` ranks.
///
/// Rank coordinates are i-major with k fastest, so blocked `ppn` placement
/// puts k-face neighbours — the pathological single-element-row faces — on
/// the same node, where they exchange halos over shared memory (or stay on
/// the GPU entirely) instead of the HCA; a round-robin `topology` sends
/// every halo over the wire while still sharing GPUs.
pub fn run_halo3d_on<T: Real>(
    cluster: GpuCluster,
    p: Halo3dParams,
    variant: Variant,
    collect: bool,
) -> (Halo3dOutcome, Vec<Report>) {
    let out = cluster.try_run(move |env| {
        let mut rk = Halo3dRank::<T>::new(env, p);
        env.comm.barrier();
        let t0 = sim_core::now();
        for _ in 0..p.iters {
            rk.step(variant);
        }
        env.comm.barrier();
        let elapsed = sim_core::now() - t0;
        let interior = rk.interior();
        let checksum = interior.iter().map(|v| v.to_f64()).sum();
        let report = Rank3dReport {
            rank: env.comm.rank(),
            elapsed,
            checksum,
            interior: collect.then(|| {
                interior
                    .iter()
                    .flat_map(|v| {
                        let mut b = vec![0u8; T::SIZE];
                        v.write_le(&mut b);
                        b
                    })
                    .collect()
            }),
        };
        rk.free();
        report
    });
    let (_, ranks, san) = out.unwrap();
    let wall = ranks
        .iter()
        .map(|r| r.elapsed)
        .max()
        .unwrap_or(SimDur::ZERO);
    (Halo3dOutcome { wall, ranks }, san)
}

/// Serial CPU reference of the global computation (zero boundary).
pub fn reference_run<T: Real>(n: (usize, usize, usize), iters: usize) -> Vec<T> {
    let dims = (n.0 + 2, n.1 + 2, n.2 + 2);
    let at = |v: &[f64], i: usize, j: usize, k: usize| v[(i * dims.1 + j) * dims.2 + k];
    let mut cur = vec![0f64; dims.0 * dims.1 * dims.2];
    for i in 0..n.0 {
        for j in 0..n.1 {
            for k in 0..n.2 {
                cur[((i + 1) * dims.1 + (j + 1)) * dims.2 + (k + 1)] =
                    T::from_f64(initial_value(i, j, k)).to_f64();
            }
        }
    }
    let mut next = cur.clone();
    for _ in 0..iters {
        for i in 1..=n.0 {
            for j in 1..=n.1 {
                for k in 1..=n.2 {
                    let faces = at(&cur, i - 1, j, k)
                        + at(&cur, i + 1, j, k)
                        + at(&cur, i, j - 1, k)
                        + at(&cur, i, j + 1, k)
                        + at(&cur, i, j, k - 1)
                        + at(&cur, i, j, k + 1);
                    next[(i * dims.1 + j) * dims.2 + k] =
                        T::from_f64(W_CENTER * at(&cur, i, j, k) + W_FACE * faces).to_f64();
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut out = Vec::with_capacity(n.0 * n.1 * n.2);
    for i in 1..=n.0 {
        for j in 1..=n.1 {
            for k in 1..=n.2 {
                out.push(T::from_f64(at(&cur, i, j, k)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(grid: (usize, usize, usize), local: (usize, usize, usize), iters: usize) -> Halo3dParams {
        Halo3dParams { grid, local, iters }
    }

    fn against_reference<T: Real>(params: Halo3dParams, variant: Variant) {
        against_reference_ppn::<T>(params, variant, 1);
    }

    fn against_reference_ppn<T: Real>(params: Halo3dParams, variant: Variant, ppn: usize) {
        let cluster = GpuCluster::new(params.nranks()).ppn(ppn);
        let out = run_halo3d_on::<T>(cluster, params, variant, true).0;
        let global = reference_run::<T>(
            (
                params.grid.0 * params.local.0,
                params.grid.1 * params.local.1,
                params.grid.2 * params.local.2,
            ),
            params.iters,
        );
        let (nj, nk) = (
            params.grid.1 * params.local.1,
            params.grid.2 * params.local.2,
        );
        for r in &out.ranks {
            let c = params.coords(r.rank);
            let vals: Vec<T> = r
                .interior
                .as_ref()
                .unwrap()
                .chunks_exact(T::SIZE)
                .map(T::read_le)
                .collect();
            let (li, lj, lk) = params.local;
            for i in 0..li {
                for j in 0..lj {
                    for k in 0..lk {
                        let g = (
                            (c.0 * li + i) * nj * nk + (c.1 * lj + j) * nk + (c.2 * lk + k),
                            vals[(i * lj + j) * lk + k],
                        );
                        assert_eq!(g.1, global[g.0], "rank {} cell ({i},{j},{k})", r.rank);
                    }
                }
            }
        }
    }

    #[test]
    fn mv2_matches_reference_2x1x2() {
        against_reference::<f64>(p((2, 1, 2), (6, 5, 4), 3), Variant::Mv2);
    }

    #[test]
    fn def_matches_reference_1x2x2() {
        against_reference::<f64>(p((1, 2, 2), (4, 6, 5), 3), Variant::Def);
    }

    #[test]
    fn mv2_matches_reference_f32_k_split() {
        // Splitting along k exercises the worst (single-element-row) faces.
        against_reference::<f32>(p((1, 1, 4), (5, 5, 8), 2), Variant::Mv2);
    }

    #[test]
    fn def_and_mv2_agree_bitwise_2x2x2() {
        let params = p((2, 2, 2), (5, 6, 4), 3);
        let d = run_halo3d::<f32>(params, Variant::Def, true);
        let m = run_halo3d::<f32>(params, Variant::Mv2, true);
        for (a, b) in d.ranks.iter().zip(&m.ranks) {
            assert_eq!(a.interior, b.interior, "rank {}", a.rank);
        }
    }

    #[test]
    fn mv2_wins_on_k_split_decomposition() {
        // k-faces are the pathological layout: MV2's device packing must
        // beat the per-plane cudaMemcpy2D loop of the Def variant.
        let params = p((1, 1, 2), (24, 48, 64), 2);
        let d = run_halo3d::<f32>(params, Variant::Def, false);
        let m = run_halo3d::<f32>(params, Variant::Mv2, false);
        assert!(
            m.wall < d.wall,
            "MV2 {} must beat Def {} on k-split",
            m.wall,
            d.wall
        );
    }

    #[test]
    fn sixteen_ranks_match_reference_at_every_ppn() {
        // 2x2x4 = 16 ranks; k is split four ways, so blocked ppn places the
        // worst-layout k-face neighbours on shared nodes. Every placement
        // must compute the exact same field as one rank per node.
        let params = p((2, 2, 4), (3, 3, 4), 2);
        for ppn in [1, 2, 4] {
            against_reference_ppn::<f64>(params, Variant::Mv2, ppn);
        }
        // The host-staged variant exercises the host shm path too.
        against_reference_ppn::<f64>(params, Variant::Def, 4);
    }

    #[test]
    fn ppn_placements_agree_bitwise_16_ranks() {
        let params = p((2, 2, 4), (3, 4, 5), 2);
        let base = run_halo3d::<f32>(params, Variant::Mv2, true);
        for ppn in [2, 4] {
            let cluster = GpuCluster::new(params.nranks()).ppn(ppn);
            let out = run_halo3d_on::<f32>(cluster, params, Variant::Mv2, true).0;
            for (a, b) in base.ranks.iter().zip(&out.ranks) {
                assert_eq!(a.interior, b.interior, "ppn {ppn} rank {}", a.rank);
            }
        }
    }

    #[test]
    fn deterministic() {
        let params = p((2, 1, 1), (8, 8, 8), 2);
        let a = run_halo3d::<f64>(params, Variant::Mv2, false);
        let b = run_halo3d::<f64>(params, Variant::Mv2, false);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.checksum(), b.checksum());
    }
}
