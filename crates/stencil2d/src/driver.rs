//! Multi-rank driver: run one Stencil2D configuration on the simulated GPU
//! cluster and collect timing, breakdowns, checksums and call counts.

use std::collections::BTreeMap;

use mv2_gpu_nc::GpuCluster;
use sim_core::{Report, SimDur};

use crate::params::{StencilParams, Variant};
use crate::rank::{Breakdown, StencilRank};
use crate::real::Real;

/// What one rank reports after a run.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank.
    pub rank: usize,
    /// Time inside the timed region (barrier to barrier).
    pub elapsed: SimDur,
    /// Per-direction communication breakdown (filled when requested).
    pub breakdown: Breakdown,
    /// Interior checksum.
    pub checksum: f64,
    /// Interior bytes (only when requested; large!).
    pub interior: Option<Vec<u8>>,
    /// CUDA+MPI calls made by one steady-state loop iteration.
    pub loop_calls: BTreeMap<String, u64>,
}

/// Aggregated run result.
#[derive(Clone, Debug)]
pub struct StencilOutcome {
    /// Slowest rank's timed region (the benchmark's reported time).
    pub wall: SimDur,
    /// Every rank's report, ordered by rank.
    pub ranks: Vec<RankReport>,
}

impl StencilOutcome {
    /// Sum of rank checksums (global checksum).
    pub fn checksum(&self) -> f64 {
        self.ranks.iter().map(|r| r.checksum).sum()
    }
}

/// Run options.
#[derive(Copy, Clone, Default, Debug)]
pub struct RunOptions {
    /// Attribute per-direction MPI wait times (Figure 6 mode).
    pub timed_breakdown: bool,
    /// Return every rank's interior bytes (tests only).
    pub collect_interiors: bool,
}

/// Run one configuration end to end on the default cluster (one rank per
/// node).
pub fn run_stencil<T: Real>(
    p: StencilParams,
    variant: Variant,
    opts: RunOptions,
) -> StencilOutcome {
    run_stencil_on::<T>(GpuCluster::new(p.nranks()), p, variant, opts).0
}

/// Like [`run_stencil`], on a cluster the caller configured — placement
/// (`ppn`: co-located ranks share the node's GPU and HCA and exchange halos
/// over the intra-node shared-memory channel), sanitizer, faults, recorder,
/// carrier: every [`GpuCluster`] knob — also returning the sanitizer
/// reports the run collected (empty when the sanitizer is off). `cluster`
/// must have `p.nranks()` ranks.
pub fn run_stencil_on<T: Real>(
    cluster: GpuCluster,
    p: StencilParams,
    variant: Variant,
    opts: RunOptions,
) -> (StencilOutcome, Vec<Report>) {
    let out = cluster.try_run(move |env| {
        let mut rk = StencilRank::<T>::new(env, p);
        rk.timed = opts.timed_breakdown;
        env.comm.barrier();
        let t0 = sim_core::now();
        // Measure the call mix of one steady-state iteration (the second,
        // to skip any warm-up effects like tbuf pool population).
        let probe_iter = 1.min(p.iters.saturating_sub(1));
        let mut base = None;
        let mut loop_calls = BTreeMap::new();
        for it in 0..p.iters {
            if it == probe_iter {
                let mut snap = env.gpu.counters().snapshot();
                snap.extend(env.comm.counters().snapshot());
                base = Some(snap);
            }
            rk.step(variant);
            if it == probe_iter {
                let base = base.take().unwrap();
                let mut now = env.gpu.counters().snapshot();
                now.extend(env.comm.counters().snapshot());
                for (k, v) in now {
                    let b = base.get(k).copied().unwrap_or(0);
                    if v > b {
                        loop_calls.insert(k.to_string(), v - b);
                    }
                }
            }
        }
        env.comm.barrier();
        let elapsed = sim_core::now() - t0;
        let report = RankReport {
            rank: env.comm.rank(),
            elapsed,
            breakdown: rk.breakdown,
            checksum: rk.checksum(),
            interior: opts.collect_interiors.then(|| rk.interior_bytes()),
            loop_calls,
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
    (StencilOutcome { wall, ranks }, san)
}
