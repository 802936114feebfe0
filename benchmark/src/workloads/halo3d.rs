//! `halo3d_1024` and `halo3d_faults`: the 3-D Jacobi halo exchange through
//! `Halo3dRank`, once at 1024 ranks with every face eager, once at 64 ranks
//! with rendezvous i-faces on a fault-injecting fabric.

use std::sync::{Arc, Mutex, OnceLock};

use gpu_nc_repro::halo3d::{reference_run, Halo3dParams, Halo3dRank, Variant};
use gpu_nc_repro::ib_sim::FaultSpec;
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_core;
use gpu_nc_repro::stencil2d::Real;

use super::{skew, stream};
use crate::harness::{Rep, RepCfg, Stopwatch, WorldTiming, WorldTrace};

/// Every rank's interior after the run, in rank order.
type Interiors<T> = Vec<Vec<T>>;

struct World<T> {
    timing: WorldTiming,
    outcome: Result<(), String>,
    interiors: Interiors<T>,
    trace: Option<WorldTrace>,
}

/// Run `p` once: set-up, `p.iters` steps, interiors collected after the
/// stamps. A `timed` world stamps the segment and records operations; the
/// clean reference run of `halo3d_faults` is not: it is set-up of the world
/// that follows on the same stopwatch, and never traced.
fn world<T: Real>(
    p: Halo3dParams,
    faults: Option<FaultSpec>,
    cfg: &RepCfg,
    sw: &Stopwatch,
    timed: bool,
) -> World<T> {
    let n = p.nranks();
    let untraced = RepCfg {
        traced: false,
        ..*cfg
    };
    let (mut cluster, tap) = if timed { cfg } else { &untraced }.tap(GpuCluster::new(n));
    if let Some(spec) = faults {
        cluster = cluster.faults(spec);
    }
    let interiors: Arc<Mutex<Interiors<T>>> = Arc::new(Mutex::new(vec![Vec::new(); n]));
    let out = Arc::clone(&interiors);
    let clock = sw.clone();
    let seed = cfg.seed;
    sw.launch();
    let (outcome, _) = cluster.try_run_with_reports(move |env| {
        let me = env.comm.rank();
        let mut rng = stream(seed, 0x5e00 + me as u64);
        let mut rk = Halo3dRank::<T>::new(env, p);
        let mut steps = |rk: &mut Halo3dRank<T>| {
            for _ in 0..p.iters {
                // The skew stands for the step's compute jitter, so it is
                // inside the step's clock.
                let t0 = sim_core::now().as_nanos();
                skew(&mut rng);
                rk.step(Variant::Mv2);
                if timed {
                    clock.op(me, t0, sim_core::now().as_nanos(), true);
                }
            }
        };
        if timed {
            clock.segment(&env.comm, || steps(&mut rk));
        } else {
            steps(&mut rk);
        }
        out.lock().unwrap_or_else(|e| e.into_inner())[me] = rk.interior();
        if timed {
            clock.verified();
        }
        rk.free();
    });
    let interiors = std::mem::take(&mut *interiors.lock().unwrap_or_else(|e| e.into_inner()));
    let timing = if timed {
        sw.finish()
    } else {
        WorldTiming::default()
    };
    World {
        trace: tap.into_trace(timing.window),
        timing,
        outcome: outcome.map(|_| ()),
        interiors,
    }
}

/// Rank `r`'s block of the row-major global field.
fn block_of<T: Real>(global: &[T], p: &Halo3dParams, r: usize) -> Vec<T> {
    let (li, lj, lk) = p.local;
    let (nj, nk) = (p.grid.1 * lj, p.grid.2 * lk);
    let c = p.coords(r);
    let mut out = Vec::with_capacity(li * lj * lk);
    for i in 0..li {
        for j in 0..lj {
            let row = ((c.0 * li + i) * nj + (c.1 * lj + j)) * nk + c.2 * lk;
            out.extend_from_slice(&global[row..row + lk]);
        }
    }
    out
}

/// The rep of a finished timed world; every step of a rank whose interior
/// is `wrong` counts as failed.
fn rep_of<T>(w: World<T>, p: &Halo3dParams, wrong: &[bool]) -> Rep {
    let mut timing = w.timing;
    for op in timing.ops.iter_mut() {
        op.ok &= !wrong[op.rank as usize];
    }
    Rep::from_world(
        timing,
        (p.nranks() * p.iters) as u64,
        w.outcome,
        w.trace.into_iter().collect(),
    )
}

fn params_1024(smoke: bool) -> Halo3dParams {
    Halo3dParams {
        grid: if smoke { (4, 4, 4) } else { (16, 8, 8) },
        local: (16, 16, 16),
        iters: if smoke { 2 } else { 5 },
    }
}

/// The serial field the 1024-rank run must reproduce bit for bit. It
/// depends on the problem only, so it is computed once per process and
/// before any stopwatch starts.
fn serial_1024(p: &Halo3dParams) -> &'static Vec<f32> {
    static FIELD: OnceLock<Vec<f32>> = OnceLock::new();
    FIELD.get_or_init(|| {
        reference_run::<f32>(
            (
                p.grid.0 * p.local.0,
                p.grid.1 * p.local.1,
                p.grid.2 * p.local.2,
            ),
            p.iters,
        )
    })
}

pub fn run_1024(cfg: &RepCfg) -> Rep {
    let p = params_1024(cfg.smoke);
    let global = serial_1024(&p);
    let sw = Stopwatch::new();
    let w = world::<f32>(p, None, cfg, &sw, true);
    let wrong: Vec<bool> = (0..p.nranks())
        .map(|r| w.interiors[r] != block_of(global, &p, r))
        .collect();
    rep_of(w, &p, &wrong)
}

fn params_faults(smoke: bool) -> Halo3dParams {
    Halo3dParams {
        grid: if smoke { (2, 2, 2) } else { (4, 4, 4) },
        local: (16, 32, 40),
        iters: if smoke { 4 } else { 16 },
    }
}

pub fn run_faults(cfg: &RepCfg) -> Rep {
    let p = params_faults(cfg.smoke);
    let sw = Stopwatch::new();
    // Part of set-up: the same problem on a reliable fabric is the
    // reference the faulted run must match byte for byte.
    let clean = world::<f64>(p, None, cfg, &sw, false);
    let spec = FaultSpec {
        ctrl_drop: 0.10,
        ctrl_delay: 0.10,
        delay_ns: 30_000,
        rdma_error: 0.05,
        ..FaultSpec::seeded(cfg.seed)
    };
    let w = world::<f64>(p, Some(spec), cfg, &sw, true);
    let clean_ok = clean.outcome.is_ok();
    let wrong: Vec<bool> = (0..p.nranks())
        .map(|r| !clean_ok || w.interiors[r] != clean.interiors[r])
        .collect();
    rep_of(w, &p, &wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_picks_the_ranks_cells() {
        let p = Halo3dParams {
            grid: (2, 1, 2),
            local: (1, 2, 2),
            iters: 1,
        };
        // Global 2 x 2 x 4, value = linear index.
        let global: Vec<f32> = (0..16).map(|v| v as f32).collect();
        assert_eq!(block_of(&global, &p, 0), vec![0.0, 1.0, 4.0, 5.0]);
        assert_eq!(block_of(&global, &p, 1), vec![2.0, 3.0, 6.0, 7.0]);
        assert_eq!(block_of(&global, &p, 3), vec![10.0, 11.0, 14.0, 15.0]);
    }
}
