//! `jobmix_1024`: 1024 seeded job arrivals (Poisson, 400 us mean gap, five
//! application kinds, heavy-tailed sizes) on an 8-node cluster where every
//! job shares nodes. Open loop: due times come from the plan and never
//! react to the system; the generator injects each job a seeded 0-50 ns
//! late, and a job's latency runs from when it was *due*.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_nc_repro::cluster_sim::{
    generate, run_isolated, run_mix, ClusterParams, JobPlan, MixParams, Placement,
};
use gpu_nc_repro::sim_core::ExecMode;
use gpu_nc_repro::sim_trace::Recorder;

use super::{stream, PLAN_SEED, SKEW_NS};
use crate::harness::{panic_text, recorder_for, Op, Rep, RepCfg, WorldTiming, WorldTrace};
use crate::stats::Summary;

const NODES: usize = 8;

/// Set-up is 75 ms against a 5 s segment that allows only three or four
/// reps per run, so each rep sets up this many times and reports the median.
const SETUPS_PER_REP: usize = 5;

/// What set-up produces: the plan, every job's due time, and the isolated
/// service time of every distinct (kind, scale).
struct Prepared {
    plans: Vec<JobPlan>,
    due: Vec<u64>,
    alone: BTreeMap<(&'static str, u32), u64>,
    error: Option<String>,
}

fn set_up(cfg: &RepCfg) -> Prepared {
    let mut plans: Vec<JobPlan> = generate(&MixParams {
        seed: PLAN_SEED,
        jobs: if cfg.smoke { 64 } else { 1024 },
        mean_interarrival_us: 400.0,
    });
    // The run's seed makes the generator inject every job up to SKEW_NS
    // after it was due; a job's latency still runs from its due time.
    let due: Vec<u64> = plans.iter().map(|p| p.arrive_ns).collect();
    let mut lateness = stream(cfg.seed, 5);
    let mut last = 0;
    for p in &mut plans {
        p.qos.share_nodes = true;
        p.arrive_ns = (p.arrive_ns + lateness.next_u64() % (SKEW_NS + 1)).max(last);
        last = p.arrive_ns;
    }
    // Every distinct (kind, scale) once alone on a dedicated cluster.
    // Sharing can only add contention, so no job of the mix may be served
    // faster than its isolated run.
    let mut alone = BTreeMap::new();
    let mut error = None;
    for p in &plans {
        let key = (p.job.kind.name(), p.job.scale);
        if alone.contains_key(&key) {
            continue;
        }
        let job = p.job;
        match catch_unwind(AssertUnwindSafe(|| {
            run_isolated(job, Some(Recorder::off()))
        })) {
            Ok(o) => {
                alone.insert(key, o.service_ns());
            }
            Err(e) => error = Some(panic_text(e)),
        }
    }
    Prepared {
        plans,
        due,
        alone,
        error,
    }
}

pub fn run(cfg: &RepCfg) -> Rep {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if cfg.smoke { 1 } else { SETUPS_PER_REP } {
        let t = Instant::now();
        prepared = Some(set_up(cfg));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Prepared {
        plans,
        due,
        alone,
        error: setup_err,
    } = prepared.expect("at least one set-up ran");
    let attempted = plans.len() as u64;

    let rec = recorder_for(cfg);
    let params = ClusterParams {
        phys_nodes: NODES,
        placement: Placement::Shared,
        exec: Some(ExecMode::Event),
        recorder: Some(rec.clone()),
        ..ClusterParams::default()
    };
    let seg_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_mix(&params, &plans)));
    let seg_end = Instant::now();

    let setup_s = Summary::of(&setups).median;
    let mut timing = WorldTiming {
        setup_s,
        build_s: setup_s,
        wall_s: (seg_end - seg_start).as_secs_f64(),
        ..WorldTiming::default()
    };
    let mut late = 0;
    let result = match outcome {
        Ok(out) => {
            timing.virt_ns = out.makespan_ns;
            timing.window = (0, out.makespan_ns);
            for (j, (o, p)) in out.jobs.iter().zip(&plans).enumerate() {
                late = late.max(o.arrive_ns.saturating_sub(due[j]));
                let mut nodes = o.nodes.clone();
                nodes.sort_unstable();
                nodes.dedup();
                let ok = o.arrive_ns == p.arrive_ns
                    && o.start_ns >= o.arrive_ns
                    && o.end_ns > o.start_ns
                    && o.end_ns <= out.makespan_ns
                    && nodes.len() == p.job.ranks()
                    && nodes.iter().all(|&n| n < NODES)
                    && alone
                        .get(&(o.kind, o.scale))
                        .is_some_and(|&iso| o.service_ns() >= iso);
                timing.ops.push(Op {
                    rank: j as u32,
                    start: due[j],
                    end: o.end_ns,
                    ok,
                });
            }
            setup_err.map_or(Ok(()), Err)
        }
        Err(e) => Err(panic_text(e)),
    };
    timing.verify_s = seg_end.elapsed().as_secs_f64();
    let traces = cfg
        .traced
        .then(|| WorldTrace::new(rec, None, timing.window))
        .into_iter()
        .collect();
    let mut rep = Rep::from_world(timing, attempted, result, traces);
    rep.generator_late_ns = late;
    rep
}
