//! Multi-job shared-cluster campaign: per-job slowdown distributions under
//! an open-loop Poisson arrival stream, the tail under 2x overload, the
//! HCA QoS weight shift between co-located tenants, and plan-cache /
//! autotuner stability.
//!
//! Three campaigns run over the same seeded 5-kind job mix
//! ([`cluster_sim::generate`]):
//!
//! * `baseline` — exclusive placement: jobs queue for free nodes, slowdown
//!   is pure queueing delay over the isolated service time.
//! * `overload_2x` — the identical plan with every arrival instant halved
//!   (double the offered load). Guard (a): the p99 slowdown stays finite
//!   (the campaign completes) and does not drop below the baseline p99.
//! * `shared` — every job opts into node sharing; slowdown is HCA/GPU
//!   contention split by the per-job QoS weights.
//!
//! Standalone guards:
//!
//! * (b) QoS shift: two identical OSU jobs pinned to the same two nodes
//!   finish in weight order, and the 4:1 service-time ratio measurably
//!   exceeds the 1:1 control's.
//! * Stability: every autotuner key that settles in isolation also settles
//!   in the mix, and no campaign ever evicts a pack plan (the per-type
//!   LRU never thrashes from interleaved jobs).
//! * (c) Host cost: wall-clock per job of a shared campaign at 1024 jobs
//!   is at most twice that at 256 — building and retiring a tenant must
//!   not cost more the more tenants the fabric has already seen.
//!
//! `--smoke` runs the small CI plan.

use std::collections::BTreeMap;

use cluster_sim::{
    generate, run_isolated, run_mix, ClusterParams, JobKind, JobPlan, MixParams, Placement,
    SizedJob,
};
use ib_sim::JobQos;
use sim_trace::Recorder;

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::json::{obj, Json};
use crate::measure::{cache_delta, pct};
use crate::Args;

/// Nodes of the shared cluster every campaign runs on.
const PHYS_NODES: usize = 8;

/// Settled-autotuner counters from a recorder, keyed by the layout/size
/// suffix (e.g. `strided.64k`), summed across every rank of every job.
fn settled_keys(rec: &Recorder) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for (k, v) in rec.metrics() {
        if let Some(suffix) = k.split(".tuner.settled.").nth(1) {
            *m.entry(suffix.to_string()).or_insert(0) += v;
        }
    }
    m
}

/// Isolated-run reference for one (kind, scale): the slowdown denominator
/// plus the tuner keys that settle without any contention.
struct Iso {
    service_ns: u64,
    settled: BTreeMap<String, u64>,
}

/// The campaign table: one declaration for the `campaigns` records and the
/// summary printed under them.
const CAMPAIGNS: &[Col] = &[
    col("label", "campaign", Fmt::Plain),
    col("p50_slowdown", "p50 slowdown", Fmt::Fixed(3)),
    col("p99_slowdown", "p99 slowdown", Fmt::Fixed(3)),
    col("mean_slowdown", "mean", Fmt::Fixed(3)),
    col("max_slowdown", "max", Fmt::Fixed(3)),
    col("makespan_ms", "makespan (ms)", Fmt::Fixed(3)),
    col("tuner_settled", "", Fmt::Plain),
    col("plan_cache", "", Fmt::Plain),
    col("jobs", "", Fmt::Plain),
];

/// Run one campaign over `plans`, fold per-job outcomes into slowdowns
/// against the isolated references and append its row to `campaigns`.
/// Returns the tuner keys that settled, for the stability guard.
fn run_campaign(
    campaigns: &mut Table,
    label: &str,
    placement: Placement,
    plans: &[JobPlan],
    iso: &BTreeMap<(&'static str, u32), Iso>,
) -> BTreeMap<String, u64> {
    let rec = Recorder::new();
    let params = ClusterParams {
        phys_nodes: PHYS_NODES,
        placement,
        recorder: Some(rec.clone()),
        ..ClusterParams::default()
    };
    let (out, (hits, misses, evictions)) = cache_delta(|| run_mix(&params, plans));
    assert_eq!(
        evictions, 0,
        "{label}: interleaved jobs thrashed a plan cache ({evictions} evictions)"
    );
    let mut jobs = Table::json_only(&[
        "job",
        "kind",
        "scale",
        "ranks",
        "arrive_us",
        "queue_us",
        "service_us",
        "response_us",
        "slowdown",
    ]);
    let mut s = Vec::new();
    for (j, o) in out.jobs.iter().enumerate() {
        let denom = iso[&(o.kind, o.scale)].service_ns as f64;
        let slowdown = o.response_ns() as f64 / denom;
        assert!(
            slowdown.is_finite() && slowdown >= 0.999,
            "{label} job {j} ({}) slowdown {slowdown} below 1 — \
             contended run beat the isolated reference",
            o.kind
        );
        jobs.row(&[
            &j,
            &o.kind,
            &o.scale,
            &o.ranks,
            &(o.arrive_ns as f64 / 1e3),
            &((o.start_ns - o.arrive_ns) as f64 / 1e3),
            &(o.service_ns() as f64 / 1e3),
            &(o.response_ns() as f64 / 1e3),
            &slowdown,
        ]);
        s.push(slowdown);
    }
    let settled = settled_keys(&rec);
    campaigns.row(&[
        &label,
        &pct(&s, 50.0),
        &pct(&s, 99.0),
        &(s.iter().sum::<f64>() / s.len() as f64),
        &s.iter().copied().fold(0.0, f64::max),
        &(out.makespan_ns as f64 / 1e6),
        &settled,
        &obj(&[
            ("hits", &hits),
            ("misses", &misses),
            ("evictions", &evictions),
        ]),
        &jobs,
    ]);
    settled
}

/// Guard (b): weighted HCA arbitration measurably shifts slowdown between
/// two identical tenants on the same nodes, against a 1:1 control.
/// Returns the `qos_shift` record and the (4:1, 1:1) service ratios.
fn qos_shift_guard() -> (Json, f64, f64) {
    // Needs a bandwidth-bound host body: the GPU-staged kinds rarely
    // backlog a QDR link (the shared PCIe copy engine paces their chunks
    // below link rate, and the work-conserving arbiter hides the weights
    // on an idle engine), so the probe is the host-to-host stream.
    let job = SizedJob {
        kind: JobKind::Stream,
        scale: 8,
    };
    let run = |w0: u32, w1: u32| {
        let plan = |w| JobPlan {
            job,
            arrive_ns: 0,
            qos: JobQos {
                hca_weight: w,
                share_nodes: true,
                ..JobQos::default()
            },
        };
        let params = ClusterParams {
            phys_nodes: job.ranks(),
            placement: Placement::Shared,
            recorder: Some(Recorder::off()),
            ..ClusterParams::default()
        };
        let out = run_mix(&params, &[plan(w0), plan(w1)]);
        assert_eq!(
            out.jobs[0].nodes, out.jobs[1].nodes,
            "tenants not co-located"
        );
        (out.jobs[0].service_ns(), out.jobs[1].service_ns())
    };
    let (heavy, light) = run(4, 1);
    let (a, b) = run(1, 1);
    assert!(
        heavy < light,
        "weight-4 tenant ({heavy} ns) did not beat weight-1 ({light} ns)"
    );
    let weighted_ratio = light as f64 / heavy as f64;
    let equal_ratio = a.max(b) as f64 / a.min(b) as f64;
    assert!(
        weighted_ratio > equal_ratio + 0.10,
        "QoS shift not measurable: 4:1 ratio {weighted_ratio:.3} vs \
         1:1 control {equal_ratio:.3}"
    );
    let json = obj(&[
        ("heavy_service_us", &(heavy as f64 / 1e3)),
        ("light_service_us", &(light as f64 / 1e3)),
        ("weighted_ratio", &weighted_ratio),
        ("equal_ratio", &equal_ratio),
    ]);
    (json, weighted_ratio, equal_ratio)
}

/// Guard (c): host milliseconds per job of a shared-placement campaign
/// (tracing off), at 256 and at 1024 jobs of the same arrival process.
/// Returns `(ms/job at 256, ms/job at 1024, ratio)`.
fn host_scale_guard(seed: u64) -> (f64, f64, f64) {
    // Fastest of `runs`: the host's speed drifts, the work does not.
    let ms_per_job = |jobs: usize, runs: usize| {
        let mut plans = generate(&MixParams {
            seed,
            jobs,
            mean_interarrival_us: 400.0,
        });
        for p in &mut plans {
            p.qos.share_nodes = true;
        }
        (0..runs)
            .map(|_| {
                // A recorder takes one fabric's registrations, so one per run.
                let params = ClusterParams {
                    phys_nodes: PHYS_NODES,
                    placement: Placement::Shared,
                    recorder: Some(Recorder::off()),
                    ..ClusterParams::default()
                };
                let t = std::time::Instant::now();
                let out = run_mix(&params, &plans);
                assert_eq!(out.jobs.len(), jobs);
                t.elapsed().as_secs_f64() * 1e3 / jobs as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (at_256, at_1024) = (ms_per_job(256, 3), ms_per_job(1024, 2));
    let ratio = at_1024 / at_256;
    assert!(
        ratio <= 2.0,
        "host cost per job grows with the job count: {at_256:.3} ms at 256 jobs, \
         {at_1024:.3} ms at 1024 ({ratio:.2}x, limit 2x)"
    );
    (at_256, at_1024, ratio)
}

pub fn job_mix(args: &Args) -> Doc {
    let (njobs, gap_us) = if args.smoke { (6, 300.0) } else { (16, 400.0) };
    let seed = args.seed;

    let mut doc = Doc::new();
    let (qos, weighted_ratio, equal_ratio) = qos_shift_guard();
    doc.say(format!(
        "QoS shift guard OK: 4:1 weights -> {weighted_ratio:.3}x service ratio ({equal_ratio:.3}x at 1:1)"
    ));
    let (at_256, at_1024, host_ratio) = host_scale_guard(seed);
    doc.say(format!(
        "host scale guard OK: {at_256:.3} ms/job at 256 jobs, {at_1024:.3} ms/job at 1024 ({host_ratio:.2}x)"
    ));

    let plans = generate(&MixParams {
        seed,
        jobs: njobs,
        mean_interarrival_us: gap_us,
    });

    // Isolated references, one per distinct (kind, scale) in the plan.
    let mut iso: BTreeMap<(&'static str, u32), Iso> = BTreeMap::new();
    for p in &plans {
        iso.entry((p.job.kind.name(), p.job.scale))
            .or_insert_with(|| {
                let rec = Recorder::new();
                let out = run_isolated(p.job, Some(rec.clone()));
                Iso {
                    service_ns: out.service_ns(),
                    settled: settled_keys(&rec),
                }
            });
    }

    // Every campaign asserts that it evicts no pack plan.
    let mut t = Table::new(CAMPAIGNS);
    let settled = run_campaign(&mut t, "baseline", Placement::Exclusive, &plans, &iso);
    let mut overload_plans = plans.clone();
    for p in &mut overload_plans {
        p.arrive_ns /= 2;
    }
    let exclusive = Placement::Exclusive;
    run_campaign(&mut t, "overload_2x", exclusive, &overload_plans, &iso);
    let mut shared_plans = plans.clone();
    for p in &mut shared_plans {
        p.qos.share_nodes = true;
    }
    run_campaign(&mut t, "shared", Placement::Shared, &shared_plans, &iso);

    // Guard (a): the overload tail is finite (the campaign completed) and
    // no better than the baseline tail.
    let (baseline_p99, overload_p99) = (t.num(0, "p99_slowdown"), t.num(1, "p99_slowdown"));
    assert!(overload_p99.is_finite(), "overload p99 slowdown not finite");
    assert!(
        overload_p99 >= baseline_p99,
        "overload p99 {overload_p99:.3} below baseline p99 {baseline_p99:.3}"
    );

    // Stability guard: every tuner key settled in isolation settles in the
    // baseline mix too.
    for k in iso.values().flat_map(|i| i.settled.keys()) {
        assert!(
            settled.contains_key(k),
            "tuner key {k} settled in isolation but not in the mix"
        );
    }

    let isolated_service_us = iso
        .iter()
        .map(|((k, s), i)| (format!("{k}.x{s}"), Json::Num(i.service_ns as f64 / 1e3)))
        .collect();
    doc.field("phys_nodes", PHYS_NODES)
        .field("seed", seed)
        .field("jobs", njobs)
        .field("mean_interarrival_us", gap_us)
        .field("isolated_service_us", Json::Obj(isolated_service_us));
    doc.say(format!(
        "\n{njobs}-job mix (seed {seed}, mean gap {gap_us} us) on {PHYS_NODES} nodes\n"
    ));
    doc.table("campaigns", &t);
    doc.field("qos_shift", qos)
        .field(
            "host_scale",
            obj(&[
                ("wall_ms_per_job_256", &at_256),
                ("wall_ms_per_job_1024", &at_1024),
                ("ratio_1024_over_256", &host_ratio),
            ]),
        )
        .field(
            "guards",
            obj(&[
                ("overload_p99_finite", &true),
                ("overload_p99_ge_baseline", &true),
                ("qos_shift_measurable", &true),
                ("tuner_settled_stable", &true),
                ("plan_cache_no_evictions", &true),
                ("host_ms_per_job_ratio_le_2", &true),
            ]),
        );
    doc
}
