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
//! Regenerate with:
//! `cargo run --release -p bench --bin job_mix`
//! (writes `results/BENCH_jobmix.json`; `--out PATH` overrides,
//! `--smoke true` runs the small CI plan).

use std::collections::BTreeMap;

use bench::{print_table, HarnessArgs, Json, ToJson};
use cluster_sim::{
    generate, run_isolated, run_mix, ClusterParams, JobKind, JobPlan, MixParams, Placement,
    SizedJob,
};
use ib_sim::JobQos;
use sim_trace::Recorder;

/// Process-wide plan-cache counter deltas across `f`.
fn cache_delta<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let g = sim_core::instrument::global();
    let before = (
        g.get("plan_cache_hit"),
        g.get("plan_cache_miss"),
        g.get("plan_cache_evict"),
    );
    let out = f();
    let after = (
        g.get("plan_cache_hit"),
        g.get("plan_cache_miss"),
        g.get("plan_cache_evict"),
    );
    (
        out,
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    )
}

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

/// Nearest-rank percentile over an unsorted sample.
fn pct(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx]
}

/// Isolated-run reference for one (kind, scale): the slowdown denominator
/// plus the tuner keys that settle without any contention.
struct Iso {
    service_ns: u64,
    settled: BTreeMap<String, u64>,
}

struct JobRow {
    job: usize,
    kind: String,
    scale: u32,
    ranks: usize,
    arrive_us: f64,
    queue_us: f64,
    service_us: f64,
    response_us: f64,
    slowdown: f64,
}

bench::impl_to_json!(JobRow {
    job,
    kind,
    scale,
    ranks,
    arrive_us,
    queue_us,
    service_us,
    response_us,
    slowdown,
});

struct Campaign {
    label: &'static str,
    rows: Vec<JobRow>,
    p50: f64,
    p99: f64,
    mean: f64,
    max: f64,
    makespan_ms: f64,
    settled: BTreeMap<String, u64>,
    cache: (u64, u64, u64),
}

impl Campaign {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".to_string(), self.label.to_json()),
            ("p50_slowdown".to_string(), self.p50.to_json()),
            ("p99_slowdown".to_string(), self.p99.to_json()),
            ("mean_slowdown".to_string(), self.mean.to_json()),
            ("max_slowdown".to_string(), self.max.to_json()),
            ("makespan_ms".to_string(), self.makespan_ms.to_json()),
            (
                "tuner_settled".to_string(),
                Json::Obj(
                    self.settled
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "plan_cache".to_string(),
                Json::Obj(vec![
                    ("hits".to_string(), Json::Int(self.cache.0 as i64)),
                    ("misses".to_string(), Json::Int(self.cache.1 as i64)),
                    ("evictions".to_string(), Json::Int(self.cache.2 as i64)),
                ]),
            ),
            ("jobs".to_string(), self.rows.to_json()),
        ])
    }
}

/// Run one campaign over `plans` and fold per-job outcomes into slowdowns
/// against the isolated references.
fn run_campaign(
    label: &'static str,
    phys_nodes: usize,
    placement: Placement,
    plans: &[JobPlan],
    iso: &BTreeMap<(&'static str, u32), Iso>,
) -> Campaign {
    let rec = Recorder::new();
    let params = ClusterParams {
        phys_nodes,
        placement,
        recorder: Some(rec.clone()),
        ..ClusterParams::default()
    };
    let (out, cache) = cache_delta(|| run_mix(&params, plans));
    let rows: Vec<JobRow> = out
        .jobs
        .iter()
        .enumerate()
        .map(|(j, o)| {
            let denom = iso[&(o.kind, o.scale)].service_ns as f64;
            let slowdown = o.response_ns() as f64 / denom;
            assert!(
                slowdown.is_finite() && slowdown >= 0.999,
                "{label} job {j} ({}) slowdown {slowdown} below 1 — \
                 contended run beat the isolated reference",
                o.kind
            );
            JobRow {
                job: j,
                kind: o.kind.to_string(),
                scale: o.scale,
                ranks: o.ranks,
                arrive_us: o.arrive_ns as f64 / 1e3,
                queue_us: (o.start_ns - o.arrive_ns) as f64 / 1e3,
                service_us: o.service_ns() as f64 / 1e3,
                response_us: o.response_ns() as f64 / 1e3,
                slowdown,
            }
        })
        .collect();
    let s: Vec<f64> = rows.iter().map(|r| r.slowdown).collect();
    Campaign {
        label,
        p50: pct(&s, 50.0),
        p99: pct(&s, 99.0),
        mean: s.iter().sum::<f64>() / s.len() as f64,
        max: s.iter().copied().fold(0.0, f64::max),
        makespan_ms: out.makespan_ns as f64 / 1e6,
        settled: settled_keys(&rec),
        cache,
        rows,
    }
}

/// Guard (b): weighted HCA arbitration measurably shifts slowdown between
/// two identical tenants on the same nodes, against a 1:1 control.
struct QosShift {
    heavy_service_us: f64,
    light_service_us: f64,
    weighted_ratio: f64,
    equal_ratio: f64,
}

fn qos_shift_guard() -> QosShift {
    // Needs a bandwidth-bound host body: the GPU-staged kinds rarely
    // backlog a QDR link (the shared PCIe copy engine paces their chunks
    // below link rate, and the work-conserving arbiter hides the weights
    // on an idle engine), so the probe is the host-to-host stream.
    let job = SizedJob {
        kind: JobKind::Stream,
        scale: 8,
    };
    let run = |w0: u32, w1: u32| {
        let qos = |w| JobQos {
            hca_weight: w,
            share_nodes: true,
            ..JobQos::default()
        };
        let plans = vec![
            JobPlan {
                job,
                arrive_ns: 0,
                qos: qos(w0),
            },
            JobPlan {
                job,
                arrive_ns: 0,
                qos: qos(w1),
            },
        ];
        let params = ClusterParams {
            phys_nodes: job.ranks(),
            placement: Placement::Shared,
            recorder: Some(Recorder::off()),
            ..ClusterParams::default()
        };
        let out = run_mix(&params, &plans);
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
    QosShift {
        heavy_service_us: heavy as f64 / 1e3,
        light_service_us: light as f64 / 1e3,
        weighted_ratio,
        equal_ratio,
    }
}

/// Guard (c): host milliseconds per job of a shared-placement campaign
/// (tracing off), at 256 and at 1024 jobs of the same arrival process.
struct HostScale {
    wall_ms_per_job_256: f64,
    wall_ms_per_job_1024: f64,
    ratio_1024_over_256: f64,
}

bench::impl_to_json!(HostScale {
    wall_ms_per_job_256,
    wall_ms_per_job_1024,
    ratio_1024_over_256,
});

fn host_scale_guard(seed: u64) -> HostScale {
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
                    phys_nodes: 8,
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
    let wall_ms_per_job_256 = ms_per_job(256, 3);
    let wall_ms_per_job_1024 = ms_per_job(1024, 2);
    let ratio = wall_ms_per_job_1024 / wall_ms_per_job_256;
    assert!(
        ratio <= 2.0,
        "host cost per job grows with the job count: {wall_ms_per_job_256:.3} ms at 256 jobs, \
         {wall_ms_per_job_1024:.3} ms at 1024 ({ratio:.2}x, limit 2x)"
    );
    HostScale {
        wall_ms_per_job_256,
        wall_ms_per_job_1024,
        ratio_1024_over_256: ratio,
    }
}

fn main() {
    let args = HarnessArgs::parse(&["smoke", "seed", "out"]);
    let smoke = args.extra.get("smoke").is_some_and(|v| v != "false");
    let phys_nodes = 8;
    let (njobs, gap_us) = if smoke { (6, 300.0) } else { (16, 400.0) };
    let seed = args
        .extra
        .get("seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20211);

    let qos = qos_shift_guard();
    println!(
        "QoS shift guard OK: 4:1 weights -> {:.3}x service ratio ({:.3}x at 1:1)",
        qos.weighted_ratio, qos.equal_ratio
    );
    let host = host_scale_guard(seed);
    println!(
        "host scale guard OK: {:.3} ms/job at 256 jobs, {:.3} ms/job at 1024 ({:.2}x)",
        host.wall_ms_per_job_256, host.wall_ms_per_job_1024, host.ratio_1024_over_256
    );

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

    let baseline = run_campaign("baseline", phys_nodes, Placement::Exclusive, &plans, &iso);
    let overload_plans: Vec<JobPlan> = plans
        .iter()
        .map(|p| JobPlan {
            arrive_ns: p.arrive_ns / 2,
            ..p.clone()
        })
        .collect();
    let overload = run_campaign(
        "overload_2x",
        phys_nodes,
        Placement::Exclusive,
        &overload_plans,
        &iso,
    );
    let shared_plans: Vec<JobPlan> = plans
        .iter()
        .map(|p| JobPlan {
            qos: JobQos {
                share_nodes: true,
                ..p.qos.clone()
            },
            ..p.clone()
        })
        .collect();
    let shared = run_campaign("shared", phys_nodes, Placement::Shared, &shared_plans, &iso);

    // Guard (a): the overload tail is finite (the campaign completed) and
    // no better than the baseline tail.
    assert!(overload.p99.is_finite(), "overload p99 slowdown not finite");
    assert!(
        overload.p99 >= baseline.p99,
        "overload p99 {:.3} below baseline p99 {:.3}",
        overload.p99,
        baseline.p99
    );

    // Stability guards: every tuner key settled in isolation settles in
    // the baseline mix too, and no campaign evicts a pack plan.
    let iso_settled: BTreeMap<String, u64> = iso.values().fold(BTreeMap::new(), |mut m, i| {
        for (k, v) in &i.settled {
            *m.entry(k.clone()).or_insert(0) += v;
        }
        m
    });
    for k in iso_settled.keys() {
        assert!(
            baseline.settled.contains_key(k),
            "tuner key {k} settled in isolation but not in the mix"
        );
    }
    for c in [&baseline, &overload, &shared] {
        assert_eq!(
            c.cache.2, 0,
            "{}: interleaved jobs thrashed a plan cache ({} evictions)",
            c.label, c.cache.2
        );
    }

    let doc = Json::Obj(vec![
        ("id".to_string(), "jobmix".to_json()),
        (
            "title".to_string(),
            "multi-job shared-cluster campaigns: slowdown, overload tail, QoS shift".to_json(),
        ),
        ("phys_nodes".to_string(), Json::Int(phys_nodes as i64)),
        ("seed".to_string(), Json::Int(seed as i64)),
        ("jobs".to_string(), Json::Int(njobs as i64)),
        ("mean_interarrival_us".to_string(), gap_us.to_json()),
        (
            "isolated_service_us".to_string(),
            Json::Obj(
                iso.iter()
                    .map(|((k, s), i)| (format!("{k}.x{s}"), (i.service_ns as f64 / 1e3).to_json()))
                    .collect(),
            ),
        ),
        (
            "campaigns".to_string(),
            Json::Arr(vec![
                baseline.to_json(),
                overload.to_json(),
                shared.to_json(),
            ]),
        ),
        (
            "qos_shift".to_string(),
            Json::Obj(vec![
                (
                    "heavy_service_us".to_string(),
                    qos.heavy_service_us.to_json(),
                ),
                (
                    "light_service_us".to_string(),
                    qos.light_service_us.to_json(),
                ),
                ("weighted_ratio".to_string(), qos.weighted_ratio.to_json()),
                ("equal_ratio".to_string(), qos.equal_ratio.to_json()),
            ]),
        ),
        ("host_scale".to_string(), host.to_json()),
        (
            "guards".to_string(),
            Json::Obj(vec![
                ("overload_p99_finite".to_string(), Json::Bool(true)),
                ("overload_p99_ge_baseline".to_string(), Json::Bool(true)),
                ("qos_shift_measurable".to_string(), Json::Bool(true)),
                ("tuner_settled_stable".to_string(), Json::Bool(true)),
                ("plan_cache_no_evictions".to_string(), Json::Bool(true)),
                ("host_ms_per_job_ratio_le_2".to_string(), Json::Bool(true)),
            ]),
        ),
    ]);
    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_jobmix.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    println!("\n{njobs}-job mix (seed {seed}, mean gap {gap_us} us) on {phys_nodes} nodes\n");
    print_table(
        &[
            "campaign",
            "p50 slowdown",
            "p99 slowdown",
            "mean",
            "max",
            "makespan (ms)",
        ],
        &[&baseline, &overload, &shared]
            .iter()
            .map(|c| {
                vec![
                    c.label.to_string(),
                    format!("{:.3}", c.p50),
                    format!("{:.3}", c.p99),
                    format!("{:.3}", c.mean),
                    format!("{:.3}", c.max),
                    format!("{:.3}", c.makespan_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
