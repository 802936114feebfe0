//! Model-checking campaign: exhaustively explore every protocol scenario
//! and rediscover both reintroduced bugs.
//!
//! Runs the `simcheck` explorer over the four control-plane protocols
//! (staged, direct, shm-eager, D2D) plus the deferred-CTS contention
//! scenario, all of which must pass exhaustively within their budgets —
//! and over the two bug scenarios (finalize-quiesce, deferred-CTS
//! starvation), both of which must yield a minimized, replayable
//! counterexample. Exits nonzero on any unexpected verdict.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin modelcheck` (writes
//! `results/modelcheck.json`; `--out PATH` overrides). `--smoke` shrinks
//! every budget to the CI bounds.

use bench::{print_table, HarnessArgs, Json, ToJson};
use simcheck::{explore, scenarios, silence_expected_panics, Budget, Verdict};

fn verdict_json(v: &Verdict, expect_bug: bool, wall_ms: f64) -> Json {
    let mut kv = vec![
        ("scenario".to_string(), v.scenario.to_json()),
        ("expect_bug".to_string(), expect_bug.to_json()),
        ("schedules".to_string(), v.stats.schedules.to_json()),
        ("branched".to_string(), v.stats.branched.to_json()),
        ("pruned".to_string(), v.stats.pruned.to_json()),
        ("max_index".to_string(), v.stats.max_index.to_json()),
        ("truncated".to_string(), v.stats.truncated.to_json()),
        ("wall_ms".to_string(), wall_ms.to_json()),
        (
            "verdict".to_string(),
            if v.passed() { "pass" } else { "violation" }.to_json(),
        ),
    ];
    if let Some(c) = &v.counterexample {
        kv.push((
            "counterexample".to_string(),
            Json::Obj(vec![
                ("schedule".to_string(), c.schedule.to_string().to_json()),
                ("original".to_string(), c.original.to_string().to_json()),
                (
                    "divergences".to_string(),
                    c.schedule.divergences().to_json(),
                ),
                ("runs_to_find".to_string(), c.runs_to_find.to_json()),
                (
                    "message".to_string(),
                    c.message.lines().next().unwrap_or("").to_string().to_json(),
                ),
            ]),
        ));
    }
    Json::Obj(kv)
}

fn main() {
    silence_expected_panics();
    let args = HarnessArgs::parse(&["smoke", "out"]);
    let smoke = args.extra.contains_key("smoke");

    let shrink = |mut s: simcheck::Scenario| -> simcheck::Scenario {
        if smoke {
            s.budget = Budget {
                allow_drops: s.budget.allow_drops,
                ..Budget::smoke()
            };
        }
        s
    };

    let t0 = std::time::Instant::now();
    let mut rows = Vec::new();
    let mut docs = Vec::new();
    let mut failures = Vec::new();
    let mut total = (0usize, 0usize, 0usize); // schedules, branched, pruned

    let jobs: Vec<(simcheck::Scenario, bool)> = scenarios::protocol_scenarios()
        .into_iter()
        .map(|s| (shrink(s), false))
        .chain(
            scenarios::bug_scenarios()
                .into_iter()
                .map(|s| (shrink(s), true)),
        )
        .collect();

    for (scenario, expect_bug) in jobs {
        let ts = std::time::Instant::now();
        let v = explore(&scenario);
        let wall_ms = ts.elapsed().as_secs_f64() * 1e3;
        total.0 += v.stats.schedules;
        total.1 += v.stats.branched;
        total.2 += v.stats.pruned;

        let ok = if expect_bug {
            v.counterexample.is_some()
        } else {
            v.passed() && !v.stats.truncated
        };
        if !ok {
            failures.push(match &v.counterexample {
                Some(c) => format!("{}: unexpected violation: {}", v.scenario, c.message),
                None if v.stats.truncated => {
                    format!("{}: exploration truncated at the schedule cap", v.scenario)
                }
                None => format!("{}: failed to find the seeded bug", v.scenario),
            });
        }
        rows.push(vec![
            v.scenario.to_string(),
            v.stats.schedules.to_string(),
            v.stats.branched.to_string(),
            v.stats.pruned.to_string(),
            v.stats.max_index.to_string(),
            match (&v.counterexample, expect_bug) {
                (None, false) => "pass (exhaustive)".to_string(),
                (Some(c), true) => format!("bug found: {}", c.schedule),
                (None, true) => "BUG MISSED".to_string(),
                (Some(_), false) => "UNEXPECTED VIOLATION".to_string(),
            },
        ]);
        docs.push(verdict_json(&v, expect_bug, wall_ms));
    }

    // POR reduction factor: of all branch candidates considered, the
    // fraction pruned tells how much of the naive interleaving space the
    // concurrency test collapsed.
    let candidates = total.1 + total.2;
    let por_factor = if total.1 > 0 {
        candidates as f64 / total.1 as f64
    } else {
        1.0
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let doc = Json::Obj(vec![
        ("id".to_string(), "modelcheck".to_json()),
        (
            "title".to_string(),
            "Exhaustive control-plane model checking".to_json(),
        ),
        ("smoke".to_string(), smoke.to_json()),
        ("scenarios".to_string(), Json::Arr(docs)),
        ("total_schedules".to_string(), total.0.to_json()),
        ("total_branched".to_string(), total.1.to_json()),
        ("total_pruned".to_string(), total.2.to_json()),
        ("por_reduction_factor".to_string(), por_factor.to_json()),
        ("wall_ms".to_string(), wall_ms.to_json()),
        ("ok".to_string(), failures.is_empty().to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/modelcheck.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
    } else {
        println!("Model checking: {} schedules explored, POR reduction {por_factor:.2}x, {wall_ms:.0} ms\n", total.0);
        print_table(
            &[
                "scenario",
                "schedules",
                "branched",
                "pruned",
                "max idx",
                "verdict",
            ],
            &rows,
        );
        println!("\nwrote {out_path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
