//! Model-checking campaign: exhaustively explore every protocol scenario
//! and rediscover both reintroduced bugs.
//!
//! Runs the `simcheck` explorer over the four control-plane protocols
//! (staged, direct, shm-eager, D2D) plus the deferred-CTS contention
//! scenario, all of which must pass exhaustively within their budgets —
//! and over the two bug scenarios (finalize-quiesce, deferred-CTS
//! starvation), both of which must yield a minimized, replayable
//! counterexample. Any unexpected verdict is a failure. `--smoke` shrinks
//! every budget to the CI bounds.

use std::time::Instant;

use simcheck::{explore, scenarios, silence_expected_panics, Budget, Scenario};

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::json::obj;
use crate::Args;

pub fn modelcheck(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("", "scenario", Fmt::Plain),
        col("", "schedules", Fmt::Plain),
        col("", "branched", Fmt::Plain),
        col("", "pruned", Fmt::Plain),
        col("", "max idx", Fmt::Plain),
        col("", "verdict", Fmt::Plain),
    ];
    silence_expected_panics();
    let shrink = |mut s: Scenario| -> Scenario {
        if args.smoke {
            s.budget = Budget {
                allow_drops: s.budget.allow_drops,
                ..Budget::smoke()
            };
        }
        s
    };
    let protocols = scenarios::protocol_scenarios().into_iter();
    let bugs = scenarios::bug_scenarios().into_iter();
    let jobs = (protocols.map(|s| (shrink(s), false))).chain(bugs.map(|s| (shrink(s), true)));

    let t0 = Instant::now();
    let mut doc = Doc::new();
    let mut t = Table::new(COLS);
    let mut records = Vec::new();
    let mut total = (0usize, 0usize, 0usize); // schedules, branched, pruned
    for (scenario, expect_bug) in jobs {
        let ts = Instant::now();
        let v = explore(&scenario);
        let wall_ms = ts.elapsed().as_secs_f64() * 1e3;
        let st = &v.stats;
        total.0 += st.schedules;
        total.1 += st.branched;
        total.2 += st.pruned;

        let ok = if expect_bug {
            v.counterexample.is_some()
        } else {
            v.passed() && !st.truncated
        };
        if !ok {
            doc.failures.push(match &v.counterexample {
                Some(c) => format!("{}: unexpected violation: {}", v.scenario, c.message),
                None if st.truncated => {
                    format!("{}: exploration truncated at the schedule cap", v.scenario)
                }
                None => format!("{}: failed to find the seeded bug", v.scenario),
            });
        }
        let verdict = match (&v.counterexample, expect_bug) {
            (None, false) => "pass (exhaustive)".to_string(),
            (Some(c), true) => format!("bug found: {}", c.schedule),
            (None, true) => "BUG MISSED".to_string(),
            (Some(_), false) => "UNEXPECTED VIOLATION".to_string(),
        };
        t.row(&[
            &v.scenario,
            &st.schedules,
            &st.branched,
            &st.pruned,
            &st.max_index,
            &verdict,
        ]);
        let mut record = obj(&[
            ("scenario", &v.scenario),
            ("expect_bug", &expect_bug),
            ("schedules", &st.schedules),
            ("branched", &st.branched),
            ("pruned", &st.pruned),
            ("max_index", &st.max_index),
            ("truncated", &st.truncated),
            ("wall_ms", &wall_ms),
            ("verdict", &if v.passed() { "pass" } else { "violation" }),
        ]);
        if let Some(c) = &v.counterexample {
            let message = c.message.lines().next().unwrap_or("");
            let counterexample = obj(&[
                ("schedule", &c.schedule.to_string()),
                ("original", &c.original.to_string()),
                ("divergences", &c.schedule.divergences()),
                ("runs_to_find", &c.runs_to_find),
                ("message", &message),
            ]);
            record.push("counterexample", counterexample);
        }
        records.push(record);
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
    let ok = doc.failures.is_empty();
    doc.field("smoke", args.smoke)
        .field("scenarios", records)
        .field("total_schedules", total.0)
        .field("total_branched", total.1)
        .field("total_pruned", total.2)
        .field("por_reduction_factor", por_factor)
        .field("wall_ms", wall_ms)
        .field("ok", ok);
    doc.say(format!(
        "Model checking: {} schedules explored, POR reduction {por_factor:.2}x, {wall_ms:.0} ms\n",
        total.0
    ));
    doc.say(t.render());
    doc
}
