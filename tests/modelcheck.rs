//! Model-checker acceptance tests: the current protocol passes
//! exhaustively at the documented bounds; both reintroduced bugs are
//! rediscovered with minimized, replayable counterexamples; replay is
//! byte-deterministic.

use simcheck::{explore, scenarios, silence_expected_panics, Schedule};

#[test]
fn protocol_scenarios_pass_exhaustively() {
    silence_expected_panics();
    for scenario in scenarios::protocol_scenarios() {
        let v = explore(&scenario);
        assert!(
            !v.stats.truncated,
            "{}: exploration hit the schedule cap — not exhaustive",
            v.scenario
        );
        if let Some(c) = &v.counterexample {
            panic!(
                "{}: counterexample {} (from {}): {}",
                v.scenario, c.schedule, c.original, c.message
            );
        }
        assert!(v.stats.schedules >= 1, "{}: no runs", v.scenario);
    }
}

#[test]
fn por_collapses_sequential_protocols() {
    silence_expected_panics();
    // The D2D handshake is strictly sequential: no two control packets
    // are ever concurrently in flight, all travel the reliable shm
    // channel (no drop branches), so POR collapses the exploration to
    // the single FIFO schedule.
    let v = explore(&scenarios::d2d_2rank());
    assert!(v.passed());
    assert_eq!(v.stats.schedules, 1, "D2D should be fully POR-pruned");
    assert!(v.stats.pruned > 0, "POR never fired on D2D");

    // The staged pipeline does have concurrency (chunk FINs and CREDITs
    // in flight together), so it both branches and prunes.
    let v = explore(&scenarios::staged_2rank());
    assert!(v.passed());
    assert!(v.stats.branched > 0, "staged never branched");
    assert!(v.stats.pruned > 0, "POR never fired on staged");
}

#[test]
fn finds_finalize_quiesce_bug() {
    silence_expected_panics();
    let scenario = scenarios::direct_2rank(true);
    let v = explore(&scenario);
    let c = v
        .counterexample
        .expect("checker failed to find the finalize-quiesce bug");
    assert!(
        c.message.contains("retries exhausted"),
        "unexpected violation: {}",
        c.message
    );
    assert!(
        c.schedule.divergences() <= 2,
        "counterexample not minimal: {}",
        c.schedule
    );
    // Serialize, parse back, replay: same violation.
    let text = c.schedule.to_text(scenario.name);
    let replayed = scenarios::replay(&scenario, &text).unwrap();
    assert_eq!(
        replayed.violation().as_deref(),
        Some(c.message.as_str()),
        "replayed counterexample did not reproduce"
    );
}

#[test]
fn finds_deferred_cts_starvation_bug() {
    silence_expected_panics();
    let scenario = scenarios::deferred_cts(true);
    let v = explore(&scenario);
    let c = v
        .counterexample
        .expect("checker failed to find the deferred-CTS starvation bug");
    assert_eq!(
        c.schedule.divergences(),
        1,
        "starvation needs exactly one dropped packet: {}",
        c.schedule
    );
    assert!(
        c.message.contains("rts") && c.message.contains("retries exhausted"),
        "unexpected violation: {}",
        c.message
    );
    let text = c.schedule.to_text(scenario.name);
    let replayed = scenarios::replay(&scenario, &text).unwrap();
    assert_eq!(replayed.violation().as_deref(), Some(c.message.as_str()));
}

#[test]
fn counterexample_replay_is_byte_deterministic() {
    silence_expected_panics();
    let scenario = scenarios::direct_2rank(true);
    let v = explore(&scenario);
    let c = v.counterexample.expect("no counterexample to replay");

    let replay = || {
        let rec = sim_trace::Recorder::new();
        let outcome = (scenario.run)(&c.schedule, &rec);
        let reports: Vec<String> = outcome.reports.iter().map(|r| r.to_string()).collect();
        (
            outcome.end,
            reports.join("\n"),
            sim_trace::chrome_trace(&rec),
        )
    };
    let (end1, reports1, trace1) = replay();
    let (end2, reports2, trace2) = replay();
    assert_eq!(end1, end2, "virtual end time differs between replays");
    assert_eq!(
        reports1, reports2,
        "sanitizer reports differ between replays"
    );
    assert_eq!(trace1, trace2, "virtual-time traces differ between replays");
}

#[test]
fn fifo_schedule_matches_unchecked_run() {
    silence_expected_panics();
    // The empty schedule under the checker must be the exact run the
    // scenario does without any checker: same end time, no reports.
    let scenario = scenarios::staged_2rank();
    let a = scenario.run_once(&Schedule::empty());
    let b = scenario.run_once(&Schedule::empty());
    assert_eq!(a.end, b.end);
    assert!(a.end.is_ok());
    assert!(a.reports.is_empty(), "FIFO run produced reports");
    assert!(!a.log.is_empty(), "staged run recorded no decision points");
}
