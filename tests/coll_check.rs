//! Model-checking the hierarchical collective control plane: the 3-rank
//! leader fan-in scenario ([`scenarios::hier_fanin_3rank`]) must pass
//! exhaustively — every drop/delay schedule of the leader's rendezvous
//! control packets recovers and delivers the gathered bytes intact.

use simcheck::{explore, scenarios, silence_expected_panics, Schedule};

#[test]
fn hier_fanin_passes_exhaustively() {
    silence_expected_panics();
    let v = explore(&scenarios::hier_fanin_3rank());
    assert!(
        !v.stats.truncated,
        "leader fan-in exploration hit the schedule cap — not exhaustive"
    );
    if let Some(c) = &v.counterexample {
        panic!(
            "leader fan-in violated under schedule {} (from {}): {}",
            c.schedule, c.original, c.message
        );
    }
    // The wire leg is a rendezvous with retry branches: the checker must
    // actually have had choices to explore, not a single FIFO run.
    assert!(
        v.stats.schedules > 1,
        "leader fan-in explored only the FIFO schedule — no decision points"
    );
}

#[test]
fn hier_fanin_fifo_run_is_clean_and_deterministic() {
    silence_expected_panics();
    let scenario = scenarios::hier_fanin_3rank();
    let a = scenario.run_once(&Schedule::empty());
    let b = scenario.run_once(&Schedule::empty());
    assert_eq!(a.end, b.end, "FIFO replay diverged in virtual time");
    assert!(a.end.is_ok(), "FIFO run failed: {:?}", a.end);
    assert!(a.reports.is_empty(), "FIFO run produced sanitizer reports");
    assert!(
        !a.log.is_empty(),
        "the leader's wire rendezvous recorded no decision points"
    );
}

#[test]
fn hier_fanin_is_replayable_by_name() {
    silence_expected_panics();
    let s = scenarios::by_name("hier-fanin-3rank").expect("scenario not registered");
    let text = Schedule::empty().to_text(s.name);
    let outcome = scenarios::replay(&s, &text).expect("replay failed to parse");
    assert!(outcome.end.is_ok());
}
