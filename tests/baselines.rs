//! Self-policing baselines: every committed `results/*.json` whose
//! experiment is cheap enough for a debug build is regenerated at its
//! experiment's defaults and compared member by member, host-clock members
//! excepted (`bench::Experiment::check`). A mismatch prints the JSON path
//! and both values: either the change moved a virtual number on purpose
//! (regenerate the file and say why) or it broke something.
//!
//! The four grids too slow for a debug build (`Policed::Ci` in
//! `bench::EXPERIMENTS`) go through the same comparison in release, from
//! `scripts/ci.sh`; of `coll_sweep` the 64-rank column is compared here.

use std::sync::{RwLock, RwLockReadGuard};

use bench::{committed, diff, find, reparse, Args, Policed, EXPERIMENTS};

/// These read deltas of process-wide counters (`plan_cache_*`, `fault.*`),
/// so they need the process to themselves; the rest run side by side.
const EXCLUSIVE: [&str; 2] = ["pipeline_bench", "fault_campaign"];
static COUNTERS: RwLock<()> = RwLock::new(());

fn beside() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(|e| e.into_inner())
}

fn police(name: &str) {
    let e = find(name).expect("no such experiment");
    let (file, ..) = e.committed.expect("nothing committed");
    let (_alone, _beside);
    if EXCLUSIVE.contains(&name) {
        _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    } else {
        _beside = beside();
    }
    let found = e.check();
    assert!(
        found.is_empty(),
        "{name} no longer reproduces {file}:\n  {}\nif intended, regenerate: \
         cargo run --release -p bench -- {name} --out {file}",
        found.join("\n  ")
    );
}

macro_rules! tier1 {
    ($($name:ident)*) => {
        $(#[test]
        fn $name() {
            police(stringify!($name));
        })*
        const LISTED: &[&str] = &[$(stringify!($name)),*];
    };
}

tier1! {
    fig2_pack_schemes pipeline_trace fig5_vector_latency table1_code_complexity
    ablation_block_size pipeline_bench offload_sweep fault_campaign modelcheck
    trace_report
}

#[test]
fn every_tier1_experiment_is_policed_above() {
    let tier1 = |e: &&bench::Experiment| matches!(e.committed, Some((_, Policed::Tier1, _)));
    let want: Vec<&str> = EXPERIMENTS.iter().filter(tier1).map(|e| e.name).collect();
    assert_eq!(LISTED, want);
}

#[test]
fn coll_sweep_smoke_plan_is_the_committed_64_rank_column() {
    let e = find("coll_sweep").unwrap();
    let (file, ..) = e.committed.unwrap();
    let _beside = beside();
    let mut args = Args::defaults(e.flags);
    args.smoke = true;
    // The grid's outermost loop is the rank count: the smoke plan's rows
    // are the committed file's first rows.
    let doc = reparse(&e.run(&args));
    let found = diff(&committed(file), &doc, &["smoke"], true);
    assert!(found.is_empty(), "{file}:\n  {}", found.join("\n  "));
}

#[test]
fn trace_report_chrome_export_is_the_committed_one() {
    let e = find("trace_report").unwrap();
    let _beside = beside();
    let path = std::env::temp_dir().join(format!("baselines-{}.chrome.json", std::process::id()));
    let mut args = Args::defaults(e.flags);
    args.chrome = Some(path.to_str().unwrap().to_string());
    e.run(&args);
    let got = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/trace_vector512k.chrome.json"
    );
    assert!(
        got == std::fs::read_to_string(committed).unwrap(),
        "the Chrome export of the 512 KB vector trace drifted from {committed}"
    );
}
