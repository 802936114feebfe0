//! `BENCHMARK.json` at the repository root describes this program to the
//! driver. These tests keep the two from drifting apart.

use gpu_nc_repro::sim_trace::json::{parse, JsonValue};

use crate::{report, trace, workloads};

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn names(v: &JsonValue, key: &str) -> Vec<(String, JsonValue)> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
        .iter()
        .map(|e| {
            let n = e.get("name").and_then(JsonValue::as_str).expect("name");
            (n.to_string(), e.clone())
        })
        .collect()
}

fn field<'a>(e: &'a JsonValue, k: &str) -> &'a str {
    e.get(k).and_then(JsonValue::as_str).expect("string field")
}

#[test]
fn workloads_are_the_drivers_five_with_their_reasons() {
    let doc = parse(MANIFEST).expect("BENCHMARK.json parses");
    let listed = names(&doc, "workloads");
    // `halo3d_faults` runs natively only: see README, "What the seed drives".
    let expected: Vec<&str> = workloads::ALL
        .iter()
        .map(|w| w.name)
        .filter(|n| *n != "halo3d_faults")
        .collect();
    assert_eq!(
        listed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        expected
    );
    for (n, e) in &listed {
        assert_eq!(field(e, "why"), workloads::by_name(n).unwrap().why, "{n}");
    }
}

#[test]
fn end_to_end_metrics_match_the_last_line() {
    let doc = parse(MANIFEST).expect("BENCHMARK.json parses");
    let listed = names(&doc, "end_to_end");
    let emitted: Vec<_> = report::last_line_metrics().collect();
    assert_eq!(listed.len(), emitted.len());
    for ((n, e), m) in listed.iter().zip(&emitted) {
        assert_eq!(n, m.name);
        assert_eq!(field(e, "unit"), m.unit, "{n}");
        assert_eq!(field(e, "better"), "lower", "{n}");
        let bound = e.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{n}: bound {bound}");
    }
    let largest = listed
        .iter()
        .map(|(_, e)| e.get("bound").and_then(JsonValue::as_f64).unwrap())
        .fold(0.0, f64::max);
    let setup = &listed
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    assert_eq!(field(setup, "unit"), "s");
    assert_eq!(
        setup.get("bound").and_then(JsonValue::as_f64),
        Some(largest)
    );
}

#[test]
fn per_layer_metrics_match_the_traced_rep() {
    let doc = parse(MANIFEST).expect("BENCHMARK.json parses");
    let listed = names(&doc, "per_layer");
    let emitted = trace::driver_metric_names();
    assert_eq!(listed.len(), emitted.len());
    for ((n, e), (name, unit)) in listed.iter().zip(&emitted) {
        assert_eq!(n, name);
        assert_eq!(field(e, "unit"), *unit, "{n}");
        assert!(["lower", "higher"].contains(&field(e, "better")), "{n}");
    }
}

#[test]
fn command_builds_and_runs_this_package_only() {
    let doc = parse(MANIFEST).expect("BENCHMARK.json parses");
    let cmd: Vec<&str> = doc
        .get("command")
        .and_then(JsonValue::as_arr)
        .expect("command")
        .iter()
        .map(|s| s.as_str().expect("string"))
        .collect();
    assert_eq!(cmd.first(), Some(&"cargo"));
    assert!(cmd.contains(&"benchmark/Cargo.toml") && cmd.contains(&"--offline"));
    assert_eq!(cmd.last(), Some(&"--"), "driver flags go to perfbench");
    let paths = doc.get("paths").and_then(JsonValue::as_arr).expect("paths");
    assert_eq!(paths, [JsonValue::Str("benchmark".into())]);
    let secs = doc.get("run_seconds").and_then(JsonValue::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}
