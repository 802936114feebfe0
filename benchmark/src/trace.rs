//! Per-layer numbers of the traced rep, all read from outside: the lanes of
//! `sim_trace::Recorder`, its counter registry, the process-global
//! counters and the kernel's wake trace.
//!
//! Lane busy times are merged per lane, clipped to the segment's virtual
//! window and summed over the lanes of a kind. They overlap each other and
//! are not claimed to add up to `virt_ms`. Byte and event counts cover the
//! whole traced world, set-up included. A metric whose source does not
//! exist on a workload is left out of that workload's numbers, never
//! reported as 0.

use std::collections::BTreeMap;

use gpu_nc_repro::sim_core::{SimDur, SimTime};
use gpu_nc_repro::sim_trace::analysis::{busy_time, overlap_factor, stage_spans};
use gpu_nc_repro::sim_trace::{Event, EventKind, LaneKind};

use crate::harness::{Rep, WorldTrace};

/// One lane family whose busy time is reported.
struct Family {
    metric: &'static str,
    kind: LaneKind,
    lane: &'static str,
}

const FAMILIES: [Family; 6] = [
    Family {
        metric: "gpu-sim.d2d",
        kind: LaneKind::GpuEngine,
        lane: "d2d",
    },
    Family {
        metric: "gpu-sim.d2h",
        kind: LaneKind::GpuEngine,
        lane: "d2h",
    },
    Family {
        metric: "gpu-sim.h2d",
        kind: LaneKind::GpuEngine,
        lane: "h2d",
    },
    Family {
        metric: "ib-sim.hca_tx",
        kind: LaneKind::Hca,
        lane: "hca_tx",
    },
    Family {
        metric: "ib-sim.offload",
        kind: LaneKind::Hca,
        lane: "offload",
    },
    Family {
        metric: "ib-sim.shm",
        kind: LaneKind::Shm,
        lane: "shm",
    },
];

/// `(name, unit)` of every traced-rep metric, in reporting order.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("sim-core.grants".into(), "count"),
        ("sim-core.host_ns_per_grant".into(), "ns"),
    ];
    for f in &FAMILIES {
        v.push((format!("{}_busy_ms", f.metric), "ms"));
        v.push((format!("{}_util", f.metric), "ratio"));
    }
    for (n, u) in [
        ("ib-sim.hca_tx_bytes", "bytes"),
        ("ib-sim.shm_bytes", "bytes"),
        ("ib-sim.offload_entries", "count"),
        ("mpi-sim.plan_hit_ratio", "ratio"),
        ("mpi-sim.retries", "count"),
        ("mpi-sim.dups", "count"),
        ("mpi-sim.fallbacks", "count"),
        ("mpi-sim.retries_per_fault", "ratio"),
        ("core.overlap_factor", "ratio"),
        ("sim-trace.events", "count"),
        ("sim-trace.dropped", "count"),
        ("trace.wall_ratio", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Metrics that have no source on some workload: `cluster_sim::run_mix`
/// builds its own `Sim` and exposes no wake-trace hook, and stage lanes
/// carry work only where the 5-stage pipeline runs alone.
const NOT_EVERYWHERE: [&str; 3] = [
    "sim-core.grants",
    "sim-core.host_ns_per_grant",
    "core.overlap_factor",
];

/// The metrics every workload reports: the `per_layer` set of
/// `BENCHMARK.json` and of the last line under `--trace 1`.
pub fn driver_metric_names() -> Vec<(String, &'static str)> {
    metric_names()
        .into_iter()
        .filter(|(n, _)| !NOT_EVERYWHERE.contains(&n.as_str()))
        .collect()
}

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_nanos(ns)
}

/// Busy ns and lane count per family for one world, from its `events`.
fn lane_busy(w: &WorldTrace, events: &[Event]) -> Vec<(u64, usize)> {
    let lanes = w.rec.lanes();
    let (w0, w1) = (at(w.window.0), at(w.window.1));
    let family_of: Vec<Option<usize>> = lanes
        .iter()
        .map(|l| {
            FAMILIES
                .iter()
                .position(|f| f.kind == l.kind && f.lane == l.name)
        })
        .collect();
    let mut per_lane: BTreeMap<u32, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for ev in events {
        if let EventKind::Span { start, end, .. } = ev.kind {
            if family_of[ev.lane as usize].is_some() {
                let (s, e) = (start.max(w0), end.min(w1));
                if e > s {
                    per_lane.entry(ev.lane).or_default().push((s, e));
                }
            }
        }
    }
    let mut out = vec![(0u64, 0usize); FAMILIES.len()];
    for f in family_of.iter().flatten() {
        out[*f].1 += 1;
    }
    for (lane, iv) in per_lane {
        let f = family_of[lane as usize].expect("only family lanes are kept");
        out[f].0 += busy_time(&iv).as_nanos();
    }
    out
}

/// Sum of the process-global counters whose name starts with `prefix`.
fn sum_prefix(delta: &BTreeMap<&'static str, u64>, prefix: &str) -> u64 {
    delta
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

/// Sum over nodes of the fabric counter `node<k>.<key>`.
fn sum_nodes(metrics: &BTreeMap<String, u64>, key: &str) -> u64 {
    metrics
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix("node")
                .and_then(|r| r.split_once('.'))
                .is_some_and(|(n, rest)| n.bytes().all(|b| b.is_ascii_digit()) && rest == key)
        })
        .map(|(_, v)| *v)
        .sum()
}

/// The traced rep's per-layer metrics. `untraced_wall_s` is the median
/// `wall_s` of the timed reps; `global` the process-global counter delta
/// across the traced rep.
pub fn per_layer(
    workload: &str,
    rep: &Rep,
    untraced_wall_s: f64,
    global: &BTreeMap<&'static str, u64>,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let virt_ns = rep.timing.virt_ns.max(1) as f64;

    let grants: Option<u64> = rep.traces.iter().map(|w| w.grants).sum();
    if let Some(g) = grants.filter(|&g| g > 0) {
        m.insert("sim-core.grants".into(), g as f64);
        m.insert(
            "sim-core.host_ns_per_grant".into(),
            untraced_wall_s * 1e9 / g as f64,
        );
    }

    let mut busy = vec![(0u64, 0usize); FAMILIES.len()];
    let (mut events, mut dropped) = (0u64, 0u64);
    let mut fabric: BTreeMap<String, u64> = BTreeMap::new();
    for w in &rep.traces {
        let recorded = w.rec.events();
        for (acc, (b, n)) in busy.iter_mut().zip(lane_busy(w, &recorded)) {
            acc.0 += b;
            acc.1 = acc.1.max(n);
        }
        events += recorded.len() as u64;
        dropped += w.rec.dropped();
        for (k, v) in w.rec.metrics() {
            *fabric.entry(k).or_insert(0) += v;
        }
    }
    for (f, (b, lanes)) in FAMILIES.iter().zip(&busy) {
        m.insert(format!("{}_busy_ms", f.metric), *b as f64 / 1e6);
        m.insert(
            format!("{}_util", f.metric),
            *b as f64 / (virt_ns * (*lanes).max(1) as f64),
        );
    }
    m.insert(
        "ib-sim.hca_tx_bytes".into(),
        sum_nodes(&fabric, "hca.tx_bytes") as f64,
    );
    m.insert(
        "ib-sim.shm_bytes".into(),
        sum_nodes(&fabric, "shm.bytes") as f64,
    );
    m.insert(
        "ib-sim.offload_entries".into(),
        sum_nodes(&fabric, "offload.entries") as f64,
    );

    let hits = global.get("plan_cache_hit").copied().unwrap_or(0);
    let misses = global.get("plan_cache_miss").copied().unwrap_or(0);
    m.insert(
        "mpi-sim.plan_hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let retries = sum_prefix(global, "retry.");
    let faults = sum_prefix(global, "fault.");
    m.insert("mpi-sim.retries".into(), retries as f64);
    m.insert("mpi-sim.dups".into(), sum_prefix(global, "dup.") as f64);
    m.insert(
        "mpi-sim.fallbacks".into(),
        sum_prefix(global, "fallback.") as f64,
    );
    m.insert(
        "mpi-sim.retries_per_fault".into(),
        retries as f64 / faults.max(1) as f64,
    );

    if let ("vec_pingpong", Some(w)) = (workload, rep.traces.first()) {
        m.insert(
            "core.overlap_factor".into(),
            overlap_factor(&stage_spans(&w.rec)),
        );
    }
    m.insert("sim-trace.events".into(), events as f64);
    m.insert("sim-trace.dropped".into(), dropped as f64);
    m.insert(
        "trace.wall_ratio".into(),
        rep.timing.wall_s / untraced_wall_s.max(1e-9),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_nc_repro::sim_trace::Recorder;

    #[test]
    fn busy_is_merged_per_lane_and_clipped_to_the_window() {
        let rec = Recorder::new();
        let a = rec.lane("node0", "hca_tx", LaneKind::Hca);
        let b = rec.lane("node1", "hca_tx", LaneKind::Hca);
        let off = rec.lane("node0", "offload", LaneKind::Hca);
        let other = rec.lane("rank0", "proto", LaneKind::Proto);
        a.span("tx", at(0), at(100)); // 50 inside the window
        a.span("tx", at(80), at(150)); // merges with the first: 50..150
        b.span("tx", at(190), at(400)); // 10 inside
        off.span("sg", at(60), at(70));
        other.span("x", at(0), at(1000));
        let w = WorldTrace::new(rec, None, (50, 200));
        let busy = lane_busy(&w, &w.rec.events());
        assert_eq!(
            busy[3],
            (100 + 10, 2),
            "hca_tx: two lanes, merged + clipped"
        );
        assert_eq!(busy[4], (10, 1), "offload is its own family");
        assert_eq!(busy[0], (0, 0));
    }

    #[test]
    fn node_counters_are_summed_by_key() {
        let mut m = BTreeMap::new();
        m.insert("node0.hca.tx_bytes".to_string(), 5);
        m.insert("node12.hca.tx_bytes".to_string(), 7);
        m.insert("job3.fabric.hca.tx_bytes".to_string(), 100);
        m.insert("node0.shm.bytes".to_string(), 1);
        assert_eq!(sum_nodes(&m, "hca.tx_bytes"), 12);
        assert_eq!(sum_nodes(&m, "shm.bytes"), 1);
        assert_eq!(sum_nodes(&m, "offload.entries"), 0);
    }

    #[test]
    fn names_match_what_per_layer_emits() {
        // A rep with no wake trace and no pipeline: exactly the driver's set.
        let got = per_layer("x", &Rep::default(), 1.0, &BTreeMap::new());
        let names: Vec<String> = driver_metric_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(got.keys().cloned().collect::<Vec<_>>(), {
            let mut sorted = names.clone();
            sorted.sort();
            sorted
        });
        assert_eq!(names.len() + NOT_EVERYWHERE.len(), metric_names().len());
    }
}
