//! The end-to-end metric set, one workload's outcome, how it is printed and
//! serialised, and the `--check` comparison of two outcomes.

use std::collections::BTreeMap;

use gpu_nc_repro::sim_trace::json::JsonValue;

use crate::jsonw::{count, num, obj, text, to_line};
use crate::stats::Summary;

/// How far two runs of the same code may differ on a metric, which is also
/// how much worse a change may make it before it counts as a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Virtual clock: the same inputs must repeat to the nanosecond.
    Exact,
    /// Relative to the first run's value.
    Rel(f64),
    /// Relative, but never tighter than an absolute floor (same unit).
    RelOrAbs(f64, f64),
    /// Must be zero.
    Zero,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub bound: Bound,
}

/// The seven end-to-end metrics, all lower-is-better, reported for every
/// workload.
pub const END_TO_END: [MetricDef; 7] = [
    MetricDef {
        name: "virt_ms",
        unit: "ms",
        clock: "virtual",
        bound: Bound::Exact,
    },
    MetricDef {
        name: "virt_op_p50_us",
        unit: "us",
        clock: "virtual",
        bound: Bound::Exact,
    },
    MetricDef {
        name: "virt_op_p99_us",
        unit: "us",
        clock: "virtual",
        bound: Bound::Exact,
    },
    MetricDef {
        name: "wall_s",
        unit: "s",
        clock: "host",
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        clock: "host",
        bound: Bound::RelOrAbs(0.10, 0.05),
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        clock: "host",
        bound: Bound::Rel(0.05),
    },
    MetricDef {
        name: "failed_op_share",
        unit: "ratio",
        clock: "-",
        bound: Bound::Zero,
    },
];

/// The metrics of the last line with `--trace 0`: every end-to-end metric
/// that is never zero (`failed_op_share` travels as `failed`/`attempted`).
pub fn last_line_metrics() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().filter(|m| m.bound != Bound::Zero)
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub reps: usize,
    pub warmup: bool,
    pub ops_per_segment: u64,
    /// At least ten samples lie beyond the reported p99.
    pub tail_ok: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every timed rep gave the same virtual numbers.
    pub deterministic: bool,
    pub generator_late_ns: u64,
    /// One summary per end-to-end metric, in [`END_TO_END`] order.
    pub e2e: Vec<Summary>,
    /// Traced-rep metrics, when the traced rep ran.
    pub per_layer: Option<BTreeMap<String, f64>>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Outputs correct: nothing failed, nothing panicked, virtual time
    /// repeated, and a traced rep (if any) dropped no event.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.deterministic
            && self
                .per_layer
                .as_ref()
                .is_none_or(|m| m.get("sim-trace.dropped").copied().unwrap_or(0.0) == 0.0)
    }

    pub fn median(&self, metric: &str) -> f64 {
        let i = END_TO_END
            .iter()
            .position(|m| m.name == metric)
            .expect("known end-to-end metric");
        self.e2e[i].median
    }

    /// The human-readable section.
    pub fn print(&self) {
        println!(
            "== {} == seed {} | {}{} timed rep(s) | {} ops/segment | failed {}/{}{}",
            self.workload,
            self.seed,
            if self.warmup { "1 warm-up + " } else { "" },
            self.reps,
            self.ops_per_segment,
            self.failed,
            self.attempted,
            if self.correct() {
                ""
            } else {
                "  ** NOT CORRECT **"
            }
        );
        println!(
            "  {:<16} {:<6} {:<8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "clock", "median", "min", "q1", "q3", "max", "n"
        );
        for (m, s) in END_TO_END.iter().zip(&self.e2e) {
            println!(
                "  {:<16} {:<6} {:<8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name, m.unit, m.clock, s.median, s.min, s.q1, s.q3, s.max, s.n
            );
        }
        if !self.tail_ok {
            println!("  note: fewer than 10 samples beyond p99 (reduced counts)");
        }
        if !self.deterministic {
            println!("  ERROR: virtual-clock numbers differed between reps of one seed");
        }
        if self.generator_late_ns > 0 {
            println!(
                "  open-loop generator ran at most {} ns behind schedule (seeded)",
                self.generator_late_ns
            );
        }
        for e in &self.errors {
            println!("  ERROR: {e}");
        }
        if let Some(pl) = &self.per_layer {
            println!("  per-layer (traced rep):");
            for (name, unit) in crate::trace::metric_names() {
                match pl.get(&name) {
                    Some(v) => println!("    {name:<30} {v:>18.6} {unit}"),
                    None => println!("    {name:<30} {:>18} (no source on this workload)", "n/a"),
                }
            }
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let e2e = obj(END_TO_END.iter().zip(&self.e2e).map(|(m, s)| {
            (
                m.name,
                obj([
                    ("unit", text(m.unit)),
                    ("clock", text(m.clock)),
                    ("median", num(s.median)),
                    ("min", num(s.min)),
                    ("q1", num(s.q1)),
                    ("q3", num(s.q3)),
                    ("max", num(s.max)),
                    ("n", count(s.n as u64)),
                ]),
            )
        }));
        let per_layer = self.per_layer.as_ref().map_or(JsonValue::Null, |m| {
            obj(m.iter().map(|(k, v)| (k.as_str(), num(*v))))
        });
        obj([
            ("workload", text(&self.workload)),
            ("seed", count(self.seed)),
            ("reps", count(self.reps as u64)),
            ("warmup", JsonValue::Bool(self.warmup)),
            ("ops_per_segment", count(self.ops_per_segment)),
            ("tail_ok", JsonValue::Bool(self.tail_ok)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("deterministic", JsonValue::Bool(self.deterministic)),
            ("correct", JsonValue::Bool(self.correct())),
            ("generator_late_ns", count(self.generator_late_ns)),
            ("end_to_end", e2e),
            ("per_layer", per_layer),
            (
                "errors",
                JsonValue::Arr(self.errors.iter().map(text).collect()),
            ),
        ])
    }

    /// Rebuild an outcome from [`Outcome::to_json`]'s document (how the
    /// parent process reads its per-workload children).
    pub fn from_json(v: &JsonValue) -> Result<Outcome, String> {
        let f = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result line lacks number '{k}'"))
        };
        let b = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("result line lacks flag '{k}'"))
        };
        let e2e_doc = v
            .get("end_to_end")
            .ok_or("result line lacks 'end_to_end'")?;
        let e2e = END_TO_END
            .iter()
            .map(|m| {
                let s = e2e_doc
                    .get(m.name)
                    .ok_or_else(|| format!("result line lacks metric '{}'", m.name))?;
                let g = |k: &str| {
                    s.get(k)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("metric '{}' lacks '{k}'", m.name))
                };
                Ok(Summary {
                    n: g("n")? as usize,
                    min: g("min")?,
                    q1: g("q1")?,
                    median: g("median")?,
                    q3: g("q3")?,
                    max: g("max")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_layer = match v.get("per_layer") {
            Some(JsonValue::Obj(members)) => Some(
                members
                    .iter()
                    .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                    .collect(),
            ),
            _ => None,
        };
        Ok(Outcome {
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or("result line lacks 'workload'")?
                .to_string(),
            seed: f("seed")? as u64,
            reps: f("reps")? as usize,
            warmup: b("warmup")?,
            ops_per_segment: f("ops_per_segment")? as u64,
            tail_ok: b("tail_ok")?,
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            deterministic: b("deterministic")?,
            generator_late_ns: f("generator_late_ns")? as u64,
            e2e,
            per_layer,
            errors: v
                .get("errors")
                .and_then(JsonValue::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and either
    /// the end-to-end or the per-layer metrics, each with value and unit.
    pub fn last_line(&self, per_layer: bool) -> String {
        let metric = |value: f64, unit: &str| obj([("value", num(value)), ("unit", text(unit))]);
        let metrics = match (&self.per_layer, per_layer) {
            (Some(pl), true) => {
                obj(crate::trace::driver_metric_names()
                    .into_iter()
                    .map(|(name, unit)| {
                        let v = metric(pl[&name], unit);
                        (name, v)
                    }))
            }
            _ => obj(last_line_metrics().map(|m| (m.name, metric(self.median(m.name), m.unit)))),
        };
        to_line(&obj([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", count(self.attempted.max(1))),
            ("failed", count(self.failed)),
            ("metrics", metrics),
        ]))
    }
}

/// Where the second of two runs of the same code disagrees with the first
/// by more than the metric's bound: `(metric, first, second)`.
pub fn disagreements(a: &Outcome, b: &Outcome) -> Vec<(&'static MetricDef, f64, f64)> {
    END_TO_END
        .iter()
        .zip(a.e2e.iter().zip(&b.e2e))
        .filter_map(|(m, (x, y))| {
            let (x, y) = (x.median, y.median);
            let within = match m.bound {
                Bound::Exact => x == y,
                Bound::Zero => x == 0.0 && y == 0.0,
                Bound::Rel(r) => (y - x).abs() <= r * x.abs(),
                Bound::RelOrAbs(r, floor) => (y - x).abs() <= (r * x.abs()).max(floor),
            };
            (!within).then_some((m, x, y))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_nc_repro::sim_trace::json::parse;

    fn outcome(values: [f64; 7]) -> Outcome {
        Outcome {
            workload: "w".into(),
            seed: 1,
            reps: 5,
            warmup: true,
            ops_per_segment: 1000,
            tail_ok: true,
            attempted: 5000,
            failed: 0,
            deterministic: true,
            generator_late_ns: 0,
            e2e: values.iter().map(|&v| Summary::of(&[v])).collect(),
            per_layer: None,
            errors: Vec::new(),
        }
    }

    const BASE: [f64; 7] = [10.0, 100.0, 900.0, 2.0, 0.2, 300.0, 0.0];

    #[test]
    fn check_bounds() {
        let a = outcome(BASE);
        assert!(disagreements(&a, &outcome(BASE)).is_empty());
        // Host clock within bounds: wall 9 %, set-up +0.049 s (the floor is
        // wider than 10 % of 0.2 s), rss 4 %.
        let ok = outcome([10.0, 100.0, 900.0, 2.18, 0.249, 312.0, 0.0]);
        assert!(disagreements(&a, &ok).is_empty());
        // One virtual nanosecond is a disagreement.
        let v = outcome([10.000001, 100.0, 900.0, 2.0, 0.2, 300.0, 0.0]);
        let d = disagreements(&a, &v);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].0.name, d[0].1, d[0].2), ("virt_ms", 10.0, 10.000001));
        let w = outcome([10.0, 100.0, 900.0, 2.3, 0.26, 320.0, 0.001]);
        let names: Vec<&str> = disagreements(&a, &w).iter().map(|d| d.0.name).collect();
        assert_eq!(
            names,
            vec!["wall_s", "setup_s", "peak_rss_mb", "failed_op_share"]
        );
    }

    #[test]
    fn result_document_round_trips() {
        let mut a = outcome(BASE);
        a.per_layer = Some(
            crate::trace::metric_names()
                .into_iter()
                .enumerate()
                .map(|(i, (n, _))| (n, i as f64 * 0.5))
                .collect(),
        );
        a.errors.push("boom \"quoted\"".into());
        let back = Outcome::from_json(&parse(&to_line(&a.to_json())).unwrap()).unwrap();
        assert_eq!(back.e2e, a.e2e);
        assert_eq!(back.per_layer, a.per_layer);
        assert_eq!(back.errors, a.errors);
        assert_eq!((back.seed, back.reps), (1, 5));
        assert!(!back.correct(), "an error makes the outcome incorrect");
    }

    #[test]
    fn last_line_has_exactly_the_contract_keys() {
        let mut a = outcome(BASE);
        let v = parse(&a.last_line(false)).unwrap();
        let JsonValue::Obj(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Obj(ms) = v.get("metrics").unwrap() else {
            panic!()
        };
        let names: Vec<&str> = ms.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "virt_ms",
                "virt_op_p50_us",
                "virt_op_p99_us",
                "wall_s",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        assert_eq!(ms[3].1.get("unit").and_then(JsonValue::as_str), Some("s"));
        // With a traced rep and `--trace 1`: the per-layer set instead.
        a.per_layer = Some(
            crate::trace::metric_names()
                .into_iter()
                .map(|(n, _)| (n, 1.0))
                .collect(),
        );
        let v = parse(&a.last_line(true)).unwrap();
        let JsonValue::Obj(ms) = v.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(ms.len(), crate::trace::driver_metric_names().len());
        assert!(v.get("metrics").unwrap().get("wall_s").is_none());
    }
}
