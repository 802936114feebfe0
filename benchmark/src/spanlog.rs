//! The benchmark's own span log.
//!
//! Spans are recorded from the benchmark's files only, around the calls
//! into the crates. Host-clock spans wrap the phases of a rep and each
//! probe. Under fibers a host span opened inside a rank body would include
//! every other rank's work, so rank bodies contribute virtual-clock spans
//! only: one per operation, children of the segment span. Self time is a
//! span's duration minus the union of the intervals its children *on the
//! same clock* cover.

use gpu_nc_repro::sim_trace::json::JsonValue;

use crate::jsonw::{count, obj, text, to_line};

/// Which clock a span's `start`/`end` are read from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds since the log was created.
    Host,
    /// Virtual nanoseconds since the world started.
    Virt,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virt => "virt",
        }
    }
}

/// One recorded span. `op` groups the spans of one operation.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: Option<u32>,
    pub name: String,
    pub layer: &'static str,
    pub clock: Clock,
    pub start: u64,
    pub end: u64,
}

/// In-memory span log, written out when the benchmark ends.
#[derive(Default, Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a finished span and return its id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: Option<u32>,
        op: Option<u32>,
        name: impl Into<String>,
        layer: &'static str,
        clock: Clock,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.into(),
            layer,
            clock,
            start,
            end: end.max(start),
        });
        id
    }

    /// Self time of every span, indexed by span id: duration minus the
    /// merged cover of its same-clock children (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                if parent.clock == s.clock {
                    let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                    if b > a {
                        kids[p as usize].push((a, b));
                    }
                }
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, iv)| (s.end - s.start) - covered(iv))
            .collect()
    }

    /// The log as a JSON document: `{"workload": .., "spans": [{id, parent,
    /// op, name, layer, clock, start, end, self}, ..]}` (times in ns).
    pub fn to_json(&self, workload: &str) -> String {
        let opt = |v: Option<u32>| v.map_or(JsonValue::Null, |x| count(x.into()));
        let spans = self.spans.iter().zip(self.self_times()).map(|(s, own)| {
            obj([
                ("id", count(s.id.into())),
                ("parent", opt(s.parent)),
                ("op", opt(s.op)),
                ("name", text(s.name.as_str())),
                ("layer", text(s.layer)),
                ("clock", text(s.clock.label())),
                ("start", count(s.start)),
                ("end", count(s.end)),
                ("self", count(own)),
            ])
        });
        let doc = obj([
            ("workload", text(workload)),
            ("spans", JsonValue::Arr(spans.collect())),
        ]);
        to_line(&doc) + "\n"
    }
}

/// Total length of the union of `iv` (sorted in place).
fn covered(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// rep[0,100] -> setup[0,30], segment[30,90]; segment -> a[30,50],
    /// b[40,70] (overlapping siblings), plus one virtual-clock child that
    /// must not be subtracted from its host-clock parent.
    fn tree() -> SpanLog {
        let mut log = SpanLog::new();
        let rep = log.push(None, None, "rep", "bench", Clock::Host, 0, 100);
        log.push(Some(rep), None, "setup", "bench", Clock::Host, 0, 30);
        let seg = log.push(Some(rep), None, "segment", "bench", Clock::Host, 30, 90);
        log.push(Some(seg), Some(0), "a", "mpi-sim", Clock::Host, 30, 50);
        log.push(Some(seg), Some(1), "b", "mpi-sim", Clock::Host, 40, 70);
        log.push(
            Some(seg),
            Some(2),
            "op",
            "mpi-sim",
            Clock::Virt,
            0,
            1_000_000,
        );
        log
    }

    #[test]
    fn self_time_three_levels() {
        let log = tree();
        let s = log.self_times();
        // rep: 100 - (30 + 60); setup: leaf; segment: 60 - union(30..70);
        // a, b, op: leaves keep their whole duration.
        assert_eq!(s, vec![10, 30, 20, 20, 30, 1_000_000]);
    }

    #[test]
    fn child_is_clipped_to_parent() {
        let mut log = SpanLog::new();
        let r = log.push(None, None, "r", "bench", Clock::Host, 10, 20);
        log.push(Some(r), None, "late", "bench", Clock::Host, 15, 40);
        assert_eq!(log.self_times()[0], 5);
    }

    #[test]
    fn json_round_trips() {
        let doc = tree().to_json("t");
        let v = gpu_nc_repro::sim_trace::json::parse(&doc).expect("valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_arr()).expect("spans");
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[2].get("self").and_then(|x| x.as_f64()), Some(20.0));
        assert_eq!(spans[5].get("clock").and_then(|x| x.as_str()), Some("virt"));
    }
}
