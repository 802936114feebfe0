//! Trace analyses: lane utilization, pipeline overlap, critical path and
//! per-stage completion statistics.
//!
//! All analyses work on plain span lists so they can be fed either from a
//! live [`Recorder`] or from hand-constructed data in tests.

use sim_core::{SimDur, SimTime};

use crate::recorder::{EventKind, LaneId, LaneKind, Recorder};

/// A flattened span (one busy interval on one lane).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Owning lane.
    pub lane: LaneId,
    /// Lane scope (e.g. `rank0`).
    pub scope: String,
    /// Lane name (e.g. `pack`, `tx`).
    pub lane_name: String,
    /// Lane kind.
    pub kind: LaneKind,
    /// Operation name.
    pub name: &'static str,
    /// Chunk index for pipeline stages.
    pub chunk: Option<usize>,
    /// Busy-interval start.
    pub start: SimTime,
    /// Busy-interval end.
    pub end: SimTime,
}

/// All spans retained by `rec`, flattened with their lane identity.
pub fn spans(rec: &Recorder) -> Vec<SpanRec> {
    let lanes = rec.lanes();
    rec.events()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Span {
                name,
                chunk,
                start,
                end,
            } => {
                let meta = &lanes[ev.lane as usize];
                Some(SpanRec {
                    lane: ev.lane,
                    scope: meta.scope.clone(),
                    lane_name: meta.name.clone(),
                    kind: meta.kind,
                    name,
                    chunk,
                    start,
                    end,
                })
            }
            _ => None,
        })
        .collect()
}

/// Spans on [`LaneKind::Stage`] lanes only (the pipeline's per-chunk work).
pub fn stage_spans(rec: &Recorder) -> Vec<SpanRec> {
    spans(rec)
        .into_iter()
        .filter(|s| s.kind == LaneKind::Stage)
        .collect()
}

/// Total busy time of a set of intervals, with overlaps merged (an engine
/// processing back-to-back chunks is busy once, not twice).
pub fn busy_time(intervals: &[(SimTime, SimTime)]) -> SimDur {
    let mut iv: Vec<(SimTime, SimTime)> =
        intervals.iter().copied().filter(|(s, e)| e > s).collect();
    iv.sort_unstable();
    let mut total = SimDur::ZERO;
    let mut cur: Option<(SimTime, SimTime)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-lane utilization over an observation window.
#[derive(Clone, Debug)]
pub struct LaneUtil {
    /// Lane scope.
    pub scope: String,
    /// Lane name.
    pub name: String,
    /// Lane kind.
    pub kind: LaneKind,
    /// Number of spans observed.
    pub spans: usize,
    /// Merged busy time, microseconds.
    pub busy_us: f64,
    /// Busy time divided by the window length (0.0 when the window is
    /// empty).
    pub utilization: f64,
}

/// The observation window covering every span: `(earliest start, latest
/// end)`, or `None` when there are no spans.
pub fn window(spans: &[SpanRec]) -> Option<(SimTime, SimTime)> {
    let first = spans.iter().map(|s| s.start).min()?;
    let last = spans.iter().map(|s| s.end).max()?;
    Some((first, last))
}

/// Utilization of every lane that recorded at least one span, measured over
/// the window spanning *all* given spans (so lanes are comparable).
pub fn lane_utilization(spans: &[SpanRec]) -> Vec<LaneUtil> {
    let Some((w0, w1)) = window(spans) else {
        return Vec::new();
    };
    let wall = (w1 - w0).as_micros_f64();
    let mut ids: Vec<LaneId> = spans.iter().map(|s| s.lane).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.iter()
        .map(|&id| {
            let mine: Vec<&SpanRec> = spans.iter().filter(|s| s.lane == id).collect();
            let iv: Vec<(SimTime, SimTime)> = mine.iter().map(|s| (s.start, s.end)).collect();
            let busy = busy_time(&iv).as_micros_f64();
            LaneUtil {
                scope: mine[0].scope.clone(),
                name: mine[0].lane_name.clone(),
                kind: mine[0].kind,
                spans: mine.len(),
                busy_us: busy,
                utilization: if wall > 0.0 { busy / wall } else { 0.0 },
            }
        })
        .collect()
}

/// Pipeline overlap factor: the sum of per-lane merged busy times divided
/// by the wall window. A serialized pipeline gives ~1.0; perfect overlap
/// approaches the number of lanes that carry work.
pub fn overlap_factor(spans: &[SpanRec]) -> f64 {
    lane_utilization(spans).iter().map(|u| u.utilization).sum()
}

/// One step of a critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct CritStep {
    /// Stage name (the lane name of the stage lane).
    pub stage: String,
    /// Chunk index.
    pub chunk: usize,
    /// Stage start.
    pub start: SimTime,
    /// Stage end.
    pub end: SimTime,
}

/// Critical path through a chunked pipeline, walked backward from the
/// latest-finishing stage span.
///
/// The dependence structure of the paper's pipeline: chunk `c`'s work in
/// stage `s` cannot finish before either its own previous stage
/// (`(s-1, c)`) or the previous chunk's work in the same stage
/// (`(s, c-1)`, the stage's engine is serial). At each step the walk moves
/// to whichever of the two predecessors finished *later* — the edge that
/// actually gated this span — and stops when neither exists.
///
/// `stage_order` lists the stage lane names in pipeline order (e.g.
/// `["pack", "d2h", "rdma", "h2d", "unpack"]`); spans on stage lanes not
/// listed are ignored. When several spans share a `(stage, chunk)` cell
/// (several transfers in one trace), the earliest is kept — feed one
/// transfer at a time for exact results.
pub fn critical_path(spans: &[SpanRec], stage_order: &[&str]) -> Vec<CritStep> {
    use std::collections::HashMap;
    // (stage index, chunk) -> span
    let mut cells: HashMap<(usize, usize), &SpanRec> = HashMap::new();
    for s in spans {
        let Some(si) = stage_order.iter().position(|&n| n == s.lane_name) else {
            continue;
        };
        let Some(c) = s.chunk else { continue };
        cells
            .entry((si, c))
            .and_modify(|cur| {
                if s.start < cur.start {
                    *cur = s;
                }
            })
            .or_insert(s);
    }
    // Sink: the latest-finishing cell.
    let Some((&sink, _)) = cells.iter().max_by_key(|(_, s)| (s.end, s.start)) else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut cur = sink;
    loop {
        let span = cells[&cur];
        path.push(CritStep {
            stage: span.lane_name.clone(),
            chunk: cur.1,
            start: span.start,
            end: span.end,
        });
        let (si, c) = cur;
        let prev_stage = si.checked_sub(1).and_then(|p| cells.get(&(p, c)).copied());
        let prev_chunk = c.checked_sub(1).and_then(|p| cells.get(&(si, p)).copied());
        cur = match (prev_stage, prev_chunk) {
            (Some(a), Some(b)) => {
                if a.end >= b.end {
                    (si - 1, c)
                } else {
                    (si, c - 1)
                }
            }
            (Some(_), None) => (si - 1, c),
            (None, Some(_)) => (si, c - 1),
            (None, None) => break,
        };
    }
    path.reverse();
    path
}

/// The five pipeline stages in dependence order (Figure 3).
pub const STAGE_ORDER: [&str; 5] = ["pack", "d2h", "rdma", "h2d", "unpack"];

/// Per-stage completion-time summary extracted from a trace.
#[derive(Clone, Debug)]
pub struct StageStats {
    /// Stage name ("pack", "d2h", "rdma", "h2d", "unpack").
    pub stage: &'static str,
    /// Number of chunk completions observed.
    pub chunks: usize,
    /// First completion instant.
    pub first_done: SimTime,
    /// Last completion instant.
    pub last_done: SimTime,
    /// Mean gap between consecutive completions (the stage's steady-state
    /// period), in microseconds.
    pub period_us: f64,
}

/// Whole-pipeline completion-time summary.
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// Per-stage summaries in pipeline order.
    pub stages: Vec<StageStats>,
    /// Wall span from first to last completion, microseconds.
    pub span_us: f64,
    /// Overlap ratio: sum of stage completion-time spans divided by the
    /// wall span. A perfectly serialized pipeline gives ~1.0; full overlap
    /// approaches the number of active stages.
    pub overlap: f64,
}

/// Per-stage throughput and overlap from the stage lanes' completion times
/// — the evidence Figure 3 sketches: the paper's design works because the
/// five stages overlap. Spans on lanes not named in [`STAGE_ORDER`] are
/// ignored. (For busy-time utilization see [`lane_utilization`].)
pub fn analyze_spans(spans: &[SpanRec]) -> PipelineStats {
    let mut stages = Vec::new();
    let mut total_stage_span = 0.0;
    let mut first = None::<SimTime>;
    let mut last = None::<SimTime>;
    for &stage in &STAGE_ORDER {
        let mut times: Vec<SimTime> = spans
            .iter()
            .filter(|s| s.lane_name == stage)
            .map(|s| s.end)
            .collect();
        if times.is_empty() {
            continue;
        }
        times.sort_unstable();
        let (f, l) = (times[0], *times.last().unwrap());
        let span = (l - f).as_micros_f64();
        let period = if times.len() > 1 {
            span / (times.len() - 1) as f64
        } else {
            0.0
        };
        total_stage_span += span;
        first = Some(first.map_or(f, |x: SimTime| x.min(f)));
        last = Some(last.map_or(l, |x: SimTime| x.max(l)));
        stages.push(StageStats {
            stage,
            chunks: times.len(),
            first_done: f,
            last_done: l,
            period_us: period,
        });
    }
    let span_us = match (first, last) {
        (Some(f), Some(l)) => (l - f).as_micros_f64(),
        _ => 0.0,
    };
    PipelineStats {
        stages,
        span_us,
        overlap: if span_us > 0.0 {
            total_stage_span / span_us
        } else {
            0.0
        },
    }
}

/// The slowest stage (largest steady-state period) — the pipeline's
/// bottleneck, which §IV-B's model assumes is the device pack.
pub fn bottleneck(stats: &PipelineStats) -> Option<&StageStats> {
    stats
        .stages
        .iter()
        .max_by(|a, b| a.period_us.total_cmp(&b.period_us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1000)
    }

    /// The satellite's constructed two-chunk transfer: five stages with
    /// hand-computed critical path, overlap factor and lane utilizations.
    fn two_chunk_recorder() -> Recorder {
        let r = Recorder::new();
        let stages = [
            ("pack", [(0, 10), (10, 20)]),
            ("d2h", [(10, 18), (20, 28)]),
            ("rdma", [(18, 24), (28, 34)]),
            ("h2d", [(24, 32), (34, 42)]),
            ("unpack", [(32, 40), (42, 52)]),
        ];
        for (name, chunks) in stages {
            let lane = r.lane("rank0", name, LaneKind::Stage);
            for (c, (s, e)) in chunks.iter().enumerate() {
                lane.chunk_span(name, Some(c), t(*s), t(*e));
            }
        }
        r
    }

    #[test]
    fn two_chunk_critical_path_is_hand_computable() {
        let r = two_chunk_recorder();
        let sp = stage_spans(&r);
        let path = critical_path(&sp, &["pack", "d2h", "rdma", "h2d", "unpack"]);
        let expect = [
            ("pack", 0, 0, 10),
            ("pack", 1, 10, 20),
            ("d2h", 1, 20, 28),
            ("rdma", 1, 28, 34),
            ("h2d", 1, 34, 42),
            ("unpack", 1, 42, 52),
        ];
        assert_eq!(path.len(), expect.len());
        for (got, (stage, chunk, s, e)) in path.iter().zip(expect) {
            assert_eq!(got.stage, stage);
            assert_eq!(got.chunk, chunk);
            assert_eq!(got.start, t(s));
            assert_eq!(got.end, t(e));
        }
    }

    #[test]
    fn two_chunk_overlap_and_utilization_are_hand_computable() {
        let r = two_chunk_recorder();
        let sp = stage_spans(&r);
        // Window 0..52 us. Busy: pack 20, d2h 16, rdma 12, h2d 16, unpack 18.
        let utils = lane_utilization(&sp);
        assert_eq!(utils.len(), 5);
        let busy: Vec<f64> = utils.iter().map(|u| u.busy_us).collect();
        assert_eq!(busy, vec![20.0, 16.0, 12.0, 16.0, 18.0]);
        for u in &utils {
            assert_eq!(u.spans, 2);
            assert!((u.utilization - u.busy_us / 52.0).abs() < 1e-12);
        }
        let overlap = overlap_factor(&sp);
        assert!(((20.0 + 16.0 + 12.0 + 16.0 + 18.0) / 52.0 - overlap).abs() < 1e-12);
    }

    #[test]
    fn two_chunk_stage_stats_are_hand_computable() {
        let stats = analyze_spans(&stage_spans(&two_chunk_recorder()));
        // Completions: pack 10/20, d2h 18/28, rdma 24/34, h2d 32/42,
        // unpack 40/52 -> spans 10,10,10,10,12 over the 10..52 window.
        let stages: Vec<&str> = stats.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, STAGE_ORDER);
        for s in &stats.stages {
            assert_eq!(s.chunks, 2, "{}", s.stage);
            assert_eq!(s.period_us, (s.last_done - s.first_done).as_micros_f64());
        }
        assert_eq!(stats.span_us, 42.0);
        assert!((stats.overlap - 52.0 / 42.0).abs() < 1e-12);
        // The slowest stage is the one with the longest period.
        assert_eq!(bottleneck(&stats).unwrap().stage, "unpack");
    }

    #[test]
    fn busy_time_merges_overlapping_intervals() {
        let iv = [
            (t(0), t(10)),
            (t(5), t(15)), // overlaps previous -> merged to 0..15
            (t(20), t(30)),
            (t(30), t(35)), // touching -> merged to 20..35
            (t(40), t(40)), // empty -> ignored
        ];
        assert_eq!(busy_time(&iv), SimDur::from_micros(30));
    }

    #[test]
    fn critical_path_handles_missing_stages() {
        // A contiguous transfer has no pack/unpack: the walk must still
        // terminate and cover the stages that exist.
        let r = Recorder::new();
        let d2h = r.lane("rank0", "d2h", LaneKind::Stage);
        let rdma = r.lane("rank0", "rdma", LaneKind::Stage);
        d2h.chunk_span("d2h", Some(0), t(0), t(5));
        rdma.chunk_span("rdma", Some(0), t(5), t(9));
        let path = critical_path(&stage_spans(&r), &["pack", "d2h", "rdma", "h2d", "unpack"]);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].stage, "d2h");
        assert_eq!(path[1].stage, "rdma");
    }

    #[test]
    fn empty_trace_yields_empty_analyses() {
        let r = Recorder::new();
        let sp = stage_spans(&r);
        assert!(lane_utilization(&sp).is_empty());
        assert_eq!(overlap_factor(&sp), 0.0);
        assert!(critical_path(&sp, &["pack"]).is_empty());
        let stats = analyze_spans(&sp);
        assert!(stats.stages.is_empty() && bottleneck(&stats).is_none());
        assert_eq!((stats.span_us, stats.overlap), (0.0, 0.0));
    }
}
