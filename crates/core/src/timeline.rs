//! Pipeline timeline analysis: turn recorded stage spans into per-stage
//! throughput and overlap statistics.
//!
//! The paper argues its design works because the five stages overlap; this
//! module quantifies that from a real (simulated) run — the kind of
//! evidence Figure 3 sketches. It consumes the [`sim_trace`] stage lanes
//! (`pack`/`d2h`/`rdma`/`h2d`/`unpack` in each rank's scope) and keeps the
//! original completion-time statistics; for busy-time utilization and
//! critical paths see [`sim_trace::analysis`].

use sim_core::SimTime;
use sim_trace::analysis::SpanRec;

/// The five pipeline stages in dependence order (Figure 3).
pub const STAGE_ORDER: [&str; 5] = ["pack", "d2h", "rdma", "h2d", "unpack"];

/// Per-stage summary extracted from a trace.
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

/// Whole-pipeline summary.
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

/// Analyze an explicit stage-span list (spans on lanes not named in
/// [`STAGE_ORDER`] are ignored).
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
    use crate::baselines::{fill_vector, recv_mv2, send_mv2, VectorXfer};
    use crate::GpuCluster;
    use sim_trace::analysis::stage_spans;
    use sim_trace::Recorder;

    fn traced_transfer(total: usize) -> Vec<SpanRec> {
        let rec = Recorder::new();
        GpuCluster::new(2).recorder(rec.clone()).run(move |env| {
            let x = VectorXfer::paper(total);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 1);
                send_mv2(&env.comm, dev, x, 1, 0);
            } else {
                recv_mv2(&env.comm, dev, x, 0, 0);
            }
        });
        stage_spans(&rec)
    }

    #[test]
    fn stages_overlap_for_multichunk_transfers() {
        let spans = traced_transfer(1 << 20); // 16 chunks
        let stats = analyze_spans(&spans);
        assert_eq!(stats.stages.len(), 5);
        for s in &stats.stages {
            assert_eq!(s.chunks, 16, "{}", s.stage);
        }
        assert!(
            stats.overlap > 2.0,
            "five stages should overlap substantially, got {:.2}",
            stats.overlap
        );
    }

    #[test]
    fn pack_is_the_bottleneck_stage() {
        let spans = traced_transfer(1 << 20);
        let stats = analyze_spans(&spans);
        let b = bottleneck(&stats).unwrap();
        // §IV-B: "latency of packing data in the GPU is always larger than
        // the RDMA data transfer latency or time for contiguous data
        // movement" — pack or unpack (same cost) must gate the pipeline.
        assert!(
            b.stage == "pack" || b.stage == "unpack",
            "bottleneck was {}",
            b.stage
        );
    }

    #[test]
    fn stage_periods_match_the_cost_model() {
        let spans = traced_transfer(1 << 20);
        let stats = analyze_spans(&spans);
        let pack = stats.stages.iter().find(|s| s.stage == "pack").unwrap();
        // 64 KB chunks of 4-byte rows: 16 µs + 16384*8 ns + bw term ≈ 150 µs.
        assert!(
            (120.0..200.0).contains(&pack.period_us),
            "pack period {:.1} µs",
            pack.period_us
        );
    }

    #[test]
    fn critical_path_runs_chunk_zero_stages_then_chunk_ladder() {
        let spans = traced_transfer(1 << 20);
        let path = sim_trace::analysis::critical_path(&spans, &STAGE_ORDER);
        assert!(!path.is_empty());
        // The path must start at (pack, 0) and end at (unpack, last chunk).
        assert_eq!(path.first().unwrap().stage, "pack");
        assert_eq!(path.first().unwrap().chunk, 0);
        assert_eq!(path.last().unwrap().stage, "unpack");
        assert_eq!(path.last().unwrap().chunk, 15);
        // Steps never move backward in time.
        for w in path.windows(2) {
            assert!(w[1].end >= w[0].end);
        }
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let stats = analyze_spans(&[]);
        assert!(stats.stages.is_empty());
        assert_eq!(stats.span_us, 0.0);
        assert_eq!(stats.overlap, 0.0);
    }
}
