//! Figure 3: the non-contiguous data pipeline in action. Runs one vector
//! transfer and renders each chunk's stage completions (device pack, D2H,
//! RDMA write, H2D, device unpack) as a timeline, demonstrating the stage
//! overlap the paper's design achieves.
//!
//! Regenerate with: `cargo run --release -p bench --bin pipeline_trace`

use bench::{emit_json, ExperimentRecord, HarnessArgs};
use mv2_gpu_nc::baselines::{fill_vector, recv_mv2, send_mv2, VectorXfer};
use mv2_gpu_nc::{GpuCluster, Recorder};
use sim_trace::analysis::stage_spans;

struct Event {
    stage: String,
    chunk: usize,
    done_us: f64,
}

bench::impl_to_json!(Event {
    stage,
    chunk,
    done_us
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let total = 512 << 10; // 8 chunks at the default 64 KB block size
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
    let spans = stage_spans(&rec);
    let mut evs: Vec<Event> = spans
        .iter()
        .map(|s| Event {
            stage: s.lane_name.clone(),
            chunk: s.chunk.unwrap_or(0),
            done_us: s.end.as_micros_f64(),
        })
        .collect();
    evs.sort_by(|a, b| a.done_us.total_cmp(&b.done_us));

    if args.json {
        emit_json(&ExperimentRecord {
            id: "fig3",
            title: "Pipeline stage completion trace (Figure 3)",
            data: &evs,
        });
        return;
    }

    println!(
        "Figure 3: pipeline trace of one {} KB vector transfer \
         (64 KB blocks)\n",
        total >> 10
    );
    let t0 = evs.first().map(|e| e.done_us).unwrap_or(0.0);
    let t1 = evs.last().map(|e| e.done_us).unwrap_or(1.0);
    let span = (t1 - t0).max(1.0);
    const COLS: f64 = 72.0;
    println!(
        "{:<8} {:>5}  {:>10}  timeline ({}..{} us)",
        "stage", "chunk", "done (us)", t0 as u64, t1 as u64
    );
    for e in &evs {
        let pos = ((e.done_us - t0) / span * (COLS - 1.0)) as usize;
        let mut bar = vec![b' '; COLS as usize];
        bar[pos] = b'#';
        println!(
            "{:<8} {:>5}  {:>10.1}  |{}|",
            e.stage,
            e.chunk,
            e.done_us,
            String::from_utf8(bar).unwrap()
        );
    }
    // Quantified overlap analysis.
    let stats = mv2_gpu_nc::timeline::analyze_spans(&spans);
    println!();
    println!(
        "pipeline span {:.0} us, stage-overlap factor {:.2} (1.0 = fully serialized)",
        stats.span_us, stats.overlap
    );
    for s in &stats.stages {
        println!(
            "  {:<7} {} chunks, steady-state period {:.1} us",
            s.stage, s.chunks, s.period_us
        );
    }
    if let Some(b) = mv2_gpu_nc::timeline::bottleneck(&stats) {
        println!(
            "  bottleneck stage: {} (the paper's (n+2)*T model assumes the device pack)",
            b.stage
        );
    }
    // The actual gating sequence through the five stages.
    let path = sim_trace::analysis::critical_path(&spans, &mv2_gpu_nc::timeline::STAGE_ORDER);
    if !path.is_empty() {
        let steps: Vec<String> = path
            .iter()
            .map(|s| format!("{}[{}]", s.stage, s.chunk))
            .collect();
        println!("  critical path: {}", steps.join(" -> "));
    }

    // Overlap proof: the last pack must finish well after the first d2h —
    // stages interleave instead of running phase by phase.
    let last_pack = evs
        .iter()
        .filter(|e| e.stage == "pack")
        .map(|e| e.done_us)
        .fold(0.0, f64::max);
    let first_h2d = evs
        .iter()
        .filter(|e| e.stage == "h2d")
        .map(|e| e.done_us)
        .fold(f64::INFINITY, f64::min);
    println!();
    if first_h2d < last_pack {
        println!(
            "overlap confirmed: first H2D completes at {first_h2d:.1} us, \
             before the last pack at {last_pack:.1} us"
        );
    } else {
        println!("no overlap detected (pipeline disabled?)");
    }
}
