//! §IV-B ablation: pipeline block size (`MV2_CUDA_BLOCK_SIZE`). Sweeps the
//! block size for a 4 MB vector transfer and compares the measured
//! end-to-end latency against the paper's analytic model
//! `(n+2) * T_d2d_nc2c(N/n)`.
//!
//! Paper claim: 64 KB is the optimal block size on the calibrated testbed.
//!
//! Regenerate with: `cargo run --release -p bench --bin ablation_block_size`

use bench::{emit_json, fmt_size, print_table, ExperimentRecord, HarnessArgs};
use gpu_sim::CostModel;
use mv2_gpu_nc::baselines::{fill_vector, recv_mv2, send_mv2, VectorXfer};
use mv2_gpu_nc::{model, GpuCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn measure(total: usize, block: usize) -> f64 {
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    GpuCluster::new(2).block_size(block).run(move |env| {
        let x = VectorXfer::paper(total);
        let dev = env.gpu.malloc(x.extent());
        let me = env.comm.rank();
        // Warm-up to populate pools.
        if me == 0 {
            fill_vector(&env.gpu, dev, &x, 1);
            send_mv2(&env.comm, dev, x, 1, 9);
        } else {
            recv_mv2(&env.comm, dev, x, 0, 9);
        }
        env.comm.barrier();
        let t0 = sim_core::now();
        if me == 0 {
            send_mv2(&env.comm, dev, x, 1, 0);
        } else {
            recv_mv2(&env.comm, dev, x, 0, 0);
            out2.store((sim_core::now() - t0).as_nanos(), Ordering::SeqCst);
        }
    });
    out.load(Ordering::SeqCst) as f64 / 1e3
}

struct Row {
    block_bytes: usize,
    measured_us: f64,
    model_us: f64,
}

bench::impl_to_json!(Row {
    block_bytes,
    measured_us,
    model_us
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let total = 4 << 20;
    let cost = CostModel::tesla_c2050();
    let rows: Vec<Row> = (12..=20)
        .map(|p| {
            let block = 1usize << p;
            Row {
                block_bytes: block,
                measured_us: measure(total, block),
                model_us: model::pipeline_latency_model(&cost, total, block, 4).as_micros_f64(),
            }
        })
        .collect();

    if args.json {
        emit_json(&ExperimentRecord {
            id: "ablation_block",
            title: "Pipeline block-size ablation at 4 MB (section IV-B)",
            data: &rows,
        });
        return;
    }

    println!("Block-size ablation: 4 MB vector transfer (us)\n");
    print_table(
        &["block", "measured", "model (n+2)*T(N/n)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    fmt_size(r.block_bytes),
                    format!("{:.0}", r.measured_us),
                    format!("{:.0}", r.model_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let best = rows
        .iter()
        .min_by(|a, b| a.measured_us.total_cmp(&b.measured_us))
        .unwrap();
    println!();
    println!(
        "measured optimum: {} (paper: 64K)",
        fmt_size(best.block_bytes)
    );
}
