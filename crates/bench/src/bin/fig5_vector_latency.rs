//! Figure 5: GPU-to-GPU vector transfer latency for the three designs of
//! Figure 4 — "Cpy2D+Send" (blocking), "Cpy2DAsync+CpyAsync+Isend"
//! (hand-pipelined) and "MV2-GPU-NC" — 16 B to 4 MB, 4-byte elements.
//!
//! Paper headline: MV2-GPU-NC improves latency by up to 88% over
//! Cpy2D+Send at 4 MB, and tracks the hand-pipelined design closely.
//!
//! Regenerate with: `cargo run --release -p bench --bin fig5_vector_latency`

use bench::{emit_json, fmt_size, paper_sizes, print_table, ExperimentRecord, HarnessArgs};
use mv2_gpu_nc::baselines::{
    fill_vector, recv_cpy2d_blocking, recv_manual_pipeline, recv_mv2, send_cpy2d_blocking,
    send_manual_pipeline, send_mv2, verify_vector, VectorXfer,
};
use mv2_gpu_nc::GpuCluster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Copy, Clone, PartialEq, Eq)]
enum Design {
    Blocking,
    Manual,
    Mv2,
}

impl Design {
    const ALL: [Design; 3] = [Design::Blocking, Design::Manual, Design::Mv2];
    fn label(&self) -> &'static str {
        match self {
            Design::Blocking => "Cpy2D+Send",
            Design::Manual => "Cpy2DAsync+CpyAsync+Isend",
            Design::Mv2 => "MV2-GPU-NC",
        }
    }
}

/// One-way latency of `design` for a `total`-byte vector message.
fn measure(design: Design, total: usize) -> f64 {
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    GpuCluster::new(2).run(move |env| {
        let x = VectorXfer::paper(total);
        let block = env.comm.config().chunk_size.min(total.next_power_of_two());
        let block = block.max(x.elem);
        let dev = env.gpu.malloc(x.extent());
        let me = env.comm.rank();
        // Warm-up transfer: populates staging pools on both sides.
        if me == 0 {
            fill_vector(&env.gpu, dev, &x, 11);
            send_mv2(&env.comm, dev, x, 1, 99);
        } else {
            recv_mv2(&env.comm, dev, x, 0, 99);
        }
        env.comm.barrier();
        let t0 = sim_core::now();
        match design {
            Design::Blocking => {
                if me == 0 {
                    send_cpy2d_blocking(env, dev, x, 1, 0);
                } else {
                    recv_cpy2d_blocking(env, dev, x, 0, 0);
                }
            }
            Design::Manual => {
                if me == 0 {
                    send_manual_pipeline(env, dev, x, 1, 1, block);
                } else {
                    recv_manual_pipeline(env, dev, x, 0, 1, block);
                }
            }
            Design::Mv2 => {
                if me == 0 {
                    send_mv2(&env.comm, dev, x, 1, 0);
                } else {
                    recv_mv2(&env.comm, dev, x, 0, 0);
                }
            }
        }
        if me == 1 {
            verify_vector(&env.gpu, dev, &x, 11);
            out2.store((sim_core::now() - t0).as_nanos(), Ordering::SeqCst);
        }
    });
    out.load(Ordering::SeqCst) as f64 / 1e3
}

struct Row {
    bytes: usize,
    cpy2d_send_us: f64,
    manual_pipeline_us: f64,
    mv2_gpu_nc_us: f64,
}

bench::impl_to_json!(Row {
    bytes,
    cpy2d_send_us,
    manual_pipeline_us,
    mv2_gpu_nc_us
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let rows: Vec<Row> = paper_sizes()
        .into_iter()
        .map(|total| {
            let mut us = [0.0f64; 3];
            for (i, d) in Design::ALL.iter().enumerate() {
                us[i] = measure(*d, total);
            }
            Row {
                bytes: total,
                cpy2d_send_us: us[0],
                manual_pipeline_us: us[1],
                mv2_gpu_nc_us: us[2],
            }
        })
        .collect();

    if args.json {
        emit_json(&ExperimentRecord {
            id: "fig5",
            title: "Vector communication latency (Figure 5)",
            data: &rows,
        });
        return;
    }

    println!("Figure 5: GPU-to-GPU vector latency (one-way, us)\n");
    print_table(
        &[
            "size",
            Design::Blocking.label(),
            Design::Manual.label(),
            Design::Mv2.label(),
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    fmt_size(r.bytes),
                    format!("{:.1}", r.cpy2d_send_us),
                    format!("{:.1}", r.manual_pipeline_us),
                    format!("{:.1}", r.mv2_gpu_nc_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let r4m = rows.iter().find(|r| r.bytes == 4 << 20).unwrap();
    println!();
    println!(
        "Improvement over Cpy2D+Send at 4MB (paper: 88%): {:.1}%",
        (1.0 - r4m.mv2_gpu_nc_us / r4m.cpy2d_send_us) * 100.0
    );
    println!(
        "MV2-GPU-NC vs hand-pipelined at 4MB (paper: similar): {:.2}x",
        r4m.mv2_gpu_nc_us / r4m.manual_pipeline_us
    );
}
