//! Ablation: pipeline window depth (vbuf slots granted per CTS).
//!
//! Two regimes, both measured here:
//!
//! * **Strided (vector) messages** — the GPU pack stage (~150 µs per 64 KB
//!   chunk) is slower than a chunk's whole post-pack journey (~110 µs of
//!   D2H + RDMA + H2D + credit), so even a single slot never stalls: the
//!   paper's pipeline is *pack-gated*, and the window size is irrelevant.
//! * **Contiguous device messages** — there is no pack stage, so with one
//!   slot every chunk serializes D2H → RDMA → H2D → credit; the window is
//!   precisely what lets the three engines stream. This is the paper's
//!   "8x1 grid benefits from pipelining alone" case.
//!
//! Regenerate with: `cargo run --release -p bench --bin ablation_window`

use bench::{emit_json, print_table, ExperimentRecord, HarnessArgs};
use mpi_sim::{Datatype, MpiConfig};
use mv2_gpu_nc::baselines::{fill_vector, recv_mv2, send_mv2, VectorXfer};
use mv2_gpu_nc::GpuCluster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn measure(total: usize, window: usize, strided: bool) -> f64 {
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    let cfg = MpiConfig {
        window_slots: window,
        ..MpiConfig::default()
    };
    GpuCluster::new(2).mpi_config(cfg).run(move |env| {
        let me = env.comm.rank();
        if strided {
            let x = VectorXfer::paper(total);
            let dev = env.gpu.malloc(x.extent());
            if me == 0 {
                fill_vector(&env.gpu, dev, &x, 1);
                send_mv2(&env.comm, dev, x, 1, 9); // warm-up
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
        } else {
            let t = Datatype::byte();
            t.commit();
            let dev = env.gpu.malloc(total);
            if me == 0 {
                env.comm.send(dev, total, &t, 1, 9); // warm-up
            } else {
                env.comm.recv(dev, total, &t, 0, 9);
            }
            env.comm.barrier();
            let t0 = sim_core::now();
            if me == 0 {
                env.comm.send(dev, total, &t, 1, 0);
            } else {
                env.comm.recv(dev, total, &t, 0, 0);
                out2.store((sim_core::now() - t0).as_nanos(), Ordering::SeqCst);
            }
        }
    });
    out.load(Ordering::SeqCst) as f64 / 1e3
}

struct Row {
    window_slots: usize,
    strided_us: f64,
    contiguous_us: f64,
}

bench::impl_to_json!(Row {
    window_slots,
    strided_us,
    contiguous_us
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let total = 4 << 20;
    let rows: Vec<Row> = [1usize, 2, 3, 4, 6, 8, 12, 16]
        .into_iter()
        .map(|w| Row {
            window_slots: w,
            strided_us: measure(total, w, true),
            contiguous_us: measure(total, w, false),
        })
        .collect();

    if args.json {
        emit_json(&ExperimentRecord {
            id: "ablation_window",
            title: "Pipeline window-depth ablation at 4 MB",
            data: &rows,
        });
        return;
    }

    println!("Window-depth ablation: 4 MB device transfer, 64 KB blocks (us)\n");
    print_table(
        &["window (vbuf slots)", "strided (pack-gated)", "contiguous"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.window_slots),
                    format!("{:.0}", r.strided_us),
                    format!("{:.0}", r.contiguous_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    println!(
        "contiguous depth-1 penalty vs depth-8: {:.2}x (pipelining alone)",
        rows[0].contiguous_us / rows[5].contiguous_us
    );
    println!(
        "strided depth-1 penalty vs depth-8: {:.2}x (pack-gated: window-insensitive)",
        rows[0].strided_us / rows[5].strided_us
    );
}
