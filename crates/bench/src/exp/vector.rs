//! The two-rank vector micro-benchmarks: Figures 2 and 5 and the three
//! pipeline ablations. All but Figure 2 time the paper's strided vector
//! through [`laps`](crate::measure::laps) under the paper's static 64 KiB
//! block ([`fixed_cfg`]) and differ only in the design or the `MpiConfig`
//! field they sweep. One warm-up and one timed message would catch the
//! adaptive tuner (today's default policy) mid-probe; it has its own
//! experiment, `pipeline_bench`.

use std::sync::{Arc, Mutex};

use gpu_sim::{CostModel, Gpu};
use mpi_sim::MpiConfig;
use mv2_gpu_nc::baselines::{
    fill_vector, recv_cpy2d_blocking, recv_manual_pipeline, recv_mv2, send_cpy2d_blocking,
    send_manual_pipeline, send_mv2, verify_vector, VectorXfer,
};
use mv2_gpu_nc::schemes::{PackBench, PackScheme};
use mv2_gpu_nc::{model, GpuCluster};
use sim_core::Sim;

use crate::doc::{col, fmt_size, paper_sizes, Col, Doc, Fmt, Table};
use crate::measure::{best_us, fixed_cfg, laps, one_way, vector_laps, Msg, WARMUP};
use crate::Args;

/// Figure 2 (+ the §I-A motivating numbers): latency of the three
/// non-contiguous pack schemes, 16 B – 4 MB, 4-byte vector elements.
///
/// Paper reference points: at 4 KB — nc2nc 200 us, nc2c 281 us, D2D2H
/// 35 us; at 4 MB the offloaded scheme costs ~4.8% of nc2nc.
pub fn fig2_pack_schemes(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("bytes", "size", Fmt::Size),
        col("d2h_nc2nc_us", "D2H nc2nc", Fmt::Fixed(1)),
        col("d2h_nc2c_us", "D2H nc2c", Fmt::Fixed(1)),
        col("d2d2h_us", "D2D2H nc2c2c", Fmt::Fixed(1)),
    ];
    let table = Arc::new(Mutex::new(Table::new(COLS)));
    let sink = Arc::clone(&table);
    let sim = Sim::new();
    sim.spawn("bench", move || {
        let gpu = Gpu::tesla_c2050(0);
        for total in paper_sizes() {
            let b = PackBench::new(&gpu, total, 4, 16);
            let us = PackScheme::ALL.map(|s| {
                let us = b.run(s).as_micros_f64();
                b.verify(s);
                us
            });
            b.free();
            let mut t = sink.lock().unwrap();
            t.row(&[&total, &us[0], &us[1], &us[2]]);
        }
    });
    sim.run();
    let t = table.lock().unwrap();

    let mut doc = Doc::new();
    doc.say("Figure 2: Non-contiguous data pack performance (time in us)\n");
    doc.table("data", &t);
    let (r4k, r4m) = (t.find("bytes", 4usize << 10), t.find("bytes", 4usize << 20));
    doc.say(format!(
        "\n4KB anchors  (paper: 200 / 281 / 35 us):   {:.0} / {:.0} / {:.0} us",
        t.num(r4k, "d2h_nc2nc_us"),
        t.num(r4k, "d2h_nc2c_us"),
        t.num(r4k, "d2d2h_us")
    ));
    doc.say(format!(
        "4MB ratio D2D2H/nc2nc (paper: 4.8%):       {:.1}%",
        t.num(r4m, "d2d2h_us") / t.num(r4m, "d2h_nc2nc_us") * 100.0
    ));
    doc
}

/// The three designs of Figure 4.
#[derive(Copy, Clone)]
enum Design {
    Blocking,
    Manual,
    Mv2,
}

/// One-way latency (us) of `design` for a `total`-byte vector message; the
/// warm-up is always MV2-GPU-NC.
fn design_latency(design: Design, total: usize) -> f64 {
    let out = GpuCluster::new(2)
        .mpi_config(fixed_cfg())
        .try_run(move |env| {
            let x = VectorXfer::paper(total);
            let block = env.comm.config().chunk_size.min(total.next_power_of_two());
            let block = block.max(x.elem);
            let dev = env.gpu.malloc(x.extent());
            let sender = env.comm.rank() == 0;
            if sender {
                fill_vector(&env.gpu, dev, &x, 11);
            }
            let mv2 = |tag| match sender {
                true => send_mv2(&env.comm, dev, x, 1, tag),
                false => recv_mv2(&env.comm, dev, x, 0, tag),
            };
            let ns = laps(&env.comm, 1, |tag| match (design, sender) {
                (Design::Mv2, _) => mv2(tag),
                _ if tag == WARMUP => mv2(tag),
                (Design::Blocking, true) => send_cpy2d_blocking(env, dev, x, 1, tag),
                (Design::Blocking, false) => recv_cpy2d_blocking(env, dev, x, 0, tag),
                (Design::Manual, true) => send_manual_pipeline(env, dev, x, 1, 1, block),
                (Design::Manual, false) => recv_manual_pipeline(env, dev, x, 0, 1, block),
            });
            if !sender {
                verify_vector(&env.gpu, dev, &x, 11);
            }
            ns
        });
    best_us(&out.unwrap().1[1])
}

/// Figure 5: GPU-to-GPU vector transfer latency for the three designs of
/// Figure 4 — "Cpy2D+Send" (blocking), "Cpy2DAsync+CpyAsync+Isend"
/// (hand-pipelined) and "MV2-GPU-NC" — 16 B to 4 MB, 4-byte elements.
///
/// Paper headline: MV2-GPU-NC improves latency by up to 88% over
/// Cpy2D+Send at 4 MB, and tracks the hand-pipelined design closely.
pub fn fig5_vector_latency(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("bytes", "size", Fmt::Size),
        col("cpy2d_send_us", "Cpy2D+Send", Fmt::Fixed(1)),
        col(
            "manual_pipeline_us",
            "Cpy2DAsync+CpyAsync+Isend",
            Fmt::Fixed(1),
        ),
        col("mv2_gpu_nc_us", "MV2-GPU-NC", Fmt::Fixed(1)),
    ];
    let mut t = Table::new(COLS);
    for total in paper_sizes() {
        let us = [Design::Blocking, Design::Manual, Design::Mv2].map(|d| design_latency(d, total));
        t.row(&[&total, &us[0], &us[1], &us[2]]);
    }
    let mut doc = Doc::new();
    doc.say("Figure 5: GPU-to-GPU vector latency (one-way, us)\n");
    doc.table("data", &t);
    let r4m = t.find("bytes", 4usize << 20);
    let mv2 = t.num(r4m, "mv2_gpu_nc_us");
    doc.say(format!(
        "\nImprovement over Cpy2D+Send at 4MB (paper: 88%): {:.1}%",
        (1.0 - mv2 / t.num(r4m, "cpy2d_send_us")) * 100.0
    ));
    doc.say(format!(
        "MV2-GPU-NC vs hand-pipelined at 4MB (paper: similar): {:.2}x",
        mv2 / t.num(r4m, "manual_pipeline_us")
    ));
    doc
}

/// One timed vector message (us) on a two-rank cluster under `cfg`.
fn vector_us(cfg: MpiConfig, total: usize) -> f64 {
    vector_laps(GpuCluster::new(2).mpi_config(cfg), total, 1)[0] as f64 / 1e3
}

/// One timed contiguous `total`-byte message (us) under `cfg`, between
/// device buffers or host buffers.
fn contiguous_us(cfg: MpiConfig, total: usize, on_device: bool) -> f64 {
    let out = GpuCluster::new(2).mpi_config(cfg).try_run(move |env| {
        let m = Msg::new(env, on_device, false, total);
        laps(&env.comm, 1, |tag| {
            one_way(&env.comm, m.loc.clone(), m.count, &m.dtype, tag)
        })
    });
    best_us(&out.unwrap().1[1])
}

/// §IV-B ablation: pipeline block size (`MV2_CUDA_BLOCK_SIZE`). Sweeps the
/// block size for a 4 MB vector transfer and compares the measured
/// end-to-end latency against the paper's analytic model
/// `(n+2) * T_d2d_nc2c(N/n)`.
///
/// Paper claim: 64 KB is the optimal block size on the calibrated testbed.
pub fn ablation_block_size(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("block_bytes", "block", Fmt::Size),
        col("measured_us", "measured", Fmt::Fixed(0)),
        col("model_us", "model (n+2)*T(N/n)", Fmt::Fixed(0)),
    ];
    let total = 4 << 20;
    let cost = CostModel::tesla_c2050();
    let mut t = Table::new(COLS);
    let mut best = (0, f64::INFINITY);
    for block in (12..=20).map(|p| 1usize << p) {
        let cfg = MpiConfig {
            chunk_size: block,
            ..fixed_cfg()
        };
        let measured = vector_us(cfg, total);
        let model = model::pipeline_latency_model(&cost, total, block, 4).as_micros_f64();
        t.row(&[&block, &measured, &model]);
        if measured < best.1 {
            best = (block, measured);
        }
    }
    let mut doc = Doc::new();
    doc.say("Block-size ablation: 4 MB vector transfer (us)\n");
    doc.table("data", &t);
    doc.say(format!(
        "\nmeasured optimum: {} (paper: 64K)",
        fmt_size(best.0)
    ));
    doc
}

/// Ablation: eager/rendezvous threshold for device messages.
///
/// Small GPU messages take a staged eager path (pack + D2H + eager send);
/// larger ones pay the RTS/CTS handshake but gain the chunked pipeline.
/// This sweep locates the crossover and shows the threshold (a library
/// tunable, like MVAPICH2's `MV2_IBA_EAGER_THRESHOLD`) is set sanely.
pub fn ablation_eager_limit(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("bytes", "size", Fmt::Size),
        col("eager_us", "dev eager", Fmt::Fixed(1)),
        col("rendezvous_us", "dev rndv", Fmt::Fixed(1)),
        col("host_eager_us", "host eager", Fmt::Fixed(1)),
        col("host_rendezvous_us", "host rndv (zero-copy)", Fmt::Fixed(1)),
    ];
    // Force each path by setting the threshold above / below the size (the
    // shm eager limit, 32 KiB, caps the wire's).
    let limit = |eager_limit| MpiConfig {
        eager_limit,
        ..fixed_cfg()
    };
    let (eager, rndv) = (32 << 10, 1);
    let mut t = Table::new(COLS);
    let mut host_cross = None;
    for bytes in (4..=14).map(|p| 1usize << p) {
        let host = [eager, rndv].map(|l| contiguous_us(limit(l), bytes, false));
        t.row(&[
            &bytes,
            &vector_us(limit(eager), bytes),
            &vector_us(limit(rndv), bytes),
            &host[0],
            &host[1],
        ]);
        if host[1] < host[0] {
            host_cross.get_or_insert(bytes);
        }
    }
    let mut doc = Doc::new();
    doc.say("Eager vs rendezvous (us): strided device and contiguous host\n");
    doc.table("data", &t);
    doc.say(format!(
        "\nhost zero-copy rendezvous wins from: {} (default threshold: 8K)",
        host_cross.map_or("beyond sweep".into(), fmt_size)
    ));
    doc.say(
        "device messages: both paths stage through the GPU pipeline, so the \
         handshake is pure overhead — the threshold only bounds unexpected-\
         message buffering, as in MVAPICH2's larger GPU eager threshold",
    );
    doc
}

/// Ablation: pipeline window depth (vbuf slots granted per CTS).
///
/// Two regimes, both measured here:
///
/// * **Strided (vector) messages** — the GPU pack stage (~150 µs per 64 KB
///   chunk) is slower than a chunk's whole post-pack journey (~110 µs of
///   D2H + RDMA + H2D + credit), so even a single slot never stalls: the
///   paper's pipeline is *pack-gated*, and the window size is irrelevant.
/// * **Contiguous device messages** — there is no pack stage, so with one
///   slot every chunk serializes D2H → RDMA → H2D → credit; the window is
///   precisely what lets the three engines stream. This is the paper's
///   "8x1 grid benefits from pipelining alone" case.
pub fn ablation_window(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("window_slots", "window (vbuf slots)", Fmt::Plain),
        col("strided_us", "strided (pack-gated)", Fmt::Fixed(0)),
        col("contiguous_us", "contiguous", Fmt::Fixed(0)),
    ];
    let total = 4 << 20;
    let mut t = Table::new(COLS);
    for window_slots in [1usize, 2, 3, 4, 6, 8, 12, 16] {
        let cfg = MpiConfig {
            window_slots,
            ..fixed_cfg()
        };
        let strided = vector_us(cfg.clone(), total);
        t.row(&[&window_slots, &strided, &contiguous_us(cfg, total, true)]);
    }
    let mut doc = Doc::new();
    doc.say("Window-depth ablation: 4 MB device transfer, 64 KB blocks (us)\n");
    doc.table("data", &t);
    let (w1, w8) = (0, t.find("window_slots", 8usize));
    doc.say(format!(
        "\ncontiguous depth-1 penalty vs depth-8: {:.2}x (pipelining alone)",
        t.num(w1, "contiguous_us") / t.num(w8, "contiguous_us")
    ));
    doc.say(format!(
        "strided depth-1 penalty vs depth-8: {:.2}x (pack-gated: window-insensitive)",
        t.num(w1, "strided_us") / t.num(w8, "strided_us")
    ));
    doc
}
