//! Pipeline regression benchmark: the committed-plan cache and the
//! adaptive chunk autotuner against the paper's static pipeline.
//!
//! For every Figure 5 vector size it measures the staged MV2-GPU-NC
//! transfer under `ChunkPolicy::Fixed` (the paper's 64 KiB block) and
//! `ChunkPolicy::Adaptive`, reporting simulated one-way latency (best and
//! settled iteration) plus host wall-clock, and the process-wide plan-cache
//! counters for a halo3d run. It fails loudly if Adaptive regresses more
//! than 10% behind Fixed on any staged size, or if the halo3d plan-cache
//! hit rate drops below 90% — so a CI smoke run guards both optimizations.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin pipeline_bench > results/BENCH_pipeline.json`
//! (the binary also writes the file itself; `--out PATH` overrides,
//! `--iters N` sets the per-size iteration count).

use std::sync::Arc;
use std::time::Instant;

use bench::{paper_sizes, print_table, HarnessArgs, Json, ToJson};
use halo3d::{run_halo3d, Halo3dParams, Variant};
use mpi_sim::{ChunkPolicy, MpiConfig};
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::GpuCluster;
use sim_core::lock::Mutex;

/// Latencies (virtual ns per iteration) of `iters` back-to-back transfers
/// of one vector message, plus the host wall-clock of the whole run.
fn measure(cfg: MpiConfig, total: usize, iters: u32) -> (Vec<u64>, f64) {
    let lat: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lat);
    let wall = Instant::now();
    GpuCluster::new(2).mpi_config(cfg).run(move |env| {
        let x = VectorXfer::paper(total);
        let dt = x.dtype();
        let dev = env.gpu.malloc(x.extent());
        // Untimed warm-up: populates staging pools on both sides (and gives
        // the adaptive tuner its first observation).
        if env.comm.rank() == 0 {
            fill_vector(&env.gpu, dev, &x, 11);
            env.comm.send(dev, 1, &dt, 1, 99_999);
        } else {
            env.comm.recv(dev, 1, &dt, 0, 99_999);
        }
        for it in 0..iters {
            env.comm.barrier();
            let t0 = sim_core::now();
            if env.comm.rank() == 0 {
                env.comm.send(dev, 1, &dt, 1, it);
            } else {
                env.comm.recv(dev, 1, &dt, 0, it);
                sink.lock().push((sim_core::now() - t0).as_nanos());
            }
        }
        if env.comm.rank() == 1 {
            verify_vector(&env.gpu, dev, &x, 11);
        }
        env.gpu.free(dev);
    });
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let v = Arc::try_unwrap(lat)
        .map(|m| m.into_inner())
        .unwrap_or_else(|a| a.lock().clone());
    (v, wall_ms)
}

struct Row {
    bytes: usize,
    staged: bool,
    fixed_best_us: f64,
    adaptive_best_us: f64,
    adaptive_settled_us: f64,
    fixed_wall_ms: f64,
    adaptive_wall_ms: f64,
}

bench::impl_to_json!(Row {
    bytes,
    staged,
    fixed_best_us,
    adaptive_best_us,
    adaptive_settled_us,
    fixed_wall_ms,
    adaptive_wall_ms
});

fn main() {
    let args = HarnessArgs::parse(&["out"]);
    let iters = args.iters as u32;
    let fixed_cfg = MpiConfig {
        policy: ChunkPolicy::Fixed,
        ..MpiConfig::default()
    };
    let adaptive_cfg = MpiConfig::default(); // adaptive is the default policy

    let rows: Vec<Row> = paper_sizes()
        .into_iter()
        .map(|total| {
            let (f, f_wall) = measure(fixed_cfg.clone(), total, iters);
            let (a, a_wall) = measure(adaptive_cfg.clone(), total, iters);
            Row {
                bytes: total,
                staged: total > fixed_cfg.eager_limit,
                fixed_best_us: *f.iter().min().unwrap() as f64 / 1e3,
                adaptive_best_us: *a.iter().min().unwrap() as f64 / 1e3,
                adaptive_settled_us: *a.last().unwrap() as f64 / 1e3,
                fixed_wall_ms: f_wall,
                adaptive_wall_ms: a_wall,
            }
        })
        .collect();

    // Plan-cache effectiveness on a datatype-heavy application.
    let g = sim_core::instrument::global();
    let base = g.snapshot();
    run_halo3d::<f32>(
        Halo3dParams {
            grid: (1, 2, 2),
            local: (6, 8, 8),
            iters: 16,
        },
        Variant::Mv2,
        false,
    );
    let d = g.delta(&base);
    let hits = d.get("plan_cache_hit").copied().unwrap_or(0);
    let misses = d.get("plan_cache_miss").copied().unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

    // Regression guards (run from scripts/ci.sh). The adaptive tuner needs
    // a few iterations to finish probing neighbor rungs and revisit its
    // best block size, so the guard requires at least 4 per size.
    assert!(iters >= 4, "--iters must be at least 4 for the guards");
    for r in rows.iter().filter(|r| r.staged) {
        assert!(
            r.adaptive_best_us <= r.fixed_best_us * 1.10,
            "adaptive policy regressed at {} bytes: {:.1} us vs fixed {:.1} us",
            r.bytes,
            r.adaptive_best_us,
            r.fixed_best_us
        );
    }
    assert!(
        hit_rate >= 0.9,
        "halo3d plan-cache hit rate {hit_rate:.3} below 90% ({hits} hits, {misses} misses)"
    );

    let doc = Json::Obj(vec![
        ("id".to_string(), "pipeline".to_json()),
        (
            "title".to_string(),
            "Plan cache + adaptive pipeline vs fixed block".to_json(),
        ),
        ("iters_per_size".to_string(), (iters as usize).to_json()),
        (
            "plan_cache".to_string(),
            Json::Obj(vec![
                ("workload".to_string(), "halo3d 1x2x2, 16 iters".to_json()),
                ("hits".to_string(), hits.to_json()),
                ("misses".to_string(), misses.to_json()),
                (
                    "evictions".to_string(),
                    d.get("plan_cache_evict").copied().unwrap_or(0).to_json(),
                ),
                ("hit_rate".to_string(), hit_rate.to_json()),
            ]),
        ),
        ("data".to_string(), rows.to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_pipeline.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
    } else {
        println!("Pipeline: Fixed vs Adaptive ({iters} iters/size)\n");
        print_table(
            &[
                "bytes",
                "path",
                "fixed best (us)",
                "adaptive best (us)",
                "adaptive settled (us)",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        bench::fmt_size(r.bytes),
                        if r.staged { "staged" } else { "eager" }.to_string(),
                        format!("{:.1}", r.fixed_best_us),
                        format!("{:.1}", r.adaptive_best_us),
                        format!("{:.1}", r.adaptive_settled_us),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "\nhalo3d plan cache: {hits} hits, {misses} misses, hit rate {:.1}%",
            hit_rate * 100.0
        );
        println!("wrote {out_path}");
    }
}
