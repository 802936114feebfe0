//! Rank-count scaling sweep for the event-driven kernel: halo3d at
//! 8/64/256/1024 ranks, reporting virtual completion time, host
//! wall-clock per simulated rank and the peak OS thread count of the
//! process.
//!
//! Under [`ExecMode::Event`] every rank is a fiber on the single kernel
//! thread, so the thread count stays flat from 8 to 1024 ranks while the
//! legacy all-threads mode would need one OS thread per rank. Two guards
//! run on every full sweep (and from `scripts/ci.sh` via `--smoke`):
//!
//! * the 64-rank point must not regress: its wall-clock per rank must stay
//!   within a small factor of the 8-rank point (the sweep is roughly
//!   constant work per rank, so per-rank cost should be flat), and
//! * the peak thread count must stay bounded independent of rank count.
//!
//! `--smoke` instead runs the carrier cross-check: the same 8-rank halo3d
//! job under `ExecMode::Event` and `ExecMode::Threads` with the kernel's
//! wake-trace recorder armed, asserting the two scheduling-grant traces —
//! every `(seq, virtual time, pid)` the run queue ever granted — are
//! identical, along with the virtual completion times and checksums.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin rank_scale_sweep`
//! (writes `results/BENCH_rank_scale.json`; `--out PATH` overrides).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::{print_table, HarnessArgs, Json, ToJson};
use halo3d::{Halo3dParams, Halo3dRank, Variant};
use mv2_gpu_nc::{GpuCluster, WakeTraceSink};
use sim_core::lock::Mutex;
use sim_core::{ExecMode, SimDur};

/// Current OS thread count of this process (`Threads:` in
/// `/proc/self/status`); 0 where procfs is unavailable.
fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Samples the process thread count every couple of milliseconds on its
/// own thread (which is itself part of the count it reports).
struct ThreadGauge {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl ThreadGauge {
    fn start() -> ThreadGauge {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("thread-gauge".into())
            .spawn(move || {
                let mut peak = os_threads();
                while !flag.load(Ordering::Relaxed) {
                    peak = peak.max(os_threads());
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                peak.max(os_threads())
            })
            .expect("spawn gauge");
        ThreadGauge { stop, handle }
    }

    fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("gauge thread")
    }
}

/// One halo3d run: returns (virtual wall = slowest rank's barrier-to-
/// barrier time, global checksum).
fn run_halo(p: Halo3dParams, mode: ExecMode, sink: Option<WakeTraceSink>) -> (SimDur, f64) {
    let out: Arc<Mutex<Vec<(SimDur, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let per_rank = Arc::clone(&out);
    let mut cluster = GpuCluster::new(p.nranks()).exec(mode);
    if let Some(s) = sink {
        cluster = cluster.wake_trace(s);
    }
    cluster.run(move |env| {
        let mut rk = Halo3dRank::<f32>::new(env, p);
        env.comm.barrier();
        let t0 = sim_core::now();
        for _ in 0..p.iters {
            rk.step(Variant::Mv2);
        }
        env.comm.barrier();
        let elapsed = sim_core::now() - t0;
        let checksum: f64 = rk.interior().iter().map(|v| f64::from(*v)).sum();
        per_rank.lock().push((elapsed, checksum));
        rk.free();
    });
    let v = out.lock();
    let wall = v.iter().map(|r| r.0).max().expect("at least one rank");
    let checksum = v.iter().map(|r| r.1).sum();
    (wall, checksum)
}

struct Row {
    ranks: usize,
    grid: String,
    virt_ms: f64,
    wall_s: f64,
    wall_ms_per_rank: f64,
    peak_threads: usize,
}

bench::impl_to_json!(Row {
    ranks,
    grid,
    virt_ms,
    wall_s,
    wall_ms_per_rank,
    peak_threads,
});

/// Carrier cross-check (run by `scripts/ci.sh`): Event and Threads must
/// produce identical wake traces, virtual times and checksums.
fn smoke() {
    let p = Halo3dParams {
        grid: (2, 2, 2),
        local: (8, 8, 8),
        iters: 2,
    };
    let event_sink: WakeTraceSink = Arc::default();
    let thread_sink: WakeTraceSink = Arc::default();
    let (event_wall, event_sum) = run_halo(p, ExecMode::Event, Some(Arc::clone(&event_sink)));
    let (thread_wall, thread_sum) = run_halo(p, ExecMode::Threads, Some(Arc::clone(&thread_sink)));

    assert_eq!(
        event_wall, thread_wall,
        "virtual wall diverged across carriers"
    );
    assert_eq!(event_sum, thread_sum, "checksum diverged across carriers");
    let ev = event_sink.lock().unwrap();
    let th = thread_sink.lock().unwrap();
    assert!(!ev.is_empty(), "event run recorded no wake trace");
    assert_eq!(ev.len(), th.len(), "wake trace lengths diverged");
    for (i, (a, b)) in ev.iter().zip(th.iter()).enumerate() {
        assert_eq!(a, b, "wake trace diverged at grant {i}: {a:?} vs {b:?}");
    }
    println!(
        "rank_scale_sweep smoke OK: {} grants bit-identical across carriers \
         (virtual wall {:.3} ms)",
        ev.len(),
        event_wall.as_millis_f64()
    );
}

fn main() {
    let args = HarnessArgs::parse(&["smoke", "exec", "max-ranks", "out"]);
    if args.extra.get("smoke").is_some_and(|v| v != "false") {
        smoke();
        return;
    }

    // Constant per-rank work: the local block stays fixed while the grid
    // grows, so per-rank wall-clock should be roughly flat if the kernel
    // scales.
    let local = (16, 16, 16);
    let mode = match args.extra.get("exec").map(String::as_str) {
        Some("threads") => ExecMode::Threads,
        _ => ExecMode::Event,
    };
    let max_ranks: usize = args
        .extra
        .get("max-ranks")
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let points: [(usize, usize, usize); 4] = [(2, 2, 2), (4, 4, 4), (8, 8, 4), (16, 8, 8)];
    let rows: Vec<Row> = points
        .into_iter()
        .filter(|g| g.0 * g.1 * g.2 <= max_ranks)
        .map(|grid| {
            let p = Halo3dParams {
                grid,
                local,
                iters: 2,
            };
            let gauge = ThreadGauge::start();
            let wall = Instant::now();
            let (virt, _) = run_halo(p, mode, None);
            let wall_s = wall.elapsed().as_secs_f64();
            let peak_threads = gauge.finish();
            let n = p.nranks();
            println!(
                "  {}x{}x{} ({n} ranks): virt {:.2} ms, wall {:.2} s, peak {} threads",
                grid.0,
                grid.1,
                grid.2,
                virt.as_millis_f64(),
                wall_s,
                peak_threads
            );
            Row {
                ranks: n,
                grid: format!("{}x{}x{}", grid.0, grid.1, grid.2),
                virt_ms: virt.as_millis_f64(),
                wall_s,
                wall_ms_per_rank: wall_s * 1e3 / n as f64,
                peak_threads,
            }
        })
        .collect();

    // Regression guards. Per-rank wall-clock at tiny scale is dominated by
    // fixed setup cost, so the 64-rank guard uses a floor alongside the
    // relative bound.
    let per_rank = |n: usize| {
        rows.iter()
            .find(|r| r.ranks == n)
            .map(|r| r.wall_ms_per_rank)
    };
    if let (Some(p8), Some(p64)) = (per_rank(8), per_rank(64)) {
        assert!(
            p64 <= (p8 * 4.0).max(25.0),
            "64-rank regression: {p64:.2} ms/rank vs {p8:.2} ms/rank at 8 ranks"
        );
    }
    for r in &rows {
        assert!(
            r.peak_threads <= 32,
            "thread budget not bounded: {} OS threads at {} ranks",
            r.peak_threads,
            r.ranks
        );
    }

    let doc = Json::Obj(vec![
        ("id".to_string(), "rank_scale".to_json()),
        (
            "title".to_string(),
            "halo3d rank-count scaling under the event-driven kernel".to_json(),
        ),
        ("exec".to_string(), "event".to_json()),
        (
            "local_block".to_string(),
            format!("{}x{}x{}", local.0, local.1, local.2).to_json(),
        ),
        ("data".to_string(), rows.to_json()),
    ]);
    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_rank_scale.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    println!(
        "\nhalo3d scaling, MV2 variant, {}x{}x{} cells/rank, 2 iters\n",
        local.0, local.1, local.2
    );
    print_table(
        &[
            "ranks",
            "grid",
            "virtual (ms)",
            "wall (s)",
            "wall/rank (ms)",
            "peak threads",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.ranks.to_string(),
                    r.grid.clone(),
                    format!("{:.2}", r.virt_ms),
                    format!("{:.2}", r.wall_s),
                    format!("{:.2}", r.wall_ms_per_rank),
                    r.peak_threads.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
