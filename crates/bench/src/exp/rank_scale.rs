//! Rank-count scaling sweep for the event-driven kernel: halo3d at
//! 8/64/256/1024 ranks, reporting virtual completion time, host
//! wall-clock per simulated rank and the peak OS thread count of the
//! process.
//!
//! Under [`ExecMode::Event`] every rank is a fiber on the single kernel
//! thread, so the thread count stays flat from 8 to 1024 ranks while the
//! legacy all-threads mode would need one OS thread per rank. Two guards
//! run on every full sweep:
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use halo3d::{run_halo3d_on, Halo3dOutcome, Halo3dParams, Variant};
use mv2_gpu_nc::{GpuCluster, WakeTraceSink};
use sim_core::ExecMode;

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::Args;

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

/// One MV2 halo3d run on the chosen carrier, optionally wake-traced.
fn run_halo(p: Halo3dParams, mode: ExecMode, sink: Option<WakeTraceSink>) -> Halo3dOutcome {
    let mut cluster = GpuCluster::new(p.nranks()).exec(mode);
    if let Some(s) = sink {
        cluster = cluster.wake_trace(s);
    }
    run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false).0
}

/// Carrier cross-check: Event and Threads must produce identical wake
/// traces, virtual times and checksums.
fn carrier_cross_check() -> Doc {
    let p = Halo3dParams {
        grid: (2, 2, 2),
        local: (8, 8, 8),
        iters: 2,
    };
    let event_sink: WakeTraceSink = Arc::default();
    let thread_sink: WakeTraceSink = Arc::default();
    let event = run_halo(p, ExecMode::Event, Some(Arc::clone(&event_sink)));
    let thread = run_halo(p, ExecMode::Threads, Some(Arc::clone(&thread_sink)));

    assert_eq!(
        event.wall, thread.wall,
        "virtual wall diverged across carriers"
    );
    assert_eq!(
        event.checksum(),
        thread.checksum(),
        "checksum diverged across carriers"
    );
    let ev = event_sink.lock().unwrap();
    let th = thread_sink.lock().unwrap();
    assert!(!ev.is_empty(), "event run recorded no wake trace");
    assert_eq!(ev.len(), th.len(), "wake trace lengths diverged");
    for (i, (a, b)) in ev.iter().zip(th.iter()).enumerate() {
        assert_eq!(a, b, "wake trace diverged at grant {i}: {a:?} vs {b:?}");
    }
    let mut doc = Doc::new();
    doc.field("smoke", true).field("grants", ev.len());
    doc.say(format!(
        "rank_scale_sweep smoke OK: {} grants bit-identical across carriers \
         (virtual wall {:.3} ms)",
        ev.len(),
        event.wall.as_millis_f64()
    ));
    doc
}

pub fn rank_scale_sweep(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("ranks", "ranks", Fmt::Plain),
        col("grid", "grid", Fmt::Plain),
        col("virt_ms", "virtual (ms)", Fmt::Fixed(2)),
        col("wall_s", "wall (s)", Fmt::Fixed(2)),
        col("wall_ms_per_rank", "wall/rank (ms)", Fmt::Fixed(2)),
        col("peak_threads", "peak threads", Fmt::Plain),
    ];
    if args.smoke {
        return carrier_cross_check();
    }

    // Constant per-rank work: the local block stays fixed while the grid
    // grows, so per-rank wall-clock should be roughly flat if the kernel
    // scales.
    let local = (16, 16, 16);
    let mut t = Table::new(COLS);
    // Per-rank wall-clock of the 8-rank point. At tiny scale it is
    // dominated by fixed setup cost, so the 64-rank guard uses a floor
    // alongside the relative bound.
    let mut per_rank_8 = None;
    for grid in [(2, 2, 2), (4, 4, 4), (8, 8, 4), (16, 8, 8)] {
        let p = Halo3dParams {
            grid,
            local,
            iters: 2,
        };
        let n = p.nranks();
        if n > args.max_ranks {
            continue;
        }
        let gauge = ThreadGauge::start();
        let wall = Instant::now();
        let virt_ms = run_halo(p, args.exec, None).wall.as_millis_f64();
        let wall_s = wall.elapsed().as_secs_f64();
        let peak_threads = gauge.finish();
        let per_rank = wall_s * 1e3 / n as f64;
        match (n, per_rank_8) {
            (8, _) => per_rank_8 = Some(per_rank),
            (64, Some(p8)) => assert!(
                per_rank <= (p8 * 4.0).max(25.0),
                "64-rank regression: {per_rank:.2} ms/rank vs {p8:.2} ms/rank at 8 ranks"
            ),
            _ => {}
        }
        assert!(
            peak_threads <= 32,
            "thread budget not bounded: {peak_threads} OS threads at {n} ranks"
        );
        let grid = format!("{}x{}x{}", grid.0, grid.1, grid.2);
        t.row(&[&n, &grid, &virt_ms, &wall_s, &per_rank, &peak_threads]);
    }

    let mut doc = Doc::new();
    doc.field("exec", format!("{:?}", args.exec).to_lowercase())
        .field(
            "local_block",
            format!("{}x{}x{}", local.0, local.1, local.2),
        );
    doc.say(format!(
        "halo3d scaling, MV2 variant, {}x{}x{} cells/rank, 2 iters\n",
        local.0, local.1, local.2
    ));
    doc.table("data", &t);
    doc
}
