//! What every workload shares: the per-world stopwatch that splits a rep
//! into set-up, the timed segment and verification, the per-operation
//! record, and the rep result.
//!
//! A world is driven by one OS thread (`ExecMode::Event`), so host stamps
//! taken inside rank bodies are ordered: the *first* rank out of the start
//! barrier ends set-up and starts the segment, the *last* rank out of the
//! end barrier ends it. A third barrier keeps every rank's verification
//! behind the last end stamp, so `wall_s` never includes output checks.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gpu_nc_repro::mpi_sim::Comm;
use gpu_nc_repro::mv2_gpu_nc::{GpuCluster, WakeTraceSink};
use gpu_nc_repro::sim_core::{self, ExecMode};
use gpu_nc_repro::sim_trace::Recorder;

/// Ring capacity of a traced world's recorder: large enough that the
/// 1024-rank segment drops nothing (the ring grows lazily).
const TRACE_CAP: usize = 1 << 23;

/// Inputs of one rep.
#[derive(Clone, Copy, Debug)]
pub struct RepCfg {
    /// Drives message order, payload bytes, the irregular layout's block
    /// order, the fault schedule and the sub-microsecond arrival skew.
    pub seed: u64,
    /// Reduced counts (`--smoke`).
    pub smoke: bool,
    /// The traced rep: an enabled recorder and the wake-trace sink on every
    /// timed world. Timed reps run with `Recorder::off()`.
    pub traced: bool,
}

impl RepCfg {
    /// Prepare a timed world of this rep: pin the fiber carrier and attach
    /// the recorder (off on timed reps) and, on the traced rep, the
    /// wake-trace sink. One recorder per world: a recorder's metrics
    /// registry refuses two worlds' `rank0`.
    pub fn tap(&self, cluster: GpuCluster) -> (GpuCluster, Tap) {
        let rec = recorder_for(self);
        let sink = self.traced.then(WakeTraceSink::default);
        let mut cluster = cluster.exec(ExecMode::Event).recorder(rec.clone());
        if let Some(s) = &sink {
            cluster = cluster.wake_trace(Arc::clone(s));
        }
        (
            cluster,
            Tap {
                rec: self.traced.then_some(rec),
                sink,
            },
        )
    }
}

/// What [`RepCfg::tap`] attached to a world.
pub struct Tap {
    rec: Option<Recorder>,
    sink: Option<WakeTraceSink>,
}

impl Tap {
    /// After the world returned: what the traced rep keeps of it (nothing on
    /// a timed rep).
    pub fn into_trace(self, window: (u64, u64)) -> Option<WorldTrace> {
        self.rec.map(|rec| WorldTrace::new(rec, self.sink, window))
    }
}

/// The enabled recorder for a traced world that takes only a recorder
/// (`cluster_sim::run_mix`), `Recorder::off()` otherwise.
pub fn recorder_for(cfg: &RepCfg) -> Recorder {
    if cfg.traced {
        Recorder::with_capacity(TRACE_CAP)
    } else {
        Recorder::off()
    }
}

/// What the traced rep keeps of one world for the per-layer numbers.
#[derive(Clone)]
pub struct WorldTrace {
    pub rec: Recorder,
    /// Scheduling grants inside the segment window; `None` where the world
    /// has no wake-trace hook (`cluster_sim::run_mix`).
    pub grants: Option<u64>,
    /// The segment's virtual window in this world's own time base.
    pub window: (u64, u64),
}

impl WorldTrace {
    /// Keep `rec` and count the grants `sink` saw inside `window`.
    pub fn new(rec: Recorder, sink: Option<WakeTraceSink>, window: (u64, u64)) -> Self {
        let grants = sink.map(|s| {
            let g = s.lock().unwrap_or_else(|e| e.into_inner());
            g.iter()
                .filter(|w| (window.0..=window.1).contains(&w.at.as_nanos()))
                .count() as u64
        });
        WorldTrace {
            rec,
            grants,
            window,
        }
    }
}

/// The message of a caught panic.
pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast::<String>()
        .map(|s| *s)
        .or_else(|p| p.downcast::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_else(|_| "panic with a non-string payload".to_string())
}

/// One operation as the workload defines it (virtual ns since world start).
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub rank: u32,
    pub start: u64,
    pub end: u64,
    pub ok: bool,
}

#[derive(Default)]
struct Marks {
    launched: Option<Instant>,
    seg_start: Option<Instant>,
    seg_end: Option<Instant>,
    verified: Option<Instant>,
    virt_start: Option<u64>,
    virt_end: u64,
    virt_ns: u64,
    excluded: Duration,
    ops: Vec<Op>,
}

/// Splits one world's life into phases on the host clock and collects its
/// virtual-clock results. Cloned into every rank body.
#[derive(Clone)]
pub struct Stopwatch {
    created: Instant,
    marks: Arc<Mutex<Marks>>,
}

/// Host/virtual timing of one finished world.
#[derive(Clone, Debug, Default)]
pub struct WorldTiming {
    /// World construction to the first rank leaving the start barrier.
    pub setup_s: f64,
    /// The part of `setup_s` before the world was launched (inputs built).
    pub build_s: f64,
    /// First rank out of the start barrier to the last out of the end one,
    /// less `untimed_s`.
    pub wall_s: f64,
    /// Benchmark-side work inside the segment, kept out of `wall_s`.
    pub untimed_s: f64,
    /// End of the segment to the last rank finishing its output check.
    pub verify_s: f64,
    /// Everything after that until the world returned.
    pub teardown_s: f64,
    /// Slowest rank's barrier-to-barrier virtual time.
    pub virt_ns: u64,
    /// Virtual window of the segment (absolute ns since world start).
    pub window: (u64, u64),
    pub ops: Vec<Op>,
}

impl Stopwatch {
    /// Start the clock: call immediately before constructing the world.
    pub fn new() -> Self {
        Stopwatch {
            created: Instant::now(),
            marks: Arc::default(),
        }
    }

    /// Stamp the end of input building: call right before launching the
    /// world.
    pub fn launch(&self) {
        self.lock().launched = Some(Instant::now());
    }

    fn lock(&self) -> MutexGuard<'_, Marks> {
        // A rank that panicked while holding the lock left plain data that
        // is valid at every step; the rep is reported failed elsewhere.
        self.marks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `body` as this rank's share of the timed segment, between two
    /// barriers, and hold the rank at a third until every rank is stamped.
    pub fn segment(&self, comm: &Comm, body: impl FnOnce()) {
        comm.barrier();
        let t0 = sim_core::now().as_nanos();
        {
            let mut m = self.lock();
            m.seg_start.get_or_insert_with(Instant::now);
            m.virt_start = Some(m.virt_start.map_or(t0, |s| s.min(t0)));
        }
        body();
        comm.barrier();
        let t1 = sim_core::now().as_nanos();
        {
            let mut m = self.lock();
            m.seg_end = Some(Instant::now());
            m.virt_end = m.virt_end.max(t1);
            m.virt_ns = m.virt_ns.max(t1 - t0);
        }
        comm.barrier();
    }

    /// Run benchmark-side work (payload fill, per-message byte check) that
    /// has to happen inside the segment, and keep its host time out of
    /// `wall_s`. `f` must not call into the simulation: another fiber
    /// running in between would be excluded with it.
    pub fn untimed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.lock().excluded += t.elapsed();
        out
    }

    /// Record one operation of the segment.
    pub fn op(&self, rank: usize, start: u64, end: u64, ok: bool) {
        self.lock().ops.push(Op {
            rank: rank as u32,
            start,
            end,
            ok,
        });
    }

    /// Stamp the end of this rank's output check.
    pub fn verified(&self) {
        self.lock().verified = Some(Instant::now());
    }

    /// Close the books once the world has returned.
    pub fn finish(&self) -> WorldTiming {
        let done = Instant::now();
        let mut m = self.lock();
        let seg_start = m.seg_start.unwrap_or(done);
        let seg_end = m.seg_end.unwrap_or(seg_start).max(seg_start);
        let verified = m.verified.unwrap_or(seg_end).max(seg_end);
        let mut ops = std::mem::take(&mut m.ops);
        ops.sort_by_key(|o| (o.end, o.rank, o.start));
        let launched = m.launched.unwrap_or(self.created).min(seg_start);
        WorldTiming {
            setup_s: (seg_start - self.created).as_secs_f64(),
            build_s: (launched - self.created).as_secs_f64(),
            wall_s: (seg_end - seg_start)
                .saturating_sub(m.excluded)
                .as_secs_f64(),
            untimed_s: m.excluded.as_secs_f64(),
            verify_s: (verified - seg_end).as_secs_f64(),
            teardown_s: (done - verified).as_secs_f64(),
            virt_ns: m.virt_ns,
            window: (m.virt_start.unwrap_or(0), m.virt_end),
            ops,
        }
    }
}

/// The result of one rep of one workload.
#[derive(Clone, Default)]
pub struct Rep {
    pub timing: WorldTiming,
    /// Operations the segment was to perform.
    pub attempted: u64,
    /// Of those: returned an error, panicked, never ran because the world
    /// died first, or failed the byte/value check.
    pub failed: u64,
    /// First panic or error message, if any.
    pub error: Option<String>,
    /// How far the open-loop generator ran behind schedule, ns (measured on
    /// `jobmix_1024`; the other workloads are closed loops).
    pub generator_late_ns: u64,
    /// One entry per timed world of a traced rep; empty otherwise.
    pub traces: Vec<WorldTrace>,
}

impl Rep {
    /// Assemble a rep from its world(s): ops that never completed because a
    /// world died count as failed.
    pub fn from_world(
        timing: WorldTiming,
        attempted: u64,
        outcome: Result<(), String>,
        traces: Vec<WorldTrace>,
    ) -> Rep {
        let done_ok = timing.ops.iter().filter(|o| o.ok).count() as u64;
        Rep {
            failed: attempted.saturating_sub(done_ok),
            attempted,
            timing,
            error: outcome.err(),
            generator_late_ns: 0,
            traces,
        }
    }

    /// Virtual latencies (ns) of the ops that completed and verified,
    /// ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .timing
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.end - o.start)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Fold the timing of a world that ran after `acc` in the same rep into it
/// (`scheme_zoo` runs one world per scheme policy).
pub fn chain(acc: &mut WorldTiming, next: WorldTiming) {
    let shift = acc.window.1;
    acc.setup_s += next.setup_s;
    acc.build_s += next.build_s;
    acc.wall_s += next.wall_s;
    acc.untimed_s += next.untimed_s;
    acc.verify_s += next.verify_s;
    acc.teardown_s += next.teardown_s;
    acc.virt_ns += next.virt_ns;
    acc.ops.extend(next.ops.into_iter().map(|o| Op {
        start: o.start + shift,
        end: o.end + shift,
        ..o
    }));
    acc.window = (acc.window.0, shift + next.window.1);
}
