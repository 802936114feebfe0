//! The simulation kernel: a deterministic cooperative scheduler over
//! stackful fibers plus a binary heap of virtual-time timers. It schedules
//! two kinds of thing and nothing else: *processes* (a rank inside an MPI
//! call, driving its progress engine) and *timers* (a hardware completion
//! or arrival instant, as a closure).
//!
//! # Execution model
//!
//! Every simulated process is a coroutine, and **exactly one process runs
//! at any moment**. A process runs until it yields (sleeps, parks, or
//! finishes); the kernel then either grants the CPU to the next runnable
//! process or, when none is runnable, advances virtual time to the next timer
//! and fires it. All scheduling decisions are ordered by `(virtual time,
//! admission sequence)`, so a simulation is *fully deterministic*: the same
//! program produces the same event order and the same final clock on every
//! run. Coroutines exist purely so that simulated programs (MPI ranks,
//! progress engines) can be written as ordinary blocking Rust code.
//!
//! By default ([`ExecMode::Event`]) a process is a fiber (see
//! `fiber.rs`): its own lazily committed, guard-paged stack, switched into
//! and out of on the thread that called [`Sim::run`], so a world of a
//! thousand ranks is one OS thread. [`ExecMode::Threads`] carries each
//! process on an OS thread handed the virtual CPU through a condvar
//! instead; it makes the identical decisions and is kept as the
//! cross-check (and the fallback where fibers are unsupported).
//!
//! Runnable processes wait in a FIFO (admission sequences only ever grow,
//! so arrival order is sequence order); timers wait in a min-heap keyed by
//! `(deadline, admission sequence)`, each owning its action. A timer cannot
//! be cancelled: one that outlives its purpose fires a harmless stale
//! unpark, and recorded baselines depend on those wakes.
//!
//! # Blocking and waking
//!
//! The only kernel-level blocking primitive is [`park`]; everything else
//! (sleeps, mailboxes, completions) is built from `park` +
//! timers + [`ProcHandle::unpark`]. Because only one process runs at a time
//! and timer actions only fire while no process is running, the classic
//! check-then-park race cannot occur: nothing can deliver a wakeup between a
//! process's check and its park.
//!
//! # Lifetime
//!
//! The kernel is owned by the [`Sim`] handles to it and, while a process
//! runs, by that process's running context (`Ctx`; a thread carrier's OS
//! thread holds one for as long as it lives). Everything the kernel itself
//! ends up owning refers back to it weakly: [`ProcHandle`]s sit in waiter
//! lists that un-fired timer actions own (`run` returns at `live == 0`
//! with the heap non-empty), and a fiber's body sits in the process table.
//! So dropping the last `Sim` after `run` frees the whole world —
//! processes, timers and whatever their closures hold.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};
use std::thread;

use crate::fiber::{self, Fiber};
use crate::lock::{Condvar, Mutex, MutexGuard};

use crate::san::{Report, SanData, SanitizerMode};
use crate::time::{SimDur, SimTime};

/// How simulated processes are carried by the host.
///
/// Both modes make *identical* scheduling decisions — every `(virtual time,
/// admission sequence)` pair is bit-identical — because the kernel's decision
/// logic never consults the carrier. The difference is pure wall-clock cost
/// and footprint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Legacy mode: one OS thread per process, handed the virtual CPU
    /// through a condvar grant protocol. Simple, but every scheduling
    /// decision costs two OS-level round-trips and every rank costs a
    /// thread, capping practical runs at tens of ranks.
    Threads,
    /// Event-driven mode: processes run as stackful fibers multiplexed on
    /// the kernel's own OS thread, switched in and out directly by the run
    /// loop. Thread count stays O(1) in the number of ranks and a context
    /// switch is a register swap, enabling 1k+-rank simulations.
    Event,
}

impl ExecMode {
    /// The build default: `Event` where fibers are supported, else
    /// `Threads`.
    pub fn default_mode() -> ExecMode {
        if fiber::supported() {
            ExecMode::Event
        } else {
            ExecMode::Threads
        }
    }
}

/// Per-process stack budget in bytes (satellite of the 1k-rank work: the
/// default 8 MiB OS stacks exhaust address space and RSS at scale).
/// Override with `SIM_STACK_KB`, a positive number of KiB; anything else
/// there panics by name instead of running at some other size.
fn stack_bytes() -> usize {
    static BYTES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *BYTES.get_or_init(|| match std::env::var_os("SIM_STACK_KB") {
        // Debug frames are much fatter than release ones.
        None if cfg!(debug_assertions) => 1024 << 10,
        None => 256 << 10,
        Some(v) => v
            .to_str()
            .and_then(|kb| kb.parse::<usize>().ok())
            .filter(|&kb| kb > 0)
            .and_then(|kb| kb.checked_mul(1024))
            .unwrap_or_else(|| panic!("SIM_STACK_KB={v:?} is not a positive stack size in KiB")),
    })
}

/// Identifies a process within one simulation.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct ProcId(pub(crate) usize);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

enum Status {
    /// Waiting in the run queue.
    Runnable,
    /// Currently holding the (single) virtual CPU.
    Running,
    /// Blocked until someone unparks it. The reason is used in deadlock
    /// diagnostics.
    Parked { reason: &'static str },
    /// Finished (returned or panicked).
    Done,
}

struct Proc {
    name: String,
    status: Status,
    /// Set by the kernel when this process may run; consumed by the process.
    /// Thread carriers only.
    granted: bool,
    /// The process's private wakeup channel (paired with the kernel mutex).
    /// Thread carriers only.
    cv: Arc<Condvar>,
    /// Event-mode carrier; `None` for thread-carried processes. Dropped
    /// (freeing the stack) once the process is Done.
    fiber: Option<Box<Fiber>>,
}

/// An action to run on the kernel thread at `at`; same-instant timers
/// fire in admission (`seq`) order.
struct Timer {
    at: SimTime,
    seq: u64,
    action: Box<dyn FnOnce() + Send>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct State {
    now: SimTime,
    seq: u64,
    exec: ExecMode,
    procs: Vec<Proc>,
    /// `(admission seq, pid)` in push order, which is seq order: the next
    /// seq is drawn at every push.
    runnable: VecDeque<(u64, usize)>,
    timers: BinaryHeap<Reverse<Timer>>,
    live: usize,
    aborted: bool,
    panic: Option<Box<dyn Any + Send>>,
    /// When `Some`, every grant appends a [`WakeEvent`] — the cross-check
    /// record proving the event kernel replays the thread kernel's schedule.
    wake_trace: Option<Vec<WakeEvent>>,
}

/// One scheduling grant: the kernel handed the virtual CPU to a process.
/// Two runs of the same program wake-trace-identical ⇒ every scheduling
/// decision was identical (see [`Sim::record_wake_trace`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WakeEvent {
    /// Admission sequence of the grant (run-queue entry).
    pub seq: u64,
    /// Virtual time of the grant.
    pub at: SimTime,
    /// Granted process.
    pub pid: usize,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Admit `pid` to the run queue behind everything already there.
    fn make_runnable(&mut self, pid: ProcId) {
        let seq = self.next_seq();
        self.procs[pid.0].status = Status::Runnable;
        self.runnable.push_back((seq, pid.0));
    }
}

pub(crate) struct Kernel {
    state: Mutex<State>,
    /// Signalled by processes when they yield back to the kernel.
    kernel_cv: Condvar,
    /// Sanitizer state (see [`crate::san`]). Lock order: never acquire this
    /// while holding `state`; acquiring `state` while holding `san` is fine.
    san: Mutex<SanData>,
}

impl Drop for Kernel {
    fn drop(&mut self) {
        self.san.lock().on_kernel_drop();
    }
}

impl Kernel {
    /// Lock the sanitizer state (for `crate::san` hooks).
    pub(crate) fn san_lock(&self) -> MutexGuard<'_, SanData> {
        self.san.lock()
    }

    /// A process's name and the current virtual time, in one state lock.
    pub(crate) fn name_and_now(&self, pid: ProcId) -> (String, SimTime) {
        let st = self.state.lock();
        (st.procs[pid.0].name.clone(), st.now)
    }
}

/// The calling thread's simulation context, if it is a simulation process.
pub(crate) fn current_ctx() -> Option<(Arc<Kernel>, ProcId)> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (Arc::clone(&ctx.kernel), ctx.pid))
    })
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

struct Ctx {
    kernel: Arc<Kernel>,
    pid: ProcId,
}

fn with_ctx<R>(f: impl FnOnce(&Ctx) -> R) -> R {
    // Clone the context out and release the RefCell borrow *before* running
    // `f`: process code may yield inside `f`, and with fiber carriers the
    // kernel must then be free to retarget this thread's CTX cell.
    let ctx = CTX.with(|c| {
        let b = c.borrow();
        let ctx = b
            .as_ref()
            .expect("this sim-core operation must be called from inside a simulation process");
        Ctx {
            kernel: Arc::clone(&ctx.kernel),
            pid: ctx.pid,
        }
    });
    f(&ctx)
}

/// True when the calling thread is a simulation process.
pub fn in_sim() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// A deterministic virtual-time simulation.
///
/// Spawn processes with [`Sim::spawn`], then drive the whole simulation to
/// completion with [`Sim::run`].
#[derive(Clone)]
pub struct Sim {
    kernel: Arc<Kernel>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

/// A handle to a spawned process, usable from other processes (or timer
/// actions) to wake it. It does not keep the simulation alive: handles end
/// up parked in waiter lists and un-fired timers that the kernel itself
/// owns, so a strong reference here would be a cycle (see the module docs,
/// "Lifetime").
#[derive(Clone)]
pub struct ProcHandle {
    kernel: Weak<Kernel>,
    pid: ProcId,
}

impl ProcHandle {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.pid
    }

    /// Wake the process if it is parked; otherwise (or once the simulation
    /// is gone) a no-op.
    pub fn unpark(&self) {
        if let Some(kernel) = self.kernel.upgrade() {
            kernel.unpark(self.pid);
        }
    }
}

impl Sim {
    /// Create an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            kernel: Arc::new(Kernel {
                state: Mutex::new(State {
                    now: SimTime::ZERO,
                    seq: 0,
                    exec: ExecMode::default_mode(),
                    procs: Vec::new(),
                    runnable: VecDeque::new(),
                    timers: BinaryHeap::new(),
                    live: 0,
                    aborted: false,
                    panic: None,
                    wake_trace: None,
                }),
                kernel_cv: Condvar::new(),
                san: Mutex::new(SanData::new()),
            }),
        }
    }

    /// Select the process carrier (see [`ExecMode`]). Call before spawning;
    /// processes already spawned keep their carrier. Falls back to
    /// [`ExecMode::Threads`] when fibers are unsupported on this target.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        let mode = if fiber::supported() {
            mode
        } else {
            ExecMode::Threads
        };
        self.kernel.state.lock().exec = mode;
    }

    /// Number of timers currently in the heap, stale deadlines included.
    pub fn timers_live(&self) -> usize {
        self.kernel.state.lock().timers.len()
    }

    /// Start recording one [`WakeEvent`] per scheduling grant. The trace is
    /// carrier-independent: a run in [`ExecMode::Event`] and a run in
    /// [`ExecMode::Threads`] of the same program produce identical traces —
    /// the debug cross-check `rank_scale_sweep --smoke` and the
    /// `event_identity` tests assert exactly this.
    pub fn record_wake_trace(&self) {
        self.kernel.state.lock().wake_trace = Some(Vec::new());
    }

    /// The grants recorded since [`record_wake_trace`](Sim::record_wake_trace)
    /// (empty if recording was never enabled).
    pub fn wake_trace(&self) -> Vec<WakeEvent> {
        self.kernel
            .state
            .lock()
            .wake_trace
            .clone()
            .unwrap_or_default()
    }

    /// Enable or disable the sanitizer (see [`crate::san`]). Call before
    /// spawning processes so buffer pools register their accounting.
    pub fn set_sanitizer(&self, mode: SanitizerMode) {
        self.kernel.san.lock().set_mode(mode);
    }

    /// All sanitizer reports recorded so far (empty when the sanitizer is
    /// off or found nothing). Useful after a [`SanitizerMode::Collect`] run,
    /// and still populated when [`Sim::run`] panicked in `Panic` mode.
    pub fn sanitizer_reports(&self) -> Vec<Report> {
        self.kernel.san.lock().reports()
    }

    /// Spawn a process. It becomes runnable at the current virtual time and
    /// will first run once [`Sim::run`] schedules it.
    ///
    /// May also be called from inside a running process to spawn dynamically.
    pub fn spawn(&self, name: impl Into<String>, f: impl FnOnce() + Send + 'static) -> ProcHandle {
        let kernel = Arc::clone(&self.kernel);
        let name = name.into();
        let pid;
        let exec;
        {
            let mut st = kernel.state.lock();
            pid = ProcId(st.procs.len());
            exec = st.exec;
            st.procs.push(Proc {
                name: name.clone(),
                status: Status::Runnable,
                granted: false,
                cv: Arc::new(Condvar::new()),
                fiber: None,
            });
            st.make_runnable(pid);
            st.live += 1;
        }
        match exec {
            ExecMode::Event => {
                // Fiber carrier: the body runs on its own stack, switched in
                // by the run loop (which also manages CTX). The first switch
                // is the first grant, so no grant wait is needed here. The
                // body lives in the kernel's own process table, so it reaches
                // the kernel through CTX instead of owning a reference.
                let body = move || {
                    let result = catch_unwind(AssertUnwindSafe(f));
                    with_ctx(|c| c.kernel.finish(pid, result));
                };
                let fb = Box::new(Fiber::new(stack_bytes(), Box::new(body)));
                kernel.state.lock().procs[pid.0].fiber = Some(fb);
            }
            ExecMode::Threads => {
                let tkernel = Arc::clone(&kernel);
                thread::Builder::new()
                    .name(format!("sim:{name}"))
                    .stack_size(stack_bytes().max(512 * 1024))
                    .spawn(move || {
                        CTX.with(|c| {
                            *c.borrow_mut() = Some(Ctx {
                                kernel: Arc::clone(&tkernel),
                                pid,
                            })
                        });
                        // Wait for the first grant before touching user code.
                        tkernel.wait_for_grant(pid);
                        let result = catch_unwind(AssertUnwindSafe(f));
                        tkernel.finish(pid, result);
                        tkernel.kernel_cv.notify_one();
                        // Drop the context so this thread's reference to the
                        // kernel goes promptly.
                        CTX.with(|c| *c.borrow_mut() = None);
                    })
                    .expect("failed to spawn simulation process thread");
            }
        }
        ProcHandle {
            kernel: Arc::downgrade(&kernel),
            pid,
        }
    }

    /// Schedule `action` to run on the kernel thread at virtual time `at`
    /// (clamped to the current time if already past).
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce() + Send + 'static) {
        self.kernel.schedule_at(at, action);
    }

    /// Current virtual time (also available to processes via [`now`]).
    pub fn now(&self) -> SimTime {
        self.kernel.state.lock().now
    }

    /// Run the simulation until every process has finished. Returns the final
    /// virtual time.
    ///
    /// Panics (propagating the payload) if any process panicked, and panics
    /// with a diagnostic if the simulation deadlocks (all processes parked
    /// with no pending timers).
    pub fn run(&self) -> SimTime {
        let kernel = &self.kernel;
        let mut st = kernel.state.lock();
        loop {
            if let Some(payload) = st.panic.take() {
                kernel.abort(st);
                resume_unwind(payload);
            }
            if st.live == 0 {
                let now = st.now;
                drop(st);
                // Reconcile buffer-pool accounting at exit (simsan), then
                // run the "exit" checkpoint of the declarative invariants.
                let leaks = kernel.san.lock().reconcile_pools(now);
                if let Some(leak) = leaks.first() {
                    if kernel.san.lock().mode() == SanitizerMode::Panic {
                        panic!("simsan: {leak}");
                    }
                }
                let violations = kernel.san.lock().exit_invariants(now);
                if let Some(v) = violations.first() {
                    if kernel.san.lock().mode() == SanitizerMode::Panic {
                        panic!("simsan: {v}");
                    }
                }
                return now;
            }
            if let Some((seq, pid)) = st.runnable.pop_front() {
                let at = st.now;
                if let Some(trace) = &mut st.wake_trace {
                    trace.push(WakeEvent { seq, at, pid });
                }
                let p = &mut st.procs[pid];
                debug_assert!(matches!(p.status, Status::Runnable));
                p.status = Status::Running;
                if let Some(fb) = &mut p.fiber {
                    // Event carrier: switch straight into the fiber on this
                    // thread; it returns here when it yields or finishes.
                    fb.started = true;
                    let data = fb.data_ptr();
                    let ctx_kernel = Arc::clone(kernel);
                    drop(st);
                    CTX.with(|c| {
                        *c.borrow_mut() = Some(Ctx {
                            kernel: ctx_kernel,
                            pid: ProcId(pid),
                        })
                    });
                    // SAFETY: kernel run loop, no locks held, fiber not
                    // finished (it was in the runnable queue).
                    unsafe { Fiber::switch_into(data) };
                    CTX.with(|c| *c.borrow_mut() = None);
                    st = kernel.state.lock();
                    debug_assert!(
                        !matches!(st.procs[pid].status, Status::Running),
                        "fiber returned to kernel while still Running"
                    );
                    if matches!(st.procs[pid].status, Status::Done) {
                        // Free the stack eagerly; 1k-rank runs would
                        // otherwise hold every finished rank's stack alive.
                        st.procs[pid].fiber = None;
                    }
                } else {
                    p.granted = true;
                    let cv = Arc::clone(&p.cv);
                    cv.notify_one();
                    // Wait until that process yields (status leaves Running)
                    // or records a panic.
                    while matches!(st.procs[pid].status, Status::Running) && st.panic.is_none() {
                        kernel.kernel_cv.wait(&mut st);
                    }
                }
                continue;
            }
            // Nothing runnable: advance virtual time to the next timer.
            let Some(Reverse(head)) = st.timers.peek() else {
                let parked_info: Vec<(usize, String, &'static str)> = st
                    .procs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| match p.status {
                        Status::Parked { reason } => Some((i, p.name.clone(), reason)),
                        _ => None,
                    })
                    .collect();
                let now = st.now;
                kernel.abort(st);
                // With the sanitizer active, dump a wait-for graph naming
                // each process and the primitive it is blocked on; otherwise
                // fall back to the terse parked-process listing.
                let graph = kernel.san.lock().deadlock_graph(now, &parked_info);
                match graph {
                    Some(g) => panic!(
                        "simulation deadlock at {now}: no runnable process and no pending timer\n{g}"
                    ),
                    None => panic!(
                        "simulation deadlock at {now}: no runnable process and no pending timer; live processes:\n{}",
                        parked_info
                            .iter()
                            .map(|(_, name, reason)| format!("  {name} (parked: {reason})"))
                            .collect::<Vec<_>>()
                            .join("\n")
                    ),
                }
            };
            let at = head.at;
            debug_assert!(at >= st.now, "timer scheduled in the past");
            st.now = at;
            // Fire every timer due at this instant, in admission order, with
            // the lock released (actions re-enter the kernel to wake procs).
            let mut due = Vec::new();
            while st.timers.peek().is_some_and(|Reverse(t)| t.at <= st.now) {
                due.push(st.timers.pop().unwrap().0.action);
            }
            drop(st);
            for action in due {
                action();
            }
            st = kernel.state.lock();
        }
    }
}

impl Kernel {
    /// A process body returned or panicked: retire it. A panic raised while
    /// the kernel is aborting is its own shutdown signal and is swallowed.
    fn finish(&self, pid: ProcId, result: thread::Result<()>) {
        let mut st = self.state.lock();
        st.procs[pid.0].status = Status::Done;
        st.live -= 1;
        if let Err(payload) = result {
            if !st.aborted {
                st.panic = Some(payload);
            }
        }
    }

    fn wait_for_grant(&self, pid: ProcId) {
        let mut st = self.state.lock();
        let cv = Arc::clone(&st.procs[pid.0].cv);
        while !st.procs[pid.0].granted {
            cv.wait(&mut st);
        }
        st.procs[pid.0].granted = false;
        if st.aborted {
            drop(st);
            panic!("simulation aborted");
        }
        st.procs[pid.0].status = Status::Running;
    }

    /// Yield the CPU: transition to `status`, return control to the kernel,
    /// come back on the next grant. The state transitions (and their
    /// sequence allocations) are identical for both carriers; only the
    /// hand-off mechanism differs.
    fn yield_with(&self, pid: ProcId, to_runnable: bool, reason: &'static str) {
        let fiber_data = {
            let mut st = self.state.lock();
            if to_runnable {
                st.make_runnable(pid);
            } else {
                st.procs[pid.0].status = Status::Parked { reason };
            }
            match &mut st.procs[pid.0].fiber {
                Some(fb) => Some(fb.data_ptr()),
                None => {
                    self.kernel_cv.notify_one();
                    None
                }
            }
        };
        match fiber_data {
            Some(data) => {
                fiber::yield_from(data);
                // Resumed by the run loop (which already set us Running).
                if self.state.lock().aborted {
                    panic!("simulation aborted");
                }
            }
            None => self.wait_for_grant(pid),
        }
    }

    /// Shut the world down after a panic or a deadlock: mark it aborted and
    /// grant every thread carrier (each wakes, sees `aborted` and unwinds),
    /// then unwind every live fiber so their stacks run destructors too,
    /// marking never-started fibers finished so their closures are simply
    /// dropped.
    fn abort(self: &Arc<Self>, mut st: MutexGuard<'_, State>) {
        st.aborted = true;
        for p in &mut st.procs {
            p.granted = true;
            p.cv.notify_one();
        }
        drop(st);
        loop {
            let next = {
                let mut st = self.state.lock();
                let mut found = None;
                for (i, p) in st.procs.iter_mut().enumerate() {
                    if let Some(fb) = &mut p.fiber {
                        if fb.finished || matches!(p.status, Status::Done) {
                            continue;
                        }
                        fb.finished = true;
                        if fb.started {
                            found = Some((i, fb.data_ptr()));
                            break;
                        }
                    }
                }
                found
            };
            let Some((pid, data)) = next else { return };
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    kernel: Arc::clone(self),
                    pid: ProcId(pid),
                })
            });
            // SAFETY: kernel thread, no locks held; the fiber resumes inside
            // yield_with, sees `aborted`, panics and unwinds to Done.
            unsafe { Fiber::switch_into(data) };
            CTX.with(|c| *c.borrow_mut() = None);
        }
    }

    /// Arm a timer: the one way an action gets onto the heap.
    fn schedule_at(&self, at: SimTime, action: impl FnOnce() + Send + 'static) {
        let mut st = self.state.lock();
        let (at, seq) = (at.max(st.now), st.next_seq());
        let action = Box::new(action);
        st.timers.push(Reverse(Timer { at, seq, action }));
    }

    fn unpark(&self, pid: ProcId) {
        let mut st = self.state.lock();
        if matches!(st.procs[pid.0].status, Status::Parked { .. }) {
            st.make_runnable(pid);
        }
    }
}

// ---------------------------------------------------------------------------
// Process-context API (free functions; panic when called outside a process).
// ---------------------------------------------------------------------------

/// Current virtual time.
pub fn now() -> SimTime {
    with_ctx(|c| c.kernel.state.lock().now)
}

/// A [`ProcHandle`] for the calling process.
pub fn current_handle() -> ProcHandle {
    with_ctx(|c| ProcHandle {
        kernel: Arc::downgrade(&c.kernel),
        pid: c.pid,
    })
}

/// Advance this process past `dur` of virtual time; other processes and
/// timers run in the interim.
pub fn sleep(dur: SimDur) {
    let t = now() + dur;
    sleep_until(t);
}

/// Sleep until the given instant (no-op if already past, but still yields).
///
/// Robust against *stale unparks*: other primitives (mailbox deadline
/// timers, completions) may wake this process spuriously, so the sleep
/// re-parks until the deadline has genuinely passed.
pub fn sleep_until(t: SimTime) {
    with_ctx(|c| {
        let pid = c.pid;
        if t <= c.kernel.state.lock().now {
            // Still yield so equal-time peers get scheduled fairly.
            c.kernel.yield_with(pid, true, "");
            return;
        }
        let h = ProcHandle {
            kernel: Arc::downgrade(&c.kernel),
            pid,
        };
        c.kernel.schedule_at(t, move || h.unpark());
        loop {
            c.kernel.yield_with(pid, false, "sleep");
            if t <= c.kernel.state.lock().now {
                return;
            }
            // Spurious wakeup (a stale timer or unpark): keep sleeping; the
            // wake timer scheduled above still fires at `t`.
        }
    });
}

/// Give up the CPU but remain runnable (equal-time round-robin).
pub fn yield_now() {
    with_ctx(|c| c.kernel.yield_with(c.pid, true, ""));
}

/// Block until some other process or timer calls [`ProcHandle::unpark`].
/// `reason` appears in deadlock diagnostics.
pub fn park(reason: &'static str) {
    with_ctx(|c| c.kernel.yield_with(c.pid, false, reason));
}

/// Spawn a sibling process from inside a running process.
pub fn spawn(name: impl Into<String>, f: impl FnOnce() + Send + 'static) -> ProcHandle {
    with_ctx(|c| {
        Sim {
            kernel: Arc::clone(&c.kernel),
        }
        .spawn(name, f)
    })
}

/// Schedule a kernel-thread action at a virtual instant from inside a
/// process.
pub fn schedule_at(at: SimTime, action: impl FnOnce() + Send + 'static) {
    with_ctx(|c| c.kernel.schedule_at(at, action));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn empty_sim_finishes_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.run(), SimTime::ZERO);
    }

    #[test]
    fn single_process_advances_clock() {
        let sim = Sim::new();
        sim.spawn("p", || {
            assert_eq!(now(), SimTime::ZERO);
            sleep(SimDur::from_micros(5));
            assert_eq!(now(), SimTime::from_nanos(5_000));
        });
        assert_eq!(sim.run(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn processes_interleave_deterministically() {
        let run_once = || {
            let log = Arc::new(StdMutex::new(Vec::new()));
            let sim = Sim::new();
            for i in 0..3u32 {
                let log = Arc::clone(&log);
                sim.spawn(format!("p{i}"), move || {
                    for step in 0..3u32 {
                        sleep(SimDur::from_micros(u64::from(i) + 1));
                        log.lock().unwrap().push((i, step, now()));
                    }
                });
            }
            sim.run();
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(
            a, b,
            "two identical runs must produce identical event orders"
        );
        assert!(!a.is_empty());
    }

    #[test]
    fn equal_time_wakeups_are_fifo() {
        let order = Arc::new(StdMutex::new(Vec::new()));
        let sim = Sim::new();
        for i in 0..4u32 {
            let order = Arc::clone(&order);
            sim.spawn(format!("p{i}"), move || {
                sleep(SimDur::from_micros(10)); // all wake at the same instant
                order.lock().unwrap().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn park_unpark_round_trip() {
        let sim = Sim::new();
        let target = Arc::new(StdMutex::new(None::<ProcHandle>));
        let woke_at = Arc::new(StdMutex::new(None));
        {
            let target = Arc::clone(&target);
            let woke_at = Arc::clone(&woke_at);
            sim.spawn("sleeper", move || {
                *target.lock().unwrap() = Some(current_handle());
                park("test wait");
                *woke_at.lock().unwrap() = Some(now());
            });
        }
        {
            let target = Arc::clone(&target);
            sim.spawn("waker", move || {
                sleep(SimDur::from_micros(7));
                target.lock().unwrap().as_ref().unwrap().unpark();
            });
        }
        sim.run();
        assert_eq!(woke_at.lock().unwrap().unwrap(), SimTime::from_nanos(7_000));
    }

    #[test]
    fn unpark_on_runnable_process_is_noop() {
        let sim = Sim::new();
        let h = sim.spawn("p", || sleep(SimDur::from_micros(1)));
        sim.spawn("q", move || {
            h.unpark(); // p is runnable, not parked
            h.unpark();
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        sim.spawn("stuck", || park("never woken"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "inner process panic")]
    fn process_panics_propagate() {
        let sim = Sim::new();
        sim.spawn("boom", || {
            sleep(SimDur::from_micros(1));
            panic!("inner process panic");
        });
        sim.spawn("bystander", || park("will be aborted"));
        sim.run();
    }

    #[test]
    fn timers_fire_in_order() {
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        for (i, at_us) in [(0u32, 30u64), (1, 10), (2, 20), (3, 10)] {
            let hits = Arc::clone(&hits);
            sim.schedule_at(SimTime::ZERO + SimDur::from_micros(at_us), move || {
                hits.lock().unwrap().push(i);
            });
        }
        // Timers alone don't keep a sim alive; add a process outlasting them.
        sim.spawn("anchor", || sleep(SimDur::from_micros(100)));
        sim.run();
        // Same-instant timers fire in admission order: 1 before 3.
        assert_eq!(*hits.lock().unwrap(), vec![1, 3, 2, 0]);
    }

    #[test]
    fn dynamic_spawn_from_process() {
        let counter = Arc::new(AtomicU64::new(0));
        let sim = Sim::new();
        let c = Arc::clone(&counter);
        sim.spawn("parent", move || {
            sleep(SimDur::from_micros(1));
            let c2 = Arc::clone(&c);
            spawn("child", move || {
                sleep(SimDur::from_micros(1));
                c2.fetch_add(1, Ordering::SeqCst);
            });
            c.fetch_add(1, Ordering::SeqCst);
        });
        let end = sim.run();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(end, SimTime::from_nanos(2_000));
    }

    #[test]
    fn sleep_zero_yields_but_keeps_time() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let t = now();
            sleep(SimDur::ZERO);
            yield_now();
            assert_eq!(now(), t);
        });
        sim.run();
    }

    #[test]
    fn sleep_survives_stale_unparks() {
        // Regression: a stale wake timer (e.g. from an abandoned deadline
        // wait) must not shorten a later sleep.
        let sim = Sim::new();
        sim.spawn("p", || {
            let h = current_handle();
            // Plant stale unparks at 5us and 8us.
            schedule_at(SimTime::from_nanos(5_000), {
                let h = h.clone();
                move || h.unpark()
            });
            schedule_at(SimTime::from_nanos(8_000), move || h.unpark());
            sleep(SimDur::from_micros(20));
            assert_eq!(now(), SimTime::from_nanos(20_000), "sleep cut short");
        });
        sim.run();
    }

    #[test]
    fn finished_sim_frees_its_kernel() {
        // Everything a finished world used to leak through: a far-future
        // timer whose closure holds a mailbox (kernel → timer → mailbox →
        // waiter handles), a wait that ended by its deadline and left its
        // handle in the waiter list, and a deadline timer still un-fired
        // when `run` returns at `live == 0`.
        use crate::mailbox::Mailbox;
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        let proc = sim.spawn("p", move || {
            let held = mb.clone();
            schedule_at(now() + SimDur::from_millis(5), move || drop(held));
            // Ended by a delivery: its 1 ms deadline timer outlives the run.
            mb.send_at(now() + SimDur::from_micros(1), 1);
            assert!(mb.wait_nonempty_until(Some(now() + SimDur::from_millis(1))));
            assert_eq!(mb.try_recv(), Some(1));
            // Ended by its deadline: the handle stays in the waiter list.
            assert!(!mb.wait_nonempty_until(Some(now() + SimDur::from_micros(1))));
        });
        sim.run();
        assert_eq!(sim.timers_live(), 2, "the holder and the stale deadline");
        let kernel = Arc::downgrade(&sim.kernel);
        drop(sim);
        proc.unpark(); // a handle that outlives its simulation is inert
        assert!(
            kernel.upgrade().is_none(),
            "a finished Sim must free its kernel"
        );
    }

    #[test]
    fn same_instant_actions_interleave_by_seq() {
        // An action armed for the current instant from inside a timer action
        // runs after the actions already due and before any later-admitted
        // one, whatever its origin: nothing drains "everything due" at once.
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        let at = SimTime::from_nanos(10_000);
        let log = |tag: &'static str| {
            let hits = Arc::clone(&hits);
            move || hits.lock().unwrap().push(tag)
        };
        let (inner_sim, nested, late) = (sim.clone(), log("nested"), log("late"));
        sim.schedule_at(at, move || {
            inner_sim.schedule_at(at, nested);
            inner_sim.schedule_at(at, late);
        });
        sim.schedule_at(at, log("due"));
        sim.spawn("anchor", || sleep(SimDur::from_micros(20)));
        sim.run();
        assert_eq!(*hits.lock().unwrap(), vec!["due", "nested", "late"]);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let sim = Sim::new();
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        sim.spawn("p", move || {
            sleep(SimDur::from_micros(10));
            let h2 = Arc::clone(&h);
            schedule_at(SimTime::ZERO, move || {
                h2.store(1, Ordering::SeqCst);
            });
            sleep(SimDur::from_micros(1));
            assert_eq!(h.load(Ordering::SeqCst), 1);
        });
        sim.run();
    }
}
