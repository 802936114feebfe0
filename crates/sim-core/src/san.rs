//! `simsan` — the simulation sanitizer.
//!
//! The kernel serializes all memory access in virtual time, so a program
//! that forgets to wait on an asynchronous copy still reads the right
//! bytes: the byte movement happened eagerly at enqueue, only the modeled
//! timeline claims an overlap that real hardware would corrupt. This module
//! catches that class of bug instead of letting calibration hide it. It has
//! three parts:
//!
//! 1. **Happens-before race detector.** Every asynchronous hardware
//!    operation (GPU copy, kernel launch, RDMA write, NIC send) registers
//!    itself with the sanitizer along with the memory ranges it reads and
//!    writes. Sync points — [`Completion::wait`](crate::Completion::wait),
//!    a successful [`Completion::poll`](crate::Completion::poll), stream
//!    events, [`Mailbox`](crate::Mailbox) send/recv — propagate a
//!    per-process *acquired set* of operation ids (the epoch/vector-clock
//!    state of this design). Any access to a range touched by an in-flight
//!    operation that the accessor has not acquired is reported as a race.
//!    Merely sleeping past an operation's finish time is **not** an edge.
//! 2. **Pool accounting** for protocol linters: bounded buffer pools
//!    (vbufs, staging buffers) register take/put events and are reconciled
//!    when [`Sim::run`](crate::Sim::run) exits — outstanding buffers are
//!    reported as leaks.
//! 3. **Deadlock diagnostics.** Blocking primitives describe what they are
//!    about to block on; when the kernel detects that every live process is
//!    parked with no pending timer it dumps a wait-for graph naming each
//!    process and its blocking primitive instead of a bare panic.
//!
//! The layer is a no-op unless a simulation opts in via
//! [`Sim::set_sanitizer`](crate::Sim::set_sanitizer): every hook first
//! checks one relaxed atomic load. [`SanitizerMode::Panic`] aborts the
//! simulation on the first report (for tests); [`SanitizerMode::Collect`]
//! records reports for later inspection (for benchmarks).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::kernel::current_ctx;
use crate::time::SimTime;

/// How the sanitizer responds to findings.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SanitizerMode {
    /// Sanitizer disabled; every hook is a cheap no-op.
    #[default]
    Off,
    /// Panic on the first report (test runs).
    Panic,
    /// Record reports; read them back with
    /// [`Sim::sanitizer_reports`](crate::Sim::sanitizer_reports).
    Collect,
}

/// Classification of a sanitizer finding.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReportKind {
    /// A memory access raced with an in-flight asynchronous operation.
    Race,
    /// A protocol-level rule was violated (rendezvous state machine, RDMA
    /// registration, flow control).
    Protocol,
    /// A pooled buffer was taken and never returned.
    PoolLeak,
    /// All processes parked with no pending timer.
    Deadlock,
    /// A registered declarative invariant (see [`register_invariant`]) does
    /// not hold.
    Invariant,
}

/// One sanitizer finding, carrying the virtual-time instant and the name of
/// the process it is attributed to.
#[derive(Clone, Debug)]
pub struct Report {
    /// Virtual time at which the finding was made.
    pub time: SimTime,
    /// Name of the process the finding is attributed to.
    pub process: String,
    /// Finding classification.
    pub kind: ReportKind,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] at {} in {}: {}",
            self.kind, self.time, self.process, self.message
        )
    }
}

/// Identifies one registered asynchronous operation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct OpId(pub(crate) u64);

/// Identifies a registered buffer pool.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PoolId(usize);

/// Which address space a range lives in.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum MemDomain {
    /// A [`hostmem`-style] host buffer, identified by its global buffer id.
    Host {
        /// Global host buffer id.
        buf: u64,
    },
    /// One simulated GPU's device address space.
    Dev {
        /// Global GPU instance id.
        gpu: u64,
    },
}

/// A byte range in some address space.
#[derive(Copy, Clone, Debug)]
pub struct MemRange {
    /// The address space.
    pub domain: MemDomain,
    /// First byte offset.
    pub start: usize,
    /// Length in bytes (zero-length ranges never conflict).
    pub len: usize,
}

impl MemRange {
    fn overlaps(&self, other: &MemRange) -> bool {
        self.domain == other.domain
            && self.len > 0
            && other.len > 0
            && self.start < other.start + other.len
            && other.start < self.start + self.len
    }
}

impl fmt::Display for MemRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.domain {
            MemDomain::Host { buf } => write!(f, "host buffer #{buf}"),
            MemDomain::Dev { gpu } => write!(f, "gpu#{gpu} device memory"),
        }?;
        write!(f, " [{}..{})", self.start, self.start + self.len)
    }
}

/// Description of an asynchronous operation being registered.
#[derive(Default)]
pub struct OpDesc {
    /// Operation kind, e.g. `"memcpy_async(D2H)"` or `"rdma_write"`.
    pub kind: &'static str,
    /// `(domain, lane)` queue the op executes on — e.g. `(gpu id, stream
    /// id)` or `(node id, tx engine)`. Ops on one queue execute in order.
    pub queue: (u64, u64),
    /// Operations this one is ordered after (queue predecessors, event
    /// waits). The issuer's acquired set is added automatically.
    pub preds: Vec<OpId>,
    /// Ranges the operation reads.
    pub reads: Vec<MemRange>,
    /// Ranges the operation writes.
    pub writes: Vec<MemRange>,
}

/// An opaque snapshot of a process's acquired set, carried across channels
/// (mailbox messages) to propagate happens-before.
#[derive(Clone, Debug, Default)]
pub struct SanToken {
    ids: Vec<u64>,
}

impl SanToken {
    /// Union another token into this one.
    pub fn merge(&mut self, other: &SanToken) {
        for id in &other.ids {
            if !self.ids.contains(id) {
                self.ids.push(*id);
            }
        }
    }
}

struct OpInfo {
    kind: &'static str,
    #[allow(dead_code)] // retained for diagnostics / future queue lints
    queue: (u64, u64),
    /// Happens-before closure at registration time (predecessor op ids).
    preds: HashSet<u64>,
    reads: Vec<MemRange>,
    writes: Vec<MemRange>,
    issuer: String,
    issued_at: SimTime,
    /// `None` while the finish time is not yet assigned.
    done_at: Option<SimTime>,
}

struct PoolInfo {
    name: String,
    outstanding: i64,
    takes: u64,
}

/// When a registered [`Invariant`] is evaluated.
///
/// Online invariants run after every [`proto_event`] / [`proto_set`];
/// checkpoint invariants run when some process calls
/// [`invariant_checkpoint`] with a matching phase name, and at simulation
/// exit for the reserved phase `"exit"`.
pub struct Invariant {
    /// Stable identifier; registration is idempotent per name, and reports
    /// carry it as `invariant '<name>' violated`.
    pub name: &'static str,
    /// Evaluate after every protocol event (in addition to checkpoints).
    pub online: bool,
    /// Checkpoint phases this invariant runs at (e.g. `"finalize"`,
    /// `"exit"`).
    pub checkpoints: &'static [&'static str],
    /// The predicate: inspect the [`ProtoView`] and return one message per
    /// violation found (empty = invariant holds). Must be deterministic and
    /// must not call back into the sanitizer.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&ProtoView<'_>) -> Vec<String> + Send>,
}

/// Read-only view of the sanitizer's protocol state, handed to invariant
/// predicates. Gauges are keyed `(scope, name)`; iteration is in sorted
/// order so violation messages are byte-stable across runs.
pub struct ProtoView<'a> {
    gauges: &'a BTreeMap<(String, &'static str), i64>,
    pools: &'a [PoolInfo],
    phase: &'static str,
}

impl ProtoView<'_> {
    /// Why the invariant is being evaluated: `"online"` after a protocol
    /// event, or the checkpoint phase name (`"finalize"`, `"exit"`, ...).
    pub fn phase(&self) -> &'static str {
        self.phase
    }
    /// Current value of gauge `name` in `scope` (0 if never touched).
    pub fn gauge(&self, scope: &str, name: &'static str) -> i64 {
        self.gauges
            .get(&(scope.to_string(), name))
            .copied()
            .unwrap_or(0)
    }

    /// All scopes holding gauge `name`, in sorted order.
    pub fn scopes_with(&self, name: &str) -> Vec<&str> {
        self.gauges
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|((s, _), _)| s.as_str())
            .collect()
    }

    /// Registered pools as `(name, outstanding, takes)`, in registration
    /// order.
    pub fn pools(&self) -> impl Iterator<Item = (&str, i64, u64)> {
        self.pools
            .iter()
            .map(|p| (p.name.as_str(), p.outstanding, p.takes))
    }
}

/// Per-simulation sanitizer state (lives inside the kernel).
pub(crate) struct SanData {
    mode: SanitizerMode,
    next_op: u64,
    ops: HashMap<u64, OpInfo>,
    acquired: HashMap<usize, HashSet<u64>>,
    pools: Vec<PoolInfo>,
    blocked: HashMap<usize, String>,
    reports: Vec<Report>,
    /// Declarative-invariant state: protocol gauges keyed `(scope, name)`
    /// (sorted so invariant evaluation order is deterministic), the
    /// registered invariants, and the set of already-reported violations
    /// (online invariants re-run on every event; each distinct violation is
    /// reported once).
    gauges: BTreeMap<(String, &'static str), i64>,
    invariants: Vec<Invariant>,
    inv_reported: HashSet<String>,
}

impl SanData {
    pub(crate) fn new() -> Self {
        SanData {
            mode: SanitizerMode::Off,
            next_op: 1,
            ops: HashMap::new(),
            acquired: HashMap::new(),
            pools: Vec::new(),
            blocked: HashMap::new(),
            reports: Vec::new(),
            gauges: BTreeMap::new(),
            invariants: Vec::new(),
            inv_reported: HashSet::new(),
        }
    }

    /// Run every invariant passing `filter` against the current view;
    /// report each new violation. The invariant list is temporarily moved
    /// out so predicates can borrow the gauge/pool state immutably.
    fn eval_invariants(
        &mut self,
        now: SimTime,
        process: &str,
        phase: &'static str,
        filter: impl Fn(&Invariant) -> bool,
    ) {
        if self.invariants.is_empty() {
            return;
        }
        let invariants = std::mem::take(&mut self.invariants);
        let mut found: Vec<(&'static str, String)> = Vec::new();
        {
            let view = ProtoView {
                gauges: &self.gauges,
                pools: &self.pools,
                phase,
            };
            for inv in invariants.iter().filter(|i| filter(i)) {
                for msg in (inv.check)(&view) {
                    found.push((inv.name, msg));
                }
            }
        }
        self.invariants = invariants;
        for (name, msg) in found {
            if self.inv_reported.insert(format!("{name}: {msg}")) {
                self.emit(
                    now,
                    process.to_string(),
                    ReportKind::Invariant,
                    format!("invariant '{name}' violated: {msg}"),
                );
            }
        }
    }

    pub(crate) fn mode(&self) -> SanitizerMode {
        self.mode
    }

    pub(crate) fn set_mode(&mut self, mode: SanitizerMode) {
        match (self.mode, mode) {
            (SanitizerMode::Off, m) if m != SanitizerMode::Off => {
                ENABLED_SIMS.fetch_add(1, Ordering::Relaxed);
            }
            (m, SanitizerMode::Off) if m != SanitizerMode::Off => {
                ENABLED_SIMS.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.mode = mode;
    }

    pub(crate) fn reports(&self) -> Vec<Report> {
        self.reports.clone()
    }

    /// Keep the global fast-path counter balanced when a kernel with an
    /// enabled sanitizer is dropped without being switched off first.
    pub(crate) fn on_kernel_drop(&mut self) {
        if self.mode != SanitizerMode::Off {
            ENABLED_SIMS.fetch_sub(1, Ordering::Relaxed);
            self.mode = SanitizerMode::Off;
        }
    }

    fn gc(&mut self, now: SimTime) {
        self.ops.retain(|_, op| op.done_at.is_none_or(|t| t > now));
    }

    fn describe_op(&self, id: u64) -> String {
        match self.ops.get(&id) {
            Some(op) => format!(
                "op#{id} {} (issued by {} at {}, {})",
                op.kind,
                op.issuer,
                op.issued_at,
                match op.done_at {
                    Some(t) => format!("completes at {t}"),
                    None => "finish time pending".into(),
                }
            ),
            None => format!("op#{id} (already retired)"),
        }
    }

    /// Transitive happens-before closure of `seed` over live ops.
    fn closure(&self, seed: impl IntoIterator<Item = u64>) -> HashSet<u64> {
        let mut out: HashSet<u64> = HashSet::new();
        let mut stack: Vec<u64> = seed.into_iter().collect();
        while let Some(id) = stack.pop() {
            if out.insert(id) {
                if let Some(op) = self.ops.get(&id) {
                    stack.extend(op.preds.iter().copied());
                }
            }
        }
        out
    }

    fn emit(&mut self, time: SimTime, process: String, kind: ReportKind, message: String) {
        let r = Report {
            time,
            process,
            kind,
            message,
        };
        self.reports.push(r.clone());
        if self.mode == SanitizerMode::Panic {
            panic!("simsan: {r}");
        }
    }

    /// Check one access (by a process or a newly registered op) against all
    /// live ops, excluding ids in `hb`.
    #[allow(clippy::too_many_arguments)]
    fn check_ranges(
        &mut self,
        now: SimTime,
        accessor: &str,
        reads: &[MemRange],
        writes: &[MemRange],
        hb: &HashSet<u64>,
        time: SimTime,
        proc_name: &str,
    ) {
        let mut findings: Vec<String> = Vec::new();
        for (id, op) in &self.ops {
            if hb.contains(id) {
                continue;
            }
            if op.done_at.is_some_and(|t| t <= now) {
                continue; // completed; gc will collect it
            }
            // write/write and write/read conflicts in either direction.
            for r in writes {
                if op
                    .reads
                    .iter()
                    .chain(op.writes.iter())
                    .any(|o| r.overlaps(o))
                {
                    findings.push(format!(
                        "{accessor} write of {r} overlaps in-flight {} with no happens-before edge",
                        self.describe_op(*id)
                    ));
                    break;
                }
            }
            for r in reads {
                if op.writes.iter().any(|o| r.overlaps(o)) {
                    findings.push(format!(
                        "{accessor} read of {r} overlaps in-flight {} with no happens-before edge",
                        self.describe_op(*id)
                    ));
                    break;
                }
            }
        }
        for msg in findings {
            self.emit(time, proc_name.to_string(), ReportKind::Race, msg);
        }
    }
}

/// Number of simulations with the sanitizer enabled; the global fast-path
/// flag every hook checks first.
static ENABLED_SIMS: AtomicUsize = AtomicUsize::new(0);

/// Allocator for queue-domain ids, so every device / NIC gets a namespace
/// of its own in [`OpDesc::queue`] regardless of user-facing numbering.
static NEXT_QUEUE_DOMAIN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Allocate a fresh queue domain (process-global, never reused).
pub fn new_queue_domain() -> u64 {
    NEXT_QUEUE_DOMAIN.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

/// True if any live simulation has the sanitizer enabled (fast check; the
/// per-simulation mode is consulted after).
#[inline]
pub fn enabled() -> bool {
    ENABLED_SIMS.load(Ordering::Relaxed) != 0
}

/// RAII guard suppressing access checks on this thread — used while an
/// operation's own (already declared and checked) byte movement executes.
pub struct SuppressGuard {
    _private: (),
}

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        SUPPRESS.with(|s| s.set(s.get() - 1));
    }
}

/// Suppress access checks on the calling thread until the guard drops.
pub fn suppress() -> SuppressGuard {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    SuppressGuard { _private: () }
}

fn suppressed() -> bool {
    SUPPRESS.with(|s| s.get() > 0)
}

/// `(kernel, pid, name, now)` of the calling simulation process, if the
/// sanitizer is active there.
macro_rules! with_active_san {
    (|$sd:ident, $pid:ident, $name:ident, $now:ident| $body:block) => {
        if let Some((kernel, pid)) = current_ctx() {
            let ($name, $now) = kernel.name_and_now(pid);
            let mut $sd = kernel.san_lock();
            let $pid = pid.0;
            if $sd.mode != SanitizerMode::Off {
                $body
            }
        }
    };
}

/// Register an asynchronous operation. Its declared ranges are immediately
/// checked against every other in-flight op outside its happens-before
/// closure. Returns `None` when the sanitizer is off.
pub fn begin_op(desc: OpDesc) -> Option<OpId> {
    if !enabled() {
        return None;
    }
    let (kernel, pid) = current_ctx()?;
    let (name, now) = kernel.name_and_now(pid);
    let mut sd = kernel.san_lock();
    if sd.mode == SanitizerMode::Off {
        return None;
    }
    sd.gc(now);
    let mut seed: Vec<u64> = desc.preds.iter().map(|p| p.0).collect();
    if let Some(acq) = sd.acquired.get(&pid.0) {
        seed.extend(acq.iter().copied());
    }
    let hb = sd.closure(seed);
    let accessor = format!("op {}", desc.kind);
    sd.check_ranges(now, &accessor, &desc.reads, &desc.writes, &hb, now, &name);
    let id = sd.next_op;
    sd.next_op += 1;
    sd.ops.insert(
        id,
        OpInfo {
            kind: desc.kind,
            queue: desc.queue,
            preds: hb,
            reads: desc.reads,
            writes: desc.writes,
            issuer: name,
            issued_at: now,
            done_at: None,
        },
    );
    Some(OpId(id))
}

/// Assign the operation's finish instant (known once the issuing layer has
/// scheduled it).
pub fn op_complete_at(op: Option<OpId>, done_at: SimTime) {
    let Some(op) = op else { return };
    with_active_san!(|sd, _pid, _name, _now| {
        if let Some(info) = sd.ops.get_mut(&op.0) {
            info.done_at = Some(done_at);
        }
    });
}

/// The calling process acquires (synchronizes with) the given operations
/// and, transitively, everything they are ordered after.
pub fn acquire_ops(ops: &[OpId]) {
    if !enabled() || ops.is_empty() {
        return;
    }
    with_active_san!(|sd, pid, _name, _now| {
        let hb = sd.closure(ops.iter().map(|o| o.0));
        let mut acq = sd.acquired.remove(&pid).unwrap_or_default();
        acq.extend(hb);
        // Prune retired ops so acquired sets stay bounded.
        acq.retain(|id| sd.ops.contains_key(id));
        sd.acquired.insert(pid, acq);
    });
}

/// The calling process acquires every live op on the given queue domain
/// (all lanes, or one specific lane) — e.g. `cudaDeviceSynchronize` /
/// `cudaStreamSynchronize` semantics.
pub fn acquire_queue(domain: u64, lane: Option<u64>) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, pid, _name, _now| {
        let ids: Vec<u64> = sd
            .ops
            .iter()
            .filter(|(_, op)| op.queue.0 == domain && lane.is_none_or(|l| op.queue.1 == l))
            .map(|(id, _)| *id)
            .collect();
        let hb = sd.closure(ids);
        sd.acquired.entry(pid).or_default().extend(hb);
    });
}

/// Check a direct (process-level) host-buffer access.
pub fn on_host_access(buf: u64, start: usize, len: usize, write: bool) {
    on_access(
        MemRange {
            domain: MemDomain::Host { buf },
            start,
            len,
        },
        write,
    );
}

/// Check a direct (process-level) device-memory access.
pub fn on_dev_access(gpu: u64, start: usize, len: usize, write: bool) {
    on_access(
        MemRange {
            domain: MemDomain::Dev { gpu },
            start,
            len,
        },
        write,
    );
}

fn on_access(range: MemRange, write: bool) {
    if !enabled() || range.len == 0 || suppressed() {
        return;
    }
    with_active_san!(|sd, pid, name, now| {
        sd.gc(now);
        let hb = sd.acquired.get(&pid).cloned().unwrap_or_default();
        let (reads, writes) = if write {
            (vec![], vec![range])
        } else {
            (vec![range], vec![])
        };
        sd.check_ranges(now, "process", &reads, &writes, &hb, now, &name);
    });
}

/// Snapshot the calling process's acquired set for transfer across a
/// channel (a mailbox message). `None` when off.
pub fn channel_token() -> Option<SanToken> {
    if !enabled() {
        return None;
    }
    let (kernel, pid) = current_ctx()?;
    let sd = kernel.san_lock();
    if sd.mode == SanitizerMode::Off {
        return None;
    }
    Some(SanToken {
        ids: sd
            .acquired
            .get(&pid.0)
            .map(|a| a.iter().copied().collect())
            .unwrap_or_default(),
    })
}

/// Merge a token received over a channel into the calling process's
/// acquired set.
pub fn merge_token(token: &SanToken) {
    if !enabled() || token.ids.is_empty() {
        return;
    }
    with_active_san!(|sd, pid, _name, _now| {
        sd.acquired
            .entry(pid)
            .or_default()
            .extend(token.ids.iter().copied());
    });
}

/// Register a named buffer pool for leak accounting. Returns `None` when
/// the sanitizer is off (the id can then be ignored).
pub fn pool_register(name: impl Into<String>) -> Option<PoolId> {
    if !enabled() {
        return None;
    }
    let (kernel, _pid) = current_ctx()?;
    let mut sd = kernel.san_lock();
    if sd.mode == SanitizerMode::Off {
        return None;
    }
    sd.pools.push(PoolInfo {
        name: name.into(),
        outstanding: 0,
        takes: 0,
    });
    Some(PoolId(sd.pools.len() - 1))
}

/// Record one buffer taken from the pool.
pub fn pool_take(pool: Option<PoolId>) {
    let Some(PoolId(idx)) = pool else { return };
    with_active_san!(|sd, _pid, _name, _now| {
        if let Some(p) = sd.pools.get_mut(idx) {
            p.outstanding += 1;
            p.takes += 1;
        }
    });
}

/// Record one buffer returned to the pool.
pub fn pool_put(pool: Option<PoolId>) {
    let Some(PoolId(idx)) = pool else { return };
    with_active_san!(|sd, _pid, _name, _now| {
        if let Some(p) = sd.pools.get_mut(idx) {
            p.outstanding -= 1;
        }
    });
}

/// Register a declarative invariant. Idempotent per [`Invariant::name`]:
/// the first registration wins (so every rank's engine can try). No-op
/// when the sanitizer is off.
pub fn register_invariant(inv: Invariant) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, _pid, _name, _now| {
        if !sd.invariants.iter().any(|i| i.name == inv.name) {
            sd.invariants.push(inv);
        }
    });
}

/// Add `delta` to protocol gauge `(scope, name)`, then evaluate every
/// online invariant against the updated state. Violations are attributed
/// to the calling process at the current virtual time; each distinct
/// violation is reported once.
pub fn proto_event(scope: &str, name: &'static str, delta: i64) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, _pid, pname, now| {
        *sd.gauges.entry((scope.to_string(), name)).or_insert(0) += delta;
        sd.eval_invariants(now, &pname, "online", |i| i.online);
    });
}

/// Set protocol gauge `(scope, name)` to `value`, then evaluate online
/// invariants (see [`proto_event`]).
pub fn proto_set(scope: &str, name: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, _pid, pname, now| {
        sd.gauges.insert((scope.to_string(), name), value);
        sd.eval_invariants(now, &pname, "online", |i| i.online);
    });
}

/// Evaluate every invariant registered for checkpoint `phase` (e.g. a
/// rank calling it with `"finalize"` once its requests are drained). The
/// phase `"exit"` also runs automatically when `Sim::run` returns.
pub fn invariant_checkpoint(phase: &'static str) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, _pid, pname, now| {
        sd.eval_invariants(now, &pname, phase, |i| i.checkpoints.contains(&phase));
    });
}

/// Report a protocol-level violation (rendezvous state machine, RDMA
/// registration, flow control) attributed to the calling process.
pub fn report_protocol(message: impl Into<String>) {
    if !enabled() {
        return;
    }
    let message = message.into();
    with_active_san!(|sd, _pid, name, now| {
        sd.emit(now, name, ReportKind::Protocol, message);
    });
}

/// Note what the calling process is about to block on (for the deadlock
/// wait-for graph). The closure only runs when the sanitizer is active.
pub fn note_blocked(desc: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, pid, _name, _now| {
        let d = desc();
        sd.blocked.insert(pid, d);
    });
}

/// Clear the calling process's blocked-on note (call after waking).
pub fn clear_blocked() {
    if !enabled() {
        return;
    }
    with_active_san!(|sd, pid, _name, _now| {
        sd.blocked.remove(&pid);
    });
}

/// Describe a set of operation ids (used in blocking notes).
pub fn describe_ops(ops: &[OpId]) -> String {
    if ops.is_empty() {
        return "completion (no attached op)".to_string();
    }
    if let Some((kernel, _pid)) = current_ctx() {
        let sd = kernel.san_lock();
        return ops
            .iter()
            .map(|o| sd.describe_op(o.0))
            .collect::<Vec<_>>()
            .join(", ");
    }
    "completion".to_string()
}

// --- kernel-side hooks (called from Sim::run, not from processes) ----------

impl SanData {
    /// Reconcile pool accounting at simulation exit. Returns leak reports
    /// (already recorded); the caller panics in `Panic` mode.
    pub(crate) fn reconcile_pools(&mut self, now: SimTime) -> Vec<Report> {
        if self.mode == SanitizerMode::Off {
            return Vec::new();
        }
        let leaks: Vec<Report> = self
            .pools
            .iter()
            .filter(|p| p.outstanding != 0)
            .map(|p| Report {
                time: now,
                process: "kernel".to_string(),
                kind: ReportKind::PoolLeak,
                message: format!(
                    "pool '{}' reconciliation at simulation exit: {} buffer(s) outstanding \
                     after {} take(s)",
                    p.name, p.outstanding, p.takes
                ),
            })
            .collect();
        self.reports.extend(leaks.iter().cloned());
        leaks
    }

    /// Run the `"exit"` checkpoint invariants at simulation exit. Returns
    /// the new violation reports (already recorded); the caller panics in
    /// `Panic` mode, mirroring [`reconcile_pools`](Self::reconcile_pools).
    pub(crate) fn exit_invariants(&mut self, now: SimTime) -> Vec<Report> {
        if self.mode == SanitizerMode::Off || self.invariants.is_empty() {
            return Vec::new();
        }
        let invariants = std::mem::take(&mut self.invariants);
        let mut found: Vec<(&'static str, String)> = Vec::new();
        {
            let view = ProtoView {
                gauges: &self.gauges,
                pools: &self.pools,
                phase: "exit",
            };
            for inv in invariants
                .iter()
                .filter(|i| i.checkpoints.contains(&"exit"))
            {
                for msg in (inv.check)(&view) {
                    found.push((inv.name, msg));
                }
            }
        }
        self.invariants = invariants;
        let mut out = Vec::new();
        for (name, msg) in found {
            if self.inv_reported.insert(format!("{name}: {msg}")) {
                let r = Report {
                    time: now,
                    process: "kernel".to_string(),
                    kind: ReportKind::Invariant,
                    message: format!("invariant '{name}' violated: {msg}"),
                };
                self.reports.push(r.clone());
                out.push(r);
            }
        }
        out
    }

    /// Build the deadlock wait-for graph and record one report per parked
    /// process. `parked` is `(pid, name, park reason)`.
    pub(crate) fn deadlock_graph(
        &mut self,
        now: SimTime,
        parked: &[(usize, String, &'static str)],
    ) -> Option<String> {
        if self.mode == SanitizerMode::Off {
            return None;
        }
        let mut lines = Vec::new();
        for (pid, name, reason) in parked {
            let target = self
                .blocked
                .get(pid)
                .cloned()
                .unwrap_or_else(|| format!("<{reason}>"));
            lines.push(format!("  {name} (parked: {reason}) -> {target}"));
            self.reports.push(Report {
                time: now,
                process: name.clone(),
                kind: ReportKind::Deadlock,
                message: format!(
                    "parked ({reason}) waiting on {target} in a deadlocked simulation"
                ),
            });
        }
        Some(format!("wait-for graph:\n{}", lines.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Sim;
    use crate::time::SimDur;
    use crate::Completion;

    #[test]
    fn hooks_are_noops_when_off() {
        let sim = Sim::new();
        sim.spawn("p", || {
            // All hooks must silently do nothing with the sanitizer off.
            assert!(begin_op(OpDesc {
                kind: "test",
                queue: (0, 0),
                preds: vec![],
                reads: vec![],
                writes: vec![],
            })
            .is_none());
            on_host_access(1, 0, 64, true);
            acquire_ops(&[OpId(7)]);
            assert!(channel_token().is_none());
            assert!(pool_register("x").is_none());
        });
        sim.run();
        assert!(sim.sanitizer_reports().is_empty());
    }

    #[test]
    fn unwaited_op_access_is_reported() {
        let sim = Sim::new();
        sim.set_sanitizer(SanitizerMode::Collect);
        sim.spawn("victim", || {
            let op = begin_op(OpDesc {
                kind: "memcpy_async(D2H)",
                queue: (0, 0),
                preds: vec![],
                reads: vec![],
                writes: vec![MemRange {
                    domain: MemDomain::Host { buf: 42 },
                    start: 0,
                    len: 1024,
                }],
            });
            op_complete_at(op, crate::now() + SimDur::from_micros(10));
            // Touch the buffer while the copy is still in flight.
            on_host_access(42, 100, 8, false);
        });
        sim.run();
        let reports = sim.sanitizer_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, ReportKind::Race);
        assert_eq!(reports[0].process, "victim");
        assert!(reports[0].message.contains("memcpy_async(D2H)"));
    }

    #[test]
    fn waiting_creates_a_happens_before_edge() {
        let sim = Sim::new();
        sim.set_sanitizer(SanitizerMode::Panic);
        sim.spawn("p", || {
            let op = begin_op(OpDesc {
                kind: "memcpy_async(D2H)",
                queue: (0, 0),
                preds: vec![],
                reads: vec![],
                writes: vec![MemRange {
                    domain: MemDomain::Host { buf: 7 },
                    start: 0,
                    len: 64,
                }],
            });
            let end = crate::now() + SimDur::from_micros(5);
            op_complete_at(op, end);
            let c = Completion::ready_at(end);
            if let Some(op) = op {
                c.attach_ops(&[op]);
            }
            c.wait();
            on_host_access(7, 0, 64, false); // clean: acquired via wait
        });
        sim.run();
        assert!(sim.sanitizer_reports().is_empty());
    }

    #[test]
    fn disjoint_ranges_do_not_conflict() {
        let sim = Sim::new();
        sim.set_sanitizer(SanitizerMode::Panic);
        sim.spawn("p", || {
            let op = begin_op(OpDesc {
                kind: "memcpy_async(H2D)",
                queue: (0, 0),
                preds: vec![],
                reads: vec![MemRange {
                    domain: MemDomain::Host { buf: 1 },
                    start: 0,
                    len: 100,
                }],
                writes: vec![],
            });
            op_complete_at(op, crate::now() + SimDur::from_micros(5));
            on_host_access(1, 200, 50, true); // disjoint: ok
            on_host_access(2, 0, 50, true); // other buffer: ok
            on_host_access(1, 50, 25, false); // read vs read: ok
        });
        sim.run();
    }

    #[test]
    fn pool_leak_is_reconciled_at_exit() {
        let sim = Sim::new();
        sim.set_sanitizer(SanitizerMode::Collect);
        sim.spawn("leaky", || {
            let pool = pool_register("vbufs");
            pool_take(pool);
            pool_take(pool);
            pool_put(pool);
            // One buffer never returned.
        });
        sim.run();
        let reports = sim.sanitizer_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, ReportKind::PoolLeak);
        assert!(reports[0].message.contains("vbufs"));
        assert!(reports[0].message.contains("1 buffer(s) outstanding"));
    }

    #[test]
    fn token_transfer_propagates_acquisition() {
        let sim = Sim::new();
        sim.set_sanitizer(SanitizerMode::Panic);
        let mb = crate::Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                let op = begin_op(OpDesc {
                    kind: "memcpy_async(D2H)",
                    queue: (0, 0),
                    preds: vec![],
                    reads: vec![],
                    writes: vec![MemRange {
                        domain: MemDomain::Host { buf: 9 },
                        start: 0,
                        len: 64,
                    }],
                });
                let end = crate::now() + SimDur::from_micros(3);
                op_complete_at(op, end);
                let c = Completion::ready_at(end);
                if let Some(op) = op {
                    c.attach_ops(&[op]);
                }
                c.wait();
                mb.send(0u8); // the token rides along
            });
        }
        sim.spawn("consumer", move || {
            let _ = mb.recv();
            on_host_access(9, 0, 64, false); // clean: HB via the message
        });
        sim.run();
    }
}
