//! The CUDA-like device API: memory management, streams, 1-D/2-D copies
//! (sync + async) and kernel launches.
//!
//! # Fidelity notes
//!
//! * **Bytes move eagerly, once, row to row; time settles later.**
//!   Enqueuing a copy performs the byte movement immediately — each row
//!   goes straight from its source to its destination, both extents
//!   validated once per operation, nothing staged in between — and returns
//!   a [`Completion`] for the modeled finish instant. Because enqueue order
//!   equals program order and simulated code only observes data after
//!   waiting/polling completions, this is indistinguishable from deferred
//!   copying for race-free programs (racy programs are undefined behaviour
//!   on real CUDA too).
//! * **Engines.** Fermi exposes two PCIe copy engines (H2D and D2H) that
//!   run concurrently with the compute engine; strided device-internal
//!   copies get their own queue (they execute as small DMA/kernel programs).
//!   An operation starts when both its stream's previous op and its engine
//!   are free.
//! * **Sync vs async.** Synchronous calls (`cudaMemcpy`, `cudaMemcpy2D`)
//!   block the calling process until the engine finishes. Asynchronous calls
//!   cost [`CostModel::async_submit_ns`] of CPU time and return immediately.

use std::sync::Arc;

use hostmem::{HostPtr, Scalar};
use sim_core::lock::Mutex;
use sim_core::san;
use sim_core::{CallCounters, Completion, SimDur, SimTime};

use crate::cost::{CopyDir, CostModel, Shape2D};
use crate::mem::{DevPtr, DeviceMem, DeviceOom};

/// Either side of a copy: host memory or device memory. This is the
/// simulator's Unified Virtual Addressing: any API that accepts a `Loc` can
/// discover where the buffer lives, exactly like `cuPointerGetAttribute`.
#[derive(Clone, Debug)]
pub enum Loc {
    /// Host memory.
    Host(HostPtr),
    /// Device memory.
    Device(DevPtr),
}

impl Loc {
    /// True if the location is in device memory.
    pub fn is_device(&self) -> bool {
        matches!(self, Loc::Device(_))
    }

    /// A location `bytes` further along.
    pub fn add(&self, bytes: usize) -> Loc {
        match self {
            Loc::Host(p) => Loc::Host(p.add(bytes)),
            Loc::Device(p) => Loc::Device(p.add(bytes)),
        }
    }
}

impl From<HostPtr> for Loc {
    fn from(p: HostPtr) -> Self {
        Loc::Host(p)
    }
}

impl From<DevPtr> for Loc {
    fn from(p: DevPtr) -> Self {
        Loc::Device(p)
    }
}

/// Parameters of a 2-D (pitched) copy, mirroring `cudaMemcpy2D`:
/// `height` rows of `width` bytes, rows `dpitch`/`spitch` bytes apart.
#[derive(Clone, Debug)]
pub struct Copy2d {
    /// Destination base address.
    pub dst: Loc,
    /// Destination pitch (bytes between row starts); must be >= `width`.
    pub dpitch: usize,
    /// Source base address.
    pub src: Loc,
    /// Source pitch (bytes between row starts); must be >= `width`.
    pub spitch: usize,
    /// Row width in bytes.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
}

impl Copy2d {
    fn validate(&self) {
        assert!(
            self.spitch >= self.width && self.dpitch >= self.width,
            "Copy2d: pitch smaller than width ({} / {} < {})",
            self.spitch,
            self.dpitch,
            self.width
        );
    }

    fn dir(&self) -> CopyDir {
        match (&self.src, &self.dst) {
            (Loc::Host(_), Loc::Device(_)) => CopyDir::H2D,
            (Loc::Device(_), Loc::Host(_)) => CopyDir::D2H,
            (Loc::Device(_), Loc::Device(_)) => CopyDir::D2D,
            (Loc::Host(_), Loc::Host(_)) => {
                panic!("Copy2d: host-to-host copies do not involve the GPU")
            }
        }
    }

    fn shape(&self) -> Shape2D {
        if self.height <= 1 {
            return Shape2D::Contiguous;
        }
        match (self.spitch == self.width, self.dpitch == self.width) {
            (true, true) => Shape2D::Contiguous,
            (false, false) => Shape2D::BothStrided,
            _ => Shape2D::OneStrided,
        }
    }
}

/// Copy rows of `w` bytes from `src`, `spitch` apart, to `dst`, `dpitch`
/// apart. Each slice spans exactly its side's extent (so its last chunk is
/// one row wide). The row widths a scalar or a small vector element has get
/// a fixed-size copy — a load and a store, not a `memcpy` call.
fn copy_rows(dst: &mut [u8], dpitch: usize, src: &[u8], spitch: usize, w: usize) {
    fn fixed<const W: usize>(dst: &mut [u8], dpitch: usize, src: &[u8], spitch: usize) {
        for (d, s) in dst.chunks_mut(dpitch).zip(src.chunks(spitch)) {
            d[..W].copy_from_slice(&s[..W]);
        }
    }
    if dpitch == w && spitch == w {
        return dst.copy_from_slice(src);
    }
    match w {
        4 => fixed::<4>(dst, dpitch, src, spitch),
        8 => fixed::<8>(dst, dpitch, src, spitch),
        16 => fixed::<16>(dst, dpitch, src, spitch),
        _ => {
            for (d, s) in dst.chunks_mut(dpitch).zip(src.chunks(spitch)) {
                d[..w].copy_from_slice(&s[..w]);
            }
        }
    }
}

const ENGINES: usize = 4;
const ENG_H2D: usize = 0;
const ENG_D2H: usize = 1;
const ENG_D2D: usize = 2;
const ENG_COMPUTE: usize = 3;

/// Queue-wait counter name per engine (see [`Gpu::queue_waits`]).
const ENGINE_WAIT: [&str; ENGINES] = [
    "queue_wait.h2d",
    "queue_wait.d2h",
    "queue_wait.d2d",
    "queue_wait.compute",
];

fn engine_for(dir: CopyDir) -> usize {
    match dir {
        CopyDir::H2D => ENG_H2D,
        CopyDir::D2H => ENG_D2H,
        CopyDir::D2D => ENG_D2D,
    }
}

struct Sched {
    engine_free: [SimTime; ENGINES],
    stream_end: Vec<SimTime>,
    /// Sanitizer: last operation scheduled on each engine.
    engine_last: [Option<san::OpId>; ENGINES],
    /// Sanitizer: last operation scheduled on each stream.
    stream_last: Vec<Option<san::OpId>>,
    /// Sanitizer: event ops a stream must order after (from `wait_event`),
    /// drained into the next operation's predecessors.
    stream_pending: Vec<Vec<san::OpId>>,
}

struct GpuInner {
    id: u32,
    cost: CostModel,
    mem: Mutex<DeviceMem>,
    sched: Mutex<Sched>,
    counters: CallCounters,
    /// Engine queue-wait accounting: nanoseconds each operation waited on
    /// a busy engine beyond its stream dependency (`queue_wait.{engine}`
    /// plus the `queue_wait_ns` total). Kept separate from `counters` so
    /// [`Gpu::attach_recorder`]'s metrics namespace is unchanged; sharing
    /// layers (a multi-job cluster) read it via [`Gpu::queue_waits`] and
    /// register it under their own scope.
    queue_wait: CallCounters,
    /// Sanitizer queue domain for this device (unique per instance).
    san_domain: u64,
    /// Trace lanes, one per engine, when a recorder is attached.
    trace: Mutex<Option<[sim_trace::Lane; ENGINES]>>,
    /// Event monitor (see [`Gpu::attach_event_monitor`]): every scheduled
    /// operation's completion also wakes this component. `None` (default)
    /// skips the hook entirely.
    monitor: Mutex<Option<MonitorHook>>,
}

/// An attached completion monitor: the component's waker plus the shared
/// cell where its ticks record the latest completion instant seen.
type MonitorHook = (sim_core::Waker, Arc<Mutex<Option<SimTime>>>);

/// Stackless observer of a device's operation completions: woken (with
/// coalescing) at each operation's finish instant, it records the latest
/// completion it has seen. Purely observational — attaching it never moves
/// an event.
struct EngineMonitor {
    last_seen: Arc<Mutex<Option<SimTime>>>,
}

impl sim_core::Component for EngineMonitor {
    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        let mut last = self.last_seen.lock();
        if last.is_none_or(|t| t < now) {
            *last = Some(now);
        }
        None
    }
}

/// One simulated GPU. Clones are shallow handles to the same device.
#[derive(Clone)]
pub struct Gpu {
    inner: Arc<GpuInner>,
}

/// An ordered operation queue on a [`Gpu`] (a CUDA stream). Operations on
/// one stream serialize; operations on different streams overlap subject to
/// engine availability.
#[derive(Clone)]
pub struct Stream {
    gpu: Gpu,
    idx: usize,
}

impl Gpu {
    /// Create a device with `mem_bytes` of device memory.
    pub fn new(id: u32, cost: CostModel, mem_bytes: usize) -> Self {
        let gpu = Gpu {
            inner: Arc::new(GpuInner {
                id,
                cost,
                mem: Mutex::new(DeviceMem::new(mem_bytes)),
                sched: Mutex::new(Sched {
                    engine_free: [SimTime::ZERO; ENGINES],
                    stream_end: Vec::new(),
                    engine_last: [None; ENGINES],
                    stream_last: Vec::new(),
                    stream_pending: Vec::new(),
                }),
                counters: CallCounters::new(),
                queue_wait: CallCounters::new(),
                san_domain: san::new_queue_domain(),
                trace: Mutex::new(None),
                monitor: Mutex::new(None),
            }),
        };
        // Stream 0: used by the synchronous copy API.
        gpu.create_stream();
        gpu
    }

    /// A Tesla C2050-like device: calibrated cost model, 3 GB of memory.
    pub fn tesla_c2050(id: u32) -> Self {
        Gpu::new(id, CostModel::tesla_c2050(), 3 << 30)
    }

    /// Device id.
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// This device's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// API call counters (for code-complexity instrumentation).
    pub fn counters(&self) -> &CallCounters {
        &self.inner.counters
    }

    /// Engine queue-wait accounting: total nanoseconds operations spent
    /// waiting on a busy engine beyond their stream dependency, as
    /// `queue_wait_ns` plus a per-engine `queue_wait.{h2d,d2h,d2d,compute}`
    /// breakdown. On a device shared by several jobs this is the
    /// contention a tenant actually felt; sharing layers register the set
    /// under their own metrics scope. Not part of
    /// [`Gpu::attach_recorder`]'s namespace.
    pub fn queue_waits(&self) -> &CallCounters {
        &self.inner.queue_wait
    }

    /// Attach a trace recorder: every scheduled operation emits a busy span
    /// on its engine's lane (`gpu<id>/{h2d,d2h,d2d,compute}`), and this
    /// device's call counters join the recorder's metrics registry. Purely
    /// observational — virtual-time behavior is unchanged.
    pub fn attach_recorder(&self, rec: &sim_trace::Recorder) {
        let scope = format!("gpu{}", self.inner.id);
        let lane = |name| rec.lane(&scope, name, sim_trace::LaneKind::GpuEngine);
        *self.inner.trace.lock() = Some([lane("h2d"), lane("d2h"), lane("d2d"), lane("compute")]);
        rec.register_counters(&scope, &self.inner.counters);
    }

    /// Register a stackless completion monitor on `sim`'s kernel: every
    /// operation scheduled on this device wakes the component at its finish
    /// instant (coalesced), turning stream/copy completions into component
    /// wakes. Observational only — attaching it never changes the timing of
    /// any operation, completion, or waiter. Returns the monitor's waker
    /// (its tick count = distinct completion instants observed).
    pub fn attach_event_monitor(&self, sim: &sim_core::Sim) -> sim_core::Waker {
        let last_seen = Arc::new(Mutex::new(None));
        let w = sim.add_component(
            format!("gpu{}.events", self.inner.id),
            EngineMonitor {
                last_seen: Arc::clone(&last_seen),
            },
        );
        *self.inner.monitor.lock() = Some((w.clone(), last_seen));
        w
    }

    /// Latest completion instant the event monitor has observed (`None`
    /// without [`attach_event_monitor`](Gpu::attach_event_monitor) or before
    /// the first completion).
    pub fn last_completion_seen(&self) -> Option<SimTime> {
        self.inner
            .monitor
            .lock()
            .as_ref()
            .and_then(|(_, last)| *last.lock())
    }

    // --- memory management -------------------------------------------------

    /// Allocate `len` bytes of device memory (`cudaMalloc`). Panics on OOM.
    pub fn malloc(&self, len: usize) -> DevPtr {
        self.try_malloc(len).expect("cudaMalloc failed")
    }

    /// Allocate, reporting OOM as an error. `cudaMalloc` synchronizes with
    /// the device and is expensive — which is why the MPI layer pools its
    /// staging buffers instead of allocating per message.
    pub fn try_malloc(&self, len: usize) -> Result<DevPtr, DeviceOom> {
        self.inner.counters.record("cudaMalloc");
        if sim_core::in_sim() {
            sim_core::sleep(SimDur::from_nanos(self.inner.cost.malloc_ns));
        }
        let offset = self.inner.mem.lock().alloc(len)?;
        Ok(DevPtr {
            gpu_id: self.inner.id,
            offset,
        })
    }

    /// Free a device allocation (`cudaFree`).
    pub fn free(&self, ptr: DevPtr) {
        self.inner.counters.record("cudaFree");
        self.check_owned(ptr);
        self.inner.mem.lock().dealloc(ptr.offset);
    }

    /// Bytes currently allocated.
    pub fn mem_allocated(&self) -> usize {
        self.inner.mem.lock().bytes_allocated()
    }

    /// Total device memory.
    pub fn mem_capacity(&self) -> usize {
        self.inner.mem.lock().capacity()
    }

    /// Number of live allocations (leak checking).
    pub fn live_allocs(&self) -> usize {
        self.inner.mem.lock().live_allocs()
    }

    fn check_owned(&self, ptr: DevPtr) {
        assert_eq!(
            ptr.gpu_id, self.inner.id,
            "device pointer belongs to gpu{}, used on gpu{}",
            ptr.gpu_id, self.inner.id
        );
    }

    // --- streams ------------------------------------------------------------

    /// Create a new stream.
    pub fn create_stream(&self) -> Stream {
        let mut sched = self.inner.sched.lock();
        let idx = sched.stream_end.len();
        sched.stream_end.push(SimTime::ZERO);
        sched.stream_last.push(None);
        sched.stream_pending.push(Vec::new());
        Stream {
            gpu: self.clone(),
            idx,
        }
    }

    fn sync_stream(&self) -> Stream {
        Stream {
            gpu: self.clone(),
            idx: 0,
        }
    }

    /// Block until every engine and stream is idle (`cudaDeviceSynchronize`).
    pub fn synchronize(&self) {
        self.inner.counters.record("cudaDeviceSynchronize");
        let t = {
            let sched = self.inner.sched.lock();
            let mut t = SimTime::ZERO;
            for &e in &sched.engine_free {
                t = t.max(e);
            }
            for &s in &sched.stream_end {
                t = t.max(s);
            }
            t
        };
        if sim_core::now() < t {
            sim_core::sleep_until(t);
        }
        san::acquire_queue(self.inner.san_domain, None);
    }

    /// Sanitizer: the range a side of a pitched copy covers.
    fn loc_range(&self, loc: &Loc, pitch: usize, width: usize, height: usize) -> san::MemRange {
        let len = if width == 0 || height == 0 {
            0
        } else {
            (height - 1) * pitch + width
        };
        match loc {
            Loc::Host(hp) => san::MemRange {
                domain: san::MemDomain::Host { buf: hp.buf().id() },
                start: hp.offset(),
                len,
            },
            Loc::Device(dp) => san::MemRange {
                domain: san::MemDomain::Dev {
                    gpu: self.inner.id as u64,
                },
                start: dp.offset(),
                len,
            },
        }
    }

    /// Sanitizer: the range of a contiguous device-memory operation.
    fn dev_range(&self, ptr: DevPtr, len: usize) -> san::MemRange {
        san::MemRange {
            domain: san::MemDomain::Dev {
                gpu: self.inner.id as u64,
            },
            start: ptr.offset(),
            len,
        }
    }

    /// Sanitizer: register a 1-D/2-D copy as an operation reading the
    /// source extent and writing the destination extent.
    fn san_op_for_copy(
        &self,
        base: &'static str,
        p: &Copy2d,
        stream: &Stream,
    ) -> Option<san::OpId> {
        if !san::enabled() {
            return None;
        }
        let dir = p.dir();
        let kind = match (base, dir) {
            ("memcpy", CopyDir::H2D) => "memcpy(H2D)",
            ("memcpy", CopyDir::D2H) => "memcpy(D2H)",
            ("memcpy", CopyDir::D2D) => "memcpy(D2D)",
            ("memcpy_2d", CopyDir::H2D) => "memcpy_2d(H2D)",
            ("memcpy_2d", CopyDir::D2H) => "memcpy_2d(D2H)",
            ("memcpy_2d", CopyDir::D2D) => "memcpy_2d(D2D)",
            ("memcpy_async", CopyDir::H2D) => "memcpy_async(H2D)",
            ("memcpy_async", CopyDir::D2H) => "memcpy_async(D2H)",
            ("memcpy_async", CopyDir::D2D) => "memcpy_async(D2D)",
            ("memcpy_2d_async", CopyDir::H2D) => "memcpy_2d_async(H2D)",
            ("memcpy_2d_async", CopyDir::D2H) => "memcpy_2d_async(D2H)",
            ("memcpy_2d_async", CopyDir::D2D) => "memcpy_2d_async(D2D)",
            _ => base,
        };
        let reads = vec![self.loc_range(&p.src, p.spitch, p.width, p.height)];
        let writes = vec![self.loc_range(&p.dst, p.dpitch, p.width, p.height)];
        self.san_begin(kind, stream, engine_for(dir), reads, writes)
    }

    /// Sanitizer: register an operation about to be scheduled on
    /// `(stream, engine)`, ordered after the stream's previous op, any
    /// pending event waits, and the engine's previous op.
    fn san_begin(
        &self,
        kind: &'static str,
        stream: &Stream,
        engine: usize,
        reads: Vec<san::MemRange>,
        writes: Vec<san::MemRange>,
    ) -> Option<san::OpId> {
        if !san::enabled() {
            return None;
        }
        let mut preds = Vec::new();
        {
            let mut sched = self.inner.sched.lock();
            if let Some(p) = sched.stream_last[stream.idx] {
                preds.push(p);
            }
            preds.append(&mut sched.stream_pending[stream.idx]);
            if let Some(p) = sched.engine_last[engine] {
                preds.push(p);
            }
        }
        san::begin_op(san::OpDesc {
            kind,
            queue: (self.inner.san_domain, stream.idx as u64),
            preds,
            reads,
            writes,
        })
    }

    /// Reserve time on (stream, engine) and return the completion. The
    /// operation starts when both the stream's previous op and the engine
    /// are free.
    fn schedule(
        &self,
        kind: &'static str,
        stream: &Stream,
        engine: usize,
        dur: SimDur,
        op: Option<san::OpId>,
    ) -> Completion {
        assert!(
            sim_core::in_sim(),
            "GPU operations with timing must run inside a simulation process"
        );
        let now = sim_core::now();
        let (start, end) = {
            let mut sched = self.inner.sched.lock();
            // `ready`: when the op could start were the engine free (its
            // stream dependency); any further delay is queue wait on the
            // engine — contention from other streams or, on a shared
            // device, other jobs.
            let ready = now.max(sched.stream_end[stream.idx]);
            let start = ready.max(sched.engine_free[engine]);
            let wait = (start - ready).as_nanos();
            if wait > 0 {
                self.inner.queue_wait.add(ENGINE_WAIT[engine], wait);
                self.inner.queue_wait.add("queue_wait_ns", wait);
            }
            let end = start + dur;
            sched.stream_end[stream.idx] = end;
            sched.engine_free[engine] = end;
            if op.is_some() {
                sched.stream_last[stream.idx] = op;
                sched.engine_last[engine] = op;
            }
            (start, end)
        };
        san::op_complete_at(op, end);
        if let Some(lanes) = &*self.inner.trace.lock() {
            lanes[engine].span(kind, start, end);
        }
        let c = Completion::ready_between(start, end);
        if let Some(o) = op {
            c.attach_ops(&[o]);
        }
        if let Some((w, _)) = &*self.inner.monitor.lock() {
            c.notify_component(w);
        }
        c
    }

    // --- data plane ----------------------------------------------------------

    /// Move bytes for a 2-D copy right now (no virtual time involved): both
    /// extents are validated before the first byte moves, then every row is
    /// copied once, source to destination. Overlapping source and
    /// destination rows are undefined, as on the device.
    fn do_copy2d_bytes(&self, p: &Copy2d) {
        p.validate();
        let (w, h) = (p.width, p.height);
        if w == 0 || h == 0 {
            return;
        }
        // The declared ranges were checked when the op was registered; the
        // eager byte movement below must not re-trigger process-level checks.
        let _san = san::suppress();
        let (sext, dext) = ((h - 1) * p.spitch + w, (h - 1) * p.dpitch + w);
        // Lock the device and check one side's extent against its allocation.
        let device = |ptr: &DevPtr, extent| {
            self.check_owned(*ptr);
            let mem = self.inner.mem.lock();
            mem.check_access(ptr.offset, extent);
            mem
        };
        match (&p.src, &p.dst) {
            (Loc::Device(sp), Loc::Device(dp)) => {
                self.check_owned(*dp);
                let mut mem = device(sp, sext);
                mem.check_access(dp.offset, dext);
                let (s0, d0) = (sp.offset, dp.offset);
                let arena = &mut mem.arena[..];
                if s0 + sext <= d0 {
                    let (lo, hi) = arena.split_at_mut(d0);
                    copy_rows(&mut hi[..dext], p.dpitch, &lo[s0..s0 + sext], p.spitch, w);
                } else if d0 + dext <= s0 {
                    let (lo, hi) = arena.split_at_mut(s0);
                    copy_rows(&mut lo[d0..d0 + dext], p.dpitch, &hi[..sext], p.spitch, w);
                } else {
                    // Interleaved extents (rows of one allocation): no
                    // disjoint borrow exists, so row by row in place.
                    for r in 0..h {
                        let s = s0 + r * p.spitch;
                        arena.copy_within(s..s + w, d0 + r * p.dpitch);
                    }
                }
            }
            (Loc::Host(hp), Loc::Device(dp)) => hp.buf().with_slice(|host| {
                let src = &host[hp.offset()..][..sext];
                let mut mem = device(dp, dext);
                copy_rows(
                    &mut mem.arena[dp.offset..][..dext],
                    p.dpitch,
                    src,
                    p.spitch,
                    w,
                );
            }),
            (Loc::Device(sp), Loc::Host(hp)) => hp.buf().with_slice(|host| {
                let mem = device(sp, sext);
                let dst = &mut host[hp.offset()..][..dext];
                copy_rows(dst, p.dpitch, &mem.arena[sp.offset..][..sext], p.spitch, w);
            }),
            (Loc::Host(_), Loc::Host(_)) => {
                panic!("Copy2d: host-to-host copies do not involve the GPU")
            }
        }
    }

    fn copy1d_params(dst: Loc, src: Loc, len: usize) -> Copy2d {
        Copy2d {
            dst,
            dpitch: len.max(1),
            src,
            spitch: len.max(1),
            width: len,
            height: 1,
        }
    }

    // --- synchronous copies ---------------------------------------------------

    /// `cudaMemcpy`: contiguous blocking copy. Direction is inferred from the
    /// locations.
    pub fn memcpy(&self, dst: impl Into<Loc>, src: impl Into<Loc>, len: usize) {
        self.inner.counters.record("cudaMemcpy");
        let p = Self::copy1d_params(dst.into(), src.into(), len);
        let dur = self.inner.cost.copy1d(p.dir(), len as u64);
        let stream = self.sync_stream();
        let op = self.san_op_for_copy("memcpy", &p, &stream);
        self.do_copy2d_bytes(&p);
        self.schedule("memcpy", &stream, engine_for(p.dir()), dur, op)
            .wait();
    }

    /// `cudaMemcpy2D`: pitched blocking copy.
    pub fn memcpy_2d(&self, p: Copy2d) {
        self.inner.counters.record("cudaMemcpy2D");
        let dur = self
            .inner
            .cost
            .copy2d(p.dir(), p.shape(), p.width as u64, p.height as u64);
        let stream = self.sync_stream();
        let op = self.san_op_for_copy("memcpy_2d", &p, &stream);
        self.do_copy2d_bytes(&p);
        self.schedule("memcpy_2d", &stream, engine_for(p.dir()), dur, op)
            .wait();
    }

    // --- asynchronous copies ----------------------------------------------------

    /// `cudaMemcpyAsync`: contiguous copy enqueued on `stream`.
    pub fn memcpy_async(
        &self,
        dst: impl Into<Loc>,
        src: impl Into<Loc>,
        len: usize,
        stream: &Stream,
    ) -> Completion {
        self.inner.counters.record("cudaMemcpyAsync");
        sim_core::sleep(SimDur::from_nanos(self.inner.cost.async_submit_ns));
        let p = Self::copy1d_params(dst.into(), src.into(), len);
        let dur = self.inner.cost.copy1d(p.dir(), len as u64);
        let op = self.san_op_for_copy("memcpy_async", &p, stream);
        self.do_copy2d_bytes(&p);
        self.schedule("memcpy_async", stream, engine_for(p.dir()), dur, op)
    }

    /// `cudaMemcpy2DAsync`: pitched copy enqueued on `stream`.
    pub fn memcpy_2d_async(&self, p: Copy2d, stream: &Stream) -> Completion {
        self.inner.counters.record("cudaMemcpy2DAsync");
        sim_core::sleep(SimDur::from_nanos(self.inner.cost.async_submit_ns));
        let dur = self
            .inner
            .cost
            .copy2d(p.dir(), p.shape(), p.width as u64, p.height as u64);
        let op = self.san_op_for_copy("memcpy_2d_async", &p, stream);
        self.do_copy2d_bytes(&p);
        self.schedule("memcpy_2d_async", stream, engine_for(p.dir()), dur, op)
    }

    /// `cudaMemset`: blocking fill of device memory.
    pub fn memset(&self, dst: DevPtr, value: u8, len: usize) {
        self.inner.counters.record("cudaMemset");
        self.check_owned(dst);
        let stream = self.sync_stream();
        let op = self.san_begin(
            "memset",
            &stream,
            ENG_D2D,
            vec![],
            vec![self.dev_range(dst, len)],
        );
        {
            let mut mem = self.inner.mem.lock();
            mem.check_access(dst.offset, len);
            mem.arena[dst.offset..dst.offset + len].fill(value);
        }
        // Memset runs on the device-internal engine at contiguous rate.
        let dur = self.inner.cost.copy1d(CopyDir::D2D, len as u64);
        self.schedule("memset", &stream, ENG_D2D, dur, op).wait();
    }

    /// `cudaMemsetAsync`: fill enqueued on `stream`.
    pub fn memset_async(&self, dst: DevPtr, value: u8, len: usize, stream: &Stream) -> Completion {
        self.inner.counters.record("cudaMemsetAsync");
        sim_core::sleep(SimDur::from_nanos(self.inner.cost.async_submit_ns));
        self.check_owned(dst);
        let op = self.san_begin(
            "memset_async",
            stream,
            ENG_D2D,
            vec![],
            vec![self.dev_range(dst, len)],
        );
        {
            let mut mem = self.inner.mem.lock();
            mem.check_access(dst.offset, len);
            mem.arena[dst.offset..dst.offset + len].fill(value);
        }
        let dur = self.inner.cost.copy1d(CopyDir::D2D, len as u64);
        self.schedule("memset_async", stream, ENG_D2D, dur, op)
    }

    // --- kernels ---------------------------------------------------------------

    /// Launch a kernel on `stream`. `work` runs the kernel's *computation*
    /// (against device memory, via this handle) immediately; the returned
    /// completion fires after the modeled execution time `cost` plus launch
    /// overhead, once the compute engine and the stream are free.
    pub fn launch_kernel(
        &self,
        name: &'static str,
        cost: SimDur,
        stream: &Stream,
        work: impl FnOnce(&Gpu),
    ) -> Completion {
        self.inner.counters.record("kernelLaunch");
        let _ = name;
        sim_core::sleep(SimDur::from_nanos(self.inner.cost.async_submit_ns));
        // Kernels declare no ranges (their footprint is unknown); they still
        // participate in stream/event ordering, and their body's eager
        // execution must not trip process-level checks.
        let op = self.san_begin("launch_kernel", stream, ENG_COMPUTE, vec![], vec![]);
        {
            let _san = san::suppress();
            work(self);
        }
        let dur = SimDur::from_nanos(self.inner.cost.kernel_launch_ns) + cost;
        self.schedule("kernel", stream, ENG_COMPUTE, dur, op)
    }

    // --- untimed access (test setup / verification) ------------------------------

    /// Write bytes directly into device memory (no virtual time; for setup
    /// and verification only).
    pub fn write_bytes(&self, ptr: DevPtr, data: &[u8]) {
        self.check_owned(ptr);
        san::on_dev_access(self.inner.id as u64, ptr.offset, data.len(), true);
        let mut mem = self.inner.mem.lock();
        mem.check_access(ptr.offset, data.len());
        mem.arena[ptr.offset..ptr.offset + data.len()].copy_from_slice(data);
    }

    /// Read bytes directly from device memory (no virtual time).
    pub fn read_bytes(&self, ptr: DevPtr, len: usize) -> Vec<u8> {
        self.check_owned(ptr);
        san::on_dev_access(self.inner.id as u64, ptr.offset, len, false);
        let mem = self.inner.mem.lock();
        mem.check_access(ptr.offset, len);
        mem.arena[ptr.offset..ptr.offset + len].to_vec()
    }

    /// Write a slice of scalars directly into device memory.
    pub fn write_scalars<T: Scalar>(&self, ptr: DevPtr, vals: &[T]) {
        self.write_bytes(ptr, &hostmem::scalars_to_bytes(vals));
    }

    /// Read a slice of scalars directly from device memory.
    pub fn read_scalars<T: Scalar>(&self, ptr: DevPtr, count: usize) -> Vec<T> {
        hostmem::bytes_to_scalars(&self.read_bytes(ptr, count * T::SIZE))
    }

    /// Move the bytes of a pitched copy right now, with no call counted and
    /// no virtual time — what a kernel *body* (see
    /// [`launch_kernel`](Gpu::launch_kernel)) uses to move rows inside
    /// device memory. Extents are validated like any device access.
    pub fn copy_2d_untimed(&self, p: &Copy2d) {
        self.do_copy2d_bytes(p);
    }

    /// Run `f` with mutable access to the raw device arena (kernel bodies).
    /// The access range is validated like any device access.
    pub fn with_arena<R>(&self, ptr: DevPtr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.check_owned(ptr);
        san::on_dev_access(self.inner.id as u64, ptr.offset, len, true);
        let mut mem = self.inner.mem.lock();
        mem.check_access(ptr.offset, len);
        let off = ptr.offset;
        f(&mut mem.arena[off..off + len])
    }
}

impl Stream {
    /// The owning device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// `cudaStreamQuery`: true if every operation enqueued so far has
    /// finished. Costs a sliver of CPU time.
    pub fn query(&self) -> bool {
        self.gpu.inner.counters.record("cudaStreamQuery");
        sim_core::sleep(SimDur::from_nanos(self.gpu.inner.cost.query_ns));
        let end = self.gpu.inner.sched.lock().stream_end[self.idx];
        let done = end <= sim_core::now();
        if done {
            san::acquire_queue(self.gpu.inner.san_domain, Some(self.idx as u64));
        }
        done
    }

    /// `cudaStreamSynchronize`: block until all enqueued work finishes.
    pub fn synchronize(&self) {
        self.gpu.inner.counters.record("cudaStreamSynchronize");
        let end = self.gpu.inner.sched.lock().stream_end[self.idx];
        if sim_core::now() < end {
            sim_core::sleep_until(end);
        }
        san::acquire_queue(self.gpu.inner.san_domain, Some(self.idx as u64));
    }

    /// Record an event capturing all work enqueued so far.
    pub fn record_event(&self) -> Completion {
        let (end, last) = {
            let sched = self.gpu.inner.sched.lock();
            (sched.stream_end[self.idx], sched.stream_last[self.idx])
        };
        let c = Completion::ready_at(end);
        if let Some(op) = last {
            c.attach_ops(&[op]);
        }
        c
    }

    /// `cudaStreamWaitEvent`: future work on this stream starts no earlier
    /// than `event`'s completion. The event must have a known finish time
    /// (all simulated device events do).
    pub fn wait_event(&self, event: &Completion) {
        let at = event
            .done_at()
            .expect("Stream::wait_event requires an event with an assigned finish time");
        let ops = event.attached_ops();
        let mut sched = self.gpu.inner.sched.lock();
        let end = &mut sched.stream_end[self.idx];
        *end = (*end).max(at);
        sched.stream_pending[self.idx].extend(ops);
    }
}
