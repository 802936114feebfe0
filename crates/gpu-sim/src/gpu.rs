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
//! * **Engines and streams are horizons.** Fermi exposes two PCIe copy
//!   engines (H2D and D2H) that run concurrently with the compute engine;
//!   strided device-internal copies get their own queue (they execute as
//!   small DMA/kernel programs). Each engine, and each stream, is one
//!   [`sim_core::Horizon`]. What this device adds is the two-horizon rule:
//!   an operation is ready when its stream's previous op has finished,
//!   starts when its engine is free as well, and holds both until it ends.
//!   The engine's wait tally is therefore pure contention — other streams
//!   or, on a shared device, other jobs ([`Gpu::engines`]). The device
//!   keeps the engines and the blocking calls' queue; a [`Stream`] keeps its
//!   own horizon, so dropping the handle frees it.
//! * **Sync vs async.** Synchronous calls (`cudaMemcpy`, `cudaMemcpy2D`)
//!   block the calling process until the engine finishes. Asynchronous calls
//!   cost [`CostModel::async_submit_ns`] of CPU time and return immediately.
//!   Either way the operation goes through the one body, `Gpu::run`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hostmem::{HostPtr, Scalar};
use sim_core::lock::Mutex;
use sim_core::san;
use sim_core::{CallCounters, Completion, Horizon, SimDur, SimTime};

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
    /// A contiguous copy of `len` bytes as a one-row pitched copy.
    fn flat(dst: Loc, src: Loc, len: usize) -> Copy2d {
        Copy2d {
            dst,
            dpitch: len.max(1),
            src,
            spitch: len.max(1),
            width: len,
            height: 1,
        }
    }

    /// The bytes each side spans, `(source, destination)`: computed once per
    /// copy, for the byte mover and the sanitizer alike. An extent that does
    /// not fit a `usize` lies outside every allocation — the device fault,
    /// raised here, before a byte moves, not a sum left to wrap.
    fn extents(&self) -> (usize, usize) {
        let (w, h) = (self.width, self.height);
        assert!(
            self.spitch >= w && self.dpitch >= w,
            "Copy2d: pitch smaller than width ({} / {} < {w})",
            self.spitch,
            self.dpitch,
        );
        let side = |pitch: usize| {
            (h - 1)
                .checked_mul(pitch)
                .and_then(|n| n.checked_add(w))
                .unwrap_or_else(|| {
                    panic!("pitched copy of {h} rows {pitch} apart is outside any live allocation")
                })
        };
        if w == 0 || h == 0 {
            (0, 0)
        } else {
            (side(self.spitch), side(self.dpitch))
        }
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
/// Engine names by index — the copy engines sit at `CopyDir as usize`. Also
/// the lane registration order, which the Chrome export numbers threads by.
const ENGINE_NAMES: [&str; ENGINES] = ["h2d", "d2h", "d2d", "compute"];
const ENG_COMPUTE: usize = 3;

/// What tells the four copy calls apart: the `cuda*` counter key, the span
/// label, the sanitizer kind per direction (`CopyDir as usize`) and which
/// price applies.
struct CopyCall {
    counter: &'static str,
    span: &'static str,
    kinds: [&'static str; 3],
    pitched: bool,
}

/// A [`CopyCall`] whose sanitizer kinds are its span label and the direction.
macro_rules! copy_call {
    ($counter:literal, $span:literal, $pitched:literal) => {
        CopyCall {
            counter: $counter,
            span: $span,
            kinds: [
                concat!($span, "(H2D)"),
                concat!($span, "(D2H)"),
                concat!($span, "(D2D)"),
            ],
            pitched: $pitched,
        }
    };
}

const MEMCPY: CopyCall = copy_call!("cudaMemcpy", "memcpy", false);
const MEMCPY_2D: CopyCall = copy_call!("cudaMemcpy2D", "memcpy_2d", true);
const MEMCPY_ASYNC: CopyCall = copy_call!("cudaMemcpyAsync", "memcpy_async", false);
const MEMCPY_2D_ASYNC: CopyCall = copy_call!("cudaMemcpy2DAsync", "memcpy_2d_async", true);

/// One timed operation as its entry point describes it ([`Gpu::run`]).
struct Op<'a> {
    /// `cuda*` counter key.
    counter: &'static str,
    /// Span label on the engine's lane.
    span: &'static str,
    /// Sanitizer: the operation's kind and the range it reads / writes.
    kind: &'static str,
    reads: Option<san::MemRange>,
    writes: Option<san::MemRange>,
    /// `None` is a blocking call: queue 0, no submit cost, and the caller
    /// gets the operation back finished.
    stream: Option<&'a Stream>,
    engine: usize,
    dur: SimDur,
}

/// A stream's queue: a horizon plus, for the sanitizer, the event ops it
/// was told to order after (from `wait_event`), drained into its next
/// operation's predecessors.
#[derive(Default)]
struct StreamState {
    horizon: Horizon,
    pending: Vec<san::OpId>,
}

struct GpuInner {
    id: u32,
    cost: CostModel,
    mem: Mutex<DeviceMem>,
    engines: Mutex<[Horizon; ENGINES]>,
    /// Queue 0: the blocking calls'.
    blocking: Mutex<StreamState>,
    /// The next stream's sanitizer queue number (0 is `blocking`'s).
    next_queue: AtomicU64,
    counters: CallCounters,
    /// Sanitizer queue domain for this device (unique per instance).
    san_domain: u64,
    /// Trace lanes, one per engine, once a recorder is attached.
    trace: OnceLock<[sim_trace::Lane; ENGINES]>,
}

/// One simulated GPU. Clones are shallow handles to the same device.
#[derive(Clone)]
pub struct Gpu {
    inner: Arc<GpuInner>,
}

/// An ordered operation queue on a [`Gpu`] (a CUDA stream). Operations on
/// one stream serialize; operations on different streams overlap subject to
/// engine availability. The stream owns its queue: dropping it frees the
/// queue, and what it enqueued still completes on its engines.
pub struct Stream {
    gpu: Gpu,
    /// Sanitizer queue number: the stream's creation number on its device.
    queue: u64,
    state: Mutex<StreamState>,
}

impl Gpu {
    /// Create a device with `mem_bytes` of device memory.
    pub fn new(id: u32, cost: CostModel, mem_bytes: usize) -> Self {
        Gpu {
            inner: Arc::new(GpuInner {
                id,
                cost,
                mem: Mutex::new(DeviceMem::new(mem_bytes)),
                engines: Mutex::new([Horizon::default(); ENGINES]),
                blocking: Mutex::default(),
                next_queue: AtomicU64::new(1),
                counters: CallCounters::new(),
                san_domain: san::new_queue_domain(),
                trace: OnceLock::new(),
            }),
        }
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

    /// A snapshot of the four engines — H2D, D2H, device-internal, compute —
    /// with their always-on tallies. `wait_ns` is what operations waited on
    /// the busy engine beyond their stream dependency: on a device shared by
    /// several jobs, the contention a tenant actually felt.
    pub fn engines(&self) -> [Horizon; ENGINES] {
        *self.inner.engines.lock()
    }

    /// Attach a trace recorder (once): every scheduled operation emits a busy
    /// span on its engine's lane (`gpu<id>/{h2d,d2h,d2d,compute}`), and this
    /// device's call counters join the recorder's metrics registry. Purely
    /// observational — virtual-time behavior is unchanged.
    pub fn attach_recorder(&self, rec: &sim_trace::Recorder) {
        let scope = format!("gpu{}", self.inner.id);
        let lanes = ENGINE_NAMES.map(|name| rec.lane(&scope, name, sim_trace::LaneKind::GpuEngine));
        assert!(
            self.inner.trace.set(lanes).is_ok(),
            "{scope} already has a recorder"
        );
        rec.register_counters(&scope, &self.inner.counters);
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
        Stream {
            gpu: self.clone(),
            queue: self.inner.next_queue.fetch_add(1, Ordering::Relaxed),
            state: Mutex::default(),
        }
    }

    /// Block until every engine and queue 0 are idle
    /// (`cudaDeviceSynchronize`). No stream need be asked: a stream's
    /// horizon passes every engine's only through a trailing `wait_event`,
    /// which orders work not yet enqueued.
    pub fn synchronize(&self) {
        self.inner.counters.record("cudaDeviceSynchronize");
        let t = {
            let queue0 = self.inner.blocking.lock().horizon.free();
            let engines = self.inner.engines.lock();
            engines.iter().map(Horizon::free).fold(queue0, SimTime::max)
        };
        if sim_core::now() < t {
            sim_core::sleep_until(t);
        }
        san::acquire_queue(self.inner.san_domain, None);
    }

    // --- the one timed operation ---------------------------------------------

    /// Sanitizer: `len` bytes at `loc` as a range.
    fn range(&self, loc: &Loc, len: usize) -> san::MemRange {
        let (domain, start) = match loc {
            Loc::Host(hp) => (san::MemDomain::Host { buf: hp.buf().id() }, hp.offset()),
            Loc::Device(dp) => {
                let gpu = self.inner.id as u64;
                (san::MemDomain::Dev { gpu }, dp.offset())
            }
        };
        san::MemRange { domain, start, len }
    }

    /// The body of every timed call: count it, pay the submit cost, move the
    /// bytes, then — in one critical section — declare the operation to the
    /// sanitizer (ordered after the stream's previous op, its pending event
    /// waits and the engine's previous op) and place it on its two horizons.
    fn run(&self, op: Op<'_>, move_bytes: impl FnOnce()) -> Completion {
        let inner = &*self.inner;
        inner.counters.record(op.counter);
        assert!(
            sim_core::in_sim(),
            "GPU operations with timing must run inside a simulation process"
        );
        if op.stream.is_some() {
            sim_core::sleep(SimDur::from_nanos(inner.cost.async_submit_ns));
        }
        move_bytes();
        let (state, queue) = match op.stream {
            Some(s) => (&s.state, s.queue),
            None => (&inner.blocking, 0),
        };
        let now = sim_core::now();
        let (start, end, san_op) = {
            // Every path locks a stream before the engines.
            let stream = &mut *state.lock();
            let engine = &mut inner.engines.lock()[op.engine];
            let san_op = if san::enabled() {
                let mut preds: Vec<_> = stream.horizon.last().into_iter().collect();
                preds.append(&mut stream.pending);
                preds.extend(engine.last());
                san::begin_op(san::OpDesc {
                    kind: op.kind,
                    queue: (inner.san_domain, queue),
                    preds,
                    reads: op.reads.into_iter().collect(),
                    writes: op.writes.into_iter().collect(),
                })
            } else {
                None
            };
            let ready = stream.horizon.ready(now);
            let (start, end) = engine.occupy(ready, op.dur, san_op);
            stream.horizon.book(now, start, op.dur, san_op);
            (start, end, san_op)
        };
        san::op_complete_at(san_op, end);
        if let Some(lanes) = inner.trace.get() {
            lanes[op.engine].span(op.span, start, end);
        }
        let c = Completion::ready_between(start, end);
        c.attach_ops(san_op.as_slice());
        if op.stream.is_none() {
            c.wait();
        }
        c
    }

    // --- data plane ----------------------------------------------------------

    /// Move bytes for a 2-D copy right now (no virtual time involved): both
    /// extents (from [`Copy2d::extents`]) are validated before the first
    /// byte moves, then every row is copied once, source to destination.
    /// Overlapping source and destination rows are undefined, as on the
    /// device.
    fn move_rows(&self, p: &Copy2d, sext: usize, dext: usize) {
        let (w, h) = (p.width, p.height);
        if sext == 0 {
            return;
        }
        // The declared ranges are checked when the op is registered; the
        // eager byte movement below must not trigger process-level checks.
        let _san = san::suppress();
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
            (Loc::Host(hp), Loc::Device(dp)) => hp.buf().with_range(hp.offset(), sext, |src| {
                let mut mem = device(dp, dext);
                let dst = &mut mem.arena[dp.offset..][..dext];
                copy_rows(dst, p.dpitch, src, p.spitch, w);
            }),
            (Loc::Device(sp), Loc::Host(hp)) => hp.buf().with_range(hp.offset(), dext, |dst| {
                let mem = device(sp, sext);
                copy_rows(dst, p.dpitch, &mem.arena[sp.offset..][..sext], p.spitch, w);
            }),
            (Loc::Host(_), Loc::Host(_)) => {
                panic!("Copy2d: host-to-host copies do not involve the GPU")
            }
        }
    }

    /// The four copy calls: an operation on the direction's engine that
    /// reads the source extent and writes the destination extent.
    fn copy(&self, call: &CopyCall, p: Copy2d, stream: Option<&Stream>) -> Completion {
        let (dir, (sext, dext)) = (p.dir(), p.extents());
        let cost = &self.inner.cost;
        let dur = if call.pitched {
            cost.copy2d(dir, p.shape(), p.width as u64, p.height as u64)
        } else {
            cost.copy1d(dir, p.width as u64)
        };
        let op = Op {
            counter: call.counter,
            span: call.span,
            kind: call.kinds[dir as usize],
            reads: Some(self.range(&p.src, sext)),
            writes: Some(self.range(&p.dst, dext)),
            stream,
            engine: dir as usize,
            dur,
        };
        self.run(op, || self.move_rows(&p, sext, dext))
    }

    /// `cudaMemcpy`: contiguous blocking copy. Direction is inferred from the
    /// locations.
    pub fn memcpy(&self, dst: impl Into<Loc>, src: impl Into<Loc>, len: usize) {
        self.copy(&MEMCPY, Copy2d::flat(dst.into(), src.into(), len), None);
    }

    /// `cudaMemcpy2D`: pitched blocking copy.
    pub fn memcpy_2d(&self, p: Copy2d) {
        self.copy(&MEMCPY_2D, p, None);
    }

    /// `cudaMemcpyAsync`: contiguous copy enqueued on `stream`.
    pub fn memcpy_async(
        &self,
        dst: impl Into<Loc>,
        src: impl Into<Loc>,
        len: usize,
        stream: &Stream,
    ) -> Completion {
        let p = Copy2d::flat(dst.into(), src.into(), len);
        self.copy(&MEMCPY_ASYNC, p, Some(stream))
    }

    /// `cudaMemcpy2DAsync`: pitched copy enqueued on `stream`.
    pub fn memcpy_2d_async(&self, p: Copy2d, stream: &Stream) -> Completion {
        self.copy(&MEMCPY_2D_ASYNC, p, Some(stream))
    }

    /// The two fills: an operation on the device-internal engine, at
    /// contiguous rate, that writes `len` bytes at `dst`.
    fn fill(
        &self,
        [counter, name]: [&'static str; 2],
        dst: DevPtr,
        value: u8,
        len: usize,
        stream: Option<&Stream>,
    ) -> Completion {
        let op = Op {
            counter,
            span: name,
            kind: name,
            reads: None,
            writes: Some(self.range(&dst.into(), len)),
            stream,
            engine: CopyDir::D2D as usize,
            dur: self.inner.cost.copy1d(CopyDir::D2D, len as u64),
        };
        // The operation declares its range; the eager fill is not a
        // process-level access.
        self.run(op, || {
            let _san = san::suppress();
            self.with_arena(dst, len, |bytes| bytes.fill(value));
        })
    }

    /// `cudaMemset`: blocking fill of device memory.
    pub fn memset(&self, dst: DevPtr, value: u8, len: usize) {
        self.fill(["cudaMemset", "memset"], dst, value, len, None);
    }

    /// `cudaMemsetAsync`: fill enqueued on `stream`.
    pub fn memset_async(&self, dst: DevPtr, value: u8, len: usize, stream: &Stream) -> Completion {
        let names = ["cudaMemsetAsync", "memset_async"];
        self.fill(names, dst, value, len, Some(stream))
    }

    // --- kernels ---------------------------------------------------------------

    /// Launch a kernel on `stream`. `work` runs the kernel's *computation*
    /// (against device memory, via this handle) immediately; the returned
    /// completion fires after the modeled execution time `cost` plus launch
    /// overhead, once the compute engine and the stream are free. `name`
    /// labels its span on the compute lane.
    pub fn launch_kernel(
        &self,
        name: &'static str,
        cost: SimDur,
        stream: &Stream,
        work: impl FnOnce(&Gpu),
    ) -> Completion {
        // Kernels declare no ranges (their footprint is unknown); they still
        // participate in stream/event ordering, and their body's eager
        // execution must not trip process-level checks.
        let op = Op {
            counter: "kernelLaunch",
            span: name,
            kind: "launch_kernel",
            reads: None,
            writes: None,
            stream: Some(stream),
            engine: ENG_COMPUTE,
            dur: SimDur::from_nanos(self.inner.cost.kernel_launch_ns) + cost,
        };
        self.run(op, || {
            let _san = san::suppress();
            work(self);
        })
    }

    // --- untimed access (test setup / verification) ------------------------------

    /// Run `f` on `len` bytes of the device arena at `ptr`, validated like
    /// any device access and shown to the sanitizer as a read or a write.
    fn access<R>(&self, ptr: DevPtr, len: usize, write: bool, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.check_owned(ptr);
        san::on_dev_access(self.inner.id as u64, ptr.offset, len, write);
        let mut mem = self.inner.mem.lock();
        mem.check_access(ptr.offset, len);
        f(&mut mem.arena[ptr.offset..ptr.offset + len])
    }

    /// Write bytes directly into device memory (no virtual time; for setup
    /// and verification only).
    pub fn write_bytes(&self, ptr: DevPtr, data: &[u8]) {
        self.access(ptr, data.len(), true, |bytes| bytes.copy_from_slice(data));
    }

    /// Read bytes directly from device memory (no virtual time).
    pub fn read_bytes(&self, ptr: DevPtr, len: usize) -> Vec<u8> {
        self.access(ptr, len, false, |bytes| bytes.to_vec())
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
        let (sext, dext) = p.extents();
        self.move_rows(p, sext, dext);
    }

    /// Run `f` with mutable access to the raw device arena (kernel bodies).
    /// The access range is validated like any device access.
    pub fn with_arena<R>(&self, ptr: DevPtr, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.access(ptr, len, true, f)
    }
}

impl Stream {
    /// When everything enqueued so far has finished.
    fn end(&self) -> SimTime {
        self.state.lock().horizon.free()
    }

    /// `cudaStreamQuery`: true if every operation enqueued so far has
    /// finished. Costs a sliver of CPU time.
    pub fn query(&self) -> bool {
        self.gpu.inner.counters.record("cudaStreamQuery");
        sim_core::sleep(SimDur::from_nanos(self.gpu.inner.cost.query_ns));
        let done = self.end() <= sim_core::now();
        if done {
            san::acquire_queue(self.gpu.inner.san_domain, Some(self.queue));
        }
        done
    }

    /// `cudaStreamSynchronize`: block until all enqueued work finishes.
    pub fn synchronize(&self) {
        self.gpu.inner.counters.record("cudaStreamSynchronize");
        let end = self.end();
        if sim_core::now() < end {
            sim_core::sleep_until(end);
        }
        san::acquire_queue(self.gpu.inner.san_domain, Some(self.queue));
    }

    /// `cudaStreamWaitEvent`: future work on this stream starts no earlier
    /// than `event`'s completion. The event must have a known finish time
    /// (all simulated device events do).
    pub fn wait_event(&self, event: &Completion) {
        let at = event
            .done_at()
            .expect("Stream::wait_event requires an event with an assigned finish time");
        let stream = &mut *self.state.lock();
        stream.horizon.not_before(at);
        stream.pending.extend(event.attached_ops());
    }
}
