//! The GPU staging implementation: the paper's Figure 3 pipeline.
//!
//! `GpuSendSource` implements the sender half: on `begin` (triggered by the
//! rendezvous CTS) it grabs a device temporary (`tbuf`) and enqueues **all**
//! chunk packs as asynchronous strided device copies, exactly like the
//! paper's `cudaMemcpy2DAsync` loop. As the MPI progress engine requests
//! chunks, each one's D2H copy is enqueued to start no earlier than its
//! pack (a `cudaStreamWaitEvent` dependency), so packing, D2H and the RDMA
//! writes issued by the engine all overlap across chunks.
//!
//! `GpuRecvSink` is the mirrored receiver half: per arriving chunk, an H2D
//! copy into `tbuf` (the staging vbuf is creditable as soon as that
//! finishes) followed by a strided device unpack into the user buffer.
//!
//! Contiguous device buffers skip the tbuf entirely — they still get the
//! chunked PCIe/RDMA pipeline (the paper's "8x1 grid" case, which benefits
//! from pipelining alone).

use std::sync::Arc;

use gpu_sim::{DevPtr, Gpu, Loc, Stream};
use hostmem::{HostBuf, HostPtr};
use mpi_sim::staging::{BufferStager, RecvSink, SendSource};
use mpi_sim::{Canonical, Datatype, Plan};
use sim_core::{Completion, SimTime};
use sim_trace::{Lane, LaneKind, Recorder};

use crate::gpu_pack::{enqueue_gather, enqueue_scatter};
use crate::pools::{Tbuf, TbufPool};

/// The per-rank pipeline stage lanes (Figure 3's four GPU-side stages; the
/// engine adds the fifth, "rdma", in the same `rank{r}` scope).
#[derive(Clone)]
struct StageLanes {
    pack: Lane,
    d2h: Lane,
    h2d: Lane,
    unpack: Lane,
}

impl StageLanes {
    fn new(rec: &Recorder, scope: &str) -> Self {
        StageLanes {
            pack: rec.lane(scope, "pack", LaneKind::Stage),
            d2h: rec.lane(scope, "d2h", LaneKind::Stage),
            h2d: rec.lane(scope, "h2d", LaneKind::Stage),
            unpack: rec.lane(scope, "unpack", LaneKind::Stage),
        }
    }
}

/// Where the message starts when `plan` is one contiguous run of the
/// buffer at `base` (such buffers skip the tbuf).
fn contiguous(plan: &Plan, base: DevPtr) -> Option<DevPtr> {
    match Canonical::of(plan) {
        Canonical::Contig { offset, .. } => Some(base.add_signed(offset)),
        _ => None,
    }
}

/// Sender half of the GPU pipeline (plugs into the rendezvous engine).
pub struct GpuSendSource {
    gpu: Gpu,
    pool: Arc<TbufPool>,
    user: DevPtr,
    plan: Arc<Plan>,
    total: usize,
    contiguous: Option<DevPtr>,
    tbuf: Option<Tbuf>,
    pack_stream: Stream,
    d2h_stream: Stream,
    chunk_size: usize,
    packs: Vec<Completion>,
    d2h: Vec<Option<Completion>>,
    lanes: StageLanes,
}

impl GpuSendSource {
    fn new(
        gpu: Gpu,
        pool: Arc<TbufPool>,
        user: DevPtr,
        count: usize,
        dtype: &Datatype,
        lanes: StageLanes,
    ) -> Self {
        let plan = dtype.plan(count);
        let total = plan.total();
        let pack_stream = gpu.create_stream();
        let d2h_stream = gpu.create_stream();
        GpuSendSource {
            gpu,
            pool,
            user,
            contiguous: contiguous(&plan, user),
            plan,
            total,
            tbuf: None,
            pack_stream,
            d2h_stream,
            chunk_size: 0,
            packs: Vec::new(),
            d2h: Vec::new(),
            lanes,
        }
    }

    fn ensure_tbuf(&mut self) -> DevPtr {
        if self.tbuf.is_none() {
            self.tbuf = Some(self.pool.take(self.total));
        }
        self.tbuf.as_ref().unwrap().ptr
    }
}

impl SendSource for GpuSendSource {
    fn total_bytes(&self) -> usize {
        self.total
    }

    fn begin(&mut self, chunk_size: usize) {
        self.chunk_size = chunk_size;
        let nchunks = self.total.div_ceil(chunk_size).max(1);
        self.d2h = (0..nchunks).map(|_| None).collect();
        if self.contiguous.is_some() {
            return; // no packing needed; D2H reads the user buffer directly
        }
        let tbuf = self.ensure_tbuf();
        // Enqueue every chunk's pack up front (the paper's async 2D-copy
        // loop): the device packs ahead while earlier chunks drain to the
        // host and the wire.
        for i in 0..nchunks {
            let off = i * chunk_size;
            let len = chunk_size.min(self.total - off);
            let pieces = self.plan.pieces(off, len);
            let comp = enqueue_gather(
                &self.gpu,
                &self.pack_stream,
                self.user,
                &pieces,
                tbuf.add(off),
            );
            self.lanes.pack.comp_span("pack", Some(i), &comp);
            self.packs.push(comp);
        }
    }

    fn request_chunk(&mut self, idx: usize, dst: HostPtr, len: usize) {
        let off = idx * self.chunk_size;
        let comp = match self.contiguous {
            Some(cptr) => {
                self.gpu
                    .memcpy_async(Loc::Host(dst), cptr.add(off), len, &self.d2h_stream)
            }
            None => {
                let tbuf = self.tbuf.as_ref().expect("begin not called").ptr;
                // The D2H copy may start only after this chunk's pack.
                self.d2h_stream.wait_event(&self.packs[idx]);
                self.gpu
                    .memcpy_async(Loc::Host(dst), tbuf.add(off), len, &self.d2h_stream)
            }
        };
        self.lanes.d2h.comp_span("d2h", Some(idx), &comp);
        self.d2h[idx] = Some(comp);
    }

    fn poll(&mut self) -> bool {
        false // completion times are known; progress is purely time-driven
    }

    fn chunk_ready(&self, idx: usize) -> bool {
        self.d2h[idx].as_ref().is_some_and(Completion::poll)
    }

    fn next_event(&self) -> Option<SimTime> {
        let now = sim_core::now();
        self.d2h
            .iter()
            .flatten()
            .filter_map(Completion::done_at)
            .filter(|&t| t > now)
            .min()
    }

    fn device_gpu(&self) -> Option<u32> {
        Some(self.gpu.id())
    }

    fn stage_device(&mut self) -> Option<(DevPtr, Completion)> {
        // Device rendezvous (co-located ranks sharing this GPU): pack the
        // whole message into a device tbuf in one go — no chunking, the
        // receiver scatters straight from it. Contiguous buffers need no
        // packing at all; the user buffer itself is announced.
        if let Some(cptr) = self.contiguous {
            return Some((cptr, Completion::ready()));
        }
        let tbuf = self.ensure_tbuf();
        let pieces = self.plan.pieces(0, self.total);
        let comp = enqueue_gather(&self.gpu, &self.pack_stream, self.user, &pieces, tbuf);
        self.lanes.pack.comp_span("pack", None, &comp);
        Some((tbuf, comp))
    }

    fn pack_eager(&mut self) -> Vec<u8> {
        let host = HostBuf::alloc(self.total);
        if self.total == 0 {
            return Vec::new();
        }
        match self.contiguous {
            Some(cptr) => {
                self.gpu
                    .memcpy_async(Loc::Host(host.base()), cptr, self.total, &self.d2h_stream)
                    .wait();
            }
            None => {
                let tbuf = self.ensure_tbuf();
                let pieces = self.plan.pieces(0, self.total);
                let pack = enqueue_gather(&self.gpu, &self.pack_stream, self.user, &pieces, tbuf);
                self.d2h_stream.wait_event(&pack);
                self.gpu
                    .memcpy_async(Loc::Host(host.base()), tbuf, self.total, &self.d2h_stream)
                    .wait();
            }
        }
        host.read(0, self.total)
    }
}

impl Drop for GpuSendSource {
    fn drop(&mut self) {
        if let Some(t) = self.tbuf.take() {
            self.pool.put(t);
        }
    }
}

/// Receiver half of the GPU pipeline.
pub struct GpuRecvSink {
    gpu: Gpu,
    pool: Arc<TbufPool>,
    user: DevPtr,
    plan: Arc<Plan>,
    capacity: usize,
    contiguous: Option<DevPtr>,
    tbuf: Option<Tbuf>,
    h2d_stream: Stream,
    unpack_stream: Stream,
    chunk_size: usize,
    nchunks: usize,
    arrived: usize,
    h2d: Vec<Option<Completion>>,
    unpack: Vec<Option<Completion>>,
    lanes: StageLanes,
}

impl GpuRecvSink {
    fn new(
        gpu: Gpu,
        pool: Arc<TbufPool>,
        user: DevPtr,
        count: usize,
        dtype: &Datatype,
        lanes: StageLanes,
    ) -> Self {
        let plan = dtype.plan(count);
        let capacity = plan.total();
        let h2d_stream = gpu.create_stream();
        let unpack_stream = gpu.create_stream();
        GpuRecvSink {
            gpu,
            pool,
            user,
            contiguous: contiguous(&plan, user),
            plan,
            capacity,
            tbuf: None,
            h2d_stream,
            unpack_stream,
            chunk_size: 0,
            nchunks: 0,
            arrived: 0,
            h2d: Vec::new(),
            unpack: Vec::new(),
            lanes,
        }
    }
}

impl RecvSink for GpuRecvSink {
    fn total_bytes(&self) -> usize {
        self.capacity
    }

    fn begin(&mut self, chunk_size: usize, actual_total: usize) {
        assert!(
            actual_total <= self.capacity,
            "message truncated: {actual_total} bytes into a {}-byte device layout",
            self.capacity
        );
        self.chunk_size = chunk_size;
        self.nchunks = actual_total.div_ceil(chunk_size).max(1);
        self.h2d = (0..self.nchunks).map(|_| None).collect();
        self.unpack = (0..self.nchunks).map(|_| None).collect();
        if self.contiguous.is_none() && actual_total > 0 {
            self.tbuf = Some(self.pool.take(actual_total));
        }
    }

    fn chunk_arrived(&mut self, idx: usize, src: HostPtr, len: usize) {
        let off = idx * self.chunk_size;
        match self.contiguous {
            Some(cptr) => {
                let comp =
                    self.gpu
                        .memcpy_async(cptr.add(off), Loc::Host(src), len, &self.h2d_stream);
                self.lanes.h2d.comp_span("h2d", Some(idx), &comp);
                self.h2d[idx] = Some(comp);
            }
            None => {
                let tbuf = self.tbuf.as_ref().expect("begin not called").ptr;
                let h2d =
                    self.gpu
                        .memcpy_async(tbuf.add(off), Loc::Host(src), len, &self.h2d_stream);
                self.lanes.h2d.comp_span("h2d", Some(idx), &h2d);
                // Unpack after this chunk's H2D (stream-wait dependency).
                self.unpack_stream.wait_event(&h2d);
                let pieces = self.plan.pieces(off, len);
                let up = enqueue_scatter(
                    &self.gpu,
                    &self.unpack_stream,
                    self.user,
                    &pieces,
                    tbuf.add(off),
                );
                self.lanes.unpack.comp_span("unpack", Some(idx), &up);
                self.h2d[idx] = Some(h2d);
                self.unpack[idx] = Some(up);
            }
        }
        self.arrived += 1;
    }

    fn poll(&mut self) -> bool {
        false
    }

    fn chunk_absorbed(&self, idx: usize) -> bool {
        // The staging vbuf is reusable as soon as its H2D copy has read it.
        self.h2d[idx].as_ref().is_some_and(Completion::poll)
    }

    fn finished(&self) -> bool {
        self.arrived == self.nchunks
            && self
                .h2d
                .iter()
                .chain(self.unpack.iter())
                .flatten()
                .all(Completion::poll)
    }

    fn next_event(&self) -> Option<SimTime> {
        let now = sim_core::now();
        self.h2d
            .iter()
            .chain(self.unpack.iter())
            .flatten()
            .filter_map(Completion::done_at)
            .filter(|&t| t > now)
            .min()
    }

    fn device_gpu(&self) -> Option<u32> {
        Some(self.gpu.id())
    }

    fn absorb_device(
        &mut self,
        src: DevPtr,
        total: usize,
        ready: &Completion,
    ) -> Option<Completion> {
        assert!(
            total <= self.capacity,
            "message truncated: {total} bytes into a {}-byte device layout",
            self.capacity
        );
        // One whole-message device-side absorb; the engine completes the
        // receive on this completion, so the chunk bookkeeping collapses to
        // a single entry.
        self.nchunks = 1;
        self.arrived = 1;
        self.h2d = vec![None];
        // Order the reads after the sender's pack (CUDA IPC event).
        self.unpack_stream.wait_event(ready);
        let comp = match self.contiguous {
            Some(cptr) => self.gpu.memcpy_async(cptr, src, total, &self.unpack_stream),
            None => {
                let pieces = self.plan.pieces(0, total);
                enqueue_scatter(&self.gpu, &self.unpack_stream, self.user, &pieces, src)
            }
        };
        self.lanes.unpack.comp_span("unpack", None, &comp);
        self.unpack = vec![Some(comp.clone())];
        Some(comp)
    }

    fn unpack_eager(&mut self, data: &[u8]) {
        assert!(
            data.len() <= self.capacity,
            "message truncated: {} bytes into a {}-byte device layout",
            data.len(),
            self.capacity
        );
        self.nchunks = 1;
        self.arrived = 1;
        self.h2d = vec![None];
        self.unpack = vec![None];
        if data.is_empty() {
            return;
        }
        let host = HostBuf::from_vec(data.to_vec());
        match self.contiguous {
            Some(cptr) => {
                self.gpu
                    .memcpy_async(cptr, Loc::Host(host.base()), data.len(), &self.h2d_stream)
                    .wait();
            }
            None => {
                let tbuf = self.pool.take(data.len());
                let h2d = self.gpu.memcpy_async(
                    tbuf.ptr,
                    Loc::Host(host.base()),
                    data.len(),
                    &self.h2d_stream,
                );
                self.unpack_stream.wait_event(&h2d);
                let pieces = self.plan.pieces(0, data.len());
                enqueue_scatter(&self.gpu, &self.unpack_stream, self.user, &pieces, tbuf.ptr)
                    .wait();
                self.pool.put(tbuf);
            }
        }
    }
}

impl Drop for GpuRecvSink {
    fn drop(&mut self) {
        if let Some(t) = self.tbuf.take() {
            self.pool.put(t);
        }
    }
}

/// The MV2-GPU-NC staging provider: plugs GPU-offloaded datatype processing
/// into the MPI rendezvous engine for device-resident buffers.
pub struct GpuStager {
    gpu: Gpu,
    pool: Arc<TbufPool>,
    lanes: StageLanes,
}

impl GpuStager {
    /// A stager for `gpu`, recording stage spans into `rec` (pass
    /// [`Recorder::off`] for an untraced stager) on the lanes of `scope` —
    /// `rank3`, or `job2.rank0` so each tenant of a shared fabric keeps its
    /// stage spans in its own namespace.
    pub fn with_scope(gpu: Gpu, scope: &str, rec: &Recorder) -> Self {
        let pool = Arc::new(TbufPool::new(gpu.clone()));
        let lanes = StageLanes::new(rec, scope);
        GpuStager { gpu, pool, lanes }
    }

    /// The device temporary pool (exposed for tests/diagnostics).
    pub fn pool(&self) -> &Arc<TbufPool> {
        &self.pool
    }
}

impl BufferStager for GpuStager {
    fn source(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn SendSource>> {
        let Loc::Device(p) = buf else { return None };
        assert_eq!(
            p.gpu_id(),
            self.gpu.id(),
            "device buffer belongs to a different GPU than this rank's"
        );
        Some(Box::new(GpuSendSource::new(
            self.gpu.clone(),
            Arc::clone(&self.pool),
            *p,
            count,
            dtype,
            self.lanes.clone(),
        )))
    }

    fn sink(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn RecvSink>> {
        let Loc::Device(p) = buf else { return None };
        assert_eq!(
            p.gpu_id(),
            self.gpu.id(),
            "device buffer belongs to a different GPU than this rank's"
        );
        Some(Box::new(GpuRecvSink::new(
            self.gpu.clone(),
            Arc::clone(&self.pool),
            *p,
            count,
            dtype,
            self.lanes.clone(),
        )))
    }
}
