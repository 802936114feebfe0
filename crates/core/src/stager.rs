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
//! Both are chunk bookkeeping around one [`DeviceHalf`]: the device side of
//! a message — the user buffer, its layout plan, the tbuf, the message's two
//! streams, and the one gather and the one scatter every path (chunked,
//! eager, device rendezvous) goes through.
//!
//! Contiguous device buffers skip the tbuf entirely — they still get the
//! chunked PCIe/RDMA pipeline (the paper's "8x1 grid" case, which benefits
//! from pipelining alone).
//!
//! **When the tbuf is taken is behaviour, not style.** A pool miss is a
//! `cudaMalloc`: it sleeps `malloc_ns` and decides device addresses. So a
//! send takes its tbuf at its first pack, a chunked receive at `begin` (for
//! the bytes actually coming, not the layout's capacity), both hold it
//! until they are dropped, and an eager receive puts it back before it
//! returns — the next message of the rank finds it in the pool.

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

/// The device side of one message, either direction: where the user's bytes
/// are, how they are laid out, the contiguous device image (`tbuf`) they are
/// packed into or scattered from, and the two streams the message's
/// pipeline runs on. The streams live and die with the message.
struct DeviceHalf {
    gpu: Gpu,
    pool: Arc<TbufPool>,
    user: DevPtr,
    plan: Arc<Plan>,
    /// Packed bytes of the whole layout: a send's size, a receive's capacity.
    total: usize,
    /// Where the message starts when the layout is one contiguous run of the
    /// user buffer (such buffers skip the tbuf).
    contiguous: Option<DevPtr>,
    tbuf: Option<Tbuf>,
    lanes: StageLanes,
    /// Carries the gather (a send's pack) or the scatter (a receive's unpack).
    layout: Stream,
    /// Carries the PCIe copies: a send's D2H, a receive's H2D.
    pcie: Stream,
}

impl DeviceHalf {
    /// The tbuf, taken from the pool for `len` bytes on first use.
    fn tbuf(&mut self, len: usize) -> DevPtr {
        self.tbuf.get_or_insert_with(|| self.pool.take(len)).ptr
    }

    /// Where packed byte `off` sits on the device: in the user buffer when
    /// that is contiguous, else in the tbuf (which a pack or `begin` took).
    fn packed(&self, off: usize) -> DevPtr {
        match self.contiguous {
            Some(cptr) => cptr.add(off),
            None => self.tbuf.as_ref().expect("begin not called").ptr.add(off),
        }
    }

    /// Pack bytes `[off, off + len)` of the message into the tbuf.
    fn gather(&mut self, off: usize, len: usize) -> Completion {
        let dst = self.tbuf(self.total).add(off);
        let pieces = self.plan.pieces(off, len);
        enqueue_gather(&self.gpu, &self.layout, self.user, &pieces, dst)
    }

    /// Scatter packed bytes `[off, off + len)`, sitting at `src`, into the
    /// user buffer, no earlier than `after`.
    fn scatter(&self, (off, len): (usize, usize), src: DevPtr, after: &Completion) -> Completion {
        let stream = &self.layout;
        stream.wait_event(after);
        match self.contiguous {
            Some(cptr) => self.gpu.memcpy_async(cptr.add(off), src, len, stream),
            None => {
                let pieces = self.plan.pieces(off, len);
                enqueue_scatter(&self.gpu, stream, self.user, &pieces, src)
            }
        }
    }

    /// The engine refuses a truncating match first; this is the device
    /// layout's own guard against scattering past the user buffer.
    fn check_fits(&self, bytes: usize) {
        assert!(
            bytes <= self.total,
            "message truncated: {bytes} bytes into a {}-byte device layout",
            self.total
        );
    }

    fn release(&mut self) {
        if let Some(t) = self.tbuf.take() {
            self.pool.put(t);
        }
    }
}

impl Drop for DeviceHalf {
    fn drop(&mut self) {
        self.release();
    }
}

/// The earliest finish among `comps` that still lies ahead.
fn next_done<'a>(comps: impl Iterator<Item = &'a Option<Completion>>) -> Option<SimTime> {
    let now = sim_core::now();
    comps
        .flatten()
        .filter_map(Completion::done_at)
        .filter(|&t| t > now)
        .min()
}

/// Sender half of the GPU pipeline (plugs into the rendezvous engine).
pub struct GpuSendSource {
    half: DeviceHalf,
    chunk_size: usize,
    packs: Vec<Completion>,
    d2h: Vec<Option<Completion>>,
}

impl GpuSendSource {
    /// One contiguous D2H of packed bytes `[off, off + len)` into `dst`, no
    /// earlier than the pack that produces them.
    fn d2h(&self, dst: HostPtr, off: usize, len: usize, pack: Option<&Completion>) -> Completion {
        let half = &self.half;
        if let Some(pack) = pack {
            half.pcie.wait_event(pack);
        }
        let src = half.packed(off);
        half.gpu.memcpy_async(Loc::Host(dst), src, len, &half.pcie)
    }
}

impl SendSource for GpuSendSource {
    fn total_bytes(&self) -> usize {
        self.half.total
    }

    fn begin(&mut self, chunk_size: usize) {
        let total = self.half.total;
        self.chunk_size = chunk_size;
        let nchunks = total.div_ceil(chunk_size).max(1);
        self.d2h = vec![None; nchunks];
        if self.half.contiguous.is_some() {
            return; // no packing needed; D2H reads the user buffer directly
        }
        // Enqueue every chunk's pack up front (the paper's async 2D-copy
        // loop): the device packs ahead while earlier chunks drain to the
        // host and the wire.
        for i in 0..nchunks {
            let off = i * chunk_size;
            let len = chunk_size.min(total - off);
            let comp = self.half.gather(off, len);
            self.half.lanes.pack.comp_span("pack", Some(i), &comp);
            self.packs.push(comp);
        }
    }

    fn request_chunk(&mut self, idx: usize, dst: HostPtr, len: usize) {
        let comp = self.d2h(dst, idx * self.chunk_size, len, self.packs.get(idx));
        self.half.lanes.d2h.comp_span("d2h", Some(idx), &comp);
        self.d2h[idx] = Some(comp);
    }

    fn chunk_ready(&self, idx: usize) -> bool {
        self.d2h[idx].as_ref().is_some_and(Completion::poll)
    }

    fn next_event(&self) -> Option<SimTime> {
        next_done(self.d2h.iter())
    }

    fn device_gpu(&self) -> Option<u32> {
        Some(self.half.gpu.id())
    }

    fn stage_device(&mut self) -> Option<(DevPtr, Completion)> {
        // Device rendezvous (co-located ranks sharing this GPU): pack the
        // whole message into a device tbuf in one go — no chunking, the
        // receiver scatters straight from it. Contiguous buffers need no
        // packing at all; the user buffer itself is announced.
        if let Some(cptr) = self.half.contiguous {
            return Some((cptr, Completion::ready()));
        }
        let comp = self.half.gather(0, self.half.total);
        self.half.lanes.pack.comp_span("pack", None, &comp);
        Some((self.half.packed(0), comp))
    }

    fn pack_eager(&mut self) -> Vec<u8> {
        let total = self.half.total;
        let host = HostBuf::alloc(total);
        if total == 0 {
            return Vec::new();
        }
        let packing = self.half.contiguous.is_none();
        let pack = packing.then(|| self.half.gather(0, total));
        self.d2h(host.base(), 0, total, pack.as_ref()).wait();
        host.read(0, total)
    }
}

/// Receiver half of the GPU pipeline.
pub struct GpuRecvSink {
    half: DeviceHalf,
    chunk_size: usize,
    nchunks: usize,
    arrived: usize,
    h2d: Vec<Option<Completion>>,
    unpack: Vec<Option<Completion>>,
}

impl GpuRecvSink {
    /// H2D of packed bytes `[off, off + len)` from `src` to where they sit
    /// on the device, then — unless that already is the user buffer — the
    /// unpack after it (stream-wait dependency). A pipelined `chunk` leaves
    /// its stage spans, in issue order; an eager message (`None`) leaves none.
    fn h2d_unpack(
        &self,
        src: HostPtr,
        (off, len): (usize, usize),
        chunk: Option<usize>,
    ) -> (Completion, Option<Completion>) {
        let (half, at) = (&self.half, self.half.packed(off));
        let h2d = half.gpu.memcpy_async(at, Loc::Host(src), len, &half.pcie);
        if chunk.is_some() {
            half.lanes.h2d.comp_span("h2d", chunk, &h2d);
        }
        let packed = half.contiguous.is_none();
        let unpack = packed.then(|| half.scatter((off, len), at, &h2d));
        if let (Some(_), Some(up)) = (chunk, &unpack) {
            half.lanes.unpack.comp_span("unpack", chunk, up);
        }
        (h2d, unpack)
    }

    /// The whole message in one step: the chunk bookkeeping collapses to a
    /// single entry, finished when `unpack` is.
    fn single(&mut self, unpack: Option<Completion>) {
        (self.nchunks, self.arrived) = (1, 1);
        (self.h2d, self.unpack) = (vec![None], vec![unpack]);
    }
}

impl RecvSink for GpuRecvSink {
    fn total_bytes(&self) -> usize {
        self.half.total
    }

    fn begin(&mut self, chunk_size: usize, actual_total: usize) {
        self.half.check_fits(actual_total);
        self.chunk_size = chunk_size;
        self.nchunks = actual_total.div_ceil(chunk_size).max(1);
        self.h2d = vec![None; self.nchunks];
        self.unpack = vec![None; self.nchunks];
        if self.half.contiguous.is_none() && actual_total > 0 {
            self.half.tbuf(actual_total);
        }
    }

    fn chunk_arrived(&mut self, idx: usize, src: HostPtr, len: usize) {
        let (h2d, unpack) = self.h2d_unpack(src, (idx * self.chunk_size, len), Some(idx));
        (self.h2d[idx], self.unpack[idx]) = (Some(h2d), unpack);
        self.arrived += 1;
    }

    fn chunk_absorbed(&self, idx: usize) -> bool {
        // The staging vbuf is reusable as soon as its H2D copy has read it.
        self.h2d[idx].as_ref().is_some_and(Completion::poll)
    }

    fn finished(&self) -> bool {
        let mut all = self.h2d.iter().chain(&self.unpack).flatten();
        self.arrived == self.nchunks && all.all(Completion::poll)
    }

    fn next_event(&self) -> Option<SimTime> {
        next_done(self.h2d.iter().chain(&self.unpack))
    }

    fn device_gpu(&self) -> Option<u32> {
        Some(self.half.gpu.id())
    }

    fn absorb_device(
        &mut self,
        src: DevPtr,
        total: usize,
        ready: &Completion,
    ) -> Option<Completion> {
        self.half.check_fits(total);
        // One whole-message device-side absorb, its reads ordered after the
        // sender's pack (CUDA IPC event); the engine completes the receive
        // on this completion.
        let comp = self.half.scatter((0, total), src, ready);
        self.half.lanes.unpack.comp_span("unpack", None, &comp);
        self.single(Some(comp.clone()));
        Some(comp)
    }

    fn unpack_eager(&mut self, data: &[u8]) {
        self.half.check_fits(data.len());
        self.single(None);
        if data.is_empty() {
            return;
        }
        let host = HostBuf::from_vec(data.to_vec());
        if self.half.contiguous.is_none() {
            self.half.tbuf(data.len());
        }
        let (h2d, unpack) = self.h2d_unpack(host.base(), (0, data.len()), None);
        unpack.unwrap_or(h2d).wait();
        self.half.release();
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
        // Registered in pipeline order; the Chrome export numbers threads by it.
        let lane = |name| rec.lane(scope, name, LaneKind::Stage);
        let lanes = StageLanes {
            pack: lane("pack"),
            d2h: lane("d2h"),
            h2d: lane("h2d"),
            unpack: lane("unpack"),
        };
        GpuStager { gpu, pool, lanes }
    }

    /// The device side of a message in `buf` — a send's when `send` — with
    /// two new streams, created in pipeline order (a send packs, then copies
    /// out; a receive copies in, then unpacks) so that their sanitizer queue
    /// numbers follow the stages. `None` for a host buffer.
    fn half(&self, buf: &Loc, count: usize, dtype: &Datatype, send: bool) -> Option<DeviceHalf> {
        let Loc::Device(user) = *buf else { return None };
        assert_eq!(
            user.gpu_id(),
            self.gpu.id(),
            "device buffer belongs to a different GPU than this rank's"
        );
        let plan = dtype.plan(count);
        let contiguous = match Canonical::of(&plan) {
            Canonical::Contig { offset, .. } => Some(user.add_signed(offset)),
            _ => None,
        };
        let [first, second] = [(); 2].map(|()| self.gpu.create_stream());
        let (layout, pcie) = if send {
            (first, second)
        } else {
            (second, first)
        };
        Some(DeviceHalf {
            gpu: self.gpu.clone(),
            pool: Arc::clone(&self.pool),
            user,
            total: plan.total(),
            contiguous,
            plan,
            tbuf: None,
            lanes: self.lanes.clone(),
            layout,
            pcie,
        })
    }
}

impl BufferStager for GpuStager {
    fn source(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn SendSource>> {
        Some(Box::new(GpuSendSource {
            half: self.half(buf, count, dtype, true)?,
            chunk_size: 0,
            packs: Vec::new(),
            d2h: Vec::new(),
        }))
    }

    fn sink(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn RecvSink>> {
        Some(Box::new(GpuRecvSink {
            half: self.half(buf, count, dtype, false)?,
            chunk_size: 0,
            nchunks: 0,
            arrived: 0,
            h2d: Vec::new(),
            unpack: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_truncated_device_receive_dies_at_the_one_check() {
        // The engine refuses a truncating match before a sink sees it; a
        // sink handed one anyway must still refuse — chunked, eager and
        // device rendezvous alike — before it touches the device.
        let gpu = Gpu::tesla_c2050(0);
        let stager = GpuStager::with_scope(gpu.clone(), "rank0", &Recorder::off());
        let dt = Datatype::vector(16, 4, 8, &Datatype::float());
        dt.commit();
        let (capacity, dev) = (16 * 4 * 4, gpu.malloc(16 * 8 * 4));
        let mut sink = stager
            .sink(&Loc::Device(dev), 1, &dt)
            .expect("a device sink");
        assert_eq!(sink.total_bytes(), capacity);
        let too_long = vec![0u8; capacity + 1];
        type Path = fn(&mut dyn RecvSink, DevPtr, &[u8]);
        let paths: [(&str, Path); 3] = [
            ("chunked", |sink, _, data| sink.begin(64, data.len())),
            ("eager", |sink, _, data| sink.unpack_eager(data)),
            ("device", |sink, src, data| {
                sink.absorb_device(src, data.len(), &Completion::ready());
            }),
        ];
        for (path, call) in paths {
            let call = || call(&mut *sink, dev, &too_long);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("a truncated receive must die");
            let msg = died.downcast::<String>().expect("a message");
            let want = format!(
                "message truncated: {} bytes into a {capacity}-byte",
                capacity + 1
            );
            assert!(msg.contains(&want), "{path}: {msg}");
        }
        assert_eq!(gpu.live_allocs(), 1, "a refused receive took a tbuf");
    }
}
