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
//! device rendezvous) goes through. An eager message is the chunked path's
//! one-chunk case, its chunk staged in the payload itself; an empty one
//! costs the device nothing.
//!
//! Contiguous device buffers skip the tbuf entirely — they still get the
//! chunked PCIe/RDMA pipeline (the paper's "8x1 grid" case, which benefits
//! from pipelining alone).
//!
//! A one-chunk message (every eager one, and a rendezvous that fits one
//! chunk) prices its PCIe crossing under [`SchemeSel::Auto`]: when its
//! packed bytes — a receive's, the bytes actually coming — are one strided
//! run that [`pitched_run`] prices below pack + copy, it crosses in one
//! pitched copy between the user buffer and the host payload, with no tbuf
//! and no pack or unpack. A forced scheme keeps the paper's pack + copy,
//! and a longer transfer keeps the pipeline: its stages overlap, so a
//! serial sum would misprice it.
//!
//! **When the tbuf is taken is behaviour, not style.** A pool miss is a
//! `cudaMalloc`: it sleeps `malloc_ns` and decides device addresses. So a
//! send takes its tbuf at its first pack, a receive at `begin` (for the
//! bytes actually coming, not the layout's capacity) unless it crosses
//! pitched, and both hold it until they are dropped. The engine drops an eager receive's sink at
//! delivery, so the next message of the rank finds the tbuf in the pool; a
//! rendezvous receive keeps its sink until it is reaped.

use std::sync::Arc;

use gpu_sim::{DevPtr, Gpu, Loc, Stream};
use hostmem::HostPtr;
use mpi_sim::flat::Run;
use mpi_sim::staging::{BufferStager, RecvSink, SendSource};
use mpi_sim::{Canonical, Datatype, Plan, SchemeSel};
use sim_core::{Completion, SimTime};
use sim_trace::{Lane, LaneKind, Recorder};

use crate::gpu_pack::{enqueue_gather, enqueue_pitched, enqueue_scatter, pitched_run};
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
    /// Whether a one-chunk message prices its PCIe crossing.
    priced: bool,
    /// The user's rows a one-chunk message crosses PCIe as, in one pitched
    /// copy, when that priced cheaper than pack + copy.
    pitched: Option<Run>,
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

    /// Whether the message, `len` packed bytes in `nchunks` chunks, crosses
    /// PCIe in one pitched copy — to the host when `gather` — rather than
    /// by pack + copy; decided once, at `begin`.
    fn cross_pitched(&mut self, nchunks: usize, len: usize, gather: bool) -> bool {
        if self.priced && nchunks == 1 && self.contiguous.is_none() && len > 0 {
            let pieces = self.plan.pieces(0, len);
            self.pitched = pitched_run(self.gpu.cost_model(), gather, &pieces);
        }
        self.pitched.is_some()
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
}

impl Drop for DeviceHalf {
    fn drop(&mut self) {
        if let Some(t) = self.tbuf.take() {
            self.pool.put(t);
        }
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

impl SendSource for GpuSendSource {
    fn total_bytes(&self) -> usize {
        self.half.total
    }

    fn begin(&mut self, chunk_size: usize) {
        let total = self.half.total;
        self.chunk_size = chunk_size;
        let nchunks = total.div_ceil(chunk_size).max(1);
        self.d2h = vec![None; nchunks];
        if self.half.contiguous.is_some()
            || total == 0
            || self.half.cross_pitched(nchunks, total, true)
        {
            // No packing: D2H reads a contiguous user buffer, or the user's
            // rows, directly, and an empty message moves nothing.
            return;
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
        let half = &self.half;
        if len == 0 {
            // An empty eager message: no device operation, as none moves.
            self.d2h[idx] = Some(Completion::ready());
            return;
        }
        let comp = if let Some(run) = &half.pitched {
            // The user's rows straight into the payload, in one pitched D2H.
            enqueue_pitched(&half.gpu, &half.pcie, half.user, run, dst, true)
        } else {
            // One contiguous D2H of the chunk's packed bytes, no earlier
            // than the pack that produces them.
            if let Some(pack) = self.packs.get(idx) {
                half.pcie.wait_event(pack);
            }
            let src = half.packed(idx * self.chunk_size);
            half.gpu.memcpy_async(Loc::Host(dst), src, len, &half.pcie)
        };
        half.lanes.d2h.comp_span("d2h", Some(idx), &comp);
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
        let pitched = self.half.cross_pitched(self.nchunks, actual_total, false);
        if self.half.contiguous.is_none() && actual_total > 0 && !pitched {
            self.half.tbuf(actual_total);
        }
    }

    fn chunk_arrived(&mut self, idx: usize, src: HostPtr, len: usize) {
        self.arrived += 1;
        if len == 0 {
            // An empty eager message: no device operation, as none moves.
            self.h2d[idx] = Some(Completion::ready());
            return;
        }
        let half = &self.half;
        if let Some(run) = &half.pitched {
            // The payload straight into the user's rows, in one pitched H2D.
            let h2d = enqueue_pitched(&half.gpu, &half.pcie, half.user, run, src, false);
            half.lanes.h2d.comp_span("h2d", Some(idx), &h2d);
            self.h2d[idx] = Some(h2d);
            return;
        }
        // H2D to where the chunk's packed bytes sit on the device, then —
        // unless that already is the user buffer — the unpack after it
        // (stream-wait dependency), each leaving its stage span.
        let off = idx * self.chunk_size;
        let at = half.packed(off);
        let h2d = half.gpu.memcpy_async(at, Loc::Host(src), len, &half.pcie);
        half.lanes.h2d.comp_span("h2d", Some(idx), &h2d);
        if half.contiguous.is_none() {
            let unpack = half.scatter((off, len), at, &h2d);
            half.lanes.unpack.comp_span("unpack", Some(idx), &unpack);
            self.unpack[idx] = Some(unpack);
        }
        self.h2d[idx] = Some(h2d);
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
        // The chunk bookkeeping collapses to one entry, finished with it.
        (self.nchunks, self.arrived) = (1, 1);
        (self.h2d, self.unpack) = (vec![None], vec![Some(comp.clone())]);
        Some(comp)
    }
}

/// The MV2-GPU-NC staging provider: plugs GPU-offloaded datatype processing
/// into the MPI rendezvous engine for device-resident buffers.
pub struct GpuStager {
    gpu: Gpu,
    pool: Arc<TbufPool>,
    lanes: StageLanes,
    /// Whether one-chunk messages price their PCIe crossing.
    priced: bool,
}

impl GpuStager {
    /// A stager for `gpu`, recording stage spans into `rec` (pass
    /// [`Recorder::off`] for an untraced stager) on the lanes of `scope` —
    /// `rank3`, or `job2.rank0` so each tenant of a shared fabric keeps its
    /// stage spans in its own namespace. Under `scheme`'s
    /// [`SchemeSel::Auto`] a one-chunk message prices its PCIe crossing; a
    /// forced scheme keeps the paper's pack + copy.
    pub fn with_scope(gpu: Gpu, scope: &str, rec: &Recorder, scheme: SchemeSel) -> Self {
        let pool = Arc::new(TbufPool::new(gpu.clone()));
        // Registered in pipeline order; the Chrome export numbers threads by it.
        let lane = |name| rec.lane(scope, name, LaneKind::Stage);
        let lanes = StageLanes {
            pack: lane("pack"),
            d2h: lane("d2h"),
            h2d: lane("h2d"),
            unpack: lane("unpack"),
        };
        let priced = matches!(scheme, SchemeSel::Auto { .. });
        GpuStager {
            gpu,
            pool,
            lanes,
            priced,
        }
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
            priced: self.priced,
            pitched: None,
            tbuf: None,
            lanes: self.lanes.clone(),
            layout,
            pcie,
        })
    }
}

impl BufferStager for GpuStager {
    fn gpu(&self) -> Option<u32> {
        Some(self.gpu.id())
    }

    fn copy_to_host(
        &self,
        src: DevPtr,
        dst: &HostPtr,
        len: usize,
        after: &Completion,
    ) -> Option<Completion> {
        let room = dst.buf().len().checked_sub(dst.offset());
        assert!(
            room.is_some_and(|room| len <= room),
            "device-to-host copy of {len} bytes at offset {} exceeds host buffer of {} bytes",
            dst.offset(),
            dst.buf().len()
        );
        // The receive's copy, on a stream of its own that lives as long as
        // the enqueue: its reads ordered after the sender's pack (CUDA IPC
        // event), its span on the receiver's d2h lane.
        let stream = self.gpu.create_stream();
        stream.wait_event(after);
        let comp = self
            .gpu
            .memcpy_async(Loc::Host(dst.clone()), src, len, &stream);
        self.lanes.d2h.comp_span("d2h", None, &comp);
        Some(comp)
    }

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
    use hostmem::HostBuf;

    #[test]
    fn a_truncated_device_receive_dies_at_the_one_check() {
        // The engine refuses a truncating match before a sink sees it; a
        // sink handed one anyway must still refuse — chunked (an eager
        // message too: its one chunk) and device rendezvous alike — before
        // it touches the device.
        let gpu = Gpu::tesla_c2050(0);
        let stager =
            GpuStager::with_scope(gpu.clone(), "rank0", &Recorder::off(), SchemeSel::default());
        let dt = Datatype::vector(16, 4, 8, &Datatype::float());
        dt.commit();
        let (capacity, dev) = (16 * 4 * 4, gpu.malloc(16 * 8 * 4));
        let mut sink = stager
            .sink(&Loc::Device(dev), 1, &dt)
            .expect("a device sink");
        assert_eq!(sink.total_bytes(), capacity);
        let too_long = vec![0u8; capacity + 1];
        type Path = fn(&mut dyn RecvSink, DevPtr, &[u8]);
        let paths: [(&str, Path); 2] = [
            ("chunked", |sink, _, data| sink.begin(64, data.len())),
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

    #[test]
    fn a_device_to_host_copy_past_the_host_buffer_is_refused() {
        // A host receive absorbing a co-located device sender by one D2H:
        // a length past the host buffer, or one whose end would wrap, is
        // refused before the copy is enqueued, in every build profile.
        let gpu = Gpu::tesla_c2050(0);
        let stager =
            GpuStager::with_scope(gpu.clone(), "rank0", &Recorder::off(), SchemeSel::default());
        let (dev, host) = (gpu.malloc(128), HostBuf::alloc(64));
        gpu.write_bytes(dev, &[0xAB; 128]);
        for (off, len) in [(0, 65), (8, 57), (8, usize::MAX - 4)] {
            let dst = host.ptr(off);
            let call = || {
                stager.copy_to_host(dev, &dst, len, &Completion::ready());
            };
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("an overlong copy must be refused");
            let msg = died.downcast::<String>().expect("a message");
            let want = format!("copy of {len} bytes at offset {off} exceeds host buffer of 64");
            assert!(msg.contains(&want), "({off}, {len}): {msg}");
        }
        assert_eq!(host.read(0, 64), vec![0; 64], "a refused copy moved bytes");
    }
}
