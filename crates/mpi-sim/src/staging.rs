//! Staging abstraction: how message bytes get between the user buffer and
//! the registered host staging buffers the wire protocol operates on.
//!
//! The engine is generic over [`SendSource`] / [`RecvSink`] and moves every
//! message through them chunk by chunk: a staged rendezvous in chunks of
//! the negotiated size, an eager message as chunk 0 of a one-chunk transfer
//! whose staging buffer is the payload itself. This crate ships the host
//! implementations (CPU pack/unpack); the `mv2-gpu-nc` crate plugs in
//! device implementations (GPU-offloaded pack + PCIe pipeline) through the
//! [`BufferStager`] extension point — the same layering as MVAPICH2's
//! datatype/staging hooks.

use gpu_sim::Loc;
use hostmem::HostPtr;
use sim_core::{SimDur, SimTime};

use crate::datatype::Datatype;
use crate::pack::{CpuModel, PackCursor, UnpackCursor};

/// Produces the packed byte stream of a send buffer, chunk by chunk, into
/// registered host memory.
pub trait SendSource: Send {
    /// Total packed bytes.
    fn total_bytes(&self) -> usize;
    /// Called once with the negotiated chunk size before any chunk request
    /// (an eager message: the whole message, at least 1).
    fn begin(&mut self, chunk_size: usize);
    /// Make packed bytes `[idx*chunk_size, +len)` available in `dst`.
    /// Requests arrive in increasing `idx` order. A zero-length chunk (an
    /// empty eager message) costs no device operation.
    fn request_chunk(&mut self, idx: usize, dst: HostPtr, len: usize);
    /// True once the requested chunk is fully present in its `dst`.
    fn chunk_ready(&self, idx: usize) -> bool;
    /// Earliest future instant at which [`chunk_ready`](Self::chunk_ready)
    /// could change (None if only external events can change it).
    fn next_event(&self) -> Option<SimTime>;
    /// If this source is device memory: the GPU it lives on. Host sources
    /// return `None`, which disables the device rendezvous path.
    fn device_gpu(&self) -> Option<u32> {
        None
    }
    /// Device path: pack the whole message into device memory on
    /// [`device_gpu`](Self::device_gpu) and return (packed base, pack
    /// completion). The pointer must stay valid until this source is
    /// dropped. `None` if unsupported (host sources).
    fn stage_device(&mut self) -> Option<(gpu_sim::DevPtr, sim_core::Completion)> {
        None
    }
}

/// Consumes the packed byte stream chunk by chunk from registered host
/// memory into the user receive buffer.
pub trait RecvSink: Send {
    /// Total packed bytes expected.
    fn total_bytes(&self) -> usize;
    /// Called once with the negotiated chunk size and the *actual*
    /// incoming byte count (which may be smaller than
    /// [`total_bytes`](Self::total_bytes), the buffer's capacity). Panics
    /// on a count above the capacity: the engine refuses a truncating match
    /// first, so this is the layout's own guard.
    fn begin(&mut self, chunk_size: usize, actual_total: usize);
    /// Packed bytes `[idx*chunk_size, +len)` have landed in `src`. A
    /// zero-length chunk (an empty eager message) costs no device operation.
    fn chunk_arrived(&mut self, idx: usize, src: HostPtr, len: usize);
    /// True once the staging buffer of chunk `idx` may be reused.
    fn chunk_absorbed(&self, idx: usize) -> bool;
    /// True once every byte rests in the user buffer.
    fn finished(&self) -> bool;
    /// Earliest future instant at which [`chunk_absorbed`](Self::chunk_absorbed)
    /// or [`finished`](Self::finished) could change.
    fn next_event(&self) -> Option<SimTime>;
    /// If this sink is device memory: the GPU it lives on. Host sinks
    /// return `None`; a contiguous host receive is offered the device
    /// rendezvous through the rank's [`BufferStager::gpu`] instead.
    fn device_gpu(&self) -> Option<u32> {
        None
    }
    /// Device path: scatter `total` packed bytes that sit at `src` on the
    /// shared GPU into the user buffer, ordering the reads after `ready`
    /// (the sender's pack completion). Returns the unpack completion, or
    /// `None` for a host sink: a contiguous host receive absorbs the same
    /// bytes by one D2H through [`BufferStager::copy_to_host`], and any
    /// other host receive is never offered the device path.
    fn absorb_device(
        &mut self,
        src: gpu_sim::DevPtr,
        total: usize,
        ready: &sim_core::Completion,
    ) -> Option<sim_core::Completion> {
        let _ = (src, total, ready);
        None
    }
}

/// Extension point: builds sources/sinks for buffer kinds this crate does
/// not handle (device memory). Return `None` to fall through.
pub trait BufferStager: Send + Sync {
    /// Build a send source for `buf` if this stager handles it.
    fn source(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn SendSource>>;
    /// Build a receive sink for `buf` if this stager handles it.
    fn sink(&self, buf: &Loc, count: usize, dtype: &Datatype) -> Option<Box<dyn RecvSink>>;
    /// The GPU this stager's rank drives, if any: a contiguous host receive
    /// on it is offered the device path, which
    /// [`copy_to_host`](Self::copy_to_host) serves.
    fn gpu(&self) -> Option<u32> {
        None
    }
    /// Device path into host memory: copy `len` bytes at `src` on
    /// [`gpu`](Self::gpu) to `dst` by one D2H, ordered after `after` (the
    /// sender's pack completion). Refuses a `len` that reaches past `dst`'s
    /// buffer before a byte moves. Returns the copy's completion, or `None`
    /// without a GPU.
    fn copy_to_host(
        &self,
        src: gpu_sim::DevPtr,
        dst: &HostPtr,
        len: usize,
        after: &sim_core::Completion,
    ) -> Option<sim_core::Completion> {
        let _ = (src, dst, len, after);
        None
    }
}

// ---------------------------------------------------------------------------
// Host implementations.
// ---------------------------------------------------------------------------

/// CPU time to pack or unpack `bytes` of a `total`-byte layout of `rows`
/// rows: the bytes' share of the rows pays the per-row cost.
fn pack_cost(cpu: &CpuModel, rows: usize, total: usize, bytes: usize) -> SimDur {
    let touched = match total {
        0 => 0,
        _ => (rows * bytes).div_ceil(total),
    };
    cpu.pack_time(bytes, touched)
}

/// CPU pack source for host buffers.
pub struct HostSendSource {
    cursor: PackCursor,
    total: usize,
    segments: usize,
    cpu: CpuModel,
    ready_upto: usize,
}

impl HostSendSource {
    /// Pack `count * dtype` from the host buffer at `base`.
    pub fn new(base: HostPtr, count: usize, dtype: &Datatype, cpu: CpuModel) -> Self {
        let plan = dtype.flat().plan(count);
        HostSendSource {
            segments: plan.num_segments(),
            total: plan.total(),
            cursor: PackCursor::from_plan(base, plan),
            cpu,
            ready_upto: 0,
        }
    }
}

impl SendSource for HostSendSource {
    fn total_bytes(&self) -> usize {
        self.total
    }

    fn begin(&mut self, _chunk_size: usize) {}

    fn request_chunk(&mut self, idx: usize, dst: HostPtr, len: usize) {
        assert_eq!(
            idx, self.ready_upto,
            "host source: out-of-order chunk request"
        );
        // CPU pack happens synchronously in the progress engine, costing
        // pack time (a zero-length chunk still yields).
        sim_core::sleep(pack_cost(&self.cpu, self.segments, self.total, len));
        self.cursor.pack_into_host(&dst, len);
        self.ready_upto = idx + 1;
    }

    fn chunk_ready(&self, idx: usize) -> bool {
        idx < self.ready_upto
    }

    fn next_event(&self) -> Option<SimTime> {
        None
    }
}

/// CPU unpack sink for host buffers.
pub struct HostRecvSink {
    cursor: UnpackCursor,
    total: usize,
    segments: usize,
    cpu: CpuModel,
    absorbed_upto: usize,
    consumed: usize,
    expected: usize,
}

impl HostRecvSink {
    /// Unpack into `count * dtype` at the host buffer `base`.
    pub fn new(base: HostPtr, count: usize, dtype: &Datatype, cpu: CpuModel) -> Self {
        let plan = dtype.flat().plan(count);
        let total = plan.total();
        HostRecvSink {
            segments: plan.num_segments(),
            cursor: UnpackCursor::from_plan(base, plan),
            total,
            cpu,
            absorbed_upto: 0,
            consumed: 0,
            expected: total,
        }
    }
}

impl RecvSink for HostRecvSink {
    fn total_bytes(&self) -> usize {
        self.total
    }

    fn begin(&mut self, _chunk_size: usize, actual_total: usize) {
        // The engine refuses a truncating match first; this is the layout's
        // own guard against unpacking past the user buffer.
        assert!(
            actual_total <= self.total,
            "message truncated: {actual_total} bytes into a {}-byte layout",
            self.total
        );
        self.expected = actual_total;
    }

    fn chunk_arrived(&mut self, idx: usize, src: HostPtr, len: usize) {
        assert_eq!(idx, self.absorbed_upto, "host sink: out-of-order chunk");
        sim_core::sleep(pack_cost(&self.cpu, self.segments, self.total, len));
        self.cursor.unpack_from_host(&src, len);
        self.absorbed_upto = idx + 1;
        self.consumed += len;
    }

    fn chunk_absorbed(&self, idx: usize) -> bool {
        idx < self.absorbed_upto
    }

    fn finished(&self) -> bool {
        self.consumed == self.expected
    }

    fn next_event(&self) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::HostBuf;
    use sim_core::Sim;

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("t", f);
        sim.run();
    }

    #[test]
    fn host_source_chunks_match_whole_pack() {
        in_sim(|| {
            let dt = Datatype::vector(8, 1, 3, &Datatype::float());
            dt.commit();
            let buf = HostBuf::from_vec((0..8 * 3 * 4).map(|i| (i % 256) as u8).collect());
            let expect = dt.pack(&buf.base(), 1);
            assert_eq!(expect.len(), 32);

            let mut chunked = HostSendSource::new(buf.base(), 1, &dt, CpuModel::westmere());
            chunked.begin(12);
            let stage = HostBuf::alloc(64);
            let mut got = Vec::new();
            for (i, len) in [(0usize, 12usize), (1, 12), (2, 8)] {
                chunked.request_chunk(i, stage.base(), len);
                assert!(chunked.chunk_ready(i));
                got.extend(stage.read(0, len));
            }
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn host_sink_reassembles() {
        in_sim(|| {
            let dt = Datatype::vector(4, 2, 4, &Datatype::float());
            dt.commit();
            let src_buf = HostBuf::from_vec((0..64).map(|i| i as u8).collect());
            let packed = dt.pack(&src_buf.base(), 1);

            let dst_buf = HostBuf::alloc(64);
            let mut sink = HostRecvSink::new(dst_buf.base(), 1, &dt, CpuModel::westmere());
            sink.begin(10, 32);
            let stage = HostBuf::alloc(16);
            let mut off = 0;
            let mut idx = 0;
            while off < packed.len() {
                let len = 10.min(packed.len() - off);
                stage.write(0, &packed[off..off + len]);
                sink.chunk_arrived(idx, stage.base(), len);
                assert!(sink.chunk_absorbed(idx));
                off += len;
                idx += 1;
            }
            assert!(sink.finished());
            // Data segments match; holes remain zero.
            for blk in 0..4 {
                let o = blk * 16;
                assert_eq!(dst_buf.read(o, 8), src_buf.read(o, 8));
                assert_eq!(dst_buf.read(o + 8, 8), vec![0u8; 8]);
            }
        });
    }

    #[test]
    fn eager_round_trip() {
        // An eager message is a one-chunk transfer through one payload.
        in_sim(|| {
            let dt = Datatype::contiguous(10, &Datatype::int());
            dt.commit();
            let src = HostBuf::from_vec((0..40).map(|i| i as u8).collect());
            let (dst, payload) = (HostBuf::alloc(40), HostBuf::alloc(40));
            let cpu = CpuModel::westmere();
            let mut source = HostSendSource::new(src.base(), 1, &dt, cpu.clone());
            source.begin(40);
            source.request_chunk(0, payload.base(), 40);
            assert!(source.chunk_ready(0));
            let mut sink = HostRecvSink::new(dst.base(), 1, &dt, cpu);
            sink.begin(40, 40);
            sink.chunk_arrived(0, payload.base(), 40);
            assert!(sink.finished());
            assert_eq!(dst.read(0, 40), src.read(0, 40));
        });
    }

    #[test]
    fn an_eager_receive_pays_only_for_the_rows_it_writes() {
        // 8 floats, one per row, into a vector layout of 8 rows and one of
        // 1024: the receiver unpacks 8 rows either way.
        let receive_ns = |rows: usize| {
            let dt = Datatype::vector(rows, 1, 2, &Datatype::float());
            dt.commit();
            let sim = Sim::new();
            sim.spawn("t", move || {
                let dst = HostBuf::alloc(rows * 8);
                let payload = HostBuf::from_vec(vec![7u8; 32]);
                let mut sink = HostRecvSink::new(dst.base(), 1, &dt, CpuModel::westmere());
                sink.begin(32, 32);
                sink.chunk_arrived(0, payload.base(), 32);
                assert!(sink.finished());
                assert_eq!(dst.read(56, 4), [7u8; 4]);
            });
            sim.run().as_nanos()
        };
        assert_eq!(receive_ns(1024), receive_ns(8));
    }

    #[test]
    fn packing_costs_cpu_time() {
        in_sim(|| {
            let dt = Datatype::contiguous(1 << 18, &Datatype::float());
            dt.commit();
            let (buf, payload) = (HostBuf::alloc(1 << 20), HostBuf::alloc(1 << 20));
            let t0 = sim_core::now();
            let mut source = HostSendSource::new(buf.base(), 1, &dt, CpuModel::westmere());
            source.begin(1 << 20);
            source.request_chunk(0, payload.base(), 1 << 20);
            assert!(sim_core::now() > t0, "packing 1 MiB must take CPU time");
        });
    }
}
