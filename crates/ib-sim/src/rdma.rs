//! One-sided writes into registered memory: the HCA's RDMA write, its
//! scatter/gather offload form, and the intra-node shm write.
//!
//! All three place bytes into a region a peer registered
//! ([`Nic::register`]) and named by an [`MrKey`]; the remote CPU sees no
//! event (the protocol above announces completion with its own FIN message,
//! exactly as MVAPICH2 does). They differ in their pre-checks (a pinned
//! source for the HCA, co-location for shm), in whether the fault layer can
//! fail them, and in the engine they occupy — and share one tail
//! ([`Nic::place`]): declare the ranges, copy, occupy.
//!
//! **The copy is eager.** Bytes land in the target buffer when the write is
//! *posted*, not at the instant the model says they arrive. That is sound
//! because any notification of the write (a FIN, a credit) travels behind
//! it on the same FIFO engine, so no well-behaved receiver looks earlier —
//! and the sanitizer, which is told the real interval, reports the ones
//! that do. The copy itself runs under `san::suppress`: it is the
//! simulator moving bytes, not a modeled CPU access.
//!
//! **The copy is buffer to buffer.** Each write moves bytes from the source
//! buffer's storage straight into the region's ([`hostmem::Copier`]), with
//! no staging vector, under one lock of each. The scatter/gather form walks
//! the gather and scatter lists in lockstep (`SgWalk`): when both walks sit
//! at a block start and their runs' block widths agree, the blocks both
//! runs still have move as one pitched copy; otherwise the shorter
//! remainder of the two current blocks moves as one row. Entries that move
//! no byte are skipped. What is placed is what gathering the whole message
//! and then scattering it would place.
//!
//! **Where the fault roll sits.** After the post overhead (the sleep yields,
//! so the draw order across ranks depends on it) and before the MR lookup: a
//! failed post occupies the engine and the wire like a retry-exhausted
//! transfer but never touches the target, so it creates no sanitizer
//! operation and cannot protection-fault. All arms draw from one shared
//! stream; the order is committed in `results/fault_campaign.json`.
//!
//! **Protection faults.** An unpinned source, an unknown key or an access
//! outside the region is what an HCA answers with a protection error that
//! tears the QP down; here it is reported to the sanitizer and then panics
//! ([`protection_fault`]). Bounds are checked in `checked_*` arithmetic: an
//! offset near `usize::MAX` is out of bounds, not a small number.

use hostmem::{HostBuf, HostPtr};
use sim_core::san;
use sim_core::{Completion, SimDur};

use crate::nic::Nic;
use crate::node::{Busy, Route, OFFLOAD};

/// Remote key of a registered memory region.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MrKey(pub(crate) u64);

/// One strided run of a scatter/gather wire descriptor: `count` blocks of
/// `len` bytes, the first at `offset`, successive blocks `stride` bytes
/// apart. Offsets are absolute within the buffer (gather side) or memory
/// region (scatter side) the entry addresses. The HCA's offload engine
/// fetches one descriptor entry per run
/// ([`NetModel::offload_entry_ns`](crate::NetModel::offload_entry_ns)),
/// so a whole strided plane costs one fetch, not one per block.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SgEntry {
    /// Byte offset of the first block.
    pub offset: usize,
    /// Bytes per block.
    pub len: usize,
    /// Distance between consecutive block starts, bytes.
    pub stride: usize,
    /// Number of blocks in the run.
    pub count: usize,
}

impl SgEntry {
    /// Payload bytes this run moves.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }

    /// Extent of the run in its buffer: first to last byte touched.
    /// Saturates for a run that does not fit the address space, which no
    /// buffer contains.
    pub fn span(&self) -> usize {
        self.end().map_or(usize::MAX, |end| end - self.offset)
    }

    /// One past the last byte the run touches, if that is addressable.
    fn end(&self) -> Option<usize> {
        match self.count.checked_sub(1) {
            None => Some(self.offset),
            Some(gaps) => gaps
                .checked_mul(self.stride)?
                .checked_add(self.len)?
                .checked_add(self.offset),
        }
    }
}

/// A position in a scatter/gather list: entry, block within it, byte within
/// that block. Entries that move no byte are skipped.
#[derive(Default)]
struct SgWalk<'a> {
    list: &'a [SgEntry],
    entry: usize,
    row: usize,
    off: usize,
}

impl<'a> SgWalk<'a> {
    fn new(list: &'a [SgEntry]) -> Self {
        SgWalk {
            list,
            ..Default::default()
        }
    }

    /// The current entry, past any that move no byte; `None` once the list
    /// is walked.
    fn entry(&mut self) -> Option<SgEntry> {
        while self.list.get(self.entry).is_some_and(|e| e.bytes() == 0) {
            self.entry += 1;
        }
        self.list.get(self.entry).copied()
    }

    /// Offset of the current byte in the entry's buffer.
    fn at(&self) -> usize {
        let e = self.list[self.entry];
        e.offset + self.row * e.stride + self.off
    }

    /// Step past `rows` rows of `width` bytes: whole blocks when `rows > 1`.
    fn advance(&mut self, width: usize, rows: usize) {
        let e = self.list[self.entry];
        self.off += width;
        if self.off == e.len {
            self.off = 0;
            self.row += rows;
        }
        if self.row == e.count {
            self.row = 0;
            self.entry += 1;
        }
    }
}

/// The simulator's HCA protection fault: told to the sanitizer (a protocol
/// report), then fatal to the posting process.
fn protection_fault(msg: String) -> ! {
    san::report_protocol(msg.as_str());
    panic!("{msg}")
}

fn require_pinned(what: &str, src: &HostPtr) {
    if !src.buf().is_pinned() {
        protection_fault(format!("{what} from unpinned local memory {:?}", src.buf()));
    }
}

fn host_range(buf: &HostBuf, start: usize, len: usize) -> san::MemRange {
    let domain = san::MemDomain::Host { buf: buf.id() };
    san::MemRange { domain, start, len }
}

impl Nic {
    /// Look up the MR `key` on `dst`'s node, validate `[offset, offset+len)`
    /// against it, and return its buffer. Protection-faults on unknown keys
    /// or out-of-bounds access (`what` labels the faulting operation).
    fn resolve_mr(&self, what: &str, dst: usize, key: MrKey, offset: usize, len: usize) -> HostBuf {
        let at = self.phys_node_of(dst);
        let found = self.fabric.inner.nodes[at]
            .lock()
            .mrs
            .get(&key)
            .map(|mr| mr.buf.clone());
        let Some(buf) = found else {
            protection_fault(format!(
                "{what} to unknown MrKey {key:?} on node {at} \
                 (unregistered or deregistered target region)"
            ));
        };
        if offset.checked_add(len).is_none_or(|end| end > buf.len()) {
            protection_fault(format!(
                "{what} out of bounds: {offset}+{len} > {}",
                buf.len()
            ));
        }
        buf
    }

    /// The tail every one-sided write ends in, past its own pre-checks,
    /// fault arm and MR lookup: perform `copy` now (see the module docs),
    /// then occupy the engine with the sanitizer told what was touched.
    fn place(
        &self,
        route: Route,
        span: &'static str,
        bytes: usize,
        extra: SimDur,
        decl: san::OpDesc,
        copy: impl FnOnce(),
    ) -> Busy {
        {
            let _quiet = san::suppress();
            copy();
        }
        self.occupy(route, span, bytes, extra, Some(decl))
    }

    /// A contiguous write over `route`, past the route's own pre-checks.
    fn write_over(
        &self,
        route: Route,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        let (what, kind, span) = match route {
            Route::Hca => ("RDMA write", "rdma_write", "rdma"),
            Route::Shm => ("shm write", "shm_write", "copy"),
        };
        let mr_buf = self.resolve_mr(what, dst, key, dst_offset, len);
        let decl = san::OpDesc {
            kind,
            reads: vec![host_range(src.buf(), src.offset(), len)],
            writes: vec![host_range(&mr_buf, dst_offset, len)],
            ..Default::default()
        };
        let copy = || HostBuf::copy(src, &mr_buf.ptr(dst_offset), len);
        self.place(route, span, len, SimDur::ZERO, decl, copy)
            .completion()
    }

    /// One-sided write of `len` bytes from `src` into `(dst, key,
    /// dst_offset)` over whichever engine [`Nic::route`] names for `dst`:
    /// [`Nic::shm_write`] toward a distinct co-located endpoint,
    /// [`Nic::rdma_write`] toward everyone else.
    pub fn write(
        &self,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        match self.route(dst) {
            Route::Hca => self.rdma_write(dst, key, dst_offset, src, len),
            Route::Shm => self.shm_write(dst, key, dst_offset, src, len),
        }
    }

    /// One-sided RDMA write: place `len` bytes from the local pinned region
    /// at `src` into `(dst, key, dst_offset)` on the destination endpoint's
    /// node. The remote CPU sees no event; the returned completion is the
    /// sender-side CQE. With
    /// [`FaultSpec::rdma_error`](crate::FaultSpec::rdma_error) armed, a post
    /// can fail: it occupies the engine and the wire, places no bytes and
    /// completes with an error CQE.
    ///
    /// Panics (a simulated HCA protection fault) if the local source is not
    /// pinned, the remote key is unknown, or the write is out of bounds.
    pub fn rdma_write(
        &self,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        require_pinned("RDMA write", src);
        self.post_overhead(Route::Hca);
        let faults = &self.fabric.inner.faults;
        if faults.as_ref().is_some_and(|f| f.rdma_error()) {
            let busy = self.occupy(Route::Hca, "rdma", len, SimDur::ZERO, None);
            self.my_node()
                .fault_mark(Route::Hca as usize, "fault.rdma_error", busy.visible);
            return busy.failed();
        }
        self.write_over(Route::Hca, dst, key, dst_offset, src, len)
    }

    /// What the offload engine charges to walk `entries` scatter/gather
    /// descriptor entries: one fetch each
    /// ([`NetModel::offload_entry_ns`](crate::NetModel::offload_entry_ns)).
    /// [`Nic::rdma_write_sg`] charges it per post; a scheme layer weighs it
    /// against the CPU pack a walk saves.
    pub fn offload_walk_time(&self, entries: usize) -> SimDur {
        SimDur::from_nanos(entries as u64 * self.fabric.inner.model.offload_entry_ns)
    }

    /// One-sided scatter/gather write: the HCA's offload engine walks the
    /// `gather` descriptor over `src`'s buffer, streams the packed bytes to
    /// `dst`, and the remote HCA walks `scatter` to place them into the
    /// region named by `key` — no CPU pack/unpack on either side. Entry
    /// offsets are absolute within `src`'s buffer (gather) and within the
    /// remote MR (scatter).
    ///
    /// Cost model: one descriptor fetch per entry
    /// ([`Nic::offload_walk_time`]) plus DMA serialization of the payload,
    /// both charged against the node's HCA transmit engine (and scaled by
    /// the job's QoS share like any other transmit). With
    /// [`FaultSpec::desc_fetch_error`](crate::FaultSpec::desc_fetch_error)
    /// armed, a post can fail its descriptor fetch: it occupies the engine
    /// (the HCA burned the fetches before aborting), places no bytes and
    /// completes with an error CQE — callers retry like a failed
    /// [`Nic::rdma_write`].
    ///
    /// Panics (a simulated HCA protection fault) if the local source is not
    /// pinned, the remote key is unknown or either descriptor runs out of
    /// bounds; and if the gather and scatter descriptors disagree on the
    /// total byte count.
    pub fn rdma_write_sg(
        &self,
        dst: usize,
        key: MrKey,
        src: &HostPtr,
        gather: &[SgEntry],
        scatter: &[SgEntry],
    ) -> Completion {
        require_pinned("SG write", src);
        let total: usize = gather.iter().map(SgEntry::bytes).sum();
        let scatter_total: usize = scatter.iter().map(SgEntry::bytes).sum();
        // Caller contract: both descriptors are lowered from one message
        // (mpi-sim clips the scatter side to the sender's total).
        assert_eq!(
            total, scatter_total,
            "SG write descriptors disagree: gather {total} bytes, scatter {scatter_total}"
        );
        let entries = gather.len() + scatter.len();
        let fab = &*self.fabric.inner;
        let extra = self.offload_walk_time(entries);
        self.post_overhead(Route::Hca);
        if fab.faults.as_ref().is_some_and(|f| f.desc_fetch_error()) {
            let busy = self.occupy(Route::Hca, "offload", total, extra, None);
            let node = self.my_node();
            node.span(OFFLOAD, "sg_fault", &busy);
            node.fault_mark(OFFLOAD, "fault.desc_fetch", busy.visible);
            return busy.failed();
        }
        // Sanitizer ranges cover each run's full extent (holes included) —
        // one range per descriptor entry, mirroring what the HCA's DMA
        // engine may touch.
        let (from, from_len) = (src.buf(), src.buf().len());
        let reads = gather
            .iter()
            .map(|e| match e.end() {
                Some(end) if end <= from_len => host_range(from, e.offset, e.span()),
                _ => protection_fault(format!(
                    "SG gather entry {e:?} out of bounds of local buffer (len {from_len})"
                )),
            })
            .collect();
        let extent = scatter
            .iter()
            .try_fold(0, |max: usize, e| Some(max.max(e.end()?)))
            .unwrap_or(usize::MAX);
        let mr_buf = self.resolve_mr("SG write", dst, key, 0, extent);
        let writes = scatter
            .iter()
            .map(|e| host_range(&mr_buf, e.offset, e.span()))
            .collect();
        let decl = san::OpDesc {
            kind: "rdma_write_sg",
            reads,
            writes,
            ..Default::default()
        };
        let busy = self.place(Route::Hca, "offload", total, extra, decl, || {
            HostBuf::with_copier(from, &mr_buf, |c| {
                let (mut g, mut s) = (SgWalk::new(gather), SgWalk::new(scatter));
                while let (Some(ge), Some(se)) = (g.entry(), s.entry()) {
                    // Rows both runs still have move as one pitched block
                    // when both walks sit at a row start and the widths
                    // agree; otherwise the shorter remainder of the two rows
                    // moves.
                    let width = (ge.len - g.off).min(se.len - s.off);
                    let rows = match (g.off, s.off) {
                        (0, 0) if ge.len == se.len => (ge.count - g.row).min(se.count - s.row),
                        _ => 1,
                    };
                    c.copy_rows(g.at(), ge.stride, s.at(), se.stride, width, rows);
                    g.advance(width, rows);
                    s.advance(width, rows);
                }
            })
        });
        let node = self.my_node();
        node.bill(self.job_state(), "offload.bytes", total as u64);
        node.counters.add("offload.entries", entries as u64);
        node.span(OFFLOAD, "sg", &busy);
        busy.completion()
    }

    /// Intra-node one-sided write: place `len` bytes from `src` into
    /// `(dst, key, dst_offset)` through the node's shm copy engine. The
    /// shared-memory analogue of [`Nic::rdma_write`]: same MR naming and
    /// protection-fault semantics, but no HCA, no wire, no pinning
    /// requirement on the source (the CPU copies through shared pages), and
    /// no fault injection.
    ///
    /// Panics if `dst` is not co-located with this endpoint, if the key is
    /// unknown, or if the write is out of bounds.
    pub fn shm_write(
        &self,
        dst: usize,
        key: MrKey,
        dst_offset: usize,
        src: &HostPtr,
        len: usize,
    ) -> Completion {
        // Caller contract: whoever bypasses `Nic::write` consults the
        // topology itself.
        assert!(
            self.colocated(dst),
            "shm write from endpoint {} to endpoint {dst} on another node",
            self.endpoint
        );
        self.post_overhead(Route::Shm);
        self.write_over(Route::Shm, dst, key, dst_offset, src, len)
    }
}

#[cfg(test)]
mod tests {
    use sim_core::Sim;

    use super::*;
    use crate::tests::in_sim;
    use crate::{Fabric, FaultSpec, NetModel, ShmModel, Topology};

    #[test]
    fn rdma_write_places_bytes_remotely() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target); // outside sim: no time cost
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec(vec![7u8; 16]);
                nic.register(&src); // pin it
                let c = nic.rdma_write(1, key, 8, &src.base(), 16);
                c.wait();
                assert_eq!(t2.read(8, 16), vec![7u8; 16]);
                assert_eq!(t2.read(0, 8), vec![0u8; 8]);
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "unpinned local memory")]
    fn rdma_from_unpinned_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rdma_out_of_bounds_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(128);
            fabric.nic(0).register(&src);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 128);
        });
    }

    /// Run `body` in a collecting simulation: it must die of a protection
    /// fault the sanitizer was told about first (a report containing
    /// `expected`). Re-raises the panic for `should_panic` to match.
    fn protection_fault_in(expected: &str, body: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.set_sanitizer(sim_core::SanitizerMode::Collect);
        sim.spawn("p", body);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("the access must fault");
        let reports = sim.sanitizer_reports();
        assert!(
            reports.iter().any(|r| r.message.contains(expected)),
            "no sanitizer report of the fault in {reports:?}"
        );
        std::panic::resume_unwind(died);
    }

    #[test]
    #[should_panic(expected = "RDMA write out of bounds")]
    fn rdma_offset_that_wraps_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let key = fabric.nic(1).register(&HostBuf::alloc(64));
        protection_fault_in("RDMA write out of bounds", move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).register(&src);
            // usize::MAX - 3 + 8 wraps to 4, well inside the 64-byte region.
            fabric
                .nic(0)
                .rdma_write(1, key, usize::MAX - 3, &src.base(), 8);
        });
    }

    #[test]
    #[should_panic(expected = "SG gather entry")]
    fn sg_gather_span_that_wraps_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let key = fabric.nic(1).register(&HostBuf::alloc(64));
        protection_fault_in("SG gather entry", move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).register(&src);
            // 2 * (usize::MAX / 2) + 4 wraps to 2: a 2-byte span by wrapping
            // arithmetic, three blocks half the address space apart in fact.
            let gather = [SgEntry {
                offset: 0,
                len: 4,
                stride: usize::MAX / 2,
                count: 3,
            }];
            let scatter = [SgEntry {
                offset: 0,
                len: 4,
                stride: 4,
                count: 3,
            }];
            fabric
                .nic(0)
                .rdma_write_sg(1, key, &src.base(), &gather, &scatter);
        });
    }

    #[test]
    #[should_panic(expected = "unknown MrKey")]
    fn rdma_after_deregister_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let nic1 = fabric.nic(1);
        let key = nic1.register(&target);
        nic1.deregister(key);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).register(&src);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    fn unknown_mr_key_report_is_single_spaced() {
        // The protection fault is reported to the sanitizer before it
        // panics; the report text must not carry a lost line continuation.
        let sim = Sim::new();
        sim.set_sanitizer(sim_core::SanitizerMode::Collect);
        let fabric = Fabric::new(2, NetModel::qdr());
        let nic1 = fabric.nic(1);
        let key = nic1.register(&HostBuf::alloc(64));
        nic1.deregister(key);
        sim.spawn("p", move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).register(&src);
            fabric.nic(0).rdma_write(1, key, 0, &src.base(), 16);
        });
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .expect_err("a write to a deregistered region must fault");
        let reports = sim.sanitizer_reports();
        let r = reports
            .iter()
            .find(|r| r.message.contains("unknown MrKey"))
            .unwrap_or_else(|| panic!("no unknown-MrKey report in {reports:?}"));
        assert!(!r.message.contains("  "), "mangled report: {:?}", r.message);
        assert!(r
            .message
            .ends_with("(unregistered or deregistered target region)"));
    }

    #[test]
    fn injected_rdma_error_places_no_bytes() {
        let sim = Sim::new();
        let fabric = Fabric::with_topology(
            Topology::one_per_node(2),
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                rdma_error: 1.0,
                ..FaultSpec::seeded(5)
            }),
        );
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec(vec![7u8; 16]);
                nic.register(&src);
                let c = nic.rdma_write(1, key, 0, &src.base(), 16);
                c.wait();
                assert!(c.is_error(), "injected failure must surface as error CQE");
                assert_eq!(t2.read(0, 16), vec![0u8; 16], "no bytes placed");
            });
        }
        sim.run();
    }

    #[test]
    fn shm_write_places_bytes_without_hca() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        {
            let nic = fabric.nic(0);
            let t2 = target.clone();
            let f2 = fabric.clone();
            sim.spawn("writer", move || {
                // No pinning required on the source: the CPU does the copy.
                let src = HostBuf::from_vec(vec![3u8; 16]);
                let c = nic.shm_write(1, key, 4, &src.base(), 16);
                c.wait();
                assert_eq!(t2.read(4, 16), vec![3u8; 16]);
                assert_eq!(f2.hca_tx_bytes(0), 0);
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "on another node")]
    fn shm_write_across_nodes_faults() {
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&target);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).shm_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    #[should_panic(expected = "unknown MrKey")]
    fn shm_write_unknown_key_faults() {
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let target = HostBuf::alloc(64);
        let nic1 = fabric.nic(1);
        let key = nic1.register(&target);
        nic1.deregister(key);
        in_sim(move || {
            let src = HostBuf::alloc(16);
            fabric.nic(0).shm_write(1, key, 0, &src.base(), 16);
        });
    }

    #[test]
    fn write_follows_the_route() {
        let sim = Sim::new();
        let rec = sim_trace::Recorder::new();
        let topo = Topology::from_map(vec![0, 0, 1]);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        fabric.attach_recorder(&rec);
        let targets: Vec<HostBuf> = (0..3).map(|_| HostBuf::alloc(32)).collect();
        let keys: Vec<MrKey> = (0..3)
            .map(|r| fabric.nic(r).register(&targets[r]))
            .collect();
        let nic = fabric.nic(0);
        assert_eq!(
            [nic.route(0), nic.route(1), nic.route(2)],
            [Route::Hca, Route::Shm, Route::Hca]
        );
        let f2 = fabric.clone();
        sim.spawn("writer", move || {
            let src = HostBuf::from_vec((0..32).collect());
            nic.register(&src);
            // A distinct co-located peer: the shm engine, not a byte on the
            // HCA.
            nic.write(1, keys[1], 0, &src.base(), 32).wait();
            assert_eq!((f2.shm_bytes(0), f2.hca_tx_bytes(0)), (32, 0));
            // A remote peer and the endpoint itself: the HCA.
            nic.write(2, keys[2], 0, &src.base(), 32).wait();
            nic.write(0, keys[0], 0, &src.base(), 32).wait();
            assert_eq!((f2.shm_bytes(0), f2.hca_tx_bytes(0)), (32, 64));
            // Whatever the engine, the same MR contract: same bytes placed.
            for t in &targets {
                assert_eq!(t.read(0, 32), src.read(0, 32));
            }
        });
        sim.run();
        let lanes = rec.lanes();
        let spans_on = |lane: &str| {
            let on_lane = |e: &&sim_trace::Event| lanes[e.lane as usize].name == lane;
            rec.events().iter().filter(on_lane).count()
        };
        assert_eq!((spans_on("shm"), spans_on("hca_tx")), (1, 2));
    }

    #[test]
    fn sg_write_walks_descriptors() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        let dst = HostBuf::alloc(64);
        let key = fabric.nic(1).register(&dst);
        {
            let nic = fabric.nic(0);
            let d2 = dst.clone();
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec((0..32).collect());
                nic.register(&src);
                // Gather two 4-byte blocks 16 apart; scatter them 8 apart.
                let g = [SgEntry {
                    offset: 0,
                    len: 4,
                    stride: 16,
                    count: 2,
                }];
                let s = [SgEntry {
                    offset: 0,
                    len: 4,
                    stride: 8,
                    count: 2,
                }];
                nic.rdma_write_sg(1, key, &src.base(), &g, &s).wait();
                assert_eq!(d2.read(0, 4), vec![0, 1, 2, 3]);
                assert_eq!(d2.read(8, 4), vec![16, 17, 18, 19]);
            });
        }
        sim.run();
    }

    /// The former SG copy, kept as the oracle: gather every block into one
    /// staging vector, then scatter it block by block.
    fn gather_then_scatter(src: &[u8], dst: &mut [u8], gather: &[SgEntry], scatter: &[SgEntry]) {
        let mut packed = Vec::new();
        for e in gather {
            for b in 0..e.count {
                let at = e.offset + b * e.stride;
                packed.extend_from_slice(&src[at..at + e.len]);
            }
        }
        let mut off = 0;
        for e in scatter {
            for b in 0..e.count {
                let at = e.offset + b * e.stride;
                dst[at..at + e.len].copy_from_slice(&packed[off..off + e.len]);
                off += e.len;
            }
        }
    }

    /// A list of runs laid one after another, moving `total` bytes when
    /// given one, with block widths drawn from `widths` and an empty entry
    /// (no blocks, or blocks of no bytes) now and then.
    fn draw_list(
        rng: &mut xorshift::XorShift64,
        widths: &[usize],
        total: Option<usize>,
    ) -> Vec<SgEntry> {
        let (mut list, mut at, mut left) = (Vec::new(), rng.gen_range(0, 16), total.unwrap_or(0));
        let entries = rng.gen_range(1, 5);
        while total.map_or(list.len() < entries, |_| left > 0) {
            let e = if rng.gen_range(0, 6) == 0 {
                let (len, count) = [(0, 3), (7, 0)][rng.gen_range(0, 2)];
                SgEntry {
                    offset: at,
                    len,
                    stride: 64,
                    count,
                }
            } else {
                let len = widths[rng.gen_range(0, widths.len())];
                let count = rng.gen_range(1, 7);
                let count = total.map_or(count, |_| count.min(left / len));
                let (len, count) = if count == 0 { (left, 1) } else { (len, count) };
                let stride = len + rng.gen_range(0, 3) * rng.gen_range(1, 24);
                SgEntry {
                    offset: at,
                    len,
                    stride,
                    count,
                }
            };
            at += e.span() + rng.gen_range(0, 32);
            left = left.saturating_sub(e.bytes());
            list.push(e);
        }
        list
    }

    /// `gather`'s runs laid out again with other strides, each split in two
    /// at a random block: blocks of equal width then meet as pitched copies
    /// whose runs end at different rows.
    fn relaid(rng: &mut xorshift::XorShift64, gather: &[SgEntry]) -> Vec<SgEntry> {
        let (mut list, mut at) = (Vec::new(), rng.gen_range(0, 16));
        for e in gather {
            let split = rng.gen_range(0, e.count + 1);
            for count in [split, e.count - split] {
                let stride = e.len + rng.gen_range(0, 9);
                let run = SgEntry {
                    offset: at,
                    len: e.len,
                    stride,
                    count,
                };
                at += run.span() + rng.gen_range(0, 8);
                list.push(run);
            }
        }
        list
    }

    #[test]
    fn sg_write_matches_gather_then_scatter() {
        let mut rng = xorshift::XorShift64::new(0x5C47);
        let draws: Vec<_> = (0..64)
            .map(|_| {
                let gather = draw_list(&mut rng, &[1, 5, 8, 24, 40], None);
                let total = gather.iter().map(SgEntry::bytes).sum();
                let scatter = match rng.gen_bool() {
                    // Mostly unequal widths: rows split across blocks.
                    true => draw_list(&mut rng, &[3, 8, 24, 33], Some(total)),
                    false => relaid(&mut rng, &gather),
                };
                (gather, scatter)
            })
            .collect();
        const LEN: usize = 1 << 16;
        let mut src = vec![0u8; LEN];
        rng.fill_bytes(&mut src);
        let mut want = vec![0u8; LEN];
        rng.fill_bytes(&mut want);
        let moved: usize = draws.iter().flat_map(|(g, _)| g).map(SgEntry::bytes).sum();
        assert!(moved > 2000, "the draws move bytes: {moved}");

        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        let target = HostBuf::from_vec(want.clone());
        let key = fabric.nic(1).register(&target);
        let (nic, from) = (fabric.nic(0), HostBuf::from_vec(src.clone()));
        sim.spawn("writer", move || {
            nic.register(&from);
            // Checked after every post: a later draw overwrites earlier ones.
            for (i, (gather, scatter)) in draws.iter().enumerate() {
                nic.rdma_write_sg(1, key, &from.base(), gather, scatter)
                    .wait();
                gather_then_scatter(&src, &mut want, gather, scatter);
                assert!(
                    target.read(0, LEN) == want,
                    "draw {i}: {gather:?} -> {scatter:?}"
                );
            }
        });
        sim.run();
    }
}
