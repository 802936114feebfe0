//! The public MPI communicator API.
//!
//! One [`Comm`] per rank, used from that rank's simulation process. The
//! blocking calls (`send`, `recv`, `wait`, `waitall`, `barrier`) drive the
//! progress engine, so — like a single-threaded MPI library — communication
//! only advances inside MPI calls.
//!
//! Communicators are first-class: [`Comm::split`] and [`Comm::dup`] create
//! sub-communicators with their own context ids (agreed across members
//! with an allreduce, as real MPI libraries do), group-relative ranks and
//! isolated collective streams.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use gpu_sim::Loc;
use ib_sim::Nic;
use sim_core::lock::Mutex;
use sim_core::CallCounters;

use crate::datatype::Datatype;
use crate::engine::{Engine, RecvStatus, Request, SrcSel, TagSel};
use crate::proto::{MpiConfig, MpiError};
use crate::staging::BufferStager;

/// A communicator handle for one rank. Ranks, sources and statuses are all
/// *group-relative*; for the world communicator they coincide with world
/// ranks.
#[derive(Clone)]
pub struct Comm {
    eng: Arc<Mutex<Engine>>,
    /// World ranks of the group, indexed by group rank.
    group: Arc<Vec<usize>>,
    /// This process's rank within the group.
    my_rank: usize,
    /// Context id for point-to-point traffic.
    ctx: u16,
    /// Context id for collectives.
    coll_ctx: u16,
    /// Per-communicator collective sequence (same order on every member).
    coll_seq: Arc<AtomicU32>,
}

impl Comm {
    /// Engine access for the collectives module.
    pub(crate) fn engine(&self) -> &Arc<Mutex<Engine>> {
        &self.eng
    }

    /// Collective context id.
    pub(crate) fn coll_ctx(&self) -> u16 {
        self.coll_ctx
    }

    /// Translate a group rank to a world rank.
    pub(crate) fn world_rank_of(&self, group_rank: usize) -> usize {
        *self
            .group
            .get(group_rank)
            .unwrap_or_else(|| panic!("rank {group_rank} outside this communicator"))
    }

    /// Translate a world rank back to a group rank (matching statuses).
    pub(crate) fn group_rank_of(&self, world_rank: usize) -> usize {
        self.group
            .iter()
            .position(|&w| w == world_rank)
            .expect("message from a rank outside this communicator")
    }

    fn fix_status(&self, st: RecvStatus) -> RecvStatus {
        RecvStatus {
            src: self.group_rank_of(st.src),
            ..st
        }
    }

    fn sel_to_world(&self, sel: SrcSel) -> SrcSel {
        SrcSel(sel.0.map(|r| self.world_rank_of(r)))
    }

    /// A fresh base tag for one collective. Each collective owns a window
    /// of [`crate::coll::TAGS_PER_COLL`] tags: hierarchical algorithms
    /// index phase tags by node id, so the window must cover
    /// `phase_stride * phases` (see `coll::hier`).
    pub(crate) fn next_coll_tag(&self) -> u32 {
        (self.coll_seq.fetch_add(1, Ordering::Relaxed) % (1 << 18)) * crate::coll::TAGS_PER_COLL
    }

    /// Create the world communicator for `rank` of `size` on `nic`.
    /// `stager` is tried before the built-in host staging — this is where
    /// GPU-aware datatype support plugs in (`None`: host-only, a device
    /// buffer panics). The engine's protocol events, RDMA stage spans and
    /// vbuf-pool gauges are recorded on `rank{rank}/*` lanes of `rec` and
    /// its counters join the recorder's metrics registry (pass
    /// [`sim_trace::Recorder::off`] for an untraced communicator). Recording
    /// never changes virtual time.
    pub fn create_traced(
        nic: Nic,
        rank: usize,
        size: usize,
        cfg: MpiConfig,
        stager: Option<Arc<dyn BufferStager>>,
        rec: &sim_trace::Recorder,
    ) -> Comm {
        Comm {
            eng: Arc::new(Mutex::new(Engine::new_traced(
                nic, rank, size, cfg, stager, rec,
            ))),
            group: Arc::new((0..size).collect()),
            my_rank: rank,
            ctx: 0,
            coll_ctx: 1,
            coll_seq: Arc::new(AtomicU32::new(0)),
        }
    }

    /// This rank (group-relative).
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This process's rank in the world communicator.
    pub fn world_rank(&self) -> usize {
        self.eng.lock().rank
    }

    /// MPI/CUDA call counters for this rank (process-wide).
    pub fn counters(&self) -> CallCounters {
        self.eng.lock().counters.clone()
    }

    /// The library configuration.
    pub fn config(&self) -> MpiConfig {
        self.eng.lock().cfg.clone()
    }

    // --- point-to-point -----------------------------------------------------

    /// `MPI_Isend`.
    pub fn isend(
        &self,
        buf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        dst: usize,
        tag: u32,
    ) -> Request {
        let dst = self.world_rank_of(dst);
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Isend");
        let id = eng.isend(buf.into(), count, dtype, dst, tag, self.ctx);
        Request { id }
    }

    /// `MPI_Irecv`.
    pub fn irecv(
        &self,
        buf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> Request {
        let src = self.sel_to_world(src.into());
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Irecv");
        let id = eng.irecv(buf.into(), count, dtype, src, tag.into(), self.ctx);
        Request { id }
    }

    /// `MPI_Send` (blocking).
    pub fn send(&self, buf: impl Into<Loc>, count: usize, dtype: &Datatype, dst: usize, tag: u32) {
        let dst = self.world_rank_of(dst);
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Send");
        let id = eng.isend(buf.into(), count, dtype, dst, tag, self.ctx);
        Self::wait_inner(&mut eng, Request { id })
            .unwrap_or_else(|e| panic!("MPI_Send failed: {e}"));
    }

    /// `MPI_Recv` (blocking). Returns the receive status.
    pub fn recv(
        &self,
        buf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        src: impl Into<SrcSel>,
        tag: impl Into<TagSel>,
    ) -> RecvStatus {
        let src = self.sel_to_world(src.into());
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Recv");
        let id = eng.irecv(buf.into(), count, dtype, src, tag.into(), self.ctx);
        let st = Self::wait_inner(&mut eng, Request { id })
            .unwrap_or_else(|e| panic!("MPI_Recv failed: {e}"))
            .expect("recv must produce a status");
        drop(eng);
        self.fix_status(st)
    }

    fn wait_inner(eng: &mut Engine, req: Request) -> Result<Option<RecvStatus>, MpiError> {
        eng.block_until(|eng| eng.req_done(req.id).then_some(()));
        eng.reap(req.id)
    }

    /// `MPI_Wait`. Returns the status for receive requests.
    ///
    /// Panics if the request failed (retries exhausted on a fault-injecting
    /// fabric) — use [`Comm::wait_result`] to handle that as a value.
    pub fn wait(&self, req: Request) -> Option<RecvStatus> {
        self.wait_result(req)
            .unwrap_or_else(|e| panic!("MPI_Wait failed: {e}"))
    }

    /// `MPI_Wait`, surfacing a failed request as a typed error instead of
    /// panicking. Requests only fail on a fault-injecting fabric, once the
    /// retry budget (`MpiConfig::retry`) is exhausted.
    pub fn wait_result(&self, req: Request) -> Result<Option<RecvStatus>, MpiError> {
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Wait");
        let st = Self::wait_inner(&mut eng, req);
        drop(eng);
        st.map(|o| o.map(|s| self.fix_status(s)))
    }

    /// `MPI_Waitall`. Returns receive statuses in request order (None for
    /// sends).
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<Option<RecvStatus>> {
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Waitall");
        eng.block_until(|eng| reqs.iter().all(|r| eng.req_done(r.id)).then_some(()));
        let out: Vec<Option<RecvStatus>> = reqs
            .into_iter()
            .map(|r| {
                eng.reap(r.id)
                    .unwrap_or_else(|e| panic!("MPI_Waitall failed: {e}"))
            })
            .collect();
        drop(eng);
        out.into_iter()
            .map(|s| s.map(|st| self.fix_status(st)))
            .collect()
    }

    /// `MPI_Waitany`: block until one request completes; returns its index
    /// (and status for receives). The rest stay live.
    pub fn waitany(&self, reqs: &[Request]) -> (usize, Option<RecvStatus>) {
        assert!(!reqs.is_empty(), "waitany on an empty request list");
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Waitany");
        let i = eng.block_until(|eng| reqs.iter().position(|r| eng.req_done(r.id)));
        let st = eng
            .reap(reqs[i].id)
            .unwrap_or_else(|e| panic!("MPI_Waitany failed: {e}"));
        drop(eng);
        (i, st.map(|s| self.fix_status(s)))
    }

    /// `MPI_Testall`: progress once; true only if every request has
    /// completed. Requests stay live until waited on.
    pub fn testall(&self, reqs: &[Request]) -> bool {
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Testall");
        eng.progress();
        reqs.iter().all(|r| eng.req_done(r.id))
    }

    /// `MPI_Test`: progress once and report completion without blocking.
    /// The request stays live until waited on.
    pub fn test(&self, req: &Request) -> bool {
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Test");
        eng.progress();
        eng.req_done(req.id)
    }

    /// `MPI_Iprobe`: progress once, then report whether a message matching
    /// `(src, tag)` is waiting (without receiving it).
    pub fn iprobe(&self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> Option<RecvStatus> {
        let src = self.sel_to_world(src.into());
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Iprobe");
        eng.progress();
        let st = eng.probe_unexpected(src, tag.into(), self.ctx);
        drop(eng);
        st.map(|s| self.fix_status(s))
    }

    /// `MPI_Probe`: block until a message matching `(src, tag)` is
    /// available; returns its status without receiving it.
    pub fn probe(&self, src: impl Into<SrcSel>, tag: impl Into<TagSel>) -> RecvStatus {
        let src = self.sel_to_world(src.into());
        let tag = tag.into();
        let mut eng = self.eng.lock();
        eng.counters.record("MPI_Probe");
        let st = eng.block_until(|eng| eng.probe_unexpected(src, tag, self.ctx));
        drop(eng);
        self.fix_status(st)
    }

    // --- communicator management ---------------------------------------------

    /// `MPI_Comm_dup`: a congruent communicator with fresh contexts.
    pub fn dup(&self) -> Comm {
        self.split(0, self.my_rank as i64)
            .expect("dup never returns MPI_UNDEFINED")
    }

    /// `MPI_Comm_split`: ranks with the same `color` form a new
    /// communicator, ordered by `(key, parent rank)`. A negative color
    /// returns `None` (MPI_UNDEFINED — the caller joins no new
    /// communicator but must still participate in the call).
    pub fn split(&self, color: i64, key: i64) -> Option<Comm> {
        let n = self.size();
        // 1. Allgather (color, key) across the parent communicator.
        let t = Datatype::long();
        t.commit();
        let mine = hostmem::HostBuf::from_vec(hostmem::scalars_to_bytes(&[color, key]));
        let all = hostmem::HostBuf::alloc(n * 16);
        self.allgather(mine.base(), all.base(), 2, &t);
        let triples: Vec<(i64, i64, usize)> = (0..n)
            .map(|r| {
                let v: Vec<i64> = hostmem::bytes_to_scalars(&all.read(r * 16, 16));
                (v[0], v[1], r)
            })
            .collect();
        // 2. Agree on a context base: allreduce-max of every member's next
        //    free context id, then advance everyone past the block.
        let my_next = self.eng.lock().peek_next_ctx() as i64;
        let base_buf = hostmem::HostBuf::alloc(8);
        let mine_buf = hostmem::HostBuf::from_vec(hostmem::scalars_to_bytes(&[my_next]));
        self.allreduce(
            mine_buf.base(),
            base_buf.base(),
            1,
            &t,
            crate::coll::ReduceOp::Max,
        );
        let base: i64 = hostmem::bytes_to_scalars::<i64>(&base_buf.read(0, 8))[0];
        // 3. Colors (non-negative), sorted and deduplicated, each get a
        //    (p2p, coll) context pair.
        let mut colors: Vec<i64> = triples
            .iter()
            .map(|&(c, _, _)| c)
            .filter(|&c| c >= 0)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        self.eng
            .lock()
            .advance_ctx(base as u16 + 2 * colors.len() as u16);
        if color < 0 {
            return None;
        }
        let ci = colors.binary_search(&color).unwrap();
        let ctx = base as u16 + 2 * ci as u16;
        // 4. My group: members of my color ordered by (key, parent rank),
        //    translated to world ranks.
        let mut members: Vec<(i64, usize)> = triples
            .iter()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, k, r)| (k, r))
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members
            .iter()
            .map(|&(_, r)| self.world_rank_of(r))
            .collect();
        let my_world = self.eng.lock().rank;
        let my_rank = group
            .iter()
            .position(|&w| w == my_world)
            .expect("split must include the caller");
        Some(Comm {
            eng: Arc::clone(&self.eng),
            group: Arc::new(group),
            my_rank,
            ctx,
            coll_ctx: ctx + 1,
            coll_seq: Arc::new(AtomicU32::new(0)),
        })
    }
}
