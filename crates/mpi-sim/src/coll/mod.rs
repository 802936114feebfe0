//! Collective operations, built over point-to-point on each communicator's
//! private collective context.
//!
//! The set real applications lean on: `barrier` (dissemination), `bcast`,
//! `gather`, `scatter`, `allgather`/`allgatherv`, `alltoall`/`alltoallv`,
//! `reduce`, `allreduce`, `sendrecv`. Collectives must be called in the
//! same order by every member (the MPI rule); a per-communicator sequence
//! number isolates consecutive collectives, and sub-communicators (from
//! [`Comm::split`]) get disjoint contexts so concurrent collectives on
//! different communicators cannot interfere.
//!
//! Three algorithm families, selected by
//! [`MpiConfig::coll`](crate::MpiConfig) (see
//! [`CollAlgo`](crate::CollAlgo)):
//!
//! * [`flat`] — single-level algorithms with bounded resource use:
//!   pairwise alltoall(v), ring allgather(v), binomial-tree reduce with
//!   double-buffered scratch. The `Naive` family (the original p2p loops)
//!   also lives there as the benchmark control.
//! * [`hier`] — topology-aware node-leader trees: co-located ranks fan
//!   in/out over the shm channel, only node leaders cross the wire, and
//!   reductions pipeline pack → intra-node combine → wire per segment.
//!
//! All data movement goes through the normal staging machinery, so every
//! collective (including the reductions, via loopback staging) works on
//! **device buffers too** — GPU-aware collectives, the natural extension
//! of the paper's design (and where MVAPICH2 went next).

mod flat;
mod hier;

use std::collections::VecDeque;

use gpu_sim::Loc;
use hostmem::{HostBuf, Scalar};
use sim_core::san;

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::engine::{Engine, SrcSel, TagSel};
use crate::proto::{CollAlgo, ReqId, SeededBug};

/// Tag window reserved per collective. Hierarchical algorithms index phase
/// tags by node id (strides of [`hier::MAX_NODES`]) and pipelined
/// reductions by segment, so the window is far wider than the handful of
/// rounds a flat binomial needs.
pub(crate) const TAGS_PER_COLL: u32 = 16384;

/// Predefined reduction operators.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// MPI_SUM.
    Sum,
    /// MPI_PROD.
    Prod,
    /// MPI_MAX.
    Max,
    /// MPI_MIN.
    Min,
}

impl ReduceOp {
    fn fold<T: Scalar + PartialOrd + std::ops::Add<Output = T> + std::ops::Mul<Output = T>>(
        &self,
        a: T,
        b: T,
    ) -> T {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => {
                if b > a {
                    b
                } else {
                    a
                }
            }
            ReduceOp::Min => {
                if b < a {
                    b
                } else {
                    a
                }
            }
        }
    }
}

pub(crate) fn coll_wait(eng: &mut Engine, ids: Vec<ReqId>) {
    loop {
        eng.progress();
        let all = ids.iter().all(|&id| {
            if eng.is_send(id) {
                eng.send_done(id)
            } else {
                eng.recv_done(id).is_some()
            }
        });
        if all {
            break;
        }
        eng.idle_block();
    }
    for id in ids {
        if eng.is_send(id) {
            eng.reap_send(id);
        } else {
            eng.reap_recv(id);
        }
    }
}

/// Elementwise `acc[i] = op(acc[i], inc[i])` on packed little-endian
/// primitive values. Rejects operand lengths that disagree or are not a
/// multiple of the primitive size — a silent `chunks_exact` skip here
/// would drop trailing elements of a mis-sized segment instead of
/// surfacing the bug.
pub(crate) fn combine_bytes(op: ReduceOp, dtype: &Datatype, acc: &mut [u8], inc: &[u8]) {
    fn fold_slice<T>(op: ReduceOp, acc: &mut [u8], inc: &[u8])
    where
        T: Scalar + PartialOrd + std::ops::Add<Output = T> + std::ops::Mul<Output = T>,
    {
        for (a, b) in acc.chunks_exact_mut(T::SIZE).zip(inc.chunks_exact(T::SIZE)) {
            let v = op.fold(T::read_le(a), T::read_le(b));
            v.write_le(a);
        }
    }
    let name = dtype
        .primitive_name()
        .expect("reductions are defined on primitive datatypes");
    assert_eq!(
        acc.len(),
        inc.len(),
        "reduction operands differ in length: {} vs {} bytes",
        acc.len(),
        inc.len()
    );
    assert!(
        acc.len().is_multiple_of(dtype.size()),
        "reduction byte count {} is not a multiple of the {}-byte primitive {name}",
        acc.len(),
        dtype.size()
    );
    match name {
        "MPI_FLOAT" => fold_slice::<f32>(op, acc, inc),
        "MPI_DOUBLE" => fold_slice::<f64>(op, acc, inc),
        "MPI_INT" => fold_slice::<i32>(op, acc, inc),
        "MPI_LONG" => fold_slice::<i64>(op, acc, inc),
        "MPI_BYTE" | "MPI_CHAR" => fold_slice::<u8>(op, acc, inc),
        other => panic!("no reduction defined for {other}"),
    }
}

/// A committed byte datatype (scratch traffic is always packed bytes).
pub(crate) fn byte_dt() -> Datatype {
    let b = Datatype::byte();
    b.commit();
    b
}

/// Bounded-in-flight request window: pushing a group past `cap` first
/// waits out (and reaps) the oldest group. Collectives use this instead of
/// posting every request at once, so a P-wide exchange never holds more
/// than `cap` operations per rank — the fix for the naive alltoall's P²
/// fabric-wide request storm.
pub(crate) struct ReqWindow {
    cap: usize,
    q: VecDeque<Vec<ReqId>>,
}

impl ReqWindow {
    pub(crate) fn new(cap: usize) -> Self {
        ReqWindow {
            cap: cap.max(1),
            q: VecDeque::new(),
        }
    }

    pub(crate) fn push(&mut self, eng: &mut Engine, ids: Vec<ReqId>) {
        if self.q.len() == self.cap {
            let old = self.q.pop_front().unwrap();
            coll_wait(eng, old);
        }
        self.q.push_back(ids);
    }

    pub(crate) fn drain(&mut self, eng: &mut Engine) {
        let ids: Vec<ReqId> = self.q.drain(..).flatten().collect();
        if !ids.is_empty() {
            coll_wait(eng, ids);
        }
    }
}

/// The packed host bytes of `(buf, count, dtype)`. A contiguous host
/// buffer is read directly; anything else (device memory, derived layouts)
/// is staged through a loopback self-message, which runs the real
/// pack-to-host pipeline — GPU reductions pay the same staging cost the
/// paper's point-to-point path does.
pub(crate) fn stage_to_host(
    eng: &mut Engine,
    me_world: usize,
    buf: &Loc,
    count: usize,
    dtype: &Datatype,
    tag: u32,
    ctx: u16,
) -> Vec<u8> {
    let bytes = count * dtype.size();
    if let Loc::Host(p) = buf {
        if dtype.primitive_name().is_some() {
            return p.read(bytes);
        }
    }
    let byte = byte_dt();
    let scratch = HostBuf::alloc(bytes);
    let s = eng.isend(buf.clone(), count, dtype, me_world, tag, ctx);
    let r = eng.irecv(
        Loc::Host(scratch.base()),
        bytes,
        &byte,
        SrcSel(Some(me_world)),
        TagSel(Some(tag)),
        ctx,
    );
    coll_wait(eng, vec![s, r]);
    scratch.read(0, bytes)
}

/// Deliver packed host bytes into `(buf, count, dtype)` — the inverse of
/// [`stage_to_host`]: direct write for contiguous host buffers, loopback
/// repack (host staging → device scatter) for everything else.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver_from_host(
    eng: &mut Engine,
    me_world: usize,
    data: &[u8],
    buf: &Loc,
    count: usize,
    dtype: &Datatype,
    tag: u32,
    ctx: u16,
) {
    if let Loc::Host(p) = buf {
        if dtype.primitive_name().is_some() {
            p.write(data);
            return;
        }
    }
    let byte = byte_dt();
    let scratch = HostBuf::from_vec(data.to_vec());
    let s = eng.isend(
        Loc::Host(scratch.base()),
        data.len(),
        &byte,
        me_world,
        tag,
        ctx,
    );
    let r = eng.irecv(
        buf.clone(),
        count,
        dtype,
        SrcSel(Some(me_world)),
        TagSel(Some(tag)),
        ctx,
    );
    coll_wait(eng, vec![s, r]);
}

/// True when `(loc, dtype)` can be copied with plain host reads/writes —
/// host memory and a primitive datatype. Everything else (device buffers,
/// derived datatypes) must round-trip through the engine's pack pipeline.
///
/// Node-leader algorithms use this to splice the leader's *own* blocks
/// into an aggregate without a loopback self-send: self-sends ride the HCA
/// loopback path (see `transport_for`), so leaving them in would bill the
/// leader's node-local bookkeeping to the wire and distort the byte
/// accounting the hierarchy exists to improve.
pub(crate) fn host_direct(loc: &Loc, dtype: &Datatype) -> bool {
    matches!(loc, Loc::Host(_)) && dtype.primitive_name().is_some()
}

/// Read the `bytes`-long block at byte displacement `displ` of a
/// [`host_direct`] buffer.
pub(crate) fn read_host_block(loc: &Loc, displ: usize, bytes: usize) -> Vec<u8> {
    match loc {
        Loc::Host(p) => p.add(displ).read(bytes),
        Loc::Device(_) => unreachable!("read_host_block on a device buffer"),
    }
}

/// Write `data` at byte displacement `displ` of a [`host_direct`] buffer.
pub(crate) fn write_host_block(loc: &Loc, displ: usize, data: &[u8]) {
    match loc {
        Loc::Host(p) => p.add(displ).write(data),
        Loc::Device(_) => unreachable!("write_host_block on a device buffer"),
    }
}

/// Binomial-tree broadcast of `(buf, count, dtype)` over `members` (group
/// ranks), rooted at `members[ri]`. No-op for ranks outside `members`.
/// User buffers only — device-capable because every hop is an engine
/// transfer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn binomial_bcast_loc(
    c: &Comm,
    eng: &mut Engine,
    members: &[usize],
    ri: usize,
    buf: &Loc,
    count: usize,
    dtype: &Datatype,
    tag: u32,
    ctx: u16,
) {
    let n = members.len();
    let me = c.rank();
    let Some(mi) = members.iter().position(|&g| g == me) else {
        return;
    };
    if n <= 1 {
        return;
    }
    let vrank = (mi + n - ri) % n;
    let world = |v: usize| c.world_rank_of(members[(v + ri) % n]);
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            let src = world(vrank - mask);
            let id = eng.irecv(
                buf.clone(),
                count,
                dtype,
                SrcSel(Some(src)),
                TagSel(Some(tag)),
                ctx,
            );
            coll_wait(eng, vec![id]);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank & mask == 0 && vrank + mask < n {
            let dst = world(vrank + mask);
            let id = eng.isend(buf.clone(), count, dtype, dst, tag, ctx);
            coll_wait(eng, vec![id]);
        }
        mask >>= 1;
    }
}

/// Binomial-tree broadcast of packed host bytes over `members` (group
/// ranks), rooted at `members[ri]`: `data` must hold the payload on the
/// root and is overwritten with it everywhere else.
#[allow(clippy::too_many_arguments)]
pub(crate) fn binomial_bcast_bytes(
    c: &Comm,
    eng: &mut Engine,
    members: &[usize],
    ri: usize,
    data: &mut [u8],
    tag: u32,
    ctx: u16,
) {
    let n = members.len();
    let me = c.rank();
    let Some(mi) = members.iter().position(|&g| g == me) else {
        return;
    };
    if n <= 1 {
        return;
    }
    let byte = byte_dt();
    let bytes = data.len();
    let vrank = (mi + n - ri) % n;
    let world = |v: usize| c.world_rank_of(members[(v + ri) % n]);
    let wire = HostBuf::alloc(bytes);
    if vrank == 0 {
        wire.write(0, data);
    }
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            let src = world(vrank - mask);
            let id = eng.irecv(
                Loc::Host(wire.base()),
                bytes,
                &byte,
                SrcSel(Some(src)),
                TagSel(Some(tag)),
                ctx,
            );
            coll_wait(eng, vec![id]);
            data.copy_from_slice(&wire.read(0, bytes));
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank & mask == 0 && vrank + mask < n {
            let dst = world(vrank + mask);
            let id = eng.isend(Loc::Host(wire.base()), bytes, &byte, dst, tag, ctx);
            coll_wait(eng, vec![id]);
        }
        mask >>= 1;
    }
}

/// Binomial-tree reduction of packed host bytes over `members` (group
/// ranks), rooted at `members[ri]`: every participant contributes `acc`;
/// on the root, `acc` holds the folded result on return. Child receives
/// are double-buffered — the next child's wire time overlaps the previous
/// child's combine.
#[allow(clippy::too_many_arguments)]
pub(crate) fn binomial_reduce_bytes(
    c: &Comm,
    eng: &mut Engine,
    members: &[usize],
    ri: usize,
    acc: &mut [u8],
    dtype: &Datatype,
    op: ReduceOp,
    tag: u32,
    ctx: u16,
) {
    let n = members.len();
    let me = c.rank();
    let Some(mi) = members.iter().position(|&g| g == me) else {
        return;
    };
    if n <= 1 {
        return;
    }
    let byte = byte_dt();
    let bytes = acc.len();
    let vrank = (mi + n - ri) % n;
    let world = |v: usize| c.world_rank_of(members[(v + ri) % n]);
    let lsb = if vrank == 0 {
        usize::MAX
    } else {
        1 << vrank.trailing_zeros()
    };
    let scratch = [HostBuf::alloc(bytes), HostBuf::alloc(bytes)];
    let mut pending: Option<(ReqId, usize)> = None;
    let mut bank = 0usize;
    let mut mask = 1usize;
    while mask < n && mask < lsb {
        if vrank + mask < n {
            let child = world(vrank + mask);
            let id = eng.irecv(
                Loc::Host(scratch[bank].base()),
                bytes,
                &byte,
                SrcSel(Some(child)),
                TagSel(Some(tag)),
                ctx,
            );
            if let Some((prev, pb)) = pending.take() {
                coll_wait(eng, vec![prev]);
                combine_bytes(op, dtype, acc, &scratch[pb].read(0, bytes));
            }
            pending = Some((id, bank));
            bank ^= 1;
        }
        mask <<= 1;
    }
    if let Some((prev, pb)) = pending.take() {
        coll_wait(eng, vec![prev]);
        combine_bytes(op, dtype, acc, &scratch[pb].read(0, bytes));
    }
    if vrank != 0 {
        let parent = world(vrank - lsb);
        let out = HostBuf::from_vec(acc.to_vec());
        let id = eng.isend(Loc::Host(out.base()), bytes, &byte, parent, tag, ctx);
        coll_wait(eng, vec![id]);
    }
}

impl Comm {
    fn coll_algo(&self) -> CollAlgo {
        self.engine().lock().cfg.coll.algo
    }

    fn coll_window(&self) -> usize {
        self.engine().lock().cfg.coll.max_inflight
    }

    /// Resolve the hierarchical path: `Some(hierarchy)` when the
    /// configured algorithm is `Hier` and this communicator actually
    /// spans multiple nodes with at least one shared node — otherwise the
    /// flat path is the right (and identical-cost) choice.
    fn hier_path(&self) -> Option<hier::Hierarchy> {
        if self.coll_algo() != CollAlgo::Hier {
            return None;
        }
        let h = hier::Hierarchy::build(self);
        h.beneficial().then_some(h)
    }

    /// `MPI_Barrier` (dissemination algorithm).
    pub fn barrier(&self) {
        self.engine().lock().counters.record("MPI_Barrier");
        self.dissemination();
    }

    /// Post-job quiesce for fault-injecting fabrics (no-op on a clean
    /// one, keeping fault-free runs bit-identical).
    ///
    /// A rank whose own requests have all completed may still owe its
    /// peers protocol replays: a lost FIN or FinDirect is recovered by
    /// the *peer* retransmitting, and only this rank can answer. If the
    /// rank simply exited, those retransmits would go unanswered and
    /// the peer's retry budget — not the fault schedule — would decide
    /// the outcome. The dissemination rounds here are driven through
    /// the engine itself (zero-byte eager messages, which the fault
    /// layer never touches), so waiting in them keeps draining the
    /// mailbox and answering replays; a rank can only leave once every
    /// rank has arrived, i.e. once everyone's requests are settled.
    pub fn finalize(&self) {
        let (faulty, bug_quiesce) = {
            let eng = self.engine().lock();
            // Finalize-time invariant checkpoint: this rank must be fully
            // quiesced (no unreaped requests, staging pools drained).
            let rank = eng.rank;
            // Gauges are scoped by the job prefix (empty on a dedicated
            // fabric), so concurrent jobs' finalize checkpoints stay
            // independent: each job's invariant only inspects its own
            // `{prefix}rank{r}` scopes.
            san::proto_set(
                &format!("{}rank{rank}", eng.prefix),
                "live_requests",
                eng.live_requests() as i64,
            );
            san::proto_set(
                &format!("{}job", eng.prefix),
                "finalizing_rank",
                rank as i64,
            );
            san::invariant_checkpoint("finalize");
            let bug = eng.cfg.seeded_bug == Some(SeededBug::FinalizeQuiesce);
            (eng.is_faulty(), bug)
        };
        if !faulty {
            return;
        }
        if bug_quiesce {
            // Reintroduced liveness bug: skip the post-job dissemination, so
            // a finished rank stops answering its peers' protocol replays.
            return;
        }
        self.dissemination();
    }

    fn dissemination(&self) {
        let (rank, size) = (self.rank(), self.size());
        let base = self.next_coll_tag();
        let ctx = self.coll_ctx();
        let mut eng = self.engine().lock();
        if size == 1 {
            return;
        }
        let empty = HostBuf::alloc(0);
        let byte = Datatype::byte();
        byte.commit();
        let mut k = 1;
        let mut round = 0u32;
        while k < size {
            let dst = self.world_rank_of((rank + k) % size);
            let src = self.world_rank_of((rank + size - k) % size);
            let s = eng.isend(Loc::Host(empty.base()), 0, &byte, dst, base + round, ctx);
            let r = eng.irecv(
                Loc::Host(empty.base()),
                0,
                &byte,
                SrcSel(Some(src)),
                TagSel(Some(base + round)),
                ctx,
            );
            coll_wait(&mut eng, vec![s, r]);
            k *= 2;
            round += 1;
        }
    }

    /// `MPI_Bcast` from `root` (group rank): binomial tree on the flat
    /// path; root → node leaders → co-located ranks over shm on the
    /// hierarchical one. Works on host and device buffers.
    pub fn bcast(&self, buf: impl Into<Loc>, count: usize, dtype: &Datatype, root: usize) {
        let buf = buf.into();
        self.engine().lock().counters.record("MPI_Bcast");
        if self.size() == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::bcast(self, &h, &buf, count, dtype, root, tag, ctx),
            None => flat::bcast(self, &buf, count, dtype, root, tag, ctx),
        }
    }

    /// `MPI_Gather`: every rank's `(sendbuf, count, dtype)` lands in
    /// `recvbuf` at rank `root`, block `i` at byte offset
    /// `i * count * extent`. `recvbuf` is only read on the root. Works on
    /// host and device buffers (a rank's own block travels as a
    /// self-message through the same machinery). The hierarchical path
    /// aggregates each node's blocks at its leader so only one message
    /// per node crosses the wire.
    pub fn gather(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        root: usize,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        self.engine().lock().counters.record("MPI_Gather");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::gather(self, &h, &sendbuf, &recvbuf, count, dtype, root, tag, ctx),
            None => flat::gather(self, &sendbuf, &recvbuf, count, dtype, root, tag, ctx),
        }
    }

    /// `MPI_Scatter`: block `i` of `sendbuf` on `root` (at byte offset
    /// `i * count * extent`) lands in every rank `i`'s `recvbuf`. The
    /// hierarchical path ships each node's blocks as one wire message to
    /// its leader, which distributes them over shm.
    pub fn scatter(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        root: usize,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        self.engine().lock().counters.record("MPI_Scatter");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::scatter(self, &h, &sendbuf, &recvbuf, count, dtype, root, tag, ctx),
            None => flat::scatter(self, &sendbuf, &recvbuf, count, dtype, root, tag, ctx),
        }
    }

    /// `MPI_Allgather`: block `i` of `recvbuf` (at byte offset
    /// `i * count * extent`) ends up holding rank `i`'s `sendbuf` on every
    /// rank. Ring on the flat path; node-leader aggregation, leader ring
    /// and shm fan-out on the hierarchical one. Under
    /// [`CollAlgo::Naive`](crate::CollAlgo) this is the original
    /// gather-to-0 + bcast funnel (the benchmark control).
    pub fn allgather(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        if self.coll_algo() == CollAlgo::Naive {
            // The seed algorithm: funnel everything through rank 0, twice.
            let n = self.size();
            self.gather(sendbuf, recvbuf.clone(), count, dtype, 0);
            self.bcast(recvbuf, n * count, dtype, 0);
            return;
        }
        self.engine().lock().counters.record("MPI_Allgather");
        let ext = dtype.extent();
        assert!(ext > 0, "allgather needs a positive-extent datatype");
        let n = self.size();
        let counts = vec![count; n];
        let displs: Vec<usize> = (0..n).map(|i| i * count * ext as usize).collect();
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::allgatherv(
                self, &h, &sendbuf, count, dtype, &recvbuf, &counts, &displs, dtype, tag, ctx,
            ),
            None => flat::allgatherv(
                self, &sendbuf, count, dtype, &recvbuf, &counts, &displs, dtype, tag, ctx,
            ),
        }
    }

    /// `MPI_Allgatherv`: rank `j`'s `(sendbuf, scount, sdtype)` lands on
    /// every rank at byte offset `rdispls[j]` of `recvbuf`, as
    /// `rcounts[j]` elements of `rdtype`. Displacements are **bytes** (not
    /// `rdtype` extents), so non-contiguous GPU datatypes with awkward
    /// extents place naturally. Every rank must pass the same `rcounts`
    /// and `rdispls`, and `scount * sdtype.size()` must equal
    /// `rcounts[me] * rdtype.size()`.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv(
        &self,
        sendbuf: impl Into<Loc>,
        scount: usize,
        sdtype: &Datatype,
        recvbuf: impl Into<Loc>,
        rcounts: &[usize],
        rdispls: &[usize],
        rdtype: &Datatype,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        let n = self.size();
        assert_eq!(rcounts.len(), n, "allgatherv needs one count per rank");
        assert_eq!(
            rdispls.len(),
            n,
            "allgatherv needs one displacement per rank"
        );
        assert_eq!(
            scount * sdtype.size(),
            rcounts[self.rank()] * rdtype.size(),
            "allgatherv send and receive sides disagree on my block's bytes"
        );
        self.engine().lock().counters.record("MPI_Allgatherv");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::allgatherv(
                self, &h, &sendbuf, scount, sdtype, &recvbuf, rcounts, rdispls, rdtype, tag, ctx,
            ),
            None => flat::allgatherv(
                self, &sendbuf, scount, sdtype, &recvbuf, rcounts, rdispls, rdtype, tag, ctx,
            ),
        }
    }

    /// `MPI_Alltoall`: rank `i`'s block `j` lands in rank `j`'s block `i`
    /// (blocks of `count` elements, `count * extent` bytes apart).
    /// Pairwise exchange with bounded in-flight requests on the flat
    /// path; node-leader aggregation (one wire message per node pair) on
    /// the hierarchical one. Under [`CollAlgo::Naive`](crate::CollAlgo)
    /// every request is posted at once — P² in flight fabric-wide, kept
    /// as the benchmark control.
    pub fn alltoall(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        self.engine().lock().counters.record("MPI_Alltoall");
        let ext = dtype.extent();
        assert!(ext > 0, "alltoall needs a positive-extent datatype");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        if self.coll_algo() == CollAlgo::Naive {
            flat::naive_alltoall(self, &sendbuf, &recvbuf, count, dtype, tag, ctx);
            return;
        }
        let n = self.size();
        let counts = vec![count; n];
        let displs: Vec<usize> = (0..n).map(|i| i * count * ext as usize).collect();
        match self.hier_path() {
            Some(h) => hier::alltoallv(
                self, &h, &sendbuf, &counts, &displs, dtype, &recvbuf, &counts, &displs, dtype,
                tag, ctx,
            ),
            None => flat::alltoallv(
                self, &sendbuf, &counts, &displs, dtype, &recvbuf, &counts, &displs, dtype, tag,
                ctx,
            ),
        }
    }

    /// `MPI_Alltoallv`: rank `i` sends `scounts[j]` elements of `sdtype`
    /// starting at byte `sdispls[j]` of `sendbuf` to each rank `j`, and
    /// receives `rcounts[j]` elements of `rdtype` at byte `rdispls[j]` of
    /// `recvbuf` from each. Displacements are **bytes**. The send and
    /// receive type signatures may differ as long as each pair's byte
    /// totals match (`scounts_i[j] * sdtype_i.size() == rcounts_j[i] *
    /// rdtype_j.size()`); both sides may be non-contiguous GPU datatypes.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &self,
        sendbuf: impl Into<Loc>,
        scounts: &[usize],
        sdispls: &[usize],
        sdtype: &Datatype,
        recvbuf: impl Into<Loc>,
        rcounts: &[usize],
        rdispls: &[usize],
        rdtype: &Datatype,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        let n = self.size();
        assert_eq!(scounts.len(), n, "alltoallv needs one send count per rank");
        assert_eq!(rcounts.len(), n, "alltoallv needs one recv count per rank");
        assert_eq!(
            sdispls.len(),
            n,
            "alltoallv needs one send displacement per rank"
        );
        assert_eq!(
            rdispls.len(),
            n,
            "alltoallv needs one recv displacement per rank"
        );
        self.engine().lock().counters.record("MPI_Alltoallv");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::alltoallv(
                self, &h, &sendbuf, scounts, sdispls, sdtype, &recvbuf, rcounts, rdispls, rdtype,
                tag, ctx,
            ),
            None => flat::alltoallv(
                self, &sendbuf, scounts, sdispls, sdtype, &recvbuf, rcounts, rdispls, rdtype, tag,
                ctx,
            ),
        }
    }

    /// `MPI_Reduce` for primitive datatypes: elementwise `op` into
    /// `recvbuf` on `root` (only read there). Host **and device** buffers:
    /// device contributions are packed to host staging through the
    /// loopback pipeline, folded on the host, and the result repacked to
    /// the device. Binomial tree with double-buffered child receives on
    /// the flat path; shm fan-in to node leaders + a leader tree on the
    /// hierarchical one. Under [`CollAlgo::Naive`](crate::CollAlgo) the
    /// root drains all P−1 contributions serially through one scratch
    /// buffer (the benchmark control).
    pub fn reduce(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        op: ReduceOp,
        root: usize,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        assert!(
            dtype.primitive_name().is_some(),
            "reductions are defined on primitive datatypes"
        );
        self.engine().lock().counters.record("MPI_Reduce");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.coll_algo() {
            CollAlgo::Naive => {
                flat::naive_reduce(self, &sendbuf, &recvbuf, count, dtype, op, root, tag, ctx)
            }
            _ => match self.hier_path() {
                Some(h) => hier::reduce(
                    self, &h, &sendbuf, &recvbuf, count, dtype, op, root, tag, ctx,
                ),
                None => flat::reduce(self, &sendbuf, &recvbuf, count, dtype, op, root, tag, ctx),
            },
        }
    }

    /// `MPI_Allreduce` for primitive datatypes, host and device buffers.
    /// The hierarchical path pipelines per
    /// [`CollConfig::pipeline_chunk`](crate::CollConfig) segment: pack →
    /// shm fan-in and combine at the node leader → one reduced stream per
    /// node over the wire (leader binomial tree) → shm fan-out, so a
    /// segment's wire time overlaps the next segment's pack and combine.
    pub fn allreduce(
        &self,
        sendbuf: impl Into<Loc>,
        recvbuf: impl Into<Loc>,
        count: usize,
        dtype: &Datatype,
        op: ReduceOp,
    ) {
        let (sendbuf, recvbuf) = (sendbuf.into(), recvbuf.into());
        assert!(
            dtype.primitive_name().is_some(),
            "reductions are defined on primitive datatypes"
        );
        if self.coll_algo() == CollAlgo::Naive {
            // The seed algorithm: serial reduce to rank 0, then bcast.
            self.reduce(sendbuf, recvbuf.clone(), count, dtype, op, 0);
            self.bcast(recvbuf, count, dtype, 0);
            return;
        }
        self.engine().lock().counters.record("MPI_Allreduce");
        let tag = self.next_coll_tag();
        let ctx = self.coll_ctx();
        match self.hier_path() {
            Some(h) => hier::allreduce(self, &h, &sendbuf, &recvbuf, count, dtype, op, tag, ctx),
            None => {
                flat::reduce(self, &sendbuf, &recvbuf, count, dtype, op, 0, tag, ctx);
                flat::bcast(self, &recvbuf, count, dtype, 0, tag + 512, ctx);
            }
        }
    }

    /// `MPI_Sendrecv`: simultaneous send and receive (deadlock-free).
    /// Returns the receive status.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        sendbuf: impl Into<Loc>,
        sendcount: usize,
        sendtype: &Datatype,
        dst: usize,
        sendtag: u32,
        recvbuf: impl Into<Loc>,
        recvcount: usize,
        recvtype: &Datatype,
        src: impl Into<SrcSel>,
        recvtag: impl Into<TagSel>,
    ) -> crate::engine::RecvStatus {
        let r = self.irecv(recvbuf, recvcount, recvtype, src, recvtag);
        let s = self.isend(sendbuf, sendcount, sendtype, dst, sendtag);
        let stats = self.waitall(vec![r, s]);
        stats[0].expect("sendrecv must produce a status")
    }
}

#[cfg(test)]
mod tests;
