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
//! Every algorithm is written in one vocabulary: a [`Coll`] is one
//! collective call on one rank and offers the steps (post a send or a
//! receive to a *group* rank at a *tag offset*, wait, stage to and from
//! packed host bytes, fold a stream of contributions); a [`Blocks`] is one
//! side of a v-collective (buffer, per-peer counts and byte displacements,
//! datatype); a [`Tree`] is this rank's parent and children in a binomial
//! tree over a member list. World ranks, selectors, the collective context
//! and the engine are named inside [`Coll`] and nowhere else, and a step
//! that fails there fails the collective under its MPI name.
//!
//! All data movement goes through the normal staging machinery, so every
//! collective (including the reductions, via loopback staging) works on
//! **device buffers too** — GPU-aware collectives, the natural extension
//! of the paper's design (and where MVAPICH2 went next).

mod flat;
mod hier;

use std::borrow::Cow;
use std::collections::VecDeque;

use gpu_sim::Loc;
use hostmem::{HostBuf, HostPtr, Scalar};
use sim_core::lock::MutexGuard;
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

/// Nonblocking exchanges a collective keeps in flight per rank (pairwise
/// alltoall steps, leader fan-in/out messages, pipeline segments). Bounds
/// the fabric-wide request count that grows as P² in the naive alltoall.
pub(crate) const MAX_INFLIGHT: usize = 4;

/// Segment size, bytes, of the pipelined reductions (pack → intra-node
/// combine → wire per segment). A multiple of every primitive size, so a
/// segment boundary never splits an element.
pub(crate) const PIPELINE_CHUNK: usize = 64 << 10;

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

/// What a reduction does with two packed operands: `op`, elementwise, on
/// values of the primitive `dtype`.
#[derive(Copy, Clone)]
pub(crate) struct Fold<'a> {
    pub(crate) op: ReduceOp,
    pub(crate) dtype: &'a Datatype,
}

impl Fold<'_> {
    /// Elementwise `acc[i] = op(acc[i], inc[i])` on packed little-endian
    /// primitive values. Rejects operand lengths that disagree or are not a
    /// multiple of the primitive size — a silent `chunks_exact` skip here
    /// would drop trailing elements of a mis-sized segment instead of
    /// surfacing the bug.
    pub(crate) fn combine(&self, acc: &mut [u8], inc: &[u8]) {
        fn fold_slice<T>(op: ReduceOp, acc: &mut [u8], inc: &[u8])
        where
            T: Scalar + PartialOrd + std::ops::Add<Output = T> + std::ops::Mul<Output = T>,
        {
            for (a, b) in acc.chunks_exact_mut(T::SIZE).zip(inc.chunks_exact(T::SIZE)) {
                let v = op.fold(T::read_le(a), T::read_le(b));
                v.write_le(a);
            }
        }
        let (op, dtype) = (self.op, self.dtype);
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
}

/// The host pointer behind `(loc, dtype)` when it can be copied with plain
/// host reads and writes — host memory and a primitive datatype. Everything
/// else (device buffers, derived datatypes) must round-trip through the
/// engine's pack pipeline.
///
/// Node-leader algorithms use this to splice the leader's *own* blocks
/// into an aggregate without a loopback self-send: self-sends ride the HCA
/// loopback path (see `ib_sim::Nic::route`), so leaving them in would bill the
/// leader's node-local bookkeeping to the wire and distort the byte
/// accounting the hierarchy exists to improve.
fn host_direct<'a>(loc: &'a Loc, dtype: &Datatype) -> Option<&'a HostPtr> {
    match loc {
        Loc::Host(p) if dtype.primitive_name().is_some() => Some(p),
        _ => None,
    }
}

/// One side of a v-collective: peer `j`'s block is `counts[j]` elements of
/// `dtype` at **byte** displacement `displs[j]` of `buf`.
pub(crate) struct Blocks<'a> {
    buf: &'a Loc,
    pub(crate) counts: Cow<'a, [usize]>,
    pub(crate) displs: Cow<'a, [usize]>,
    pub(crate) dtype: &'a Datatype,
}

impl<'a> Blocks<'a> {
    pub(crate) fn new(
        buf: &'a Loc,
        counts: &'a [usize],
        displs: &'a [usize],
        dtype: &'a Datatype,
    ) -> Self {
        Blocks {
            buf,
            counts: counts.into(),
            displs: displs.into(),
            dtype,
        }
    }

    /// `n` blocks of `count` elements, `count * extent` bytes apart — the
    /// layout of the non-v collectives.
    pub(crate) fn uniform(buf: &'a Loc, n: usize, count: usize, dtype: &'a Datatype) -> Self {
        let ext = dtype.extent();
        assert!(
            ext > 0,
            "a collective over uniform blocks needs a positive-extent datatype"
        );
        Blocks {
            buf,
            counts: vec![count; n].into(),
            displs: (0..n).map(|j| j * count * ext as usize).collect(),
            dtype,
        }
    }

    /// Packed size of peer `j`'s block.
    pub(crate) fn bytes(&self, j: usize) -> usize {
        self.counts[j] * self.dtype.size()
    }

    /// Where peer `j`'s block starts, as `counts[j]` elements of `dtype`.
    pub(crate) fn block(&self, j: usize) -> Loc {
        self.buf.add(self.displs[j])
    }

    /// One message covering the listed peers' blocks in the order given: an
    /// `hindexed` view of the non-empty ones over the whole buffer, or a
    /// zero-byte message when there are none.
    pub(crate) fn view(&self, peers: impl IntoIterator<Item = usize>) -> (Loc, usize, Datatype) {
        let blocks: Vec<(usize, isize)> = peers
            .into_iter()
            .filter(|&j| self.counts[j] > 0)
            .map(|j| (self.counts[j], self.displs[j] as isize))
            .collect();
        if blocks.is_empty() {
            let byte = Datatype::byte();
            byte.commit();
            return (Loc::Host(HostBuf::alloc(0).base()), 0, byte);
        }
        let dt = Datatype::hindexed(&blocks, self.dtype);
        dt.commit();
        (self.buf.clone(), 1, dt)
    }

    /// The buffer as plain host memory, when [`host_direct`] allows; peer
    /// `j`'s block is then `bytes(j)` bytes at `host.add(displs[j])`.
    pub(crate) fn host(&self) -> Option<&HostPtr> {
        host_direct(self.buf, self.dtype)
    }
}

/// This rank's place in a binomial tree over a member list: whom it hears
/// from first (broadcast) or reports to last (reduce), and its children in
/// ascending-mask order. A rank outside the list has neither.
#[derive(Default)]
pub(crate) struct Tree {
    parent: Option<usize>,
    children: Vec<usize>,
}

impl Tree {
    /// The tree over `members` (group ranks) rooted at member `root`, seen
    /// from `me`. Virtual rank `v` (position relative to the root) reports
    /// to `v` with its lowest set bit cleared and parents `v + mask` for
    /// every lower `mask`.
    pub(crate) fn binomial(members: &[usize], root: usize, me: usize) -> Tree {
        let n = members.len();
        let pos = |g: usize| members.iter().position(|&m| m == g);
        let Some(mi) = pos(me) else {
            return Tree::default();
        };
        let ri = pos(root).expect("a tree's root is one of its members");
        let vrank = (mi + n - ri) % n;
        let at = |v: usize| members[(v + ri) % n];
        let lsb = match vrank {
            0 => usize::MAX,
            v => 1 << v.trailing_zeros(),
        };
        let mut children = Vec::new();
        let mut mask = 1;
        while mask < lsb && vrank + mask < n {
            children.push(at(vrank + mask));
            mask <<= 1;
        }
        Tree {
            parent: (vrank != 0).then(|| at(vrank - lsb)),
            children,
        }
    }
}

/// One collective call on one rank: the engine (held for the whole call),
/// the communicator, the call's tag window and its MPI name. Algorithms
/// address peers by **group rank** and messages by **tag offset**; the
/// translation to world ranks, selectors and the collective context
/// happens here and nowhere else.
pub(crate) struct Coll<'a> {
    comm: &'a Comm,
    eng: MutexGuard<'a, Engine>,
    tag: u32,
    name: &'static str,
    /// Scratch traffic is packed bytes; one committed byte type serves the
    /// whole call.
    byte: Datatype,
}

impl<'a> Coll<'a> {
    /// Open a collective on `comm` under `eng` (the caller's guard:
    /// `sim_core::lock::Mutex` is not re-entrant): draw its tag window and
    /// commit its byte type.
    fn begin(comm: &'a Comm, eng: MutexGuard<'a, Engine>, name: &'static str) -> Self {
        let byte = Datatype::byte();
        byte.commit();
        Coll {
            comm,
            eng,
            tag: comm.next_coll_tag(),
            name,
            byte,
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.comm.rank()
    }

    pub(crate) fn size(&self) -> usize {
        self.comm.size()
    }

    /// Post a send of `(buf, count, dtype)` to group rank `to`.
    pub(crate) fn send(
        &mut self,
        buf: Loc,
        count: usize,
        dtype: &Datatype,
        to: usize,
        t: u32,
    ) -> ReqId {
        let dst = self.comm.world_rank_of(to);
        let ctx = self.comm.coll_ctx();
        self.eng.isend(buf, count, dtype, dst, self.tag + t, ctx)
    }

    /// Post a receive into `(buf, count, dtype)` from group rank `from`.
    pub(crate) fn recv(
        &mut self,
        buf: Loc,
        count: usize,
        dtype: &Datatype,
        from: usize,
        t: u32,
    ) -> ReqId {
        let src = SrcSel(Some(self.comm.world_rank_of(from)));
        let ctx = self.comm.coll_ctx();
        self.eng
            .irecv(buf, count, dtype, src, TagSel(Some(self.tag + t)), ctx)
    }

    /// Post a send of the `len` packed bytes at `off` of `buf`.
    pub(crate) fn send_bytes(
        &mut self,
        buf: &HostBuf,
        off: usize,
        len: usize,
        to: usize,
        t: u32,
    ) -> ReqId {
        let byte = self.byte.clone();
        self.send(Loc::Host(buf.ptr(off)), len, &byte, to, t)
    }

    /// Post a receive of `len` packed bytes into `buf` at `off`.
    pub(crate) fn recv_bytes(
        &mut self,
        buf: &HostBuf,
        off: usize,
        len: usize,
        from: usize,
        t: u32,
    ) -> ReqId {
        let byte = self.byte.clone();
        self.recv(Loc::Host(buf.ptr(off)), len, &byte, from, t)
    }

    /// Block until every request in `ids` has finished, then reap them. A
    /// request that failed (retries exhausted on a fault-injecting fabric)
    /// fails the collective by name.
    pub(crate) fn wait(&mut self, ids: Vec<ReqId>) {
        self.eng
            .block_until(|eng| ids.iter().all(|&id| eng.req_done(id)).then_some(()));
        for id in ids {
            if let Err(e) = self.eng.reap(id) {
                panic!("{} failed: {e}", self.name);
            }
        }
    }

    /// The packed host bytes of `(buf, count, dtype)`. A contiguous host
    /// buffer is read directly; anything else (device memory, derived
    /// layouts) is staged through a loopback self-message, which runs the
    /// real pack-to-host pipeline — GPU reductions pay the same staging
    /// cost the paper's point-to-point path does.
    pub(crate) fn stage(&mut self, buf: &Loc, count: usize, dtype: &Datatype, t: u32) -> Vec<u8> {
        let bytes = count * dtype.size();
        if let Some(p) = host_direct(buf, dtype) {
            return p.read(bytes);
        }
        let me = self.rank();
        let scratch = HostBuf::alloc(bytes);
        let s = self.send(buf.clone(), count, dtype, me, t);
        let r = self.recv_bytes(&scratch, 0, bytes, me, t);
        self.wait(vec![s, r]);
        scratch.read(0, bytes)
    }

    /// Deliver packed host bytes into `(buf, count, dtype)` — the inverse
    /// of [`stage`](Coll::stage): direct write for contiguous host
    /// buffers, loopback repack (host staging → device scatter) for
    /// everything else.
    pub(crate) fn deliver(
        &mut self,
        data: &[u8],
        buf: &Loc,
        count: usize,
        dtype: &Datatype,
        t: u32,
    ) {
        if let Some(p) = host_direct(buf, dtype) {
            p.write(data);
            return;
        }
        let me = self.rank();
        let scratch = HostBuf::from_vec(data.to_vec());
        let s = self.send_bytes(&scratch, 0, data.len(), me, t);
        let r = self.recv(buf.clone(), count, dtype, me, t);
        self.wait(vec![s, r]);
    }

    /// Fold one packed contribution from every rank in `sources`, in order,
    /// into `acc`. Receives are double-buffered: the next source's receive
    /// is posted before the previous one's bytes are combined, so transfer
    /// and combine overlap instead of serializing.
    pub(crate) fn fold_from(
        &mut self,
        sources: impl Iterator<Item = usize>,
        acc: &mut [u8],
        fold: Fold,
        t: u32,
    ) {
        let bytes = acc.len();
        let scratch = [HostBuf::alloc(bytes), HostBuf::alloc(bytes)];
        let mut pending: Option<(ReqId, usize)> = None;
        for (i, src) in sources.map(Some).chain([None]).enumerate() {
            let next = src.map(|src| (self.recv_bytes(&scratch[i % 2], 0, bytes, src, t), i % 2));
            if let Some((prev, bank)) = std::mem::replace(&mut pending, next) {
                self.wait(vec![prev]);
                fold.combine(acc, &scratch[bank].read(0, bytes));
            }
        }
    }

    /// Broadcast `(buf, count, dtype)` down `tree`: receive from the
    /// parent, then feed the children, farthest subtree first. User buffers
    /// work as they are — device-capable because every hop is an engine
    /// transfer.
    pub(crate) fn bcast_over(
        &mut self,
        tree: &Tree,
        buf: &Loc,
        count: usize,
        dtype: &Datatype,
        t: u32,
    ) {
        if let Some(parent) = tree.parent {
            let id = self.recv(buf.clone(), count, dtype, parent, t);
            self.wait(vec![id]);
        }
        for &child in tree.children.iter().rev() {
            let id = self.send(buf.clone(), count, dtype, child, t);
            self.wait(vec![id]);
        }
    }

    /// Broadcast packed host bytes down `tree`: `data` holds the payload on
    /// the root and is overwritten with it everywhere else.
    pub(crate) fn bcast_bytes_over(&mut self, tree: &Tree, data: &mut [u8], t: u32) {
        let wire = HostBuf::from_vec(data.to_vec());
        let byte = self.byte.clone();
        self.bcast_over(tree, &Loc::Host(wire.base()), data.len(), &byte, t);
        wire.read_into(0, data);
    }

    /// Reduce packed host bytes up `tree`: every member contributes `acc`;
    /// on the root, `acc` holds the folded result on return.
    pub(crate) fn reduce_over(&mut self, tree: &Tree, acc: &mut [u8], fold: Fold, t: u32) {
        self.fold_from(tree.children.iter().copied(), acc, fold, t);
        if let Some(parent) = tree.parent {
            let out = HostBuf::from_vec(acc.to_vec());
            let id = self.send_bytes(&out, 0, acc.len(), parent, t);
            self.wait(vec![id]);
        }
    }
}

/// Bounded-in-flight request window: pushing a group past
/// [`MAX_INFLIGHT`] first waits out (and reaps) the oldest group.
/// Collectives use this instead of posting every request at once, so a
/// P-wide exchange never holds more than that many operations per rank —
/// the fix for the naive alltoall's P² fabric-wide request storm.
#[derive(Default)]
pub(crate) struct ReqWindow {
    q: VecDeque<Vec<ReqId>>,
}

impl ReqWindow {
    pub(crate) fn push(&mut self, cx: &mut Coll, ids: Vec<ReqId>) {
        if self.q.len() == MAX_INFLIGHT {
            let old = self
                .q
                .pop_front()
                .expect("a full window has an oldest group");
            cx.wait(old);
        }
        self.q.push_back(ids);
    }

    pub(crate) fn drain(&mut self, cx: &mut Coll) {
        let ids: Vec<ReqId> = self.q.drain(..).flatten().collect();
        if !ids.is_empty() {
            cx.wait(ids);
        }
    }
}

/// Which algorithms serve one call: the configured family, with `Hier`
/// resolved against the communicator's actual shape.
enum Family {
    Naive,
    Flat,
    Hier(hier::Hierarchy),
}

/// Dissemination barrier: in round `r` every rank signals the rank `2^r`
/// ahead and hears from the one `2^r` behind.
fn dissemination(mut cx: Coll) {
    let (rank, size) = (cx.rank(), cx.size());
    let empty = HostBuf::alloc(0);
    let (mut k, mut round) = (1, 0);
    while k < size {
        let s = cx.send_bytes(&empty, 0, 0, (rank + k) % size, round);
        let r = cx.recv_bytes(&empty, 0, 0, (rank + size - k) % size, round);
        cx.wait(vec![s, r]);
        k *= 2;
        round += 1;
    }
}

impl Comm {
    fn coll_algo(&self) -> CollAlgo {
        self.engine().lock().cfg.coll.algo
    }

    /// Enter a collective: take the engine, record the call, open its
    /// [`Coll`].
    fn enter(&self, name: &'static str) -> Coll<'_> {
        let eng = self.engine().lock();
        eng.counters.record(name);
        Coll::begin(self, eng, name)
    }

    /// [`enter`](Comm::enter), plus the family that serves the call. The
    /// hierarchical algorithms apply only when the configured family is
    /// `Hier` and this communicator actually spans multiple nodes with at
    /// least one shared node — otherwise the flat path is the right (and
    /// identical-cost) choice.
    fn enter_family(&self, name: &'static str) -> (Coll<'_>, Family) {
        let cx = self.enter(name);
        let family = match cx.eng.cfg.coll.algo {
            CollAlgo::Naive => Family::Naive,
            CollAlgo::Flat => Family::Flat,
            CollAlgo::Hier => {
                let h = hier::Hierarchy::build(self, &cx.eng);
                if h.beneficial() {
                    Family::Hier(h)
                } else {
                    Family::Flat
                }
            }
        };
        (cx, family)
    }

    /// `MPI_Barrier` (dissemination algorithm).
    pub fn barrier(&self) {
        dissemination(self.enter("MPI_Barrier"));
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
        if !eng.is_faulty() {
            return;
        }
        if eng.cfg.seeded_bug == Some(SeededBug::FinalizeQuiesce) {
            // Reintroduced liveness bug: skip the post-job dissemination, so
            // a finished rank stops answering its peers' protocol replays.
            return;
        }
        dissemination(Coll::begin(self, eng, "MPI_Finalize"));
    }

    /// `MPI_Bcast` from `root` (group rank): binomial tree on the flat
    /// path; root → node leaders → co-located ranks over shm on the
    /// hierarchical one. Works on host and device buffers.
    pub fn bcast(&self, buf: impl Into<Loc>, count: usize, dtype: &Datatype, root: usize) {
        let buf = buf.into();
        let (mut cx, family) = self.enter_family("MPI_Bcast");
        match family {
            Family::Hier(h) => hier::bcast(&mut cx, &h, &buf, count, dtype, root),
            _ => flat::bcast(&mut cx, &buf, count, dtype, root, 0),
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
        let (mut cx, family) = self.enter_family("MPI_Gather");
        let recv = Blocks::uniform(&recvbuf, self.size(), count, dtype);
        match family {
            Family::Hier(h) => hier::gather(&mut cx, &h, &sendbuf, &recv, root),
            _ => flat::gather(&mut cx, &sendbuf, &recv, root),
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
        let (mut cx, family) = self.enter_family("MPI_Scatter");
        let send = Blocks::uniform(&sendbuf, self.size(), count, dtype);
        match family {
            Family::Hier(h) => hier::scatter(&mut cx, &h, &send, &recvbuf, root),
            _ => flat::scatter(&mut cx, &send, &recvbuf, root),
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
            self.gather(sendbuf, recvbuf.clone(), count, dtype, 0);
            self.bcast(recvbuf, self.size() * count, dtype, 0);
            return;
        }
        let recv = Blocks::uniform(&recvbuf, self.size(), count, dtype);
        self.allgatherv_as("MPI_Allgather", &sendbuf, count, dtype, &recv);
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
        let recv = Blocks::new(&recvbuf, rcounts, rdispls, rdtype);
        self.allgatherv_as("MPI_Allgatherv", &sendbuf, scount, sdtype, &recv);
    }

    fn allgatherv_as(
        &self,
        name: &'static str,
        sendbuf: &Loc,
        scount: usize,
        sdtype: &Datatype,
        recv: &Blocks,
    ) {
        let (mut cx, family) = self.enter_family(name);
        match family {
            Family::Hier(h) => hier::allgatherv(&mut cx, &h, sendbuf, scount, sdtype, recv),
            _ => flat::allgatherv(&mut cx, sendbuf, scount, sdtype, recv),
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
        let (mut cx, family) = self.enter_family("MPI_Alltoall");
        let send = Blocks::uniform(&sendbuf, self.size(), count, dtype);
        let recv = Blocks::uniform(&recvbuf, self.size(), count, dtype);
        match family {
            Family::Naive => flat::naive_alltoall(&mut cx, &send, &recv),
            Family::Flat => flat::alltoallv(&mut cx, &send, &recv),
            Family::Hier(h) => hier::alltoallv(&mut cx, &h, &send, &recv),
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
        let (mut cx, family) = self.enter_family("MPI_Alltoallv");
        let send = Blocks::new(&sendbuf, scounts, sdispls, sdtype);
        let recv = Blocks::new(&recvbuf, rcounts, rdispls, rdtype);
        match family {
            Family::Hier(h) => hier::alltoallv(&mut cx, &h, &send, &recv),
            _ => flat::alltoallv(&mut cx, &send, &recv),
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
        let fold = Fold { op, dtype };
        let (mut cx, family) = self.enter_family("MPI_Reduce");
        match family {
            Family::Naive => flat::naive_reduce(&mut cx, &sendbuf, &recvbuf, count, fold, root),
            Family::Flat => flat::reduce(&mut cx, &sendbuf, &recvbuf, count, fold, root),
            Family::Hier(h) => hier::reduce(&mut cx, &h, &sendbuf, &recvbuf, count, fold, root),
        }
    }

    /// `MPI_Allreduce` for primitive datatypes, host and device buffers.
    /// The hierarchical path pipelines per 64 KiB segment: pack → shm
    /// fan-in and combine at the node leader → one reduced stream per node
    /// over the wire (leader binomial tree) → shm fan-out, so a segment's
    /// wire time overlaps the next segment's pack and combine.
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
        let fold = Fold { op, dtype };
        let (mut cx, family) = self.enter_family("MPI_Allreduce");
        match family {
            Family::Hier(h) => hier::allreduce(&mut cx, &h, &sendbuf, &recvbuf, count, fold),
            _ => {
                flat::reduce(&mut cx, &sendbuf, &recvbuf, count, fold, 0);
                flat::bcast(&mut cx, &recvbuf, count, dtype, 0, 512);
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
