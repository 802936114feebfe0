//! Per-rank protocol engine: matching, request state machines and the
//! progress loop.
//!
//! Each rank runs as one simulation process; MPI progress happens inside
//! MPI calls (single-threaded MPI, like the paper's MVAPICH2 build). The
//! engine drains the NIC mailbox, advances rendezvous state machines by
//! polling staging sources/sinks and RDMA completions, and blocks — in
//! virtual time — until either a packet arrives or the earliest known
//! hardware completion instant passes.
//!
//! This module owns what every message shares — posting, matching, the
//! eager path, the RTS (sent, retransmitted, matched), the packet router
//! and the progress loop. What happens between a matched RTS and
//! completion belongs to one of three self-contained rendezvous units,
//! each an `impl Engine` block over its own send/receive state — one
//! variant of [`SendPhase`] and of [`RecvPhase`]:
//!
//! * [`staged`] — the windowed vbuf pipeline (CTS / FIN / CREDIT / FIN-NACK);
//! * [`rput`] — the one-shot RDMA write into the receiver's registered
//!   user buffer, with two payload kinds: *direct* (contiguous) and
//!   *offload* (NIC scatter/gather);
//! * [`device`] — the D2D path between ranks sharing a GPU.
//!
//! Every packet after the RTS names one local request. The router looks
//! it up once, and a `(phase, kind)` row hands the request's state to the
//! unit's handler, so a handler sees only packets its phase expects. Every
//! packet without a row goes to the one stale-packet rule
//! ([`Engine::stale`]). A new scheme is one file here, one `match_rts`
//! row, and per new packet kind one `(phase, kind)` row in `route_send` or
//! `route_recv` and one row of the stale rule.
//!
//! # Fault recovery
//!
//! On a fabric built with [`ib_sim::FaultSpec`], control packets can be
//! dropped or delayed, RDMA writes can fail with an error CQE, and user
//! buffer registration can hit a pin limit. The units layer a
//! retry/recovery protocol over their state machines, built from the one
//! [`reliability`] module (retry timer, bounded replay memory, the
//! stale-packet rule):
//!
//! * lost **RTS**: the sender retransmits on timeout (exponential backoff);
//! * lost **CTS** (any kind): a duplicate RTS makes the receiver re-send
//!   its response (same granted window — grants are never duplicated);
//! * lost **FIN**: the staged sender defers each FIN to its chunk's
//!   successful CQE and retransmits the FINs of busy (uncredited) slots on
//!   stall; the receiver additionally nacks the first missing chunk; an
//!   rput receiver re-offers its CTS and the finished sender re-FINs;
//! * lost **CREDIT**: a retransmitted FIN for an already-credited chunk
//!   makes the receiver re-send that credit; credits are sequenced by
//!   chunk index so duplicates can never free a slot twice;
//! * failed **RDMA write**: re-issued from the still-held staging buffer
//!   (staged) or the user buffer (rput), bounded by the retry budget;
//! * failed **registration**: the rput degrades to the staged path, on
//!   either side.
//!
//! Every timer, duplicate-tolerance path and retransmit is gated on the
//! fabric actually injecting faults: with faults disabled the engine is
//! bit-identical — in timing and in bytes — to one built without any of
//! this machinery, and protocol violations stay hard panics.

mod device;
mod reliability;
mod rput;
mod staged;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use gpu_sim::Loc;
use hostmem::HostBuf;
use ib_sim::{MrKey, Nic};
use sim_core::{instrument, san};
use sim_core::{CallCounters, SimDur, SimTime};

use self::device::{DevRecv, DevSend};
use self::reliability::{violation, Replay, RetryTimer};
use self::rput::{RegCache, RputRecv, RputSend};
use self::staged::{StagedRecv, StagedSend};
use crate::datatype::Datatype;
use crate::invariants;
use crate::pack::CpuModel;
use crate::plan::Canonical;
use crate::proto::{
    Credit, Cts, CtsRput, Envelope, Fin, FinDev, MpiConfig, MpiError, MpiPacket, ReqId, RputKind,
    Rts,
};
use crate::scheme::{DataScheme, Offer, SchemeSelector};
use crate::staging::{BufferStager, HostRecvSink, HostSendSource, RecvSink, SendSource};
use crate::tuner::ChunkTuner;

/// Source selector for receives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SrcSel(pub(crate) Option<usize>);

/// Tag selector for receives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TagSel(pub(crate) Option<u32>);

/// Match any source rank (MPI_ANY_SOURCE).
pub const ANY_SOURCE: SrcSel = SrcSel(None);
/// Match any tag (MPI_ANY_TAG).
pub const ANY_TAG: TagSel = TagSel(None);

impl From<usize> for SrcSel {
    fn from(r: usize) -> Self {
        SrcSel(Some(r))
    }
}

impl From<u32> for TagSel {
    fn from(t: u32) -> Self {
        TagSel(Some(t))
    }
}

/// Completion information of a receive (MPI_Status).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecvStatus {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: u32,
    /// Received payload bytes (type-packed size).
    pub bytes: usize,
}

/// A nonblocking operation handle.
#[derive(Debug)]
pub struct Request {
    pub(crate) id: ReqId,
}

/// Record a protocol event on the rank-local counters, the process-global
/// counters (fault campaigns read the global ones; tests needing isolation
/// read the per-rank ones through `Comm::counters`) and the rank's protocol
/// trace lane.
fn note(counters: &CallCounters, trace: &ProtoTrace, name: &'static str) {
    counters.record(name);
    instrument::global().record(name);
    trace.proto.instant_now(name);
}

/// Trace lanes of one rank's protocol engine. Always present; every lane
/// no-ops behind one atomic load when the recorder is disabled, so the
/// engine never branches on the tracing mode.
pub(crate) struct ProtoTrace {
    /// Protocol instants: rendezvous transitions, retries, duplicates,
    /// fallbacks.
    proto: sim_trace::Lane,
    /// Per-chunk RDMA-write stage spans (the wire stage of the pipeline,
    /// between d2h and h2d).
    rdma: sim_trace::Lane,
    /// Send-side vbuf pool occupancy.
    send_pool: sim_trace::Lane,
    /// Recv-side (grantable) vbuf pool occupancy.
    recv_pool: sim_trace::Lane,
    /// Chunk size chosen by the adaptive tuner, per staged transfer.
    chunk_size: sim_trace::Lane,
}

impl ProtoTrace {
    fn new(rec: &sim_trace::Recorder, scope: &str) -> Self {
        use sim_trace::LaneKind::{Gauge, Proto, Stage};
        ProtoTrace {
            proto: rec.lane(scope, "proto", Proto),
            rdma: rec.lane(scope, "rdma", Stage),
            send_pool: rec.lane(scope, "send_pool", Gauge),
            recv_pool: rec.lane(scope, "recv_pool", Gauge),
            chunk_size: rec.lane(scope, "chunk_size", Gauge),
        }
    }
}

pub(crate) struct Vbuf {
    pub buf: HostBuf,
    pub key: MrKey,
}

/// Where a send is: waiting for the receiver's CTS, in one rendezvous
/// unit, or finished.
enum SendPhase {
    WaitCts { timer: Option<RetryTimer> },
    Staged(StagedSend),
    Rput(RputSend),
    Dev(DevSend),
    Done,
    Failed(MpiError),
}

struct SendState {
    dst: usize,
    total: usize,
    /// Envelope of the original RTS (for retransmission).
    env: Envelope,
    source: Box<dyn SendSource>,
    /// What the send buffer offers a rendezvous (empty for an eager send).
    offer: Offer,
    /// Registration for the rput path failed: the transfer falls back to
    /// staged, and RTS retransmits stop advertising either rput kind.
    rput_failed: bool,
    phase: SendPhase,
}

impl SendState {
    /// The RTS of this send, as first sent and as retransmitted.
    fn rts(&self, send_req: ReqId) -> Rts {
        let (rput, o) = (!self.rput_failed, &self.offer);
        let wire = o.wire.as_ref().filter(|_| rput);
        Rts {
            env: self.env,
            total: self.total,
            send_req,
            direct: rput && o.direct.is_some(),
            wire: wire.map(|(_, d)| (d.entries().len(), d.rows())),
            gpu: o.gpu,
        }
    }
}

/// Where a receive is: waiting for a matching message, in one rendezvous
/// unit, or finished.
enum RecvPhase {
    Unmatched,
    /// Boxed: the largest unit state stays out of every receive's size.
    Staged(Box<StagedRecv>),
    Rput(RputRecv),
    Dev(DevRecv),
    Done(RecvStatus),
    Failed(MpiError),
}

struct RecvState {
    src_sel: SrcSel,
    tag_sel: TagSel,
    ctx: u16,
    capacity: usize,
    /// Held until the receive is reaped, except by an eager receive: its
    /// sink goes at delivery, and with it a device sink's tbuf and streams.
    sink: Option<Box<dyn RecvSink>>,
    /// What the receive buffer offers a rendezvous.
    offer: Offer,
    /// Shape of the receive layout (the autotuner keys on its bucket).
    shape: Canonical,
    phase: RecvPhase,
}

impl RecvState {
    /// The sink of a receive not delivered eagerly.
    fn sink(&mut self) -> &mut dyn RecvSink {
        self.sink
            .as_deref_mut()
            .expect("an eager receive holds no sink")
    }
}

enum Unexpected {
    Eager { env: Envelope, data: HostBuf },
    Rts(Rts),
}

impl Unexpected {
    fn env(&self) -> &Envelope {
        match self {
            Unexpected::Eager { env, .. } | Unexpected::Rts(Rts { env, .. }) => env,
        }
    }
}

/// Sleep until `done` holds, waking at each instant `next` names: how an
/// eager message waits out its one chunk, on either side.
fn settle(done: impl Fn() -> bool, next: impl Fn() -> Option<SimTime>) {
    while !done() {
        sim_core::sleep_until(next().expect("a pending chunk with no finish time"));
    }
}

fn env_matches(env: &Envelope, ctx: u16, src: SrcSel, tag: TagSel) -> bool {
    env.ctx == ctx && src.0.is_none_or(|s| s == env.src) && tag.0.is_none_or(|t| t == env.tag)
}

/// A message larger than the receive it matched (`MPI_ERR_TRUNCATE`), on
/// the eager and the rendezvous path alike. Fatal, as under MPI's default
/// `MPI_ERRORS_ARE_FATAL` handler: the sanitizer gets the report and the job
/// aborts (`Outcome::end` is `Err`). A typed error on the receive alone
/// would leave a rendezvous sender waiting for a CTS that never comes.
fn truncated(bytes: usize, capacity: usize) -> ! {
    violation(format_args!(
        "message truncated: {bytes} bytes into a {capacity}-byte receive"
    ))
}

pub(crate) struct Engine {
    pub rank: usize,
    pub size: usize,
    pub nic: Nic,
    /// Job scope prefix (from [`Nic::scope_prefix`]): `""` on a dedicated
    /// fabric, `"job{k}."` for a tenant of a shared one. Prepended to
    /// every trace scope, sanitizer pool/gauge scope and metrics prefix
    /// this engine emits, so concurrent jobs never collide in one
    /// process-wide registry.
    pub prefix: String,
    pub cfg: MpiConfig,
    pub counters: CallCounters,
    /// The data-path scheme layer: per-peer colocation, eager
    /// thresholds and rendezvous scheme resolution, owned in one place.
    /// The protocol state machines ask it what to do and never look inside.
    scheme: SchemeSelector,
    /// Host CPU cost model (the calibrated Westmere host).
    cpu: CpuModel,
    /// Builds sources/sinks for device buffers; `None` on a host-only world.
    stager: Option<Arc<dyn BufferStager>>,
    /// True when the fabric injects faults; every retry timer and
    /// duplicate-tolerance path is gated on this.
    faulty: bool,
    next_req: ReqId,
    /// Live requests, iterated in id (= posting) order: the advance order
    /// must be a pure function of request ids for replay determinism.
    sends: BTreeMap<ReqId, SendState>,
    recvs: BTreeMap<ReqId, RecvState>,
    posted: Vec<ReqId>,
    unexpected: VecDeque<Unexpected>,
    /// Registered staging buffers for *outgoing* chunks. Kept separate from
    /// `recv_pool`: if grants and local staging shared one pool, two ranks
    /// could grant each other every buffer and deadlock with nothing left
    /// to stage their own sends (a classic buffer-management deadlock).
    send_pool: Vec<Vbuf>,
    /// Registered staging buffers granted to remote senders via CTS.
    recv_pool: Vec<Vbuf>,
    /// Sanitizer pool handles (None when the sanitizer is off).
    send_pool_id: Option<san::PoolId>,
    recv_pool_id: Option<san::PoolId>,
    /// Sanitizer accounting for device tbufs held across a D2D rendezvous
    /// (taken at CTS-dev staging, returned at CREDIT-dev receipt).
    dev_tbuf_id: Option<san::PoolId>,
    /// True once the configured one-shot [`crate::proto::SeededBug`] has
    /// happened.
    seeded_bug_fired: bool,
    /// Next free communicator context id (0/1 belong to the world comm).
    next_ctx: u16,
    /// Bounded registration cache for rendezvous user buffers.
    reg_cache: RegCache,
    /// The exchange buffer of the collectives' `allreduce_over`, kept
    /// across calls so repeated allreduces hit `reg_cache`.
    coll_wire: Option<HostBuf>,
    /// Online block-size search (drives `ChunkPolicy::Adaptive`).
    tuner: ChunkTuner,
    /// What the stale-packet rule answers retransmits from.
    replay: Replay,
    /// This rank's trace lanes (no-ops when the recorder is disabled).
    trace: ProtoTrace,
    /// Last (send_pool, recv_pool) occupancy sampled onto the gauge lanes;
    /// samples are only emitted on change.
    last_pools: (usize, usize),
}

impl Engine {
    /// Build a rank engine wired to a trace recorder: protocol events,
    /// per-chunk RDMA stage spans and vbuf-pool gauges land on
    /// `rank{rank}/*` lanes, and the rank's counters join the recorder's
    /// unified metrics registry. Pass `Recorder::off()` for an untraced
    /// engine — emission then no-ops behind one atomic load.
    pub fn new_traced(
        nic: Nic,
        rank: usize,
        size: usize,
        cfg: MpiConfig,
        stager: Option<Arc<dyn BufferStager>>,
        rec: &sim_trace::Recorder,
    ) -> Engine {
        cfg.validate();
        // Pre-allocate the vbuf pools and register them as one region (done
        // once at MPI_Init, as MVAPICH2 does): one registration time for
        // the pool, one key per vbuf. Slots are sized to the largest chunk
        // any policy may pick, so the adaptive tuner can grow the block
        // without reallocating. Each vbuf stays its own `HostBuf`, which
        // backs only the prefix written, so an idle slot costs no pages.
        // The pools use the infallible register: like MVAPICH2's vbuf pool
        // at MPI_Init, they are exempt from the (fault-injected) pin limit.
        let bufs: Vec<HostBuf> = (0..cfg.pool_vbufs)
            .map(|_| HostBuf::alloc(cfg.max_chunk()))
            .collect();
        let keys = nic.register_region(&bufs);
        let mut send_pool: Vec<Vbuf> = bufs
            .into_iter()
            .zip(keys)
            .map(|(buf, key)| Vbuf { buf, key })
            .collect();
        let recv_pool = send_pool.split_off(cfg.pool_vbufs / 2);
        // Scope everything the engine names after the job: on a dedicated
        // fabric the prefix is empty and these are the classic
        // `rank{r}.*` names; tenants of a shared fabric get
        // `job{k}.rank{r}.*`, so two worlds in one process never collide
        // in the sanitizer or the metrics registry.
        let prefix = nic.scope_prefix().to_string();
        let scope = format!("{prefix}rank{rank}");
        let send_pool_id = san::pool_register(format!("{scope}.send_pool"));
        let recv_pool_id = san::pool_register(format!("{scope}.recv_pool"));
        let dev_tbuf_id = san::pool_register(format!("{scope}.dev_tbuf"));
        invariants::register_all();
        let tuner = ChunkTuner::new(&cfg);
        let faulty = nic.faults_enabled();
        let counters = CallCounters::new();
        rec.register_counters(&scope, &counters);
        let trace = ProtoTrace::new(rec, &scope);
        let cpu = CpuModel::westmere();
        let scheme = SchemeSelector::new(&nic, &cfg, &cpu);
        Engine {
            rank,
            size,
            nic,
            prefix,
            cfg,
            counters,
            scheme,
            cpu,
            stager,
            faulty,
            next_req: 1,
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            posted: Vec::new(),
            unexpected: VecDeque::new(),
            send_pool,
            recv_pool,
            send_pool_id,
            recv_pool_id,
            dev_tbuf_id,
            seeded_bug_fired: false,
            next_ctx: 2,
            reg_cache: RegCache::new(),
            coll_wire: None,
            tuner,
            replay: Replay::default(),
            trace,
            // Sentinel: the first progress pass samples the baseline.
            last_pools: (usize::MAX, usize::MAX),
        }
    }

    /// The next free communicator context id (used by `Comm::split` to
    /// agree on new contexts).
    pub fn peek_next_ctx(&self) -> u16 {
        self.next_ctx
    }

    /// Advance the context allocator past an agreed block.
    pub fn advance_ctx(&mut self, to: u16) {
        self.next_ctx = self.next_ctx.max(to);
    }

    fn alloc_req(&mut self) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// The eager threshold of a send toward `peer`: the size up to which
    /// its payload travels as packed host bytes.
    pub(crate) fn send_eager_limit(&self, peer: usize) -> usize {
        self.scheme.send_eager_limit(peer)
    }

    /// The collectives' exchange buffer, at least `len` bytes: the same
    /// buffer on every call until a larger one is needed.
    pub(crate) fn coll_wire(&mut self, len: usize) -> HostBuf {
        match &self.coll_wire {
            Some(buf) if buf.len() >= len => buf.clone(),
            _ => self.coll_wire.insert(HostBuf::alloc(len)).clone(),
        }
    }

    /// The host CPU cost model this engine charges.
    pub(crate) fn cpu(&self) -> &CpuModel {
        &self.cpu
    }

    fn mpi_call_cost(&self) {
        sim_core::sleep(SimDur::from_nanos(self.cpu.mpi_call_ns));
    }

    /// The packed byte stream of `(buf, count, dt)`, through the stager for
    /// the buffers it handles (device memory), else a CPU pack. Refuses a
    /// footprint that does not fit its buffer.
    pub(crate) fn make_source(
        &self,
        buf: &Loc,
        count: usize,
        dt: &Datatype,
    ) -> Box<dyn SendSource> {
        Self::check_bounds(buf, count, dt);
        let staged = self.stager.as_ref().and_then(|s| s.source(buf, count, dt));
        match (staged, buf) {
            (Some(src), _) => src,
            (None, Loc::Host(p)) => {
                Box::new(HostSendSource::new(p.clone(), count, dt, self.cpu.clone()))
            }
            (None, Loc::Device(_)) => panic!(
                "send buffer resides in device memory but this MPI build has \
                 no GPU datatype support (use mv2-gpu-nc)"
            ),
        }
    }

    /// [`make_source`](Engine::make_source)'s mirror: where a packed byte
    /// stream lands in `(buf, count, dt)`.
    pub(crate) fn make_sink(&self, buf: &Loc, count: usize, dt: &Datatype) -> Box<dyn RecvSink> {
        Self::check_bounds(buf, count, dt);
        let staged = self.stager.as_ref().and_then(|s| s.sink(buf, count, dt));
        match (staged, buf) {
            (Some(sink), _) => sink,
            (None, Loc::Host(p)) => {
                Box::new(HostRecvSink::new(p.clone(), count, dt, self.cpu.clone()))
            }
            (None, Loc::Device(_)) => panic!(
                "receive buffer resides in device memory but this MPI build \
                 has no GPU datatype support (use mv2-gpu-nc)"
            ),
        }
    }

    /// A post must fit its buffer. A footprint or a message size that
    /// overflows fits none: refused here for every residency and in every
    /// build profile, before a wrapped size could pass for a small one. The
    /// extent itself is checked against host buffers.
    fn check_bounds(buf: &Loc, count: usize, dt: &Datatype) {
        let flat = dt.flat();
        let abs = flat.total_bytes(count).and(flat.byte_range(count));
        let Loc::Host(p) = buf else {
            assert!(
                abs.is_some(),
                "datatype footprint of {count} elements overflows"
            );
            return;
        };
        let (len, base) = (p.buf().len(), p.offset() as isize);
        match abs.and_then(|(lo, hi)| Some((base.checked_add(lo)?, base.checked_add(hi)?))) {
            Some((lo, hi)) if lo >= 0 && hi as usize <= len => {}
            Some((lo, hi)) => {
                panic!("datatype footprint [{lo}, {hi}) exceeds host buffer of {len} bytes")
            }
            None => panic!(
                "datatype footprint of {count} elements overflows and exceeds host buffer \
                 of {len} bytes"
            ),
        }
    }

    // --- posting ---------------------------------------------------------------

    pub fn isend(
        &mut self,
        buf: Loc,
        count: usize,
        dt: &Datatype,
        dst: usize,
        tag: u32,
        ctx: u16,
    ) -> ReqId {
        assert!(dst < self.size, "isend to nonexistent rank {dst}");
        self.mpi_call_cost();
        // Every MPI call gives the progress engine a chance to run (as in
        // any real single-threaded MPI library).
        self.progress();
        let source = self.make_source(&buf, count, dt);
        let id = self.alloc_req();
        let mut st = SendState {
            dst,
            total: source.total_bytes(),
            env: Envelope {
                ctx,
                src: self.rank,
                tag,
            },
            source,
            offer: Offer::default(),
            rput_failed: false,
            phase: SendPhase::Done,
        };
        if st.total <= self.scheme.send_eager_limit(dst) {
            // Chunk 0 of a one-chunk transfer, staged in the payload itself.
            let (env, data, source) = (st.env, HostBuf::alloc(st.total), &mut st.source);
            source.begin(st.total.max(1));
            source.request_chunk(0, data.base(), st.total);
            settle(|| source.chunk_ready(0), || source.next_event());
            let wire = data.len() + 64;
            self.nic
                .send(dst, wire, Box::new(MpiPacket::Eager { env, data }));
        } else {
            let gpu = st.source.device_gpu();
            st.phase = match self.scheme.offer(&buf, count, dt, Some(dst), gpu) {
                Ok(offer) => {
                    st.offer = offer;
                    self.trace.proto.instant_now("rts");
                    self.nic
                        .send_ctrl(dst, Box::new(MpiPacket::Rts(st.rts(id))));
                    SendPhase::WaitCts {
                        timer: self.retry_timer(),
                    }
                }
                // Forced offload on a layout the HCA cannot walk: surface
                // the typed rejection through wait_result before any wire
                // traffic, instead of a deep-engine panic later.
                Err(err) => self.fail_send(SendPhase::Done, MpiError::Rejected { err }),
            };
        }
        self.sends.insert(id, st);
        id
    }

    pub fn irecv(
        &mut self,
        buf: Loc,
        count: usize,
        dt: &Datatype,
        src: SrcSel,
        tag: TagSel,
        ctx: u16,
    ) -> ReqId {
        self.mpi_call_cost();
        self.progress();
        let sink = self.make_sink(&buf, count, dt);
        // Cheap after the sink pulled the plan into the cache.
        let shape = Canonical::of(&dt.plan(count));
        let gpu = sink.device_gpu().or_else(|| self.stager.as_ref()?.gpu());
        let offer = self.scheme.offer(&buf, count, dt, None, gpu);
        let id = self.alloc_req();
        self.recvs.insert(
            id,
            RecvState {
                src_sel: src,
                tag_sel: tag,
                ctx,
                capacity: sink.total_bytes(),
                sink: Some(sink),
                offer: offer.expect("a receive is never refused"),
                shape,
                phase: RecvPhase::Unmatched,
            },
        );
        // Try the unexpected queue first (FIFO), then stay posted.
        let queued = self
            .unexpected
            .iter()
            .position(|u| env_matches(u.env(), ctx, src, tag));
        match queued.and_then(|pos| self.unexpected.remove(pos)) {
            Some(Unexpected::Eager { env, data }) => self.deliver_eager(id, env, data),
            Some(Unexpected::Rts(rts)) => self.match_rts(id, rts),
            None => self.posted.push(id),
        }
        id
    }

    // --- matching ----------------------------------------------------------------

    fn find_posted(&mut self, env: &Envelope) -> Option<ReqId> {
        let pos = self.posted.iter().position(|id| {
            let r = &self.recvs[id];
            matches!(r.phase, RecvPhase::Unmatched) && env_matches(env, r.ctx, r.src_sel, r.tag_sel)
        })?;
        Some(self.posted.remove(pos))
    }

    fn on_eager(&mut self, src: usize, env: Envelope, data: HostBuf) {
        let limit = self.scheme.eager_limit(src);
        if data.len() > limit {
            san::report_protocol(format!(
                "eager payload of {} bytes exceeds the eager limit of {limit} bytes",
                data.len(),
            ));
        }
        if let Some(recv_id) = self.find_posted(&env) {
            self.deliver_eager(recv_id, env, data);
        } else {
            self.unexpected.push_back(Unexpected::Eager { env, data });
        }
    }

    fn deliver_eager(&mut self, recv_id: ReqId, env: Envelope, data: HostBuf) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        let bytes = data.len();
        if bytes > st.capacity {
            truncated(bytes, st.capacity);
        }
        // Chunk 0 of a one-chunk transfer, unpacked straight from the
        // payload; the sink is dropped here, not at reap, so a device sink's
        // tbuf is back in the pool for the rank's next message.
        let mut sink = st.sink.take().expect("an eager receive delivered twice");
        sink.begin(bytes.max(1), bytes);
        sink.chunk_arrived(0, data.base(), bytes);
        settle(|| sink.finished(), || sink.next_event());
        st.phase = RecvPhase::Done(RecvStatus {
            src: env.src,
            tag: env.tag,
            bytes,
        });
    }

    fn on_rts(&mut self, rts: Rts) {
        if let Some(recv_id) = self.find_posted(&rts.env) {
            self.match_rts(recv_id, rts);
        } else {
            self.unexpected.push_back(Unexpected::Rts(rts));
        }
    }

    /// Pair a receive with the RTS it matched and engage the rendezvous
    /// unit the scheme layer picks from what the RTS advertised and what
    /// this receive offers. A unit that cannot engage after all (a
    /// registration hit the pin limit) leaves the transfer to the staged
    /// pipeline.
    fn match_rts(&mut self, recv_id: ReqId, rts: Rts) {
        self.step_recv(recv_id, |e, st, _| {
            if rts.total > st.capacity {
                truncated(rts.total, st.capacity);
            }
            let scheme = e.scheme.resolve(&rts, &st.offer);
            if e.faulty {
                e.replay
                    .matched_rts
                    .insert((rts.env.src, rts.send_req), recv_id);
            }
            let engaged = match scheme {
                DataScheme::DeviceD2D => Some(e.dev_grant(recv_id, rts)),
                DataScheme::Direct => e.rput_grant(recv_id, st, rts, RputKind::Direct),
                DataScheme::NicOffload => e.rput_grant(recv_id, st, rts, RputKind::Offload),
                DataScheme::Staged => None,
            };
            engaged.unwrap_or_else(|| e.start_staged_recv(recv_id, st, rts))
        });
    }

    /// A receive delivered all of `rts`'s bytes: its phase from now on.
    fn complete_recv(&mut self, rts: &Rts) -> RecvPhase {
        self.retire_rts(rts.env.src, rts.send_req);
        RecvPhase::Done(RecvStatus {
            src: rts.env.src,
            tag: rts.env.tag,
            bytes: rts.total,
        })
    }

    /// Check send `id` out of its table, hand `step` its phase by value and
    /// the rest of its state, and store the phase `step` returns. Unit code
    /// runs inside a step, on a request its caller has already routed.
    fn step_send(
        &mut self,
        id: ReqId,
        step: impl FnOnce(&mut Engine, &mut SendState, SendPhase) -> SendPhase,
    ) {
        let mut st = self.sends.remove(&id).expect("send state missing");
        let phase = std::mem::replace(&mut st.phase, SendPhase::Done);
        st.phase = step(self, &mut st, phase);
        self.sends.insert(id, st);
    }

    /// [`step_send`](Engine::step_send) for receive `id`.
    fn step_recv(
        &mut self,
        id: ReqId,
        step: impl FnOnce(&mut Engine, &mut RecvState, RecvPhase) -> RecvPhase,
    ) {
        let mut st = self.recvs.remove(&id).expect("recv state missing");
        let phase = std::mem::replace(&mut st.phase, RecvPhase::Unmatched);
        st.phase = step(self, &mut st, phase);
        self.recvs.insert(id, st);
    }

    // --- packet routing ------------------------------------------------------------

    /// An eager message and a first RTS are matched by envelope. Every
    /// later packet names one local request, a send or a receive, and goes
    /// to that request's unit if a `(phase, kind)` row takes it. Whatever
    /// is left is stale.
    fn handle_packet(&mut self, src: usize, pkt: MpiPacket) {
        sim_core::sleep(SimDur::from_nanos(self.cpu.handle_pkt_ns));
        let stale = match pkt {
            MpiPacket::Eager { env, data } => return self.on_eager(src, env, data),
            MpiPacket::Rts(rts) if !self.seen_rts(&rts) => return self.on_rts(rts),
            MpiPacket::Rts(_) => Some(pkt),
            MpiPacket::Cts(Cts { send_req, .. })
            | MpiPacket::CtsRput(CtsRput { send_req, .. })
            | MpiPacket::CtsDev { send_req, .. }
            | MpiPacket::Credit(Credit { send_req, .. })
            | MpiPacket::CreditDev { send_req }
            | MpiPacket::FinNack { send_req, .. } => self.route_send(send_req, pkt),
            MpiPacket::Fin(Fin { recv_req, .. })
            | MpiPacket::FinRput { recv_req, .. }
            | MpiPacket::FinDev(FinDev { recv_req, .. })
            | MpiPacket::RputAbort { recv_req, .. } => self.route_recv(recv_req, pkt),
        };
        if let Some(pkt) = stale {
            self.stale(pkt);
        }
    }

    /// The rows for packets naming a send; returns a packet no row takes.
    fn route_send(&mut self, id: ReqId, pkt: MpiPacket) -> Option<MpiPacket> {
        if !self.sends.contains_key(&id) {
            return Some(pkt);
        }
        let mut stale = None;
        self.step_send(id, |e, st, phase| match (phase, pkt) {
            (SendPhase::WaitCts { .. }, MpiPacket::Cts(cts)) => e.staged_on_cts(st, cts),
            (SendPhase::WaitCts { timer }, MpiPacket::CtsRput(cts)) => {
                e.rput_on_cts(st, timer, cts)
            }
            (SendPhase::WaitCts { .. }, MpiPacket::CtsDev { recv_req, .. }) => {
                e.dev_on_cts(st, recv_req)
            }
            (SendPhase::Staged(mut ss), MpiPacket::Credit(c)) => {
                e.staged_on_credit(id, &mut ss, c);
                SendPhase::Staged(ss)
            }
            (SendPhase::Staged(ss), MpiPacket::FinNack { .. }) => {
                ss.refin(&e.nic, &e.counters, &e.trace);
                SendPhase::Staged(ss)
            }
            (SendPhase::Dev(_), MpiPacket::CreditDev { .. }) => e.dev_on_credit(),
            (phase, pkt) => {
                stale = Some(pkt);
                phase
            }
        });
        stale
    }

    /// The rows for packets naming a receive; returns a packet no row takes.
    fn route_recv(&mut self, id: ReqId, pkt: MpiPacket) -> Option<MpiPacket> {
        if !self.recvs.contains_key(&id) {
            return Some(pkt);
        }
        let mut stale = None;
        self.step_recv(id, |e, st, phase| match (phase, pkt) {
            (RecvPhase::Staged(mut sr), MpiPacket::Fin(fin)) => {
                e.staged_on_fin(&mut sr, fin);
                RecvPhase::Staged(sr)
            }
            (RecvPhase::Rput(w), MpiPacket::FinRput { kind, .. }) if w.place.kind() == kind => {
                e.rput_on_fin(w)
            }
            (RecvPhase::Rput(w), MpiPacket::RputAbort { kind, .. }) if w.place.kind() == kind => {
                e.rput_to_staged(id, st, w)
            }
            (RecvPhase::Dev(DevRecv::Wait(rts)), MpiPacket::FinDev(fin)) => {
                e.dev_on_fin(st, rts, fin)
            }
            (phase, pkt) => {
                stale = Some(pkt);
                phase
            }
        });
        stale
    }

    // --- progress -------------------------------------------------------------------

    /// One full progress pass: drain packets, advance all state machines.
    pub fn progress(&mut self) {
        // Drain the NIC mailbox.
        while let Some(pkt) = self.nic.mailbox().try_recv() {
            let src = pkt.src;
            let payload = pkt
                .payload
                .downcast::<MpiPacket>()
                .expect("non-MPI packet in MPI mailbox");
            self.handle_packet(src, *payload);
        }
        // Advance sends, then receives, each in id order. Only a request
        // with something to drive is visited: a pass neither creates
        // requests nor wakes a finished or unmatched one (matching happens
        // in the drain above and in `irecv`), so the ids skipped here are
        // the ones `advance_*` would skip.
        let send_ids: Vec<ReqId> = self
            .sends
            .iter()
            .filter(|(_, st)| !matches!(st.phase, SendPhase::Done | SendPhase::Failed(_)))
            .map(|(&id, _)| id)
            .collect();
        for id in send_ids {
            self.advance_send(id);
        }
        let recv_ids: Vec<ReqId> = self
            .recvs
            .iter()
            .filter(|(_, st)| {
                !matches!(
                    st.phase,
                    RecvPhase::Unmatched | RecvPhase::Done(_) | RecvPhase::Failed(_)
                )
            })
            .map(|(&id, _)| id)
            .collect();
        for id in recv_ids {
            self.advance_recv(id);
        }
        // Sample the vbuf-pool gauges, on change only.
        let cur = (self.send_pool.len(), self.recv_pool.len());
        if cur != self.last_pools {
            self.last_pools = cur;
            self.trace.send_pool.gauge_now(cur.0 as i64);
            self.trace.recv_pool.gauge_now(cur.1 as i64);
        }
    }

    fn advance_send(&mut self, id: ReqId) {
        // A finished send has nothing to drive: skip the checkout.
        if let SendPhase::Done | SendPhase::Failed(_) = self.sends[&id].phase {
            return;
        }
        self.step_send(id, |e, st, phase| match phase {
            SendPhase::WaitCts { timer: Some(t) } => e.retransmit_rts(id, st, t),
            SendPhase::Rput(r) => e.rput_advance_send(id, st, r),
            SendPhase::Staged(ss) => e.staged_advance_send(id, st, ss),
            // Nothing to drive: an unarmed RTS wait, or a device send whose
            // credit arrives through the mailbox.
            phase => phase,
        });
    }

    /// RTS watchdog (armed on faulty fabrics only): no CTS of any kind
    /// within the window — retransmit the RTS.
    fn retransmit_rts(&mut self, id: ReqId, st: &SendState, mut t: RetryTimer) -> SendPhase {
        match t.fire("rts", st.dst) {
            Ok(false) => {}
            Ok(true) => {
                note(&self.counters, &self.trace, "retry.rts");
                self.nic
                    .send_ctrl(st.dst, Box::new(MpiPacket::Rts(st.rts(id))));
            }
            Err(e) => return self.fail_send(SendPhase::WaitCts { timer: None }, e),
        }
        SendPhase::WaitCts { timer: Some(t) }
    }

    fn advance_recv(&mut self, id: ReqId) {
        // Nothing to drive before a match or after the end: skip the checkout.
        if let RecvPhase::Unmatched | RecvPhase::Done(_) | RecvPhase::Failed(_) =
            self.recvs[&id].phase
        {
            return;
        }
        self.step_recv(id, |e, st, phase| match phase {
            RecvPhase::Rput(w) => e.rput_watchdog(id, w),
            RecvPhase::Dev(DevRecv::Absorb { comp, rts }) => e.dev_advance_recv(comp, rts),
            RecvPhase::Staged(sr) => e.staged_advance_recv(id, st, sr),
            phase => phase,
        });
    }

    /// A typed failure on a send: release what its phase holds; the send
    /// parks Failed for the caller to reap.
    fn fail_send(&mut self, phase: SendPhase, e: MpiError) -> SendPhase {
        note(&self.counters, &self.trace, "mpi.error");
        match phase {
            SendPhase::Staged(ss) => {
                let held = ss.local.into_iter().map(|(_, vbuf)| vbuf);
                for vbuf in held.chain(ss.inflight.into_iter().map(|c| c.vbuf)) {
                    san::pool_put(self.send_pool_id);
                    self.send_pool.push(vbuf);
                }
            }
            SendPhase::Rput(r) => self.reg_cache.release(r.buf_id()),
            _ => {}
        }
        SendPhase::Failed(e)
    }

    /// A typed failure on a receive: release what its phase holds; the
    /// receive parks Failed for the caller to reap.
    fn fail_recv(&mut self, phase: RecvPhase, e: MpiError) -> RecvPhase {
        note(&self.counters, &self.trace, "mpi.error");
        match phase {
            RecvPhase::Staged(mut sr) => {
                for _ in 0..sr.slots.len() {
                    san::pool_put(self.recv_pool_id);
                }
                self.recv_pool.append(&mut sr.slots);
                self.retire_rts(sr.rts.env.src, sr.rts.send_req);
                self.grant_deferred_cts();
            }
            RecvPhase::Rput(w) => {
                self.reg_cache.release(w.buf_id);
                self.retire_rts(w.rts.env.src, w.rts.send_req);
            }
            _ => {}
        }
        RecvPhase::Failed(e)
    }

    // --- completion queries --------------------------------------------------------

    /// Whether request `id` has reached a terminal state (success or typed
    /// failure).
    pub fn req_done(&self, id: ReqId) -> bool {
        match self.sends.get(&id) {
            Some(s) => matches!(s.phase, SendPhase::Done | SendPhase::Failed(_)),
            None => matches!(
                self.recvs[&id].phase,
                RecvPhase::Done(_) | RecvPhase::Failed(_)
            ),
        }
    }

    /// Consume a finished request: its typed error (fault-injecting fabrics
    /// only), or the status of a receive.
    pub fn reap(&mut self, id: ReqId) -> Result<Option<RecvStatus>, MpiError> {
        if let Some(s) = self.sends.remove(&id) {
            return match s.phase {
                SendPhase::Failed(e) => Err(e),
                _ => Ok(None),
            };
        }
        match self.recvs.remove(&id).expect("unknown request").phase {
            RecvPhase::Failed(e) => Err(e),
            RecvPhase::Done(status) => Ok(Some(status)),
            _ => Ok(None),
        }
    }

    /// Whether this engine sits on a fault-injecting fabric.
    pub fn is_faulty(&self) -> bool {
        self.faulty
    }

    /// The physical node hosting world rank `rank` (hierarchical
    /// collectives group peers by this).
    pub(crate) fn node_of(&self, rank: usize) -> usize {
        self.nic.node_of(rank)
    }

    /// Number of unreaped requests (sends + receives) this rank holds —
    /// zero once the application has waited on everything it posted.
    pub fn live_requests(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }

    /// Scan the unexpected queue for a message matching `(src, tag)` on
    /// context `ctx`; returns its envelope info without consuming it.
    pub fn probe_unexpected(&self, src: SrcSel, tag: TagSel, ctx: u16) -> Option<RecvStatus> {
        self.unexpected.iter().find_map(|u| {
            let env = u.env();
            if !env_matches(env, ctx, src, tag) {
                return None;
            }
            let bytes = match u {
                Unexpected::Eager { data, .. } => data.len(),
                Unexpected::Rts(rts) => rts.total,
            };
            Some(RecvStatus {
                src: env.src,
                tag: env.tag,
                bytes,
            })
        })
    }

    /// Earliest *future* instant at which polling could make progress.
    pub fn next_event(&self) -> Option<SimTime> {
        let now = sim_core::now();
        let mut best: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                if t > now {
                    best = Some(match best {
                        None => t,
                        Some(b) => b.min(t),
                    });
                }
            }
        };
        let deadline = |t: &Option<RetryTimer>| t.as_ref().map(|t| t.deadline);
        for s in self.sends.values() {
            consider(s.source.next_event());
            match &s.phase {
                SendPhase::WaitCts { timer } => consider(deadline(timer)),
                SendPhase::Rput(r) => consider(r.rdma.done_at()),
                SendPhase::Dev(d) => consider(d.pack.done_at()),
                SendPhase::Staged(ss) => {
                    for c in &ss.inflight {
                        consider(c.comp.done_at());
                    }
                    consider(deadline(&ss.timer));
                }
                _ => {}
            }
        }
        for r in self.recvs.values() {
            consider(r.sink.as_ref().and_then(|s| s.next_event()));
            match &r.phase {
                RecvPhase::Rput(w) => consider(deadline(&w.timer)),
                RecvPhase::Dev(DevRecv::Absorb { comp, .. }) => consider(comp.done_at()),
                RecvPhase::Staged(sr) => consider(deadline(&sr.timer)),
                _ => {}
            }
        }
        best
    }

    /// The one blocking loop: progress, ask `ready`, and park until
    /// something can have changed. Every blocking MPI call is this loop
    /// with its own question.
    ///
    /// A pass advances virtual time itself (device submits, host copies),
    /// so an event can mature during it after the step that would consume
    /// it; [`next_event`](Engine::next_event) names only future instants
    /// and would miss it. The loop parks only after a pass that left the
    /// clock where it found it.
    pub fn block_until<T>(&mut self, ready: impl FnMut(&mut Engine) -> Option<T>) -> T {
        self.block_until_or(|| None, ready)
    }

    /// [`block_until`](Engine::block_until) for a caller that also drives
    /// work outside the engine (a collective's in-place stage): parking
    /// ends at a packet or at the earlier of the engine's next event and
    /// `local`'s.
    pub(crate) fn block_until_or<T>(
        &mut self,
        local: impl Fn() -> Option<SimTime>,
        mut ready: impl FnMut(&mut Engine) -> Option<T>,
    ) -> T {
        loop {
            let start = sim_core::now();
            self.progress();
            if let Some(v) = ready(self) {
                return v;
            }
            if sim_core::now() == start {
                let next = self.next_event().into_iter().chain(local()).min();
                self.nic.mailbox().wait_nonempty_until(next);
            }
        }
    }
}

#[cfg(test)]
mod tests;
