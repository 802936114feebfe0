//! Wire protocol: packet formats and protocol configuration.
//!
//! Three data paths, selected per message (see [`crate::scheme`]):
//!
//! * **Eager** — `total <= eager_limit`: the packed payload rides the
//!   envelope. Completes locally at send time (buffered semantics).
//! * **Rendezvous rput** — one RDMA post into the receiver's registered
//!   user buffer: RTS → CTS carrying the buffer's key and where the bytes
//!   land → one post → FIN. Two payload kinds ([`RputKind`]): *direct*
//!   (both sides contiguous host memory; a plain write at an offset) and
//!   *offload* (both sides host-resident and canonicalizable, see
//!   [`crate::plan::Canonical`]; the RTS advertises the sender's entry
//!   and row counts, the CTS carries the scatter descriptor, the NIC walks both —
//!   no CPU pack/unpack on either side).
//! * **Rendezvous staged** — everything else (device-resident or deep
//!   struct layouts): RTS → CTS granting a window of registered staging
//!   buffers (vbufs) → per chunk: stage (pack) / RDMA write / FIN / absorb
//!   (unpack) / CREDIT. This is the path the paper's GPU pipeline plugs
//!   into.

use hostmem::HostBuf;
use ib_sim::{MrKey, SgEntry};

use crate::scheme::{SchemeSel, SHM_EAGER_LIMIT};
use crate::tuner::MAX_BLOCK;

/// Request identifier, unique within one rank.
pub(crate) type ReqId = u64;

/// Message envelope used for matching.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Envelope {
    /// Communicator context id (0 = world, 1 = internal collectives).
    pub ctx: u16,
    /// Source rank.
    pub src: usize,
    /// User tag.
    pub tag: u32,
}

/// A granted staging slot: a registered remote buffer chunk.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SlotDesc {
    pub key: MrKey,
    pub len: usize,
}

/// Request To Send: the body of the rendezvous-opening packet. It travels
/// as [`MpiPacket::Rts`], waits in the unexpected queue and is what a
/// receive is matched against, so it is one value instead of six loose
/// arguments. Its last three fields are the send's
/// [`Offer`](crate::scheme::Offer) as the wire carries it, for the
/// receiver's [`SchemeSelector::resolve`](crate::scheme::SchemeSelector::resolve);
/// a failed registration withdraws both rput kinds from a retransmitted RTS.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Rts {
    pub env: Envelope,
    pub total: usize,
    pub send_req: ReqId,
    /// The send buffer is one contiguous host run (a direct R-PUT).
    pub direct: bool,
    /// The send's wire descriptor as `(entries, rows)`: what walking it
    /// costs, and what packing it on the CPU would.
    pub wire: Option<(usize, usize)>,
    /// The GPU the send buffer lives on.
    pub gpu: Option<u32>,
}

/// The two payload kinds of the one-shot RDMA ("rput") rendezvous. The
/// protocol is the same — RTS → CTS carrying the receiver's registered
/// user buffer → one RDMA post → FIN, with an abort back to the staged
/// path — and only the post differs: a plain write, or a scatter/gather
/// walk by the HCA.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum RputKind {
    /// Both sides contiguous host memory: one RDMA write.
    Direct,
    /// Both sides lower to bounded wire descriptors: one scatter/gather
    /// post walked by the NIC, no CPU pack/unpack.
    Offload,
}

/// Where a one-shot RDMA write lands in the receiver's registered region:
/// the kind-specific payload of [`MpiPacket::CtsRput`].
#[derive(Clone, Debug)]
pub(crate) enum RputPlace {
    /// Contiguous: the message starts at this byte offset of the region.
    Direct { offset: usize },
    /// The scatter descriptor (MR-absolute, already clipped to the message
    /// size) the sender's HCA should walk to place the bytes.
    Offload { scatter: Vec<SgEntry> },
}

impl RputPlace {
    pub(crate) fn kind(&self) -> RputKind {
        match self {
            RputPlace::Direct { .. } => RputKind::Direct,
            RputPlace::Offload { .. } => RputKind::Offload,
        }
    }
}

/// Clear To Send, staged path: a window of vbuf slots.
pub(crate) struct Cts {
    pub send_req: ReqId,
    pub recv_req: ReqId,
    pub chunk_size: usize,
    pub slots: Vec<SlotDesc>,
}

/// Clear To Send, rput path: the receiver's registered user buffer and
/// where in it the `total` message bytes go.
pub(crate) struct CtsRput {
    pub send_req: ReqId,
    pub recv_req: ReqId,
    pub key: MrKey,
    pub total: usize,
    pub place: RputPlace,
}

/// Staged path: chunk `chunk_idx` has been RDMA-written into `slot`.
pub(crate) struct Fin {
    pub recv_req: ReqId,
    pub chunk_idx: usize,
    pub slot: usize,
    pub bytes: usize,
}

/// Staged path: the receiver has absorbed the chunk in `slot`; the sender
/// may write the next chunk into it. `chunk_idx` sequences the credit: it
/// names the chunk being credited, so a duplicate (the slot already freed,
/// or occupied by a different chunk) is detectable and ignored instead of
/// corrupting flow control.
pub(crate) struct Credit {
    pub send_req: ReqId,
    pub slot: usize,
    pub chunk_idx: usize,
}

/// Device path: the sender's packed bytes sit at `ptr` on the shared GPU
/// (`ready` is the pack completion — the receiver's unpack stream waits on
/// it, the simulated analogue of a CUDA IPC event). The receiver scatters
/// straight from there.
pub(crate) struct FinDev {
    pub recv_req: ReqId,
    pub ptr: gpu_sim::DevPtr,
    pub total: usize,
    pub ready: sim_core::Completion,
}

/// Everything that travels between ranks. Every kind after the RTS names
/// the one request it is for at its destination: a `send_req` or a
/// `recv_req`.
pub(crate) enum MpiPacket {
    /// Small message: envelope + packed payload, the one buffer the
    /// sender packed into and the receiver unpacks from.
    Eager { env: Envelope, data: HostBuf },
    /// Request To Send (rendezvous start).
    Rts(Rts),
    /// Clear To Send, staged path.
    Cts(Cts),
    /// Clear To Send, rput path.
    CtsRput(CtsRput),
    /// Staged path: one chunk is in its slot.
    Fin(Fin),
    /// Rput path: the single RDMA post has completed.
    FinRput { kind: RputKind, recv_req: ReqId },
    /// Staged path: one slot is free again.
    Credit(Credit),
    /// Staged path, fault recovery: the receiver has not seen a FIN for
    /// `next_needed` within its retry window — the sender must re-announce
    /// (and, for lost data, re-write) everything from that chunk on.
    FinNack { send_req: ReqId, next_needed: usize },
    /// Rput path, fault recovery: the sender could not register its user
    /// buffer (pin limit), so it abandons the one-shot post; the receiver
    /// must fall back to granting a staged window.
    RputAbort { kind: RputKind, recv_req: ReqId },
    /// Device path (co-located ranks sharing one GPU): the receiver sinks
    /// into the same GPU the sender advertised in `Rts::gpu` — skip
    /// host staging entirely; the sender should pack into a device tbuf
    /// (D2D) and announce it.
    CtsDev { send_req: ReqId, recv_req: ReqId },
    /// Device path: the packed tbuf is ready on the shared GPU.
    FinDev(FinDev),
    /// Device path: the receiver is done reading the sender's device tbuf;
    /// the sender may reuse or free it.
    CreditDev { send_req: ReqId },
}

/// Classify an opaque control payload as one of this crate's packet kinds
/// (`"Rts"`, `"Cts"`, `"Fin"`, ...), or `None` if it is not an MPI packet.
/// This lets delivery schedulers (model checkers) label their decision
/// points without the wire format itself becoming public API. The rput
/// packets keep one label per payload kind (`"CtsDirect"`/`"CtsOffload"`,
/// ...), so schedules and counterexamples name the data path.
pub fn packet_kind(payload: &(dyn std::any::Any + Send)) -> Option<&'static str> {
    use RputKind::{Direct, Offload};
    let p = payload.downcast_ref::<MpiPacket>()?;
    Some(match p {
        MpiPacket::Eager { .. } => "Eager",
        MpiPacket::Rts(_) => "Rts",
        MpiPacket::Cts(_) => "Cts",
        MpiPacket::CtsRput(c) => match c.place.kind() {
            Direct => "CtsDirect",
            Offload => "CtsOffload",
        },
        MpiPacket::Fin(_) => "Fin",
        MpiPacket::FinRput { kind: Direct, .. } => "FinDirect",
        MpiPacket::FinRput { kind: Offload, .. } => "FinOffload",
        MpiPacket::Credit(_) => "Credit",
        MpiPacket::FinNack { .. } => "FinNack",
        MpiPacket::RputAbort { kind: Direct, .. } => "DirectAbort",
        MpiPacket::RputAbort { kind: Offload, .. } => "OffloadAbort",
        MpiPacket::CtsDev { .. } => "CtsDev",
        MpiPacket::FinDev(_) => "FinDev",
        MpiPacket::CreditDev { .. } => "CreditDev",
    })
}

/// How the staging chunk (pipeline block) size is chosen per transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// Always use [`MpiConfig::chunk_size`] — the paper's static
    /// `MV2_CUDA_BLOCK_SIZE` knob. Use this to reproduce the block-size
    /// ablation (§V-B) or any fixed-block result exactly.
    Fixed,
    /// Start each `(message size class, layout class)` at
    /// [`MpiConfig::chunk_size`] and converge online onto the block size
    /// with the lowest observed transfer latency, exploring powers of two
    /// between the tuner's `MIN_BLOCK` and `MAX_BLOCK` (16 – 256 KiB,
    /// bracketing the paper's 64 KiB sweet spot) — the paper's offline
    /// sweep, done per workload at runtime.
    Adaptive,
}

/// Which family of collective algorithms a communicator uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CollAlgo {
    /// The original p2p-loop algorithms: linear gather/scatter loops,
    /// alltoall posting every request at once, allgather = gather + bcast,
    /// reduce receiving P−1 contributions serially through one scratch
    /// buffer. Kept as the honest control for `coll_sweep`.
    Naive,
    /// Single-level algorithms with bounded resource use: pairwise
    /// alltoall(v) with at most four exchanges outstanding, ring
    /// allgather(v), binomial-tree reduce with double-buffered scratch
    /// overlapping receive and combine.
    Flat,
    /// Topology-aware node-leader trees: fan in/out over the shm channel
    /// between co-located ranks, cross the wire once per node pair, and
    /// pipeline pack → intra-node combine → wire per 64 KiB segment.
    /// Falls back to [`Flat`]
    /// (`CollAlgo::Flat`) on communicators where no node hosts two
    /// members or all members share one node.
    Hier,
}

/// Collective-algorithm selection. The in-flight window and the reduction
/// pipeline's segment size are constants of the `coll` module, not knobs:
/// no workload ever set them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CollConfig {
    /// Algorithm family (default [`CollAlgo::Hier`]).
    pub algo: CollAlgo,
}

impl Default for CollConfig {
    fn default() -> Self {
        CollConfig {
            algo: CollAlgo::Hier,
        }
    }
}

/// A typed MPI-level failure, surfaced through
/// [`Comm::wait_result`](crate::Comm::wait_result) instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiError {
    /// An operation gave up after exhausting its retry budget (12
    /// retransmissions, backing off from 200 µs); the peer is unreachable
    /// or persistently dropping.
    RetriesExhausted {
        /// Which protocol step gave up (e.g. `"rts"`, `"fin_nack"`).
        op: &'static str,
        /// The peer rank the operation was addressed to.
        peer: usize,
        /// Attempts made, including the first.
        attempts: u32,
    },
    /// The request was rejected at post time: its layout cannot be served
    /// by the configured scheme selection (e.g.
    /// [`ConfigError::ForcedOffloadIrregular`]). The typed alternative to a
    /// protocol panic deep in the engine.
    Rejected {
        /// The violated configuration invariant.
        err: ConfigError,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RetriesExhausted { op, peer, attempts } => write!(
                f,
                "rendezvous {op} to rank {peer} failed after {attempts} attempts (retries exhausted)"
            ),
            MpiError::Rejected { err } => write!(f, "request rejected: {err}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// A rejected [`MpiConfig`]: which invariant failed and with what values.
/// [`MpiConfig::try_validate`] returns these;
/// [`MpiConfig::validate`] panics with their [`Display`](std::fmt::Display)
/// text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `chunk_size == 0`.
    ZeroChunkSize,
    /// `window_slots == 0`.
    ZeroWindowSlots,
    /// `pool_vbufs < window_slots`.
    PoolSmallerThanWindow {
        /// Configured pool size.
        pool_vbufs: usize,
        /// Configured window.
        window_slots: usize,
    },
    /// `pool_vbufs < 2` (the pool is split into send/recv halves).
    PoolTooSmall {
        /// Configured pool size.
        pool_vbufs: usize,
    },
    /// `ppn == 0`.
    ZeroPpn,
    /// `eager_limit` above [`SHM_EAGER_LIMIT`]: a co-located peer would get
    /// a *smaller* eager window than a remote one, which inverts the point
    /// of the shm channel.
    ShmEagerBelowEager {
        /// Configured inter-node eager limit.
        eager_limit: usize,
    },
    /// `ppn` does not evenly divide the world size (checked at world
    /// construction, when the rank count is known).
    PpnDoesNotDivide {
        /// Configured processes per node.
        ppn: usize,
        /// World size.
        nranks: usize,
    },
    /// [`SchemeSel::Force`]`(NicOffload)` combined with a send layout that
    /// canonicalizes to [`Canonical::Irregular`](crate::plan::Canonical::Irregular):
    /// the HCA cannot walk a deep struct layout, and forcing forbids the
    /// staged fallback. Checked when a rendezvous send toward an
    /// HCA-routed peer is posted.
    ForcedOffloadIrregular,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroChunkSize => write!(
                f,
                "chunk_size must be nonzero (a staged transfer could never make progress)"
            ),
            ConfigError::ZeroWindowSlots => write!(
                f,
                "window_slots must be nonzero (the receiver could never grant a CTS window)"
            ),
            ConfigError::PoolSmallerThanWindow {
                pool_vbufs,
                window_slots,
            } => write!(
                f,
                "pool_vbufs ({pool_vbufs}) must be >= window_slots ({window_slots}), or a \
                 staged transfer could never fill its window"
            ),
            ConfigError::PoolTooSmall { pool_vbufs } => write!(
                f,
                "pool_vbufs ({pool_vbufs}) must be >= 2 — the pool is split into send and \
                 receive halves (pool_vbufs/2 each side), and either half being empty deadlocks \
                 every staged transfer on that side"
            ),
            ConfigError::ZeroPpn => {
                write!(f, "ppn must be >= 1 (every rank lives on some node)")
            }
            ConfigError::ShmEagerBelowEager { eager_limit } => write!(
                f,
                "shm_eager_limit ({SHM_EAGER_LIMIT}) must be >= eager_limit ({eager_limit}) — \
                 the shm channel is cheaper than the wire, so co-located peers must get at \
                 least the inter-node eager window"
            ),
            ConfigError::PpnDoesNotDivide { ppn, nranks } => write!(
                f,
                "ppn ({ppn}) must evenly divide the world size ({nranks}) so every node \
                 hosts the same number of ranks"
            ),
            ConfigError::ForcedOffloadIrregular => write!(
                f,
                "SchemeSel::Force(NicOffload) cannot serve a layout that canonicalizes to \
                 Irregular — the HCA cannot walk a deep struct descriptor; use SchemeSel::Auto \
                 to fall back to the staged pipeline"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A deliberately planted bug, one per checker that must find it
/// (`tests/sanitizer.rs`, `simcheck::scenarios`). They are mutually
/// exclusive by construction: [`MpiConfig::seeded_bug`] holds at most one.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// The sender drops the first send-pool vbuf that finishes its RDMA
    /// write instead of returning it to the pool, so the sanitizer's pool
    /// reconciliation has a leak to find.
    LeakVbuf,
    /// The receiver of a D2D device transfer swallows its first
    /// `CreditDev`, stranding the sender's packed tbuf — the credit leak
    /// the sanitizer's device-pool accounting must flag.
    DropDevCredit,
    /// The sender applies twice the configured shm eager limit toward
    /// co-located peers, shipping oversized eager payloads the
    /// receiver-side protocol linter must reject.
    ShmEagerOversize,
    /// Finalize skips its dissemination barrier, so a rank whose transfers
    /// completed exits immediately and stops answering peers' retransmits
    /// — PR 3's finalize-quiesce liveness bug (model-checker validation).
    FinalizeQuiesce,
    /// A staged receive whose CTS was deferred on a drained vbuf pool is
    /// never re-examined when vbufs return — PR 3's deferred-CTS
    /// starvation bug (model-checker validation).
    DeferredCts,
}

/// Tunables of the simulated MPI library.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    /// Largest message sent eagerly to a remote peer, bytes; at most
    /// [`SHM_EAGER_LIMIT`], the co-located window.
    pub eager_limit: usize,
    /// Staging chunk size (the paper's `MV2_CUDA_BLOCK_SIZE` analog), bytes.
    /// The starting point (and, under [`ChunkPolicy::Fixed`], the only
    /// value) of the pipeline block size.
    pub chunk_size: usize,
    /// How the per-transfer chunk size is chosen.
    pub policy: ChunkPolicy,
    /// Vbuf slots the receiver grants per staged transfer (pipeline window).
    pub window_slots: usize,
    /// Total vbufs in each rank's pool.
    pub pool_vbufs: usize,
    /// At most one deliberately planted bug (tests of the checkers only).
    #[doc(hidden)]
    pub seeded_bug: Option<SeededBug>,
    /// Processes per node: ranks `[k*ppn, (k+1)*ppn)` share node `k` (its
    /// HCA, shm channel and GPU). Must evenly divide the world size. The
    /// default, 1, is the classic one-rank-per-node layout and is
    /// bit-identical to the pre-topology simulator.
    pub ppn: usize,
    /// Collective-algorithm selection.
    pub coll: CollConfig,
    /// Rendezvous data-path selection (see [`crate::scheme`]). The default,
    /// `Auto { offload: false }`, reproduces the classic
    /// device → direct → staged decision bit for bit.
    pub scheme: SchemeSel,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_limit: 8192,
            chunk_size: 64 << 10,
            policy: ChunkPolicy::Adaptive,
            window_slots: 8,
            pool_vbufs: 64,
            seeded_bug: None,
            ppn: 1,
            coll: CollConfig::default(),
            scheme: SchemeSel::default(),
        }
    }
}

impl MpiConfig {
    /// Largest chunk size any transfer may use under this configuration —
    /// what the staging vbufs must be sized to.
    pub fn max_chunk(&self) -> usize {
        match self.policy {
            ChunkPolicy::Fixed => self.chunk_size,
            ChunkPolicy::Adaptive => MAX_BLOCK.max(self.chunk_size),
        }
    }

    /// Check configuration invariants, returning the first violated one as
    /// a typed [`ConfigError`].
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.chunk_size == 0 {
            return Err(ConfigError::ZeroChunkSize);
        }
        if self.window_slots == 0 {
            return Err(ConfigError::ZeroWindowSlots);
        }
        if self.pool_vbufs < self.window_slots {
            return Err(ConfigError::PoolSmallerThanWindow {
                pool_vbufs: self.pool_vbufs,
                window_slots: self.window_slots,
            });
        }
        // The pool is split pool_vbufs/2 (send) / remainder (recv) at engine
        // construction; pool_vbufs: 1 would make the send half *empty* and
        // every staged send would deadlock waiting for a vbuf that cannot
        // exist.
        if self.pool_vbufs < 2 {
            return Err(ConfigError::PoolTooSmall {
                pool_vbufs: self.pool_vbufs,
            });
        }
        if self.ppn == 0 {
            return Err(ConfigError::ZeroPpn);
        }
        if SHM_EAGER_LIMIT < self.eager_limit {
            return Err(ConfigError::ShmEagerBelowEager {
                eager_limit: self.eager_limit,
            });
        }
        Ok(())
    }

    /// Like [`try_validate`](MpiConfig::try_validate), plus the topology
    /// checks that need the world size: `ppn` must evenly divide `nranks`.
    pub fn try_validate_topology(&self, nranks: usize) -> Result<(), ConfigError> {
        self.try_validate()?;
        if !nranks.is_multiple_of(self.ppn) {
            return Err(ConfigError::PpnDoesNotDivide {
                ppn: self.ppn,
                nranks,
            });
        }
        Ok(())
    }

    /// Check configuration invariants. Called at world construction; panics
    /// with a clear message on an invalid configuration.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("MpiConfig: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = MpiConfig::default();
        assert!(c.eager_limit < c.chunk_size);
        assert!(c.window_slots <= c.pool_vbufs);
    }

    #[test]
    fn default_config_validates() {
        MpiConfig::default().validate();
        assert_eq!(MpiConfig::default().max_chunk(), 256 << 10);
        let fixed = MpiConfig {
            policy: ChunkPolicy::Fixed,
            ..Default::default()
        };
        fixed.validate();
        assert_eq!(fixed.max_chunk(), fixed.chunk_size);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be nonzero")]
    fn zero_chunk_size_is_rejected() {
        MpiConfig {
            chunk_size: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "window_slots must be nonzero")]
    fn zero_window_is_rejected() {
        MpiConfig {
            window_slots: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "must be >= window_slots")]
    fn pool_smaller_than_window_is_rejected() {
        MpiConfig {
            window_slots: 8,
            pool_vbufs: 4,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "pool_vbufs (1) must be >= 2")]
    fn single_vbuf_pool_is_rejected() {
        // Regression: pool_vbufs: 1 used to validate, then the engine's
        // pool_vbufs/2 split left the send half empty and every staged send
        // deadlocked silently.
        MpiConfig {
            window_slots: 1,
            pool_vbufs: 1,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn mpi_error_displays_context() {
        let e = MpiError::RetriesExhausted {
            op: "rts",
            peer: 3,
            attempts: 13,
        };
        let s = e.to_string();
        assert!(
            s.contains("rts") && s.contains("rank 3") && s.contains("13"),
            "{s}"
        );
    }

    #[test]
    fn try_validate_returns_typed_errors() {
        assert_eq!(MpiConfig::default().try_validate(), Ok(()));
        let e = MpiConfig {
            chunk_size: 0,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert_eq!(e, ConfigError::ZeroChunkSize);
        let e = MpiConfig {
            window_slots: 8,
            pool_vbufs: 4,
            ..Default::default()
        }
        .try_validate()
        .unwrap_err();
        assert_eq!(
            e,
            ConfigError::PoolSmallerThanWindow {
                pool_vbufs: 4,
                window_slots: 8
            }
        );
    }

    #[test]
    #[should_panic(expected = "ppn must be >= 1")]
    fn zero_ppn_is_rejected() {
        MpiConfig {
            ppn: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "shm_eager_limit (32768) must be >= eager_limit (32769)")]
    fn shm_eager_below_eager_is_rejected() {
        let cfg = MpiConfig {
            eager_limit: SHM_EAGER_LIMIT + 1,
            ..Default::default()
        };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::ShmEagerBelowEager {
                eager_limit: SHM_EAGER_LIMIT + 1,
            })
        );
        cfg.validate();
    }

    #[test]
    fn topology_validation_needs_divisible_ppn() {
        let c = MpiConfig {
            ppn: 3,
            ..Default::default()
        };
        assert_eq!(c.try_validate_topology(12), Ok(()));
        assert_eq!(
            c.try_validate_topology(16).unwrap_err(),
            ConfigError::PpnDoesNotDivide { ppn: 3, nranks: 16 }
        );
    }

    #[test]
    fn default_coll_config_is_hier() {
        let c = MpiConfig::default();
        assert_eq!(c.coll.algo, CollAlgo::Hier);
    }
}
