//! The data-path scheme layer: which of the library's transfer schemes a
//! given message uses, decided in one place.
//!
//! [`SchemeSelector`] owns every per-peer decision above the fabric — eager
//! windows, what a posted buffer offers a rendezvous, and the rendezvous
//! scheme itself — and the engine's rendezvous states ask it which
//! [`DataScheme`] serves a message; the selection policy itself is
//! configured with [`SchemeSel`] on [`MpiConfig`]. Which *engine* carries a
//! peer's bytes (the node's shm copy engine or the HCA) is not decided here:
//! that is [`ib_sim::Nic::route`], which [`ib_sim::Nic::write`] and the
//! sends follow on their own, and from which the selector derives what it
//! needs to know about a peer.
//!
//! Each side of a rendezvous describes its buffer once, when it is posted
//! (`SchemeSelector::offer`); the RTS advertises the sender's description
//! and `SchemeSelector::resolve` weighs it against the receive's. Selection
//! order under [`SchemeSel::Auto`], most to least specialized:
//!
//! 1. **DeviceD2D** — both sides resident on one shared GPU: stay on the
//!    device.
//! 2. **Direct** — both sides contiguous host memory: one R-PUT.
//! 3. **NicOffload** — an HCA-routed peer, both sides host-resident with
//!    layouts that lower to bounded scatter/gather descriptors (see
//!    [`crate::plan::Canonical`]) whose combined entry count fits the HCA's
//!    256-entry budget, *and* a walk that pays: the descriptor fetches
//!    ([`ib_sim::Nic::offload_walk_time`], what
//!    [`ib_sim::Nic::rdma_write_sg`] charges) cost less than the CPU pack and
//!    unpack they save ([`CpuModel::pack_time`], what the host staging
//!    charges) for the bytes actually coming. Off by default
//!    (`Auto { offload: false }` keeps the classic decision bit-identical).
//! 4. **Staged** — everything else: the paper's 5-stage pipeline.
//!
//! Eager sends (including the co-located peers' wider shm window) are a
//! *size* decision made before any rendezvous, not a scheme.

use gpu_sim::Loc;
use hostmem::HostPtr;
use ib_sim::{Nic, Route};

use crate::datatype::Datatype;
use crate::pack::CpuModel;
use crate::plan::{Canonical, WireDescriptor};
use crate::proto::{ConfigError, MpiConfig, Rts, SeededBug};

/// Largest message sent eagerly *between co-located ranks*, bytes. The shm
/// channel has no wire or vbuf pressure, so its eager window is larger than
/// any [`MpiConfig::eager_limit`] (checked at validation).
pub const SHM_EAGER_LIMIT: usize = 32 << 10;

/// Largest combined (gather + scatter) entry count a wire descriptor may
/// have — the modeled HCA's descriptor memory. Transfers needing more fall
/// back to the staged pipeline.
const OFFLOAD_ENTRY_BUDGET: usize = 256;

/// The library's rendezvous transfer schemes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DataScheme {
    /// The paper's staged pipeline: pack → vbuf stage → RDMA chunk window →
    /// unpack. Serves every layout and residency; the universal fallback.
    Staged,
    /// Contiguous-to-contiguous R-PUT: one RDMA write into the receiver's
    /// registered user buffer.
    Direct,
    /// Co-located ranks sharing one GPU: pack into a device tbuf, peer
    /// unpacks straight from it — bytes never leave the device.
    DeviceD2D,
    /// The NIC walks a scatter/gather wire descriptor on both sides: no
    /// CPU pack/unpack, one post, per-entry descriptor-fetch cost (see
    /// [`ib_sim::Nic::rdma_write_sg`]).
    NicOffload,
}

/// How the rendezvous scheme is chosen, in the style of
/// [`ChunkPolicy`](crate::proto::ChunkPolicy).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SchemeSel {
    /// Pick per message: device → direct → offload (if `offload` is set and
    /// the walk pays) → staged. `Auto { offload: false }` — the default —
    /// reproduces the classic decision bit for bit.
    Auto {
        /// Allow the NIC-offload scheme to compete. Off by default.
        offload: bool,
    },
    /// Prefer one scheme wherever it is feasible, falling back to the
    /// staged pipeline where it is not (a forced scheme can't conjure a
    /// shared GPU or a contiguous buffer). `Force(NicOffload)` on a layout
    /// with no bounded descriptor is rejected at post time with
    /// [`ConfigError::ForcedOffloadIrregular`]
    /// (crate::proto::ConfigError::ForcedOffloadIrregular).
    Force(DataScheme),
}

impl Default for SchemeSel {
    fn default() -> Self {
        SchemeSel::Auto { offload: false }
    }
}

/// What one posted buffer offers a rendezvous beyond the staged pipeline,
/// built by [`SchemeSelector::offer`]. A send's travels on its [`Rts`].
#[derive(Default)]
pub(crate) struct Offer {
    /// Start of the message when it is one contiguous host run.
    pub direct: Option<HostPtr>,
    /// The host buffer and its layout as a wire descriptor within the HCA's
    /// budget — only when the selection lets offload compete.
    pub wire: Option<(HostPtr, WireDescriptor)>,
    /// The GPU the buffer lives on.
    pub gpu: Option<u32>,
}

/// Owns the per-peer data-path decision: eager thresholds, buffer offers
/// and rendezvous scheme resolution. Built once per engine from the rank's
/// endpoint, the library configuration and the host CPU model.
pub(crate) struct SchemeSelector {
    /// This rank's endpoint, asked for the route toward a peer and for the
    /// offload engine's walk charge.
    nic: Nic,
    /// The host CPU, asked for the pack charge an offload saves.
    cpu: CpuModel,
    sel: SchemeSel,
    eager_limit: usize,
    fault_shm_eager_oversize: bool,
}

impl SchemeSelector {
    /// Build the selector for the rank attached at `nic`.
    pub(crate) fn new(nic: &Nic, cfg: &MpiConfig, cpu: &CpuModel) -> SchemeSelector {
        SchemeSelector {
            nic: nic.clone(),
            cpu: cpu.clone(),
            sel: cfg.scheme,
            eager_limit: cfg.eager_limit,
            fault_shm_eager_oversize: cfg.seeded_bug == Some(SeededBug::ShmEagerOversize),
        }
    }

    /// Is `peer` a distinct rank on this rank's node — served by the shm
    /// copy engine, not the HCA?
    fn colocated(&self, peer: usize) -> bool {
        self.nic.route(peer) == Route::Shm
    }

    /// Label of a chunk's span on the `rdma` stage lane: the engine that
    /// carried it toward `peer`.
    pub(crate) fn wire_label(&self, peer: usize) -> &'static str {
        match self.nic.route(peer) {
            Route::Hca => "rdma",
            Route::Shm => "shm",
        }
    }

    /// The eager threshold toward `peer`: the shm channel has no wire or
    /// vbuf pressure, so co-located peers get the larger window.
    pub(crate) fn eager_limit(&self, peer: usize) -> usize {
        if self.colocated(peer) {
            SHM_EAGER_LIMIT
        } else {
            self.eager_limit
        }
    }

    /// The sender-side eager threshold toward `peer`: like
    /// [`eager_limit`](SchemeSelector::eager_limit), plus the
    /// oversize-fault override that ships payloads the receiver-side
    /// linter must reject.
    pub(crate) fn send_eager_limit(&self, peer: usize) -> usize {
        if self.fault_shm_eager_oversize && self.colocated(peer) {
            SHM_EAGER_LIMIT * 2
        } else {
            self.eager_limit(peer)
        }
    }

    /// What `count` elements of `dt` at `buf`, resident on `gpu`, offer a
    /// rendezvous: a send toward `peer`, or a receive (`None`: its peer is
    /// known only at the match). The default selection lowers no
    /// descriptor. A send forcing offload toward an HCA-routed peer on a
    /// layout no descriptor can express is refused here, before any wire
    /// traffic.
    pub(crate) fn offer(
        &self,
        buf: &Loc,
        count: usize,
        dt: &Datatype,
        peer: Option<usize>,
        gpu: Option<u32>,
    ) -> Result<Offer, ConfigError> {
        let Loc::Host(p) = buf else {
            return Ok(Offer {
                gpu,
                ..Offer::default()
            });
        };
        let plan = dt.plan(count);
        let shape = Canonical::of(&plan);
        let forced = self.sel == SchemeSel::Force(DataScheme::NicOffload);
        if forced && shape == Canonical::Irregular && peer.is_some_and(|q| !self.colocated(q)) {
            return Err(ConfigError::ForcedOffloadIrregular);
        }
        // The post's bounds check keeps the start inside the buffer.
        let direct = match shape {
            Canonical::Contig { offset, .. } => p.offset().checked_add_signed(offset),
            _ => None,
        };
        let direct = direct.map(|at| p.buf().ptr(at));
        let competes = forced || self.sel == (SchemeSel::Auto { offload: true });
        let wire = competes.then(|| WireDescriptor::lower(&plan, OFFLOAD_ENTRY_BUDGET));
        let wire = wire.flatten().map(|d| (p.clone(), d));
        Ok(Offer { direct, wire, gpu })
    }

    /// Resolve the rendezvous scheme of one matched message from what the
    /// sender's RTS advertised and what the receive offers: feasibility
    /// first, then the policy. Pin-limit failures during engagement still
    /// fall back to staged afterwards — feasibility here is
    /// pre-registration.
    pub(crate) fn resolve(&self, rts: &Rts, recv: &Offer) -> DataScheme {
        let remote = !self.colocated(rts.env.src);
        let device = !remote && rts.gpu.is_some() && rts.gpu == recv.gpu;
        let direct = rts.direct && recv.direct.is_some();
        // `Some` when offload is feasible: whether the walk pays.
        let offload = match (rts.wire, &recv.wire) {
            (Some(s), Some((_, d)))
                if remote && s.0 + d.entries().len() <= OFFLOAD_ENTRY_BUDGET =>
            {
                Some(self.walk_pays(rts.total, s, d))
            }
            _ => None,
        };
        match self.sel {
            SchemeSel::Force(DataScheme::DeviceD2D) if device => DataScheme::DeviceD2D,
            SchemeSel::Force(DataScheme::Direct) if direct => DataScheme::Direct,
            SchemeSel::Force(DataScheme::NicOffload) if offload.is_some() => DataScheme::NicOffload,
            SchemeSel::Force(_) => DataScheme::Staged,
            SchemeSel::Auto { .. } if device => DataScheme::DeviceD2D,
            SchemeSel::Auto { .. } if direct => DataScheme::Direct,
            SchemeSel::Auto { .. } if offload == Some(true) => DataScheme::NicOffload,
            SchemeSel::Auto { .. } => DataScheme::Staged,
        }
    }

    /// The one size-dependent choice: an offload of `total` bytes pays when
    /// walking the sender's `n` entries and the receive's descriptor
    /// clipped to those bytes costs less than packing the sender's `rows`
    /// and unpacking the receive's on the CPU.
    fn walk_pays(&self, total: usize, (n, rows): (usize, usize), recv: &WireDescriptor) -> bool {
        let scatter = recv.prefix(total);
        let walk = self.nic.offload_walk_time(n + scatter.entries().len());
        walk < self.cpu.pack_time(total, rows) + self.cpu.pack_time(total, scatter.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Envelope;
    use hostmem::HostBuf;
    use ib_sim::{Fabric, NetModel, ShmModel, Topology};

    fn selector(sel: SchemeSel) -> SchemeSelector {
        let topo = Topology::uniform(2, 2); // ranks 0,1 on node 0; 2,3 on node 1
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let cfg = MpiConfig {
            scheme: sel,
            ..Default::default()
        };
        SchemeSelector::new(&fabric.nic(0), &cfg, &CpuModel::westmere())
    }

    /// The RTS of a `total`-byte send from rank `src` offering `send`.
    fn rts(src: usize, total: usize, send: &Offer) -> Rts {
        let env = Envelope {
            ctx: 0,
            src,
            tag: 0,
        };
        Rts {
            env,
            total,
            send_req: 1,
            direct: send.direct.is_some(),
            wire: (send.wire.as_ref()).map(|(_, d)| (d.entries().len(), d.rows())),
            gpu: send.gpu,
        }
    }

    /// `offload_sweep`'s layouts at `total` bytes: 64 B rows every 128 B,
    /// in one run (`strided1d`) or in 64 groups (`strided2d`).
    fn layout(groups: usize, total: usize) -> (Datatype, usize) {
        let rows = total / (64 * groups);
        let row = Datatype::vector(rows, 16, 32, &Datatype::float());
        let stride = rows * 128 + 256;
        let dt = Datatype::hvector(groups, 1, stride as isize, &row);
        dt.commit();
        (dt, groups * stride)
    }

    /// Both sides' offers of `layout(groups, total)` in host memory, and
    /// the send's RTS from rank `src`.
    fn host_pair(s: &SchemeSelector, src: usize, groups: usize, total: usize) -> (Rts, Offer) {
        let (dt, len) = layout(groups, total);
        let host = || Loc::Host(HostBuf::alloc(len).base());
        let send = s.offer(&host(), 1, &dt, Some(src), None).unwrap();
        (
            rts(src, total, &send),
            s.offer(&host(), 1, &dt, None, None).unwrap(),
        )
    }

    #[test]
    fn route_follows_topology() {
        let s = selector(SchemeSel::default());
        assert_eq!(s.nic.route(0), Route::Hca); // self: loopback
        assert_eq!(s.nic.route(1), Route::Shm); // co-located
        assert_eq!(s.nic.route(2), Route::Hca); // remote
        assert_eq!(s.nic.route(3), Route::Hca);
        assert_eq!(
            [0, 1, 2, 3].map(|p| s.wire_label(p)),
            ["rdma", "shm", "rdma", "rdma"]
        );
        assert!(s.colocated(1) && !s.colocated(0) && !s.colocated(2));
    }

    #[test]
    fn eager_limits_follow_colocation() {
        let s = selector(SchemeSel::default());
        let cfg = MpiConfig::default();
        assert_eq!(s.eager_limit(2), cfg.eager_limit);
        assert_eq!(s.eager_limit(1), SHM_EAGER_LIMIT);
        assert_eq!(s.send_eager_limit(1), SHM_EAGER_LIMIT);
    }

    #[test]
    fn auto_resolution_order() {
        // A 1 MiB contiguous receive offers every scheme (a host buffer
        // claiming a GPU stands in for a device one).
        let (s, n) = (selector(SchemeSel::Auto { offload: true }), 1 << 20);
        let bytes = Datatype::byte();
        bytes.commit();
        let host = Loc::Host(HostBuf::alloc(n).base());
        let recv = s.offer(&host, n, &bytes, None, Some(0)).unwrap();
        assert!(recv.direct.is_some() && recv.wire.is_some());
        assert_eq!(s.resolve(&rts(1, n, &recv), &recv), DataScheme::DeviceD2D);
        let remote = s.resolve(&rts(2, n, &recv), &recv);
        assert_eq!(remote, DataScheme::Direct, "a remote peer shares no GPU");
        let walk_only = |src| Rts {
            direct: false,
            gpu: None,
            ..rts(src, n, &recv)
        };
        assert_eq!(s.resolve(&walk_only(2), &recv), DataScheme::NicOffload);
        let near = s.resolve(&walk_only(1), &recv);
        assert_eq!(
            near,
            DataScheme::Staged,
            "the shm engine walks no descriptor"
        );
        // Offload disabled (the default): no descriptor is even lowered.
        let s = selector(SchemeSel::default());
        let (rts, recv) = host_pair(&s, 2, 1, 64 << 10);
        assert!(rts.wire.is_none() && recv.wire.is_none());
        assert_eq!(s.resolve(&rts, &recv), DataScheme::Staged);
    }

    #[test]
    fn auto_offloads_exactly_when_the_walk_costs_less_than_the_pack() {
        let s = selector(SchemeSel::Auto { offload: true });
        // strided1d, 16 KiB: 1 + 1 entries (0.5 us) against 2 x 256 rows of
        // CPU pack (~13 us).
        let (rts, recv) = host_pair(&s, 2, 1, 16 << 10);
        assert_eq!(rts.wire, Some((1, 256)));
        assert!(s.nic.offload_walk_time(2) < s.cpu.pack_time(16 << 10, 256) * 2);
        assert_eq!(s.resolve(&rts, &recv), DataScheme::NicOffload);
        // strided2d, 16 KiB: 64 + 64 entries (32 us) against the same ~13 us.
        let (rts, recv) = host_pair(&s, 2, 64, 16 << 10);
        assert_eq!(rts.wire, Some((64, 256)));
        assert!(s.nic.offload_walk_time(128) >= s.cpu.pack_time(16 << 10, 256) * 2);
        assert_eq!(s.resolve(&rts, &recv), DataScheme::Staged);
        // strided2d, 64 KiB: the same 32 us against ~52 us of pack.
        let (rts, recv) = host_pair(&s, 2, 64, 64 << 10);
        assert_eq!(s.resolve(&rts, &recv), DataScheme::NicOffload);
    }

    #[test]
    fn offload_over_the_entry_budget_is_declined_even_forced() {
        // 129 + 129 groups: two past the HCA's 256 entries.
        for sel in [
            SchemeSel::Auto { offload: true },
            SchemeSel::Force(DataScheme::NicOffload),
        ] {
            let s = selector(sel);
            let (rts, recv) = host_pair(&s, 2, 129, 129 * 64 * 8);
            assert_eq!(rts.wire.map(|w| w.0), Some(129));
            assert_eq!(s.resolve(&rts, &recv), DataScheme::Staged, "{sel:?}");
        }
    }

    #[test]
    fn forcing_prefers_then_falls_back_staged() {
        // Forced offload is taken whatever the walk costs (strided2d at
        // 16 KiB, where `Auto` stages).
        let s = selector(SchemeSel::Force(DataScheme::NicOffload));
        let (rts, recv) = host_pair(&s, 2, 64, 16 << 10);
        assert_eq!(s.resolve(&rts, &recv), DataScheme::NicOffload);
        let no_wire = Offer::default();
        assert_eq!(s.resolve(&rts, &no_wire), DataScheme::Staged);
        // ... and refused at the send when no descriptor can express it.
        let soup = Datatype::hindexed(&[(4, 0), (8, 16)], &Datatype::byte());
        soup.commit();
        let host = Loc::Host(HostBuf::alloc(64).base());
        let refused = s.offer(&host, 1, &soup, Some(2), None).err();
        assert_eq!(refused, Some(ConfigError::ForcedOffloadIrregular));
        assert!(
            s.offer(&host, 1, &soup, Some(1), None).is_ok(),
            "co-located"
        );
        assert!(s.offer(&host, 1, &soup, None, None).is_ok(), "a receive");
        let s = selector(SchemeSel::Force(DataScheme::Staged));
        let (rts, recv) = host_pair(&s, 2, 1, 64 << 10);
        assert_eq!(s.resolve(&rts, &recv), DataScheme::Staged);
    }
}
