//! The data-path scheme layer: which of the library's transfer schemes a
//! given message uses, decided in one place.
//!
//! [`SchemeSelector`] owns every per-peer decision above the fabric — eager
//! windows, offload reach, rendezvous scheme resolution — and the engine's
//! rendezvous states ask it which [`DataScheme`] serves a message; the
//! selection policy itself is configured with [`SchemeSel`] on
//! [`MpiConfig`]. Which *engine* carries a peer's bytes (the node's shm copy
//! engine or the HCA) is not decided here: that is [`ib_sim::Nic::route`],
//! which [`ib_sim::Nic::write`] and the sends follow on their own, and from
//! which the selector derives what it needs to know about a peer.
//!
//! Selection order under [`SchemeSel::Auto`], most to least specialized:
//!
//! 1. **DeviceD2D** — both sides resident on one shared GPU: stay on the
//!    device.
//! 2. **Direct** — both sides contiguous host memory: one R-PUT.
//! 3. **NicOffload** — both sides host-resident with layouts that lower to
//!    bounded scatter/gather descriptors (see [`crate::plan::Canonical`]),
//!    the message at least [`OFFLOAD_MIN_BYTES`], and the
//!    combined entry count within the HCA's 256-entry descriptor budget: one
//!    descriptor-driven post, no CPU pack/unpack. Off by default
//!    (`Auto { offload: false }` keeps the classic decision bit-identical).
//! 4. **Staged** — everything else: the paper's 5-stage pipeline.
//!
//! `ShmEager` is the odd one out: eager sends toward co-located peers are
//! a *size* decision, not a rendezvous one, so it appears in
//! [`DataScheme`] for forcing (which widens the co-located eager window)
//! but never comes out of rendezvous resolution.

use ib_sim::{Nic, Route};

use crate::proto::{MpiConfig, SeededBug};

/// Largest message sent eagerly *between co-located ranks*, bytes. The shm
/// channel has no wire or vbuf pressure, so its eager window is larger than
/// any [`MpiConfig::eager_limit`] (checked at validation).
pub const SHM_EAGER_LIMIT: usize = 32 << 10;

/// Smallest message [`SchemeSel::Auto`] routes through the offload engine,
/// bytes. Below this the descriptor fetches cost more than the pack they
/// save; forcing ignores the floor.
pub const OFFLOAD_MIN_BYTES: usize = 64 << 10;

/// The library's transfer schemes.
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
    /// Eager payload through the node's shm channel (co-located peers).
    /// A size-based path: forcing it widens the co-located eager window
    /// instead of changing rendezvous behavior.
    ShmEager,
    /// The NIC walks a scatter/gather wire descriptor on both sides: no
    /// CPU pack/unpack, one post, per-entry descriptor-fetch cost (see
    /// [`ib_sim::Nic::rdma_write_sg`]).
    NicOffload,
}

/// How the rendezvous scheme is chosen, in the style of
/// [`ChunkPolicy`](crate::proto::ChunkPolicy).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SchemeSel {
    /// Pick per message: device → direct → offload (if `offload` is set) →
    /// staged. `Auto { offload: false }` — the default — reproduces the
    /// classic decision bit for bit.
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

/// Owns the per-peer data-path decision: eager thresholds, offload reach
/// and rendezvous scheme resolution. Built once per engine from the rank's
/// endpoint and the library configuration.
pub(crate) struct SchemeSelector {
    /// This rank's endpoint, asked for the route toward a peer.
    nic: Nic,
    sel: SchemeSel,
    eager_limit: usize,
    fault_shm_eager_oversize: bool,
}

impl SchemeSelector {
    /// Build the selector for the rank attached at `nic`.
    pub(crate) fn new(nic: &Nic, cfg: &MpiConfig) -> SchemeSelector {
        SchemeSelector {
            nic: nic.clone(),
            sel: cfg.scheme,
            eager_limit: cfg.eager_limit,
            fault_shm_eager_oversize: cfg.seeded_bug == Some(SeededBug::ShmEagerOversize),
        }
    }

    /// Is `peer` a distinct rank on this rank's node — served by the shm
    /// copy engine, not the HCA?
    pub(crate) fn colocated(&self, peer: usize) -> bool {
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
    /// vbuf pressure, so co-located peers get the larger window — and
    /// `Force(ShmEager)` widens it to every message size.
    pub(crate) fn eager_limit(&self, peer: usize) -> usize {
        if self.colocated(peer) {
            if self.sel == SchemeSel::Force(DataScheme::ShmEager) {
                usize::MAX
            } else {
                SHM_EAGER_LIMIT
            }
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

    /// May this configuration drive transfers through the offload engine
    /// at all? (Gates the sender-side descriptor lowering and RTS
    /// advertisement.)
    pub(crate) fn offload_enabled(&self) -> bool {
        matches!(self.sel, SchemeSel::Auto { offload: true })
            || self.sel == SchemeSel::Force(DataScheme::NicOffload)
    }

    /// Can the offload engine reach `peer`? Descriptors are walked by the
    /// HCA, so only peers routed over it qualify — the shm copy engine has
    /// no descriptor walker.
    pub(crate) fn offload_peer(&self, peer: usize) -> bool {
        !self.colocated(peer)
    }

    /// Resolve the rendezvous scheme for one matched message. The `_ok`
    /// flags are feasibility (computed by the engine from what the RTS
    /// advertised and what the receiver posted); resolution is pure
    /// policy. Pin-limit failures during engagement still fall back to
    /// staged afterwards — feasibility here is pre-registration.
    pub(crate) fn resolve(
        &self,
        device_ok: bool,
        direct_ok: bool,
        offload_ok: bool,
        total: usize,
    ) -> DataScheme {
        match self.sel {
            SchemeSel::Force(DataScheme::DeviceD2D) if device_ok => DataScheme::DeviceD2D,
            SchemeSel::Force(DataScheme::Direct) if direct_ok => DataScheme::Direct,
            SchemeSel::Force(DataScheme::NicOffload) if offload_ok => DataScheme::NicOffload,
            SchemeSel::Force(_) => DataScheme::Staged,
            SchemeSel::Auto { offload } => {
                if device_ok {
                    DataScheme::DeviceD2D
                } else if direct_ok {
                    DataScheme::Direct
                } else if offload && offload_ok && total >= OFFLOAD_MIN_BYTES {
                    DataScheme::NicOffload
                } else {
                    DataScheme::Staged
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_sim::{Fabric, NetModel, ShmModel, Topology};

    fn selector(sel: SchemeSel) -> SchemeSelector {
        let topo = Topology::uniform(2, 2); // ranks 0,1 on node 0; 2,3 on node 1
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let cfg = MpiConfig {
            scheme: sel,
            ..Default::default()
        };
        SchemeSelector::new(&fabric.nic(0), &cfg)
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
        assert!(s.offload_peer(2) && !s.offload_peer(1));
    }

    #[test]
    fn eager_limits_follow_colocation() {
        let s = selector(SchemeSel::default());
        let cfg = MpiConfig::default();
        assert_eq!(s.eager_limit(2), cfg.eager_limit);
        assert_eq!(s.eager_limit(1), SHM_EAGER_LIMIT);
        assert_eq!(s.send_eager_limit(1), SHM_EAGER_LIMIT);
        let s = selector(SchemeSel::Force(DataScheme::ShmEager));
        assert_eq!(s.eager_limit(1), usize::MAX);
        assert_eq!(s.eager_limit(2), cfg.eager_limit, "remote peers unaffected");
    }

    #[test]
    fn auto_resolution_order() {
        let s = selector(SchemeSel::Auto { offload: true });
        let min = OFFLOAD_MIN_BYTES;
        assert_eq!(s.resolve(true, true, true, min), DataScheme::DeviceD2D);
        assert_eq!(s.resolve(false, true, true, min), DataScheme::Direct);
        assert_eq!(s.resolve(false, false, true, min), DataScheme::NicOffload);
        assert_eq!(
            s.resolve(false, false, true, min - 1),
            DataScheme::Staged,
            "below the descriptor-fetch floor"
        );
        assert_eq!(s.resolve(false, false, false, min), DataScheme::Staged);
        // Offload disabled (the default): never selected.
        let s = selector(SchemeSel::default());
        assert_eq!(s.resolve(false, false, true, min), DataScheme::Staged);
        assert!(!s.offload_enabled());
    }

    #[test]
    fn forcing_prefers_then_falls_back_staged() {
        let s = selector(SchemeSel::Force(DataScheme::NicOffload));
        assert!(s.offload_enabled());
        assert_eq!(s.resolve(true, true, true, 0), DataScheme::NicOffload);
        assert_eq!(s.resolve(true, true, false, 0), DataScheme::Staged);
        let s = selector(SchemeSel::Force(DataScheme::Staged));
        assert_eq!(s.resolve(true, true, true, usize::MAX), DataScheme::Staged);
        let s = selector(SchemeSel::Force(DataScheme::Direct));
        assert_eq!(s.resolve(true, true, true, 0), DataScheme::Direct);
        assert_eq!(s.resolve(true, false, true, 0), DataScheme::Staged);
    }
}
