//! The transport layer: how chunk bytes move between two endpoints.
//!
//! The rendezvous *protocol* (RTS/CTS matching, windows, credits, retries)
//! lives in `engine/` and is transport-agnostic; everything that actually
//! places bytes into a peer's registered region goes through a [`Transport`]
//! chosen per peer by the [`SchemeSelector`](crate::scheme::SchemeSelector)
//! from the fabric's [`Topology`](ib_sim::Topology):
//!
//! * [`RdmaTransport`] — the existing RDMA-staged path: one-sided
//!   `rdma_write` through the node's HCA onto the wire, plus the HCA's
//!   scatter/gather offload engine for descriptor-driven transfers.
//!   Selected for every remote peer (and for self-sends, preserving the
//!   pre-topology loopback timing).
//! * [`ShmTransport`] — the intra-node path: the node's shm copy engine
//!   places bytes through shared pages, never touching the HCA. Selected
//!   for co-located peers. Has no descriptor walker — the scheme layer
//!   never routes offload transfers at it.
//!
//! The protocol cannot tell them apart: both expose the same
//! write-into-`MrKey` contract and return a sender-side [`Completion`].

use hostmem::HostPtr;
use ib_sim::{MrKey, Nic, SgEntry};
use sim_core::Completion;

/// One peer's data path: writes packed bytes into the peer's registered
/// memory and reports sender-side completion.
pub(crate) trait Transport: Send {
    /// Place `len` bytes from `src` at `(key, dst_offset)` on the peer.
    fn write(&self, key: MrKey, dst_offset: usize, src: &HostPtr, len: usize) -> Completion;

    /// Walk `gather` over `src`'s buffer and `scatter` over the peer's
    /// region `key` through the offload engine — the NicOffload scheme's
    /// completion handling. Transports without a descriptor walker panic:
    /// the scheme layer must not route offload transfers at them.
    fn write_sg(
        &self,
        key: MrKey,
        src: &HostPtr,
        gather: &[SgEntry],
        scatter: &[SgEntry],
    ) -> Completion {
        let _ = (key, src, gather, scatter);
        panic!(
            "scheme bug: the {} transport has no scatter/gather engine",
            self.name()
        );
    }

    /// Short label for trace spans (`"rdma"` or `"shm"`).
    fn name(&self) -> &'static str;
}

/// The RDMA-staged data path (HCA + wire).
pub(crate) struct RdmaTransport {
    nic: Nic,
    dst: usize,
}

impl RdmaTransport {
    pub(crate) fn new(nic: Nic, dst: usize) -> Self {
        RdmaTransport { nic, dst }
    }
}

impl Transport for RdmaTransport {
    fn write(&self, key: MrKey, dst_offset: usize, src: &HostPtr, len: usize) -> Completion {
        self.nic.rdma_write(self.dst, key, dst_offset, src, len)
    }

    fn write_sg(
        &self,
        key: MrKey,
        src: &HostPtr,
        gather: &[SgEntry],
        scatter: &[SgEntry],
    ) -> Completion {
        self.nic.rdma_write_sg(self.dst, key, src, gather, scatter)
    }

    fn name(&self) -> &'static str {
        "rdma"
    }
}

/// The intra-node shared-memory data path (node-local copy engine).
pub(crate) struct ShmTransport {
    nic: Nic,
    dst: usize,
}

impl ShmTransport {
    pub(crate) fn new(nic: Nic, dst: usize) -> Self {
        ShmTransport { nic, dst }
    }
}

impl Transport for ShmTransport {
    fn write(&self, key: MrKey, dst_offset: usize, src: &HostPtr, len: usize) -> Completion {
        self.nic.shm_write(self.dst, key, dst_offset, src, len)
    }

    fn name(&self) -> &'static str {
        "shm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ib_sim::{Fabric, NetModel, ShmModel, Topology};

    #[test]
    fn both_transports_honor_the_same_mr_contract() {
        use hostmem::HostBuf;
        let sim = sim_core::Sim::new();
        let topo = Topology::from_map(vec![0, 0, 1]);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let shm_dst = HostBuf::alloc(32);
        let rdma_dst = HostBuf::alloc(32);
        let shm_key = fabric.nic(1).register(&shm_dst);
        let rdma_key = fabric.nic(2).register(&rdma_dst);
        {
            let nic = fabric.nic(0);
            let (s2, r2) = (shm_dst.clone(), rdma_dst.clone());
            sim.spawn("writer", move || {
                let src = HostBuf::from_vec((0..32).collect());
                nic.register(&src);
                let a = ShmTransport::new(nic.clone(), 1).write(shm_key, 0, &src.base(), 32);
                let b = RdmaTransport::new(nic.clone(), 2).write(rdma_key, 0, &src.base(), 32);
                a.wait();
                b.wait();
                assert_eq!(s2.read(0, 32), r2.read(0, 32));
            });
        }
        sim.run();
    }

    #[test]
    fn rdma_transport_walks_descriptors() {
        use hostmem::HostBuf;
        let sim = sim_core::Sim::new();
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
                RdmaTransport::new(nic.clone(), 1)
                    .write_sg(key, &src.base(), &g, &s)
                    .wait();
                assert_eq!(d2.read(0, 4), vec![0, 1, 2, 3]);
                assert_eq!(d2.read(8, 4), vec![16, 17, 18, 19]);
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "no scatter/gather engine")]
    fn shm_transport_rejects_descriptors() {
        use hostmem::HostBuf;
        let topo = Topology::from_map(vec![0, 0]);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        let dst = HostBuf::alloc(8);
        let key = fabric.nic(1).register(&dst);
        let src = HostBuf::alloc(8);
        let _ = ShmTransport::new(fabric.nic(0), 1).write_sg(key, &src.base(), &[], &[]);
    }
}
