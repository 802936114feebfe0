//! # ib-sim — InfiniBand verbs / RDMA simulator
//!
//! Models the interconnect of the paper's testbed (Mellanox QDR HCAs, OFED
//! 1.5.1): per-node HCAs with a transmit-engine occupancy model, reliable
//! in-order two-sided messaging, memory registration, and one-sided RDMA
//! writes whose completion is *not* visible to the remote CPU — the exact
//! verbs surface the MVAPICH2 rendezvous protocol (RTS / CTS / RDMA write /
//! FIN) is built on.
//!
//! A [`Fabric`] is the registry (models, tenants, placement); one `Node`
//! per physical host owns the HCA and shm engines, the MR table, the
//! counters and the trace lanes, and one occupancy function models both
//! engines; a [`Nic`] is one endpoint's handle with six primitives —
//! [`send`](Nic::send), [`send_ctrl`](Nic::send_ctrl),
//! [`rdma_write`](Nic::rdma_write), [`rdma_write_sg`](Nic::rdma_write_sg),
//! [`shm_write`](Nic::shm_write) and [`write`](Nic::write), which picks
//! between the two contiguous writes by [`Nic::route`], the one place
//! "shared memory or the wire?" is decided.
//!
//! ```
//! use ib_sim::{Fabric, NetModel};
//! use hostmem::HostBuf;
//!
//! let sim = sim_core::Sim::new();
//! let fabric = Fabric::new(2, NetModel::qdr());
//! let vbuf = HostBuf::alloc(4096);
//! let rkey = fabric.nic(1).register(&vbuf);
//! let nic0 = fabric.nic(0);
//! sim.spawn("rank0", move || {
//!     let chunk = HostBuf::from_vec(vec![9u8; 4096]);
//!     nic0.register(&chunk);
//!     nic0.rdma_write(1, rkey, 0, &chunk.base(), 4096).wait();
//!     nic0.send_ctrl(1, Box::new("fin"));
//! });
//! let nic1 = fabric.nic(1);
//! sim.spawn("rank1", move || {
//!     let fin = nic1.mailbox().recv();
//!     assert_eq!(*fin.payload.downcast::<&str>().unwrap(), "fin");
//!     assert_eq!(vbuf.read(0, 4096), vec![9u8; 4096]); // data landed first
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod fabric;
mod fault;
mod job;
mod model;
mod nic;
mod node;
mod rdma;
pub mod scheduler;
mod topology;

pub use fabric::Fabric;
pub use fault::FaultSpec;
pub use job::{BindError, JobQos, JobSpec};
pub use model::{NetModel, ShmModel};
pub use nic::{Nic, Packet, RegError};
pub use node::Route;
pub use rdma::{MrKey, SgEntry};
pub use scheduler::{CtrlAction, CtrlPoint, DeliveryScheduler, FifoScheduler};
pub use topology::Topology;

#[cfg(test)]
mod tests;
