//! # mpi-sim — an MPI runtime on the simulated cluster
//!
//! A from-scratch MPI implementation in the spirit of MVAPICH2's host data
//! path, providing everything the paper's GPU extension (crate
//! `mv2-gpu-nc`) needs to plug into:
//!
//! * the full **derived datatype engine** (contiguous, vector, hvector,
//!   indexed, hindexed, struct, subarray, resized) with MPI 2.2
//!   size/extent rules, plus flattening into one layout IR — a short list
//!   of strided [`Run`]s, cached per count as a [`Plan`] whose
//!   [`Canonical`] shape recognizes `cudaMemcpy2D`-able strided layouts
//!   ([`Canonical::Strided1D`]);
//! * **point-to-point** with tag/source matching (wildcards, non-overtaking
//!   order, unexpected-message queue), blocking and nonblocking calls;
//! * three data protocols: **eager**, **rendezvous rput** (one RDMA post
//!   into the receiver's registered user buffer — a plain R-PUT when both
//!   sides are contiguous, a scatter/gather descriptor walk by the HCA
//!   when both layouts canonicalize, see [`scheme`]) and **rendezvous
//!   staged** (chunked through registered vbufs with RTS / CTS / per-chunk
//!   RDMA write + FIN / CREDIT flow control);
//! * a pluggable **staging layer** ([`BufferStager`]) so GPU-resident
//!   buffers can be packed/unpacked by the device instead of the CPU;
//! * `MPI_Barrier` (dissemination).
//!
//! ```
//! use mpi_sim::{MpiWorld, Datatype};
//! use hostmem::HostBuf;
//!
//! MpiWorld::new(2).run(|comm| {
//!     let t = Datatype::float();
//!     t.commit();
//!     let buf = HostBuf::alloc(4096);
//!     if comm.rank() == 0 {
//!         comm.send(buf.base(), 1024, &t, 1, 0);
//!     } else {
//!         let st = comm.recv(buf.base(), 1024, &t, 0, 0);
//!         assert_eq!(st.bytes, 4096);
//!     }
//! });
//! ```

#![warn(missing_docs)]

mod coll;
mod comm;
mod datatype;
mod engine;
pub mod flat;
pub mod invariants;
pub mod pack;
pub mod plan;
mod proto;
pub mod scheme;
pub mod staging;
mod tuner;
mod world;

pub use coll::ReduceOp;
pub use comm::Comm;
pub use datatype::{Datatype, SubarrayOrder};
pub use engine::{RecvStatus, Request, SrcSel, TagSel, ANY_SOURCE, ANY_TAG};
pub use flat::Run;
pub use ib_sim::{FaultSpec, Topology};
pub use pack::CpuModel;
pub use plan::{Canonical, Plan, PlanCacheStats, WireDescriptor};
#[doc(hidden)]
pub use proto::SeededBug;
pub use proto::{packet_kind, ChunkPolicy, CollAlgo, CollConfig, ConfigError, MpiConfig, MpiError};
pub use scheme::{DataScheme, SchemeSel};
pub use staging::{BufferStager, RecvSink, SendSource};
pub use world::{MpiWorld, Outcome, Seat, WakeTraceSink};
