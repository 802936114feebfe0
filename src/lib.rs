//! # gpu-nc-repro — umbrella crate
//!
//! Re-exports the whole reproduction stack of *"Optimized Non-contiguous MPI
//! Datatype Communication for GPU Clusters"* (CLUSTER 2011) so examples and
//! integration tests can use one dependency. See the individual crates for
//! documentation:
//!
//! * [`sim_core`] — deterministic virtual-time simulation kernel
//! * [`sim_trace`] — virtual-time tracing & metrics (lanes, Chrome export,
//!   pipeline analyses)
//! * [`gpu_sim`] — CUDA-like GPU device simulator
//! * [`ib_sim`] — InfiniBand verbs / RDMA simulator
//! * [`mpi_sim`] — MPI runtime with a full derived-datatype engine
//! * [`mv2_gpu_nc`] — the paper's contribution: GPU-aware non-contiguous
//!   datatype communication (offloaded packing + 5-stage pipeline)
//! * [`stencil2d`] — SHOC Stencil2D application benchmark
//! * [`coll_apps`] — collective-driven workloads (distributed transpose,
//!   gradient allreduce) over the hierarchical datatype-aware collectives
//! * [`simcheck`] — exhaustive control-plane model checking
//! * [`cluster_sim`] — multi-job shared-cluster campaigns: open-loop job
//!   arrivals, node scheduling and per-job HCA QoS over one fabric

pub use cluster_sim;
pub use coll_apps;
pub use gpu_sim;
pub use halo3d;
pub use hostmem;
pub use ib_sim;
pub use mpi_sim;
pub use mv2_gpu_nc;
pub use sim_core;
pub use sim_trace;
pub use simcheck;
pub use stencil2d;
