//! # coll-apps — collective-driven application workloads
//!
//! Two applications that exercise the datatype-aware collectives end to
//! end, each guarded by a serial reference:
//!
//! * [`transpose`] — a distributed matrix transpose: each rank owns a
//!   block of rows and redistributes via **alltoallv of strided columns**
//!   (the send side gathers non-contiguous columns with a derived
//!   datatype, the receive side scatters row fragments), on host or
//!   device memory. A pure data-movement workload, so the result must be
//!   **bit-exact** against the serial transpose.
//! * [`gradient`] — data-parallel training steps: every rank computes a
//!   local gradient and the model is updated from the **allreduce** of
//!   all gradients. Gradients are integer-valued `f32`, so the reduction
//!   is exact in any fold order and the distributed weights must match
//!   the serial reference bit for bit — on every rank, every placement,
//!   every algorithm family, host or device.

#![warn(missing_docs)]

pub mod gradient;
pub mod transpose;

use mpi_sim::{CollAlgo, MpiConfig};
use mv2_gpu_nc::GpuCluster;

pub use gradient::{gradient_rank, run_gradient, serial_gradient, GradOutcome, GradParams};
pub use transpose::{
    run_transpose, serial_transpose, transpose_rank, TransposeOutcome, TransposeParams,
};

/// Where a workload keeps its working set.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Mem {
    /// Host buffers.
    Host,
    /// Device (GPU) buffers — the collective stack packs/unpacks through
    /// the staging pipeline.
    Device,
}

/// A default cluster of `ranks` ranks, `ppn` per node (blocked), with
/// collective family `algo`.
fn cluster(ranks: usize, ppn: usize, algo: CollAlgo) -> GpuCluster {
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    GpuCluster::new(ranks).mpi_config(cfg)
}
