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

use std::sync::Arc;

use mpi_sim::{CollAlgo, MpiConfig};
use mv2_gpu_nc::{GpuCluster, GpuRankEnv};
use sim_core::lock::Mutex;
use sim_core::SimTime;

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

/// Launch `body` on a default cluster of `ranks` ranks, `ppn` per node
/// (blocked), with collective family `algo`; returns the virtual completion
/// time and every rank's result in rank order.
fn run_ranks<T: Send + 'static>(
    ranks: usize,
    ppn: usize,
    algo: CollAlgo,
    body: impl Fn(&GpuRankEnv) -> T + Send + Sync + 'static,
) -> (SimTime, Vec<T>) {
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    let results = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&results);
    let wall = GpuCluster::new(ranks).mpi_config(cfg).run(move |env| {
        let out = body(env);
        sink.lock().push((env.comm.rank(), out));
    });
    let mut got = std::mem::take(&mut *results.lock());
    got.sort_by_key(|(r, _)| *r);
    (wall, got.into_iter().map(|(_, v)| v).collect())
}
