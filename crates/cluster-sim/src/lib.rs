//! # cluster-sim — multi-job shared-cluster simulation
//!
//! Everything the rest of the workspace simulates one *job* at a time;
//! this crate simulates the *cluster*: an open-loop stream of MPI/GPU jobs
//! (Poisson arrivals, heavy-tailed sizes) scheduled onto a bounded set of
//! physical nodes, all sharing one [`ib_sim::Fabric`] built with
//! [`ib_sim::Fabric::multi_job`]. Per-job QoS ([`ib_sim::JobQos`]) governs
//! how co-located tenants split each node's HCA transmit engine, whether a
//! job's link rate is capped, and how the MPI vbuf pool is partitioned.
//!
//! Three pieces:
//!
//! * [`workload`] — five self-verifying application bodies (halo3d,
//!   stencil2d, transpose, gradient allreduce, OSU ping-pong), each sized
//!   by a heavy-tailed scale factor.
//! * [`arrivals`] — the seeded open-loop generator: exponential
//!   inter-arrival gaps over the virtual clock, bounded-Pareto sizes, a
//!   weighted kind mix. Pure (pre-simulation), so a plan replays bit for
//!   bit.
//! * [`run`] — the runner: one scheduler fiber places arrivals
//!   (exclusively on free nodes, or shared by least-load with weighted
//!   HCA arbitration), one gated fiber per rank runs the job body through
//!   the full MV2-GPU-NC stack, and per-job lifecycle instants + scoped
//!   metrics land in one trace recorder.
//!
//! The `job_mix` experiment (crate `bench`) drives campaigns from here and
//! commits slowdown distributions and QoS guards to
//! `results/BENCH_jobmix.json`.

pub mod arrivals;
pub mod run;
pub mod workload;

pub use arrivals::{generate, JobPlan, MixParams};
pub use run::{run_isolated, run_mix, ClusterOutcome, ClusterParams, JobOutcome, Placement};
pub use workload::{JobKind, SizedJob};
