//! # sim-core — deterministic virtual-time simulation kernel
//!
//! This crate is the substrate for the whole reproduction: a discrete-event
//! simulation kernel in which *processes* (MPI ranks, progress engines) are
//! ordinary blocking Rust closures running on dedicated OS threads, while a
//! cooperative scheduler guarantees that exactly one process executes at a
//! time and that every scheduling decision is ordered by `(virtual time,
//! admission sequence)`. The result is a simulator that is:
//!
//! * **deterministic** — identical runs produce identical event orders and
//!   identical final clocks, so benchmark output is exactly reproducible;
//! * **natural to program against** — simulated code blocks, sleeps and
//!   parks exactly like real systems code, with no async/await or explicit
//!   state machines;
//! * **cheap to reason about** — no data races on simulation state are
//!   possible because there is no true parallelism inside one simulation.
//!
//! ## Building blocks
//!
//! * [`Sim`] / [`Sim::spawn`] / [`Sim::run`] — the kernel.
//! * [`now`], [`sleep`], [`sleep_until`], [`yield_now`], [`park`],
//!   [`ProcHandle::unpark`] — process-context primitives.
//! * [`Completion`] — one-shot events with a known finish instant (models
//!   DMA / RDMA operation completion, `cudaStreamQuery`-style polling).
//! * [`Horizon`] — a FIFO resource in closed form (models copy engines,
//!   streams, HCA and shm engines), with always-on busy/wait tallies.
//! * [`Mailbox`] — timed message delivery (models wires and control paths).
//!
//! ## Example
//!
//! ```
//! use sim_core::{Sim, SimDur, Mailbox};
//!
//! let sim = Sim::new();
//! let mb = Mailbox::new();
//! let tx = mb.clone();
//! sim.spawn("sender", move || {
//!     // A 1500-byte packet over a 1 GB/s link with 1 us latency:
//!     let arrival = sim_core::now() + SimDur::from_nanos(1_000 + 1_500);
//!     tx.send_at(arrival, vec![0u8; 1500]);
//! });
//! sim.spawn("receiver", move || {
//!     let pkt = mb.recv();
//!     assert_eq!(pkt.len(), 1500);
//!     assert_eq!(sim_core::now().as_nanos(), 2_500);
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

mod completion;
mod fiber;
mod horizon;
pub mod instrument;
mod kernel;
pub mod lock;
mod mailbox;
pub mod san;
mod time;

pub use completion::Completion;
pub use horizon::Horizon;
pub use instrument::CallCounters;
pub use kernel::{
    current_handle, in_sim, now, park, schedule_at, sleep, sleep_until, spawn, yield_now, ExecMode,
    ProcHandle, ProcId, Sim, WakeEvent,
};
pub use mailbox::Mailbox;
pub use san::{Invariant, ProtoView, Report, ReportKind, SanitizerMode};
pub use time::{SimDur, SimTime};
