//! The six named workloads. Each exposes `run(&RepCfg) -> Rep`: build a
//! fresh world from the seed, take it through set-up, one timed segment and
//! the output check, and return what happened.

pub mod coll;
pub mod halo3d;
pub mod jobmix;
pub mod scheme_zoo;
pub mod vec_pingpong;

use gpu_nc_repro::sim_core::{self, SimDur};
use xorshift::XorShift64;

use crate::harness::{Rep, RepCfg};

/// Largest delay a rank adds before starting an operation, ns.
///
/// The builder's contract has the driver run every workload under many
/// seeds and reject "a time that reads exactly the same on every run".
/// Message sizes, grids and the job plan are fixed, so without the skew no
/// virtual-clock metric would depend on the seed at all. An operation's
/// latency runs from when it was due, so the skew is inside its clock. It is
/// far below any operation's latency: over ten seeds no virtual metric moves
/// by more than 0.006 % of its median, and one that does is a finding. (At
/// 200 ns `halo3d_1024` flips between two event orders 0.9 % apart; at 50 ns
/// it does not.)
pub const SKEW_NS: u64 = 50;

/// Sleep a seeded `0..=SKEW_NS` of virtual time (inside a rank body).
pub fn skew(rng: &mut XorShift64) {
    sim_core::sleep(SimDur::from_nanos(rng.next_u64() % (SKEW_NS + 1)));
}

/// Seed of `jobmix_1024`'s arrival plan (kinds, sizes, gaps). A fresh plan
/// moves the makespan by 3 % and the p99 by 5 %, far beyond the bound of a
/// virtual-clock metric, so the plan does not follow `--seed`; only the
/// generator's lateness does.
pub const PLAN_SEED: u64 = 20211;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// What an *operation* is on this workload (one latency sample each).
    pub op: &'static str,
    /// Why the workload is in the set (one line, copied to BENCHMARK.json).
    pub why: &'static str,
    /// `(name, layer)` of the per-operation spans in the span log: the
    /// layer is the one the operation enters first.
    pub span: (&'static str, &'static str),
    /// Timed reps of a default run.
    pub reps: usize,
    pub run: fn(&RepCfg) -> Rep,
}

/// The workload set, in reporting order. Names are fixed: later issues cite
/// them.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "vec_pingpong",
        op: "one GPU vector message, receiver side, post to bytes verified",
        why: "the paper's Fig. 5 GPU vector path: the 5-stage pipeline does the work, the kernel almost none",
        span: ("message", "mpi-sim"),
        reps: 5,
        run: vec_pingpong::run,
    },
    Workload {
        name: "halo3d_1024",
        op: "one halo3d step on one rank",
        why: "1024 ranks of eager faces: sim-core scheduling, the ib-sim pump and counters do the work; large set-up",
        span: ("step", "halo3d"),
        reps: 5,
        run: halo3d::run_1024,
    },
    Workload {
        name: "coll_256",
        op: "one collective call on one rank",
        why: "hierarchical allreduce and alltoallv at 256 ranks: node-leader trees, shm channel, GPU datatypes via collectives",
        span: ("collective", "mpi-sim"),
        reps: 5,
        run: coll::run,
    },
    Workload {
        name: "jobmix_1024",
        op: "one job, response time from its scheduled arrival",
        why: "open-loop multi-tenant fabric: weighted-share HCA arbitration, short-lived engines, the jobs-squared host cost",
        span: ("job", "cluster-sim"),
        reps: 3,
        run: jobmix::run,
    },
    Workload {
        name: "scheme_zoo",
        op: "one host-to-host message of the layout zoo",
        why: "layout x size x scheme grid without a GPU: canonical lowering and the NIC scatter/gather engine, not pack cursors",
        span: ("message", "mpi-sim"),
        // A 0.4 s segment: more reps for the same steadiness.
        reps: 15,
        run: scheme_zoo::run,
    },
    Workload {
        name: "halo3d_faults",
        op: "one halo3d step on one rank, checked against a clean run",
        why: "retry path under seeded control drops, delays and RDMA errors: must recover byte-identically",
        span: ("step", "halo3d"),
        reps: 5,
        run: halo3d::run_faults,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// An independent generator for one purpose (`salt`) of one run's seed, so
/// adding a draw to one stream never shifts another.
pub fn stream(seed: u64, salt: u64) -> XorShift64 {
    // SplitMix64 finaliser: adjacent seeds give unrelated states.
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift64::new(z ^ (z >> 31))
}

/// `len` seeded bytes.
pub fn seeded_bytes(seed: u64, salt: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    stream(seed, salt).fill_bytes(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL.iter().skip(i + 1).all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        assert_eq!(seeded_bytes(7, 1, 64), seeded_bytes(7, 1, 64));
        assert_ne!(seeded_bytes(7, 1, 64), seeded_bytes(7, 2, 64));
        assert_ne!(seeded_bytes(7, 1, 64), seeded_bytes(8, 1, 64));
        assert_ne!(seeded_bytes(0, 0, 64), vec![0u8; 64]);
    }
}
