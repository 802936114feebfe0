//! Collective algorithm sweep: hierarchical node-leader trees vs the flat
//! single-level algorithms vs the naive p2p-loop control, for `allreduce`
//! and `alltoallv`, at 64–256 ranks with ppn ∈ {1, 4, 8}.
//!
//! Every cell runs the identical communication pattern and checks the
//! identical result; only `MpiConfig::coll.algo` and the placement change.
//! The naive family is the seed implementation kept as the control: a
//! root-funnel reduce + binomial bcast for allreduce, and a loop posting
//! 2·P requests per rank for alltoallv. The interesting comparison is on
//! fat nodes (ppn ≥ 4), where the hierarchical path fans in/out over the
//! shm channel and puts one aggregated message per node pair on the wire.
//!
//! `--smoke` runs the 64-rank column only, with the same guards.

use std::collections::BTreeMap;

use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use mpi_sim::{CollAlgo, Comm, Datatype, MpiConfig, MpiWorld, ReduceOp};
use sim_core::ExecMode;
use sim_trace::Recorder;

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::measure::fabric_bytes;
use crate::Args;

const ALGOS: [(CollAlgo, &str); 3] = [
    (CollAlgo::Naive, "naive"),
    (CollAlgo::Flat, "flat"),
    (CollAlgo::Hier, "hier"),
];

/// Allreduce payload: 16 Ki f32 (64 KiB), several pipeline chunks.
const AR_COUNT: usize = 16 << 10;

/// Integer-valued contribution, exact in f32 for any fold order.
fn ar_term(rank: usize, k: usize) -> f32 {
    ((rank * 13 + k * 7) % 17) as f32 - 8.0
}

fn allreduce(comm: Comm) {
    let me = comm.rank();
    let f32t = Datatype::float();
    f32t.commit();
    let vals: Vec<f32> = (0..AR_COUNT).map(|k| ar_term(me, k)).collect();
    let send = HostBuf::from_vec(scalars_to_bytes(&vals));
    let recv = HostBuf::alloc(AR_COUNT * 4);
    comm.barrier();
    comm.allreduce(send.base(), recv.base(), AR_COUNT, &f32t, ReduceOp::Sum);
    let got = bytes_to_scalars::<f32>(&recv.read(0, AR_COUNT * 4));
    for (k, g) in got.iter().enumerate().step_by(997) {
        let want: f32 = (0..comm.size()).map(|r| ar_term(r, k)).sum();
        assert_eq!(*g, want, "allreduce element {k} on rank {me}");
    }
}

/// Ragged per-pair element count (f32), same on both sides of the pair.
///
/// Small per-pair payloads (16–96 bytes) put the sweep in the
/// message-aggregation regime a transpose reaches at scale: tiles shrink
/// as 1/P² and per-message latency dominates, which is exactly where the
/// node-leader funnel earns its keep (one aggregated wire message per
/// node pair instead of ppn² rendezvous handshakes). With fat per-pair
/// payloads the wire is bandwidth-bound and the leader's extra shm
/// fan-in/fan-out copy can only lose — real MPI libraries switch to the
/// direct pairwise exchange there, and so should users of this sim.
fn a2a_cnt(src: usize, dst: usize) -> usize {
    A2A_MIN + ((src * 5 + dst * 3) % 11) * 2
}
const A2A_MIN: usize = 4;
const A2A_MAX: usize = A2A_MIN + 10 * 2;

fn alltoallv(comm: Comm) {
    let (me, n) = (comm.rank(), comm.size());
    let f32t = Datatype::float();
    f32t.commit();
    let scounts: Vec<usize> = (0..n).map(|j| a2a_cnt(me, j)).collect();
    let rcounts: Vec<usize> = (0..n).map(|j| a2a_cnt(j, me)).collect();
    let displs = |c: &[usize]| {
        let mut d = Vec::with_capacity(n);
        let mut off = 0usize;
        for &cj in c {
            d.push(off);
            off += cj * 4;
        }
        (d, off)
    };
    let (sdispls, stot) = displs(&scounts);
    let (rdispls, rtot) = displs(&rcounts);
    let vals: Vec<f32> = (0..stot / 4).map(|k| ar_term(me, k)).collect();
    let send = HostBuf::from_vec(scalars_to_bytes(&vals));
    let recv = HostBuf::alloc(rtot);
    comm.barrier();
    comm.alltoallv(
        send.base(),
        &scounts,
        &sdispls,
        &f32t,
        recv.base(),
        &rcounts,
        &rdispls,
        &f32t,
    );
    // Spot-check: the block from peer j is j's send stream at my
    // send-offset within j's buffer.
    for j in (0..n).step_by((n / 7).max(1)) {
        let got = bytes_to_scalars::<f32>(&recv.read(rdispls[j], rcounts[j] * 4));
        let j_off: usize = (0..me).map(|d| a2a_cnt(j, d)).sum();
        let want: Vec<f32> = (0..rcounts[j]).map(|k| ar_term(j, j_off + k)).collect();
        assert_eq!(got, want, "alltoallv block from {j} on rank {me}");
    }
}

/// A collective's per-rank body.
type Body = fn(Comm);

/// One cell of the sweep: what the guards compare.
struct Cell {
    time_ms: f64,
    hca_tx_bytes: u64,
    shm_bytes: u64,
}

/// Run `body` on `n` ranks, `ppn` per node, under `algo`.
fn run_cell(n: usize, ppn: usize, algo: CollAlgo, body: Body) -> Cell {
    let rec = Recorder::new();
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    let wall = MpiWorld::new(n)
        .with_config(cfg)
        .with_exec(ExecMode::Event)
        .with_recorder(rec.clone())
        .run(body);
    let (hca_tx_bytes, shm_bytes) = fabric_bytes(&rec, n / ppn);
    Cell {
        time_ms: wall.as_nanos() as f64 / 1e6,
        hca_tx_bytes,
        shm_bytes,
    }
}

pub fn coll_sweep(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("coll", "coll", Fmt::Plain),
        col("ranks", "ranks", Fmt::Plain),
        col("ppn", "ppn", Fmt::Plain),
        col("algo", "algo", Fmt::Plain),
        col("time_ms", "time (ms)", Fmt::Fixed(3)),
        col("hca_tx_bytes", "HCA tx", Fmt::Plain),
        col("shm_bytes", "shm bytes", Fmt::Plain),
    ];
    const COLLS: [(&str, Body); 2] = [("allreduce", allreduce), ("alltoallv", alltoallv)];
    let rank_counts: &[usize] = if args.smoke { &[64] } else { &[64, 128, 256] };
    let ppns = [1usize, 4, 8];

    let mut t = Table::new(COLS);
    let mut cells = BTreeMap::new();
    for &n in rank_counts {
        for ppn in ppns {
            for (algo, algo_name) in ALGOS {
                for (coll, body) in COLLS {
                    let c = run_cell(n, ppn, algo, body);
                    t.row(&[
                        &coll,
                        &n,
                        &ppn,
                        &algo_name,
                        &c.time_ms,
                        &c.hca_tx_bytes,
                        &c.shm_bytes,
                    ]);
                    cells.insert((coll, n, ppn, algo_name), c);
                }
            }
        }
    }

    for &n in rank_counts {
        for ppn in ppns.into_iter().filter(|&p| p >= 4) {
            for (coll, _) in COLLS {
                let naive = &cells[&(coll, n, ppn, "naive")];
                let flat = &cells[&(coll, n, ppn, "flat")];
                let hier = &cells[&(coll, n, ppn, "hier")];
                assert!(
                    hier.time_ms < naive.time_ms,
                    "hier {coll} ({:.3} ms) must beat the naive p2p-loop control \
                     ({:.3} ms) at {n} ranks ppn={ppn}",
                    hier.time_ms,
                    naive.time_ms
                );
                assert!(
                    hier.time_ms < flat.time_ms,
                    "hier {coll} ({:.3} ms) must beat the flat single-level path \
                     ({:.3} ms) at {n} ranks ppn={ppn}",
                    hier.time_ms,
                    flat.time_ms
                );
                assert!(
                    hier.hca_tx_bytes < naive.hca_tx_bytes,
                    "hier {coll} ({} HCA bytes) must put less on the wire than the \
                     naive control ({}) at {n} ranks ppn={ppn}",
                    hier.hca_tx_bytes,
                    naive.hca_tx_bytes
                );
                assert!(
                    hier.shm_bytes > 0,
                    "hier {coll} must route intra-node traffic over shm at ppn={ppn}"
                );
            }
            // The leader funnel shifts traffic from the wire to the shm
            // channel: HCA bytes must drop as ppn grows, in step with the
            // shm bytes picked up.
            let ar1 = &cells[&("allreduce", n, 1, "hier")];
            let arp = &cells[&("allreduce", n, ppn, "hier")];
            assert!(
                arp.hca_tx_bytes < ar1.hca_tx_bytes && arp.shm_bytes > ar1.shm_bytes,
                "hier allreduce at {n} ranks must shed HCA bytes ({} -> {}) onto \
                 the shm channel ({} -> {}) as ppn grows 1 -> {ppn}",
                ar1.hca_tx_bytes,
                arp.hca_tx_bytes,
                ar1.shm_bytes,
                arp.shm_bytes
            );
        }
        // Allreduce-specific proportionality: a node's members contribute
        // one aggregated vector instead of ppn individual ones, so the
        // hier wire traffic at ppn=4 is a small fraction of the naive
        // funnel's.
        let naive4 = &cells[&("allreduce", n, 4, "naive")];
        let hier4 = &cells[&("allreduce", n, 4, "hier")];
        assert!(
            2 * hier4.hca_tx_bytes <= naive4.hca_tx_bytes,
            "hier allreduce at {n} ranks ppn=4 should use at most half the naive \
             control's HCA bytes ({} vs {})",
            hier4.hca_tx_bytes,
            naive4.hca_tx_bytes
        );
    }

    let mut doc = Doc::new();
    doc.field(
        "workload",
        format!(
            "allreduce {AR_COUNT} f32 + ragged alltoallv (~{A2A_MIN}-{A2A_MAX} f32/pair), \
             barrier-synchronized, Event carrier"
        ),
    )
    .field("smoke", args.smoke);
    doc.say("collective sweep: hier vs flat vs naive control\n");
    doc.table("data", &t);
    doc
}
