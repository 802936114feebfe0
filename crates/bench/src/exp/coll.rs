//! Collective algorithm sweep: hierarchical node-leader trees vs the flat
//! single-level algorithms vs the naive p2p-loop control, for `allreduce`
//! and `alltoallv`, at 64–256 ranks with ppn ∈ {1, 4, 8}.
//!
//! Every cell runs the identical communication pattern and checks the
//! identical result; only `MpiConfig::coll.algo` and the placement change.
//! The naive family is the seed implementation kept as the control: a
//! root-funnel reduce + binomial bcast for allreduce. `Comm::alltoallv` has
//! no naive variant: under `CollAlgo::Naive` it runs the flat pairwise
//! exchange, so the naive alltoallv cells equal the flat ones. The
//! interesting comparison is on
//! fat nodes (ppn ≥ 4), where the hierarchical path fans in/out over the
//! shm channel and puts one aggregated message per node pair on the wire.
//!
//! Each cell also reports `call_us`, the slowest rank's virtual time inside
//! the call, stamped after the barrier that starts it. A second table runs
//! the allreduce on device buffers (64 ranks, ppn 4, 64 KiB and 1 MiB): the
//! hierarchical fan-in copies each member's slice D2H off the shared GPU
//! straight into the leader's host bank, the fan-out lands each segment
//! once in the leader's recvbuf and the co-located members copy it device
//! to device, so no payload crosses shm.
//!
//! A third table, `world_floor_us`, is the floor under every cell's
//! `time_ms`: per rank count and ppn, the end of a world whose ranks only
//! start up, and of one that also runs a barrier. Start-up is MPI_Init's
//! one registration of the vbuf pool, and the guard holds it there to the
//! nanosecond.
//!
//! `--smoke` runs the 64-rank column and the 64 KiB device rows, with the
//! same guards.

use std::collections::BTreeMap;

use gpu_sim::Loc;
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use ib_sim::NetModel;
use mpi_sim::{CollAlgo, Comm, Datatype, MpiConfig, ReduceOp};
use mv2_gpu_nc::{GpuCluster, GpuRankEnv};
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

/// Device allreduce payloads: one pipeline segment, and sixteen.
const DEV_BYTES: [usize; 2] = [64 << 10, 1 << 20];

/// Integer-valued contribution, exact in f32 for any fold order.
fn ar_term(rank: usize, k: usize) -> f32 {
    ((rank * 13 + k * 7) % 17) as f32 - 8.0
}

/// Virtual ns `call` takes on this rank, from the end of a barrier.
fn timed(comm: &Comm, call: impl FnOnce()) -> u64 {
    comm.barrier();
    let t0 = sim_core::now();
    call();
    (sim_core::now() - t0).as_nanos()
}

/// `count` f32 summed in host memory, or on the node's GPU when `device`.
fn allreduce(env: &GpuRankEnv, count: usize, device: bool) -> u64 {
    let (comm, gpu, me) = (&env.comm, &env.gpu, env.comm.rank());
    let f32t = Datatype::float();
    f32t.commit();
    let vals: Vec<f32> = (0..count).map(|k| ar_term(me, k)).collect();
    let vals = scalars_to_bytes(&vals);
    let (send, recv): (Loc, Loc) = if device {
        let (send, recv) = (gpu.malloc(count * 4), gpu.malloc(count * 4));
        gpu.write_bytes(send, &vals);
        (send.into(), recv.into())
    } else {
        let recv = HostBuf::alloc(count * 4);
        (HostBuf::from_vec(vals).base().into(), recv.base().into())
    };
    let ns = timed(comm, || {
        comm.allreduce(send, recv.clone(), count, &f32t, ReduceOp::Sum)
    });
    let got = match recv {
        Loc::Host(p) => p.read(count * 4),
        Loc::Device(d) => gpu.read_bytes(d, count * 4),
    };
    let got = bytes_to_scalars::<f32>(&got);
    for (k, g) in got.iter().enumerate().step_by(997) {
        let want: f32 = (0..comm.size()).map(|r| ar_term(r, k)).sum();
        assert_eq!(*g, want, "allreduce element {k} on rank {me}");
    }
    ns
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

fn alltoallv(env: &GpuRankEnv) -> u64 {
    let comm = &env.comm;
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
    let ns = timed(comm, || {
        comm.alltoallv(
            send.base(),
            &scounts,
            &sdispls,
            &f32t,
            recv.base(),
            &rcounts,
            &rdispls,
            &f32t,
        )
    });
    // Spot-check: the block from peer j is j's send stream at my
    // send-offset within j's buffer.
    for j in (0..n).step_by((n / 7).max(1)) {
        let got = bytes_to_scalars::<f32>(&recv.read(rdispls[j], rcounts[j] * 4));
        let j_off: usize = (0..me).map(|d| a2a_cnt(j, d)).sum();
        let want: Vec<f32> = (0..rcounts[j]).map(|k| ar_term(j, j_off + k)).collect();
        assert_eq!(got, want, "alltoallv block from {j} on rank {me}");
    }
    ns
}

/// A collective's per-rank body: the call's virtual ns on this rank.
type Body = fn(&GpuRankEnv) -> u64;

/// One cell of the sweep: what the guards compare.
struct Cell {
    time_ms: f64,
    call_us: f64,
    hca_tx_bytes: u64,
    shm_bytes: u64,
}

/// Run `body` on `n` ranks, `ppn` per node and one GPU per node, under
/// `algo`.
fn run_cell<F>(n: usize, ppn: usize, algo: CollAlgo, body: F) -> Cell
where
    F: Fn(&GpuRankEnv) -> u64 + Send + Sync + 'static,
{
    let rec = Recorder::new();
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    let (end, calls, _) = GpuCluster::new(n)
        .mpi_config(cfg)
        .exec(ExecMode::Event)
        .recorder(rec.clone())
        .try_run(body)
        .unwrap();
    let (hca_tx_bytes, shm_bytes) = fabric_bytes(&rec, n / ppn);
    Cell {
        time_ms: end.as_nanos() as f64 / 1e6,
        call_us: *calls.iter().max().expect("a world has ranks") as f64 / 1e3,
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
        col("call_us", "call (us)", Fmt::Fixed(3)),
    ];
    const COLLS: [(&str, Body); 2] = [
        ("allreduce", |env| allreduce(env, AR_COUNT, false)),
        ("alltoallv", alltoallv),
    ];
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
                        &c.call_us,
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
            // The leaders' reduce-scatter + allgather carries 2·(p−1)/p of
            // the vector on its critical path where a binomial reduce +
            // bcast carries 2·log₂p of it. A leader tree runs within 1.5 %
            // of flat, so this margin fails if one comes back.
            let arp = &cells[&("allreduce", n, ppn, "hier")];
            let arf = &cells[&("allreduce", n, ppn, "flat")];
            assert!(
                arp.time_ms <= 0.95 * arf.time_ms,
                "hier allreduce ({:.3} ms) must take at most 0.95x the flat path's \
                 time ({:.3} ms) at {n} ranks ppn={ppn}",
                arp.time_ms,
                arf.time_ms
            );
            // The same comparisons on the call alone, without the world's
            // start-up floor: hier allreduce measures 0.41–0.64x flat's call
            // time, and hier alltoallv at most 0.62x (64 ranks, ppn 8).
            assert!(
                arp.call_us <= 0.70 * arf.call_us,
                "hier allreduce ({:.3} us) must take at most 0.70x the flat path's \
                 call time ({:.3} us) at {n} ranks ppn={ppn}",
                arp.call_us,
                arf.call_us
            );
            let a2p = &cells[&("alltoallv", n, ppn, "hier")];
            let a2f = &cells[&("alltoallv", n, ppn, "flat")];
            assert!(
                a2p.call_us < a2f.call_us,
                "hier alltoallv ({:.3} us) must beat the flat path's call time \
                 ({:.3} us) at {n} ranks ppn={ppn}",
                a2p.call_us,
                a2f.call_us
            );
            // The leader funnel shifts traffic from the wire to the shm
            // channel: HCA bytes must drop as ppn grows, in step with the
            // shm bytes picked up.
            let ar1 = &cells[&("allreduce", n, 1, "hier")];
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

    // The world floor: an empty world ends when MPI_Init has registered
    // the vbuf pool, one region of `pool_vbufs` slots of `max_chunk()`.
    let mut floor = Table::new(&[
        col("ranks", "ranks", Fmt::Plain),
        col("ppn", "ppn", Fmt::Plain),
        col("empty_us", "empty (us)", Fmt::Fixed(3)),
        col("barrier_us", "barrier (us)", Fmt::Fixed(3)),
    ]);
    let cfg = MpiConfig::default();
    let init_ns = NetModel::qdr()
        .reg_time(cfg.pool_vbufs * cfg.max_chunk())
        .as_nanos();
    let end_ns = |c: Cell| (c.time_ms * 1e6).round() as u64;
    for &n in rank_counts {
        for ppn in ppns {
            // Start-up alone, then start-up and one barrier.
            let empty = end_ns(run_cell(n, ppn, CollAlgo::Flat, |_| 0));
            let barrier = end_ns(run_cell(n, ppn, CollAlgo::Flat, |env| {
                env.comm.barrier();
                0
            }));
            assert!(
                empty == init_ns && barrier > empty,
                "an empty {n}-rank world at ppn={ppn} must end at the vbuf pool's one \
                 registration ({init_ns} ns), and a barrier-only one after it: \
                 {empty} and {barrier} ns"
            );
            floor.row(&[&n, &ppn, &(empty as f64 / 1e3), &(barrier as f64 / 1e3)]);
        }
    }

    // Device buffers, flat and hier, four ranks sharing each node's GPU:
    // the allreduce at one pipeline segment and at sixteen.
    let mut dev = Table::new(COLS);
    let (n, ppn) = (64, 4);
    for &bytes in &DEV_BYTES[..if args.smoke { 1 } else { 2 }] {
        let coll = format!("allreduce_dev_{}KiB", bytes >> 10);
        let [flat, hier] = [&ALGOS[1], &ALGOS[2]].map(|&(algo, algo_name)| {
            let c = run_cell(n, ppn, algo, move |env| allreduce(env, bytes / 4, true));
            dev.row(&[
                &coll,
                &n,
                &ppn,
                &algo_name,
                &c.time_ms,
                &c.hca_tx_bytes,
                &c.shm_bytes,
                &c.call_us,
            ]);
            c
        });
        // The members' slices reach the leader by D2H and the result
        // reaches them on the GPU, so shm carries control packets only:
        // less than one 64 KiB segment's payload per segment of the call.
        assert!(
            hier.call_us <= 0.5 * flat.call_us && hier.shm_bytes < bytes as u64,
            "hier {coll} ({:.3} us, {} shm bytes) must take at most 0.5x the flat \
             path's time ({:.3} us) and move less than {bytes} bytes over shm",
            hier.call_us,
            hier.shm_bytes,
            flat.call_us
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
    doc.say("device-buffer allreduce\n");
    doc.table("device", &dev);
    doc.say("world floor: start-up alone, then one barrier\n");
    doc.table("world_floor_us", &floor);
    doc
}
