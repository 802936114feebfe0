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
//! Regenerate with: `cargo run --release -p bench --bin coll_sweep`
//! (`--out PATH` overrides the default `results/BENCH_coll.json`;
//! `--smoke true` runs the 64-rank column only, with the same guards).

use bench::{print_table, HarnessArgs, Json, ToJson};
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use mpi_sim::{CollAlgo, Datatype, MpiConfig, MpiWorld, ReduceOp};
use sim_core::ExecMode;
use sim_trace::Recorder;

#[derive(Clone)]
struct Row {
    coll: String,
    ranks: usize,
    ppn: usize,
    algo: String,
    time_ms: f64,
    hca_tx_bytes: u64,
    shm_bytes: u64,
}

bench::impl_to_json!(Row {
    coll,
    ranks,
    ppn,
    algo,
    time_ms,
    hca_tx_bytes,
    shm_bytes,
});

const ALGOS: [(CollAlgo, &str); 3] = [
    (CollAlgo::Naive, "naive"),
    (CollAlgo::Flat, "flat"),
    (CollAlgo::Hier, "hier"),
];

/// Allreduce payload: 16 Ki f32 (64 KiB), several pipeline chunks.
const AR_COUNT: usize = 16 << 10;

fn fabric_bytes(rec: &Recorder, nodes: usize) -> (u64, u64) {
    let m = rec.metrics();
    let sum = |kind: &str| {
        (0..nodes)
            .map(|k| m.get(&format!("node{k}.{kind}")).copied().unwrap_or(0))
            .sum()
    };
    (sum("hca.tx_bytes"), sum("shm.bytes"))
}

fn world(n: usize, ppn: usize, algo: CollAlgo, rec: &Recorder) -> MpiWorld {
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    MpiWorld::new(n)
        .with_config(cfg)
        .with_exec(ExecMode::Event)
        .with_recorder(rec.clone())
}

/// Integer-valued contribution, exact in f32 for any fold order.
fn ar_term(rank: usize, k: usize) -> f32 {
    ((rank * 13 + k * 7) % 17) as f32 - 8.0
}

fn run_allreduce(n: usize, ppn: usize, algo: CollAlgo) -> Row {
    let rec = Recorder::new();
    let wall = world(n, ppn, algo, &rec).run(move |comm| {
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
    });
    let (hca_tx_bytes, shm_bytes) = fabric_bytes(&rec, n / ppn);
    Row {
        coll: "allreduce".into(),
        ranks: n,
        ppn,
        algo: algo_name(algo),
        time_ms: (wall.as_nanos() as f64) / 1e6,
        hca_tx_bytes,
        shm_bytes,
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
    4 + ((src * 5 + dst * 3) % 11) * 2
}

fn run_alltoallv(n: usize, ppn: usize, algo: CollAlgo) -> Row {
    let rec = Recorder::new();
    let wall = world(n, ppn, algo, &rec).run(move |comm| {
        let me = comm.rank();
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
    });
    let (hca_tx_bytes, shm_bytes) = fabric_bytes(&rec, n / ppn);
    Row {
        coll: "alltoallv".into(),
        ranks: n,
        ppn,
        algo: algo_name(algo),
        time_ms: (wall.as_nanos() as f64) / 1e6,
        hca_tx_bytes,
        shm_bytes,
    }
}

fn algo_name(a: CollAlgo) -> String {
    ALGOS.iter().find(|(x, _)| *x == a).unwrap().1.to_string()
}

fn find<'a>(rows: &'a [Row], coll: &str, ranks: usize, ppn: usize, algo: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.coll == coll && r.ranks == ranks && r.ppn == ppn && r.algo == algo)
        .expect("row missing")
}

fn main() {
    let args = HarnessArgs::parse(&["smoke", "out"]);
    let smoke = args.extra.contains_key("smoke");
    let rank_counts: &[usize] = if smoke { &[64] } else { &[64, 128, 256] };
    let ppns: &[usize] = &[1, 4, 8];

    let mut rows: Vec<Row> = Vec::new();
    for &n in rank_counts {
        for &ppn in ppns {
            for (algo, _) in ALGOS {
                rows.push(run_allreduce(n, ppn, algo));
                rows.push(run_alltoallv(n, ppn, algo));
            }
        }
    }

    let doc = Json::Obj(vec![
        ("id".to_string(), "coll".to_json()),
        (
            "title".to_string(),
            "collective sweep: hier node-leader trees vs flat vs naive control".to_json(),
        ),
        (
            "workload".to_string(),
            format!(
                "allreduce {AR_COUNT} f32 + ragged alltoallv (~{}-{} f32/pair), \
                 barrier-synchronized, Event carrier",
                a2a_cnt_min(),
                a2a_cnt_max()
            )
            .to_json(),
        ),
        ("smoke".to_string(), smoke.to_json()),
        ("data".to_string(), rows.to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_coll.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
        return;
    }

    println!("collective sweep: hier vs flat vs naive control\n");
    print_table(
        &[
            "coll",
            "ranks",
            "ppn",
            "algo",
            "time (ms)",
            "HCA tx",
            "shm bytes",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.coll.clone(),
                    r.ranks.to_string(),
                    r.ppn.to_string(),
                    r.algo.clone(),
                    format!("{:.3}", r.time_ms),
                    r.hca_tx_bytes.to_string(),
                    r.shm_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    println!("wrote {out_path}");

    // Regression guards (run from scripts/ci.sh via --smoke).
    for &n in rank_counts {
        for &ppn in ppns.iter().filter(|&&p| p >= 4) {
            for coll in ["allreduce", "alltoallv"] {
                let naive = find(&rows, coll, n, ppn, "naive");
                let flat = find(&rows, coll, n, ppn, "flat");
                let hier = find(&rows, coll, n, ppn, "hier");
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
            let ar1 = find(&rows, "allreduce", n, 1, "hier");
            let arp = find(&rows, "allreduce", n, ppn, "hier");
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
        let naive4 = find(&rows, "allreduce", n, 4, "naive");
        let hier4 = find(&rows, "allreduce", n, 4, "hier");
        assert!(
            2 * hier4.hca_tx_bytes <= naive4.hca_tx_bytes,
            "hier allreduce at {n} ranks ppn=4 should use at most half the naive \
             control's HCA bytes ({} vs {})",
            hier4.hca_tx_bytes,
            naive4.hca_tx_bytes
        );
    }
}

fn a2a_cnt_min() -> usize {
    4
}

fn a2a_cnt_max() -> usize {
    4 + 10 * 2
}
