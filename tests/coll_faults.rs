//! Collectives under seeded fault injection: every algorithm family
//! (naive control, flat single-level, hierarchical node-leader) must
//! deliver byte-identical data on a faulty fabric.
//!
//! The campaign chains the collectives a real application mixes — bcast,
//! gather, allgatherv, allreduce, alltoallv, scatter, rooted reduce — on
//! a 2-node (ppn = 4) layout with payloads past the eager limit, so the
//! leader fan-in/out and the inter-node legs all push rendezvous traffic
//! through the lossy control plane. Faults come from a seeded xorshift
//! stream ([`ib_sim::FaultSpec`]); only virtual time and the retransmit
//! counters may differ from a fault-free run.

use gpu_nc_repro::ib_sim::FaultSpec;
use gpu_nc_repro::mpi_sim::{CollAlgo, Datatype, MpiConfig, MpiWorld, ReduceOp};
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use sim_core::{instrument, SimTime};

const N: usize = 8;
const PPN: usize = 4;

fn faulty_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        ctrl_drop: 0.08,
        ctrl_delay: 0.08,
        delay_ns: 25_000,
        rdma_error: 0.03,
        ..FaultSpec::seeded(seed)
    }
}

/// Integer-valued f32 so every reduction is exact in any fold order.
fn term(rank: usize, k: usize) -> f32 {
    ((rank * 13 + k * 7) % 17) as f32 - 8.0
}

/// Chain bcast → gather → allgatherv → allreduce → alltoallv → scatter →
/// reduce on one world of `ppn` ranks per node; every rank appends
/// everything it received to its digest. Returns the virtual end time and
/// the per-rank digests.
fn coll_campaign(algo: CollAlgo, ppn: usize, faults: Option<FaultSpec>) -> (SimTime, Vec<Vec<u8>>) {
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    let mut world = MpiWorld::new(N).with_config(cfg);
    if let Some(spec) = faults {
        world = world.with_faults(spec);
    }
    let out = world.try_run(move |comm| {
        let me = comm.rank();
        let byte = Datatype::byte();
        byte.commit();
        let f32t = Datatype::float();
        f32t.commit();
        let mut digest: Vec<u8> = Vec::new();

        // Bcast: 64 KiB from rank 0 — several rendezvous chunks on the
        // inter-node leg.
        let bn = 64 << 10;
        let bbuf = if me == 0 {
            HostBuf::from_vec((0..bn).map(|i| (i % 251) as u8).collect())
        } else {
            HostBuf::alloc(bn)
        };
        comm.bcast(bbuf.base(), bn, &byte, 0);
        digest.extend(bbuf.read(0, bn));

        // Gather: 12 KiB per rank to rank 3 (a non-leader, so the leader
        // funnel has a real inter-node hop).
        let gn = 12 << 10;
        let gsend = HostBuf::from_vec((0..gn).map(|i| ((i + me * 7) % 249) as u8).collect());
        let grecv = HostBuf::alloc(gn * N);
        comm.gather(gsend.base(), grecv.base(), gn, &byte, 3);
        if me == 3 {
            digest.extend(grecv.read(0, gn * N));
        }

        // Allgatherv: ragged 9–16 KiB blocks, byte displacements.
        let counts: Vec<usize> = (0..N).map(|j| (9 << 10) + (j % 4) * 1600).collect();
        let displs: Vec<usize> = counts
            .iter()
            .scan(0usize, |off, &c| {
                let d = *off;
                *off += c;
                Some(d)
            })
            .collect();
        let total: usize = counts.iter().sum();
        let asend = HostBuf::from_vec(
            (0..counts[me])
                .map(|i| ((i * 3 + me) % 253) as u8)
                .collect(),
        );
        let arecv = HostBuf::alloc(total);
        comm.allgatherv(
            asend.base(),
            counts[me],
            &byte,
            arecv.base(),
            &counts,
            &displs,
            &byte,
        );
        digest.extend(arecv.read(0, total));

        // Allreduce: 16 Ki f32 (64 KiB), pipelined on the hier path.
        let rn = 16 << 10;
        let vals: Vec<f32> = (0..rn).map(|k| term(me, k)).collect();
        let rsend = HostBuf::from_vec(scalars_to_bytes(&vals));
        let rrecv = HostBuf::alloc(rn * 4);
        comm.allreduce(rsend.base(), rrecv.base(), rn, &f32t, ReduceOp::Sum);
        let got = bytes_to_scalars::<f32>(&rrecv.read(0, rn * 4));
        for (k, g) in got.iter().enumerate().step_by(499) {
            let want: f32 = (0..N).map(|r| term(r, k)).sum();
            assert_eq!(*g, want, "allreduce element {k} wrong on rank {me}");
        }
        digest.extend(rrecv.read(0, rn * 4));

        // Alltoallv: ragged ~9.6–12 KiB per pair — every pair rendezvous.
        let cnt = |src: usize, dst: usize| (2400 + ((src * 5 + dst * 3) % 5) * 160) * 4;
        let scounts: Vec<usize> = (0..N).map(|j| cnt(me, j)).collect();
        let rcounts: Vec<usize> = (0..N).map(|j| cnt(j, me)).collect();
        let sdispls: Vec<usize> = scounts
            .iter()
            .scan(0usize, |off, &c| {
                let d = *off;
                *off += c;
                Some(d)
            })
            .collect();
        let rdispls: Vec<usize> = rcounts
            .iter()
            .scan(0usize, |off, &c| {
                let d = *off;
                *off += c;
                Some(d)
            })
            .collect();
        let stot: usize = scounts.iter().sum();
        let rtot: usize = rcounts.iter().sum();
        let tsend = HostBuf::from_vec((0..stot).map(|i| ((i + me * 11) % 241) as u8).collect());
        let trecv = HostBuf::alloc(rtot);
        comm.alltoallv(
            tsend.base(),
            &scounts,
            &sdispls,
            &byte,
            trecv.base(),
            &rcounts,
            &rdispls,
            &byte,
        );
        digest.extend(trecv.read(0, rtot));

        // Scatter: 10 KiB per rank from rank 5 (a non-leader on the
        // second node).
        let sn = 10 << 10;
        let ssend = HostBuf::from_vec((0..sn * N).map(|i| ((i * 5 + 3) % 247) as u8).collect());
        let srecv = HostBuf::alloc(sn);
        comm.scatter(ssend.base(), srecv.base(), sn, &byte, 5);
        digest.extend(srecv.read(0, sn));

        // Reduce(Max): 12 Ki f32 (48 KiB) to rank 6.
        let mn = 12 << 10;
        let vals: Vec<f32> = (0..mn).map(|k| term(me, k + 5)).collect();
        let msend = HostBuf::from_vec(scalars_to_bytes(&vals));
        let mrecv = HostBuf::alloc(mn * 4);
        comm.reduce(msend.base(), mrecv.base(), mn, &f32t, ReduceOp::Max, 6);
        if me == 6 {
            let got = bytes_to_scalars::<f32>(&mrecv.read(0, mn * 4));
            for (k, g) in got.iter().enumerate().step_by(499) {
                let want = (0..N).map(|r| term(r, k + 5)).fold(f32::MIN, f32::max);
                assert_eq!(*g, want, "reduce(max) element {k} wrong on the root");
            }
            digest.extend(mrecv.read(0, mn * 4));
        }

        digest
    });
    let (end, digests, _) = out.unwrap();
    (end, digests)
}

#[test]
fn collectives_deliver_identical_data_under_faults() {
    for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
        let (_, clean) = coll_campaign(algo, PPN, None);
        let before = instrument::global().snapshot();
        for seed in [3u64, 11] {
            let (_, faulty) = coll_campaign(algo, PPN, Some(faulty_spec(seed)));
            for (r, (c, f)) in clean.iter().zip(&faulty).enumerate() {
                assert_eq!(
                    c, f,
                    "{algo:?} seed {seed}: rank {r}'s collective results diverged \
                     from the fault-free run"
                );
            }
        }
        let delta = instrument::global().delta(&before);
        assert!(
            delta.get("fault.ctrl_drop").copied().unwrap_or(0) > 0,
            "{algo:?}: the campaign never exercised a control drop: {delta:?}"
        );
        let retries: u64 = delta
            .iter()
            .filter(|(k, _)| k.starts_with("retry."))
            .map(|(_, v)| *v)
            .sum();
        assert!(
            retries > 0,
            "{algo:?}: dropped control packets must surface as retransmissions: {delta:?}"
        );
    }
}

#[test]
fn faulty_collective_campaign_is_deterministic() {
    let (end_a, data_a) = coll_campaign(CollAlgo::Hier, PPN, Some(faulty_spec(42)));
    let (end_b, data_b) = coll_campaign(CollAlgo::Hier, PPN, Some(faulty_spec(42)));
    assert_eq!(end_a, end_b, "same seed must replay the same virtual time");
    assert_eq!(data_a, data_b, "same seed must replay the same data");
}

/// FNV-1a over every rank's digest, in rank order.
fn digest_hash(digests: &[Vec<u8>]) -> u64 {
    digests
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What every family must deliver (the data does not depend on the
/// algorithm, the placement or the fault schedule).
const PINNED_DIGEST: u64 = 17274530444186148282;

/// `(family, ppn, faulty, end of the campaign in virtual ns)`, captured at
/// the commit before `coll/` was rewritten in the `Coll`/`Blocks`/`Tree`
/// vocabulary. No other committed number pins the virtual time of bcast,
/// gather, scatter, allgatherv or rooted reduce. To re-capture on purpose,
/// run this test: its failure message is the new table.
const PINNED_END_NS: [(CollAlgo, usize, bool, u64); 12] = [
    (CollAlgo::Naive, 1, false, 2289500),
    (CollAlgo::Naive, 1, true, 4957080),
    (CollAlgo::Naive, 4, false, 2308181),
    (CollAlgo::Naive, 4, true, 3491434),
    (CollAlgo::Flat, 1, false, 2053590),
    (CollAlgo::Flat, 1, true, 5601220),
    (CollAlgo::Flat, 4, false, 2125519),
    (CollAlgo::Flat, 4, true, 5612586),
    (CollAlgo::Hier, 1, false, 2053590),
    (CollAlgo::Hier, 1, true, 5601220),
    (CollAlgo::Hier, 4, false, 2276715),
    (CollAlgo::Hier, 4, true, 3050140),
];

#[test]
fn collective_virtual_times_are_pinned() {
    let mut got = Vec::new();
    for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
        for ppn in [1, PPN] {
            for faulty in [false, true] {
                let (end, digests) = coll_campaign(algo, ppn, faulty.then(|| faulty_spec(11)));
                assert_eq!(
                    digest_hash(&digests),
                    PINNED_DIGEST,
                    "{algo:?} ppn {ppn} faulty {faulty}: delivered bytes changed"
                );
                got.push((algo, ppn, faulty, end.as_nanos()));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(a, p, f, ns)| format!("    (CollAlgo::{a:?}, {p}, {f}, {ns}),\n"))
        .collect();
    assert!(
        got == PINNED_END_NS,
        "a collective's virtual time moved; the table is now\n{table}"
    );
}

/// A collective whose retry budget runs out must end the job with the
/// typed error under the collective's MPI name — as `MPI_Send` does — not
/// return as if it had succeeded and leave the world to deadlock.
#[test]
fn exhausted_retries_surface_from_a_collective() {
    for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
        // Total control-packet loss: the root's rendezvous RTS can never be
        // answered, and its retry budget runs out.
        let mut cfg = MpiConfig::default();
        cfg.coll.algo = algo;
        let spec = FaultSpec {
            ctrl_drop: 1.0,
            ..FaultSpec::seeded(8)
        };
        let world = MpiWorld::new(2).with_config(cfg).with_faults(spec);
        let out = world.try_run(|comm| {
            let byte = Datatype::byte();
            byte.commit();
            let buf = HostBuf::alloc(1 << 20);
            comm.bcast(buf.base(), 1 << 20, &byte, 0);
        });
        let msg = out
            .end
            .expect_err("every RTS is dropped; the bcast cannot succeed");
        assert!(
            msg.contains("MPI_Bcast failed") && msg.contains("retries exhausted"),
            "{algo:?}: the error must name the collective and its cause: {msg}"
        );
        assert!(
            !msg.contains("deadlock"),
            "{algo:?}: a failed collective must not surface as a hang: {msg}"
        );
        assert!(
            out.ranks.is_empty(),
            "{algo:?}: no rank may return from a bcast that failed"
        );
    }
}
