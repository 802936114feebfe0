//! Checkable workloads: one [`Scenario`] per control-plane protocol the
//! runtime implements, plus two with a known (reintroduced) bug.
//!
//! Every scenario arms the retry machinery with a zero-probability
//! [`FaultSpec`] — the fabric itself never injects a fault, so the
//! checker's `Drop`/`Delay` choices are the *only* source of
//! nondeterminism and every run is a pure function of its schedule. The
//! sanitizer runs in `Collect` mode with the protocol invariants
//! registered; workload bodies verify delivered bytes and panic on
//! mismatch, so data corruption surfaces as a violation too.

use hostmem::HostBuf;
use mpi_sim::{
    ChunkPolicy, CollAlgo, DataScheme, Datatype, FaultSpec, MpiConfig, MpiWorld, Outcome,
    SchemeSel, SeededBug, Topology,
};
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::GpuCluster;
use sim_core::{SanitizerMode, SimDur};

use crate::checker::CheckScheduler;
use crate::explore::{Budget, RunOutcome, Scenario};

/// Deterministic seed for the (zero-probability) fault spec that arms the
/// retry machinery.
const ARM_SEED: u64 = 1;

/// A finished run as the explorer reads it: the launcher's verdict and
/// reports plus the decisions `checker` took.
fn verdict(out: Outcome<()>, checker: &CheckScheduler) -> RunOutcome {
    RunOutcome {
        end: out.end.map(|t| t.as_nanos()),
        reports: out.reports,
        log: checker.log(),
    }
}

/// A 64 KiB strided vector (16 Ki rows of 4 bytes, stride 16) in a 256 KiB
/// buffer — always takes the staged (vbuf) rendezvous path.
fn staged_dtype() -> Datatype {
    let t = Datatype::vector(1 << 14, 1, 4, &Datatype::float());
    t.commit();
    t
}

fn verify_staged_rows(buf: &HostBuf) {
    for r in [0usize, 1, 1000, 16383] {
        let o = r * 16;
        let expect: Vec<u8> = (o..o + 4).map(|i| (i % 249) as u8).collect();
        assert_eq!(buf.read(o, 4), expect, "staged row {r} corrupted");
    }
}

/// Two ranks, one staged-rendezvous vector transfer (RTS → CTS window →
/// per-chunk FIN/CREDIT). The scenario with the richest control plane:
/// chunk-level flow control, FIN-NACK recovery, retransmits.
pub fn staged_2rank() -> Scenario {
    Scenario {
        name: "staged-2rank",
        budget: Budget::default_bounds(),
        run: Box::new(|schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let world = MpiWorld::new(2)
                .with_config(MpiConfig {
                    chunk_size: 16 << 10,
                    policy: ChunkPolicy::Fixed,
                    ..MpiConfig::default()
                })
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(|comm| {
                let t = staged_dtype();
                if comm.rank() == 0 {
                    let buf = HostBuf::from_vec((0..(1 << 18)).map(|i| (i % 249) as u8).collect());
                    comm.send(buf.base(), 1, &t, 1, 3);
                } else {
                    let buf = HostBuf::alloc(1 << 18);
                    let st = comm.recv(buf.base(), 1, &t, 0, 3);
                    assert_eq!(st.bytes, 64 << 10);
                    verify_staged_rows(&buf);
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// Two ranks, one direct (R-PUT) rendezvous transfer of contiguous bytes
/// (RTS → CTS-direct → RDMA write → FIN-direct).
///
/// With `bug_finalize_quiesce` set, this reintroduces PR 3's liveness
/// bug: finalize skips the dissemination barrier, so the sender exits as
/// soon as its own transfers complete and stops answering retransmits. A
/// single dropped FIN-direct then strands the receiver — its CTS
/// retransmits go unanswered until the retry budget exhausts.
pub fn direct_2rank(bug_finalize_quiesce: bool) -> Scenario {
    Scenario {
        name: if bug_finalize_quiesce {
            "direct-2rank-finalize-bug"
        } else {
            "direct-2rank"
        },
        budget: Budget::default_bounds(),
        run: Box::new(move |schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let world = MpiWorld::new(2)
                .with_config(MpiConfig {
                    seeded_bug: bug_finalize_quiesce.then_some(SeededBug::FinalizeQuiesce),
                    ..MpiConfig::default()
                })
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(|comm| {
                let t = Datatype::byte();
                t.commit();
                let n = 300 << 10;
                if comm.rank() == 0 {
                    let buf = HostBuf::from_vec((0..n).map(|i| (i % 253) as u8).collect());
                    comm.send(buf.base(), n, &t, 1, 0);
                } else {
                    let buf = HostBuf::alloc(n);
                    let st = comm.recv(buf.base(), n, &t, 0, 0);
                    assert_eq!(st.bytes, n);
                    for i in [0usize, 1, n / 2, n - 1] {
                        assert_eq!(buf.read(i, 1)[0], (i % 253) as u8, "byte {i} corrupted");
                    }
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// Two co-located ranks, one small eager message over the shared-memory
/// channel. Eager messages carry their own payload and use no control
/// packets at all, so this scenario has **zero decision points**: the
/// exhaustive pass is the single FIFO run. Kept as an honest baseline —
/// it documents that the eager path has no control-plane state to
/// misorder.
pub fn shm_eager_2rank() -> Scenario {
    Scenario {
        name: "shm-eager-2rank",
        budget: Budget::default_bounds(),
        run: Box::new(|schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let world = MpiWorld::new(2)
                .with_ppn(2)
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(|comm| {
                let t = Datatype::byte();
                t.commit();
                let n = 4 << 10;
                if comm.rank() == 0 {
                    let buf = HostBuf::from_vec(vec![42u8; n]);
                    comm.send(buf.base(), n, &t, 1, 0);
                } else {
                    let buf = HostBuf::alloc(n);
                    let st = comm.recv(buf.base(), n, &t, 0, 0);
                    assert_eq!(st.bytes, n);
                    assert_eq!(buf.read(0, n), vec![42u8; n]);
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// Two co-located GPU ranks, one D2D device-to-device vector transfer
/// (RTS → CTS-dev → FIN-dev → CREDIT-dev, all over the reliable shm
/// channel — drops are impossible by construction, so only delays are
/// explored). The D2D handshake is strictly sequential (each packet is
/// sent only after the previous one is processed), so no two control
/// packets are ever concurrently in flight and partial-order reduction
/// collapses the exploration to the single FIFO schedule.
pub fn d2d_2rank() -> Scenario {
    Scenario {
        name: "d2d-2rank",
        budget: Budget {
            allow_drops: false,
            ..Budget::default_bounds()
        },
        run: Box::new(|schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let cluster = GpuCluster::new(2)
                .ppn(2)
                .faults(FaultSpec::seeded(ARM_SEED))
                .sanitizer(SanitizerMode::Collect)
                .recorder(rec.clone())
                .scheduler(checker.clone());
            let out = cluster.try_run(|env| {
                let x = VectorXfer::paper(64 << 10);
                let dev = env.gpu.malloc(x.extent());
                if env.comm.rank() == 0 {
                    fill_vector(&env.gpu, dev, &x, 11);
                    env.comm.send(dev, 1, &x.dtype(), 1, 0);
                } else {
                    env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                    verify_vector(&env.gpu, dev, &x, 11);
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// Three ranks, two staged transfers competing for a deliberately tiny
/// vbuf pool (4 vbufs → 2 receive-side, exactly one transfer's window).
///
/// Rank 1 sends immediately; rank 2 sends after a stagger long enough
/// that, under FIFO delivery, transfer 1 has completed and returned its
/// vbufs before rank 2's RTS arrives — so the FIFO run never defers a
/// CTS and passes even with `bug_deferred_cts` set. The checker exposes
/// the bug by dropping one of transfer 1's control packets: the
/// retransmit pushes transfer 1 past the stagger, the second RTS lands
/// on a drained pool, its CTS is deferred, and — with the bug — never
/// re-granted when the vbufs come back. The starved sender's RTS
/// retransmits exhaust their budget, which the checker reports.
pub fn deferred_cts(bug_deferred_cts: bool) -> Scenario {
    Scenario {
        name: if bug_deferred_cts {
            "deferred-cts-starvation-bug"
        } else {
            "deferred-cts"
        },
        budget: Budget {
            max_divergences: 1,
            ..Budget::default_bounds()
        },
        run: Box::new(move |schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let world = MpiWorld::new(3)
                .with_config(MpiConfig {
                    chunk_size: 16 << 10,
                    policy: ChunkPolicy::Fixed,
                    pool_vbufs: 4,
                    window_slots: 2,
                    seeded_bug: bug_deferred_cts.then_some(SeededBug::DeferredCts),
                    ..MpiConfig::default()
                })
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(|comm| match comm.rank() {
                0 => {
                    let t = staged_dtype();
                    let b1 = HostBuf::alloc(1 << 18);
                    let b2 = HostBuf::alloc(1 << 18);
                    let r1 = comm.irecv(b1.base(), 1, &t, 1, 1u32);
                    let r2 = comm.irecv(b2.base(), 1, &t, 2, 2u32);
                    comm.waitall(vec![r1, r2]);
                    verify_staged_rows(&b1);
                    verify_staged_rows(&b2);
                }
                r => {
                    let t = staged_dtype();
                    if r == 2 {
                        // Past transfer 1's FIFO completion, well short of
                        // one retransmit timeout (200us).
                        sim_core::sleep(SimDur::from_micros(150));
                    }
                    let buf = HostBuf::from_vec((0..(1 << 18)).map(|i| (i % 249) as u8).collect());
                    comm.send(buf.base(), 1, &t, 0, r as u32);
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// Three ranks on two nodes (`[0, 0, 1]`), one hierarchical gather to
/// rank 0 — the node-leader **fan-in** under the checker. Rank 1's block
/// reaches its co-located leader (rank 0) over the reliable shm channel
/// (eager, no control packets), while rank 2 — its own node's leader —
/// ships its aggregated block over the wire as a direct rendezvous
/// (RTS → CTS-direct → RDMA write → FIN-direct), all of whose control
/// packets the checker may drop or delay. The retry machinery must
/// deliver the gather bit-exactly under every explored schedule.
///
/// Not part of [`protocol_scenarios`] — the committed `modelcheck.json`
/// baseline predates the hierarchical collectives and must stay
/// bit-identical; `tests/coll_check.rs` explores this one directly.
pub fn hier_fanin_3rank() -> Scenario {
    Scenario {
        name: "hier-fanin-3rank",
        budget: Budget::default_bounds(),
        run: Box::new(|schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let mut cfg = MpiConfig::default();
            cfg.coll.algo = CollAlgo::Hier;
            let world = MpiWorld::new(3)
                .with_topology(Topology::from_map(vec![0, 0, 1]))
                .with_config(cfg)
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(|comm| {
                let byte = Datatype::byte();
                byte.commit();
                // 16 KiB per rank: past the 8 KiB inter-node eager limit
                // (so the leader's wire leg is rendezvous) and inside the
                // 32 KiB shm eager window (so the intra-node fan-in stays
                // control-free).
                let n = 16 << 10;
                let me = comm.rank();
                let send =
                    HostBuf::from_vec((0..n).map(|i| ((i * 3 + me * 7) % 251) as u8).collect());
                let recv = HostBuf::alloc(n * 3);
                comm.gather(send.base(), recv.base(), n, &byte, 0);
                if me == 0 {
                    for r in 0..3usize {
                        let block = recv.read(r * n, n);
                        for i in [0usize, 1, n / 2, n - 1] {
                            assert_eq!(
                                block[i],
                                ((i * 3 + r * 7) % 251) as u8,
                                "gather block {r} byte {i} corrupted"
                            );
                        }
                    }
                }
            });
            verdict(out, &checker)
        }),
    }
}

/// NIC-offloaded rendezvous transfers of the staged-path vector into rank
/// 1 from every other rank of an `n`-rank world (RTS advertising the
/// gather descriptor → CTS-offload carrying the receiver's key and scatter
/// descriptor → one scatter/gather RDMA post → FIN-offload). Every control
/// packet crosses the wire, so the checker may drop or delay each of them;
/// the retry machinery (RTS retransmit, CTS-offload watchdog, FIN
/// re-announce from the completed-send record) must deliver the strided
/// payload bit-exactly under every explored schedule. With two senders,
/// rank 1's receives wait in the rput phase together, so a stale
/// CTS-offload or FIN-offload of one transfer arrives while the other's
/// receive is live: the engine must judge it against the request it names.
///
/// Not part of [`protocol_scenarios`] — the committed `modelcheck.json`
/// baseline predates the offload scheme and must stay bit-identical;
/// `tests/schemes.rs` explores these directly.
fn offload(name: &'static str, n: usize) -> Scenario {
    Scenario {
        name,
        budget: Budget::default_bounds(),
        run: Box::new(move |schedule, rec| {
            let checker = CheckScheduler::new(schedule.clone());
            let world = MpiWorld::new(n)
                .with_config(MpiConfig {
                    scheme: SchemeSel::Force(DataScheme::NicOffload),
                    ..MpiConfig::default()
                })
                .with_faults(FaultSpec::seeded(ARM_SEED))
                .with_sanitizer(SanitizerMode::Collect)
                .with_recorder(rec.clone())
                .with_scheduler(checker.clone());
            let out = world.try_run(move |comm| {
                let t = staged_dtype();
                if comm.rank() != 1 {
                    let buf = HostBuf::from_vec((0..(1 << 18)).map(|i| (i % 249) as u8).collect());
                    return comm.send(buf.base(), 1, &t, 1, 3);
                }
                let bufs: Vec<HostBuf> = (1..n).map(|_| HostBuf::alloc(1 << 18)).collect();
                let peers = (0..n).filter(|&r| r != 1);
                let reqs = (peers.zip(&bufs)).map(|(r, b)| comm.irecv(b.base(), 1, &t, r, 3u32));
                for st in comm.waitall(reqs.collect()) {
                    assert_eq!(st.expect("a receive status").bytes, 64 << 10);
                }
                bufs.iter().for_each(verify_staged_rows);
            });
            verdict(out, &checker)
        }),
    }
}

/// One offloaded transfer, rank 0 → rank 1.
pub fn offload_2rank() -> Scenario {
    offload("offload-2rank", 2)
}

/// Two offloaded transfers at once, ranks 0 and 2 → rank 1.
pub fn offload_3rank() -> Scenario {
    offload("offload-3rank", 3)
}

/// The four protocol scenarios that must pass exhaustively, in the order
/// they are reported.
pub fn protocol_scenarios() -> Vec<Scenario> {
    vec![
        staged_2rank(),
        direct_2rank(false),
        shm_eager_2rank(),
        d2d_2rank(),
        deferred_cts(false),
    ]
}

/// The two bug scenarios the checker must find counterexamples for.
pub fn bug_scenarios() -> Vec<Scenario> {
    vec![direct_2rank(true), deferred_cts(true)]
}

/// Re-run a serialized counterexample schedule under `scenario`,
/// returning the outcome (used by replay tests and the CLI).
pub fn replay(scenario: &Scenario, schedule_text: &str) -> Result<RunOutcome, String> {
    let schedule = crate::schedule::Schedule::parse(schedule_text)?;
    Ok(scenario.run_once(&schedule))
}

/// Convenience: look a scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    protocol_scenarios()
        .into_iter()
        .chain(bug_scenarios())
        .chain(std::iter::once(hier_fanin_3rank()))
        .chain([offload_2rank(), offload_3rank()])
        .find(|s| s.name == name)
}
