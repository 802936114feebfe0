//! Cross-carrier identity: the event-driven kernel ([`ExecMode::Event`],
//! fibers on one kernel thread) and the legacy all-threads kernel
//! ([`ExecMode::Threads`], one OS thread per rank) must be two carriers
//! of the *same* simulation. Every virtual time, every trace event, every
//! model-checking decision — and the kernel's own scheduling-grant
//! sequence — must be byte-identical between the two.
//!
//! The suite covers the four result families the repo commits:
//! pipeline-style staged transfers (`BENCH_pipeline.json`), recorder
//! traces (`trace_report.json`), fault-injection runs
//! (`fault_campaign.json`) and model-check exploration
//! (`modelcheck.json`).

use std::sync::Arc;

use hostmem::HostBuf;
use mpi_sim::{ChunkPolicy, Datatype, MpiConfig, MpiWorld};
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::{FaultSpec, GpuCluster, WakeTraceSink};
use sim_core::{ExecMode, SanitizerMode, SimTime, WakeEvent};
use sim_trace::Recorder;
use simcheck::{explore, Budget, CheckScheduler, RunOutcome, Scenario, Schedule};

/// A staged (rendezvous-path) vector transfer between two GPU ranks:
/// rank 0 fills and sends, rank 1 receives and verifies, both record
/// per-iteration virtual latencies. Returns (per-iteration latencies in
/// ns, virtual end-of-job time).
fn staged_vector_run(
    mode: ExecMode,
    sink: Option<WakeTraceSink>,
    faults: Option<FaultSpec>,
    recorder: Option<Recorder>,
) -> (Vec<u64>, SimTime) {
    let mut cluster = GpuCluster::new(2).exec(mode);
    if let Some(s) = sink {
        cluster = cluster.wake_trace(s);
    }
    if let Some(f) = faults {
        cluster = cluster.faults(f);
    }
    if let Some(r) = recorder {
        cluster = cluster.recorder(r);
    }
    let out = cluster.try_run(|env| {
        let x = VectorXfer::paper(256 << 10);
        let dt = x.dtype();
        let dev = env.gpu.malloc(x.extent());
        let mut lat = Vec::new();
        for it in 0..3u32 {
            env.comm.barrier();
            let t0 = sim_core::now();
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, it as u8);
                env.comm.send(dev, 1, &dt, 1, it);
            } else {
                env.comm.recv(dev, 1, &dt, 0, it);
                verify_vector(&env.gpu, dev, &x, it as u8);
                lat.push((sim_core::now() - t0).as_nanos());
            }
        }
        env.gpu.free(dev);
        lat
    });
    let (end, mut ranks, _) = out.unwrap();
    (ranks.swap_remove(1), end)
}

/// Pipeline case: staged transfers produce identical per-iteration
/// virtual latencies, end times and scheduling-grant traces across
/// carriers.
#[test]
fn pipeline_transfer_identity() {
    let ev_sink: WakeTraceSink = Arc::default();
    let th_sink: WakeTraceSink = Arc::default();
    let (ev_lat, ev_end) =
        staged_vector_run(ExecMode::Event, Some(Arc::clone(&ev_sink)), None, None);
    let (th_lat, th_end) =
        staged_vector_run(ExecMode::Threads, Some(Arc::clone(&th_sink)), None, None);

    assert_eq!(ev_lat, th_lat, "per-iteration latencies diverged");
    assert_eq!(ev_end, th_end, "virtual end time diverged");
    let ev = ev_sink.lock().unwrap();
    let th = th_sink.lock().unwrap();
    assert!(!ev.is_empty(), "no scheduling grants recorded");
    assert_eq!(*ev, *th, "wake traces diverged across carriers");
}

/// Trace case: with a live recorder attached, both carriers emit the
/// same lanes and the same event stream (spans, instants, gauges — all
/// virtual-time stamped).
#[test]
fn trace_identity() {
    let run = |mode| {
        let rec = Recorder::new();
        let (lat, end) = staged_vector_run(mode, None, None, Some(rec.clone()));
        (lat, end, rec)
    };
    let (ev_lat, ev_end, ev_rec) = run(ExecMode::Event);
    let (th_lat, th_end, th_rec) = run(ExecMode::Threads);

    assert_eq!(ev_lat, th_lat, "latencies diverged");
    assert_eq!(ev_end, th_end, "end time diverged");
    assert_eq!(
        format!("{:?}", ev_rec.lanes()),
        format!("{:?}", th_rec.lanes()),
        "lane registrations diverged"
    );
    let ev_events = ev_rec.events();
    let th_events = th_rec.events();
    assert!(!ev_events.is_empty(), "recorder captured nothing");
    assert_eq!(ev_events.len(), th_events.len(), "event counts diverged");
    for (i, (a, b)) in ev_events.iter().zip(th_events.iter()).enumerate() {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "trace event {i} diverged"
        );
    }
}

/// Fault-injection case: seeded control-packet loss/delay and RDMA error
/// CQEs drive the retry machinery; recovery must replay identically —
/// same virtual times, same grant sequence, same delivered bytes (the
/// run verifies data in-line).
#[test]
fn fault_injection_identity() {
    let spec = FaultSpec {
        ctrl_drop: 0.05,
        ctrl_delay: 0.10,
        delay_ns: 30_000,
        rdma_error: 0.02,
        ..FaultSpec::seeded(7)
    };
    let ev_sink: WakeTraceSink = Arc::default();
    let th_sink: WakeTraceSink = Arc::default();
    let (ev_lat, ev_end) = staged_vector_run(
        ExecMode::Event,
        Some(Arc::clone(&ev_sink)),
        Some(spec.clone()),
        None,
    );
    let (th_lat, th_end) = staged_vector_run(
        ExecMode::Threads,
        Some(Arc::clone(&th_sink)),
        Some(spec),
        None,
    );

    assert_eq!(ev_lat, th_lat, "faulty-run latencies diverged");
    assert_eq!(ev_end, th_end, "faulty-run end time diverged");
    let ev = ev_sink.lock().unwrap();
    let th = th_sink.lock().unwrap();
    assert_eq!(*ev, *th, "faulty-run wake traces diverged");
}

/// One 256-rank hierarchical collective job under `mode`: a 64-node
/// (ppn = 4) layout chains barrier → allreduce → alltoallv with the
/// node-leader algorithms. Returns the virtual end time, every rank's
/// received bytes, and the trace event stream.
fn collective_256rank_run(mode: ExecMode) -> (SimTime, Vec<Vec<u8>>, Vec<String>) {
    let n = 256usize;
    let rec = Recorder::new();
    let mut cfg = MpiConfig {
        ppn: 4,
        ..MpiConfig::default()
    };
    cfg.coll.algo = mpi_sim::CollAlgo::Hier;
    let out = MpiWorld::new(n)
        .with_config(cfg)
        .with_exec(mode)
        .with_recorder(rec.clone())
        .try_run(move |comm| {
            let me = comm.rank();
            let f32t = Datatype::float();
            f32t.commit();
            let term = |r: usize, k: usize| ((r * 13 + k * 7) % 17) as f32 - 8.0;
            let mut digest: Vec<u8> = Vec::new();

            comm.barrier();

            // Allreduce: 256 f32, summed through the leader fan-in tree.
            let rn = 256usize;
            let vals: Vec<f32> = (0..rn).map(|k| term(me, k)).collect();
            let send = HostBuf::from_vec(hostmem::scalars_to_bytes(&vals));
            let recv = HostBuf::alloc(rn * 4);
            comm.allreduce(send.base(), recv.base(), rn, &f32t, mpi_sim::ReduceOp::Sum);
            let got = hostmem::bytes_to_scalars::<f32>(&recv.read(0, rn * 4));
            let want: f32 = (0..n).map(|r| term(r, 0)).sum();
            assert_eq!(got[0], want, "allreduce wrong on rank {me}");
            digest.extend(recv.read(0, rn * 4));

            // Alltoallv: 4 f32 per pair, leader-aggregated wire messages.
            let cnt = 4usize;
            let counts = vec![cnt; n];
            let displs: Vec<usize> = (0..n).map(|j| j * cnt * 4).collect();
            let tvals: Vec<f32> = (0..n * cnt).map(|k| term(me, k)).collect();
            let tsend = HostBuf::from_vec(hostmem::scalars_to_bytes(&tvals));
            let trecv = HostBuf::alloc(n * cnt * 4);
            comm.alltoallv(
                tsend.base(),
                &counts,
                &displs,
                &f32t,
                trecv.base(),
                &counts,
                &displs,
                &f32t,
            );
            digest.extend(trecv.read(0, n * cnt * 4));

            digest
        });
    let (end, digests, _) = out.unwrap();
    let events = rec.events().iter().map(|e| format!("{e:?}")).collect();
    (end, digests, events)
}

/// Collectives case at scale: a 256-rank hierarchical job must be two
/// carriers of the same simulation — identical virtual end time,
/// identical delivered bytes on every rank, identical trace streams.
#[test]
fn collective_identity_at_256_ranks() {
    let (ev_end, ev_data, ev_events) = collective_256rank_run(ExecMode::Event);
    let (th_end, th_data, th_events) = collective_256rank_run(ExecMode::Threads);
    assert_eq!(ev_end, th_end, "256-rank collective end time diverged");
    assert_eq!(ev_data, th_data, "256-rank collective data diverged");
    assert!(!ev_events.is_empty(), "recorder captured nothing");
    assert_eq!(
        ev_events.len(),
        th_events.len(),
        "trace event counts diverged"
    );
    for (i, (a, b)) in ev_events.iter().zip(th_events.iter()).enumerate() {
        assert_eq!(a, b, "trace event {i} diverged across carriers");
    }
}

/// One model-check workload run under `mode`: a staged 64 KiB vector
/// transfer over a checker-scheduled, retry-armed fabric (the same shape
/// as `scenarios::staged_2rank`, with the carrier pinned explicitly).
fn checked_staged_run(mode: ExecMode, schedule: &Schedule) -> RunOutcome {
    let checker = CheckScheduler::new(schedule.clone());
    let world = MpiWorld::new(2)
        .with_exec(mode)
        .with_config(MpiConfig {
            chunk_size: 16 << 10,
            policy: ChunkPolicy::Fixed,
            ..MpiConfig::default()
        })
        .with_faults(FaultSpec::seeded(1))
        .with_sanitizer(SanitizerMode::Collect)
        .with_scheduler(checker.clone());
    let out = world.try_run(|comm| {
        let t = Datatype::vector(1 << 14, 1, 4, &Datatype::float());
        t.commit();
        if comm.rank() == 0 {
            let buf = HostBuf::from_vec((0..(1 << 18)).map(|i| (i % 249) as u8).collect());
            comm.send(buf.base(), 1, &t, 1, 3);
        } else {
            let buf = HostBuf::alloc(1 << 18);
            let st = comm.recv(buf.base(), 1, &t, 0, 3);
            assert_eq!(st.bytes, 64 << 10);
            for r in [0usize, 1, 1000, 16383] {
                let o = r * 16;
                let expect: Vec<u8> = (o..o + 4).map(|i| (i % 249) as u8).collect();
                assert_eq!(buf.read(o, 4), expect, "staged row {r} corrupted");
            }
        }
    });
    RunOutcome {
        end: out.end.map(|t| t.as_nanos()),
        reports: out.reports,
        log: checker.log(),
    }
}

/// Modelcheck case: exploration is a pure function of the schedule, so
/// the whole breadth-first search — schedule counts, POR pruning,
/// branch fan-out, deepest decision index — must match across carriers,
/// as must the FIFO run's decision log and end time.
#[test]
fn modelcheck_identity() {
    // The FIFO (empty-schedule) run, compared decision-by-decision.
    let fifo = Schedule::empty();
    let ev = checked_staged_run(ExecMode::Event, &fifo);
    let th = checked_staged_run(ExecMode::Threads, &fifo);
    assert_eq!(ev.end, th.end, "FIFO end time diverged");
    assert!(
        ev.violation().is_none(),
        "FIFO run violated: {ev:?}",
        ev = ev.violation()
    );
    assert!(!ev.log.is_empty(), "checker ruled on no packets");
    assert_eq!(ev.log.len(), th.log.len(), "decision counts diverged");
    for (i, (a, b)) in ev.log.iter().zip(th.log.iter()).enumerate() {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "decision {i} diverged across carriers"
        );
    }

    // A bounded exploration from each carrier: identical search trees.
    simcheck::silence_expected_panics();
    let scenario = |mode: ExecMode| Scenario {
        name: "event-identity-staged",
        budget: Budget::smoke(),
        run: Box::new(move |schedule, _rec| checked_staged_run(mode, schedule)),
    };
    let ev = explore(&scenario(ExecMode::Event));
    let th = explore(&scenario(ExecMode::Threads));
    assert!(ev.passed(), "event-carrier exploration found a violation");
    assert!(th.passed(), "thread-carrier exploration found a violation");
    assert_eq!(
        ev.stats.schedules, th.stats.schedules,
        "schedule counts diverged"
    );
    assert_eq!(ev.stats.pruned, th.stats.pruned, "POR pruning diverged");
    assert_eq!(
        ev.stats.branched, th.stats.branched,
        "branch fan-out diverged"
    );
    assert_eq!(
        ev.stats.max_index, th.stats.max_index,
        "max decision index diverged"
    );
    assert!(
        ev.stats.schedules > 1,
        "exploration degenerate: one schedule"
    );
}

/// A host-only job that takes both routes: rank 0 sends a strided 64 KiB
/// `vector` to rank 2 on the other node (staged rendezvous over the HCA)
/// while the two ranks of each node swap an eager message over shm.
fn two_route_world_trace(mode: ExecMode) -> Vec<WakeEvent> {
    let sink: WakeTraceSink = Arc::default();
    MpiWorld::new(4)
        .with_ppn(2)
        .with_exec(mode)
        .with_wake_trace(Arc::clone(&sink))
        .run(|comm| {
            let me = comm.rank();
            let row = Datatype::vector(1 << 14, 1, 4, &Datatype::float());
            row.commit();
            let int = Datatype::int();
            int.commit();
            let big = HostBuf::from_vec((0..(1 << 18)).map(|i| (i % 251) as u8).collect());
            let (out, inb) = (HostBuf::from_vec(vec![me as u8; 64]), HostBuf::alloc(64));
            for lap in 0..3u32 {
                match me {
                    0 => comm.send(big.base(), 1, &row, 2, lap),
                    2 => assert_eq!(comm.recv(big.base(), 1, &row, 0, lap).bytes, 64 << 10),
                    _ => {}
                }
                let peer = me ^ 1;
                comm.sendrecv(
                    out.base(),
                    16,
                    &int,
                    peer,
                    lap,
                    inb.base(),
                    16,
                    &int,
                    peer,
                    lap,
                );
                assert_eq!(inb.read(0, 64), vec![peer as u8; 64]);
            }
        });
    let trace = sink.lock().unwrap().clone();
    trace
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What the ledger keeps of a wake trace: the grant count, a digest of
/// every grant's `(at, pid)` and one of `(seq, at, pid)`.
fn wake_digest(trace: &[WakeEvent]) -> (usize, u64, u64) {
    let at_pid = |w: &WakeEvent| [w.at.as_nanos(), w.pid as u64];
    (
        trace.len(),
        fnv(trace.iter().flat_map(at_pid)),
        fnv(trace
            .iter()
            .flat_map(|w| [w.seq, w.at.as_nanos(), w.pid as u64])),
    )
}

/// The committed grant order: `(script, grants, FNV of (at, pid), FNV of
/// (seq, at, pid))`. `None` where the script's seq stream is not pinned.
/// Captured at PR 21's tree; see `.claude/skills/verify/SKILL.md` for the
/// re-capture recipe.
const PINNED_WAKES: &[(&str, usize, u64, Option<u64>)] = &[
    (
        "world 4 ranks ppn 2",
        401,
        0xc8ad96efa8a449b6,
        Some(0x4b595df2be72a8d2),
    ),
    (
        "cluster 2 ranks staged vector",
        395,
        0xcc4ae5ccd1f2c93,
        None,
    ),
];

/// The grant order itself is committed, not only equal across carriers:
/// who ran, when, and (for the host-only world) at which admission seq.
/// A kernel, wire or launcher refactor must leave the table unedited.
#[test]
fn wake_traces_are_pinned() {
    let gpu_staged = |mode| {
        let sink: WakeTraceSink = Arc::default();
        staged_vector_run(mode, Some(Arc::clone(&sink)), None, None);
        let trace = sink.lock().unwrap().clone();
        trace
    };
    let mut got = Vec::new();
    for mode in [ExecMode::Event, ExecMode::Threads] {
        let (n, at_pid, seq) = wake_digest(&two_route_world_trace(mode));
        got.push(("world 4 ranks ppn 2", n, at_pid, Some(seq)));
        let (n, at_pid, _) = wake_digest(&gpu_staged(mode));
        got.push(("cluster 2 ranks staged vector", n, at_pid, None));
    }
    assert_eq!(got[..2], got[2..], "wake traces diverged across carriers");
    let rows: String = got[..2]
        .iter()
        .map(|(s, n, a, q)| {
            let q = q.map_or("None".to_string(), |q| format!("Some({q:#x})"));
            format!("    ({s:?}, {n}, {a:#x}, {q}),\n")
        })
        .collect();
    assert!(
        got[..2] == *PINNED_WAKES,
        "wake traces moved; if on purpose, PINNED_WAKES becomes\n&[\n{rows}]"
    );
}
