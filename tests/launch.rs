//! Cross-launcher identity: `MpiWorld` and `GpuCluster` describe a job
//! under two sets of builder names, but one launch path
//! (`MpiWorld::launch`) builds it. One host-buffer program run under both
//! must therefore end at the same virtual instant with the same per-rank
//! call counters, whichever knob is turned — and each knob must visibly
//! take effect, so that one dropped on *both* sides cannot hide. What the
//! ranks return comes back with the run ([`Outcome`]), in rank order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_nc_repro::ib_sim::{CtrlAction, CtrlPoint, DeliveryScheduler, FaultSpec, Topology};
use gpu_nc_repro::mpi_sim::{
    Comm, Datatype, MpiConfig, MpiWorld, Outcome, ReduceOp, Seat, SeededBug,
};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use sim_core::{ExecMode, Report, SanitizerMode, SimDur, SimTime};
use sim_trace::Recorder;

const RANKS: usize = 4;
/// The two messages of [`ping_pong`], one eager and one rendezvous.
const PING_PONG: [(u32, usize); 2] = [(0, 256), (1, 300 << 10)];

type Counters = BTreeMap<&'static str, u64>;
/// What [`program`] returns on one rank: the rank, the bytes it received,
/// its call counters.
type Seen = (usize, usize, Counters);

/// Eager + rendezvous ping-pong between rank pairs `(2k, 2k+1)`, then a
/// barrier, all on host buffers. Returns the bytes received.
fn ping_pong(comm: &Comm) -> usize {
    let byte = Datatype::byte();
    byte.commit();
    let (me, peer) = (comm.rank(), comm.rank() ^ 1);
    let mut received = 0;
    for (tag, len) in PING_PONG {
        let ping = HostBuf::from_vec(vec![me as u8 + 1; len]);
        let pong = HostBuf::alloc(len);
        if me.is_multiple_of(2) {
            comm.send(ping.base(), len, &byte, peer, tag);
            received += comm.recv(pong.base(), len, &byte, peer, tag).bytes;
        } else {
            received += comm.recv(pong.base(), len, &byte, peer, tag).bytes;
            comm.send(ping.base(), len, &byte, peer, tag);
        }
        assert_eq!(pong.read(0, len), vec![peer as u8 + 1; len]);
    }
    comm.barrier();
    received
}

/// [`ping_pong`] and an allreduce (host buffers, so `MpiWorld`'s host-only
/// communicator can run it).
fn program(comm: &Comm) -> Seen {
    let received = ping_pong(comm);
    let me = comm.rank();
    let int = Datatype::int();
    int.commit();
    let mine = HostBuf::from_vec(scalars_to_bytes(&[me as i32 + 1]));
    let sum = HostBuf::alloc(4);
    comm.allreduce(mine.base(), sum.base(), 1, &int, ReduceOp::Sum);
    assert_eq!(bytes_to_scalars::<i32>(&sum.read(0, 4)), vec![10]);
    (me, received, comm.counters().snapshot())
}

/// Drops the first wire control packet it is shown, delivers the rest.
#[derive(Default)]
struct DropFirst {
    calls: AtomicUsize,
}

impl DeliveryScheduler for DropFirst {
    fn on_ctrl(&self, point: &CtrlPoint<'_>) -> CtrlAction {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 && !point.shm {
            CtrlAction::Drop
        } else {
            CtrlAction::Deliver
        }
    }
}

/// The launch knob one case turns — on both launchers, under their own
/// names.
enum Knob {
    /// Nothing set: also covers the launchers' differing default recorders
    /// (off vs enabled), which must not move virtual time.
    Default,
    Ppn(usize),
    Topology(Topology),
    Exec(ExecMode),
    Faults(FaultSpec),
    CollectSanitizer,
    /// A drop-first scheduler (over a zero-probability fault spec, which
    /// only arms the retry timers the drop needs).
    DropFirstScheduler,
}

/// What one launch left behind.
#[derive(Debug, PartialEq)]
struct Observed {
    end: SimTime,
    /// What each rank returned, as the launcher ordered it.
    ranks: Vec<Seen>,
    /// Sanitizer reports, rendered.
    reports: Vec<String>,
    shm_bytes: u64,
    scheduler_calls: usize,
}

impl Observed {
    fn gather(out: Outcome<Seen>, rec: &Recorder, scheduler: &DropFirst) -> Observed {
        let (end, ranks, reports) = out.unwrap();
        let shm_bytes = rec
            .metrics()
            .iter()
            .filter(|(k, _)| k.ends_with(".shm.bytes"))
            .map(|(_, v)| v)
            .sum();
        Observed {
            end,
            ranks,
            reports: reports.iter().map(Report::to_string).collect(),
            shm_bytes,
            scheduler_calls: scheduler.calls.load(Ordering::SeqCst),
        }
    }

    fn retries(&self) -> u64 {
        self.ranks
            .iter()
            .flat_map(|(_, _, c)| c.iter())
            .filter(|(k, _)| k.starts_with("retry."))
            .map(|(_, v)| v)
            .sum()
    }
}

fn under_world(knob: &Knob) -> Observed {
    let (rec, scheduler) = (Recorder::new(), Arc::new(DropFirst::default()));
    let w = MpiWorld::new(RANKS);
    let w = match knob {
        Knob::Default => w,
        Knob::Ppn(ppn) => w.with_ppn(*ppn).with_recorder(rec.clone()),
        Knob::Topology(t) => w.with_topology(t.clone()).with_recorder(rec.clone()),
        Knob::Exec(mode) => w.with_exec(*mode),
        Knob::Faults(spec) => w.with_faults(spec.clone()),
        Knob::CollectSanitizer => w.with_sanitizer(SanitizerMode::Collect),
        Knob::DropFirstScheduler => w
            .with_faults(FaultSpec::seeded(3))
            .with_scheduler(scheduler.clone()),
    };
    Observed::gather(w.try_run(|comm| program(&comm)), &rec, &scheduler)
}

fn under_cluster(knob: &Knob) -> Observed {
    let (rec, scheduler) = (Recorder::new(), Arc::new(DropFirst::default()));
    let c = GpuCluster::new(RANKS);
    let c = match knob {
        Knob::Default => c,
        Knob::Ppn(ppn) => c.ppn(*ppn).recorder(rec.clone()),
        Knob::Topology(t) => c.topology(t.clone()).recorder(rec.clone()),
        Knob::Exec(mode) => c.exec(*mode),
        Knob::Faults(spec) => c.faults(spec.clone()),
        Knob::CollectSanitizer => c.sanitizer(SanitizerMode::Collect),
        Knob::DropFirstScheduler => c.faults(FaultSpec::seeded(3)).scheduler(scheduler.clone()),
    };
    Observed::gather(c.try_run(|env| program(&env.comm)), &rec, &scheduler)
}

#[test]
fn both_launchers_build_the_same_world_for_every_knob() {
    let lossy = FaultSpec {
        ctrl_drop: 0.2,
        rdma_error: 0.1,
        ..FaultSpec::seeded(7)
    };
    let cases = [
        ("default", Knob::Default),
        ("ppn 2", Knob::Ppn(2)),
        (
            "round-robin topology",
            Knob::Topology(Topology::from_map(vec![0, 1, 0, 1])),
        ),
        ("thread carrier", Knob::Exec(ExecMode::Threads)),
        ("seeded faults", Knob::Faults(lossy)),
        ("collecting sanitizer", Knob::CollectSanitizer),
        ("drop-first scheduler", Knob::DropFirstScheduler),
    ];
    let baseline = under_world(&Knob::Default);
    for (name, knob) in &cases {
        let (world, cluster) = (under_world(knob), under_cluster(knob));
        assert_eq!(world, cluster, "{name}: the two launchers diverged");
        // Every rank's value came back, in rank order.
        let seen = world.ranks.iter().map(|(rank, bytes, _)| (*rank, *bytes));
        let bytes: usize = PING_PONG.iter().map(|(_, len)| len).sum();
        assert!(seen.eq((0..RANKS).map(|r| (r, bytes))), "{name}");
        assert!(world.reports.is_empty(), "{name}: {:?}", world.reports);
        // The knob took effect (a knob ignored by both launchers would
        // still compare equal above).
        match knob {
            Knob::Default | Knob::CollectSanitizer => {}
            Knob::Ppn(_) | Knob::Topology(_) => {
                assert!(world.shm_bytes > 0, "{name}: no co-located traffic");
                assert_ne!(world.end, baseline.end, "{name}: placement ignored");
            }
            // The carrier must *not* move virtual time or a counter.
            Knob::Exec(_) => assert_eq!(
                (world.end, &world.ranks),
                (baseline.end, &baseline.ranks),
                "{name}"
            ),
            Knob::Faults(_) => assert!(world.retries() > 0, "{name}: nothing retried"),
            Knob::DropFirstScheduler => {
                assert!(world.scheduler_calls > 0, "{name}: scheduler never asked");
                assert!(world.retries() > 0, "{name}: the drop was not recovered");
            }
        }
    }
}

#[test]
fn a_panicking_rank_reports_the_same_message_from_both_launchers() {
    let boom = |rank: usize| {
        if rank == 1 {
            panic!("rank {rank} gives up");
        }
    };
    let world = MpiWorld::new(2).try_run(move |comm| boom(comm.rank())).end;
    let cluster = GpuCluster::new(2)
        .try_run(move |env| boom(env.comm.rank()))
        .end;
    let message = world.expect_err("the world must report the panic");
    assert!(message.contains("rank 1 gives up"), "{message}");
    assert_eq!(Err(message), cluster);
}

/// A job that dies still returns: `end` carries the panic's message,
/// `reports` what the collecting sanitizer had seen by then (here the
/// oversized shm eager payload of `SeededBug::ShmEagerOversize`), and
/// `ranks` only the ranks that had returned — from both launchers alike.
#[test]
fn a_run_that_dies_returns_its_message_its_reports_and_the_ranks_that_finished() {
    fn body(comm: &Comm) -> usize {
        let byte = Datatype::byte();
        byte.commit();
        let n = 40 << 10; // eager only under the seeded bug
        if comm.rank() == 0 {
            comm.send(HostBuf::from_vec(vec![5u8; n]).base(), n, &byte, 1, 0);
        } else {
            comm.recv(HostBuf::alloc(n).base(), n, &byte, 0, 0);
            panic!("rank 1 gives up after {n} bytes");
        }
        comm.rank()
    }
    let cfg = MpiConfig {
        seeded_bug: Some(SeededBug::ShmEagerOversize),
        ppn: 2,
        ..MpiConfig::default()
    };
    let world = MpiWorld::new(2)
        .with_config(cfg.clone())
        .with_sanitizer(SanitizerMode::Collect)
        .try_run(|comm| body(&comm));
    let cluster = GpuCluster::new(2)
        .mpi_config(cfg)
        .sanitizer(SanitizerMode::Collect)
        .try_run(|env| body(&env.comm));
    for (name, out) in [("world", world), ("cluster", cluster)] {
        let message = out.end.expect_err("the run must report the panic");
        assert!(message.contains("rank 1 gives up after 40960"), "{name}");
        let reports: Vec<String> = out.reports.iter().map(Report::to_string).collect();
        assert!(
            reports
                .iter()
                .any(|r| r.contains("exceeds the eager limit")),
            "{name}: {reports:?}"
        );
        assert!(out.ranks.len() < 2, "{name}: {:?}", out.ranks);
    }
}

/// A finished world is freed, not leaked: whatever `setup` hung on the
/// kernel is dropped with it once `launch` returns. (It used to survive —
/// process handles parked in mailbox waiter lists and un-fired timers kept
/// the kernel alive from inside — so a benchmark's peak RSS grew with its
/// rep count.) `GpuCluster` and `run_mix` launch through the same kernel.
#[test]
fn a_finished_world_is_freed() {
    let sentinel = Arc::new(());
    let held = Arc::clone(&sentinel);
    // A timer far past the job's end: `run` returns with it un-fired, so
    // only the kernel's own drop releases what its closure holds.
    let never = SimTime::ZERO + SimDur::from_millis(3_600_000);
    let out = MpiWorld::new(2).launch(
        move |sim, _, _| sim.schedule_at(never, move || drop(held)),
        |(), s: Seat| {
            let comm = Comm::create_traced(s.nic, s.rank, s.size, s.cfg, None, &s.recorder);
            ping_pong(&comm);
            comm.finalize();
        },
    );
    out.end.expect("the world runs to completion");
    assert_eq!(
        Arc::strong_count(&sentinel),
        1,
        "the kernel outlived launch"
    );
}
