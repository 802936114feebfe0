//! Cross-launcher identity: `MpiWorld` and `GpuCluster` describe a job
//! under two sets of builder names, but one launch path
//! (`MpiWorld::launch`) builds it. One host-buffer program run under both
//! must therefore end at the same virtual instant with the same per-rank
//! call counters, whichever knob is turned — and each knob must visibly
//! take effect, so that one dropped on *both* sides cannot hide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_nc_repro::ib_sim::{CtrlAction, CtrlPoint, DeliveryScheduler, FaultSpec, Topology};
use gpu_nc_repro::mpi_sim::{Comm, Datatype, MpiWorld, ReduceOp, Seat};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use sim_core::lock::Mutex;
use sim_core::{ExecMode, Report, SanitizerMode, SimDur, SimTime};
use sim_trace::Recorder;

const RANKS: usize = 4;

type Counters = BTreeMap<&'static str, u64>;
type Sink = Arc<Mutex<Vec<(usize, Counters)>>>;

/// Eager + rendezvous ping-pong between rank pairs `(2k, 2k+1)`, then a
/// barrier, all on host buffers.
fn ping_pong(comm: &Comm) {
    let byte = Datatype::byte();
    byte.commit();
    let (me, peer) = (comm.rank(), comm.rank() ^ 1);
    for (tag, len) in [(0u32, 256usize), (1, 300 << 10)] {
        let ping = HostBuf::from_vec(vec![me as u8 + 1; len]);
        let pong = HostBuf::alloc(len);
        if me.is_multiple_of(2) {
            comm.send(ping.base(), len, &byte, peer, tag);
            comm.recv(pong.base(), len, &byte, peer, tag);
        } else {
            comm.recv(pong.base(), len, &byte, peer, tag);
            comm.send(ping.base(), len, &byte, peer, tag);
        }
        assert_eq!(pong.read(0, len), vec![peer as u8 + 1; len]);
    }
    comm.barrier();
}

/// [`ping_pong`] and an allreduce (host buffers, so `MpiWorld`'s host-only
/// communicator can run it). Leaves the rank's call counters in `sink`.
fn program(comm: &Comm, sink: &Sink) {
    ping_pong(comm);
    let me = comm.rank();
    let int = Datatype::int();
    int.commit();
    let mine = HostBuf::from_vec(scalars_to_bytes(&[me as i32 + 1]));
    let sum = HostBuf::alloc(4);
    comm.allreduce(mine.base(), sum.base(), 1, &int, ReduceOp::Sum);
    assert_eq!(bytes_to_scalars::<i32>(&sum.read(0, 4)), vec![10]);
    sink.lock().push((me, comm.counters().snapshot()));
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
    /// Per-rank `Comm::counters()` snapshots, in rank order.
    counters: Vec<(usize, Counters)>,
    /// Sanitizer reports, rendered.
    reports: Vec<String>,
    shm_bytes: u64,
    scheduler_calls: usize,
}

impl Observed {
    fn gather(
        (end, reports): (SimTime, Vec<Report>),
        sink: Sink,
        rec: &Recorder,
        scheduler: &DropFirst,
    ) -> Observed {
        let mut counters = std::mem::take(&mut *sink.lock());
        counters.sort_by_key(|(rank, _)| *rank);
        let shm_bytes = rec
            .metrics()
            .iter()
            .filter(|(k, _)| k.ends_with(".shm.bytes"))
            .map(|(_, v)| v)
            .sum();
        Observed {
            end,
            counters,
            reports: reports.iter().map(Report::to_string).collect(),
            shm_bytes,
            scheduler_calls: scheduler.calls.load(Ordering::SeqCst),
        }
    }

    fn retries(&self) -> u64 {
        self.counters
            .iter()
            .flat_map(|(_, c)| c.iter())
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
    let sink = Sink::default();
    let out = Arc::clone(&sink);
    let ran = w.run_with_reports(move |comm| program(&comm, &out));
    Observed::gather(ran, sink, &rec, &scheduler)
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
    let sink = Sink::default();
    let out = Arc::clone(&sink);
    let ran = c.run_with_reports(move |env| program(&env.comm, &out));
    Observed::gather(ran, sink, &rec, &scheduler)
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
        assert_eq!(world.counters.len(), RANKS, "{name}");
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
                (world.end, &world.counters),
                (baseline.end, &baseline.counters),
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
    let (world, _) = MpiWorld::new(2).try_run_with_reports(move |comm| boom(comm.rank()));
    let (cluster, _) = GpuCluster::new(2).try_run_with_reports(move |env| boom(env.comm.rank()));
    let message = world.expect_err("the world must report the panic");
    assert!(message.contains("rank 1 gives up"), "{message}");
    assert_eq!(Err(message), cluster);
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
    let (ran, _) = MpiWorld::new(2).launch(
        move |sim, _, _| sim.schedule_at(never, move || drop(held)),
        |(), s: Seat| {
            let no_stagers = Arc::new(Vec::new());
            let comm = Comm::create_traced(s.nic, s.rank, s.size, s.cfg, no_stagers, &s.recorder);
            ping_pong(&comm);
            comm.finalize();
        },
    );
    ran.expect("the world runs to completion");
    assert_eq!(
        Arc::strong_count(&sentinel),
        1,
        "the kernel outlived launch"
    );
}
