//! The job launcher — the one place a description of a simulated job
//! becomes a running one.
//!
//! [`MpiWorld`] is the description: rank count, placement, MPI
//! configuration, carrier, sanitizer, faults, recorder,
//! delivery scheduler and wake-trace sink. [`MpiWorld::launch`] is the only
//! code that acts on it: it creates the [`Sim`], builds the fabric, attaches
//! recorder and scheduler, spawns one `rank{r}` process per rank, gathers
//! what each rank's main returned and turns a panic anywhere in the job
//! into `Err(message)`: one [`Outcome`]. A caller supplies two pieces: a
//! once-per-world *set-up* (where per-node hardware is built, before any
//! rank exists) and a per-rank *main* that receives the set-up's result and
//! the rank's [`Seat`]. Host-only MPI ([`MpiWorld::try_run`]) is `launch`
//! with an empty set-up; `mv2_gpu_nc::GpuCluster` is `launch` with one GPU
//! per node.
//!
//! Registration order is observable (trace lane ids are dense in
//! first-registration order) and fixed here: fabric lanes, whatever the
//! set-up registers, then the ranks in rank order.

use std::sync::Arc;

use ib_sim::{DeliveryScheduler, Fabric, FaultSpec, NetModel, Nic, ShmModel, Topology};
use sim_core::lock::Mutex;
use sim_core::{ExecMode, Report, SanitizerMode, Sim, SimTime, WakeEvent};
use sim_trace::Recorder;

use crate::comm::Comm;
use crate::proto::{ChunkPolicy, MpiConfig};

/// Shared sink for a run's scheduling-grant trace (see
/// [`MpiWorld::with_wake_trace`]).
pub type WakeTraceSink = Arc<std::sync::Mutex<Vec<WakeEvent>>>;

/// What a launched job left behind.
pub struct Outcome<T> {
    /// The virtual time the last rank finished, or the message of the panic
    /// that ended the job (protocol violation, sanitizer in `Panic` mode,
    /// deadlock, `MPI_Wait` failure): how a model checker observes a
    /// schedule's verdict without tearing down its own process.
    pub end: Result<SimTime, String>,
    /// What each rank's main returned, in rank order: one per rank when
    /// `end` is `Ok`, only the ranks that had returned when it is `Err`.
    pub ranks: Vec<T>,
    /// The sanitizer reports collected up to the end, panic or not (empty
    /// when the sanitizer is off).
    pub reports: Vec<Report>,
}

impl<T> Outcome<T> {
    /// The finished job as `(end, ranks, reports)`; a job that panicked
    /// panics again here, with its message.
    pub fn unwrap(self) -> (SimTime, Vec<T>, Vec<Report>) {
        match self.end {
            Ok(end) => (end, self.ranks, self.reports),
            Err(msg) => std::panic::panic_any(msg),
        }
    }
}

/// One rank's seat in a launched job: what [`MpiWorld::launch`] hands the
/// per-rank main to build its communicator from.
pub struct Seat {
    /// The rank's fabric endpoint.
    pub nic: Nic,
    /// This rank.
    pub rank: usize,
    /// Ranks in the job.
    pub size: usize,
    /// The job's MPI configuration.
    pub cfg: MpiConfig,
    /// The job's trace recorder (shared across ranks and all sim layers).
    pub recorder: Recorder,
}

/// A simulated MPI job on a cluster of nodes. By default each rank gets
/// its own node (ppn = 1); [`with_ppn`](MpiWorld::with_ppn) or
/// [`with_topology`](MpiWorld::with_topology) place several ranks per node,
/// where they share one HCA and talk over the shared-memory channel.
pub struct MpiWorld {
    n: usize,
    topo: Option<Topology>,
    cfg: MpiConfig,
    /// Whether `with_ppn` / `with_block_size` set `cfg`'s placement or
    /// block size: `with_config` may not silently replace either.
    ppn_set: bool,
    block_set: bool,
    sanitizer: SanitizerMode,
    faults: Option<FaultSpec>,
    recorder: Recorder,
    scheduler: Option<Arc<dyn DeliveryScheduler>>,
    exec: Option<ExecMode>,
    wake_sink: Option<WakeTraceSink>,
}

impl MpiWorld {
    /// A job of `n` ranks with default (QDR, MVAPICH2-like) settings and
    /// tracing off.
    pub fn new(n: usize) -> Self {
        MpiWorld {
            n,
            topo: None,
            cfg: MpiConfig::default(),
            ppn_set: false,
            block_set: false,
            sanitizer: SanitizerMode::Off,
            faults: None,
            recorder: Recorder::off(),
            scheduler: None,
            exec: None,
            wake_sink: None,
        }
    }

    /// Select the process carrier explicitly (see [`ExecMode`]): fibers on
    /// one kernel thread (`Event`, the default) or one OS thread per rank
    /// (`Threads`). Virtual-time results are identical either way.
    pub fn with_exec(mut self, mode: ExecMode) -> Self {
        self.exec = Some(mode);
        self
    }

    /// Record every scheduling grant of the run into `sink` (see
    /// [`sim_core::WakeEvent`]). The trace is carrier-independent — runs
    /// under [`ExecMode::Event`] and [`ExecMode::Threads`] must produce
    /// identical traces, which the scale sweep's smoke mode asserts.
    pub fn with_wake_trace(mut self, sink: WakeTraceSink) -> Self {
        self.wake_sink = Some(sink);
        self
    }

    /// Place `ppn` consecutive ranks on each node (blocked mapping: ranks
    /// `[k*ppn, (k+1)*ppn)` share node `k`). `ppn` must evenly divide the
    /// world size; checked at job launch.
    pub fn with_ppn(mut self, ppn: usize) -> Self {
        self.cfg.ppn = ppn;
        self.ppn_set = true;
        self
    }

    /// Use an explicit rank→node map instead of the blocked `ppn` layout
    /// (e.g. a round-robin placement). Overrides
    /// [`with_ppn`](MpiWorld::with_ppn).
    pub fn with_topology(mut self, topo: Topology) -> Self {
        self.topo = Some(topo);
        self
    }

    /// Record the job onto `rec`: every rank's protocol engine and every
    /// HCA transmit engine emit trace events (see the `sim-trace` crate).
    /// Pass [`Recorder::off`] to disable tracing entirely, or a clone of an
    /// enabled recorder to inspect lanes after the run (via
    /// [`sim_trace::chrome_trace`] or [`sim_trace::analysis`]).
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Override the MPI configuration. A `ppn` or block size set before by
    /// [`with_ppn`](MpiWorld::with_ppn) or
    /// [`with_block_size`](MpiWorld::with_block_size) is part of it: `cfg`
    /// must carry the same value, else this panics naming both (set it in
    /// `cfg`, or call the setter after this).
    pub fn with_config(mut self, cfg: MpiConfig) -> Self {
        let (old, new) = (&self.cfg, &cfg);
        assert!(
            !self.ppn_set || new.ppn == old.ppn,
            "with_config would replace ppn {} (set by with_ppn) with {}",
            old.ppn,
            new.ppn
        );
        let fixed = |c: &MpiConfig| (c.chunk_size, c.policy.clone());
        assert!(
            !self.block_set || fixed(new) == fixed(old),
            "with_config would replace block size {:?} (set by with_block_size) with {:?}",
            fixed(old),
            fixed(new)
        );
        self.cfg = cfg;
        self
    }

    /// Set the pipeline block size (the paper's `MV2_CUDA_BLOCK_SIZE`).
    ///
    /// Pins the chunk policy to [`ChunkPolicy::Fixed`] so ablations sweep
    /// exactly the requested block size instead of the adaptive default.
    pub fn with_block_size(mut self, bytes: usize) -> Self {
        self.cfg.chunk_size = bytes;
        self.cfg.policy = ChunkPolicy::Fixed;
        self.block_set = true;
        self
    }

    /// Run the job under the simulation sanitizer (see [`sim_core::san`]).
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = mode;
        self
    }

    /// Run the job on a fault-injecting fabric (see [`FaultSpec`]): control
    /// packets drop and delay, RDMA writes fail, registration hits a pin
    /// limit — all from a seeded deterministic schedule. The MPI layer
    /// retries/recovers; data delivered must be identical to a fault-free
    /// run.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Hand control-packet delivery ordering to `s` (see
    /// [`DeliveryScheduler`]) — the hook model checkers drive to explore
    /// interleavings. Without this the fabric's FIFO order applies.
    pub fn with_scheduler(mut self, s: Arc<dyn DeliveryScheduler>) -> Self {
        self.scheduler = Some(s);
        self
    }

    /// Run `f` on every rank (host-only MPI; device buffers panic). Returns
    /// the virtual time when the last rank finished; a panic anywhere in
    /// the job propagates.
    pub fn run<F>(self, f: F) -> SimTime
    where
        F: Fn(Comm) + Send + Sync + 'static,
    {
        self.try_run(f).unwrap().0
    }

    /// Run `f` on every rank (host-only MPI; device buffers panic) and
    /// return the job's [`Outcome`]: every rank's value of `f`, the
    /// sanitizer reports, and a panic as `Err` instead of unwinding.
    pub fn try_run<T, F>(self, f: F) -> Outcome<T>
    where
        T: Send + 'static,
        F: Fn(Comm) -> T + Send + Sync + 'static,
    {
        self.launch(
            |_, _, _| (),
            move |(), s: Seat| {
                let comm = Comm::create_traced(s.nic, s.rank, s.size, s.cfg, None, &s.recorder);
                let out = f(comm.clone());
                comm.finalize();
                out
            },
        )
    }

    /// Build the world this value describes and run `main` on every rank
    /// (see the module docs). `setup` runs once, before any rank is
    /// spawned, with the [`Sim`], the resolved [`Topology`] and the
    /// recorder; every rank's `main` gets a reference to its result, and
    /// what it returns is the rank's entry in [`Outcome::ranks`]. The
    /// cluster is the calibrated one (QDR InfiniBand, Westmere shm channel).
    pub fn launch<S, T, M>(
        self,
        setup: impl FnOnce(&Sim, &Topology, &Recorder) -> S,
        main: M,
    ) -> Outcome<T>
    where
        S: Send + Sync + 'static,
        T: Send + 'static,
        M: Fn(&S, Seat) -> T + Send + Sync + 'static,
    {
        let (n, cfg, rec) = (self.n, self.cfg, self.recorder);
        let sim = Sim::new();
        if let Some(mode) = self.exec {
            sim.set_exec_mode(mode);
        }
        if self.wake_sink.is_some() {
            sim.record_wake_trace();
        }
        sim.set_sanitizer(self.sanitizer);
        if let Err(e) = cfg.try_validate_topology(n) {
            panic!("MpiConfig: {e}");
        }
        let blocked = || Topology::uniform(n / cfg.ppn, cfg.ppn);
        let topo = self.topo.unwrap_or_else(blocked);
        assert_eq!(
            topo.num_ranks(),
            n,
            "topology places {} endpoint(s) but the job has {n} rank(s)",
            topo.num_ranks(),
        );
        let fabric = Fabric::with_topology(
            topo.clone(),
            NetModel::qdr(),
            ShmModel::westmere(),
            self.faults,
        );
        fabric.attach_recorder(&rec);
        if let Some(s) = self.scheduler {
            fabric.set_delivery_scheduler(s);
        }
        let shared = Arc::new((setup(&sim, &topo, &rec), main));
        let returned: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        for rank in 0..n {
            let seat = Seat {
                nic: fabric.nic(rank),
                rank,
                size: n,
                cfg: cfg.clone(),
                recorder: rec.clone(),
            };
            let (shared, returned) = (Arc::clone(&shared), Arc::clone(&returned));
            sim.spawn(format!("rank{rank}"), move || {
                let out = (shared.1)(&shared.0, seat);
                returned.lock()[rank] = Some(out);
            });
        }
        let end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()))
            .map_err(panic_message);
        if let Some(sink) = self.wake_sink {
            *sink.lock().expect("wake-trace sink poisoned") = sim.wake_trace();
        }
        let ranks = std::mem::take(&mut *returned.lock());
        Outcome {
            end,
            ranks: ranks.into_iter().flatten().collect(),
            reports: sim.sanitizer_reports(),
        }
    }
}

/// Render a caught panic payload as its message (panics carry `String` or
/// `&'static str`; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic payload>".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use crate::engine::{Request, ANY_SOURCE, ANY_TAG};
    use hostmem::HostBuf;

    #[test]
    fn eager_ping_pong() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::int();
            t.commit();
            let buf = HostBuf::alloc(64);
            if comm.rank() == 0 {
                buf.write(0, &hostmem::scalars_to_bytes(&[1i32, 2, 3, 4]));
                comm.send(buf.base(), 4, &t, 1, 7);
                let st = comm.recv(buf.base(), 16, &t, 1, 8);
                assert_eq!(st.bytes, 16);
                assert_eq!(
                    hostmem::bytes_to_scalars::<i32>(&buf.read(0, 16)),
                    vec![2, 4, 6, 8]
                );
            } else {
                let st = comm.recv(buf.base(), 16, &t, 0, 7);
                assert_eq!((st.src, st.tag, st.bytes), (0, 7, 16));
                let mut v = hostmem::bytes_to_scalars::<i32>(&buf.read(0, 16));
                for x in &mut v {
                    *x *= 2;
                }
                buf.write(0, &hostmem::scalars_to_bytes(&v));
                comm.send(buf.base(), 4, &t, 0, 8);
            }
        });
    }

    #[test]
    fn rendezvous_direct_large_contiguous() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            let n = 1 << 20;
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec((0..n).map(|i| (i % 253) as u8).collect());
                comm.send(buf.base(), n, &t, 1, 0);
            } else {
                let buf = HostBuf::alloc(n);
                let st = comm.recv(buf.base(), n, &t, 0, 0);
                assert_eq!(st.bytes, n);
                assert!((0..n).all(|i| buf.read(i, 1)[0] == (i % 253) as u8));
            }
        });
    }

    #[test]
    fn rendezvous_staged_vector_datatype() {
        MpiWorld::new(2).run(|comm| {
            // 64Ki rows of 4 bytes, stride 16: 256 KiB of data in a 1 MiB
            // buffer — forces the staged (vbuf) pipeline path.
            let t = Datatype::vector(1 << 16, 1, 4, &Datatype::float());
            t.commit();
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec((0..(1 << 20)).map(|i| (i % 249) as u8).collect());
                comm.send(buf.base(), 1, &t, 1, 3);
            } else {
                let buf = HostBuf::alloc(1 << 20);
                let st = comm.recv(buf.base(), 1, &t, 0, 3);
                assert_eq!(st.bytes, 256 << 10);
                // Every 16-byte row: first 4 bytes transferred, rest zero.
                for r in [0usize, 1, 1000, 65535] {
                    let o = r * 16;
                    let expect: Vec<u8> = (o..o + 4).map(|i| (i % 249) as u8).collect();
                    assert_eq!(buf.read(o, 4), expect, "row {r}");
                    assert_eq!(buf.read(o + 4, 12), vec![0u8; 12], "row {r} hole");
                }
            }
        });
    }

    #[test]
    fn any_source_any_tag() {
        MpiWorld::new(3).run(|comm| {
            let t = Datatype::int();
            t.commit();
            match comm.rank() {
                0 => {
                    let buf = HostBuf::alloc(8);
                    let mut seen = Vec::new();
                    for _ in 0..2 {
                        let st = comm.recv(buf.base(), 1, &t, ANY_SOURCE, ANY_TAG);
                        seen.push((st.src, st.tag));
                    }
                    seen.sort_unstable();
                    assert_eq!(seen, vec![(1, 11), (2, 22)]);
                }
                r => {
                    let buf = HostBuf::from_vec(vec![r as u8; 4]);
                    comm.send(buf.base(), 1, &t, 0, (r * 11) as u32);
                }
            }
        });
    }

    #[test]
    fn unexpected_messages_match_later_posts() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for tag in 0..4u32 {
                    let buf = HostBuf::from_vec(vec![tag as u8; 32]);
                    comm.send(buf.base(), 32, &t, 1, tag);
                }
            } else {
                // Delay posting, then post in reverse tag order: each recv
                // must match by tag from the unexpected queue.
                sim_core::sleep(sim_core::SimDur::from_millis(1));
                for tag in (0..4u32).rev() {
                    let buf = HostBuf::alloc(32);
                    let st = comm.recv(buf.base(), 32, &t, 0, tag);
                    assert_eq!(st.tag, tag);
                    assert_eq!(buf.read(0, 32), vec![tag as u8; 32]);
                }
            }
        });
    }

    #[test]
    fn non_overtaking_same_tag() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                for i in 0..8u8 {
                    let buf = HostBuf::from_vec(vec![i; 16]);
                    comm.send(buf.base(), 16, &t, 1, 5);
                }
            } else {
                for i in 0..8u8 {
                    let buf = HostBuf::alloc(16);
                    comm.recv(buf.base(), 16, &t, 0, 5);
                    assert_eq!(buf.read(0, 16), vec![i; 16], "message order violated");
                }
            }
        });
    }

    #[test]
    fn isend_irecv_waitall_bidirectional() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            let me = comm.rank();
            let peer = 1 - me;
            let n = 300 << 10; // rendezvous-sized both ways
            let sendbuf = HostBuf::from_vec(vec![me as u8 + 1; n]);
            let recvbuf = HostBuf::alloc(n);
            let r = comm.irecv(recvbuf.base(), n, &t, peer, 1u32);
            let s = comm.isend(sendbuf.base(), n, &t, peer, 1);
            let stats = comm.waitall(vec![r, s]);
            assert_eq!(stats[0].unwrap().bytes, n);
            assert_eq!(recvbuf.read(0, n), vec![peer as u8 + 1; n]);
        });
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let (_, times, _) = MpiWorld::new(4)
            .try_run(|comm| {
                // Rank r works for r ms before the barrier.
                sim_core::sleep(sim_core::SimDur::from_millis(comm.rank() as u64));
                comm.barrier();
                (comm.rank(), sim_core::now())
            })
            .unwrap();
        let slowest = times.iter().map(|&(_, t)| t).min().unwrap();
        for (r, t) in times {
            assert!(
                t >= SimTime::from_nanos(3_000_000),
                "rank {r} left the barrier at {t}, before the slowest rank arrived"
            );
            assert!(t >= slowest);
        }
    }

    #[test]
    fn waitany_returns_first_completion() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                // Tag 7 arrives much later than tag 8.
                sim_core::sleep(sim_core::SimDur::from_millis(2));
                let b = HostBuf::from_vec(vec![8; 16]);
                comm.send(b.base(), 16, &t, 1, 8);
                sim_core::sleep(sim_core::SimDur::from_millis(2));
                let a = HostBuf::from_vec(vec![7; 16]);
                comm.send(a.base(), 16, &t, 1, 7);
            } else {
                let ba = HostBuf::alloc(16);
                let bb = HostBuf::alloc(16);
                let reqs = vec![
                    comm.irecv(ba.base(), 16, &t, 0, 7u32),
                    comm.irecv(bb.base(), 16, &t, 0, 8u32),
                ];
                let (idx, st) = comm.waitany(&reqs);
                assert_eq!(idx, 1, "tag 8 completes first");
                assert_eq!(st.unwrap().tag, 8);
                let remaining: Vec<Request> = reqs
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| *i != idx)
                    .map(|(_, r)| r)
                    .collect();
                comm.waitall(remaining);
                assert_eq!(ba.read(0, 16), vec![7; 16]);
            }
        });
    }

    #[test]
    fn testall_reports_only_when_all_done() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                let b = HostBuf::from_vec(vec![1; 8]);
                comm.send(b.base(), 8, &t, 1, 0);
                sim_core::sleep(sim_core::SimDur::from_millis(1));
                comm.send(b.base(), 8, &t, 1, 1);
            } else {
                let ba = HostBuf::alloc(8);
                let bb = HostBuf::alloc(8);
                let reqs = vec![
                    comm.irecv(ba.base(), 8, &t, 0, 0u32),
                    comm.irecv(bb.base(), 8, &t, 0, 1u32),
                ];
                // Give the first message time to land, not the second.
                sim_core::sleep(sim_core::SimDur::from_micros(500));
                assert!(!comm.testall(&reqs), "second message not yet sent");
                comm.waitall(reqs);
            }
        });
    }

    #[test]
    fn test_polls_without_blocking() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                sim_core::sleep(sim_core::SimDur::from_micros(500));
                let buf = HostBuf::from_vec(vec![1; 8]);
                comm.send(buf.base(), 8, &t, 1, 0);
            } else {
                let buf = HostBuf::alloc(8);
                let req = comm.irecv(buf.base(), 8, &t, 0, 0u32);
                assert!(!comm.test(&req), "message cannot have arrived yet");
                let st = comm.wait(req).unwrap();
                assert_eq!(st.bytes, 8);
            }
        });
    }

    #[test]
    #[should_panic(expected = "window_slots must be nonzero")]
    fn invalid_config_is_rejected_at_world_construction() {
        let cfg = MpiConfig {
            window_slots: 0,
            ..MpiConfig::default()
        };
        MpiWorld::new(1).with_config(cfg).run(|_| {});
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncation_panics() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                let buf = HostBuf::alloc(64);
                comm.send(buf.base(), 64, &t, 1, 0);
            } else {
                let buf = HostBuf::alloc(16);
                comm.recv(buf.base(), 16, &t, 0, 0);
            }
        });
    }

    #[test]
    fn truncation_is_fatal_with_a_report_on_both_paths() {
        // MPI_ERRORS_ARE_FATAL: a receive smaller than its message ends the
        // job, eager (64 B into 16 B) and rendezvous (64 KiB into 16 KiB)
        // alike, and the collecting sanitizer keeps the protocol report.
        for (sent, posted) in [(64, 16), (64 << 10, 16 << 10)] {
            let out = MpiWorld::new(2)
                .with_sanitizer(SanitizerMode::Collect)
                .try_run(move |comm| {
                    let t = Datatype::byte();
                    t.commit();
                    if comm.rank() == 0 {
                        comm.send(HostBuf::alloc(sent).base(), sent, &t, 1, 0);
                    } else {
                        comm.recv(HostBuf::alloc(posted).base(), posted, &t, 0, 0);
                    }
                });
            let want = format!("message truncated: {sent} bytes into a {posted}-byte receive");
            assert_eq!(out.end.as_ref().unwrap_err(), &want);
            assert!(
                out.reports
                    .iter()
                    .any(|r| r.kind == sim_core::ReportKind::Protocol && r.message == want),
                "{sent} B: {:?}",
                out.reports
            );
        }
    }

    #[test]
    fn an_overflowing_footprint_is_refused_in_every_profile() {
        // `count - 1` elements of a float reach past isize (usize::MAX / 2),
        // or wrap to a 4-byte message and a 4-byte footprint ((1 << 62) + 1):
        // both are refused at the bounds check, debug and release alike.
        for count in [usize::MAX / 2, (1 << 62) + 1] {
            let out = MpiWorld::new(2).try_run(move |comm| {
                let t = Datatype::float();
                t.commit();
                if comm.rank() == 0 {
                    comm.isend(HostBuf::alloc(64).base(), count, &t, 1, 0);
                }
            });
            let msg = out.end.expect_err("an overflowing post must be refused");
            assert!(
                msg.starts_with("datatype footprint") && msg.contains("exceeds host buffer"),
                "count {count}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no GPU datatype support")]
    fn device_buffer_without_gpu_support_panics() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                let gpu = gpu_sim::Gpu::tesla_c2050(0);
                let dev = gpu.malloc(64);
                comm.send(dev, 64, &t, 1, 0);
            } else {
                let buf = HostBuf::alloc(64);
                comm.recv(buf.base(), 64, &t, 0, 0);
            }
        });
    }

    #[test]
    fn deterministic_end_time() {
        let run = || {
            MpiWorld::new(4).run(|comm| {
                let t = Datatype::byte();
                t.commit();
                let peer = comm.rank() ^ 1;
                let buf = HostBuf::alloc(100 << 10);
                let r = comm.irecv(buf.base(), 100 << 10, &t, peer, 0u32);
                let s = comm.isend(buf.base(), 0, &t, peer, 1);
                comm.wait(s);
                let sendbuf = HostBuf::alloc(100 << 10);
                comm.send(sendbuf.base(), 100 << 10, &t, peer, 0);
                comm.wait(r);
                comm.barrier();
            })
        };
        assert_eq!(run(), run(), "simulation must be deterministic");
    }

    #[test]
    fn intra_node_messages_never_touch_the_hca() {
        // Two ranks on one node: eager and staged-rendezvous traffic both
        // ride the shm channel; the node's HCA transmits nothing.
        let rec = sim_trace::Recorder::new();
        MpiWorld::new(2)
            .with_ppn(2)
            .with_recorder(rec.clone())
            .run(|comm| {
                let t = Datatype::byte();
                t.commit();
                if comm.rank() == 0 {
                    let small = HostBuf::from_vec(vec![7u8; 64]);
                    comm.send(small.base(), 64, &t, 1, 0);
                    let big = HostBuf::from_vec((0..300 << 10).map(|i| (i % 251) as u8).collect());
                    comm.send(big.base(), 300 << 10, &t, 1, 1);
                } else {
                    let small = HostBuf::alloc(64);
                    comm.recv(small.base(), 64, &t, 0, 0);
                    assert_eq!(small.read(0, 64), vec![7u8; 64]);
                    let big = HostBuf::alloc(300 << 10);
                    let st = comm.recv(big.base(), 300 << 10, &t, 0, 1);
                    assert_eq!(st.bytes, 300 << 10);
                    assert!((0..300 << 10).all(|i| big.read(i, 1)[0] == (i % 251) as u8));
                }
            });
        let m = rec.metrics();
        assert_eq!(
            m.get("node0.hca.tx_bytes").copied().unwrap_or(0),
            0,
            "intra-node traffic leaked onto the HCA"
        );
        assert!(
            m.get("node0.shm.bytes").copied().unwrap_or(0) >= 300 << 10,
            "shm channel carried less than the payload"
        );
    }

    #[test]
    fn mixed_topology_delivers_across_and_within_nodes() {
        // 4 ranks on 2 nodes: rank 0↔1 intra-node, 0↔2 inter-node; every
        // pairing must deliver identical bytes.
        MpiWorld::new(4).with_ppn(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            let n = 200 << 10;
            let me = comm.rank();
            let peer = me ^ 1; // intra-node partner
            let far = me ^ 2; // inter-node partner
            let sendbuf = HostBuf::from_vec(vec![me as u8 + 1; n]);
            let r1buf = HostBuf::alloc(n);
            let r2buf = HostBuf::alloc(n);
            let reqs = vec![
                comm.irecv(r1buf.base(), n, &t, peer, 1u32),
                comm.irecv(r2buf.base(), n, &t, far, 2u32),
                comm.isend(sendbuf.base(), n, &t, peer, 1),
                comm.isend(sendbuf.base(), n, &t, far, 2),
            ];
            comm.waitall(reqs);
            assert_eq!(r1buf.read(0, n), vec![peer as u8 + 1; n]);
            assert_eq!(r2buf.read(0, n), vec![far as u8 + 1; n]);
        });
    }

    #[test]
    fn round_robin_topology_is_honored() {
        // Explicit map: ranks 0,2 on node 0; 1,3 on node 1 — the shm pairs
        // differ from the blocked layout.
        let rec = sim_trace::Recorder::new();
        MpiWorld::new(4)
            .with_topology(Topology::from_map(vec![0, 1, 0, 1]))
            .with_recorder(rec.clone())
            .run(|comm| {
                let t = Datatype::byte();
                t.commit();
                let me = comm.rank();
                let peer = me ^ 2; // co-located under round-robin
                let n = 100 << 10;
                let sendbuf = HostBuf::from_vec(vec![me as u8; n]);
                let recvbuf = HostBuf::alloc(n);
                let reqs = vec![
                    comm.irecv(recvbuf.base(), n, &t, peer, 0u32),
                    comm.isend(sendbuf.base(), n, &t, peer, 0),
                ];
                comm.waitall(reqs);
                assert_eq!(recvbuf.read(0, n), vec![peer as u8; n]);
            });
        let m = rec.metrics();
        for node in 0..2 {
            assert_eq!(
                m.get(&format!("node{node}.hca.tx_bytes"))
                    .copied()
                    .unwrap_or(0),
                0,
                "co-located traffic crossed node {node}'s HCA"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must evenly divide the world size")]
    fn indivisible_ppn_is_rejected_at_launch() {
        MpiWorld::new(3).with_ppn(2).run(|_| {});
    }

    #[test]
    fn a_config_keeps_an_explicit_ppn_and_block_size_or_says_which() {
        // Ranks 0 and 1 share a node exactly when the placement is ppn 2.
        let shared = |w: MpiWorld| -> bool {
            let (_, ranks, _) = w
                .try_run(|comm| comm.engine().lock().nic.colocated(1))
                .unwrap();
            ranks[0]
        };
        let two = MpiConfig {
            ppn: 2,
            ..MpiConfig::default()
        };
        let blocked = MpiConfig {
            chunk_size: 16 << 10,
            policy: ChunkPolicy::Fixed,
            ..MpiConfig::default()
        };
        // A setter after the config, and a config that agrees, both hold.
        assert!(shared(
            MpiWorld::new(4)
                .with_config(MpiConfig::default())
                .with_ppn(2)
        ));
        assert!(shared(MpiWorld::new(4).with_ppn(2).with_config(two)));
        MpiWorld::new(2)
            .with_block_size(16 << 10)
            .with_config(blocked);
        // A config that disagrees names both values.
        let refused = |f: fn() -> MpiWorld| {
            let Err(err) = std::panic::catch_unwind(f) else {
                panic!("with_config must refuse a different value")
            };
            err.downcast::<String>()
                .expect("a formatted message")
                .to_string()
        };
        let ppn = refused(|| {
            MpiWorld::new(4)
                .with_ppn(2)
                .with_config(MpiConfig::default())
        });
        assert!(
            ppn.contains("replace ppn 2 (set by with_ppn) with 1"),
            "{ppn}"
        );
        let block = refused(|| {
            MpiWorld::new(2)
                .with_block_size(4096)
                .with_config(MpiConfig::default())
        });
        assert!(
            block.contains("replace block size (4096, Fixed)"),
            "{block}"
        );
    }

    #[test]
    fn ppn_default_matches_explicit_one_rank_per_node() {
        let run = |w: MpiWorld| {
            w.run(|comm| {
                let t = Datatype::byte();
                t.commit();
                let peer = comm.rank() ^ 1;
                let n = 150 << 10;
                let sendbuf = HostBuf::from_vec(vec![3u8; n]);
                let recvbuf = HostBuf::alloc(n);
                let reqs = vec![
                    comm.irecv(recvbuf.base(), n, &t, peer, 0u32),
                    comm.isend(sendbuf.base(), n, &t, peer, 0),
                ];
                comm.waitall(reqs);
            })
        };
        // The topology refactor must not move a single event at ppn = 1.
        assert_eq!(run(MpiWorld::new(2)), run(MpiWorld::new(2).with_ppn(1)));
    }

    #[test]
    fn many_messages_stress() {
        MpiWorld::new(2).run(|comm| {
            let t = Datatype::byte();
            t.commit();
            let me = comm.rank();
            let peer = 1 - me;
            // Mix of eager and rendezvous messages, interleaved posts.
            let mut reqs = Vec::new();
            let mut bufs = Vec::new();
            for i in 0..20usize {
                let n = if i % 3 == 0 { 100 << 10 } else { 256 };
                let rbuf = HostBuf::alloc(n);
                reqs.push(comm.irecv(rbuf.base(), n, &t, peer, i as u32));
                bufs.push(rbuf);
                let sbuf = HostBuf::from_vec(vec![i as u8; n]);
                reqs.push(comm.isend(sbuf.base(), n, &t, peer, i as u32));
                bufs.push(sbuf);
            }
            comm.waitall(reqs);
            for i in 0..20usize {
                let n = if i % 3 == 0 { 100 << 10 } else { 256 };
                assert_eq!(bufs[i * 2].read(0, n), vec![i as u8; n], "msg {i}");
            }
        });
    }
}
