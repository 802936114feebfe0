//! Workload-independent per-layer probes (`--probes`): one number per layer
//! boundary, taken by timing calls into the crates' public functions.
//!
//! Each probe is sampled five times (the 1024-job campaign once, the 256-job
//! one three times) with at least 40 ms of iterations per sample, and
//! reports the median. Host-clock readings are nanoseconds, microseconds or
//! GB/s of this machine; readings marked `virt` are virtual time and repeat
//! exactly. `moves` names the end-to-end metric and workload a change in the
//! reading should show up in; everywhere else the prediction is no change.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_nc_repro::cluster_sim::{generate, run_mix, ClusterParams, MixParams, Placement};
use gpu_nc_repro::gpu_sim::{Copy2d, Gpu, Loc};
use gpu_nc_repro::hostmem::HostBuf;
use gpu_nc_repro::ib_sim::{Fabric, NetModel, SgEntry};
use gpu_nc_repro::mpi_sim::pack::PackCursor;
use gpu_nc_repro::mpi_sim::plan::PlanCache;
use gpu_nc_repro::mpi_sim::{Canonical, Datatype, MpiWorld, Plan};
use gpu_nc_repro::mv2_gpu_nc::baselines::{
    recv_cpy2d_blocking, recv_mv2, send_cpy2d_blocking, send_mv2, VectorXfer,
};
use gpu_nc_repro::mv2_gpu_nc::gpu_pack::enqueue_gather;
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_core::{self, instrument, ExecMode, Sim, SimDur, SimTime};
use gpu_nc_repro::sim_trace::json::JsonValue;
use gpu_nc_repro::sim_trace::{LaneKind, Recorder};

use crate::jsonw::{count, num, obj, text};
use crate::spanlog::{Clock, SpanLog};
use crate::stats::Summary;
use crate::workloads::scheme_zoo::Layout;

/// One reading of one sample.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    /// `host` or `virt`.
    pub clock: &'static str,
    pub value: f64,
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Reading {
    Reading {
        name,
        unit,
        clock: "host",
        value,
    }
}

fn virt(name: &'static str, unit: &'static str, value: f64) -> Reading {
    Reading {
        name,
        unit,
        clock: "virt",
        value,
    }
}

pub struct Probe {
    pub layer: &'static str,
    /// Which end-to-end metric on which workload the readings should move.
    pub moves: &'static str,
    /// Samples of a full run; `--smoke` takes one and skips single-sample
    /// probes (they are single-sample because one sample costs seconds).
    pub samples: usize,
    pub run: fn() -> Vec<Reading>,
}

/// Host time per iteration, ns: repeat `batch` (which performs `iters`
/// iterations per call) until 40 ms have passed.
fn ns_per_iter(iters: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let t = Instant::now();
    let mut done = 0u64;
    while t.elapsed().as_millis() < 40 {
        batch();
        done += iters;
    }
    t.elapsed().as_nanos() as f64 / done as f64
}

/// Like [`ns_per_iter`] for a batch that stops its own watch: `batch`
/// returns `(host ns, iterations)` of the part it timed, leaving world
/// construction and teardown out.
fn ns_per_iter_inner(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    batch();
    let (mut ns, mut done) = (0u64, 0u64);
    while ns < 40_000_000 {
        let (n, i) = batch();
        ns += n;
        done += i;
    }
    ns as f64 / done as f64
}

/// Run `f` as the only process of a fresh event-mode simulation.
fn in_sim(f: impl FnOnce() + Send + 'static) -> SimTime {
    let sim = Sim::new();
    sim.set_exec_mode(ExecMode::Event);
    sim.spawn("probe", f);
    sim.run()
}

fn timer() -> Vec<Reading> {
    const N: u64 = 100_000;
    let ns = ns_per_iter(N, || {
        in_sim(|| {
            for _ in 0..N {
                sim_core::sleep(SimDur::from_nanos(10));
            }
        });
    });
    vec![host("sim-core.timer_ns", "ns", ns)]
}

/// Host ns per fiber wake with `fibers` fibers sleeping in lock-step.
fn switch_ns(fibers: usize, rounds: usize) -> f64 {
    ns_per_iter((fibers * rounds) as u64, || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        for i in 0..fibers {
            sim.spawn(format!("f{i}"), move || {
                for _ in 0..rounds {
                    sim_core::sleep(SimDur::from_nanos(100));
                }
            });
        }
        sim.run();
    })
}

fn switch() -> Vec<Reading> {
    vec![
        host("sim-core.switch_ns.8", "ns", switch_ns(8, 4096)),
        host("sim-core.switch_ns.1024", "ns", switch_ns(1024, 32)),
    ]
}

fn spawn() -> Vec<Reading> {
    let ns = ns_per_iter(1024, || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        for i in 0..1024 {
            sim.spawn(format!("f{i}"), || {});
        }
        sim.run();
    });
    vec![host("sim-core.spawn_us.1024", "us", ns / 1e3)]
}

fn counter() -> Vec<Reading> {
    let c = instrument::global();
    let ns = ns_per_iter(100_000, || {
        for _ in 0..100_000 {
            c.record("perfbench.probe");
        }
    });
    vec![host("sim-core.counter_ns", "ns", ns)]
}

fn hostmem() -> Vec<Reading> {
    const MIB: usize = 1 << 20;
    let (a, b) = (HostBuf::from_vec(vec![7u8; MIB]), HostBuf::alloc(MIB));
    b.write(0, &[0u8; 1]);
    let copy_ns = ns_per_iter(1, || HostBuf::copy(&a.base(), &b.base(), MIB));
    let rows = MIB / 4;
    let src = HostBuf::from_vec(vec![3u8; rows * 16]);
    let mut out = vec![0u8; MIB];
    let strided_ns = ns_per_iter(rows as u64, || {
        src.read_strided(0, 16, 4, rows, &mut out);
        black_box(&out);
    });
    vec![
        host("hostmem.copy_gbps", "GB/s", MIB as f64 / copy_ns),
        host("hostmem.strided4_ns_per_row", "ns", strided_ns),
    ]
}

fn gpu_copies() -> Vec<Reading> {
    const MIB: usize = 1 << 20;
    let rows = MIB / 4;
    let out = Arc::new(AtomicU64::new(0));
    let virt_ns = Arc::clone(&out);
    let row_ns = ns_per_iter(rows as u64, move || {
        let virt_ns = Arc::clone(&virt_ns);
        in_sim(move || {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(rows * 16);
            let dst = gpu.malloc(MIB);
            let t0 = sim_core::now();
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dst),
                dpitch: 4,
                src: Loc::Device(src),
                spitch: 16,
                width: 4,
                height: rows,
            });
            virt_ns.store((sim_core::now() - t0).as_nanos(), Ordering::Relaxed);
        });
    });
    let host_buf = HostBuf::alloc(MIB);
    host_buf.write(0, &[0u8; 1]);
    let d2h_ns = ns_per_iter(1, move || {
        let host_buf = host_buf.clone();
        in_sim(move || {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(MIB);
            gpu.memcpy(host_buf.base(), src, MIB);
        });
    });
    let malloc_ns = ns_per_iter(256, || {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            for _ in 0..256 {
                let p = gpu.malloc(64 << 10);
                gpu.free(p);
            }
        });
    });
    vec![
        host("gpu-sim.memcpy2d_row4_ns", "ns", row_ns),
        virt(
            "gpu-sim.memcpy2d_virt_us.1m",
            "us",
            out.load(Ordering::Relaxed) as f64 / 1e3,
        ),
        host("gpu-sim.memcpy_gbps", "GB/s", MIB as f64 / d2h_ns),
        host("gpu-sim.malloc_us", "us", malloc_ns / 1e3),
    ]
}

/// A two-node fabric on the event pump, as the worlds use it.
fn fabric(sim: &Sim) -> Fabric {
    let f = Fabric::new(2, NetModel::qdr());
    f.attach_event_pump(sim);
    f
}

fn rdma() -> Vec<Reading> {
    const LEN: usize = 64 << 10;
    const N: u64 = 256;
    let out = Arc::new(AtomicU64::new(0));
    let per_write = Arc::clone(&out);
    let ns = ns_per_iter(N, move || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        let fab = fabric(&sim);
        let target = HostBuf::alloc(LEN);
        let key = fab.nic(1).register(&target);
        let nic = fab.nic(0);
        let per_write = Arc::clone(&per_write);
        sim.spawn("writer", move || {
            let src = HostBuf::from_vec(vec![5u8; LEN]);
            nic.register(&src);
            let t0 = sim_core::now();
            for _ in 0..N {
                nic.rdma_write(1, key, 0, &src.base(), LEN).wait();
            }
            per_write.store((sim_core::now() - t0).as_nanos() / N, Ordering::Relaxed);
        });
        sim.run();
    });
    vec![
        host("ib-sim.rdma_write_host_us.64k", "us", ns / 1e3),
        virt(
            "ib-sim.rdma_write_virt_us.64k",
            "us",
            out.load(Ordering::Relaxed) as f64 / 1e3,
        ),
    ]
}

fn ctrl_rtt() -> Vec<Reading> {
    const N: u64 = 2048;
    let ns = ns_per_iter(N, || {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        let fab = fabric(&sim);
        let (a, b) = (fab.nic(0), fab.nic(1));
        sim.spawn("ping", move || {
            for i in 0..N {
                a.send_ctrl(1, Box::new(i));
                a.mailbox().recv();
            }
        });
        sim.spawn("pong", move || {
            for i in 0..N {
                b.mailbox().recv();
                b.send_ctrl(0, Box::new(i));
            }
        });
        sim.run();
    });
    vec![host("ib-sim.ctrl_rtt_host_us", "us", ns / 1e3)]
}

fn sg_write() -> Vec<Reading> {
    // 64 entries of 64 rows x 64 B at pitch 128: 256 KiB.
    const ENTRIES: usize = 64;
    let entry_span = 64 * 128;
    let sg: Vec<SgEntry> = (0..ENTRIES)
        .map(|e| SgEntry {
            offset: e * entry_span,
            len: 64,
            stride: 128,
            count: 64,
        })
        .collect();
    let out = Arc::new(AtomicU64::new(0));
    let took = Arc::clone(&out);
    let sim = Sim::new();
    sim.set_exec_mode(ExecMode::Event);
    let fab = fabric(&sim);
    let target = HostBuf::alloc(ENTRIES * entry_span);
    let key = fab.nic(1).register(&target);
    let nic = fab.nic(0);
    sim.spawn("writer", move || {
        let src = HostBuf::from_vec(vec![9u8; ENTRIES * entry_span]);
        nic.register(&src);
        let t0 = sim_core::now();
        nic.rdma_write_sg(1, key, &src.base(), &sg, &sg).wait();
        took.store((sim_core::now() - t0).as_nanos(), Ordering::Relaxed);
    });
    sim.run();
    vec![virt(
        "ib-sim.sg_write_virt_us.64e",
        "us",
        out.load(Ordering::Relaxed) as f64 / 1e3,
    )]
}

fn datatype() -> Vec<Reading> {
    let rows = (64 << 10) / 4;
    let commit_ns = ns_per_iter(1, || {
        let dt = Datatype::vector(rows, 1, 4, &Datatype::float());
        dt.commit();
        black_box(dt.size());
    });
    let dt = Datatype::vector(rows, 1, 4, &Datatype::float());
    dt.commit();
    let flat = dt.flat();
    let build_ns = ns_per_iter(1, || {
        black_box(Plan::build(&flat, 1).num_segments());
    });
    let cache = PlanCache::default();
    cache.get_or_build(1, || Plan::build(&flat, 1));
    let hit_ns = ns_per_iter(10_000, || {
        for _ in 0..10_000 {
            black_box(cache.get_or_build(1, || unreachable!("the plan is cached")));
        }
    });
    let irregular = Layout::Irregular.cell(64 << 10, 1);
    irregular.dtype.commit();
    let plan = irregular.dtype.plan(1);
    let canon_ns = ns_per_iter(1, || {
        black_box(Canonical::of(&plan));
    });
    vec![
        host("mpi-sim.commit_us.vector64k", "us", commit_ns / 1e3),
        host("mpi-sim.plan_build_us.vector64k", "us", build_ns / 1e3),
        host("mpi-sim.plan_hit_ns", "ns", hit_ns),
        host("mpi-sim.canonical_us.irregular64k", "us", canon_ns / 1e3),
    ]
}

fn cpu_pack() -> Vec<Reading> {
    let gbps = |layout: Layout| {
        let cell = layout.cell(1 << 20, 1);
        cell.dtype.commit();
        let plan = cell.dtype.plan(cell.count);
        let buf = HostBuf::from_vec(vec![1u8; cell.buf_bytes]);
        let ns = ns_per_iter(1, || {
            let mut cursor = PackCursor::from_plan(buf.base(), Arc::clone(&plan));
            black_box(cursor.pack_all().len());
        });
        (1 << 20) as f64 / ns
    };
    vec![
        host(
            "mpi-sim.cpu_pack_gbps.strided",
            "GB/s",
            gbps(Layout::Strided1d),
        ),
        host(
            "mpi-sim.cpu_pack_gbps.irregular",
            "GB/s",
            gbps(Layout::Irregular),
        ),
    ]
}

/// Host ns and virtual ns per round trip of a `bytes`-byte contiguous host
/// ping-pong between two ranks. Both ranks are fibers of one thread, so the
/// host time rank 0 sees around its loop is the whole world's.
fn pingpong(bytes: usize, n: u64) -> (f64, f64) {
    let out = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let sink = Arc::clone(&out);
    let ns = ns_per_iter_inner(move || {
        let rtt = Arc::clone(&sink);
        MpiWorld::new(2)
            .with_exec(ExecMode::Event)
            .run(move |comm| {
                let byte = Datatype::byte();
                byte.commit();
                let buf = HostBuf::alloc(bytes);
                let peer = 1 - comm.rank();
                comm.barrier();
                let (t0, h0) = (sim_core::now(), Instant::now());
                for i in 0..n as u32 {
                    if comm.rank() == 0 {
                        comm.send(buf.base(), bytes, &byte, peer, i);
                        comm.recv(buf.base(), bytes, &byte, peer, i);
                    } else {
                        comm.recv(buf.base(), bytes, &byte, peer, i);
                        comm.send(buf.base(), bytes, &byte, peer, i);
                    }
                }
                if comm.rank() == 0 {
                    rtt.0
                        .store((sim_core::now() - t0).as_nanos() / n, Ordering::Relaxed);
                    rtt.1
                        .store(h0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            });
        (sink.1.load(Ordering::Relaxed), n)
    });
    (ns, out.0.load(Ordering::Relaxed) as f64)
}

fn eager_rtt() -> Vec<Reading> {
    let (host_ns, virt_ns) = pingpong(8, 1024);
    vec![
        host("mpi-sim.eager_rtt_host_us", "us", host_ns / 1e3),
        virt("mpi-sim.eager_rtt_virt_us", "us", virt_ns / 1e3),
    ]
}

fn rndv() -> Vec<Reading> {
    let (_, virt_ns) = pingpong(64 << 10, 64);
    vec![virt("mpi-sim.rndv_virt_us.64k", "us", virt_ns / 2e3)]
}

fn barrier() -> Vec<Reading> {
    const N: u64 = 16;
    let out = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let sink = Arc::clone(&out);
    let ns = ns_per_iter_inner(move || {
        let per = Arc::clone(&sink);
        MpiWorld::new(256)
            .with_exec(ExecMode::Event)
            .run(move |comm| {
                comm.barrier();
                let (t0, h0) = (sim_core::now(), Instant::now());
                for _ in 0..N {
                    comm.barrier();
                }
                // The last rank out stops the host watch for all 256.
                per.1
                    .store(h0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if comm.rank() == 0 {
                    per.0
                        .store((sim_core::now() - t0).as_nanos() / N, Ordering::Relaxed);
                }
            });
        (sink.1.load(Ordering::Relaxed), N)
    });
    vec![
        host("mpi-sim.barrier_host_us.256", "us", ns / 1e3),
        virt(
            "mpi-sim.barrier_virt_us.256",
            "us",
            out.0.load(Ordering::Relaxed) as f64 / 1e3,
        ),
    ]
}

fn gather() -> Vec<Reading> {
    let x = VectorXfer::paper(1 << 20);
    let dt = x.dtype();
    let pieces = Arc::new(dt.plan(1).pieces(0, x.total));
    let rows = x.height() as u64;
    let ns = ns_per_iter(rows, move || {
        let pieces = Arc::clone(&pieces);
        in_sim(move || {
            let gpu = Gpu::tesla_c2050(0);
            let user = gpu.malloc(x.extent());
            let dst = gpu.malloc(x.total);
            let stream = gpu.create_stream();
            enqueue_gather(&gpu, &stream, user, &pieces, dst).wait();
        });
    });
    vec![host("core.gather_row4_ns", "ns", ns)]
}

fn pipeline() -> Vec<Reading> {
    const TOTAL: usize = 4 << 20;
    // (virtual ns, host ns) of one 4 MiB message after a warm-up transfer.
    fn one(blocking: bool) -> (u64, u64) {
        let out = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let sink = Arc::clone(&out);
        GpuCluster::new(2)
            .block_size(64 << 10)
            .exec(ExecMode::Event)
            .recorder(Recorder::off())
            .run(move |env| {
                let x = VectorXfer::paper(TOTAL);
                let dev = env.gpu.malloc(x.extent());
                let me = env.comm.rank();
                if me == 0 {
                    send_mv2(&env.comm, dev, x, 1, 99);
                } else {
                    recv_mv2(&env.comm, dev, x, 0, 99);
                }
                env.comm.barrier();
                let (t0, h0) = (sim_core::now(), Instant::now());
                match (blocking, me) {
                    (true, 0) => send_cpy2d_blocking(env, dev, x, 1, 0),
                    (true, _) => recv_cpy2d_blocking(env, dev, x, 0, 0),
                    (false, 0) => send_mv2(&env.comm, dev, x, 1, 0),
                    (false, _) => recv_mv2(&env.comm, dev, x, 0, 0),
                }
                if me == 1 {
                    sink.0
                        .store((sim_core::now() - t0).as_nanos(), Ordering::Relaxed);
                    sink.1
                        .store(h0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            });
        (out.0.load(Ordering::Relaxed), out.1.load(Ordering::Relaxed))
    }
    let (mv2_virt, mv2_host) = one(false);
    let (blocking_virt, _) = one(true);
    vec![
        virt("core.pipeline_virt_us.4m", "us", mv2_virt as f64 / 1e3),
        host("core.pipeline_host_ms.4m", "ms", mv2_host as f64 / 1e6),
        // The model-accuracy anchor: the paper reports 88 %.
        virt(
            "core.fig5_improvement_pct.4m",
            "%",
            (1.0 - mv2_virt as f64 / blocking_virt as f64) * 100.0,
        ),
    ]
}

fn world_build() -> Vec<Reading> {
    let t = Instant::now();
    GpuCluster::new(1024)
        .exec(ExecMode::Event)
        .recorder(Recorder::off())
        .run(|_| ());
    vec![host(
        "core.world_build_ms.1024",
        "ms",
        t.elapsed().as_secs_f64() * 1e3,
    )]
}

fn tracing() -> Vec<Reading> {
    let span_ns = |rec: Recorder| {
        let lane = rec.lane("probe", "lane", LaneKind::Proto);
        ns_per_iter(100_000, || {
            for i in 0..100_000u64 {
                lane.span(
                    "probe",
                    SimTime::ZERO + SimDur::from_nanos(i),
                    SimTime::ZERO + SimDur::from_nanos(i + 1),
                );
            }
        })
    };
    vec![
        host(
            "sim-trace.span_ns",
            "ns",
            span_ns(Recorder::with_capacity(1 << 16)),
        ),
        host("sim-trace.off_ns", "ns", span_ns(Recorder::off())),
    ]
}

fn generate_plan() -> Vec<Reading> {
    let ns = ns_per_iter(1, || {
        black_box(generate(&MixParams {
            seed: 20211,
            jobs: 1024,
            mean_interarrival_us: 400.0,
        }));
    });
    vec![host("cluster-sim.generate_us.1024", "us", ns / 1e3)]
}

/// Host ms per job of a shared-placement campaign of `jobs` jobs.
fn campaign_ms_per_job(jobs: usize) -> f64 {
    let mut plans = generate(&MixParams {
        seed: 20211,
        jobs,
        mean_interarrival_us: 400.0,
    });
    for p in &mut plans {
        p.qos.share_nodes = true;
    }
    let params = ClusterParams {
        phys_nodes: 8,
        placement: Placement::Shared,
        exec: Some(ExecMode::Event),
        recorder: Some(Recorder::off()),
        ..ClusterParams::default()
    };
    let t = Instant::now();
    black_box(run_mix(&params, &plans).makespan_ns);
    t.elapsed().as_secs_f64() * 1e3 / jobs as f64
}

fn campaign_256() -> Vec<Reading> {
    vec![host(
        "cluster-sim.host_ms_per_job.256",
        "ms",
        campaign_ms_per_job(256),
    )]
}

fn campaign_1024() -> Vec<Reading> {
    vec![host(
        "cluster-sim.host_ms_per_job.1024",
        "ms",
        campaign_ms_per_job(1024),
    )]
}

const fn probe(layer: &'static str, moves: &'static str, run: fn() -> Vec<Reading>) -> Probe {
    Probe {
        layer,
        moves,
        samples: 5,
        run,
    }
}

/// Every probe, grouped by layer in reporting order.
pub const ALL: [Probe; 21] = [
    probe("sim-core", "wall_s on halo3d_1024, coll_256", timer),
    probe(
        "sim-core",
        "wall_s on halo3d_1024 only (the .1024/.8 ratio is the run-queue superlinearity)",
        switch,
    ),
    probe("sim-core", "setup_s on halo3d_1024", spawn),
    probe("sim-core", "wall_s on halo3d_1024, coll_256", counter),
    probe("hostmem", "wall_s on vec_pingpong, scheme_zoo", hostmem),
    probe(
        "gpu-sim",
        "wall_s / virt_ms on vec_pingpong, not halo3d_1024; malloc: setup_s on halo3d_1024",
        gpu_copies,
    ),
    probe("ib-sim", "wall_s / virt_ms on vec_pingpong, coll_256", rdma),
    probe("ib-sim", "wall_s on halo3d_1024, halo3d_faults", ctrl_rtt),
    probe("ib-sim", "virt_ms on scheme_zoo only", sg_write),
    probe("mpi-sim", "setup_s everywhere; wall_s on scheme_zoo", datatype),
    probe("mpi-sim", "wall_s on scheme_zoo", cpu_pack),
    probe(
        "mpi-sim",
        "wall_s / virt_op_p50_us on halo3d_1024",
        eager_rtt,
    ),
    probe("mpi-sim", "virt_op_p50_us on scheme_zoo, vec_pingpong", rndv),
    probe("mpi-sim", "wall_s / virt_ms on coll_256", barrier),
    probe("core", "wall_s on vec_pingpong", gather),
    probe(
        "core",
        "virt_op_p99_us / wall_s on vec_pingpong (a cost-model change moves fig5_improvement first)",
        pipeline,
    ),
    probe("core", "setup_s on halo3d_1024", world_build),
    probe(
        "sim-trace",
        "span_ns: trace.wall_ratio; off_ns: wall_s everywhere",
        tracing,
    ),
    probe("cluster-sim", "setup_s on jobmix_1024", generate_plan),
    Probe {
        layer: "cluster-sim",
        moves: "wall_s on jobmix_1024 only (the .1024/.256 ratio is the jobs-squared indicator)",
        samples: 3,
        run: campaign_256,
    },
    Probe {
        layer: "cluster-sim",
        moves: "wall_s on jobmix_1024 only (the .1024/.256 ratio is the jobs-squared indicator)",
        samples: 1,
        run: campaign_1024,
    },
];

/// One probe reading, summarised over its samples.
pub struct ProbeResult {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
    pub summary: Summary,
}

/// Run every probe with a host-clock span around each in `log`.
pub fn run_all(smoke: bool, log: &mut SpanLog) -> Vec<ProbeResult> {
    let t0 = Instant::now();
    let mut out: Vec<ProbeResult> = Vec::new();
    for p in ALL.iter().filter(|p| !smoke || p.samples > 1) {
        let started = t0.elapsed().as_nanos() as u64;
        let samples: Vec<Vec<Reading>> = (0..if smoke { 1 } else { p.samples })
            .map(|_| (p.run)())
            .collect();
        for (i, first) in samples[0].iter().enumerate() {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            out.push(ProbeResult {
                name: first.name,
                unit: first.unit,
                clock: first.clock,
                layer: p.layer,
                moves: p.moves,
                summary: Summary::of(&values),
            });
        }
        log.push(
            None,
            None,
            samples[0][0].name,
            p.layer,
            Clock::Host,
            started,
            t0.elapsed().as_nanos() as u64,
        );
    }
    out
}

pub fn print(results: &[ProbeResult]) {
    println!("== probes == (median of n samples; `moves` = where a change should show)");
    let mut layer = "";
    for r in results {
        if r.layer != layer {
            layer = r.layer;
            println!("  [{layer}]");
        }
        println!(
            "    {:<38} {:>14.4} {:<5} {:<5} n={}  [{:.4} .. {:.4}]  -> {}",
            r.name,
            r.summary.median,
            r.unit,
            r.clock,
            r.summary.n,
            r.summary.min,
            r.summary.max,
            r.moves
        );
    }
}

pub fn to_json(results: &[ProbeResult]) -> JsonValue {
    obj(results.iter().map(|r| {
        (
            r.name,
            obj([
                ("layer", text(r.layer)),
                ("unit", text(r.unit)),
                ("clock", text(r.clock)),
                ("median", num(r.summary.median)),
                ("min", num(r.summary.min)),
                ("max", num(r.summary.max)),
                ("n", count(r.summary.n as u64)),
                ("moves", text(r.moves)),
            ]),
        )
    }))
}
