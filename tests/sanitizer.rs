//! Seeded-bug regression tests for simsan, the simulator's sanitizer.
//!
//! Each test plants a real bug (a missed completion wait, a leaked vbuf, a
//! park cycle) and asserts that the sanitizer reports it with a useful
//! diagnostic — and that the same workload is silent with the sanitizer
//! off, or with the bug fixed. A final test runs representative benchmark
//! workloads under `Collect` and requires zero reports: the instrumented
//! library itself must be clean.

use gpu_nc_repro::mpi_sim::{MpiConfig, SeededBug};
use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, recv_mv2, send_mv2, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_sim::Gpu;
use hostmem::HostBuf;
use sim_core::{Report, ReportKind, SanitizerMode, Sim};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded bug #1: enqueue an async D2H copy and read the destination host
/// buffer without waiting on the returned completion. The bytes are correct
/// (the simulator moves them eagerly) — only the sanitizer can tell the
/// modeled timeline read the buffer while the DMA was still in flight.
fn missed_wait_workload(mode: SanitizerMode, wait_first: bool) -> Vec<Report> {
    let sim = Sim::new();
    sim.set_sanitizer(mode);
    sim.spawn("racer", move || {
        let gpu = Gpu::tesla_c2050(0);
        let stream = gpu.create_stream();
        let dev = gpu.malloc(4096);
        gpu.write_bytes(dev, &vec![7u8; 4096]);
        let host = HostBuf::alloc(4096);
        let c = gpu.memcpy_async(host.base(), dev, 4096, &stream);
        if wait_first {
            c.wait();
        }
        let mut out = vec![0u8; 4096];
        host.read_into(0, &mut out);
        assert_eq!(out, vec![7u8; 4096], "bytes are right either way");
    });
    sim.run();
    sim.sanitizer_reports()
}

#[test]
fn missed_wait_race_is_reported() {
    let reports = missed_wait_workload(SanitizerMode::Collect, false);
    let races: Vec<&Report> = reports
        .iter()
        .filter(|r| r.kind == ReportKind::Race)
        .collect();
    assert!(
        !races.is_empty(),
        "expected a race report, got: {reports:?}"
    );
    let r = races[0];
    assert_eq!(r.process, "racer", "report names the accessing process");
    assert!(
        r.message.contains("host buffer"),
        "report names the buffer: {}",
        r.message
    );
    assert!(
        r.message.contains("memcpy_async"),
        "report names the in-flight op: {}",
        r.message
    );
    // The rendered report carries the virtual-time instant and process.
    let line = r.to_string();
    assert!(line.contains("at ") && line.contains("racer"), "{line}");
}

#[test]
fn missed_wait_race_silent_when_off() {
    assert!(missed_wait_workload(SanitizerMode::Off, false).is_empty());
}

#[test]
fn waited_copy_is_clean() {
    assert!(missed_wait_workload(SanitizerMode::Collect, true).is_empty());
}

#[test]
#[should_panic(expected = "simsan")]
fn missed_wait_race_panics_in_panic_mode() {
    missed_wait_workload(SanitizerMode::Panic, false);
}

/// Seeded bug #2: `SeededBug::LeakVbuf` makes the sender's engine
/// drop the first reaped send vbuf instead of returning it to the pool.
/// Pool accounting is reconciled at `Sim::run` exit.
fn staged_transfer_reports(fault: bool) -> Vec<Report> {
    let cfg = MpiConfig {
        seeded_bug: fault.then_some(SeededBug::LeakVbuf),
        ..MpiConfig::default()
    };
    let out = GpuCluster::new(2)
        .mpi_config(cfg)
        .sanitizer(SanitizerMode::Collect)
        .try_run(|env| {
            let x = VectorXfer::paper(512 << 10);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 3);
                send_mv2(&env.comm, dev, x, 1, 0);
            } else {
                recv_mv2(&env.comm, dev, x, 0, 0);
            }
        });
    out.unwrap().2
}

#[test]
fn leaked_vbuf_is_reported() {
    let reports = staged_transfer_reports(true);
    let leaks: Vec<&Report> = reports
        .iter()
        .filter(|r| r.kind == ReportKind::PoolLeak)
        .collect();
    assert!(
        !leaks.is_empty(),
        "expected a pool-leak report, got: {reports:?}"
    );
    assert!(
        leaks.iter().any(|r| r.message.contains("rank0.send_pool")),
        "leak report names the sender's pool: {leaks:?}"
    );
    assert!(
        leaks[0].message.contains("1 buffer(s) outstanding"),
        "leak report counts the missing vbuf: {}",
        leaks[0].message
    );
}

#[test]
fn staged_transfer_without_fault_is_clean() {
    assert!(staged_transfer_reports(false).is_empty());
}

/// Seeded bug #2b: `SeededBug::DropDevCredit` makes the receiver
/// of a D2D device transfer swallow its first CREDIT-dev instead of
/// sending it, stranding the sender's packed device tbuf. The sender's
/// `dev_tbuf` pool accounting must flag the leak at exit. The sender polls
/// its isend a bounded number of times and then abandons it — the credit
/// will never come — so the job still reaches exit reconciliation.
fn d2d_transfer_reports(fault: bool) -> Vec<Report> {
    let cfg = MpiConfig {
        seeded_bug: fault.then_some(SeededBug::DropDevCredit),
        ..MpiConfig::default()
    };
    let out = GpuCluster::new(2)
        .mpi_config(cfg)
        .ppn(2) // co-located: the D2D (shared-GPU) rendezvous path
        .sanitizer(SanitizerMode::Collect)
        .try_run(|env| {
            let x = VectorXfer::paper(64 << 10);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 9);
                let req = env.comm.isend(dev, 1, &x.dtype(), 1, 0);
                for _ in 0..64 {
                    if env.comm.test(&req) {
                        break;
                    }
                    sim_core::sleep(sim_core::SimDur::from_micros(20));
                }
                if env.comm.test(&req) {
                    env.comm.wait(req); // reap (clean run)
                }
                // Faulted run: the credit never comes — abandon the
                // request. The quiescence invariant flags that too.
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
            }
        });
    out.unwrap().2
}

#[test]
fn dropped_dev_credit_leaks_tbuf() {
    let reports = d2d_transfer_reports(true);
    let leaks: Vec<&Report> = reports
        .iter()
        .filter(|r| r.kind == ReportKind::PoolLeak)
        .collect();
    assert!(
        !leaks.is_empty(),
        "expected a dev_tbuf pool-leak report, got: {reports:?}"
    );
    assert!(
        leaks.iter().any(|r| r.message.contains("rank0.dev_tbuf")),
        "leak report names the sender's device tbuf pool: {leaks:?}"
    );
}

#[test]
fn d2d_transfer_without_fault_is_clean() {
    assert!(d2d_transfer_reports(false).is_empty());
}

/// Seeded bug #2c: `SeededBug::ShmEagerOversize` makes the sender
/// apply twice the configured shm eager limit toward co-located peers, so
/// a payload between the real limit and twice the limit ships eagerly.
/// The receiver-side protocol linter must flag the oversized payload.
fn shm_eager_reports(fault: bool) -> Vec<Report> {
    use gpu_nc_repro::mpi_sim::{Datatype, MpiWorld};
    let cfg = MpiConfig {
        seeded_bug: fault.then_some(SeededBug::ShmEagerOversize),
        ..MpiConfig::default()
    };
    let n = 40 << 10; // between SHM_EAGER_LIMIT (32 KiB) and 2x
    let out = MpiWorld::new(2)
        .with_config(cfg)
        .with_ppn(2)
        .with_sanitizer(SanitizerMode::Collect)
        .try_run(move |comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec(vec![5u8; n]);
                comm.send(buf.base(), n, &t, 1, 0);
            } else {
                let buf = HostBuf::alloc(n);
                let st = comm.recv(buf.base(), n, &t, 0, 0);
                assert_eq!(st.bytes, n);
                assert_eq!(buf.read(0, n), vec![5u8; n], "payload still delivered");
            }
        });
    out.unwrap().2
}

#[test]
fn oversized_shm_eager_is_reported() {
    let reports = shm_eager_reports(true);
    let protocol: Vec<&Report> = reports
        .iter()
        .filter(|r| r.kind == ReportKind::Protocol)
        .collect();
    assert!(
        !protocol.is_empty(),
        "expected a protocol report, got: {reports:?}"
    );
    assert!(
        protocol[0].message.contains("eager payload"),
        "linter names the oversized payload: {}",
        protocol[0].message
    );
    for r in &protocol {
        assert!(
            !r.message.contains("  "),
            "report text lost a line continuation: {:?}",
            r.message
        );
    }
}

#[test]
fn shm_eager_within_limit_is_clean() {
    assert!(shm_eager_reports(false).is_empty());
}

/// Seeded bug #3: a park cycle. Two processes each wait on a completion
/// only the other would complete. The kernel's hang panic must carry a
/// wait-for graph naming each process and what it blocks on, and the
/// sanitizer records one Deadlock report per parked process.
#[test]
fn deadlock_names_parked_processes() {
    let sim = Sim::new();
    sim.set_sanitizer(SanitizerMode::Collect);
    let a = sim_core::Completion::pending();
    let b = sim_core::Completion::pending();
    {
        let (a, b) = (a.clone(), b.clone());
        sim.spawn("alice", move || {
            b.wait(); // bob never completes it
            a.complete_at(sim_core::now());
        });
    }
    sim.spawn("bob", move || {
        a.wait(); // alice is stuck first
        b.complete_at(sim_core::now());
    });
    let err =
        catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("a park cycle must abort the run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
    assert!(msg.contains("simulation deadlock"), "{msg}");
    assert!(msg.contains("wait-for graph"), "{msg}");
    assert!(msg.contains("alice") && msg.contains("bob"), "{msg}");

    let reports = sim.sanitizer_reports();
    let deadlocks: Vec<&Report> = reports
        .iter()
        .filter(|r| r.kind == ReportKind::Deadlock)
        .collect();
    assert_eq!(deadlocks.len(), 2, "one report per parked process");
    assert!(deadlocks.iter().any(|r| r.process == "alice"));
    assert!(deadlocks.iter().any(|r| r.process == "bob"));
}

/// The benchmark workloads themselves must be clean: a staged GPU-to-GPU
/// transfer and an eager host exchange run under `Collect` with zero
/// reports, so the sanitizer can stay on in benchmark runs.
#[test]
fn benchmark_workloads_clean_under_sanitizer() {
    let out = GpuCluster::new(2)
        .sanitizer(SanitizerMode::Collect)
        .try_run(|env| {
            // Staged non-contiguous pipeline, both directions.
            let x = VectorXfer::paper(256 << 10);
            let dev = env.gpu.malloc(x.extent());
            let me = env.comm.rank();
            if me == 0 {
                fill_vector(&env.gpu, dev, &x, 5);
                send_mv2(&env.comm, dev, x, 1, 0);
                recv_mv2(&env.comm, dev, x, 1, 1);
            } else {
                recv_mv2(&env.comm, dev, x, 0, 0);
                send_mv2(&env.comm, dev, x, 0, 1);
            }
            env.comm.barrier();
            // Contiguous host path (eager and rendezvous sizes).
            let t = gpu_nc_repro::mpi_sim::Datatype::byte();
            t.commit();
            for (bytes, tag) in [(1usize << 10, 2u32), (256 << 10, 3)] {
                let buf = HostBuf::alloc(bytes);
                if me == 0 {
                    env.comm.send(buf.base(), bytes, &t, 1, tag);
                } else {
                    env.comm.recv(buf.base(), bytes, &t, 0, tag);
                }
            }
        });
    let reports = out.unwrap().2;
    assert!(
        reports.is_empty(),
        "benchmark workloads must be sanitizer-clean: {reports:?}"
    );
}

/// The Figure 2 pack-scheme benchmark (the paper's §I-A measurement) is
/// also clean under the sanitizer: every scheme waits on the right
/// completions before verifying its output.
#[test]
fn pack_schemes_clean_under_sanitizer() {
    use gpu_nc_repro::mv2_gpu_nc::schemes::{PackBench, PackScheme};
    let sim = Sim::new();
    sim.set_sanitizer(SanitizerMode::Collect);
    sim.spawn("fig2", || {
        let gpu = Gpu::tesla_c2050(0);
        let b = PackBench::new(&gpu, 64 << 10, 4, 16);
        for s in PackScheme::ALL {
            b.run(s);
            b.verify(s);
        }
        b.free();
    });
    sim.run();
    let reports = sim.sanitizer_reports();
    assert!(
        reports.is_empty(),
        "pack schemes must be sanitizer-clean: {reports:?}"
    );
}

/// The application benchmarks under the (default) adaptive chunk policy
/// must also be clean: the autotuner changes chunk geometry between
/// transfers, which exercises vbuf reuse and flow control in patterns the
/// fixed policy never produces.
#[test]
fn halo3d_adaptive_clean_under_sanitizer() {
    use gpu_nc_repro::halo3d::{run_halo3d_on, Halo3dParams, Variant};
    let p = Halo3dParams {
        grid: (2, 1, 1),
        local: (32, 64, 64), // 16 KiB i-faces: staged rendezvous
        iters: 2,
    };
    let cluster = GpuCluster::new(p.nranks()).sanitizer(SanitizerMode::Collect);
    let (_out, reports) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
    assert!(
        reports.is_empty(),
        "halo3d must be sanitizer-clean under the adaptive policy: {reports:?}"
    );
}

#[test]
fn stencil2d_adaptive_clean_under_sanitizer() {
    use gpu_nc_repro::stencil2d::{run_stencil_on, RunOptions, StencilParams, Variant};
    let p = StencilParams {
        py: 1,
        px: 2,
        rows: 1200, // 9.6 KiB column halo: staged rendezvous
        cols: 16,
        iters: 2,
    };
    let cluster = GpuCluster::new(p.nranks()).sanitizer(SanitizerMode::Collect);
    let (_out, reports) = run_stencil_on::<f64>(cluster, p, Variant::Mv2, RunOptions::default());
    assert!(
        reports.is_empty(),
        "stencil2d must be sanitizer-clean under the adaptive policy: {reports:?}"
    );
}
