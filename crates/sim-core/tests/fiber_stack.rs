//! Fiber stacks are lazily committed, guard-paged mappings: a stack
//! overflow is a deterministic SIGSEGV, a parked fiber costs the pages it
//! touched rather than its whole budget, `SIM_STACK_KB` still sets the
//! usable size, and none of it is visible to the scheduler (the Event and
//! Threads carriers still grant the CPU in the identical order).
//!
//! The first three need a process of their own (a fatal signal, an RSS
//! reading nothing else disturbs, an environment variable read once per
//! process), so they re-execute this test binary with `FIBER_STACK_CHILD`
//! naming what [`child`] should do.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Output};
use std::sync::Arc;

use sim_core::lock::Mutex;
use sim_core::{
    current_handle, park, sleep, spawn, yield_now, ExecMode, Mailbox, ProcHandle, Sim, SimDur,
    SimTime, WakeEvent,
};

const CHILD_ENV: &str = "FIBER_STACK_CHILD";
const SIGSEGV: i32 = 11;

/// Re-run this binary as `child` in mode `mode`, with `SIM_STACK_KB` set
/// to `stack_kb` (or removed).
fn run_child(mode: &str, stack_kb: Option<&str>) -> Output {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["--exact", "child", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, mode)
        .env_remove("SIM_STACK_KB");
    if let Some(kb) = stack_kb {
        cmd.env("SIM_STACK_KB", kb);
    }
    cmd.output().expect("spawn child test process")
}

/// Use at least `kib` KiB of stack: one 1 KiB frame per level, kept alive
/// across the recursive call so the compiler can neither elide the array
/// nor turn the call into a loop.
#[inline(never)]
fn burn_stack(kib: usize) -> usize {
    let mut frame = [0u8; 1024];
    frame[kib % 1024] = 1;
    black_box(&mut frame);
    let below = if kib == 0 { 0 } else { burn_stack(kib - 1) };
    below + frame[kib % 1024] as usize
}

/// Resident set size of this process in bytes.
fn rss_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

/// Run `body` as the only process of an Event-mode simulation.
fn on_fiber(body: impl FnOnce() + Send + 'static) {
    let sim = Sim::new();
    sim.set_exec_mode(ExecMode::Event);
    sim.spawn("fiber", body);
    sim.run();
}

/// The child side. A no-op in an ordinary test run.
#[test]
fn child() {
    let Ok(mode) = std::env::var(CHILD_ENV) else {
        return;
    };
    match mode.as_str() {
        // Far past any stack budget; must die on the guard page.
        "overflow" => on_fiber(|| {
            black_box(burn_stack(usize::MAX));
        }),
        "burn24k" => on_fiber(|| {
            black_box(burn_stack(24));
        }),
        "burn160k" => on_fiber(|| {
            black_box(burn_stack(160));
        }),
        "rss" => parked_fibers_rss(),
        other => panic!("unknown {CHILD_ENV} mode {other}"),
    }
}

/// Three generations of 2000 fibers, as a campaign of short-lived worlds
/// spawns them: every fiber runs and parks (so it has touched the top of
/// its stack), the meter reads how much RSS grew since before the
/// generation's first spawn, then lets them all finish. Later generations
/// get whatever memory the earlier ones gave back, which is where eagerly
/// written stacks cost their whole budget. Prints the largest growth.
fn parked_fibers_rss() {
    const FIBERS: usize = 2000;
    let worst = Arc::new(Mutex::new(0usize));
    // Keeps the allocator from returning a finished generation's memory to
    // the host, as any long-lived simulation object would.
    let mut pins: Vec<Box<u64>> = Vec::new();
    for _generation in 0..3 {
        let sim = Sim::new();
        sim.set_exec_mode(ExecMode::Event);
        let before = rss_bytes();
        let handles: Vec<ProcHandle> = (0..FIBERS)
            .map(|i| sim.spawn(format!("parked{i}"), || park("held by the test")))
            .collect();
        pins.push(Box::new(before as u64));
        let worst = Arc::clone(&worst);
        sim.spawn("meter", move || {
            // Spawned last, so every other fiber has already run and parked.
            let growth = rss_bytes().saturating_sub(before);
            let mut w = worst.lock();
            *w = growth.max(*w);
            for h in &handles {
                h.unpark();
            }
        });
        sim.run();
    }
    black_box(&pins);
    println!("rss_growth_bytes={}", *worst.lock());
}

#[test]
fn stack_overflow_faults_on_the_guard_page() {
    let out = run_child("overflow", None);
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "unbounded recursion in a fiber must die by SIGSEGV, got {:?}\nstdout: {}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn parked_fibers_commit_only_what_they_touch() {
    let out = run_child("rss", None);
    assert!(out.status.success(), "rss child failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The harness prints "test child ... " on the same line first.
    let growth: usize = stdout
        .split_once("rss_growth_bytes=")
        .and_then(|(_, rest)| rest.lines().next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no rss_growth_bytes in child output:\n{stdout}"));
    // 2000 eagerly written default stacks are 500 MiB in release and 2 GiB
    // in debug; touched pages alone are a few KiB per fiber.
    assert!(
        growth < 64 << 20,
        "2000 parked fibers grew RSS by {} MiB",
        growth >> 20
    );
}

#[test]
fn sim_stack_kb_sets_the_usable_size() {
    // 64 KiB holds a 24 KiB recursion...
    let small_ok = run_child("burn24k", Some("64"));
    assert!(
        small_ok.status.success(),
        "24 KiB of frames must fit SIM_STACK_KB=64: {:?}",
        small_ok.status
    );
    // ...but not a 160 KiB one, which 1 MiB does.
    let small_overflow = run_child("burn160k", Some("64"));
    assert_eq!(
        small_overflow.status.signal(),
        Some(SIGSEGV),
        "160 KiB of frames must overflow SIM_STACK_KB=64: {:?}",
        small_overflow.status
    );
    let large_ok = run_child("burn160k", Some("1024"));
    assert!(
        large_ok.status.success(),
        "160 KiB of frames must fit SIM_STACK_KB=1024: {:?}",
        large_ok.status
    );
}

/// `SIM_STACK_KB` comes from outside the program: a value that is not a
/// number of KiB the host can address must stop the run by name, not run at
/// some other size.
#[test]
fn sim_stack_kb_rejects_what_it_cannot_honour() {
    // Not a number; a number with a unit; 2^54 + 1 KiB, past `usize` bytes.
    for bad in ["abc", "512k", "18014398509481985", "0"] {
        let out = run_child("burn24k", Some(bad));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && stderr.contains(&format!("SIM_STACK_KB={bad:?}")),
            "SIM_STACK_KB={bad} must be one panic naming the variable and the value: {:?}\n{stderr}",
            out.status
        );
    }
}

/// A small program that exercises every way a process yields: timed
/// sleeps, equal-time yields, park/unpark, mailbox hand-offs, dynamic
/// spawn and some stack depth.
fn wake_trace_of(mode: ExecMode) -> (Vec<WakeEvent>, SimTime) {
    let sim = Sim::new();
    sim.set_exec_mode(mode);
    sim.record_wake_trace();
    let ring: Vec<Mailbox<u32>> = (0..4).map(|_| Mailbox::new()).collect();
    let sleeper: Arc<Mutex<Option<ProcHandle>>> = Arc::default();
    for r in 0..4usize {
        let rx = ring[r].clone();
        let tx = ring[(r + 1) % 4].clone();
        let sleeper = Arc::clone(&sleeper);
        sim.spawn(format!("p{r}"), move || {
            if r == 0 {
                tx.send(0);
            }
            for _ in 0..5 {
                let token = rx.recv();
                sleep(SimDur::from_nanos(100 * (r as u64 + 1)));
                black_box(burn_stack(8));
                yield_now();
                tx.send(token + 1);
            }
            if r == 3 {
                let to_wake = Arc::clone(&sleeper);
                spawn("late", move || {
                    sleep(SimDur::from_micros(1));
                    let h = to_wake.lock().take().expect("parker registered first");
                    h.unpark();
                });
                *sleeper.lock() = Some(current_handle());
                park("until the late child wakes us");
            }
        });
    }
    let end = sim.run();
    (sim.wake_trace(), end)
}

#[test]
fn event_and_thread_carriers_grant_identically() {
    let (ev, ev_end) = wake_trace_of(ExecMode::Event);
    let (th, th_end) = wake_trace_of(ExecMode::Threads);
    assert!(
        ev.len() > 50,
        "trace too short to mean anything: {}",
        ev.len()
    );
    assert_eq!(ev_end, th_end);
    assert_eq!(ev, th);
}
