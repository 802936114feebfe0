//! Satellite guard: tracing must never perturb simulated time.
//!
//! Runs `pipeline_bench`'s measurement (`bench::measure::vector_laps`) for a
//! subset of the paper's message sizes and checks the virtual latencies
//! against the committed `results/BENCH_pipeline.json` **exactly** (f64
//! equality on round-tripped values) — once with an enabled recorder and
//! once with a disabled one. Any span emission that slept, blocked or
//! advanced the virtual clock would shift these numbers and fail the
//! comparison.

use bench::measure::{fixed_cfg, vector_laps};
use gpu_nc_repro::mpi_sim::{MpiConfig, SchemeSel};
use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::{GpuCluster, Recorder};
use gpu_nc_repro::sim_trace::json::JsonValue;

/// `(best, last)` lap in microseconds of `pipeline_bench`'s measurement.
fn measure(cfg: MpiConfig, total: usize, iters: u32, rec: Recorder) -> (f64, f64) {
    let ns = vector_laps(
        GpuCluster::new(2).mpi_config(cfg).recorder(rec),
        total,
        iters,
    );
    let us = |ns: &u64| *ns as f64 / 1e3;
    (us(ns.iter().min().unwrap()), us(ns.last().unwrap()))
}

/// The committed pipeline ledger and its `iters_per_size`.
fn committed_reference() -> (JsonValue, u32) {
    let doc = bench::committed("results/BENCH_pipeline.json");
    let iters = doc.get("iters_per_size").and_then(JsonValue::as_f64);
    (doc, iters.expect("iters_per_size") as u32)
}

/// Member `field` of the first `data` row of `doc` whose `key` is `value`.
fn committed_cell(doc: &JsonValue, key: &str, value: usize, field: &str) -> f64 {
    let rows = doc.get("data").and_then(JsonValue::as_arr);
    rows.expect("data array")
        .iter()
        .find(|r| r.get(key).and_then(JsonValue::as_f64) == Some(value as f64))
        .unwrap_or_else(|| panic!("no committed row for {key} = {value}"))
        .get(field)
        .and_then(JsonValue::as_f64)
        .unwrap()
}

#[test]
fn pipeline_bench_times_match_committed_reference_with_tracing_on_and_off() {
    let (doc, iters) = committed_reference();
    // One eager and two staged sizes keep the test fast while covering both
    // protocol paths and the adaptive tuner.
    for bytes in [4096usize, 64 << 10, 1 << 20] {
        let want = |field| committed_cell(&doc, "bytes", bytes, field);
        // Each run gets its own Recorder: the metrics registry namespaces
        // counters per fabric, so sharing one recorder across two fabrics
        // would collide (and the registry panics instead of silently
        // dropping the second registration).
        for (label, mk) in [("on", Recorder::new as fn() -> _), ("off", Recorder::off)] {
            let (fixed_best, _) = measure(fixed_cfg(), bytes, iters, mk());
            let (adaptive_best, adaptive_settled) =
                measure(MpiConfig::default(), bytes, iters, mk());
            assert_eq!(
                fixed_best,
                want("fixed_best_us"),
                "{bytes} bytes, tracing {label}: fixed best diverged from reference"
            );
            assert_eq!(
                adaptive_best,
                want("adaptive_best_us"),
                "{bytes} bytes, tracing {label}: adaptive best diverged from reference"
            );
            assert_eq!(
                adaptive_settled,
                want("adaptive_settled_us"),
                "{bytes} bytes, tracing {label}: adaptive settled diverged from reference"
            );
        }
    }
}

#[test]
fn explicit_default_scheme_replays_committed_baselines() {
    // The scheme-layer refactor routes every send through SchemeSelector;
    // spelling out its default (`Auto { offload: false }`) must replay the
    // committed references event-for-event — first the pipeline latencies,
    // then the halo3d placement benchmark's ppn=2 row.
    use gpu_nc_repro::halo3d::{run_halo3d_on, Variant};

    let (doc, iters) = committed_reference();
    let explicit = SchemeSel::Auto { offload: false };
    let cfg = MpiConfig {
        scheme: explicit,
        ..fixed_cfg()
    };
    for bytes in [64 << 10, 1 << 20] {
        let (fixed_best, _) = measure(cfg.clone(), bytes, iters, Recorder::off());
        assert_eq!(
            fixed_best,
            committed_cell(&doc, "bytes", bytes, "fixed_best_us"),
            "{bytes} bytes: explicit default scheme diverged from reference"
        );
    }

    // BENCH_ppn's ppn=2 blocked placement, on `ppn_sweep`'s own workload.
    let ppn = bench::find("ppn_sweep").unwrap();
    let p = bench::exp::halo::ppn_workload(&bench::Args::defaults(ppn.flags));
    let cfg = MpiConfig {
        scheme: explicit,
        ..MpiConfig::default()
    };
    let cluster = GpuCluster::new(p.nranks()).mpi_config(cfg).ppn(2);
    let (blocked, _) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
    assert_eq!(
        blocked.wall.as_millis_f64(),
        committed_cell(
            &bench::committed("results/BENCH_ppn.json"),
            "ppn",
            2,
            "blocked_ms"
        ),
        "explicit default scheme diverged from the committed ppn=2 placement row"
    );
}

#[test]
fn enabled_and_disabled_recorders_replay_identical_virtual_time() {
    // End-to-end virtual completion time of a whole traced cluster run,
    // recorder on vs off (broader than the per-iteration latencies above:
    // this covers barriers, finalize and the fabric teardown).
    let run = |rec: Recorder| {
        GpuCluster::new(2).recorder(rec).run(|env| {
            let x = VectorXfer::paper(768 << 10);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 3);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 3);
            }
        })
    };
    let on = run(Recorder::new());
    let off = run(Recorder::off());
    assert_eq!(on, off, "tracing perturbed the virtual clock");
}
