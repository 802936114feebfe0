//! One workload, in this process: a discarded warm-up rep, the timed reps,
//! the optional traced rep, and the outcome.
//!
//! Every rep builds a fresh world, so set-up is sampled once per rep. A rep
//! that panics outside a world's own `catch_unwind` is caught here: its
//! operations count as failed and the run goes on, so `failed_op_share` is
//! always a number.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use gpu_nc_repro::sim_core::instrument;
use gpu_nc_repro::sim_trace::json;

use crate::cli::{Args, Reps};
use crate::harness::{panic_text, Rep, RepCfg};
use crate::report::Outcome;
use crate::spanlog::{Clock, SpanLog};
use crate::stats::{percentile, samples_beyond, Summary, TAIL_MIN};
use crate::workloads::Workload;
use crate::{host, trace};

/// With `--seconds`: never fewer timed reps than this, never more than
/// [`MAX_REPS`].
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;

fn one_rep(w: &Workload, cfg: &RepCfg) -> Rep {
    catch_unwind(AssertUnwindSafe(|| (w.run)(cfg))).unwrap_or_else(|p| Rep {
        attempted: 1,
        failed: 1,
        error: Some(format!("rep panicked outside its world: {}", panic_text(p))),
        ..Rep::default()
    })
}

/// The span log of one rep: host-clock spans for its phases, one
/// virtual-clock span per operation under the segment.
fn span_log(w: &Workload, rep: &Rep) -> SpanLog {
    let t = &rep.timing;
    let ns = |s: f64| (s * 1e9) as u64;
    let mut log = SpanLog::new();
    let setup_end = ns(t.setup_s);
    let seg_end = setup_end + ns(t.wall_s + t.untimed_s);
    let verify_end = seg_end + ns(t.verify_s);
    let end = verify_end + ns(t.teardown_s);
    let root = log.push(None, None, "rep", "perfbench", Clock::Host, 0, end);
    let host = |log: &mut SpanLog, name: &str, a: u64, b: u64| {
        log.push(Some(root), None, name, "perfbench", Clock::Host, a, b)
    };
    host(&mut log, "build", 0, ns(t.build_s));
    host(&mut log, "setup", ns(t.build_s), setup_end);
    let seg = host(&mut log, "segment", setup_end, seg_end);
    host(&mut log, "verify", seg_end, verify_end);
    host(&mut log, "teardown", verify_end, end);
    for (i, op) in t.ops.iter().enumerate() {
        let name = if op.ok { w.span.0 } else { "failed" };
        log.push(
            Some(seg),
            Some(i as u32),
            name,
            w.span.1,
            Clock::Virt,
            op.start,
            op.end,
        );
    }
    log
}

pub fn write_validated(path: &Path, doc: &str) -> Result<(), String> {
    json::parse(doc).map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `w` as `args` says and report.
pub fn run_workload(w: &Workload, args: &Args) -> Outcome {
    let cfg = RepCfg {
        seed: args.seed,
        smoke: args.smoke,
        traced: false,
    };
    let (min_reps, max_reps, budget_s) = match (args.smoke, args.reps) {
        (true, _) => (1, 1, 0),
        (_, Reps::Default) => (w.reps, w.reps, 0),
        (_, Reps::Count(n)) => (n, n, 0),
        // A run that reports the per-layer set needs the timed reps only
        // as the denominator of two ratios: the minimum will do.
        (_, Reps::Seconds(_)) if args.last_line_per_layer => (MIN_REPS, MIN_REPS, 0),
        (_, Reps::Seconds(s)) => (MIN_REPS, MAX_REPS, s),
    };
    let warmup = !args.smoke;
    if warmup {
        one_rep(w, &cfg);
    }
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || (reps.len() < max_reps && started.elapsed().as_secs() < budget_s)
    {
        reps.push(one_rep(w, &cfg));
    }
    // Before the traced rep: its recorder and wake trace are not part of the
    // workload's footprint.
    let peak_rss_mb = host::peak_rss_mb();

    let lat: Vec<Vec<u64>> = reps.iter().map(Rep::latencies).collect();
    let pct = |p: f64| -> Vec<f64> {
        lat.iter()
            .map(|l| percentile(l, p).unwrap_or(0) as f64 / 1e3)
            .collect()
    };
    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let virt_ms = col(|r| r.timing.virt_ns as f64 / 1e6);
    let (p50, p99) = (pct(50.0), pct(99.0));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let same = |v: &[f64]| v.windows(2).all(|w| w[0] == w[1]);
    let mut errors: Vec<String> = reps.iter().filter_map(|r| r.error.clone()).collect();
    errors.dedup();

    let e2e = vec![
        Summary::of(&virt_ms),
        Summary::of(&p50),
        Summary::of(&p99),
        Summary::of(&col(|r| r.timing.wall_s)),
        Summary::of(&col(|r| r.timing.setup_s)),
        Summary::of(&[peak_rss_mb]),
        Summary::of(&[failed as f64 / attempted.max(1) as f64]),
    ];

    let mut per_layer = None;
    if args.trace {
        let before = instrument::global().snapshot();
        let rep = one_rep(
            w,
            &RepCfg {
                traced: true,
                ..cfg
            },
        );
        let global = instrument::global().delta(&before);
        let log = span_log(w, &rep);
        let path = args.out.join(format!("trace.{}.json", w.name));
        if let Err(e) = write_validated(&path, &log.to_json(w.name)) {
            errors.push(e);
        }
        errors.extend(rep.error.iter().map(|e| format!("traced rep: {e}")));
        if rep.timing.virt_ns != reps[0].timing.virt_ns {
            errors.push(format!(
                "tracing changed virtual time: {} ns traced, {} ns untraced",
                rep.timing.virt_ns, reps[0].timing.virt_ns
            ));
        }
        per_layer = Some(trace::per_layer(w.name, &rep, e2e[3].median, &global));
    }

    Outcome {
        workload: w.name.to_string(),
        seed: args.seed,
        reps: reps.len(),
        warmup,
        ops_per_segment: reps[0].attempted,
        tail_ok: lat
            .iter()
            .all(|l| samples_beyond(l.len(), 99.0) >= TAIL_MIN),
        attempted,
        failed,
        deterministic: same(&virt_ms) && same(&p50) && same(&p99),
        generator_late_ns: reps.iter().map(|r| r.generator_late_ns).max().unwrap_or(0),
        e2e,
        per_layer,
        errors,
    }
}
