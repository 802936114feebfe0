//! `perfbench`: the two-clock benchmark of the simulated cluster.
//!
//! Virtual time is the product (what the modelled cluster does to a
//! message); host time is the cost of running the model. One command runs
//! six named workloads, checks every output and prints every metric with
//! its unit and clock. Everything is measured from outside the crates, by
//! timing calls into their public functions and reading their public
//! registries. See `benchmark/README.md`.

mod cli;
#[cfg(test)]
mod contract;
mod harness;
mod host;
mod jsonw;
mod probes;
mod report;
mod runner;
mod spanlog;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use gpu_nc_repro::sim_trace::json::{self, JsonValue};

use cli::{Args, Reps};
use jsonw::{count, num, obj, text, to_line};
use report::{disagreements, last_line_metrics, Outcome};
use spanlog::SpanLog;

/// Prefix of the line carrying a child's full result document.
const RESULT_PREFIX: &str = "#result ";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // Both variables change how every world is carried; a result measured
    // under them is not comparable with any other.
    for var in ["SIM_EXEC", "SIM_STACK_KB"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set (it changes the process carrier)");
            return ExitCode::from(2);
        }
    }
    let result = match (args.check, args.workload) {
        (true, _) => check(&args),
        (false, Some(name)) => single(name, &args),
        (false, None) => all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Parse `line` back with the in-tree parser before it is printed.
fn validated(line: String) -> Result<String, String> {
    json::parse(&line).map_err(|e| format!("internal error: emitted invalid JSON: {e}"))?;
    Ok(line)
}

fn run_probes(args: &Args) -> Result<JsonValue, String> {
    let mut log = SpanLog::new();
    let results = probes::run_all(args.smoke, &mut log);
    probes::print(&results);
    let path = args.out.join("trace.probes.json");
    runner::write_validated(&path, &log.to_json("probes"))?;
    Ok(probes::to_json(&results))
}

/// One workload in this process. The last line of standard output is the
/// contract's result object.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::by_name(name).expect("the parser only lets known names through");
    let outcome = runner::run_workload(w, args);
    outcome.print();
    println!("  operation: {}", w.op);
    println!("  why here:  {}", w.why);
    if args.probes {
        run_probes(args)?;
    }
    println!("{RESULT_PREFIX}{}", validated(to_line(&outcome.to_json()))?);
    println!(
        "{}",
        validated(outcome.last_line(args.last_line_per_layer))?
    );
    Ok(outcome.correct())
}

/// The arguments a per-workload child gets.
fn child_args(name: &str, args: &Args) -> Vec<String> {
    let mut v = vec![
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--out".to_string(),
        args.out.display().to_string(),
    ];
    match args.reps {
        Reps::Default => {}
        Reps::Count(n) => v.extend(["--reps".to_string(), n.to_string()]),
        Reps::Seconds(s) => v.extend(["--seconds".to_string(), s.to_string()]),
    }
    if args.trace {
        v.push("--trace".to_string());
    }
    if args.smoke {
        v.push("--smoke".to_string());
    }
    v
}

/// Run one workload in a process of its own (so `peak_rss_mb` is per
/// workload), echo its report and return its outcome.
fn child(name: &str, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let out = Command::new(exe)
        .args(child_args(name, args))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut doc = None;
    let lines: Vec<&str> = stdout.lines().collect();
    // Everything but the machine-readable tail is the child's report.
    for line in &lines[..lines.len().saturating_sub(1)] {
        match line.strip_prefix(RESULT_PREFIX) {
            Some(d) => doc = Some(d.to_string()),
            None => println!("{line}"),
        }
    }
    let doc =
        doc.ok_or_else(|| format!("the {name} process ({}) printed no result", out.status))?;
    Outcome::from_json(&json::parse(&doc)?)
}

fn host_facts() -> JsonValue {
    obj([
        ("nproc", count(host::nproc() as u64)),
        ("rustc", text(host::rustc_version())),
        ("commit", text(host::commit())),
        ("load_1min_at_start", num(host::load_1min())),
    ])
}

/// Every workload, each in its own process; then the probes; then the
/// report file and one summary line.
fn all(args: &Args) -> Result<bool, String> {
    let facts = host_facts();
    println!("perfbench: host {}", to_line(&facts));
    let mut outcomes = Vec::new();
    for w in &workloads::ALL {
        outcomes.push(child(w.name, args)?);
    }
    let probe_doc = if args.probes {
        run_probes(args)?
    } else {
        JsonValue::Null
    };
    summary_table(&outcomes);
    let report = obj([
        ("host", facts),
        ("seed", count(args.seed)),
        (
            "workloads",
            JsonValue::Arr(outcomes.iter().map(Outcome::to_json).collect()),
        ),
        ("probes", probe_doc),
    ]);
    let path = args.out.join("report.json");
    runner::write_validated(&path, &format!("{}\n", to_line(&report)))?;
    println!("wrote {}", path.display());

    let correct = outcomes.iter().all(Outcome::correct);
    let metrics = obj(outcomes.iter().flat_map(|o| {
        last_line_metrics().map(move |m| {
            (
                format!("{}.{}", o.workload, m.name),
                obj([("value", num(o.median(m.name))), ("unit", text(m.unit))]),
            )
        })
    }));
    println!(
        "{}",
        validated(to_line(&obj([
            ("correct", JsonValue::Bool(correct)),
            (
                "attempted",
                count(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1))
            ),
            ("failed", count(outcomes.iter().map(|o| o.failed).sum())),
            ("metrics", metrics),
        ])))?
    );
    Ok(correct)
}

fn summary_table(outcomes: &[Outcome]) {
    println!("== summary (medians) ==");
    print!("  {:<16}", "metric");
    for o in outcomes {
        print!(" {:>14}", o.workload);
    }
    println!();
    for m in &report::END_TO_END {
        print!("  {:<16}", m.name);
        for o in outcomes {
            print!(" {:>14.6}", o.median(m.name));
        }
        println!("  {} ({})", m.unit, m.clock);
    }
}

/// `--check`: the whole set twice; every virtual-clock number must repeat
/// exactly and every host-clock number within its bound.
fn check(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match args.workload {
        Some(n) => vec![n],
        None => workloads::ALL.iter().map(|w| w.name).collect(),
    };
    let mut rounds: Vec<Vec<Outcome>> = Vec::new();
    for round in 1..=2 {
        println!("perfbench --check: round {round} of 2");
        let mut outcomes = Vec::new();
        for name in &names {
            outcomes.push(child(name, args)?);
        }
        rounds.push(outcomes);
    }
    let mut ok = true;
    for (a, b) in rounds[0].iter().zip(&rounds[1]) {
        for o in [a, b] {
            if !o.correct() {
                println!(
                    "CHECK FAILED: {} did not produce correct output",
                    o.workload
                );
                ok = false;
            }
        }
        for (m, x, y) in disagreements(a, b) {
            // Same code, same inputs: a host-clock disagreement is this
            // host's noise, and says that host-clock comparisons made now
            // cannot resolve a change of the bound's size.
            let verdict = if m.clock == "host" {
                "CHECK UNRESOLVED (host noise exceeds the bound)"
            } else {
                "CHECK FAILED"
            };
            println!("{verdict}: {} on {}: {x} then {y}", m.name, a.workload);
            ok = false;
        }
    }
    if ok {
        println!(
            "perfbench --check: OK, {} workload(s) agree within bounds, virtual clock to the ns",
            names.len()
        );
    }
    Ok(ok)
}
