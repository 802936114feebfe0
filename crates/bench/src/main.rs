//! `bench <experiment> [flags]`, `bench list`, `bench check <experiment>`.

use bench::{find, Args, Experiment, EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: bench <experiment> [flags] | bench list | bench check <experiment>");
    eprintln!("experiments: see `bench list`");
    std::process::exit(2)
}

fn experiment(name: Option<String>) -> &'static Experiment {
    let name = name.unwrap_or_else(|| usage());
    find(&name).unwrap_or_else(|| {
        eprintln!("no experiment `{name}`");
        usage()
    })
}

/// One line per experiment: name, who polices its committed file, that
/// file, the flags it reads. `scripts/ci.sh` loops over this.
fn list() {
    for e in EXPERIMENTS {
        let (file, by) = match e.committed {
            Some((file, by, _)) => (file, format!("{by:?}").to_lowercase()),
            None => ("-", "-".to_string()),
        };
        let flags: Vec<String> = e.flags.iter().map(|(k, _)| format!("--{k}")).collect();
        let flags = if flags.is_empty() {
            "-".to_string()
        } else {
            flags.join(",")
        };
        println!("{:<24} {by:<7} {file:<36} {flags}", e.name);
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let first = argv.next();
    match first.as_deref() {
        Some("list") => list(),
        Some("check") => {
            let found = experiment(argv.next()).check();
            for line in &found {
                eprintln!("MISMATCH: {line}");
            }
            std::process::exit(i32::from(!found.is_empty()));
        }
        _ => {
            let e = experiment(first);
            let args = Args::parse(e.flags, argv).unwrap_or_else(|err| {
                eprintln!("{err}");
                std::process::exit(2)
            });
            let doc = e.run(&args);
            if let Some(path) = &args.out {
                std::fs::write(path, format!("{}\n", doc.json())).expect("write --out file");
                eprintln!("wrote {path}");
            }
            if args.json {
                println!("{}", doc.json());
            } else {
                print!("{}", doc.text());
            }
            for f in &doc.failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(i32::from(!doc.failures.is_empty()));
        }
    }
}
