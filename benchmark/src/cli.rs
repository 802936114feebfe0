//! Strict command line: an unknown flag, an unknown workload or a malformed
//! value is an error, never ignored.

use std::path::PathBuf;

use crate::workloads;

pub const DEFAULT_SEED: u64 = 20211;

pub const USAGE: &str = "\
usage: perfbench [--workload NAME|all] [--seed N] [--reps R | --seconds S]
                 [--trace [0|1]] [--probes] [--smoke] [--check] [--out DIR]

  --workload   one of the six workloads, or all (default), each in a
               process of its own
  --seed       message order, payload bytes, irregular block order, fault
               schedule, arrival skew (default 20211)
  --reps       timed reps per workload (default 5; jobmix_1024 3, scheme_zoo 15)
  --seconds    instead of a fixed count: add timed reps until S seconds of
               measuring have passed (at least 3 reps)
  --trace      add the traced rep: per-layer numbers and
               out/trace.<workload>.json. With `--trace 1` the last line
               carries the per-layer metrics, otherwise the end-to-end ones
  --probes     run the workload-independent per-layer probes
  --smoke      one rep per workload at reduced counts, no warm-up
  --check      run the set twice; exit 1 naming the metric and workload if a
               virtual-clock number differs at all or a host-clock one by
               more than its bound
  --out        directory for trace and report files (default benchmark/out)";

/// How many timed reps a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reps {
    /// The workload's own default.
    Default,
    Count(usize),
    /// Until this many seconds of measuring have passed.
    Seconds(u64),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// `None` = all, each in a child process.
    pub workload: Option<&'static str>,
    pub seed: u64,
    pub reps: Reps,
    /// Run the traced rep.
    pub trace: bool,
    /// The last line carries per-layer instead of end-to-end metrics.
    pub last_line_per_layer: bool,
    pub probes: bool,
    pub smoke: bool,
    pub check: bool,
    pub out: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: DEFAULT_SEED,
            reps: Reps::Default,
            trace: false,
            last_line_per_layer: false,
            probes: false,
            smoke: false,
            check: false,
            out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
}

/// Parse the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let next = argv.get(i + 1);
        // Flags that take a value consume it below.
        let mut took_value = true;
        match flag {
            "--workload" => {
                let name = next.ok_or("--workload needs a value")?;
                a.workload = match name.as_str() {
                    "all" => None,
                    n => Some(
                        workloads::by_name(n)
                            .ok_or_else(|| {
                                let names: Vec<&str> =
                                    workloads::ALL.iter().map(|w| w.name).collect();
                                format!("unknown workload '{n}' (known: {}, all)", names.join(", "))
                            })?
                            .name,
                    ),
                };
            }
            "--seed" => a.seed = number(flag, next)?,
            "--reps" => {
                let n: usize = number(flag, next)?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Reps::Count(n);
            }
            "--seconds" => {
                let s: u64 = number(flag, next)?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                a.reps = Reps::Seconds(s);
            }
            "--out" => a.out = PathBuf::from(next.ok_or("--out needs a value")?),
            // `--trace` alone adds the traced rep; `--trace 0|1` is the
            // driver's form and also chooses what the last line carries.
            "--trace" => match next.map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    a.trace = v == "1";
                    a.last_line_per_layer = a.trace;
                }
                _ => {
                    took_value = false;
                    a.trace = true;
                    a.last_line_per_layer = false;
                }
            },
            "--probes" | "--smoke" | "--check" => {
                took_value = false;
                match flag {
                    "--probes" => a.probes = true,
                    "--smoke" => a.smoke = true,
                    _ => a.check = true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += if took_value { 2 } else { 1 };
    }
    if a.check && (a.trace || a.probes) {
        return Err("--check compares end-to-end metrics only; drop --trace/--probes".into());
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_driver_form() {
        assert_eq!(p("").unwrap(), Args::default());
        let a = p("--workload scheme_zoo --seed 9 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some("scheme_zoo"));
        assert_eq!((a.seed, a.reps), (9, Reps::Seconds(10)));
        assert!(!a.trace && !a.last_line_per_layer);
        let a = p("--workload scheme_zoo --seed 9 --seconds 10 --trace 1").unwrap();
        assert!(a.trace && a.last_line_per_layer);
    }

    #[test]
    fn bare_trace_flag_keeps_end_to_end_last_line() {
        let a = p("--trace --probes --workload all").unwrap();
        assert!(a.trace && !a.last_line_per_layer && a.probes);
        assert_eq!(a.workload, None);
        // A bare --trace must not swallow the next flag.
        let a = p("--trace --seed 1").unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 1);
    }

    #[test]
    fn unknown_things_are_errors() {
        assert!(p("--json").unwrap_err().contains("unknown argument"));
        assert!(p("--workload halo")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(p("--seed x").unwrap_err().contains("not a valid number"));
        assert!(p("--seed").unwrap_err().contains("needs a value"));
        assert!(p("--reps 0").is_err());
        assert!(p("--seconds 0").is_err());
        assert!(p("stray").is_err());
        assert!(p("--check --trace").is_err());
    }
}
