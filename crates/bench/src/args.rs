//! The driver's command line, parsed and typed in one place.
//!
//! Every experiment accepts `--json` and `--out PATH`; beyond those it
//! accepts exactly the flags its [`Experiment`](crate::Experiment) row
//! declares, each with the default that row gives it. Anything else (a typo
//! such as `--ouy`, a flag without its value, a number that does not parse)
//! is an error naming the accepted list, never silently dropped.

use sim_core::ExecMode;

/// One declared flag: `(name, default)`. An empty default means "unset"
/// (`chrome`) or, for a [`SWITCHES`] member, "takes no value".
pub type Flag = (&'static str, &'static str);

/// The flags that take no value: present means on.
const SWITCHES: [&str; 3] = ["smoke", "device", "strided"];

/// Parsed arguments: the union of what the experiments read.
#[derive(Clone, Debug)]
pub struct Args {
    /// Print the JSON document instead of the text rendering.
    pub json: bool,
    /// Also write the JSON document here. Nothing is written otherwise.
    pub out: Option<String>,
    /// Run the experiment's small CI plan.
    pub smoke: bool,
    /// Iterations per measured point.
    pub iters: usize,
    /// Problem scale-down factor (1 = paper size).
    pub scale: usize,
    /// Seed of a generated schedule (faults, job arrivals).
    pub seed: u64,
    /// Control-packet drop/delay probability.
    pub drop: f64,
    /// RDMA-write error probability.
    pub rdma_err: f64,
    /// Where `trace_report` writes its Chrome trace, if anywhere.
    pub chrome: Option<String>,
    /// Process carrier.
    pub exec: ExecMode,
    /// Largest rank count `rank_scale_sweep` runs.
    pub max_ranks: usize,
    /// The OSU rows: message buffers in device memory (host otherwise).
    pub device: bool,
    /// The OSU rows: the paper's strided vector (contiguous otherwise).
    pub strided: bool,
    /// The OSU rows: smallest message of the power-of-two sweep, bytes.
    pub min: usize,
    /// The OSU rows: largest message of the sweep, bytes.
    pub max: usize,
}

impl Args {
    /// The defaults an experiment declaring `flags` runs at.
    pub fn defaults(flags: &[Flag]) -> Args {
        let mut args = Args {
            json: false,
            out: None,
            smoke: false,
            iters: 5,
            scale: 1,
            seed: 0,
            drop: 0.0,
            rdma_err: 0.0,
            chrome: None,
            exec: ExecMode::Event,
            max_ranks: usize::MAX,
            device: false,
            strided: false,
            min: 0,
            max: 0,
        };
        for (key, default) in flags.iter().filter(|(_, d)| !d.is_empty()) {
            args.set(key, default)
                .expect("a declared default must parse");
        }
        args
    }

    /// Parse `argv` (without the program and experiment names) over the
    /// defaults of `flags`.
    pub fn parse(flags: &[Flag], mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::defaults(flags);
        let usage = || {
            let declared: String = flags
                .iter()
                .map(|(k, _)| match SWITCHES.contains(k) {
                    true => format!(" --{k}"),
                    false => format!(" --{k} VALUE"),
                })
                .collect();
            format!("accepted flags: --json --out PATH{declared}")
        };
        while let Some(flag) = argv.next() {
            let key = flag.strip_prefix("--").unwrap_or("");
            let declared = flags.iter().any(|(k, _)| *k == key);
            match key {
                "json" => args.json = true,
                "smoke" if declared => args.smoke = true,
                "device" if declared => args.device = true,
                "strided" if declared => args.strided = true,
                _ if key == "out" || declared => {
                    let val = argv
                        .next()
                        .ok_or_else(|| format!("`{flag}` needs a value; {}", usage()))?;
                    args.set(key, &val)
                        .map_err(|e| format!("{e}; {}", usage()))?;
                }
                _ => return Err(format!("unknown flag `{flag}`; {}", usage())),
            }
        }
        Ok(args)
    }

    fn set(&mut self, key: &str, val: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
            val.parse()
                .map_err(|_| format!("`--{key}` needs a number, got `{val}`"))
        }
        match key {
            "out" => self.out = Some(val.to_string()),
            "chrome" => self.chrome = Some(val.to_string()),
            "iters" => self.iters = num(key, val)?,
            "scale" => self.scale = num::<usize>(key, val)?.max(1),
            "seed" => self.seed = num(key, val)?,
            "drop" => self.drop = num(key, val)?,
            "rdma-err" => self.rdma_err = num(key, val)?,
            "max-ranks" => self.max_ranks = num(key, val)?,
            "min" => self.min = num(key, val)?,
            "max" => self.max = num(key, val)?,
            "exec" => {
                self.exec = match val {
                    "event" => ExecMode::Event,
                    "threads" => ExecMode::Threads,
                    _ => return Err(format!("`--exec` is `event` or `threads`, got `{val}`")),
                }
            }
            _ => unreachable!("flag `{key}` is declared by an experiment but not typed here"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], flags: &[Flag]) -> Result<Args, String> {
        Args::parse(flags, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_accept_the_builtins_and_declared_flags() {
        let flags = [("iters", "8"), ("scale", "1"), ("smoke", "")];
        let a = parse(&["--scale", "4", "--json", "--out", "/tmp/x.json"], &flags).unwrap();
        assert!(a.json && !a.smoke);
        assert_eq!(
            (a.iters, a.scale),
            (8, 4),
            "undeclared on the line: default"
        );
        assert_eq!(a.out.as_deref(), Some("/tmp/x.json"));
        assert_eq!(parse(&[], &[]).unwrap().out, None, "no implicit output");
    }

    #[test]
    fn args_reject_undeclared_flags_and_missing_values() {
        // The typo that used to overwrite the committed baseline.
        let err = parse(&["--ouy", "/tmp/x.json"], &[("iters", "5")]).unwrap_err();
        assert!(err.contains("unknown flag `--ouy`"), "{err}");
        assert!(
            err.contains("--out PATH --iters VALUE"),
            "lists the accepted flags: {err}"
        );
        // Declared by another experiment, not this one.
        assert!(parse(&["--seed", "7"], &[]).is_err());
        assert!(parse(&["stray"], &[]).is_err());
        let err = parse(&["--out"], &[]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        assert!(parse(&["--iters"], &[("iters", "5")]).is_err());
        assert!(parse(&["--scale", "big"], &[("scale", "1")]).is_err());
        assert!(parse(&["--exec", "fibers"], &[("exec", "event")]).is_err());
    }

    #[test]
    fn smoke_is_a_value_less_flag() {
        let flags = [("smoke", ""), ("seed", "20211")];
        assert!(!parse(&[], &flags).unwrap().smoke);
        let a = parse(&["--smoke", "--seed", "3"], &flags).unwrap();
        assert!(a.smoke);
        assert_eq!(a.seed, 3);
        // `--smoke false` used to run the smoke plan in two bins and the
        // full plan in two others; now the stray value is an error.
        let err = parse(&["--smoke", "false"], &flags).unwrap_err();
        assert!(err.contains("unknown flag `false`"), "{err}");
        assert!(err.contains(" --smoke --seed VALUE"), "{err}");
        assert!(parse(&["--smoke"], &[]).is_err(), "only where declared");
        // The OSU rows' switches follow the same rule.
        let flags = [("device", ""), ("strided", ""), ("min", "4")];
        let a = parse(&["--strided", "--min", "64"], &flags).unwrap();
        assert_eq!((a.device, a.strided, a.min), (false, true, 64));
        let err = parse(&["--device", "1"], &flags).unwrap_err();
        assert!(err.contains(" --device --strided --min VALUE"), "{err}");
    }
}
