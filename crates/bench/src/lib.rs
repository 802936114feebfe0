//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary prints a human-readable table (the same rows/series the
//! paper reports) and, with `--json`, a machine-readable record used to
//! update `EXPERIMENTS.md`.

use std::collections::BTreeMap;

pub use json::{Json, ToJson};

/// Minimal JSON tree + pretty printer, so the harness binaries can emit
/// machine-readable records without an external serialization crate.
pub mod json {
    use std::fmt;

    /// A JSON value.
    pub enum Json {
        Bool(bool),
        /// Integers are kept exact rather than routed through `f64`.
        Int(i64),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        /// Insertion-ordered key/value pairs.
        Obj(Vec<(String, Json)>),
    }

    /// Conversion into a [`Json`] tree. Implement by hand or with
    /// [`impl_to_json!`](crate::impl_to_json) for plain field structs.
    pub trait ToJson {
        fn to_json(&self) -> Json;
    }

    impl ToJson for Json {
        fn to_json(&self) -> Json {
            self.clone_tree()
        }
    }

    impl Json {
        fn clone_tree(&self) -> Json {
            match self {
                Json::Bool(b) => Json::Bool(*b),
                Json::Int(n) => Json::Int(*n),
                Json::Num(x) => Json::Num(*x),
                Json::Str(s) => Json::Str(s.clone()),
                Json::Arr(v) => Json::Arr(v.iter().map(Json::clone_tree).collect()),
                Json::Obj(kv) => Json::Obj(
                    kv.iter()
                        .map(|(k, v)| (k.clone(), v.clone_tree()))
                        .collect(),
                ),
            }
        }

        fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match self {
                Json::Bool(b) => write!(f, "{b}"),
                Json::Int(n) => write!(f, "{n}"),
                Json::Num(x) if x.is_finite() => {
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                }
                Json::Num(_) => write!(f, "null"),
                Json::Str(s) => {
                    f.write_str("\"")?;
                    for c in s.chars() {
                        match c {
                            '"' => f.write_str("\\\"")?,
                            '\\' => f.write_str("\\\\")?,
                            '\n' => f.write_str("\\n")?,
                            '\t' => f.write_str("\\t")?,
                            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                            c => write!(f, "{c}")?,
                        }
                    }
                    f.write_str("\"")
                }
                Json::Arr(v) if v.is_empty() => f.write_str("[]"),
                Json::Arr(v) => {
                    f.write_str("[\n")?;
                    for (i, item) in v.iter().enumerate() {
                        f.write_str(&pad)?;
                        item.fmt_indented(f, depth + 1)?;
                        f.write_str(if i + 1 < v.len() { ",\n" } else { "\n" })?;
                    }
                    write!(f, "{close}]")
                }
                Json::Obj(kv) if kv.is_empty() => f.write_str("{}"),
                Json::Obj(kv) => {
                    f.write_str("{\n")?;
                    for (i, (k, v)) in kv.iter().enumerate() {
                        write!(f, "{pad}\"{k}\": ")?;
                        v.fmt_indented(f, depth + 1)?;
                        f.write_str(if i + 1 < kv.len() { ",\n" } else { "\n" })?;
                    }
                    write!(f, "{close}}}")
                }
            }
        }
    }

    /// Pretty-printed with two-space indentation.
    impl fmt::Display for Json {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.fmt_indented(f, 0)
        }
    }

    impl ToJson for bool {
        fn to_json(&self) -> Json {
            Json::Bool(*self)
        }
    }
    impl ToJson for f64 {
        fn to_json(&self) -> Json {
            Json::Num(*self)
        }
    }
    impl ToJson for usize {
        fn to_json(&self) -> Json {
            Json::Int(*self as i64)
        }
    }
    impl ToJson for u64 {
        fn to_json(&self) -> Json {
            Json::Int(*self as i64)
        }
    }
    impl ToJson for u32 {
        fn to_json(&self) -> Json {
            Json::Int(i64::from(*self))
        }
    }
    impl ToJson for i64 {
        fn to_json(&self) -> Json {
            Json::Int(*self)
        }
    }
    impl ToJson for String {
        fn to_json(&self) -> Json {
            Json::Str(self.clone())
        }
    }
    impl ToJson for &str {
        fn to_json(&self) -> Json {
            Json::Str((*self).to_string())
        }
    }
    impl<T: ToJson> ToJson for &T {
        fn to_json(&self) -> Json {
            (*self).to_json()
        }
    }
    impl<T: ToJson> ToJson for [T] {
        fn to_json(&self) -> Json {
            Json::Arr(self.iter().map(ToJson::to_json).collect())
        }
    }
    impl<T: ToJson> ToJson for Vec<T> {
        fn to_json(&self) -> Json {
            self.as_slice().to_json()
        }
    }
    impl<V: ToJson> ToJson for std::collections::BTreeMap<String, V> {
        fn to_json(&self) -> Json {
            Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
        }
    }
}

/// Implement [`ToJson`] for a struct by listing its fields, in the order
/// they should appear in the emitted object:
///
/// ```
/// struct Row {
///     bytes: usize,
///     latency_us: f64,
/// }
/// bench::impl_to_json!(Row { bytes, latency_us });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

/// Parsed command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Emit JSON instead of a table.
    pub json: bool,
    /// Matrix scale-down factor for the stencil experiments (1 = paper
    /// size).
    pub scale: usize,
    /// Stencil iterations per run.
    pub iters: usize,
    /// Free-form key=value extras.
    pub extra: BTreeMap<String, String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            json: false,
            scale: 1,
            iters: 5,
            extra: BTreeMap::new(),
        }
    }
}

impl HarnessArgs {
    /// Parse `std::env::args()`: `--json`, `--scale N`, `--iters N`, and
    /// `--key value` for each key in `extras` — the extras this binary
    /// reads. Anything else (a typo such as `--ouy`, a flag without its
    /// value) prints the accepted list and exits with status 2 instead of
    /// being silently dropped.
    pub fn parse(extras: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), extras).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        })
    }

    fn parse_from(mut args: impl Iterator<Item = String>, extras: &[&str]) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let usage = || {
            let extras: String = extras.iter().map(|k| format!(" --{k} VALUE")).collect();
            format!("accepted flags: --json --scale N --iters N{extras}")
        };
        while let Some(flag) = args.next() {
            if flag == "--json" {
                out.json = true;
                continue;
            }
            let key = flag.strip_prefix("--").unwrap_or("");
            if !(matches!(key, "scale" | "iters") || extras.contains(&key)) {
                return Err(format!("unknown flag `{flag}`; {}", usage()));
            }
            let val = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value; {}", usage()))?;
            let positive = || {
                val.parse::<usize>()
                    .map_err(|_| format!("`{flag}` needs a positive integer; {}", usage()))
            };
            match key {
                "scale" => out.scale = positive()?,
                "iters" => out.iters = positive()?,
                _ => {
                    out.extra.insert(key.to_string(), val);
                }
            }
        }
        Ok(out)
    }
}

/// One experiment's machine-readable result.
pub struct ExperimentRecord<T: ToJson> {
    /// Experiment id ("fig2", "table2", ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The data series.
    pub data: T,
}

/// Print a record as pretty JSON.
pub fn emit_json<T: ToJson>(rec: &ExperimentRecord<T>) {
    let doc = Json::Obj(vec![
        ("id".to_string(), rec.id.to_json()),
        ("title".to_string(), rec.title.to_json()),
        ("data".to_string(), rec.data.to_json()),
    ]);
    println!("{doc}");
}

/// Format a byte count the way the paper's axes do (16, 1K, 64K, 4M).
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// The paper's message-size sweep: 16 B to 4 MB in 4x steps.
pub fn paper_sizes() -> Vec<usize> {
    (0..10).map(|i| 16 << (2 * i)).collect()
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_size_uses_paper_units() {
        assert_eq!(fmt_size(16), "16");
        assert_eq!(fmt_size(1 << 10), "1K");
        assert_eq!(fmt_size(64 << 10), "64K");
        assert_eq!(fmt_size(4 << 20), "4M");
        assert_eq!(fmt_size(100), "100");
    }

    #[test]
    fn json_pretty_printer_round_trips_structure() {
        struct Row {
            bytes: usize,
            us: f64,
        }
        impl_to_json!(Row { bytes, us });
        let rows = vec![Row { bytes: 16, us: 1.5 }, Row { bytes: 64, us: 2.0 }];
        let doc = Json::Obj(vec![
            ("id".to_string(), "t".to_json()),
            ("data".to_string(), rows.to_json()),
        ]);
        let text = doc.to_string();
        assert!(text.contains("\"id\": \"t\""));
        assert!(text.contains("\"bytes\": 16"));
        assert!(text.contains("\"us\": 1.5"));
        assert!(
            text.contains("\"us\": 2.0"),
            "whole floats keep a decimal: {text}"
        );
    }

    fn parse(args: &[&str], extras: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()), extras)
    }

    #[test]
    fn args_accept_the_builtins_and_declared_extras() {
        let a = parse(
            &[
                "--iters",
                "4",
                "--json",
                "--out",
                "/tmp/x.json",
                "--smoke",
                "true",
            ],
            &["out", "smoke"],
        )
        .unwrap();
        assert!(a.json);
        assert_eq!((a.iters, a.scale), (4, 1));
        assert_eq!(a.extra["out"], "/tmp/x.json");
        assert_eq!(a.extra["smoke"], "true");
    }

    #[test]
    fn args_reject_undeclared_flags_and_missing_values() {
        // The typo that used to overwrite the committed baseline.
        let err = parse(&["--ouy", "/tmp/x.json"], &["out"]).unwrap_err();
        assert!(err.contains("unknown flag `--ouy`"), "{err}");
        assert!(
            err.contains("--out VALUE"),
            "lists the accepted flags: {err}"
        );
        // Declared by another binary, not this one.
        assert!(parse(&["--out", "x"], &[]).is_err());
        assert!(parse(&["stray"], &["out"]).is_err());
        let err = parse(&["--out"], &["out"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        assert!(parse(&["--iters"], &[]).is_err());
        assert!(parse(&["--scale", "big"], &[]).is_err());
    }

    #[test]
    fn json_escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".to_string());
        assert_eq!(j.to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn paper_sizes_span_16b_to_4mb() {
        let s = paper_sizes();
        assert_eq!(s.first(), Some(&16));
        assert_eq!(s.last(), Some(&(4 << 20)));
        assert_eq!(s.len(), 10);
    }
}

/// Shared driver for the Table II / Table III stencil experiments.
pub mod stencil_tables {
    use super::{print_table, HarnessArgs};
    use stencil2d::{run_stencil, Real, RunOptions, StencilParams, Variant};

    /// One process-grid row of Table II/III.
    pub struct GridRow {
        /// Grid label, e.g. "2x4 (8192x8192/proc)".
        pub grid: String,
        /// Stencil2D-Def execution time (virtual seconds).
        pub def_secs: f64,
        /// Stencil2D-MV2-GPU-NC execution time (virtual seconds).
        pub mv2_secs: f64,
        /// Relative improvement in percent.
        pub improvement_pct: f64,
    }

    crate::impl_to_json!(GridRow {
        grid,
        def_secs,
        mv2_secs,
        improvement_pct
    });

    /// Run all four paper grids in precision `T`.
    pub fn run_tables<T: Real>(args: &HarnessArgs) -> Vec<GridRow> {
        StencilParams::paper_grids(args.scale)
            .into_iter()
            .map(|mut p| {
                p.iters = args.iters;
                let def = run_stencil::<T>(p, Variant::Def, RunOptions::default());
                let mv2 = run_stencil::<T>(p, Variant::Mv2, RunOptions::default());
                assert_eq!(
                    def.checksum(),
                    mv2.checksum(),
                    "variants must compute identical results ({})",
                    p.label()
                );
                let (d, m) = (def.wall.as_secs_f64(), mv2.wall.as_secs_f64());
                GridRow {
                    grid: p.label(),
                    def_secs: d,
                    mv2_secs: m,
                    improvement_pct: (1.0 - m / d) * 100.0,
                }
            })
            .collect()
    }

    /// Print the table with the paper's improvement column for comparison.
    pub fn print_report(title: &str, paper: [u32; 4], rows: &[GridRow]) {
        println!("{title}\n");
        print_table(
            &[
                "grid (matrix/proc)",
                "Stencil2D-Def (s)",
                "Stencil2D-MV2-GPU-NC (s)",
                "improvement",
                "paper",
            ],
            &rows
                .iter()
                .zip(paper)
                .map(|(r, p)| {
                    vec![
                        r.grid.clone(),
                        format!("{:.6}", r.def_secs),
                        format!("{:.6}", r.mv2_secs),
                        format!("{:.0}%", r.improvement_pct),
                        format!("{p}%"),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
}
