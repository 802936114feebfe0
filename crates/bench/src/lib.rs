//! The experiment driver: every table and figure of the paper, and every
//! regression ledger under `results/`, is one row of [`EXPERIMENTS`] and one
//! function that returns its [`Doc`].
//!
//! `bench <name> [flags]` (the one binary, `main.rs`) prints the text
//! rendering, or the JSON record with `--json`, and writes the record only
//! where `--out PATH` says. An experiment with a committed file runs, by
//! default, at the parameters that file was generated at, so regenerating
//! is `bench <name> --out results/<file>` and policing is
//! [`Experiment::check`] — called by `tests/baselines.rs` under tier-1 and
//! by `bench check <name>` from `scripts/ci.sh`. Guards (`assert!`s in the
//! experiment functions, [`Doc::failures`]) run on every invocation.

pub mod args;
pub mod doc;
pub mod exp;
pub mod json;
pub mod measure;

use sim_trace::json::JsonValue;

pub use args::{Args, Flag};
pub use doc::Doc;
use exp::{
    coll, halo, job_mix, modelcheck, offload, osu, pipeline, rank_scale, stencil, trace, vector,
};

/// Who compares an experiment's committed file with a fresh run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Policed {
    /// `tests/baselines.rs`, in a debug build under tier-1.
    Tier1,
    /// `scripts/ci.sh` through `bench check`, in release: too slow for a
    /// debug build.
    Ci,
    /// Nobody: paper scale takes minutes. Regenerate by hand
    /// (EXPERIMENTS.md).
    ByHand,
}

/// One experiment: a sub-command of the driver.
pub struct Experiment {
    /// Sub-command name.
    pub name: &'static str,
    /// `id` of the JSON record.
    pub id: &'static str,
    /// `title` of the JSON record.
    pub title: &'static str,
    /// Flags it reads beyond `--json`/`--out`, with their defaults: for an
    /// experiment with a committed file, the values that file was generated
    /// at.
    pub flags: &'static [Flag],
    /// Its committed file (repository-relative), who polices it, and the
    /// host-clock members of that file, which no comparison looks at.
    pub committed: Option<(&'static str, Policed, &'static [&'static str])>,
    body: fn(&Args) -> Doc,
}

const fn row(
    name: &'static str,
    id: &'static str,
    title: &'static str,
    body: fn(&Args) -> Doc,
) -> Experiment {
    Experiment {
        name,
        id,
        title,
        flags: &[],
        committed: None,
        body,
    }
}

impl Experiment {
    const fn flags(mut self, flags: &'static [Flag]) -> Experiment {
        self.flags = flags;
        self
    }

    const fn committed(
        mut self,
        file: &'static str,
        by: Policed,
        host_clock: &'static [&'static str],
    ) -> Experiment {
        self.committed = Some((file, by, host_clock));
        self
    }

    /// Run the experiment (guards included) and head its record with `id`
    /// and `title`.
    pub fn run(&self, args: &Args) -> Doc {
        let mut doc = (self.body)(args);
        let head = [("id", self.id), ("title", self.title)];
        let head = head.map(|(k, v)| (k.to_string(), json::Json::Str(v.to_string())));
        doc.fields.splice(0..0, head);
        doc
    }

    /// Run at the defaults and compare the record with the committed file:
    /// one line per differing member, host-clock members excepted, plus the
    /// run's own failed verdicts. Empty means the file polices itself.
    pub fn check(&self) -> Vec<String> {
        let (file, _, host_clock) = self.committed.expect("no committed file to check");
        let doc = self.run(&Args::defaults(self.flags));
        let mut found = doc.failures.clone();
        found.extend(diff(&committed(file), &reparse(&doc), host_clock, false));
        found
    }
}

/// The parsed committed file at repository-relative `path`.
pub fn committed(path: &str) -> JsonValue {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    sim_trace::json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `doc`'s record as the committed-file parser reads it back.
pub fn reparse(doc: &Doc) -> JsonValue {
    sim_trace::json::parse(&doc.json().to_string()).expect("the printer emits valid JSON")
}

/// Every difference between `want` (a committed file) and `got` (a fresh
/// record), one `$.path: committed X, regenerated Y` line each. Object
/// members named in `skip` are not compared, at any depth. With `prefix`,
/// an array of `got` may stop early (a `--smoke` plan's rows against the
/// full grid's).
pub fn diff(want: &JsonValue, got: &JsonValue, skip: &[&str], prefix: bool) -> Vec<String> {
    fn walk(
        (want, got): (&JsonValue, &JsonValue),
        (skip, prefix): (&[&str], bool),
        path: &str,
        found: &mut Vec<String>,
    ) {
        match (want, got) {
            (JsonValue::Obj(w), JsonValue::Obj(g)) => {
                let keys = |m: &[(String, JsonValue)]| -> Vec<String> {
                    m.iter().map(|(k, _)| k.clone()).collect()
                };
                let (wk, gk) = (keys(w), keys(g));
                if wk != gk {
                    found.push(format!(
                        "{path}: committed members {wk:?}, regenerated {gk:?}"
                    ));
                    return;
                }
                for ((k, w), (_, g)) in w.iter().zip(g) {
                    if !skip.contains(&k.as_str()) {
                        walk((w, g), (skip, prefix), &format!("{path}.{k}"), found);
                    }
                }
            }
            (JsonValue::Arr(w), JsonValue::Arr(g))
                if w.len() == g.len() || (prefix && g.len() < w.len()) =>
            {
                for (i, pair) in w.iter().zip(g).enumerate() {
                    walk(pair, (skip, prefix), &format!("{path}[{i}]"), found);
                }
            }
            (JsonValue::Arr(w), JsonValue::Arr(g)) => found.push(format!(
                "{path}: committed {} elements, regenerated {}",
                w.len(),
                g.len()
            )),
            _ if want == got => {}
            _ => found.push(format!("{path}: committed {want:?}, regenerated {got:?}")),
        }
    }
    let mut found = Vec::new();
    walk((want, got), (skip, prefix), "$", &mut found);
    found
}

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

use Policed::{ByHand, Ci, Tier1};

/// What the three OSU rows read: buffers, layout and the size sweep (OSU's
/// default 4 B – 1 MB), or `--smoke`'s two sizes.
const OSU_FLAGS: &[Flag] = &[
    ("device", ""),
    ("strided", ""),
    ("min", "4"),
    ("max", "1048576"),
    ("smoke", ""),
];

/// Every experiment, in the paper's order, then the regression ledgers.
pub static EXPERIMENTS: &[Experiment] = &[
    row(
        "fig2_pack_schemes",
        "fig2",
        "Non-contiguous data pack performance (Figure 2)",
        vector::fig2_pack_schemes,
    )
    .committed("results/fig2_pack_schemes.json", Tier1, &[]),
    row(
        "pipeline_trace",
        "fig3",
        "Pipeline stage completion trace (Figure 3)",
        trace::pipeline_trace,
    )
    .committed("results/pipeline_trace.json", Tier1, &[]),
    row(
        "fig5_vector_latency",
        "fig5",
        "Vector communication latency (Figure 5)",
        vector::fig5_vector_latency,
    )
    .committed("results/fig5_vector_latency.json", Tier1, &[]),
    row(
        "fig6_stencil_breakdown",
        "fig6",
        "Stencil2D-Def communication breakdown at rank 1, 2x4 grid (Figure 6)",
        stencil::fig6_stencil_breakdown,
    )
    .flags(&[("iters", "3"), ("scale", "1")])
    .committed("results/fig6_stencil_breakdown.txt", ByHand, &[]),
    row(
        "table1_code_complexity",
        "table1",
        "Stencil2D main-loop code complexity (Table I)",
        stencil::table1_code_complexity,
    )
    .committed("results/table1_code_complexity.json", Tier1, &[]),
    row(
        "table2_stencil_single",
        "table2",
        "Stencil2D median execution times, single precision (Table II)",
        stencil::table2_stencil_single,
    )
    .flags(&[("iters", "5"), ("scale", "1")])
    .committed("results/table2_stencil_single.txt", ByHand, &[]),
    row(
        "table3_stencil_double",
        "table3",
        "Stencil2D median execution times, double precision (Table III)",
        stencil::table3_stencil_double,
    )
    .flags(&[("iters", "5"), ("scale", "1")])
    .committed("results/table3_stencil_double.txt", ByHand, &[]),
    row(
        "ablation_block_size",
        "ablation_block",
        "Pipeline block-size ablation at 4 MB (section IV-B)",
        vector::ablation_block_size,
    )
    .committed("results/ablation_block_size.json", Tier1, &[]),
    row(
        "ablation_eager_limit",
        "ablation_eager",
        "Eager vs rendezvous for small device messages",
        vector::ablation_eager_limit,
    ),
    row(
        "ablation_window",
        "ablation_window",
        "Pipeline window-depth ablation at 4 MB",
        vector::ablation_window,
    ),
    row(
        "osu_latency",
        "osu_latency",
        "OSU ping-pong latency, host or device buffers, contiguous or strided",
        osu::osu_latency,
    )
    .flags(OSU_FLAGS),
    row(
        "osu_bw",
        "osu_bw",
        "OSU unidirectional windowed bandwidth",
        osu::osu_bw,
    )
    .flags(OSU_FLAGS),
    row(
        "osu_bibw",
        "osu_bibw",
        "OSU bidirectional windowed bandwidth",
        osu::osu_bibw,
    )
    .flags(OSU_FLAGS),
    row(
        "halo3d_bench",
        "halo3d",
        "3-D Jacobi halo exchange, Def vs MV2-GPU-NC",
        halo::halo3d_bench,
    )
    .flags(&[("iters", "5"), ("scale", "1")]),
    row(
        "pipeline_bench",
        "pipeline",
        "Plan cache + adaptive pipeline vs fixed block",
        pipeline::pipeline_bench,
    )
    .flags(&[("iters", "8")])
    .committed(
        "results/BENCH_pipeline.json",
        Tier1,
        &["fixed_wall_ms", "adaptive_wall_ms"],
    ),
    row(
        "offload_sweep",
        "offload",
        "Data-path schemes: staged pipeline vs NIC scatter/gather offload",
        offload::offload_sweep,
    )
    .flags(&[("iters", "4")])
    .committed("results/BENCH_offload.json", Tier1, &[]),
    row(
        "coll_sweep",
        "coll",
        "collective sweep: hier node-leader trees vs flat vs naive control",
        coll::coll_sweep,
    )
    .flags(&[("smoke", "")])
    .committed("results/BENCH_coll.json", Ci, &[]),
    row(
        "ppn_sweep",
        "ppn",
        "halo3d 16 ranks: blocked ppn placement vs all-remote control",
        halo::ppn_sweep,
    )
    .flags(&[("iters", "5"), ("scale", "1")])
    .committed("results/BENCH_ppn.json", Ci, &[]),
    row(
        "rank_scale_sweep",
        "rank_scale",
        "halo3d rank-count scaling under the event-driven kernel",
        rank_scale::rank_scale_sweep,
    )
    .flags(&[("smoke", ""), ("exec", "event"), ("max-ranks", "1024")])
    .committed(
        "results/BENCH_rank_scale.json",
        Ci,
        &["wall_s", "wall_ms_per_rank"],
    ),
    row(
        "job_mix",
        "jobmix",
        "multi-job shared-cluster campaigns: slowdown, overload tail, QoS shift",
        job_mix::job_mix,
    )
    .flags(&[("smoke", ""), ("seed", "20211")])
    .committed("results/BENCH_jobmix.json", Ci, &["host_scale"]),
    row(
        "fault_campaign",
        "fault_campaign",
        "Seeded fault campaign: halo3d under ctrl drop/delay + RDMA errors",
        halo::fault_campaign,
    )
    .flags(&[("seed", "7"), ("drop", "0.2"), ("rdma-err", "0.1")])
    .committed("results/fault_campaign.json", Tier1, &[]),
    row(
        "modelcheck",
        "modelcheck",
        "Exhaustive control-plane model checking",
        modelcheck::modelcheck,
    )
    .flags(&[("smoke", "")])
    .committed("results/modelcheck.json", Tier1, &["wall_ms"]),
    row(
        "trace_report",
        "trace_report",
        "Lane utilization, overlap factor and critical path",
        trace::trace_report,
    )
    .flags(&[("chrome", "")])
    .committed("results/trace_report.json", Tier1, &[]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use exp::osu::{bandwidth, bi_bandwidth, latency, size_sweep};
    use sim_trace::json::parse;

    // The OSU rows' measurements (`exp/osu.rs`), kept in this module so the
    // suite prints them under the names they have had since `osu-micro`.
    const HOST: bool = false;
    const DEVICE: bool = true;
    const CONTIGUOUS: bool = false;
    const STRIDED: bool = true;

    #[test]
    fn latency_grows_with_size() {
        let small = latency(HOST, CONTIGUOUS, 64);
        let big = latency(HOST, CONTIGUOUS, 1 << 20);
        assert!(big.micros > small.micros);
        assert!(big.mbps > small.mbps, "big messages amortize overheads");
    }

    #[test]
    fn device_contiguous_latency_close_to_host_at_size() {
        // The pipelined device path adds PCIe hops; at 1 MB it should be
        // within a small factor of host latency, not orders of magnitude.
        let host = latency(HOST, CONTIGUOUS, 1 << 20);
        let dev = latency(DEVICE, CONTIGUOUS, 1 << 20);
        assert!(dev.micros > host.micros);
        assert!(dev.micros < host.micros * 4.0, "host {host:?} dev {dev:?}");
    }

    #[test]
    fn strided_device_latency_matches_fig5_shape() {
        // 4 KB: paper Figure 5(a) region — MV2-GPU-NC ~74 us in our
        // calibration.
        let s = latency(DEVICE, STRIDED, 4 << 10);
        assert!(
            (40.0..120.0).contains(&s.micros),
            "4KB strided device latency {s:?}"
        );
    }

    #[test]
    fn bandwidth_saturates_toward_wire_speed() {
        let bw = bandwidth(HOST, CONTIGUOUS, 1 << 20);
        // QDR model: 3.2 GB/s = 3200 MB/s wire; expect > 60% at 1 MB.
        assert!(bw.mbps > 2000.0, "got {}", bw.mbps);
        let small = bandwidth(HOST, CONTIGUOUS, 4096);
        assert!(small.mbps < bw.mbps);
    }

    #[test]
    fn bidirectional_beats_unidirectional() {
        let uni = bandwidth(HOST, CONTIGUOUS, 256 << 10);
        let bi = bi_bandwidth(HOST, CONTIGUOUS, 256 << 10);
        assert!(
            bi.mbps > uni.mbps * 1.3,
            "bibw {} vs bw {}",
            bi.mbps,
            uni.mbps
        );
    }

    #[test]
    fn device_strided_bandwidth_is_pack_limited() {
        // Strided device messages are gated by the pack engine, not the
        // wire: bandwidth must be well below the contiguous device case.
        let contig = bandwidth(DEVICE, CONTIGUOUS, 256 << 10);
        let strided = bandwidth(DEVICE, STRIDED, 256 << 10);
        assert!(
            strided.mbps < contig.mbps,
            "strided {} vs contig {}",
            strided.mbps,
            contig.mbps
        );
    }

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(size_sweep(4, 64), vec![4, 8, 16, 32, 64]);
        assert_eq!(size_sweep(0, 2), vec![1, 2]);
    }

    #[test]
    fn deterministic_measurements() {
        let a = latency(DEVICE, STRIDED, 64 << 10);
        let b = latency(DEVICE, STRIDED, 64 << 10);
        assert_eq!(a.micros, b.micros);
    }

    #[test]
    fn diff_names_the_path_and_both_values() {
        let want = parse(r#"{"a": 1, "wall_ms": 2.5, "data": [{"x": 1}, {"x": 2}]}"#).unwrap();
        let same = parse(r#"{"a": 1, "wall_ms": 9.9, "data": [{"x": 1}, {"x": 2}]}"#).unwrap();
        let moved = parse(r#"{"a": 1, "wall_ms": 2.5, "data": [{"x": 1}, {"x": 3}]}"#).unwrap();
        let short = parse(r#"{"a": 1, "wall_ms": 2.5, "data": [{"x": 1}]}"#).unwrap();
        let run = |got, skip: &[&str], prefix| diff(&want, got, skip, prefix);
        assert!(run(&same, &["wall_ms"], false).is_empty());
        assert_eq!(
            run(&same, &[], false),
            ["$.wall_ms: committed Num(2.5), regenerated Num(9.9)"]
        );
        assert_eq!(
            run(&moved, &[], false),
            ["$.data[1].x: committed Num(2.0), regenerated Num(3.0)"]
        );
        assert!(run(&short, &[], true).is_empty(), "a smoke plan's prefix");
        assert_eq!(
            run(&short, &[], false),
            ["$.data: committed 2 elements, regenerated 1"]
        );
        let renamed = parse(r#"{"b": 1}"#).unwrap();
        assert!(run(&renamed, &[], false)[0].contains("members"));
    }

    #[test]
    fn the_table_is_consistent() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{} twice",
                e.name
            );
            Args::defaults(e.flags); // every declared default parses
            if let Some((file, by, _)) = e.committed {
                let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
                assert!(std::path::Path::new(&path).exists(), "{file} missing");
                assert_eq!(by == ByHand, file.ends_with(".txt"), "{file}");
            }
        }
    }

    /// An experiment nothing is committed for rots silently otherwise (the
    /// eager-limit ablation once did, under a config check added later).
    #[test]
    fn experiments_without_a_committed_file_still_run() {
        for e in EXPERIMENTS.iter().filter(|e| e.committed.is_none()) {
            let mut args = Args::defaults(e.flags);
            (args.scale, args.iters) = (8, 2);
            args.smoke = e.flags.iter().any(|(k, _)| *k == "smoke");
            let doc = e.run(&args);
            assert!(doc.failures.is_empty(), "{}: {:?}", e.name, doc.failures);
            assert!(!doc.text().is_empty() && doc.json().to_string().contains(e.id));
        }
    }
}
