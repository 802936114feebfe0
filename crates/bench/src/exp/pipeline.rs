//! Pipeline regression benchmark: the committed-plan cache and the
//! adaptive chunk autotuner against the paper's static pipeline.
//!
//! For every Figure 5 vector size it measures the staged MV2-GPU-NC
//! transfer under `ChunkPolicy::Fixed` (the paper's 64 KiB block) and
//! `ChunkPolicy::Adaptive`, reporting simulated one-way latency (best and
//! settled iteration) plus host wall-clock, and the process-wide plan-cache
//! counters for a halo3d run. It fails loudly if Adaptive regresses more
//! than 10% behind Fixed on any staged size, or if the halo3d plan-cache
//! hit rate drops below 90% — so every run guards both optimizations.

use std::time::Instant;

use halo3d::{run_halo3d, Halo3dParams, Variant};
use mpi_sim::MpiConfig;
use mv2_gpu_nc::GpuCluster;

use crate::doc::{col, paper_sizes, Col, Doc, Fmt, Table};
use crate::json::obj;
use crate::measure::{cache_delta, fixed_cfg, vector_laps};
use crate::Args;

pub fn pipeline_bench(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("bytes", "bytes", Fmt::Size),
        col("staged", "", Fmt::Plain),
        col("", "path", Fmt::Plain),
        col("fixed_best_us", "fixed best (us)", Fmt::Fixed(1)),
        col("adaptive_best_us", "adaptive best (us)", Fmt::Fixed(1)),
        col(
            "adaptive_settled_us",
            "adaptive settled (us)",
            Fmt::Fixed(1),
        ),
        col("fixed_wall_ms", "", Fmt::Plain),
        col("adaptive_wall_ms", "", Fmt::Plain),
    ];
    // The adaptive tuner needs a few iterations to finish probing neighbor
    // rungs and revisit its best block size.
    let iters = args.iters as u32;
    assert!(iters >= 4, "--iters must be at least 4 for the guards");

    let mut t = Table::new(COLS);
    for total in paper_sizes() {
        let timed = |cfg| {
            let wall = Instant::now();
            let ns = vector_laps(GpuCluster::new(2).mpi_config(cfg), total, iters);
            (ns, wall.elapsed().as_secs_f64() * 1e3)
        };
        let (f, f_wall) = timed(fixed_cfg());
        let (a, a_wall) = timed(MpiConfig::default());
        let us = |ns: Option<&u64>| *ns.expect("no lap ran") as f64 / 1e3;
        let staged = total > MpiConfig::default().eager_limit;
        let (fixed_best, adaptive_best) = (us(f.iter().min()), us(a.iter().min()));
        assert!(
            !staged || adaptive_best <= fixed_best * 1.10,
            "adaptive policy regressed at {total} bytes: {adaptive_best:.1} us vs fixed {fixed_best:.1} us",
        );
        t.row(&[
            &total,
            &staged,
            &if staged { "staged" } else { "eager" },
            &fixed_best,
            &adaptive_best,
            &us(a.last()),
            &f_wall,
            &a_wall,
        ]);
    }

    // Plan-cache effectiveness on a datatype-heavy application.
    let halo = Halo3dParams {
        grid: (1, 2, 2),
        local: (6, 8, 8),
        iters: 16,
    };
    let (_, (hits, misses, evictions)) =
        cache_delta(|| run_halo3d::<f32>(halo, Variant::Mv2, false));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        hit_rate >= 0.9,
        "halo3d plan-cache hit rate {hit_rate:.3} below 90% ({hits} hits, {misses} misses)"
    );

    let mut doc = Doc::new();
    doc.field("iters_per_size", iters).field(
        "plan_cache",
        obj(&[
            ("workload", &"halo3d 1x2x2, 16 iters"),
            ("hits", &hits),
            ("misses", &misses),
            ("evictions", &evictions),
            ("hit_rate", &hit_rate),
        ]),
    );
    doc.say(format!(
        "Pipeline: Fixed vs Adaptive ({iters} iters/size)\n"
    ));
    doc.table("data", &t);
    doc.say(format!(
        "\nhalo3d plan cache: {hits} hits, {misses} misses, hit rate {:.1}%",
        hit_rate * 100.0
    ));
    doc
}
