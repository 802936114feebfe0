//! The Stencil2D experiments: Table I (code complexity), Tables II/III
//! (execution times, the one generic function in both precisions) and
//! Figure 6 (communication breakdown).

use std::collections::BTreeMap;

use stencil2d::{lines_of_code, run_stencil, Dir, Real, RunOptions, StencilParams, Variant};

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::json::obj;
use crate::Args;

/// Main-loop calls per iteration of one variant, measured by
/// instrumentation on a real run.
fn loop_calls(variant: Variant) -> BTreeMap<String, u64> {
    // A 3x3 grid's center rank has all four neighbors, like the paper's
    // measured rank.
    let p = StencilParams {
        py: 3,
        px: 3,
        rows: 32,
        cols: 32,
        iters: 3,
    };
    let out = run_stencil::<f32>(p, variant, RunOptions::default());
    let keep = [
        "MPI_Irecv",
        "MPI_Send",
        "MPI_Waitall",
        "cudaMemcpy",
        "cudaMemcpy2D",
    ];
    out.ranks[4]
        .loop_calls
        .iter()
        .filter(|(k, _)| keep.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Table I: code complexity of the Stencil2D main loop — function calls
/// per iteration (measured by instrumentation on a real run) and lines of
/// code (extracted from this repository's own halo-exchange source).
///
/// Paper: Def = 4 MPI_Irecv / 4 MPI_Send / 2 MPI_Waitall / 4 cudaMemcpy /
/// 4 cudaMemcpy2D and 245 LoC; MV2-GPU-NC = same MPI mix, zero CUDA calls,
/// 158 LoC (-36%).
pub fn table1_code_complexity(_: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("", "call (per iteration)", Fmt::Plain),
        col("", "Def", Fmt::Plain),
        col("", "MV2-GPU-NC", Fmt::Plain),
        col("", "paper Def/MV2", Fmt::Plain),
    ];
    let calls_def = loop_calls(Variant::Def);
    let calls_mv2 = loop_calls(Variant::Mv2);
    let loc_def = lines_of_code(Variant::Def);
    let loc_mv2 = lines_of_code(Variant::Mv2);
    let reduction = (1.0 - loc_mv2 as f64 / loc_def as f64) * 100.0;

    let mut t = Table::new(COLS);
    for (api, paper) in [
        ("MPI_Irecv", "4 / 4"),
        ("MPI_Send", "4 / 4"),
        ("MPI_Waitall", "2 / 2"),
        ("cudaMemcpy", "4 / 0"),
        ("cudaMemcpy2D", "4 / 0"),
    ] {
        let calls = |m: &BTreeMap<String, u64>| m.get(api).copied().unwrap_or(0);
        t.row(&[&api, &calls(&calls_def), &calls(&calls_mv2), &paper]);
    }
    let mut doc = Doc::new();
    doc.field(
        "data",
        obj(&[
            ("calls_def", &calls_def),
            ("calls_mv2", &calls_mv2),
            ("loc_def", &loc_def),
            ("loc_mv2", &loc_mv2),
            ("loc_reduction_pct", &reduction),
        ]),
    );
    doc.say("Table I: Stencil2D main-loop code complexity\n");
    doc.say(t.render());
    doc.say(format!(
        "\nLines of code: Def {loc_def}, MV2-GPU-NC {loc_mv2} \
         ({reduction:.0}% reduction; paper: 245 -> 158, 36%)"
    ));
    doc
}

/// All four paper grids in precision `T`, with the paper's improvement
/// column beside the measured one.
fn stencil_table<T: Real>(args: &Args, heading: &str, paper: [u32; 4]) -> Doc {
    const COLS: &[Col] = &[
        col("grid", "grid (matrix/proc)", Fmt::Plain),
        col("def_secs", "Stencil2D-Def (s)", Fmt::Fixed(6)),
        col("mv2_secs", "Stencil2D-MV2-GPU-NC (s)", Fmt::Fixed(6)),
        col("improvement_pct", "improvement", Fmt::Pct),
        col("", "paper", Fmt::Plain),
    ];
    let mut t = Table::new(COLS);
    for (mut p, paper) in StencilParams::paper_grids(args.scale)
        .into_iter()
        .zip(paper)
    {
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
        let improvement = (1.0 - m / d) * 100.0;
        t.row(&[&p.label(), &d, &m, &improvement, &format!("{paper}%")]);
    }
    let mut doc = Doc::new();
    doc.say(format!("{heading}\n"));
    doc.table("data", &t);
    doc
}

/// Table II: Stencil2D execution times, single precision, on the paper's
/// four process grids (1x8, 8x1, 2x4, 4x2). `--scale 1` reproduces the
/// paper's matrix sizes but computes ~4 GB of real stencil data; larger
/// scales shrink the matrices while keeping the communication structure.
///
/// Paper improvements: 42% / 19% / 27% / 22%.
pub fn table2_stencil_single(args: &Args) -> Doc {
    let heading = "Table II: Stencil2D execution times, single precision";
    stencil_table::<f32>(args, heading, [42, 19, 27, 22])
}

/// Table III: as Table II, in double precision.
///
/// Paper improvements: 39% / 22% / 26% / 21%.
pub fn table3_stencil_double(args: &Args) -> Doc {
    let heading = "Table III: Stencil2D execution times, double precision";
    stencil_table::<f64>(args, heading, [39, 22, 26, 21])
}

/// Figure 6: dimension-wise communication breakdown of Stencil2D-Def at
/// rank 1 of a 2x4 process grid with an 8K x 8K single-precision matrix
/// per process (`--scale` divides the matrix in each dimension).
///
/// Paper shape: rank 1 has south/west/east neighbors; the non-contiguous
/// east/west staging (cudaMemcpy2D) dominates the communication time.
pub fn fig6_stencil_breakdown(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("component", "component", Fmt::Plain),
        col("micros", "time (us)", Fmt::Fixed(1)),
    ];
    let p = StencilParams {
        py: 2,
        px: 4,
        rows: 8192 / args.scale,
        cols: 8192 / args.scale,
        iters: args.iters,
    };
    let opts = RunOptions {
        timed_breakdown: true,
        collect_interiors: false,
    };
    let bd = run_stencil::<f32>(p, Variant::Def, opts).ranks[1].breakdown;
    // The text table leaves out the missing north neighbor's zero rows.
    let (mut all, mut shown) = (Table::new(COLS), Table::new(COLS));
    let (mut cuda_ew, mut total) = (0.0, 0.0);
    for d in [Dir::South, Dir::West, Dir::East, Dir::North] {
        let t = bd.dir(d);
        for (part, us) in [("mpi", t.mpi), ("cuda", t.cuda)] {
            let (name, us) = (format!("{}_{part}", d.name()), us.as_micros_f64());
            all.row(&[&name, &us]);
            if us > 0.0 || d != Dir::North {
                shown.row(&[&name, &us]);
            }
            total += us;
            if part == "cuda" && matches!(d, Dir::West | Dir::East) {
                cuda_ew += us;
            }
        }
    }
    let mut doc = Doc::new();
    doc.field("data", &all);
    doc.say(format!(
        "Figure 6: Stencil2D-Def comm breakdown at rank 1, 2x4 grid, \
         {}x{} f32/process, {} iters (us)\n",
        p.rows, p.cols, p.iters
    ));
    doc.say(shown.render());
    doc.say(format!(
        "\neast+west cuda share of comm time (paper: dominates): {:.0}%",
        cuda_ew / total * 100.0
    ));
    doc
}
