//! Table I: code complexity of the Stencil2D main loop — function calls
//! per iteration (measured by instrumentation on a real run) and lines of
//! code (extracted from this repository's own halo-exchange source).
//!
//! Paper: Def = 4 MPI_Irecv / 4 MPI_Send / 2 MPI_Waitall / 4 cudaMemcpy /
//! 4 cudaMemcpy2D and 245 LoC; MV2-GPU-NC = same MPI mix, zero CUDA calls,
//! 158 LoC (-36%).
//!
//! Regenerate with: `cargo run --release -p bench --bin table1_code_complexity`

use bench::{emit_json, print_table, ExperimentRecord, HarnessArgs};
use std::collections::BTreeMap;
use stencil2d::{lines_of_code, run_stencil, RunOptions, StencilParams, Variant};

struct Complexity {
    calls_def: BTreeMap<String, u64>,
    calls_mv2: BTreeMap<String, u64>,
    loc_def: usize,
    loc_mv2: usize,
    loc_reduction_pct: f64,
}

bench::impl_to_json!(Complexity {
    calls_def,
    calls_mv2,
    loc_def,
    loc_mv2,
    loc_reduction_pct,
});

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

fn main() {
    let args = HarnessArgs::parse(&[]);
    let calls_def = loop_calls(Variant::Def);
    let calls_mv2 = loop_calls(Variant::Mv2);
    let loc_def = lines_of_code(Variant::Def);
    let loc_mv2 = lines_of_code(Variant::Mv2);
    let reduction = (1.0 - loc_mv2 as f64 / loc_def as f64) * 100.0;

    if args.json {
        emit_json(&ExperimentRecord {
            id: "table1",
            title: "Stencil2D main-loop code complexity (Table I)",
            data: Complexity {
                calls_def,
                calls_mv2,
                loc_def,
                loc_mv2,
                loc_reduction_pct: reduction,
            },
        });
        return;
    }

    println!("Table I: Stencil2D main-loop code complexity\n");
    let apis = [
        ("MPI_Irecv", 4u64, 4u64),
        ("MPI_Send", 4, 4),
        ("MPI_Waitall", 2, 2),
        ("cudaMemcpy", 4, 0),
        ("cudaMemcpy2D", 4, 0),
    ];
    let rows: Vec<Vec<String>> = apis
        .iter()
        .map(|(api, pd, pm)| {
            vec![
                api.to_string(),
                format!("{}", calls_def.get(*api).copied().unwrap_or(0)),
                format!("{}", calls_mv2.get(*api).copied().unwrap_or(0)),
                format!("{pd} / {pm}"),
            ]
        })
        .collect();
    print_table(
        &["call (per iteration)", "Def", "MV2-GPU-NC", "paper Def/MV2"],
        &rows,
    );
    println!();
    println!(
        "Lines of code: Def {loc_def}, MV2-GPU-NC {loc_mv2} \
         ({reduction:.0}% reduction; paper: 245 -> 158, 36%)"
    );
}
