//! Extension benchmark: 3-D Jacobi halo exchange (the paper's "more
//! applications" future work), Def vs MV2-GPU-NC across decompositions
//! whose face mixes range from all-contiguous (split along i) to
//! pathologically strided (split along k).
//!
//! Regenerate with: `cargo run --release -p bench --bin halo3d_bench [--scale N]`

use bench::{emit_json, print_table, ExperimentRecord, HarnessArgs};
use halo3d::{run_halo3d, Halo3dParams, Variant};

struct Row {
    decomposition: String,
    faces: &'static str,
    def_ms: f64,
    mv2_ms: f64,
    improvement_pct: f64,
}

bench::impl_to_json!(Row {
    decomposition,
    faces,
    def_ms,
    mv2_ms,
    improvement_pct,
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let s = args.scale.max(1);
    // 8 ranks, 256^3 cells per rank at scale 1.
    let n = 256 / s;
    let configs: [((usize, usize, usize), &'static str); 4] = [
        ((8, 1, 1), "contiguous slabs only (i-split)"),
        ((1, 8, 1), "long strided rows (j-split)"),
        ((1, 1, 8), "single-element rows (k-split)"),
        ((2, 2, 2), "all three face kinds"),
    ];
    let rows: Vec<Row> = configs
        .into_iter()
        .map(|(grid, faces)| {
            let p = Halo3dParams {
                grid,
                local: (n, n, n),
                iters: args.iters.min(3),
            };
            let d = run_halo3d::<f32>(p, Variant::Def, false);
            let m = run_halo3d::<f32>(p, Variant::Mv2, false);
            assert_eq!(d.checksum(), m.checksum(), "variants must agree");
            Row {
                decomposition: format!("{}x{}x{} ({n}^3/proc)", grid.0, grid.1, grid.2),
                faces,
                def_ms: d.wall.as_millis_f64(),
                mv2_ms: m.wall.as_millis_f64(),
                improvement_pct: (1.0 - m.wall.as_secs_f64() / d.wall.as_secs_f64()) * 100.0,
            }
        })
        .collect();

    if args.json {
        emit_json(&ExperimentRecord {
            id: "halo3d",
            title: "3-D Jacobi halo exchange, Def vs MV2-GPU-NC",
            data: &rows,
        });
        return;
    }

    println!("3-D Jacobi (7-point), 8 ranks, f32 — Def vs MV2-GPU-NC\n");
    print_table(
        &[
            "decomposition",
            "halo faces",
            "Def (ms)",
            "MV2 (ms)",
            "improvement",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.decomposition.clone(),
                    r.faces.to_string(),
                    format!("{:.2}", r.def_ms),
                    format!("{:.2}", r.mv2_ms),
                    format!("{:.0}%", r.improvement_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    println!(
        "expected shape: k-split (worst stride) gains the most, i-split \
         (contiguous) the least — the 3-D generalization of Table II"
    );
}
