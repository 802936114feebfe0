//! Figure 6: dimension-wise communication breakdown of Stencil2D-Def at
//! rank 1 of a 2x4 process grid with an 8K x 8K single-precision matrix
//! per process.
//!
//! Paper shape: rank 1 has south/west/east neighbors; the non-contiguous
//! east/west staging (cudaMemcpy2D) dominates the communication time.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin fig6_stencil_breakdown [--scale 8]`
//! (scale divides the matrix in each dimension; 1 = paper size)

use bench::{emit_json, print_table, ExperimentRecord, HarnessArgs};
use stencil2d::{run_stencil, Dir, RunOptions, StencilParams, Variant};

struct Entry {
    component: String,
    micros: f64,
}

bench::impl_to_json!(Entry { component, micros });

fn main() {
    let args = HarnessArgs::parse(&[]);
    let p = StencilParams {
        py: 2,
        px: 4,
        rows: 8192 / args.scale.max(1),
        cols: 8192 / args.scale.max(1),
        iters: args.iters,
    };
    let out = run_stencil::<f32>(
        p,
        Variant::Def,
        RunOptions {
            timed_breakdown: true,
            collect_interiors: false,
        },
    );
    let bd = out.ranks[1].breakdown;
    let mut entries = Vec::new();
    for d in [Dir::South, Dir::West, Dir::East, Dir::North] {
        let t = bd.dir(d);
        entries.push(Entry {
            component: format!("{}_mpi", d.name()),
            micros: t.mpi.as_micros_f64(),
        });
        entries.push(Entry {
            component: format!("{}_cuda", d.name()),
            micros: t.cuda.as_micros_f64(),
        });
    }

    if args.json {
        emit_json(&ExperimentRecord {
            id: "fig6",
            title: "Stencil2D-Def communication breakdown at rank 1, 2x4 grid (Figure 6)",
            data: &entries,
        });
        return;
    }

    println!(
        "Figure 6: Stencil2D-Def comm breakdown at rank 1, 2x4 grid, \
         {}x{} f32/process, {} iters (us)\n",
        p.rows, p.cols, p.iters
    );
    print_table(
        &["component", "time (us)"],
        &entries
            .iter()
            .filter(|e| e.micros > 0.0 || !e.component.starts_with("north"))
            .map(|e| vec![e.component.clone(), format!("{:.1}", e.micros)])
            .collect::<Vec<_>>(),
    );
    let cuda_ew: f64 = entries
        .iter()
        .filter(|e| e.component == "west_cuda" || e.component == "east_cuda")
        .map(|e| e.micros)
        .sum();
    let total: f64 = entries.iter().map(|e| e.micros).sum();
    println!();
    println!(
        "east+west cuda share of comm time (paper: dominates): {:.0}%",
        cuda_ew / total * 100.0
    );
}
