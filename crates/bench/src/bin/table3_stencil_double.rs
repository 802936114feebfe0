//! Table III: Stencil2D execution times, double precision, on the paper's
//! four process grids (1x8, 8x1, 2x4, 4x2).
//!
//! Paper improvements: 39% / 22% / 26% / 21%.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin table3_stencil_double [--scale 8] [--iters 5]`

use bench::stencil_tables::{print_report, run_tables};
use bench::{emit_json, ExperimentRecord, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let rows = run_tables::<f64>(&args);
    if args.json {
        emit_json(&ExperimentRecord {
            id: "table3",
            title: "Stencil2D median execution times, double precision (Table III)",
            data: &rows,
        });
        return;
    }
    print_report(
        "Table III: Stencil2D execution times, double precision",
        [39, 22, 26, 21],
        &rows,
    );
}
