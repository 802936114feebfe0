//! Table II: Stencil2D execution times, single precision, on the paper's
//! four process grids (1x8, 8x1, 2x4, 4x2).
//!
//! Paper improvements: 42% / 19% / 27% / 22%.
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin table2_stencil_single [--scale 8] [--iters 5]`
//! (`--scale 1` reproduces the paper's matrix sizes but computes ~4 GB of
//! real stencil data; larger scales shrink the matrices while keeping the
//! communication structure)

use bench::stencil_tables::{print_report, run_tables};
use bench::{emit_json, ExperimentRecord, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let rows = run_tables::<f32>(&args);
    if args.json {
        emit_json(&ExperimentRecord {
            id: "table2",
            title: "Stencil2D median execution times, single precision (Table II)",
            data: &rows,
        });
        return;
    }
    print_report(
        "Table II: Stencil2D execution times, single precision",
        [42, 19, 27, 22],
        &rows,
    );
}
