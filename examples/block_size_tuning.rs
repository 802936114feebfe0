//! Platform tuning, the way the paper describes it (§IV-B): the pipeline
//! block size is a configurable library parameter; a system administrator
//! runs a micro-benchmark sweep once at installation time and records the
//! optimum. This example is that micro-benchmark.
//!
//! Run with: `cargo run --release --example block_size_tuning`

use bench::measure::vector_laps;
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;

fn main() {
    let total = 2 << 20;
    println!(
        "Tuning MV2_CUDA_BLOCK_SIZE for a {} MB vector message:\n",
        total >> 20
    );
    let mut best = (0usize, f64::INFINITY);
    for p in 13..=19 {
        let block = 1usize << p;
        // One warm-up (pools), one timed message.
        let ns = vector_laps(GpuCluster::new(2).block_size(block), total, 1)[0];
        let ms = ns as f64 / 1e6;
        let bar = "#".repeat((ms * 4.0) as usize);
        println!("{:>6} KB: {:>8.2} ms  {}", block >> 10, ms, bar);
        if ms < best.1 {
            best = (block, ms);
        }
    }
    println!(
        "\nwrite `MV2_CUDA_BLOCK_SIZE={}` into the cluster config ({:.2} ms)",
        best.0, best.1
    );
}
