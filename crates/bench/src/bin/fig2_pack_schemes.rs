//! Figure 2 (+ the §I-A motivating numbers): latency of the three
//! non-contiguous pack schemes, 16 B – 4 MB, 4-byte vector elements.
//!
//! Paper reference points: at 4 KB — nc2nc 200 us, nc2c 281 us, D2D2H
//! 35 us; at 4 MB the offloaded scheme costs ~4.8% of nc2nc.
//!
//! Regenerate with: `cargo run --release -p bench --bin fig2_pack_schemes`

use bench::{emit_json, fmt_size, paper_sizes, print_table, ExperimentRecord, HarnessArgs};
use gpu_sim::Gpu;
use mv2_gpu_nc::schemes::{PackBench, PackScheme};
use sim_core::Sim;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Row {
    bytes: usize,
    d2h_nc2nc_us: f64,
    d2h_nc2c_us: f64,
    d2d2h_us: f64,
}

bench::impl_to_json!(Row {
    bytes,
    d2h_nc2nc_us,
    d2h_nc2c_us,
    d2d2h_us
});

fn main() {
    let args = HarnessArgs::parse(&[]);
    let results: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&results);
    let sim = Sim::new();
    sim.spawn("bench", move || {
        let gpu = Gpu::tesla_c2050(0);
        for total in paper_sizes() {
            let b = PackBench::new(&gpu, total, 4, 16);
            let mut us = [0.0f64; 3];
            for (i, s) in PackScheme::ALL.iter().enumerate() {
                us[i] = b.run(*s).as_micros_f64();
                b.verify(*s);
            }
            b.free();
            out.lock().unwrap().push(Row {
                bytes: total,
                d2h_nc2nc_us: us[0],
                d2h_nc2c_us: us[1],
                d2d2h_us: us[2],
            });
        }
    });
    sim.run();
    let rows = Arc::try_unwrap(results).unwrap().into_inner().unwrap();

    if args.json {
        emit_json(&ExperimentRecord {
            id: "fig2",
            title: "Non-contiguous data pack performance (Figure 2)",
            data: &rows,
        });
        return;
    }

    println!("Figure 2: Non-contiguous data pack performance (time in us)\n");
    print_table(
        &["size", "D2H nc2nc", "D2H nc2c", "D2D2H nc2c2c"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    fmt_size(r.bytes),
                    format!("{:.1}", r.d2h_nc2nc_us),
                    format!("{:.1}", r.d2h_nc2c_us),
                    format!("{:.1}", r.d2d2h_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let at = |bytes: usize| rows.iter().find(|r| r.bytes == bytes).unwrap();
    let r4k = at(4 << 10);
    let r4m = at(4 << 20);
    println!();
    println!(
        "4KB anchors  (paper: 200 / 281 / 35 us):   {:.0} / {:.0} / {:.0} us",
        r4k.d2h_nc2nc_us, r4k.d2h_nc2c_us, r4k.d2d2h_us
    );
    println!(
        "4MB ratio D2D2H/nc2nc (paper: 4.8%):       {:.1}%",
        r4m.d2d2h_us / r4m.d2h_nc2nc_us * 100.0
    );
}
