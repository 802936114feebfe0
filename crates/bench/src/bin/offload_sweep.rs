//! Scheme-layer ablation: staged pipeline vs NIC scatter/gather offload
//! vs the Auto policy, across the canonical layout zoo.
//!
//! For every message size it measures a 2-rank host-to-host rendezvous of
//! four layouts — contiguous, single-level strided, two-level strided (64
//! fixed outer groups, so the descriptor constant stays put while the
//! payload grows) and an irregular block soup no bounded descriptor can
//! express — under `Force(Staged)`, `Force(NicOffload)` (regular layouts
//! only) and `Auto { offload: true }`. It reports best-iteration latencies
//! and the per-layout crossover size (smallest message where offload beats
//! staged), and fails loudly if:
//!
//! * any scheme delivers different bytes than the staged pipeline,
//! * offload does not beat staged on the two-level layout at >= 256 KiB,
//! * the two-level crossover lands above 256 KiB,
//! * the Auto policy on the irregular layout diverges from `Force(Staged)`
//!   by even one event (the fallback must be bit-identical).
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin offload_sweep`
//! (`--out PATH` overrides the default `results/BENCH_offload.json`).

use std::sync::Arc;

use bench::{fmt_size, print_table, HarnessArgs, Json, ToJson};
use hostmem::HostBuf;
use mpi_sim::{DataScheme, Datatype, MpiConfig, MpiWorld, SchemeSel};
use sim_core::lock::Mutex;

/// The layout zoo, parameterized by payload bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Zoo {
    Contig,
    Strided1d,
    Strided2d,
    Irregular,
}

impl Zoo {
    fn name(self) -> &'static str {
        match self {
            Zoo::Contig => "contig",
            Zoo::Strided1d => "strided1d",
            Zoo::Strided2d => "strided2d",
            Zoo::Irregular => "irregular",
        }
    }

    /// `(datatype, count, buffer bytes)` for a `total`-byte payload.
    fn build(self, total: usize) -> (Datatype, usize, usize) {
        match self {
            Zoo::Contig => (Datatype::byte(), total, total),
            // Rows of 64 B every 128 B: a single descriptor entry.
            Zoo::Strided1d => {
                let rows = total / 64;
                (
                    Datatype::vector(rows, 16, 32, &Datatype::float()),
                    1,
                    rows * 128,
                )
            }
            // 64 outer groups of 64 B rows every 128 B: the descriptor is
            // always 64 entries — its fetch constant is independent of the
            // payload, which is what makes a crossover exist.
            Zoo::Strided2d => {
                let rows = total / (64 * 64);
                let row = Datatype::vector(rows, 16, 32, &Datatype::float());
                let group_stride = (rows * 128 + 256) as isize;
                (
                    Datatype::hvector(64, 1, group_stride, &row),
                    1,
                    64 * group_stride as usize,
                )
            }
            // Alternating 96/160 B blocks every 512 B: widths differ, so no
            // bounded two-level descriptor exists.
            Zoo::Irregular => {
                let blocks: Vec<(usize, isize)> = (0..total / 128)
                    .map(|i| (if i % 2 == 0 { 96 } else { 160 }, (i * 512) as isize))
                    .collect();
                let n = blocks.len();
                (Datatype::hindexed(&blocks, &Datatype::byte()), 1, n * 512)
            }
        }
    }
}

/// Best-of-`iters` one-way virtual latency (ns) of a rank-0 → rank-1
/// rendezvous of the layout under the scheme policy, plus the receiver's
/// final buffer (for the byte-identity guard) and the job's virtual end
/// time (for the bit-identical-fallback guard).
fn measure(
    z: Zoo,
    total: usize,
    scheme: SchemeSel,
    iters: u32,
) -> (u64, Vec<u8>, sim_core::SimTime) {
    type Out = (Vec<u64>, Vec<u8>);
    let out: Arc<Mutex<Out>> = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let sink = Arc::clone(&out);
    let cfg = MpiConfig {
        scheme,
        ..MpiConfig::default()
    };
    let end = MpiWorld::new(2).with_config(cfg).run(move |comm| {
        let (t, count, bufsize) = z.build(total);
        t.commit();
        if comm.rank() == 0 {
            let buf = HostBuf::from_vec((0..bufsize).map(|i| (i % 251) as u8).collect());
            // Untimed warm-up populates the staging pools and plan cache.
            comm.send(buf.base(), count, &t, 1, 99_999);
            for it in 0..iters {
                comm.barrier();
                comm.send(buf.base(), count, &t, 1, it);
            }
        } else {
            let buf = HostBuf::alloc(bufsize);
            comm.recv(buf.base(), count, &t, 0, 99_999);
            for it in 0..iters {
                comm.barrier();
                let t0 = sim_core::now();
                comm.recv(buf.base(), count, &t, 0, it);
                sink.lock().0.push((sim_core::now() - t0).as_nanos());
            }
            sink.lock().1 = buf.read(0, bufsize);
        }
    });
    let (lat, bytes) = std::mem::take(&mut *out.lock());
    (*lat.iter().min().expect("no iterations ran"), bytes, end)
}

struct Row {
    layout: &'static str,
    bytes: usize,
    staged_best_us: f64,
    offload_best_us: f64,
    auto_best_us: f64,
    offloadable: bool,
}

bench::impl_to_json!(Row {
    layout,
    bytes,
    staged_best_us,
    offload_best_us,
    auto_best_us,
    offloadable
});

fn main() {
    let args = HarnessArgs::parse(&["out"]);
    let iters = (args.iters as u32).max(3);
    let sizes = [16usize << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let layouts = [Zoo::Contig, Zoo::Strided1d, Zoo::Strided2d, Zoo::Irregular];

    let mut rows: Vec<Row> = Vec::new();
    let mut irregular_fallback_exact = true;
    for z in layouts {
        for &total in &sizes {
            let (s_ns, s_bytes, s_end) =
                measure(z, total, SchemeSel::Force(DataScheme::Staged), iters);
            let (a_ns, a_bytes, a_end) =
                measure(z, total, SchemeSel::Auto { offload: true }, iters);
            assert_eq!(
                s_bytes,
                a_bytes,
                "{} @ {}: Auto delivered different bytes than staged",
                z.name(),
                fmt_size(total)
            );
            let offloadable = z != Zoo::Irregular;
            let o_ns = if offloadable {
                let (o_ns, o_bytes, _) =
                    measure(z, total, SchemeSel::Force(DataScheme::NicOffload), iters);
                assert_eq!(
                    s_bytes,
                    o_bytes,
                    "{} @ {}: offload delivered different bytes than staged",
                    z.name(),
                    fmt_size(total)
                );
                o_ns
            } else {
                // No descriptor exists: the Auto policy *is* the staged
                // pipeline, and must replay it event-for-event.
                irregular_fallback_exact &= s_ns == a_ns && s_end == a_end;
                a_ns
            };
            rows.push(Row {
                layout: z.name(),
                bytes: total,
                staged_best_us: s_ns as f64 / 1e3,
                offload_best_us: o_ns as f64 / 1e3,
                auto_best_us: a_ns as f64 / 1e3,
                offloadable,
            });
        }
    }

    // Per-layout crossover: smallest size where the offload engine beats
    // the staged pipeline (the paper-style figure's annotation).
    let crossover = |name: &str| -> Option<usize> {
        rows.iter()
            .filter(|r| r.layout == name && r.offloadable)
            .find(|r| r.offload_best_us <= r.staged_best_us)
            .map(|r| r.bytes)
    };
    let crossovers: Vec<(String, Json)> = ["contig", "strided1d", "strided2d"]
        .iter()
        .map(|n| {
            (
                n.to_string(),
                crossover(n).map_or(Json::Int(-1), |b| b.to_json()),
            )
        })
        .collect();

    // Regression guards (run from scripts/ci.sh).
    for r in rows
        .iter()
        .filter(|r| r.layout == "strided2d" && r.bytes >= 256 << 10)
    {
        assert!(
            r.offload_best_us < r.staged_best_us,
            "offload must beat staged on strided2d at {}: {:.1} us vs {:.1} us",
            fmt_size(r.bytes),
            r.offload_best_us,
            r.staged_best_us
        );
    }
    let s2d_cross = crossover("strided2d").expect("strided2d never crossed over");
    assert!(
        s2d_cross <= 256 << 10,
        "strided2d crossover at {} — above the documented 256 KiB bound",
        fmt_size(s2d_cross)
    );
    assert!(
        irregular_fallback_exact,
        "Auto on the irregular layout diverged from Force(Staged) — the fallback must be bit-identical"
    );

    let doc = Json::Obj(vec![
        ("id".to_string(), "offload".to_json()),
        (
            "title".to_string(),
            "Data-path schemes: staged pipeline vs NIC scatter/gather offload".to_json(),
        ),
        ("iters_per_point".to_string(), (iters as usize).to_json()),
        ("crossover_bytes".to_string(), Json::Obj(crossovers)),
        ("data".to_string(), rows.to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_offload.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
    } else {
        println!("Scheme ablation: staged vs offload vs auto ({iters} iters/point)\n");
        print_table(
            &[
                "layout",
                "bytes",
                "staged (us)",
                "offload (us)",
                "auto (us)",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.layout.to_string(),
                        fmt_size(r.bytes),
                        format!("{:.1}", r.staged_best_us),
                        if r.offloadable {
                            format!("{:.1}", r.offload_best_us)
                        } else {
                            "-".to_string()
                        },
                        format!("{:.1}", r.auto_best_us),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!("\nstrided2d crossover: {}", fmt_size(s2d_cross));
        println!("wrote {out_path}");
    }
}
