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
//! * the Auto policy is slower than the better of staged and offload on
//!   any row (its choice is the walk-vs-pack inequality, so it must pick
//!   the cheaper one; on `contig` a direct R-PUT beats both),
//! * offload does not beat staged on the two-level layout at >= 256 KiB,
//! * the two-level crossover lands above 256 KiB,
//! * the Auto policy on the irregular layout diverges from `Force(Staged)`
//!   by even one event (the fallback must be bit-identical).

use std::collections::BTreeMap;

use hostmem::HostBuf;
use mpi_sim::{DataScheme, Datatype, MpiConfig, MpiWorld, SchemeSel};
use sim_core::SimTime;

use crate::doc::{col, fmt_size, Col, Doc, Fmt, Table};
use crate::measure::{best_us, laps, one_way};
use crate::Args;

/// The layout zoo, by name: `(datatype, count, buffer bytes)` for a
/// `total`-byte payload.
fn layout(name: &str, total: usize) -> (Datatype, usize, usize) {
    match name {
        "contig" => (Datatype::byte(), total, total),
        // Rows of 64 B every 128 B: a single descriptor entry.
        "strided1d" => {
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
        "strided2d" => {
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
        "irregular" => {
            let blocks: Vec<(usize, isize)> = (0..total / 128)
                .map(|i| (if i % 2 == 0 { 96 } else { 160 }, (i * 512) as isize))
                .collect();
            let n = blocks.len();
            (Datatype::hindexed(&blocks, &Datatype::byte()), 1, n * 512)
        }
        _ => unreachable!("no layout `{name}`"),
    }
}

/// Best-of-`iters` one-way virtual latency (us) of a rank-0 → rank-1
/// rendezvous of the layout under the scheme policy, plus the receiver's
/// final buffer (for the byte-identity guard) and the job's virtual end
/// time (for the bit-identical-fallback guard).
fn measure(
    name: &'static str,
    total: usize,
    scheme: SchemeSel,
    iters: u32,
) -> (f64, Vec<u8>, SimTime) {
    let cfg = MpiConfig {
        scheme,
        ..MpiConfig::default()
    };
    let out = MpiWorld::new(2).with_config(cfg).try_run(move |comm| {
        let (t, count, bufsize) = layout(name, total);
        t.commit();
        let buf = match comm.rank() {
            0 => HostBuf::from_vec((0..bufsize).map(|i| (i % 251) as u8).collect()),
            _ => HostBuf::alloc(bufsize),
        };
        let ns = laps(&comm, iters, |tag| {
            one_way(&comm, buf.base(), count, &t, tag)
        });
        (ns, buf.read(0, bufsize))
    });
    let (end, mut ranks, _) = out.unwrap();
    let (ns, bytes) = ranks.swap_remove(1);
    (best_us(&ns), bytes, end)
}

pub fn offload_sweep(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("layout", "layout", Fmt::Plain),
        col("bytes", "bytes", Fmt::Size),
        col("staged_best_us", "staged (us)", Fmt::Fixed(1)),
        col("offload_best_us", "", Fmt::Plain),
        col("", "offload (us)", Fmt::Plain),
        col("auto_best_us", "auto (us)", Fmt::Fixed(1)),
        col("offloadable", "", Fmt::Plain),
    ];
    const LAYOUTS: [&str; 4] = ["contig", "strided1d", "strided2d", "irregular"];
    let iters = (args.iters as u32).max(3);
    let sizes = [16usize << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];

    let mut t = Table::new(COLS);
    // Per-layout crossover: smallest size where the offload engine beats
    // the staged pipeline (the paper-style figure's annotation); -1 if none.
    let mut crossover: BTreeMap<&str, i64> = BTreeMap::new();
    let mut irregular_fallback_exact = true;
    for name in LAYOUTS {
        let offloadable = name != "irregular";
        let mut cross = None;
        for total in sizes {
            let at = format!("{name} @ {}", fmt_size(total));
            let (staged, s_bytes, s_end) =
                measure(name, total, SchemeSel::Force(DataScheme::Staged), iters);
            let (auto, a_bytes, a_end) =
                measure(name, total, SchemeSel::Auto { offload: true }, iters);
            assert_eq!(
                s_bytes, a_bytes,
                "{at}: Auto delivered different bytes than staged"
            );
            let offload = if offloadable {
                let (offload, o_bytes, _) =
                    measure(name, total, SchemeSel::Force(DataScheme::NicOffload), iters);
                assert_eq!(
                    s_bytes, o_bytes,
                    "{at}: offload delivered different bytes than staged"
                );
                offload
            } else {
                // No descriptor exists: the Auto policy *is* the staged
                // pipeline, and must replay it event-for-event.
                irregular_fallback_exact &= staged == auto && s_end == a_end;
                auto
            };
            let best = staged.min(offload);
            assert!(
                auto <= best,
                "{at}: Auto took {auto} us, the better scheme {best} us"
            );
            if name == "strided2d" && total >= 256 << 10 {
                assert!(
                    offload < staged,
                    "offload must beat staged on {at}: {offload:.1} us vs {staged:.1} us"
                );
            }
            if offloadable && offload <= staged {
                cross.get_or_insert(total);
            }
            let shown = match offloadable {
                true => format!("{offload:.1}"),
                false => "-".to_string(),
            };
            t.row(&[
                &name,
                &total,
                &staged,
                &offload,
                &shown,
                &auto,
                &offloadable,
            ]);
        }
        if offloadable {
            crossover.insert(name, cross.map_or(-1, |b| b as i64));
        }
    }
    let s2d_cross = crossover["strided2d"];
    assert!(s2d_cross >= 0, "strided2d never crossed over");
    assert!(
        s2d_cross <= 256 << 10,
        "strided2d crossover at {s2d_cross} bytes — above the documented 256 KiB bound"
    );
    assert!(
        irregular_fallback_exact,
        "Auto on the irregular layout diverged from Force(Staged) — the fallback must be bit-identical"
    );

    let mut doc = Doc::new();
    doc.field("iters_per_point", iters)
        .field("crossover_bytes", crossover);
    doc.say(format!(
        "Scheme ablation: staged vs offload vs auto ({iters} iters/point)\n"
    ));
    doc.table("data", &t);
    doc.say(format!(
        "\nstrided2d crossover: {}",
        fmt_size(s2d_cross as usize)
    ));
    doc
}
