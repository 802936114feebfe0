//! The halo3d experiments: Def vs MV2-GPU-NC across decompositions, the
//! ranks-per-node placement sweep, and the seeded fault campaign.

use halo3d::{run_halo3d, run_halo3d_on, Halo3dParams, Variant};
use ib_sim::Topology;
use mv2_gpu_nc::{FaultSpec, GpuCluster};
use sim_trace::Recorder;

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::measure::fabric_bytes;
use crate::Args;

/// Extension benchmark: 3-D Jacobi halo exchange (the paper's "more
/// applications" future work), Def vs MV2-GPU-NC across decompositions
/// whose face mixes range from all-contiguous (split along i) to
/// pathologically strided (split along k).
pub fn halo3d_bench(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("decomposition", "decomposition", Fmt::Plain),
        col("faces", "halo faces", Fmt::Plain),
        col("def_ms", "Def (ms)", Fmt::Fixed(2)),
        col("mv2_ms", "MV2 (ms)", Fmt::Fixed(2)),
        col("improvement_pct", "improvement", Fmt::Pct),
    ];
    // 8 ranks, 256^3 cells per rank at scale 1.
    let n = 256 / args.scale;
    let mut t = Table::new(COLS);
    for (grid, faces) in [
        ((8, 1, 1), "contiguous slabs only (i-split)"),
        ((1, 8, 1), "long strided rows (j-split)"),
        ((1, 1, 8), "single-element rows (k-split)"),
        ((2, 2, 2), "all three face kinds"),
    ] {
        let p = Halo3dParams {
            grid,
            local: (n, n, n),
            iters: args.iters.min(3),
        };
        let d = run_halo3d::<f32>(p, Variant::Def, false);
        let m = run_halo3d::<f32>(p, Variant::Mv2, false);
        assert_eq!(d.checksum(), m.checksum(), "variants must agree");
        t.row(&[
            &format!("{}x{}x{} ({n}^3/proc)", grid.0, grid.1, grid.2),
            &faces,
            &d.wall.as_millis_f64(),
            &m.wall.as_millis_f64(),
            &((1.0 - m.wall.as_secs_f64() / d.wall.as_secs_f64()) * 100.0),
        ]);
    }
    let mut doc = Doc::new();
    doc.say("3-D Jacobi (7-point), 8 ranks, f32 — Def vs MV2-GPU-NC\n");
    doc.table("data", &t);
    doc.say(
        "\nexpected shape: k-split (worst stride) gains the most, i-split \
         (contiguous) the least — the 3-D generalization of Table II",
    );
    doc
}

/// The placement sweep's job. 16 ranks in a 2x2x4 grid: k is split four
/// ways, so the worst-layout k-faces connect rank r to r±1 — exactly the
/// pairs a blocked layout co-locates.
pub fn ppn_workload(args: &Args) -> Halo3dParams {
    let s = args.scale;
    Halo3dParams {
        grid: (2, 2, 4),
        local: (96 / s, 96 / s, 48 / s),
        iters: args.iters.min(3),
    }
}

/// An all-remote placement with the same node count and GPU sharing as
/// blocked `ppn`: group ranks by the parity of their grid coordinates.
/// Equal-parity ranks are never face neighbours in a 7-point stencil, so
/// every halo crosses the wire.
fn all_remote(p: &Halo3dParams, ppn: usize) -> Topology {
    let n = p.nranks();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| {
        let (i, j, k) = p.coords(r);
        (i + j + k) % 2
    });
    let mut map = vec![0usize; n];
    for (pos, &r) in order.iter().enumerate() {
        map[r] = pos / ppn;
    }
    Topology::from_map(map)
}

/// Topology sweep: the same 16-rank halo3d job laid out with 1, 2 and 4
/// ranks per node (blocked placement), plus an all-remote control at the
/// same node counts. Blocked placement turns the k-face exchanges — the
/// pathological single-element-row datatypes — into intra-node
/// shared-memory (or pure device-to-device) transfers; the control shares
/// GPUs identically but sends every halo over the HCA, isolating the
/// transport win from the device-sharing cost.
pub fn ppn_sweep(args: &Args) -> Doc {
    const COLS: &[Col] = &[
        col("ppn", "ppn", Fmt::Plain),
        col("nodes", "nodes", Fmt::Plain),
        col("blocked_ms", "blocked (ms)", Fmt::Fixed(2)),
        col("all_remote_ms", "all-remote (ms)", Fmt::Fixed(2)),
        col("hca_tx_bytes", "HCA tx", Fmt::Plain),
        col("shm_bytes", "shm bytes", Fmt::Plain),
    ];
    let p = ppn_workload(args);
    let n = p.nranks();
    let mut t = Table::new(COLS);
    let mut base_hca = 0;
    for ppn in [1usize, 2, 4] {
        let nodes = n / ppn;
        let rec = Recorder::new();
        let cluster = GpuCluster::new(n).ppn(ppn).recorder(rec.clone());
        let (blocked, _) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
        let (hca, shm) = fabric_bytes(&rec, nodes);
        // Same node count and GPU sharing, but co-located ranks never
        // neighbour each other, so every halo crosses the wire.
        let cluster = GpuCluster::new(n).topology(all_remote(&p, ppn));
        let (remote, _) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
        assert_eq!(
            blocked.checksum(),
            remote.checksum(),
            "placement must not change the computed field (ppn {ppn})"
        );
        let (blocked_ms, remote_ms) = (blocked.wall.as_millis_f64(), remote.wall.as_millis_f64());
        if ppn == 1 {
            base_hca = hca;
            assert_eq!(shm, 0, "one rank per node must not use the shm channel");
        } else {
            // Scaled-down runs shrink the k-faces into the eager regime
            // where the transport choice no longer moves the critical
            // path, so the placement guard only holds at full size.
            assert!(
                args.scale > 1 || blocked_ms < remote_ms,
                "blocked ppn={ppn} ({blocked_ms:.2} ms) must beat the all-remote control \
                 placement on the same {nodes} nodes ({remote_ms:.2} ms)",
            );
            assert!(
                hca < base_hca,
                "co-locating ranks must shed wire traffic: ppn={ppn} sent {hca} HCA \
                 bytes vs {base_hca} at ppn=1",
            );
            assert!(
                shm > 0,
                "ppn={ppn} must route intra-node halos over shared memory"
            );
        }
        t.row(&[&ppn, &nodes, &blocked_ms, &remote_ms, &hca, &shm]);
    }

    let mut doc = Doc::new();
    doc.field(
        "workload",
        format!(
            "halo3d {}x{}x{}, {}^3-ish local, {} iters, f32",
            p.grid.0, p.grid.1, p.grid.2, p.local.0, p.iters
        ),
    );
    doc.say("halo3d, 16 ranks, blocked ppn vs all-remote control\n");
    doc.table("data", &t);
    doc
}

/// Fault campaign: the rendezvous retry/recovery layer under a seeded
/// fault schedule (`--seed N`, `--drop P`, `--rdma-err P`; probabilities in
/// [0,1]).
///
/// Runs the halo3d solver twice — once on a clean fabric, once on a
/// fault-injecting one ([`ib_sim::FaultSpec`] via `mv2_gpu_nc`) — and
/// checks the contract the fault layer is built around: the computed
/// fields must be byte-identical, only virtual time and the retransmit
/// counters may differ. Fails if any rank's field differs, or if the
/// schedule injected no faults / triggered no retransmissions (either
/// would make the run vacuous).
pub fn fault_campaign(args: &Args) -> Doc {
    const COLS: &[Col] = &[col("", "counter", Fmt::Plain), col("", "count", Fmt::Plain)];
    let (seed, drop, rdma_err) = (args.seed, args.drop, args.rdma_err);
    let spec = FaultSpec {
        ctrl_drop: drop,
        ctrl_delay: drop,
        delay_ns: 30_000,
        rdma_error: rdma_err,
        ..FaultSpec::seeded(seed)
    };
    // The i-faces (32x40 doubles) exceed the eager limit, so every
    // iteration pushes rendezvous traffic through the faulty control
    // plane; the j/k faces stay eager and uninjected.
    let p = Halo3dParams {
        grid: (2, 1, 2),
        local: (16, 32, 40),
        iters: 4,
    };
    let clean = run_halo3d::<f64>(p, Variant::Mv2, true);
    let g = sim_core::instrument::global();
    let base = g.snapshot();
    let cluster = GpuCluster::new(p.nranks()).faults(spec);
    let (faulty, _) = run_halo3d_on::<f64>(cluster, p, Variant::Mv2, true);
    let delta = g.delta(&base);

    let mismatched: Vec<usize> = (clean.ranks.iter().zip(&faulty.ranks))
        .filter(|(c, f)| c.interior != f.interior)
        .map(|(c, _)| c.rank)
        .collect();
    let sum_of = |prefix: &str| -> u64 {
        let with_prefix = delta.iter().filter(|(k, _)| k.starts_with(prefix));
        with_prefix.map(|(_, v)| *v).sum()
    };
    let (faults, retries) = (sum_of("fault."), sum_of("retry."));
    let campaign: std::collections::BTreeMap<&str, u64> = delta
        .into_iter()
        .filter(|(k, _)| {
            ["fault.", "retry.", "dup.", "fallback.", "mpi."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .collect();
    let mut t = Table::new(COLS);
    for (k, v) in &campaign {
        t.row(&[k, v]);
    }
    let (clean_us, faulty_us) = (
        clean.wall.as_nanos() as f64 / 1e3,
        faulty.wall.as_nanos() as f64 / 1e3,
    );

    let mut doc = Doc::new();
    if !mismatched.is_empty() {
        doc.failures.push(format!(
            "fault campaign corrupted the field on ranks {mismatched:?}"
        ));
    }
    if faults == 0 || retries == 0 {
        doc.failures.push(format!(
            "vacuous campaign ({faults} faults injected, {retries} retransmissions) — \
             raise the rates or enlarge the workload"
        ));
    }
    let ok = doc.failures.is_empty();
    doc.field("seed", seed)
        .field("ctrl_drop", drop)
        .field("ctrl_delay", drop)
        .field("rdma_error", rdma_err)
        .field("byte_identical", mismatched.is_empty())
        .field("clean_wall_us", clean_us)
        .field("faulty_wall_us", faulty_us)
        .field("counters", campaign)
        .field("ok", ok);
    doc.say(format!(
        "Fault campaign: halo3d 2x1x2, seed {seed}, ctrl drop/delay {drop}, rdma error {rdma_err}\n"
    ));
    doc.say(t.render());
    doc.say(format!(
        "\nclean wall {clean_us:.1} us, faulty wall {faulty_us:.1} us"
    ));
    doc
}
