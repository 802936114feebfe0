//! Topology sweep: the same 16-rank halo3d job laid out with 1, 2 and 4
//! ranks per node (blocked placement), plus an all-remote control at the
//! same node counts. Blocked placement turns the k-face exchanges — the
//! pathological single-element-row datatypes — into intra-node
//! shared-memory (or pure device-to-device) transfers; the control shares
//! GPUs identically but sends every halo over the HCA, isolating the
//! transport win from the device-sharing cost.
//!
//! Regenerate with: `cargo run --release -p bench --bin ppn_sweep`
//! (`--out PATH` overrides the default `results/BENCH_ppn.json`).

use bench::{print_table, HarnessArgs, Json, ToJson};
use halo3d::{run_halo3d_on, Halo3dParams, Variant};
use ib_sim::Topology;
use mv2_gpu_nc::GpuCluster;
use sim_trace::Recorder;

struct Row {
    ppn: usize,
    nodes: usize,
    blocked_ms: f64,
    all_remote_ms: f64,
    hca_tx_bytes: u64,
    shm_bytes: u64,
}

bench::impl_to_json!(Row {
    ppn,
    nodes,
    blocked_ms,
    all_remote_ms,
    hca_tx_bytes,
    shm_bytes,
});

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

fn fabric_bytes(rec: &Recorder, nodes: usize) -> (u64, u64) {
    let m = rec.metrics();
    let sum = |kind: &str| {
        (0..nodes)
            .map(|k| m.get(&format!("node{k}.{kind}")).copied().unwrap_or(0))
            .sum()
    };
    (sum("hca.tx_bytes"), sum("shm.bytes"))
}

fn main() {
    let args = HarnessArgs::parse(&["out"]);
    let s = args.scale.max(1);
    // 16 ranks in a 2x2x4 grid: k is split four ways, so the worst-layout
    // k-faces connect rank r to r±1 — exactly the pairs a blocked layout
    // co-locates.
    let p = Halo3dParams {
        grid: (2, 2, 4),
        local: (96 / s, 96 / s, 48 / s),
        iters: args.iters.min(3),
    };
    let n = p.nranks();

    let rows: Vec<Row> = [1usize, 2, 4]
        .into_iter()
        .map(|ppn| {
            let nodes = n / ppn;
            let rec = Recorder::new();
            let cluster = GpuCluster::new(n).ppn(ppn).recorder(rec.clone());
            let (blocked, _) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
            let (hca_tx_bytes, shm_bytes) = fabric_bytes(&rec, nodes);
            // Same node count and GPU sharing, but co-located ranks never
            // neighbour each other, so every halo crosses the wire.
            let cluster = GpuCluster::new(n).topology(all_remote(&p, ppn));
            let (remote, _) = run_halo3d_on::<f32>(cluster, p, Variant::Mv2, false);
            assert_eq!(
                blocked.checksum(),
                remote.checksum(),
                "placement must not change the computed field (ppn {ppn})"
            );
            Row {
                ppn,
                nodes,
                blocked_ms: blocked.wall.as_millis_f64(),
                all_remote_ms: remote.wall.as_millis_f64(),
                hca_tx_bytes,
                shm_bytes,
            }
        })
        .collect();

    // Regression guards (run from scripts/ci.sh).
    let base = &rows[0];
    assert_eq!(
        base.shm_bytes, 0,
        "one rank per node must not use the shm channel"
    );
    for r in rows.iter().filter(|r| r.ppn > 1) {
        // Scaled-down runs shrink the k-faces into the eager regime where
        // the transport choice no longer moves the critical path, so the
        // placement guard only holds at full size.
        assert!(
            s > 1 || r.blocked_ms < r.all_remote_ms,
            "blocked ppn={} ({:.2} ms) must beat the all-remote control \
             placement on the same {} nodes ({:.2} ms)",
            r.ppn,
            r.blocked_ms,
            r.nodes,
            r.all_remote_ms
        );
        assert!(
            r.hca_tx_bytes < base.hca_tx_bytes,
            "co-locating ranks must shed wire traffic: ppn={} sent {} HCA \
             bytes vs {} at ppn=1",
            r.ppn,
            r.hca_tx_bytes,
            base.hca_tx_bytes
        );
        assert!(
            r.shm_bytes > 0,
            "ppn={} must route intra-node halos over shared memory",
            r.ppn
        );
    }

    let doc = Json::Obj(vec![
        ("id".to_string(), "ppn".to_json()),
        (
            "title".to_string(),
            "halo3d 16 ranks: blocked ppn placement vs all-remote control".to_json(),
        ),
        (
            "workload".to_string(),
            format!(
                "halo3d {}x{}x{}, {}^3-ish local, {} iters, f32",
                p.grid.0, p.grid.1, p.grid.2, p.local.0, p.iters
            )
            .to_json(),
        ),
        ("data".to_string(), rows.to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_ppn.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
        return;
    }

    println!("halo3d, 16 ranks, blocked ppn vs all-remote control\n");
    print_table(
        &[
            "ppn",
            "nodes",
            "blocked (ms)",
            "all-remote (ms)",
            "HCA tx",
            "shm bytes",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.ppn.to_string(),
                    r.nodes.to_string(),
                    format!("{:.2}", r.blocked_ms),
                    format!("{:.2}", r.all_remote_ms),
                    r.hca_tx_bytes.to_string(),
                    r.shm_bytes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    println!("wrote {out_path}");
}
