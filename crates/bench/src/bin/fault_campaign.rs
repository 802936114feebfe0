//! Fault-campaign smoke run: the rendezvous retry/recovery layer under a
//! seeded fault schedule.
//!
//! Runs the halo3d solver twice — once on a clean fabric, once on a
//! fault-injecting one ([`ib_sim::FaultSpec`] via `mv2_gpu_nc`) — and
//! checks the contract the fault layer is built around: the computed
//! fields must be byte-identical, only virtual time and the retransmit
//! counters may differ. Exits nonzero if any rank's field differs, or if
//! the schedule injected no faults / triggered no retransmissions (either
//! would make the smoke run vacuous).
//!
//! Regenerate with:
//! `cargo run --release -p bench --bin fault_campaign > results/fault_campaign.json`
//! (the binary also writes the file itself; `--out PATH` overrides).
//! Knobs: `--seed N`, `--drop P`, `--rdma-err P` (probabilities in [0,1]).

use bench::{print_table, HarnessArgs, Json, ToJson};
use halo3d::{run_halo3d, run_halo3d_on, Halo3dParams, Variant};
use mv2_gpu_nc::{FaultSpec, GpuCluster};

fn main() {
    let args = HarnessArgs::parse(&["seed", "drop", "rdma-err", "out"]);
    let get = |key: &str, default: f64| -> f64 {
        args.extra
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} needs a number"))
            })
            .unwrap_or(default)
    };
    let seed = get("seed", 42.0) as u64;
    let drop = get("drop", 0.10);
    let rdma_err = get("rdma-err", 0.05);
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

    let mut mismatched = Vec::new();
    for (c, f) in clean.ranks.iter().zip(&faulty.ranks) {
        if c.interior != f.interior {
            mismatched.push(c.rank);
        }
    }
    let prefix_sum = |prefix: &str| -> u64 {
        delta
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    };
    let faults = prefix_sum("fault.");
    let retries = prefix_sum("retry.");
    let campaign: Vec<(&&str, &u64)> = delta
        .iter()
        .filter(|(k, _)| {
            ["fault.", "retry.", "dup.", "fallback.", "mpi."]
                .iter()
                .any(|p| k.starts_with(p))
        })
        .collect();

    let ok = mismatched.is_empty() && faults > 0 && retries > 0;
    let doc = Json::Obj(vec![
        ("id".to_string(), "fault_campaign".to_json()),
        (
            "title".to_string(),
            "Seeded fault campaign: halo3d under ctrl drop/delay + RDMA errors".to_json(),
        ),
        ("seed".to_string(), (seed as usize).to_json()),
        ("ctrl_drop".to_string(), drop.to_json()),
        ("ctrl_delay".to_string(), drop.to_json()),
        ("rdma_error".to_string(), rdma_err.to_json()),
        (
            "byte_identical".to_string(),
            mismatched.is_empty().to_json(),
        ),
        (
            "clean_wall_us".to_string(),
            (clean.wall.as_nanos() as f64 / 1e3).to_json(),
        ),
        (
            "faulty_wall_us".to_string(),
            (faulty.wall.as_nanos() as f64 / 1e3).to_json(),
        ),
        (
            "counters".to_string(),
            Json::Obj(
                campaign
                    .iter()
                    .map(|(k, v)| (k.to_string(), (**v as usize).to_json()))
                    .collect(),
            ),
        ),
        ("ok".to_string(), ok.to_json()),
    ]);

    let out_path = args
        .extra
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/fault_campaign.json".to_string());
    std::fs::write(&out_path, format!("{doc}\n")).expect("write results file");

    if args.json {
        println!("{doc}");
    } else {
        println!(
            "Fault campaign: halo3d 2x1x2, seed {seed}, ctrl drop/delay {drop}, rdma error {rdma_err}\n"
        );
        print_table(
            &["counter", "count"],
            &campaign
                .iter()
                .map(|(k, v)| vec![k.to_string(), v.to_string()])
                .collect::<Vec<_>>(),
        );
        println!(
            "\nclean wall {:.1} us, faulty wall {:.1} us",
            clean.wall.as_nanos() as f64 / 1e3,
            faulty.wall.as_nanos() as f64 / 1e3
        );
        println!("wrote {out_path}");
    }

    if !mismatched.is_empty() {
        eprintln!("FAIL: fault campaign corrupted the field on ranks {mismatched:?}");
        std::process::exit(1);
    }
    if faults == 0 || retries == 0 {
        eprintln!(
            "FAIL: vacuous campaign ({faults} faults injected, {retries} retransmissions) — \
             raise the rates or enlarge the workload"
        );
        std::process::exit(1);
    }
}
