//! Campaign-level guards for the shared-cluster runner: QoS contention
//! shift, carrier determinism under faults, and an end-to-end mixed
//! campaign.

use cluster_sim::{
    generate, run_mix, ClusterParams, JobKind, JobPlan, MixParams, Placement, SizedJob,
};
use ib_sim::{FaultSpec, JobQos};
use sim_core::ExecMode;
use sim_trace::Recorder;

fn off() -> Option<Recorder> {
    Some(Recorder::off())
}

fn shared_qos(weight: u32) -> JobQos {
    JobQos {
        hca_weight: weight,
        share_nodes: true,
        ..JobQos::default()
    }
}

/// Cluster-level QoS guard: two identical host-bandwidth streams
/// contending for the same two HCAs finish in weight order — whichever
/// plan slot holds the weight-4 share, so the outcome is the weights, not
/// job-order asymmetry. (The GPU-staged kinds can't test this: the shared
/// PCIe copy engine paces their chunks below link rate, so the HCA never
/// sees two backlogged tenants.)
#[test]
fn weighted_tenant_outruns_light_tenant_on_shared_nodes() {
    let job = SizedJob {
        kind: JobKind::Stream,
        scale: 4,
    };
    let run = |w0: u32, w1: u32| {
        let plans = vec![
            JobPlan {
                job,
                arrive_ns: 0,
                qos: shared_qos(w0),
            },
            JobPlan {
                job,
                arrive_ns: 0,
                qos: shared_qos(w1),
            },
        ];
        let params = ClusterParams {
            phys_nodes: 2,
            placement: Placement::Shared,
            recorder: off(),
            ..ClusterParams::default()
        };
        let out = run_mix(&params, &plans);
        assert_eq!(
            out.jobs[0].nodes, out.jobs[1].nodes,
            "jobs must share the same nodes"
        );
        (out.jobs[0].service_ns(), out.jobs[1].service_ns())
    };
    let (heavy, light) = run(4, 1);
    assert!(
        heavy * 2 < light,
        "weight 4 in slot 0 took {heavy} ns, weight 1 took {light} ns"
    );
    let (light, heavy) = run(1, 4);
    assert!(
        heavy * 2 < light,
        "weight 4 in slot 1 took {heavy} ns, weight 1 took {light} ns"
    );
}

/// Satellite guard: a seeded 3-job fault-injection campaign is
/// deterministic across the fiber and OS-thread carriers.
#[test]
fn seeded_fault_campaign_is_carrier_deterministic() {
    let plans = vec![
        JobPlan {
            job: SizedJob {
                kind: JobKind::Osu,
                scale: 2,
            },
            arrive_ns: 0,
            qos: shared_qos(2),
        },
        JobPlan {
            job: SizedJob {
                kind: JobKind::Gradient,
                scale: 1,
            },
            arrive_ns: 50_000,
            qos: shared_qos(1),
        },
        JobPlan {
            job: SizedJob {
                kind: JobKind::Transpose,
                scale: 1,
            },
            arrive_ns: 100_000,
            qos: shared_qos(1),
        },
    ];
    let run = |mode: ExecMode| {
        let params = ClusterParams {
            phys_nodes: 4,
            placement: Placement::Shared,
            exec: Some(mode),
            faults: Some(FaultSpec {
                ctrl_drop: 0.05,
                ctrl_delay: 0.05,
                delay_ns: 20_000,
                ..FaultSpec::seeded(11)
            }),
            recorder: off(),
        };
        run_mix(&params, &plans).jobs
    };
    let event = run(ExecMode::Event);
    let threads = run(ExecMode::Threads);
    assert_eq!(
        event, threads,
        "fault campaign diverged between Event and Threads carriers"
    );
}

/// End-to-end mixed campaign: a generated 8-job plan on an exclusive
/// 8-node cluster completes, with sane per-job timelines (arrive <= start
/// <= end) and every body's self-verification passing.
#[test]
fn generated_mix_completes_with_sane_timelines() {
    let plans = generate(&MixParams {
        seed: 1234,
        jobs: 8,
        mean_interarrival_us: 300.0,
    });
    let params = ClusterParams {
        phys_nodes: 8,
        recorder: off(),
        ..ClusterParams::default()
    };
    let out = run_mix(&params, &plans);
    assert_eq!(out.jobs.len(), 8);
    for j in &out.jobs {
        assert!(j.arrive_ns <= j.start_ns, "{j:?}");
        assert!(j.start_ns < j.end_ns, "{j:?}");
        assert_eq!(j.nodes.len(), j.ranks, "{j:?}");
        assert!(out.makespan_ns >= j.end_ns);
    }
}
