//! The shared-cluster runner: one [`Sim`] + one multi-job [`Fabric`]
//! hosting every planned job, a scheduler fiber that places arrivals onto
//! physical nodes, and one fiber per rank gated on its job's placement.
//!
//! A multi-tenant campaign is a different *description* of a job than
//! `mpi_sim::MpiWorld` (many topologies, QoS, arrival instants, a
//! scheduler), not a different bring-up: per-node GPUs come from
//! [`mv2_gpu_nc::node_gpu`] and every tenant rank is seated by
//! [`GpuRankEnv::new`], the same two functions `GpuCluster` launches with.
//!
//! Determinism doctrine: the whole campaign — arrival instants, placement
//! decisions, QoS arbitration, every rank's protocol schedule — is a pure
//! function of the plan and the fabric seed. The same plan replays bit-
//! identically under [`ExecMode::Event`] and [`ExecMode::Threads`], with
//! tracing on or off.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_sim::Gpu;
use ib_sim::{Fabric, FaultSpec, JobSpec, NetModel, ShmModel};
use mpi_sim::{MpiConfig, Seat};
use mv2_gpu_nc::{node_gpu, GpuRankEnv};
use sim_core::lock::Mutex;
use sim_core::{now, sleep, ExecMode, Mailbox, Sim, SimDur, SimTime};
use sim_trace::{LaneKind, Recorder};

use crate::arrivals::JobPlan;

/// How the scheduler maps a job's node slots onto physical nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// A job waits for enough *free* nodes (first-fit, lowest ids) — jobs
    /// queue behind each other but never share an HCA. Overload shows up
    /// as queueing delay.
    Exclusive,
    /// A job is placed immediately on the least-loaded nodes, sharing HCAs
    /// with whoever is already there (every job's QoS must set
    /// `share_nodes`). Overload shows up as link contention, divided by
    /// the jobs' `hca_weight`s.
    Shared,
}

/// Cluster-level knobs for one campaign.
#[derive(Clone)]
pub struct ClusterParams {
    /// Physical nodes (one HCA + one GPU each).
    pub phys_nodes: usize,
    /// Placement policy.
    pub placement: Placement,
    /// Process carrier (fibers vs OS threads); `None` = kernel default.
    pub exec: Option<ExecMode>,
    /// Seeded fabric fault injection for resilience campaigns.
    pub faults: Option<FaultSpec>,
    /// Trace recorder; `None` builds a fresh enabled recorder.
    pub recorder: Option<Recorder>,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            phys_nodes: 8,
            placement: Placement::Exclusive,
            exec: None,
            faults: None,
            recorder: None,
        }
    }
}

/// What happened to one job of the campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// Application family name.
    pub kind: &'static str,
    /// Heavy-tail scale factor.
    pub scale: u32,
    /// Ranks the job ran.
    pub ranks: usize,
    /// Arrival instant (ns of virtual time).
    pub arrive_ns: u64,
    /// Placement instant — bind + gate release (ns).
    pub start_ns: u64,
    /// Completion instant — last rank past finalize (ns).
    pub end_ns: u64,
    /// Physical nodes the job ran on.
    pub nodes: Vec<usize>,
}

impl JobOutcome {
    /// Arrival-to-completion response time, ns.
    pub fn response_ns(&self) -> u64 {
        self.end_ns - self.arrive_ns
    }

    /// Placement-to-completion service time, ns.
    pub fn service_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A full campaign's result.
#[derive(Clone)]
pub struct ClusterOutcome {
    /// Per-job timings, in plan order.
    pub jobs: Vec<JobOutcome>,
    /// Virtual completion time of the whole campaign, ns.
    pub makespan_ns: u64,
    /// The recorder the campaign traced into (lanes + metrics registry).
    pub recorder: Recorder,
}

/// Run a planned job mix on a shared cluster. Arrival instants are open
/// loop (the plan's, never adjusted); placement and QoS behave per
/// `params`. Panics on any rank failure — every body self-verifies, so a
/// completed campaign is also a correctness statement.
pub fn run_mix(params: &ClusterParams, plans: &[JobPlan]) -> ClusterOutcome {
    assert!(!plans.is_empty(), "empty job plan");
    for w in plans.windows(2) {
        assert!(
            w[0].arrive_ns <= w[1].arrive_ns,
            "job plan must be sorted by arrival"
        );
    }
    if params.placement == Placement::Shared {
        for (j, p) in plans.iter().enumerate() {
            assert!(
                p.qos.share_nodes,
                "job {j}: Placement::Shared needs JobQos::share_nodes on every job"
            );
        }
    }
    let njobs = plans.len();
    let specs: Vec<JobSpec> = plans
        .iter()
        .enumerate()
        .map(|(j, p)| JobSpec {
            topo: p.job.topo(),
            qos: p.qos.clone(),
            label: format!("job{j}."),
        })
        .collect();
    for (j, p) in plans.iter().enumerate() {
        assert!(
            p.job.ranks() <= params.phys_nodes,
            "job {j} needs {} nodes but the cluster has {}",
            p.job.ranks(),
            params.phys_nodes
        );
    }

    let sim = Sim::new();
    if let Some(mode) = params.exec {
        sim.set_exec_mode(mode);
    }
    let fabric = Fabric::multi_job(
        params.phys_nodes,
        specs,
        NetModel::qdr(),
        ShmModel::westmere(),
        params.faults.clone(),
    );
    let rec = params.recorder.clone().unwrap_or_default();
    fabric.attach_recorder(&rec);

    // One GPU per physical node, shared by every tenant bound there.
    let gpus: Vec<Gpu> = (0..params.phys_nodes)
        .map(|node| node_gpu(node, 3 << 30, &rec))
        .collect();

    // Per-job lifecycle lanes (arrive/start/done instants) and plumbing.
    let life: Vec<_> = (0..njobs)
        .map(|j| rec.lane(&format!("job{j}"), "lifecycle", LaneKind::Proto))
        .collect();
    let gates: Vec<Vec<Mailbox<()>>> = plans
        .iter()
        .map(|p| (0..p.job.ranks()).map(|_| Mailbox::new()).collect())
        .collect();
    let done: Mailbox<usize> = Mailbox::new();
    let starts: Arc<Mutex<Vec<Option<SimTime>>>> = Arc::new(Mutex::new(vec![None; njobs]));
    let ends: Arc<Mutex<Vec<Option<SimTime>>>> = Arc::new(Mutex::new(vec![None; njobs]));
    let placed: Arc<Mutex<Vec<Vec<usize>>>> = Arc::new(Mutex::new(vec![Vec::new(); njobs]));

    // Rank fibers: all spawned at t = 0, each blocked on its gate until
    // the scheduler places its job. Only after the gate opens may the rank
    // touch the fabric (binding exists from then on).
    for (j, plan) in plans.iter().enumerate() {
        let ranks = plan.job.ranks();
        let remaining = Arc::new(AtomicUsize::new(ranks));
        for (r, gate) in gates[j].iter().enumerate() {
            let fabric = fabric.clone();
            let gpus = gpus.clone();
            let gate = gate.clone();
            let done = done.clone();
            let rec = rec.clone();
            let ends = Arc::clone(&ends);
            let remaining = Arc::clone(&remaining);
            let life = life[j].clone();
            let job = plan.job;
            sim.spawn(format!("job{j}.rank{r}"), move || {
                gate.recv();
                let seat = Seat {
                    nic: fabric.job_nic(j, r),
                    rank: r,
                    size: ranks,
                    cfg: MpiConfig::default(),
                    recorder: rec,
                };
                let env = GpuRankEnv::new(seat, &gpus);
                job.run(&env);
                env.comm.finalize();
                if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    ends.lock()[j] = Some(now());
                    life.instant_now("done");
                    done.send(j);
                }
            });
        }
    }

    // The scheduler fiber: walk the plan in arrival order; at each arrival
    // reclaim finished jobs, choose nodes per the placement policy, bind,
    // and open the job's gates.
    {
        let fabric = fabric.clone();
        let placement = params.placement;
        let phys = params.phys_nodes;
        let starts = Arc::clone(&starts);
        let placed = Arc::clone(&placed);
        let plans: Vec<JobPlan> = plans.to_vec();
        sim.spawn("scheduler", move || {
            let mut free: BTreeSet<usize> = (0..phys).collect();
            let mut tenants = vec![0usize; phys];
            let release = |j: usize, free: &mut BTreeSet<usize>, tenants: &mut Vec<usize>| {
                let nodes = fabric
                    .job_binding(j)
                    .expect("completed job must still be bound");
                fabric.unbind_job(j);
                for n in nodes {
                    tenants[n] -= 1;
                    if tenants[n] == 0 {
                        free.insert(n);
                    }
                }
            };
            for (j, plan) in plans.iter().enumerate() {
                let at = SimTime::ZERO + SimDur::from_nanos(plan.arrive_ns);
                if now() < at {
                    sleep(at.since(now()));
                }
                life[j].instant_now("arrive");
                while let Some(d) = done.try_recv() {
                    release(d, &mut free, &mut tenants);
                }
                let need = plan.job.ranks();
                let nodes: Vec<usize> = match placement {
                    Placement::Exclusive => {
                        while free.len() < need {
                            let d = done.recv();
                            release(d, &mut free, &mut tenants);
                        }
                        let picked: Vec<usize> = free.iter().take(need).copied().collect();
                        for n in &picked {
                            free.remove(n);
                        }
                        picked
                    }
                    Placement::Shared => {
                        let mut order: Vec<usize> = (0..phys).collect();
                        order.sort_by_key(|&n| (tenants[n], n));
                        let picked: Vec<usize> = order.into_iter().take(need).collect();
                        for &n in &picked {
                            free.remove(&n);
                        }
                        picked
                    }
                };
                for &n in &nodes {
                    tenants[n] += 1;
                }
                fabric.bind_job(j, &nodes);
                starts.lock()[j] = Some(now());
                life[j].instant_now("start");
                placed.lock()[j] = nodes;
                for gate in &gates[j] {
                    gate.send(());
                }
            }
            // Later completions need no reclamation — the campaign is over
            // once every rank fiber drains; leftover `done` tokens are
            // harmless.
        });
    }

    let end = sim.run();
    let starts = starts.lock().clone();
    let ends = ends.lock().clone();
    let placed = placed.lock().clone();
    let jobs = plans
        .iter()
        .enumerate()
        .map(|(j, p)| JobOutcome {
            kind: p.job.kind.name(),
            scale: p.job.scale,
            ranks: p.job.ranks(),
            arrive_ns: p.arrive_ns,
            start_ns: starts[j].expect("job never started").as_nanos(),
            end_ns: ends[j].expect("job never finished").as_nanos(),
            nodes: placed[j].clone(),
        })
        .collect();
    ClusterOutcome {
        jobs,
        makespan_ns: end.as_nanos(),
        recorder: rec,
    }
}

/// Service time of one job running alone on a dedicated-size cluster —
/// the slowdown denominator. Same runner, a single-entry plan arriving at
/// t = 0 with default QoS.
pub fn run_isolated(job: crate::workload::SizedJob, recorder: Option<Recorder>) -> JobOutcome {
    let params = ClusterParams {
        phys_nodes: job.ranks(),
        recorder,
        ..ClusterParams::default()
    };
    let plan = vec![JobPlan {
        job,
        arrive_ns: 0,
        qos: ib_sim::JobQos::default(),
    }];
    run_mix(&params, &plan).jobs.remove(0)
}
