//! The fabric: the registry of a simulated interconnect — its cost models,
//! its tenants and where they are placed, its nodes, its mailboxes.
//!
//! What is modeled, and why it is enough for the paper's protocol, lives
//! with the code that models it:
//!
//! * [`crate::node`] — one [`Node`] per physical host (HCA transmit engine
//!   and its arbiter, shm copy engine, MR table, pin account, counters,
//!   lanes) and the one occupancy function every primitive goes through.
//! * [`crate::nic`] — an endpoint's handle: identity, the route, reliable
//!   in-order **SEND/RECV** ([`Nic::send`], [`Nic::send_ctrl`]: MPI
//!   envelopes, eager payloads, RTS/CTS/FIN) and **registration**.
//! * [`crate::rdma`] — the one-sided writes into registered memory:
//!   **RDMA WRITE**, its scatter/gather form and the **shm write**.
//!
//! This file is what is left: building a fabric ([`Fabric::new`],
//! [`Fabric::with_topology`], [`Fabric::multi_job`]), handing out endpoints,
//! binding jobs to nodes, attaching the recorder — and the wire, which is
//! one function (`Fabric::deliver_packet_at`): one kernel timer per packet.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use sim_core::instrument::CallCounters;
use sim_core::lock::Mutex;
use sim_core::{san, Horizon, Mailbox, Sim, SimTime};
use sim_trace::Recorder;

use crate::fault::{FaultSpec, FaultState};
use crate::job::{BindError, JobQos, JobSpec};
use crate::model::{NetModel, ShmModel};
use crate::nic::{Nic, Packet};
use crate::node::{Node, Route};
use crate::scheduler::DeliveryScheduler;
use crate::topology::Topology;

/// One tenant of the fabric: what it declared, its endpoint range and its
/// (late-bound) slot→physical-node placement.
pub(crate) struct JobState {
    /// Rank→slot topology, QoS knobs and scope label (`""` for the
    /// implicit single job).
    pub(crate) spec: JobSpec,
    /// First global endpoint id of this job (its ranks are
    /// `base..base + spec.topo.num_ranks()`).
    pub(crate) base: usize,
    /// Job-local node slot → physical node, assigned by
    /// [`Fabric::try_bind_job`]. `None` until the job is placed.
    pub(crate) binding: Mutex<Option<Vec<usize>>>,
    /// Per-job fabric byte accounting (`hca.tx_bytes`, `shm.bytes`,
    /// `offload.bytes`), surfaced as `{label}fabric.*` metrics for labeled
    /// jobs.
    pub(crate) counters: CallCounters,
}

pub(crate) struct FabricInner {
    pub(crate) model: NetModel,
    pub(crate) shm: ShmModel,
    /// The fabric's tenants, in declaration order. A classic single-job
    /// fabric is one entry with an empty label and an identity binding.
    pub(crate) jobs: Vec<JobState>,
    /// Per-node hardware, indexed by physical node id. One lock per node;
    /// one process runs at a time, so the granularity is not observable.
    pub(crate) nodes: Vec<Mutex<Node>>,
    /// One mailbox per endpoint; outside any lock so receivers don't
    /// contend.
    pub(crate) mailboxes: Vec<Mailbox<Packet>>,
    /// Source of [`MrKey`](crate::MrKey)s (keys are fabric-unique).
    pub(crate) next_key: AtomicU64,
    /// Sanitizer queue domain; lanes `0..num_nodes` are the HCA tx engines,
    /// lanes `num_nodes..2*num_nodes` the shm copy engines.
    pub(crate) san_domain: u64,
    /// Seeded fault injection, if this fabric was built with faults.
    pub(crate) faults: Option<FaultState>,
    /// Control-packet delivery hook (see [`crate::scheduler`]). `None`
    /// (the default) is FIFO delivery with the original code path — a run
    /// without a scheduler is bit-identical to a pre-hook fabric.
    pub(crate) scheduler: Mutex<Option<Arc<dyn DeliveryScheduler>>>,
}

/// The simulated cluster interconnect. Clones are shallow.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl Fabric {
    /// Create a fabric with `n` endpoints, one per node (the pre-topology
    /// default where rank and node coincide), the default shm model and no
    /// fault injection.
    pub fn new(n: usize, model: NetModel) -> Self {
        Self::with_topology(Topology::one_per_node(n), model, ShmModel::westmere(), None)
    }

    /// Create a fabric for an explicit [`Topology`]: one mailbox per
    /// endpoint, one HCA + shm copy engine per node. This is the classic
    /// single-job fabric: one implicit tenant with default QoS, an empty
    /// scope label and the identity slot→node binding. `faults: None` is a
    /// perfectly reliable fabric on which no random stream exists.
    pub fn with_topology(
        topo: Topology,
        model: NetModel,
        shm: ShmModel,
        faults: Option<FaultSpec>,
    ) -> Self {
        let num_phys = topo.num_nodes();
        let job = JobSpec {
            topo,
            qos: JobQos::default(),
            label: String::new(),
        };
        let fabric = Self::multi_job(num_phys, vec![job], model, shm, faults);
        fabric.bind_job(0, &(0..num_phys).collect::<Vec<_>>());
        fabric
    }

    /// Create a fabric shared by several concurrent jobs on `phys_nodes`
    /// physical nodes. Every tenant is declared up front (endpoint ids and
    /// QoS state are fixed for the fabric's lifetime); each job's
    /// placement onto physical nodes is chosen later with
    /// [`Fabric::try_bind_job`] and released with [`Fabric::unbind_job`],
    /// so a scheduler can stream an arbitrary job sequence through a
    /// bounded machine.
    ///
    /// **Arbitration model.** Each node's HCA transmit engine keeps one
    /// horizon per job. An operation posted while the engine is idle
    /// serializes at full link rate (work-conserving). While the engine is
    /// backlogged, a job's operation serializes at the weighted share
    /// `w_j / Σ w_k` over the jobs currently backlogged on that engine
    /// (`JobQos::hca_weight`); an optional `JobQos::rate_cap` ceiling
    /// applies in both states. A sole tenant therefore always runs at full
    /// rate, whatever its weight — a single-job fabric
    /// ([`Fabric::with_topology`]) is this model with one tenant.
    ///
    /// The shm copy engine stays a plain per-node FIFO: intra-node copies
    /// contend by ordering, not by weighted shares (kernel-assisted copies
    /// have no QoS hardware to model).
    pub fn multi_job(
        phys_nodes: usize,
        specs: Vec<JobSpec>,
        model: NetModel,
        shm: ShmModel,
        faults: Option<FaultSpec>,
    ) -> Self {
        // Caller contract (all three): job lists and QoS knobs are written
        // by the launchers (`MpiWorld::launch`, `cluster_sim::run_mix`),
        // which validate user input into typed errors before they get here.
        assert!(
            !specs.is_empty(),
            "a multi-job fabric needs at least one job"
        );
        let mut base = 0usize;
        let jobs: Vec<JobState> = specs
            .into_iter()
            .map(|s| {
                s.qos.validate();
                assert!(
                    s.topo.num_nodes() <= phys_nodes,
                    "job '{}' wants {} node slots but the fabric has {phys_nodes} nodes",
                    s.label,
                    s.topo.num_nodes()
                );
                let first = base;
                base += s.topo.num_ranks();
                JobState {
                    spec: s,
                    base: first,
                    binding: Mutex::new(None),
                    counters: CallCounters::new(),
                }
            })
            .collect();
        Fabric {
            inner: Arc::new(FabricInner {
                model,
                shm,
                nodes: (0..phys_nodes)
                    .map(|_| Mutex::new(Node::new(jobs.len())))
                    .collect(),
                mailboxes: (0..base).map(|_| Mailbox::new()).collect(),
                next_key: AtomicU64::new(1),
                san_domain: san::new_queue_domain(),
                faults: faults.map(FaultState::new),
                scheduler: Mutex::new(None),
                jobs,
            }),
        }
    }

    /// Install a control-packet delivery scheduler (see
    /// [`crate::scheduler`]). Must be called before the job starts sending;
    /// packets already in flight keep their FIFO arrival. Pass-through
    /// contract: with no scheduler installed — or a scheduler that always
    /// answers [`CtrlAction::Deliver`](crate::CtrlAction::Deliver) —
    /// delivery is bit-identical to a fabric without the hook.
    pub fn set_delivery_scheduler(&self, s: Arc<dyn DeliveryScheduler>) {
        *self.inner.scheduler.lock() = Some(s);
    }

    /// Whether this fabric injects faults. Protocol layers use this to arm
    /// retry timers only when the network can actually misbehave, keeping
    /// the zero-fault configuration bit-identical to a fabric built without
    /// a fault spec.
    pub fn faults_enabled(&self) -> bool {
        self.inner.faults.is_some()
    }

    /// Number of physical nodes.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Number of endpoints (MPI ranks attached to the fabric, summed over
    /// all jobs).
    pub fn num_endpoints(&self) -> usize {
        self.inner.mailboxes.len()
    }

    /// The attachment point of *global* endpoint `endpoint`. On a
    /// single-job fabric global and job-local ids coincide; multi-job
    /// callers usually want [`Fabric::job_nic`].
    pub fn nic(&self, endpoint: usize) -> Nic {
        // Caller contract (here and in `job_nic`): ranks come from the
        // launcher's own `0..n` loop over the topology it built.
        assert!(
            endpoint < self.num_endpoints(),
            "no such endpoint {endpoint} (fabric has {} endpoints)",
            self.num_endpoints()
        );
        let job = self.inner.jobs.partition_point(|j| j.base <= endpoint) - 1;
        self.job_nic(job, endpoint - self.inner.jobs[job].base)
    }

    /// The attachment point of job `job`'s local rank `rank`.
    pub fn job_nic(&self, job: usize, rank: usize) -> Nic {
        let js = &self.inner.jobs[job];
        assert!(
            rank < js.spec.topo.num_ranks(),
            "no such rank {rank} in job {job} (job has {} ranks)",
            js.spec.topo.num_ranks()
        );
        Nic {
            fabric: self.clone(),
            job,
            endpoint: rank,
        }
    }

    /// Bytes job `job` has serialized through HCA transmit engines so far.
    pub fn job_hca_tx_bytes(&self, job: usize) -> u64 {
        self.inner.jobs[job].counters.get("hca.tx_bytes")
    }

    /// Job `job`'s current slot→physical-node binding, if placed.
    pub fn job_binding(&self, job: usize) -> Option<Vec<usize>> {
        self.inner.jobs[job].binding.lock().clone()
    }

    /// Place job `job` onto the physical nodes `nodes` (one per job node
    /// slot, in slot order). Refuses — with a typed [`BindError`] — a
    /// second binding, an out-of-range or duplicated node, or a placement
    /// that overlaps another bound job's nodes unless *both* jobs opted
    /// into sharing (`JobQos::share_nodes`); the overlap refusal is what
    /// keeps per-node HCA accounting from silently double-billing two
    /// tenants that never agreed to share an adapter.
    pub fn try_bind_job(&self, job: usize, nodes: &[usize]) -> Result<(), BindError> {
        let jobs = &self.inner.jobs;
        let js = &jobs[job];
        if nodes.len() != js.spec.topo.num_nodes() {
            return Err(BindError::WrongCount {
                job,
                expected: js.spec.topo.num_nodes(),
                got: nodes.len(),
            });
        }
        for (i, &n) in nodes.iter().enumerate() {
            if n >= self.num_nodes() {
                return Err(BindError::BadNode {
                    node: n,
                    num_nodes: self.num_nodes(),
                });
            }
            if nodes[..i].contains(&n) {
                return Err(BindError::DuplicateNode { node: n });
            }
        }
        let mut binding = js.binding.lock();
        if binding.is_some() {
            return Err(BindError::AlreadyBound { job });
        }
        for &node in nodes {
            for &other in &self.inner.nodes[node].lock().tenants {
                if !(js.spec.qos.share_nodes && jobs[other].spec.qos.share_nodes) {
                    return Err(BindError::NodeOverlap { job, other, node });
                }
            }
        }
        for &node in nodes {
            self.inner.nodes[node].lock().tenants.push(job);
        }
        *binding = Some(nodes.to_vec());
        Ok(())
    }

    /// [`Fabric::try_bind_job`], panicking on refusal (single-scheduler
    /// callers that treat a bad placement as a bug).
    pub fn bind_job(&self, job: usize, nodes: &[usize]) {
        // Caller contract: for placements that cannot be refused — a
        // dedicated fabric's identity binding, cluster-sim's after its own
        // admission check. Anyone else calls `try_bind_job`.
        if let Err(e) = self.try_bind_job(job, nodes) {
            panic!("bind_job: {e}");
        }
    }

    /// Release job `job`'s node binding (the job has drained; its nodes
    /// are free for the next arrival). The job's endpoints must be idle:
    /// every memory region they registered on those nodes is deregistered
    /// here and its bytes leave the nodes' pin accounts, so a finished
    /// tenant neither holds its buffers alive nor eats into a later
    /// tenant's pin limit. A no-op for an unbound job.
    pub fn unbind_job(&self, job: usize) {
        let Some(nodes) = self.inner.jobs[job].binding.lock().take() else {
            return;
        };
        for &at in &nodes {
            let node = &mut *self.inner.nodes[at].lock();
            node.tenants.retain(|&t| t != job);
            // Caller contract: the scheduler unbinds a job after its ranks
            // returned, so nothing of it is left on an engine.
            debug_assert!(
                !sim_core::in_sim() || node.job_hca[job].free() <= sim_core::now(),
                "unbind_job({job}) while its sends still occupy node {at}'s HCA"
            );
            let released: usize = node
                .mrs
                .values()
                .filter(|mr| mr.job == job)
                .map(|mr| mr.buf.len())
                .sum();
            node.mrs.retain(|_, mr| mr.job != job);
            node.pinned_bytes -= released;
        }
    }

    /// The network cost model.
    pub fn model(&self) -> &NetModel {
        &self.inner.model
    }

    /// Bytes `node`'s HCA transmit engine has serialized onto the wire so
    /// far. Intra-node traffic never contributes.
    pub fn hca_tx_bytes(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().counters.get("hca.tx_bytes")
    }

    /// Bytes copied through `node`'s shm channel so far.
    pub fn shm_bytes(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().counters.get("shm.bytes")
    }

    /// A snapshot of `node`'s engine on `route` with its always-on tallies:
    /// nanoseconds of serialization (stretched by the tenants' shares on a
    /// shared HCA), nanoseconds posts waited behind earlier ones, posts.
    pub fn engine(&self, node: usize, route: Route) -> Horizon {
        let node = self.inner.nodes[node].lock();
        match route {
            Route::Hca => node.hca,
            Route::Shm => node.shm,
        }
    }

    /// The wire: deliver `pkt` into global endpoint `dst`'s mailbox at
    /// instant `at`, as one kernel timer carrying the sender's
    /// happens-before token (captured here, at send time).
    pub(crate) fn deliver_packet_at(&self, dst: usize, at: SimTime, pkt: Packet) {
        self.inner.mailboxes[dst].send_at(at, pkt);
    }

    /// Does nothing: the wire has no pump to attach any more. Kept only
    /// because `benchmark/src/probes.rs`, which a change to the simulator
    /// may not edit, still calls it; delete it with that call.
    pub fn attach_event_pump(&self, _: &Sim) {}

    /// Attach a trace recorder: each node gets a `node{k}/hca_tx` lane
    /// (HCA serialization spans and fault instants), a `node{k}/shm`
    /// lane (shm copy-engine spans) and a `node{k}/offload` lane
    /// (scatter/gather engine spans), and its byte accumulators are
    /// registered as `node{k}.*` metrics. Recording never changes timing —
    /// spans reuse the times the engines already computed.
    pub fn attach_recorder(&self, rec: &Recorder) {
        for (n, node) in self.inner.nodes.iter().enumerate() {
            node.lock().attach_recorder(rec, &format!("node{n}"));
        }
        // Labeled tenants additionally surface their own byte totals as
        // `{label}fabric.*` — the implicit single job (empty label) adds
        // nothing, keeping the classic metrics namespace unchanged.
        for j in &self.inner.jobs {
            if !j.spec.label.is_empty() {
                rec.register_counters(&format!("{}fabric", j.spec.label), &j.counters);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use hostmem::HostBuf;

    use super::*;
    use crate::tests::{in_sim, two_node_spec};

    #[test]
    #[should_panic(expected = "no such endpoint 7")]
    fn nic_lookup_out_of_range_panics() {
        Fabric::new(2, NetModel::qdr()).nic(7);
    }

    #[test]
    fn bind_rejects_bad_placements_with_typed_errors() {
        let f = Fabric::multi_job(
            4,
            vec![two_node_spec(0), two_node_spec(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        assert_eq!(
            f.try_bind_job(0, &[0]),
            Err(BindError::WrongCount {
                job: 0,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            f.try_bind_job(0, &[0, 9]),
            Err(BindError::BadNode {
                node: 9,
                num_nodes: 4
            })
        );
        assert_eq!(
            f.try_bind_job(0, &[1, 1]),
            Err(BindError::DuplicateNode { node: 1 })
        );
        f.bind_job(0, &[0, 1]);
        assert_eq!(
            f.try_bind_job(0, &[2, 3]),
            Err(BindError::AlreadyBound { job: 0 })
        );
        // Overlapping a bound job without QoS sharing on both is refused...
        assert_eq!(
            f.try_bind_job(1, &[1, 2]),
            Err(BindError::NodeOverlap {
                job: 1,
                other: 0,
                node: 1
            })
        );
        // ...a disjoint placement goes through, and unbinding frees the
        // nodes for a different placement.
        assert_eq!(f.try_bind_job(1, &[2, 3]), Ok(()));
        assert_eq!(f.job_binding(1), Some(vec![2, 3]));
        f.unbind_job(1);
        assert_eq!(f.try_bind_job(1, &[3, 2]), Ok(()));
    }

    #[test]
    fn overlap_allowed_when_both_jobs_opt_into_sharing() {
        let mk = |id: usize| {
            let mut s = two_node_spec(id);
            s.qos.share_nodes = true;
            s
        };
        let f = Fabric::multi_job(
            2,
            vec![mk(0), mk(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        f.bind_job(0, &[0, 1]);
        assert_eq!(f.try_bind_job(1, &[0, 1]), Ok(()));
    }

    #[test]
    fn unbind_removes_the_job_from_its_nodes_tenant_lists() {
        let f = Fabric::multi_job(
            4,
            vec![two_node_spec(0), two_node_spec(1), two_node_spec(2)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        f.bind_job(0, &[0, 1]);
        f.bind_job(1, &[2, 3]);
        f.unbind_job(0);
        // Unbinding an unbound job stays a no-op.
        f.unbind_job(0);
        // Job 0 left no stale tenancy behind on nodes 0 and 1...
        assert_eq!(f.try_bind_job(2, &[0, 1]), Ok(()));
        // ...and the overlap check sees exactly the current tenants.
        assert_eq!(
            f.try_bind_job(0, &[3, 1]),
            Err(BindError::NodeOverlap {
                job: 0,
                other: 1,
                node: 3
            })
        );
    }

    #[test]
    fn unbind_releases_the_jobs_registrations_and_pins() {
        let sharing = |id: usize| {
            let mut s = JobSpec::labeled(id, Topology::one_per_node(1));
            s.qos.share_nodes = true;
            s
        };
        let f = Fabric::multi_job(
            1,
            vec![sharing(0), sharing(1), sharing(2)],
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                pin_limit_bytes: Some(200),
                ..FaultSpec::seeded(6)
            }),
        );
        in_sim(move || {
            // Tenants 0 and 1 share node 0; each pins a pool and a user
            // buffer.
            f.bind_job(0, &[0]);
            f.bind_job(1, &[0]);
            let (first, second) = (f.job_nic(0, 0), f.job_nic(1, 0));
            first.register(&HostBuf::alloc(64));
            first.try_register(&HostBuf::alloc(64)).expect("128 <= 200");
            let kept = second
                .try_register(&HostBuf::alloc(64))
                .expect("192 <= 200");
            assert_eq!(second.pinned_bytes(), 192);
            second
                .try_register(&HostBuf::alloc(64))
                .expect_err("256 > 200 while tenant 0 is still there");
            // Tenant 0 finishes: its 128 bytes leave the node's pin account,
            // tenant 1's registration is untouched.
            f.unbind_job(0);
            assert_eq!(second.pinned_bytes(), 64);
            // A later tenant gets the room, not a spurious RegError.
            f.bind_job(2, &[0]);
            let third = f.job_nic(2, 0);
            third
                .try_register(&HostBuf::alloc(128))
                .expect("192 <= 200");
            second.deregister(kept);
            assert_eq!(third.pinned_bytes(), 128);
        });
    }

    #[test]
    #[should_panic(expected = "not bound to physical nodes")]
    fn unbound_job_traffic_panics() {
        let f = Fabric::multi_job(
            2,
            vec![two_node_spec(0)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        in_sim(move || {
            f.job_nic(0, 0).send(1, 8, Box::new(0u8));
        });
    }
}
