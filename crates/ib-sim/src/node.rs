//! One physical node and the one model of its engines.
//!
//! Everything an HCA shares between the endpoints a [`Topology`] places on
//! a host is per *node*: the HCA transmit engine (with its per-tenant
//! queues — the arbiter), the shm copy engine, the MR table and pin account
//! (the node's protection domain), the byte counters and the three trace
//! lanes. Co-located endpoints contend for all of it, exactly like
//! processes sharing a host adapter.
//!
//! **Engines are horizons, not timers.** Each engine is a
//! [`sim_core::Horizon`] — the instant it next falls idle plus the
//! sanitizer's last operation on it — and occupying it ([`Nic::occupy`]) is
//! closed-form arithmetic in the posting process. An engine modelled as an
//! event per work request would admit one kernel timer per operation, and timer
//! admission order is committed history (wake traces, the model checker's
//! exploration depth) — only the wire (`Fabric::deliver_packet_at`) arms a
//! timer, one per packet.
//!
//! **Timing.** An operation occupies its engine for `bytes / bandwidth`
//! (plus `extra`: the descriptor fetches of a scatter/gather post) and
//! becomes visible a constant latency after it leaves. Every operation of a
//! node serializes through the engine and the latency is constant, so
//! delivery is in posting order — the in-order guarantee of an IB
//! reliable-connected QP, and of the shm channel likewise.
//!
//! **Arbitration** is what this device adds to the horizon, and the one
//! HCA-specific branch of the occupancy function; the model is stated on
//! [`Fabric::multi_job`]. Each tenant queues on a horizon of its own,
//! stretched by its share, and the engine's horizon is held until the last
//! tenant's end. What the code relies on: `share >= 1.0` keeps the exact
//! integer duration and a sole tenant's horizon *is* the engine's, so a sole
//! tenant — the classic single-job fabric — sees the plain FIFO timeline
//! whatever its weight. The shm copy engine is a plain horizon.
//!
//! [`Fabric::multi_job`]: crate::Fabric::multi_job
//! [`Topology`]: crate::Topology

use std::collections::HashMap;

use hostmem::HostBuf;
use sim_core::instrument::{self, CallCounters};
use sim_core::lock::MutexGuard;
use sim_core::san;
use sim_core::{Completion, Horizon, SimDur, SimTime};
use sim_trace::{Lane, LaneKind, Recorder};

use crate::fabric::JobState;
use crate::nic::Nic;
use crate::rdma::MrKey;

/// Which engine of the sender's node carries an operation toward a peer
/// (see [`Nic::route`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Route {
    /// The HCA transmit engine and the wire: every remote peer, and the
    /// endpoint itself.
    Hca,
    /// The node's shm copy engine: a distinct endpoint on the same node.
    Shm,
}

/// Index of the scatter/gather offload lane in [`Node::lanes`]; the two
/// engine lanes sit at `Route as usize`.
pub(crate) const OFFLOAD: usize = 2;

/// A registered memory region.
pub(crate) struct Mr {
    pub(crate) buf: HostBuf,
    /// The job whose endpoint registered the region; its registrations are
    /// released with its binding (see [`crate::Fabric::unbind_job`]).
    pub(crate) job: usize,
}

/// Per-node hardware state, shared by every endpoint the topology (and the
/// jobs' bindings) place on the node.
#[derive(Default)]
pub(crate) struct Node {
    pub(crate) hca: Horizon,
    /// Job `j`'s queue on the HCA engine. On a single-job fabric entry 0
    /// always falls idle when `hca` does.
    pub(crate) job_hca: Vec<Horizon>,
    /// Jobs currently bound to this node, in bind order. Arbitration and
    /// the overlap check walk this instead of every declared job.
    pub(crate) tenants: Vec<usize>,
    pub(crate) shm: Horizon,
    /// Registered memory regions (keyed for remote access).
    pub(crate) mrs: HashMap<MrKey, Mr>,
    /// Bytes currently pinned through this node's HCA (for the fault
    /// layer's pin limit).
    pub(crate) pinned_bytes: usize,
    /// `hca.tx_bytes`, `shm.bytes`, `offload.bytes`, `offload.entries`.
    /// Live regardless of tracing; surfaced as `node{k}.*` metrics when a
    /// recorder is attached.
    pub(crate) counters: CallCounters,
    /// `hca_tx`, `shm`, `offload`. `None` until a recorder is attached;
    /// emission is skipped entirely then.
    lanes: Option<[Lane; 3]>,
}

/// One engine occupancy: when it started, when the engine was released and
/// when the payload became visible at the far end.
pub(crate) struct Busy {
    pub(crate) start: SimTime,
    pub(crate) done: SimTime,
    pub(crate) visible: SimTime,
    op: Option<san::OpId>,
}

impl Busy {
    /// The sender-side CQE of the operation that occupied the engine.
    pub(crate) fn completion(&self) -> Completion {
        let c = Completion::ready_between(self.start, self.visible);
        if let Some(o) = self.op {
            c.attach_ops(&[o]);
        }
        c
    }

    /// The error CQE of an injected failure: same occupancy, no bytes.
    pub(crate) fn failed(&self) -> Completion {
        Completion::failed_between(self.start, self.visible)
    }
}

impl Node {
    pub(crate) fn new(njobs: usize) -> Self {
        Node {
            job_hca: vec![Horizon::default(); njobs],
            ..Node::default()
        }
    }

    /// Register the node's counters as `{scope}.*` metrics and its lanes —
    /// in this order; the Chrome export numbers threads by it.
    pub(crate) fn attach_recorder(&mut self, rec: &Recorder, scope: &str) {
        rec.register_counters(scope, &self.counters);
        self.lanes = Some([
            rec.lane(scope, "hca_tx", LaneKind::Hca),
            rec.lane(scope, "shm", LaneKind::Shm),
            rec.lane(scope, "offload", LaneKind::Hca),
        ]);
    }

    /// Count `n` under `key` for the node and, for a labeled tenant, under
    /// its own `{label}fabric.*` scope.
    pub(crate) fn bill(&self, js: &JobState, key: &'static str, n: u64) {
        self.counters.add(key, n);
        if !js.spec.label.is_empty() {
            js.counters.add(key, n);
        }
    }

    pub(crate) fn span(&self, lane: usize, name: &'static str, busy: &Busy) {
        if let Some(lanes) = &self.lanes {
            lanes[lane].span(name, busy.start, busy.done);
        }
    }

    /// Count one injected fault process-wide and mark it on `lane`.
    pub(crate) fn fault_mark(&self, lane: usize, name: &'static str, at: SimTime) {
        instrument::global().record(name);
        if let Some(lanes) = &self.lanes {
            lanes[lane].instant(name, at);
        }
    }
}

impl Nic {
    /// This endpoint's node, locked. Caller contract: nothing that locks a
    /// node (another `my_node()`, `occupy`, an MR lookup) runs while the
    /// guard lives.
    pub(crate) fn my_node(&self) -> MutexGuard<'_, Node> {
        self.fabric.inner.nodes[self.physical_node()].lock()
    }

    /// The occupancy function: occupy engine `route` of this endpoint's
    /// node for `bytes` (+ `extra`, which scales with the QoS share like
    /// the serialization itself), bill the node and the job, emit the
    /// `span` on the engine's lane and tell the sanitizer — which gets the
    /// work request `decl` (its kind and ranges; queue and predecessor are
    /// filled in here: same-queue ordering after the engine's previous
    /// request). An injected failure declares nothing, it touched no memory.
    pub(crate) fn occupy(
        &self,
        route: Route,
        span: &'static str,
        bytes: usize,
        extra: SimDur,
        decl: Option<san::OpDesc>,
    ) -> Busy {
        let fab = &*self.fabric.inner;
        let at = self.physical_node();
        let now = sim_core::now();
        let node = &mut *fab.nodes[at].lock();
        let (engine, cost, latency_ns, key) = match route {
            Route::Hca => (
                &mut node.hca,
                fab.model.serialize_time(bytes),
                fab.model.wire_lat_ns,
                "hca.tx_bytes",
            ),
            Route::Shm => (
                &mut node.shm,
                fab.shm.copy_time(bytes),
                fab.shm.latency_ns,
                "shm.bytes",
            ),
        };
        // Queue ids: `node` for HCA engines, `num_nodes + node` for shm.
        let queue = (route as usize * fab.nodes.len() + at) as u64;
        let op = decl.and_then(|mut d| {
            d.queue = (fab.san_domain, queue);
            d.preds = engine.last().into_iter().collect();
            san::begin_op(d)
        });
        let cost = cost + extra;
        let (start, done) = match route {
            Route::Shm => engine.occupy(now, cost, op),
            Route::Hca => {
                let q = &fab.jobs[self.job].spec.qos;
                let mut share = 1.0;
                if engine.free() > now {
                    let mut wsum = q.hca_weight as u64;
                    for &j in &node.tenants {
                        if j != self.job && node.job_hca[j].free() > now {
                            wsum += fab.jobs[j].spec.qos.hca_weight as u64;
                        }
                    }
                    share = q.hca_weight as f64 / wsum as f64;
                }
                if let Some(cap) = q.rate_cap {
                    share = share.min(cap);
                }
                let dur = if share >= 1.0 {
                    cost
                } else {
                    SimDur::from_nanos((cost.as_nanos() as f64 / share).round() as u64)
                };
                let (start, _) = node.job_hca[self.job].occupy(now, dur, None);
                engine.book(now, start, dur, op)
            }
        };
        let visible = done + SimDur::from_nanos(latency_ns);
        let busy = Busy {
            start,
            done,
            visible,
            op,
        };
        node.bill(&fab.jobs[self.job], key, bytes as u64);
        node.span(route as usize, span, &busy);
        san::op_complete_at(op, visible);
        busy
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sim_core::lock::Mutex;
    use sim_core::{now, Sim, SimTime};

    use crate::tests::two_node_spec;
    use crate::{Fabric, NetModel, Nic, Route, ShmModel, Topology};

    #[test]
    fn colocated_endpoints_share_one_hca_engine() {
        // Two colocated senders each push 1 MiB to a rank on another node at
        // the same instant: the second transfer serializes behind the first
        // on the shared engine, so the HCA's recorded wait is exactly one
        // serialization time — and the shm engine saw nothing.
        let sim = Sim::new();
        let topo = Topology::from_map(vec![0, 0, 1]);
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        for ep in 0..2 {
            let nic = fabric.nic(ep);
            sim.spawn("sender", move || {
                nic.send(2, 1 << 20, Box::new(ep));
            });
        }
        {
            let nic = fabric.nic(2);
            sim.spawn("receiver", move || {
                let _ = nic.mailbox().recv();
                let _ = nic.mailbox().recv();
            });
        }
        sim.run();
        let one = fabric.model().serialize_time(1 << 20).as_nanos();
        let hca = fabric.engine(0, Route::Hca);
        assert_eq!((hca.ops(), hca.busy_ns(), hca.wait_ns()), (2, 2 * one, one));
        assert_eq!(fabric.engine(0, Route::Shm).ops(), 0);
    }

    /// Arrival times of a three-message train from `tx` to `rx` (endpoint 1
    /// of the same job), as raw virtual instants.
    fn train_times(tx: Nic, rx: Nic) -> Vec<SimTime> {
        let sim = Sim::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        sim.spawn("tx", move || {
            for bytes in [1usize << 20, 4096, 1 << 16] {
                tx.send(1, bytes, Box::new(bytes));
            }
        });
        let sink = Arc::clone(&out);
        sim.spawn("rx", move || {
            for _ in 0..3 {
                rx.mailbox().recv();
                sink.lock().push(now());
            }
        });
        sim.run();
        let v = out.lock().clone();
        v
    }

    #[test]
    fn sole_tenant_on_shared_fabric_is_bit_identical_to_dedicated() {
        let ded = Fabric::new(2, NetModel::qdr());
        let dedicated = train_times(ded.nic(0), ded.nic(1));
        // Same train on a 2-tenant fabric whose second job stays silent
        // (and unbound): a sole tenant's weight does not matter — weight 7
        // here, the default 1 on the dedicated fabric, one timeline.
        let mut spec = two_node_spec(0);
        spec.qos.hca_weight = 7;
        let shared = Fabric::multi_job(
            2,
            vec![spec, two_node_spec(1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        shared.bind_job(0, &[0, 1]);
        let tenant = train_times(shared.job_nic(0, 0), shared.job_nic(0, 1));
        assert_eq!(dedicated, tenant, "sole tenant diverged from dedicated");
    }

    #[test]
    fn weighted_share_shifts_contention_between_tenants() {
        // Two co-located jobs blast the same HCA with eight 1 MiB messages
        // each; the weight-4 job must drain well before the weight-1 job.
        let mk = |id: usize, w: u32| {
            let mut s = two_node_spec(id);
            s.qos.share_nodes = true;
            s.qos.hca_weight = w;
            s
        };
        let f = Fabric::multi_job(
            2,
            vec![mk(0, 4), mk(1, 1)],
            NetModel::qdr(),
            ShmModel::westmere(),
            None,
        );
        f.bind_job(0, &[0, 1]);
        f.bind_job(1, &[0, 1]);
        let sim = Sim::new();
        let done = Arc::new(Mutex::new([None::<SimTime>; 2]));
        for job in 0..2 {
            let tx = f.job_nic(job, 0);
            sim.spawn("tx", move || {
                for i in 0..8 {
                    tx.send(1, 1 << 20, Box::new(i));
                }
            });
            let rx = f.job_nic(job, 1);
            let d = Arc::clone(&done);
            sim.spawn("rx", move || {
                for _ in 0..8 {
                    rx.mailbox().recv();
                }
                d.lock()[job] = Some(now());
            });
        }
        sim.run();
        let [heavy, light] = *done.lock();
        let (heavy, light) = (heavy.unwrap(), light.unwrap());
        assert!(
            heavy < light,
            "weight-4 job finished at {heavy}, weight-1 at {light}"
        );
        // Both jobs moved their full 8 MiB, billed to their own scopes and
        // to the shared node counter.
        assert_eq!(f.job_hca_tx_bytes(0), 8 << 20);
        assert_eq!(f.job_hca_tx_bytes(1), 8 << 20);
        assert_eq!(f.hca_tx_bytes(0), 16 << 20);
    }

    #[test]
    fn rate_cap_throttles_even_an_idle_engine() {
        let arrival = |cap: Option<f64>| {
            let mut spec = two_node_spec(0);
            spec.qos.rate_cap = cap;
            let f = Fabric::multi_job(2, vec![spec], NetModel::qdr(), ShmModel::westmere(), None);
            f.bind_job(0, &[0, 1]);
            train_times(f.job_nic(0, 0), f.job_nic(0, 1))[0]
        };
        let full = arrival(None).as_micros_f64();
        let capped = arrival(Some(0.25)).as_micros_f64();
        // A quarter-rate cap stretches serialization ~4x even though the
        // engine is otherwise idle (non-work-conserving ceiling).
        assert!(
            capped > 3.0 * full,
            "cap 0.25 arrived at {capped} us vs {full} us uncapped"
        );
    }
}
