//! One endpoint's attachment point: identity, the route, two-sided sends
//! and memory registration.
//!
//! Endpoints vs. nodes: an **endpoint** is one process's attachment point
//! (one per MPI rank, with its own mailbox); a **node** is the physical
//! host ([`crate::node`]), and several endpoints may share one.
//!
//! **The route** is decided in one place, [`Nic::route`]: a *distinct*
//! endpoint on the same node is served by the node's shm copy engine
//! (kernel-assisted copy through shared pages, its own much cheaper cost
//! model, never touching the HCA or the switch fabric); everyone else goes
//! through the HCA and the wire. *Everyone else includes the endpoint
//! itself*: self-sends keep the HCA loopback path, so a one-rank-per-node
//! job is bit-identical to the pre-topology fabric whose every committed
//! number it produced.
//!
//! **Faults** apply to control traffic on the HCA route only: injected
//! losses model switch misbehavior past the HCA, which intra-node traffic
//! does not cross (D2D device rendezvous never retransmits and is entitled
//! to that). The roll sits *after* the engine occupancy — the loss happens
//! past the sender's HCA (a switch dropping toward a hosed receive queue),
//! so the packet was serialized and the sender-side CQE reports success
//! either way — and *before* the delivery scheduler, which then sees only
//! packets the fault layer let through.

use std::any::Any;
use std::sync::atomic::Ordering;

use hostmem::HostBuf;
use sim_core::{instrument, san, Completion, Mailbox, SimDur, SimTime};

use crate::fabric::{Fabric, JobState};
use crate::node::{Mr, Route};
use crate::rdma::MrKey;
use crate::scheduler::{CtrlAction, CtrlPoint};

/// A message delivered to an endpoint's mailbox.
pub struct Packet {
    /// Sending endpoint (rank) id.
    pub src: usize,
    /// Number of bytes this packet occupied on the wire (control header or
    /// eager payload size).
    pub wire_bytes: usize,
    /// Opaque payload; the protocol layer downcasts it.
    pub payload: Box<dyn Any + Send>,
}

/// Registration refused: granting it would exceed the node's pin limit.
/// The simulator's equivalent of `ibv_reg_mr` failing with `ENOMEM` when
/// `RLIMIT_MEMLOCK` is exhausted.
#[derive(Clone, Debug)]
pub struct RegError {
    /// Bytes the caller asked to pin.
    pub requested: usize,
    /// Bytes this node already has pinned through its HCA.
    pub pinned: usize,
    /// The node's pin limit.
    pub limit: usize,
}

impl std::fmt::Display for RegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory registration failed: {} bytes requested, {} already pinned, limit {}",
            self.requested, self.pinned, self.limit
        )
    }
}

impl std::error::Error for RegError {}

/// One endpoint's handle onto its node's HCA (and shm channel). All rank
/// and node ids a `Nic` exposes are *job-local*: a tenant of a multi-job
/// fabric sees a dense `0..n` rank space and `0..k` node-slot space
/// exactly like a job on a dedicated fabric, and the handle translates to
/// global mailboxes and physical nodes internally.
#[derive(Clone)]
pub struct Nic {
    pub(crate) fabric: Fabric,
    /// Owning job id (0 on a single-job fabric).
    pub(crate) job: usize,
    /// Job-local rank.
    pub(crate) endpoint: usize,
}

impl Nic {
    /// This endpoint's (rank's) id within its job.
    pub fn endpoint(&self) -> usize {
        self.endpoint
    }

    /// The id of the job this endpoint belongs to (0 on a single-job
    /// fabric).
    pub fn job(&self) -> usize {
        self.job
    }

    /// The scope prefix every trace lane, sanitizer pool and metrics key
    /// of this endpoint's rank should carry (`""` on a single-job fabric,
    /// so the classic namespace is reproduced byte for byte).
    pub fn scope_prefix(&self) -> &str {
        &self.job_state().spec.label
    }

    pub(crate) fn job_state(&self) -> &JobState {
        &self.fabric.inner.jobs[self.job]
    }

    /// The physical node hosting job-local endpoint `other` (engines, MR
    /// tables and pin accounting live per physical node).
    pub(crate) fn phys_node_of(&self, other: usize) -> usize {
        let js = self.job_state();
        // Caller contract: the scheduler that owns the fabric binds a job
        // before any of its ranks runs, and unbinds it after they drained.
        match &*js.binding.lock() {
            Some(nodes) => nodes[js.spec.topo.node_of(other)],
            None => panic!(
                "job {} is not bound to physical nodes (bind_job before any traffic)",
                self.job
            ),
        }
    }

    /// The node slot (within this endpoint's job) hosting this endpoint.
    /// On a single-job fabric the binding is the identity, so this is the
    /// physical node. Resource-placement layers that need the physical
    /// node on a shared fabric use [`Nic::physical_node`].
    pub fn node(&self) -> usize {
        self.node_of(self.endpoint)
    }

    /// The physical node this endpoint is currently bound to (for picking
    /// shared per-node resources such as the node's GPU). Panics while the
    /// job is unbound.
    pub fn physical_node(&self) -> usize {
        self.phys_node_of(self.endpoint)
    }

    /// Whether `other` is an endpoint of the same job on the same node
    /// (true for `other == self.endpoint()`).
    pub fn colocated(&self, other: usize) -> bool {
        self.job_state().spec.topo.colocated(self.endpoint, other)
    }

    /// Which engine of this endpoint's node carries traffic toward `dst`:
    /// the shm copy engine for a *distinct* co-located endpoint, the HCA
    /// for every remote one and for `dst == self.endpoint()` (see the
    /// module docs). The one place the rule is written: [`Nic::send`],
    /// [`Nic::send_ctrl`] and [`Nic::write`] follow it, and layers above
    /// derive their per-peer decisions (eager windows, offload reach, trace
    /// labels) from it.
    pub fn route(&self, dst: usize) -> Route {
        if dst != self.endpoint && self.colocated(dst) {
            Route::Shm
        } else {
            Route::Hca
        }
    }

    /// The node slot hosting job-local endpoint `other` (topology-aware
    /// layers — hierarchical collectives — group peers by this).
    pub fn node_of(&self, other: usize) -> usize {
        self.job_state().spec.topo.node_of(other)
    }

    /// Number of node slots in this endpoint's job.
    pub fn num_nodes(&self) -> usize {
        self.job_state().spec.topo.num_nodes()
    }

    /// The mailbox where this endpoint's incoming packets land.
    pub fn mailbox(&self) -> &Mailbox<Packet> {
        &self.fabric.inner.mailboxes[self.job_state().base + self.endpoint]
    }

    /// The CPU cost of posting one operation on `route`. Sleeping yields:
    /// `now` and the interleaving with other ranks depend on it.
    pub(crate) fn post_overhead(&self, route: Route) {
        let inner = &self.fabric.inner;
        sim_core::sleep(SimDur::from_nanos(match route {
            Route::Hca => inner.model.post_overhead_ns,
            Route::Shm => inner.shm.post_overhead_ns,
        }));
    }

    /// Reliable two-sided send: delivers a [`Packet`] into `dst`'s mailbox.
    /// `wire_bytes` is the size the message occupies on the wire (use
    /// [`NetModel::ctrl_bytes`](crate::NetModel::ctrl_bytes) for control
    /// messages, the payload length for eager data). Returns the
    /// sender-side completion (ack'd delivery). Follows [`Nic::route`].
    pub fn send(&self, dst: usize, wire_bytes: usize, payload: Box<dyn Any + Send>) -> Completion {
        self.send_packet(dst, wire_bytes, payload, false)
    }

    /// Convenience: send a control-sized message. Unlike [`Nic::send`],
    /// control messages are subject to the fault layer's drop/delay
    /// injection (the protocol above must retransmit them) — except
    /// intra-node, where the shm channel is reliable by construction — and
    /// to the installed [`DeliveryScheduler`](crate::DeliveryScheduler).
    pub fn send_ctrl(&self, dst: usize, payload: Box<dyn Any + Send>) -> Completion {
        let bytes = self.fabric.inner.model.ctrl_bytes;
        self.send_packet(dst, bytes, payload, true)
    }

    /// The one send body: post overhead → occupy the route's engine → (ctrl
    /// only) fault roll on the HCA route, then the delivery scheduler →
    /// timed delivery.
    fn send_packet(
        &self,
        dst: usize,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
        ctrl: bool,
    ) -> Completion {
        let js = self.job_state();
        // Caller contract: peers are ranks of the sender's own job (the MPI
        // layer checks user-supplied ranks against the communicator).
        assert!(
            dst < js.spec.topo.num_ranks(),
            "no such endpoint {dst} (job has {} endpoints)",
            js.spec.topo.num_ranks()
        );
        let route = self.route(dst);
        self.post_overhead(route);
        let decl = san::OpDesc {
            kind: match route {
                Route::Hca => "nic_send",
                Route::Shm => "shm_send",
            },
            ..Default::default()
        };
        let span = if ctrl { "ctrl" } else { "send" };
        let busy = self.occupy(route, span, wire_bytes, SimDur::ZERO, Some(decl));
        // The sender-side completion keeps the model-computed instant
        // whatever the fault layer or the scheduler do to the delivery.
        let mut deliver_at = Some(busy.visible);
        if ctrl {
            if let (Route::Hca, Some(f)) = (route, &self.fabric.inner.faults) {
                if f.drop_ctrl() {
                    self.my_node()
                        .fault_mark(route as usize, "fault.ctrl_drop", busy.visible);
                    deliver_at = None;
                } else if let Some(extra) = f.delay_ctrl() {
                    self.my_node()
                        .fault_mark(route as usize, "fault.ctrl_delay", busy.visible);
                    deliver_at = Some(busy.visible + SimDur::from_nanos(extra));
                }
            }
            if let Some(t) = deliver_at {
                deliver_at = self.consult_scheduler(dst, route, t, payload.as_ref());
            }
        }
        if let Some(t) = deliver_at {
            let pkt = Packet {
                src: self.endpoint,
                wire_bytes,
                payload,
            };
            self.fabric.deliver_packet_at(js.base + dst, t, pkt);
        }
        busy.completion()
    }

    /// Offer one outgoing control packet to the installed
    /// [`DeliveryScheduler`](crate::DeliveryScheduler), if any. Returns the
    /// (possibly adjusted) delivery time, or `None` when the scheduler
    /// dropped the packet. Without a scheduler this is a single uncontended
    /// lock and returns `arrival` unchanged.
    fn consult_scheduler(
        &self,
        dst: usize,
        route: Route,
        arrival: SimTime,
        payload: &(dyn Any + Send),
    ) -> Option<SimTime> {
        let Some(sched) = self.fabric.inner.scheduler.lock().clone() else {
            return Some(arrival);
        };
        let shm = route == Route::Shm;
        let point = CtrlPoint {
            src: self.endpoint,
            dst,
            shm,
            arrival,
            payload,
        };
        match sched.on_ctrl(&point) {
            CtrlAction::Deliver => Some(arrival),
            // On shm, `Delay` stands in for the receiving rank being
            // scheduled out.
            CtrlAction::Delay(ns) => {
                instrument::global().record("sched.ctrl_delay");
                Some(arrival + SimDur::from_nanos(ns))
            }
            // Caller contract: a `DeliveryScheduler` never drops what
            // `CtrlPoint::shm` marks reliable (simcheck's controller
            // offers `Drop` on wire packets only).
            CtrlAction::Drop if shm => panic!(
                "DeliveryScheduler dropped an intra-node ctrl packet \
                 ({} -> {dst}): the shm channel is reliable by construction",
                self.endpoint
            ),
            CtrlAction::Drop => {
                instrument::global().record("sched.ctrl_drop");
                None
            }
        }
    }

    /// Register `buf` for remote access (pins it). Costs registration time.
    ///
    /// Infallible: internal pools registered at startup must not fail even
    /// under a fault-injected pin limit (MVAPICH2 registers its vbuf pools
    /// at `MPI_Init`; the limit bites on *user* buffers, via
    /// [`try_register`](Nic::try_register)). The bytes still count against
    /// the node's pinned footprint.
    pub fn register(&self, buf: &HostBuf) -> MrKey {
        if sim_core::in_sim() {
            sim_core::sleep(self.fabric.inner.model.reg_time(buf.len()));
        }
        buf.pin();
        let mut node = self.my_node();
        let key = MrKey(self.fabric.inner.next_key.fetch_add(1, Ordering::Relaxed));
        node.pinned_bytes += buf.len();
        let (buf, job) = (buf.clone(), self.job);
        node.mrs.insert(key, Mr { buf, job });
        key
    }

    /// Fallible registration for user buffers: refused with [`RegError`]
    /// when the fault layer's pin limit would be exceeded. The refusal is
    /// checked *before* the registration time is charged (the verbs call
    /// fails fast). Without a fault spec this never fails. The limit is per
    /// node: co-located endpoints draw from the same pin budget.
    pub fn try_register(&self, buf: &HostBuf) -> Result<MrKey, RegError> {
        let faults = self.fabric.inner.faults.as_ref();
        if let Some(limit) = faults.and_then(|f| f.pin_limit()) {
            let node = self.my_node();
            let (requested, pinned) = (buf.len(), node.pinned_bytes);
            if pinned + requested > limit {
                node.fault_mark(Route::Hca as usize, "fault.reg_fail", sim_core::now());
                return Err(RegError {
                    requested,
                    pinned,
                    limit,
                });
            }
        }
        Ok(self.register(buf))
    }

    /// Bytes this endpoint's node currently has pinned through its HCA
    /// (shared across co-located endpoints).
    pub fn pinned_bytes(&self) -> usize {
        self.my_node().pinned_bytes
    }

    /// Whether this NIC's fabric injects faults (see
    /// [`Fabric::faults_enabled`]).
    pub fn faults_enabled(&self) -> bool {
        self.fabric.faults_enabled()
    }

    /// Remove a registration. The region stays pinned (as after
    /// `ibv_dereg_mr` the pages may stay resident); remote access through
    /// the key now faults. The bytes no longer count against the node's
    /// pin-limit footprint.
    pub fn deregister(&self, key: MrKey) {
        let mut node = self.my_node();
        // Caller contract: a key is deregistered once, by an endpoint of
        // the node that registered it (mpi-sim's reg cache owns its keys).
        match node.mrs.remove(&key) {
            Some(mr) => node.pinned_bytes -= mr.buf.len(),
            None => panic!("deregister of unknown MrKey {key:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use sim_core::{now, Sim};

    use crate::{Fabric, FaultSpec, NetModel, ShmModel, Topology};
    use hostmem::HostBuf;

    #[test]
    fn send_delivers_after_wire_time() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send(1, 1 << 20, Box::new(42u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(pkt.src, 0);
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 42);
                // ~300 ns post + ~328 us serialize + 1.3 us latency.
                let us = now().as_micros_f64();
                assert!((us - 329.3).abs() < 2.0, "arrival at {us} us");
            });
        }
        sim.run();
    }

    #[test]
    fn sends_from_one_node_are_in_order() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                // A large message posted first must arrive before a small
                // one posted second (same QP ordering).
                nic.send(1, 1 << 20, Box::new(1u32));
                nic.send(1, 8, Box::new(2u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let a = nic.mailbox().recv();
                let b = nic.mailbox().recv();
                assert_eq!(*a.payload.downcast::<u32>().unwrap(), 1);
                assert_eq!(*b.payload.downcast::<u32>().unwrap(), 2);
            });
        }
        sim.run();
    }

    #[test]
    fn control_messages_are_cheap() {
        let sim = Sim::new();
        let fabric = Fabric::new(2, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("rts"));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let _ = nic.mailbox().recv();
                assert!(now().as_micros_f64() < 2.0, "ctrl took {}", now());
            });
        }
        sim.run();
    }

    #[test]
    fn colocated_send_bypasses_hca() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2); // two ranks, one node
        let fabric = Fabric::with_topology(topo, NetModel::qdr(), ShmModel::westmere(), None);
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send(1, 1 << 20, Box::new(9u32));
            });
        }
        {
            let nic = fabric.nic(1);
            let f2 = fabric.clone();
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(pkt.src, 0);
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 9);
                // 1 MiB at 4 GB/s (~262 us) + sub-us overheads: well under
                // the ~329 us the wire path takes, and the HCA saw nothing.
                let us = now().as_micros_f64();
                assert!(us < 300.0, "shm delivery at {us} us");
                assert_eq!(f2.hca_tx_bytes(0), 0, "intra-node send hit the HCA");
                assert!(f2.shm_bytes(0) >= 1 << 20);
            });
        }
        sim.run();
    }

    #[test]
    fn self_send_still_uses_hca_loopback() {
        let sim = Sim::new();
        let fabric = Fabric::new(1, NetModel::qdr());
        {
            let nic = fabric.nic(0);
            let f2 = fabric.clone();
            sim.spawn("p", move || {
                nic.send(0, 4096, Box::new(1u8));
                let _ = nic.mailbox().recv();
                assert_eq!(f2.hca_tx_bytes(0), 4096);
            });
        }
        sim.run();
    }

    #[test]
    fn certain_ctrl_drop_loses_packet_but_acks_sender() {
        let sim = Sim::new();
        let fabric = Fabric::with_topology(
            Topology::one_per_node(2),
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                ctrl_drop: 1.0,
                ..FaultSpec::seeded(3)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                // Dropped ctrl message still completes on the sender side...
                let c = nic.send_ctrl(1, Box::new("rts"));
                c.wait();
                assert!(!c.is_error());
                // ...and data sends are never subject to ctrl loss.
                nic.send(1, 1 << 10, Box::new(5u32));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(*pkt.payload.downcast::<u32>().unwrap(), 5);
            });
        }
        sim.run();
    }

    #[test]
    fn delayed_ctrl_can_be_overtaken() {
        let sim = Sim::new();
        let fabric = Fabric::with_topology(
            Topology::one_per_node(2),
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                ctrl_delay: 1.0,
                delay_ns: 1_000_000,
                ..FaultSpec::seeded(4)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("first")); // delayed 1 ms
                nic.send(1, 8, Box::new("second")); // data: on time
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let a = nic.mailbox().recv();
                let b = nic.mailbox().recv();
                assert_eq!(*a.payload.downcast::<&str>().unwrap(), "second");
                assert_eq!(*b.payload.downcast::<&str>().unwrap(), "first");
            });
        }
        sim.run();
    }

    #[test]
    fn colocated_ctrl_survives_certain_drop_faults() {
        let sim = Sim::new();
        let topo = Topology::uniform(1, 2);
        let fabric = Fabric::with_topology(
            topo,
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                ctrl_drop: 1.0,
                ..FaultSpec::seeded(7)
            }),
        );
        {
            let nic = fabric.nic(0);
            sim.spawn("sender", move || {
                nic.send_ctrl(1, Box::new("rts"));
            });
        }
        {
            let nic = fabric.nic(1);
            sim.spawn("receiver", move || {
                let pkt = nic.mailbox().recv();
                assert_eq!(*pkt.payload.downcast::<&str>().unwrap(), "rts");
            });
        }
        sim.run();
    }

    #[test]
    fn registration_costs_time_in_sim() {
        let sim = Sim::new();
        let fabric = Fabric::new(1, NetModel::qdr());
        sim.spawn("p", move || {
            let buf = HostBuf::alloc(1 << 20);
            let t0 = now();
            fabric.nic(0).register(&buf);
            assert!(now() > t0);
            assert!(buf.is_pinned());
        });
        sim.run();
    }

    #[test]
    fn pin_limit_fails_try_register_but_not_register() {
        let sim = Sim::new();
        let fabric = Fabric::with_topology(
            Topology::one_per_node(1),
            NetModel::qdr(),
            ShmModel::westmere(),
            Some(FaultSpec {
                pin_limit_bytes: Some(100),
                ..FaultSpec::seeded(6)
            }),
        );
        sim.spawn("p", move || {
            let nic = fabric.nic(0);
            let a = HostBuf::alloc(64);
            let ka = nic.try_register(&a).expect("under the limit");
            assert_eq!(nic.pinned_bytes(), 64);
            let b = HostBuf::alloc(64);
            let err = nic.try_register(&b).expect_err("64+64 > 100");
            assert_eq!((err.requested, err.pinned, err.limit), (64, 64, 100));
            // Infallible registration (internal pools) ignores the limit
            // but still counts.
            nic.register(&b);
            assert_eq!(nic.pinned_bytes(), 128);
            // Deregistering releases the accounting.
            nic.deregister(ka);
            assert_eq!(nic.pinned_bytes(), 64);
        });
        sim.run();
    }
}
