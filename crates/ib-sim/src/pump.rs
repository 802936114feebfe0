//! The wire: timed delivery of packets into mailboxes.
//!
//! The one part of the fabric that is a stackless [`Component`] — every
//! timed delivery becomes one entry in a shared pending heap plus one exact
//! (non-coalesced) wake, instead of one boxed timer closure per packet.
//! Bare fabrics (most unit tests build one inside a process, with no `Sim`
//! in reach) keep the closure path; both produce the same virtual times.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::Mutex;
use sim_core::{Component, DeliveryStamp, Mailbox, Sim, SimTime, Waker};

use crate::fabric::Fabric;
use crate::nic::Packet;

/// One timed delivery queued behind the event-driven pump: the packet, its
/// destination, the sender-side happens-before stamp, and an enqueue
/// sequence breaking ties among same-instant deliveries (posting order).
struct PendingDelivery {
    at: SimTime,
    seq: u64,
    dst: usize,
    pkt: Packet,
    stamp: DeliveryStamp,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

type PendingQueue = Arc<Mutex<BinaryHeap<Reverse<PendingDelivery>>>>;

/// The fabric's delivery engine as a stackless component. The wake
/// discipline is [`Waker::wake_exact_at`], which admits timers seq-for-seq
/// exactly like the per-packet boxed closures it replaces, and each tick
/// delivers exactly **one** due packet — the one whose enqueue order
/// matches the firing timer's admission order. Draining everything due per
/// tick would be faster but not identity-preserving: another timer action
/// (a retry, a fault-injected release) whose admission seq falls *between*
/// two same-instant deliveries must still run between them, exactly as it
/// did when each delivery was its own closure. With that discipline,
/// virtual-time results are bit-identical with the pump on or off.
struct DeliveryPump {
    pending: PendingQueue,
    mailboxes: Vec<Mailbox<Packet>>,
}

impl Component for DeliveryPump {
    fn tick(&mut self, now: SimTime) -> Option<SimTime> {
        // Pop under the lock, deliver outside it: send_stamped may wake
        // a parked receiver, which must not re-enter the pending heap.
        let due = {
            let mut q = self.pending.lock();
            match q.peek() {
                Some(Reverse(e)) if e.at <= now => q.pop(),
                _ => None,
            }
        };
        if let Some(Reverse(e)) = due {
            self.mailboxes[e.dst].send_stamped(e.pkt, e.stamp);
        }
        None
    }
}

/// Pump registration state held by the fabric once attached to a kernel.
pub(crate) struct PumpState {
    waker: Waker,
    pending: PendingQueue,
    seq: AtomicU64,
}

impl Fabric {
    /// Register this fabric's delivery engine as a stackless component on
    /// `sim`'s kernel: timed packet deliveries become pending-heap entries
    /// drained by one `tick()` instead of one boxed timer closure each.
    /// Wakes use the exact (non-coalescing) discipline, so virtual-time
    /// results are bit-identical with or without the pump. Call before the
    /// job starts sending. Returns the pump's [`Waker`] (for stats).
    pub fn attach_event_pump(&self, sim: &Sim) -> Waker {
        let pending: PendingQueue = Arc::new(Mutex::new(BinaryHeap::new()));
        let waker = sim.add_component(
            "fabric.delivery",
            DeliveryPump {
                pending: Arc::clone(&pending),
                mailboxes: self.inner.mailboxes.clone(),
            },
        );
        *self.inner.pump.lock() = Some(PumpState {
            waker: waker.clone(),
            pending,
            seq: AtomicU64::new(0),
        });
        waker
    }

    /// Deliver `pkt` into global endpoint `dst`'s mailbox at instant `at`:
    /// through the event pump when attached, as a per-packet timer closure
    /// otherwise. Both paths capture the sender's happens-before stamp
    /// here, at send time.
    pub(crate) fn deliver_packet_at(&self, dst: usize, at: SimTime, pkt: Packet) {
        let pump = self.inner.pump.lock();
        if let Some(p) = &*pump {
            let seq = p.seq.fetch_add(1, Ordering::Relaxed);
            p.pending.lock().push(Reverse(PendingDelivery {
                at,
                seq,
                dst,
                pkt,
                stamp: Mailbox::<Packet>::stamp(),
            }));
            p.waker.wake_exact_at(at);
        } else {
            drop(pump);
            self.inner.mailboxes[dst].send_at(at, pkt);
        }
    }
}
