//! [`Mailbox`]: an unbounded, deterministic message queue with timed
//! delivery.
//!
//! Mailboxes carry simulated network packets and protocol control messages:
//! a sender computes the arrival instant from its cost model and calls
//! [`send_at`](Mailbox::send_at); the receiver blocks in
//! [`recv`](Mailbox::recv) until delivery.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::lock::Mutex;

use crate::kernel::{self, ProcHandle};
use crate::san;
use crate::time::SimTime;

struct MbState<T> {
    /// Deliverable messages, each with the sanitizer happens-before token
    /// snapshotted from the sender at send time.
    ready: VecDeque<(T, Option<san::SanToken>)>,
    waiters: Vec<ProcHandle>,
}

impl<T> MbState<T> {
    /// Queue the calling process for the next delivery's unpark, once: a
    /// wait that ended by its deadline (or a stale unpark) leaves its handle
    /// behind, and only a delivery drains the list. A second unpark of a
    /// process the first one made runnable would be a no-op, so skipping the
    /// duplicate changes no wake.
    fn enqueue_caller(&mut self) {
        let me = kernel::current_handle();
        if !self.waiters.iter().any(|w| w.id() == me.id()) {
            self.waiters.push(me);
        }
    }
}

/// An unbounded multi-producer multi-consumer queue in virtual time.
///
/// Cloning is shallow; all clones refer to the same queue.
pub struct Mailbox<T> {
    inner: Arc<Mutex<MbState<T>>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            inner: Arc::new(Mutex::new(MbState {
                ready: VecDeque::new(),
                waiters: Vec::new(),
            })),
        }
    }

    /// Number of messages currently deliverable.
    pub fn len(&self) -> usize {
        self.inner.lock().ready.len()
    }

    /// True if no message is currently deliverable.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ready.is_empty()
    }

    fn deliver(inner: &Arc<Mutex<MbState<T>>>, msg: T, token: Option<san::SanToken>) {
        let waiters = {
            let mut st = inner.lock();
            st.ready.push_back((msg, token));
            std::mem::take(&mut st.waiters)
        };
        for w in waiters {
            w.unpark();
        }
    }

    fn take(msg: T, token: Option<san::SanToken>) -> T {
        if let Some(t) = token {
            san::merge_token(&t);
        }
        msg
    }

    /// Deliver `msg` immediately (at the current virtual time).
    pub fn send(&self, msg: T) {
        Self::deliver(&self.inner, msg, san::channel_token());
    }

    /// Take the next message without blocking, if one is deliverable.
    pub fn try_recv(&self) -> Option<T> {
        let popped = self.inner.lock().ready.pop_front();
        popped.map(|(m, tok)| Self::take(m, tok))
    }

    /// Block until a message is deliverable and take it.
    pub fn recv(&self) -> T {
        loop {
            {
                let mut st = self.inner.lock();
                if let Some((m, tok)) = st.ready.pop_front() {
                    drop(st);
                    san::clear_blocked();
                    return Self::take(m, tok);
                }
                st.enqueue_caller();
            }
            san::note_blocked(|| "mailbox recv".to_string());
            kernel::park("mailbox recv");
        }
    }

    /// Block until the mailbox is non-empty or `deadline` passes (if given).
    /// Returns true if a message is deliverable on return. Wakeups may be
    /// spurious with respect to *which* caller gets the message; callers
    /// should re-check with [`try_recv`](Mailbox::try_recv).
    ///
    /// This is the progress-engine idle wait: "sleep until either a packet
    /// arrives or the next known hardware completion instant".
    pub fn wait_nonempty_until(&self, deadline: Option<SimTime>) -> bool {
        {
            let mut st = self.inner.lock();
            if !st.ready.is_empty() {
                return true;
            }
            st.enqueue_caller();
        }
        // The deadline timer deliberately outlives the wait: if a message
        // arrives first, the entry stays in the heap and fires a spurious
        // (harmless) unpark at the deadline, exactly as it always has.
        // Those stale wakes are part of the kernel's committed scheduling
        // history: removing them would shift run-queue admission seqs and
        // break bit-identity of recorded virtual-time baselines, which is
        // why the kernel has no timer cancellation.
        if let Some(t) = deadline {
            let h = kernel::current_handle();
            kernel::schedule_at(t, move || h.unpark());
        }
        san::note_blocked(|| match deadline {
            Some(t) => format!("mailbox wait (until {t})"),
            None => "mailbox wait".to_string(),
        });
        kernel::park("mailbox wait");
        san::clear_blocked();
        !self.inner.lock().ready.is_empty()
    }
}

impl<T: Send + 'static> Mailbox<T> {
    /// Deliver `msg` at virtual instant `at` (clamped to now if in the past):
    /// one kernel timer, carrying the sender's happens-before token captured
    /// here, at send time. Messages scheduled for the same instant arrive
    /// in send order.
    pub fn send_at(&self, at: SimTime, msg: T) {
        let inner = Arc::clone(&self.inner);
        let token = san::channel_token();
        kernel::schedule_at(at, move || Self::deliver(&inner, msg, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, Sim};
    use crate::time::SimDur;

    #[test]
    fn immediate_send_recv() {
        let sim = Sim::new();
        let mb = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                mb.send(1u32);
                mb.send(2);
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("consumer", move || {
                assert_eq!(mb.recv(), 1);
                assert_eq!(mb.recv(), 2);
            });
        }
        sim.run();
    }

    #[test]
    fn timed_delivery_blocks_receiver() {
        let sim = Sim::new();
        let mb = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                mb.send_at(now() + SimDur::from_micros(25), "pkt");
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("consumer", move || {
                assert_eq!(mb.recv(), "pkt");
                assert_eq!(now(), SimTime::from_nanos(25_000));
            });
        }
        sim.run();
    }

    #[test]
    fn same_instant_messages_arrive_in_send_order() {
        let sim = Sim::new();
        let mb = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                let at = now() + SimDur::from_micros(5);
                for i in 0..4u32 {
                    mb.send_at(at, i);
                }
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("consumer", move || {
                for i in 0..4u32 {
                    assert_eq!(mb.recv(), i);
                }
            });
        }
        sim.run();
    }

    #[test]
    fn try_recv_does_not_block() {
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("p", move || {
                assert_eq!(mb.try_recv(), None);
                mb.send_at(now() + SimDur::from_micros(1), 9);
                assert_eq!(mb.try_recv(), None); // not yet delivered
                sleep(SimDur::from_micros(1));
                assert_eq!(mb.try_recv(), Some(9));
                assert!(mb.is_empty());
            });
        }
        sim.run();
    }

    #[test]
    fn wait_nonempty_until_times_out() {
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("p", move || {
                let deadline = now() + SimDur::from_micros(9);
                assert!(!mb.wait_nonempty_until(Some(deadline)));
                assert_eq!(now(), deadline);
            });
        }
        // Keep the sim alive past the deadline so the park isn't a deadlock.
        sim.spawn("anchor", || sleep(SimDur::from_micros(20)));
        sim.run();
    }

    #[test]
    fn wait_nonempty_until_wakes_on_arrival() {
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        {
            let mb = mb.clone();
            sim.spawn("consumer", move || {
                let deadline = now() + SimDur::from_micros(100);
                assert!(mb.wait_nonempty_until(Some(deadline)));
                assert_eq!(now(), SimTime::from_nanos(5_000));
                assert_eq!(mb.try_recv(), Some(7));
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                mb.send_at(now() + SimDur::from_micros(5), 7);
            });
        }
        sim.run();
    }

    #[test]
    fn timed_out_waits_leave_one_waiter() {
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        let wakes = Arc::new(Mutex::new(0u32));
        {
            let (mb, wakes) = (mb.clone(), Arc::clone(&wakes));
            sim.spawn("poller", move || {
                for _ in 0..10_000 {
                    assert!(!mb.wait_nonempty_until(Some(now() + SimDur::from_nanos(10))));
                }
                assert_eq!(mb.inner.lock().waiters.len(), 1);
                // One delivery, one wake: the park returns exactly once.
                crate::kernel::park("awaiting the delivery");
                *wakes.lock() += 1;
                assert_eq!(mb.try_recv(), Some(5));
                assert!(mb.inner.lock().waiters.is_empty());
                // Nothing else is coming: a second park must time out.
                assert!(!mb.wait_nonempty_until(Some(now() + SimDur::from_micros(1))));
            });
        }
        sim.spawn("producer", move || {
            sleep(SimDur::from_millis(1));
            mb.send(5);
            sleep(SimDur::from_millis(1));
        });
        sim.run();
        assert_eq!(*wakes.lock(), 1);
    }

    #[test]
    fn idle_wait_keeps_stale_deadline_unpark() {
        // The deadline entry of a satisfied wait stays in the heap and
        // fires a spurious unpark at its deadline (see the comment in
        // `wait_nonempty_until`): the gauge counts it as live until then,
        // and recorded virtual-time baselines depend on that wake. This
        // pins the legacy discipline so nobody "fixes" it into a
        // bit-identity break.
        let sim = Sim::new();
        let mb: Mailbox<u32> = Mailbox::new();
        let probe = sim.clone();
        {
            let mb = mb.clone();
            sim.spawn("engine", move || {
                // Far deadline, but the message arrives first.
                let deadline = now() + SimDur::from_millis(100);
                assert!(mb.wait_nonempty_until(Some(deadline)));
                assert_eq!(mb.try_recv(), Some(1));
                assert_eq!(
                    probe.timers_live(),
                    1,
                    "the satisfied wait's deadline entry must stay armed"
                );
                // The stale entry wakes this process spuriously at the
                // deadline; park until it does.
                crate::kernel::park("awaiting stale unpark");
                assert_eq!(now().as_nanos(), deadline.as_nanos());
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                mb.send_at(now() + SimDur::from_micros(5), 1);
            });
        }
        sim.run();
    }

    #[test]
    fn multiple_consumers_each_get_one() {
        let sim = Sim::new();
        let mb = Mailbox::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3u32 {
            let mb = mb.clone();
            let got = Arc::clone(&got);
            sim.spawn(format!("consumer{i}"), move || {
                let v = mb.recv();
                got.lock().push(v);
            });
        }
        {
            let mb = mb.clone();
            sim.spawn("producer", move || {
                for v in [10u32, 20, 30] {
                    mb.send_at(now() + SimDur::from_micros(u64::from(v)), v);
                }
            });
        }
        sim.run();
        let mut got = got.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20, 30]);
    }
}
