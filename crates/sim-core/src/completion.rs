//! [`Completion`]: a one-shot event with a virtual-time completion instant.
//!
//! Completions model asynchronous hardware operations (a DMA copy, an RDMA
//! write): the initiator computes the operation's finish time when it is
//! enqueued and attaches it to the returned completion. Consumers can
//! [`poll`](Completion::poll) it non-blockingly (like `cudaStreamQuery`) or
//! [`wait`](Completion::wait) on it (like `cudaStreamSynchronize`).

use std::sync::Arc;

use crate::lock::Mutex;

use crate::kernel::{self, ProcHandle};
use crate::san;
use crate::time::SimTime;

#[derive(Default)]
struct CompState {
    /// When the modeled operation began occupying its resource, if the
    /// initiator knows it (tracing only; never consulted for timing).
    started_at: Option<SimTime>,
    /// When the event completes. `None` while the finish time is unknown.
    done_at: Option<SimTime>,
    /// The operation finished unsuccessfully (an error CQE). Consumers that
    /// never check [`Completion::is_error`] see the same timing either way.
    error: bool,
    /// Processes parked waiting for a finish time to be assigned.
    waiters: Vec<ProcHandle>,
    /// Sanitizer: async operations this completion synchronizes with. A
    /// successful wait/poll acquires them for the caller.
    ops: Vec<san::OpId>,
}

/// A cloneable one-shot virtual-time event.
///
/// All methods must be called from inside a simulation process.
#[derive(Clone, Default)]
pub struct Completion {
    inner: Arc<Mutex<CompState>>,
}

impl Completion {
    /// A completion whose finish time is not yet known; complete it later
    /// with [`complete_at`](Completion::complete_at).
    pub fn pending() -> Self {
        Self::default()
    }

    /// A completion that finishes at the given instant.
    pub fn ready_at(t: SimTime) -> Self {
        Completion {
            inner: Arc::new(Mutex::new(CompState {
                done_at: Some(t),
                ..CompState::default()
            })),
        }
    }

    /// Like [`ready_at`](Self::ready_at), but also recording when the
    /// modeled operation *started* occupying its resource. The start instant
    /// carries no timing semantics — `poll`/`wait` behave exactly as for
    /// `ready_at(end)` — it exists so tracing layers can reconstruct the
    /// operation's exact busy interval from the completion alone.
    pub fn ready_between(start: SimTime, end: SimTime) -> Self {
        let c = Self::ready_at(end);
        c.inner.lock().started_at = Some(start);
        c
    }

    /// A completion that occupies `start..end` and finishes *with an error
    /// status* — the simulator's equivalent of an error CQE
    /// (`IBV_WC_RETRY_EXC_ERR` and friends). Timing behaves exactly like
    /// [`ready_between`](Self::ready_between); protocol layers query
    /// [`is_error`](Self::is_error) after completion to decide whether the
    /// operation must be retried.
    pub fn failed_between(start: SimTime, end: SimTime) -> Self {
        let c = Self::ready_between(start, end);
        c.inner.lock().error = true;
        c
    }

    /// A completion that is already done.
    pub fn ready() -> Self {
        Self::ready_at(SimTime::ZERO)
    }

    /// Assign the finish time. Waiters parked on this completion are woken at
    /// `max(t, now)`. Panics if the completion already has a finish time.
    pub fn complete_at(&self, t: SimTime) {
        let waiters = {
            let st = &mut *self.inner.lock();
            assert!(st.done_at.is_none(), "Completion::complete_at called twice");
            st.done_at = Some(t);
            std::mem::take(&mut st.waiters)
        };
        if !waiters.is_empty() {
            let wake_at = t.max(kernel::now());
            // ProcHandle::unpark is context-free, so the closure can run on
            // the kernel thread.
            kernel::schedule_at(wake_at, move || {
                for h in waiters {
                    h.unpark();
                }
            });
        }
    }

    /// Finish time, if assigned.
    pub fn done_at(&self) -> Option<SimTime> {
        self.inner.lock().done_at
    }

    /// Start instant of the modeled operation, if the initiator recorded one
    /// (see [`ready_between`](Self::ready_between)).
    pub fn started_at(&self) -> Option<SimTime> {
        self.inner.lock().started_at
    }

    /// Whether the operation completed with an error status (an error CQE).
    /// Meaningful once the completion is done; pending completions and
    /// successful ones return `false`.
    pub fn is_error(&self) -> bool {
        self.inner.lock().error
    }

    /// Sanitizer: attach asynchronous operation ids to this completion. A
    /// successful [`wait`](Completion::wait) or [`poll`](Completion::poll)
    /// then acquires them (creates a happens-before edge) for the caller.
    pub fn attach_ops(&self, ops: &[san::OpId]) {
        if !ops.is_empty() {
            self.inner.lock().ops.extend_from_slice(ops);
        }
    }

    /// Sanitizer: the operation ids attached to this completion.
    pub fn attached_ops(&self) -> Vec<san::OpId> {
        self.inner.lock().ops.clone()
    }

    fn san_acquire(&self) {
        if san::enabled() {
            let ops = self.inner.lock().ops.clone();
            san::acquire_ops(&ops);
        }
    }

    /// Non-blocking check: has this completion finished *by the current
    /// virtual time*? A `true` result is a synchronization point (the
    /// caller acquires the completion's attached operations).
    pub fn poll(&self) -> bool {
        let done = self
            .inner
            .lock()
            .done_at
            .is_some_and(|t| t <= kernel::now());
        if done {
            self.san_acquire();
        }
        done
    }

    /// Block until the completion has finished, advancing virtual time as
    /// needed. Returns the finish instant.
    pub fn wait(&self) -> SimTime {
        loop {
            let done_at = self.inner.lock().done_at;
            match done_at {
                Some(t) => {
                    if kernel::now() < t {
                        kernel::sleep_until(t);
                    }
                    self.san_acquire();
                    return t;
                }
                None => {
                    if san::enabled() {
                        let ops = self.inner.lock().ops.clone();
                        san::note_blocked(|| san::describe_ops(&ops));
                    }
                    self.inner.lock().waiters.push(kernel::current_handle());
                    kernel::park("completion wait");
                    san::clear_blocked();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, Sim};
    use crate::time::SimDur;

    #[test]
    fn ready_at_polls_with_clock() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let c = Completion::ready_at(now() + SimDur::from_micros(5));
            assert!(!c.poll());
            sleep(SimDur::from_micros(4));
            assert!(!c.poll());
            sleep(SimDur::from_micros(1));
            assert!(c.poll());
        });
        sim.run();
    }

    #[test]
    fn wait_advances_to_finish_time() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let c = Completion::ready_at(now() + SimDur::from_micros(42));
            let t = c.wait();
            assert_eq!(now(), t);
            assert_eq!(t, SimTime::from_nanos(42_000));
            assert_eq!(c.wait(), t); // waiting again returns immediately
        });
        sim.run();
    }

    #[test]
    fn pending_completion_wakes_parked_waiter() {
        let sim = Sim::new();
        let c = Completion::pending();
        {
            let c = c.clone();
            sim.spawn("waiter", move || {
                let t = c.wait();
                assert_eq!(t, SimTime::from_nanos(30_000));
                assert_eq!(now(), t);
            });
        }
        {
            let c = c.clone();
            sim.spawn("completer", move || {
                sleep(SimDur::from_micros(10));
                c.complete_at(now() + SimDur::from_micros(20));
            });
        }
        sim.run();
    }

    #[test]
    fn complete_in_past_wakes_at_now() {
        let sim = Sim::new();
        let c = Completion::pending();
        {
            let c = c.clone();
            sim.spawn("waiter", move || {
                c.wait();
                assert_eq!(now(), SimTime::from_nanos(10_000));
            });
        }
        {
            let c = c.clone();
            sim.spawn("completer", move || {
                sleep(SimDur::from_micros(10));
                c.complete_at(SimTime::ZERO); // finish time in the past
            });
        }
        sim.run();
    }

    #[test]
    #[should_panic(expected = "called twice")]
    fn double_complete_panics() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let c = Completion::pending();
            c.complete_at(SimTime::ZERO);
            c.complete_at(SimTime::ZERO);
        });
        sim.run();
    }

    #[test]
    fn error_status_rides_the_completion() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let ok = Completion::ready_at(now() + SimDur::from_micros(1));
            let bad = Completion::failed_between(now(), now() + SimDur::from_micros(1));
            assert!(!ok.is_error());
            assert!(bad.is_error(), "error status must be queryable before done");
            // Identical timing semantics: both finish at the same instant.
            assert_eq!(ok.wait(), bad.wait());
            assert!(bad.is_error() && !ok.is_error());
        });
        sim.run();
    }

    #[test]
    fn ready_between_records_start_without_changing_timing() {
        let sim = Sim::new();
        sim.spawn("p", || {
            let s = SimTime::from_nanos(3_000);
            let e = SimTime::from_nanos(9_000);
            let a = Completion::ready_at(e);
            let b = Completion::ready_between(s, e);
            assert_eq!(a.started_at(), None);
            assert_eq!(b.started_at(), Some(s));
            assert_eq!(a.done_at(), b.done_at());
            assert_eq!(a.wait(), b.wait());
            let bad = Completion::failed_between(s, e);
            assert!(bad.is_error());
            assert_eq!(bad.started_at(), Some(s));
            assert_eq!(bad.done_at(), Some(e));
        });
        sim.run();
    }
}
