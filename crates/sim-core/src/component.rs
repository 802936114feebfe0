//! Stackless `tick()` components: reactive infrastructure scheduled
//! straight off the kernel timer heap.
//!
//! A [`Component`] is the event-driven counterpart of a process: instead of
//! a carrier (thread or fiber) that blocks, it is a state machine whose
//! [`tick`](Component::tick) runs inline on the kernel thread whenever its
//! [`Waker`] fires. Components never park, never own a stack, and cost one
//! timer-heap entry per pending wake — the natural home for hardware-side
//! reactivity (fabric delivery, completion fan-out, timer-driven retries)
//! that was previously expressed as ad-hoc boxed timer closures.
//!
//! # Determinism
//!
//! A wake is an ordinary kernel timer: it is admitted with a `(wake time,
//! admission seq)` pair exactly like a closure scheduled with
//! [`schedule_at`](crate::schedule_at), so converting a closure-based
//! design to a component preserves the simulation's event order bit for
//! bit **provided the wake discipline is unchanged**. Two disciplines are
//! offered:
//!
//! * [`Waker::wake_exact_at`] — one timer per wake, no merging. Seq-for-seq
//!   identical to the closure it replaces; use it when converting existing
//!   timing-sensitive paths (the ib-sim delivery pump uses this).
//! * [`Waker::wake_at`] — coalescing: a wake at `t` is absorbed if the
//!   component is already armed for an instant `<= t`, and re-arms (via
//!   timer cancellation) if armed later. Fewer heap entries, but a
//!   different seq stream; use it for new components with no committed
//!   baseline.
//!
//! Ticks always run while no process holds the virtual CPU (timer actions
//! only fire between grants), so a component may freely lock shared state
//! that processes also touch.
//!
//! # Ownership
//!
//! The kernel's registry owns every component (through its [`Waker`]), and
//! un-fired wake timers in the kernel's heap own clones of the waker; the
//! waker refers back to the kernel weakly and upgrades per call, so a
//! component — and everything its state holds — is dropped with the
//! simulation. A wake after that is a no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::kernel::{Kernel, TimerId};
use crate::lock::Mutex;
use crate::time::SimTime;

/// A stackless reactive simulation element.
pub trait Component: Send {
    /// React to a wake at virtual time `now`. Drain whatever inputs are
    /// due, then return the next instant a tick is wanted regardless of
    /// external wakes (`None` to stay idle until woken). Ticks may be
    /// spurious — e.g. when work was already drained by an earlier tick at
    /// the same instant — and must tolerate finding nothing to do.
    fn tick(&mut self, now: SimTime) -> Option<SimTime>;
}

pub(crate) struct WakerInner {
    name: String,
    /// Weak: the kernel's registry owns this waker, and un-fired wake timers
    /// in the kernel's heap own clones of it.
    kernel: Weak<Kernel>,
    comp: Mutex<Box<dyn Component>>,
    /// Earliest armed coalescable wake, with the timer to cancel on re-arm.
    armed: Mutex<Option<(SimTime, TimerId)>>,
    ticks: AtomicU64,
    coalesced: AtomicU64,
}

/// Handle that schedules a registered [`Component`]'s ticks. Cloneable and
/// callable from any simulation context (processes, timer actions, other
/// components' ticks).
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

/// Wake statistics for one registered component (see
/// [`Sim::component_stats`](crate::Sim::component_stats)).
#[derive(Clone, Debug)]
pub struct ComponentStats {
    /// Registration name.
    pub name: String,
    /// Ticks executed.
    pub ticks: u64,
    /// Coalesced (absorbed) `wake_at` calls that did not arm a timer.
    pub coalesced: u64,
}

/// Register a component with the kernel's registry; called by
/// [`Sim::add_component`](crate::Sim::add_component).
pub(crate) fn register(kernel: &Arc<Kernel>, name: String, comp: Box<dyn Component>) -> Waker {
    let w = Waker {
        inner: Arc::new(WakerInner {
            name,
            kernel: Arc::downgrade(kernel),
            comp: Mutex::new(comp),
            armed: Mutex::new(None),
            ticks: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }),
    };
    kernel.components.lock().push(w.clone());
    w
}

/// Snapshot the registry's stats.
pub(crate) fn stats(kernel: &Kernel) -> Vec<ComponentStats> {
    kernel
        .components
        .lock()
        .iter()
        .map(|w| ComponentStats {
            name: w.inner.name.clone(),
            ticks: w.inner.ticks.load(Ordering::Relaxed),
            coalesced: w.inner.coalesced.load(Ordering::Relaxed),
        })
        .collect()
}

impl Waker {
    /// Run one tick now (kernel thread, inside a timer action — so the
    /// kernel is alive).
    fn fire(&self) {
        let Some(kernel) = self.inner.kernel.upgrade() else {
            return;
        };
        let now = kernel.current_time();
        *self.inner.armed.lock() = None;
        self.inner.ticks.fetch_add(1, Ordering::Relaxed);
        let next = self.inner.comp.lock().tick(now);
        if let Some(t) = next {
            self.wake_at(t);
        }
    }

    /// Coalescing wake: ensure a tick runs no later than `t`. Absorbed when
    /// already armed for an instant `<= t`; re-arms (cancelling the later
    /// timer) otherwise. The timer-heap footprint is at most one live entry
    /// per component. Like every wake, a no-op once the simulation is gone.
    pub fn wake_at(&self, t: SimTime) {
        let Some(kernel) = self.inner.kernel.upgrade() else {
            return;
        };
        let mut armed = self.inner.armed.lock();
        match &*armed {
            Some((at, _)) if *at <= t => {
                self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            other => {
                if let Some((_, id)) = other {
                    kernel.cancel_timer(id);
                }
                let w = self.clone();
                let id = kernel.schedule_cancellable_at(t, move || w.fire());
                *armed = Some((t, id));
            }
        }
    }

    /// Coalescing wake at the current virtual instant. Usable from any
    /// simulation context, including timer actions (where
    /// [`now`](crate::now) is unavailable).
    pub fn wake_now(&self) {
        if let Some(kernel) = self.inner.kernel.upgrade() {
            self.wake_at(kernel.current_time());
        }
    }

    /// Exact wake: always admit one fresh timer at `t`, never coalesce.
    /// Seq-for-seq identical to scheduling a closure with
    /// [`schedule_at`](crate::schedule_at) — the discipline to use when a
    /// closure-based path with committed virtual-time results is converted
    /// to a component.
    pub fn wake_exact_at(&self, t: SimTime) {
        if let Some(kernel) = self.inner.kernel.upgrade() {
            let w = self.clone();
            kernel.schedule_at(t, move || w.fire());
        }
    }

    /// Registration name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Waker({}, ticks={})",
            self.inner.name,
            self.inner.ticks.load(Ordering::Relaxed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{now, sleep, Sim};
    use crate::time::SimDur;
    use std::sync::Mutex as StdMutex;

    struct Recorder {
        hits: Arc<StdMutex<Vec<u64>>>,
        every: Option<SimDur>,
        stop_after: usize,
    }

    impl Component for Recorder {
        fn tick(&mut self, now: SimTime) -> Option<SimTime> {
            let mut h = self.hits.lock().unwrap();
            h.push(now.as_nanos());
            match self.every {
                Some(d) if h.len() < self.stop_after => Some(now + d),
                _ => None,
            }
        }
    }

    #[test]
    fn component_ticks_at_woken_instants() {
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        let w = sim.add_component(
            "rec",
            Recorder {
                hits: Arc::clone(&hits),
                every: None,
                stop_after: 0,
            },
        );
        sim.spawn("driver", move || {
            w.wake_exact_at(now() + SimDur::from_micros(3));
            w.wake_exact_at(now() + SimDur::from_micros(1));
            sleep(SimDur::from_micros(10));
        });
        sim.run();
        assert_eq!(*hits.lock().unwrap(), vec![1_000, 3_000]);
    }

    #[test]
    fn self_rearming_component_runs_periodically() {
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        let w = sim.add_component(
            "periodic",
            Recorder {
                hits: Arc::clone(&hits),
                every: Some(SimDur::from_micros(2)),
                stop_after: 3,
            },
        );
        sim.spawn("driver", move || {
            w.wake_at(now() + SimDur::from_micros(2));
            sleep(SimDur::from_micros(20));
        });
        sim.run();
        assert_eq!(*hits.lock().unwrap(), vec![2_000, 4_000, 6_000]);
    }

    #[test]
    fn coalescing_absorbs_later_wakes_and_rearms_earlier_ones() {
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        let w = sim.add_component(
            "coal",
            Recorder {
                hits: Arc::clone(&hits),
                every: None,
                stop_after: 0,
            },
        );
        let stats_sim = sim.clone();
        sim.spawn("driver", move || {
            let base = now();
            w.wake_at(base + SimDur::from_micros(5));
            w.wake_at(base + SimDur::from_micros(7)); // absorbed (later)
            w.wake_at(base + SimDur::from_micros(5)); // absorbed (equal)
            w.wake_at(base + SimDur::from_micros(2)); // re-arms earlier
            sleep(SimDur::from_micros(10));
            // One tick at 2us; the 5us timer was cancelled, not fired.
            let st = &stats_sim.component_stats()[0];
            assert_eq!(st.name, "coal");
            assert_eq!(st.ticks, 1);
            assert_eq!(st.coalesced, 2);
        });
        sim.run();
        assert_eq!(*hits.lock().unwrap(), vec![2_000]);
    }

    #[test]
    fn cancelled_coalesced_timer_leaves_no_live_entry() {
        let sim = Sim::new();
        let hits = Arc::new(StdMutex::new(Vec::new()));
        let w = sim.add_component(
            "tidy",
            Recorder {
                hits: Arc::clone(&hits),
                every: None,
                stop_after: 0,
            },
        );
        let probe = sim.clone();
        sim.spawn("driver", move || {
            let base = now();
            w.wake_at(base + SimDur::from_micros(50));
            w.wake_at(base + SimDur::from_micros(1)); // cancels the 50us arm
            sleep(SimDur::from_micros(2));
            // Only this process's sleep timer machinery may remain; the
            // component holds no armed timer after its tick.
            assert_eq!(probe.timers_live(), 0);
        });
        sim.run();
        assert_eq!(*hits.lock().unwrap(), vec![1_000]);
    }
}
