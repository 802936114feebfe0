//! The FIFO horizon: the one model of a resource that serves its operations
//! one after another.
//!
//! A GPU copy or compute engine, a CUDA stream, an HCA transmit engine, one
//! tenant's queue on it and a shm copy engine are all the same thing: the
//! instant the resource next falls idle, plus the sanitizer's last operation
//! on it (its successor is ordered after it). Occupying one is closed-form
//! arithmetic in the posting process — no timer. What a device
//! adds is how horizons combine: a GPU operation holds its stream and its
//! engine; an HCA operation holds its tenant's queue and, beside the other
//! tenants, the engine.
//!
//! Every horizon also keeps three always-on tallies — nanoseconds of work,
//! nanoseconds operations waited for it, operations — so "how long did work
//! queue for this engine" is answerable with tracing off.

use crate::san::OpId;
use crate::time::{SimDur, SimTime};

/// One serializing resource (see the module docs).
#[derive(Copy, Clone, Debug, Default)]
pub struct Horizon {
    free: SimTime,
    last: Option<OpId>,
    busy_ns: u64,
    wait_ns: u64,
    ops: u64,
}

impl Horizon {
    /// When the resource next falls idle.
    pub fn free(&self) -> SimTime {
        self.free
    }

    /// Sanitizer: the last declared operation placed here.
    pub fn last(&self) -> Option<OpId> {
        self.last
    }

    /// Total nanoseconds of the operations placed here.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Total nanoseconds operations placed here spent between becoming ready
    /// and starting.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns
    }

    /// Number of operations placed here.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// When an operation that could start at `at` gets the resource: the
    /// horizon rule, written here and nowhere else.
    pub fn ready(&self, at: SimTime) -> SimTime {
        at.max(self.free)
    }

    /// Place an operation of `dur` that is ready at `ready` behind
    /// everything already here. Returns its `(start, end)`.
    pub fn occupy(&mut self, ready: SimTime, dur: SimDur, op: Option<OpId>) -> (SimTime, SimTime) {
        self.book(ready, self.ready(ready), dur, op)
    }

    /// Place an operation whose `start` another horizon decided (the engine
    /// of a stream's operation, the tenant queue of an HCA's): the resource
    /// is held until its end at least, `last` moves only for a declared
    /// operation, and the tallies grow. Returns `(start, end)`.
    pub fn book(
        &mut self,
        ready: SimTime,
        start: SimTime,
        dur: SimDur,
        op: Option<OpId>,
    ) -> (SimTime, SimTime) {
        let end = start + dur;
        self.free = self.free.max(end);
        self.last = op.or(self.last);
        self.busy_ns += dur.as_nanos();
        self.wait_ns += (start - ready).as_nanos();
        self.ops += 1;
        (start, end)
    }

    /// Nothing placed from now on starts before `at` (an event wait).
    pub fn not_before(&mut self, at: SimTime) {
        self.free = self.free.max(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: fn(u64) -> SimTime = SimTime::from_nanos;
    const D: fn(u64) -> SimDur = SimDur::from_nanos;

    #[test]
    fn an_idle_horizon_starts_at_ready_and_a_busy_one_queues() {
        let mut h = Horizon::default();
        assert_eq!(h.occupy(T(100), D(50), None), (T(100), T(150)));
        assert_eq!((h.free(), h.wait_ns()), (T(150), 0));
        // Ready while busy: starts when the first ends, and the gap is wait.
        assert_eq!(h.occupy(T(120), D(10), None), (T(150), T(160)));
        assert_eq!((h.free(), h.wait_ns()), (T(160), 30));
        // Ready after it fell idle: no wait, the idle gap is not busy time.
        assert_eq!(h.occupy(T(500), D(5), None), (T(500), T(505)));
        assert_eq!((h.busy_ns(), h.wait_ns(), h.ops()), (65, 30, 3));
    }

    #[test]
    fn only_a_declared_operation_moves_last() {
        let mut h = Horizon::default();
        h.occupy(T(0), D(1), Some(OpId(7)));
        h.occupy(T(0), D(1), None);
        assert_eq!(h.last(), Some(OpId(7)));
        h.book(T(0), T(9), D(1), Some(OpId(8)));
        assert_eq!(h.last(), Some(OpId(8)));
    }

    #[test]
    fn a_booked_operation_holds_the_horizon_without_lowering_it() {
        // Two tenants of one engine: the engine is held until the later end.
        let mut h = Horizon::default();
        assert_eq!(h.book(T(0), T(0), D(100), None), (T(0), T(100)));
        assert_eq!(h.book(T(10), T(20), D(30), None), (T(20), T(50)));
        assert_eq!(h.free(), T(100));
        assert_eq!((h.busy_ns(), h.wait_ns(), h.ops()), (130, 10, 2));
        h.not_before(T(90));
        assert_eq!(h.free(), T(100));
        h.not_before(T(400));
        assert_eq!(h.occupy(T(0), D(1), None), (T(400), T(401)));
    }
}
