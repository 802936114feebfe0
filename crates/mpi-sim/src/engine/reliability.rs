//! The reliability layer every rendezvous unit shares: the retransmit
//! timer, the bounded post-completion memory, and the one place a *stale
//! packet* — one naming a request that is unknown or in the wrong phase —
//! is judged.
//!
//! All of it is inert on a reliable fabric: no timer is ever armed, nothing
//! is remembered, and a stale packet is a protocol [`violation`] (sanitizer
//! report + panic). Only on a fault-injecting fabric does a stale packet
//! become what it then almost certainly is — a late duplicate — and get
//! counted and dropped instead.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use sim_core::{san, SimDur, SimTime};

use super::{note, Engine};
use crate::proto::{MpiError, ReqId, RetryConfig};

/// Retransmit timer with exponential backoff. Only ever constructed on a
/// fault-injecting fabric.
pub(super) struct RetryTimer {
    /// Initial timeout, ns (restored when progress is observed).
    base_ns: u64,
    /// Current timeout, ns (doubles per retransmission).
    timeout_ns: u64,
    /// Instant at which the watched operation is considered lost.
    pub(super) deadline: SimTime,
    /// Transmissions so far, including the first.
    attempts: u32,
}

impl RetryTimer {
    pub(super) fn new(retry: &RetryConfig) -> Self {
        RetryTimer {
            base_ns: retry.timeout_ns,
            timeout_ns: retry.timeout_ns,
            deadline: sim_core::now() + SimDur::from_nanos(retry.timeout_ns),
            attempts: 1,
        }
    }

    pub(super) fn expired(&self) -> bool {
        sim_core::now() >= self.deadline
    }

    /// Poll the watchdog. `Ok(true)` = the deadline passed and one more
    /// retransmission is now accounted for (backed off and re-armed): the
    /// caller retransmits. `Ok(false)` = nothing to do yet. `Err` = the
    /// retry budget is exhausted: the caller must fail the request with
    /// the returned error, which names the step `op` toward `peer`.
    pub(super) fn fire(
        &mut self,
        retry: &RetryConfig,
        op: &'static str,
        peer: usize,
    ) -> Result<bool, MpiError> {
        if !self.expired() {
            return Ok(false);
        }
        if self.attempts > retry.max_retries {
            return Err(MpiError::RetriesExhausted {
                op,
                peer,
                attempts: self.attempts,
            });
        }
        self.attempts += 1;
        self.timeout_ns = self.timeout_ns.saturating_mul(2);
        self.deadline = sim_core::now() + SimDur::from_nanos(self.timeout_ns);
        Ok(true)
    }

    /// Progress observed: reset the backoff and re-arm.
    pub(super) fn feed(&mut self) {
        self.attempts = 1;
        self.timeout_ns = self.base_ns;
        self.deadline = sim_core::now() + SimDur::from_nanos(self.timeout_ns);
    }
}

/// FIFO-bounded map holding post-completion protocol memory (what a rank
/// must remember to answer retransmits that outlive the request). Old
/// entries age out; a retransmit arriving after that is ignored, which is
/// safe because the peer's own retry budget bounds how long it keeps
/// asking.
pub(super) struct BoundedMap<K: Copy + Eq + Hash, V> {
    cap: usize,
    order: VecDeque<K>,
    map: HashMap<K, V>,
}

impl<K: Copy + Eq + Hash, V> BoundedMap<K, V> {
    pub(super) fn new(cap: usize) -> Self {
        BoundedMap {
            cap,
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }

    pub(super) fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    pub(super) fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    pub(super) fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }
}

/// The peer (or this engine) broke the protocol in a way no injected fault
/// explains — also the verdict on any oddity of the intra-node channel,
/// which never drops or reorders: report to the sanitizer, then panic.
pub(super) fn violation(what: fmt::Arguments<'_>) -> ! {
    let msg = what.to_string();
    san::report_protocol(msg.clone());
    panic!("{msg}");
}

impl Engine {
    /// A retry timer, armed now — on a fault-injecting fabric only.
    pub(super) fn retry_timer(&self) -> Option<RetryTimer> {
        self.faulty.then(|| RetryTimer::new(&self.cfg.retry))
    }

    /// A packet from a lossy channel named a request that does not exist
    /// or is not in the phase the packet belongs to. On a fault-injecting
    /// fabric that is a late duplicate of a packet that already did its
    /// work: it is counted as `dup` and this returns, so the caller drops
    /// it — possibly after re-sending whatever the peer is evidently still
    /// missing. On a reliable fabric it is a protocol [`violation`].
    pub(super) fn stale(&self, dup: &'static str, what: fmt::Arguments<'_>) {
        if !self.faulty {
            violation(what);
        }
        note(&self.counters, &self.trace, dup);
    }

    /// The transfer opened by `(src, send_req)`'s RTS reached a terminal
    /// state on this (the receiving) side: late duplicates of that RTS are
    /// from now on ignored instead of answered.
    pub(super) fn retire_rts(&mut self, src: usize, send_req: ReqId) {
        if self.faulty {
            self.matched_rts.remove(&(src, send_req));
            self.done_rts.insert((src, send_req), ());
        }
    }
}
