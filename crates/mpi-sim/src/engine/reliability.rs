//! The reliability layer every rendezvous unit shares: the retransmit
//! timer, the bounded replay memory, and the one stale-packet rule.
//!
//! The engine hands a unit only packets that name a live request in the
//! phase the packet belongs to. Every other packet — one naming a request
//! that is unknown, finished, or in another phase — comes to
//! [`Engine::stale`], one row per packet kind. On a fault-injecting fabric
//! such a packet is what it then almost certainly is, a late duplicate: the
//! row counts it (`dup.*`) and answers whatever the peer is evidently still
//! missing, from the live request or from the replay memory beside the
//! rule. On a reliable fabric it is a protocol [`violation`] (sanitizer
//! report + panic), and always so for the device kinds, which travel only
//! the intra-node channel that never drops or reorders. Tail credits are
//! the one kind dropped silently on every fabric.
//!
//! All of it is inert on a reliable fabric: no timer is ever armed and
//! nothing is remembered.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use sim_core::{san, SimDur, SimTime};

use super::staged::{chunk_len, fin};
use super::{note, Engine, RecvPhase, SendPhase, Unexpected};
use crate::proto::{packet_kind, CtsRput, MpiError, MpiPacket, ReqId, Rts};

/// Initial retransmit timeout: ~4x the rendezvous control round trip on
/// the QDR model — late enough to avoid spurious retransmits, early enough
/// that a lost RTS costs well under a millisecond. Doubles per retry.
const RETRY_TIMEOUT_NS: u64 = 200_000;

/// Retries per operation before the request fails with
/// [`MpiError::RetriesExhausted`] (13 attempts in all).
pub(super) const MAX_RETRIES: u32 = 12;

/// How many completed transfers each rank remembers for replay tolerance.
const REPLAY_MEMORY: usize = 1024;

/// Retransmit timer with exponential backoff. Only ever constructed on a
/// fault-injecting fabric.
pub(super) struct RetryTimer {
    /// Current timeout, ns (doubles per retransmission).
    timeout_ns: u64,
    /// Instant at which the watched operation is considered lost.
    pub(super) deadline: SimTime,
    /// Transmissions so far, including the first.
    attempts: u32,
}

impl RetryTimer {
    pub(super) fn new() -> Self {
        RetryTimer {
            timeout_ns: RETRY_TIMEOUT_NS,
            deadline: sim_core::now() + SimDur::from_nanos(RETRY_TIMEOUT_NS),
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
    pub(super) fn fire(&mut self, op: &'static str, peer: usize) -> Result<bool, MpiError> {
        if !self.expired() {
            return Ok(false);
        }
        if self.attempts > MAX_RETRIES {
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
        *self = RetryTimer::new();
    }
}

/// FIFO-bounded map holding post-completion protocol memory (what a rank
/// must remember to answer retransmits that outlive the request). Old
/// entries age out after [`REPLAY_MEMORY`]; a retransmit arriving after
/// that is ignored, which is safe because the peer's own retry budget
/// bounds how long it keeps asking.
pub(super) struct BoundedMap<K: Copy + Eq + Hash, V> {
    order: VecDeque<K>,
    map: HashMap<K, V>,
}

impl<K: Copy + Eq + Hash, V> Default for BoundedMap<K, V> {
    fn default() -> Self {
        BoundedMap {
            order: VecDeque::new(),
            map: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, V> BoundedMap<K, V> {
    pub(super) fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k, v).is_none() {
            self.order.push_back(k);
            if self.order.len() > REPLAY_MEMORY {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }
}

/// What a completed send must remember to answer retransmits.
#[derive(Copy, Clone)]
pub(super) enum SendRecord {
    Staged {
        dst: usize,
        peer_recv_req: ReqId,
        chunk_size: usize,
        nchunks: usize,
        nslots: usize,
        total: usize,
    },
    Rput {
        dst: usize,
    },
}

/// What a rank remembers about transfers past their requests' phases, to
/// answer the retransmits that outlive them (written on fault-injecting
/// fabrics only).
#[derive(Default)]
pub(super) struct Replay {
    /// Live matched RTSes, (src, send_req) -> recv_req: a duplicate RTS
    /// re-sends the response instead of matching twice.
    pub(super) matched_rts: HashMap<(usize, ReqId), ReqId>,
    /// RTSes whose transfer completed; late duplicates are ignored.
    done_rts: BoundedMap<(usize, ReqId), ()>,
    /// Completed sends, kept to answer FIN-NACKs and rput CTS retransmits.
    pub(super) sends: BoundedMap<ReqId, SendRecord>,
    /// Completed staged receives, recv_req -> (src, peer_send_req), kept to
    /// re-credit duplicate FINs after the receive was reaped.
    pub(super) recvs: BoundedMap<ReqId, (usize, ReqId)>,
}

/// The peer (or this engine) broke the protocol in a way no injected fault
/// explains — also the verdict on any oddity of the intra-node channel,
/// which never drops or reorders: report to the sanitizer, then panic.
pub(super) fn violation(what: impl fmt::Display) -> ! {
    let msg = what.to_string();
    san::report_protocol(msg.clone());
    panic!("{msg}");
}

impl Engine {
    /// A retry timer, armed now — on a fault-injecting fabric only.
    pub(super) fn retry_timer(&self) -> Option<RetryTimer> {
        self.faulty.then(RetryTimer::new)
    }

    /// Whether `rts` is a retransmit of one this rank has already seen —
    /// matched, finished or still queued unexpected (faulty fabrics only;
    /// on a reliable one every RTS is new). Such an RTS must not match, or
    /// queue, twice: it is stale.
    pub(super) fn seen_rts(&self, rts: &Rts) -> bool {
        let key = (rts.env.src, rts.send_req);
        let queued =
            |u: &Unexpected| matches!(u, Unexpected::Rts(q) if (q.env.src, q.send_req) == key);
        self.faulty
            && (self.replay.matched_rts.contains_key(&key)
                || self.replay.done_rts.get(&key).is_some()
                || self.unexpected.iter().any(queued))
    }

    /// The one stale-packet rule: `pkt` names a request that is unknown or
    /// not in the phase its kind belongs to (see the module docs).
    pub(super) fn stale(&mut self, pkt: MpiPacket) {
        let kind = packet_kind(&pkt).expect("an MPI packet");
        let what =
            |id: ReqId| format!("{kind} for request #{id}, which is unknown or in the wrong phase");
        match pkt {
            MpiPacket::Eager { .. } => unreachable!("an eager message is matched, never stale"),
            MpiPacket::Rts(dup) => {
                note(&self.counters, &self.trace, "dup.rts");
                // Still matched: its response (a CTS of some kind) was
                // evidently lost, and the receive's unit re-sends it. A
                // receive that already finished needs none.
                let Some(&recv_id) = self.replay.matched_rts.get(&(dup.env.src, dup.send_req))
                else {
                    return;
                };
                self.step_recv(recv_id, |e, st, phase| match phase {
                    RecvPhase::Rput(w) => e.rput_resend_cts(recv_id, st, w, &dup),
                    RecvPhase::Staged(sr) => {
                        e.staged_resend_cts(recv_id, &sr);
                        RecvPhase::Staged(sr)
                    }
                    phase => phase,
                });
            }
            MpiPacket::Cts(cts) => self.dup("dup.cts", what(cts.send_req)),
            MpiPacket::CtsRput(CtsRput {
                send_req,
                recv_req,
                place,
                ..
            }) => {
                self.dup("dup.cts", what(send_req));
                // A finished send, live or remembered: the receiver missed
                // the FIN, so announce it again.
                let finished = match self.sends.get(&send_req) {
                    Some(st) => matches!(st.phase, SendPhase::Done).then_some(st.dst),
                    None => match self.replay.sends.get(&send_req) {
                        Some(&SendRecord::Rput { dst }) => Some(dst),
                        _ => None,
                    },
                };
                if let Some(dst) = finished {
                    self.rput_refin(dst, place.kind(), recv_req);
                }
            }
            MpiPacket::CtsDev { send_req, .. } => violation(what(send_req)),
            // A send completes once its last RDMA write is on the wire, so
            // credits for the tail chunks may arrive after it finished or
            // was reaped. They gate nothing anymore.
            MpiPacket::Credit(_) => {}
            MpiPacket::CreditDev { send_req } => violation(what(send_req)),
            MpiPacket::FinNack {
                send_req,
                next_needed,
            } => {
                if !self.faulty {
                    violation(what(send_req));
                }
                // Re-announce the final window of a completed send: the
                // receiver's slots still hold exactly those chunks, since
                // overwriting a slot requires its occupant's credit.
                if let Some(&SendRecord::Staged {
                    dst,
                    peer_recv_req,
                    chunk_size,
                    nchunks,
                    nslots,
                    total,
                }) = self.replay.sends.get(&send_req)
                {
                    for c in next_needed..(next_needed + nslots).min(nchunks) {
                        note(&self.counters, &self.trace, "retry.fin");
                        let len = chunk_len(chunk_size, total, c);
                        self.nic
                            .send_ctrl(dst, fin(peer_recv_req, c, c % nslots, len));
                    }
                }
            }
            MpiPacket::Fin(fin) => {
                self.dup("dup.fin", what(fin.recv_req));
                // The receive finished (reaped or not): the sender is
                // chasing a lost credit — re-credit from the record.
                if let Some(&(peer, send_req)) = self.replay.recvs.get(&fin.recv_req) {
                    self.recredit(peer, send_req, fin.slot, fin.chunk_idx);
                }
            }
            MpiPacket::FinRput { kind, recv_req } => self.dup(kind.names().dup_fin, what(recv_req)),
            MpiPacket::FinDev(fin) => violation(what(fin.recv_req)),
            // The receive already fell back (a repeated abort) or finished.
            MpiPacket::RputAbort { kind, .. } => {
                note(&self.counters, &self.trace, kind.names().dup_abort)
            }
        }
    }

    /// A stale packet of a kind a lossy channel duplicates: counted as
    /// `counter` and dropped on a fault-injecting fabric, a protocol
    /// [`violation`] on a reliable one.
    fn dup(&self, counter: &'static str, what: String) {
        if !self.faulty {
            violation(what);
        }
        note(&self.counters, &self.trace, counter);
    }

    /// The transfer opened by `(src, send_req)`'s RTS reached a terminal
    /// state on this (the receiving) side: late duplicates of that RTS are
    /// from now on ignored instead of answered.
    pub(super) fn retire_rts(&mut self, src: usize, send_req: ReqId) {
        if self.faulty {
            self.replay.matched_rts.remove(&(src, send_req));
            self.replay.done_rts.insert((src, send_req), ());
        }
    }
}
