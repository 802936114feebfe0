//! The one-shot RDMA rendezvous ("rput"): RTS → CTS carrying the
//! receiver's registered user buffer → **one** RDMA post → FIN.
//!
//! ```text
//!   sender                                   receiver
//!     │ ── RTS (direct, wire) ─────────────────────▶ │  match, register user buffer
//!     │ ◀── CTS-rput {key, total, place} ─────────── │  Rput (watchdog re-sends the CTS)
//!     │  register user buffer, post()                │
//!     │ ══ one RDMA write / scatter-gather walk ═══▶ │
//!     │ ── FIN-rput ───────────────────────────────▶ │  Done
//! ```
//!
//! The two payload kinds ([`RputKind`]) share every line of this file but
//! [`RputWrite::post`]: *direct* places `total` contiguous bytes at an
//! offset of the receiver's region with a plain write; *offload* hands the
//! HCA a gather list over the local buffer and the receiver's scatter list
//! (from the CTS) and lets it walk both. Which strings an event is
//! recorded under — counter, trace instant, `RetriesExhausted::op`,
//! sanitizer text — is the kind's row of [`Names`].
//!
//! Recovery (fault-injecting fabrics only), once for both kinds:
//!
//! | lost / failed          | who notices                  | action                                    |
//! |------------------------|------------------------------|-------------------------------------------|
//! | CTS-rput               | sender's RTS timer → dup RTS; receiver's watchdog | re-send the same CTS (`retry.cts_*`) |
//! | FIN-rput               | receiver's watchdog → CTS at a finished sender    | re-send the FIN (`retry.fin_*`)      |
//! | RDMA post (error CQE)  | sender polls the CQE         | re-post from the user buffer (`retry.rdma_direct` / `retry.offload_sg`) |
//! | registration, receiver | `rput_grant`                 | grant a staged window instead (`fallback.*_to_staged`) |
//! | registration, sender   | `rput_on_cts`                | RPUT-ABORT (`fallback.*_abort`); receiver falls back to staged |
//! | RPUT-ABORT             | dup RTS no longer advertises the kind; a repeated CTS | receiver falls back; sender repeats the abort (`retry.*_abort`) |

use std::collections::HashMap;

use hostmem::{HostBuf, HostPtr};
use ib_sim::{MrKey, Nic, SgEntry};
use sim_core::{CallCounters, Completion};

use super::reliability::{violation, RetryTimer, SendRecord, MAX_RETRIES};
use super::{note, Engine, ProtoTrace, RecvPhase, RecvState, SendPhase, SendState};
use crate::proto::{CtsRput, MpiError, MpiPacket, ReqId, RputKind, RputPlace, Rts};

/// Registrations the per-rank cache keeps before evicting the least
/// recently used idle one.
const REG_CACHE_ENTRIES: usize = 1024;

/// The observable strings of one payload kind.
pub(super) struct Names {
    /// The kind as sanitizer messages spell it.
    label: &'static str,
    /// Trace instant of the first CTS, and the `op` of an exhausted CTS
    /// watchdog.
    cts: &'static str,
    retry_cts: &'static str,
    retry_fin: &'static str,
    pub(super) dup_fin: &'static str,
    /// `op` of an exhausted RDMA re-post budget.
    rdma: &'static str,
    retry_rdma: &'static str,
    /// Sender could not register: first abort, its repetition, and a
    /// receiver that already fell back.
    abort: &'static str,
    retry_abort: &'static str,
    pub(super) dup_abort: &'static str,
    /// Receiver gave the rput up for a staged window.
    to_staged: &'static str,
}

impl RputKind {
    pub(super) fn names(self) -> &'static Names {
        match self {
            RputKind::Direct => &Names {
                label: "direct",
                cts: "cts_direct",
                retry_cts: "retry.cts_direct",
                retry_fin: "retry.fin_direct",
                dup_fin: "dup.fin_direct",
                rdma: "rdma_direct",
                retry_rdma: "retry.rdma_direct",
                abort: "fallback.direct_abort",
                retry_abort: "retry.direct_abort",
                dup_abort: "dup.direct_abort",
                to_staged: "fallback.direct_to_staged",
            },
            RputKind::Offload => &Names {
                label: "offload",
                cts: "cts_offload",
                retry_cts: "retry.cts_offload",
                retry_fin: "retry.fin_offload",
                dup_fin: "dup.fin_offload",
                rdma: "offload_sg",
                retry_rdma: "retry.offload_sg",
                abort: "fallback.offload_abort",
                retry_abort: "retry.offload_abort",
                dup_abort: "dup.offload_abort",
                to_staged: "fallback.offload_to_staged",
            },
        }
    }
}

/// Everything one post needs, kept so a failed post can be repeated.
struct RputWrite {
    /// The receiver's registered region and where the bytes land in it.
    peer_key: MrKey,
    place: RputPlace,
    /// Base of the local user buffer (the start of the contiguous run for
    /// the direct kind).
    ptr: HostPtr,
    /// Local gather list (offload kind; empty for direct).
    gather: Vec<SgEntry>,
}

impl RputWrite {
    /// Post the transfer — the only place a one-shot write is issued, for
    /// the first attempt and for every re-post after an error CQE.
    fn post(&self, nic: &Nic, dst: usize, total: usize) -> Completion {
        match &self.place {
            RputPlace::Direct { offset } => {
                nic.write(dst, self.peer_key, *offset, &self.ptr, total)
            }
            // The HCA walks descriptors; `SchemeSelector::resolve` keeps
            // co-located peers off this kind.
            RputPlace::Offload { scatter } => {
                nic.rdma_write_sg(dst, self.peer_key, &self.ptr, &self.gather, scatter)
            }
        }
    }
}

/// Sender side: the post is in flight. The user-buffer registration is
/// held (and released) through the reg cache, keyed by the buffer id.
pub(super) struct RputSend {
    wr: RputWrite,
    pub(super) rdma: Completion,
    recv_req: ReqId,
    /// On a reliable fabric the FIN departs right behind the write (same
    /// engine, ordered); under faults it waits for the CQE so a failed
    /// write is never announced.
    fin_sent: bool,
    attempts: u32,
}

impl RputSend {
    pub(super) fn buf_id(&self) -> u64 {
        self.wr.ptr.buf().id()
    }
}

/// Receiver side: the CTS is out; waiting for the sender's FIN (or an
/// abort back to the staged path).
pub(super) struct RputRecv {
    pub(super) rts: Rts,
    my_key: MrKey,
    /// What the CTS granted (kept to re-send the very same CTS).
    pub(super) place: RputPlace,
    /// The registered user buffer, for the reg-cache release.
    pub(super) buf_id: u64,
    pub(super) timer: Option<RetryTimer>,
}

impl RputRecv {
    fn cts(&self, recv_req: ReqId) -> Box<MpiPacket> {
        Box::new(MpiPacket::CtsRput(CtsRput {
            send_req: self.rts.send_req,
            recv_req,
            key: self.my_key,
            total: self.rts.total,
            place: self.place.clone(),
        }))
    }
}

impl Engine {
    /// Receiver: engage the rput path for a just-matched RTS — register
    /// the user buffer (through the cache) and hand its key over. `None`
    /// when registration hits a fault-injected pin limit; the caller then
    /// grants a staged window instead.
    pub(super) fn rput_grant(
        &mut self,
        recv_id: ReqId,
        st: &RecvState,
        rts: Rts,
        kind: RputKind,
    ) -> Option<RecvPhase> {
        let n = kind.names();
        let (buf, place) = match kind {
            RputKind::Direct => {
                let ptr = st.offer.direct.as_ref().expect("direct without a ptr");
                let offset = ptr.offset();
                (ptr.buf().clone(), RputPlace::Direct { offset })
            }
            RputKind::Offload => {
                let (ptr, desc) = (st.offer.wire.as_ref()).expect("offload without a descriptor");
                // The received message may be shorter than the posted
                // receive: clip the scatter walk to its packed prefix.
                let scatter = desc.prefix(rts.total).to_sg(ptr.offset());
                (ptr.buf().clone(), RputPlace::Offload { scatter })
            }
        };
        let Ok(my_key) = self
            .reg_cache
            .acquire(&self.nic, &self.counters, &self.trace, &buf)
        else {
            note(&self.counters, &self.trace, n.to_staged);
            return None;
        };
        let w = RputRecv {
            rts,
            my_key,
            place,
            buf_id: buf.id(),
            timer: self.retry_timer(),
        };
        self.trace.proto.instant_now(n.cts);
        self.nic.send_ctrl(rts.env.src, w.cts(recv_id));
        Some(RecvPhase::Rput(w))
    }

    /// Receiver: a duplicate RTS arrived while waiting for the FIN, so the
    /// CTS was evidently lost. Re-send it — unless the sender stopped
    /// advertising this kind (its registration failed and its abort was
    /// lost too), in which case fall back to staged ourselves.
    pub(super) fn rput_resend_cts(
        &mut self,
        recv_id: ReqId,
        st: &mut RecvState,
        w: RputRecv,
        dup: &Rts,
    ) -> RecvPhase {
        let kind = w.place.kind();
        let still_offered = match kind {
            RputKind::Direct => dup.direct,
            RputKind::Offload => dup.wire.is_some(),
        };
        if !still_offered {
            return self.rput_to_staged(recv_id, st, w);
        }
        note(&self.counters, &self.trace, kind.names().retry_cts);
        self.nic.send_ctrl(w.rts.env.src, w.cts(recv_id));
        RecvPhase::Rput(w)
    }

    /// Receiver: the rput is abandoned (the sender could not register) —
    /// release our registration and grant a staged window instead.
    pub(super) fn rput_to_staged(
        &mut self,
        recv_id: ReqId,
        st: &mut RecvState,
        w: RputRecv,
    ) -> RecvPhase {
        self.reg_cache.release(w.buf_id);
        note(
            &self.counters,
            &self.trace,
            w.place.kind().names().to_staged,
        );
        self.start_staged_recv(recv_id, st, w.rts)
    }

    /// Sender: the receiver's buffer is registered and waiting. Register
    /// ours and post — or abort the rput when registration fails.
    pub(super) fn rput_on_cts(
        &mut self,
        st: &mut SendState,
        mut timer: Option<RetryTimer>,
        cts: CtsRput,
    ) -> SendPhase {
        let (kind, recv_req) = (cts.place.kind(), cts.recv_req);
        let n = kind.names();
        if cts.total != st.total {
            violation(format_args!(
                "{} CTS grants {} bytes for a {}-byte send",
                n.label, cts.total, st.total
            ));
        }
        // A registration that failed before is not retried: the abort was
        // evidently lost, repeat it.
        if !st.rput_failed {
            let (ptr, gather) = match kind {
                RputKind::Direct => (
                    (st.offer.direct.clone()).expect("direct CTS for a non-contiguous send"),
                    Vec::new(),
                ),
                RputKind::Offload => {
                    let wire = st.offer.wire.as_ref();
                    let (ptr, desc) = wire.expect("offload CTS never advertised");
                    (ptr.clone(), desc.to_sg(ptr.offset()))
                }
            };
            if self
                .reg_cache
                .acquire(&self.nic, &self.counters, &self.trace, ptr.buf())
                .is_ok()
            {
                let wr = RputWrite {
                    peer_key: cts.key,
                    place: cts.place,
                    ptr,
                    gather,
                };
                let rdma = wr.post(&self.nic, st.dst, st.total);
                let fin_sent = !self.faulty;
                if fin_sent {
                    self.nic
                        .send_ctrl(st.dst, Box::new(MpiPacket::FinRput { kind, recv_req }));
                }
                return SendPhase::Rput(RputSend {
                    wr,
                    rdma,
                    recv_req,
                    fin_sent,
                    attempts: 1,
                });
            }
        }
        // Pin limit: abandon the rput; the receiver falls back to granting
        // a staged window, and RTS retransmits stop advertising the kind.
        let name = if st.rput_failed {
            n.retry_abort
        } else {
            n.abort
        };
        note(&self.counters, &self.trace, name);
        st.rput_failed = true;
        if let Some(t) = &mut timer {
            t.feed();
        }
        self.nic
            .send_ctrl(st.dst, Box::new(MpiPacket::RputAbort { kind, recv_req }));
        SendPhase::WaitCts { timer }
    }

    /// Sender, finished: a repeated CTS says the receiver missed the FIN —
    /// announce it again.
    pub(super) fn rput_refin(&self, dst: usize, kind: RputKind, recv_req: ReqId) {
        note(&self.counters, &self.trace, kind.names().retry_fin);
        self.nic
            .send_ctrl(dst, Box::new(MpiPacket::FinRput { kind, recv_req }));
    }

    /// Receiver: the sender's post has completed — the bytes are in place.
    pub(super) fn rput_on_fin(&mut self, w: RputRecv) -> RecvPhase {
        let done = self.complete_recv(&w.rts);
        // The registration stays cached but becomes evictable.
        self.reg_cache.release(w.buf_id);
        done
    }

    /// Sender: poll the post's CQE — re-post on an error, announce and
    /// complete on success.
    pub(super) fn rput_advance_send(
        &mut self,
        id: ReqId,
        st: &SendState,
        mut r: RputSend,
    ) -> SendPhase {
        if !r.rdma.poll() {
            return SendPhase::Rput(r);
        }
        let kind = r.wr.place.kind();
        let n = kind.names();
        if r.rdma.is_error() {
            // (A failed descriptor fetch surfaces as an error CQE too.)
            if r.attempts > MAX_RETRIES {
                let e = MpiError::RetriesExhausted {
                    op: n.rdma,
                    peer: st.dst,
                    attempts: r.attempts,
                };
                return self.fail_send(SendPhase::Rput(r), e);
            }
            r.attempts += 1;
            note(&self.counters, &self.trace, n.retry_rdma);
            r.rdma = r.wr.post(&self.nic, st.dst, st.total);
            return SendPhase::Rput(r);
        }
        let lane = match kind {
            RputKind::Direct => self.scheme.wire_label(st.dst),
            RputKind::Offload => "offload",
        };
        self.trace.rdma.comp_span(lane, None, &r.rdma);
        if !r.fin_sent {
            let recv_req = r.recv_req;
            self.nic
                .send_ctrl(st.dst, Box::new(MpiPacket::FinRput { kind, recv_req }));
        }
        self.reg_cache.release(r.buf_id());
        if self.faulty {
            self.replay
                .sends
                .insert(id, SendRecord::Rput { dst: st.dst });
        }
        SendPhase::Done
    }

    /// Receiver watchdog (faulty fabrics only): the CTS or the FIN was
    /// lost — re-offer our buffer; a completed sender re-FINs.
    pub(super) fn rput_watchdog(&mut self, id: ReqId, mut w: RputRecv) -> RecvPhase {
        let Some(t) = &mut w.timer else {
            return RecvPhase::Rput(w);
        };
        let (n, peer) = (w.place.kind().names(), w.rts.env.src);
        match t.fire(n.cts, peer) {
            Ok(false) => {}
            Ok(true) => {
                note(&self.counters, &self.trace, n.retry_cts);
                self.nic.send_ctrl(peer, w.cts(id));
            }
            Err(e) => return self.fail_recv(RecvPhase::Rput(w), e),
        }
        RecvPhase::Rput(w)
    }
}

/// Bounded registration cache for rendezvous user buffers (MVAPICH2's
/// reg-cache): repeated rendezvous on the same buffer skip the
/// registration cost. Unlike an unbounded cache, entries are evicted LRU
/// (and deregistered) once `cap` is exceeded, so dropped user buffers do
/// not stay pinned forever. Entries backing an in-flight transfer are
/// never evicted.
struct RegEntry {
    key: MrKey,
    last_used: u64,
    in_use: u32,
}

pub(super) struct RegCache {
    cap: usize,
    tick: u64,
    entries: HashMap<u64, RegEntry>,
}

impl RegCache {
    pub(super) fn new() -> Self {
        RegCache {
            cap: REG_CACHE_ENTRIES,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Look up (or register) `buf` and mark it in use by a transfer. Fails
    /// only when the fabric's fault layer enforces a pin limit.
    fn acquire(
        &mut self,
        nic: &Nic,
        counters: &CallCounters,
        trace: &ProtoTrace,
        buf: &HostBuf,
    ) -> Result<MrKey, ib_sim::RegError> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&buf.id()) {
            e.last_used = self.tick;
            e.in_use += 1;
            note(counters, trace, "reg_cache.hit");
            return Ok(e.key);
        }
        note(counters, trace, "reg_cache.miss");
        // Make room: evict idle entries, least recently used first. If every
        // entry backs an in-flight transfer the cache overflows temporarily.
        while self.entries.len() >= self.cap {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.in_use == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            let e = self.entries.remove(&id).expect("victim just found");
            nic.deregister(e.key);
            note(counters, trace, "reg_cache.evict");
        }
        let key = nic.try_register(buf)?;
        self.entries.insert(
            buf.id(),
            RegEntry {
                key,
                last_used: self.tick,
                in_use: 1,
            },
        );
        Ok(key)
    }

    /// The transfer that acquired `buf_id` finished: the entry stays cached
    /// but becomes evictable.
    pub(super) fn release(&mut self, buf_id: u64) {
        if let Some(e) = self.entries.get_mut(&buf_id) {
            e.in_use = e.in_use.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use ib_sim::{Fabric, NetModel};

    use super::*;

    #[test]
    fn reg_cache_is_bounded_and_evicts_lru() {
        // A 2-entry cache: a third idle buffer evicts the least recently
        // used idle entry and deregisters it; entries backing a transfer
        // are never evicted, so the cache overflows instead.
        let nic = Fabric::new(1, NetModel::qdr()).nic(0);
        let counters = CallCounters::new();
        let trace = ProtoTrace::new(&sim_trace::Recorder::off(), "rank0");
        let mut cache = RegCache {
            cap: 2,
            ..RegCache::new()
        };
        let bufs: Vec<HostBuf> = (0..3).map(|_| HostBuf::alloc(4096)).collect();
        let mut use_once = |b: &HostBuf| {
            let key = cache.acquire(&nic, &counters, &trace, b);
            cache.release(b.id());
            key.expect("no pin limit on a reliable fabric")
        };
        let a = use_once(&bufs[0]);
        use_once(&bufs[1]);
        assert_eq!(use_once(&bufs[0]), a, "a cached buffer keeps its key");
        use_once(&bufs[2]); // evicts bufs[1], the least recently used
        assert_eq!(counters.get("reg_cache.miss"), 3);
        assert_eq!(counters.get("reg_cache.hit"), 1);
        assert_eq!(counters.get("reg_cache.evict"), 1);
        let cached = |c: &RegCache, b: &HostBuf| c.entries.contains_key(&b.id());
        assert!(cached(&cache, &bufs[0]) && cached(&cache, &bufs[2]));
        assert!(
            !cached(&cache, &bufs[1]),
            "the LRU entry was not the victim"
        );
        assert_eq!(
            nic.pinned_bytes(),
            2 * 4096,
            "the victim was not deregistered"
        );
        // Three buffers held at once: the third finds no idle entry to
        // evict and overflows the cache instead.
        for b in &bufs {
            cache.acquire(&nic, &counters, &trace, b).unwrap();
        }
        assert_eq!(cache.entries.len(), 3);
        assert_eq!(counters.get("reg_cache.evict"), 2);
    }
}
