//! The staged rendezvous: the paper's pipeline. RTS → CTS granting a
//! window of registered staging buffers (vbufs) → per chunk: stage (pack)
//! / RDMA write / FIN / absorb (unpack) / CREDIT. Serves every layout and
//! residency, and is where the rput rendezvous lands when a registration
//! fails.
//!
//! Recovery (fault-injecting fabrics only): FINs are deferred to their
//! chunk's successful CQE; a failed chunk write is re-issued from the
//! still-held vbuf; a stalled sender re-announces its busy slots; a
//! starved receiver nacks the first missing chunk; credits are sequenced
//! by chunk index so a duplicate can never free a slot twice.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use ib_sim::{MrKey, Nic};
use sim_core::{san, CallCounters, Completion, SimTime};

use super::reliability::{violation, RetryTimer, SendRecord, MAX_RETRIES};
use super::{note, Engine, ProtoTrace, RecvPhase, RecvState, SendPhase, SendState, Vbuf};
use crate::invariants;
use crate::proto::{
    ChunkPolicy, Credit, Cts, Fin, MpiError, MpiPacket, ReqId, Rts, SeededBug, SlotDesc,
};
use crate::tuner::TuneKey;

struct SlotState {
    desc: SlotDesc,
    free: bool,
    /// Chunk currently written into the slot. Sequences credits: a credit
    /// frees the slot only if it names this chunk, so duplicates (or stale
    /// retransmits) can never free a slot twice.
    occupant: Option<usize>,
    /// Whether the occupant's FIN has gone out. On a faulty fabric FINs are
    /// deferred to the chunk's successful CQE, and these are what a stall
    /// retransmits.
    fin_sent: bool,
}

/// One chunk whose RDMA write is in flight. The staging vbuf is held until
/// the write *succeeds* so a failed write can be re-issued from it.
pub(super) struct InflightChunk {
    pub(super) comp: Completion,
    pub(super) vbuf: Vbuf,
    chunk: usize,
    slot: usize,
    len: usize,
    attempts: u32,
}

pub(super) struct StagedSend {
    dst: usize,
    peer_recv_req: ReqId,
    total: usize,
    chunk_size: usize,
    nchunks: usize,
    slots: Vec<SlotState>,
    next_request: usize,
    next_send: usize,
    /// Chunks staged (or staging) into local vbufs, in chunk order.
    pub(super) local: VecDeque<(usize, Vbuf)>,
    /// RDMA writes in flight; the local vbuf is released at completion.
    pub(super) inflight: Vec<InflightChunk>,
    /// Stall watchdog (faulty fabrics only): re-FINs busy slots when
    /// neither a credit nor a CQE has arrived within the window.
    pub(super) timer: Option<RetryTimer>,
}

/// Bytes of chunk `c` of a `total`-byte message cut into `chunk_size`s.
pub(super) fn chunk_len(chunk_size: usize, total: usize, c: usize) -> usize {
    chunk_size.min(total - c * chunk_size)
}

pub(super) fn fin(recv_req: ReqId, chunk_idx: usize, slot: usize, bytes: usize) -> Box<MpiPacket> {
    Box::new(MpiPacket::Fin(Fin {
        recv_req,
        chunk_idx,
        slot,
        bytes,
    }))
}

fn credit(send_req: ReqId, slot: usize, chunk_idx: usize) -> Box<MpiPacket> {
    Box::new(MpiPacket::Credit(Credit {
        send_req,
        slot,
        chunk_idx,
    }))
}

/// RDMA-write one staged chunk into its granted slot — the first write and
/// every re-issue after an error CQE.
fn write_chunk(nic: &Nic, dst: usize, slot: MrKey, vbuf: &Vbuf, len: usize) -> Completion {
    nic.write(dst, slot, 0, &vbuf.buf.base(), len)
}

/// One more chunk of send `id` (of `rank`) has been announced.
fn chunk_finned(prefix: &str, rank: usize, id: ReqId) {
    san::proto_event(
        &invariants::xfer_scope(prefix, rank, id),
        "chunks_finned",
        1,
    );
}

impl StagedSend {
    /// Busy (uncredited) slots whose FIN has gone out, as `(slot, chunk)`.
    fn announced(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let busy = |(i, s): (usize, &SlotState)| match s.occupant {
            Some(c) if !s.free && s.fin_sent => Some((i, c)),
            _ => None,
        };
        self.slots.iter().enumerate().filter_map(busy)
    }

    /// Re-announce every busy slot — what a stall or a nack asks for. A
    /// dup FIN for an already-credited chunk makes the receiver re-credit,
    /// so this recovers lost FINs and lost credits alike.
    pub(super) fn refin(&self, nic: &Nic, counters: &CallCounters, trace: &ProtoTrace) {
        for (slot, c) in self.announced() {
            note(counters, trace, "retry.fin");
            let len = chunk_len(self.chunk_size, self.total, c);
            nic.send_ctrl(self.dst, fin(self.peer_recv_req, c, slot, len));
        }
    }
}

pub(super) struct StagedRecv {
    /// The RTS this receive matched: the peer, its send request and the
    /// message size.
    pub(super) rts: Rts,
    /// Chunk size of this transfer (chosen per transfer by the receiver;
    /// travels to the sender in the CTS).
    chunk_size: usize,
    nchunks: usize,
    /// When the CTS window was granted — the tuner's latency clock. The
    /// clock starts at the *grant*, not the RTS match, so CTS deferral
    /// under recv-pool back-pressure is not charged to the chunk size.
    started: SimTime,
    /// Autotuner key, when the adaptive policy is driving this transfer.
    tune_key: Option<TuneKey>,
    /// False while the CTS is deferred waiting for pool vbufs (back
    /// pressure under many concurrent staged transfers).
    pub(super) cts_sent: bool,
    /// Set the first time the CTS grant found the recv pool empty. Only
    /// consulted by [`SeededBug::DeferredCts`], which reintroduces the
    /// starvation bug where a once-deferred CTS is never re-examined.
    deferred: bool,
    pub(super) slots: Vec<Vbuf>,
    /// FINs received, keyed by chunk index: chunk -> (slot, bytes). Keyed
    /// (rather than queued) so retransmitted FINs dedup and delayed ones
    /// can arrive out of order.
    arrived: BTreeMap<usize, (usize, usize)>,
    /// Chunks handed to the sink, awaiting absorption: (chunk, slot).
    absorbing: VecDeque<(usize, usize)>,
    next_chunk: usize,
    /// Chunks credited so far (credits go out in chunk order).
    next_credit: usize,
    /// FIN watchdog (faulty fabrics only), armed at the CTS grant.
    pub(super) timer: Option<RetryTimer>,
}

impl StagedRecv {
    /// The CTS granting this receive's window (first send and re-sends:
    /// grants are never duplicated, the same window travels again).
    fn cts(&self, recv_req: ReqId) -> Box<MpiPacket> {
        let slots = self.slots.iter().map(|v| SlotDesc {
            key: v.key,
            len: v.buf.len(),
        });
        Box::new(MpiPacket::Cts(Cts {
            send_req: self.rts.send_req,
            recv_req,
            chunk_size: self.chunk_size,
            slots: slots.collect(),
        }))
    }
}

impl Engine {
    // --- receiver: window grant -------------------------------------------------

    /// Set up the staged path for a matched RTS: choose the chunk size,
    /// begin the sink and grant (or defer) the CTS window. Also the landing
    /// point of the rput-to-staged fallback.
    pub(super) fn start_staged_recv(
        &mut self,
        recv_id: ReqId,
        st: &mut RecvState,
        rts: Rts,
    ) -> RecvPhase {
        let total = rts.total;
        // The receiver picks the chunk size (it sizes the granted slots);
        // the sender learns it from the CTS.
        let (chunk_size, tune_key) = match self.cfg.policy {
            ChunkPolicy::Fixed => (self.cfg.chunk_size, None),
            ChunkPolicy::Adaptive => {
                let key = TuneKey::new(total, &st.shape);
                (self.tuner.choose(key), Some(key))
            }
        };
        if tune_key.is_some() {
            self.trace.chunk_size.gauge_now(chunk_size as i64);
        }
        let nchunks = total.div_ceil(chunk_size).max(1);
        st.sink().begin(chunk_size, total);
        let mut sr = Box::new(StagedRecv {
            rts,
            chunk_size,
            nchunks,
            started: sim_core::now(),
            tune_key,
            cts_sent: false,
            deferred: false,
            slots: Vec::new(),
            arrived: BTreeMap::new(),
            absorbing: VecDeque::new(),
            next_chunk: 0,
            next_credit: 0,
            timer: None,
        });
        san::proto_set(
            &invariants::xfer_scope(&self.prefix, rts.env.src, rts.send_req),
            "nchunks",
            nchunks as i64,
        );
        self.try_grant_cts(recv_id, &mut sr);
        RecvPhase::Staged(sr)
    }

    /// Vbufs just returned to the pool: grant any matched staged receive
    /// whose CTS was deferred on an empty pool. Without this, a receive
    /// that found the pool drained would only be re-examined by its own
    /// `staged_advance_recv` — and if nothing else is pending, the rank
    /// parks with no timer to wake it (deadlock on a clean fabric).
    pub(super) fn grant_deferred_cts(&mut self) {
        if self.recv_pool.is_empty() {
            return;
        }
        let deferred: Vec<ReqId> = self
            .recvs
            .iter()
            .filter_map(|(&id, st)| match &st.phase {
                RecvPhase::Staged(sr) if !sr.cts_sent => Some(id),
                _ => None,
            })
            .collect();
        for id in deferred {
            self.step_recv(id, |e, _, phase| match phase {
                RecvPhase::Staged(mut sr) => {
                    e.try_grant_cts(id, &mut sr);
                    RecvPhase::Staged(sr)
                }
                phase => phase,
            });
        }
    }

    /// Send the deferred/initial CTS for a staged receive once at least one
    /// pool vbuf is available.
    fn try_grant_cts(&mut self, recv_id: ReqId, sr: &mut StagedRecv) {
        if sr.cts_sent {
            return;
        }
        if self.cfg.seeded_bug == Some(SeededBug::DeferredCts) && sr.deferred {
            // Reintroduced starvation bug: a CTS that was once deferred on
            // an empty pool is never re-examined, even after vbufs return.
            return;
        }
        if self.recv_pool.is_empty() {
            sr.deferred = true;
            return;
        }
        let want = self.cfg.window_slots.min(sr.nchunks).max(1);
        let take = want.min(self.recv_pool.len());
        sr.slots = self
            .recv_pool
            .drain(self.recv_pool.len() - take..)
            .collect();
        for _ in 0..take {
            san::pool_take(self.recv_pool_id);
        }
        sr.cts_sent = true;
        // The tuner's latency window opens at the grant: deferral time
        // waiting for pool vbufs says nothing about the chunk size.
        sr.started = sim_core::now();
        sr.timer = self.retry_timer();
        self.trace.proto.instant_now("cts");
        self.nic.send_ctrl(sr.rts.env.src, sr.cts(recv_id));
    }

    /// A duplicate RTS arrived for a receive whose window is granted: the
    /// CTS was evidently lost — re-send it from the live state. (A CTS
    /// still deferred on pool back-pressure will go out with fresh slots.)
    pub(super) fn staged_resend_cts(&self, recv_id: ReqId, sr: &StagedRecv) {
        if sr.cts_sent {
            note(&self.counters, &self.trace, "retry.cts");
            self.nic.send_ctrl(sr.rts.env.src, sr.cts(recv_id));
        }
    }

    // --- packets -----------------------------------------------------------------

    /// Sender: a window was granted — start the chunk pipeline.
    pub(super) fn staged_on_cts(&mut self, st: &mut SendState, cts: Cts) -> SendPhase {
        // Armed before `begin`, which may cost virtual time (a GPU source
        // enqueues every chunk's pack there).
        let (timer, chunk_size) = (self.retry_timer(), cts.chunk_size);
        st.source.begin(chunk_size);
        let slot = |desc| SlotState {
            desc,
            free: true,
            occupant: None,
            fin_sent: false,
        };
        SendPhase::Staged(StagedSend {
            dst: st.dst,
            peer_recv_req: cts.recv_req,
            total: st.total,
            chunk_size,
            nchunks: st.total.div_ceil(chunk_size).max(1),
            slots: cts.slots.into_iter().map(slot).collect(),
            next_request: 0,
            next_send: 0,
            local: VecDeque::new(),
            inflight: Vec::new(),
            timer,
        })
    }

    /// Re-send a credit the sender is evidently still missing.
    pub(super) fn recredit(&self, peer: usize, send_req: ReqId, slot: usize, chunk_idx: usize) {
        note(&self.counters, &self.trace, "retry.credit");
        self.nic.send_ctrl(peer, credit(send_req, slot, chunk_idx));
    }

    /// Receiver: a chunk has been written into its slot.
    pub(super) fn staged_on_fin(&mut self, sr: &mut StagedRecv, fin: Fin) {
        let (chunk_idx, slot) = (fin.chunk_idx, fin.slot);
        if slot >= sr.slots.len() {
            violation(format_args!(
                "FIN names slot {slot} but only {} slot(s) were granted",
                sr.slots.len()
            ));
        }
        if chunk_idx < sr.next_chunk {
            // Already fed to the sink: a retransmitted FIN.
            note(&self.counters, &self.trace, "dup.fin");
            if chunk_idx < sr.next_credit {
                // ...and already credited, so the credit was lost.
                self.recredit(sr.rts.env.src, sr.rts.send_req, slot, chunk_idx);
            }
            return;
        }
        match sr.arrived.entry(chunk_idx) {
            Entry::Occupied(_) => note(&self.counters, &self.trace, "dup.fin"),
            Entry::Vacant(v) => {
                v.insert((slot, fin.bytes));
                if let Some(t) = &mut sr.timer {
                    t.feed();
                }
            }
        }
    }

    /// Sender: the receiver has absorbed a chunk out of its slot.
    pub(super) fn staged_on_credit(&mut self, send_req: ReqId, ss: &mut StagedSend, c: Credit) {
        let (slot, chunk_idx) = (c.slot, c.chunk_idx);
        if slot >= ss.slots.len() {
            violation(format_args!(
                "credit names slot {slot} but only {} slot(s) were granted",
                ss.slots.len()
            ));
        }
        let s = &mut ss.slots[slot];
        if !s.free && s.occupant == Some(chunk_idx) {
            s.free = true;
            san::proto_event(
                &invariants::xfer_scope(&self.prefix, self.rank, send_req),
                "credits_recv",
                1,
            );
            if let Some(t) = &mut ss.timer {
                t.feed();
            }
        } else {
            // Duplicate or stale credit. Freeing the slot here would
            // overflow flow control (the sender could overwrite data the
            // receiver has not absorbed), so it is ignored in *every*
            // sanitizer mode.
            note(&self.counters, &self.trace, "dup.credit");
            if !self.faulty {
                san::report_protocol(format!(
                    "credit for slot {slot} which is already free \
                     (flow-control overflow: duplicate credit)"
                ));
            }
        }
    }

    // --- progress ------------------------------------------------------------------

    /// Sender: drive the chunk pipeline one pass — stage and write what the
    /// window allows, reap finished writes, watch for a stall, complete.
    pub(super) fn staged_advance_send(
        &mut self,
        id: ReqId,
        st: &mut SendState,
        mut ss: StagedSend,
    ) -> SendPhase {
        self.issue_chunks(id, st, &mut ss);
        match self.reap_chunks(id, &mut ss) {
            Ok(false) => SendPhase::Staged(ss),
            Ok(true) => SendPhase::Done,
            Err(e) => self.fail_send(SendPhase::Staged(ss), e),
        }
    }

    /// Request staging of upcoming chunks while vbufs and window room are
    /// available, drive the staging, and RDMA-write ready chunks, in
    /// order, into free slots.
    fn issue_chunks(&mut self, id: ReqId, st: &mut SendState, ss: &mut StagedSend) {
        while ss.next_request < ss.nchunks && ss.local.len() + ss.inflight.len() < ss.slots.len() {
            let Some(vbuf) = self.send_pool.pop() else {
                break;
            };
            san::pool_take(self.send_pool_id);
            let i = ss.next_request;
            let len = chunk_len(ss.chunk_size, ss.total, i);
            st.source.request_chunk(i, vbuf.buf.base(), len);
            ss.local.push_back((i, vbuf));
            ss.next_request += 1;
        }
        while let Some(&(i, _)) = ss.local.front() {
            debug_assert_eq!(i, ss.next_send);
            let slot = i % ss.slots.len();
            if !st.source.chunk_ready(i) || !ss.slots[slot].free {
                break;
            }
            let (_, vbuf) = ss.local.pop_front().unwrap();
            let len = chunk_len(ss.chunk_size, ss.total, i);
            let s = &mut ss.slots[slot];
            if len > s.desc.len {
                violation(format_args!(
                    "chunk {i} of {len} bytes is larger than its granted {}-byte vbuf slot",
                    s.desc.len
                ));
            }
            s.free = false;
            s.occupant = Some(i);
            let comp = write_chunk(&self.nic, ss.dst, s.desc.key, &vbuf, len);
            // On a faulty fabric the FIN waits for the CQE: a failed write
            // must never be announced.
            s.fin_sent = !self.faulty;
            if s.fin_sent {
                self.nic
                    .send_ctrl(ss.dst, fin(ss.peer_recv_req, i, slot, len));
                chunk_finned(&self.prefix, self.rank, id);
            }
            ss.inflight.push(InflightChunk {
                comp,
                vbuf,
                chunk: i,
                slot,
                len,
                attempts: 1,
            });
            ss.next_send += 1;
            if let Some(t) = &mut ss.timer {
                t.feed();
            }
        }
    }

    /// Reap finished RDMA writes — on success announce (if deferred) and
    /// return the vbuf, on an error CQE re-issue the write from the
    /// still-held vbuf — then run the stall watchdog. `Ok(true)` once the
    /// send's last write is on the wire: the send is complete.
    fn reap_chunks(&mut self, id: ReqId, ss: &mut StagedSend) -> Result<bool, MpiError> {
        let mut i = 0;
        while i < ss.inflight.len() {
            let c = &mut ss.inflight[i];
            if !c.comp.poll() {
                i += 1;
                continue;
            }
            if c.comp.is_error() {
                if c.attempts > MAX_RETRIES {
                    return Err(MpiError::RetriesExhausted {
                        op: "chunk_rdma",
                        peer: ss.dst,
                        attempts: c.attempts,
                    });
                }
                c.attempts += 1;
                note(&self.counters, &self.trace, "retry.chunk_rdma");
                c.comp = write_chunk(&self.nic, ss.dst, ss.slots[c.slot].desc.key, &c.vbuf, c.len);
                i += 1;
                continue;
            }
            let done = ss.inflight.swap_remove(i);
            self.trace
                .rdma
                .comp_span(self.scheme.wire_label(ss.dst), Some(done.chunk), &done.comp);
            if self.faulty {
                self.nic.send_ctrl(
                    ss.dst,
                    fin(ss.peer_recv_req, done.chunk, done.slot, done.len),
                );
                ss.slots[done.slot].fin_sent = true;
                chunk_finned(&self.prefix, self.rank, id);
                if let Some(t) = &mut ss.timer {
                    t.feed();
                }
            }
            if self.cfg.seeded_bug == Some(SeededBug::LeakVbuf) && !self.seeded_bug_fired {
                // This vbuf is never returned.
                self.seeded_bug_fired = true;
                std::mem::forget(done.vbuf);
            } else {
                san::pool_put(self.send_pool_id);
                self.send_pool.push(done.vbuf);
            }
        }
        // Stall watchdog: no credit or CQE within the window — the
        // receiver may be missing a FIN, or we a credit.
        if ss.timer.as_ref().is_some_and(|t| t.expired()) {
            let idle = ss.announced().next().is_none();
            let t = ss.timer.as_mut().expect("checked above");
            if idle {
                // Stalled on local staging or an in-flight write —
                // nothing on the wire to chase.
                t.feed();
            } else if t.fire("fin", ss.dst)? {
                ss.refin(&self.nic, &self.counters, &self.trace);
            }
        }
        let complete = ss.next_send == ss.nchunks && ss.inflight.is_empty();
        if complete && self.faulty {
            let rec = SendRecord::Staged {
                dst: ss.dst,
                peer_recv_req: ss.peer_recv_req,
                chunk_size: ss.chunk_size,
                nchunks: ss.nchunks,
                nslots: ss.slots.len(),
                total: ss.total,
            };
            self.replay.sends.insert(id, rec);
        }
        Ok(complete)
    }

    /// Receiver: feed arrived chunks to the sink in order, credit what it
    /// has absorbed, complete after the last chunk; otherwise watch for
    /// missing FINs.
    pub(super) fn staged_advance_recv(
        &mut self,
        id: ReqId,
        st: &mut RecvState,
        mut sr: Box<StagedRecv>,
    ) -> RecvPhase {
        self.try_grant_cts(id, &mut sr);
        let (peer, send_req) = (sr.rts.env.src, sr.rts.send_req);
        let scope = || invariants::xfer_scope(&self.prefix, peer, send_req);
        while let Some((&chunk, &(slot, bytes))) = sr.arrived.first_key_value() {
            if chunk != sr.next_chunk {
                break; // hole: a FIN is still missing (or in flight)
            }
            sr.arrived.pop_first();
            st.sink()
                .chunk_arrived(chunk, sr.slots[slot].buf.base(), bytes);
            sr.absorbing.push_back((chunk, slot));
            sr.next_chunk += 1;
            // Two gauge updates; the monotonicity invariant tolerates the
            // one-update intermediate state (see `invariants`).
            let scope = scope();
            san::proto_set(&scope, "last_chunk", chunk as i64);
            san::proto_event(&scope, "chunks_absorbed", 1);
            if let Some(t) = &mut sr.timer {
                t.feed();
            }
        }
        // Credit slots whose data the sink has absorbed.
        while let Some(&(chunk, slot)) = sr.absorbing.front() {
            if !st.sink().chunk_absorbed(chunk) {
                break;
            }
            sr.absorbing.pop_front();
            sr.next_credit = chunk + 1;
            self.nic.send_ctrl(peer, credit(send_req, slot, chunk));
            san::proto_event(&scope(), "credits_sent", 1);
        }
        if sr.next_chunk == sr.nchunks && st.sink().finished() {
            // Report the end-to-end latency so the adaptive policy can
            // steer the next transfer of this (size, layout) class.
            if let Some(key) = sr.tune_key {
                let latency = sim_core::now() - sr.started;
                if let Some(block) = self.tuner.observe(key, sr.chunk_size, latency) {
                    note(&self.counters, &self.trace, key.settled_counter(block));
                }
            }
            // Return granted vbufs to the pool.
            for _ in 0..sr.slots.len() {
                san::pool_put(self.recv_pool_id);
            }
            self.recv_pool.append(&mut sr.slots);
            san::proto_set(&scope(), "done", 1);
            if self.faulty {
                self.replay.recvs.insert(id, (peer, send_req));
            }
            let done = self.complete_recv(&sr.rts);
            self.grant_deferred_cts();
            return done;
        }
        // FIN watchdog (armed at the CTS grant): nack the first missing
        // chunk so the sender re-announces its window.
        let Some(t) = &mut sr.timer else {
            return RecvPhase::Staged(sr);
        };
        match t.fire("fin_nack", peer) {
            Ok(false) => {}
            Ok(true) => {
                note(&self.counters, &self.trace, "retry.fin_nack");
                let nack = MpiPacket::FinNack {
                    send_req,
                    next_needed: sr.next_chunk,
                };
                self.nic.send_ctrl(peer, Box::new(nack));
            }
            Err(e) => return self.fail_recv(RecvPhase::Staged(sr), e),
        }
        RecvPhase::Staged(sr)
    }
}
