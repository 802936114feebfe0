//! The device rendezvous (D2D): the send buffer lives on the *physical GPU*
//! of a co-located receiver — the ranks share a node and its device. The
//! sender packs into a device tbuf (or announces its contiguous buffer) and
//! the receiver copies straight from it: a scatter into a device buffer,
//! or one D2H into a contiguous host buffer. No host staging, no vbufs, no
//! shm payload, no HCA.
//!
//! RTS (advertising the sender's GPU) → CTS-dev → FIN-dev naming the packed
//! tbuf → scatter or D2H → CREDIT-dev freeing it. All control travels the
//! intra-node shm channel, which never drops or reorders, so this unit has
//! no retry timers and a stale device packet is a hard violation even on
//! fault-injecting fabrics.

use sim_core::{san, Completion};

use super::reliability::violation;
use super::{Engine, RecvPhase, RecvState, SendPhase, SendState};
use crate::proto::{FinDev, MpiPacket, ReqId, Rts, SeededBug};

/// Sender: the FIN-dev is out, announcing the packed tbuf; waiting for the
/// receiver's credit. The pack completion is kept only as a wake-up hint —
/// ordering travels inside the FIN-dev itself.
pub(super) struct DevSend {
    pub(super) pack: Completion,
}

/// Receiver: the two steps between the CTS-dev and completion.
pub(super) enum DevRecv {
    /// CTS-dev sent, waiting for the sender's FIN-dev naming its packed
    /// device tbuf.
    Wait(Rts),
    /// Copying from the sender's tbuf on the shared GPU; the credit goes
    /// out when the copy's completion lands.
    Absorb { comp: Completion, rts: Rts },
}

impl Engine {
    /// Receiver: answer a matched RTS whose source sits on our GPU.
    pub(super) fn dev_grant(&mut self, recv_id: ReqId, rts: Rts) -> RecvPhase {
        self.trace.proto.instant_now("cts_dev");
        self.nic.send_ctrl(
            rts.env.src,
            Box::new(MpiPacket::CtsDev {
                send_req: rts.send_req,
                recv_req: recv_id,
            }),
        );
        RecvPhase::Dev(DevRecv::Wait(rts))
    }

    /// Sender: pack into a device tbuf and announce it.
    pub(super) fn dev_on_cts(&mut self, st: &mut SendState, recv_req: ReqId) -> SendPhase {
        let (ptr, pack) = st
            .source
            .stage_device()
            .expect("device CTS for a send without a device source");
        // The packed device tbuf is held until the CREDIT-dev frees it;
        // account it like a staging-pool buffer.
        san::pool_take(self.dev_tbuf_id);
        // The FIN-dev goes out immediately: the pack completion rides
        // inside it, so the receiver's unpack stream orders itself after
        // the pack (simulated CUDA IPC event).
        self.trace.proto.instant_now("fin_dev");
        self.nic.send_ctrl(
            st.dst,
            Box::new(MpiPacket::FinDev(FinDev {
                recv_req,
                ptr,
                total: st.total,
                ready: pack.clone(),
            })),
        );
        SendPhase::Dev(DevSend { pack })
    }

    /// Receiver: the packed bytes sit on the shared GPU — start copying
    /// from there into the receive, ordered after the pack.
    pub(super) fn dev_on_fin(&mut self, st: &mut RecvState, rts: Rts, fin: FinDev) -> RecvPhase {
        if fin.total != rts.total {
            violation(format_args!(
                "device FIN announces {} bytes for a {}-byte RTS",
                fin.total, rts.total
            ));
        }
        let comp = match st.sink().absorb_device(fin.ptr, fin.total, &fin.ready) {
            Some(comp) => comp,
            // A contiguous host receive on the sender's GPU: one D2H
            // straight into it.
            None => {
                let to = st.offer.direct.as_ref().zip(self.stager.as_ref());
                let d2h =
                    to.and_then(|(dst, s)| s.copy_to_host(fin.ptr, dst, fin.total, &fin.ready));
                d2h.expect("device FIN for a receive without device support")
            }
        };
        RecvPhase::Dev(DevRecv::Absorb { comp, rts })
    }

    /// Sender: the receiver is done reading the tbuf.
    pub(super) fn dev_on_credit(&mut self) -> SendPhase {
        san::pool_put(self.dev_tbuf_id);
        SendPhase::Done
    }

    /// Receiver: once the copy from the shared GPU has finished, credit
    /// the sender's tbuf and complete.
    pub(super) fn dev_advance_recv(&mut self, comp: Completion, rts: Rts) -> RecvPhase {
        if !comp.poll() {
            return RecvPhase::Dev(DevRecv::Absorb { comp, rts });
        }
        if self.cfg.seeded_bug == Some(SeededBug::DropDevCredit) && !self.seeded_bug_fired {
            // Swallow the first CREDIT-dev. The sender never learns its
            // device tbuf is free — a staging leak the sanitizer must flag
            // at exit.
            self.seeded_bug_fired = true;
        } else {
            let send_req = rts.send_req;
            self.nic
                .send_ctrl(rts.env.src, Box::new(MpiPacket::CreditDev { send_req }));
        }
        self.complete_recv(&rts)
    }
}
