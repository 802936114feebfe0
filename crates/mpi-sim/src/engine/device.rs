//! The device rendezvous (D2D): both buffers live on the *same physical
//! GPU* — the ranks share a node and its device. The sender packs into a
//! device tbuf and the receiver scatters straight from it: no host
//! staging, no vbufs, no HCA.
//!
//! RTS (advertising the sender's GPU) → CTS-dev → FIN-dev naming the packed tbuf
//! → scatter → CREDIT-dev freeing it. All control travels the intra-node
//! shm channel, which never drops or reorders, so this unit has no retry
//! timers and protocol violations stay hard panics even on
//! fault-injecting fabrics.

use sim_core::{san, Completion};

use super::reliability::violation;
use super::{Engine, RecvPhase, SendPhase};
use crate::proto::{MpiPacket, ReqId, Rts, SeededBug};

impl Engine {
    /// Receiver: answer a matched RTS whose source sits on our GPU.
    pub(super) fn dev_grant(&mut self, recv_id: ReqId, rts: Rts) {
        let st = self.recvs.get_mut(&recv_id).expect("recv state missing");
        st.phase = RecvPhase::DevWait { rts };
        self.trace.proto.instant_now("cts_dev");
        self.nic.send_ctrl(
            rts.env.src,
            Box::new(MpiPacket::CtsDev {
                send_req: rts.send_req,
                recv_req: recv_id,
            }),
        );
    }

    /// Sender: pack into a device tbuf and announce it.
    pub(super) fn dev_on_cts(&mut self, send_req: ReqId, recv_req: ReqId) {
        let Some(st) = self.sends.get_mut(&send_req) else {
            violation(format_args!(
                "device CTS for unknown send request #{send_req}"
            ));
        };
        if !matches!(st.phase, SendPhase::WaitCts { .. }) {
            violation(format_args!(
                "device CTS for send request #{send_req} that is not awaiting CTS"
            ));
        }
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
            Box::new(MpiPacket::FinDev {
                recv_req,
                ptr,
                total: st.total,
                ready: pack.clone(),
            }),
        );
        st.phase = SendPhase::DevWaitCredit { pack };
    }

    /// Receiver: the packed bytes sit at `ptr` on the shared GPU — start
    /// scattering from there, ordered after the pack (`ready`).
    pub(super) fn dev_on_fin(
        &mut self,
        recv_req: ReqId,
        ptr: gpu_sim::DevPtr,
        total: usize,
        ready: Completion,
    ) {
        let Some(st) = self.recvs.get_mut(&recv_req) else {
            violation(format_args!(
                "device FIN for unknown receive request #{recv_req}"
            ));
        };
        let RecvPhase::DevWait { rts } = st.phase else {
            violation(format_args!(
                "device FIN for receive request #{recv_req} that is not in the device \
                 rendezvous phase (protocol state machine violation)"
            ));
        };
        assert_eq!(total, rts.total, "device FIN announces a different size");
        let comp = st
            .sink
            .absorb_device(ptr, total, &ready)
            .expect("device FIN for a sink without device support");
        st.phase = RecvPhase::DevAbsorb { comp, rts };
    }

    /// Sender: the receiver is done reading the tbuf.
    pub(super) fn dev_on_credit(&mut self, send_req: ReqId) {
        let Some(st) = self.sends.get_mut(&send_req) else {
            violation(format_args!(
                "device credit for unknown send request #{send_req}"
            ));
        };
        if !matches!(st.phase, SendPhase::DevWaitCredit { .. }) {
            violation(format_args!(
                "device credit for send request #{send_req} that is not awaiting one"
            ));
        }
        san::pool_put(self.dev_tbuf_id);
        st.phase = SendPhase::Done;
    }

    /// Receiver: once the scatter from the shared GPU has finished, credit
    /// the sender's tbuf and complete.
    pub(super) fn dev_advance_recv(&mut self, id: ReqId) {
        let Some(RecvPhase::DevAbsorb { comp, rts }) = self.recvs.get(&id).map(|st| &st.phase)
        else {
            return;
        };
        if !comp.poll() {
            return;
        }
        let rts = *rts;
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
        self.complete_recv(id, &rts);
    }
}
