//! The stale-packet rule, row by row: every packet kind that names a local
//! request is forged at rank 0 once naming a request that is not live (one
//! the replay memory remembers, where the row answers from it) and once
//! naming a live request in the wrong phase, on a reliable and on a
//! fault-injecting fabric.

use std::collections::BTreeMap;

use hostmem::HostBuf;
use ib_sim::FaultSpec;
use sim_core::{Completion, Report, ReportKind, SanitizerMode};

use super::reliability::SendRecord;
use super::{Engine, SrcSel, TagSel};
use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::proto::{
    ChunkPolicy, Credit, Cts, CtsRput, Fin, FinDev, MpiConfig, MpiPacket, ReqId, RputKind,
    RputPlace,
};
use crate::world::MpiWorld;

/// Rank 0's requests, in posting order: an eager send (done, unreaped), a
/// receive nothing matches, and a 64 KiB contiguous send waiting for its
/// CTS.
const EAGER: ReqId = 1;
const POSTED: ReqId = 2;
const WAITING: ReqId = 3;
/// Never posted.
const UNKNOWN: ReqId = 900;
/// Reaped, with what the replay memory keeps: an rput send, a staged send
/// (4 chunks of 4 KiB through 2 slots) and a staged receive.
const REAPED_RPUT: ReqId = 901;
const REAPED_STAGED: ReqId = 902;
const REAPED_RECV: ReqId = 903;

/// Hand the packet `forge` builds to rank 0 of a fresh two-rank world,
/// after it posted its requests (and, for the reaped ones, its replay
/// memory was forged). `Ok` holds the counters the packet moved; `Err` the
/// message of the protocol violation it was, which the sanitizer kept as a
/// report too.
fn deliver(
    faulty: bool,
    forge: impl Fn(&mut Engine) -> MpiPacket + Send + Sync + 'static,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let cfg = MpiConfig {
        chunk_size: 4096,
        policy: ChunkPolicy::Fixed,
        pool_vbufs: 2,
        window_slots: 1,
        ..MpiConfig::default()
    };
    let mut world = MpiWorld::new(2)
        .with_config(cfg)
        .with_sanitizer(SanitizerMode::Collect);
    if faulty {
        world = world.with_faults(FaultSpec::seeded(1));
    }
    let out = world.launch(
        |_, _, _| (),
        move |(), seat| {
            if seat.rank != 0 {
                return BTreeMap::new();
            }
            let comm = Comm::create_traced(seat.nic, 0, 2, seat.cfg, None, &seat.recorder);
            let mut e = comm.engine().lock();
            let byte = Datatype::byte();
            byte.commit();
            let post = |n: usize| HostBuf::alloc(n).base().into();
            assert_eq!(e.isend(post(64), 64, &byte, 1, 0, 0), EAGER);
            let (src, tag) = (SrcSel(Some(1)), TagSel(Some(9)));
            assert_eq!(e.irecv(post(64), 64, &byte, src, tag, 0), POSTED);
            assert_eq!(e.isend(post(64 << 10), 64 << 10, &byte, 1, 0, 0), WAITING);
            let staged = SendRecord::Staged {
                dst: 1,
                peer_recv_req: 7,
                chunk_size: 4096,
                nchunks: 4,
                nslots: 2,
                total: 4 * 4096,
            };
            e.replay
                .sends
                .insert(REAPED_RPUT, SendRecord::Rput { dst: 1 });
            e.replay.sends.insert(REAPED_STAGED, staged);
            e.replay.recvs.insert(REAPED_RECV, (1, 7));
            let pkt = forge(&mut e);
            let before = e.counters.snapshot();
            e.handle_packet(1, pkt);
            e.counters.delta(&before)
        },
    );
    match out.end {
        Ok(_) => {
            assert!(out.reports.is_empty(), "{:?}", out.reports);
            Ok(out.ranks.into_iter().next().expect("rank 0 returned"))
        }
        Err(msg) => {
            let reported = |r: &Report| r.kind == ReportKind::Protocol && r.message == msg;
            assert!(out.reports.iter().any(reported), "{msg}: {:?}", out.reports);
            Err(msg)
        }
    }
}

fn cts_rput(e: &mut Engine, send_req: ReqId, total: usize, place: RputPlace) -> MpiPacket {
    let key = e.nic.register(&HostBuf::alloc(64));
    MpiPacket::CtsRput(CtsRput {
        send_req,
        recv_req: 7,
        key,
        total,
        place,
    })
}

/// One row of the rule: how to forge the kind naming a request, which
/// requests to name, and what each fabric does with it.
struct Row {
    kind: &'static str,
    pkt: fn(&mut Engine, ReqId) -> MpiPacket,
    /// The request that is not live, and the live one in the wrong phase.
    reqs: [ReqId; 2],
    /// On a reliable fabric, for both requests: `None` is a violation.
    reliable: Option<&'static [(&'static str, u64)]>,
    /// On a fault-injecting fabric, per request: `None` is a violation.
    faulty: [Option<&'static [(&'static str, u64)]>; 2],
}

#[test]
fn every_stale_packet_kind_has_one_verdict_per_fabric() {
    let rows = [
        Row {
            kind: "Cts",
            pkt: |_, send_req| {
                MpiPacket::Cts(Cts {
                    send_req,
                    recv_req: 7,
                    chunk_size: 4096,
                    slots: Vec::new(),
                })
            },
            reqs: [UNKNOWN, EAGER],
            reliable: None,
            faulty: [Some(&[("dup.cts", 1)]); 2],
        },
        Row {
            kind: "CtsDirect",
            pkt: |e, id| cts_rput(e, id, 64, RputPlace::Direct { offset: 0 }),
            reqs: [REAPED_RPUT, EAGER],
            reliable: None,
            // A finished send, reaped or not, re-FINs.
            faulty: [Some(&[("dup.cts", 1), ("retry.fin_direct", 1)]); 2],
        },
        Row {
            kind: "CtsOffload",
            pkt: |e, id| {
                let place = RputPlace::Offload {
                    scatter: Vec::new(),
                };
                cts_rput(e, id, 64, place)
            },
            reqs: [REAPED_RPUT, EAGER],
            reliable: None,
            faulty: [Some(&[("dup.cts", 1), ("retry.fin_offload", 1)]); 2],
        },
        Row {
            kind: "CtsDev",
            pkt: |_, send_req| MpiPacket::CtsDev {
                send_req,
                recv_req: 7,
            },
            reqs: [UNKNOWN, EAGER],
            reliable: None,
            faulty: [None; 2],
        },
        Row {
            kind: "Credit",
            pkt: |_, send_req| {
                MpiPacket::Credit(Credit {
                    send_req,
                    slot: 0,
                    chunk_idx: 0,
                })
            },
            reqs: [UNKNOWN, EAGER],
            reliable: Some(&[]),
            faulty: [Some(&[]); 2],
        },
        Row {
            kind: "CreditDev",
            pkt: |_, send_req| MpiPacket::CreditDev { send_req },
            reqs: [UNKNOWN, EAGER],
            reliable: None,
            faulty: [None; 2],
        },
        Row {
            kind: "FinNack",
            pkt: |_, send_req| MpiPacket::FinNack {
                send_req,
                next_needed: 1,
            },
            reqs: [REAPED_STAGED, EAGER],
            reliable: None,
            // The remembered send re-FINs chunks 1 and 2, its last window.
            faulty: [Some(&[("retry.fin", 2)]), Some(&[])],
        },
        Row {
            kind: "Fin",
            pkt: |_, recv_req| {
                MpiPacket::Fin(Fin {
                    recv_req,
                    chunk_idx: 0,
                    slot: 0,
                    bytes: 64,
                })
            },
            reqs: [REAPED_RECV, POSTED],
            reliable: None,
            faulty: [
                Some(&[("dup.fin", 1), ("retry.credit", 1)]),
                Some(&[("dup.fin", 1)]),
            ],
        },
        Row {
            kind: "FinDirect",
            pkt: |_, recv_req| MpiPacket::FinRput {
                kind: RputKind::Direct,
                recv_req,
            },
            reqs: [UNKNOWN, POSTED],
            reliable: None,
            faulty: [Some(&[("dup.fin_direct", 1)]); 2],
        },
        Row {
            kind: "FinOffload",
            pkt: |_, recv_req| MpiPacket::FinRput {
                kind: RputKind::Offload,
                recv_req,
            },
            reqs: [UNKNOWN, POSTED],
            reliable: None,
            faulty: [Some(&[("dup.fin_offload", 1)]); 2],
        },
        Row {
            kind: "FinDev",
            pkt: |_, recv_req| {
                MpiPacket::FinDev(FinDev {
                    recv_req,
                    ptr: gpu_sim::Gpu::tesla_c2050(0).malloc(64),
                    total: 64,
                    ready: Completion::ready(),
                })
            },
            reqs: [UNKNOWN, POSTED],
            reliable: None,
            faulty: [None; 2],
        },
        // A repeated abort is counted on every fabric.
        Row {
            kind: "DirectAbort",
            pkt: |_, recv_req| MpiPacket::RputAbort {
                kind: RputKind::Direct,
                recv_req,
            },
            reqs: [UNKNOWN, POSTED],
            reliable: Some(&[("dup.direct_abort", 1)]),
            faulty: [Some(&[("dup.direct_abort", 1)]); 2],
        },
        Row {
            kind: "OffloadAbort",
            pkt: |_, recv_req| MpiPacket::RputAbort {
                kind: RputKind::Offload,
                recv_req,
            },
            reqs: [UNKNOWN, POSTED],
            reliable: Some(&[("dup.offload_abort", 1)]),
            faulty: [Some(&[("dup.offload_abort", 1)]); 2],
        },
    ];
    for row in &rows {
        for (i, &id) in row.reqs.iter().enumerate() {
            let pkt = row.pkt;
            for (faulty, want) in [(false, row.reliable), (true, row.faulty[i])] {
                let got = deliver(faulty, move |e| pkt(e, id));
                let fabric = if faulty { "faulty" } else { "reliable" };
                match (want, got) {
                    (None, Err(_)) => {}
                    (Some(want), Ok(got)) if got == want.iter().copied().collect() => {}
                    (want, got) => panic!(
                        "{} naming #{id} on a {fabric} fabric: want {want:?} (None: a violation), \
                         got {got:?}",
                        row.kind
                    ),
                }
            }
        }
    }
}

#[test]
fn a_cts_granting_another_size_is_a_reported_violation() {
    // A peer-supplied size that disagrees with the send's own is a
    // protocol violation with a sanitizer report, not a bare assert.
    let got = deliver(false, |e| {
        cts_rput(e, WAITING, 1, RputPlace::Direct { offset: 0 })
    });
    assert_eq!(
        got.unwrap_err(),
        "direct CTS grants 1 bytes for a 65536-byte send"
    );
}
