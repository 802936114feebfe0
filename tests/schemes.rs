//! Scheme-layer recovery tests: the one-shot RDMA rendezvous (direct and
//! NIC-offload kinds) survives lost CTS and FIN packets, pin-limit
//! registration failures, error CQEs and descriptor-fetch faults with the
//! clean run's bytes, and its control plane passes exhaustive model
//! checking. Byte identity across schemes, the staged fallback and the typed
//! rejection of a forced offload are rows of the differential generator in
//! `tests/properties.rs`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpu_nc_repro::ib_sim::{CtrlAction, CtrlPoint, DeliveryScheduler, FaultSpec};
use gpu_nc_repro::mpi_sim::{
    packet_kind, ChunkPolicy, DataScheme, Datatype, MpiConfig, MpiWorld, SchemeSel,
};
use gpu_nc_repro::simcheck::{explore, scenarios, silence_expected_panics, Schedule};
use hostmem::HostBuf;
use sim_core::instrument;

/// The layouts of the two rput payload kinds, rendezvous-sized and above
/// the `OFFLOAD_MIN_BYTES` threshold.
#[derive(Copy, Clone, Debug)]
enum Zoo {
    /// 256 KiB of plain bytes — the direct kind, one descriptor entry.
    Contig,
    /// 64 planes of 32 rows of 64 B (hvector of vector) — 64 entries.
    Strided2d,
}

/// Build the zoo datatype: `(type, count, buffer bytes, payload bytes)`.
fn zoo_type(z: Zoo) -> (Datatype, usize, usize, usize) {
    match z {
        Zoo::Contig => (Datatype::byte(), 256 << 10, 256 << 10, 256 << 10),
        Zoo::Strided2d => {
            let row = Datatype::vector(32, 16, 32, &Datatype::float());
            (Datatype::hvector(64, 1, 8192, &row), 1, 520192, 128 << 10)
        }
    }
}

#[test]
fn desc_fetch_faults_retry_and_deliver_intact() {
    // Seeded descriptor-fetch fault campaign: every offload post may fail
    // its descriptor fetch (error CQE after the walk); the sender must
    // re-post the scatter/gather write and the delivered bytes must be
    // identical to a fault-free run — only the retry counters differ.
    let campaign = |faults: Option<FaultSpec>| -> Vec<Vec<u8>> {
        let cfg = MpiConfig {
            scheme: SchemeSel::Force(DataScheme::NicOffload),
            ..MpiConfig::default()
        };
        let mut world = MpiWorld::new(2).with_config(cfg);
        if let Some(spec) = faults {
            world = world.with_faults(spec);
        }
        let out = world.try_run(|comm| {
            let (t, count, bufsize, _) = zoo_type(Zoo::Strided2d);
            t.commit();
            let mut got = Vec::new();
            for tag in 0..8u32 {
                if comm.rank() == 0 {
                    let fill = tag as usize;
                    let buf =
                        HostBuf::from_vec((0..bufsize).map(|i| ((i + fill) % 251) as u8).collect());
                    comm.send(buf.base(), count, &t, 1, tag);
                } else {
                    let buf = HostBuf::alloc(bufsize);
                    comm.recv(buf.base(), count, &t, 0, tag);
                    got.push(buf.read(0, bufsize));
                }
            }
            got
        });
        out.unwrap().1.swap_remove(1)
    };
    let clean = campaign(None);
    let before = instrument::global().snapshot();
    let faulty = campaign(Some(FaultSpec {
        desc_fetch_error: 0.4,
        ..FaultSpec::seeded(11)
    }));
    assert_eq!(clean.len(), 8);
    for (i, (c, f)) in clean.iter().zip(&faulty).enumerate() {
        assert_eq!(c, f, "message {i}: faults corrupted the payload");
    }
    let delta = instrument::global().delta(&before);
    assert!(
        delta.get("fault.desc_fetch").copied().unwrap_or(0) > 0,
        "40% descriptor-fetch errors over 8 offload posts never fired: {delta:?}"
    );
    assert!(
        delta.get("retry.offload_sg").copied().unwrap_or(0) > 0,
        "a failed descriptor fetch must surface as an offload re-post: {delta:?}"
    );
}

#[test]
fn offload_rendezvous_passes_exhaustively() {
    // Model-check the offload rendezvous control plane: every drop/delay
    // schedule of CTS-offload / FIN-offload must recover and deliver the
    // strided payload intact — for one transfer, and for two into one
    // receiver, where a stale packet of one meets the other's live request.
    silence_expected_panics();
    for scenario in [scenarios::offload_2rank(), scenarios::offload_3rank()] {
        let v = explore(&scenario);
        let name = v.scenario;
        assert!(
            !v.stats.truncated,
            "{name}: exploration hit the schedule cap — not exhaustive"
        );
        if let Some(c) = &v.counterexample {
            panic!(
                "{name} violated under schedule {} (from {}): {}",
                c.schedule, c.original, c.message
            );
        }
        assert!(
            v.stats.schedules > 1,
            "{name}: the offload rendezvous must expose retry branches to explore"
        );
    }
}

#[test]
fn offload_scenario_fifo_run_is_clean_and_deterministic() {
    silence_expected_panics();
    let scenario = scenarios::offload_2rank();
    let a = scenario.run_once(&Schedule::empty());
    let b = scenario.run_once(&Schedule::empty());
    assert_eq!(a.end, b.end, "FIFO replay diverged in virtual time");
    assert!(a.end.is_ok(), "FIFO run failed: {:?}", a.end);
    assert!(a.reports.is_empty(), "FIFO run produced sanitizer reports");
    assert!(
        !a.log.is_empty(),
        "the offload rendezvous recorded no decision points"
    );
}

/// Drops the first wire control packet labelled `kind` and delivers every
/// other packet FIFO: one loss at a chosen protocol step, deterministically.
struct DropFirst {
    kind: &'static str,
    armed: AtomicBool,
}

impl DeliveryScheduler for DropFirst {
    fn on_ctrl(&self, p: &CtrlPoint<'_>) -> CtrlAction {
        let hit = !p.shm && packet_kind(p.payload) == Some(self.kind);
        if hit && self.armed.swap(false, Ordering::SeqCst) {
            CtrlAction::Drop
        } else {
            CtrlAction::Deliver
        }
    }
}

/// One payload kind of the rput rendezvous: the layout and scheme policy
/// that select it, and the kind-specific names its recovery is recorded
/// under.
struct RputKind {
    zoo: Zoo,
    scheme: SchemeSel,
    cts: &'static str,
    fin: &'static str,
    retry_cts: &'static str,
    retry_fin: &'static str,
    abort: &'static str,
    to_staged: &'static str,
    retry_write: &'static str,
}

/// One row of the fault matrix: what is injected and which of the kind's
/// counters the recovery must leave behind.
struct FaultCase {
    name: &'static str,
    spec: FaultSpec,
    /// Control packet label whose first instance is dropped.
    drop: Option<&'static str>,
    /// Extra bytes in the sender's buffer (the receiver's is the layout's
    /// size), so a pin limit can refuse the sender's registration alone.
    sender_pad: usize,
    messages: u32,
    expect: Vec<&'static str>,
}

/// Run `c.messages` rank-0 → rank-1 transfers of `k`'s layout under
/// `c`'s faults; returns every received buffer and both ranks' own
/// counters (summed), read behind a barrier so recovery has settled.
fn rput_run(k: &RputKind, c: &FaultCase) -> (Vec<Vec<u8>>, BTreeMap<&'static str, u64>) {
    let cfg = MpiConfig {
        scheme: k.scheme,
        policy: ChunkPolicy::Fixed,
        pool_vbufs: 4,
        window_slots: 2,
        ..MpiConfig::default()
    };
    let mut world = MpiWorld::new(2)
        .with_config(cfg)
        .with_faults(c.spec.clone());
    if let Some(kind) = c.drop {
        world = world.with_scheduler(Arc::new(DropFirst {
            kind,
            armed: AtomicBool::new(true),
        }));
    }
    let (zoo, sender_pad, messages) = (k.zoo, c.sender_pad, c.messages);
    let out = world.try_run(move |comm| {
        let (t, count, bufsize, payload) = zoo_type(zoo);
        t.commit();
        let mut got = Vec::new();
        for tag in 0..messages {
            if comm.rank() == 0 {
                let fill = |i| ((i + tag as usize) % 251) as u8;
                let buf = HostBuf::from_vec((0..bufsize + sender_pad).map(fill).collect());
                comm.send(buf.base(), count, &t, 1, tag);
            } else {
                let buf = HostBuf::alloc(bufsize);
                let st = comm.recv(buf.base(), count, &t, 0, tag);
                assert_eq!(st.bytes, payload);
                got.push(buf.read(0, bufsize));
            }
        }
        comm.barrier();
        (got, comm.counters().snapshot())
    });
    let mut summed = BTreeMap::new();
    let mut ranks = out.unwrap().1;
    for (name, n) in ranks.iter().flat_map(|(_, counters)| counters) {
        *summed.entry(*name).or_insert(0) += n;
    }
    (ranks.swap_remove(1).0, summed)
}

#[test]
fn rput_fault_matrix_recovers_identically_for_both_kinds() {
    // The same four faults against both payload kinds of the one-shot RDMA
    // rendezvous: the recovery is one piece of code, so each must deliver
    // the clean run's bytes and leave the kind's own counters behind.
    let kinds = [
        RputKind {
            zoo: Zoo::Contig,
            scheme: SchemeSel::default(),
            cts: "CtsDirect",
            fin: "FinDirect",
            retry_cts: "retry.cts_direct",
            retry_fin: "retry.fin_direct",
            abort: "fallback.direct_abort",
            to_staged: "fallback.direct_to_staged",
            retry_write: "retry.rdma_direct",
        },
        RputKind {
            zoo: Zoo::Strided2d,
            scheme: SchemeSel::Force(DataScheme::NicOffload),
            cts: "CtsOffload",
            fin: "FinOffload",
            retry_cts: "retry.cts_offload",
            retry_fin: "retry.fin_offload",
            abort: "fallback.offload_abort",
            to_staged: "fallback.offload_to_staged",
            retry_write: "retry.offload_sg",
        },
    ];
    for k in &kinds {
        let quiet = FaultSpec::seeded(3); // timers armed, nothing injected
        let case = |name, spec, drop, sender_pad, messages, expect: &[&'static str]| FaultCase {
            name,
            spec,
            drop,
            sender_pad,
            messages,
            expect: expect.to_vec(),
        };
        let (clean, idle) = rput_run(k, &case("clean", quiet.clone(), None, 0, 8, &[]));
        let recovered = idle.iter().any(|(name, n)| {
            *n > 0
                && ["retry.", "dup.", "fallback."]
                    .iter()
                    .any(|p| name.starts_with(p))
        });
        assert!(!recovered, "{:?}: clean run recovered: {idle:?}", k.zoo);
        // Vbuf pools pin 4 x 64 KiB per rank; the limit then admits the
        // receiver's user buffer but not the sender's padded one.
        let pin = FaultSpec {
            pin_limit_bytes: Some((256 << 10) + zoo_type(k.zoo).2 + (64 << 10)),
            ..quiet.clone()
        };
        let cqe = FaultSpec {
            rdma_error: 0.4,
            desc_fetch_error: 0.4,
            ..quiet.clone()
        };
        let cases = [
            case("lost CTS", quiet.clone(), Some(k.cts), 0, 1, &[k.retry_cts]),
            case(
                "lost FIN",
                quiet,
                Some(k.fin),
                0,
                1,
                &[k.retry_cts, k.retry_fin],
            ),
            case(
                "sender pin limit",
                pin,
                None,
                1 << 20,
                1,
                &[k.abort, k.to_staged],
            ),
            case("error CQE", cqe, None, 0, 8, &[k.retry_write]),
        ];
        for c in &cases {
            let (bytes, counters) = rput_run(k, c);
            assert_eq!(bytes.len(), c.messages as usize);
            for (i, b) in bytes.iter().enumerate() {
                assert!(
                    b == &clean[i],
                    "{:?}/{}: message {i} corrupted",
                    k.zoo,
                    c.name
                );
            }
            for name in &c.expect {
                assert!(
                    counters.get(name).copied().unwrap_or(0) > 0,
                    "{:?}/{}: no {name} recorded: {counters:?}",
                    k.zoo,
                    c.name
                );
            }
        }
    }
}
