//! Scheme-layer contract tests: the NIC offload data path must be
//! invisible to the application. Every layout the HCA's descriptor walker
//! can express delivers byte-identical payloads whether the bytes move
//! through the staged pipeline, the direct R-PUT, or the scatter/gather
//! offload engine; layouts it cannot express fall back to the staged
//! pipeline without perturbing a single event; and forcing offload onto
//! such a layout surfaces a typed rejection instead of a deep-engine panic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gpu_nc_repro::ib_sim::{CtrlAction, CtrlPoint, DeliveryScheduler, FaultSpec};
use gpu_nc_repro::mpi_sim::{
    packet_kind, ChunkPolicy, ConfigError, DataScheme, Datatype, MpiConfig, MpiError, MpiWorld,
    SchemeSel,
};
use gpu_nc_repro::simcheck::{explore, scenarios, silence_expected_panics, Schedule};
use hostmem::HostBuf;
use sim_core::{instrument, SimTime};

/// The layout zoo: one datatype per [`Canonical`](gpu_nc_repro::mpi_sim::Canonical)
/// form, every payload rendezvous-sized and (for the regular shapes) above
/// the `OFFLOAD_MIN_BYTES` threshold so the Auto policy is willing to
/// offload.
#[derive(Copy, Clone, Debug)]
enum Zoo {
    /// 256 KiB of plain bytes — one descriptor entry.
    Contig,
    /// 4096 rows of 64 B every 128 B (`MPI_Type_vector`) — one entry.
    Strided1d,
    /// 64 planes of 32 rows of 64 B (hvector of vector) — 64 entries.
    Strided2d,
    /// Alternating 96/160 B blocks — no bounded descriptor exists.
    Irregular,
}

/// Build the zoo datatype: `(type, count, buffer bytes, payload bytes)`.
fn zoo_type(z: Zoo) -> (Datatype, usize, usize, usize) {
    match z {
        Zoo::Contig => (Datatype::byte(), 256 << 10, 256 << 10, 256 << 10),
        Zoo::Strided1d => (
            Datatype::vector(4096, 16, 32, &Datatype::float()),
            1,
            524288,
            256 << 10,
        ),
        Zoo::Strided2d => {
            let row = Datatype::vector(32, 16, 32, &Datatype::float());
            (Datatype::hvector(64, 1, 8192, &row), 1, 520192, 128 << 10)
        }
        Zoo::Irregular => {
            let blocks: Vec<(usize, isize)> = (0..1024)
                .map(|i| (if i % 2 == 0 { 96 } else { 160 }, i * 512))
                .collect();
            (
                Datatype::hindexed(&blocks, &Datatype::byte()),
                1,
                524288,
                128 << 10,
            )
        }
    }
}

/// One rank-0 → rank-1 transfer of the zoo layout under the given scheme
/// policy: returns the job's virtual end time and the receiver's *entire*
/// buffer (holes included — hole corruption must show up too).
fn exchange(z: Zoo, scheme: SchemeSel, faults: Option<FaultSpec>) -> (SimTime, Vec<u8>) {
    let cfg = MpiConfig {
        scheme,
        ..MpiConfig::default()
    };
    let mut world = MpiWorld::new(2).with_config(cfg);
    if let Some(spec) = faults {
        world = world.with_faults(spec);
    }
    let out = world.try_run(move |comm| {
        let (t, count, bufsize, payload) = zoo_type(z);
        t.commit();
        if comm.rank() == 0 {
            let buf = HostBuf::from_vec((0..bufsize).map(|i| (i % 251) as u8).collect());
            comm.send(buf.base(), count, &t, 1, 0);
            Vec::new()
        } else {
            let buf = HostBuf::alloc(bufsize);
            let st = comm.recv(buf.base(), count, &t, 0, 0);
            assert_eq!(st.bytes, payload, "{z:?}: wrong payload size");
            buf.read(0, bufsize)
        }
    });
    let (end, mut ranks, _) = out.unwrap();
    (end, ranks.swap_remove(1))
}

#[test]
fn offload_is_byte_identical_to_staged_and_auto() {
    for z in [Zoo::Contig, Zoo::Strided1d, Zoo::Strided2d] {
        let (t_staged, staged) = exchange(z, SchemeSel::Force(DataScheme::Staged), None);
        let (t_offload, offload) = exchange(z, SchemeSel::Force(DataScheme::NicOffload), None);
        let (_, auto) = exchange(z, SchemeSel::Auto { offload: true }, None);
        assert_eq!(staged, offload, "{z:?}: offload corrupted the payload");
        assert_eq!(staged, auto, "{z:?}: auto policy corrupted the payload");
        // The offload engine is a genuinely different data path — one
        // descriptor walk instead of a chunked vbuf pipeline — so its
        // virtual timing cannot coincide with the staged schedule.
        assert_ne!(
            t_staged, t_offload,
            "{z:?}: forced offload replayed the staged schedule — scheme not engaged"
        );
    }
}

#[test]
fn irregular_layout_falls_back_to_staged_bit_identically() {
    // No bounded descriptor exists for the irregular zoo type: the Auto
    // policy with offload enabled must degrade to the staged pipeline
    // without moving a single event — same bytes, same virtual end time as
    // both the offload-disabled default and an explicit Force(Staged).
    let (t_off, off) = exchange(Zoo::Irregular, SchemeSel::Auto { offload: true }, None);
    let (t_def, def) = exchange(Zoo::Irregular, SchemeSel::Auto { offload: false }, None);
    let (t_forced, forced) = exchange(Zoo::Irregular, SchemeSel::Force(DataScheme::Staged), None);
    assert_eq!(off, def, "fallback changed the delivered bytes");
    assert_eq!(off, forced, "forced staged changed the delivered bytes");
    assert_eq!(
        t_off, t_def,
        "enabling offload perturbed the virtual time of an irregular transfer"
    );
    assert_eq!(
        t_def, t_forced,
        "Force(Staged) perturbed the virtual time of an irregular transfer"
    );
}

#[test]
fn forced_offload_on_irregular_is_rejected_with_a_typed_error() {
    // Force(NicOffload) forbids the staged fallback, and the HCA cannot
    // walk a deep struct layout: the send must fail through wait_result
    // with the typed rejection before any wire traffic — not hang, not
    // panic deep in the engine.
    let cfg = MpiConfig {
        scheme: SchemeSel::Force(DataScheme::NicOffload),
        ..MpiConfig::default()
    };
    let out = MpiWorld::new(2).with_config(cfg).try_run(|comm| {
        // Rank 1 never posts a receive: the rejection happens sender-side.
        (comm.rank() == 0).then(|| {
            let (t, count, bufsize, _) = zoo_type(Zoo::Irregular);
            t.commit();
            let buf = HostBuf::alloc(bufsize);
            let req = comm.isend(buf.base(), count, &t, 1, 0);
            comm.wait_result(req)
                .expect_err("forced offload on an irregular layout must be rejected")
        })
    });
    assert_eq!(
        out.unwrap().1[0],
        Some(MpiError::Rejected {
            err: ConfigError::ForcedOffloadIrregular
        }),
        "wrong rejection surfaced"
    );
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
    // strided payload intact.
    silence_expected_panics();
    let v = explore(&scenarios::offload_2rank());
    assert!(
        !v.stats.truncated,
        "offload rendezvous exploration hit the schedule cap — not exhaustive"
    );
    if let Some(c) = &v.counterexample {
        panic!(
            "offload rendezvous violated under schedule {} (from {}): {}",
            c.schedule, c.original, c.message
        );
    }
    assert!(
        v.stats.schedules > 1,
        "the offload rendezvous must expose retry branches to explore"
    );
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
