//! Seeded fault campaigns: the rendezvous retry/recovery protocol under
//! control-packet loss/delay, RDMA error CQEs and registration pin limits.
//!
//! The contract under test: on a fault-injecting fabric
//! ([`ib_sim::FaultSpec`]) the MPI layer retransmits and recovers, and the
//! *data* an application observes is byte-identical to a fault-free run —
//! only virtual time and the retransmit counters differ. Faults are drawn
//! from a seeded xorshift stream, so every campaign here is exactly
//! reproducible.

use gpu_nc_repro::halo3d::{run_halo3d, run_halo3d_on, Halo3dParams, Variant as HaloVariant};
use gpu_nc_repro::ib_sim::FaultSpec;
use gpu_nc_repro::mpi_sim::{ChunkPolicy, Datatype, MpiConfig, MpiError, MpiWorld};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::stencil2d::{
    run_stencil, run_stencil_on, RunOptions, StencilParams, Variant as StencilVariant,
};
use hostmem::HostBuf;
use sim_core::{instrument, SanitizerMode};

fn drop_and_error_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        ctrl_drop: 0.10,
        ctrl_delay: 0.10,
        delay_ns: 30_000,
        rdma_error: 0.05,
        ..FaultSpec::seeded(seed)
    }
}

#[test]
fn halo3d_campaign_is_byte_identical_under_faults() {
    // The i-faces (local.1 x local.2 doubles = 10 KiB) exceed the eager
    // limit, so every iteration pushes rendezvous traffic through the
    // faulty control plane; the smaller j/k faces stay eager.
    let p = Halo3dParams {
        grid: (2, 1, 2),
        local: (16, 32, 40),
        iters: 3,
    };
    let clean = run_halo3d::<f64>(p, HaloVariant::Mv2, true);
    let before = instrument::global().snapshot();
    let cluster = GpuCluster::new(p.nranks()).faults(drop_and_error_spec(42));
    let (faulty, _) = run_halo3d_on::<f64>(cluster, p, HaloVariant::Mv2, true);
    let delta = instrument::global().delta(&before);
    assert_eq!(clean.ranks.len(), faulty.ranks.len());
    for (c, f) in clean.ranks.iter().zip(&faulty.ranks) {
        assert_eq!(
            c.interior, f.interior,
            "rank {}: fault campaign corrupted the field",
            c.rank
        );
    }
    // The campaign must actually have exercised the fault paths. (Counters
    // are process-global, so only lower bounds are meaningful.)
    assert!(
        delta.get("fault.ctrl_drop").copied().unwrap_or(0) > 0,
        "10% ctrl drop over a 4-rank halo exchange must drop something: {delta:?}"
    );
    let retries: u64 = delta
        .iter()
        .filter(|(k, _)| k.starts_with("retry."))
        .map(|(_, v)| *v)
        .sum();
    assert!(
        retries > 0,
        "dropped control packets must surface as retransmissions: {delta:?}"
    );
}

#[test]
fn stencil2d_campaign_is_byte_identical_under_faults() {
    let p = StencilParams {
        py: 2,
        px: 2,
        rows: 24,
        cols: 20,
        iters: 3,
    };
    let opts = RunOptions {
        timed_breakdown: false,
        collect_interiors: true,
    };
    let clean = run_stencil::<f32>(p, StencilVariant::Mv2, opts);
    let cluster = GpuCluster::new(p.nranks()).faults(drop_and_error_spec(7));
    let (faulty, _) = run_stencil_on::<f32>(cluster, p, StencilVariant::Mv2, opts);
    for (c, f) in clean.ranks.iter().zip(&faulty.ranks) {
        assert_eq!(
            c.interior, f.interior,
            "rank {}: fault campaign corrupted the field",
            c.rank
        );
    }
}

#[test]
fn fault_campaign_is_clean_under_collect_sanitizer() {
    // Retransmissions and tolerated duplicates are protocol-*legal* on a
    // faulty fabric: the sanitizer must not report them.
    let p = Halo3dParams {
        grid: (2, 1, 1),
        local: (6, 5, 4),
        iters: 2,
    };
    let cluster = GpuCluster::new(p.nranks())
        .sanitizer(SanitizerMode::Collect)
        .faults(drop_and_error_spec(1234));
    let (_, reports) = run_halo3d_on::<f64>(cluster, p, HaloVariant::Mv2, false);
    assert!(
        reports.is_empty(),
        "retransmission/recovery must be sanitizer-clean, got: {reports:?}"
    );
}

/// One bidirectional exchange mixing all three data protocols: eager,
/// rendezvous direct (contiguous) and rendezvous staged (vector datatype).
/// Returns the three receive buffers of the observing rank (rank 1).
fn mixed_exchange(faults: Option<FaultSpec>, cfg: MpiConfig) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut world = MpiWorld::new(2).with_config(cfg);
    if let Some(spec) = faults {
        world = world.with_faults(spec);
    }
    let out = world.try_run(|comm| {
        let byte = Datatype::byte();
        byte.commit();
        // 64Ki rows of 4 bytes, stride 16 — non-contiguous, so the host
        // staged (vbuf) pipeline carries it.
        let vec_t = Datatype::vector(1 << 16, 1, 4, &Datatype::float());
        vec_t.commit();
        let me = comm.rank() as u8;
        let peer = 1 - comm.rank();

        let eager_tx = HostBuf::from_vec((0..256).map(|i| (i as u8) ^ me).collect());
        let direct_tx = HostBuf::from_vec((0..300 << 10).map(|i| ((i % 251) as u8) ^ me).collect());
        let staged_tx = HostBuf::from_vec((0..1 << 20).map(|i| ((i % 249) as u8) ^ me).collect());
        let eager_rx = HostBuf::alloc(256);
        let direct_rx = HostBuf::alloc(300 << 10);
        let staged_rx = HostBuf::alloc(1 << 20);

        let reqs = vec![
            comm.irecv(eager_rx.base(), 256, &byte, peer, 1u32),
            comm.irecv(direct_rx.base(), 300 << 10, &byte, peer, 2u32),
            comm.irecv(staged_rx.base(), 1, &vec_t, peer, 3u32),
            comm.isend(eager_tx.base(), 256, &byte, peer, 1),
            comm.isend(direct_tx.base(), 300 << 10, &byte, peer, 2),
            comm.isend(staged_tx.base(), 1, &vec_t, peer, 3),
        ];
        comm.waitall(reqs);
        (
            eager_rx.read(0, 256),
            direct_rx.read(0, 300 << 10),
            staged_rx.read(0, 1 << 20),
        )
    });
    out.unwrap().1.swap_remove(1)
}

#[test]
fn any_drop_schedule_delivers_identical_data() {
    let cfg = MpiConfig::default();
    let clean = mixed_exchange(None, cfg.clone());
    for seed in 1..=6u64 {
        for drop in [0.05, 0.15, 0.30] {
            let spec = FaultSpec {
                ctrl_drop: drop,
                ctrl_delay: 0.20,
                delay_ns: 40_000,
                rdma_error: 0.02,
                ..FaultSpec::seeded(seed)
            };
            let faulty = mixed_exchange(Some(spec), cfg.clone());
            assert_eq!(
                clean, faulty,
                "seed {seed}, drop {drop}: delivered data diverged from the fault-free run"
            );
        }
    }
}

#[test]
fn fault_schedule_is_deterministic() {
    let run = || {
        let spec = FaultSpec {
            ctrl_drop: 0.15,
            ctrl_delay: 0.15,
            delay_ns: 25_000,
            rdma_error: 0.05,
            ..FaultSpec::seeded(99)
        };
        let out = MpiWorld::new(2).with_faults(spec).try_run(|comm| {
            let t = Datatype::byte();
            t.commit();
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec((0..600 << 10).map(|i| (i % 241) as u8).collect());
                comm.send(buf.base(), 600 << 10, &t, 1, 0);
                Vec::new()
            } else {
                let buf = HostBuf::alloc(600 << 10);
                comm.recv(buf.base(), 600 << 10, &t, 0, 0);
                buf.read(0, 600 << 10)
            }
        });
        let (end, mut ranks, _) = out.unwrap();
        (end, ranks.swap_remove(1))
    };
    let (end_a, data_a) = run();
    let (end_b, data_b) = run();
    assert_eq!(end_a, end_b, "same seed must replay the same virtual time");
    assert_eq!(data_a, data_b);
}

#[test]
fn pin_limit_degrades_direct_to_staged() {
    // Vbuf pools (registered with the infallible path at MPI_Init) take
    // 4 x 64 KiB = 256 KiB per rank; a 320 KiB pin limit then refuses the
    // 1 MiB user-buffer registration of the direct R-PUT, and the transfer
    // must fall back to the staged path — correctly.
    let cfg = MpiConfig {
        policy: ChunkPolicy::Fixed,
        chunk_size: 64 << 10,
        pool_vbufs: 4,
        window_slots: 2,
        ..MpiConfig::default()
    };
    let spec = FaultSpec {
        pin_limit_bytes: Some(320 << 10),
        ..FaultSpec::seeded(5)
    };
    let before = instrument::global().snapshot();
    let out = MpiWorld::new(2)
        .with_config(cfg)
        .with_faults(spec)
        .try_run(|comm| {
            let t = Datatype::byte();
            t.commit();
            let n = 1 << 20;
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec((0..n).map(|i| (i % 253) as u8).collect());
                comm.send(buf.base(), n, &t, 1, 0);
                false
            } else {
                let buf = HostBuf::alloc(n);
                let st = comm.recv(buf.base(), n, &t, 0, 0);
                assert_eq!(st.bytes, n);
                (0..n).all(|i| buf.read(i, 1)[0] == (i % 253) as u8)
            }
        });
    assert!(out.unwrap().1[1], "the receiver's payload is wrong");
    let delta = instrument::global().delta(&before);
    assert!(
        delta.get("fault.reg_fail").copied().unwrap_or(0) > 0,
        "the pin limit never fired: {delta:?}"
    );
    assert!(
        delta.get("fallback.direct_to_staged").copied().unwrap_or(0) > 0,
        "a refused registration must degrade to the staged path: {delta:?}"
    );
}

#[test]
fn exhausted_retries_surface_a_typed_error() {
    // Total control-packet loss: the send must fail with
    // MpiError::RetriesExhausted once its retry budget is spent, not hang
    // and not panic.
    let spec = FaultSpec {
        ctrl_drop: 1.0,
        ..FaultSpec::seeded(8)
    };
    let out = MpiWorld::new(2).with_faults(spec).try_run(|comm| {
        let t = Datatype::byte();
        t.commit();
        if comm.rank() == 0 {
            let buf = HostBuf::alloc(1 << 20);
            let req = comm.isend(buf.base(), 1 << 20, &t, 1, 0);
            let err = comm.wait_result(req);
            Some(err.expect_err("every RTS is dropped; the send cannot succeed"))
        } else {
            // Stay alive (in virtual time) while rank 0 burns through its
            // retry budget — 200 us x (2^13 - 1) of backoff, ~1.64 s —
            // and never post the receive.
            sim_core::sleep(sim_core::SimDur::from_millis(2000));
            None
        }
    });
    match out.unwrap().1.swap_remove(0).expect("rank 0's error") {
        MpiError::RetriesExhausted { op, peer, attempts } => {
            assert_eq!(op, "rts");
            assert_eq!(peer, 1);
            assert_eq!(attempts, 13, "first transmission + 12 retries");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn reg_cache_hits_on_repeated_buffers() {
    // The same send buffer reused across rendezvous transfers must register
    // once and hit the cache afterwards (MVAPICH2's reg-cache behavior).
    let before = instrument::global().snapshot();
    MpiWorld::new(2).run(move |comm| {
        let t = Datatype::byte();
        t.commit();
        let n = 1 << 20;
        let buf = if comm.rank() == 0 {
            HostBuf::from_vec((0..n).map(|i| (i % 253) as u8).collect())
        } else {
            HostBuf::alloc(n)
        };
        for round in 0..4u32 {
            if comm.rank() == 0 {
                comm.send(buf.base(), n, &t, 1, round);
            } else {
                comm.recv(buf.base(), n, &t, 0, round);
            }
        }
    });
    let delta = instrument::global().delta(&before);
    assert!(
        delta.get("reg_cache.hit").copied().unwrap_or(0) > 0,
        "repeated rendezvous on one buffer must hit the reg cache: {delta:?}"
    );
}
