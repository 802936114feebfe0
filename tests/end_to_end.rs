//! Cross-crate integration tests: the full stack (sim kernel → GPU + NIC
//! simulators → MPI runtime → MV2-GPU-NC → application) exercised end to
//! end.

use gpu_nc_repro::halo3d::{self, run_halo3d_on, Halo3dParams};
use gpu_nc_repro::ib_sim::Topology;
use gpu_nc_repro::mpi_sim::{CollAlgo, Datatype, MpiConfig, ReduceOp};
use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::stencil2d::{run_stencil, RunOptions, StencilParams, Variant};
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use sim_core::SanitizerMode;

#[test]
fn eight_rank_ring_of_device_vectors() {
    // Every rank passes a strided device message around a ring; after n
    // hops each rank holds its left neighbor's pattern.
    GpuCluster::new(8).run(|env| {
        let x = VectorXfer::paper(96 << 10);
        let me = env.comm.rank();
        let n = env.comm.size();
        let dev = env.gpu.malloc(x.extent());
        fill_vector(&env.gpu, dev, &x, me as u8);
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        if me % 2 == 0 {
            env.comm.send(dev, 1, &x.dtype(), next, 7);
            env.comm.recv(dev, 1, &x.dtype(), prev, 7);
        } else {
            let incoming = env.gpu.malloc(x.extent());
            env.comm.recv(incoming, 1, &x.dtype(), prev, 7);
            env.comm.send(dev, 1, &x.dtype(), next, 7);
            env.gpu.memcpy(dev, incoming, x.extent());
            env.gpu.free(incoming);
        }
        verify_vector(&env.gpu, dev, &x, prev as u8);
    });
}

#[test]
fn stencil_all_grids_def_equals_mv2() {
    for (py, px) in [(1, 4), (4, 1), (2, 2)] {
        let p = StencilParams {
            py,
            px,
            rows: 24,
            cols: 20,
            iters: 3,
        };
        let opts = RunOptions {
            timed_breakdown: false,
            collect_interiors: true,
        };
        let d = run_stencil::<f32>(p, Variant::Def, opts);
        let m = run_stencil::<f32>(p, Variant::Mv2, opts);
        for (a, b) in d.ranks.iter().zip(&m.ranks) {
            assert_eq!(a.interior, b.interior, "grid {py}x{px} rank {}", a.rank);
        }
    }
}

#[test]
fn different_decompositions_agree_on_the_global_field() {
    // 1x4 and 4x1 decompositions of the same 48x48 global field must give
    // the same answer (exact in f64, since the arithmetic order inside one
    // cell's update is fixed).
    let a = run_stencil::<f64>(
        StencilParams {
            py: 1,
            px: 4,
            rows: 48,
            cols: 12,
            iters: 4,
        },
        Variant::Mv2,
        RunOptions {
            timed_breakdown: false,
            collect_interiors: true,
        },
    );
    let b = run_stencil::<f64>(
        StencilParams {
            py: 4,
            px: 1,
            rows: 12,
            cols: 48,
            iters: 4,
        },
        Variant::Mv2,
        RunOptions {
            timed_breakdown: false,
            collect_interiors: true,
        },
    );
    // Reassemble both into global fields and compare.
    let assemble = |out: &gpu_nc_repro::stencil2d::StencilOutcome,
                    py: usize,
                    px: usize,
                    rows: usize,
                    cols: usize| {
        let (gr, gc) = (py * rows, px * cols);
        let mut g = vec![0f64; gr * gc];
        for r in &out.ranks {
            let (pr, pc) = (r.rank / px, r.rank % px);
            let vals: Vec<f64> = r
                .interior
                .as_ref()
                .unwrap()
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            for lr in 0..rows {
                for lc in 0..cols {
                    g[(pr * rows + lr) * gc + (pc * cols + lc)] = vals[lr * cols + lc];
                }
            }
        }
        g
    };
    let ga = assemble(&a, 1, 4, 48, 12);
    let gb = assemble(&b, 4, 1, 12, 48);
    assert_eq!(ga, gb, "decomposition must not change the physics");
}

#[test]
fn block_size_is_a_working_tunable() {
    // The MV2_CUDA_BLOCK_SIZE analog: extreme block sizes still produce
    // correct data, just different timing.
    let mut times = Vec::new();
    for block in [8 << 10, 64 << 10, 1 << 20] {
        let out = GpuCluster::new(2).block_size(block).try_run(|env| {
            let x = VectorXfer::paper(2 << 20);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 3);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
                0
            } else {
                let t0 = sim_core::now();
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 3);
                (sim_core::now() - t0).as_nanos()
            }
        });
        times.push(out.unwrap().1[1]);
    }
    // 64 KB (the tuned default) must beat both extremes.
    assert!(times[1] < times[0], "64K must beat 8K: {times:?}");
    assert!(times[1] < times[2], "64K must beat 1M: {times:?}");
}

#[test]
fn mixed_traffic_host_and_device_interleaved() {
    // Host messages and device messages with overlapping tags flow at the
    // same time without corrupting each other.
    GpuCluster::new(2).run(|env| {
        let me = env.comm.rank();
        let peer = 1 - me;
        let byte = Datatype::byte();
        byte.commit();
        let x = VectorXfer::paper(128 << 10);
        let dev = env.gpu.malloc(x.extent());
        let host = hostmem::HostBuf::from_vec(vec![me as u8 + 10; 200 << 10]);
        let hin = hostmem::HostBuf::alloc(200 << 10);
        fill_vector(&env.gpu, dev, &x, me as u8);
        let dev_in = env.gpu.malloc(x.extent());

        let r1 = env.comm.irecv(hin.base(), 200 << 10, &byte, peer, 1u32);
        let r2 = env.comm.irecv(dev_in, 1, &x.dtype(), peer, 2u32);
        let s1 = env.comm.isend(host.base(), 200 << 10, &byte, peer, 1);
        let s2 = env.comm.isend(dev, 1, &x.dtype(), peer, 2);
        env.comm.waitall(vec![r1, r2, s1, s2]);

        assert_eq!(hin.read(0, 200 << 10), vec![peer as u8 + 10; 200 << 10]);
        verify_vector(&env.gpu, dev_in, &x, peer as u8);
    });
}

#[test]
fn tiny_vbuf_pool_still_completes() {
    // Failure injection: a pool with barely more vbufs than one transfer's
    // window forces constant recycling; the protocol must not deadlock.
    let cfg = MpiConfig {
        pool_vbufs: 6,
        window_slots: 2,
        ..MpiConfig::default()
    };
    GpuCluster::new(2).mpi_config(cfg).run(|env| {
        let x = VectorXfer::paper(1 << 20); // 16 chunks through 2-slot window
        let dev = env.gpu.malloc(x.extent());
        if env.comm.rank() == 0 {
            fill_vector(&env.gpu, dev, &x, 9);
            env.comm.send(dev, 1, &x.dtype(), 1, 0);
        } else {
            env.comm.recv(dev, 1, &x.dtype(), 0, 0);
            verify_vector(&env.gpu, dev, &x, 9);
        }
    });
}

#[test]
fn many_concurrent_staged_transfers_share_the_pool() {
    // Several simultaneous rendezvous transfers compete for vbufs.
    GpuCluster::new(4).run(|env| {
        let me = env.comm.rank();
        let x = VectorXfer::paper(256 << 10);
        let mut reqs = Vec::new();
        let mut bufs = Vec::new();
        for peer in 0..4usize {
            if peer == me {
                continue;
            }
            let dev_in = env.gpu.malloc(x.extent());
            reqs.push(env.comm.irecv(dev_in, 1, &x.dtype(), peer, me as u32));
            bufs.push((peer, dev_in));
            let dev_out = env.gpu.malloc(x.extent());
            fill_vector(&env.gpu, dev_out, &x, me as u8);
            reqs.push(env.comm.isend(dev_out, 1, &x.dtype(), peer, peer as u32));
        }
        env.comm.waitall(reqs);
        for (peer, dev_in) in bufs {
            verify_vector(&env.gpu, dev_in, &x, peer as u8);
        }
    });
}

#[test]
fn cts_deferral_under_pool_exhaustion() {
    // Post far more concurrent staged receives than the vbuf pool can
    // serve at once: CTS grants must be deferred and the whole burst must
    // still complete correctly (regression for the OSU bw window case).
    let cfg = MpiConfig {
        pool_vbufs: 8,
        window_slots: 4,
        ..MpiConfig::default()
    };
    GpuCluster::new(2).mpi_config(cfg).run(|env| {
        let x = VectorXfer::paper(128 << 10); // 2 chunks each
        let me = env.comm.rank();
        let peer = 1 - me;
        let n = 24; // needs up to 48 slots if granted eagerly; pool has 8
        let mut reqs = Vec::new();
        let mut bufs = Vec::new();
        for i in 0..n {
            let dev_in = env.gpu.malloc(x.extent());
            reqs.push(env.comm.irecv(dev_in, 1, &x.dtype(), peer, i as u32));
            bufs.push(dev_in);
            let dev_out = env.gpu.malloc(x.extent());
            fill_vector(&env.gpu, dev_out, &x, i as u8);
            reqs.push(env.comm.isend(dev_out, 1, &x.dtype(), peer, i as u32));
        }
        env.comm.waitall(reqs);
        for (i, dev_in) in bufs.into_iter().enumerate() {
            verify_vector(&env.gpu, dev_in, &x, i as u8);
        }
    });
}

#[test]
fn whole_simulation_is_deterministic_end_to_end() {
    let run = || {
        run_stencil::<f32>(
            StencilParams {
                py: 2,
                px: 2,
                rows: 64,
                cols: 64,
                iters: 3,
            },
            Variant::Mv2,
            RunOptions::default(),
        )
        .wall
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn halo3d_under_sanitizer_is_clean_at_ppn_2() {
    // The full application on mixed intra-/inter-node topology, with the
    // simulation sanitizer collecting: the shm and device-to-device data
    // paths must be as race- and leak-free as the staged RDMA path.
    let params = Halo3dParams {
        grid: (2, 1, 2),
        local: (4, 5, 6),
        iters: 2,
    };
    let cluster = GpuCluster::new(params.nranks())
        .ppn(2)
        .sanitizer(SanitizerMode::Collect);
    let (out, san) = run_halo3d_on::<f64>(cluster, params, halo3d::Variant::Mv2, false);
    assert_eq!(out.ranks.len(), 4);
    assert!(
        san.is_empty(),
        "sanitizer reports on the intra-node paths: {san:#?}"
    );
}

#[test]
fn hier_allreduce_on_uneven_placements() {
    // Device-buffer allreduce on 3 and on 5 nodes with mixed ppn: the
    // leader count is not a power of two, so the leaders' reduce-scatter +
    // allgather folds some of them in and out. Two segments and a ragged
    // third, integer-valued so every rank must hold the serial sum exactly;
    // the sanitizer must find nothing on the shared exchange buffer.
    let term = |rank: usize, k: usize| ((rank * 13 + k * 7) % 17) as f32 - 8.0;
    for map in [vec![0, 0, 0, 1, 2, 2], vec![0, 1, 1, 1, 2, 3, 3, 4, 0]] {
        let n = map.len();
        let mut cfg = MpiConfig::default();
        cfg.coll.algo = CollAlgo::Hier;
        let count = 2 * (64 << 10) / 4 + 37;
        let out = GpuCluster::new(n)
            .topology(Topology::from_map(map.clone()))
            .mpi_config(cfg)
            .sanitizer(SanitizerMode::Collect)
            .try_run(move |env| {
                let f32t = Datatype::float();
                f32t.commit();
                let bytes = count * 4;
                let vals: Vec<f32> = (0..count).map(|k| term(env.comm.rank(), k)).collect();
                let host = HostBuf::from_vec(scalars_to_bytes(&vals));
                let (send, recv) = (env.gpu.malloc(bytes), env.gpu.malloc(bytes));
                env.gpu.memcpy(send, host.base(), bytes);
                env.comm.allreduce(send, recv, count, &f32t, ReduceOp::Sum);
                env.gpu.memcpy(host.base(), recv, bytes);
                bytes_to_scalars::<f32>(&host.read(0, bytes))
            });
        assert!(out.end.is_ok(), "{map:?}: {:?}", out.end);
        assert!(out.reports.is_empty(), "{map:?}: {:#?}", out.reports);
        let want: Vec<f32> = (0..count)
            .map(|k| (0..n).map(|r| term(r, k)).sum())
            .collect();
        for (r, got) in out.ranks.iter().enumerate() {
            assert!(
                got == &want,
                "{map:?}: rank {r} differs from the serial sum"
            );
        }
    }
}
