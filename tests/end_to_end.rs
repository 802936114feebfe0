//! Cross-crate integration tests: the full stack (sim kernel → GPU + NIC
//! simulators → MPI runtime → MV2-GPU-NC → application) exercised end to
//! end.

use gpu_nc_repro::halo3d::{self, run_halo3d_on, Halo3dParams};
use std::sync::{Arc, Mutex};

use gpu_nc_repro::ib_sim::{CtrlAction, CtrlPoint, DeliveryScheduler, FifoScheduler, Topology};
use gpu_nc_repro::mpi_sim::{
    packet_kind, CollAlgo, DataScheme, Datatype, MpiConfig, ReduceOp, SchemeSel,
};
use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::stencil2d::{run_stencil, RunOptions, StencilParams, Variant};
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use sim_core::SanitizerMode;
use sim_trace::Recorder;

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
fn an_empty_world_ends_at_one_registration_of_the_vbuf_pool() {
    // MPI_Init registers every rank's 64 vbufs of 256 KiB as one region:
    // reg_time(16 MiB) = 10 µs + 4096 pages × 150 ns, where registering
    // them one by one took 64 × reg_time(256 KiB) = 1 254 400 ns.
    let end = GpuCluster::new(2).run(|_| {});
    assert_eq!(end.as_nanos(), 624_400);
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

/// Element `k` of `rank`'s reduction operand: small integers, so every
/// partial sum is exact and any fold order gives the serial sum.
fn term(rank: usize, k: usize) -> f32 {
    ((rank * 13 + k * 7) % 17) as f32 - 8.0
}

/// HCA tx bytes of every node in the run `rec` traced.
fn hca_tx_bytes(rec: &Recorder) -> u64 {
    let m = rec.metrics();
    let hca = m
        .iter()
        .filter(|(k, _)| k.starts_with("node") && k.ends_with(".hca.tx_bytes"));
    hca.map(|(_, v)| v).sum()
}

/// What one message of `len` payload bytes between two nodes costs the HCA
/// under the default configuration: up to the eager limit, the payload and
/// its 64-byte envelope; beyond it (a contiguous host buffer on both
/// sides, a direct R-PUT), the payload and three control packets — RTS,
/// CTS and FIN.
fn wire_bytes(len: usize) -> u64 {
    let ctrl = gpu_nc_repro::ib_sim::NetModel::qdr().ctrl_bytes;
    let extra = if len <= MpiConfig::default().eager_limit {
        64
    } else {
        3 * ctrl
    };
    (len + extra) as u64
}

/// One reduction of `count` device floats on `topo`, under `algo` and the
/// collecting sanitizer: `allreduce` when `root` is `None`, else `reduce`
/// to `root`. Every rank that holds a result must hold the serial sum
/// exactly. Returns the run's HCA tx bytes.
fn reduction_checked(topo: Topology, algo: CollAlgo, count: usize, root: Option<usize>) -> u64 {
    let n = topo.num_ranks();
    let mut cfg = MpiConfig::default();
    cfg.coll.algo = algo;
    let rec = Recorder::new();
    let out = GpuCluster::new(n)
        .topology(topo)
        .mpi_config(cfg)
        .recorder(rec.clone())
        .sanitizer(SanitizerMode::Collect)
        .try_run(move |env| {
            let f32t = Datatype::float();
            f32t.commit();
            let bytes = count * 4;
            let vals: Vec<f32> = (0..count).map(|k| term(env.comm.rank(), k)).collect();
            let host = HostBuf::from_vec(scalars_to_bytes(&vals));
            let (send, recv) = (env.gpu.malloc(bytes), env.gpu.malloc(bytes));
            env.gpu.memcpy(send, host.base(), bytes);
            match root {
                None => env.comm.allreduce(send, recv, count, &f32t, ReduceOp::Sum),
                Some(r) => env.comm.reduce(send, recv, count, &f32t, ReduceOp::Sum, r),
            }
            env.gpu.memcpy(host.base(), recv, bytes);
            bytes_to_scalars::<f32>(&host.read(0, bytes))
        });
    let what = format!("{algo:?} count {count} root {root:?}");
    assert!(out.end.is_ok(), "{what}: {:?}", out.end);
    assert!(out.reports.is_empty(), "{what}: {:#?}", out.reports);
    let want: Vec<f32> = (0..count)
        .map(|k| (0..n).map(|r| term(r, k)).sum())
        .collect();
    for (r, got) in out.ranks.iter().enumerate() {
        if root.is_none_or(|root| root == r) {
            assert!(got == &want, "{what}: rank {r} differs from the serial sum");
        }
    }
    hca_tx_bytes(&rec)
}

#[test]
fn a_ranks_own_reduction_data_never_reaches_the_hca() {
    // One node, four ranks, flat algorithms: every message between two
    // ranks rides shm. A message from a rank to itself would ride the HCA
    // loopback; staging a device contribution to the host and the result
    // back must not be one.
    for root in [None, Some(2)] {
        let hca = reduction_checked(Topology::uniform(1, 4), CollAlgo::Flat, 3000, root);
        assert_eq!(hca, 0, "root {root:?}: a rank's own data crossed the HCA");
    }
}

/// Every collective a rank can call, by its MPI name less `MPI_`.
const COLLECTIVES: [&str; 10] = [
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "allgatherv",
    "alltoall",
    "alltoallv",
    "reduce",
    "allreduce",
];

/// One `coll` of 1 KiB int blocks on one node of four ranks under `algo`,
/// every buffer on the device or every one on the host, rooted at rank 2.
/// Every rank must hold what MPI says it receives. Returns the run's HCA tx
/// bytes.
fn one_node_collective(coll: &'static str, algo: CollAlgo, device: bool) -> u64 {
    const P: usize = 4;
    const N: usize = 256;
    const ROOT: usize = 2;
    let mut cfg = MpiConfig::default();
    cfg.coll.algo = algo;
    let rec = Recorder::new();
    let out = GpuCluster::new(P)
        .topology(Topology::uniform(1, P))
        .mpi_config(cfg)
        .recorder(rec.clone())
        .try_run(move |env| {
            let (me, int) = (env.comm.rank(), Datatype::int());
            int.commit();
            // Block `d` of rank `s`'s send buffer is meant for rank `d`.
            let val = |s: usize, d: usize, k: usize| (1000 * s + 300 * d + k) as i32;
            let all: Vec<i32> = (0..P * N).map(|i| val(me, i / N, i % N)).collect();
            let buf = |v: &[i32]| -> gpu_sim::Loc {
                let bytes = scalars_to_bytes(v);
                if device {
                    let d = env.gpu.malloc(bytes.len());
                    env.gpu.write_bytes(d, &bytes);
                    d.into()
                } else {
                    HostBuf::from_vec(bytes).base().into()
                }
            };
            let (send, recv) = (buf(&all), buf(&vec![-1; P * N]));
            let (counts, displs) = ([N; P], [0, N * 4, 2 * N * 4, 3 * N * 4]);
            let c = &env.comm;
            let (s, r) = (send.clone(), recv.clone());
            match coll {
                "barrier" => c.barrier(),
                "bcast" => c.bcast(s, P * N, &int, ROOT),
                "gather" => c.gather(s, r, N, &int, ROOT),
                "scatter" => c.scatter(s, r, N, &int, ROOT),
                "allgather" => c.allgather(s, r, N, &int),
                "allgatherv" => c.allgatherv(s, N, &int, r, &counts, &displs, &int),
                "alltoall" => c.alltoall(s, r, N, &int),
                "alltoallv" => c.alltoallv(s, &counts, &displs, &int, r, &counts, &displs, &int),
                "reduce" => c.reduce(s, r, N, &int, ReduceOp::Sum, ROOT),
                "allreduce" => c.allreduce(s, r, N, &int, ReduceOp::Sum),
                other => panic!("no collective {other}"),
            }
            let read = |l: &gpu_sim::Loc| -> Vec<i32> {
                bytes_to_scalars(&match l {
                    gpu_sim::Loc::Device(d) => env.gpu.read_bytes(*d, P * N * 4),
                    gpu_sim::Loc::Host(h) => h.read(P * N * 4),
                })
            };
            let sum = |k: usize| (0..P).map(|s| val(s, 0, k)).sum::<i32>();
            let want: Vec<Option<i32>> = (0..P * N)
                .map(|i| {
                    let (b, k) = (i / N, i % N);
                    match coll {
                        "bcast" => Some(val(ROOT, b, k)),
                        "gather" if me == ROOT => Some(val(b, 0, k)),
                        "allgather" | "allgatherv" => Some(val(b, 0, k)),
                        "scatter" if b == 0 => Some(val(ROOT, me, k)),
                        "alltoall" | "alltoallv" => Some(val(b, me, k)),
                        "reduce" if me == ROOT && b == 0 => Some(sum(k)),
                        "allreduce" if b == 0 => Some(sum(k)),
                        _ => None,
                    }
                })
                .collect();
            let got = read(if coll == "bcast" { &send } else { &recv });
            want.iter().zip(got).all(|(w, g)| w.is_none_or(|w| w == g))
        });
    let what = format!("{coll} {algo:?} device {device}");
    assert!(out.end.is_ok(), "{what}: {:?}", out.end);
    for (r, ok) in out.ranks.iter().enumerate() {
        assert!(ok, "{what}: rank {r} holds the wrong blocks");
    }
    hca_tx_bytes(&rec)
}

#[test]
fn no_collective_sends_to_itself() {
    // One node: every message between two ranks rides shm, and one from a
    // rank to itself would ride the HCA loopback. A rank's own block is
    // copied in place, so the HCA carries nothing. On one node `Hier` is
    // served flat.
    for coll in COLLECTIVES {
        for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
            for device in [false, true] {
                let hca = one_node_collective(coll, algo, device);
                assert_eq!(hca, 0, "{coll} {algo:?} device {device}: HCA tx bytes");
            }
        }
    }
}

#[test]
fn hier_hca_traffic_is_the_leaders_messages_exactly() {
    // Two nodes of four ranks: only the two leaders cross the wire, so the
    // HCA carries their messages and nothing else.
    //
    // Allreduce: per 64 KiB segment the leaders swap halves twice — the
    // reduce-scatter, then the allgather. Block 0 holds the odd element.
    let count = 2 * (64 << 10) / 4 + 37;
    let mut want = 0;
    for off in (0..count).step_by((64 << 10) / 4) {
        let n = ((64 << 10) / 4).min(count - off);
        want += 2 * (wire_bytes((n - n / 2) * 4) + wire_bytes(n / 2 * 4));
    }
    let hca = reduction_checked(Topology::uniform(2, 4), CollAlgo::Hier, count, None);
    assert_eq!(hca, want, "hier device allreduce");

    // Alltoallv of strided device tiles: one aggregate per leader — every
    // block its node's ranks send the other node's — after a barrier whose
    // dissemination rounds cross the wire as empty eager messages.
    let (n, ppn, rows) = (8, 4, 3);
    let node = |r: usize| r / ppn;
    let agg = |x: usize| -> usize {
        let pairs = (0..n).flat_map(|s| (0..n).map(move |d| (s, d)));
        let out = pairs.filter(|&(s, d)| node(s) == x && node(d) != x);
        out.map(|(s, d)| ragged(s, d) * rows * 4).sum()
    };
    let crossing = |k: usize| (0..n).filter(|&r| node(r) != node((r + k) % n)).count() as u64;
    let barrier: u64 = [1, 2, 4].iter().map(|&k| crossing(k) * wire_bytes(0)).sum();
    let (_, hca) = a2a_checked(
        Topology::uniform(2, ppn),
        CollAlgo::Hier,
        (true, true),
        rows,
        ragged,
    );
    assert_eq!(
        hca,
        barrier + wire_bytes(agg(0)) + wire_bytes(agg(1)),
        "hier strided device alltoallv"
    );
}

#[test]
fn device_reductions_stage_in_place_at_any_count() {
    // No element, one, and 1 000 003 floats: not a multiple of any chunk,
    // and larger than the largest pipeline block and any pooled device
    // buffer — staged in place as one chunk all the same. Rank 3 is no
    // node leader, so a hierarchical reduce delivers on a member.
    for algo in [CollAlgo::Flat, CollAlgo::Hier] {
        for count in [0, 1, 1_000_003] {
            for root in [None, Some(3)] {
                reduction_checked(Topology::uniform(2, 2), algo, count, root);
            }
        }
    }
}

#[test]
fn hier_allreduce_on_uneven_placements() {
    // Device-buffer allreduce on 3 and on 5 nodes with mixed ppn: the
    // leader count is not a power of two, so the leaders' reduce-scatter +
    // allgather folds some of them in and out. Two segments and a ragged
    // third, integer-valued so every rank must hold the serial sum exactly;
    // the sanitizer must find nothing on the shared exchange buffer.
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

/// A reduction's element type: values are small integers, so every fold
/// is exact in each of them and the serial reference is one `i64` fold.
#[derive(Clone, Copy, Debug)]
enum Elem {
    F32,
    F64,
    I32,
}

impl Elem {
    fn dtype(self) -> Datatype {
        let dt = match self {
            Elem::F32 => Datatype::float(),
            Elem::F64 => Datatype::double(),
            Elem::I32 => Datatype::int(),
        };
        dt.commit();
        dt
    }

    fn pack(self, vals: &[i64]) -> Vec<u8> {
        match self {
            Elem::F32 => scalars_to_bytes(&vals.iter().map(|&v| v as f32).collect::<Vec<_>>()),
            Elem::F64 => scalars_to_bytes(&vals.iter().map(|&v| v as f64).collect::<Vec<_>>()),
            Elem::I32 => scalars_to_bytes(&vals.iter().map(|&v| v as i32).collect::<Vec<_>>()),
        }
    }
}

/// Element `k` of `rank`'s operand under `op`: a product stays within
/// ±2^ranks, anything else within ±8 per rank.
fn operand(op: ReduceOp, rank: usize, k: usize) -> i64 {
    match op {
        ReduceOp::Prod => [1, -1, 2][(rank * 5 + k) % 3],
        _ => term(rank, k) as i64,
    }
}

/// Whether rank `r`'s buffers live on its node's GPU.
type OnDevice = fn(usize) -> bool;

/// `calls` hierarchical allreduces of `count` elements of `elem` under `op`
/// on the placement `map` (rank → node), rank `r`'s buffers on its node's
/// GPU when `device(r)`, under the collecting sanitizer and traced into
/// `rec`. Every rank must hold the serial fold after every call, bit for
/// bit. Returns each rank's `reg_cache.miss` count after every call.
#[allow(clippy::too_many_arguments)]
fn hier_allreduce_checked(
    map: Vec<usize>,
    elem: Elem,
    op: ReduceOp,
    count: usize,
    device: OnDevice,
    calls: usize,
    rec: &Recorder,
) -> Vec<Vec<u64>> {
    let n = map.len();
    let mut cfg = MpiConfig::default();
    cfg.coll.algo = CollAlgo::Hier;
    let what = format!("{map:?} {elem:?} {op:?} count {count}");
    let want = {
        let fold = |a: i64, b: i64| match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        };
        let vals: Vec<i64> = (0..count)
            .map(|k| (1..n).fold(operand(op, 0, k), |a, r| fold(a, operand(op, r, k))))
            .collect();
        elem.pack(&vals)
    };
    let out = GpuCluster::new(n)
        .topology(Topology::from_map(map.clone()))
        .mpi_config(cfg)
        .recorder(rec.clone())
        .sanitizer(SanitizerMode::Collect)
        .try_run(move |env| {
            let me = env.comm.rank();
            let dt = elem.dtype();
            let mine: Vec<i64> = (0..count).map(|k| operand(op, me, k)).collect();
            let (mine, bytes) = (elem.pack(&mine), count * dt.size());
            let miss = format!("rank{me}.reg_cache.miss");
            (0..calls)
                .map(|_| {
                    let got = if device(me) {
                        let (send, recv) = (env.gpu.malloc(bytes), env.gpu.malloc(bytes));
                        env.gpu.write_bytes(send, &mine);
                        env.comm.allreduce(send, recv, count, &dt, op);
                        env.gpu.read_bytes(recv, bytes)
                    } else {
                        let (send, recv) = (HostBuf::from_vec(mine.clone()), HostBuf::alloc(bytes));
                        env.comm.allreduce(send.base(), recv.base(), count, &dt, op);
                        recv.read(0, bytes)
                    };
                    let misses = env.recorder.metrics().get(&miss).copied().unwrap_or(0);
                    (got, misses)
                })
                .collect::<Vec<_>>()
        });
    assert!(out.end.is_ok(), "{what}: {:?}", out.end);
    assert!(out.reports.is_empty(), "{what}: {:#?}", out.reports);
    let ranks = out.ranks.into_iter().enumerate();
    ranks
        .map(|(r, per_call)| {
            let misses = per_call.into_iter().map(|(got, misses)| {
                assert!(got == want, "{what}: rank {r} differs from the serial fold");
                misses
            });
            misses.collect()
        })
        .collect()
}

#[test]
fn hier_allreduce_fans_out_at_every_size_placement_and_residency() {
    let (all, none): (OnDevice, OnDevice) = (|_| true, |_| false);
    let (leaders, members): (OnDevice, OnDevice) = (|r| r % 4 == 0, |r| r % 4 != 0);
    let two_by_four = || vec![0, 0, 0, 0, 1, 1, 1, 1];
    let sum = (Elem::F32, ReduceOp::Sum);
    let mut cases = vec![
        // 8192 f32 is the shm eager limit exactly: the leader fans out the
        // host bytes it holds. One more element, and three segments with a
        // ragged 28 928-byte tail, fan out from the leader's recvbuf.
        (two_by_four(), sum, 8192, all),
        (two_by_four(), sum, 8193, all),
        (two_by_four(), sum, 40_000, all),
        // A one-rank node next to a three-rank one.
        (vec![0, 1, 1, 1], sum, 40_000, all),
        // Leaders on device with members on host, the reverse, all host.
        (two_by_four(), sum, 40_000, leaders),
        (two_by_four(), sum, 40_000, members),
        (two_by_four(), sum, 40_000, none),
    ];
    for elem in [Elem::F64, Elem::I32] {
        for op in [ReduceOp::Max, ReduceOp::Prod] {
            cases.push((two_by_four(), (elem, op), 20_000, all));
        }
    }
    for (map, (elem, op), count, device) in cases {
        hier_allreduce_checked(map, elem, op, count, device, 1, &Recorder::off());
    }
}

#[test]
fn hier_allreduce_lands_the_result_once_per_node_gpu() {
    // Two nodes of four ranks, two 64 KiB device allreduces: one segment
    // each. Per call and node, no payload crosses shm: the leader copies
    // its own slice and each member's D2H off the node's GPU (1 + 3 D2Hs),
    // the result reaches the GPU by one H2D into the leader's recvbuf, and
    // each member copies it device to device.
    let (count, calls) = ((64 << 10) / 4, 2u64);
    let rec = Recorder::new();
    let misses = hier_allreduce_checked(
        vec![0, 0, 0, 0, 1, 1, 1, 1],
        Elem::F32,
        ReduceOp::Sum,
        count,
        |_| true,
        calls as usize,
        &rec,
    );
    let ctrl = gpu_nc_repro::ib_sim::NetModel::qdr().ctrl_bytes as u64;
    let spans = sim_trace::analysis::spans(&rec);
    let count_spans = |scope: &str, lane: &str, name: Option<&str>| {
        let on = spans
            .iter()
            .filter(|s| s.scope == scope && s.lane_name == lane);
        on.filter(|s| name.is_none_or(|n| s.name == n)).count() as u64
    };
    let m = rec.metrics();
    for node in 0..2 {
        let scope = format!("node{node}");
        let shm = m[&format!("{scope}.shm.bytes")];
        let payload = shm - ctrl * count_spans(&scope, "shm", Some("ctrl"));
        assert_eq!(payload, 0, "node {node}: shm payload bytes");
        let gpu = format!("gpu{node}");
        assert_eq!(
            count_spans(&gpu, "d2h", None),
            calls * 4,
            "node {node}: contribution D2Hs"
        );
        assert_eq!(
            count_spans(&gpu, "h2d", None),
            calls,
            "node {node}: result H2Ds"
        );
        assert_eq!(
            count_spans(&gpu, "d2d", None),
            calls * 3,
            "node {node}: D2D copies"
        );
    }
    // The leaders' exchange buffer is registered on the first call only.
    for leader in [0, 4] {
        let m = &misses[leader];
        assert_eq!(
            m[1], m[0],
            "rank {leader}: the second call missed the registration cache"
        );
    }
}

/// Where one message's bytes went: its path (the receiver's `cts*` proto
/// instant: `_dev`, `_direct`, or empty for staged), the payload bytes that
/// crossed shm and the HCA (control packets excluded) and the `d2h` spans
/// on the receiver's lane.
#[derive(Debug, PartialEq)]
struct Moved {
    path: String,
    shm: u64,
    hca: u64,
    recv_d2h: usize,
}

/// Rank 1 sends `n` bytes to rank 0 at `ppn` ranks per node, under the
/// collecting sanitizer: from GPU memory when `dev_src`, else from host
/// memory, contiguous or every other byte (`strided_src`), into a host
/// receive that is contiguous or every other byte (`strided_recv`). The
/// sender rewrites its buffer as soon as its wait returns. The receive
/// must hold the serial bytes.
fn host_receive(
    ppn: usize,
    n: usize,
    (dev_src, strided_src): (bool, bool),
    strided_recv: bool,
) -> Moved {
    let rec = Recorder::new();
    let out = GpuCluster::new(2)
        .ppn(ppn)
        .recorder(rec.clone())
        .sanitizer(SanitizerMode::Collect)
        .try_run(move |env| {
            let layout = |strided: bool| {
                let t = if strided {
                    Datatype::vector(n, 1, 2, &Datatype::byte())
                } else {
                    Datatype::contiguous(n, &Datatype::byte())
                };
                t.commit();
                (t, if strided { 2 * n - 1 } else { n })
            };
            let byte = |i: usize| (i % 251) as u8 ^ 0x5A;
            if env.comm.rank() == 1 {
                let (t, ext) = layout(strided_src);
                let data: Vec<u8> = (0..ext).map(byte).collect();
                if dev_src {
                    let dev = env.gpu.malloc(ext);
                    env.gpu.write_bytes(dev, &data);
                    env.comm.send(dev, 1, &t, 0, 3);
                    env.gpu.memset(dev, 0xEE, ext);
                } else {
                    let host = HostBuf::from_vec(data);
                    env.comm.send(host.base(), 1, &t, 0, 3);
                    host.write(0, &vec![0xEE; ext]);
                }
                return true;
            }
            let (t, ext) = layout(strided_recv);
            let host = HostBuf::alloc(ext);
            env.comm.recv(host.base(), 1, &t, 1, 3);
            let stride = |strided| if strided { 2 } else { 1 };
            let mut want = vec![0u8; ext];
            for k in 0..n {
                want[k * stride(strided_recv)] = byte(k * stride(strided_src));
            }
            host.read(0, ext) == want
        });
    let what =
        format!("ppn {ppn}, {n} B, source {dev_src:?}/{strided_src:?}, recv {strided_recv:?}");
    assert!(out.end.is_ok(), "{what}: {:?}", out.end);
    assert!(out.reports.is_empty(), "{what}: {:#?}", out.reports);
    assert_eq!(out.ranks, vec![true, true], "{what}: bytes differ");
    let ctrl = gpu_nc_repro::ib_sim::NetModel::qdr().ctrl_bytes as u64;
    let spans = sim_trace::analysis::spans(&rec);
    let count = |scope: &str, lane: &str, name: Option<&str>| {
        let on = spans
            .iter()
            .filter(|s| s.scope == scope && s.lane_name == lane);
        on.filter(|s| name.is_none_or(|n| s.name == n)).count()
    };
    let m = rec.metrics();
    let nodes = 2 / ppn;
    let payload = |key: &str, lane: &str| -> u64 {
        let node = |k: usize| {
            let scope = format!("node{k}");
            let bytes = m.get(&format!("{scope}.{key}")).copied().unwrap_or(0);
            bytes - ctrl * count(&scope, lane, Some("ctrl")) as u64
        };
        (0..nodes).map(node).sum()
    };
    let proto = rec.lane("rank0", "proto", sim_trace::LaneKind::Proto).id();
    let path = rec.events().into_iter().find_map(|e| match e.kind {
        sim_trace::EventKind::Instant { name, .. } if e.lane == proto => name.strip_prefix("cts"),
        _ => None,
    });
    Moved {
        path: path.expect("a rendezvous").to_string(),
        shm: payload("shm.bytes", "shm"),
        hca: payload("hca.tx_bytes", "hca_tx"),
        recv_d2h: count("rank0", "d2h", None),
    }
}

#[test]
fn a_colocated_device_sender_is_copied_straight_into_a_host_receive() {
    // Two ranks on one GPU: a device message into a contiguous host
    // receive is one D2H the receiver issues from the sender's buffer (or
    // from the tbuf a strided one is packed into). No payload crosses shm.
    for n in [32_769, 64 << 10, 1 << 20] {
        for strided in [false, true] {
            let got = host_receive(2, n, (true, strided), false);
            let want = Moved {
                path: "_dev".into(),
                shm: 0,
                hca: 0,
                recv_d2h: 1,
            };
            assert_eq!(got, want, "{n} B, strided source {strided}");
        }
        // Controls: a strided host receive is staged over shm, the same
        // pair across two nodes is staged over the HCA, and a host pair is
        // one R-PUT over shm.
        let staged = |shm, hca| Moved {
            path: String::new(),
            shm,
            hca,
            recv_d2h: 0,
        };
        let n64 = n as u64;
        assert_eq!(host_receive(2, n, (true, false), true), staged(n64, 0));
        assert_eq!(host_receive(1, n, (true, false), false), staged(0, n64));
        let direct = Moved {
            path: "_direct".into(),
            ..staged(n64, 0)
        };
        assert_eq!(host_receive(2, n, (false, false), false), direct);
    }
}

/// What one side of a device message asked its GPU for: pitched copies
/// (`cudaMemcpy2DAsync`), contiguous copies (`cudaMemcpyAsync`),
/// `cudaMalloc`s, and operations on the device-internal (pack) engine.
#[derive(Debug, PartialEq)]
struct Calls {
    copy2d: u64,
    copy1d: u64,
    malloc: u64,
    d2d: u64,
}

/// One device message of `rows` rows of `width` bytes, `2 * width` apart,
/// from rank 1 to rank 0 on two nodes under `scheme` and a fixed `block`,
/// with the collecting sanitizer. The receive must hold the serial bytes
/// and leave the gaps between its rows alone. Returns the sender's and the
/// receiver's [`Calls`] for the message alone.
fn device_crossing(rows: usize, width: usize, scheme: SchemeSel, block: usize) -> [Calls; 2] {
    let cfg = MpiConfig {
        scheme,
        ..MpiConfig::default()
    };
    let out = GpuCluster::new(2)
        .mpi_config(cfg)
        .block_size(block)
        .sanitizer(SanitizerMode::Collect)
        .try_run(move |env| {
            let t = Datatype::vector(rows, width, 2 * width as isize, &Datatype::byte());
            t.commit();
            let extent = (2 * rows - 1) * width;
            let pattern: Vec<u8> = (0..extent).map(|i| (i % 253) as u8 ^ 0x3C).collect();
            let dev = env.gpu.malloc(extent);
            let sender = env.comm.rank() == 1;
            env.gpu.write_bytes(
                dev,
                &if sender {
                    pattern.clone()
                } else {
                    vec![0xEE; extent]
                },
            );
            let names = ["cudaMemcpy2DAsync", "cudaMemcpyAsync", "cudaMalloc"];
            let tally = || {
                let [copy2d, copy1d, malloc] = names.map(|n| env.gpu.counters().get(n));
                let d2d = env.gpu.engines()[2].ops();
                Calls {
                    copy2d,
                    copy1d,
                    malloc,
                    d2d,
                }
            };
            let before = tally();
            if sender {
                env.comm.send(dev, 1, &t, 0, 5);
            } else {
                env.comm.recv(dev, 1, &t, 1, 5);
                let want: Vec<u8> = (0..extent)
                    .map(|i| {
                        if (i / width).is_multiple_of(2) {
                            pattern[i]
                        } else {
                            0xEE
                        }
                    })
                    .collect();
                assert!(env.gpu.read_bytes(dev, extent) == want, "bytes differ");
            }
            let after = tally();
            Calls {
                copy2d: after.copy2d - before.copy2d,
                copy1d: after.copy1d - before.copy1d,
                malloc: after.malloc - before.malloc,
                d2d: after.d2d - before.d2d,
            }
        });
    let what = format!("{rows} rows of {width} B under {scheme:?}, block {block}");
    assert!(out.end.is_ok(), "{what}: {:?}", out.end);
    assert!(out.reports.is_empty(), "{what}: {:#?}", out.reports);
    let [receiver, sender]: [Calls; 2] = out.ranks.try_into().expect("two ranks");
    [sender, receiver]
}

/// One pitched copy per side: no pack, no tbuf.
const PITCHED: Calls = Calls {
    copy2d: 1,
    copy1d: 0,
    malloc: 0,
    d2d: 0,
};

/// `chunks` chunks of the paper's pipeline: one 2-D pack or unpack and one
/// contiguous PCIe copy each, around one tbuf.
const fn packed(chunks: u64) -> Calls {
    Calls {
        copy2d: chunks,
        copy1d: chunks,
        malloc: 1,
        d2d: chunks,
    }
}

#[test]
fn a_few_wide_rows_cross_pcie_in_one_pitched_copy() {
    // A halo i-face, 16 rows of 64 B, is eager: the default prices its
    // crossing and each side moves it in one pitched copy; the paper's
    // pinned scheme packs it as before.
    let (face, block) = ((16, 64), 64 << 10);
    let staged = SchemeSel::Force(DataScheme::Staged);
    let auto = SchemeSel::default();
    assert_eq!(
        device_crossing(face.0, face.1, auto, block),
        [PITCHED, PITCHED]
    );
    assert_eq!(
        device_crossing(face.0, face.1, staged, block),
        [packed(1), packed(1)]
    );
}

#[test]
fn the_paper_vector_and_a_pipelined_transfer_stay_packed() {
    let (auto, block) = (SchemeSel::default(), 64 << 10);
    // A 4 KiB vector of 4-byte rows (1 024 rows, eager) prices pack + copy
    // below one pitched copy of its rows.
    assert_eq!(
        device_crossing(1024, 4, auto, block),
        [packed(1), packed(1)]
    );
    // 16 rows of 4 KiB: one chunk crosses pitched; twice the rows in two
    // chunks keep the pipeline, whose stages overlap.
    assert_eq!(device_crossing(16, 4096, auto, block), [PITCHED, PITCHED]);
    assert_eq!(
        device_crossing(32, 4096, auto, block),
        [packed(2), packed(2)]
    );
}

#[test]
fn a_wake_that_matures_during_a_progress_pass_is_not_lost() {
    // A progress pass advances virtual time itself (device submit sleeps,
    // host copies), so an event can mature during a pass, after the step
    // that would consume it, and `next_event` reports only future
    // instants. Rank 0's device self-send has such a chunk while a
    // co-located device sender streams into it: `waitall` must run another
    // pass instead of parking with nothing to wake it. Sizes from just
    // over one 32 KiB chunk to just over two, on one node, hit it. That
    // stream is the staged pipeline's, which the default selection no
    // longer takes for a device sender into a contiguous host receive on
    // its GPU (one D2H instead): forcing it keeps the guarded path.
    let schemes = [SchemeSel::default(), SchemeSel::Force(DataScheme::Staged)];
    let runs = schemes.map(|sel| [32_769, 40_000, 65_537].map(|n| (sel, n)));
    for (sel, n) in runs.into_iter().flatten() {
        // The configuration first: `mpi_config` replaces the whole of it,
        // ranks per node included.
        let cfg = MpiConfig {
            scheme: sel,
            ..MpiConfig::default()
        };
        let out = GpuCluster::new(2)
            .mpi_config(cfg)
            .ppn(2)
            .try_run(move |env| {
                let byte = Datatype::byte();
                byte.commit();
                let me = env.comm.rank();
                let fill = |r: usize| (0..n).map(|i| (i % 251 + r) as u8).collect::<Vec<u8>>();
                let dev = env.gpu.malloc(n);
                env.gpu.write_bytes(dev, &fill(me));
                if me == 1 {
                    env.comm.wait(env.comm.isend(dev, n, &byte, 0, 5));
                    return true;
                }
                let (peer, own) = (HostBuf::alloc(n), HostBuf::alloc(n));
                env.comm.waitall(vec![
                    env.comm.irecv(peer.base(), n, &byte, 1, 5),
                    env.comm.irecv(own.base(), n, &byte, 0, 6),
                    env.comm.isend(dev, n, &byte, 0, 6),
                ]);
                peer.read(0, n) == fill(1) && own.read(0, n) == fill(0)
            });
        assert!(out.end.is_ok(), "{sel:?}, N = {n}: {:?}", out.end);
        assert_eq!(
            out.ranks,
            vec![true, true],
            "{sel:?}, N = {n}: bytes differ"
        );
    }
}

/// The value of packed int `k` of the block rank `src` sends rank `dst`.
fn a2a_value(src: usize, dst: usize, k: usize) -> i32 {
    (src * 1_000_000 + dst * 1_000 + k) as i32
}

/// One `alltoallv` on `topo` under `algo` under the collecting sanitizer:
/// rank `r` sends rank `j` `cnt(r, j)` tiles of `rows` ints (one int every
/// two, or plain ints when `rows` is 1), out of device memory when `dev.0`
/// and into device memory when `dev.1`. Blocks are one int apart and the
/// receive buffer starts as -1, so every hole must come back untouched.
/// Checks every rank's receive buffer against the serial reference and
/// returns the slowest rank's time in the call and the run's HCA tx bytes.
fn a2a_checked(
    topo: Topology,
    algo: CollAlgo,
    dev: (bool, bool),
    rows: usize,
    cnt: impl Fn(usize, usize) -> usize + Copy + Send + Sync + 'static,
) -> (sim_core::SimDur, u64) {
    a2a_observed(topo, algo, dev, rows, cnt, Arc::new(FifoScheduler))
}

/// [`a2a_checked`] with `sched` shown every control packet.
fn a2a_observed(
    topo: Topology,
    algo: CollAlgo,
    dev: (bool, bool),
    rows: usize,
    cnt: impl Fn(usize, usize) -> usize + Copy + Send + Sync + 'static,
    sched: Arc<dyn DeliveryScheduler>,
) -> (sim_core::SimDur, u64) {
    let n = topo.num_ranks();
    let rec = Recorder::new();
    let mut cfg = MpiConfig::default();
    cfg.coll.algo = algo;
    // Ints from the tile start, and from one tile to the next.
    let (step, ext) = if rows == 1 { (1, 1) } else { (2, 2 * rows - 1) };
    // Int offset of every block, and the buffer's length in ints.
    let layout = move |c: &dyn Fn(usize) -> usize| {
        let mut at = Vec::with_capacity(n);
        let mut off = 0;
        for j in 0..n {
            at.push(off);
            off += c(j) * ext + 1;
        }
        (at, off)
    };
    // The buffer holding `blocks` at `at`: block j's packed int k sits at
    // tile k / rows, row k % rows.
    let place = move |at: &[usize], len: usize, blocks: &dyn Fn(usize, usize) -> Option<i32>| {
        let mut buf = vec![-1i32; len];
        for (j, &base) in at.iter().enumerate() {
            let mut k = 0;
            while let Some(v) = blocks(j, k) {
                buf[base + (k / rows) * ext + (k % rows) * step] = v;
                k += 1;
            }
        }
        buf
    };
    let out = GpuCluster::new(n)
        .topology(topo)
        .mpi_config(cfg)
        .recorder(rec.clone())
        .sanitizer(SanitizerMode::Collect)
        .scheduler(sched)
        .try_run(move |env| {
            let me = env.comm.rank();
            let int = Datatype::int();
            let tile = if rows == 1 {
                int
            } else {
                Datatype::vector(rows, 1, 2, &int)
            };
            tile.commit();
            let (sat, slen) = layout(&|j| cnt(me, j));
            let (rat, rlen) = layout(&|j| cnt(j, me));
            let packed =
                |s: usize, d: usize, k: usize| (k < cnt(s, d) * rows).then(|| a2a_value(s, d, k));
            let send = scalars_to_bytes(&place(&sat, slen, &|j, k| packed(me, j, k)));
            let init = scalars_to_bytes(&vec![-1i32; rlen]);
            let bytes = |at: &[usize]| at.iter().map(|o| o * 4).collect::<Vec<_>>();
            let (sdispls, rdispls) = (bytes(&sat), bytes(&rat));
            let scounts: Vec<usize> = (0..n).map(|j| cnt(me, j)).collect();
            let rcounts: Vec<usize> = (0..n).map(|j| cnt(j, me)).collect();
            let (shost, rhost) = (HostBuf::from_vec(send.clone()), HostBuf::from_vec(init));
            let sbuf: gpu_sim::Loc = if dev.0 {
                let d = env.gpu.malloc(send.len());
                env.gpu.write_bytes(d, &send);
                d.into()
            } else {
                shost.base().into()
            };
            let rbuf: gpu_sim::Loc = if dev.1 {
                let d = env.gpu.malloc(rlen * 4);
                env.gpu.write_bytes(d, &vec![0xff; rlen * 4]);
                d.into()
            } else {
                rhost.base().into()
            };
            env.comm.barrier();
            let t0 = sim_core::now();
            env.comm.alltoallv(
                sbuf,
                &scounts,
                &sdispls,
                &tile,
                rbuf.clone(),
                &rcounts,
                &rdispls,
                &tile,
            );
            let took = sim_core::now() - t0;
            let got = match rbuf {
                gpu_sim::Loc::Device(d) => env.gpu.read_bytes(d, rlen * 4),
                gpu_sim::Loc::Host(_) => rhost.read(0, rlen * 4),
            };
            let want = place(&rat, rlen, &|j, k| packed(j, me, k));
            (bytes_to_scalars::<i32>(&got) == want, took)
        });
    assert!(out.end.is_ok(), "{algo:?} {dev:?}: {:?}", out.end);
    assert!(
        out.reports.is_empty(),
        "{algo:?} {dev:?}: {:#?}",
        out.reports
    );
    for (r, (ok, _)) in out.ranks.iter().enumerate() {
        assert!(
            ok,
            "{algo:?} {dev:?}: rank {r} differs from the serial reference"
        );
    }
    let slowest = out.ranks.iter().map(|&(_, t)| t).max().unwrap();
    (slowest, hca_tx_bytes(&rec))
}

/// Ragged, nonzero per-pair tile counts.
fn ragged(src: usize, dst: usize) -> usize {
    1 + (src * 5 + dst * 3) % 7
}

/// `(case, slowest rank's ns inside the call, HCA tx bytes)` for every
/// hierarchical alltoallv the three tests below run, captured before the
/// alltoallv was rewritten around the leader's per-member byte-count rows.
/// `scripts/ci.sh`'s `coll_256` smoke pin is the only other number that
/// watches the timing of a device or derived-type alltoallv. To re-capture
/// on purpose, run the three tests: each failure message is its rows of
/// the new table.
const PINNED_A2A: &[(&str, u64, u64)] = &[
    ("uneven map 0 (false, false) rows 1", 7349, 2000),
    ("uneven map 0 (false, false) rows 3", 9076, 3184),
    ("uneven map 0 (true, true) rows 1", 143644, 2000),
    ("uneven map 0 (true, true) rows 3", 144712, 3184),
    ("uneven map 1 (false, false) rows 1", 8601, 3872),
    ("uneven map 1 (false, false) rows 3", 10609, 6112),
    ("uneven map 1 (true, true) rows 1", 143167, 3872),
    ("uneven map 1 (true, true) rows 3", 144610, 6112),
    ("sparse (false, false) rows 1", 7242, 1896),
    ("sparse (true, true) rows 1", 181337, 1896),
    ("sparse (true, true) rows 2", 181718, 2384),
    ("mixed (false, true)", 106789, 3872),
    ("mixed (true, false)", 105664, 3872),
];

/// [`a2a_checked`] under `CollAlgo::Hier`, as a row of [`PINNED_A2A`].
fn a2a_row(
    case: String,
    map: &[usize],
    dev: (bool, bool),
    rows: usize,
    cnt: impl Fn(usize, usize) -> usize + Copy + Send + Sync + 'static,
) -> (String, u64, u64) {
    let topo = Topology::from_map(map.to_vec());
    let (took, hca) = a2a_checked(topo, CollAlgo::Hier, dev, rows, cnt);
    (case, took.as_nanos(), hca)
}

fn assert_a2a_pinned(got: &[(String, u64, u64)]) {
    let pinned = |case: &str| PINNED_A2A.iter().find(|p| p.0 == case);
    let table: String = got
        .iter()
        .map(|(case, ns, hca)| format!("    (\"{case}\", {ns}, {hca}),\n"))
        .collect();
    assert!(
        got.iter()
            .all(|(case, ns, hca)| pinned(case) == Some(&(case.as_str(), *ns, *hca))),
        "a hier alltoallv's virtual time or HCA bytes moved; its rows are now\n{table}"
    );
}

#[test]
fn hier_alltoallv_on_uneven_placements() {
    // Mixed ppn, a node of one rank (its rank is its own leader with no
    // members), and an interleaved map whose node groups are not runs of
    // consecutive ranks; host and device buffers, contiguous and strided.
    // A leader packs and unpacks its own strided stream in place, on the
    // CPU for host buffers.
    let maps = [
        vec![0, 0, 0, 1, 2, 2, 2, 2],
        vec![0, 1, 0, 2, 2, 0, 3, 2, 3, 2],
    ];
    let cases = [
        ((false, false), 1),
        ((false, false), 3),
        ((true, true), 1),
        ((true, true), 3),
    ];
    let mut got = Vec::new();
    for (m, map) in maps.iter().enumerate() {
        for (dev, rows) in cases {
            let case = format!("uneven map {m} {dev:?} rows {rows}");
            got.push(a2a_row(case, map, dev, rows, ragged));
        }
    }
    assert_a2a_pinned(&got);
}

#[test]
fn hier_alltoallv_with_empty_intra_node_and_self_blocks() {
    // No self block anywhere, every other co-located pair empty, and rank
    // 3 (alone on its node) sends nothing at all.
    let map = [0, 0, 0, 1, 2, 2, 2, 2];
    let sparse = move |s: usize, d: usize| {
        let empty = s == d || s == 3 || (map[s] == map[d] && (s + d).is_multiple_of(2));
        if empty {
            0
        } else {
            ragged(s, d)
        }
    };
    let got: Vec<_> = [((false, false), 1), ((true, true), 1), ((true, true), 2)]
        .into_iter()
        .map(|(dev, rows)| {
            let case = format!("sparse {dev:?} rows {rows}");
            a2a_row(case, &map, dev, rows, sparse)
        })
        .collect();
    assert_a2a_pinned(&got);
}

#[test]
fn hier_alltoallv_across_residencies() {
    // Host ints on one side and device memory on the other, both ways: a
    // leader gathers its own node's blocks out of (or scatters them into)
    // the host side with plain copies and runs the device side through the
    // pack pipeline.
    let map = [0, 1, 0, 2, 2, 0, 3, 2, 3, 2];
    let got: Vec<_> = [(false, true), (true, false)]
        .into_iter()
        .map(|dev| a2a_row(format!("mixed {dev:?}"), &map, dev, 1, ragged))
        .collect();
    assert_a2a_pinned(&got);
}

#[test]
fn hier_alltoallv_of_small_device_tiles_beats_flat() {
    // 16 ranks at ppn 4, one strided 128-byte device tile per pair: every
    // co-located peer the hierarchy sends to directly costs a member a
    // pack, a D2H, an H2D and an unpack on the shared GPU. Routing those
    // blocks through the leader measures hier/flat = 0.13 here; the
    // pairwise intra-node exchange measured 0.39. The bound sits halfway.
    let time = |algo| {
        let (took, _) = a2a_checked(Topology::uniform(4, 4), algo, (true, true), 32, |_, _| 1);
        took.as_nanos() as f64
    };
    let (hier, flat) = (time(CollAlgo::Hier), time(CollAlgo::Flat));
    assert!(
        hier <= 0.26 * flat,
        "hier alltoallv took {hier} ns, flat {flat} ns: more than 0.26x"
    );
}

/// Counts, per sending rank, the rendezvous sends that cross the wire: one
/// RTS each.
#[derive(Default)]
struct WireSends(Mutex<Vec<usize>>);

impl DeliveryScheduler for WireSends {
    fn on_ctrl(&self, p: &CtrlPoint<'_>) -> CtrlAction {
        if !p.shm && packet_kind(p.payload) == Some("Rts") {
            let mut sends = self.0.lock().unwrap();
            if sends.len() <= p.src {
                sends.resize(p.src + 1, 0);
            }
            sends[p.src] += 1;
        }
        CtrlAction::Deliver
    }
}

#[test]
fn hier_alltoallv_splits_the_wire_over_priced_leads() {
    // 16 nodes of 4, 2 and 1 ranks, placed round-robin: at 16 nodes they
    // price to 3, 2 and 1 leads, so every pairing of lead counts meets on
    // the wire. Every pair's block is past the eager limit, so each
    // aggregate a lead sends over the HCA announces itself with one RTS.
    let sizes: Vec<usize> = (0..16).map(|x| [4, 2, 1][x % 3]).collect();
    let leads = |x: usize| [3, 2, 1][x % 3];
    let map: Vec<usize> = (0..4)
        .flat_map(|round| (0..16).filter(move |&x| round < [4, 2, 1][x % 3]))
        .collect();
    let nn = sizes.len();
    for (dev, rows) in [
        ((false, false), 1),
        ((false, false), 3),
        ((true, true), 1),
        ((true, true), 3),
    ] {
        let sends = Arc::new(WireSends::default());
        let big = move |s: usize, d: usize| 8192 / (4 * rows) + ragged(s, d);
        let topo = Topology::from_map(map.clone());
        a2a_observed(topo, CollAlgo::Hier, dev, rows, big, sends.clone());
        let mut sends = sends.0.lock().unwrap().clone();
        sends.resize(map.len(), 0);
        for x in 0..nn {
            let ranks: Vec<usize> = (0..map.len()).filter(|&r| map[r] == x).collect();
            // Lead i serves the run of nodes y with y·K/nn == i, its own
            // node too: at most ⌈nn/K⌉ aggregates over the wire.
            let k = leads(x);
            let served = |i: usize| (0..nn).filter(|&y| y != x && y * k / nn == i).count();
            let what = format!("{dev:?} rows {rows}, node {x} of {} ranks", ranks.len());
            for (i, &r) in ranks.iter().enumerate() {
                let want = if i < k { served(i) } else { 0 };
                assert!(want <= nn.div_ceil(k), "{what}: lead {i} serves {want}");
                assert_eq!(sends[r], want, "{what}: rank {r}, local rank {i}");
            }
        }
    }
    // Eager aggregates of ragged strided device tiles on the same world.
    let topo = Topology::from_map(map.clone());
    a2a_checked(topo, CollAlgo::Hier, (true, true), 3, ragged);
}
