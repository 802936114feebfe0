use super::*;
use crate::proto::{CollAlgo, MpiConfig};
use crate::world::MpiWorld;
use hostmem::{bytes_to_scalars, scalars_to_bytes};

/// A world with `n` ranks packed `ppn` per node and a forced collective
/// algorithm family — the test matrix axis.
fn world(n: usize, ppn: usize, algo: CollAlgo) -> MpiWorld {
    let mut cfg = MpiConfig {
        ppn,
        ..MpiConfig::default()
    };
    cfg.coll.algo = algo;
    MpiWorld::new(n).with_config(cfg)
}

const ALGOS: [CollAlgo; 3] = [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier];

#[test]
fn bcast_reaches_every_rank() {
    MpiWorld::new(6).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let buf = HostBuf::alloc(40);
        if comm.rank() == 2 {
            buf.write(0, &scalars_to_bytes(&(0..10).collect::<Vec<i32>>()));
        }
        comm.bcast(buf.base(), 10, &t, 2);
        assert_eq!(
            bytes_to_scalars::<i32>(&buf.read(0, 40)),
            (0..10).collect::<Vec<_>>(),
            "rank {}",
            comm.rank()
        );
    });
}

#[test]
fn bcast_large_rendezvous_payload() {
    MpiWorld::new(4).run(|comm| {
        let t = Datatype::byte();
        t.commit();
        let n = 300 << 10;
        let buf = HostBuf::alloc(n);
        if comm.rank() == 0 {
            buf.write(0, &vec![0xabu8; n]);
        }
        comm.bcast(buf.base(), n, &t, 0);
        assert_eq!(buf.read(n - 16, 16), vec![0xabu8; 16]);
    });
}

#[test]
fn gather_assembles_blocks_in_rank_order() {
    MpiWorld::new(4).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let me = comm.rank() as i32;
        let send = HostBuf::from_vec(scalars_to_bytes(&[me * 10, me * 10 + 1]));
        let recv = HostBuf::alloc(4 * 8);
        comm.gather(send.base(), recv.base(), 2, &t, 1);
        if comm.rank() == 1 {
            assert_eq!(
                bytes_to_scalars::<i32>(&recv.read(0, 32)),
                vec![0, 1, 10, 11, 20, 21, 30, 31]
            );
        }
    });
}

#[test]
fn allgather_gives_everyone_everything() {
    MpiWorld::new(3).run(|comm| {
        let t = Datatype::double();
        t.commit();
        let me = comm.rank() as f64;
        let send = HostBuf::from_vec(scalars_to_bytes(&[me + 0.5]));
        let recv = HostBuf::alloc(3 * 8);
        comm.allgather(send.base(), recv.base(), 1, &t);
        assert_eq!(
            bytes_to_scalars::<f64>(&recv.read(0, 24)),
            vec![0.5, 1.5, 2.5]
        );
    });
}

#[test]
fn reduce_sum_and_max() {
    MpiWorld::new(5).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let me = comm.rank() as i32;
        let send = HostBuf::from_vec(scalars_to_bytes(&[me, 100 - me]));
        let recv = HostBuf::alloc(8);
        comm.reduce(send.base(), recv.base(), 2, &t, ReduceOp::Sum, 0);
        if comm.rank() == 0 {
            assert_eq!(
                bytes_to_scalars::<i32>(&recv.read(0, 8)),
                vec![1 + 2 + 3 + 4, 100 + 99 + 98 + 97 + 96]
            );
        }
        comm.reduce(send.base(), recv.base(), 2, &t, ReduceOp::Max, 3);
        if comm.rank() == 3 {
            assert_eq!(bytes_to_scalars::<i32>(&recv.read(0, 8)), vec![4, 100]);
        }
    });
}

#[test]
fn allreduce_min_on_doubles() {
    MpiWorld::new(4).run(|comm| {
        let t = Datatype::double();
        t.commit();
        let me = comm.rank() as f64;
        let send = HostBuf::from_vec(scalars_to_bytes(&[me * 2.0 + 1.0]));
        let recv = HostBuf::alloc(8);
        comm.allreduce(send.base(), recv.base(), 1, &t, ReduceOp::Min);
        assert_eq!(bytes_to_scalars::<f64>(&recv.read(0, 8)), vec![1.0]);
    });
}

#[test]
fn scatter_distributes_root_blocks() {
    MpiWorld::new(4).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let send = HostBuf::alloc(4 * 8);
        if comm.rank() == 2 {
            send.write(0, &scalars_to_bytes(&(0..8).collect::<Vec<i32>>()));
        }
        let recv = HostBuf::alloc(8);
        comm.scatter(send.base(), recv.base(), 2, &t, 2);
        let me = comm.rank() as i32;
        assert_eq!(
            bytes_to_scalars::<i32>(&recv.read(0, 8)),
            vec![me * 2, me * 2 + 1]
        );
    });
}

#[test]
fn alltoall_transposes_blocks() {
    // Including a non-power-of-two size.
    for n in [3usize, 4] {
        MpiWorld::new(n).run(move |comm| {
            let t = Datatype::int();
            t.commit();
            let me = comm.rank() as i32;
            let send = HostBuf::from_vec(scalars_to_bytes(
                &(0..n as i32).map(|j| me * 100 + j).collect::<Vec<_>>(),
            ));
            let recv = HostBuf::alloc(n * 4);
            comm.alltoall(send.base(), recv.base(), 1, &t);
            assert_eq!(
                bytes_to_scalars::<i32>(&recv.read(0, n * 4)),
                (0..n as i32).map(|j| j * 100 + me).collect::<Vec<_>>(),
                "rank {me} of {n}"
            );
        });
    }
}

#[test]
fn scatter_then_gather_is_identity() {
    MpiWorld::new(4).run(|comm| {
        let t = Datatype::double();
        t.commit();
        let data: Vec<f64> = (0..12).map(|i| i as f64 * 0.5).collect();
        let root_buf = HostBuf::alloc(12 * 8);
        if comm.rank() == 0 {
            root_buf.write(0, &scalars_to_bytes(&data));
        }
        let mine = HostBuf::alloc(3 * 8);
        comm.scatter(root_buf.base(), mine.base(), 3, &t, 0);
        let out = HostBuf::alloc(12 * 8);
        comm.gather(mine.base(), out.base(), 3, &t, 0);
        if comm.rank() == 0 {
            assert_eq!(bytes_to_scalars::<f64>(&out.read(0, 96)), data);
        }
    });
}

#[test]
fn sendrecv_exchanges_without_deadlock() {
    MpiWorld::new(2).run(|comm| {
        let t = Datatype::byte();
        t.commit();
        let me = comm.rank();
        let peer = 1 - me;
        // Large enough that a naive send+send would rendezvous-block.
        let n = 200 << 10;
        let out = HostBuf::from_vec(vec![me as u8 + 1; n]);
        let inb = HostBuf::alloc(n);
        let st = comm.sendrecv(out.base(), n, &t, peer, 0, inb.base(), n, &t, peer, 0u32);
        assert_eq!(st.bytes, n);
        assert_eq!(inb.read(0, 8), vec![peer as u8 + 1; 8]);
    });
}

#[test]
fn consecutive_collectives_do_not_cross_talk() {
    MpiWorld::new(3).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let a = HostBuf::alloc(4);
        let b = HostBuf::alloc(4);
        if comm.rank() == 0 {
            a.write(0, &scalars_to_bytes(&[111i32]));
            b.write(0, &scalars_to_bytes(&[222i32]));
        }
        comm.bcast(a.base(), 1, &t, 0);
        comm.bcast(b.base(), 1, &t, 0);
        assert_eq!(bytes_to_scalars::<i32>(&a.read(0, 4)), vec![111]);
        assert_eq!(bytes_to_scalars::<i32>(&b.read(0, 4)), vec![222]);
    });
}

#[test]
#[should_panic(expected = "reductions are defined on primitive")]
fn reduce_on_derived_type_is_rejected() {
    MpiWorld::new(2).run(|comm| {
        let t = Datatype::vector(2, 1, 2, &Datatype::int());
        t.commit();
        let buf = HostBuf::alloc(64);
        comm.reduce(buf.base(), buf.base(), 1, &t, ReduceOp::Sum, 0);
    });
}

// --- algorithm-family matrix ---------------------------------------------

/// Every family, flat and multi-node-with-shm layouts, non-power-of-two
/// sizes and non-leader roots: all collectives must produce identical
/// values.
#[test]
fn all_families_agree_on_all_collectives() {
    for algo in ALGOS {
        for (n, ppn) in [(6usize, 1usize), (8, 4), (6, 3), (9, 3), (8, 8)] {
            world(n, ppn, algo).run(move |comm| {
                let t = Datatype::int();
                t.commit();
                let me = comm.rank() as i32;
                let nn = n as i32;
                let root = n - 1; // last rank: never a node leader when ppn > 1

                // bcast
                let b = HostBuf::from_vec(scalars_to_bytes(&[if comm.rank() == root {
                    4242
                } else {
                    -1
                }]));
                comm.bcast(b.base(), 1, &t, root);
                assert_eq!(bytes_to_scalars::<i32>(&b.read(0, 4)), vec![4242]);

                // gather / scatter
                let send = HostBuf::from_vec(scalars_to_bytes(&[me, me + 1000]));
                let recv = HostBuf::alloc(n * 8);
                comm.gather(send.base(), recv.base(), 2, &t, root);
                if comm.rank() == root {
                    let got = bytes_to_scalars::<i32>(&recv.read(0, n * 8));
                    let want: Vec<i32> = (0..nn).flat_map(|i| [i, i + 1000]).collect();
                    assert_eq!(got, want, "gather {algo:?} n={n} ppn={ppn}");
                }
                let back = HostBuf::alloc(8);
                comm.scatter(recv.base(), back.base(), 2, &t, root);
                assert_eq!(
                    bytes_to_scalars::<i32>(&back.read(0, 8)),
                    vec![me, me + 1000],
                    "scatter {algo:?} n={n} ppn={ppn}"
                );

                // allgather
                let all = HostBuf::alloc(n * 8);
                comm.allgather(send.base(), all.base(), 2, &t);
                let want: Vec<i32> = (0..nn).flat_map(|i| [i, i + 1000]).collect();
                assert_eq!(
                    bytes_to_scalars::<i32>(&all.read(0, n * 8)),
                    want,
                    "allgather {algo:?} n={n} ppn={ppn}"
                );

                // alltoall
                let a2a_s = HostBuf::from_vec(scalars_to_bytes(
                    &(0..nn).map(|j| me * 100 + j).collect::<Vec<_>>(),
                ));
                let a2a_r = HostBuf::alloc(n * 4);
                comm.alltoall(a2a_s.base(), a2a_r.base(), 1, &t);
                assert_eq!(
                    bytes_to_scalars::<i32>(&a2a_r.read(0, n * 4)),
                    (0..nn).map(|j| j * 100 + me).collect::<Vec<_>>(),
                    "alltoall {algo:?} n={n} ppn={ppn}"
                );

                // reduce + allreduce
                let r = HostBuf::alloc(8);
                comm.reduce(send.base(), r.base(), 2, &t, ReduceOp::Sum, root);
                if comm.rank() == root {
                    let s: i32 = (0..nn).sum();
                    assert_eq!(
                        bytes_to_scalars::<i32>(&r.read(0, 8)),
                        vec![s, s + 1000 * nn],
                        "reduce {algo:?} n={n} ppn={ppn}"
                    );
                }
                comm.allreduce(send.base(), r.base(), 2, &t, ReduceOp::Max);
                assert_eq!(
                    bytes_to_scalars::<i32>(&r.read(0, 8)),
                    vec![nn - 1, nn - 1 + 1000],
                    "allreduce {algo:?} n={n} ppn={ppn}"
                );
            });
        }
    }
}

/// A pipelined hierarchical allreduce spanning many [`PIPELINE_CHUNK`]
/// segments must still fold every element exactly once.
#[test]
fn pipelined_allreduce_spans_many_segments() {
    world(8, 4, CollAlgo::Hier).run(|comm| {
        let t = Datatype::float();
        t.commit();
        let n = 32 * PIPELINE_CHUNK / 4; // 32 segments of f32
        let me = comm.rank() as f32;
        let vals: Vec<f32> = (0..n).map(|i| (i % 97) as f32 + me).collect();
        let send = HostBuf::from_vec(scalars_to_bytes(&vals));
        let recv = HostBuf::alloc(n * 4);
        comm.allreduce(send.base(), recv.base(), n, &t, ReduceOp::Sum);
        // Integer-valued f32 sums are exact in any fold order.
        let got = bytes_to_scalars::<f32>(&recv.read(0, n * 4));
        for (i, &g) in got.iter().enumerate() {
            let want = 8.0 * (i % 97) as f32 + (0..8).map(|r| r as f32).sum::<f32>();
            assert_eq!(g, want, "element {i}");
        }
    });
}

/// allgatherv with ragged counts and gaps between displacements, on both
/// single-level and hierarchical layouts.
#[test]
fn allgatherv_with_ragged_counts() {
    for algo in [CollAlgo::Flat, CollAlgo::Hier] {
        for ppn in [1usize, 3] {
            world(6, ppn, algo).run(move |comm| {
                let t = Datatype::int();
                t.commit();
                let me = comm.rank();
                // Rank j contributes j+1 ints; blocks placed with an
                // 8-byte gap between them.
                let counts: Vec<usize> = (0..6).map(|j| j + 1).collect();
                let displs: Vec<usize> = counts
                    .iter()
                    .scan(0usize, |acc, &c| {
                        let d = *acc;
                        *acc += c * 4 + 8;
                        Some(d)
                    })
                    .collect();
                let total = displs[5] + counts[5] * 4;
                let mine: Vec<i32> = (0..counts[me]).map(|k| (me * 100 + k) as i32).collect();
                let send = HostBuf::from_vec(scalars_to_bytes(&mine));
                let recv = HostBuf::alloc(total);
                comm.allgatherv(
                    send.base(),
                    counts[me],
                    &t,
                    recv.base(),
                    &counts,
                    &displs,
                    &t,
                );
                for j in 0..6 {
                    let got = bytes_to_scalars::<i32>(&recv.read(displs[j], counts[j] * 4));
                    let want: Vec<i32> = (0..counts[j]).map(|k| (j * 100 + k) as i32).collect();
                    assert_eq!(got, want, "{algo:?} ppn={ppn} block {j}");
                }
            });
        }
    }
}

/// alltoallv with ragged per-pair counts (rank i sends i+j+1 ints to rank
/// j), on both single-level and hierarchical layouts.
#[test]
fn alltoallv_with_ragged_counts() {
    for algo in [CollAlgo::Flat, CollAlgo::Hier] {
        for ppn in [1usize, 2, 3] {
            world(6, ppn, algo).run(move |comm| {
                let t = Datatype::int();
                t.commit();
                let me = comm.rank();
                let n = 6usize;
                let cnt = |i: usize, j: usize| i + j + 1;
                let scounts: Vec<usize> = (0..n).map(|j| cnt(me, j)).collect();
                let rcounts: Vec<usize> = (0..n).map(|j| cnt(j, me)).collect();
                let prefix = |cs: &[usize]| -> Vec<usize> {
                    cs.iter()
                        .scan(0usize, |acc, &c| {
                            let d = *acc;
                            *acc += c * 4;
                            Some(d)
                        })
                        .collect()
                };
                let sdispls = prefix(&scounts);
                let rdispls = prefix(&rcounts);
                let stotal: usize = scounts.iter().sum::<usize>() * 4;
                let rtotal: usize = rcounts.iter().sum::<usize>() * 4;
                let mut sdata = Vec::new();
                for (j, &sc) in scounts.iter().enumerate() {
                    for k in 0..sc {
                        sdata.push((me * 10000 + j * 100 + k) as i32);
                    }
                }
                let send = HostBuf::from_vec(scalars_to_bytes(&sdata));
                assert_eq!(send.len(), stotal);
                let recv = HostBuf::alloc(rtotal);
                comm.alltoallv(
                    send.base(),
                    &scounts,
                    &sdispls,
                    &t,
                    recv.base(),
                    &rcounts,
                    &rdispls,
                    &t,
                );
                for j in 0..n {
                    let got = bytes_to_scalars::<i32>(&recv.read(rdispls[j], rcounts[j] * 4));
                    let want: Vec<i32> = (0..rcounts[j])
                        .map(|k| (j * 10000 + me * 100 + k) as i32)
                        .collect();
                    assert_eq!(got, want, "{algo:?} ppn={ppn} from {j}");
                }
            });
        }
    }
}

/// alltoallv where the send side is a strided (non-contiguous) datatype
/// and the receive side is contiguous — the transpose access pattern. The
/// wire carries packed bytes, so the signatures only need matching byte
/// totals.
#[test]
fn alltoallv_strided_send_contiguous_recv() {
    for algo in [CollAlgo::Flat, CollAlgo::Hier] {
        world(4, 2, algo).run(move |comm| {
            let n = 4usize;
            let me = comm.rank();
            // Each rank holds a 4x4 i32 matrix row-major; column j goes to
            // rank j as 4 strided elements.
            let int = Datatype::int();
            int.commit();
            let col = Datatype::hvector(4, 1, 16, &int);
            col.commit();
            let mat: Vec<i32> = (0..16).map(|k| (me * 100 + k) as i32).collect();
            let send = HostBuf::from_vec(scalars_to_bytes(&mat));
            let scounts = vec![1usize; n];
            let sdispls: Vec<usize> = (0..n).map(|j| j * 4).collect(); // column starts
            let rcounts = vec![4usize; n];
            let rdispls: Vec<usize> = (0..n).map(|j| j * 16).collect();
            let recv = HostBuf::alloc(64);
            comm.alltoallv(
                send.base(),
                &scounts,
                &sdispls,
                &col,
                recv.base(),
                &rcounts,
                &rdispls,
                &int,
            );
            // Block j of recv = rank j's column `me`.
            for j in 0..n {
                let got = bytes_to_scalars::<i32>(&recv.read(j * 16, 16));
                let want: Vec<i32> = (0..4).map(|r| (j * 100 + r * 4 + me) as i32).collect();
                assert_eq!(got, want, "{algo:?} column from rank {j}");
            }
        });
    }
}

/// The hierarchy must fall back to the flat path when every rank sits on
/// its own node (no shm to exploit) — and still be correct either way.
#[test]
fn hier_degrades_to_flat_on_one_rank_per_node() {
    world(5, 1, CollAlgo::Hier).run(|comm| {
        let t = Datatype::int();
        t.commit();
        let me = comm.rank() as i32;
        let send = HostBuf::from_vec(scalars_to_bytes(&[me]));
        let recv = HostBuf::alloc(4);
        comm.allreduce(send.base(), recv.base(), 1, &t, ReduceOp::Sum);
        assert_eq!(bytes_to_scalars::<i32>(&recv.read(0, 4)), vec![10]);
    });
}

/// Collectives inside a split sub-communicator must build the hierarchy
/// from the subgroup only (here: one member per node after the split).
#[test]
fn hier_collectives_inside_subcomm() {
    world(8, 4, CollAlgo::Hier).run(|comm| {
        let sub = comm.split((comm.rank() % 4) as i64, 0).unwrap();
        assert_eq!(sub.size(), 2);
        let t = Datatype::int();
        t.commit();
        let send = HostBuf::from_vec(scalars_to_bytes(&[comm.rank() as i32]));
        let recv = HostBuf::alloc(4);
        sub.allreduce(send.base(), recv.base(), 1, &t, ReduceOp::Sum);
        let expect = (comm.rank() % 4) as i32 * 2 + 4; // r and r+4
        assert_eq!(bytes_to_scalars::<i32>(&recv.read(0, 4)), vec![expect]);
    });
}

/// The hierarchical allreduce must move fewer bytes through the HCAs than
/// the naive funnel (every remote rank shipping its full vector to rank
/// 0): only one combined stream per node crosses the wire. (The flat
/// binomial happens to be node-aligned on a blocked power-of-two layout,
/// so the naive path is the honest bandwidth baseline here — `coll_sweep`
/// compares all three.)
#[test]
fn hier_and_naive_reach_identical_values_but_hier_sheds_hca_bytes() {
    let run = |algo: CollAlgo| {
        let rec = sim_trace::Recorder::new();
        let t_end = world(8, 4, algo).with_recorder(rec.clone()).run(|comm| {
            let t = Datatype::float();
            t.commit();
            let n = 16 << 10;
            let vals: Vec<f32> = (0..n).map(|i| (i % 31) as f32).collect();
            let send = HostBuf::from_vec(scalars_to_bytes(&vals));
            let recv = HostBuf::alloc(n * 4);
            comm.allreduce(send.base(), recv.base(), n, &t, ReduceOp::Sum);
            let got = bytes_to_scalars::<f32>(&recv.read(0, n * 4));
            assert_eq!(got[7], 8.0 * 7.0);
        });
        let m = rec.metrics();
        let hca: u64 = (0..2)
            .map(|k| {
                m.get(&format!("node{k}.hca.tx_bytes"))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        (t_end, hca)
    };
    let (_, hca_naive) = run(CollAlgo::Naive);
    let (_, hca_hier) = run(CollAlgo::Hier);
    assert!(
        2 * hca_hier <= hca_naive,
        "hierarchical allreduce must shed HCA bytes: hier={hca_hier} naive={hca_naive}"
    );
}

// --- Coll::allreduce_over ------------------------------------------------

/// Every fold-in shape up to 9 members, and a power of two past them.
const OVER_MEMBERS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16];

/// Element counts for `p` members: none, one, fewer than members, blocks of
/// uneven length, one full pipeline segment of `psz`-byte elements.
fn over_counts(p: usize, psz: usize) -> [usize; 5] {
    [0, 1, p - 1, 3 * p + 1, PIPELINE_CHUNK / psz]
}

/// Every rank of a `p`-rank world runs `allreduce_over` among all `p`
/// (listed in descending order, so member index and group rank differ) once
/// per case, contributing `data(rank, case)`; returns each rank's results.
fn over_world<F>(
    p: usize,
    dtype: fn() -> Datatype,
    cases: Vec<ReduceOp>,
    data: F,
) -> Vec<Vec<Vec<u8>>>
where
    F: Fn(usize, usize) -> Vec<u8> + Send + Sync + 'static,
{
    let (_, ranks, _) = MpiWorld::new(p)
        .try_run(move |comm| {
            let dt = dtype();
            dt.commit();
            let members: Vec<usize> = (0..p).rev().collect();
            let run = |(c, &op): (usize, &ReduceOp)| {
                let mut acc = data(comm.rank(), c);
                let mut cx = comm.enter("MPI_Allreduce");
                cx.allreduce_over(&members, &mut acc, Fold { op, dtype: &dt }, 1, 2);
                acc
            };
            cases.iter().enumerate().map(run).collect::<Vec<_>>()
        })
        .unwrap();
    ranks
}

/// Order-dependent f32 sums: the folded bits must still be the same on
/// every member, and close to the serial sum.
#[test]
fn allreduce_over_gives_every_member_the_same_bits() {
    let term = |rank: usize, k: usize| {
        ((rank * 7919 + k * 104_729) % 1000) as f32 * 1e-3 + 0.1 / (rank + 1) as f32
    };
    for p in OVER_MEMBERS {
        let counts = over_counts(p, 4);
        let data = move |rank: usize, c: usize| {
            let vals: Vec<f32> = (0..counts[c]).map(|k| term(rank, k)).collect();
            scalars_to_bytes(&vals)
        };
        let ranks = over_world(p, Datatype::float, vec![ReduceOp::Sum; counts.len()], data);
        for (c, &count) in counts.iter().enumerate() {
            let got = &ranks[0][c];
            for (r, mine) in ranks.iter().enumerate() {
                assert_eq!(
                    &mine[c], got,
                    "p={p} count={count}: rank {r} differs from rank 0"
                );
            }
            for (k, g) in bytes_to_scalars::<f32>(got).into_iter().enumerate() {
                let want: f64 = (0..p).map(|r| term(r, k) as f64).sum();
                assert!(
                    (g as f64 - want).abs() <= 1e-5 * want,
                    "p={p} count={count} element {k}: {g} vs {want}"
                );
            }
        }
    }
}

/// Integer-valued data folds exactly in any order, so every member must
/// hold the serial fold, for each operator and element width.
#[test]
fn allreduce_over_equals_the_serial_fold() {
    const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Prod];
    // Small non-negative values: a 16-member sum stays below 256, and only
    // ranks 0-2 contribute factors other than 1 to a product.
    fn value(op: ReduceOp, rank: usize, k: usize) -> u64 {
        match op {
            ReduceOp::Prod if rank >= 3 => 1,
            ReduceOp::Prod => 1 + ((rank + k) % 3) as u64,
            _ => ((rank * 5 + k * 3) % 7) as u64,
        }
    }
    fn encode(psz: usize, v: u64) -> Vec<u8> {
        match psz {
            8 => (v as f64).to_le_bytes().to_vec(),
            4 => (v as i32).to_le_bytes().to_vec(),
            _ => vec![v as u8],
        }
    }
    let dtypes: [(fn() -> Datatype, usize); 3] = [
        (Datatype::double, 8),
        (Datatype::int, 4),
        (Datatype::byte, 1),
    ];
    for (dtype, psz) in dtypes {
        for p in OVER_MEMBERS {
            let counts = over_counts(p, psz);
            let cases: Vec<(ReduceOp, usize)> = OPS
                .iter()
                .flat_map(|&op| counts.iter().map(move |&n| (op, n)))
                .collect();
            let shared = cases.clone();
            let data = move |rank: usize, c: usize| {
                let (op, n) = shared[c];
                (0..n)
                    .flat_map(|k| encode(psz, value(op, rank, k)))
                    .collect()
            };
            let ranks = over_world(p, dtype, cases.iter().map(|c| c.0).collect(), data);
            for (c, &(op, n)) in cases.iter().enumerate() {
                let want: Vec<u8> = (0..n)
                    .flat_map(|k| {
                        let mut vals = (0..p).map(|r| value(op, r, k));
                        let first = vals.next().expect("at least one member");
                        encode(psz, vals.fold(first, |a, b| op.fold(a, b)))
                    })
                    .collect();
                for (r, mine) in ranks.iter().enumerate() {
                    assert!(
                        mine[c] == want,
                        "{op:?} over {p} members, {n} x {psz} B: rank {r} is not the serial fold"
                    );
                }
            }
        }
    }
}

// --- Fold::combine strictness --------------------------------------------

#[test]
#[should_panic(expected = "reduction operands differ in length")]
fn combine_rejects_mismatched_lengths() {
    let (op, t) = (ReduceOp::Sum, Datatype::int());
    Fold { op, dtype: &t }.combine(&mut [0u8; 8], &[0u8; 4]);
}

#[test]
#[should_panic(expected = "is not a multiple of")]
fn combine_rejects_partial_elements() {
    let (op, t) = (ReduceOp::Sum, Datatype::int());
    Fold { op, dtype: &t }.combine(&mut [0u8; 6], &[0u8; 6]);
}

// --- sub-communicators ---------------------------------------------------

#[test]
fn split_even_odd_groups() {
    MpiWorld::new(6).run(|comm| {
        let sub = comm.split((comm.rank() % 2) as i64, 0).unwrap();
        assert_eq!(sub.size(), 3);
        assert_eq!(sub.rank(), comm.rank() / 2);
        assert_eq!(sub.world_rank(), comm.rank());
        // Collective inside the subcomm: sum of world ranks of members.
        let t = Datatype::int();
        t.commit();
        let send = HostBuf::from_vec(scalars_to_bytes(&[comm.rank() as i32]));
        let recv = HostBuf::alloc(4);
        sub.allreduce(send.base(), recv.base(), 1, &t, ReduceOp::Sum);
        let expect = if comm.rank() % 2 == 0 {
            2 + 4
        } else {
            1 + 3 + 5
        };
        assert_eq!(bytes_to_scalars::<i32>(&recv.read(0, 4)), vec![expect]);
    });
}

#[test]
fn split_key_reorders_ranks() {
    MpiWorld::new(4).run(|comm| {
        // All one color, keys in reverse: group order flips.
        let sub = comm
            .split(7, -(comm.rank() as i64))
            .expect("all ranks join");
        assert_eq!(sub.size(), 4);
        assert_eq!(sub.rank(), 3 - comm.rank());
    });
}

#[test]
fn split_undefined_color_returns_none() {
    MpiWorld::new(4).run(|comm| {
        let sub = comm.split(if comm.rank() == 0 { -1 } else { 0 }, 0);
        if comm.rank() == 0 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(sub.size(), 3);
            // The subcomm still works without rank 0.
            sub.barrier();
        }
    });
}

#[test]
fn p2p_inside_subcomm_uses_group_ranks() {
    MpiWorld::new(4).run(|comm| {
        let color = (comm.rank() / 2) as i64; // {0,1} and {2,3}
        let sub = comm.split(color, 0).unwrap();
        let t = Datatype::int();
        t.commit();
        let buf = HostBuf::alloc(4);
        if sub.rank() == 0 {
            buf.write(0, &scalars_to_bytes(&[comm.rank() as i32]));
            sub.send(buf.base(), 1, &t, 1, 0);
        } else {
            let st = sub.recv(buf.base(), 1, &t, crate::ANY_SOURCE, 0u32);
            assert_eq!(st.src, 0, "status must carry the group rank");
            // The payload is the partner's world rank.
            let v = bytes_to_scalars::<i32>(&buf.read(0, 4))[0];
            assert_eq!(v as usize, comm.rank() - 1);
        }
    });
}

#[test]
fn wildcard_recv_cannot_see_other_subcomm() {
    MpiWorld::new(4).run(|comm| {
        let sub = comm.split((comm.rank() % 2) as i64, 0).unwrap();
        let t = Datatype::int();
        t.commit();
        let buf = HostBuf::from_vec(scalars_to_bytes(&[comm.rank() as i32]));
        // Everyone sends within their subcomm; ANY_SOURCE must only
        // match the same-color partner even though all four messages
        // are in flight with the same tag.
        let inb = HostBuf::alloc(4);
        let r = sub.irecv(inb.base(), 1, &t, crate::ANY_SOURCE, 5u32);
        let peer = 1 - sub.rank();
        sub.send(buf.base(), 1, &t, peer, 5);
        sub.wait(r);
        let got = bytes_to_scalars::<i32>(&inb.read(0, 4))[0] as usize;
        assert_eq!(got % 2, comm.rank() % 2, "crossed subcommunicator!");
    });
}

#[test]
fn dup_is_isolated_from_parent() {
    MpiWorld::new(2).run(|comm| {
        let dup = comm.dup();
        let t = Datatype::int();
        t.commit();
        let a = HostBuf::from_vec(scalars_to_bytes(&[1i32]));
        let b = HostBuf::from_vec(scalars_to_bytes(&[2i32]));
        let ra = HostBuf::alloc(4);
        let rb = HostBuf::alloc(4);
        let peer = 1 - comm.rank();
        // Same tag on both communicators, posted crosswise.
        let r1 = comm.irecv(ra.base(), 1, &t, peer, 3u32);
        let r2 = dup.irecv(rb.base(), 1, &t, peer, 3u32);
        dup.send(b.base(), 1, &t, peer, 3);
        comm.send(a.base(), 1, &t, peer, 3);
        comm.wait(r1);
        dup.wait(r2);
        assert_eq!(bytes_to_scalars::<i32>(&ra.read(0, 4)), vec![1]);
        assert_eq!(bytes_to_scalars::<i32>(&rb.read(0, 4)), vec![2]);
    });
}

#[test]
fn nested_splits_allocate_distinct_contexts() {
    MpiWorld::new(4).run(|comm| {
        let half = comm.split((comm.rank() / 2) as i64, 0).unwrap();
        let quarter = half.split(half.rank() as i64, 0).unwrap();
        assert_eq!(quarter.size(), 1);
        quarter.barrier();
        half.barrier();
        comm.barrier();
    });
}
