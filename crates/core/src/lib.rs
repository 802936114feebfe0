//! # mv2-gpu-nc — GPU-aware non-contiguous MPI datatype communication
//!
//! The paper's contribution (CLUSTER 2011): MPI applications pass device
//! buffers straight into `MPI_Send`/`MPI_Recv` with derived datatypes, and
//! the library
//!
//! 1. **offloads datatype processing to the GPU** — non-contiguous layouts
//!    are packed/unpacked with strided copies *inside* device memory
//!    (~20x cheaper per row than strided copies across PCIe), and
//! 2. **pipelines all five transfer stages** — device pack → D2H copy →
//!    RDMA write → H2D copy → device unpack — chunk by chunk at a tunable
//!    block size (`MV2_CUDA_BLOCK_SIZE`, 64 KB default).
//!
//! The implementation plugs into `mpi-sim`'s rendezvous engine through its
//! staging extension point, mirroring how the real feature lives inside
//! MVAPICH2. [`GpuCluster`] runs programs on a simulated GPU cluster:
//!
//! ```
//! use mv2_gpu_nc::GpuCluster;
//! use mpi_sim::Datatype;
//!
//! GpuCluster::new(2).run(|env| {
//!     // A 256-row column of floats in a 1 KB-pitch device matrix.
//!     let col = Datatype::hvector(256, 1, 1024, &Datatype::float());
//!     col.commit();
//!     let dev = env.gpu.malloc(256 * 1024);
//!     if env.comm.rank() == 0 {
//!         env.comm.send(dev, 1, &col, 1, 0);   // device buffer, vector type
//!     } else {
//!         env.comm.recv(dev, 1, &col, 0, 0);
//!     }
//! });
//! ```
//!
//! The crate also ships the paper's evaluation artifacts: the §I-A pack
//! [`schemes`], the Figure 4 user-level [`baselines`], and the §IV-B
//! analytic pipeline [`model`].

#![warn(missing_docs)]

pub mod baselines;
mod cluster;
pub mod gpu_pack;
pub mod model;
mod pools;
pub mod schemes;
mod stager;

pub use cluster::{node_gpu, GpuCluster, GpuRankEnv, WakeTraceSink};
pub use ib_sim::{FaultSpec, ShmModel, Topology};
pub use pools::{Tbuf, TbufPool};
pub use sim_trace::Recorder;
pub use stager::GpuStager;

#[cfg(test)]
mod tests {
    use super::baselines::{fill_vector, verify_vector, VectorXfer};
    use super::*;
    use mpi_sim::Datatype;

    #[test]
    fn device_vector_send_recv_round_trip() {
        GpuCluster::new(2).run(|env| {
            let x = VectorXfer::paper(256 << 10); // rendezvous, pipelined
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 7);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 7);
            }
        });
    }

    #[test]
    fn small_device_message_takes_eager_path() {
        GpuCluster::new(2).run(|env| {
            let x = VectorXfer::paper(1 << 10); // below the eager limit
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
    fn contiguous_device_buffer_pipelines_without_packing() {
        GpuCluster::new(2).run(|env| {
            let t = Datatype::byte();
            t.commit();
            let n = 512 << 10;
            let dev = env.gpu.malloc(n);
            if env.comm.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
                env.gpu.write_bytes(dev, &data);
                env.comm.send(dev, n, &t, 1, 0);
                // No strided device copies should have happened.
                assert_eq!(env.gpu.counters().get("cudaMemcpy2DAsync"), 0);
            } else {
                env.comm.recv(dev, n, &t, 0, 0);
                let got = env.gpu.read_bytes(dev, n);
                assert!((0..n).all(|i| got[i] == (i % 239) as u8));
                assert_eq!(env.gpu.counters().get("cudaMemcpy2DAsync"), 0);
            }
        });
    }

    #[test]
    fn device_to_host_and_host_to_device_mixed() {
        GpuCluster::new(2).run(|env| {
            let x = VectorXfer::paper(128 << 10);
            if env.comm.rank() == 0 {
                // Device -> remote host.
                let dev = env.gpu.malloc(x.extent());
                fill_vector(&env.gpu, dev, &x, 3);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
                // Host -> remote device.
                let host = hostmem::HostBuf::alloc(x.extent());
                let pattern: Vec<u8> = (0..x.extent()).map(|i| (i % 83) as u8).collect();
                host.write(0, &pattern);
                env.comm.send(host.base(), 1, &x.dtype(), 1, 1);
            } else {
                let host = hostmem::HostBuf::alloc(x.extent());
                env.comm.recv(host.base(), 1, &x.dtype(), 0, 0);
                for r in 0..x.height() {
                    let i = r * x.stride;
                    assert_eq!(
                        host.read(i, x.elem),
                        (i..i + x.elem)
                            .map(|j| (j as u8).wrapping_mul(31).wrapping_add(3))
                            .collect::<Vec<_>>()
                    );
                }
                let dev = env.gpu.malloc(x.extent());
                env.comm.recv(dev, 1, &x.dtype(), 0, 1);
                let got = env.gpu.read_bytes(dev, x.extent());
                for r in 0..x.height() {
                    let i = r * x.stride;
                    assert!((0..x.elem).all(|c| got[i + c] == ((i + c) % 83) as u8));
                }
            }
        });
    }

    #[test]
    fn irregular_indexed_type_between_gpus() {
        GpuCluster::new(2).run(|env| {
            // An indexed soup big enough for the staged path.
            let blocks: Vec<(usize, isize)> = (0..3000).map(|i| (7, (i * 13) as isize)).collect();
            let t = Datatype::indexed(&blocks, &Datatype::int());
            t.commit();
            let span = t.ub().max(0) as usize;
            let dev = env.gpu.malloc(span + 64);
            if env.comm.rank() == 0 {
                let pattern: Vec<u8> = (0..span).map(|i| (i % 191) as u8).collect();
                env.gpu.write_bytes(dev, &pattern);
                env.comm.send(dev, 1, &t, 1, 0);
            } else {
                env.comm.recv(dev, 1, &t, 0, 0);
                let got = env.gpu.read_bytes(dev, span);
                for &(bl, disp) in &blocks {
                    let o = disp as usize * 4;
                    for c in 0..bl * 4 {
                        assert_eq!(got[o + c], ((o + c) % 191) as u8);
                    }
                }
            }
        });
    }

    #[test]
    fn an_overflowing_device_footprint_is_refused_in_every_profile() {
        // The device twin of mpi-sim's host-buffer check: `count - 1`
        // elements of a float reach past isize (usize::MAX / 2), or wrap to
        // a 4-byte message ((1 << 62) + 1). The overflow needs no buffer to
        // be seen, so the post is refused before the stager plans it, debug
        // and release alike.
        for count in [usize::MAX / 2, (1 << 62) + 1] {
            let out = GpuCluster::new(2).try_run(move |env| {
                let t = Datatype::float();
                t.commit();
                if env.comm.rank() == 0 {
                    let req = env.comm.isend(env.gpu.malloc(64), count, &t, 1, 0);
                    env.comm.wait(req);
                }
            });
            let msg = out.end.expect_err("an overflowing post must be refused");
            assert!(
                msg.starts_with("datatype footprint") && msg.contains("overflows"),
                "count {count}: {msg}"
            );
        }
    }

    #[test]
    fn colocated_device_ranks_stay_on_the_gpu() {
        // Two ranks on one node share the physical GPU: a device-to-device
        // rendezvous must move zero bytes over the HCA *and* zero bytes
        // over PCIe (no d2h/h2d stages — pack and unpack only).
        let rec = Recorder::new();
        GpuCluster::new(2).ppn(2).recorder(rec.clone()).run(|env| {
            let x = VectorXfer::paper(256 << 10); // rendezvous-sized
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 11);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
                verify_vector(&env.gpu, dev, &x, 11);
            }
        });
        let m = rec.metrics();
        assert_eq!(
            m.get("node0.hca.tx_bytes").copied().unwrap_or(0),
            0,
            "co-located device transfer crossed the HCA"
        );
        let spans = sim_trace::analysis::stage_spans(&rec);
        for stage in ["d2h", "h2d"] {
            let n = spans.iter().filter(|s| s.lane_name == stage).count();
            assert_eq!(n, 0, "device-to-device transfer crossed PCIe ({stage})");
        }
        for stage in ["pack", "unpack"] {
            let n = spans.iter().filter(|s| s.lane_name == stage).count();
            assert_eq!(n, 1, "one whole-message {stage} expected");
        }
    }

    #[test]
    fn colocated_device_path_matches_remote_bytes() {
        // The same irregular transfer delivered intra-node (D2D) and
        // inter-node (staged pipeline) must produce identical bytes.
        let run = |ppn: usize| {
            let out = GpuCluster::new(2).ppn(ppn).try_run(|env| {
                let blocks: Vec<(usize, isize)> =
                    (0..2000).map(|i| (5, (i * 11) as isize)).collect();
                let t = Datatype::indexed(&blocks, &Datatype::int());
                t.commit();
                let span = t.ub().max(0) as usize;
                let dev = env.gpu.malloc(span + 64);
                if env.comm.rank() == 0 {
                    let pattern: Vec<u8> = (0..span).map(|i| (i % 157) as u8).collect();
                    env.gpu.write_bytes(dev, &pattern);
                    env.comm.send(dev, 1, &t, 1, 0);
                    Vec::new()
                } else {
                    env.comm.recv(dev, 1, &t, 0, 0);
                    env.gpu.read_bytes(dev, span)
                }
            });
            out.unwrap().1.swap_remove(1)
        };
        let intra = run(2);
        let inter = run(1);
        assert!(!intra.is_empty());
        assert_eq!(intra, inter, "transport changed the delivered bytes");
    }

    #[test]
    fn mv2_beats_blocking_baseline_at_large_sizes() {
        let out = GpuCluster::new(2).try_run(|env| {
            let x = VectorXfer::paper(1 << 20);
            let dev = env.gpu.malloc(x.extent());
            let me = env.comm.rank();
            // Blocking baseline.
            env.comm.barrier();
            let t0 = sim_core::now();
            if me == 0 {
                fill_vector(&env.gpu, dev, &x, 1);
                baselines::send_cpy2d_blocking(env, dev, x, 1, 0);
            } else {
                baselines::recv_cpy2d_blocking(env, dev, x, 0, 0);
            }
            env.comm.barrier();
            let t_blocking = sim_core::now() - t0;
            // MV2-GPU-NC.
            let t1 = sim_core::now();
            if me == 0 {
                baselines::send_mv2(&env.comm, dev, x, 1, 1);
            } else {
                baselines::recv_mv2(&env.comm, dev, x, 0, 1);
                verify_vector(&env.gpu, dev, &x, 1);
            }
            env.comm.barrier();
            (t_blocking.as_nanos(), (sim_core::now() - t1).as_nanos())
        });
        let (b, m) = out.unwrap().1[0];
        assert!(
            m * 4 < b,
            "MV2-GPU-NC ({m} ns) should be several times faster than the \
             blocking baseline ({b} ns) at 1 MB"
        );
    }

    #[test]
    fn manual_pipeline_matches_mv2_shape() {
        let out = GpuCluster::new(2).try_run(|env| {
            let x = VectorXfer::paper(1 << 20);
            let block = env.comm.config().chunk_size;
            let dev = env.gpu.malloc(x.extent());
            let me = env.comm.rank();
            env.comm.barrier();
            let t0 = sim_core::now();
            if me == 0 {
                fill_vector(&env.gpu, dev, &x, 5);
                baselines::send_manual_pipeline(env, dev, x, 1, 1, block);
            } else {
                baselines::recv_manual_pipeline(env, dev, x, 0, 1, block);
                verify_vector(&env.gpu, dev, &x, 5);
            }
            env.comm.barrier();
            let t_manual = sim_core::now() - t0;
            let t1 = sim_core::now();
            if me == 0 {
                baselines::send_mv2(&env.comm, dev, x, 1, 2);
            } else {
                baselines::recv_mv2(&env.comm, dev, x, 0, 2);
            }
            env.comm.barrier();
            (t_manual.as_nanos(), (sim_core::now() - t1).as_nanos())
        });
        let (manual, mv2) = out.unwrap().1[0];
        let ratio = manual as f64 / mv2 as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "manual pipeline and MV2-GPU-NC should be comparable (paper \
             Fig. 5); got manual/mv2 = {ratio:.2}"
        );
    }

    #[test]
    fn tbuf_pool_is_reused_across_messages() {
        GpuCluster::new(2).run(|env| {
            let x = VectorXfer::paper(256 << 10);
            let dev = env.gpu.malloc(x.extent());
            let me = env.comm.rank();
            for tag in 0..4u32 {
                if me == 0 {
                    fill_vector(&env.gpu, dev, &x, tag as u8);
                    env.comm.send(dev, 1, &x.dtype(), 1, tag);
                } else {
                    env.comm.recv(dev, 1, &x.dtype(), 0, tag);
                    verify_vector(&env.gpu, dev, &x, tag as u8);
                }
            }
            // After the bursts, each rank holds the user matrix plus a
            // recycled tbuf — not one tbuf per message.
            let allocs = env.gpu.live_allocs();
            assert!(
                allocs <= 3,
                "tbuf pool must recycle device temporaries (live allocs: {allocs})"
            );
        });
    }

    #[test]
    fn pipeline_trace_records_all_stages() {
        let rec = Recorder::new();
        let out = GpuCluster::new(2).recorder(rec.clone()).try_run(|env| {
            let x = VectorXfer::paper(256 << 10);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 2);
                env.comm.send(dev, 1, &x.dtype(), 1, 0);
            } else {
                env.comm.recv(dev, 1, &x.dtype(), 0, 0);
            }
            (256usize << 10).div_ceil(env.comm.config().chunk_size)
        });
        let spans = sim_trace::analysis::stage_spans(&rec);
        let nchunks = out.unwrap().1[0];
        for stage in ["pack", "d2h", "rdma", "h2d", "unpack"] {
            let n = spans.iter().filter(|s| s.lane_name == stage).count();
            assert_eq!(n, nchunks, "stage {stage} spans");
        }
    }

    #[test]
    fn disabling_the_recorder_does_not_change_virtual_time() {
        let run = |rec: Recorder| {
            GpuCluster::new(2).recorder(rec).run(|env| {
                let x = VectorXfer::paper(512 << 10);
                let dev = env.gpu.malloc(x.extent());
                if env.comm.rank() == 0 {
                    fill_vector(&env.gpu, dev, &x, 4);
                    baselines::send_mv2(&env.comm, dev, x, 1, 0);
                } else {
                    baselines::recv_mv2(&env.comm, dev, x, 0, 0);
                }
            })
        };
        assert_eq!(run(Recorder::new()), run(Recorder::off()));
    }

    #[test]
    fn deterministic_gpu_transfer() {
        let run = || {
            GpuCluster::new(2).run(|env| {
                let x = VectorXfer::paper(512 << 10);
                let dev = env.gpu.malloc(x.extent());
                if env.comm.rank() == 0 {
                    fill_vector(&env.gpu, dev, &x, 4);
                    baselines::send_mv2(&env.comm, dev, x, 1, 0);
                } else {
                    baselines::recv_mv2(&env.comm, dev, x, 0, 0);
                }
            })
        };
        assert_eq!(run(), run());
    }

    /// The stage spans of one traced `total`-byte vector transfer.
    fn traced_transfer(total: usize) -> Vec<sim_trace::analysis::SpanRec> {
        let rec = Recorder::new();
        GpuCluster::new(2).recorder(rec.clone()).run(move |env| {
            let x = VectorXfer::paper(total);
            let dev = env.gpu.malloc(x.extent());
            if env.comm.rank() == 0 {
                fill_vector(&env.gpu, dev, &x, 1);
                baselines::send_mv2(&env.comm, dev, x, 1, 0);
            } else {
                baselines::recv_mv2(&env.comm, dev, x, 0, 0);
            }
        });
        sim_trace::analysis::stage_spans(&rec)
    }

    #[test]
    fn stages_overlap_for_multichunk_transfers() {
        let stats = sim_trace::analysis::analyze_spans(&traced_transfer(1 << 20)); // 16 chunks
        assert_eq!(stats.stages.len(), 5);
        for s in &stats.stages {
            assert_eq!(s.chunks, 16, "{}", s.stage);
        }
        assert!(
            stats.overlap > 2.0,
            "five stages should overlap substantially, got {:.2}",
            stats.overlap
        );
    }

    #[test]
    fn pack_is_the_bottleneck_stage_at_the_cost_models_period() {
        let stats = sim_trace::analysis::analyze_spans(&traced_transfer(1 << 20));
        let b = sim_trace::analysis::bottleneck(&stats).unwrap();
        // §IV-B: "latency of packing data in the GPU is always larger than
        // the RDMA data transfer latency or time for contiguous data
        // movement" — pack or unpack (same cost) must gate the pipeline.
        assert!(
            b.stage == "pack" || b.stage == "unpack",
            "bottleneck was {}",
            b.stage
        );
        let pack = stats.stages.iter().find(|s| s.stage == "pack").unwrap();
        // 64 KB chunks of 4-byte rows: 16 µs + 16384*8 ns + bw term ≈ 150 µs.
        assert!(
            (120.0..200.0).contains(&pack.period_us),
            "pack period {:.1} µs",
            pack.period_us
        );
    }

    #[test]
    fn critical_path_runs_chunk_zero_stages_then_chunk_ladder() {
        use sim_trace::analysis::{critical_path, STAGE_ORDER};
        let path = critical_path(&traced_transfer(1 << 20), &STAGE_ORDER);
        assert!(!path.is_empty());
        // The path must start at (pack, 0) and end at (unpack, last chunk).
        assert_eq!(path.first().unwrap().stage, "pack");
        assert_eq!(path.first().unwrap().chunk, 0);
        assert_eq!(path.last().unwrap().stage, "unpack");
        assert_eq!(path.last().unwrap().chunk, 15);
        // Steps never move backward in time.
        for w in path.windows(2) {
            assert!(w[1].end >= w[0].end);
        }
    }
}
