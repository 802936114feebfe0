//! The adaptive pipeline autotuner vs. the paper's static block size.
//!
//! * `ChunkPolicy::Fixed` must reproduce the static-block pipeline exactly
//!   (bit-identical virtual timings) — it is the ablation baseline.
//! * `ChunkPolicy::Adaptive` starts from the configured block size, so its
//!   first transfer is indistinguishable from Fixed.
//! * After a convergence window, Adaptive must be within 10% of the best
//!   static block size for the workload, without being told which one.

use gpu_nc_repro::mpi_sim::{ChunkPolicy, MpiConfig};
use gpu_nc_repro::mv2_gpu_nc::baselines::{fill_vector, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;

/// One-way latency of `iters` back-to-back 4 MiB strided transfers,
/// observed at the receiver (barrier-separated), in virtual nanoseconds.
fn measure(cfg: MpiConfig, iters: u32) -> Vec<u64> {
    let out = GpuCluster::new(2).mpi_config(cfg).try_run(move |env| {
        let x = VectorXfer::paper(4 << 20);
        let dt = x.dtype();
        let dev = env.gpu.malloc(x.extent());
        let mut lat = Vec::new();
        if env.comm.rank() == 0 {
            fill_vector(&env.gpu, dev, &x, 7);
        }
        for it in 0..iters {
            env.comm.barrier();
            let t0 = sim_core::now();
            if env.comm.rank() == 0 {
                env.comm.send(dev, 1, &dt, 1, it);
            } else {
                env.comm.recv(dev, 1, &dt, 0, it);
                lat.push((sim_core::now() - t0).as_nanos());
            }
        }
        env.gpu.free(dev);
        lat
    });
    let v = out.unwrap().1.swap_remove(1);
    assert_eq!(v.len(), iters as usize);
    v
}

fn fixed(block: usize) -> MpiConfig {
    MpiConfig {
        chunk_size: block,
        policy: ChunkPolicy::Fixed,
        ..MpiConfig::default()
    }
}

#[test]
fn fixed_policy_is_exactly_reproducible() {
    let a = measure(fixed(64 << 10), 3);
    let b = measure(fixed(64 << 10), 3);
    assert_eq!(a, b, "Fixed policy must be deterministic run to run");
}

#[test]
fn adaptive_first_transfer_matches_fixed() {
    // Before any observation, the tuner's cursor sits on the configured
    // chunk size, so transfer #1 is bit-identical to the Fixed policy.
    let adaptive = measure(MpiConfig::default(), 1);
    let fixed64 = measure(fixed(64 << 10), 1);
    assert_eq!(adaptive[0], fixed64[0]);
}

/// Run a 3-rank job where rank 0 streams the measured strided transfer to
/// rank 1 while (optionally) rank 2 hogs rank 1's vbuf pool with an
/// irregular transfer whose size varies per iteration. Returns the
/// `tuner.settled.strided.*` counter keys rank 1's engine recorded.
fn settled_strided_keys(hog: bool) -> Vec<String> {
    use gpu_nc_repro::mpi_sim::Datatype;
    use sim_core::SimDur;

    let cfg = MpiConfig {
        // Window == pool: a granted hog window drains the pool entirely,
        // so the measured stream's CTS is deferred until the hog drains.
        pool_vbufs: 8,
        window_slots: 8,
        ..MpiConfig::default()
    };
    let iters = 16u32;
    // Uneven blocks classify as Irregular, keeping the hog's tuner keys
    // disjoint from the measured stream's Strided ones.
    let hog_blocks: &[(usize, isize)] = &[(2, 0), (1, 3)];
    let hog_count = |it: u32| (16 << 10) * (1 + (it % 3) as usize);
    let out = GpuCluster::new(3).mpi_config(cfg).try_run(move |env| {
        let x = VectorXfer::paper(1 << 20);
        let dt = x.dtype();
        let ht = Datatype::indexed(hog_blocks, &Datatype::double());
        ht.commit();
        let hog_extent = ht.extent() as usize * hog_count(2);
        match env.comm.rank() {
            0 => {
                let dev = env.gpu.malloc(x.extent());
                fill_vector(&env.gpu, dev, &x, 3);
                for it in 0..iters {
                    env.comm.barrier();
                    // Let the hog's RTS land first and claim the pool.
                    sim_core::sleep(SimDur::from_nanos(20_000));
                    env.comm.send(dev, 1, &dt, 1, it);
                }
                env.gpu.free(dev);
                Vec::new()
            }
            1 => {
                let dev = env.gpu.malloc(x.extent());
                let hdev = env.gpu.malloc(hog_extent);
                for it in 0..iters {
                    env.comm.barrier();
                    let mut reqs = Vec::new();
                    if hog {
                        reqs.push(env.comm.irecv(hdev, hog_count(it), &ht, 2, 1000 + it));
                    }
                    reqs.push(env.comm.irecv(dev, 1, &dt, 0, it));
                    env.comm.waitall(reqs);
                }
                let settled: Vec<String> = env
                    .comm
                    .counters()
                    .snapshot()
                    .keys()
                    .filter(|k| k.starts_with("tuner.settled.strided."))
                    .map(|k| k.to_string())
                    .collect();
                env.gpu.free(dev);
                env.gpu.free(hdev);
                settled
            }
            _ => {
                let hdev = env.gpu.malloc(hog_extent);
                env.gpu.write_bytes(hdev, &vec![5u8; hog_extent]);
                for it in 0..iters {
                    env.comm.barrier();
                    if hog {
                        env.comm.send(hdev, hog_count(it), &ht, 1, 1000 + it);
                    }
                }
                env.gpu.free(hdev);
                Vec::new()
            }
        }
    });
    let mut v = out.unwrap().1.swap_remove(1);
    v.sort();
    v
}

#[test]
fn settled_block_ignores_cts_queueing_delay() {
    // The tuner's latency window opens at the CTS grant, not the RTS
    // match: time spent queued for pool vbufs varies with whatever else
    // the receiver is doing and says nothing about the chunk size. A
    // pool-hogging competitor whose size changes every iteration must
    // therefore not move where the measured stream's search settles.
    let reference = settled_strided_keys(false);
    assert!(
        !reference.is_empty(),
        "measured stream never settled in the uncontended run"
    );
    let contended = settled_strided_keys(true);
    assert_eq!(
        contended, reference,
        "vbuf-pool contention must not move the settled block"
    );
}

#[test]
fn adaptive_converges_within_10_percent_of_best_static() {
    let blocks = [16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10];
    let statics: Vec<u64> = blocks
        .iter()
        .map(|&b| measure(fixed(b), 2)[1]) // [1]: steady state, pools warm
        .collect();
    let best = *statics.iter().min().unwrap();

    let adaptive = measure(MpiConfig::default(), 14);
    let settled = *adaptive.last().unwrap();
    assert!(
        settled as f64 <= best as f64 * 1.10,
        "adaptive settled at {settled} ns, best static is {best} ns \
         (statics: {statics:?}, adaptive trace: {adaptive:?})"
    );
}
