//! `vec_pingpong`: the paper's Fig. 5 transfer. Two ranks on two nodes move
//! GPU-resident 4-byte-row vectors with `send_mv2`/`recv_mv2` under the
//! default scheme policy and a fixed 64 KiB block. The receiver answers
//! every message with a one-byte pong, so exactly one message is in flight
//! (closed loop, one client).

use std::sync::Arc;

use gpu_nc_repro::gpu_sim::{DevPtr, Gpu};
use gpu_nc_repro::hostmem::HostBuf;
use gpu_nc_repro::mpi_sim::Datatype;
use gpu_nc_repro::mv2_gpu_nc::baselines::{recv_mv2, send_mv2, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_core;

use super::{skew, stream};
use crate::harness::{Rep, RepCfg, Stopwatch};

/// `(message bytes, messages per segment)`: 1000 messages, ~71 MB.
pub const MIX: [(usize, usize); 6] = [
    (4 << 10, 400),
    (16 << 10, 300),
    (64 << 10, 200),
    (256 << 10, 80),
    (1 << 20, 16),
    (4 << 20, 4),
];

/// Largest message of the mix.
const MAX_BYTES: usize = 4 << 20;
/// Value the receiver's holes hold; a transfer must never touch them.
const HOLE: u8 = 0xA5;

/// The segment's message sizes in seeded-shuffled order. `--smoke` keeps a
/// tenth of every class (at least one).
pub fn message_order(seed: u64, smoke: bool) -> Vec<usize> {
    let mut sizes: Vec<usize> = MIX
        .iter()
        .flat_map(|&(bytes, n)| {
            let n = if smoke { n.div_ceil(10) } else { n };
            std::iter::repeat_n(bytes, n)
        })
        .collect();
    stream(seed, 1).shuffle(&mut sizes);
    sizes
}

/// Row `r` of the message keyed `key`.
fn row(key: u32, r: usize) -> [u8; 4] {
    ((r as u32).wrapping_mul(0x9E37_79B1) ^ key).to_le_bytes()
}

fn fill(gpu: &Gpu, dev: DevPtr, x: &VectorXfer, key: u32) {
    gpu.with_arena(dev, x.extent(), |mem| {
        for r in 0..x.height() {
            mem[r * x.stride..r * x.stride + 4].copy_from_slice(&row(key, r));
        }
    });
}

/// Rows carry the sender's pattern and every hole still holds [`HOLE`].
fn check(gpu: &Gpu, dev: DevPtr, x: &VectorXfer, key: u32) -> bool {
    gpu.with_arena(dev, x.extent(), |mem| {
        mem.chunks_exact(x.stride)
            .enumerate()
            .all(|(r, c)| c[..4] == row(key, r) && c[4..].iter().all(|&b| b == HOLE))
    })
}

pub fn run(cfg: &RepCfg) -> Rep {
    let sizes = Arc::new(message_order(cfg.seed, cfg.smoke));
    let keys: Arc<Vec<u32>> = {
        let mut rng = stream(cfg.seed, 2);
        Arc::new(sizes.iter().map(|_| rng.next_u32()).collect())
    };
    let attempted = sizes.len() as u64;
    let sw = Stopwatch::new();
    let (cluster, tap) = cfg.tap(GpuCluster::new(2).block_size(64 << 10));
    let clock = sw.clone();
    let seed = cfg.seed;
    sw.launch();
    let (outcome, _) = cluster.try_run_with_reports(move |env| {
        let (comm, gpu) = (&env.comm, &env.gpu);
        let me = comm.rank();
        let big = VectorXfer::paper(MAX_BYTES);
        let dev = gpu.malloc(big.extent());
        gpu.memset(dev, HOLE, big.extent());
        let byte = Datatype::byte();
        byte.commit();
        let pong = HostBuf::alloc(1);
        // Untimed warm-up transfer: fills the staging pools on both sides.
        let warm = VectorXfer::paper(64 << 10);
        if me == 0 {
            send_mv2(comm, dev, warm, 1, 0);
        } else {
            recv_mv2(comm, dev, warm, 0, 0);
            gpu.memset(dev, HOLE, warm.extent());
        }
        let mut rng = stream(seed, 0x5e00 + me as u64);
        clock.segment(comm, || {
            for (m, (&bytes, &key)) in sizes.iter().zip(keys.iter()).enumerate() {
                let x = VectorXfer::paper(bytes);
                let tag = 1 + m as u32;
                if me == 0 {
                    clock.untimed(|| fill(gpu, dev, &x, key));
                    skew(&mut rng);
                    send_mv2(comm, dev, x, 1, tag);
                    comm.recv(pong.base(), 1, &byte, 1, tag);
                } else {
                    let t0 = sim_core::now().as_nanos();
                    recv_mv2(comm, dev, x, 0, tag);
                    let t1 = sim_core::now().as_nanos();
                    let ok = clock.untimed(|| {
                        let ok = check(gpu, dev, &x, key);
                        gpu.with_arena(dev, x.extent(), |mem| mem.fill(HOLE));
                        ok
                    });
                    clock.op(me, t0, t1, ok);
                    comm.send(pong.base(), 1, &byte, 0, tag);
                }
            }
        });
        clock.verified();
        gpu.free(dev);
    });
    let timing = sw.finish();
    let traces = tap.into_trace(timing.window).into_iter().collect();
    Rep::from_world(timing, attempted, outcome.map(|_| ()), traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(order: &[usize]) -> Vec<(usize, usize)> {
        MIX.iter()
            .map(|&(b, _)| (b, order.iter().filter(|&&s| s == b).count()))
            .collect()
    }

    #[test]
    fn size_mix_is_exactly_the_stated_counts() {
        let order = message_order(20211, false);
        assert_eq!(order.len(), 1000);
        assert_eq!(
            counts(&order),
            vec![
                (4 << 10, 400),
                (16 << 10, 300),
                (64 << 10, 200),
                (256 << 10, 80),
                (1 << 20, 16),
                (4 << 20, 4)
            ]
        );
        assert_eq!(message_order(20211, true).len(), 40 + 30 + 20 + 8 + 2 + 1);
    }

    #[test]
    fn shuffle_is_seeded() {
        let a = message_order(7, false);
        assert_eq!(a, message_order(7, false), "same seed, same order");
        let b = message_order(8, false);
        assert_ne!(a, b, "different seed, different order");
        assert_eq!(counts(&a), counts(&b), "same multiset");
    }

    #[test]
    fn check_sees_wrong_rows_and_touched_holes() {
        let gpu = Gpu::tesla_c2050(0);
        let x = VectorXfer::paper(4 << 10);
        let dev = gpu.malloc(x.extent());
        gpu.with_arena(dev, x.extent(), |mem| mem.fill(HOLE));
        fill(&gpu, dev, &x, 99);
        assert!(check(&gpu, dev, &x, 99));
        assert!(!check(&gpu, dev, &x, 98));
        gpu.with_arena(dev, x.extent(), |mem| mem[5] = 0);
        assert!(!check(&gpu, dev, &x, 99));
    }
}
