//! The measurements experiments share: the one timed transfer, fabric
//! byte totals, the process-wide plan-cache delta and a percentile.

use std::sync::Arc;

use gpu_sim::Loc;
use mpi_sim::{ChunkPolicy, Comm, Datatype, MpiConfig};
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::GpuCluster;
use sim_core::lock::Mutex;
use sim_trace::Recorder;

/// The one timed transfer: an untimed warm-up, then per lap a barrier, `t0`,
/// the transfer, and on rank 1 (the receiver) the elapsed virtual time.
///
/// The caller builds and runs the cluster — a `GpuCluster` or an `MpiWorld`,
/// under any `MpiConfig` and `Recorder` — and every rank's body calls
/// [`Laps::run`] on a clone; [`Laps::ns`] afterwards holds one entry per lap.
#[derive(Clone)]
pub struct Laps {
    iters: u32,
    /// (per-lap ns, the receiver's kept bytes)
    out: Arc<Mutex<(Vec<u64>, Vec<u8>)>>,
}

impl Laps {
    /// The tag [`Laps::run`] passes for the warm-up transfer.
    pub const WARMUP: u32 = 99_999;

    pub fn new(iters: u32) -> Laps {
        Laps {
            iters,
            out: Arc::default(),
        }
    }

    /// Inside a rank: `xfer(tag)` is this rank's side of one transfer. The
    /// warm-up ([`Laps::WARMUP`]) populates staging pools, registration and
    /// plan caches on both sides (and gives the adaptive tuner its first
    /// observation); laps then run with tags `0..iters`.
    pub fn run(&self, comm: &Comm, xfer: impl Fn(u32)) {
        xfer(Laps::WARMUP);
        for lap in 0..self.iters {
            comm.barrier();
            let t0 = sim_core::now();
            xfer(lap);
            if comm.rank() == 1 {
                self.out.lock().0.push((sim_core::now() - t0).as_nanos());
            }
        }
    }

    /// Inside the receiving rank: keep its final buffer for a byte-identity
    /// guard.
    pub fn keep(&self, bytes: Vec<u8>) {
        self.out.lock().1 = bytes;
    }

    /// Virtual nanoseconds of each lap, in order.
    pub fn ns(&self) -> Vec<u64> {
        self.out.lock().0.clone()
    }

    /// The fastest lap, in microseconds.
    pub fn best_us(&self) -> f64 {
        *self.out.lock().0.iter().min().expect("no lap ran") as f64 / 1e3
    }

    /// What the receiver [`keep`](Laps::keep)s.
    pub fn bytes(&self) -> Vec<u8> {
        std::mem::take(&mut self.out.lock().1)
    }
}

/// The paper's design: a static 64 KiB pipeline block (`ChunkPolicy::Fixed`;
/// the default policy is the adaptive tuner).
pub fn fixed_cfg() -> MpiConfig {
    MpiConfig {
        policy: ChunkPolicy::Fixed,
        ..MpiConfig::default()
    }
}

/// One message from rank 0 to rank 1: the calling rank's side of it.
pub fn one_way(comm: &Comm, buf: impl Into<Loc>, count: usize, dt: &Datatype, tag: u32) {
    if comm.rank() == 0 {
        comm.send(buf, count, dt, 1, tag);
    } else {
        comm.recv(buf, count, dt, 0, tag);
    }
}

/// Per-lap one-way virtual ns of the paper's `total`-byte vector (4-byte
/// rows, 16-byte pitch) sent device-to-device by MV2-GPU-NC over the first
/// two ranks of `cluster`; the received rows are verified.
pub fn vector_laps(cluster: GpuCluster, total: usize, iters: u32) -> Vec<u64> {
    let laps = Laps::new(iters);
    let l = laps.clone();
    cluster.run(move |env| {
        let x = VectorXfer::paper(total);
        let dt = x.dtype();
        let dev = env.gpu.malloc(x.extent());
        let me = env.comm.rank();
        if me == 0 {
            fill_vector(&env.gpu, dev, &x, 11);
        }
        l.run(&env.comm, |tag| one_way(&env.comm, dev, 1, &dt, tag));
        if me == 1 {
            verify_vector(&env.gpu, dev, &x, 11);
        }
        env.gpu.free(dev);
    });
    laps.ns()
}

/// `(HCA tx bytes, shm bytes)` summed over the first `nodes` nodes of the
/// fabric `rec` traced.
pub fn fabric_bytes(rec: &Recorder, nodes: usize) -> (u64, u64) {
    let m = rec.metrics();
    let sum = |kind: &str| {
        (0..nodes)
            .map(|k| m.get(&format!("node{k}.{kind}")).copied().unwrap_or(0))
            .sum()
    };
    (sum("hca.tx_bytes"), sum("shm.bytes"))
}

/// Process-wide plan-cache `(hits, misses, evictions)` across `f`. The
/// counters are global: nothing else may run in the process meanwhile.
pub fn cache_delta<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let g = sim_core::instrument::global();
    let read = || {
        (
            g.get("plan_cache_hit"),
            g.get("plan_cache_miss"),
            g.get("plan_cache_evict"),
        )
    };
    let before = read();
    let out = f();
    let after = read();
    (
        out,
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    )
}

/// Nearest-rank percentile over an unsorted sample.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    v[idx]
}
