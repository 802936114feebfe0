//! The measurements experiments share: the one timed transfer, a message in
//! either memory, fabric byte totals, the process-wide plan-cache delta and a
//! percentile.

use gpu_sim::Loc;
use hostmem::HostBuf;
use mpi_sim::{ChunkPolicy, Comm, Datatype, MpiConfig};
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::{GpuCluster, GpuRankEnv};
use sim_trace::Recorder;

/// The tag [`laps`] passes for the warm-up transfer.
pub const WARMUP: u32 = 99_999;

/// The one timed transfer, inside a rank: `xfer(tag)` is this rank's side of
/// one transfer. An untimed warm-up ([`WARMUP`]) populates staging pools,
/// registration and plan caches on both sides (and gives the adaptive tuner
/// its first observation); then per lap a barrier, `t0`, the transfer with
/// tags `0..iters`, and the elapsed virtual ns as this rank saw it.
///
/// The caller builds and runs the cluster — a `GpuCluster` or an `MpiWorld`,
/// under any `MpiConfig` and `Recorder` — returns this from every rank's
/// body and reads rank 1's, the receiver's.
pub fn laps(comm: &Comm, iters: u32, xfer: impl Fn(u32)) -> Vec<u64> {
    xfer(WARMUP);
    (0..iters)
        .map(|lap| {
            comm.barrier();
            let t0 = sim_core::now();
            xfer(lap);
            (sim_core::now() - t0).as_nanos()
        })
        .collect()
}

/// The fastest of `laps`, in microseconds.
pub fn best_us(laps: &[u64]) -> f64 {
    *laps.iter().min().expect("no lap ran") as f64 / 1e3
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

/// A fresh message buffer in host or device memory with the committed
/// datatype describing it (never freed: the world ends with the
/// measurement).
pub struct Msg {
    pub loc: Loc,
    pub count: usize,
    pub dtype: Datatype,
}

impl Msg {
    /// `bytes` contiguous bytes, or (`strided`) a vector of 4-byte elements
    /// at a 16-byte pitch — the paper's Figure 5 geometry.
    pub fn new(env: &GpuRankEnv, device: bool, strided: bool, bytes: usize) -> Msg {
        let (dtype, count, span) = if strided {
            assert!(
                bytes.is_multiple_of(4),
                "strided pattern needs 4-byte multiples"
            );
            let rows = bytes / 4;
            let vector = Datatype::hvector(rows, 1, 16, &Datatype::float());
            (vector, 1, rows * 16)
        } else {
            (Datatype::byte(), bytes, bytes.max(1))
        };
        dtype.commit();
        let loc = match device {
            true => Loc::Device(env.gpu.malloc(span)),
            false => Loc::Host(HostBuf::alloc(span).base()),
        };
        Msg { loc, count, dtype }
    }
}

/// Per-lap one-way virtual ns of the paper's `total`-byte vector (4-byte
/// rows, 16-byte pitch) sent device-to-device by MV2-GPU-NC over the first
/// two ranks of `cluster`; the received rows are verified.
pub fn vector_laps(cluster: GpuCluster, total: usize, iters: u32) -> Vec<u64> {
    let out = cluster.try_run(move |env| {
        let x = VectorXfer::paper(total);
        let dt = x.dtype();
        let dev = env.gpu.malloc(x.extent());
        let me = env.comm.rank();
        if me == 0 {
            fill_vector(&env.gpu, dev, &x, 11);
        }
        let ns = laps(&env.comm, iters, |tag| one_way(&env.comm, dev, 1, &dt, tag));
        if me == 1 {
            verify_vector(&env.gpu, dev, &x, 11);
        }
        env.gpu.free(dev);
        ns
    });
    out.unwrap().1.swap_remove(1)
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
