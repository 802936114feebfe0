//! OSU-style micro-benchmarks on the simulated cluster. The paper's
//! MPI-level evaluation (§V) is "based on OSU Micro Benchmarks", and its
//! block-size tuning was "detected ... by using OSU micro-benchmarks" at
//! installation time:
//!
//! * [`latency`] — `osu_latency`: ping-pong round-trip / 2;
//! * [`bandwidth`] — `osu_bw`: a window of back-to-back nonblocking sends
//!   per handshake;
//! * [`bi_bandwidth`] — `osu_bibw`: both directions at once;
//! * each with host or device buffers (`--device`), contiguous or strided
//!   (`--strided`, see [`Msg`]) — the strided-device combination is the
//!   paper's headline case.
//!
//! Results are deterministic: one measured iteration per size after a
//! warm-up (the simulator has no noise to average away).

use mpi_sim::Request;
use mv2_gpu_nc::{GpuCluster, GpuRankEnv};

use crate::doc::{col, Col, Doc, Fmt, Table};
use crate::measure::Msg;
use crate::Args;

/// One measurement row.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Message size in bytes.
    pub bytes: usize,
    /// Latency in microseconds (for latency benchmarks) or elapsed time of
    /// the window (for bandwidth benchmarks).
    pub micros: f64,
    /// Bandwidth in MB/s (meaningful for bandwidth benchmarks; derived for
    /// latency too).
    pub mbps: f64,
}

/// What rank 0 of a fresh two-rank cluster measured (microseconds) moving
/// `moved` payload bytes in messages of `bytes`.
fn sample(
    bytes: usize,
    moved: usize,
    body: impl Fn(&GpuRankEnv) -> f64 + Send + Sync + 'static,
) -> Sample {
    let micros = GpuCluster::new(2).try_run(body).unwrap().1[0];
    Sample {
        bytes,
        micros,
        mbps: moved as f64 / micros,
    }
}

/// A window of `n` messages of one kind.
fn window(env: &GpuRankEnv, n: usize, device: bool, strided: bool, bytes: usize) -> Vec<Msg> {
    (0..n)
        .map(|_| Msg::new(env, device, strided, bytes))
        .collect()
}

/// Post one nonblocking send (or receive) per message of `msgs`, tagged by
/// position.
fn post(env: &GpuRankEnv, msgs: &[Msg], peer: usize, send: bool) -> Vec<Request> {
    let one = |(i, m): (usize, &Msg)| match send {
        true => env
            .comm
            .isend(m.loc.clone(), m.count, &m.dtype, peer, i as u32),
        false => env
            .comm
            .irecv(m.loc.clone(), m.count, &m.dtype, peer, i as u32),
    };
    msgs.iter().enumerate().map(one).collect()
}

/// `osu_latency`: half the ping-pong round trip, after one warm-up
/// exchange.
pub fn latency(device: bool, strided: bool, bytes: usize) -> Sample {
    sample(bytes, bytes, move |env| {
        let msg = Msg::new(env, device, strided, bytes);
        let me = env.comm.rank();
        let leg = |send: bool, tag: u32| {
            let (buf, n, dt) = (msg.loc.clone(), msg.count, &msg.dtype);
            if send {
                env.comm.send(buf, n, dt, 1 - me, tag);
            } else {
                env.comm.recv(buf, n, dt, 1 - me, tag);
            }
        };
        let mut half_rtt = 0.0;
        for lap in 0..2 {
            let t0 = sim_core::now();
            leg(me == 0, lap);
            leg(me != 0, lap);
            half_rtt = (sim_core::now() - t0).as_micros_f64() / 2.0;
        }
        half_rtt
    })
}

/// Window size used by the bandwidth benchmarks (OSU default is 64).
pub const BW_WINDOW: usize = 64;

/// `osu_bw`: `BW_WINDOW` messages in flight from rank 0 to rank 1, then a
/// zero-byte handshake; bandwidth over the whole window.
pub fn bandwidth(device: bool, strided: bool, bytes: usize) -> Sample {
    sample(bytes, bytes * BW_WINDOW, move |env| {
        let me = env.comm.rank();
        let peer = 1 - me;
        let msgs = window(env, BW_WINDOW, device, strided, bytes);
        let ack = Msg::new(env, device, false, 0);
        // Warm-up round then measured round.
        let mut elapsed = 0.0;
        for _ in 0..2 {
            env.comm.barrier();
            let t0 = sim_core::now();
            env.comm.waitall(post(env, &msgs, peer, me == 0));
            if me == 0 {
                env.comm.recv(ack.loc.clone(), 0, &ack.dtype, peer, 999);
            } else {
                env.comm.send(ack.loc.clone(), 0, &ack.dtype, peer, 999);
            }
            elapsed = (sim_core::now() - t0).as_micros_f64();
        }
        elapsed
    })
}

/// `osu_bibw`: both ranks stream a window to each other simultaneously;
/// reports the aggregate bandwidth.
pub fn bi_bandwidth(device: bool, strided: bool, bytes: usize) -> Sample {
    sample(bytes, 2 * bytes * BW_WINDOW, move |env| {
        let peer = 1 - env.comm.rank();
        let out = window(env, BW_WINDOW, device, strided, bytes);
        let inb = window(env, BW_WINDOW, device, strided, bytes);
        let mut elapsed = 0.0;
        for _ in 0..2 {
            env.comm.barrier();
            let t0 = sim_core::now();
            let mut reqs = post(env, &inb, peer, false);
            reqs.extend(post(env, &out, peer, true));
            env.comm.waitall(reqs);
            elapsed = (sim_core::now() - t0).as_micros_f64();
        }
        elapsed
    })
}

/// The standard OSU size sweep: powers of two from `lo` to `hi` inclusive.
pub fn size_sweep(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = lo.max(1);
    while s <= hi {
        v.push(s);
        s *= 2;
    }
    v
}

/// One OSU benchmark over `--min ..= --max` (`--smoke`: one eager and one
/// rendezvous size) in the buffers and layout the flags choose.
fn sweep(name: &str, args: &Args, f: fn(bool, bool, usize) -> Sample) -> Doc {
    const COLS: &[Col] = &[
        col("bytes", "bytes", Fmt::Plain),
        col("us", "time (us)", Fmt::Fixed(2)),
        col("mbps", "MB/s", Fmt::Fixed(1)),
    ];
    let buffers = if args.device { "Device" } else { "Host" };
    let pattern = if args.strided {
        "Strided"
    } else {
        "Contiguous"
    };
    let sizes = match args.smoke {
        true => vec![4 << 10, 256 << 10],
        false => size_sweep(args.min, args.max),
    };
    let mut t = Table::new(COLS);
    for bytes in sizes {
        let s = f(args.device, args.strided, bytes);
        t.row(&[&s.bytes, &s.micros, &s.mbps]);
    }
    let mut doc = Doc::new();
    doc.field("buffers", buffers)
        .field("pattern", pattern)
        .say(format!("# {name}  buffers={buffers}  pattern={pattern}"))
        .table("data", &t);
    doc
}

/// `osu_latency`: ping-pong latency, host or device buffers, contiguous or
/// strided. `--device --strided` reproduces the measurement behind the
/// paper's Figure 5 MV2-GPU-NC curve.
pub fn osu_latency(args: &Args) -> Doc {
    sweep("osu_latency", args, latency)
}

/// `osu_bw`: unidirectional windowed bandwidth.
pub fn osu_bw(args: &Args) -> Doc {
    sweep("osu_bw", args, bandwidth)
}

/// `osu_bibw`: bidirectional windowed bandwidth.
pub fn osu_bibw(args: &Args) -> Doc {
    sweep("osu_bibw", args, bi_bandwidth)
}
