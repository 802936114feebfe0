//! The job zoo: self-verifying MPI application bodies, each sized by a
//! small heavy-tailed scale factor. Five families form the arrival mix;
//! a sixth host-bandwidth [`JobKind::Stream`] serves as the HCA QoS
//! probe.
//!
//! Every body runs against a [`GpuRankEnv`] exactly like a dedicated
//! [`mv2_gpu_nc::GpuCluster`] job would, so the same code serves dedicated
//! baseline runs and tenant runs on a shared fabric — the bodies *are* the
//! applications' own per-rank code (`halo3d::Halo3dRank`,
//! `stencil2d::StencilRank`, `coll_apps::{transpose_rank, gradient_rank}`),
//! not copies of it. Bodies verify their own numerics where that is cheap
//! (the transpose is bit-exact against the serial reference, the gradient
//! loop matches the serial training loop bit for bit), so a mixed campaign
//! doubles as a correctness check of the staging pipeline under contention.

use coll_apps::{gradient_rank, serial_gradient, serial_transpose, transpose_rank, Mem};
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use ib_sim::Topology;
use mpi_sim::Datatype;
use mv2_gpu_nc::baselines::{fill_vector, verify_vector, VectorXfer};
use mv2_gpu_nc::GpuRankEnv;

/// The application families: five mix tenants plus the host-bandwidth
/// QoS probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// 3-D Jacobi with six-face subarray halo exchange (8 ranks, 2x2x2).
    Halo3d,
    /// SHOC Stencil2D with column-datatype halos (4 ranks, 2x2).
    Stencil2d,
    /// Distributed matrix transpose over `alltoallv` of strided columns
    /// (4 ranks).
    Transpose,
    /// Data-parallel gradient allreduce (4 ranks).
    Gradient,
    /// OSU-style device-to-device ping-pong over the paper's vector
    /// datatype (2 ranks).
    Osu,
    /// Host-to-host bandwidth stream (2 ranks): back-to-back 256 KiB
    /// contiguous messages with no GPU staging, so the HCA — not the PCIe
    /// copy engine — is the saturated resource. Not part of the arrival
    /// mix; this is the instrument for HCA QoS experiments (GPU-staged
    /// bodies rarely backlog a QDR link because the shared copy engine
    /// paces their chunks below link rate).
    Stream,
}

impl JobKind {
    /// Short stable name (JSON keys, trace labels).
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Halo3d => "halo3d",
            JobKind::Stencil2d => "stencil2d",
            JobKind::Transpose => "transpose",
            JobKind::Gradient => "gradient",
            JobKind::Osu => "osu",
            JobKind::Stream => "stream",
        }
    }

    /// Ranks this kind launches.
    pub fn ranks(self) -> usize {
        match self {
            JobKind::Halo3d => 8,
            JobKind::Stencil2d | JobKind::Transpose | JobKind::Gradient => 4,
            JobKind::Osu | JobKind::Stream => 2,
        }
    }

    /// The arrival generator's kind mix, in mix-weight order
    /// ([`JobKind::Stream`] is deliberately absent — it exists as a QoS
    /// probe, not a tenant family).
    pub fn all() -> [JobKind; 5] {
        [
            JobKind::Halo3d,
            JobKind::Stencil2d,
            JobKind::Transpose,
            JobKind::Gradient,
            JobKind::Osu,
        ]
    }
}

/// One sized job: a kind plus its heavy-tailed scale factor (1..=8; the
/// arrival generator draws it from a bounded Pareto, so most jobs are
/// small and a few are ~8x the work).
#[derive(Copy, Clone, Debug)]
pub struct SizedJob {
    /// Application family.
    pub kind: JobKind,
    /// Work multiplier in `1..=8` (iterations / problem size).
    pub scale: u32,
}

impl SizedJob {
    /// Ranks this job launches.
    pub fn ranks(&self) -> usize {
        self.kind.ranks()
    }

    /// The job's rank → node-slot topology (one rank per node slot; node
    /// sharing across *jobs* is the scheduler's business, not the
    /// topology's).
    pub fn topo(&self) -> Topology {
        Topology::one_per_node(self.ranks())
    }

    /// Run this job's body on one rank. Must be called once per rank of
    /// [`SizedJob::ranks`], with `env.comm` sized accordingly.
    pub fn run(&self, env: &GpuRankEnv) {
        let s = self.scale as usize;
        match self.kind {
            JobKind::Halo3d => run_halo3d(env, s),
            JobKind::Stencil2d => run_stencil(env, s),
            JobKind::Transpose => run_transpose(env, s),
            JobKind::Gradient => run_gradient(env, s),
            JobKind::Osu => run_osu(env, s),
            JobKind::Stream => run_stream(env, s),
        }
    }
}

/// 3-D Jacobi: `scale` iterations on a fixed 4^3 local block, MV2 variant
/// (device buffers + subarray datatypes).
fn run_halo3d(env: &GpuRankEnv, scale: usize) {
    let p = halo3d::Halo3dParams {
        grid: (2, 2, 2),
        local: (4, 4, 4),
        iters: scale,
    };
    let mut rank = halo3d::Halo3dRank::<f32>::new(env, p);
    for _ in 0..p.iters {
        rank.step(halo3d::Variant::Mv2);
    }
    rank.free();
}

/// SHOC Stencil2D: `scale` iterations on a 16x16 interior, MV2 variant.
fn run_stencil(env: &GpuRankEnv, scale: usize) {
    let p = stencil2d::StencilParams {
        py: 2,
        px: 2,
        rows: 16,
        cols: 16,
        iters: scale,
    };
    let mut rank = stencil2d::StencilRank::<f32>::new(env, p);
    for _ in 0..p.iters {
        rank.step(stencil2d::Variant::Mv2);
    }
    rank.free();
}

/// Distributed N x N transpose on device buffers
/// ([`coll_apps::transpose_rank`]), bit-exact against
/// [`serial_transpose`]. N = 16 * scale.
fn run_transpose(env: &GpuRankEnv, scale: usize) {
    let n = 16 * scale;
    let (me, b) = (env.comm.rank(), n / env.comm.size());
    let block = transpose_rank(env, n, Mem::Device);
    assert_eq!(
        block.as_slice(),
        &serial_transpose(n)[me * b * n..(me + 1) * b * n],
        "transpose rank {me} corrupted under contention (n = {n})"
    );
}

/// Two training steps of a `512 * scale`-parameter gradient allreduce on
/// device buffers ([`coll_apps::gradient_rank`]), bit-exact against
/// [`serial_gradient`].
fn run_gradient(env: &GpuRankEnv, scale: usize) {
    let (params, steps) = (512 * scale, 2);
    assert_eq!(
        gradient_rank(env, params, steps, Mem::Device),
        serial_gradient(params, steps, env.comm.size()),
        "gradient rank {} diverged under contention ({params} params)",
        env.comm.rank()
    );
}

/// OSU-style ping-pong: four warm+timed round trips of the paper's vector
/// datatype (`8 KiB * scale` of payload) between device buffers.
fn run_osu(env: &GpuRankEnv, scale: usize) {
    let comm = &env.comm;
    let total = (8 << 10) * scale;
    let x = VectorXfer::paper(total);
    let dt = x.dtype();
    let dev = env.gpu.malloc(x.extent());
    let me = comm.rank();
    if me == 0 {
        fill_vector(&env.gpu, dev, &x, 29);
    }
    for it in 0..4u32 {
        if me == 0 {
            comm.send(dev, 1, &dt, 1, it);
            comm.recv(dev, 1, &dt, 1, 1000 + it);
        } else {
            comm.recv(dev, 1, &dt, 0, it);
            comm.send(dev, 1, &dt, 0, 1000 + it);
        }
    }
    // Four full round trips only move the pattern back and forth; both
    // sides must still hold rank 0's fill.
    verify_vector(&env.gpu, dev, &x, 29);
    env.gpu.free(dev);
}

/// Host-to-host bandwidth stream: rank 0 posts `2 * scale` back-to-back
/// 256 KiB contiguous isends to rank 1, which verifies every payload byte.
/// No GPU is touched, so the sends keep the sender's HCA transmit engine
/// continuously backlogged — the workload QoS weights actually divide.
fn run_stream(env: &GpuRankEnv, scale: usize) {
    let comm = &env.comm;
    let me = comm.rank();
    let elems = 64 << 10; // 256 KiB of f32 per message
    let msgs = 2 * scale;
    let f32t = Datatype::float();
    f32t.commit();
    let payload = |m: usize| -> Vec<f32> { (0..elems).map(|k| (m * 131 + k) as f32).collect() };
    if me == 0 {
        let bufs: Vec<HostBuf> = (0..msgs)
            .map(|m| HostBuf::from_vec(scalars_to_bytes(&payload(m))))
            .collect();
        let reqs: Vec<_> = bufs
            .iter()
            .enumerate()
            .map(|(m, b)| comm.isend(b.base(), elems, &f32t, 1, m as u32))
            .collect();
        comm.waitall(reqs);
    } else {
        let bufs: Vec<HostBuf> = (0..msgs).map(|_| HostBuf::alloc(elems * 4)).collect();
        let reqs: Vec<_> = bufs
            .iter()
            .enumerate()
            .map(|(m, b)| comm.irecv(b.base(), elems, &f32t, 0, m as u32))
            .collect();
        comm.waitall(reqs);
        for (m, b) in bufs.iter().enumerate() {
            let got = bytes_to_scalars::<f32>(&b.read(0, elems * 4));
            assert_eq!(
                got,
                payload(m),
                "stream message {m} corrupted under contention"
            );
        }
    }
    comm.barrier();
}
