//! Data-parallel gradient allreduce.
//!
//! The canonical distributed-training loop: every rank computes a local
//! gradient over its shard, the gradients are summed with `allreduce`,
//! and every rank applies the identical update. The model lives on the
//! host or on the device; device gradients travel through the staging
//! pipeline (pack to host staging → fold → repack), exercising the
//! GPU-aware reduction path end to end.
//!
//! Gradients are **integer-valued** `f32` and updates scale by 1/8, so
//! every arithmetic step is exact in `f32` regardless of fold order: the
//! distributed weights must match [`serial_gradient`] bit for bit on
//! every rank, every placement, every algorithm family.

use gpu_sim::Loc;
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use mpi_sim::{CollAlgo, Datatype, ReduceOp};
use mv2_gpu_nc::GpuRankEnv;
use sim_core::SimTime;

use crate::Mem;

/// Gradient-allreduce workload configuration.
#[derive(Copy, Clone, Debug)]
pub struct GradParams {
    /// Model size (number of `f32` parameters).
    pub params: usize,
    /// Training steps (one allreduce per step).
    pub steps: usize,
    /// Number of ranks.
    pub ranks: usize,
    /// Ranks per node (blocked placement); must divide `ranks`.
    pub ppn: usize,
    /// Collective algorithm family.
    pub algo: CollAlgo,
    /// Host or device gradient buffers.
    pub mem: Mem,
}

/// Result of a data-parallel run.
#[derive(Clone, Debug)]
pub struct GradOutcome {
    /// Virtual completion time of the job.
    pub wall: SimTime,
    /// Each rank's final weights (must all be identical).
    pub weights: Vec<Vec<f32>>,
}

/// Rank `r`'s local gradient for parameter `k` at `step` — integer-valued
/// in [-11, 11], so sums stay exact in `f32` for any realistic rank
/// count.
pub fn local_grad(r: usize, step: usize, k: usize) -> f32 {
    ((k * 31 + step * 17 + r * 13) % 23) as f32 - 11.0
}

/// The serial reference: the same training loop with the gradient sum
/// computed directly.
pub fn serial_gradient(params: usize, steps: usize, ranks: usize) -> Vec<f32> {
    let mut w = vec![0f32; params];
    for step in 0..steps {
        for (k, wk) in w.iter_mut().enumerate() {
            let g: f32 = (0..ranks).map(|r| local_grad(r, step, k)).sum();
            *wk -= 0.125 * g;
        }
    }
    w
}

/// One rank's training loop over `env.comm`: `steps` steps on a model of
/// `params` weights, each summing every rank's [`local_grad`] with one
/// `allreduce` (out of host or device memory per `mem`). Returns this
/// rank's final weights.
pub fn gradient_rank(env: &GpuRankEnv, params: usize, steps: usize, mem: Mem) -> Vec<f32> {
    let comm = &env.comm;
    let me = comm.rank();
    let bytes = params * 4;
    let f32t = Datatype::float();
    f32t.commit();

    let grad_host = HostBuf::alloc(bytes);
    let sum_host = HostBuf::alloc(bytes);
    let dev = match mem {
        Mem::Host => None,
        Mem::Device => Some((env.gpu.malloc(bytes), env.gpu.malloc(bytes))),
    };
    let (send_loc, recv_loc) = match dev {
        None => (Loc::Host(grad_host.base()), Loc::Host(sum_host.base())),
        Some((g, s)) => (Loc::Device(g), Loc::Device(s)),
    };

    let mut w = vec![0f32; params];
    comm.barrier();
    for step in 0..steps {
        let grad: Vec<f32> = (0..params).map(|k| local_grad(me, step, k)).collect();
        grad_host.write(0, &scalars_to_bytes(&grad));
        if let Some((g, _)) = dev {
            env.gpu.memcpy(g, grad_host.base(), bytes);
        }
        comm.allreduce(
            send_loc.clone(),
            recv_loc.clone(),
            params,
            &f32t,
            ReduceOp::Sum,
        );
        if let Some((_, s)) = dev {
            env.gpu.memcpy(sum_host.base(), s, bytes);
        }
        let summed = bytes_to_scalars::<f32>(&sum_host.read(0, bytes));
        for (wk, g) in w.iter_mut().zip(&summed) {
            *wk -= 0.125 * g;
        }
    }
    if let Some((g, s)) = dev {
        env.gpu.free(g);
        env.gpu.free(s);
    }
    w
}

/// Run the distributed training loop.
pub fn run_gradient(p: GradParams) -> GradOutcome {
    let (wall, weights, _) = crate::cluster(p.ranks, p.ppn, p.algo)
        .try_run(move |env| gradient_rank(env, p.params, p.steps, p.mem))
        .unwrap();
    GradOutcome { wall, weights }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(p: GradParams) {
        let out = run_gradient(p);
        let want = serial_gradient(p.params, p.steps, p.ranks);
        for (i, w) in out.weights.iter().enumerate() {
            assert_eq!(w.as_slice(), want.as_slice(), "rank {i} ({p:?})");
        }
    }

    #[test]
    fn matches_serial_on_host_all_families() {
        for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
            check(GradParams {
                params: 3000,
                steps: 3,
                ranks: 8,
                ppn: 4,
                algo,
                mem: Mem::Host,
            });
        }
    }

    #[test]
    fn matches_serial_on_device_hier_pipelined() {
        // 256 KiB of f32 spans several 64 KiB pipeline segments.
        check(GradParams {
            params: 64 << 10,
            steps: 2,
            ranks: 8,
            ppn: 4,
            algo: CollAlgo::Hier,
            mem: Mem::Device,
        });
    }

    #[test]
    fn matches_serial_uneven_node_fill() {
        // 9 ranks at ppn 3: hierarchy with three nodes.
        check(GradParams {
            params: 1024,
            steps: 2,
            ranks: 9,
            ppn: 3,
            algo: CollAlgo::Hier,
            mem: Mem::Host,
        });
    }
}
