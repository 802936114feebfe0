//! GPU cluster launcher: an [`MpiWorld`] plus one GPU per *node*, with
//! MV2-GPU-NC staging installed on every rank. Co-located ranks (set by
//! [`GpuCluster::ppn`] or an explicit topology) share their node's GPU and
//! HCA and talk over the intra-node shared-memory channel.
//!
//! The world is built by [`MpiWorld::launch`] — the one launch path. This
//! module supplies its two caller-side pieces: the set-up builds the
//! per-node GPUs ([`node_gpu`]), the per-rank main seats the rank on its
//! node's GPU ([`GpuRankEnv::new`]). `cluster_sim::run_mix` brings its
//! tenants' ranks up through the same two functions.

use std::sync::Arc;

use gpu_sim::{CostModel, Gpu};
use ib_sim::{DeliveryScheduler, FaultSpec, Topology};
use mpi_sim::{Comm, MpiConfig, MpiWorld, Outcome, Seat};
use sim_core::{ExecMode, Report, SanitizerMode, SimTime};
use sim_trace::Recorder;

pub use mpi_sim::WakeTraceSink;

use crate::stager::GpuStager;

/// Everything one rank's program sees: its communicator (GPU-aware), its
/// GPU, and the shared trace recorder.
pub struct GpuRankEnv {
    /// GPU-aware communicator (device buffers allowed in MPI calls).
    pub comm: Comm,
    /// This node's GPU.
    pub gpu: Gpu,
    /// Trace recorder (shared across ranks and all sim layers).
    pub recorder: Recorder,
}

impl GpuRankEnv {
    /// Bring one GPU-aware rank up on `seat`: pick its node's device out of
    /// `node_gpus` (indexed by physical node), install a [`GpuStager`] on
    /// it and create the communicator. Stage spans go on the same
    /// `{job scope}rank{r}` lanes as the rank's protocol engine. Must run
    /// inside the rank's simulation process, once its job is bound.
    pub fn new(seat: Seat, node_gpus: &[Gpu]) -> GpuRankEnv {
        let Seat {
            nic,
            rank,
            size,
            cfg,
            recorder,
        } = seat;
        let gpu = node_gpus[nic.physical_node()].clone();
        let scope = format!("{}rank{rank}", nic.scope_prefix());
        let stager = Arc::new(GpuStager::with_scope(gpu.clone(), &scope, &recorder));
        GpuRankEnv {
            comm: Comm::create_traced(nic, rank, size, cfg, Some(stager), &recorder),
            gpu,
            recorder,
        }
    }
}

/// Node `node`'s GPU (the calibrated Tesla C2050), tracing onto `rec`. One
/// physical GPU per *node* (the paper's testbed): co-located ranks share
/// the device, its copy engines and its PCIe links. Pure construction, safe
/// outside simulation context.
pub fn node_gpu(node: usize, mem: usize, rec: &Recorder) -> Gpu {
    let gpu = Gpu::new(node as u32, CostModel::tesla_c2050(), mem);
    gpu.attach_recorder(rec);
    gpu
}

/// A simulated GPU cluster (the paper's testbed: one process per node, one
/// GPU per process).
pub struct GpuCluster {
    world: MpiWorld,
    gpu_mem: usize,
}

impl GpuCluster {
    /// `n` ranks with calibrated defaults (Tesla C2050 + QDR InfiniBand),
    /// one rank per node, tracing into a fresh enabled recorder.
    pub fn new(n: usize) -> Self {
        GpuCluster {
            world: MpiWorld::new(n).with_recorder(Recorder::new()),
            gpu_mem: 3 << 30,
        }
    }

    fn on_world(mut self, f: impl FnOnce(MpiWorld) -> MpiWorld) -> Self {
        self.world = f(self.world);
        self
    }

    /// Select the process carrier; see [`MpiWorld::with_exec`].
    pub fn exec(self, mode: ExecMode) -> Self {
        self.on_world(|w| w.with_exec(mode))
    }

    /// Record every scheduling grant of the run into `sink`; see
    /// [`MpiWorld::with_wake_trace`].
    pub fn wake_trace(self, sink: WakeTraceSink) -> Self {
        self.on_world(|w| w.with_wake_trace(sink))
    }

    /// Place `ppn` consecutive ranks per node (blocked mapping). The ranks
    /// of a node share its GPU, its HCA and its PCIe links; they exchange
    /// messages over shared memory instead of the wire. `ppn` must evenly
    /// divide the rank count; checked at job launch.
    pub fn ppn(self, ppn: usize) -> Self {
        self.on_world(|w| w.with_ppn(ppn))
    }

    /// Use an explicit rank→node map instead of the blocked `ppn` layout.
    /// Overrides [`ppn`](GpuCluster::ppn).
    pub fn topology(self, topo: Topology) -> Self {
        self.on_world(|w| w.with_topology(topo))
    }

    /// Set the pipeline block size (the paper's `MV2_CUDA_BLOCK_SIZE`),
    /// pinning the chunk policy; see [`MpiWorld::with_block_size`].
    pub fn block_size(self, bytes: usize) -> Self {
        self.on_world(|w| w.with_block_size(bytes))
    }

    /// Override the MPI configuration.
    pub fn mpi_config(self, cfg: MpiConfig) -> Self {
        self.on_world(|w| w.with_config(cfg))
    }

    /// Override per-GPU device memory (default 3 GiB).
    pub fn gpu_mem(mut self, bytes: usize) -> Self {
        self.gpu_mem = bytes;
        self
    }

    /// Run the job under the simulation sanitizer (see [`sim_core::san`]).
    pub fn sanitizer(self, mode: SanitizerMode) -> Self {
        self.on_world(|w| w.with_sanitizer(mode))
    }

    /// Run the job on a fault-injecting fabric; see
    /// [`MpiWorld::with_faults`]. The application must observe
    /// byte-identical results.
    pub fn faults(self, spec: FaultSpec) -> Self {
        self.on_world(|w| w.with_faults(spec))
    }

    /// Hand control-packet delivery ordering to `s`; see
    /// [`MpiWorld::with_scheduler`].
    pub fn scheduler(self, s: Arc<dyn DeliveryScheduler>) -> Self {
        self.on_world(|w| w.with_scheduler(s))
    }

    /// Record spans/counters into `rec` instead of a fresh recorder; see
    /// [`MpiWorld::with_recorder`].
    pub fn recorder(self, rec: Recorder) -> Self {
        self.on_world(|w| w.with_recorder(rec))
    }

    /// Run `f` on every rank; returns the virtual completion time. A panic
    /// anywhere in the job propagates.
    pub fn run<F>(self, f: F) -> SimTime
    where
        F: Fn(&GpuRankEnv) + Send + Sync + 'static,
    {
        self.try_run(f).unwrap().0
    }

    /// [`try_run`](GpuCluster::try_run) as the `(end, reports)` pair the
    /// frozen `benchmark/` package reads; nothing else calls it.
    pub fn try_run_with_reports<F>(self, f: F) -> (Result<SimTime, String>, Vec<Report>)
    where
        F: Fn(&GpuRankEnv) + Send + Sync + 'static,
    {
        let out = self.try_run(f);
        (out.end, out.reports)
    }

    /// Run `f` on every rank and return the job's [`Outcome`]: every rank's
    /// value of `f`, the sanitizer reports, and a panic anywhere in the job
    /// as `Err` instead of unwinding; see [`MpiWorld::try_run`].
    pub fn try_run<T, F>(self, f: F) -> Outcome<T>
    where
        T: Send + 'static,
        F: Fn(&GpuRankEnv) -> T + Send + Sync + 'static,
    {
        let GpuCluster { world, gpu_mem } = self;
        world.launch(
            move |_, topo, rec| -> Vec<Gpu> {
                (0..topo.num_nodes())
                    .map(|node| node_gpu(node, gpu_mem, rec))
                    .collect()
            },
            move |gpus, seat| {
                let env = GpuRankEnv::new(seat, gpus);
                let out = f(&env);
                env.comm.finalize();
                out
            },
        )
    }
}
