//! Multi-job tenancy: per-job QoS knobs and the typed placement errors.
//!
//! A [`crate::Fabric`] built with [`crate::Fabric::multi_job`] hosts several
//! concurrent jobs. Each job brings its own [`crate::Topology`] over
//! *job-local node slots*; a scheduler later binds those slots to physical
//! nodes with [`crate::Fabric::try_bind_job`]. Until a job is bound its
//! endpoints must not touch the fabric. The per-job [`JobQos`] knobs govern
//! how a bound job shares the hardware it lands on:
//!
//! * **`hca_weight`** — weighted share of a node's HCA transmit engine
//!   while the engine is backlogged (see the arbitration notes on
//!   [`crate::Fabric`]). An idle engine always serves at full rate, so a
//!   sole tenant is bit-identical to a dedicated fabric whatever its
//!   weight.
//! * **`rate_cap`** — optional hard ceiling on the fraction of link
//!   bandwidth the job may use, applied even when the engine is idle
//!   (non-work-conserving, like an HCA rate-limited SL).
//! * **`share_nodes`** — opt-in to co-placement. Two jobs may only be
//!   bound to overlapping physical node sets when *both* opted in;
//!   otherwise [`crate::Fabric::try_bind_job`] refuses with
//!   [`BindError::NodeOverlap`] instead of silently double-billing the
//!   shared HCA.

use crate::topology::Topology;

/// Per-job quality-of-service knobs on the shared fabric. See the module
/// docs for what each knob means; [`JobQos::default`] is "one fair share,
/// no cap, exclusive nodes".
#[derive(Clone, Debug)]
pub struct JobQos {
    /// Weight in the HCA transmit-engine arbitration (>= 1).
    pub hca_weight: u32,
    /// Optional hard cap on the job's fraction of link bandwidth, in
    /// `(0, 1]`. Applied even on an idle engine.
    pub rate_cap: Option<f64>,
    /// Whether this job may share physical nodes with other jobs that also
    /// set this flag.
    pub share_nodes: bool,
}

impl Default for JobQos {
    fn default() -> Self {
        JobQos {
            hca_weight: 1,
            rate_cap: None,
            share_nodes: false,
        }
    }
}

impl JobQos {
    /// Panic on out-of-range knobs (zero weight, caps outside `(0, 1]`).
    /// Caller contract: QoS values are literals in campaign code (bench
    /// `job_mix`, `tests/cluster.rs`), nothing parses them from outside the
    /// program; [`Fabric::multi_job`](crate::Fabric::multi_job) checks them
    /// here, at construction, so the arbiter never divides by a zero weight.
    pub fn validate(&self) {
        assert!(self.hca_weight >= 1, "JobQos.hca_weight must be >= 1");
        if let Some(c) = self.rate_cap {
            assert!(
                c > 0.0 && c <= 1.0,
                "JobQos.rate_cap must be in (0, 1], got {c}"
            );
        }
    }
}

/// One tenant of a multi-job fabric: its rank→node-slot topology, QoS
/// knobs and trace/metrics label.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Ranks → job-local node slots (dense `0..nodes`). The physical
    /// placement of those slots is chosen later, at bind time.
    pub topo: Topology,
    /// The job's share of whatever hardware it is bound to.
    pub qos: JobQos,
    /// Scope prefix for every trace lane, sanitizer pool and metrics key
    /// the job's ranks emit — e.g. `"job3."` yields `job3.rank0/proto`
    /// lanes and `job3.rank0.*` metrics. The empty label reproduces the
    /// unprefixed single-job namespace byte for byte.
    pub label: String,
}

impl JobSpec {
    /// A job with default QoS and the conventional `"job{id}."` label.
    pub fn labeled(id: usize, topo: Topology) -> Self {
        JobSpec {
            topo,
            qos: JobQos::default(),
            label: format!("job{id}."),
        }
    }
}

/// Why [`crate::Fabric::try_bind_job`] refused a placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindError {
    /// The job is already bound (unbind it first).
    AlreadyBound {
        /// The offending job id.
        job: usize,
    },
    /// The binding names a different number of nodes than the job's
    /// topology has slots.
    WrongCount {
        /// The job being bound.
        job: usize,
        /// Slots the job's topology declares.
        expected: usize,
        /// Nodes the binding supplied.
        got: usize,
    },
    /// A named physical node does not exist.
    BadNode {
        /// The out-of-range node id.
        node: usize,
        /// Physical nodes in the fabric.
        num_nodes: usize,
    },
    /// The binding maps two job node slots onto one physical node.
    DuplicateNode {
        /// The physical node named twice.
        node: usize,
    },
    /// The placement overlaps another bound job's nodes and at least one
    /// of the two jobs did not opt into sharing (`JobQos::share_nodes`).
    /// Refusing here is what keeps per-node HCA counters honest: two
    /// tenants never double-bill one engine without both asking for it.
    NodeOverlap {
        /// The job being bound.
        job: usize,
        /// The already-bound job it collides with.
        other: usize,
        /// One shared physical node (the first found).
        node: usize,
    },
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::AlreadyBound { job } => {
                write!(f, "job {job} is already bound to physical nodes")
            }
            BindError::WrongCount { job, expected, got } => write!(
                f,
                "job {job} has {expected} node slot(s) but the binding names {got} node(s)"
            ),
            BindError::BadNode { node, num_nodes } => {
                write!(f, "no such physical node {node} (fabric has {num_nodes})")
            }
            BindError::DuplicateNode { node } => {
                write!(f, "binding names physical node {node} twice")
            }
            BindError::NodeOverlap { job, other, node } => write!(
                f,
                "job {job} would share physical node {node} with job {other} \
                 without QoS node-sharing enabled on both (set JobQos.share_nodes)"
            ),
        }
    }
}

impl std::error::Error for BindError {}
