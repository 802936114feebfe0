//! The recording layer: [`Recorder`], [`Lane`] handles and the event ring.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sim_core::lock::Mutex;
use sim_core::{CallCounters, Completion, SimTime};

/// Index of a lane within its recorder (dense, assigned at registration).
pub type LaneId = u32;

/// What kind of resource a lane models (drives export categories and
/// analysis filters).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LaneKind {
    /// A GPU engine queue (H2D/D2H copy engines, device-internal DMA,
    /// compute).
    GpuEngine,
    /// An HCA transmit engine (serialization onto the wire).
    Hca,
    /// A node's intra-node shared-memory copy engine.
    Shm,
    /// A rank's MPI progress/protocol engine (state transitions, retries).
    Proto,
    /// A pipeline stage carrying per-chunk spans (pack, d2h, rdma, h2d,
    /// unpack).
    Stage,
    /// An occupancy gauge (vbuf pools, tuner decisions).
    Gauge,
}

impl LaneKind {
    /// Short category label (used by the Chrome exporter).
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::GpuEngine => "gpu",
            LaneKind::Hca => "hca",
            LaneKind::Shm => "shm",
            LaneKind::Proto => "proto",
            LaneKind::Stage => "stage",
            LaneKind::Gauge => "gauge",
        }
    }
}

/// Identity of one lane.
#[derive(Clone, Debug)]
pub struct LaneMeta {
    /// Owning resource group (e.g. `rank0`, `gpu1`, `hca0`). Becomes the
    /// "process" in Chrome exports.
    pub scope: String,
    /// Lane name within the scope (e.g. `d2h`, `pack`, `tx`). Becomes the
    /// "thread" in Chrome exports.
    pub name: String,
    /// Resource kind.
    pub kind: LaneKind,
}

/// Payload of one recorded event.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// An interval during which the lane's resource was busy.
    Span {
        /// Operation name (static so recording allocates nothing).
        name: &'static str,
        /// Chunk index, for per-chunk pipeline stages.
        chunk: Option<usize>,
        /// Busy-interval start.
        start: SimTime,
        /// Busy-interval end.
        end: SimTime,
    },
    /// A point event (a retry fired, a fault was injected, a protocol
    /// transition happened).
    Instant {
        /// Event name.
        name: &'static str,
        /// When it happened.
        at: SimTime,
    },
    /// A sampled value (pool occupancy, chosen chunk size).
    Gauge {
        /// Sample instant.
        at: SimTime,
        /// Sampled value.
        value: i64,
    },
}

/// One recorded event: a payload on a lane.
#[derive(Clone, Debug)]
pub struct Event {
    /// The lane the event belongs to.
    pub lane: LaneId,
    /// The payload.
    pub kind: EventKind,
}

struct State {
    lanes: Vec<LaneMeta>,
    /// `scope -> name -> LaneId` index over `lanes`. The `Vec` stays the
    /// source of truth for ids and export order; this only finds them.
    lane_index: HashMap<String, HashMap<String, LaneId>>,
    ring: VecDeque<Event>,
    cap: usize,
    dropped: u64,
    counters: Vec<(String, CallCounters)>,
    /// `prefix -> position in counters`.
    counter_index: HashMap<String, usize>,
}

struct Inner {
    enabled: AtomicBool,
    state: Mutex<State>,
}

/// A cloneable handle to one trace buffer. Clones share the same ring.
///
/// A recorder is either *enabled* (events are kept) or *disabled* (every
/// emission is a no-op behind a single atomic load). Lanes can be
/// registered either way, so wiring code never branches on the mode.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

/// Default ring capacity (events). Small structs; ~24 MB worst case.
const DEFAULT_CAP: usize = 1 << 19;

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An enabled recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// An enabled recorder keeping at most `cap` events (oldest dropped
    /// first; see [`dropped`](Self::dropped)).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "Recorder capacity must be positive");
        Recorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                state: Mutex::new(State {
                    lanes: Vec::new(),
                    lane_index: HashMap::new(),
                    ring: VecDeque::new(),
                    cap,
                    dropped: 0,
                    counters: Vec::new(),
                    counter_index: HashMap::new(),
                }),
            }),
        }
    }

    /// A disabled recorder: every emission no-ops after one atomic load.
    pub fn off() -> Self {
        let r = Self::with_capacity(1);
        r.inner.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Whether events are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Register (or look up) the lane `scope/name`. Idempotent: the same
    /// pair always maps to the same [`LaneId`] (the first registration's
    /// `kind` wins), and ids are dense in first-registration order. A
    /// lookup costs two hash probes however many lanes exist: a multi-tenant
    /// fabric registers ~10 lanes per short-lived engine into a table of
    /// tens of thousands, disabled recorder or not.
    pub fn lane(&self, scope: &str, name: &str, kind: LaneKind) -> Lane {
        let mut st = self.inner.state.lock();
        let hit = st.lane_index.get(scope).and_then(|names| names.get(name));
        let id = match hit.copied() {
            Some(id) => id,
            None => {
                let id = LaneId::try_from(st.lanes.len()).expect("more than u32::MAX lanes");
                st.lanes.push(LaneMeta {
                    scope: scope.to_string(),
                    name: name.to_string(),
                    kind,
                });
                st.lane_index
                    .entry(scope.to_string())
                    .or_default()
                    .insert(name.to_string(), id);
                id
            }
        };
        Lane {
            rec: self.clone(),
            id,
        }
    }

    fn push(&self, ev: Event) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.inner.state.lock();
        if st.ring.len() == st.cap {
            st.ring.pop_front();
            st.dropped += 1;
        }
        st.ring.push_back(ev);
    }

    /// Snapshot of all retained events, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.state.lock().ring.iter().cloned().collect()
    }

    /// Snapshot of the lane table, indexed by [`LaneId`].
    pub fn lanes(&self) -> Vec<LaneMeta> {
        self.inner.state.lock().lanes.clone()
    }

    /// Events evicted by ring overflow since the last
    /// [`clear`](Self::clear). Analyses should refuse truncated traces.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().dropped
    }

    /// Drop all retained events (lanes and registered counters survive).
    pub fn clear(&self) {
        let mut st = self.inner.state.lock();
        st.ring.clear();
        st.dropped = 0;
    }

    /// Register a [`CallCounters`] set under `prefix` so one
    /// [`metrics`](Self::metrics) call snapshots every counter in the run —
    /// per-GPU CUDA call counts, per-rank MPI/retry counters, the global
    /// plan-cache statistics — in one namespace.
    ///
    /// Idempotent for clones of an already-registered set. Registering a
    /// *different* set under a taken prefix panics: that is two objects
    /// fighting over one metrics name (typically two worlds in one process
    /// both claiming `rank0`), and silently keeping the first would drop
    /// the second's counters from every snapshot. Namespace per-job
    /// registrations instead (e.g. a `job{k}.` scope prefix).
    pub fn register_counters(&self, prefix: &str, counters: &CallCounters) {
        let mut st = self.inner.state.lock();
        if let Some(&i) = st.counter_index.get(prefix) {
            assert!(
                st.counters[i].1.same_counters(counters),
                "metrics-registry collision: prefix '{prefix}' is already \
                 registered with a different counter set; give each job its \
                 own namespace (e.g. 'job{{k}}.{prefix}')"
            );
            return;
        }
        let slot = st.counters.len();
        st.counter_index.insert(prefix.to_string(), slot);
        st.counters.push((prefix.to_string(), counters.clone()));
    }

    /// Unified snapshot of every registered counter set, keyed
    /// `prefix.counter`.
    pub fn metrics(&self) -> BTreeMap<String, u64> {
        let regs: Vec<(String, CallCounters)> = self.inner.state.lock().counters.clone();
        let mut out = BTreeMap::new();
        for (prefix, c) in regs {
            for (k, v) in c.snapshot() {
                out.insert(format!("{prefix}.{k}"), v);
            }
        }
        out
    }
}

/// A cheap handle for emitting onto one lane. Cloning is one `Arc` bump.
#[derive(Clone)]
pub struct Lane {
    rec: Recorder,
    id: LaneId,
}

impl Lane {
    /// This lane's id within its recorder.
    pub fn id(&self) -> LaneId {
        self.id
    }

    /// Record a busy interval `[start, end]`.
    pub fn span(&self, name: &'static str, start: SimTime, end: SimTime) {
        self.chunk_span(name, None, start, end);
    }

    /// Record a busy interval tagged with a chunk index.
    pub fn chunk_span(
        &self,
        name: &'static str,
        chunk: Option<usize>,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.rec.is_enabled() {
            return;
        }
        self.rec.push(Event {
            lane: self.id,
            kind: EventKind::Span {
                name,
                chunk,
                start,
                end,
            },
        });
    }

    /// Record the busy interval of a finished [`Completion`]: the span runs
    /// from the completion's recorded start (falling back to the finish
    /// instant for completions without one) to its finish time. Panics if
    /// the completion has no assigned finish time.
    pub fn comp_span(&self, name: &'static str, chunk: Option<usize>, comp: &Completion) {
        if !self.rec.is_enabled() {
            return;
        }
        let end = comp
            .done_at()
            .expect("comp_span requires an assigned finish time");
        let start = comp.started_at().unwrap_or(end);
        self.chunk_span(name, chunk, start, end);
    }

    /// Record a point event at `at`.
    pub fn instant(&self, name: &'static str, at: SimTime) {
        if !self.rec.is_enabled() {
            return;
        }
        self.rec.push(Event {
            lane: self.id,
            kind: EventKind::Instant { name, at },
        });
    }

    /// Record a point event at the current virtual time. Must be called
    /// from inside a simulation process.
    pub fn instant_now(&self, name: &'static str) {
        if !self.rec.is_enabled() {
            return;
        }
        self.instant(name, sim_core::now());
    }

    /// Record a gauge sample at the current virtual time. Must be called
    /// from inside a simulation process.
    pub fn gauge_now(&self, value: i64) {
        if !self.rec.is_enabled() {
            return;
        }
        self.rec.push(Event {
            lane: self.id,
            kind: EventKind::Gauge {
                at: sim_core::now(),
                value,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::off();
        let lane = r.lane("rank0", "pack", LaneKind::Stage);
        lane.span("pack", SimTime::from_nanos(1), SimTime::from_nanos(2));
        lane.instant("x", SimTime::from_nanos(3));
        assert!(!r.is_enabled());
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn lanes_are_interned_per_scope_and_name() {
        let r = Recorder::new();
        let a = r.lane("rank0", "pack", LaneKind::Stage);
        let b = r.lane("rank0", "pack", LaneKind::Stage);
        let c = r.lane("rank1", "pack", LaneKind::Stage);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(r.lanes().len(), 2);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let r = Recorder::with_capacity(2);
        let lane = r.lane("s", "l", LaneKind::Proto);
        for i in 0..5u64 {
            lane.instant("tick", SimTime::from_nanos(i));
        }
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(r.dropped(), 3);
        match evs[0].kind {
            EventKind::Instant { at, .. } => assert_eq!(at, SimTime::from_nanos(3)),
            _ => panic!("expected instant"),
        }
        r.clear();
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn metrics_unify_registered_counters() {
        let r = Recorder::new();
        let a = CallCounters::new();
        let b = CallCounters::new();
        a.record("cudaMemcpy");
        a.record("cudaMemcpy");
        b.record("retry.rts");
        r.register_counters("gpu0", &a);
        r.register_counters("gpu0", &a); // idempotent
        r.clone().register_counters("gpu0", &a.clone()); // ... for clones of both
        r.register_counters("rank1", &b);
        let m = r.metrics();
        assert_eq!(m.get("gpu0.cudaMemcpy"), Some(&2));
        assert_eq!(m.get("rank1.retry.rts"), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    #[should_panic(expected = "metrics-registry collision: prefix 'rank0'")]
    fn a_different_counter_set_under_a_taken_prefix_panics() {
        let r = Recorder::off();
        r.register_counters("rank0", &CallCounters::new());
        r.register_counters("rank1", &CallCounters::new());
        r.register_counters("rank0", &CallCounters::new());
    }

    /// The pre-index semantics, kept as the oracle: scan every lane
    /// registered so far, first match wins, else append.
    fn linear_lane(table: &mut Vec<LaneMeta>, scope: &str, name: &str, kind: LaneKind) -> LaneId {
        if let Some(i) = table
            .iter()
            .position(|l| l.scope == scope && l.name == name)
        {
            return i as LaneId;
        }
        table.push(LaneMeta {
            scope: scope.to_string(),
            name: name.to_string(),
            kind,
        });
        (table.len() - 1) as LaneId
    }

    #[test]
    fn interning_matches_the_linear_scan_it_replaced() {
        const KINDS: [LaneKind; 3] = [LaneKind::Stage, LaneKind::Hca, LaneKind::Gauge];
        let rec = Recorder::off();
        let clone = rec.clone();
        let mut oracle = Vec::new();
        // A seeded walk over a small key space, so most registrations are
        // repeats — some under a different kind — from either handle. Scope
        // and name are drawn so that ("a", "bc") and ("ab", "c") both occur.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let scope = ["a", "ab", "rank0", "job1.rank0", ""][(x % 5) as usize];
            let name = format!(
                "{}{}",
                ["bc", "c", "pack", ""][(x >> 8) as usize % 4],
                x >> 16 & 7
            );
            let kind = KINDS[(x >> 24) as usize % 3];
            let handle = if step % 2 == 0 { &rec } else { &clone };
            let got = handle.lane(scope, &name, kind).id();
            let want = linear_lane(&mut oracle, scope, &name, kind);
            assert_eq!(got, want, "step {step}: {scope}/{name}");
        }
        let lanes = rec.lanes();
        assert_eq!(lanes.len(), oracle.len());
        assert!(lanes.len() > 100, "key space too small: {}", lanes.len());
        for (id, (got, want)) in lanes.iter().zip(&oracle).enumerate() {
            // Dense ids in first-registration order, first kind kept.
            assert_eq!(
                (&got.scope, &got.name),
                (&want.scope, &want.name),
                "id {id}"
            );
            assert_eq!(
                got.kind, want.kind,
                "id {id}: first registration's kind must win"
            );
        }
    }

    #[test]
    fn registration_cost_does_not_grow_with_the_table() {
        const N: usize = 100_000;
        let rec = Recorder::off();
        let counters = CallCounters::new();
        let t = std::time::Instant::now();
        for i in 0..N {
            let scope = format!("job{}.rank{}", i / 10, i % 10);
            assert_eq!(rec.lane(&scope, "proto", LaneKind::Proto).id() as usize, i);
            rec.register_counters(&scope, &counters);
        }
        // Looking every one of them up again is as cheap as adding it was.
        for i in (0..N).rev() {
            let scope = format!("job{}.rank{}", i / 10, i % 10);
            assert_eq!(rec.lane(&scope, "proto", LaneKind::Stage).id() as usize, i);
            rec.register_counters(&scope, &counters);
        }
        let took = t.elapsed();
        assert_eq!(rec.lanes().len(), N);
        // A fraction of a second even unoptimised; a scan per registration
        // is 2·10^10 string compares here (minutes).
        assert!(
            took < std::time::Duration::from_secs(10),
            "400k registrations took {took:?}"
        );
    }
}
