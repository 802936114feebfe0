//! Committed communication plans: the one layout IR, per message.
//!
//! A [`Plan`] is everything the library needs to move one `(datatype,
//! count)` message: the run list ([`crate::flat`]) of `count` elements, the
//! packed-byte offset of every run, the logical row count the cost models
//! are fed, and the list's shape, a [`Canonical`]. All of it is O(runs) to
//! build and to slice — a vector of a million rows is one run — and every
//! consumer walks the runs: the CPU cursors' pitched copies
//! ([`crate::pack`]), the engine's contiguous fast path, the GPU stager's
//! `memcpy` / `memcpy_2d` / gather-kernel choice (`mv2-gpu-nc`), the NIC
//! offload lowering ([`WireDescriptor::lower`]) and the autotuner's bucket.
//!
//! The run list *is* the layout; the other two descriptions are views of
//! it. [`Canonical`] is its summary (read off the list by
//! [`Canonical::of`]), [`WireDescriptor`] its budgeted view (the same runs,
//! when they fit the HCA's entry budget), and [`Plan::pieces`] /
//! [`WireDescriptor::prefix`] one clip function over it.
//!
//! Building a plan is cheap but not free, and the paper (and TEMPI after
//! it) identifies datatype processing as the tax on derived-datatype
//! communication — so committed types carry a small LRU [`PlanCache`] keyed
//! by `count`, and the steady-state send path clones an `Arc<Plan>`.
//!
//! Cache traffic is observable two ways: per-type via
//! [`crate::Datatype::plan_cache_stats`], and process-wide through
//! `sim_core::instrument::global()` under the keys `plan_cache_hit`,
//! `plan_cache_miss` and `plan_cache_evict`.
//!
//! The row-level functions here — [`Plan::from_segments`],
//! [`Plan::segments`], [`Canonical::classify`] — are the explicit-list
//! constructor, the diagnostic materialiser and the test oracle; nothing on
//! a communication path calls them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::Mutex;

use crate::flat::{push_run, rows, FlatType, Run, Segment};

/// The immutable, shareable layout of `count` elements of a committed
/// datatype: runs in pack order, packed-offset prefix sums, row count and
/// shape.
#[derive(Debug)]
pub struct Plan {
    runs: Vec<Run>,
    /// `prefix[i]` = packed bytes before run `i`; last entry = total.
    prefix: Vec<usize>,
    rows: usize,
    canonical: Canonical,
}

impl Plan {
    /// A plan over a run list in normal form (see [`crate::flat`]).
    fn from_runs(runs: Vec<Run>) -> Self {
        let mut prefix = Vec::with_capacity(runs.len() + 1);
        let (mut acc, mut rows) = (0usize, 0usize);
        prefix.push(0);
        for r in &runs {
            acc += r.bytes();
            rows += r.count;
            prefix.push(acc);
        }
        Plan {
            canonical: Canonical::of_runs(&runs),
            runs,
            prefix,
            rows,
        }
    }

    /// Build a plan from an explicit row list (already in pack order; rows
    /// are grouped into runs but adjacent rows are *not* merged).
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let mut runs = Vec::new();
        for s in segments {
            push_run(&mut runs, Run::row_at(s.offset, s.len));
        }
        Plan::from_runs(runs)
    }

    /// The plan of `count` elements of `flat`.
    pub fn build(flat: &FlatType, count: usize) -> Self {
        Plan::from_runs(flat.replicated(count))
    }

    /// Runs in pack order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The rows, materialised one [`Segment`] each (tests, diagnostics).
    pub fn segments(&self) -> Vec<Segment> {
        rows(&self.runs)
    }

    /// Number of rows (contiguous byte runs) — what the pack cost models
    /// charge per-row overhead for.
    pub fn num_segments(&self) -> usize {
        self.rows
    }

    /// Total packed bytes.
    pub fn total(&self) -> usize {
        self.prefix[self.runs.len()]
    }

    /// Map the packed-byte range `[off, off+len)` back to buffer space: the
    /// runs of the user buffer that cover it, in pack order and normal form
    /// (a pipeline chunk's share of the layout). Panics if the range
    /// exceeds the packed size.
    pub fn pieces(&self, off: usize, len: usize) -> Vec<Run> {
        assert!(
            off + len <= self.total(),
            "range [{off}, +{len}) exceeds packed size {}",
            self.total()
        );
        if len == 0 {
            return Vec::new();
        }
        // Index of the run containing packed offset `off`.
        let i = self.prefix.partition_point(|&p| p <= off) - 1;
        clip(&self.runs[i..], off - self.prefix[i], len)
    }
}

/// The part of `runs` that carries packed bytes `[skip, skip + len)`,
/// counted from the start of `runs[0]` (`skip` lies inside it): a clipped
/// first row, whole rows, a clipped last row, regrouped into normal form.
/// O(runs touched); arithmetic, not iteration, inside a run.
fn clip(runs: &[Run], mut skip: usize, mut len: usize) -> Vec<Run> {
    let mut out = Vec::new();
    for r in runs {
        if len == 0 {
            break;
        }
        let (mut row, within) = (skip / r.len, skip % r.len);
        skip = 0;
        if within > 0 {
            let take = (r.len - within).min(len);
            push_run(
                &mut out,
                Run::row_at(r.row(row).offset + within as isize, take),
            );
            len -= take;
            row += 1;
        }
        let whole = (len / r.len).min(r.count - row);
        push_run(&mut out, r.slice(row, whole));
        len -= whole * r.len;
        if whole < r.count - row && len > 0 {
            push_run(&mut out, Run::row_at(r.row(row + whole).offset, len));
            len = 0;
        }
    }
    assert_eq!(len, 0, "clip past the end of the run list");
    out
}

/// The shape of a run list, TEMPI-style: the observation (PAPERS.md) that
/// almost every derived datatype seen in practice collapses into at most
/// two stride levels, so one small descriptor can drive every consumer of
/// a transfer. Two-level patterns are equal runs at a constant pitch (e.g.
/// `count > 1` of a resized column type, or the rows-within-planes of a
/// 3-D subarray).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Canonical {
    /// One contiguous run at `offset` (zero-length for an empty list).
    Contig {
        /// Byte offset of the run, relative to the buffer pointer.
        offset: isize,
        /// Run length, bytes.
        len: usize,
    },
    /// A single stride level: `count >= 2` blocks of `block` bytes,
    /// `stride` bytes apart (an `MPI_Type_vector`) — exactly the patterns a
    /// single `cudaMemcpy2D` can pack or unpack, which is the hook the
    /// paper's GPU datatype offload relies on (a vector of N rows becomes
    /// one strided device copy instead of N separate transactions).
    Strided1D {
        /// Offset of the first block, relative to the buffer pointer.
        first: isize,
        /// Bytes per block.
        block: usize,
        /// Distance between consecutive block starts, bytes.
        stride: usize,
        /// Number of blocks.
        count: usize,
    },
    /// Two stride levels: `outer_count` groups, `outer_stride` apart, each
    /// holding `count` blocks `stride` apart (rows within planes).
    Strided2D {
        /// Offset of the first block of the first group.
        first: isize,
        /// Bytes per block.
        block: usize,
        /// Distance between consecutive blocks within a group, bytes.
        stride: usize,
        /// Blocks per group.
        count: usize,
        /// Distance between consecutive group starts, bytes.
        outer_stride: usize,
        /// Number of groups.
        outer_count: usize,
    },
    /// No bounded strided description exists (indexed/struct soup): packed
    /// run by run on the CPU, with a gather kernel on the GPU.
    Irregular,
}

impl Canonical {
    /// The shape of a plan: computed once, when the plan is built, and
    /// read from it here.
    pub fn of(plan: &Plan) -> Canonical {
        plan.canonical
    }

    /// Read the shape off a run list in normal form, where a single
    /// progression is a single run: one run is `Contig` or `Strided1D`,
    /// equal multi-row runs at a constant positive pitch are `Strided2D`
    /// (their extents may interleave — a resized column type restarts below
    /// the previous column; a consumer walks the description, not address
    /// order), anything else is `Irregular`. O(runs).
    fn of_runs(runs: &[Run]) -> Canonical {
        let (r0, r1) = match *runs {
            [] => return Canonical::Contig { offset: 0, len: 0 },
            [r] if r.count == 1 => {
                return Canonical::Contig {
                    offset: r.offset,
                    len: r.len,
                }
            }
            [r] => {
                return Canonical::Strided1D {
                    first: r.offset,
                    block: r.len,
                    stride: r.stride,
                    count: r.count,
                }
            }
            [r0, r1, ..] => (r0, r1),
        };
        let outer = r1.offset - r0.offset;
        let tiled = r0.count >= 2
            && outer > 0
            && runs.windows(2).all(|w| {
                (w[1].len, w[1].stride, w[1].count) == (r0.len, r0.stride, r0.count)
                    && w[1].offset - w[0].offset == outer
            });
        if !tiled {
            return Canonical::Irregular;
        }
        Canonical::Strided2D {
            first: r0.offset,
            block: r0.len,
            stride: r0.stride,
            count: r0.count,
            outer_stride: outer as usize,
            outer_count: runs.len(),
        }
    }

    /// The row-level oracle for the shape: classify a *row* list (in pack
    /// order) with one scan, with no reference to runs. Equal-width
    /// blocks at a constant positive pitch are a single level for as long
    /// as the pitch holds; at its first break the blocks seen so far become
    /// group 0 and the scan goes on to recover two levels — the rest of the
    /// list must repeat that group at a constant positive outer pitch.
    /// Group extents may interleave (a resized column type restarts below
    /// the previous column): a consumer walks the description, not address
    /// order, so that is fine.
    pub fn classify(segs: &[Segment]) -> Canonical {
        let (s0, s1) = match *segs {
            [] => return Canonical::Contig { offset: 0, len: 0 },
            [s] => {
                return Canonical::Contig {
                    offset: s.offset,
                    len: s.len,
                }
            }
            [s0, s1, ..] => (s0, s1),
        };
        let n = segs.len();
        let (first, block, pitch) = (s0.offset, s0.len, s1.offset - s0.offset);
        if block == 0 || pitch <= 0 {
            return Canonical::Irregular;
        }
        let stride = pitch as usize;
        let in_pitch = |w: &[Segment]| w[1].len == block && w[1].offset - w[0].offset == pitch;
        let Some(inner) = segs.windows(2).position(|w| !in_pitch(w)).map(|k| k + 1) else {
            return Canonical::Strided1D {
                first,
                block,
                stride,
                count: n,
            };
        };
        let outer = segs[inner].offset - first;
        let groups = || segs.chunks_exact(inner);
        let tiled = n.is_multiple_of(inner)
            && outer > 0
            && groups().zip(groups().skip(1)).all(|(prev, group)| {
                group[0].len == block
                    && group[0].offset - prev[0].offset == outer
                    && group.windows(2).all(in_pitch)
            });
        if !tiled {
            return Canonical::Irregular;
        }
        Canonical::Strided2D {
            first,
            block,
            stride,
            count: inner,
            outer_stride: outer as usize,
            outer_count: n / inner,
        }
    }
}

/// The budgeted view of a plan's run list: the scatter/gather entry list a
/// NIC offload engine walks instead of the CPU packing, when the layout has
/// a bounded strided description. Entries are the plan's runs, relative to
/// the message's buffer pointer (the engine rebases them into MR-absolute
/// [`ib_sim::SgEntry`]s once the buffer is registered) — walking them row
/// by row yields exactly the packed byte stream of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDescriptor {
    entries: Vec<Run>,
    total: usize,
}

impl WireDescriptor {
    /// The plan's runs as a descriptor of at most `budget` entries: one for
    /// `Contig`/`Strided1D`, one per group for `Strided2D`. `None` if the
    /// plan is `Irregular`, empty, or needs more entries than the HCA
    /// budget — callers fall back to the staged pipeline.
    pub fn lower(plan: &Plan, budget: usize) -> Option<WireDescriptor> {
        let fits =
            plan.total() > 0 && plan.canonical != Canonical::Irregular && plan.runs.len() <= budget;
        fits.then(|| WireDescriptor {
            entries: plan.runs.clone(),
            total: plan.total(),
        })
    }

    /// The entry list, in pack order.
    pub fn entries(&self) -> &[Run] {
        &self.entries
    }

    /// Total payload bytes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Rows the entries describe: what packing the same bytes on the CPU
    /// would touch.
    pub fn rows(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Clip to the first `bytes` of the packed stream — the receive-side
    /// descriptor when the posted buffer is larger than the message.
    /// Splitting mid-row may add one tail entry. Panics if `bytes` exceeds
    /// the descriptor's total.
    pub fn prefix(&self, bytes: usize) -> WireDescriptor {
        assert!(
            bytes <= self.total,
            "prefix({bytes}) exceeds descriptor total {}",
            self.total
        );
        WireDescriptor {
            entries: clip(&self.entries, 0, bytes),
            total: bytes,
        }
    }

    /// Rebase into MR-absolute [`ib_sim::SgEntry`]s: `base` is the buffer
    /// offset of the message's pointer within the registered region.
    /// Panics if an entry would land before the buffer start.
    pub fn to_sg(&self, base: usize) -> Vec<ib_sim::SgEntry> {
        self.entries
            .iter()
            .map(|e| {
                let off = base as isize + e.offset;
                assert!(off >= 0, "descriptor entry before buffer start");
                ib_sim::SgEntry {
                    offset: off as usize,
                    len: e.len,
                    stride: e.stride,
                    count: e.count,
                }
            })
            .collect()
    }
}

/// Counters of one committed type's plan cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
}

/// Plans the LRU keeps per committed type. Real workloads reuse a handful
/// of counts (often exactly one); the bound only matters for adversarial
/// count churn.
const PLAN_CACHE_CAPACITY: usize = 8;

/// Small LRU cache of `count -> Arc<Plan>`, embedded in each committed
/// [`FlatType`]. Dropping the datatype drops the `FlatType` and the cache
/// with it — invalidation is ownership, not epochs.
#[derive(Default)]
pub struct PlanCache {
    /// `(count, plan)`; back = most recently used.
    entries: Mutex<Vec<(usize, Arc<Plan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Return the cached plan for `count`, building (and caching) it with
    /// `build` on a miss.
    pub fn get_or_build(&self, count: usize, build: impl FnOnce() -> Plan) -> Arc<Plan> {
        let global = sim_core::instrument::global();
        let mut entries = self.entries.lock();
        if let Some(i) = entries.iter().position(|(c, _)| *c == count) {
            let hit = entries.remove(i);
            let plan = Arc::clone(&hit.1);
            entries.push(hit);
            self.hits.fetch_add(1, Ordering::Relaxed);
            global.record("plan_cache_hit");
            return plan;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        global.record("plan_cache_miss");
        let plan = Arc::new(build());
        if entries.len() >= PLAN_CACHE_CAPACITY {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            global.record("plan_cache_evict");
        }
        entries.push((count, Arc::clone(&plan)));
        plan
    }

    /// Current counter values.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("entries", &self.entries.lock().len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(offset: isize, len: usize) -> Segment {
        Segment { offset, len }
    }

    fn run(offset: isize, len: usize, stride: usize, count: usize) -> Run {
        Run {
            offset,
            len,
            stride,
            count,
        }
    }

    #[test]
    fn rows_group_into_maximal_runs() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.runs(), &[run(0, 4, 12, 2), run(24, 8, 8, 1)]);
        assert_eq!(p.total(), 16);
        assert_eq!(p.num_segments(), 3);
        assert_eq!(p.segments(), vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        // Two pushed progressions that continue one another are one run; a
        // lone row pairs with the next row of its width, whatever follows.
        let mut runs = Vec::new();
        push_run(&mut runs, run(0, 4, 16, 3));
        push_run(&mut runs, run(48, 4, 16, 2));
        assert_eq!(runs, [run(0, 4, 16, 5)]);
        push_run(&mut runs, run(80, 4, 7, 3));
        assert_eq!(runs, [run(0, 4, 16, 6), run(87, 4, 7, 2)]);
        let p = Plan::from_segments(vec![seg(0, 4), seg(100, 4), seg(110, 4), seg(120, 4)]);
        assert_eq!(p.runs(), &[run(0, 4, 100, 2), run(110, 4, 10, 2)]);
        // Explicit lists keep adjacent rows apart (a dense run).
        let p = Plan::from_segments(vec![seg(0, 4), seg(4, 4), seg(8, 4)]);
        assert_eq!(p.runs(), &[run(0, 4, 4, 3)]);
    }

    #[test]
    fn pieces_split_and_clip_runs() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.pieces(0, 16), p.runs());
        assert_eq!(rows(&p.pieces(2, 4)), vec![seg(2, 2), seg(12, 2)]);
        assert_eq!(p.pieces(2, 4), [run(2, 2, 10, 2)], "clipped rows regroup");
        assert_eq!(p.pieces(10, 6), [run(26, 6, 6, 1)]);
        assert!(p.pieces(16, 0).is_empty());
        // Inside one long run the cut is arithmetic: head, whole rows, tail.
        let v = Plan::from_runs(vec![run(8, 4, 16, 1 << 20)]);
        assert_eq!(
            v.pieces(4 * 1000 + 1, 4 * 50),
            [
                run(8 + 16 * 1000 + 1, 3, 3, 1),
                run(8 + 16 * 1001, 4, 16, 49),
                run(8 + 16 * 1050, 1, 1, 1)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "exceeds packed size")]
    fn pieces_out_of_range_panics() {
        let p = Plan::from_segments(vec![seg(0, 4)]);
        let _ = p.pieces(2, 3);
    }

    #[test]
    fn empty_plan() {
        let p = Plan::from_segments(Vec::new());
        assert_eq!(p.total(), 0);
        assert!(p.pieces(0, 0).is_empty());
        assert_eq!(
            Canonical::of(&p),
            Canonical::Contig { offset: 0, len: 0 },
            "empty expansion classifies as a zero-length run"
        );
    }

    #[test]
    fn cache_hits_and_lru_eviction() {
        let cache = PlanCache::default();
        let mk = |n: usize| move || Plan::from_segments(vec![seg(0, n.max(1) * 4)]);
        let a = cache.get_or_build(1, mk(1));
        let b = cache.get_or_build(1, mk(1));
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same plan");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        // Overflow the capacity; count 1 stays hot (re-touched each round).
        for n in 2..=PLAN_CACHE_CAPACITY + 2 {
            cache.get_or_build(n, mk(n));
            cache.get_or_build(1, mk(1));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "overflow must evict: {s:?}");
        let before = cache.stats().misses;
        let c = cache.get_or_build(1, mk(1));
        assert_eq!(cache.stats().misses, before, "hot count 1 never evicted");
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn canonical_contig_and_vector() {
        let c = Plan::from_segments(vec![seg(8, 32)]);
        assert_eq!(Canonical::of(&c), Canonical::Contig { offset: 8, len: 32 });
        let v = Plan::from_segments(vec![seg(0, 4), seg(16, 4), seg(32, 4)]);
        assert_eq!(
            Canonical::of(&v),
            Canonical::Strided1D {
                first: 0,
                block: 4,
                stride: 16,
                count: 3
            }
        );
    }

    #[test]
    fn canonical_recovers_two_levels_from_irregular() {
        // Two planes of three rows: inner pitch 16, outer pitch 100 — no
        // single stride level describes it.
        let segs: Vec<Segment> = (0..2)
            .flat_map(|pl| (0..3).map(move |r| seg(pl * 100 + r * 16, 8)))
            .collect();
        let p = Plan::from_segments(segs);
        assert_eq!(
            Canonical::of(&p),
            Canonical::Strided2D {
                first: 0,
                block: 8,
                stride: 16,
                count: 3,
                outer_stride: 100,
                outer_count: 2
            }
        );
        // Interleaved group extents (column restart) still canonicalize.
        let segs: Vec<Segment> = (0..2)
            .flat_map(|col| (0..4).map(move |r| seg(col * 4 + r * 24, 4)))
            .collect();
        let p = Plan::from_segments(segs);
        assert_eq!(
            Canonical::of(&p),
            Canonical::Strided2D {
                first: 0,
                block: 4,
                stride: 24,
                count: 4,
                outer_stride: 4,
                outer_count: 2
            }
        );
    }

    #[test]
    fn canonical_rejects_soup() {
        // Unequal widths.
        let p = Plan::from_segments(vec![seg(0, 4), seg(8, 8), seg(24, 4), seg(32, 8)]);
        assert_eq!(Canonical::of(&p), Canonical::Irregular);
        // Broken outer pitch.
        let p = Plan::from_segments(vec![
            seg(0, 4),
            seg(8, 4),
            seg(100, 4),
            seg(108, 4),
            seg(190, 4),
            seg(198, 4),
        ]);
        assert_eq!(Canonical::of(&p), Canonical::Irregular);
    }

    #[test]
    fn descriptor_walk_matches_pack_order() {
        let segs: Vec<Segment> = (0..2)
            .flat_map(|pl| (0..3).map(move |r| seg(pl * 100 + r * 16, 8)))
            .collect();
        let p = Plan::from_segments(segs.clone());
        let d = WireDescriptor::lower(&p, 16).expect("lowers");
        assert_eq!(d.entries().len(), 2);
        assert_eq!(d.total(), p.total());
        // Walking entry blocks in order reproduces the segment list.
        assert_eq!(rows(d.entries()), segs);
        // Entry budget rejection.
        assert!(WireDescriptor::lower(&p, 1).is_none());
    }

    #[test]
    fn descriptor_prefix_clips_and_splits() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(16, 4), seg(32, 4)]);
        let d = WireDescriptor::lower(&p, 8).unwrap();
        // Whole blocks only.
        let head = d.prefix(8);
        assert_eq!(head.entries(), &[run(0, 4, 16, 2)]);
        // Mid-block split adds a tail entry.
        let head = d.prefix(6);
        assert_eq!(head.total(), 6);
        assert_eq!(head.entries(), &[run(0, 4, 4, 1), run(16, 2, 2, 1)]);
        assert_eq!(d.prefix(0).entries().len(), 0);
    }

    #[test]
    fn descriptor_rebases_to_sg() {
        let p = Plan::from_segments(vec![seg(-8, 4), seg(8, 4)]);
        let d = WireDescriptor::lower(&p, 8).unwrap();
        let sg = d.to_sg(64);
        assert_eq!(sg.len(), 1);
        assert_eq!(sg[0].offset, 56);
        assert_eq!(sg[0].bytes(), 8);
    }
}
