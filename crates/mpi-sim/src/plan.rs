//! Committed communication plans.
//!
//! A [`Plan`] is everything the library needs to move one `(datatype,
//! count)` message: the expanded segment list, its prefix sums (packed-byte
//! offsets) and its [`Layout`] classification. Building one costs an
//! allocation plus a walk over every segment, which is exactly the
//! datatype-processing overhead the paper (and TEMPI after it) identifies
//! as the tax on derived-datatype communication — so committed types carry
//! a small LRU [`PlanCache`] keyed by `count`, and the steady-state send
//! path clones an `Arc<Plan>` instead of re-expanding.
//!
//! Cache traffic is observable two ways: per-type via
//! [`crate::Datatype::plan_cache_stats`], and process-wide through
//! `sim_core::instrument::global()` under the keys `plan_cache_hit`,
//! `plan_cache_miss` and `plan_cache_evict`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::Mutex;

use crate::flat::{FlatType, Layout, Segment};

/// A piece of a packed-byte range mapped back to buffer space:
/// `(buffer offset, length)`.
pub type Piece = (isize, usize);

/// The immutable, shareable expansion of `count` elements of a committed
/// datatype: segments in pack order, packed-offset prefix sums, and the
/// classified layout.
#[derive(Debug)]
pub struct Plan {
    segments: Vec<Segment>,
    /// `prefix[i]` = packed bytes before segment `i`; last entry = total.
    prefix: Vec<usize>,
    layout: Layout,
    canonical: Canonical,
}

impl Plan {
    /// Build a plan from an explicit segment list (already in pack order).
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let mut prefix = Vec::with_capacity(segments.len() + 1);
        let mut acc = 0usize;
        prefix.push(0);
        for s in &segments {
            acc += s.len;
            prefix.push(acc);
        }
        let layout = FlatType::classify(&segments);
        let canonical = Canonical::classify(&layout, &segments);
        Plan {
            segments,
            prefix,
            layout,
            canonical,
        }
    }

    /// Expand and classify `count` elements of `flat`.
    pub fn build(flat: &FlatType, count: usize) -> Self {
        Plan::from_segments(flat.expanded(count))
    }

    /// Segments in pack order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total packed bytes.
    pub fn total(&self) -> usize {
        *self.prefix.last().unwrap()
    }

    /// Packed bytes before segment `i` (valid for `i <= num_segments()`).
    pub fn packed_offset(&self, i: usize) -> usize {
        self.prefix[i]
    }

    /// The classified layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Map the packed-byte range `[off, off+len)` to buffer-space pieces.
    /// Panics if the range exceeds the packed size.
    pub fn pieces(&self, off: usize, len: usize) -> Vec<Piece> {
        assert!(
            off + len <= self.total(),
            "range [{off}, +{len}) exceeds packed size {}",
            self.total()
        );
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        // Index of the segment containing packed offset `off`.
        let mut i = self.prefix.partition_point(|&p| p <= off) - 1;
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let seg = &self.segments[i];
            let within = cur - self.prefix[i];
            let take = (seg.len - within).min(end - cur);
            out.push((seg.offset + within as isize, take));
            cur += take;
            i += 1;
        }
        out
    }
}

/// TEMPI-style canonical form of a plan: the observation (PAPERS.md) that
/// almost every derived datatype seen in practice collapses into at most
/// two stride levels, so one small descriptor can drive an entire
/// transfer. [`Plan::from_segments`] recovers the form from the expanded
/// segment list — including two-level patterns the single-level [`Layout`]
/// classifier files under [`Layout::Irregular`] (e.g. `count > 1` of a
/// resized column type, or the rows-within-planes of a 3-D subarray).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Canonical {
    /// One contiguous run at `offset`.
    Contig {
        /// Byte offset of the run, relative to the buffer pointer.
        offset: isize,
        /// Run length, bytes.
        len: usize,
    },
    /// A single stride level: `count` blocks of `block` bytes, `stride`
    /// bytes apart (an `MPI_Type_vector`).
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
    /// No bounded strided description exists (deep struct soup).
    Irregular,
}

impl Canonical {
    /// The canonical form of a plan: computed once, when the plan is
    /// built, and read from it here.
    pub fn of(plan: &Plan) -> Canonical {
        plan.canonical
    }

    /// Classify a segment list. Cheap for lists the [`Layout`] classifier
    /// already solved; a single `O(segments)` scan for the two-level
    /// recovery.
    fn classify(layout: &Layout, segments: &[Segment]) -> Canonical {
        match *layout {
            Layout::Contiguous { offset, len } => Canonical::Contig { offset, len },
            Layout::Strided2D {
                first,
                pitch,
                width,
                height,
            } => Canonical::Strided1D {
                first,
                block: width,
                stride: pitch,
                count: height,
            },
            Layout::Irregular => two_level(segments),
        }
    }
}

/// Try to describe an `Irregular` segment list as two stride levels:
/// equal-width blocks forming `g` groups of `r`, constant inner pitch,
/// constant outer pitch. Group extents may interleave (a resized column
/// type restarts below the previous column) — DMA order is the descriptor
/// walk, not address order, so that's fine.
fn two_level(segs: &[Segment]) -> Canonical {
    let n = segs.len();
    if n < 4 {
        return Canonical::Irregular;
    }
    let w = segs[0].len;
    if w == 0 || segs.iter().any(|s| s.len != w) {
        return Canonical::Irregular;
    }
    let p = segs[1].offset - segs[0].offset;
    if p <= 0 {
        return Canonical::Irregular;
    }
    // Inner run length: the first break in the pitch-`p` arithmetic.
    let r = (1..n)
        .find(|&i| segs[i].offset - segs[i - 1].offset != p)
        .unwrap_or(n);
    if r < 2 || r == n || !n.is_multiple_of(r) {
        return Canonical::Irregular;
    }
    let big = segs[r].offset - segs[0].offset;
    if big <= 0 {
        return Canonical::Irregular;
    }
    let g = n / r;
    for k in 0..g {
        if segs[k * r].offset - segs[0].offset != big * k as isize {
            return Canonical::Irregular;
        }
        for i in 1..r {
            if segs[k * r + i].offset - segs[k * r + i - 1].offset != p {
                return Canonical::Irregular;
            }
        }
    }
    Canonical::Strided2D {
        first: segs[0].offset,
        block: w,
        stride: p as usize,
        count: r,
        outer_stride: big as usize,
        outer_count: g,
    }
}

/// One strided run of a [`WireDescriptor`], relative to the message's
/// buffer pointer (the engine rebases it into MR-absolute
/// [`ib_sim::SgEntry`]s once the buffer is registered).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WireEntry {
    /// Byte offset of the first block, relative to the buffer pointer.
    pub offset: isize,
    /// Bytes per block.
    pub len: usize,
    /// Distance between consecutive block starts, bytes.
    pub stride: usize,
    /// Number of blocks in the run.
    pub count: usize,
}

impl WireEntry {
    /// Payload bytes this run moves.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }
}

/// A bounded scatter/gather descriptor lowered from a [`Canonical`] plan:
/// the entry list a NIC offload engine walks instead of the CPU packing.
/// Entries are in pack order — walking them block by block yields exactly
/// the packed byte stream of the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDescriptor {
    entries: Vec<WireEntry>,
    total: usize,
}

impl WireDescriptor {
    /// Lower a plan into a descriptor of at most `budget` entries: one
    /// entry for `Contig`/`Strided1D`, one per group for `Strided2D`.
    /// `None` if the plan is `Irregular`, empty, or needs more entries
    /// than the HCA budget — callers fall back to the staged pipeline.
    pub fn lower(plan: &Plan, budget: usize) -> Option<WireDescriptor> {
        let total = plan.total();
        if total == 0 {
            return None;
        }
        let entries = match plan.canonical {
            Canonical::Contig { offset, len } => vec![WireEntry {
                offset,
                len,
                stride: len,
                count: 1,
            }],
            Canonical::Strided1D {
                first,
                block,
                stride,
                count,
            } => vec![WireEntry {
                offset: first,
                len: block,
                stride,
                count,
            }],
            Canonical::Strided2D {
                first,
                block,
                stride,
                count,
                outer_stride,
                outer_count,
            } => (0..outer_count)
                .map(|k| WireEntry {
                    offset: first + (k * outer_stride) as isize,
                    len: block,
                    stride,
                    count,
                })
                .collect(),
            Canonical::Irregular => return None,
        };
        if entries.len() > budget {
            return None;
        }
        Some(WireDescriptor { entries, total })
    }

    /// The entry list, in pack order.
    pub fn entries(&self) -> &[WireEntry] {
        &self.entries
    }

    /// Total payload bytes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Clip to the first `bytes` of the packed stream — the receive-side
    /// descriptor when the posted buffer is larger than the message.
    /// Splitting mid-block may add one tail entry. Panics if `bytes`
    /// exceeds the descriptor's total.
    pub fn prefix(&self, bytes: usize) -> WireDescriptor {
        assert!(
            bytes <= self.total,
            "prefix({bytes}) exceeds descriptor total {}",
            self.total
        );
        let mut entries = Vec::new();
        let mut rem = bytes;
        for e in &self.entries {
            if rem == 0 {
                break;
            }
            if rem >= e.bytes() {
                entries.push(*e);
                rem -= e.bytes();
                continue;
            }
            let k = rem / e.len;
            if k > 0 {
                entries.push(WireEntry { count: k, ..*e });
            }
            let tail = rem % e.len;
            if tail > 0 {
                entries.push(WireEntry {
                    offset: e.offset + (k * e.stride) as isize,
                    len: tail,
                    stride: tail,
                    count: 1,
                });
            }
            rem = 0;
        }
        WireDescriptor {
            entries,
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

    #[test]
    fn prefix_and_total() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.total(), 16);
        assert_eq!(p.packed_offset(0), 0);
        assert_eq!(p.packed_offset(2), 8);
        assert_eq!(p.packed_offset(3), 16);
        assert_eq!(p.num_segments(), 3);
    }

    #[test]
    fn pieces_split_and_clip_segments() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(12, 4), seg(24, 8)]);
        assert_eq!(p.pieces(0, 16), vec![(0, 4), (12, 4), (24, 8)]);
        assert_eq!(p.pieces(2, 4), vec![(2, 2), (12, 2)]);
        assert_eq!(p.pieces(10, 6), vec![(26, 6)]);
        assert_eq!(p.pieces(16, 0), Vec::<Piece>::new());
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
            p.layout(),
            &Layout::Contiguous { offset: 0, len: 0 },
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
        // Two planes of three rows: inner pitch 16, outer pitch 100 — the
        // single-level classifier calls this Irregular.
        let segs: Vec<Segment> = (0..2)
            .flat_map(|pl| (0..3).map(move |r| seg(pl * 100 + r * 16, 8)))
            .collect();
        let p = Plan::from_segments(segs);
        assert_eq!(p.layout(), &Layout::Irregular);
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
        let mut walked = Vec::new();
        for e in d.entries() {
            for b in 0..e.count {
                walked.push(seg(e.offset + (b * e.stride) as isize, e.len));
            }
        }
        assert_eq!(walked, segs);
        // Entry budget rejection.
        assert!(WireDescriptor::lower(&p, 1).is_none());
    }

    #[test]
    fn descriptor_prefix_clips_and_splits() {
        let p = Plan::from_segments(vec![seg(0, 4), seg(16, 4), seg(32, 4)]);
        let d = WireDescriptor::lower(&p, 8).unwrap();
        // Whole blocks only.
        let head = d.prefix(8);
        assert_eq!(
            head.entries(),
            &[WireEntry {
                offset: 0,
                len: 4,
                stride: 16,
                count: 2
            }]
        );
        // Mid-block split adds a tail entry.
        let head = d.prefix(6);
        assert_eq!(head.total(), 6);
        assert_eq!(
            head.entries(),
            &[
                WireEntry {
                    offset: 0,
                    len: 4,
                    stride: 16,
                    count: 1
                },
                WireEntry {
                    offset: 16,
                    len: 2,
                    stride: 2,
                    count: 1
                }
            ]
        );
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
