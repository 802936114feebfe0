//! Flattened datatype layouts.
//!
//! `MPI_Type_commit` turns the datatype tree into a normalized list of
//! `(offset, len)` byte runs ([`Segment`]s) in *typemap order* (which is
//! pack order), merging runs that are adjacent both in traversal order and
//! in memory. A [`FlatType`] holds one element's runs; replicating them
//! over a count and describing the resulting *shape* — contiguous, strided
//! or irregular — is the job of [`crate::plan`], whose cached [`Plan`]s
//! hang off the committed type here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::datatype::{Datatype, DtKind};
use crate::plan::{Plan, PlanCache, PlanCacheStats};

/// One contiguous run of bytes at a (possibly negative) offset from the
/// buffer address.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Byte offset relative to the operation's buffer address.
    pub offset: isize,
    /// Run length in bytes.
    pub len: usize,
}

/// The committed (flattened) form of a datatype: one element's segments,
/// plus an LRU cache of per-count communication [`Plan`]s.
#[derive(Debug)]
pub struct FlatType {
    segments: Vec<Segment>,
    size: usize,
    extent: isize,
    plans: PlanCache,
    expand_calls: AtomicU64,
}

fn push_merged(out: &mut Vec<Segment>, seg: Segment) {
    if seg.len == 0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.offset + last.len as isize == seg.offset {
            last.len += seg.len;
            return;
        }
    }
    out.push(seg);
}

fn walk(dt: &Datatype, base: isize, out: &mut Vec<Segment>) {
    match &dt.inner.kind {
        DtKind::Primitive { .. } => push_merged(
            out,
            Segment {
                offset: base,
                len: dt.size(),
            },
        ),
        DtKind::Contiguous { count, child } => {
            let cext = child.extent();
            for i in 0..*count {
                walk(child, base + i as isize * cext, out);
            }
        }
        DtKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => {
            let cext = child.extent();
            for i in 0..*count {
                let block = base + i as isize * stride * cext;
                for j in 0..*blocklen {
                    walk(child, block + j as isize * cext, out);
                }
            }
        }
        DtKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => {
            let cext = child.extent();
            for i in 0..*count {
                let block = base + i as isize * stride_bytes;
                for j in 0..*blocklen {
                    walk(child, block + j as isize * cext, out);
                }
            }
        }
        DtKind::Indexed { blocks, child } => {
            let cext = child.extent();
            for &(blocklen, disp) in blocks {
                let block = base + disp * cext;
                for j in 0..blocklen {
                    walk(child, block + j as isize * cext, out);
                }
            }
        }
        DtKind::Hindexed { blocks, child } => {
            let cext = child.extent();
            for &(blocklen, disp) in blocks {
                let block = base + disp;
                for j in 0..blocklen {
                    walk(child, block + j as isize * cext, out);
                }
            }
        }
        DtKind::Struct { fields } => {
            for (blocklen, disp, child) in fields {
                let cext = child.extent();
                let block = base + disp;
                for j in 0..*blocklen {
                    walk(child, block + j as isize * cext, out);
                }
            }
        }
        DtKind::Resized { child, .. } => walk(child, base, out),
    }
}

impl FlatType {
    /// Flatten one element of `dt`.
    pub fn build(dt: &Datatype) -> FlatType {
        let mut segments = Vec::new();
        walk(dt, 0, &mut segments);
        FlatType {
            segments,
            size: dt.size(),
            extent: dt.extent(),
            plans: PlanCache::default(),
            expand_calls: AtomicU64::new(0),
        }
    }

    /// One element's segments, in pack order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Data bytes per element.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extent per element.
    pub fn extent(&self) -> isize {
        self.extent
    }

    /// Total data bytes for `count` elements.
    pub fn total_bytes(&self, count: usize) -> usize {
        self.size * count
    }

    /// Segments for `count` elements (element `i` shifted by `i * extent`),
    /// merged across element boundaries where contiguous.
    ///
    /// This is the expensive expansion [`FlatType::plan`] memoizes; the
    /// communication paths go through the cache and only reach here on a
    /// cache miss (counted — see [`FlatType::expand_count`]).
    pub fn expanded(&self, count: usize) -> Vec<Segment> {
        self.expand_calls.fetch_add(1, Ordering::Relaxed);
        sim_core::instrument::global().record("flat_expand");
        let mut out = Vec::with_capacity(self.segments.len() * count);
        for i in 0..count {
            let shift = i as isize * self.extent;
            for s in &self.segments {
                push_merged(
                    &mut out,
                    Segment {
                        offset: s.offset + shift,
                        len: s.len,
                    },
                );
            }
        }
        out
    }

    /// The cached communication plan for `count` elements: expanded
    /// segments, prefix sums and shape, built at most once per cached count
    /// and shared via `Arc`.
    pub fn plan(&self, count: usize) -> Arc<Plan> {
        self.plans.get_or_build(count, || Plan::build(self, count))
    }

    /// This type's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// How many times [`FlatType::expanded`] ran (i.e. how often a plan was
    /// actually built rather than served from cache).
    pub fn expand_count(&self) -> u64 {
        self.expand_calls.load(Ordering::Relaxed)
    }

    /// Smallest and one-past-largest byte offsets touched by `count`
    /// elements (used for buffer bounds checking). Returns `(0, 0)` for
    /// empty types.
    pub fn byte_range(&self, count: usize) -> (isize, isize) {
        if self.size == 0 || count == 0 {
            return (0, 0);
        }
        let mut lo = isize::MAX;
        let mut hi = isize::MIN;
        for s in &self.segments {
            lo = lo.min(s.offset);
            hi = hi.max(s.offset + s.len as isize);
        }
        let last_shift = (count as isize - 1) * self.extent;
        let (lo0, hi0) = (lo, hi);
        let (lo1, hi1) = (lo + last_shift, hi + last_shift);
        (lo0.min(lo1), hi0.max(hi1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::SubarrayOrder;
    use crate::plan::Canonical;

    fn flat(dt: &Datatype) -> FlatType {
        FlatType::build(dt)
    }

    fn shape(f: &FlatType, count: usize) -> Canonical {
        Canonical::of(&f.plan(count))
    }

    fn strided(first: isize, block: usize, stride: usize, count: usize) -> Canonical {
        Canonical::Strided1D {
            first,
            block,
            stride,
            count,
        }
    }

    #[test]
    fn primitive_is_one_segment() {
        let f = flat(&Datatype::float());
        assert_eq!(f.segments(), &[Segment { offset: 0, len: 4 }]);
        assert_eq!(shape(&f, 1), Canonical::Contig { offset: 0, len: 4 });
    }

    #[test]
    fn contiguous_merges_into_one_run() {
        let f = flat(&Datatype::contiguous(16, &Datatype::double()));
        assert_eq!(f.segments().len(), 1);
        assert_eq!(f.segments()[0].len, 128);
    }

    #[test]
    fn vector_flattens_to_strided_runs() {
        // 4 blocks of 1 float, stride 3 floats.
        let f = flat(&Datatype::vector(4, 1, 3, &Datatype::float()));
        assert_eq!(f.segments().len(), 4);
        assert_eq!(shape(&f, 1), strided(0, 4, 12, 4));
    }

    #[test]
    fn vector_blocks_merge_within_block() {
        // blocklen 2 floats per block -> 8-byte runs.
        let f = flat(&Datatype::vector(3, 2, 5, &Datatype::float()));
        assert_eq!(f.segments().len(), 3);
        assert!(f.segments().iter().all(|s| s.len == 8));
    }

    #[test]
    fn dense_vector_is_contiguous() {
        // stride == blocklen: no holes.
        let f = flat(&Datatype::vector(4, 2, 2, &Datatype::int()));
        assert_eq!(f.segments().len(), 1);
        assert_eq!(shape(&f, 1), Canonical::Contig { offset: 0, len: 32 });
    }

    #[test]
    fn count_replication_extends_strided_pattern() {
        // One element = 2 strided rows; the vector's extent (ub-lb = 3
        // strides' span) does NOT continue the arithmetic sequence, so
        // count>1 of this type is irregular... unless resized. Use the
        // classic column type: vector resized to one row.
        let col = Datatype::vector(4, 1, 6, &Datatype::float()); // 4 rows of 6 floats
        let col = Datatype::resized(&col, 0, 4); // extent = one float
        col.commit();
        let f = col.flat();
        // Two columns side by side is NOT a single stride level (offsets
        // 0,24,48,72 then 4,28,52,76 — the sequence restarts), so count=2
        // must not classify as `Strided1D`: it is two groups of four.
        assert_eq!(
            shape(&f, 2),
            Canonical::Strided2D {
                first: 0,
                block: 4,
                stride: 24,
                count: 4,
                outer_stride: 4,
                outer_count: 2
            }
        );
        // A single column is perfectly strided.
        assert_eq!(shape(&f, 1), strided(0, 4, 24, 4));
    }

    #[test]
    fn count_replication_merges_when_contiguous() {
        let f = flat(&Datatype::contiguous(4, &Datatype::float()));
        let segs = f.expanded(8);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 128);
    }

    #[test]
    fn vector_count_replication_continues_pitch() {
        // Full-extent vector: count replication continues the pattern when
        // the element extent equals count*stride... Standard halo column:
        // hvector with explicit full-row extent.
        let elem = Datatype::hvector(4, 1, 24, &Datatype::float());
        let elem = Datatype::resized(&elem, 0, 96);
        elem.commit();
        let f = elem.flat();
        assert_eq!(shape(&f, 3), strided(0, 4, 24, 12));
    }

    #[test]
    fn indexed_is_irregular() {
        let f = flat(&Datatype::indexed(
            &[(1, 0), (2, 3), (1, 9)],
            &Datatype::int(),
        ));
        assert_eq!(shape(&f, 1), Canonical::Irregular);
        assert_eq!(f.total_bytes(1), 16);
    }

    #[test]
    fn struct_layout_flattens_in_field_order() {
        let t = Datatype::create_struct(&[(2, 16, Datatype::int()), (1, 0, Datatype::double())]);
        let f = flat(&t);
        // Pack order follows the typemap (field order), not address order.
        assert_eq!(
            f.segments(),
            &[
                Segment { offset: 16, len: 8 },
                Segment { offset: 0, len: 8 },
            ]
        );
    }

    #[test]
    fn subarray_2d_layout_is_strided() {
        let t = Datatype::subarray(
            &[8, 10],
            &[3, 4],
            &[2, 5],
            SubarrayOrder::C,
            &Datatype::float(),
        );
        t.commit();
        let f = t.flat();
        assert_eq!(shape(&f, 1), strided((2 * 10 + 5) * 4, 16, 40, 3));
    }

    #[test]
    fn byte_range_covers_all_elements() {
        let t = Datatype::vector(2, 1, 4, &Datatype::float());
        t.commit();
        let f = t.flat();
        // one element: offsets 0..4 and 16..20 → (0, 20); extent 20.
        assert_eq!(f.byte_range(1), (0, 20));
        assert_eq!(f.byte_range(3), (0, 60));
        assert_eq!(f.byte_range(0), (0, 0));
    }

    #[test]
    fn negative_offsets_survive_flattening() {
        let t = Datatype::hindexed(&[(1, -8), (1, 4)], &Datatype::int());
        let f = flat(&t);
        assert_eq!(f.segments()[0].offset, -8);
        assert_eq!(f.byte_range(1).0, -8);
    }

    #[test]
    fn descending_offsets_are_irregular() {
        let segs = [
            Segment {
                offset: 100,
                len: 4,
            },
            Segment { offset: 0, len: 4 },
            Segment { offset: 50, len: 4 },
        ];
        assert_eq!(Canonical::classify(&segs), Canonical::Irregular);
    }

    #[test]
    fn empty_type_flattens_to_nothing() {
        let f = flat(&Datatype::vector(0, 1, 1, &Datatype::float()));
        assert!(f.segments().is_empty());
        assert_eq!(shape(&f, 5), Canonical::Contig { offset: 0, len: 0 });
    }
}
