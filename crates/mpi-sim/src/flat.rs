//! Flattened datatype layouts: the run list.
//!
//! A layout is a short list of strided [`Run`]s `(offset, len, stride,
//! count)` in *typemap order* (which is pack order). `MPI_Type_commit`
//! builds it compositionally from the datatype tree — a vector of a million
//! floats is one run, built in O(tree) — and every later stage (count
//! replication, chunk slicing, shape, CPU and GPU packing, NIC lowering)
//! walks runs, never rows.
//!
//! # Normal form
//!
//! Walking a list row by row gives the typemap's byte runs; the list itself
//! is the *greedy* grouping of those rows, scanning in pack order:
//!
//! * adjacent bytes merge — a row that starts where the previous one ends
//!   extends it, and a dense run (`stride == len`) is one row;
//! * a row of the same width extends the run before it when it continues
//!   that run's arithmetic progression (a lone row pairs with any later
//!   row of its width at a positive distance);
//! * a one-row run carries `stride == len`.
//!
//! So a row list has exactly one run list, a single progression is exactly
//! one run, and [`crate::plan::Canonical`] can be read off the list without
//! looking at a row. [`push_run`] maintains the last two rules,
//! `push_flat` the first on top of them.
//!
//! A [`FlatType`] holds one element's runs; replicating them over a count
//! is [`crate::plan::Plan::build`], whose cached plans hang off the
//! committed type here. [`Segment`] and [`FlatType::expanded`] are the
//! row-level view, kept for tests and diagnostics: no communication path
//! materialises rows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::datatype::{Datatype, DtKind};
use crate::plan::{Plan, PlanCache, PlanCacheStats};

/// One contiguous run of bytes — a *row* — at a (possibly negative) offset
/// from the buffer address.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Byte offset relative to the operation's buffer address.
    pub offset: isize,
    /// Run length in bytes.
    pub len: usize,
}

/// One strided run of a layout: `count` rows of `len` bytes, the first at
/// `offset` from the buffer address, successive rows `stride` bytes apart.
/// What a `cudaMemcpy2D`, a pitched host copy or one HCA scatter/gather
/// entry moves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Run {
    /// Byte offset of the first row, relative to the buffer address.
    pub offset: isize,
    /// Bytes per row.
    pub len: usize,
    /// Distance between consecutive row starts, bytes (`len` for one row).
    pub stride: usize,
    /// Number of rows.
    pub count: usize,
}

impl Run {
    /// A single row.
    pub fn row_at(offset: isize, len: usize) -> Run {
        Run {
            offset,
            len,
            stride: len,
            count: 1,
        }
    }

    /// Payload bytes this run moves.
    pub fn bytes(&self) -> usize {
        self.len * self.count
    }

    /// Row `i` of the run.
    pub fn row(&self, i: usize) -> Segment {
        Segment {
            offset: self.offset + (i * self.stride) as isize,
            len: self.len,
        }
    }

    /// The rows of the run, in pack order.
    pub fn rows(self) -> impl Iterator<Item = Segment> {
        (0..self.count).map(move |i| self.row(i))
    }

    /// `n` rows of the run starting at row `first` (possibly none).
    pub fn slice(&self, first: usize, n: usize) -> Run {
        Run {
            offset: self.row(first).offset,
            count: n,
            ..*self
        }
    }
}

/// A run list walked row by row: the row-level view of a layout, for tests
/// and diagnostics. O(rows).
pub fn rows(runs: &[Run]) -> Vec<Segment> {
    runs.iter().flat_map(|r| r.rows()).collect()
}

/// Append `run` to a run list, keeping it in normal form for rows that are
/// already byte-merged (or deliberately left unmerged, as in an explicit
/// segment list): the leading rows of `run` that continue the last run's
/// progression are absorbed into it, the rest start a new run. O(1).
pub fn push_run(out: &mut Vec<Run>, run: Run) {
    if run.len == 0 || run.count == 0 {
        return;
    }
    let run = match run.count {
        1 => Run::row_at(run.offset, run.len),
        _ => run,
    };
    if let Some(last) = out.last_mut().filter(|l| l.len == run.len) {
        let delta = run.offset - last.offset;
        // The stride at which the first row of `run` continues `last`: a
        // lone row pairs at any positive distance, a progression only at
        // its own.
        let stride = match last.count {
            1 if delta > 0 => Some(delta as usize),
            n if n > 1 && delta == (n * last.stride) as isize => Some(last.stride),
            _ => None,
        };
        if let Some(stride) = stride {
            let absorbed = if run.count == 1 || run.stride == stride {
                run.count
            } else {
                1
            };
            last.stride = stride;
            last.count += absorbed;
            // What is left (nothing, or a run at another stride) cannot
            // pair again: this recursion is one level deep.
            return push_run(out, run.slice(absorbed, run.count - absorbed));
        }
    }
    out.push(run);
}

/// [`push_run`] for a layout being flattened (commit, count replication):
/// adjacent bytes merge first. A dense run is one row, and a run whose
/// first row starts where the list's last row ends extends that row.
fn push_flat(out: &mut Vec<Run>, run: Run) {
    if run.len == 0 || run.count == 0 {
        return;
    }
    let run = if run.count > 1 && run.stride == run.len {
        Run::row_at(run.offset, run.bytes())
    } else {
        run
    };
    if let Some(last) = out.last().copied() {
        let tail = last.row(last.count - 1);
        if tail.offset + tail.len as isize == run.offset {
            // Take the last row back, widen it, and let the greedy scan see
            // the widened row and the rest of `run` afresh.
            out.pop();
            push_run(out, last.slice(0, last.count - 1));
            push_run(out, Run::row_at(tail.offset, tail.len + run.len));
            return push_run(out, run.slice(1, run.count - 1));
        }
    }
    push_run(out, run);
}

/// Append `n` copies of `child` to `out`, copy `i` displaced by `base + i *
/// pitch`: the one step every datatype constructor (and count replication)
/// is made of.
pub(crate) fn replicate(out: &mut Vec<Run>, child: &[Run], n: usize, pitch: isize, base: isize) {
    // Copies of a single run that continue its progression are still one
    // run — O(1) whatever `n` is.
    if let ([r], true) = (child, pitch > 0) {
        let pitch = pitch as usize;
        if r.count == 1 || pitch == r.count * r.stride {
            let stride = if r.count == 1 { pitch } else { r.stride };
            return push_flat(
                out,
                Run {
                    offset: r.offset + base,
                    len: r.len,
                    stride,
                    count: r.count * n,
                },
            );
        }
    }
    for i in 0..n {
        let shift = base + i as isize * pitch;
        for r in child {
            push_flat(
                out,
                Run {
                    offset: r.offset + shift,
                    ..*r
                },
            );
        }
    }
}

/// One element of `dt` as a run list in normal form, built bottom-up: each
/// node replicates its child's *list*, so the cost follows the tree and the
/// length of the result, not the number of rows.
fn flatten(dt: &Datatype) -> Vec<Run> {
    let mut out = Vec::new();
    // `count` blocks `pitch` apart, each `blocklen` children back to back.
    let blocks = |out: &mut Vec<Run>, child: &Datatype, count, blocklen, pitch| {
        let mut block = Vec::new();
        replicate(&mut block, &flatten(child), blocklen, child.extent(), 0);
        replicate(out, &block, count, pitch, 0);
    };
    match &dt.inner.kind {
        DtKind::Primitive { .. } => out.push(Run::row_at(0, dt.size())),
        DtKind::Contiguous { count, child } => blocks(&mut out, child, 1, *count, 0),
        DtKind::Vector {
            count,
            blocklen,
            stride,
            child,
        } => blocks(&mut out, child, *count, *blocklen, stride * child.extent()),
        DtKind::Hvector {
            count,
            blocklen,
            stride_bytes,
            child,
        } => blocks(&mut out, child, *count, *blocklen, *stride_bytes),
        DtKind::Indexed { blocks, child } => {
            let (runs, cext) = (flatten(child), child.extent());
            for &(blocklen, disp) in blocks {
                replicate(&mut out, &runs, blocklen, cext, disp * cext);
            }
        }
        DtKind::Hindexed { blocks, child } => {
            let (runs, cext) = (flatten(child), child.extent());
            for &(blocklen, disp) in blocks {
                replicate(&mut out, &runs, blocklen, cext, disp);
            }
        }
        DtKind::Struct { fields } => {
            for (blocklen, disp, child) in fields {
                replicate(&mut out, &flatten(child), *blocklen, child.extent(), *disp);
            }
        }
        DtKind::Resized { child, .. } => return flatten(child),
    }
    out
}

/// The committed (flattened) form of a datatype: one element's runs, plus
/// an LRU cache of per-count communication [`Plan`]s.
#[derive(Debug)]
pub struct FlatType {
    runs: Vec<Run>,
    size: usize,
    extent: isize,
    plans: PlanCache,
    expand_calls: AtomicU64,
}

impl FlatType {
    /// Flatten one element of `dt`.
    pub fn build(dt: &Datatype) -> FlatType {
        FlatType {
            runs: flatten(dt),
            size: dt.size(),
            extent: dt.extent(),
            plans: PlanCache::default(),
            expand_calls: AtomicU64::new(0),
        }
    }

    /// One element's runs, in pack order and normal form.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Data bytes per element.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extent per element.
    pub fn extent(&self) -> isize {
        self.extent
    }

    /// Total data bytes for `count` elements; `None` when that overflows.
    pub fn total_bytes(&self, count: usize) -> Option<usize> {
        self.size.checked_mul(count)
    }

    /// Runs for `count` elements (element `i` shifted by `i * extent`),
    /// merged across element boundaries.
    pub(crate) fn replicated(&self, count: usize) -> Vec<Run> {
        let mut out = Vec::new();
        replicate(&mut out, &self.runs, count, self.extent, 0);
        out
    }

    /// The rows of `count` elements, materialised one [`Segment`] each: the
    /// row-level view for tests and diagnostics. O(rows) — no communication
    /// path calls it, and every call is counted (see
    /// [`FlatType::expand_count`] and the process-wide `flat_expand` key).
    pub fn expanded(&self, count: usize) -> Vec<Segment> {
        self.expand_calls.fetch_add(1, Ordering::Relaxed);
        sim_core::instrument::global().record("flat_expand");
        rows(&self.replicated(count))
    }

    /// The cached communication plan for `count` elements, built at most
    /// once per cached count and shared via `Arc`.
    pub fn plan(&self, count: usize) -> Arc<Plan> {
        self.plans.get_or_build(count, || Plan::build(self, count))
    }

    /// This type's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// How many times [`FlatType::expanded`] materialised this type's rows.
    pub fn expand_count(&self) -> u64 {
        self.expand_calls.load(Ordering::Relaxed)
    }

    /// Smallest and one-past-largest byte offsets touched by `count`
    /// elements (used for buffer bounds checking). Returns `(0, 0)` for
    /// empty types, and `None` when an offset is not representable.
    pub fn byte_range(&self, count: usize) -> Option<(isize, isize)> {
        if self.size == 0 || count == 0 {
            return Some((0, 0));
        }
        let lo = self.runs.iter().map(|r| r.offset).min().unwrap_or(0);
        let hi = self.runs.iter().map(|r| {
            let last = r.row(r.count - 1);
            last.offset + last.len as isize
        });
        let hi = hi.max().unwrap_or(0);
        let last_shift = isize::try_from(count - 1).ok()?.checked_mul(self.extent)?;
        let (lo_last, hi_last) = (lo.checked_add(last_shift)?, hi.checked_add(last_shift)?);
        Some((lo.min(lo_last), hi.max(hi_last)))
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

    fn run(offset: isize, len: usize, stride: usize, count: usize) -> Run {
        Run {
            offset,
            len,
            stride,
            count,
        }
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
    fn primitive_is_one_row() {
        let f = flat(&Datatype::float());
        assert_eq!(f.runs(), &[run(0, 4, 4, 1)]);
        assert_eq!(f.expanded(1), vec![Segment { offset: 0, len: 4 }]);
        assert_eq!(shape(&f, 1), Canonical::Contig { offset: 0, len: 4 });
    }

    #[test]
    fn contiguous_merges_into_one_run() {
        let f = flat(&Datatype::contiguous(16, &Datatype::double()));
        assert_eq!(f.runs(), &[run(0, 128, 128, 1)]);
    }

    #[test]
    fn vector_flattens_to_one_strided_run() {
        // 4 blocks of 1 float, stride 3 floats.
        let f = flat(&Datatype::vector(4, 1, 3, &Datatype::float()));
        assert_eq!(f.runs(), &[run(0, 4, 12, 4)]);
        assert_eq!(shape(&f, 1), strided(0, 4, 12, 4));
        // A million rows cost what four do.
        let f = flat(&Datatype::hvector(
            1 << 20,
            1,
            16,
            &Datatype::contiguous(4, &Datatype::byte()),
        ));
        assert_eq!(f.runs(), &[run(0, 4, 16, 1 << 20)]);
        assert_eq!(f.plan(1).runs().len(), 1);
        assert_eq!(f.plan(1).num_segments(), 1 << 20);
    }

    #[test]
    fn vector_blocks_merge_within_block() {
        // blocklen 2 floats per block -> 8-byte runs.
        let f = flat(&Datatype::vector(3, 2, 5, &Datatype::float()));
        assert_eq!(f.runs(), &[run(0, 8, 20, 3)]);
    }

    #[test]
    fn dense_vector_is_contiguous() {
        // stride == blocklen: no holes.
        let f = flat(&Datatype::vector(4, 2, 2, &Datatype::int()));
        assert_eq!(f.runs().len(), 1);
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
        assert_eq!(f.plan(2).runs(), &[run(0, 4, 24, 4), run(4, 4, 24, 4)]);
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
        assert_eq!(f.plan(3).runs(), &[run(0, 4, 24, 12)]);
    }

    #[test]
    fn indexed_is_irregular() {
        let f = flat(&Datatype::indexed(
            &[(1, 0), (2, 3), (1, 9)],
            &Datatype::int(),
        ));
        assert_eq!(shape(&f, 1), Canonical::Irregular);
        assert_eq!(f.total_bytes(1), Some(16));
    }

    #[test]
    fn struct_layout_flattens_in_field_order() {
        let t = Datatype::create_struct(&[(2, 16, Datatype::int()), (1, 0, Datatype::double())]);
        let f = flat(&t);
        // Pack order follows the typemap (field order), not address order.
        assert_eq!(
            f.expanded(1),
            vec![
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
    fn adjacent_bytes_merge_across_runs_and_elements() {
        // A strided pair whose last row the next field extends: rows
        // (0,4) (8,4) then (12,4) are (0,4) (8,8).
        let pair = Datatype::vector(2, 1, 2, &Datatype::float());
        let t = Datatype::create_struct(&[(1, 0, pair), (1, 12, Datatype::float())]);
        let f = flat(&t);
        assert_eq!(f.runs(), &[run(0, 4, 4, 1), run(8, 8, 8, 1)]);
        // ... and across an element boundary: the element's last row ends
        // where the next element's first row starts.
        let col = Datatype::resized(&Datatype::vector(2, 1, 3, &Datatype::float()), 0, 16);
        let f = flat(&col); // rows (0,4) (12,4), extent 16
        assert_eq!(
            f.expanded(3),
            [(0, 4), (12, 8), (28, 8), (44, 4)].map(|(offset, len)| Segment { offset, len })
        );
        assert_eq!(
            f.plan(3).runs(),
            &[run(0, 4, 4, 1), run(12, 8, 16, 2), run(44, 4, 4, 1)]
        );
    }

    #[test]
    fn byte_range_covers_all_elements() {
        let t = Datatype::vector(2, 1, 4, &Datatype::float());
        t.commit();
        let f = t.flat();
        // one element: offsets 0..4 and 16..20 → (0, 20); extent 20.
        assert_eq!(f.byte_range(1), Some((0, 20)));
        assert_eq!(f.byte_range(3), Some((0, 60)));
        assert_eq!(f.byte_range(0), Some((0, 0)));
    }

    #[test]
    fn negative_offsets_survive_flattening() {
        let t = Datatype::hindexed(&[(1, -8), (1, 4)], &Datatype::int());
        let f = flat(&t);
        assert_eq!(f.runs()[0].offset, -8);
        assert_eq!(f.byte_range(1).unwrap().0, -8);
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
        assert!(f.runs().is_empty());
        assert_eq!(shape(&f, 5), Canonical::Contig { offset: 0, len: 0 });
    }
}
