//! MPI derived datatypes: type algebra (size / extent / lb / ub) per MPI 2.2.
//!
//! A datatype describes a *typemap*: a set of (byte offset, primitive) pairs.
//! We never materialize typemaps at the primitive level; instead each
//! constructor computes the derived quantities recursively and
//! [`commit`](Datatype::commit) flattens the byte layout (see
//! [`crate::flat`]).
//!
//! Supported constructors — the full set used by real applications:
//! primitives, `contiguous`, `vector`, `hvector`, `indexed`, `hindexed`,
//! `create_struct`, `subarray` (built compositionally) and `create_resized`.

use std::fmt;
use std::sync::Arc;

use sim_core::lock::Mutex;

use crate::flat::FlatType;

/// Element order of a subarray (Fortran not supported — the simulated apps
/// are row-major).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SubarrayOrder {
    /// C order: last dimension contiguous.
    C,
}

#[derive(Debug)]
pub(crate) enum DtKind {
    /// A named primitive of the given size (MPI_FLOAT, MPI_DOUBLE, ...).
    Primitive {
        #[allow(dead_code)] // retained for Debug output / future introspection
        name: &'static str,
    },
    Contiguous {
        count: usize,
        child: Datatype,
    },
    /// `stride` counted in child extents (MPI_Type_vector).
    Vector {
        count: usize,
        blocklen: usize,
        stride: isize,
        child: Datatype,
    },
    /// `stride_bytes` counted in bytes (MPI_Type_create_hvector).
    Hvector {
        count: usize,
        blocklen: usize,
        stride_bytes: isize,
        child: Datatype,
    },
    /// Blocks of (blocklen, displacement in child extents).
    Indexed {
        blocks: Vec<(usize, isize)>,
        child: Datatype,
    },
    /// Blocks of (blocklen, displacement in bytes).
    Hindexed {
        blocks: Vec<(usize, isize)>,
        child: Datatype,
    },
    /// Heterogeneous fields of (blocklen, displacement in bytes, type).
    Struct {
        fields: Vec<(usize, isize, Datatype)>,
    },
    /// Extent/lb override (MPI_Type_create_resized). The override values
    /// live in the node's cached bounds; the fields here document the tree.
    Resized {
        child: Datatype,
        #[allow(dead_code)]
        lb: isize,
        #[allow(dead_code)]
        extent: isize,
    },
}

pub(crate) struct DtInner {
    pub(crate) kind: DtKind,
    size: usize,
    lb: isize,
    ub: isize,
    committed: Mutex<Option<Arc<FlatType>>>,
}

/// An MPI datatype handle. Clones are shallow.
#[derive(Clone)]
pub struct Datatype {
    pub(crate) inner: Arc<DtInner>,
}

impl fmt::Debug for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datatype(size={}, lb={}, extent={})",
            self.size(),
            self.lb(),
            self.extent()
        )
    }
}

fn new_dt(kind: DtKind, size: usize, lb: isize, ub: isize) -> Datatype {
    Datatype {
        inner: Arc::new(DtInner {
            kind,
            size,
            lb,
            ub,
            committed: Mutex::new(None),
        }),
    }
}

/// Compute (lb, ub) over a set of placements of `child` at byte
/// displacements `disp`, each a run of `blocklen` consecutive child extents.
fn bounds_over<I: Iterator<Item = (usize, isize)>>(
    child: &Datatype,
    placements: I,
) -> Option<(isize, isize)> {
    let ext = child.extent();
    let (clb, cub) = (child.lb(), child.ub());
    let mut out: Option<(isize, isize)> = None;
    for (blocklen, disp_bytes) in placements {
        if blocklen == 0 {
            continue;
        }
        // Elements sit at disp + j*ext for j in 0..blocklen.
        let first_lb = disp_bytes + clb;
        let last_ub = disp_bytes + (blocklen as isize - 1) * ext + cub;
        // With negative extents the min/max may flip; take both endpoints.
        let lo = first_lb
            .min(disp_bytes + (blocklen as isize - 1) * ext + clb)
            .min(first_lb);
        let hi = last_ub.max(disp_bytes + cub).max(last_ub);
        out = Some(match out {
            None => (lo, hi),
            Some((l, h)) => (l.min(lo), h.max(hi)),
        });
    }
    out
}

/// (lb, ub) of `count` blocks `stride_bytes` apart. Block bounds move
/// linearly with the block index, so the first and the last block decide
/// both — O(1), not a walk over `count`.
fn strided_bounds(
    child: &Datatype,
    count: usize,
    blocklen: usize,
    stride_bytes: isize,
) -> (isize, isize) {
    let ends = [0, count.saturating_sub(1)];
    let placements = ends[..count.min(2)]
        .iter()
        .map(|&i| (blocklen, i as isize * stride_bytes));
    bounds_over(child, placements).unwrap_or((0, 0))
}

impl Datatype {
    // --- primitives ---------------------------------------------------------

    fn primitive(name: &'static str, size: usize) -> Datatype {
        new_dt(DtKind::Primitive { name }, size, 0, size as isize)
    }

    /// MPI_BYTE.
    pub fn byte() -> Datatype {
        Self::primitive("MPI_BYTE", 1)
    }

    /// MPI_CHAR.
    pub fn char() -> Datatype {
        Self::primitive("MPI_CHAR", 1)
    }

    /// MPI_INT.
    pub fn int() -> Datatype {
        Self::primitive("MPI_INT", 4)
    }

    /// MPI_FLOAT.
    pub fn float() -> Datatype {
        Self::primitive("MPI_FLOAT", 4)
    }

    /// MPI_DOUBLE.
    pub fn double() -> Datatype {
        Self::primitive("MPI_DOUBLE", 8)
    }

    /// MPI_LONG (LP64).
    pub fn long() -> Datatype {
        Self::primitive("MPI_LONG", 8)
    }

    // --- derived constructors -------------------------------------------------

    /// `MPI_Type_contiguous(count, child)`.
    pub fn contiguous(count: usize, child: &Datatype) -> Datatype {
        let ext = child.extent();
        let (lb, ub) = bounds_over(child, std::iter::once((count, 0isize))).unwrap_or((0, 0));
        let _ = ext;
        new_dt(
            DtKind::Contiguous {
                count,
                child: child.clone(),
            },
            child.size() * count,
            lb,
            ub,
        )
    }

    /// `MPI_Type_vector(count, blocklen, stride, child)`: `count` blocks of
    /// `blocklen` elements, block starts `stride` child-extents apart.
    pub fn vector(count: usize, blocklen: usize, stride: isize, child: &Datatype) -> Datatype {
        let (lb, ub) = strided_bounds(child, count, blocklen, stride * child.extent());
        new_dt(
            DtKind::Vector {
                count,
                blocklen,
                stride,
                child: child.clone(),
            },
            child.size() * count * blocklen,
            lb,
            ub,
        )
    }

    /// `MPI_Type_create_hvector`: like [`vector`](Self::vector) but the
    /// stride is in bytes.
    pub fn hvector(
        count: usize,
        blocklen: usize,
        stride_bytes: isize,
        child: &Datatype,
    ) -> Datatype {
        let (lb, ub) = strided_bounds(child, count, blocklen, stride_bytes);
        new_dt(
            DtKind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child: child.clone(),
            },
            child.size() * count * blocklen,
            lb,
            ub,
        )
    }

    /// `MPI_Type_indexed`: blocks of `(blocklen, displacement)` with
    /// displacements in child extents.
    pub fn indexed(blocks: &[(usize, isize)], child: &Datatype) -> Datatype {
        let ext = child.extent();
        let (lb, ub) =
            bounds_over(child, blocks.iter().map(|&(bl, d)| (bl, d * ext))).unwrap_or((0, 0));
        let size: usize = blocks.iter().map(|&(bl, _)| bl).sum::<usize>() * child.size();
        new_dt(
            DtKind::Indexed {
                blocks: blocks.to_vec(),
                child: child.clone(),
            },
            size,
            lb,
            ub,
        )
    }

    /// `MPI_Type_create_hindexed`: displacements in bytes.
    pub fn hindexed(blocks: &[(usize, isize)], child: &Datatype) -> Datatype {
        let (lb, ub) = bounds_over(child, blocks.iter().copied()).unwrap_or((0, 0));
        let size: usize = blocks.iter().map(|&(bl, _)| bl).sum::<usize>() * child.size();
        new_dt(
            DtKind::Hindexed {
                blocks: blocks.to_vec(),
                child: child.clone(),
            },
            size,
            lb,
            ub,
        )
    }

    /// `MPI_Type_create_struct`: heterogeneous fields at byte displacements.
    pub fn create_struct(fields: &[(usize, isize, Datatype)]) -> Datatype {
        let mut lo_hi: Option<(isize, isize)> = None;
        let mut size = 0usize;
        for (bl, disp, t) in fields {
            size += bl * t.size();
            if let Some((lo, hi)) = bounds_over(t, std::iter::once((*bl, *disp))) {
                lo_hi = Some(match lo_hi {
                    None => (lo, hi),
                    Some((l, h)) => (l.min(lo), h.max(hi)),
                });
            }
        }
        let (lb, ub) = lo_hi.unwrap_or((0, 0));
        new_dt(
            DtKind::Struct {
                fields: fields.to_vec(),
            },
            size,
            lb,
            ub,
        )
    }

    /// `MPI_Type_create_subarray` (C order): an `ndims`-dimensional
    /// `subsizes` window at `starts` inside a `sizes` array of `child`
    /// elements. Built compositionally from vector/hvector + resized.
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        _order: SubarrayOrder,
        child: &Datatype,
    ) -> Datatype {
        assert!(
            !sizes.is_empty() && sizes.len() == subsizes.len() && sizes.len() == starts.len(),
            "subarray: dimension mismatch"
        );
        for d in 0..sizes.len() {
            assert!(
                starts[d] + subsizes[d] <= sizes[d],
                "subarray: window exceeds array in dim {d}"
            );
        }
        let ext = child.extent();
        // Innermost (last) dimension: contiguous run of subsizes[n-1].
        let n = sizes.len();
        let mut t = Datatype::contiguous(subsizes[n - 1], child);
        let mut row_bytes = sizes[n - 1] as isize * ext; // full row extent
                                                         // Wrap outward: each dim d becomes an hvector of subsizes[d] copies
                                                         // spaced by the full lower-dim extent.
        for d in (0..n - 1).rev() {
            t = Datatype::hvector(subsizes[d], 1, row_bytes, &t);
            row_bytes *= sizes[d] as isize;
        }
        // Shift by the starting offset and give the type the full array
        // extent so consecutive subarrays tile correctly.
        let mut start_off = 0isize;
        let mut dim_ext = ext;
        for d in (0..n).rev() {
            start_off += starts[d] as isize * dim_ext;
            dim_ext *= sizes[d] as isize;
        }
        let shifted = Datatype::hindexed(&[(1, start_off)], &t);
        Datatype::resized(&shifted, 0, dim_ext)
    }

    /// `MPI_Type_create_indexed_block`: equal-length blocks at the given
    /// displacements (in child extents).
    pub fn indexed_block(blocklen: usize, displacements: &[isize], child: &Datatype) -> Datatype {
        let blocks: Vec<(usize, isize)> = displacements.iter().map(|&d| (blocklen, d)).collect();
        Self::indexed(&blocks, child)
    }

    /// A distributed-array block (the common block-distribution case of
    /// `MPI_Type_create_darray`): the sub-block owned by process
    /// `coords` of a `grid` decomposition of a C-order `sizes` array,
    /// dimensions divided evenly. Composed from [`subarray`](Self::subarray).
    pub fn darray_block(
        sizes: &[usize],
        grid: &[usize],
        coords: &[usize],
        child: &Datatype,
    ) -> Datatype {
        assert!(
            sizes.len() == grid.len() && sizes.len() == coords.len(),
            "darray_block: dimension mismatch"
        );
        let mut subsizes = Vec::with_capacity(sizes.len());
        let mut starts = Vec::with_capacity(sizes.len());
        for d in 0..sizes.len() {
            assert!(
                sizes[d].is_multiple_of(grid[d]),
                "darray_block: dim {d} not evenly divisible"
            );
            assert!(coords[d] < grid[d], "darray_block: coords out of grid");
            let b = sizes[d] / grid[d];
            subsizes.push(b);
            starts.push(coords[d] * b);
        }
        Self::subarray(sizes, &subsizes, &starts, SubarrayOrder::C, child)
    }

    /// `MPI_Type_create_resized`: override lower bound and extent.
    pub fn resized(child: &Datatype, lb: isize, extent: isize) -> Datatype {
        new_dt(
            DtKind::Resized {
                child: child.clone(),
                lb,
                extent,
            },
            child.size(),
            lb,
            lb + extent,
        )
    }

    // --- queries -----------------------------------------------------------------

    /// Number of data bytes (MPI_Type_size).
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Lower bound in bytes.
    pub fn lb(&self) -> isize {
        self.inner.lb
    }

    /// Upper bound in bytes.
    pub fn ub(&self) -> isize {
        self.inner.ub
    }

    /// Extent in bytes (MPI_Type_get_extent).
    pub fn extent(&self) -> isize {
        self.inner.ub - self.inner.lb
    }

    /// True for a committed type.
    pub fn is_committed(&self) -> bool {
        self.inner.committed.lock().is_some()
    }

    /// The primitive's name ("MPI_FLOAT", ...) when this is a named
    /// primitive type; `None` for derived types. Reduction operators are
    /// defined on primitives.
    pub fn primitive_name(&self) -> Option<&'static str> {
        match &self.inner.kind {
            DtKind::Primitive { name } => Some(name),
            _ => None,
        }
    }

    /// `MPI_Type_commit`: flatten the layout. Communication operations
    /// require a committed type. Commit is idempotent.
    pub fn commit(&self) -> &Datatype {
        let mut c = self.inner.committed.lock();
        if c.is_none() {
            *c = Some(Arc::new(FlatType::build(self)));
        }
        self
    }

    /// `MPI_Pack`: gather `count` elements from the host buffer at `buf`
    /// into a contiguous byte vector. Requires a committed type.
    pub fn pack(&self, buf: &hostmem::HostPtr, count: usize) -> Vec<u8> {
        let plan = self.flat().plan(count);
        crate::pack::PackCursor::from_plan(buf.clone(), plan).pack_all()
    }

    /// `MPI_Unpack`: scatter a contiguous byte stream into `count` elements
    /// at the host buffer `buf`. Requires a committed type; `data` must be
    /// exactly `count * size()` bytes.
    pub fn unpack(&self, data: &[u8], buf: &hostmem::HostPtr, count: usize) {
        assert_eq!(
            data.len(),
            self.size() * count,
            "MPI_Unpack: stream length does not match the datatype"
        );
        let plan = self.flat().plan(count);
        let mut c = crate::pack::UnpackCursor::from_plan(buf.clone(), plan);
        c.unpack_from(data);
    }

    /// The cached communication plan for `count` elements (run list,
    /// prefix sums, shape). Requires a committed type.
    pub fn plan(&self, count: usize) -> Arc<crate::plan::Plan> {
        self.flat().plan(count)
    }

    /// Plan-cache counters of this committed type.
    pub fn plan_cache_stats(&self) -> crate::plan::PlanCacheStats {
        self.flat().plan_cache_stats()
    }

    /// The committed flattened layout. Panics if not committed.
    pub fn flat(&self) -> Arc<FlatType> {
        self.inner
            .committed
            .lock()
            .clone()
            .expect("datatype used for communication before MPI_Type_commit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_bounds_match_a_walk_over_every_block() {
        let child = Datatype::resized(&Datatype::double(), -4, 20);
        for count in 0..5 {
            for blocklen in 0..3 {
                for stride in [-48, -8, 0, 8, 48] {
                    let walk = (0..count).map(|i| (blocklen, i as isize * stride));
                    assert_eq!(
                        strided_bounds(&child, count, blocklen, stride),
                        bounds_over(&child, walk).unwrap_or((0, 0)),
                        "count {count} blocklen {blocklen} stride {stride}"
                    );
                }
            }
        }
    }

    #[test]
    fn primitive_sizes() {
        assert_eq!(Datatype::float().size(), 4);
        assert_eq!(Datatype::double().size(), 8);
        assert_eq!(Datatype::float().extent(), 4);
        assert_eq!(Datatype::byte().size(), 1);
    }

    #[test]
    fn contiguous_type() {
        let t = Datatype::contiguous(10, &Datatype::float());
        assert_eq!(t.size(), 40);
        assert_eq!(t.extent(), 40);
        assert_eq!(t.lb(), 0);
    }

    #[test]
    fn vector_type_matches_mpi_rules() {
        // 3 blocks of 2 floats, stride 4 floats: data at 0..8, 16..24, 32..40.
        let t = Datatype::vector(3, 2, 4, &Datatype::float());
        assert_eq!(t.size(), 24);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 40);
        assert_eq!(t.extent(), 40);
    }

    #[test]
    fn vector_of_vectors() {
        let row = Datatype::vector(4, 1, 2, &Datatype::int()); // extent 4*...
        let t = Datatype::vector(2, 1, 3, &row);
        assert_eq!(t.size(), 2 * row.size());
        assert_eq!(row.size(), 16);
    }

    #[test]
    fn hvector_stride_in_bytes() {
        let t = Datatype::hvector(3, 1, 100, &Datatype::double());
        assert_eq!(t.size(), 24);
        assert_eq!(t.ub(), 208);
        assert_eq!(t.extent(), 208);
    }

    #[test]
    fn indexed_bounds() {
        // blocks at displacement 2 and 5 (in ints), lens 1 and 3.
        let t = Datatype::indexed(&[(1, 2), (3, 5)], &Datatype::int());
        assert_eq!(t.size(), 16);
        assert_eq!(t.lb(), 8);
        assert_eq!(t.ub(), 32);
    }

    #[test]
    fn hindexed_negative_displacement() {
        let t = Datatype::hindexed(&[(1, -8), (1, 8)], &Datatype::int());
        assert_eq!(t.lb(), -8);
        assert_eq!(t.ub(), 12);
        assert_eq!(t.size(), 8);
    }

    #[test]
    fn struct_type() {
        let t = Datatype::create_struct(&[(1, 0, Datatype::int()), (2, 8, Datatype::double())]);
        assert_eq!(t.size(), 4 + 16);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 24);
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::contiguous(3, &Datatype::int());
        let r = Datatype::resized(&t, 0, 16);
        assert_eq!(r.size(), 12);
        assert_eq!(r.extent(), 16);
    }

    #[test]
    fn subarray_2d_extent_is_full_array() {
        // 4x6 array of floats, 2x3 window at (1,2).
        let t = Datatype::subarray(
            &[4, 6],
            &[2, 3],
            &[1, 2],
            SubarrayOrder::C,
            &Datatype::float(),
        );
        assert_eq!(t.size(), 2 * 3 * 4);
        assert_eq!(t.extent(), 4 * 6 * 4);
    }

    #[test]
    #[should_panic(expected = "window exceeds array")]
    fn subarray_rejects_oversized_window() {
        let _ = Datatype::subarray(
            &[4, 4],
            &[2, 4],
            &[1, 1],
            SubarrayOrder::C,
            &Datatype::float(),
        );
    }

    #[test]
    fn commit_is_idempotent() {
        let t = Datatype::vector(2, 1, 2, &Datatype::float());
        assert!(!t.is_committed());
        t.commit();
        assert!(t.is_committed());
        let f1 = t.flat();
        t.commit();
        assert!(Arc::ptr_eq(&f1, &t.flat()));
    }

    #[test]
    #[should_panic(expected = "before MPI_Type_commit")]
    fn uncommitted_flat_panics() {
        let t = Datatype::vector(2, 1, 2, &Datatype::float());
        let _ = t.flat();
    }

    #[test]
    fn indexed_block_equals_indexed() {
        let a = Datatype::indexed_block(2, &[0, 5, 11], &Datatype::int());
        let b = Datatype::indexed(&[(2, 0), (2, 5), (2, 11)], &Datatype::int());
        assert_eq!(a.size(), b.size());
        assert_eq!(a.lb(), b.lb());
        assert_eq!(a.ub(), b.ub());
        a.commit();
        b.commit();
        assert_eq!(a.flat().runs(), b.flat().runs());
    }

    #[test]
    fn darray_block_tiles_the_array() {
        // 8x6 array split on a 2x3 grid: each block 4x2, tiling disjointly.
        let mut seen = [false; 8 * 6];
        for ci in 0..2 {
            for cj in 0..3 {
                let t = Datatype::darray_block(&[8, 6], &[2, 3], &[ci, cj], &Datatype::float());
                assert_eq!(t.size(), 4 * 2 * 4);
                t.commit();
                for s in t.flat().expanded(1) {
                    let start = s.offset as usize / 4;
                    for (e, slot) in seen.iter_mut().enumerate().skip(start).take(s.len / 4) {
                        assert!(!*slot, "element {e} covered twice");
                        *slot = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&x| x), "blocks must tile the whole array");
    }

    #[test]
    #[should_panic(expected = "not evenly divisible")]
    fn darray_block_rejects_uneven_split() {
        let _ = Datatype::darray_block(&[7], &[2], &[0], &Datatype::int());
    }

    #[test]
    fn pack_unpack_round_trip() {
        use hostmem::HostBuf;
        let t = Datatype::vector(3, 2, 4, &Datatype::int());
        t.commit();
        let src = HostBuf::from_vec((0u8..48).collect());
        let packed = t.pack(&src.base(), 1);
        assert_eq!(packed.len(), t.size());
        let dst = HostBuf::alloc(48);
        t.unpack(&packed, &dst.base(), 1);
        for blk in 0..3 {
            let o = blk * 16;
            assert_eq!(dst.read(o, 8), src.read(o, 8));
            assert_eq!(dst.read(o + 8, 8), vec![0u8; 8]);
        }
    }

    #[test]
    #[should_panic(expected = "stream length")]
    fn unpack_wrong_length_panics() {
        use hostmem::HostBuf;
        let t = Datatype::int();
        t.commit();
        let buf = HostBuf::alloc(8);
        t.unpack(&[0u8; 3], &buf.base(), 1);
    }

    #[test]
    fn empty_types_have_zero_bounds() {
        let t = Datatype::vector(0, 3, 5, &Datatype::float());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        let t2 = Datatype::indexed(&[], &Datatype::int());
        assert_eq!(t2.size(), 0);
    }
}
