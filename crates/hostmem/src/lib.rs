//! # hostmem — simulated host (CPU) memory regions
//!
//! In the simulated cluster every node's host memory lives in the test
//! process's address space. A [`HostBuf`] is one allocation (a user buffer, a
//! registered staging buffer, an MPI bounce buffer); a [`HostPtr`] is a
//! cheap, cloneable "address" into one. Both the GPU simulator (PCIe DMA)
//! and the InfiniBand simulator (NIC DMA) move bytes between these regions,
//! so the crate sits below both.
//!
//! Buffers carry a process-global unique id used as a registration key by
//! the verbs layer, and a *pinned* flag mirroring page-locked host memory:
//! RDMA requires registration, and registration pins.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sim_core::lock::{Mutex, MutexGuard};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The written prefix of a zero-filled buffer: bytes `[0, vec.len())` are
/// stored, everything past them reads as zero without being stored.
///
/// MPI-style workloads register large pools of bounce buffers at init and
/// touch only a few of them, each only as far as the chunks staged through
/// it; at 1k+ simulated ranks an eager `vec![0; len]` per buffer dominated
/// wall-clock (tens of GB faulted, zeroed and unmapped per run), and backing
/// a whole 256 KiB vbuf on its first 64 KiB chunk held 70 % of `coll_256`'s
/// heap. A write extends the prefix to its end; the capacity grows
/// geometrically but never past the buffer's length.
struct Storage {
    vec: Vec<u8>,
}

impl Storage {
    /// Copy `[offset, offset + out.len())` into `out`; the part past the
    /// prefix (all of it, if `offset` is) reads as zeros.
    fn read(&self, offset: usize, out: &mut [u8]) {
        match self.vec.get(offset..offset + out.len()) {
            Some(held) => out.copy_from_slice(held),
            None => {
                let held = self.vec.get(offset..).unwrap_or_default();
                out[..held.len()].copy_from_slice(held);
                out[held.len()..].fill(0);
            }
        }
    }

    /// The prefix, extended with zeros to at least `end` (at most `len`, the
    /// buffer's length).
    fn extend_to(&mut self, end: usize, len: usize) -> &mut [u8] {
        let v = &mut self.vec;
        if end > v.len() {
            if end > v.capacity() {
                let cap = end.max(2 * v.capacity()).min(len);
                v.reserve_exact(cap - v.len());
            }
            v.resize(end, 0);
        }
        v
    }
}

struct Inner {
    id: u64,
    len: usize,
    data: Mutex<Storage>,
    pinned: AtomicBool,
}

/// One host memory allocation. Clones are shallow (same storage).
#[derive(Clone)]
pub struct HostBuf {
    inner: Arc<Inner>,
}

impl fmt::Debug for HostBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostBuf#{}[{}B]", self.inner.id, self.len())
    }
}

impl HostBuf {
    /// Allocate a zero-filled buffer of `len` bytes. Memory is held only
    /// for the prefix written so far (see [`Storage`]), so large pools of
    /// rarely- or partly-used staging buffers cost what is written through
    /// them.
    pub fn alloc(len: usize) -> Self {
        Self::with_storage(len, Vec::new())
    }

    /// Wrap an existing byte vector.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Self::with_storage(v.len(), v)
    }

    fn with_storage(len: usize, vec: Vec<u8>) -> Self {
        HostBuf {
            inner: Arc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                len,
                data: Mutex::new(Storage { vec }),
                pinned: AtomicBool::new(false),
            }),
        }
    }

    /// The buffer's process-global unique id (registration key).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Bytes actually held: the length of the written prefix (for
    /// diagnostics and the memory regression tests).
    pub fn stored(&self) -> usize {
        self.inner.data.lock().vec.len()
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark as page-locked (done by memory registration).
    pub fn pin(&self) {
        self.inner.pinned.store(true, Ordering::Relaxed);
    }

    /// Whether the buffer is page-locked.
    pub fn is_pinned(&self) -> bool {
        self.inner.pinned.load(Ordering::Relaxed)
    }

    /// A pointer to byte `offset`.
    pub fn ptr(&self, offset: usize) -> HostPtr {
        assert!(
            offset <= self.len(),
            "HostBuf::ptr: offset {offset} out of bounds (len {})",
            self.len()
        );
        HostPtr {
            buf: self.clone(),
            offset,
        }
    }

    /// A pointer to the start of the buffer.
    pub fn base(&self) -> HostPtr {
        self.ptr(0)
    }

    /// The end of `[offset, offset + n)`, which must lie inside the buffer
    /// (checked arithmetic: refused in release builds too).
    fn end(&self, what: &str, offset: usize, n: usize) -> usize {
        let len = self.inner.len;
        offset
            .checked_add(n)
            .filter(|&e| e <= len)
            .unwrap_or_else(|| {
                panic!("HostBuf::{what}: range {offset}..+{n} out of bounds (len {len})")
            })
    }

    /// The end of `height` rows of `width` bytes whose starts are `pitch`
    /// apart (first row at `offset`), which must lie inside the buffer
    /// (checked arithmetic: a span that wraps is refused in release builds
    /// too). Each row is then reported to the sanitizer, as a read or a
    /// `write`. `height` must be nonzero.
    fn rows(
        &self,
        what: &str,
        write: bool,
        offset: usize,
        pitch: usize,
        width: usize,
        height: usize,
    ) -> usize {
        let len = self.inner.len;
        let end = (height - 1)
            .checked_mul(pitch)
            .and_then(|gaps| gaps.checked_add(width)?.checked_add(offset))
            .filter(|&e| e <= len)
            .unwrap_or_else(|| {
                panic!(
                    "HostBuf::{what}: {height} rows of {width}B at pitch {pitch} from {offset} \
                     exceed buffer (len {len})"
                )
            });
        if sim_core::san::enabled() {
            for r in 0..height {
                sim_core::san::on_host_access(self.inner.id, offset + r * pitch, width, write);
            }
        }
        end
    }

    /// Copy `out.len()` bytes starting at `offset` into `out`.
    pub fn read_into(&self, offset: usize, out: &mut [u8]) {
        sim_core::san::on_host_access(self.inner.id, offset, out.len(), false);
        self.end("read_into", offset, out.len());
        self.inner.data.lock().read(offset, out);
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_into(offset, &mut v);
        v
    }

    /// Write `src` starting at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) {
        sim_core::san::on_host_access(self.inner.id, offset, src.len(), true);
        let end = self.end("write", offset, src.len());
        self.inner.data.lock().extend_to(end, self.inner.len)[offset..end].copy_from_slice(src);
    }

    /// Gather `height` rows of `width` bytes whose starts are `pitch` bytes
    /// apart (first row at `offset`) into the contiguous `out`, under a
    /// single lock acquisition. `out.len()` must equal `width * height`.
    /// Each row is reported to the sanitizer individually, so this is as
    /// precise as `height` separate [`HostBuf::read_into`] calls but much
    /// cheaper.
    pub fn read_strided(
        &self,
        offset: usize,
        pitch: usize,
        width: usize,
        height: usize,
        out: &mut [u8],
    ) {
        assert_eq!(
            out.len(),
            width * height,
            "HostBuf::read_strided: output length {} != width {width} * height {height}",
            out.len()
        );
        if width == 0 || height == 0 {
            return;
        }
        self.rows("read_strided", false, offset, pitch, width, height);
        let data = self.inner.data.lock();
        for (r, row) in out.chunks_exact_mut(width).enumerate() {
            data.read(offset + r * pitch, row);
        }
    }

    /// Scatter the contiguous `src` into `height` rows of `width` bytes
    /// whose starts are `pitch` bytes apart (first row at `offset`), under
    /// a single lock acquisition. `src.len()` must equal `width * height`.
    pub fn write_strided(
        &self,
        offset: usize,
        pitch: usize,
        width: usize,
        height: usize,
        src: &[u8],
    ) {
        assert_eq!(
            src.len(),
            width * height,
            "HostBuf::write_strided: source length {} != width {width} * height {height}",
            src.len()
        );
        if width == 0 || height == 0 {
            return;
        }
        let last_end = self.rows("write_strided", true, offset, pitch, width, height);
        let mut data = self.inner.data.lock();
        let v = data.extend_to(last_end, self.inner.len);
        for (r, row) in src.chunks_exact(width).enumerate() {
            let s = offset + r * pitch;
            v[s..s + width].copy_from_slice(row);
        }
    }

    /// Run `f` over bytes `[offset, offset + len)` under a single lock
    /// acquisition (used by bulk operations like the GPU's copies). Counts
    /// as a write of that range for the sanitizer, and stores the prefix up
    /// to its end; the rest of the buffer is not touched.
    pub fn with_range<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        sim_core::san::on_host_access(self.inner.id, offset, len, true);
        let end = self.end("with_range", offset, len);
        f(&mut self.inner.data.lock().extend_to(end, self.inner.len)[offset..end])
    }

    /// [`HostBuf::with_range`] over the whole buffer.
    pub fn with_slice<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.with_range(0, self.len(), f)
    }

    /// Byte-for-byte copy between host buffers (may be the same buffer as
    /// long as the ranges do not overlap): [`Copier::copy_rows`] with one
    /// row.
    pub fn copy(src: &HostPtr, dst: &HostPtr, len: usize) {
        Self::with_copier(&src.buf, &dst.buf, |c| {
            c.copy_rows(src.offset, len, dst.offset, len, len, 1)
        });
    }

    /// Run `f` with `src` and `dst` locked for a batch of pitched copies
    /// from one into the other: one lock per buffer, taken in id order (one
    /// lock if they are the same buffer), however many blocks `f` moves.
    /// `f` must neither touch either buffer any other way nor yield to
    /// another simulated process: the locks are held until it returns.
    pub fn with_copier<R>(src: &HostBuf, dst: &HostBuf, f: impl FnOnce(&mut Copier) -> R) -> R {
        // A tuple's elements are evaluated, so locked, left to right.
        let (from, to) = if Arc::ptr_eq(&src.inner, &dst.inner) {
            (None, dst.inner.data.lock())
        } else if src.id() < dst.id() {
            (Some(src.inner.data.lock()), dst.inner.data.lock())
        } else {
            let (to, from) = (dst.inner.data.lock(), src.inner.data.lock());
            (Some(from), to)
        };
        f(&mut Copier { src, dst, from, to })
    }
}

/// Two buffers' storage, locked for a batch of copies from the first into
/// the second ([`HostBuf::with_copier`]): the host twin of the GPU's pitched
/// copy, moving bytes straight from one buffer's storage into the other's.
pub struct Copier<'a> {
    src: &'a HostBuf,
    dst: &'a HostBuf,
    /// `None` when source and destination are the same buffer.
    from: Option<MutexGuard<'a, Storage>>,
    to: MutexGuard<'a, Storage>,
}

impl Copier<'_> {
    /// Copy `height` rows of `width` bytes from source offset `s0` (row
    /// starts `spitch` apart) to destination offset `d0` (row starts
    /// `dpitch` apart). Both extents are bounds-checked in checked
    /// arithmetic; within one buffer they (first to last byte) must be
    /// disjoint. Source rows past the stored prefix read as zeros, and the
    /// destination stores up to its last row's end. Each row is reported to
    /// the sanitizer, as [`HostBuf::read_strided`]/[`HostBuf::write_strided`]
    /// do. Zero `width` or `height` is a no-op.
    pub fn copy_rows(
        &mut self,
        s0: usize,
        spitch: usize,
        d0: usize,
        dpitch: usize,
        width: usize,
        height: usize,
    ) {
        if width == 0 || height == 0 {
            return;
        }
        let s_end = self.src.rows("copy_rows", false, s0, spitch, width, height);
        let d_end = self.dst.rows("copy_rows", true, d0, dpitch, width, height);
        assert!(
            self.from.is_some() || s_end <= d0 || d_end <= s0,
            "HostBuf::copy_rows: overlapping extents {s0}..{s_end} and {d0}..{d_end} \
             within one buffer"
        );
        let rows = (0..height).map(|r| (s0 + r * spitch, d0 + r * dpitch));
        let v = self.to.extend_to(d_end, self.dst.len());
        match &self.from {
            Some(from) => rows.for_each(|(s, d)| from.read(s, &mut v[d..d + width])),
            // Within one buffer the source's bytes past the prefix are zeros.
            None => rows.for_each(|(s, d)| {
                let s = s.min(v.len());
                let held = (v.len() - s).min(width);
                v.copy_within(s..s + held, d);
                v[d + held..d + width].fill(0);
            }),
        }
    }
}

/// A cheap cloneable address inside a [`HostBuf`].
#[derive(Clone)]
pub struct HostPtr {
    buf: HostBuf,
    offset: usize,
}

impl fmt::Debug for HostPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HostPtr#{}+{}", self.buf.id(), self.offset)
    }
}

impl HostPtr {
    /// The underlying buffer.
    pub fn buf(&self) -> &HostBuf {
        &self.buf
    }

    /// Byte offset within the buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// A pointer `bytes` further into the buffer.
    pub fn add(&self, bytes: usize) -> HostPtr {
        self.buf.ptr(self.offset + bytes)
    }

    /// Bytes remaining between this pointer and the end of the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.offset
    }

    /// Read `len` bytes at this address.
    pub fn read(&self, len: usize) -> Vec<u8> {
        self.buf.read(self.offset, len)
    }

    /// Write `src` at this address.
    pub fn write(&self, src: &[u8]) {
        self.buf.write(self.offset, src)
    }
}

/// Fixed-size scalars that can live in simulated memory (host or device).
///
/// All storage is little-endian, matching the simulated homogeneous cluster.
pub trait Scalar: Copy + PartialEq + fmt::Debug + Send + 'static {
    /// Size of the encoded scalar in bytes.
    const SIZE: usize;
    /// Encode into `out` (exactly `SIZE` bytes).
    fn write_le(self, out: &mut [u8]);
    /// Decode from `inp` (exactly `SIZE` bytes).
    fn read_le(inp: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(inp: &[u8]) -> Self {
                <$t>::from_le_bytes(inp.try_into().expect("Scalar::read_le: wrong length"))
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Encode a slice of scalars into bytes.
pub fn scalars_to_bytes<T: Scalar>(vals: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; vals.len() * T::SIZE];
    for (i, v) in vals.iter().enumerate() {
        v.write_le(&mut out[i * T::SIZE..(i + 1) * T::SIZE]);
    }
    out
}

/// Decode bytes into scalars. Panics if `bytes` is not a whole number of
/// scalars.
pub fn bytes_to_scalars<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::SIZE,
        0,
        "bytes_to_scalars: {} is not a multiple of {}",
        bytes.len(),
        T::SIZE
    );
    bytes.chunks_exact(T::SIZE).map(|c| T::read_le(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorshift::XorShift64;

    #[test]
    fn alloc_is_zeroed() {
        let b = HostBuf::alloc(16);
        assert_eq!(b.read(0, 16), vec![0u8; 16]);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert!(HostBuf::alloc(0).is_empty());
    }

    fn capacity(b: &HostBuf) -> usize {
        b.inner.data.lock().vec.capacity()
    }

    #[test]
    fn alloc_is_lazy_until_first_write() {
        let b = HostBuf::alloc(1 << 20);
        assert_eq!(b.stored(), 0, "fresh buffer must not allocate");
        assert_eq!(b.read(1 << 19, 4), vec![0u8; 4]);
        let mut out = vec![0xffu8; 8];
        b.read_strided(0, 16, 4, 2, &mut out);
        assert_eq!(out, vec![0u8; 8]);
        assert_eq!(capacity(&b), 0, "reads see zeros without allocating");
        b.write(7, &[1]);
        assert_eq!(b.stored(), 8);
        assert_eq!(b.read(6, 3), vec![0, 1, 0]);
        assert_eq!(HostBuf::from_vec(vec![1, 2]).stored(), 2);
    }

    #[test]
    fn a_buffer_stores_only_its_written_prefix() {
        const KIB: usize = 1 << 10;
        let b = HostBuf::alloc(256 * KIB);
        b.write(0, &[7u8; 64 * KIB]);
        assert_eq!(b.stored(), 64 * KIB, "one 64 KiB chunk into a 256 KiB vbuf");
        assert_eq!(capacity(&b), 64 * KIB);
        // Every kind of write extends the prefix to its own end, no further.
        b.write_strided(64 * KIB, 4 * KIB, KIB, 3, &[1u8; 3 * KIB]);
        assert_eq!(b.stored(), 64 * KIB + 9 * KIB);
        b.with_range(80 * KIB, KIB, |s| s.fill(2));
        assert_eq!(b.stored(), 81 * KIB);
        HostBuf::copy(&b.ptr(0), &b.ptr(100 * KIB), KIB);
        assert_eq!(b.stored(), 101 * KIB);
        assert_eq!(b.read(100 * KIB, KIB), vec![7u8; KIB]);
        // Reads past the prefix store nothing.
        assert_eq!(b.read(200 * KIB, KIB), vec![0u8; KIB]);
        assert_eq!(b.stored(), 101 * KIB);
        // Growth is geometric, capped at the buffer's length.
        let mut grown = Vec::new();
        for end in (1..=256).map(|k| k * KIB) {
            b.write(end - 1, &[3]);
            assert_eq!(b.stored(), end.max(101 * KIB));
            let cap = capacity(&b);
            assert!(cap <= b.len(), "capacity {cap} past len");
            if grown.last() != Some(&cap) {
                grown.push(cap);
            }
        }
        assert_eq!(grown, [128 * KIB, 256 * KIB]);
        // A one-byte buffer written once holds one byte.
        let tiny = HostBuf::alloc(1);
        tiny.write(0, &[1]);
        assert_eq!(capacity(&tiny), 1);
    }

    #[test]
    fn reads_past_the_prefix_are_zeros() {
        let b = HostBuf::alloc(64);
        b.write(0, &[9u8; 10]);
        // Straddling the prefix end, and starting past it.
        assert_eq!(b.read(8, 4), vec![9, 9, 0, 0]);
        assert_eq!(b.read(10, 4), vec![0u8; 4]);
        assert_eq!(b.read(40, 24), vec![0u8; 24]);
        // Rows held, straddling, and wholly past the prefix, in one gather.
        let mut out = vec![0xffu8; 12];
        b.read_strided(6, 5, 3, 4, &mut out);
        assert_eq!(out, [9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut out = vec![0xffu8; 6];
        b.read_strided(9, 10, 2, 3, &mut out);
        assert_eq!(out, [9, 0, 0, 0, 0, 0]);
        // A same-buffer copy from past the prefix writes zeros.
        b.write(0, &[5u8; 4]);
        HostBuf::copy(&b.ptr(8), &b.ptr(0), 4);
        assert_eq!(b.read(0, 4), vec![9, 9, 0, 0]);
        HostBuf::copy(&b.ptr(30), &b.ptr(0), 4);
        assert_eq!(b.read(0, 4), vec![0u8; 4]);
        assert_eq!(b.stored(), 10, "nothing here wrote past byte 10");
    }

    #[test]
    fn with_range_refuses_extents_outside_the_buffer() {
        let b = HostBuf::alloc(16);
        let refused = |offset: usize, len: usize| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.with_range(offset, len, |_| ())
            }));
            let msg = *r.expect_err("must refuse").downcast::<String>().unwrap();
            assert!(msg.contains("out of bounds"), "{msg}");
        };
        refused(8, 9);
        refused(17, 0);
        // Would wrap to a short, in-bounds range without checked arithmetic.
        refused(8, usize::MAX - 4);
        assert_eq!(b.stored(), 0, "a refused range stores nothing");
        assert_eq!(b.with_range(8, 8, |s| s.len()), 8);
        assert_eq!(b.with_range(16, 0, |s| s.len()), 0);
        assert_eq!(b.stored(), 16);
    }

    #[test]
    fn ids_are_unique() {
        let a = HostBuf::alloc(1);
        let b = HostBuf::alloc(1);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.clone().id(), "clones share identity");
    }

    #[test]
    fn read_write_round_trip() {
        let b = HostBuf::alloc(8);
        b.write(2, &[1, 2, 3]);
        assert_eq!(b.read(0, 8), vec![0, 0, 1, 2, 3, 0, 0, 0]);
        assert_eq!(b.ptr(2).read(3), vec![1, 2, 3]);
    }

    #[test]
    fn ptr_arithmetic() {
        let b = HostBuf::alloc(10);
        let p = b.ptr(4);
        assert_eq!(p.offset(), 4);
        assert_eq!(p.add(3).offset(), 7);
        assert_eq!(p.remaining(), 6);
        p.write(&[9]);
        assert_eq!(b.read(4, 1), vec![9]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        HostBuf::alloc(4).write(2, &[0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_ptr_panics() {
        let _ = HostBuf::alloc(4).ptr(5);
    }

    #[test]
    fn copy_between_buffers() {
        let a = HostBuf::from_vec(vec![1, 2, 3, 4]);
        let b = HostBuf::alloc(4);
        HostBuf::copy(&a.ptr(1), &b.ptr(2), 2);
        assert_eq!(b.read(0, 4), vec![0, 0, 2, 3]);
    }

    #[test]
    fn copy_within_one_buffer_disjoint() {
        let a = HostBuf::from_vec(vec![1, 2, 3, 4, 5, 6]);
        HostBuf::copy(&a.ptr(0), &a.ptr(3), 3);
        assert_eq!(a.read(0, 6), vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn copy_overlap_panics() {
        let a = HostBuf::alloc(8);
        HostBuf::copy(&a.ptr(0), &a.ptr(2), 4);
    }

    #[test]
    fn strided_read_write_round_trip() {
        let b = HostBuf::from_vec((0u8..24).collect());
        // 3 rows of 2 bytes, 8 apart, starting at 1: {1,2}, {9,10}, {17,18}.
        let mut out = vec![0u8; 6];
        b.read_strided(1, 8, 2, 3, &mut out);
        assert_eq!(out, vec![1, 2, 9, 10, 17, 18]);
        let c = HostBuf::alloc(24);
        c.write_strided(1, 8, 2, 3, &out);
        assert_eq!(c.read(0, 4), vec![0, 1, 2, 0]);
        assert_eq!(c.read(9, 2), vec![9, 10]);
        assert_eq!(c.read(17, 2), vec![17, 18]);
        // Degenerate shapes are no-ops.
        b.read_strided(0, 8, 0, 3, &mut []);
        c.write_strided(0, 8, 2, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "exceed buffer")]
    fn strided_read_oob_panics() {
        let b = HostBuf::alloc(16);
        let mut out = vec![0u8; 6];
        b.read_strided(0, 8, 2, 3, &mut out);
    }

    #[test]
    #[should_panic(expected = "exceed buffer")]
    fn strided_write_oob_panics() {
        let b = HostBuf::alloc(16);
        b.write_strided(4, 8, 2, 3, &[0u8; 6]);
    }

    /// One pitched copy, as a batch of one.
    fn copy_rows(src: &HostPtr, spitch: usize, dst: &HostPtr, dpitch: usize, w: usize, h: usize) {
        let (s0, d0) = (src.offset(), dst.offset());
        HostBuf::with_copier(src.buf(), dst.buf(), |c| {
            c.copy_rows(s0, spitch, d0, dpitch, w, h)
        });
    }

    #[test]
    fn strided_extents_that_wrap_are_refused() {
        // Three rows half the address space apart: the last row's end wraps
        // to a small, in-bounds number without checked arithmetic.
        let pitch = usize::MAX / 2;
        let b = HostBuf::alloc(64);
        let refused = |f: &dyn Fn()| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let msg = *r.expect_err("must refuse").downcast::<String>().unwrap();
            assert!(msg.contains("exceed buffer"), "{msg}");
        };
        refused(&|| b.read_strided(0, pitch, 4, 3, &mut [0u8; 12]));
        refused(&|| b.write_strided(0, pitch, 4, 3, &[1u8; 12]));
        let other = HostBuf::alloc(64);
        refused(&|| copy_rows(&b.base(), pitch, &other.base(), 4, 4, 3));
        refused(&|| copy_rows(&other.base(), 4, &b.base(), pitch, 4, 3));
        assert_eq!((b.stored(), other.stored()), (0, 0), "nothing was stored");
    }

    #[test]
    fn copy_rows_moves_pitched_blocks_between_buffers() {
        let a = HostBuf::from_vec((0u8..32).collect());
        let b = HostBuf::alloc(64);
        // 3 rows of 2 bytes, 8 apart in `a`, packed 2 apart in `b` from 4;
        // then back out of `b` at pitch 16 into a fresh buffer.
        copy_rows(&a.ptr(1), 8, &b.ptr(4), 2, 2, 3);
        assert_eq!(b.read(0, 12), [0, 0, 0, 0, 1, 2, 9, 10, 17, 18, 0, 0]);
        assert_eq!(
            b.stored(),
            10,
            "the destination stores to its last row's end"
        );
        // Either buffer may have the lower id: the lock order is by id.
        let c = HostBuf::alloc(64);
        copy_rows(&b.ptr(4), 2, &c.ptr(0), 16, 2, 3);
        copy_rows(&c.ptr(0), 16, &a.ptr(0), 2, 2, 3);
        assert_eq!(a.read(0, 6), [1, 2, 9, 10, 17, 18]);
        assert_eq!(c.read(32, 2), [17, 18]);
        // One batch, many blocks, one lock of each buffer.
        HostBuf::with_copier(&c, &b, |cp| {
            cp.copy_rows(0, 16, 20, 4, 2, 3);
            cp.copy_rows(33, 0, 30, 0, 1, 1);
        });
        assert_eq!(b.read(20, 11), [1, 2, 0, 0, 9, 10, 0, 0, 17, 18, 18]);
    }

    #[test]
    fn copy_rows_reads_zeros_past_the_source_prefix() {
        let a = HostBuf::alloc(64);
        a.write(0, &[9u8; 10]);
        // Rows held, straddling the prefix end, and wholly past it.
        let b = HostBuf::from_vec(vec![0xff; 16]);
        copy_rows(&a.ptr(8), 5, &b.base(), 3, 3, 4);
        assert_eq!(b.read(0, 12), [9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.stored(), 10, "reading the source stores nothing");
        // Within one buffer the same rule holds.
        copy_rows(&a.ptr(8), 20, &a.ptr(40), 4, 4, 2);
        assert_eq!(a.read(40, 8), [9, 9, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.stored(), 48);
    }

    #[test]
    fn copy_rows_within_one_buffer_needs_disjoint_extents() {
        let a = HostBuf::from_vec((0u8..32).collect());
        // Rows {0,1} {4,5} {8,9} land at 16.. packed: extents 0..10, 16..22.
        copy_rows(&a.ptr(0), 4, &a.ptr(16), 2, 2, 3);
        assert_eq!(a.read(16, 6), [0, 1, 4, 5, 8, 9]);
        // Interleaved rows move no byte twice, but their extents overlap.
        let r = std::panic::catch_unwind(|| copy_rows(&a.ptr(0), 4, &a.ptr(2), 4, 2, 3));
        let msg = *r.expect_err("must refuse").downcast::<String>().unwrap();
        assert!(msg.contains("overlapping"), "{msg}");
        assert_eq!(a.read(0, 12), (0u8..12).collect::<Vec<_>>(), "refused");
    }

    #[test]
    fn copy_rows_of_zero_width_or_height_is_a_no_op() {
        let a = HostBuf::alloc(8);
        let b = HostBuf::alloc(8);
        // Shapes that would be out of bounds, or overlap, if they moved a byte.
        copy_rows(&a.ptr(8), 100, &b.ptr(8), 100, 0, 5);
        copy_rows(&a.ptr(8), 100, &b.ptr(8), 100, 5, 0);
        copy_rows(&a.ptr(0), 1, &a.ptr(0), 1, 4, 0);
        assert_eq!((a.stored(), b.stored()), (0, 0));
    }

    #[test]
    fn pinning() {
        let b = HostBuf::alloc(1);
        assert!(!b.is_pinned());
        b.pin();
        assert!(b.is_pinned());
    }

    #[test]
    fn scalar_round_trip_f32() {
        let vals = [1.5f32, -2.25, 0.0, f32::MAX];
        let bytes = scalars_to_bytes(&vals);
        assert_eq!(bytes.len(), 16);
        assert_eq!(bytes_to_scalars::<f32>(&bytes), vals);
    }

    #[test]
    fn scalar_round_trip_f64_u32() {
        let vals = [1.5f64, -0.125];
        assert_eq!(bytes_to_scalars::<f64>(&scalars_to_bytes(&vals)), vals);
        let ints = [7u32, 0xdead_beef];
        assert_eq!(bytes_to_scalars::<u32>(&scalars_to_bytes(&ints)), ints);
    }

    // Deterministic randomized coverage (replaces the former proptest
    // suite; seeds are fixed so every run exercises identical cases).

    #[test]
    fn random_write_then_read() {
        let mut rng = XorShift64::new(0xB0B1);
        for _ in 0..64 {
            let len = rng.gen_range(0, 256);
            let pad = rng.gen_range(0, 32);
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let b = HostBuf::alloc(len + pad);
            b.write(pad / 2, &data);
            assert_eq!(b.read(pad / 2, len), data);
        }
    }

    #[test]
    fn random_scalars_round_trip() {
        let mut rng = XorShift64::new(0xB0B2);
        for _ in 0..64 {
            let n = rng.gen_range(0, 64);
            let vals: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            assert_eq!(bytes_to_scalars::<i64>(&scalars_to_bytes(&vals)), vals);
        }
    }

    #[test]
    fn random_copy_is_exact() {
        let mut rng = XorShift64::new(0xB0B3);
        for _ in 0..64 {
            let len = rng.gen_range(1, 128);
            let doff = rng.gen_range(0, 64);
            let mut src = vec![0u8; len];
            rng.fill_bytes(&mut src);
            let a = HostBuf::from_vec(src.clone());
            let b = HostBuf::alloc(len + doff);
            HostBuf::copy(&a.base(), &b.ptr(doff), len);
            assert_eq!(b.read(doff, len), src);
        }
    }
}
