//! CPU pack/unpack engine for host buffers.
//!
//! [`PackCursor`]/[`UnpackCursor`] stream a flattened datatype's bytes
//! to/from a contiguous representation in chunk-sized pieces — O(total)
//! overall even when a message is packed in many chunks, which matters for
//! the pipelined rendezvous path. Cursors run over a shared [`Plan`]
//! (usually a plan-cache hit, so creating one allocates nothing) and walk
//! its runs, not its rows: both are one stepping loop plus a copy
//! direction, and the whole rows of *every* run a chunk covers go as one
//! pitched bulk copy instead of per-row dispatch.

use std::ops::Range;
use std::sync::Arc;

use hostmem::{HostBuf, HostPtr};

use crate::flat::Segment;
use crate::plan::Plan;

/// A position in the packed stream of `plan`, laid over the buffer at
/// `base`: everything a cursor is except its copy direction.
struct Cursor {
    base: HostPtr,
    plan: Arc<Plan>,
    /// Current run, row within it, byte within that row.
    run: usize,
    row: usize,
    off: usize,
    done: usize,
}

/// Streaming packer: reads a non-contiguous layout (`plan` relative to
/// `base`) and produces the packed byte stream incrementally.
pub struct PackCursor(Cursor);

/// Streaming unpacker: consumes a packed byte stream and scatters it into a
/// non-contiguous layout.
pub struct UnpackCursor(Cursor);

impl Cursor {
    fn new(base: HostPtr, plan: Arc<Plan>) -> Self {
        Cursor {
            base,
            plan,
            run: 0,
            row: 0,
            off: 0,
            done: 0,
        }
    }

    fn finished(&self) -> bool {
        self.run >= self.plan.runs().len()
    }

    /// Advance `len` bytes through the packed stream. Each step hands
    /// `copy(buf, at, pitch, width, rows, range)` one pitched run of the
    /// buffer — `rows` rows of `width` bytes starting `pitch` apart, the
    /// first at absolute offset `at` — and the `range` of the caller's
    /// contiguous slice it maps to. Panics if fewer than `len` bytes remain.
    fn step(
        &mut self,
        len: usize,
        mut copy: impl FnMut(&HostBuf, usize, usize, usize, usize, Range<usize>),
    ) {
        let mut pos = 0;
        while pos < len {
            let run = *self
                .plan
                .runs()
                .get(self.run)
                .expect("cursor stepped past the end of the datatype");
            let room = len - pos;
            // Whole rows of the run go as one pitched copy when at least
            // two fit (a lone row gains nothing); anything else is one,
            // possibly clipped, row.
            let whole = match self.off {
                0 => (room / run.len).min(run.count - self.row),
                _ => 0,
            };
            let (pitch, width, rows) = if whole >= 2 {
                (run.stride, run.len, whole)
            } else {
                let take = (run.len - self.off).min(room);
                (take, take, 1)
            };
            let at = abs_offset(&self.base, &run.row(self.row), self.off);
            copy(
                self.base.buf(),
                at,
                pitch,
                width,
                rows,
                pos..pos + rows * width,
            );
            pos += rows * width;
            self.off += width;
            if self.off == run.len {
                self.row += rows;
                self.off = 0;
            }
            if self.row == run.count {
                self.run += 1;
                self.row = 0;
            }
        }
        self.done += len;
    }
}

fn abs_offset(base: &HostPtr, seg: &Segment, within: usize) -> usize {
    let off = base.offset() as isize + seg.offset + within as isize;
    assert!(
        off >= 0,
        "datatype segment at negative absolute offset {off} (buffer offset {}, segment {})",
        base.offset(),
        seg.offset
    );
    off as usize
}

impl PackCursor {
    /// Create a packer over `segments` of the buffer at `base`.
    pub fn new(base: HostPtr, segments: Vec<Segment>) -> Self {
        Self::from_plan(base, Arc::new(Plan::from_segments(segments)))
    }

    /// Create a packer over a shared plan of the buffer at `base`.
    pub fn from_plan(base: HostPtr, plan: Arc<Plan>) -> Self {
        PackCursor(Cursor::new(base, plan))
    }

    /// Total bytes produced so far.
    pub fn produced(&self) -> usize {
        self.0.done
    }

    /// True when every row has been packed.
    pub fn finished(&self) -> bool {
        self.0.finished()
    }

    /// Pack the next `out.len()` bytes of the stream into `out`. Panics if
    /// fewer bytes remain.
    pub fn pack_into(&mut self, out: &mut [u8]) {
        self.0
            .step(out.len(), |buf, at, pitch, width, rows, range| {
                buf.read_strided(at, pitch, width, rows, &mut out[range])
            });
    }

    /// Pack the next `len` bytes of the stream straight into host memory
    /// at `dst`, one pitched block per step under one lock of each buffer.
    /// Panics if fewer bytes remain.
    pub fn pack_into_host(&mut self, dst: &HostPtr, len: usize) {
        let (user, d0) = (self.0.base.buf().clone(), dst.offset());
        HostBuf::with_copier(&user, dst.buf(), |c| {
            self.0.step(len, |_, at, pitch, width, rows, range| {
                c.copy_rows(at, pitch, d0 + range.start, width, width, rows)
            })
        });
    }

    /// Pack the entire remaining stream.
    pub fn pack_all(&mut self) -> Vec<u8> {
        let mut out = vec![0u8; self.0.plan.total() - self.0.done];
        self.pack_into(&mut out);
        out
    }
}

impl UnpackCursor {
    /// Create an unpacker over `segments` of the buffer at `base`.
    pub fn new(base: HostPtr, segments: Vec<Segment>) -> Self {
        Self::from_plan(base, Arc::new(Plan::from_segments(segments)))
    }

    /// Create an unpacker over a shared plan of the buffer at `base`.
    pub fn from_plan(base: HostPtr, plan: Arc<Plan>) -> Self {
        UnpackCursor(Cursor::new(base, plan))
    }

    /// Total bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.0.done
    }

    /// True when every row has been filled.
    pub fn finished(&self) -> bool {
        self.0.finished()
    }

    /// Scatter the next `data.len()` bytes of the packed stream. Panics if
    /// that exceeds the layout's remaining capacity.
    pub fn unpack_from(&mut self, data: &[u8]) {
        self.0
            .step(data.len(), |buf, at, pitch, width, rows, range| {
                buf.write_strided(at, pitch, width, rows, &data[range])
            });
    }

    /// Scatter the next `len` bytes of the packed stream straight out of
    /// host memory at `src`, one pitched block per step under one lock of
    /// each buffer. Panics if that exceeds the layout's remaining capacity.
    pub fn unpack_from_host(&mut self, src: &HostPtr, len: usize) {
        let (user, s0) = (self.0.base.buf().clone(), src.offset());
        HostBuf::with_copier(src.buf(), &user, |c| {
            self.0.step(len, |_, at, pitch, width, rows, range| {
                c.copy_rows(s0 + range.start, width, at, pitch, width, rows)
            })
        });
    }
}

/// CPU memory/packing cost model (host side of the MPI library).
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Packing/copy bandwidth on one core, bytes per second.
    pub pack_bw_bps: f64,
    /// Fixed cost per touched segment (loop + address computation), ns.
    pub per_segment_ns: f64,
    /// Cost of one MPI call's bookkeeping, ns.
    pub mpi_call_ns: u64,
    /// Cost of handling one incoming packet in the progress engine, ns.
    pub handle_pkt_ns: u64,
}

impl CpuModel {
    /// Calibrated for the paper's Westmere-era Xeon host.
    pub fn westmere() -> Self {
        CpuModel {
            pack_bw_bps: 3.0e9,
            per_segment_ns: 4.0,
            mpi_call_ns: 200,
            handle_pkt_ns: 150,
        }
    }

    /// Time to pack/unpack `bytes` spread over `segments` runs.
    pub fn pack_time(&self, bytes: usize, segments: usize) -> sim_core::SimDur {
        let ns = bytes as f64 / self.pack_bw_bps * 1e9 + self.per_segment_ns * segments as f64;
        sim_core::SimDur::from_nanos(ns.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::HostBuf;

    fn segs(v: &[(isize, usize)]) -> Vec<Segment> {
        v.iter()
            .map(|&(offset, len)| Segment { offset, len })
            .collect()
    }

    #[test]
    fn pack_all_gathers_segments_in_order() {
        let buf = HostBuf::from_vec((0u8..16).collect());
        let mut p = PackCursor::new(buf.base(), segs(&[(12, 2), (0, 3), (6, 1)]));
        assert_eq!(p.pack_all(), vec![12, 13, 0, 1, 2, 6]);
        assert!(p.finished());
        assert_eq!(p.produced(), 6);
    }

    #[test]
    fn chunked_pack_equals_whole_pack() {
        let buf = HostBuf::from_vec((0u8..64).collect());
        let s = segs(&[(1, 5), (10, 7), (30, 3), (40, 9)]);
        let mut whole = PackCursor::new(buf.base(), s.clone());
        let expect = whole.pack_all();
        let mut chunked = PackCursor::new(buf.base(), s);
        let mut got = Vec::new();
        for chunk_len in [3usize, 1, 7, 6, 4, 3] {
            let mut tmp = vec![0u8; chunk_len];
            chunked.pack_into(&mut tmp);
            got.extend_from_slice(&tmp);
        }
        assert_eq!(got, expect);
        assert!(chunked.finished());
    }

    #[test]
    fn unpack_round_trips_pack() {
        let src = HostBuf::from_vec((100u8..164).collect());
        let dst = HostBuf::alloc(64);
        let s = segs(&[(2, 6), (20, 10), (45, 5)]);
        let packed = PackCursor::new(src.base(), s.clone()).pack_all();
        let mut u = UnpackCursor::new(dst.base(), s.clone());
        // Unpack in uneven chunks.
        u.unpack_from(&packed[..7]);
        u.unpack_from(&packed[7..9]);
        u.unpack_from(&packed[9..]);
        assert!(u.finished());
        for seg in &s {
            let o = seg.offset as usize;
            assert_eq!(dst.read(o, seg.len), src.read(o, seg.len));
        }
        // Bytes outside segments stay zero.
        assert_eq!(dst.read(0, 2), vec![0, 0]);
    }

    #[test]
    fn base_offset_applies() {
        let buf = HostBuf::from_vec((0u8..32).collect());
        let mut p = PackCursor::new(buf.ptr(8), segs(&[(0, 2), (4, 2)]));
        assert_eq!(p.pack_all(), vec![8, 9, 12, 13]);
    }

    #[test]
    fn negative_segment_with_positive_base_is_ok() {
        let buf = HostBuf::from_vec((0u8..16).collect());
        let mut p = PackCursor::new(buf.ptr(8), segs(&[(-4, 2)]));
        assert_eq!(p.pack_all(), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "negative absolute offset")]
    fn negative_absolute_offset_panics() {
        let buf = HostBuf::alloc(16);
        let mut p = PackCursor::new(buf.base(), segs(&[(-4, 2)]));
        let _ = p.pack_all();
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn overpack_panics() {
        let buf = HostBuf::alloc(16);
        let mut p = PackCursor::new(buf.base(), segs(&[(0, 4)]));
        let mut out = vec![0u8; 5];
        p.pack_into(&mut out);
    }

    #[test]
    fn strided_fast_path_matches_generic() {
        // 6 rows of 3 bytes at pitch 8 as one run, then as two planes of
        // three (two runs): whole-row spans of each run go through the
        // pitched bulk copy, chunk boundaries that split a row force the
        // single-row path mid-stream, and a chunk may end one run and start
        // the next. The bytes must be the rows', however they were cut.
        let src = HostBuf::from_vec((0u8..64).collect());
        for offsets in [[1, 9, 17, 25, 33, 41], [1, 9, 17, 34, 42, 50]] {
            let s = segs(&offsets.map(|o| (o, 3)));
            let expect: Vec<u8> = offsets
                .iter()
                .flat_map(|&o| src.read(o as usize, 3))
                .collect();
            for chunks in [vec![18], vec![4, 4, 4, 6], vec![1, 16, 1], vec![7, 11]] {
                let mut p = PackCursor::new(src.base(), s.clone());
                let mut got = Vec::new();
                for &c in &chunks {
                    let mut tmp = vec![0u8; c];
                    p.pack_into(&mut tmp);
                    got.extend_from_slice(&tmp);
                }
                assert_eq!(got, expect);
                assert!(p.finished());
                // The same cuts, packed straight into a vbuf (at 3, so the
                // vbuf-side extents are not the chunk's own).
                let vbuf = HostBuf::alloc(24);
                let mut p = PackCursor::new(src.base(), s.clone());
                let mut at = 3;
                for &c in &chunks {
                    p.pack_into_host(&vbuf.ptr(at), c);
                    at += c;
                }
                assert_eq!(vbuf.read(3, 18), expect);

                for direct in [false, true] {
                    let dst = HostBuf::alloc(64);
                    let mut u = UnpackCursor::new(dst.base(), s.clone());
                    if direct {
                        u.unpack_from_host(&vbuf.ptr(3), 5);
                        u.unpack_from_host(&vbuf.ptr(8), 13);
                    } else {
                        u.unpack_from(&got[..5]);
                        u.unpack_from(&got[5..]);
                    }
                    assert!(u.finished());
                    for seg in &s {
                        let o = seg.offset as usize;
                        assert_eq!(dst.read(o, seg.len), src.read(o, seg.len));
                    }
                }
            }
        }
    }

    #[test]
    fn cpu_model_pack_time_scales() {
        let m = CpuModel::westmere();
        let small = m.pack_time(1024, 1);
        let big = m.pack_time(1 << 20, 1);
        assert!(big > small);
        // Segment-heavy layouts cost more than flat ones of the same size.
        assert!(m.pack_time(4096, 1024) > m.pack_time(4096, 1));
    }
}
