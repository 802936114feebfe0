//! Per-rank state of the 3-D Jacobi benchmark: device blocks, face
//! datatypes and the two halo-exchange implementations.

use gpu_sim::{Copy2d, DevPtr, Loc, Stream};
use hostmem::HostBuf;
use mpi_sim::{Datatype, Request, SubarrayOrder};
use mv2_gpu_nc::GpuRankEnv;
use sim_core::SimDur;
use stencil2d::Real;

use crate::params::{Axis, Halo3dParams, Side, Variant};

/// Central weight of the 7-point operator.
pub const W_CENTER: f64 = 0.4;
/// Weight of each of the six face neighbors.
pub const W_FACE: f64 = 0.1;

/// Modeled GPU time of one 7-point Jacobi sweep (memory bound, ~8 element
/// accesses per cell).
pub fn kernel_time(cells: usize, elem: usize) -> SimDur {
    let ns = cells as f64 * 8.0 * elem as f64 / 140e9 * 1e9;
    SimDur::from_nanos(ns.round() as u64)
}

/// One rank of the 3-D benchmark.
pub struct Halo3dRank<'a, T: Real> {
    env: &'a GpuRankEnv,
    p: Halo3dParams,
    cur: DevPtr,
    next: DevPtr,
    /// Local dimensions including the halo ring.
    dims: (usize, usize, usize),
    stream: Stream,
    /// Send/recv subarray types per (axis, side).
    send_dt: Vec<Datatype>,
    recv_dt: Vec<Datatype>,
    /// Host staging for the Def variant, one per (axis, side, way).
    stage: Vec<HostBuf>,
    _t: std::marker::PhantomData<T>,
}

fn idx(dims: (usize, usize, usize), i: usize, j: usize, k: usize) -> usize {
    (i * dims.1 + j) * dims.2 + k
}

impl<'a, T: Real> Halo3dRank<'a, T> {
    /// Allocate and initialize from the deterministic global pattern.
    pub fn new(env: &'a GpuRankEnv, p: Halo3dParams) -> Self {
        let (ni, nj, nk) = p.local;
        let dims = (ni + 2, nj + 2, nk + 2);
        let cells = dims.0 * dims.1 * dims.2;
        let cur = env.gpu.malloc(cells * T::SIZE);
        let next = env.gpu.malloc(cells * T::SIZE);
        let me = p.coords(env.comm.rank());
        let mut init = vec![0u8; cells * T::SIZE];
        for i in 1..=ni {
            for j in 1..=nj {
                for k in 1..=nk {
                    let g = (
                        me.0 * ni + (i - 1),
                        me.1 * nj + (j - 1),
                        me.2 * nk + (k - 1),
                    );
                    let v = T::from_f64(crate::params::initial_value(g.0, g.1, g.2));
                    let o = idx(dims, i, j, k) * T::SIZE;
                    v.write_le(&mut init[o..o + T::SIZE]);
                }
            }
        }
        env.gpu.write_bytes(cur, &init);
        env.gpu.write_bytes(next, &init);
        let elem = if T::SIZE == 4 {
            Datatype::float()
        } else {
            Datatype::double()
        };
        // One subarray per (axis, side, send/recv): the send window is the
        // boundary *interior* plane, the recv window the adjacent halo
        // plane.
        let sizes = [dims.0, dims.1, dims.2];
        let mut send_dt = Vec::new();
        let mut recv_dt = Vec::new();
        for axis in Axis::ALL {
            for side in Side::ALL {
                let a = axis as usize;
                let mut subsizes = [ni, nj, nk];
                subsizes[a] = 1;
                let mut starts = [1usize, 1, 1];
                starts[a] = match side {
                    Side::Low => 1,
                    Side::High => sizes[a] - 2,
                };
                let s = Datatype::subarray(&sizes, &subsizes, &starts, SubarrayOrder::C, &elem);
                s.commit();
                send_dt.push(s);
                starts[a] = match side {
                    Side::Low => 0,
                    Side::High => sizes[a] - 1,
                };
                let r = Datatype::subarray(&sizes, &subsizes, &starts, SubarrayOrder::C, &elem);
                r.commit();
                recv_dt.push(r);
            }
        }
        let face_bytes = |axis: Axis| -> usize {
            let a = axis as usize;
            let mut s = [ni, nj, nk];
            s[a] = 1;
            s[0] * s[1] * s[2] * T::SIZE
        };
        let mut stage = Vec::new();
        for axis in Axis::ALL {
            for _side in Side::ALL {
                stage.push(HostBuf::alloc(face_bytes(axis))); // out
                stage.push(HostBuf::alloc(face_bytes(axis))); // in
            }
        }
        Halo3dRank {
            env,
            p,
            cur,
            next,
            dims,
            stream: env.gpu.create_stream(),
            send_dt,
            recv_dt,
            stage,
            _t: std::marker::PhantomData,
        }
    }

    fn dt_index(axis: Axis, side: Side) -> usize {
        axis as usize * 2 + side as usize
    }

    /// MV2-GPU-NC exchange: device buffers + subarray datatypes, one
    /// nonblocking pair per face.
    pub fn exchange_mv2(&mut self) {
        let comm = &self.env.comm;
        let me = comm.rank();
        let mut reqs: Vec<Request> = Vec::new();
        for axis in Axis::ALL {
            for side in Side::ALL {
                if let Some(peer) = self.p.neighbor(me, axis, side) {
                    let di = Self::dt_index(axis, side);
                    let tag = di as u32;
                    // Matching: my Low face pairs with the peer's High face.
                    let peer_tag = Self::dt_index(axis, side.opposite()) as u32;
                    reqs.push(comm.irecv(self.cur, 1, &self.recv_dt[di], peer, peer_tag));
                    reqs.push(comm.isend(self.cur, 1, &self.send_dt[di], peer, tag));
                }
            }
        }
        comm.waitall(reqs);
    }

    /// Original-style exchange: stage each face through host memory with
    /// blocking `cudaMemcpy2D` loops, then host MPI.
    pub fn exchange_def(&mut self) {
        let comm = self.env.comm.clone();
        let gpu = self.env.gpu.clone();
        let me = comm.rank();
        let byte = Datatype::byte();
        byte.commit();
        let mut reqs: Vec<Request> = Vec::new();
        // Post all receives into host staging.
        for axis in Axis::ALL {
            for side in Side::ALL {
                if let Some(peer) = self.p.neighbor(me, axis, side) {
                    let di = Self::dt_index(axis, side);
                    let peer_tag = Self::dt_index(axis, side.opposite()) as u32;
                    let n = self.stage[di * 2 + 1].len();
                    reqs.push(comm.irecv(self.stage[di * 2 + 1].base(), n, &byte, peer, peer_tag));
                }
            }
        }
        // Stage out and send.
        for axis in Axis::ALL {
            for side in Side::ALL {
                if let Some(peer) = self.p.neighbor(me, axis, side) {
                    let di = Self::dt_index(axis, side);
                    self.stage_face(&gpu, axis, side, di, true);
                    let n = self.stage[di * 2].len();
                    comm.send(self.stage[di * 2].base(), n, &byte, peer, di as u32);
                }
            }
        }
        comm.waitall(reqs);
        // Unstage received halos.
        for axis in Axis::ALL {
            for side in Side::ALL {
                if self.p.neighbor(me, axis, side).is_some() {
                    let di = Self::dt_index(axis, side);
                    self.stage_face(&gpu, axis, side, di, false);
                }
            }
        }
    }

    /// Copy one face between device and its host staging buffer with
    /// blocking CUDA calls (`out = true`: boundary plane to host; `out =
    /// false`: host to halo plane).
    fn stage_face(&mut self, gpu: &gpu_sim::Gpu, axis: Axis, side: Side, di: usize, out: bool) {
        let (ni, nj, nk) = self.p.local;
        let dims = self.dims;
        let es = T::SIZE;
        // The boundary plane goes out; the halo plane next to it comes in.
        let len = [dims.0, dims.1, dims.2][axis as usize];
        let fixed = match (side, out) {
            (Side::Low, true) => 1,
            (Side::Low, false) => 0,
            (Side::High, true) => len - 2,
            (Side::High, false) => len - 1,
        };
        let host = &self.stage[di * 2 + usize::from(!out)];
        // One pitched copy of `height` rows of `width` bytes, device rows
        // `pitch` apart starting at cell `cell`, host rows packed from byte
        // `hoff`: built outbound, flipped for the inbound direction.
        let copy = |cell: usize, hoff: usize, pitch: usize, width: usize, height: usize| {
            let c = Copy2d {
                dst: Loc::Host(host.ptr(hoff)),
                dpitch: width,
                src: Loc::Device(self.cur.add(cell * es)),
                spitch: pitch,
                width,
                height,
            };
            gpu.memcpy_2d(match out {
                true => c,
                false => Copy2d {
                    dst: c.src,
                    dpitch: c.spitch,
                    src: c.dst,
                    spitch: c.dpitch,
                    ..c
                },
            });
        };
        match axis {
            // i-face: nj rows of nk contiguous elements.
            Axis::I => copy(idx(dims, fixed, 1, 1), 0, dims.2 * es, nk * es, nj),
            // j-face: ni rows of nk contiguous elements, plane pitch apart.
            Axis::J => copy(idx(dims, 1, fixed, 1), 0, dims.1 * dims.2 * es, nk * es, ni),
            // k-face: single elements at pitch (nk+2) within a plane, but
            // planes are not uniformly spaced relative to the rows — the
            // original application needs one 2-D copy per i-plane.
            Axis::K => {
                for i in 1..=ni {
                    copy(
                        idx(dims, i, 1, fixed),
                        (i - 1) * nj * es,
                        dims.2 * es,
                        es,
                        nj,
                    );
                }
            }
        }
    }

    /// One iteration: exchange, 7-point sweep, swap.
    pub fn step(&mut self, variant: Variant) {
        match variant {
            Variant::Def => self.exchange_def(),
            Variant::Mv2 => self.exchange_mv2(),
        }
        let (ni, nj, nk) = self.p.local;
        let dims = self.dims;
        let (cur, next) = (self.cur, self.next);
        let cells = dims.0 * dims.1 * dims.2;
        let cost = kernel_time(ni * nj * nk, T::SIZE);
        self.env
            .gpu
            .launch_kernel("jacobi7", cost, &self.stream, move |g| {
                // Decoded once; the interior is then written over the read
                // bytes, whose halo is already the output's.
                let mut bytes = g.read_bytes(cur, cells * T::SIZE);
                let vals: Vec<f64> = bytes
                    .chunks_exact(T::SIZE)
                    .map(|c| T::read_le(c).to_f64())
                    .collect();
                let (plane, row) = (dims.1 * dims.2, dims.2);
                for i in 1..=ni {
                    for j in 1..=nj {
                        let base = idx(dims, i, j, 0);
                        for c in base + 1..=base + nk {
                            let faces = vals[c - plane]
                                + vals[c + plane]
                                + vals[c - row]
                                + vals[c + row]
                                + vals[c - 1]
                                + vals[c + 1];
                            let v = W_CENTER * vals[c] + W_FACE * faces;
                            T::from_f64(v).write_le(&mut bytes[c * T::SIZE..][..T::SIZE]);
                        }
                    }
                }
                g.write_bytes(next, &bytes);
            })
            .wait();
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Interior values, row-major `(ni, nj, nk)`, in storage precision.
    pub fn interior(&self) -> Vec<T> {
        let (ni, nj, nk) = self.p.local;
        let dims = self.dims;
        let all = self
            .env
            .gpu
            .read_bytes(self.cur, dims.0 * dims.1 * dims.2 * T::SIZE);
        let mut out = Vec::with_capacity(ni * nj * nk);
        for i in 1..=ni {
            for j in 1..=nj {
                for k in 1..=nk {
                    let o = idx(dims, i, j, k) * T::SIZE;
                    out.push(T::read_le(&all[o..o + T::SIZE]));
                }
            }
        }
        out
    }

    /// Free device buffers.
    pub fn free(self) {
        self.env.gpu.free(self.cur);
        self.env.gpu.free(self.next);
    }
}
