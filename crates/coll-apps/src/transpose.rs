//! Distributed matrix transpose over `alltoallv` of strided columns.
//!
//! The global N×N `f64` matrix A is row-block distributed: rank `i` owns
//! rows `[i·b, (i+1)·b)` with `b = N/P`, stored row-major. The transpose
//! Aᵀ is distributed the same way, so rank `i` must ship the tile at
//! columns `[j·b, (j+1)·b)` of its row block to every rank `j` — and the
//! elements of that tile are **non-contiguous columns** of the local
//! block. The send datatype gathers one tile column-major (an `hindexed`
//! of strided-column `hvector`s), which makes the packed wire stream land
//! on the receive side as contiguous row fragments (a single `hvector`
//! with blocklen `b`). No rank ever materializes a packed copy itself —
//! the datatype engine does the gather/scatter, on host memory or
//! straight out of device memory through the staging pipeline.
//!
//! Pure data movement: the result must be **bit-exact** against
//! [`serial_transpose`].

use gpu_sim::Loc;
use hostmem::{bytes_to_scalars, scalars_to_bytes, HostBuf};
use mpi_sim::{CollAlgo, Datatype};
use mv2_gpu_nc::GpuRankEnv;
use sim_core::SimTime;

use crate::Mem;

/// Transpose workload configuration.
#[derive(Copy, Clone, Debug)]
pub struct TransposeParams {
    /// Global matrix dimension N (rows == columns).
    pub n: usize,
    /// Number of ranks P; must divide `n`.
    pub ranks: usize,
    /// Ranks per node (blocked placement); must divide `ranks`.
    pub ppn: usize,
    /// Collective algorithm family.
    pub algo: CollAlgo,
    /// Host or device working set.
    pub mem: Mem,
}

/// Result of a distributed transpose run.
#[derive(Clone, Debug)]
pub struct TransposeOutcome {
    /// Virtual completion time of the job.
    pub wall: SimTime,
    /// Rank `i`'s row block of Aᵀ (rows `[i·b, (i+1)·b)`, row-major).
    pub blocks: Vec<Vec<f64>>,
}

/// The deterministic test matrix: `A[g][k]` for global row `g`, column
/// `k`. Values are only moved, never combined, so any pattern works; this
/// one makes every element globally unique.
pub fn element(n: usize, g: usize, k: usize) -> f64 {
    (g * n + k) as f64 + 0.25
}

/// Row-major Aᵀ computed serially — the guard for [`run_transpose`].
pub fn serial_transpose(n: usize) -> Vec<f64> {
    let mut out = vec![0f64; n * n];
    for g in 0..n {
        for k in 0..n {
            out[k * n + g] = element(n, g, k);
        }
    }
    out
}

/// One rank's share of the distributed transpose of the `n`×`n` test matrix
/// ([`element`]) over `env.comm`: build this rank's row block of A, ship
/// the strided-column tiles with one `alltoallv` (out of host or device
/// memory per `mem`), and return this rank's row block of Aᵀ (rows
/// `[me·b, (me+1)·b)`, row-major). `n` must be a multiple of the
/// communicator size.
pub fn transpose_rank(env: &GpuRankEnv, n: usize, mem: Mem) -> Vec<f64> {
    let comm = &env.comm;
    let (me, np) = (comm.rank(), comm.size());
    let b = n / np; // rows per rank
    let row_bytes = n * 8;

    // My row block of A, row-major b x n.
    let mine: Vec<f64> = (0..b)
        .flat_map(|r| (0..n).map(move |k| element(n, me * b + r, k)))
        .collect();
    let send_host = HostBuf::from_vec(scalars_to_bytes(&mine));
    let recv_host = HostBuf::alloc(b * row_bytes);

    let (send_loc, recv_loc, dev) = match mem {
        Mem::Host => (
            Loc::Host(send_host.base()),
            Loc::Host(recv_host.base()),
            None,
        ),
        Mem::Device => {
            let d_send = env.gpu.malloc(b * row_bytes);
            let d_recv = env.gpu.malloc(b * row_bytes);
            env.gpu.memcpy(d_send, send_host.base(), b * row_bytes);
            (
                Loc::Device(d_send),
                Loc::Device(d_recv),
                Some((d_send, d_recv)),
            )
        }
    };

    let f64t = Datatype::double();
    f64t.commit();
    // One strided column of the destination tile: b elements, one per
    // local row, n*8 bytes apart.
    let col = Datatype::hvector(b, 1, row_bytes as isize, &f64t);
    // The whole tile for one destination, column-major: columns c =
    // 0..b, each starting 8 bytes after the previous.
    let tile_cols: Vec<(usize, isize)> = (0..b).map(|c| (1, (c * 8) as isize)).collect();
    let stile = Datatype::hindexed(&tile_cols, &col);
    stile.commit();
    // The packed stream (column-major tile) lands as b row fragments
    // of b contiguous elements, one per destination row.
    let rtile = Datatype::hvector(b, b, row_bytes as isize, &f64t);
    rtile.commit();

    let counts = vec![1usize; np];
    let displs: Vec<usize> = (0..np).map(|j| j * b * 8).collect();
    comm.barrier();
    comm.alltoallv(
        send_loc, &counts, &displs, &stile, recv_loc, &counts, &displs, &rtile,
    );

    if let Some((d_send, d_recv)) = dev {
        env.gpu.memcpy(recv_host.base(), d_recv, b * row_bytes);
        env.gpu.free(d_send);
        env.gpu.free(d_recv);
    }
    bytes_to_scalars::<f64>(&recv_host.read(0, b * row_bytes))
}

/// Run the distributed transpose; `blocks` concatenated in rank order is
/// row-major Aᵀ.
pub fn run_transpose(p: TransposeParams) -> TransposeOutcome {
    assert!(
        p.n.is_multiple_of(p.ranks),
        "matrix dimension {} must be divisible by {} ranks",
        p.n,
        p.ranks
    );
    let (wall, blocks, _) = crate::cluster(p.ranks, p.ppn, p.algo)
        .try_run(move |env| transpose_rank(env, p.n, p.mem))
        .unwrap();
    TransposeOutcome { wall, blocks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(p: TransposeParams) {
        let out = run_transpose(p);
        let want = serial_transpose(p.n);
        let b = p.n / p.ranks;
        for (i, block) in out.blocks.iter().enumerate() {
            assert_eq!(
                block.as_slice(),
                &want[i * b * p.n..(i + 1) * b * p.n],
                "rank {i} block ({p:?})"
            );
        }
    }

    #[test]
    fn matches_serial_on_host_all_families() {
        for algo in [CollAlgo::Naive, CollAlgo::Flat, CollAlgo::Hier] {
            check(TransposeParams {
                n: 24,
                ranks: 6,
                ppn: 3,
                algo,
                mem: Mem::Host,
            });
        }
    }

    #[test]
    fn matches_serial_on_device_hier() {
        check(TransposeParams {
            n: 32,
            ranks: 8,
            ppn: 4,
            algo: CollAlgo::Hier,
            mem: Mem::Device,
        });
    }

    #[test]
    fn matches_serial_on_device_flat() {
        check(TransposeParams {
            n: 16,
            ranks: 4,
            ppn: 1,
            algo: CollAlgo::Flat,
            mem: Mem::Device,
        });
    }

    #[test]
    fn placements_agree_bitwise() {
        let base = run_transpose(TransposeParams {
            n: 24,
            ranks: 8,
            ppn: 1,
            algo: CollAlgo::Flat,
            mem: Mem::Host,
        });
        for (ppn, algo) in [
            (2, CollAlgo::Hier),
            (4, CollAlgo::Hier),
            (8, CollAlgo::Hier),
        ] {
            let out = run_transpose(TransposeParams {
                n: 24,
                ranks: 8,
                ppn,
                algo,
                mem: Mem::Host,
            });
            assert_eq!(base.blocks, out.blocks, "ppn {ppn}");
        }
    }
}
