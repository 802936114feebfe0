//! # stencil2d — the SHOC Stencil2D application benchmark
//!
//! A from-scratch reimplementation of the benchmark the paper evaluates
//! (§V-B): a two-dimensional nine-point stencil over a distributed matrix
//! with halo exchange, in two variants:
//!
//! * **Stencil2D-Def** — the original SHOC pattern: halos staged through
//!   host memory with blocking `cudaMemcpy`/`cudaMemcpy2D` and exchanged
//!   with host MPI;
//! * **Stencil2D-MV2-GPU-NC** — device buffers passed directly to MPI with
//!   a column vector datatype; all staging happens inside the library.
//!
//! Both variants compute for real on simulated device memory and produce
//! bitwise-identical matrices, which the tests verify against a serial CPU
//! reference. The crate also measures what the paper's Table I and
//! Figure 6 report: per-iteration call mixes, lines of code (extracted
//! from this crate's own source), and per-direction communication
//! breakdowns.

#![warn(missing_docs)]

mod driver;
pub mod kernel;
mod loc;
mod params;
mod rank;
mod real;
mod reference;

pub use driver::{run_stencil, run_stencil_on, RankReport, RunOptions, StencilOutcome};
pub use loc::{lines_of_code, listing};
pub use params::{initial_value, Dir, StencilParams, Variant};
pub use rank::{Breakdown, DirTimes, StencilRank};
pub use real::Real;
pub use reference::reference_run;

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::Scalar;

    fn small(py: usize, px: usize, rows: usize, cols: usize, iters: usize) -> StencilParams {
        StencilParams {
            py,
            px,
            rows,
            cols,
            iters,
        }
    }

    fn interiors_equal(a: &StencilOutcome, b: &StencilOutcome) {
        for (ra, rb) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(
                ra.interior.as_ref().unwrap(),
                rb.interior.as_ref().unwrap(),
                "rank {} interiors differ",
                ra.rank
            );
        }
    }

    fn opts_collect() -> RunOptions {
        RunOptions {
            timed_breakdown: false,
            collect_interiors: true,
        }
    }

    #[test]
    fn def_and_mv2_agree_bitwise_f32() {
        let p = small(2, 2, 12, 10, 3);
        let d = run_stencil::<f32>(p, Variant::Def, opts_collect());
        let m = run_stencil::<f32>(p, Variant::Mv2, opts_collect());
        interiors_equal(&d, &m);
        assert_eq!(d.checksum(), m.checksum());
    }

    #[test]
    fn def_and_mv2_agree_bitwise_f64() {
        let p = small(2, 2, 9, 14, 3);
        let d = run_stencil::<f64>(p, Variant::Def, opts_collect());
        let m = run_stencil::<f64>(p, Variant::Mv2, opts_collect());
        interiors_equal(&d, &m);
    }

    fn check_against_reference<T: Real>(p: StencilParams, variant: Variant) {
        check_against_reference_ppn::<T>(p, variant, 1);
    }

    fn check_against_reference_ppn<T: Real>(p: StencilParams, variant: Variant, ppn: usize) {
        let cluster = mv2_gpu_nc::GpuCluster::new(p.nranks()).ppn(ppn);
        let out = run_stencil_on::<T>(cluster, p, variant, opts_collect()).0;
        let global = reference_run::<T>(p.py * p.rows, p.px * p.cols, p.iters);
        let gcols = p.px * p.cols;
        for r in &out.ranks {
            let (pr, pc) = p.coords(r.rank);
            let bytes = r.interior.as_ref().unwrap();
            let vals: Vec<T> = bytes.chunks_exact(T::SIZE).map(T::read_le).collect();
            for lr in 0..p.rows {
                for lc in 0..p.cols {
                    let gi = pr * p.rows + lr;
                    let gj = pc * p.cols + lc;
                    assert_eq!(
                        vals[lr * p.cols + lc],
                        global[gi * gcols + gj],
                        "rank {} local ({lr},{lc}) vs global ({gi},{gj})",
                        r.rank
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_def_matches_serial_reference() {
        check_against_reference::<f64>(small(1, 2, 8, 6, 4), Variant::Def);
    }

    #[test]
    fn distributed_mv2_matches_serial_reference() {
        check_against_reference::<f64>(small(2, 2, 6, 5, 4), Variant::Mv2);
        check_against_reference::<f32>(small(2, 1, 5, 9, 3), Variant::Mv2);
    }

    #[test]
    fn mv2_is_faster_on_column_heavy_exchange() {
        // A 1x2 grid with tall, thin matrices: the halo is one long
        // non-contiguous column — the paper's best case.
        let p = small(1, 2, 4096, 64, 2);
        let d = run_stencil::<f32>(p, Variant::Def, RunOptions::default());
        let m = run_stencil::<f32>(p, Variant::Mv2, RunOptions::default());
        assert!(m.wall < d.wall, "MV2 {} must beat Def {}", m.wall, d.wall);
    }

    #[test]
    fn loop_call_mix_matches_table1() {
        // An interior rank (3x3 grid, rank 4) has all four neighbors: the
        // per-iteration call mix must match Table I.
        let p = small(3, 3, 8, 8, 3);
        let d = run_stencil::<f32>(p, Variant::Def, RunOptions::default());
        let calls = &d.ranks[4].loop_calls;
        assert_eq!(calls.get("MPI_Irecv"), Some(&4));
        assert_eq!(calls.get("MPI_Send"), Some(&4));
        assert_eq!(calls.get("MPI_Waitall"), Some(&2));
        assert_eq!(calls.get("cudaMemcpy"), Some(&4));
        assert_eq!(calls.get("cudaMemcpy2D"), Some(&4));

        let m = run_stencil::<f32>(p, Variant::Mv2, RunOptions::default());
        let calls = &m.ranks[4].loop_calls;
        assert_eq!(calls.get("MPI_Irecv"), Some(&4));
        assert_eq!(calls.get("MPI_Send"), Some(&4));
        assert_eq!(calls.get("MPI_Waitall"), Some(&2));
        assert_eq!(calls.get("cudaMemcpy"), None);
        assert_eq!(calls.get("cudaMemcpy2D"), None);
    }

    #[test]
    fn breakdown_shape_at_rank1_of_2x4() {
        // Figure 6: rank 1 of a 2x4 grid — south, west, east neighbors; the
        // strided east/west staging dominates the Def communication time.
        let p = small(2, 4, 128, 128, 2);
        let d = run_stencil::<f32>(
            p,
            Variant::Def,
            RunOptions {
                timed_breakdown: true,
                collect_interiors: false,
            },
        );
        let bd = d.ranks[1].breakdown;
        let north = bd.dir(Dir::North);
        assert_eq!(north.mpi + north.cuda, sim_core::SimDur::ZERO);
        let ew_cuda = bd.dir(Dir::East).cuda + bd.dir(Dir::West).cuda;
        let s_cuda = bd.dir(Dir::South).cuda;
        assert!(
            ew_cuda > s_cuda * 4,
            "strided east/west staging must dominate: e/w {ew_cuda} vs south {s_cuda}"
        );
    }

    #[test]
    fn sixteen_ranks_match_reference_at_every_ppn() {
        // 4x4 = 16 ranks; px=4 means east/west neighbours are one rank
        // apart, so blocked ppn places the strided column exchanges on
        // shared nodes. Every placement computes the same field.
        let p = small(4, 4, 5, 6, 2);
        for ppn in [1, 2, 4] {
            check_against_reference_ppn::<f64>(p, Variant::Mv2, ppn);
        }
        check_against_reference_ppn::<f32>(p, Variant::Def, 4);
    }

    #[test]
    fn deterministic_runs() {
        let p = small(2, 2, 16, 16, 2);
        let a = run_stencil::<f32>(p, Variant::Mv2, RunOptions::default());
        let b = run_stencil::<f32>(p, Variant::Mv2, RunOptions::default());
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn single_rank_needs_no_communication() {
        let p = small(1, 1, 10, 10, 3);
        let out = run_stencil::<f64>(p, Variant::Mv2, opts_collect());
        let global = reference_run::<f64>(10, 10, 3);
        let vals: Vec<f64> = out.ranks[0]
            .interior
            .as_ref()
            .unwrap()
            .chunks_exact(8)
            .map(f64::read_le)
            .collect();
        assert_eq!(vals, global);
        assert_eq!(out.ranks[0].loop_calls.get("MPI_Send"), None);
    }
}
