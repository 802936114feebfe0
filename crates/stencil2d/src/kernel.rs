//! The 9-point stencil GPU kernel (SHOC Stencil2D weights) plus its
//! execution-time model.

use gpu_sim::{DevPtr, Gpu, Stream};
use sim_core::SimDur;

use crate::real::Real;

/// SHOC Stencil2D default weights.
pub const W_CENTER: f64 = 0.25;
/// Weight of the four cardinal neighbors.
pub const W_CARDINAL: f64 = 0.15;
/// Weight of the four diagonal neighbors.
pub const W_DIAGONAL: f64 = 0.05;

/// Modeled kernel execution time: the 9-point stencil on a Tesla C2050 is
/// memory-bound; effective traffic is ~6.5 element accesses per cell
/// against ~140 GB/s of device bandwidth.
pub fn kernel_time(cells: usize, elem_size: usize) -> SimDur {
    let ns = cells as f64 * 6.5 * elem_size as f64 / 140e9 * 1e9;
    SimDur::from_nanos(ns.round() as u64)
}

/// One stencil step: read `src` (a `(rows+2) x (cols+2)` matrix including
/// the one-cell halo ring), write the interior of `dst`. Halo cells of
/// `dst` are copied through unchanged. Returns the kernel's completion.
pub fn stencil_step<T: Real>(
    gpu: &Gpu,
    stream: &Stream,
    src: DevPtr,
    dst: DevPtr,
    rows: usize,
    cols: usize,
) -> sim_core::Completion {
    let (h, w) = (rows + 2, cols + 2);
    let cost = kernel_time(rows * cols, T::SIZE);
    gpu.launch_kernel("stencil9", cost, stream, move |g| {
        let len = h * w * T::SIZE;
        // Decode once per cell (not once per neighbor access): the matrix
        // can be hundreds of MB, so this inner loop dominates the harness's
        // real (wall-clock) runtime.
        let vals: Vec<f64> = g.with_arena(src, len, |bytes| {
            bytes
                .chunks_exact(T::SIZE)
                .map(|c| T::read_le(c).to_f64())
                .collect()
        });
        // Written in place, each cell once, row by row. The halo ring passes
        // through: a round trip through f64 is exact in either precision
        // (for every value but a NaN's payload).
        g.with_arena(dst, len, |out| {
            for (r, out_row) in out.chunks_exact_mut(w * T::SIZE).enumerate() {
                let row = |k: usize| &vals[k * w..k * w + w];
                let mid = row(r);
                let mut put = |c: usize, v: f64| {
                    T::from_f64(v).write_le(&mut out_row[c * T::SIZE..(c + 1) * T::SIZE]);
                };
                if r == 0 || r == h - 1 {
                    (0..w).for_each(|c| put(c, mid[c]));
                    continue;
                }
                let (up, down) = (row(r - 1), row(r + 1));
                put(0, mid[0]);
                put(w - 1, mid[w - 1]);
                for c in 1..=cols {
                    let card = up[c] + down[c] + mid[c - 1] + mid[c + 1];
                    let diag = up[c - 1] + up[c + 1] + down[c - 1] + down[c + 1];
                    put(c, W_CENTER * mid[c] + W_CARDINAL * card + W_DIAGONAL * diag);
                }
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Sim;

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("t", f);
        sim.run();
    }

    #[test]
    fn kernel_time_scales_with_cells_and_precision() {
        assert!(kernel_time(1 << 20, 8) > kernel_time(1 << 20, 4));
        assert!(kernel_time(1 << 22, 4) > kernel_time(1 << 20, 4));
        // 8K x 8K f32: ~12.5 ms (the calibration point for Table II).
        let t = kernel_time(8192 * 8192, 4).as_millis_f64();
        assert!((t - 12.5).abs() < 1.0, "got {t} ms");
    }

    #[test]
    fn single_cell_stencil_value() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let s = gpu.create_stream();
            // 1x1 interior, 3x3 matrix.
            let src = gpu.malloc(9 * 4);
            let dst = gpu.malloc(9 * 4);
            let vals: Vec<f32> = (1..=9).map(|v| v as f32).collect();
            gpu.write_scalars(src, &vals);
            stencil_step::<f32>(&gpu, &s, src, dst, 1, 1).wait();
            let out = gpu.read_scalars::<f32>(dst, 9);
            // center = 5; cardinals 2,4,6,8 = 20; diagonals 1,3,7,9 = 20.
            let expect = (0.25 * 5.0 + 0.15 * 20.0 + 0.05 * 20.0) as f32;
            assert_eq!(out[4], expect);
            // Halo passes through.
            assert_eq!(out[0], 1.0);
            assert_eq!(out[8], 9.0);
        });
    }

    #[test]
    fn interior_only_is_updated() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let s = gpu.create_stream();
            let (rows, cols) = (3usize, 4usize);
            let n = (rows + 2) * (cols + 2);
            let src = gpu.malloc(n * 8);
            let dst = gpu.malloc(n * 8);
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            gpu.write_scalars(src, &vals);
            stencil_step::<f64>(&gpu, &s, src, dst, rows, cols).wait();
            let out = gpu.read_scalars::<f64>(dst, n);
            let w = cols + 2;
            for r in 0..rows + 2 {
                for c in 0..cols + 2 {
                    let boundary = r == 0 || r == rows + 1 || c == 0 || c == cols + 1;
                    if boundary {
                        assert_eq!(out[r * w + c], vals[r * w + c], "halo changed at {r},{c}");
                    } else {
                        assert_ne!(out[r * w + c], vals[r * w + c], "interior not updated");
                    }
                }
            }
        });
    }

    #[test]
    fn kernel_advances_virtual_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let s = gpu.create_stream();
            let src = gpu.malloc(1024 * 4);
            let dst = gpu.malloc(1024 * 4);
            let t0 = sim_core::now();
            stencil_step::<f32>(&gpu, &s, src, dst, 30, 30).wait();
            assert!(sim_core::now() > t0);
        });
    }
}
