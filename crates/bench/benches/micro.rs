//! Micro-benchmarks of the hot paths under the simulator: datatype
//! flattening, CPU packing, the simulation kernel itself and the GPU data
//! plane. These guard the *real* performance of the library code
//! (wall-clock), complementing the virtual-time experiment harness.
//!
//! Plain `harness = false` main (no external bench framework): each case
//! runs a fixed iteration count and reports mean/min wall time.

use gpu_sim::Gpu;
use hostmem::HostBuf;
use mpi_sim::pack::PackCursor;
use mpi_sim::Datatype;
use sim_core::{Sim, SimDur};
use std::time::Instant;

/// Run `f` `iters` times and print per-iteration mean and min.
fn bench<R>(name: &str, iters: usize, mut f: impl FnMut() -> R) {
    f(); // warm-up
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        min = min.min(dt);
        total += dt;
    }
    println!(
        "{name:<40} mean {:>10.1} us   min {:>10.1} us   ({iters} iters)",
        total / iters as f64 * 1e6,
        min * 1e6
    );
}

fn bench_flatten() {
    for rows in [1usize << 10, 1 << 14, 1 << 17] {
        bench(&format!("datatype_flatten/{rows}"), 20, || {
            let dt = Datatype::vector(rows, 1, 4, &Datatype::float());
            dt.commit();
            dt.flat().runs().len()
        });
    }
}

fn bench_expand() {
    let dt = Datatype::vector(1 << 16, 1, 4, &Datatype::float());
    dt.commit();
    let flat = dt.flat();
    bench("materialise_64k_rows", 20, || flat.expanded(1).len());
}

fn bench_cpu_pack() {
    let dt = Datatype::vector(1 << 16, 1, 4, &Datatype::float());
    dt.commit();
    let segs = dt.flat().expanded(1);
    let buf = HostBuf::alloc(1 << 20);
    bench("cpu_pack/gather_256k_over_64k_segments", 20, || {
        let mut cursor = PackCursor::new(buf.base(), segs.clone());
        cursor.pack_all().len()
    });
}

fn bench_sim_kernel() {
    bench("sim_10k_timer_events", 20, || {
        let sim = Sim::new();
        sim.spawn("p", || {
            for _ in 0..10_000 {
                sim_core::sleep(SimDur::from_nanos(10));
            }
        });
        sim.run()
    });
    bench("sim_spawn_join_8_processes", 20, || {
        let sim = Sim::new();
        for i in 0..8 {
            sim.spawn(format!("p{i}"), move || {
                for _ in 0..100 {
                    sim_core::sleep(SimDur::from_micros(1));
                }
            });
        }
        sim.run()
    });
}

fn bench_gpu_data_plane() {
    bench("gpu_copy/strided_2d_copy_1mb", 20, || {
        let sim = Sim::new();
        sim.spawn("p", || {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(4 << 20);
            let dst = gpu.malloc(1 << 20);
            gpu.memcpy_2d(gpu_sim::Copy2d {
                dst: gpu_sim::Loc::Device(dst),
                dpitch: 4,
                src: gpu_sim::Loc::Device(src),
                spitch: 16,
                width: 4,
                height: 1 << 18,
            });
        });
        sim.run()
    });
}

fn main() {
    bench_flatten();
    bench_expand();
    bench_cpu_pack();
    bench_sim_kernel();
    bench_gpu_data_plane();
}
