//! # gpu-sim — a CUDA-like GPU device simulator
//!
//! Simulates the GPU side of the paper's testbed (NVIDIA Tesla C2050 behind
//! PCIe 2.0 x16): device memory with a real byte arena, streams, dual copy
//! engines, pitched (`cudaMemcpy2D`-style) copies and kernel launches — all
//! in the deterministic virtual time of [`sim_core`].
//!
//! Two things make it a faithful substrate for the paper:
//!
//! 1. **Functional realism** — device memory is real memory; every copy
//!    moves real bytes, so datatype pack/unpack logic built on top is tested
//!    end-to-end.
//! 2. **Temporal realism where it matters** — the [`cost::CostModel`] is
//!    calibrated to the paper's own measurements, in particular the huge
//!    per-row cost gap between strided copies *across PCIe* and strided
//!    copies *inside the device* that motivates GPU-side datatype packing.
//!
//! ```
//! use gpu_sim::Gpu;
//! use hostmem::HostBuf;
//!
//! let sim = sim_core::Sim::new();
//! sim.spawn("main", || {
//!     let gpu = Gpu::tesla_c2050(0);
//!     let dev = gpu.malloc(1024);
//!     let host = HostBuf::from_vec((0..1024).map(|i| (i % 256) as u8).collect());
//!     gpu.memcpy(dev, host.base(), 1024);          // H2D
//!     let back = HostBuf::alloc(1024);
//!     gpu.memcpy(back.base(), dev, 1024);          // D2H
//!     assert_eq!(back.read(0, 1024), host.read(0, 1024));
//!     assert!(sim_core::now().as_nanos() > 0);      // copies took time
//! });
//! sim.run();
//! ```

#![warn(missing_docs)]

pub mod cost;
mod gpu;
mod mem;

pub use cost::{CopyDir, CostModel, Shape2D};
pub use gpu::{Copy2d, Gpu, Loc, Stream};
pub use mem::{DevPtr, DeviceOom, DEVICE_ALLOC_ALIGN};

#[cfg(test)]
mod tests {
    use super::*;
    use hostmem::HostBuf;
    use sim_core::{now, Sim, SimDur, SimTime};

    fn in_sim(f: impl FnOnce() + Send + 'static) {
        let sim = Sim::new();
        sim.spawn("test", f);
        sim.run();
    }

    #[test]
    fn h2d_d2h_round_trip_moves_bytes() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let src = HostBuf::from_vec((0u8..64).collect());
            gpu.memcpy(dev, src.base(), 64);
            let dst = HostBuf::alloc(64);
            gpu.memcpy(dst.base(), dev, 64);
            assert_eq!(dst.read(0, 64), src.read(0, 64));
        });
    }

    #[test]
    fn sync_copy_blocks_for_modeled_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let host = HostBuf::alloc(1 << 20);
            let t0 = now();
            gpu.memcpy(dev, host.base(), 1 << 20);
            let dt = now() - t0;
            let expect = gpu.cost_model().copy1d(CopyDir::H2D, 1 << 20);
            assert_eq!(dt, expect);
        });
    }

    #[test]
    fn memcpy2d_pack_gathers_strided_rows() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            // Device matrix: 4 rows x 8 bytes; extract a 2-byte-wide column
            // block starting at byte 3 of each row.
            let dev = gpu.malloc(32);
            gpu.write_bytes(dev, &(0u8..32).collect::<Vec<_>>());
            let host = HostBuf::alloc(8);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Host(host.base()),
                dpitch: 2,
                src: Loc::Device(dev.add(3)),
                spitch: 8,
                width: 2,
                height: 4,
            });
            assert_eq!(host.read(0, 8), vec![3, 4, 11, 12, 19, 20, 27, 28]);
        });
    }

    #[test]
    fn memcpy2d_unpack_scatters_rows() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(32);
            let host = HostBuf::from_vec(vec![1, 2, 3, 4, 5, 6]);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dev.add(1)),
                dpitch: 8,
                src: Loc::Host(host.base()),
                spitch: 2,
                width: 2,
                height: 3,
            });
            let out = gpu.read_bytes(dev, 24);
            assert_eq!(&out[1..3], &[1, 2]);
            assert_eq!(&out[9..11], &[3, 4]);
            assert_eq!(&out[17..19], &[5, 6]);
        });
    }

    #[test]
    fn d2d_pack_is_correct_and_fast() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let src = gpu.malloc(1024);
            let dst = gpu.malloc(256);
            gpu.write_bytes(src, &(0..1024).map(|i| (i % 251) as u8).collect::<Vec<_>>());
            let t0 = now();
            // Pack: width 2 of every 8-byte row, 128 rows.
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Device(dst),
                dpitch: 2,
                src: Loc::Device(src),
                spitch: 8,
                width: 2,
                height: 128,
            });
            let d2d_time = now() - t0;
            let got = gpu.read_bytes(dst, 256);
            let src_bytes = gpu.read_bytes(src, 1024);
            for r in 0..128 {
                assert_eq!(&got[r * 2..r * 2 + 2], &src_bytes[r * 8..r * 8 + 2]);
            }
            // Strided inside the device is cheaper than strided over PCIe.
            let pcie = gpu
                .cost_model()
                .copy2d(CopyDir::D2H, Shape2D::OneStrided, 2, 128);
            assert!(d2d_time < pcie);
        });
    }

    #[test]
    fn async_copies_on_different_engines_overlap() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let d1 = gpu.malloc(1 << 20);
            let d2 = gpu.malloc(1 << 20);
            let h1 = HostBuf::alloc(1 << 20);
            let h2 = HostBuf::alloc(1 << 20);
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            let t0 = now();
            let c1 = gpu.memcpy_async(d1, h1.base(), 1 << 20, &s1); // H2D engine
            let c2 = gpu.memcpy_async(h2.base(), d2, 1 << 20, &s2); // D2H engine
            c1.wait();
            c2.wait();
            let elapsed = (now() - t0).as_micros_f64();
            let one = gpu
                .cost_model()
                .copy1d(CopyDir::H2D, 1 << 20)
                .as_micros_f64();
            assert!(
                elapsed < 1.5 * one,
                "H2D/D2H should overlap: elapsed {elapsed} vs single {one}"
            );
        });
    }

    #[test]
    fn same_engine_serializes() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let d1 = gpu.malloc(1 << 20);
            let d2 = gpu.malloc(1 << 20);
            let h = HostBuf::alloc(2 << 20);
            let s1 = gpu.create_stream();
            let s2 = gpu.create_stream();
            let t0 = now();
            let c1 = gpu.memcpy_async(d1, h.base(), 1 << 20, &s1);
            let c2 = gpu.memcpy_async(d2, h.ptr(1 << 20), 1 << 20, &s2);
            c1.wait();
            c2.wait();
            let elapsed = (now() - t0).as_micros_f64();
            let one = gpu
                .cost_model()
                .copy1d(CopyDir::H2D, 1 << 20)
                .as_micros_f64();
            assert!(
                elapsed > 1.9 * one,
                "two H2D copies share one engine: elapsed {elapsed} vs single {one}"
            );
        });
    }

    #[test]
    fn stream_orders_operations() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(4096);
            let h = HostBuf::alloc(4096);
            let s = gpu.create_stream();
            let c1 = gpu.memcpy_async(dev, h.base(), 4096, &s);
            let c2 = gpu.memcpy_async(h.base(), dev, 4096, &s);
            // Different engines, same stream: still ordered.
            assert!(c2.done_at().unwrap() >= c1.done_at().unwrap());
            assert!(!s.query());
            s.synchronize();
            assert!(s.query());
        });
    }

    #[test]
    fn a_dropped_stream_still_completes_and_holds_its_engine() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let h = HostBuf::alloc(1 << 20);
            let h2d = || gpu.engines()[CopyDir::H2D as usize];
            let (first, second) = (gpu.create_stream(), gpu.create_stream());
            let in_flight = gpu.memcpy_async(dev, h.base(), 1 << 20, &first);
            drop(first);
            assert_eq!(Some(h2d().free()), in_flight.done_at());
            assert!(!in_flight.poll());
            // The surviving stream and one created afterwards each queue
            // behind what holds the engine.
            let third = gpu.create_stream();
            let mut last = None;
            for s in [&second, &third] {
                let free = h2d().free();
                let c = gpu.memcpy_async(dev, h.base(), 64 << 10, s);
                assert_eq!(c.started_at(), Some(now().max(free)));
                last = c.done_at();
            }
            assert_eq!(h2d().ops(), 3);
            assert!(!second.query());
            second.synchronize();
            assert!(in_flight.poll() && second.query() && !third.query());
            gpu.synchronize();
            assert_eq!(Some(now()), last);
            assert!(third.query());
            // An idle engine: a new stream's first op starts at once.
            let fourth = gpu.create_stream();
            let c = gpu.memcpy_async(dev, h.base(), 64 << 10, &fourth);
            assert_eq!(c.started_at(), Some(now()));
        });
    }

    #[test]
    fn kernel_launch_runs_work_and_takes_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(16);
            gpu.write_scalars(dev, &[1.0f32, 2.0, 3.0, 4.0]);
            let s = gpu.create_stream();
            let c = gpu.launch_kernel("double", SimDur::from_micros(100), &s, |g| {
                let mut v = g.read_scalars::<f32>(dev, 4);
                for x in &mut v {
                    *x *= 2.0;
                }
                g.write_scalars(dev, &v);
            });
            let t = c.wait();
            assert!(t >= SimTime::from_nanos(100_000));
            assert_eq!(gpu.read_scalars::<f32>(dev, 4), vec![2.0, 4.0, 6.0, 8.0]);
        });
    }

    #[test]
    fn counters_record_api_calls() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let h = HostBuf::alloc(64);
            gpu.memcpy(dev, h.base(), 64);
            gpu.memcpy_2d(Copy2d {
                dst: Loc::Host(h.base()),
                dpitch: 2,
                src: Loc::Device(dev),
                spitch: 4,
                width: 2,
                height: 8,
            });
            assert_eq!(gpu.counters().get("cudaMalloc"), 1);
            assert_eq!(gpu.counters().get("cudaMemcpy"), 1);
            assert_eq!(gpu.counters().get("cudaMemcpy2D"), 1);
        });
    }

    #[test]
    #[should_panic(expected = "outside any live allocation")]
    fn copy_past_allocation_panics() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(64);
            let h = HostBuf::alloc(4096);
            gpu.memcpy(dev, h.base(), 4096);
        });
    }

    /// Row-by-row reference for a pitched copy between two byte images.
    /// Each side is `(image, first row, pitch)`.
    fn copy_rows_ref(
        dst: (&mut [u8], usize, usize),
        src: (&[u8], usize, usize),
        w: usize,
        h: usize,
    ) {
        let ((dst, d0, dp), (src, s0, sp)) = (dst, src);
        for r in 0..h {
            dst[d0 + r * dp..][..w].copy_from_slice(&src[s0 + r * sp..][..w]);
        }
    }

    #[test]
    fn pitched_copies_move_exactly_their_rows() {
        // Every width class (fixed-size 4/8/16 and the generic loop), both
        // pitches different, one row and several, each direction — and D2D
        // both between allocations and between interleaved rows of one.
        const SPAN: usize = 1024;
        let image = |seed: u8| -> Vec<u8> {
            (0..SPAN)
                .map(|i| (i as u8).wrapping_mul(37) ^ seed)
                .collect()
        };
        let gpu = Gpu::new(0, CostModel::tesla_c2050(), 1 << 16);
        let (a, b) = (gpu.malloc(SPAN), gpu.malloc(SPAN));
        for w in [1usize, 3, 4, 8, 16, 17] {
            for h in [1usize, 5] {
                let (sp, dp, s0, d0) = (w + 23, w + 5, 7, 3);
                let (src_img, dst_img) = (image(1), image(2));
                let mut want = dst_img.clone();
                copy_rows_ref((&mut want, d0, dp), (&src_img, s0, sp), w, h);
                let params = |dst: Loc, src: Loc| Copy2d {
                    dst,
                    dpitch: dp,
                    src,
                    spitch: sp,
                    width: w,
                    height: h,
                };

                let hsrc = HostBuf::from_vec(src_img.clone());
                gpu.write_bytes(b, &dst_img);
                gpu.copy_2d_untimed(&params(Loc::Device(b.add(d0)), Loc::Host(hsrc.ptr(s0))));
                assert_eq!(gpu.read_bytes(b, SPAN), want, "H2D {w}x{h}");

                let hdst = HostBuf::from_vec(dst_img.clone());
                gpu.write_bytes(a, &src_img);
                gpu.copy_2d_untimed(&params(Loc::Host(hdst.ptr(d0)), Loc::Device(a.add(s0))));
                assert_eq!(hdst.read(0, SPAN), want, "D2H {w}x{h}");

                for (from, to) in [(a, b), (b, a)] {
                    gpu.write_bytes(from, &src_img);
                    gpu.write_bytes(to, &dst_img);
                    gpu.copy_2d_untimed(&params(
                        Loc::Device(to.add(d0)),
                        Loc::Device(from.add(s0)),
                    ));
                    assert_eq!(gpu.read_bytes(to, SPAN), want, "D2D {w}x{h}");
                    assert_eq!(gpu.read_bytes(from, SPAN), src_img, "D2D source {w}x{h}");
                }

                // Rows of one allocation, extents interleaved: source rows
                // at pitch 2w+8 from 0, destination rows w+4 further on.
                let (pitch, off) = (2 * w + 8, w + 4);
                let mut want = src_img.clone();
                copy_rows_ref((&mut want, off, pitch), (&src_img, 0, pitch), w, h);
                gpu.write_bytes(a, &src_img);
                gpu.copy_2d_untimed(&Copy2d {
                    dst: Loc::Device(a.add(off)),
                    dpitch: pitch,
                    src: Loc::Device(a),
                    spitch: pitch,
                    width: w,
                    height: h,
                });
                assert_eq!(gpu.read_bytes(a, SPAN), want, "in-place D2D {w}x{h}");
            }
        }
    }

    #[test]
    fn host_copies_store_only_their_extent() {
        const KIB: usize = 1 << 10;
        let gpu = Gpu::new(0, CostModel::tesla_c2050(), 1 << 16);
        let dev = gpu.malloc(16 * KIB);
        gpu.write_bytes(dev, &[5u8; 16 * KIB]);
        // `height` rows of `width` bytes, packed at the source.
        let copy = |dst, dpitch, src, width, height| {
            gpu.copy_2d_untimed(&Copy2d {
                dst,
                dpitch,
                src,
                spitch: width,
                width,
                height,
            })
        };

        // A D2H of 4 KiB into offset 0 of a 1 MiB buffer stores 4 KiB.
        let host = HostBuf::alloc(1 << 20);
        let dst = Loc::Host(host.base());
        copy(dst, 4 * KIB, Loc::Device(dev), 4 * KIB, 1);
        assert_eq!(host.stored(), 4 * KIB);
        assert_eq!(host.read(0, 4 * KIB), vec![5u8; 4 * KIB]);

        // An H2D from a range never written copies zeros and stores no
        // further than the range's end.
        let unwritten = HostBuf::alloc(1 << 20);
        let src = Loc::Host(unwritten.ptr(64 * KIB));
        copy(Loc::Device(dev), 4 * KIB, src, 4 * KIB, 1);
        assert_eq!(gpu.read_bytes(dev, 4 * KIB), vec![0u8; 4 * KIB]);
        assert_eq!(gpu.read_bytes(dev.add(4 * KIB), 4), [5u8; 4]);
        let stored = unwritten.stored();
        assert!(stored <= 68 * KIB, "{stored}");

        // A pitched D2H grows the prefix to its last row's end.
        let rows = HostBuf::alloc(1 << 20);
        let src = Loc::Device(dev.add(8 * KIB));
        copy(Loc::Host(rows.ptr(100)), KIB, src, 16, 4);
        assert_eq!(rows.stored(), 100 + 3 * KIB + 16);
        let last_row = rows.read(100 + 3 * KIB, 17);
        assert_eq!(last_row, [&[5u8; 16][..], &[0]].concat());
    }

    #[test]
    fn empty_and_out_of_bounds_pitched_copies() {
        let gpu = Gpu::new(0, CostModel::tesla_c2050(), 1 << 16);
        let (a, b) = (gpu.malloc(256), gpu.malloc(256));
        gpu.write_bytes(a, &[7u8; 256]);
        gpu.write_bytes(b, &[9u8; 256]);
        let copy_at = |dst: DevPtr, dpitch, src: DevPtr, spitch, width, height| {
            let p = Copy2d {
                dst: Loc::Device(dst),
                dpitch,
                src: Loc::Device(src),
                spitch,
                width,
                height,
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gpu.copy_2d_untimed(&p)))
        };
        let copy = |dst, src, width, height| copy_at(dst, 64, src, 64, width, height);
        // Nothing to move is nothing checked, wherever the pointers aim.
        assert!(copy(b.add(250), a.add(250), 0, 9).is_ok());
        assert!(copy(b.add(250), a.add(250), 9, 0).is_ok());
        // Five rows at pitch 64 span 4*64+8 = 264 bytes: past the source's
        // 256, then past the destination's. Either way the device faults
        // before a byte has moved.
        let fault = |r: std::thread::Result<()>| {
            let msg = *r
                .expect_err("must fault")
                .downcast::<String>()
                .expect("a message");
            assert!(msg.contains("outside any live allocation"), "{msg}");
            assert_eq!(
                gpu.read_bytes(b, 256),
                [9u8; 256],
                "bytes moved before the fault"
            );
        };
        let roomy = gpu.malloc(512);
        fault(copy(roomy, a, 8, 5)); // source extent leaves `a`
        fault(copy(b, roomy, 8, 5)); // destination extent leaves `b`
        assert!(copy(roomy, a, 8, 4).is_ok());
        // An extent that does not fit a `usize` is outside every allocation:
        // `2 * (1 << 63) + 4` must not wrap to 4 and pass as one row.
        fault(copy_at(b, 4, a, 1 << 63, 4, 3));
        fault(copy_at(b, 1 << 63, a, 4, 4, 3));
        assert!(copy(b, roomy, 8, 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "belongs to gpu")]
    fn cross_gpu_pointer_rejected() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(64);
            let h = HostBuf::alloc(64);
            b.memcpy(pa, h.base(), 64);
        });
    }

    #[test]
    fn malloc_free_cycle_releases_memory() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let before = gpu.mem_allocated();
            let p = gpu.malloc(1 << 20);
            assert!(gpu.mem_allocated() > before);
            gpu.free(p);
            assert_eq!(gpu.mem_allocated(), before);
            assert_eq!(gpu.live_allocs(), 0);
        });
    }

    #[test]
    fn device_synchronize_waits_for_everything() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let h = HostBuf::alloc(1 << 20);
            let s = gpu.create_stream();
            let c = gpu.memcpy_async(dev, h.base(), 1 << 20, &s);
            gpu.synchronize();
            assert!(c.poll());
        });
    }

    #[test]
    fn memset_fills_and_takes_time() {
        in_sim(|| {
            let gpu = Gpu::tesla_c2050(0);
            let dev = gpu.malloc(1 << 20);
            let t0 = now();
            gpu.memset(dev, 0xaa, 1 << 20);
            assert!(now() > t0);
            assert_eq!(gpu.read_bytes(dev.add(12345), 4), vec![0xaa; 4]);
            // Async variant on a stream.
            let s = gpu.create_stream();
            let c = gpu.memset_async(dev, 0x55, 4096, &s);
            c.wait();
            assert_eq!(gpu.read_bytes(dev, 4), vec![0x55; 4]);
        });
    }

    /// `(what, a, b)`: an operation's `(started_at, done_at)` — for a
    /// blocking call the instants around it — or an engine's
    /// `(queue wait, 0)`, all in ns.
    type Row = (&'static str, u64, u64);

    /// The device ledger's script: one device, the owner's streams and a
    /// second process (`tenant`) that shares it from 150 us on.
    fn device_ledger() -> Vec<Row> {
        const MIB: usize = 1 << 20;
        let sim = Sim::new();
        let gpu = Gpu::tesla_c2050(0);
        let rows: std::sync::Arc<sim_core::lock::Mutex<Vec<Row>>> = Default::default();
        let comp = |what, c: &sim_core::Completion| -> Row {
            let ns = |t: Option<SimTime>| t.expect("a device completion has both").as_nanos();
            (what, ns(c.started_at()), ns(c.done_at()))
        };
        let pitched = |dst: Loc, src: Loc| Copy2d {
            dst,
            dpitch: 64,
            src,
            spitch: 256,
            width: 64,
            height: 2048,
        };
        {
            let (gpu, rows) = (gpu.clone(), rows.clone());
            sim.spawn("owner", move || {
                let [d1, d2, d3] = [0; 3].map(|_| gpu.malloc(MIB));
                let host = HostBuf::alloc(4 * MIB);
                let [s1, s2, s3, s4, s5] = [0; 5].map(|_| gpu.create_stream());
                let mut out = Vec::new();
                // Two streams race for the H2D engine...
                let c1 = gpu.memcpy_async(d1, host.base(), MIB, &s1);
                let c2 = gpu.memcpy_async(d2, host.ptr(MIB), MIB / 2, &s2);
                // ...while D2H and the device-internal engine run beside it.
                let c3 = gpu.memcpy_async(host.ptr(2 * MIB), d3, MIB / 4, &s3);
                let c4 = gpu.memcpy_2d_async(pitched(d3.add(MIB / 2).into(), d2.into()), &s4);
                // D2H on s3 may not start before the first H2D has landed.
                s3.wait_event(&c1);
                let c5 = gpu.memcpy_async(host.ptr(3 * MIB), d1, 64 << 10, &s3);
                // A fill on its own stream queues behind the pitched copy on
                // the device-internal engine; a long kernel behind the copy's
                // stream keeps the compute engine from the one after `c1`.
                let c6 = gpu.memset_async(d3, 0x5a, 128 << 10, &s5);
                let k0 = gpu.launch_kernel("long", SimDur::from_micros(200), &s4, |_| {});
                let k1 = gpu.launch_kernel("scale", SimDur::from_micros(40), &s1, |g| {
                    g.with_arena(d1, 16, |b| b.fill(1));
                });
                for (what, c) in [
                    ("h2d s1", &c1),
                    ("h2d s2 (queued)", &c2),
                    ("d2h s3", &c3),
                    ("d2d 2d s4", &c4),
                    ("d2h s3 after event", &c5),
                    ("memset s5 (queued)", &c6),
                    ("kernel s4", &k0),
                    ("kernel s1 (queued)", &k1),
                ] {
                    out.push(comp(what, c));
                }
                // Blocking calls while the tenant's work is in flight.
                let t = now().as_nanos();
                gpu.memcpy(host.base(), d2, MIB / 8);
                out.push(("sync memcpy d2h", t, now().as_nanos()));
                let t = now().as_nanos();
                gpu.memcpy_2d(pitched(host.ptr(MIB).into(), d1.into()));
                out.push(("sync memcpy_2d d2h", t, now().as_nanos()));
                let t = now().as_nanos();
                gpu.memset(d2, 7, MIB / 4);
                out.push(("sync memset", t, now().as_nanos()));
                gpu.synchronize();
                out.push(("owner synchronized", now().as_nanos(), 0));
                rows.lock().extend(out);
            });
        }
        {
            let (gpu, rows) = (gpu.clone(), rows.clone());
            sim.spawn("tenant", move || {
                sim_core::sleep_until(SimTime::from_nanos(150_000));
                let dev = gpu.malloc(MIB);
                let host = HostBuf::alloc(MIB);
                let s = gpu.create_stream();
                let c1 = gpu.memcpy_async(dev, host.base(), MIB / 2, &s);
                let k = gpu.launch_kernel("tenant", SimDur::from_micros(25), &s, |_| {});
                let c2 = gpu.memcpy_async(host.base(), dev, MIB / 2, &s);
                let out = [
                    comp("tenant h2d", &c1),
                    comp("tenant kernel", &k),
                    comp("tenant d2h", &c2),
                ];
                s.synchronize();
                rows.lock().extend(out);
                rows.lock()
                    .push(("tenant synchronized", now().as_nanos(), 0));
            });
        }
        sim.run();
        let mut rows = std::mem::take(&mut *rows.lock());
        let [h2d, d2h, d2d, compute] = gpu.engines().map(|e| e.wait_ns());
        rows.extend([
            ("wait h2d", h2d, 0),
            ("wait d2h", d2h, 0),
            ("wait d2d", d2d, 0),
            ("wait compute", compute, 0),
        ]);
        rows
    }

    /// Captured at the commit before `gpu.rs` was rebuilt on
    /// `sim_core::Horizon`. To re-capture on purpose (a cost-model or
    /// scheduling change): run `cargo test -p gpu-sim
    /// device_virtual_times_are_pinned`; the failure message is the new
    /// table as Rust source. Paste it here and say why in CHANGES.md.
    const DEVICE: &[Row] = &[
        ("tenant h2d", 483475, 586800),
        ("tenant kernel", 586800, 618800),
        ("tenant d2h", 618800, 722125),
        ("tenant synchronized", 722125, 0),
        ("h2d s1", 181500, 380150),
        ("h2d s2 (queued)", 380150, 483475),
        ("d2h s3", 184500, 240163),
        ("d2d 2d s4", 186000, 224938),
        ("d2h s3 after event", 380150, 400066),
        ("memset s5 (queued)", 224938, 232576),
        ("kernel s4", 224938, 431938),
        ("kernel s1 (queued)", 431938, 478938),
        ("sync memcpy d2h", 192000, 431897),
        ("sync memcpy_2d d2h", 431897, 1298724),
        ("sync memset", 1298724, 1308001),
        ("owner synchronized", 1308001, 0),
        ("wait h2d", 469125, 0),
        ("wait d2h", 498294, 0),
        ("wait d2d", 35938, 0),
        ("wait compute", 51788, 0),
    ];

    #[test]
    fn device_virtual_times_are_pinned() {
        let got = device_ledger();
        let table: String = got
            .iter()
            .map(|(what, a, b)| format!("        ({what:?}, {a}, {b}),\n"))
            .collect();
        assert!(
            got == DEVICE,
            "a device operation's virtual time moved; DEVICE is now\n{table}"
        );
    }

    #[test]
    fn two_gpus_are_independent_devices() {
        in_sim(|| {
            let a = Gpu::tesla_c2050(0);
            let b = Gpu::tesla_c2050(1);
            let pa = a.malloc(16);
            let pb = b.malloc(16);
            a.write_bytes(pa, &[1u8; 16]);
            b.write_bytes(pb, &[2u8; 16]);
            assert_eq!(a.read_bytes(pa, 16), vec![1u8; 16]);
            assert_eq!(b.read_bytes(pb, 16), vec![2u8; 16]);
        });
    }
}
