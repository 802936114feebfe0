//! Degenerate datatype geometries through the pack/unpack paths: zero-count
//! vectors, zero blocklens, negative strides (hvector/hindexed), and resized
//! extents. For each type the CPU pack (`mpi_sim::pack`) and the GPU pack
//! (`mv2_gpu_nc::gpu_pack`) must produce byte-for-byte identical packed
//! streams, and unpacking must land every byte at the same offsets.

use gpu_nc_repro::mpi_sim::pack::{PackCursor, UnpackCursor};
use gpu_nc_repro::mpi_sim::{Datatype, Plan};
use gpu_nc_repro::mv2_gpu_nc::gpu_pack::{enqueue_gather, enqueue_scatter};
use gpu_sim::Gpu;
use hostmem::HostBuf;
use sim_core::Sim;

/// Pack `count` elements of `dt` from an identical byte pattern on the CPU
/// and on the GPU, assert the packed streams match, then unpack the stream
/// on both sides and assert the destination footprints match byte-for-byte.
fn check_pack_unpack(dt: &Datatype, count: usize) {
    dt.commit();
    let (lo, hi) = dt.flat().byte_range(count);
    // Base offset inside the allocation such that negative displacements
    // stay in bounds; headroom on both sides.
    let base_off = (-lo).max(0) as usize + 16;
    let span = base_off + hi.max(0) as usize + 16;
    let pattern: Vec<u8> = (0..span).map(|i| (i as u8).wrapping_mul(31)).collect();
    let segs = dt.flat().expanded(count);
    let total: usize = segs.iter().map(|s| s.len).sum();

    // CPU pack.
    let host = HostBuf::from_vec(pattern.clone());
    let mut cur = PackCursor::new(host.ptr(base_off), segs.clone());
    let cpu_packed = cur.pack_all();
    assert_eq!(cpu_packed.len(), total, "CPU pack length");

    // CPU unpack into a fresh buffer; only typemap bytes may be written.
    let host_out = HostBuf::alloc(span);
    let mut ucur = UnpackCursor::new(host_out.ptr(base_off), segs.clone());
    ucur.unpack_from(&cpu_packed);
    assert!(ucur.finished(), "CPU unpack consumed the whole stream");

    // GPU pack/unpack inside the simulator.
    let segs2 = segs.clone();
    let packed2 = cpu_packed.clone();
    let pattern2 = pattern.clone();
    let out: std::sync::Arc<std::sync::Mutex<(Vec<u8>, Vec<u8>)>> = Default::default();
    let out2 = std::sync::Arc::clone(&out);
    let sim = Sim::new();
    sim.spawn("gpu-pack", move || {
        let gpu = Gpu::tesla_c2050(0);
        let stream = gpu.create_stream();
        let user = gpu.malloc(span.max(1));
        gpu.write_bytes(user, &pattern2);
        let userp = user.add(base_off);
        let m = Plan::from_segments(segs2.clone());
        assert_eq!(m.total(), total);

        let gpu_packed = if total == 0 {
            // Nothing to move: the piece list is empty and no device op is
            // enqueued (the stager skips zero-byte chunks the same way).
            Vec::new()
        } else {
            let tbuf = gpu.malloc(total);
            enqueue_gather(&gpu, &stream, userp, &m.pieces(0, total), tbuf).wait();
            gpu.read_bytes(tbuf, total)
        };

        // Scatter the CPU-packed stream into a fresh device buffer.
        let dst = gpu.malloc(span.max(1));
        gpu.write_bytes(dst, &vec![0u8; span]);
        if total != 0 {
            let sbuf = gpu.malloc(total);
            gpu.write_bytes(sbuf, &packed2);
            enqueue_scatter(&gpu, &stream, dst.add(base_off), &m.pieces(0, total), sbuf).wait();
        }
        let unpacked = gpu.read_bytes(dst, span);
        *out2.lock().unwrap() = (gpu_packed, unpacked);
    });
    sim.run();
    let (gpu_packed, gpu_unpacked) = std::sync::Arc::try_unwrap(out)
        .unwrap()
        .into_inner()
        .unwrap();

    assert_eq!(cpu_packed, gpu_packed, "CPU and GPU pack bytes differ");
    let cpu_unpacked = host_out.read(0, span);
    assert_eq!(
        cpu_unpacked, gpu_unpacked,
        "CPU and GPU unpack footprints differ"
    );
    // Every typemap byte round-tripped; everything else stayed zero.
    for s in &segs {
        let o = (base_off as isize + s.offset) as usize;
        assert_eq!(
            &cpu_unpacked[o..o + s.len],
            &pattern[o..o + s.len],
            "typemap bytes must round-trip"
        );
    }
}

#[test]
fn zero_count_vector_packs_nothing() {
    let dt = Datatype::vector(0, 4, 8, &Datatype::float());
    assert_eq!(dt.size(), 0);
    check_pack_unpack(&dt, 1);
    check_pack_unpack(&dt, 3);
}

#[test]
fn zero_blocklen_vector_packs_nothing() {
    let dt = Datatype::vector(4, 0, 8, &Datatype::float());
    assert_eq!(dt.size(), 0);
    check_pack_unpack(&dt, 1);
}

#[test]
fn zero_count_send_of_nonempty_type() {
    // count = 0 of a perfectly ordinary type.
    let dt = Datatype::vector(4, 2, 4, &Datatype::float());
    check_pack_unpack(&dt, 0);
}

#[test]
fn negative_stride_vector() {
    // Blocks walk backwards through memory: displacements are negative.
    let dt = Datatype::vector(4, 1, -2, &Datatype::float());
    check_pack_unpack(&dt, 1);
    check_pack_unpack(&dt, 2);
}

#[test]
fn negative_stride_hvector() {
    // Byte-stride walks backwards and is not a multiple of the child
    // extent (exercises unaligned negative displacements).
    let dt = Datatype::hvector(5, 1, -12, &Datatype::float());
    check_pack_unpack(&dt, 1);
}

#[test]
fn negative_displacement_hindexed() {
    let dt = Datatype::hindexed(&[(2, -24), (1, 0), (3, -60)], &Datatype::float());
    check_pack_unpack(&dt, 1);
}

#[test]
fn resized_extent_changes_element_spacing() {
    // A float resized to a 16-byte extent: consecutive count elements land
    // 16 bytes apart, leaving 12-byte holes.
    let dt = Datatype::resized(&Datatype::float(), 0, 16);
    assert_eq!(dt.extent(), 16);
    check_pack_unpack(&dt, 4);
}

#[test]
fn resized_negative_lb() {
    // Lower bound behind the buffer pointer: the first element's bytes sit
    // at a negative displacement.
    let dt = Datatype::resized(&Datatype::float(), -8, 24);
    check_pack_unpack(&dt, 3);
}

#[test]
fn resized_vector_tiles_with_overlap_free_holes() {
    // The paper's common idiom: a strided column type resized so count
    // columns interleave.
    let col = Datatype::vector(4, 1, 4, &Datatype::float());
    let dt = Datatype::resized(&col, 0, 4);
    check_pack_unpack(&dt, 3);
}

#[test]
fn degenerate_types_through_mpi_transfer() {
    // End-to-end: a zero-size message and a negative-stride message through
    // the full MPI path (host buffers).
    use gpu_nc_repro::mpi_sim::MpiWorld;
    for dt in [
        Datatype::vector(0, 4, 8, &Datatype::float()),
        Datatype::hvector(4, 1, -8, &Datatype::double()),
    ] {
        dt.commit();
        let (lo, hi) = dt.flat().byte_range(1);
        let base_off = (-lo).max(0) as usize + 8;
        let span = base_off + hi.max(0) as usize + 8;
        let pattern: Vec<u8> = (0..span).map(|i| (i as u8).wrapping_add(3)).collect();
        let segs = dt.flat().expanded(1);
        let dtc = dt.clone();
        let patc = pattern.clone();
        MpiWorld::new(2).run(move |comm| {
            if comm.rank() == 0 {
                let buf = HostBuf::from_vec(patc.clone());
                comm.send(buf.ptr(base_off), 1, &dtc, 1, 0);
            } else {
                let buf = HostBuf::alloc(span);
                comm.recv(buf.ptr(base_off), 1, &dtc, 0, 0);
                for s in dtc.flat().expanded(1) {
                    let o = (base_off as isize + s.offset) as usize;
                    assert_eq!(
                        buf.read(o, s.len),
                        patc[o..o + s.len].to_vec(),
                        "typemap bytes must survive the transfer"
                    );
                }
            }
        });
        drop(segs);
    }
}
