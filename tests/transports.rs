//! Transport-equivalence tests: the intra-node shared-memory channel (and
//! the device-to-device path that rides on it) must be invisible to the
//! application. Every datatype in the `datatype_zoo` example delivers
//! byte-identical payloads whether the two ranks share a node or sit on
//! different ones — and the co-located run never touches the HCA.

use gpu_nc_repro::halo3d::{run_halo3d_on, Halo3dParams, Variant};
use gpu_nc_repro::mpi_sim::{Datatype, SubarrayOrder};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_trace::Recorder;
use sim_core::SanitizerMode;

/// Run the three datatype-zoo transfers between two ranks placed by `ppn`
/// (1 = two nodes over the wire, 2 = one node over shared memory) and
/// return the receiver's full buffer bytes per transfer, plus the node-0
/// HCA transmit byte count.
fn zoo_payloads(ppn: usize) -> (Vec<Vec<u8>>, u64) {
    let rec = Recorder::new();
    let out = GpuCluster::new(2)
        .ppn(ppn)
        .recorder(rec.clone())
        .try_run(|env| {
            let comm = &env.comm;
            let gpu = &env.gpu;
            let me = comm.rank();
            let mut payloads = Vec::new();

            // 1. 2-D subarray: a 64x64 f64 tile at (100, 200) of a 512x512 grid.
            let grid = Datatype::subarray(
                &[512, 512],
                &[64, 64],
                &[100, 200],
                SubarrayOrder::C,
                &Datatype::double(),
            );
            grid.commit();
            let field = gpu.malloc(512 * 512 * 8);
            if me == 0 {
                let vals: Vec<f64> = (0..512 * 512).map(|i| i as f64 * 0.25).collect();
                gpu.write_scalars(field, &vals);
                comm.send(field, 1, &grid, 1, 0);
            } else {
                comm.recv(field, 1, &grid, 0, 0);
                payloads.push(gpu.read_bytes(field, 512 * 512 * 8));
            }

            // 2. Indexed gather: 512 irregular 3-int blocks every 17 ints.
            let blocks: Vec<(usize, isize)> = (0..512).map(|i| (3, i * 17)).collect();
            let idx = Datatype::indexed(&blocks, &Datatype::int());
            idx.commit();
            let sparse = gpu.malloc((512 * 17 + 16) * 4);
            if me == 0 {
                let vals: Vec<i32> = (0..512 * 17 + 16).collect();
                gpu.write_scalars(sparse, &vals);
                comm.send(sparse, 1, &idx, 1, 1);
            } else {
                comm.recv(sparse, 1, &idx, 0, 1);
                payloads.push(gpu.read_bytes(sparse, (512 * 17 + 16) * 4));
            }

            // 3. Resized struct: interleaved (i32 id, f64 mass) records.
            let particle =
                Datatype::create_struct(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]);
            let particle = Datatype::resized(&particle, 0, 16);
            particle.commit();
            let particles = gpu.malloc(1000 * 16);
            if me == 0 {
                for i in 0..1000usize {
                    gpu.write_scalars(particles.add(i * 16), &[i as i32]);
                    gpu.write_scalars(particles.add(i * 16 + 8), &[i as f64 * 1.5]);
                }
                comm.send(particles, 1000, &particle, 1, 2);
            } else {
                comm.recv(particles, 1000, &particle, 0, 2);
                payloads.push(gpu.read_bytes(particles, 1000 * 16));
            }
            payloads
        });
    let hca_tx = rec
        .metrics()
        .get("node0.hca.tx_bytes")
        .copied()
        .unwrap_or(0);
    (out.unwrap().1.swap_remove(1), hca_tx)
}

#[test]
fn datatype_zoo_is_byte_identical_intra_node_vs_inter_node() {
    let (remote, remote_hca) = zoo_payloads(1);
    let (local, local_hca) = zoo_payloads(2);
    assert_eq!(remote.len(), 3);
    assert_eq!(local.len(), 3);
    for (i, (r, l)) in remote.iter().zip(&local).enumerate() {
        assert_eq!(r, l, "zoo datatype #{i} differs between transports");
    }
    assert!(
        remote_hca > 0,
        "two separate nodes must exchange over the wire"
    );
    assert_eq!(
        local_hca, 0,
        "co-located ranks must never touch the HCA (got {local_hca} tx bytes)"
    );
}

#[test]
fn halo3d_under_sanitizer_is_clean_at_ppn_2() {
    // The full application on mixed intra-/inter-node topology, with the
    // simulation sanitizer collecting: the shm and device-to-device data
    // paths must be as race- and leak-free as the staged RDMA path.
    let params = Halo3dParams {
        grid: (2, 1, 2),
        local: (4, 5, 6),
        iters: 2,
    };
    let cluster = GpuCluster::new(params.nranks())
        .ppn(2)
        .sanitizer(SanitizerMode::Collect);
    let (out, san) = run_halo3d_on::<f64>(cluster, params, Variant::Mv2, false);
    assert_eq!(out.ranks.len(), 4);
    assert!(
        san.is_empty(),
        "sanitizer reports on the intra-node paths: {san:#?}"
    );
}
