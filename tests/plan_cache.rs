//! The committed-plan cache on the rendezvous hot path: after a warm-up
//! transfer, steady-state sends of the same `(datatype, count)` never
//! rebuild the plan — every lookup is a plan-cache hit — and no transfer,
//! warm or cold, ever materialises the typemap's rows.
//!
//! The first two tests assert on the *per-type* counters
//! ([`Datatype::plan_cache_stats`], `flat().expand_count()`), which are
//! immune to other tests running concurrently in this binary; the third
//! reads the process-wide `flat_expand` key, which holds because nothing
//! in this binary materialises rows.

use gpu_nc_repro::mpi_sim::{DataScheme, Datatype, MpiConfig, MpiWorld, SchemeSel};
use gpu_nc_repro::mv2_gpu_nc::baselines::{recv_mv2, send_mv2, VectorXfer};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use hostmem::HostBuf;

/// 4096 single-float blocks on a 4-float stride: 16 KiB packed — above the
/// eager threshold (staged rendezvous) and never contiguous.
fn noncontig_16k() -> Datatype {
    let dt = Datatype::vector(4096, 1, 4, &Datatype::float());
    dt.commit();
    dt
}

fn footprint(dt: &Datatype) -> usize {
    let (lo, hi) = dt.flat().byte_range(1).expect("a representable footprint");
    assert!(lo >= 0);
    hi as usize + 64
}

fn host_transfer(dt: &Datatype, iters: u32) {
    let dtc = dt.clone();
    let fp = footprint(dt);
    MpiWorld::new(2).run(move |comm| {
        let buf = HostBuf::alloc(fp);
        for tag in 0..iters {
            if comm.rank() == 0 {
                comm.send(buf.base(), 1, &dtc, 1, tag);
            } else {
                comm.recv(buf.base(), 1, &dtc, 0, tag);
            }
        }
    });
}

fn gpu_transfer(dt: &Datatype, iters: u32) {
    let dtc = dt.clone();
    let fp = footprint(dt);
    GpuCluster::new(2).run(move |env| {
        let dev = env.gpu.malloc(fp);
        for tag in 0..iters {
            if env.comm.rank() == 0 {
                env.comm.send(dev, 1, &dtc, 1, tag);
            } else {
                env.comm.recv(dev, 1, &dtc, 0, tag);
            }
        }
        env.gpu.free(dev);
    });
}

#[test]
fn host_rendezvous_steady_state_never_reexpands() {
    let dt = noncontig_16k();
    host_transfer(&dt, 1); // warm-up: builds and caches the plan
    let warm = dt.plan_cache_stats();
    assert!(warm.misses > 0, "warm-up must have built the plan");

    host_transfer(&dt, 8);
    assert_eq!(
        dt.flat().expand_count(),
        0,
        "a transfer materialised the typemap's rows"
    );
    let s = dt.plan_cache_stats();
    assert_eq!(s.misses, warm.misses, "steady state missed the plan cache");
    assert!(s.hits > warm.hits, "steady state must hit the plan cache");
}

#[test]
fn gpu_rendezvous_steady_state_never_reexpands() {
    let dt = noncontig_16k();
    gpu_transfer(&dt, 1); // warm-up: builds and caches the plan
    let warm = dt.plan_cache_stats();
    assert!(warm.misses > 0, "warm-up must have built the plan");

    gpu_transfer(&dt, 8);
    assert_eq!(
        dt.flat().expand_count(),
        0,
        "a transfer materialised the typemap's rows"
    );
    let s = dt.plan_cache_stats();
    assert_eq!(s.misses, warm.misses, "steady state missed the plan cache");
    assert!(s.hits > warm.hits, "steady state must hit the plan cache");
}

/// The paper's headline path and the host staged path, cold and warm:
/// commit, plan, chunk slicing, packing and unpacking all walk the run
/// list, so nothing materialises a row — and the 4 MiB vector (a million
/// rows) is a single run.
#[test]
fn the_hot_path_never_materialises_rows() {
    let expands = || sim_core::instrument::global().get("flat_expand");
    let before = expands();
    let x = VectorXfer::paper(1 << 20);
    GpuCluster::new(2).run(move |env| {
        let dev = env.gpu.malloc(x.extent());
        for tag in 0..2 {
            match env.comm.rank() {
                0 => send_mv2(&env.comm, dev, x, 1, tag),
                _ => recv_mv2(&env.comm, dev, x, 0, tag),
            }
        }
    });
    let cfg = MpiConfig {
        scheme: SchemeSel::Force(DataScheme::Staged),
        ..MpiConfig::default()
    };
    MpiWorld::new(2).with_config(cfg).run(move |comm| {
        let buf = HostBuf::alloc(x.extent());
        match comm.rank() {
            0 => comm.send(buf.base(), 1, &x.dtype(), 1, 0),
            _ => drop(comm.recv(buf.base(), 1, &x.dtype(), 0, 0)),
        }
    });
    assert_eq!(expands() - before, 0, "a communication path expanded rows");

    let plan = VectorXfer::paper(4 << 20).dtype().plan(1);
    assert_eq!((plan.runs().len(), plan.num_segments()), (1, 1 << 20));
}
