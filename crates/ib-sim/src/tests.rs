//! The primitive ledger: every virtual instant the fabric's six primitives
//! (`send`, `send_ctrl`, `rdma_write`, `rdma_write_sg`, `shm_write` and the
//! co-located forms of the two sends) produce for a fixed script, pinned
//! against tables captured at the commit before `fabric.rs` was rewritten
//! around one `Node` and one occupancy function. It uses the public surface
//! only, so the same file runs against either side of such a rewrite.
//!
//! To re-capture on purpose (a deliberate cost-model or arbitration change):
//! run `cargo test -p ib-sim primitive_virtual_times_are_pinned`; its failure
//! message is the new table as Rust source. Paste it over the constant and
//! say why in CHANGES.md.
//!
//! Also home of the two helpers the per-file unit tests share.

use std::collections::HashMap;
use std::sync::Arc;

use hostmem::HostBuf;
use sim_core::lock::Mutex;
use sim_core::{now, sleep_until, Completion, SanitizerMode, Sim, SimTime};
use sim_trace::Recorder;

use crate::{Fabric, FaultSpec, JobSpec, MrKey, NetModel, Nic, SgEntry, ShmModel, Topology};

/// Run `f` as the only process of a fresh simulation.
pub(crate) fn in_sim(f: impl FnOnce() + Send + 'static) {
    let sim = Sim::new();
    sim.spawn("test", f);
    sim.run();
}

/// A labeled tenant with one rank on each of two node slots.
pub(crate) fn two_node_spec(id: usize) -> JobSpec {
    JobSpec::labeled(id, Topology::one_per_node(2))
}

/// `(what, a, b)`: a completion's `(started_at, done_at)`, an arrival's
/// `(instant, wire bytes)`, a buffer's `(FNV-1a of its bytes, length)`, a
/// metric's `(value, 0)`, all in ns / bytes.
type Row = (String, u64, u64);

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn comp_row(what: String, c: &Completion) -> Row {
    c.wait();
    let ns = |t: Option<SimTime>| {
        t.expect("a fabric completion carries both instants")
            .as_nanos()
    };
    (what, ns(c.started_at()), ns(c.done_at()))
}

/// Two strided runs on each side, 2 548 bytes: gathered out of the first
/// 18 KiB of the source, scattered past the 80 KiB mark of the remote region.
const GATHER: [SgEntry; 2] = [
    SgEntry {
        offset: 0,
        len: 256,
        stride: 1024,
        count: 8,
    },
    SgEntry {
        offset: 16384,
        len: 100,
        stride: 300,
        count: 5,
    },
];
const SCATTER: [SgEntry; 2] = [
    SgEntry {
        offset: 81920,
        len: 512,
        stride: 2048,
        count: 4,
    },
    SgEntry {
        offset: 90000,
        len: 250,
        stride: 500,
        count: 2,
    },
];

/// One job's four ranks on `Topology::uniform(2, 2)` (0, 1 on the first
/// node slot; 2, 3 on the second) with the buffers the script moves.
struct Cast {
    tag: &'static str,
    nics: Vec<Nic>,
    /// 96 KiB of pattern, pinned by rank 0.
    src: HostBuf,
    /// 128 KiB registered by rank 2: the RDMA and SG target.
    remote: HostBuf,
    remote_key: MrKey,
    /// 8 KiB registered by rank 1: the shm-write target.
    near: HostBuf,
    near_key: MrKey,
}

impl Cast {
    /// Registrations happen outside the simulation: they pin, at no time.
    fn new(tag: &'static str, nics: Vec<Nic>) -> Arc<Cast> {
        let src = HostBuf::from_vec((0..96 << 10).map(|i| (i * 7 + i / 251) as u8).collect());
        nics[0].register(&src);
        let remote = HostBuf::alloc(128 << 10);
        let remote_key = nics[2].register(&remote);
        let near = HostBuf::alloc(8 << 10);
        let near_key = nics[1].register(&near);
        Arc::new(Cast {
            tag,
            nics,
            src,
            remote,
            remote_key,
            near,
            near_key,
        })
    }
}

/// Run the fixed script for every cast on `sim` and return the rows in a
/// fixed order (cast by cast: rank 0's posts, rank 1's posts, each rank's
/// arrivals, the placed bytes).
fn run_script(sim: &Sim, casts: &[Arc<Cast>]) -> Vec<Row> {
    let slots: Vec<Arc<Mutex<Vec<Row>>>> = (0..casts.len() * 6).map(|_| Arc::default()).collect();
    for (ci, cast) in casts.iter().enumerate() {
        let slot = |k: usize| Arc::clone(&slots[ci * 6 + k]);
        // Rank 0: the six primitives (and a self-send) posted back to back,
        // so each queues behind the previous on its engine; then, at 1 ms, a
        // backlog every tenant posts at the same instant — the second tenant
        // posts its SG write into it, where its share is below 1.
        let (c, out) = (Arc::clone(cast), slot(0));
        sim.spawn("rank0", move || {
            let (nic, tag) = (&c.nics[0], c.tag);
            let base = c.src.base();
            let posts = [
                ("send", nic.send(2, 4096, Box::new(0u32))),
                ("ctrl", nic.send_ctrl(2, Box::new(1u32))),
                (
                    "rdma",
                    nic.rdma_write(2, c.remote_key, 512, &base, 64 << 10),
                ),
                (
                    "sg",
                    nic.rdma_write_sg(2, c.remote_key, &base, &GATHER, &SCATTER),
                ),
                ("shm send", nic.send(1, 4096, Box::new(2u32))),
                ("shm ctrl", nic.send_ctrl(1, Box::new(3u32))),
                (
                    "shm write",
                    nic.shm_write(1, c.near_key, 64, &c.src.ptr(100), 3000),
                ),
                ("self send", nic.send(0, 256, Box::new(4u32))),
            ];
            let mut rows: Vec<Row> = posts
                .iter()
                .map(|(what, comp)| comp_row(format!("{tag}{what}"), comp))
                .collect();
            sleep_until(SimTime::from_nanos(1_000_000));
            let sg_scatter = SCATTER.map(|e| SgEntry {
                offset: e.offset + 20000,
                ..e
            });
            let backlog = [
                ("backlog send a", nic.send(2, 256 << 10, Box::new(10u32))),
                if tag == "j1 " {
                    (
                        "backlog sg",
                        nic.rdma_write_sg(2, c.remote_key, &base, &GATHER, &sg_scatter),
                    )
                } else {
                    (
                        "backlog rdma",
                        nic.rdma_write(2, c.remote_key, 70000, &c.src.ptr(4096), 8192),
                    )
                },
                ("backlog send b", nic.send(2, 256 << 10, Box::new(11u32))),
                ("backlog ctrl", nic.send_ctrl(2, Box::new(12u32))),
            ];
            rows.extend(
                backlog
                    .iter()
                    .map(|(what, comp)| comp_row(format!("{tag}{what}"), comp)),
            );
            *out.lock() = rows;
        });
        // Rank 1 shares rank 0's HCA and shm engine and posts into both
        // while rank 0's script is queued on them.
        let (c, out) = (Arc::clone(cast), slot(1));
        sim.spawn("rank1", move || {
            let (nic, tag) = (&c.nics[1], c.tag);
            sleep_until(SimTime::from_nanos(500));
            let posts = [
                ("r1 send", nic.send(3, 8192, Box::new(20u32))),
                ("r1 shm send", nic.send(0, 512, Box::new(21u32))),
                ("r1 ctrl", nic.send_ctrl(2, Box::new(22u32))),
            ];
            *out.lock() = posts
                .iter()
                .map(|(what, comp)| comp_row(format!("{tag}{what}"), comp))
                .collect();
        });
        for r in 0..4 {
            let (c, out) = (Arc::clone(cast), slot(2 + r));
            sim.spawn("collector", move || {
                let (mb, tag) = (c.nics[r].mailbox(), c.tag);
                let mut rows = Vec::new();
                while mb.wait_nonempty_until(Some(SimTime::from_nanos(20_000_000))) {
                    while let Some(p) = mb.try_recv() {
                        let id = *p
                            .payload
                            .downcast::<u32>()
                            .expect("script payloads are u32");
                        rows.push((
                            format!("{tag}rank {r} got #{id} from {}", p.src),
                            now().as_nanos(),
                            p.wire_bytes as u64,
                        ));
                    }
                }
                *out.lock() = rows;
            });
        }
    }
    sim.run();
    let mut rows = Vec::new();
    for (ci, cast) in casts.iter().enumerate() {
        for k in 0..6 {
            rows.append(&mut slots[ci * 6 + k].lock());
        }
        for (name, buf) in [("remote", &cast.remote), ("near", &cast.near)] {
            let bytes = buf.read(0, buf.len());
            rows.push((
                format!("{}{name} bytes", cast.tag),
                fnv(&bytes),
                bytes.len() as u64,
            ));
        }
    }
    rows
}

/// The fabric's counters as the recorder publishes them, and one hash over
/// the Chrome export: lane names, kinds, registration order, every span and
/// instant label with its instants.
fn trace_rows(rec: &Recorder) -> Vec<Row> {
    let mut rows: Vec<Row> = rec
        .metrics()
        .into_iter()
        .map(|(k, v)| (format!("metric {k}"), v, 0))
        .collect();
    let export = sim_trace::chrome_trace(rec);
    rows.push((
        "chrome export".into(),
        fnv(export.as_bytes()),
        export.len() as u64,
    ));
    rows
}

/// Bring a fabric up the bare way the unit tests do (`production: false`:
/// sanitizer off) or the way the checked launchers do (sanitizer
/// collecting), run the script, return the ledger.
fn ledger(production: bool, build: impl FnOnce() -> (Fabric, Vec<Arc<Cast>>)) -> Vec<Row> {
    let sim = Sim::new();
    let rec = Recorder::new();
    let (fabric, casts) = build();
    fabric.attach_recorder(&rec);
    if production {
        sim.set_sanitizer(SanitizerMode::Collect);
    }
    let mut rows = run_script(&sim, &casts);
    assert!(
        sim.sanitizer_reports().is_empty(),
        "the script is race-free: {:?}",
        sim.sanitizer_reports()
    );
    rows.extend(trace_rows(&rec));
    rows
}

fn dedicated() -> (Fabric, Vec<Arc<Cast>>) {
    let f = Fabric::with_topology(
        Topology::uniform(2, 2),
        NetModel::qdr(),
        ShmModel::westmere(),
        None,
    );
    let cast = Cast::new("", (0..4).map(|r| f.nic(r)).collect());
    (f, vec![cast])
}

/// Two tenants on the same two physical nodes: weight 4 against weight 1,
/// the light one also rate-capped at half the link.
fn two_tenants() -> (Fabric, Vec<Arc<Cast>>) {
    let spec = |id: usize, weight: u32, cap: Option<f64>| {
        let mut s = JobSpec::labeled(id, Topology::uniform(2, 2));
        s.qos.share_nodes = true;
        s.qos.hca_weight = weight;
        s.qos.rate_cap = cap;
        s
    };
    let f = Fabric::multi_job(
        2,
        vec![spec(0, 4, None), spec(1, 1, Some(0.5))],
        NetModel::qdr(),
        ShmModel::westmere(),
        None,
    );
    let casts = [(0, "j0 "), (1, "j1 ")]
        .map(|(job, tag)| {
            f.bind_job(job, &[0, 1]);
            Cast::new(tag, (0..4).map(|r| f.job_nic(job, r)).collect())
        })
        .to_vec();
    (f, casts)
}

fn assert_pinned(name: &str, got: &[Row], pinned: &[(&str, u64, u64)]) {
    let same = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|(g, p)| (g.0.as_str(), g.1, g.2) == *p);
    let table: String = got
        .iter()
        .map(|(what, a, b)| format!("    ({what:?}, {a}, {b}),\n"))
        .collect();
    assert!(
        same,
        "a primitive's virtual time moved; {name} is now\n{table}"
    );
}

#[test]
fn primitive_virtual_times_are_pinned() {
    for production in [false, true] {
        assert_pinned("DEDICATED", &ledger(production, dedicated), DEDICATED);
        assert_pinned("TWO_TENANTS", &ledger(production, two_tenants), TWO_TENANTS);
    }
    let got = fault_outcomes();
    let table: String = got
        .iter()
        .map(|(what, ns)| format!("    ({what:?}, {ns}),\n"))
        .collect();
    assert!(
        got.iter()
            .map(|(w, ns)| (w.as_str(), *ns))
            .eq(FAULTS.iter().copied()),
        "the fault layer's draw order moved; FAULTS is now\n{table}"
    );
}

/// 64 mixed posts from rank 0 on a fabric with every fault armed (seed 7),
/// one at a time: what became of each and when its completion (or, for a
/// registration, the call) finished. One shared RNG stream decides all of
/// them, so the sequence pins the order in which the primitives draw.
fn fault_outcomes() -> Vec<(String, u64)> {
    let sim = Sim::new();
    let rec = Recorder::new();
    let f = Fabric::with_topology(
        Topology::uniform(2, 2),
        NetModel::qdr(),
        ShmModel::westmere(),
        Some(FaultSpec {
            ctrl_drop: 0.3,
            ctrl_delay: 0.3,
            rdma_error: 0.3,
            desc_fetch_error: 0.3,
            pin_limit_bytes: Some((96 + 128 + 8 + 2048 + 256) << 10),
            ..FaultSpec::seeded(7)
        }),
    );
    f.attach_recorder(&rec);
    let cast = Cast::new("", (0..4).map(|r| f.nic(r)).collect());
    let arrivals: Arc<Mutex<HashMap<u32, SimTime>>> = Arc::default();
    for r in [1, 2] {
        let (c, seen) = (Arc::clone(&cast), Arc::clone(&arrivals));
        sim.spawn("collector", move || {
            let mb = c.nics[r].mailbox();
            while mb.wait_nonempty_until(Some(SimTime::from_nanos(20_000_000))) {
                while let Some(p) = mb.try_recv() {
                    let id = *p.payload.downcast::<u32>().expect("u32 payloads");
                    seen.lock().insert(id, now());
                }
            }
        });
    }
    /// What the sender knows when a post returns.
    enum Posted {
        Packet(&'static str, SimTime),
        Write(&'static str, bool),
        Reg(bool),
    }
    let posted: Arc<Mutex<Vec<(Posted, SimTime)>>> = Arc::default();
    let (c, out) = (Arc::clone(&cast), Arc::clone(&posted));
    sim.spawn("rank0", move || {
        let nic = &c.nics[0];
        for i in 0..64u32 {
            let src = c.src.ptr(i as usize * 64);
            let packet = |what, comp: Completion| Posted::Packet(what, comp.wait());
            let write = |what, comp: Completion| {
                comp.wait();
                Posted::Write(what, comp.is_error())
            };
            let p = match i % 8 {
                0 | 4 => packet("ctrl", nic.send_ctrl(2, Box::new(i))),
                1 => write(
                    "rdma",
                    nic.rdma_write(2, c.remote_key, i as usize * 100, &src, 4096),
                ),
                2 => write(
                    "sg",
                    nic.rdma_write_sg(2, c.remote_key, &src, &GATHER, &SCATTER),
                ),
                3 => packet("send", nic.send(2, 1024, Box::new(i))),
                5 => packet("shm ctrl", nic.send_ctrl(1, Box::new(i))),
                6 => write(
                    "shm write",
                    nic.shm_write(1, c.near_key, i as usize * 10, &src, 2000),
                ),
                _ => Posted::Reg(nic.try_register(&HostBuf::alloc(512 << 10)).is_ok()),
            };
            out.lock().push((p, now()));
        }
    });
    sim.run();
    let arrivals = arrivals.lock();
    let mut rows: Vec<(String, u64)> = posted
        .lock()
        .iter()
        .enumerate()
        .map(|(i, (p, at))| {
            let what = match p {
                Posted::Packet(what, done) => match arrivals.get(&(i as u32)) {
                    None => format!("{what} dropped"),
                    Some(t) if t == done => format!("{what} delivered"),
                    Some(t) => format!("{what} delayed by {}", t.since(*done).as_nanos()),
                },
                Posted::Write(what, false) => format!("{what} ok"),
                Posted::Write(what, true) => format!("{what} error cqe"),
                Posted::Reg(true) => "reg ok".into(),
                Posted::Reg(false) => "reg refused".into(),
            };
            (what, at.as_nanos())
        })
        .collect();
    for (name, buf) in [("remote", &cast.remote), ("near", &cast.near)] {
        rows.push((format!("{name} bytes"), fnv(&buf.read(0, buf.len()))));
    }
    let export = sim_trace::chrome_trace(&rec);
    rows.push(("chrome export".into(), fnv(export.as_bytes())));
    rows
}

const DEDICATED: &[(&str, u64, u64)] = &[
    ("send", 300, 2880),
    ("ctrl", 1580, 2900),
    ("rdma", 4160, 25940),
    ("sg", 24640, 27736),
    ("shm send", 1300, 2624),
    ("shm ctrl", 2324, 2640),
    ("shm write", 2340, 3390),
    ("self send", 26456, 27836),
    ("backlog send a", 1000300, 1083520),
    ("backlog rdma", 1082220, 1086080),
    ("backlog send b", 1084780, 1168000),
    ("backlog ctrl", 1166700, 1168020),
    ("r1 send", 1600, 5460),
    ("r1 shm send", 900, 1328),
    ("r1 ctrl", 26436, 27756),
    ("rank 0 got #21 from 1", 1328, 512),
    ("rank 0 got #4 from 0", 27836, 256),
    ("rank 1 got #2 from 0", 2624, 4096),
    ("rank 1 got #3 from 0", 2640, 64),
    ("rank 2 got #0 from 0", 2880, 4096),
    ("rank 2 got #1 from 0", 2900, 64),
    ("rank 2 got #22 from 1", 27756, 64),
    ("rank 2 got #10 from 0", 1083520, 262144),
    ("rank 2 got #11 from 0", 1168000, 262144),
    ("rank 2 got #12 from 0", 1168020, 64),
    ("rank 3 got #20 from 1", 5460, 8192),
    ("remote bytes", 3673348291054107601, 131072),
    ("near bytes", 5612759170443459101, 8192),
    ("metric node0.hca.tx_bytes", 613300, 0),
    ("metric node0.offload.bytes", 2548, 0),
    ("metric node0.offload.entries", 4, 0),
    ("metric node0.shm.bytes", 7672, 0),
    ("chrome export", 2732981450631527216, 2012),
];

const TWO_TENANTS: &[(&str, u64, u64)] = &[
    ("j0 send", 300, 2880),
    ("j0 ctrl", 1580, 2905),
    ("j0 rdma", 4805, 31705),
    ("j0 sg", 30405, 33950),
    ("j0 shm send", 1300, 2624),
    ("j0 shm ctrl", 3348, 3664),
    ("j0 shm write", 3380, 4430),
    ("j0 self send", 32675, 34075),
    ("j0 backlog send a", 1000300, 1083520),
    ("j0 backlog rdma", 1082220, 1086720),
    ("j0 backlog send b", 1085420, 1189120),
    ("j0 backlog ctrl", 1187820, 1189145),
    ("j0 r1 send", 1605, 6105),
    ("j0 r1 shm send", 900, 1328),
    ("j0 r1 ctrl", 32650, 33975),
    ("j0 rank 0 got #21 from 1", 1328, 512),
    ("j0 rank 0 got #4 from 0", 34075, 256),
    ("j0 rank 1 got #2 from 0", 2624, 4096),
    ("j0 rank 1 got #3 from 0", 3664, 64),
    ("j0 rank 2 got #0 from 0", 2880, 4096),
    ("j0 rank 2 got #1 from 0", 2905, 64),
    ("j0 rank 2 got #22 from 1", 33975, 64),
    ("j0 rank 2 got #10 from 0", 1083520, 262144),
    ("j0 rank 2 got #11 from 0", 1189120, 262144),
    ("j0 rank 2 got #12 from 0", 1189145, 64),
    ("j0 rank 3 got #20 from 1", 6105, 8192),
    ("j0 remote bytes", 3673348291054107601, 131072),
    ("j0 near bytes", 5612759170443459101, 8192),
    ("j1 send", 300, 8000),
    ("j1 ctrl", 6700, 8100),
    ("j1 rdma", 19600, 123300),
    ("j1 sg", 122000, 132280),
    ("j1 shm send", 2324, 3648),
    ("j1 shm ctrl", 3364, 3680),
    ("j1 shm write", 4130, 5180),
    ("j1 self send", 131080, 132780),
    ("j1 backlog send a", 1000300, 1411200),
    ("j1 backlog sg", 1409900, 1420180),
    ("j1 backlog send b", 1418880, 1829780),
    ("j1 backlog ctrl", 1828480, 1829880),
    ("j1 r1 send", 6800, 20900),
    ("j1 r1 shm send", 1028, 1456),
    ("j1 r1 ctrl", 130980, 132380),
    ("j1 rank 0 got #21 from 1", 1456, 512),
    ("j1 rank 0 got #4 from 0", 132780, 256),
    ("j1 rank 1 got #2 from 0", 3648, 4096),
    ("j1 rank 1 got #3 from 0", 3680, 64),
    ("j1 rank 2 got #0 from 0", 8000, 4096),
    ("j1 rank 2 got #1 from 0", 8100, 64),
    ("j1 rank 2 got #22 from 1", 132380, 64),
    ("j1 rank 2 got #10 from 0", 1411200, 262144),
    ("j1 rank 2 got #11 from 0", 1829780, 262144),
    ("j1 rank 2 got #12 from 0", 1829880, 64),
    ("j1 rank 3 got #20 from 1", 20900, 8192),
    ("j1 remote bytes", 16130031454723529576, 131072),
    ("j1 near bytes", 5612759170443459101, 8192),
    ("metric job0.fabric.hca.tx_bytes", 613300, 0),
    ("metric job0.fabric.offload.bytes", 2548, 0),
    ("metric job0.fabric.shm.bytes", 7672, 0),
    ("metric job1.fabric.hca.tx_bytes", 607656, 0),
    ("metric job1.fabric.offload.bytes", 5096, 0),
    ("metric job1.fabric.shm.bytes", 7672, 0),
    ("metric node0.hca.tx_bytes", 1220956, 0),
    ("metric node0.offload.bytes", 7644, 0),
    ("metric node0.offload.entries", 12, 0),
    ("metric node0.shm.bytes", 15344, 0),
    ("chrome export", 164232195297820502, 3478),
];

const FAULTS: &[(&str, u64)] = &[
    ("ctrl delivered", 1620),
    ("rdma error cqe", 4500),
    ("sg error cqe", 7896),
    ("send delivered", 9816),
    ("ctrl delivered", 11436),
    ("shm ctrl delivered", 11852),
    ("shm write ok", 12752),
    ("reg ok", 41952),
    ("ctrl delayed by 50000", 43572),
    ("rdma ok", 46452),
    ("sg ok", 49848),
    ("send delivered", 51768),
    ("ctrl delivered", 53388),
    ("shm ctrl delivered", 53804),
    ("shm write ok", 54704),
    ("reg ok", 83904),
    ("ctrl delivered", 85524),
    ("rdma error cqe", 88404),
    ("sg ok", 91800),
    ("send delivered", 93720),
    ("ctrl delivered", 95340),
    ("shm ctrl delivered", 95756),
    ("shm write ok", 96656),
    ("reg ok", 125856),
    ("ctrl delivered", 127476),
    ("rdma error cqe", 130356),
    ("sg error cqe", 133752),
    ("send delivered", 135672),
    ("ctrl delivered", 137292),
    ("shm ctrl delivered", 137708),
    ("shm write ok", 138608),
    ("reg ok", 167808),
    ("ctrl delayed by 50000", 169428),
    ("rdma ok", 172308),
    ("sg ok", 175704),
    ("send delivered", 177624),
    ("ctrl delivered", 179244),
    ("shm ctrl delivered", 179660),
    ("shm write ok", 180560),
    ("reg refused", 180560),
    ("ctrl dropped", 182180),
    ("rdma error cqe", 185060),
    ("sg ok", 188456),
    ("send delivered", 190376),
    ("ctrl dropped", 191996),
    ("shm ctrl delivered", 192412),
    ("shm write ok", 193312),
    ("reg refused", 193312),
    ("ctrl delivered", 194932),
    ("rdma ok", 197812),
    ("sg ok", 201208),
    ("send delivered", 203128),
    ("ctrl delivered", 204748),
    ("shm ctrl delivered", 205164),
    ("shm write ok", 206064),
    ("reg refused", 206064),
    ("ctrl dropped", 207684),
    ("rdma ok", 210564),
    ("sg ok", 213960),
    ("send delivered", 215880),
    ("ctrl delayed by 50000", 217500),
    ("shm ctrl delivered", 217916),
    ("shm write ok", 218816),
    ("reg refused", 218816),
    ("remote bytes", 11380077017563860696),
    ("near bytes", 16558745136137611533),
    ("chrome export", 461047444998787310),
];
