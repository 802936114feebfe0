//! `scheme_zoo`: host-to-host rendezvous of four canonical layouts at four
//! sizes under three scheme policies. The policy is a world-level setting,
//! so a rep runs one two-rank world per policy, each with its cells'
//! messages in seeded-shuffled order, and adds their segments up. Layouts
//! follow `offload_sweep`'s zoo; the irregular block list is drawn from the
//! seed.

use std::sync::Arc;

use gpu_nc_repro::hostmem::HostBuf;
use gpu_nc_repro::mpi_sim::{ChunkPolicy, DataScheme, Datatype, MpiConfig, SchemeSel};
use gpu_nc_repro::mv2_gpu_nc::GpuCluster;
use gpu_nc_repro::sim_core;

use super::{seeded_bytes, skew, stream};
use crate::harness::{chain, Rep, RepCfg, Stopwatch, WorldTiming, WorldTrace};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    Contig,
    /// Rows of 64 B every 128 B: one descriptor entry.
    Strided1d,
    /// 64 outer groups of such rows: always 64 descriptor entries.
    Strided2d,
    /// 96 B and 160 B blocks every 512 B in seeded order: no bounded
    /// descriptor exists.
    Irregular,
}

const LAYOUTS: [Layout; 4] = [
    Layout::Contig,
    Layout::Strided1d,
    Layout::Strided2d,
    Layout::Irregular,
];
const SIZES: [usize; 4] = [16 << 10, 64 << 10, 256 << 10, 1 << 20];
/// Messages per (layout, size, policy) cell.
const PER_CELL: usize = 25;

fn policies() -> [SchemeSel; 3] {
    [
        SchemeSel::Force(DataScheme::Staged),
        SchemeSel::Force(DataScheme::NicOffload),
        SchemeSel::Auto { offload: true },
    ]
}

/// One (layout, size) cell: the datatype and the byte ranges it carries.
pub struct Cell {
    pub dtype: Datatype,
    pub count: usize,
    pub buf_bytes: usize,
    /// `(offset, len)` of every data-carrying range, ascending.
    pub ranges: Vec<(usize, usize)>,
}

impl Layout {
    /// The cell for a `total`-byte payload. `seed` orders the irregular
    /// layout's block widths.
    pub fn cell(self, total: usize, seed: u64) -> Cell {
        let rows64 = |rows: usize, base: usize| (0..rows).map(move |r| (base + r * 128, 64));
        match self {
            Layout::Contig => Cell {
                dtype: Datatype::byte(),
                count: total,
                buf_bytes: total,
                ranges: vec![(0, total)],
            },
            Layout::Strided1d => {
                let rows = total / 64;
                Cell {
                    dtype: Datatype::vector(rows, 16, 32, &Datatype::float()),
                    count: 1,
                    buf_bytes: rows * 128,
                    ranges: rows64(rows, 0).collect(),
                }
            }
            Layout::Strided2d => {
                let rows = total / (64 * 64);
                let row = Datatype::vector(rows, 16, 32, &Datatype::float());
                let group = rows * 128 + 256;
                Cell {
                    dtype: Datatype::hvector(64, 1, group as isize, &row),
                    count: 1,
                    buf_bytes: 64 * group,
                    ranges: (0..64).flat_map(|g| rows64(rows, g * group)).collect(),
                }
            }
            Layout::Irregular => {
                let mut rng = stream(seed, 4);
                let blocks: Vec<(usize, isize)> = (0..total / 256)
                    .flat_map(|pair| {
                        let (a, b) = if rng.gen_bool() { (96, 160) } else { (160, 96) };
                        [
                            (a, (pair * 1024) as isize),
                            (b, (pair * 1024 + 512) as isize),
                        ]
                    })
                    .collect();
                Cell {
                    dtype: Datatype::hindexed(&blocks, &Datatype::byte()),
                    count: 1,
                    buf_bytes: blocks.len() * 512,
                    ranges: blocks.iter().map(|&(w, d)| (d as usize, w)).collect(),
                }
            }
        }
    }
}

/// The cells one policy covers: forced offload cannot serve the irregular
/// layout.
fn cells_of(policy: SchemeSel, smoke: bool) -> Vec<(Layout, usize)> {
    let sizes = if smoke { &SIZES[..2] } else { &SIZES[..] };
    LAYOUTS
        .iter()
        .filter(|&&l| {
            !(l == Layout::Irregular && policy == SchemeSel::Force(DataScheme::NicOffload))
        })
        .flat_map(|&l| sizes.iter().map(move |&s| (l, s)))
        .collect()
}

/// Messages of one policy's world: every cell index `per_cell` times,
/// shuffled.
fn message_order(cells: usize, per_cell: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells)
        .flat_map(|c| std::iter::repeat_n(c, per_cell))
        .collect();
    stream(seed, salt).shuffle(&mut order);
    order
}

/// Messages per segment (1100 on a full run).
pub fn ops_per_segment(smoke: bool) -> usize {
    let per_cell = if smoke { 3 } else { PER_CELL };
    policies()
        .iter()
        .map(|&p| cells_of(p, smoke).len() * per_cell)
        .sum()
}

fn world(
    policy: SchemeSel,
    salt: u64,
    cfg: &RepCfg,
) -> (WorldTiming, Result<(), String>, Option<WorldTrace>) {
    let seed = cfg.seed;
    let cells = cells_of(policy, cfg.smoke);
    let order = Arc::new(message_order(
        cells.len(),
        if cfg.smoke { 3 } else { PER_CELL },
        seed,
        salt,
    ));
    let sw = Stopwatch::new();
    let (cluster, tap) = cfg.tap(GpuCluster::new(2).mpi_config(MpiConfig {
        scheme: policy,
        policy: ChunkPolicy::Fixed,
        ..MpiConfig::default()
    }));
    let clock = sw.clone();
    sw.launch();
    let (outcome, _) = cluster.try_run_with_reports(move |env| {
        let comm = &env.comm;
        let me = comm.rank();
        let byte = Datatype::byte();
        byte.commit();
        let pong = HostBuf::alloc(1);
        // Per cell: the committed type, this rank's buffer and, on the
        // receiver, the bytes the buffer must hold after a transfer (data
        // ranges from the sender's pattern, holes still zero).
        let built: Vec<(Cell, HostBuf, Vec<u8>)> = cells
            .iter()
            .enumerate()
            .map(|(c, &(layout, total))| {
                let cell = layout.cell(total, seed);
                cell.dtype.commit();
                let pattern = seeded_bytes(seed, 0x200 + c as u64, cell.buf_bytes);
                if me == 0 {
                    (cell, HostBuf::from_vec(pattern), Vec::new())
                } else {
                    let mut want = vec![0u8; cell.buf_bytes];
                    for &(o, l) in &cell.ranges {
                        want[o..o + l].copy_from_slice(&pattern[o..o + l]);
                    }
                    let buf = HostBuf::from_vec(vec![0u8; cell.buf_bytes]);
                    (cell, buf, want)
                }
            })
            .collect();
        // Untimed warm-up: one message per cell fills the staging pools,
        // the registration cache and the plan caches.
        for (c, (cell, buf, _)) in built.iter().enumerate() {
            let tag = 1_000_000 + c as u32;
            if me == 0 {
                comm.send(buf.base(), cell.count, &cell.dtype, 1, tag);
            } else {
                comm.recv(buf.base(), cell.count, &cell.dtype, 0, tag);
                buf.with_slice(|s| s.fill(0));
            }
        }
        let mut rng = stream(seed, 0x5e00 + me as u64);
        clock.segment(comm, || {
            for (m, &c) in order.iter().enumerate() {
                let (cell, buf, want) = &built[c];
                let tag = m as u32;
                if me == 0 {
                    skew(&mut rng);
                    comm.send(buf.base(), cell.count, &cell.dtype, 1, tag);
                    comm.recv(pong.base(), 1, &byte, 1, tag);
                } else {
                    let t0 = sim_core::now().as_nanos();
                    comm.recv(buf.base(), cell.count, &cell.dtype, 0, tag);
                    let t1 = sim_core::now().as_nanos();
                    let ok = clock.untimed(|| {
                        buf.with_slice(|s| {
                            let ok = s == want.as_slice();
                            s.fill(0);
                            ok
                        })
                    });
                    clock.op(me, t0, t1, ok);
                    comm.send(pong.base(), 1, &byte, 0, tag);
                }
            }
        });
        clock.verified();
    });
    let timing = sw.finish();
    let trace = tap.into_trace(timing.window);
    (timing, outcome.map(|_| ()), trace)
}

pub fn run(cfg: &RepCfg) -> Rep {
    let mut total = WorldTiming::default();
    let mut result = Ok(());
    let mut traces = Vec::new();
    for (i, policy) in policies().into_iter().enumerate() {
        let (timing, outcome, trace) = world(policy, 0x100 + i as u64, cfg);
        chain(&mut total, timing);
        result = result.and(outcome);
        traces.extend(trace);
    }
    Rep::from_world(total, ops_per_segment(cfg.smoke) as u64, result, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_segment_is_1100_messages() {
        assert_eq!(ops_per_segment(false), (16 + 12 + 16) * 25);
        assert!(ops_per_segment(true) < 100);
    }

    #[test]
    fn every_layout_carries_exactly_its_payload() {
        for &l in &LAYOUTS {
            for &total in &SIZES {
                let cell = l.cell(total, 7);
                cell.dtype.commit();
                let carried: usize = cell.ranges.iter().map(|r| r.1).sum();
                assert_eq!(carried, total, "{l:?} {total}");
                assert_eq!(cell.dtype.size() * cell.count, total, "{l:?} {total}");
                let end = cell.ranges.iter().map(|r| r.0 + r.1).max().unwrap();
                assert!(end <= cell.buf_bytes);
                // The ranges are the datatype's own segments.
                let segs: usize = cell
                    .dtype
                    .flat()
                    .expanded(cell.count)
                    .iter()
                    .map(|s| s.len)
                    .sum();
                assert_eq!(segs, total);
            }
        }
    }

    #[test]
    fn irregular_blocks_follow_the_seed() {
        let a = Layout::Irregular.cell(64 << 10, 1).ranges;
        assert_eq!(a, Layout::Irregular.cell(64 << 10, 1).ranges);
        assert_ne!(a, Layout::Irregular.cell(64 << 10, 2).ranges);
        assert!(a.iter().all(|&(_, w)| w == 96 || w == 160));
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = message_order(16, 25, 5, 1);
        assert_eq!(a.len(), 400);
        assert_eq!(a, message_order(16, 25, 5, 1));
        assert_ne!(a, message_order(16, 25, 6, 1));
        for c in 0..16 {
            assert_eq!(a.iter().filter(|&&x| x == c).count(), 25);
        }
    }
}
