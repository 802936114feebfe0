//! Online pipeline block-size tuner ([`crate::ChunkPolicy::Adaptive`]).
//!
//! The paper finds the 64 KB staging block by an offline sweep (§V-B): too
//! small and per-chunk overheads dominate, too large and the pipeline
//! stages stop overlapping. The tuner redoes that sweep online, per
//! receiver and per `(message size class, layout bucket)` key: every staged
//! transfer is timed RTS-to-completion, and a deterministic local search
//! over a power-of-two ladder walks from `MpiConfig::chunk_size` toward
//! the latency minimum, settling once both neighbors of the best rung have
//! been measured. The first transfer of any key always uses the configured
//! `chunk_size`, so a single transfer behaves identically under either
//! policy.

use std::collections::HashMap;

use sim_core::SimDur;

use crate::plan::Canonical;
use crate::proto::{ChunkPolicy, MpiConfig};

/// Smallest block size the adaptive search may try, bytes.
pub(crate) const MIN_BLOCK: usize = 16 << 10;

/// Largest block size the adaptive search may try, bytes; staging vbufs are
/// sized to this (see [`MpiConfig::max_chunk`]).
pub(crate) const MAX_BLOCK: usize = 256 << 10;

/// Tuning key: transfers of the same power-of-two size class and layout
/// bucket share one search state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TuneKey {
    size_class: u32,
    /// Coarse layout bucket, by its counter name: shapes in the same
    /// bucket pipeline alike.
    bucket: &'static str,
}

impl TuneKey {
    /// The key of a `total`-byte transfer into a receive layout of `shape`.
    /// A two-level `Strided2D` stays with the irregular shapes: the staged
    /// pipeline packs it the same way (run by run on the CPU, one gather
    /// kernel per chunk on the GPU).
    pub(crate) fn new(total: usize, shape: &Canonical) -> Self {
        TuneKey {
            size_class: usize::BITS - total.max(1).leading_zeros(),
            bucket: match shape {
                Canonical::Contig { .. } => "contiguous",
                Canonical::Strided1D { .. } => "strided",
                Canonical::Strided2D { .. } | Canonical::Irregular => "irregular",
            },
        }
    }

    /// Static counter name for a search of this key that settled on
    /// `block`, `tuner.settled.<bucket>.<kb>k` — counters require
    /// `&'static str`, so the power-of-two ladder is spelled out and
    /// anything off it falls into `.other`.
    pub(crate) fn settled_counter(&self, block: usize) -> &'static str {
        macro_rules! per_block {
            ($bucket:literal) => {
                match block {
                    0x1000 => concat!("tuner.settled.", $bucket, ".4k"),
                    0x2000 => concat!("tuner.settled.", $bucket, ".8k"),
                    0x4000 => concat!("tuner.settled.", $bucket, ".16k"),
                    0x8000 => concat!("tuner.settled.", $bucket, ".32k"),
                    0x10000 => concat!("tuner.settled.", $bucket, ".64k"),
                    0x20000 => concat!("tuner.settled.", $bucket, ".128k"),
                    0x40000 => concat!("tuner.settled.", $bucket, ".256k"),
                    0x80000 => concat!("tuner.settled.", $bucket, ".512k"),
                    0x100000 => concat!("tuner.settled.", $bucket, ".1024k"),
                    _ => concat!("tuner.settled.", $bucket, ".other"),
                }
            };
        }
        match self.bucket {
            "contiguous" => per_block!("contiguous"),
            "strided" => per_block!("strided"),
            _ => per_block!("irregular"),
        }
    }
}

/// Search state for one key.
struct TuneState {
    /// Best observed latency per ladder rung, ns.
    best_ns: Vec<Option<u64>>,
    /// Rung the next transfer will use.
    cursor: usize,
    /// True once the search has converged; the cursor stays put.
    settled: bool,
}

/// Per-engine block-size search across all keys.
pub(crate) struct ChunkTuner {
    /// Candidate block sizes, ascending.
    ladder: Vec<usize>,
    /// Rung of `MpiConfig::chunk_size` — where every search starts.
    start: usize,
    states: HashMap<TuneKey, TuneState>,
}

impl ChunkTuner {
    pub(crate) fn new(cfg: &MpiConfig) -> Self {
        let mut ladder = match cfg.policy {
            ChunkPolicy::Fixed => vec![cfg.chunk_size],
            ChunkPolicy::Adaptive => {
                let mut l: Vec<usize> = (0..usize::BITS)
                    .map(|p| 1usize << p)
                    .filter(|&b| (MIN_BLOCK..=MAX_BLOCK).contains(&b))
                    .collect();
                l.push(cfg.chunk_size);
                l
            }
        };
        ladder.sort_unstable();
        ladder.dedup();
        let start = ladder
            .iter()
            .position(|&b| b == cfg.chunk_size)
            .expect("chunk_size is always on the ladder");
        ChunkTuner {
            ladder,
            start,
            states: HashMap::new(),
        }
    }

    /// Block size the next transfer under `key` should use.
    pub(crate) fn choose(&mut self, key: TuneKey) -> usize {
        let start = self.start;
        let n = self.ladder.len();
        let st = self.states.entry(key).or_insert_with(|| TuneState {
            best_ns: vec![None; n],
            cursor: start,
            settled: false,
        });
        self.ladder[st.cursor]
    }

    /// Record a completed transfer: `block` took `elapsed` end to end.
    /// Moves the cursor toward the observed latency minimum. Returns the
    /// winning block size on the observation that settles the search (so
    /// callers can count which block each key converged to); `None` on
    /// every other observation.
    pub(crate) fn observe(&mut self, key: TuneKey, block: usize, elapsed: SimDur) -> Option<usize> {
        let st = self.states.get_mut(&key)?;
        let i = self.ladder.iter().position(|&b| b == block)?;
        let ns = elapsed.as_nanos();
        st.best_ns[i] = Some(st.best_ns[i].map_or(ns, |prev| prev.min(ns)));
        if st.settled {
            return None;
        }
        let best = st
            .best_ns
            .iter()
            .enumerate()
            .filter_map(|(j, v)| v.map(|ns| (ns, j)))
            .min()
            .map(|(_, j)| j)
            .unwrap_or(self.start);
        // Probe the unmeasured neighbor of the current best (larger block
        // first); when both neighbors are known, the best rung is a local —
        // and for the pipeline's unimodal latency curve, global — minimum.
        let up = best + 1 < self.ladder.len() && st.best_ns[best + 1].is_none();
        let down = best > 0 && st.best_ns[best - 1].is_none();
        if up {
            st.cursor = best + 1;
        } else if down {
            st.cursor = best - 1;
        } else {
            st.cursor = best;
            st.settled = true;
            return Some(self.ladder[best]);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive_cfg() -> MpiConfig {
        MpiConfig::default()
    }

    const CONTIG: Canonical = Canonical::Contig { offset: 0, len: 64 };
    const STRIDED: Canonical = Canonical::Strided1D {
        first: 0,
        block: 4,
        stride: 16,
        count: 8,
    };
    /// Two planes of four rows: a two-level shape.
    const PLANES: Canonical = Canonical::Strided2D {
        first: 0,
        block: 4,
        stride: 16,
        count: 4,
        outer_stride: 100,
        outer_count: 2,
    };

    fn key() -> TuneKey {
        TuneKey::new(4 << 20, &STRIDED)
    }

    #[test]
    fn fixed_policy_has_one_rung() {
        let cfg = MpiConfig {
            policy: ChunkPolicy::Fixed,
            ..MpiConfig::default()
        };
        let mut t = ChunkTuner::new(&cfg);
        assert_eq!(t.choose(key()), cfg.chunk_size);
        t.observe(key(), cfg.chunk_size, SimDur::from_nanos(123));
        assert_eq!(t.choose(key()), cfg.chunk_size);
    }

    #[test]
    fn first_choice_is_the_configured_chunk_size() {
        let mut t = ChunkTuner::new(&adaptive_cfg());
        assert_eq!(t.choose(key()), 64 << 10);
    }

    #[test]
    fn search_settles_on_the_latency_minimum() {
        // Synthetic unimodal latency curve with its minimum at 128 KiB.
        let lat = |block: usize| -> u64 {
            let b = block as f64;
            let opt = (128 << 10) as f64;
            (1_000_000.0 + 50_000.0 * (b / opt - opt / b).abs()) as u64
        };
        let mut t = ChunkTuner::new(&adaptive_cfg());
        let mut last = 0;
        for _ in 0..16 {
            let block = t.choose(key());
            t.observe(key(), block, SimDur::from_nanos(lat(block)));
            last = block;
        }
        assert_eq!(last, 128 << 10, "search must converge to the minimum");
        // Convergence is sticky: further observations do not move it.
        t.observe(key(), last, SimDur::from_nanos(lat(last) * 10));
        assert_eq!(t.choose(key()), 128 << 10);
    }

    #[test]
    fn observe_reports_the_block_once_on_settling() {
        let lat = |block: usize| -> u64 {
            let b = block as f64;
            let opt = (128 << 10) as f64;
            (1_000_000.0 + 50_000.0 * (b / opt - opt / b).abs()) as u64
        };
        let mut t = ChunkTuner::new(&adaptive_cfg());
        let mut settled = Vec::new();
        for _ in 0..16 {
            let block = t.choose(key());
            if let Some(b) = t.observe(key(), block, SimDur::from_nanos(lat(block))) {
                settled.push(b);
            }
        }
        assert_eq!(
            settled,
            vec![128 << 10],
            "settles exactly once, on the winner"
        );
    }

    #[test]
    fn settled_counter_names_are_static_and_distinct() {
        let settled =
            |shape: &Canonical, block| TuneKey::new(4 << 20, shape).settled_counter(block);
        assert_eq!(settled(&STRIDED, 64 << 10), "tuner.settled.strided.64k");
        assert_eq!(settled(&CONTIG, 64 << 10), "tuner.settled.contiguous.64k");
        assert_eq!(settled(&STRIDED, 128 << 10), "tuner.settled.strided.128k");
        assert_eq!(
            settled(&Canonical::Irregular, 12345),
            "tuner.settled.irregular.other"
        );
    }

    #[test]
    fn two_level_shapes_share_the_irregular_bucket() {
        assert_eq!(
            TuneKey::new(4 << 20, &PLANES),
            TuneKey::new(4 << 20, &Canonical::Irregular)
        );
        assert_ne!(TuneKey::new(4 << 20, &PLANES), key());
    }

    #[test]
    fn keys_are_tuned_independently() {
        let mut t = ChunkTuner::new(&adaptive_cfg());
        let k1 = TuneKey::new(4 << 20, &STRIDED);
        let k2 = TuneKey::new(64 << 10, &CONTIG);
        assert_ne!(k1, k2);
        let b1 = t.choose(k1);
        t.observe(k1, b1, SimDur::from_nanos(1_000));
        // k1 has moved off the start; k2 still begins at chunk_size.
        assert_eq!(t.choose(k2), 64 << 10);
    }
}
