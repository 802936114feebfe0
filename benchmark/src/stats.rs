//! Order statistics over small samples: the nearest-rank percentile, the
//! "at least ten samples beyond it" rule, and the five-number summary every
//! reported value carries.

/// Samples that must lie strictly beyond a reported high percentile.
pub const TAIL_MIN: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `ceil(p/100 * n)` (1-based). `None` on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples ranked strictly above the nearest-rank percentile `p` of a
/// sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(0, n)
}

/// Median and spread of the per-rep values of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolation quantile (`q` in 0..=1) of an ascending sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarise `values` (any order). Panics on an empty sample: every
    /// metric is sampled at least once per run.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[v.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 100.0), Some(1000));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 99.0), Some(7));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        // Odd sample: ceil(0.5 * 5) = 3rd value.
        assert_eq!(percentile(&[1u64, 2, 3, 4, 5], 50.0), Some(3));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 sits at rank 990: exactly ten samples beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(1024, 99.0), 10);
        assert_eq!(samples_beyond(5120, 99.0), 51);
        assert_eq!(samples_beyond(10, 99.0), 0);
        assert!(samples_beyond(1000, 99.0) >= TAIL_MIN);
        assert!(samples_beyond(999, 99.0) < TAIL_MIN);
    }

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                n: 5,
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0,
                max: 5.0
            }
        );
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!(s.median, 1.5);
        let s = Summary::of(&[9.0]);
        assert_eq!((s.min, s.median, s.max), (9.0, 9.0, 9.0));
    }
}
