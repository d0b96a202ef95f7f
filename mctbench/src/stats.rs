//! Exact order statistics over raw samples.
//!
//! Every timing keeps its raw per-request durations, so a quantile is
//! an exact order statistic, not a histogram bucket edge. A quantile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond
//! it; otherwise it reads as not available.

/// Samples that must lie strictly beyond a reported quantile.
pub const MIN_BEYOND: usize = 10;

/// Raw samples of one quantity (nanoseconds for timings).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    v: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, x: u64) {
        self.v.push(x);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend_from_slice(&other.v);
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn sum(&self) -> u64 {
        self.v.iter().sum()
    }

    /// Arithmetic mean, `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (!self.v.is_empty()).then(|| self.sum() as f64 / self.v.len() as f64)
    }

    /// The `q`-quantile by nearest rank, `None` unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.v.clone();
        sorted.sort_unstable();
        quantile_sorted(&sorted, q)
    }
}

/// Nearest-rank quantile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_data() {
        // 1..=1000: the q-quantile by nearest rank is ceil(1000 q).
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), Some(500));
        assert_eq!(quantile_sorted(&sorted, 0.95), Some(950));
        assert_eq!(quantile_sorted(&sorted, 0.99), Some(990));
        assert_eq!(quantile_sorted(&sorted, 0.001), Some(1));
        // p99.9 leaves only one sample beyond: not reportable.
        assert_eq!(quantile_sorted(&sorted, 0.999), None);
    }

    #[test]
    fn quantile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1009).collect();
        // rank ceil(0.99 * 1009) = 999 leaves exactly 10 beyond.
        assert_eq!(quantile_sorted(&sorted, 0.99), Some(999));
        let sorted: Vec<u64> = (1..=999).collect();
        // rank 990 leaves 9 beyond.
        assert_eq!(quantile_sorted(&sorted, 0.99), None);
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7; 19], 0.5), None);
        assert_eq!(quantile_sorted(&[7; 20], 0.5), Some(7));
    }

    #[test]
    fn unsorted_samples_and_duplicates() {
        let mut s = Samples::default();
        for x in [
            5u64, 1, 4, 1, 3, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
        ] {
            s.push(x);
        }
        // Sorted: 1 1 2 2 3 3 3 3 4 4 | 5 5 5 6 7 8 8 9 9 9.
        assert_eq!(s.quantile(0.5), Some(4));
        assert_eq!(s.mean(), Some(97.0 / 20.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
