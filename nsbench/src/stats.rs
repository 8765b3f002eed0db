//! Order statistics for the report: nearest-rank percentiles and the
//! rule that picks the highest percentile a sample set supports.

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it is
/// reported as a tail figure.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` in `n` samples (the small
/// offset keeps float error, as in 99.9 % of 10 000, from bumping an
/// exact rank up by one).
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending). Returns NaN for an
/// empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it; the median when none is.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median, tail value and tail percentile of unsorted samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile [`tail_pct`] chose for `n`.
    pub tail_pct: f64,
}

/// Summarises `samples` (any order; NaNs are not expected).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = tail_pct(sorted.len());
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, pct),
        tail_pct: pct,
    }
}

/// Median of unsorted samples (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(tail_pct(1000), 99.0);
        // One short of that and p99 leaves only 9 beyond.
        assert_eq!(tail_pct(999), 95.0);
        assert_eq!(tail_pct(10_000), 99.9);
        assert_eq!(tail_pct(200), 95.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(40), 75.0);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail_pct(19), 50.0);
        assert_eq!(tail_pct(0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 2.0, 2.0, 50.0));
    }
}
