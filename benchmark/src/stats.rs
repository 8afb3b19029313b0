//! Percentile arithmetic for the reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, with the sample
//! count stated, so that a tail figure never rests on one or two outliers.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 3] = [0.99, 0.90, 0.50];

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least a `q` share of the sample at or below it.
///
/// # Panics
///
/// On an empty sample or a `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile level {q} out of (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of level `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples strictly beyond its rank; the median when the sample is too
/// small for any tail.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n.saturating_sub(rank(n.max(1), q)) >= TAIL_BEYOND)
        .unwrap_or(0.5)
}

/// Summary of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The level [`Summary::tail`] was taken at (see [`tail_level`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarise a non-empty sample (any order).
    pub fn of(sample: &[f64]) -> Summary {
        let mut sorted = sample.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_level(sorted.len());
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_q,
            tail: percentile(&sorted, tail_q),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }

    /// The tail level as a label such as `p99`.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 100.0).round())
    }
}

/// Median of a non-empty sample (any order).
pub fn median(sample: &[f64]) -> f64 {
    Summary::of(sample).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p50 of 19 is rank 10, leaving 9 beyond: no tail qualifies.
        assert_eq!(tail_level(19), 0.5);
        assert_eq!(tail_level(20), 0.5);
        // p90 of 100 is rank 90, leaving exactly 10 beyond.
        assert_eq!(tail_level(99), 0.5);
        assert_eq!(tail_level(100), 0.9);
        // p99 of 1000 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_level(999), 0.9);
        assert_eq!(tail_level(1000), 0.99);
        assert_eq!(tail_level(0), 0.5);
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let sample: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let s = Summary::of(&sample);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 99.0);
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(s.tail, 179.0);
        assert_eq!(s.tail_label(), "p90");
        assert_eq!(s.mean, 99.5);
    }
}
