//! Exact order statistics over raw samples.
//!
//! Percentiles here are read off the sorted samples themselves (nearest
//! rank), never from histogram buckets, so a change to the program's own
//! histogram cannot move the benchmark's numbers.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `sorted`: the smallest
/// sample with at least `p` of all samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "quantile {p} outside (0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50, p90, p99, p99.9, p99.99 that has at least ten
/// samples above its rank, as `(p, value)`; `None` when even p50 has not.
#[must_use]
pub fn highest_supported(sorted: &[u64]) -> Option<(f64, u64)> {
    [0.5, 0.9, 0.99, 0.999, 0.9999]
        .into_iter()
        .rev()
        .find(|&p| !sorted.is_empty() && sorted.len() - rank(sorted.len(), p) >= 10)
        .map(|p| (p, percentile(sorted, p)))
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest and largest of `values`, for the per-run range lines.
#[must_use]
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the smallest sample `x` such that at least `p·n`
    /// samples are `<= x`, found by scanning.
    fn reference(samples: &[u64], p: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let need = p * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn matches_sorted_vector_reference() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 1013] {
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % 50
                })
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&sorted, p),
                    reference(&samples, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn exact_values_are_not_rounded_to_buckets() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&[11; 7], 0.5), 11);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        let sorted: Vec<u64> = (0..1000).collect();
        // p99 has rank 990, leaving exactly ten above; p99.9 leaves one.
        assert_eq!(highest_supported(&sorted), Some((0.99, 989)));
        assert_eq!(highest_supported(&sorted[..100]), Some((0.9, 89)));
        assert_eq!(highest_supported(&sorted[..10]), None);
        assert_eq!(highest_supported(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
