//! Summary statistics for latency samples: the median and the tail rule.
//!
//! A tail is reported at the highest percentile that still has at least
//! [`MIN_BEYOND`] samples beyond it, capped at p90. With the
//! [`MIN_SAMPLES`] every latency class collects per run, that is exactly
//! the nearest-rank p90.

/// Samples that must lie strictly beyond a reported tail value.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile reported when the sample count allows it.
pub const TAIL_Q: f64 = 0.90;

/// Samples per latency class and run: the smallest count whose
/// nearest-rank p90 has [`MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two central values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Zero-based sorted index of the reported tail for `n` samples: the
/// nearest-rank [`TAIL_Q`] percentile, lowered until [`MIN_BEYOND`]
/// samples sit above it.
///
/// # Panics
///
/// Panics when `n <= MIN_BEYOND` (no index has enough samples beyond it).
#[must_use]
pub fn tail_index(n: usize) -> usize {
    assert!(n > MIN_BEYOND, "{n} samples cannot carry a tail");
    let rank = ((TAIL_Q * n as f64).ceil() as usize).max(1);
    (rank - 1).min(n - 1 - MIN_BEYOND)
}

/// The reported tail value (see [`tail_index`]).
#[must_use]
pub fn tail(xs: &[f64]) -> f64 {
    sorted(xs)[tail_index(xs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_tail_always_has_ten_samples_beyond_it() {
        for n in MIN_BEYOND + 1..2_000 {
            let beyond = n - 1 - tail_index(n);
            assert!(beyond >= MIN_BEYOND, "n={n}: only {beyond} beyond");
        }
    }

    #[test]
    fn from_the_minimum_sample_count_on_the_tail_is_the_nearest_rank_p90() {
        for n in MIN_SAMPLES..2_000 {
            let nearest_rank = (0.9 * n as f64).ceil() as usize - 1;
            assert_eq!(tail_index(n), nearest_rank, "n={n}");
        }
        // One sample fewer and p90 would have only nine samples beyond it.
        let n = MIN_SAMPLES - 1;
        assert!(tail_index(n) < (0.9 * n as f64).ceil() as usize - 1);
    }

    #[test]
    fn tail_and_median_of_a_known_sample() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), 90.0);
        assert_eq!(median(&xs), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
