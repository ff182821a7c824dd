//! Closed-form reproduction of the paper's §2 motivating analysis:
//! component busy fractions under overlapped computations, and the
//! capacitance conditions under which the multi-clock scheme wins —
//! plus the Monte-Carlo summary statistics behind multi-seed power
//! estimation (mean, variance and 95 % confidence interval).

/// Busy fraction of a component that operates in `busy_steps` of a `t`-step
/// behaviour whose consecutive computations overlap by `overlap` steps
/// (the paper overlaps the first and last step: `overlap = 1`, giving an
/// effective period of `t - overlap`).
///
/// For the §2.2 example (`t = 5`, overlap 1): a Circuit 1 ALU busy in 3
/// steps is busy 3/4 = 75 % of the time; a Circuit 2 ALU busy in 2 steps
/// is busy 2/4 = 50 %.
///
/// # Panics
///
/// Panics if `overlap >= t`.
#[must_use]
pub fn busy_fraction(busy_steps: u32, t: u32, overlap: u32) -> f64 {
    assert!(overlap < t, "overlap must leave a positive period");
    f64::from(busy_steps) / f64::from(t - overlap)
}

/// §2.1, no power management: the `n`-clock circuit beats the single-clock
/// circuit when the sum of its partition capacitances is below `n` times
/// the single-clock capacitance (`C21 + C22 < 2·C1` for two clocks).
#[must_use]
pub fn wins_without_power_management(partition_caps: &[f64], single_clock_cap: f64) -> bool {
    let sum: f64 = partition_caps.iter().sum();
    sum < partition_caps.len() as f64 * single_clock_cap
}

/// §2.2, against conventional gated-clock management: with the paper's
/// accounting `P1 = busy1·C1·V²·f` and `Pn = busy_n·ΣC·V²·f` (the phase
/// frequency `f/n` is already folded into the busy fraction), the scheme
/// wins when `busy_n · ΣC_partitions < busy1 · C1`. The paper's
/// `C21 + C22 < 3/2·C1` instantiates `busy1 = 3/4`, `busy_n = 1/2`.
#[must_use]
pub fn wins_against_gated_clocks(
    partition_caps: &[f64],
    single_clock_cap: f64,
    busy1: f64,
    busy_n: f64,
) -> bool {
    let sum: f64 = partition_caps.iter().sum();
    busy_n * sum < busy1 * single_clock_cap
}

/// The capacitance headroom of the multi-clock scheme vs. gated clocks:
/// the largest `ΣC_partitions / C1` ratio that still saves power
/// (`busy1 / busy_n`; 3/2 for the paper's example).
#[must_use]
pub fn capacitance_headroom(busy1: f64, busy_n: f64) -> f64 {
    busy1 / busy_n
}

/// The paper's crude §2.2 estimate of the power difference between the
/// conventionally managed Circuit 1 and the two-clock Circuit 2:
/// `P1 − P2 ≈ 3/4·C_R·V²·f` (register capacitance `C_R`, supply `v`,
/// frequency `f_mhz` in MHz; result in mW).
#[must_use]
pub fn crude_register_advantage_mw(c_r_pf: f64, v: f64, f_mhz: f64) -> f64 {
    0.75 * c_r_pf * v * v * f_mhz / 1000.0
}

/// Summary statistics of a Monte-Carlo sample set (per-seed power
/// totals, typically).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloStats {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (`n − 1` denominator; 0 for `n < 2`).
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95 % confidence interval,
    /// `1.96·s/√n` (0 for `n < 2`).
    pub ci95_half_width: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Computes mean, unbiased variance and the 95 % CI half-width of
/// `samples`. Summation runs in slice order, so identical inputs yield
/// bit-identical statistics.
#[must_use]
pub fn monte_carlo_stats(samples: &[f64]) -> MonteCarloStats {
    let n = samples.len();
    if n == 0 {
        return MonteCarloStats {
            mean: 0.0,
            variance: 0.0,
            std_dev: 0.0,
            ci95_half_width: 0.0,
            samples: 0,
        };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let variance = if n < 2 {
        0.0
    } else {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
    };
    let std_dev = variance.sqrt();
    let ci95_half_width = if n < 2 {
        0.0
    } else {
        1.96 * std_dev / (n as f64).sqrt()
    };
    MonteCarloStats {
        mean,
        variance,
        std_dev,
        ci95_half_width,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_busy_fractions() {
        // Circuit 1 ALUs: busy 3 steps of an overlapped 5-step behaviour.
        assert!((busy_fraction(3, 5, 1) - 0.75).abs() < 1e-12);
        // Circuit 2 components: busy 2 steps.
        assert!((busy_fraction(2, 5, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn full_overlap_panics() {
        let _ = busy_fraction(1, 3, 3);
    }

    #[test]
    fn no_pm_condition_matches_paper() {
        // C21 + C22 < 2 C1.
        assert!(wins_without_power_management(&[0.8, 1.0], 1.0));
        assert!(!wins_without_power_management(&[1.2, 1.0], 1.0));
    }

    #[test]
    fn gated_condition_matches_paper() {
        // C21 + C22 < 3/2 C1 with busy fractions 3/4 and 1/2.
        assert!(wins_against_gated_clocks(&[0.7, 0.7], 1.0, 0.75, 0.5));
        assert!(!wins_against_gated_clocks(&[0.8, 0.8], 1.0, 0.75, 0.5));
        assert!((capacitance_headroom(0.75, 0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn crude_advantage_is_positive() {
        let adv = crude_register_advantage_mw(0.5, 4.65, 20.0);
        assert!(adv > 0.0);
        // 0.75 × 0.5 pF × 21.6 V² × 20 MHz = 162 µW.
        assert!((adv - 0.75 * 0.5 * 4.65 * 4.65 * 20.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_stats_match_hand_computation() {
        let s = monte_carlo_stats(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.samples, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Unbiased variance of 1..4 is 5/3.
        assert!((s.variance - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.ci95_half_width - 1.96 * s.std_dev / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sample_sets_are_safe() {
        let empty = monte_carlo_stats(&[]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.mean, 0.0);
        let one = monte_carlo_stats(&[7.0]);
        assert_eq!(one.variance, 0.0);
        assert_eq!(one.ci95_half_width, 0.0);
    }

    #[test]
    fn single_sample_stats_are_zero_not_nan() {
        // Regression: the n−1 variance denominator must not be applied at
        // n = 1, where it would produce 0/0 = NaN std and CI.
        let one = monte_carlo_stats(&[3.25]);
        assert_eq!(one.samples, 1);
        assert_eq!(one.mean, 3.25);
        assert_eq!(one.std_dev, 0.0, "std must be exactly 0, not NaN");
        assert_eq!(one.ci95_half_width, 0.0, "CI must be exactly 0, not NaN");
        assert!(one.std_dev.is_finite() && one.ci95_half_width.is_finite());
    }
}
