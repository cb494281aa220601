//! Sample statistics and the run-to-run comparison rules.
//!
//! Percentiles are exact-rank (a reported value is always a measured
//! sample) and travel with their sample count. The quartile spread
//! reproduces Python's `statistics.quantiles(values, n=4)` — the rule the
//! benchmark's acceptance is judged by — and [`verdict`] is the
//! choosing-metrics §8 rule for claiming that one build beats another.

/// Exact-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it. `p` in `(0, 1]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The conventional median (mean of the two middle samples for an even
/// count): with the handful of rounds a cold run affords, the exact-rank
/// median would always report the faster of the middle pair.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The fastest sample: what a deterministic op costs when nothing else
/// holds the core. On the shared host a core flips, for seconds at a time,
/// between full speed and roughly two thirds of it, so the median of a
/// run lands on either level depending on which lasted longer, while the
/// fastest of dozens of short ops is the full-speed level every time.
/// Blind to what the program does only sometimes — tails stay per-layer
/// metrics — but a change that makes every op slower moves it one to one.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let m = i * (len + 1);
        let j = (m / 4).clamp(1, len - 1);
        let delta = m as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric's bound is held against.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// How a change's runs compare with the parent's on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 9/10 of the pairs and the medians differ by more than the
    /// parent's inter-quartile distance.
    Gain,
    /// The median is worse than the parent's by more than the bound.
    Regression,
    /// Within the bound, and the spread is small enough to say so.
    Unchanged,
    /// The parent's spread exceeds the bound (and the runs do not all
    /// point one way): no claim either way.
    Unresolved,
    /// Fewer than ten pairs: not a comparison yet.
    TooFewPairs,
}

/// Applies the comparison rule to paired runs (`parent[i]` ran beside
/// `change[i]`). `lower_is_better` orients the metric; `bound` is the
/// share of the parent's median by which it may worsen.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        return Verdict::TooFewPairs;
    }
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if wins as f64 >= 0.9 * pairs as f64 && (mc - mp).abs() > q3 - q1 && better(mc, mp) {
        return Verdict::Gain;
    }
    if spread(parent) > bound {
        // Too noisy to call unchanged — unless every run agrees.
        let all_better = parent.iter().all(|p| change.iter().all(|c| better(*c, *p)));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    if worsening > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_rank_percentiles_are_measured_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Five samples: p95 is the maximum, p20 the minimum.
        assert_eq!(percentile(&[5.0, 4.0, 3.0, 2.0, 1.0], 0.95), 5.0);
        assert_eq!(percentile(&[5.0, 4.0, 3.0, 2.0, 1.0], 0.2), 1.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[0.25, 0.125, 0.5]), 0.125);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_section_8_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.2).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().map(|p| p * 1.01).collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Gain);
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Regression);
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::Unchanged);
        // Oriented: for a higher-is-better metric the roles swap.
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Gain);
        assert_eq!(
            verdict(&parent, &faster[..9], true, 0.1),
            Verdict::TooFewPairs
        );
        // A parent noisier than the bound resolves nothing…
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 5.0).collect();
        let shifted: Vec<f64> = noisy.iter().map(|p| p + 3.0).collect();
        assert_eq!(verdict(&noisy, &shifted, true, 0.1), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        let far: Vec<f64> = noisy.iter().map(|p| p * 0.3).collect();
        assert_eq!(verdict(&noisy, &far, true, 0.1), Verdict::Gain);
    }
}
