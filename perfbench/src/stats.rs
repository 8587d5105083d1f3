//! Quantiles from raw samples.
//!
//! Every percentile the benchmark reports comes from here: the samples
//! are sorted and the quantile is interpolated linearly between the two
//! nearest order statistics, then clamped to `[min, max]`. The engine's
//! `LatencyHistogram::snapshot` quantiles are never read — they report
//! the upper edge of a log₂ bucket and can exceed the recorded maximum.

/// A quantile of `samples` by linear interpolation between closest
/// ranks (`q` in `[0, 1]`), clamped to the sample range. `NaN` when
/// there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

/// [`quantile`] over samples already sorted ascending.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) else {
        return f64::NAN;
    };
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64);
    value.clamp(min, max)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile of each run of about `window` consecutive samples:
/// the samples split into `max(1, len / window)` runs of equal length
/// (within one), in order. Empty when there are no samples.
#[must_use]
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    let n = (samples.len() / window.max(1)).max(1);
    if samples.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|i| quantile(&samples[i * samples.len() / n..(i + 1) * samples.len() / n], q))
        .collect()
}

/// The arithmetic mean (`NaN` when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mogs_engine::LatencyHistogram;
    use std::time::Duration;

    #[test]
    fn interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&xs, 0.5) - 50.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&a, 0.25), 2.0);
        assert_eq!(median(&a), 3.0);
    }

    #[test]
    fn window_quantiles_split_in_order() {
        let xs: Vec<f64> = (0..250).map(f64::from).collect();
        // 250 / 100 = 2 windows of 125 samples each.
        let w = window_quantiles(&xs, 100, 1.0);
        assert_eq!(w, vec![124.0, 249.0]);
        assert_eq!(window_quantiles(&xs[..30], 100, 0.0), vec![0.0]);
        assert!(window_quantiles(&[], 100, 0.5).is_empty());
        // A burst confined to one of five windows leaves the median of
        // the windows' p95 where the quiet windows put it.
        let mut burst: Vec<f64> = (0..500).map(|i| f64::from(i % 100)).collect();
        for x in &mut burst[100..200] {
            *x += 1000.0;
        }
        let p95 = median(&window_quantiles(&burst, 100, 0.95));
        assert!((p95 - 94.05).abs() < 1e-9, "{p95}");
    }

    #[test]
    fn quantiles_stay_within_the_sample_range() {
        // The shape that breaks bucket-edge quantiles: a few samples
        // just above a power of two.
        let xs = [1025.0, 1030.0, 1100.0, 1500.0, 2000.0, 22_323.0];
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let v = quantile(&xs, q);
            assert!((1025.0..=22_323.0).contains(&v), "q{q} = {v}");
        }
    }

    /// The engine histogram's snapshot quantiles are bucket upper edges
    /// and can exceed the recorded max; the benchmark's quantiles over
    /// the same raw samples cannot. Only the histogram's count, total
    /// and max are read by the benchmark.
    #[test]
    fn raw_sample_quantiles_never_exceed_the_histogram_max() {
        let hist = LatencyHistogram::new();
        let us = [9_000u64, 10_000, 11_000, 12_000, 22_323];
        for &u in &us {
            hist.record(Duration::from_micros(u));
        }
        let snap = hist.snapshot();
        let samples: Vec<f64> = us.iter().map(|&u| u as f64).collect();
        let p99 = quantile(&samples, 0.99);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.max_us, 22_323);
        assert!(p99 <= snap.max_us as f64);
        assert!((mean(&samples) - snap.total_us as f64 / snap.count as f64).abs() < 1e-9);
    }
}
