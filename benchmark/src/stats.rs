//! Order statistics around the product's ONE percentile convention
//! (`cloudprov_trace::metrics::percentile`, nearest rank): the rank itself,
//! the sample-count rule that decides which percentile a sample set may be
//! quoted at, and the median / quartile arithmetic `compare` needs.

use std::time::Duration;

/// A percentile may be quoted only when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, clamped into
/// `1..=n` (`n` must be non-zero).
pub fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of unordered durations, in milliseconds, by
/// the product's own implementation.
pub fn percentile_ms(samples: &[Duration], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    cloudprov_trace::metrics::percentile(&sorted, p).as_secs_f64() * 1e3
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] beyond
/// percentile `p` — p99 needs n ≥ 1000.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= SAMPLES_BEYOND
}

/// Median of unordered values (mean of the middle two when even); zero
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; zero when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// measures run-to-run spread. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let at = |q: usize| {
                let pos = q * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile distance as a share of the median (zero for a zero
/// median).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_product_convention() {
        let ms = |n| Duration::from_millis(n);
        let sorted: Vec<Duration> = (1..=4).map(ms).collect();
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(
                sorted[nearest_rank(sorted.len(), p) - 1],
                cloudprov_trace::metrics::percentile(&sorted, p),
                "p{p}"
            );
        }
        let shuffled = [ms(3), ms(1), ms(4), ms(2)];
        assert_eq!(
            percentile_ms(&shuffled, 50.0),
            2.0,
            "p50 of four is the second"
        );
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        assert_eq!(nearest_rank(1000, 99.0), 990);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(0, 50.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        // 288 commits (the read workloads' writers) support p96.5, not p99.
        assert!(percentile_supported(288, 96.5) && !percentile_supported(288, 96.6));
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
