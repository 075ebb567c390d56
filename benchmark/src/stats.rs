//! Order statistics over samples and over rounds.

/// The `q`-quantile (0..=1) of `sorted`, interpolating linearly between
/// neighbours. Empty input reads as 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending (samples are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of unsorted values; this is how per-round statistics become
/// the reported value.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them. Fewer than two values have no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // The "exclusive" method: position k(n+1)/4, counted from 1.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = percentile(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / mid).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn round_median_ignores_one_bad_round() {
        assert_eq!(median(&[5.0, 100.0, 4.0, 6.0, 5.5]), 5.5);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11, 12, 14], n=4) == [10.25, 11.5, 13.5]
        assert!((quartile_spread(&[12.0, 10.0, 14.0, 11.0]) - 3.25 / 11.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
