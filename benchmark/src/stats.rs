//! The benchmark's only estimators: median, nearest-rank quantiles, the
//! highest quantile a sample supports, and the spread measure the A/A
//! mode prints.

/// Quantiles the harness will report, lowest first.
const LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a quantile before it is trusted.
const MIN_BEYOND: usize = 10;

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The 1-based nearest rank of quantile `q` among `n` samples. The small
/// slack keeps `0.999 * 10_000 = 9990.000000000002` from rounding up.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending sample (`0 < q <= 1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(q, sorted.len()) - 1]
}

/// Median, averaging the middle pair of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest quantile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it; the median when none does.
pub fn supported_quantile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && n - rank(q, n) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): the three quartile cut points. The acceptance check takes
/// `(q3 - q1) / median` of ten runs, so the A/A mode prints the same.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The quantile of a cumulative histogram (`bounds[i]` is the upper edge
/// of bucket `i`, `counts` has one more entry for the overflow bucket),
/// interpolated linearly inside the bucket. `None` for an empty histogram.
pub fn histogram_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let next = seen + c as f64;
        if next >= target && c > 0 {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            // The overflow bucket has no upper edge: report its lower one.
            let hi = bounds.get(i).copied().unwrap_or(lo);
            return Some(lo + (hi - lo) * (target - seen) / c as f64);
        }
        seen = next;
    }
    bounds.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_quantile_needs_ten_samples_beyond_it() {
        // 200 samples: p95 leaves exactly 10 above it, p99 only 2.
        assert_eq!(supported_quantile(200), 0.95);
        assert_eq!(supported_quantile(199), 0.9);
        assert_eq!(supported_quantile(1000), 0.99);
        assert_eq!(supported_quantile(999), 0.95);
        assert_eq!(supported_quantile(10_000), 0.999);
        assert_eq!(supported_quantile(20), 0.5);
        assert_eq!(supported_quantile(19), 0.5, "falls back to the median");
        assert_eq!(supported_quantile(40), 0.75);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn histogram_quantile_interpolates() {
        let bounds = [0.001, 0.01];
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0], 0.95), None);
        // 100 observations, all in the first bucket: p95 is 95 % of it.
        let p = histogram_quantile(&bounds, &[100, 0, 0], 0.95).unwrap();
        assert!((p - 0.00095).abs() < 1e-12);
        // Half below 1 ms, half in (1 ms, 10 ms]: p75 sits mid-bucket.
        let p = histogram_quantile(&bounds, &[50, 50, 0], 0.75).unwrap();
        assert!((p - 0.0055).abs() < 1e-12);
    }
}
