//! RAMANI Cloud Analytics: on-the-fly temporal and spatial aggregations.
//!
//! These are the "derived variables" of Section 3.1: moving averages over
//! time (optionally restricted to a season, "summer-time"), spatial central
//! tendency over a region ("city-average"), and anomalies against a
//! long-term mean.

use applab_array::time::civil_from_days;
use applab_array::NdArray;

/// A time series of (epoch seconds, value) samples, time-ordered.
pub type TimeSeries = Vec<(i64, f64)>;

/// Centered moving average with window `k` samples on each side, NaN-aware.
pub fn moving_average(series: &TimeSeries, k: usize) -> TimeSeries {
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(k);
        let hi = (i + k).min(n - 1);
        let window = &series[lo..=hi];
        let (sum, count) = window
            .iter()
            .filter(|(_, v)| !v.is_nan())
            .fold((0.0, 0usize), |(s, c), (_, v)| (s + v, c + 1));
        let avg = if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        };
        out.push((series[i].0, avg));
    }
    out
}

/// Keep only samples whose month (UTC) is in `months` (1-based) — the
/// "summer-time" restriction.
pub fn filter_months(series: &TimeSeries, months: &[u32]) -> TimeSeries {
    series
        .iter()
        .copied()
        .filter(|(t, _)| {
            let days = t.div_euclid(86_400);
            let (_, m, _) = civil_from_days(days);
            months.contains(&m)
        })
        .collect()
}

/// Long-term mean of a series, NaN-aware.
pub fn long_term_mean(series: &TimeSeries) -> f64 {
    let (sum, count) = series
        .iter()
        .filter(|(_, v)| !v.is_nan())
        .fold((0.0, 0usize), |(s, c), (_, v)| (s + v, c + 1));
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// Anomaly series: each value minus the long-term mean.
pub fn anomalies(series: &TimeSeries) -> TimeSeries {
    let mean = long_term_mean(series);
    series.iter().map(|&(t, v)| (t, v - mean)).collect()
}

/// Spatial central tendency over a 2-D (or higher) subset — the
/// "city-average".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentralTendency {
    Mean,
    Median,
    Min,
    Max,
}

/// Reduce an array subset to one number.
pub fn spatial_aggregate(data: &NdArray, how: CentralTendency) -> f64 {
    match how {
        CentralTendency::Mean => data.mean(),
        CentralTendency::Min => data.min(),
        CentralTendency::Max => data.max(),
        CentralTendency::Median => {
            let mut vals: Vec<f64> = data
                .data()
                .iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect();
            if vals.is_empty() {
                return f64::NAN;
            }
            vals.sort_by(f64::total_cmp);
            let mid = vals.len() / 2;
            if vals.len() % 2 == 1 {
                vals[mid]
            } else {
                (vals[mid - 1] + vals[mid]) / 2.0
            }
        }
    }
}

/// Resample a 2-D array to `(rows, cols)` by nearest neighbour — the
/// getMap display path.
pub fn resample_nearest(data: &NdArray, rows: usize, cols: usize) -> NdArray {
    assert_eq!(data.ndim(), 2, "resample_nearest expects a 2-D array");
    let (src_rows, src_cols) = (data.shape()[0], data.shape()[1]);
    let mut out = NdArray::zeros(vec![rows, cols]);
    for r in 0..rows {
        for c in 0..cols {
            let sr = ((r as f64 + 0.5) / rows as f64 * src_rows as f64) as usize;
            let sc = ((c as f64 + 0.5) / cols as f64 * src_cols as f64) as usize;
            let v = data
                .get(&[sr.min(src_rows - 1), sc.min(src_cols - 1)])
                .expect("in bounds");
            out.set(&[r, c], v).expect("in bounds");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        (0..10).map(|i| (i as i64 * 86_400, i as f64)).collect()
    }

    #[test]
    fn moving_average_smooths() {
        let ma = moving_average(&series(), 1);
        assert_eq!(ma.len(), 10);
        assert_eq!(ma[0].1, 0.5); // (0+1)/2
        assert_eq!(ma[5].1, 5.0); // (4+5+6)/3
        assert_eq!(ma[9].1, 8.5); // (8+9)/2
    }

    #[test]
    fn moving_average_skips_nan() {
        let mut s = series();
        s[5].1 = f64::NAN;
        let ma = moving_average(&s, 1);
        assert_eq!(ma[5].1, 5.0); // (4+6)/2
        let all_nan: TimeSeries = vec![(0, f64::NAN)];
        assert!(moving_average(&all_nan, 2)[0].1.is_nan());
    }

    #[test]
    fn summer_filter() {
        // Daily samples over 2017.
        let start = 17_167i64 * 86_400; // 2017-01-01
        let s: TimeSeries = (0..365).map(|d| (start + d * 86_400, d as f64)).collect();
        let summer = filter_months(&s, &[6, 7, 8]);
        assert_eq!(summer.len(), 30 + 31 + 31);
    }

    #[test]
    fn anomalies_sum_to_zero() {
        let a = anomalies(&series());
        let total: f64 = a.iter().map(|(_, v)| v).sum();
        assert!(total.abs() < 1e-9);
    }

    #[test]
    fn central_tendencies() {
        let data = NdArray::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, f64::NAN]).unwrap();
        assert_eq!(spatial_aggregate(&data, CentralTendency::Mean), 3.0);
        assert_eq!(spatial_aggregate(&data, CentralTendency::Median), 3.0);
        assert_eq!(spatial_aggregate(&data, CentralTendency::Min), 1.0);
        assert_eq!(spatial_aggregate(&data, CentralTendency::Max), 5.0);
        let even = NdArray::vector(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(spatial_aggregate(&even, CentralTendency::Median), 2.5);
    }

    #[test]
    fn resampling() {
        let data = NdArray::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let up = resample_nearest(&data, 4, 4);
        assert_eq!(up.shape(), &[4, 4]);
        assert_eq!(up.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(up.get(&[3, 3]).unwrap(), 4.0);
        let down = resample_nearest(&up, 1, 1);
        assert_eq!(down.len(), 1);
    }
}
