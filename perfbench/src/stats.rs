//! Summary statistics for timings: medians, checked percentiles and
//! geometric means.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample a quarter of the way up the sorted order (0-based index
/// `(n - 1) / 4`, so the minimum for up to four samples); 0 for none.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    v.get(v.len().saturating_sub(1) / 4).copied().unwrap_or(0.0)
}

/// The mirror of [`lower_quartile`]: index `n - 1 - (n - 1) / 4`.
pub fn upper_quartile(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    v.get(n.saturating_sub(1) - n.saturating_sub(1) / 4)
        .copied()
        .unwrap_or(0.0)
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples.
pub fn beyond(n: usize, pct: usize) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The nearest-rank `pct` percentile (`0 < pct < 100`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a tail figure
/// resting on a handful of samples is not reported.
pub fn percentile(xs: &[f64], pct: usize) -> Option<f64> {
    if beyond(xs.len(), pct) < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank(xs.len(), pct) - 1])
}

/// The `pct` percentile of times observed by a poller that looks every
/// `step`: each sample `v` stands for an end spread evenly over
/// `(v - step, v]`, and the percentile is where that spread-out
/// distribution reaches `pct` (the grouped-data estimate). A sample
/// moving by one step moves the result by a fraction of a step, not by
/// a whole one. `None` under the same rule as [`percentile`].
pub fn stepped_percentile(xs: &[f64], pct: usize, step: f64) -> Option<f64> {
    if beyond(xs.len(), pct) < MIN_BEYOND {
        return None;
    }
    let v = sorted(xs);
    let target = (pct * v.len()) as f64 / 100.0;
    let mass_below = |x: f64| -> f64 {
        v.iter()
            .map(|&s| ((x - (s - step)) / step).clamp(0.0, 1.0))
            .sum()
    };
    // Bisect on the mass below `x`, which rises monotonically from 0 at
    // `v[0] - step` to the sample count at the last sample.
    let (mut lo, mut hi) = (v[0] - step, v[v.len() - 1]);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if mass_below(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Geometric mean of strictly positive values; 0 when any is not.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_mirror_each_other() {
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 4.0);
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 3.0);
        assert_eq!(upper_quartile(&xs), 10.0);
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(upper_quartile(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(percentile(&xs, 90), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(percentile(&xs, 90), Some(90.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(10.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn stepped_percentiles_interpolate_across_the_step() {
        let close = |a: Option<f64>, b: f64| (a.unwrap() - b).abs() < 1e-9;
        let mut xs = vec![4.0; 50];
        xs.extend(vec![8.0; 50]);
        assert!(close(stepped_percentile(&xs, 50, 4.0), 4.0));
        assert!(close(stepped_percentile(&xs, 90, 4.0), 7.2));
        // One sample moving up a step moves the p50 by a fraction of it.
        xs[0] = 8.0;
        assert!(close(stepped_percentile(&xs, 50, 4.0), 4.0 + 4.0 / 51.0));
        let xs = vec![8.0; 40];
        assert!(close(stepped_percentile(&xs, 50, 4.0), 6.0));
        assert_eq!(stepped_percentile(&xs[..19], 50, 4.0), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
