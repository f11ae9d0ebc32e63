//! Order statistics used by the runner and by `compare`: one quantile rule
//! for reps, latency pools and sets of runs.

/// The `p`-quantile (`p` in `[0, 1]`) of an already sorted, non-empty
/// sample by the exclusive method — position `p·(n + 1)`, interpolating
/// between the two neighbouring order statistics and never beyond the
/// smallest or largest.  For `p` = ¼, ½, ¾ and three or more values these
/// are the cut points of Python's `statistics.quantiles(values, n=4)`,
/// which is what the driver judges spreads with.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p.clamp(0.0, 1.0) * (n + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// [`quantile_sorted`] of an unsorted sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, p)
}

/// Median of a sample (mean of the two middle values for even sizes).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p| quantile_sorted(&v, p);
    (q(0.25), q(0.5), q(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_and_never_leave_the_sample() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert!((quantile(&v, 0.99) - 19.0).abs() < 1e-12);
        // Three reps (the minimum): the first decile is the smallest, the
        // ninth the largest — no extrapolation below or above.
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.1), 1.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.9), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }
}
