//! Descriptive statistics: mean, variance, percentiles, CDF sampling,
//! min-max normalisation, Pearson correlation. These back the detection
//! layer's normalised-performance computation and the evaluation harness's
//! standard-deviation reporting (e.g. paper Fig. 16's CDF and the
//! "σ reduced by 73.5 %" results).


/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (n − 1 denominator); 0 for fewer than two points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Linear-interpolated percentile, `p` in [0, 100]. Panics on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Sample the empirical CDF at `n` evenly spaced percentiles; returns
/// `(percentile, value)` pairs — the series plotted in paper Fig. 16.
pub fn cdf_points(xs: &[f64], n: usize) -> Vec<(f64, f64)> {
    assert!(n >= 2, "need at least two CDF points");
    (0..n)
        .map(|i| {
            let p = 100.0 * i as f64 / (n - 1) as f64;
            (p, percentile(xs, p))
        })
        .collect()
}

/// Min-max normalise into [0, 1] in place. A constant vector maps to all
/// zeros (the paper normalises each diagnosis factor to [0, 1] before OLS).
pub fn min_max_normalize(xs: &mut [f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    if span <= 0.0 {
        xs.iter_mut().for_each(|x| *x = 0.0);
    } else {
        xs.iter_mut().for_each(|x| *x = (*x - lo) / span);
    }
    (lo, hi)
}

/// Pearson correlation coefficient of two equally long slices.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson length mismatch");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// One-line summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample; `None` when empty.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        Some(Summary {
            n: xs.len(),
            mean: mean(xs),
            std_dev: std_dev(xs),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            median: percentile(xs, 50.0),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Coefficient of variation σ/μ (0 when the mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(percentile(&a, 50.0), percentile(&b, 50.0));
    }

    #[test]
    fn cdf_points_are_monotone() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let pts = cdf_points(&xs, 11);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn min_max_normalize_range_and_constant_case() {
        let mut xs = [10.0, 20.0, 15.0];
        min_max_normalize(&mut xs);
        assert_eq!(xs, [0.0, 1.0, 0.5]);
        let mut c = [7.0, 7.0];
        min_max_normalize(&mut c);
        assert_eq!(c, [0.0, 0.0]);
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_is_zero() {
        let x = [1.0, 2.0, 3.0];
        let y = [5.0, 5.0, 5.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn summary_matches_components() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert!(s.cv() > 1.0);
        assert!(Summary::of(&[]).is_none());
    }
}
