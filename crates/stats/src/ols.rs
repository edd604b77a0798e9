//! Multivariate ordinary least squares.
//!
//! The paper's OLS-based statistical method (§4.2) regresses fragment
//! execution time on normalised factor counters to estimate each factor's
//! time impact, keeping only factors significant at p < 0.05. This module
//! provides a full OLS fit: coefficients, residual variance, standard
//! errors, t-statistics, two-sided p-values, and R².

use crate::dist::t_sf_two_sided;
use crate::matrix::Matrix;

/// One fitted term (a column of the design matrix).
#[derive(Debug, Clone, PartialEq)]
pub struct OlsTerm {
    /// Estimated coefficient β̂.
    pub coef: f64,
    /// Standard error of β̂.
    pub std_err: f64,
    /// t-statistic β̂ / se(β̂).
    pub t_stat: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl OlsTerm {
    /// Significance test at the given α (the paper uses 0.05).
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// Two-sided `(1 − alpha)` confidence interval for the coefficient
    /// given the fit's residual degrees of freedom.
    pub fn confidence_interval(&self, alpha: f64, df_resid: usize) -> (f64, f64) {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha out of range");
        let t = crate::dist::t_quantile(1.0 - alpha / 2.0, df_resid as f64);
        (self.coef - t * self.std_err, self.coef + t * self.std_err)
    }
}

/// A complete OLS fit of `y ~ X` (plus optional intercept).
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Per-column terms, in design-matrix column order. When fitted with
    /// an intercept, index 0 is the intercept.
    pub terms: Vec<OlsTerm>,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Residual degrees of freedom (n − k).
    pub df_resid: usize,
    /// Residual standard error.
    pub resid_std_err: f64,
    /// Whether an intercept column was prepended.
    pub has_intercept: bool,
}

impl OlsFit {
    /// Fit `y` against the columns of `x` (`x[j]` is the j-th explanatory
    /// variable, all of length n). Returns `None` when the system is
    /// rank-deficient or has non-positive residual degrees of freedom.
    pub fn fit(x: &[Vec<f64>], y: &[f64], intercept: bool) -> Option<OlsFit> {
        let n = y.len();
        let k_vars = x.len();
        let k = k_vars + usize::from(intercept);
        if n <= k || k == 0 {
            return None;
        }
        for col in x {
            assert_eq!(col.len(), n, "design column length mismatch");
        }

        // Build design matrix.
        let mut design = Matrix::zeros(n, k);
        for i in 0..n {
            let mut j = 0;
            if intercept {
                design[(i, 0)] = 1.0;
                j = 1;
            }
            for (c, col) in x.iter().enumerate() {
                design[(i, j + c)] = col[i];
            }
        }

        let xt = design.transpose();
        let xtx = xt.matmul(&design);
        let xtx_inv = xtx.inverse()?;
        let xty = xt.matmul(&Matrix::column(y));
        let beta = xtx_inv.matmul(&xty);

        // Residuals.
        let yhat = design.matmul(&beta);
        let mut ss_res = 0.0;
        let ybar = crate::describe::mean(y);
        let mut ss_tot = 0.0;
        for i in 0..n {
            let r = y[i] - yhat[(i, 0)];
            ss_res += r * r;
            ss_tot += (y[i] - ybar).powi(2);
        }
        let df_resid = n - k;
        let sigma2 = ss_res / df_resid as f64;
        let r_squared = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };

        let df = df_resid as f64;
        let terms = (0..k)
            .map(|j| {
                let var = (sigma2 * xtx_inv[(j, j)]).max(0.0);
                let se = var.sqrt();
                let coef = beta[(j, 0)];
                let (t, p) = if se > 0.0 {
                    let t = coef / se;
                    (t, t_sf_two_sided(t, df))
                } else {
                    // A zero-variance (exactly determined) coefficient:
                    // infinitely significant if nonzero.
                    if coef.abs() > 1e-12 {
                        (f64::INFINITY, 0.0)
                    } else {
                        (0.0, 1.0)
                    }
                };
                OlsTerm { coef, std_err: se, t_stat: t, p_value: p }
            })
            .collect();

        Some(OlsFit {
            terms,
            r_squared,
            df_resid,
            resid_std_err: sigma2.sqrt(),
            has_intercept: intercept,
        })
    }

    /// The terms for the explanatory variables only (skipping any intercept).
    pub fn var_terms(&self) -> &[OlsTerm] {
        if self.has_intercept {
            &self.terms[1..]
        } else {
            &self.terms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        // y = 3 + 2x, no noise.
        let x = vec![vec![0.0, 1.0, 2.0, 3.0, 4.0]];
        let y = vec![3.0, 5.0, 7.0, 9.0, 11.0];
        let fit = OlsFit::fit(&x, &y, true).unwrap();
        assert!((fit.terms[0].coef - 3.0).abs() < 1e-10);
        assert!((fit.terms[1].coef - 2.0).abs() < 1e-10);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn two_variable_plane() {
        // y = 1 + 2a - 3b over a small grid.
        let mut a = vec![];
        let mut b = vec![];
        let mut y = vec![];
        for i in 0..4 {
            for j in 0..4 {
                a.push(i as f64);
                b.push(j as f64);
                y.push(1.0 + 2.0 * i as f64 - 3.0 * j as f64);
            }
        }
        let fit = OlsFit::fit(&[a, b], &y, true).unwrap();
        assert!((fit.terms[1].coef - 2.0).abs() < 1e-10);
        assert!((fit.terms[2].coef + 3.0).abs() < 1e-10);
    }

    #[test]
    fn noisy_fit_flags_significant_and_insignificant_terms() {
        // y = 10 + 5x1 + noise; x2 is irrelevant. Deterministic pseudo-noise.
        let n = 60;
        let x1: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let noise = (((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.5) * 2.0;
                10.0 + 5.0 * x1[i] + noise
            })
            .collect();
        let fit = OlsFit::fit(&[x1, x2], &y, true).unwrap();
        let terms = fit.var_terms();
        assert!(terms[0].significant(0.05), "x1 p={}", terms[0].p_value);
        assert!(!terms[1].significant(0.05), "x2 p={}", terms[1].p_value);
        assert!((terms[0].coef - 5.0).abs() < 0.2);
    }

    #[test]
    fn collinear_design_is_rejected() {
        let x1 = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x2: Vec<f64> = x1.iter().map(|v| 2.0 * v).collect();
        let y = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(OlsFit::fit(&[x1, x2], &y, true).is_none());
    }

    #[test]
    fn underdetermined_system_is_rejected() {
        let x = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let y = vec![1.0, 2.0];
        assert!(OlsFit::fit(&x, &y, true).is_none());
    }

    #[test]
    fn confidence_intervals_cover_the_true_coefficient() {
        // y = 10 + 5x + deterministic pseudo-noise: the 95 % CI of the
        // slope should contain 5 and exclude 0.
        let n = 60;
        let x1: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let noise = (((i * 2654435761_usize) % 1000) as f64 / 1000.0 - 0.5) * 2.0;
                10.0 + 5.0 * x1[i] + noise
            })
            .collect();
        let fit = OlsFit::fit(&[x1], &y, true).unwrap();
        let (lo, hi) = fit.var_terms()[0].confidence_interval(0.05, fit.df_resid);
        assert!(lo < 5.0 && 5.0 < hi, "CI ({lo}, {hi}) misses 5");
        assert!(lo > 0.0, "CI should exclude 0: ({lo}, {hi})");
        // Tighter alpha → wider interval.
        let (lo99, hi99) = fit.var_terms()[0].confidence_interval(0.01, fit.df_resid);
        assert!(lo99 < lo && hi99 > hi);
    }

    #[test]
    fn no_intercept_fit() {
        // y = 4x exactly through origin.
        let x = vec![vec![1.0, 2.0, 3.0]];
        let y = vec![4.0, 8.0, 12.0];
        let fit = OlsFit::fit(&x, &y, false).unwrap();
        assert_eq!(fit.terms.len(), 1);
        assert!((fit.terms[0].coef - 4.0).abs() < 1e-10);
        assert_eq!(fit.var_terms().len(), 1);
    }

    #[test]
    fn r_squared_decreases_with_pure_noise_target() {
        let x = vec![(0..40).map(|i| i as f64).collect::<Vec<_>>()];
        let y: Vec<f64> = (0..40).map(|i| ((i * 31) % 17) as f64).collect();
        let fit = OlsFit::fit(&x, &y, true).unwrap();
        assert!(fit.r_squared < 0.3);
    }
}
