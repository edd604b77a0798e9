//! The Farrar–Glauber test for multicollinearity, plus the stepwise
//! factor-removal procedure Vapro applies before OLS (paper §4.2): when
//! explanatory factors are linearly related (e.g. a user-space page fault
//! is also a context switch), OLS coefficients become unstable, so Vapro
//! removes multicollinear factors one by one until the test passes, later
//! recovering the removed factors' coefficients through their correlation
//! with the retained ones.

use crate::describe::pearson;
use crate::dist::chi2_sf;
use crate::matrix::Matrix;

/// Result of one Farrar–Glauber chi-square test.
#[derive(Debug, Clone, PartialEq)]
pub struct FarrarGlauber {
    /// The χ² statistic: −(n − 1 − (2k + 5)/6) · ln det R.
    pub chi2: f64,
    /// Degrees of freedom k(k − 1)/2.
    pub df: f64,
    /// p-value of the test; a *small* p-value means multicollinearity is
    /// present.
    pub p_value: f64,
    /// Determinant of the correlation matrix (1 = orthogonal, 0 = singular).
    pub det_r: f64,
}

impl FarrarGlauber {
    /// Run the test on the columns of `x` (each of length n). Returns
    /// `None` when there are fewer than 2 usable columns or fewer than
    /// 3 observations.
    pub fn test(x: &[Vec<f64>]) -> Option<FarrarGlauber> {
        let k = x.len();
        if k < 2 {
            return None;
        }
        let n = x[0].len();
        if n < 3 {
            return None;
        }
        let r = correlation_matrix(x);
        let det_r = r.determinant().clamp(0.0, 1.0);
        let kf = k as f64;
        let nf = n as f64;
        let scale = nf - 1.0 - (2.0 * kf + 5.0) / 6.0;
        let chi2 = if det_r <= f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            -scale * det_r.ln()
        };
        let df = kf * (kf - 1.0) / 2.0;
        let p_value = if chi2.is_infinite() { 0.0 } else { chi2_sf(chi2, df) };
        Some(FarrarGlauber { chi2, df, p_value, det_r })
    }

    /// Whether multicollinearity is detected at significance `alpha`.
    pub fn multicollinear(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Pearson correlation matrix of the columns of `x`.
pub fn correlation_matrix(x: &[Vec<f64>]) -> Matrix {
    let k = x.len();
    let mut r = Matrix::identity(k);
    for i in 0..k {
        for j in (i + 1)..k {
            let c = pearson(&x[i], &x[j]);
            r[(i, j)] = c;
            r[(j, i)] = c;
        }
    }
    r
}

/// Variance inflation factors: VIF_j = 1 / (1 − R²_j) where R²_j is from
/// regressing column j on the others; computed via the inverse correlation
/// matrix diagonal. `None` when the correlation matrix is singular.
pub fn vif(x: &[Vec<f64>]) -> Option<Vec<f64>> {
    let r = correlation_matrix(x);
    let inv = r.inverse()?;
    Some((0..x.len()).map(|j| inv[(j, j)].max(1.0)).collect())
}

/// Outcome of the stepwise multicollinearity-removal procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct FgOutcome {
    /// Indices (into the original column list) kept for OLS.
    pub kept: Vec<usize>,
    /// Indices removed, in removal order, each with the index of the kept
    /// column it was most correlated with and that correlation — used to
    /// back-fill coefficients for removed factors.
    pub removed: Vec<RemovedFactor>,
}

/// A factor removed due to multicollinearity.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedFactor {
    /// Original column index of the removed factor.
    pub index: usize,
    /// Kept column it is most correlated with.
    pub proxy: usize,
    /// Pearson correlation with the proxy (signed).
    pub correlation: f64,
}

/// VIF threshold below which a factor is not considered harmful even when
/// the global FG test rejects: the χ² statistic scales with n, so at large
/// sample sizes it flags even moderate correlations that OLS handles fine.
/// VIF > 5 is the standard econometric cut-off.
pub const VIF_REMOVAL_THRESHOLD: f64 = 5.0;

/// Remove columns one at a time — always the one with the highest VIF —
/// until the Farrar–Glauber test no longer rejects at `alpha` (or no
/// remaining factor exceeds [`VIF_REMOVAL_THRESHOLD`]), mirroring the
/// paper's "removes the multicorrelated factors one-by-one until
/// multicollinearity does not exist in OLS".
///
/// Constant (zero-variance) columns are removed first: they carry no
/// information for OLS and break the correlation matrix.
pub fn remove_multicollinear(x: &[Vec<f64>], alpha: f64) -> FgOutcome {
    let mut kept: Vec<usize> = Vec::with_capacity(x.len());
    let mut removed: Vec<RemovedFactor> = Vec::with_capacity(x.len());

    for (j, col) in x.iter().enumerate() {
        if crate::describe::variance(col) > 0.0 {
            kept.push(j);
        } else {
            removed.push(RemovedFactor { index: j, proxy: usize::MAX, correlation: 0.0 });
        }
    }

    loop {
        if kept.len() < 2 {
            break;
        }
        // vapro-lint: allow(R6, per-round column copies for the FG test; factor count is bounded by counters, not stream size)
        let cols: Vec<Vec<f64>> = kept.iter().map(|&j| x[j].clone()).collect();
        let fg = match FarrarGlauber::test(&cols) {
            Some(fg) => fg,
            None => break,
        };
        if !fg.multicollinear(alpha) {
            break;
        }
        // Remove the factor with the highest VIF; fall back to the highest
        // mean absolute correlation when the matrix is singular.
        let victim_pos = match vif(&cols) {
            Some(vifs) => {
                let mut best = 0;
                for (p, v) in vifs.iter().enumerate() {
                    if *v > vifs[best] {
                        best = p;
                    }
                }
                if vifs[best] < VIF_REMOVAL_THRESHOLD {
                    // FG rejected, but no factor is inflated enough to
                    // destabilise OLS — keep them all.
                    break;
                }
                best
            }
            None => {
                let r = correlation_matrix(&cols);
                let k = cols.len();
                let mut best = 0;
                let mut best_score = -1.0;
                for i in 0..k {
                    let score: f64 =
                        (0..k).filter(|&j| j != i).map(|j| r[(i, j)].abs()).sum();
                    if score > best_score {
                        best_score = score;
                        best = i;
                    }
                }
                best
            }
        };
        let victim = kept.remove(victim_pos);
        // Find the kept column it is most correlated with (its proxy).
        let mut proxy = kept[0];
        let mut best_c = 0.0f64;
        for &j in &kept {
            let c = pearson(&x[victim], &x[j]);
            if c.abs() >= best_c.abs() {
                best_c = c;
                proxy = j;
            }
        }
        removed.push(RemovedFactor { index: victim, proxy, correlation: best_c });
    }

    FgOutcome { kept, removed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthogonal_cols(n: usize) -> Vec<Vec<f64>> {
        // Two deterministic, weakly correlated pseudo-random columns.
        let a: Vec<f64> = (0..n).map(|i| ((i * 131) % 97) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 89) as f64).collect();
        vec![a, b]
    }

    #[test]
    fn orthogonal_columns_pass() {
        let x = orthogonal_cols(80);
        let fg = FarrarGlauber::test(&x).unwrap();
        assert!(!fg.multicollinear(0.05), "p = {}", fg.p_value);
        assert!(fg.det_r > 0.9);
    }

    #[test]
    fn duplicated_column_fails_hard() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b = a.clone();
        let fg = FarrarGlauber::test(&[a, b]).unwrap();
        assert!(fg.multicollinear(0.05));
        assert!(fg.det_r < 1e-9);
    }

    #[test]
    fn near_collinear_columns_fail() {
        let a: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().enumerate().map(|(i, v)| 2.0 * v + ((i % 3) as f64) * 0.01).collect();
        let fg = FarrarGlauber::test(&[a, b]).unwrap();
        assert!(fg.multicollinear(0.05));
    }

    #[test]
    fn vif_detects_the_redundant_column() {
        let a: Vec<f64> = (0..60).map(|i| ((i * 131) % 97) as f64).collect();
        let b: Vec<f64> = (0..60).map(|i| ((i * 37 + 11) % 89) as f64).collect();
        // c ≈ a + b: heavily collinear with both.
        let c: Vec<f64> =
            (0..60).map(|i| a[i] + b[i] + ((i % 5) as f64) * 0.01).collect();
        let vifs = vif(&[a, b, c]).unwrap();
        assert!(vifs[2] > 10.0, "vif = {vifs:?}");
    }

    #[test]
    fn removal_terminates_and_keeps_informative_columns() {
        let a: Vec<f64> = (0..60).map(|i| ((i * 131) % 97) as f64).collect();
        let b: Vec<f64> = (0..60).map(|i| ((i * 37 + 11) % 89) as f64).collect();
        let c: Vec<f64> = a.iter().map(|v| v * 3.0).collect(); // pure alias of a
        let out = remove_multicollinear(&[a, b, c], 0.05);
        assert_eq!(out.kept.len() + out.removed.len(), 3);
        assert!(out.kept.contains(&1), "b should survive: {out:?}");
        // The alias pair (a, c) loses exactly one member.
        let lost_alias =
            out.removed.iter().filter(|r| r.index == 0 || r.index == 2).count();
        assert_eq!(lost_alias, 1);
        let r = &out.removed[0];
        assert!(r.correlation.abs() > 0.99);
    }

    #[test]
    fn constant_columns_are_dropped_first() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let konst = vec![5.0; 30];
        let out = remove_multicollinear(&[konst, a], 0.05);
        assert_eq!(out.kept, vec![1]);
        assert_eq!(out.removed.len(), 1);
        assert_eq!(out.removed[0].index, 0);
    }

    #[test]
    fn single_column_needs_no_test() {
        let out = remove_multicollinear(&[(0..10).map(|i| i as f64).collect()], 0.05);
        assert_eq!(out.kept, vec![0]);
        assert!(FarrarGlauber::test(&[vec![1.0, 2.0]]).is_none());
    }
}
