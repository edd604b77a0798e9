//! Small dense row-major matrices with the operations OLS needs:
//! multiplication, transpose, Gauss–Jordan inverse with partial pivoting,
//! determinant, and linear solve. Dimensions in this crate are tiny (the
//! number of diagnosis factors, ≤ ~15), so cache blocking is unnecessary;
//! clarity and numerical robustness win.

use std::fmt;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice; panics if the length mismatches.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data: data.to_vec() }
    }

    /// Build a column vector.
    pub fn column(data: &[f64]) -> Self {
        Matrix::from_rows(data.len(), 1, data)
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self · rhs`; panics on dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Inverse via Gauss–Jordan with partial pivoting. Returns `None` when
    /// the matrix is singular (pivot below `1e-12` of the row scale).
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot: largest |entry| in this column at/below the diagonal.
            let mut pivot_row = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                if a[(r, col)].abs() > best {
                    best = a[(r, col)].abs();
                    pivot_row = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot_row != col {
                a.swap_rows(col, pivot_row);
                inv.swap_rows(col, pivot_row);
            }
            let p = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= p;
                inv[(col, j)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= f * a[(col, j)];
                    inv[(r, j)] -= f * inv[(col, j)];
                }
            }
        }
        Some(inv)
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn determinant(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = 1.0;
        for col in 0..n {
            let mut pivot_row = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                if a[(r, col)].abs() > best {
                    best = a[(r, col)].abs();
                    pivot_row = r;
                }
            }
            if best < 1e-300 {
                return 0.0;
            }
            if pivot_row != col {
                a.swap_rows(col, pivot_row);
                det = -det;
            }
            let p = a[(col, col)];
            det *= p;
            for r in (col + 1)..n {
                let f = a[(r, col)] / p;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[(r, j)] -= f * a[(col, j)];
                }
            }
        }
        det
    }

    /// Solve `self · x = b` for a single right-hand side; `None` if singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, b.len(), "solve dimension mismatch");
        let inv = self.inverse()?;
        let x = inv.matmul(&Matrix::column(b));
        Some((0..x.rows).map(|i| x[(i, 0)]).collect())
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Maximum absolute difference from another matrix (for tests).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = Matrix::from_rows(2, 2, &[4.0, 7.0, 2.0, 6.0]);
        let inv = a.inverse().unwrap();
        let expect = Matrix::from_rows(2, 2, &[0.6, -0.7, -0.2, 0.4]);
        assert!(inv.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(
            3,
            3,
            &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0],
        );
        let prod = a.inverse().unwrap().matmul(&a);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn singular_matrix_has_no_inverse_and_zero_det() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(a.inverse().is_none());
        assert_eq!(a.determinant(), 0.0);
    }

    #[test]
    fn determinant_of_known_matrices() {
        assert!((Matrix::identity(4).determinant() - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(2, 2, &[3.0, 8.0, 4.0, 6.0]);
        assert!((a.determinant() + 14.0).abs() < 1e-12);
        let b = Matrix::from_rows(3, 3, &[6.0, 1.0, 1.0, 4.0, -2.0, 5.0, 2.0, 8.0, 7.0]);
        assert!((b.determinant() + 306.0).abs() < 1e-9);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let inv = a.inverse().unwrap();
        assert!(inv.max_abs_diff(&a) < 1e-12); // permutation is its own inverse
        assert!((a.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_tridiagonal_system() {
        let a = Matrix::from_rows(
            3,
            3,
            &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0],
        );
        let x = a.solve(&[1.0, 0.0, 1.0]).unwrap();
        // Exact solution: [1, 1, 1].
        for v in x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
