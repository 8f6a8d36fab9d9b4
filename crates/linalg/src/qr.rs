//! Householder QR factorisation and least-squares solves.
//!
//! Least squares gives the algorithm a *graded* unsolvability signal for
//! measured data: a slice system that is "more unsolvable" has a larger
//! residual. QR with column-norm-aware back substitution is numerically far
//! better behaved than normal equations for the nearly rank-deficient routing
//! matrices that slices produce.

use crate::matrix::Matrix;

/// Compact Householder QR of an `m x n` matrix (`m >= n` not required).
#[derive(Debug, Clone)]
pub struct Qr {
    /// Upper triangle holds `R`; the lower part stores the Householder
    /// vectors (below-diagonal part, with implicit leading 1).
    factors: Matrix,
    /// Scalar `tau` coefficients of the Householder reflectors.
    taus: Vec<f64>,
}

impl Qr {
    /// Computes the QR factorisation of `a`.
    pub fn new(a: &Matrix) -> Qr {
        let mut f = a.clone();
        let (m, n) = (f.rows(), f.cols());
        let k = m.min(n);
        let mut taus = vec![0.0; k];

        for j in 0..k {
            // Build the Householder reflector for column j, rows j..m.
            let mut norm_sq = 0.0;
            for i in j..m {
                norm_sq += f[(i, j)] * f[(i, j)];
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                taus[j] = 0.0;
                continue;
            }
            // alpha takes the opposite sign of the pivot to avoid cancellation,
            // which also guarantees v0 = f[j,j] - alpha is bounded away from 0.
            let alpha = if f[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = f[(j, j)] - alpha;
            // Normalise so the leading element of v is 1 (stored implicitly).
            for i in j + 1..m {
                f[(i, j)] /= v0;
            }
            let mut vtv = 1.0;
            for i in j + 1..m {
                vtv += f[(i, j)] * f[(i, j)];
            }
            taus[j] = 2.0 / vtv;
            let tau = taus[j];
            f[(j, j)] = alpha;

            // Apply the reflector to the trailing columns.
            for c in j + 1..n {
                let mut s = f[(j, c)];
                for i in j + 1..m {
                    s += f[(i, j)] * f[(i, c)];
                }
                s *= tau;
                f[(j, c)] -= s;
                for i in j + 1..m {
                    let vij = f[(i, j)];
                    f[(i, c)] -= s * vij;
                }
            }
        }
        Qr { factors: f, taus }
    }

    /// Applies `Q^T` to a vector (length `m`), in place.
    fn apply_qt(&self, y: &mut [f64]) {
        let (m, n) = (self.factors.rows(), self.factors.cols());
        let k = m.min(n);
        for j in 0..k {
            let tau = self.taus[j];
            if tau == 0.0 {
                continue;
            }
            let mut s = y[j];
            for (i, yi) in y.iter().enumerate().take(m).skip(j + 1) {
                s += self.factors[(i, j)] * yi;
            }
            s *= tau;
            y[j] -= s;
            for (i, yi) in y.iter_mut().enumerate().take(m).skip(j + 1) {
                *yi -= s * self.factors[(i, j)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ||A x - y||` using this
    /// factorisation. Rank-deficient columns get a zero coefficient.
    pub fn solve(&self, y: &[f64]) -> Vec<f64> {
        let (m, n) = (self.factors.rows(), self.factors.cols());
        assert_eq!(y.len(), m, "rhs length must equal row count");
        let mut rhs = y.to_vec();
        self.apply_qt(&mut rhs);

        // Back substitution on R (k x n upper-triangular block).
        let k = m.min(n);
        let mut x = vec![0.0; n];
        // Tolerance for declaring a diagonal of R "zero" (rank deficiency).
        let rmax = (0..k).fold(0.0_f64, |acc, i| acc.max(self.factors[(i, i)].abs()));
        let tol = rmax.max(1.0) * (n.max(m) as f64) * f64::EPSILON;
        for i in (0..k).rev() {
            let mut s = rhs[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.factors[(i, j)] * xj;
            }
            let d = self.factors[(i, i)];
            x[i] = if d.abs() <= tol { 0.0 } else { s / d };
        }
        x
    }
}

/// One-shot least squares `min_x ||A x - y||_2`.
pub fn lstsq(a: &Matrix, y: &[f64]) -> Vec<f64> {
    if a.rows() == 0 || a.cols() == 0 {
        return vec![0.0; a.cols()];
    }
    Qr::new(a).solve(y)
}

/// Residual vector `A x - y`.
pub fn residual(a: &Matrix, x: &[f64], y: &[f64]) -> Vec<f64> {
    a.matvec(x).iter().zip(y).map(|(ax, yy)| ax - yy).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{dot, norm2};

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn exact_system_recovered() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let x_true = [2.0, -1.0];
        let y = a.matvec(&x_true);
        let x = lstsq(&a, &y);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn overdetermined_minimises_residual() {
        // Fit a constant to [0, 1]: best is 0.5 with residual sqrt(0.5).
        let a = m(&[vec![1.0], vec![1.0]]);
        let x = lstsq(&a, &[0.0, 1.0]);
        assert!((x[0] - 0.5).abs() < 1e-9);
        let r = residual(&a, &x, &[0.0, 1.0]);
        assert!((norm2(&r) - 0.5_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns() {
        let a = m(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let y = [0.0, 1.0, 1.0, 3.0];
        let x = lstsq(&a, &y);
        let r = residual(&a, &x, &y);
        for j in 0..a.cols() {
            let c = a.col(j);
            assert!(
                dot(&c, &r).abs() < 1e-9,
                "residual not orthogonal to col {j}"
            );
        }
    }

    #[test]
    fn rank_deficient_columns_get_zero() {
        // Second column is a copy of the first.
        let a = m(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let y = [1.0, 2.0, 3.0];
        let x = lstsq(&a, &y);
        let r = residual(&a, &x, &y);
        assert!(norm2(&r) < 1e-9, "consistent system should fit exactly");
    }

    #[test]
    fn wide_system_solves() {
        let a = m(&[vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 1.0]]);
        let y = [2.0, 3.0];
        let x = lstsq(&a, &y);
        let r = residual(&a, &x, &y);
        assert!(norm2(&r) < 1e-9);
    }

    #[test]
    fn zero_matrix_yields_zero_solution() {
        let a = Matrix::zeros(3, 2);
        let x = lstsq(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
