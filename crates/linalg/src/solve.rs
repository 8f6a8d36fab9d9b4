//! Solving and consistency-testing linear systems `y = A x`.
//!
//! The inference algorithm never needs a *fast* solver — it needs a *trustworthy
//! verdict* on whether a system is solvable (Lemma 1 / Definition 1 /
//! Definition 2 all hinge on solvability), plus a particular solution and the
//! least-squares residual as a graded "unsolvability" signal for measured data.

use crate::elim::{default_tolerance, rref};
use crate::matrix::{norm2, Matrix};
use crate::qr::{lstsq, residual};

/// Outcome of analysing the linear system `A x = y`.
#[derive(Debug, Clone, PartialEq)]
pub enum Solvability {
    /// The system has at least one exact solution (within tolerance).
    Consistent {
        /// A particular solution with free variables set to zero.
        solution: Vec<f64>,
        /// Whether the solution is unique (`rank == cols`).
        unique: bool,
    },
    /// The system has no solution; carries the least-squares residual norm.
    Inconsistent {
        /// Minimum achievable `||A x - y||_2`.
        residual: f64,
        /// The least-squares minimiser.
        least_squares: Vec<f64>,
    },
}

impl Solvability {
    /// `true` for [`Solvability::Consistent`].
    pub fn is_consistent(&self) -> bool {
        matches!(self, Solvability::Consistent { .. })
    }

    /// Residual norm: zero for consistent systems.
    pub fn residual(&self) -> f64 {
        match self {
            Solvability::Consistent { .. } => 0.0,
            Solvability::Inconsistent { residual, .. } => *residual,
        }
    }
}

/// Analyses `A x = y` with tolerance `tol` (entries below `tol` are zero).
///
/// Uses the Rouché–Capelli criterion — the system is consistent iff
/// `rank(A) == rank([A|y])` — computed from a single RREF of the augmented
/// matrix, then extracts a particular solution or the least-squares verdict.
pub fn analyze(a: &Matrix, y: &[f64], tol: f64) -> Solvability {
    assert_eq!(y.len(), a.rows(), "rhs length must equal row count");
    let aug = a.augment_col(y);
    let e = rref(&aug, tol);
    let n = a.cols();
    // Inconsistent iff some pivot lands in the augmented (last) column.
    let inconsistent = e.pivot_cols.contains(&n);
    if inconsistent {
        let ls = lstsq(a, y);
        return Solvability::Inconsistent {
            residual: norm2(&residual(a, &ls, y)),
            least_squares: ls,
        };
    }
    // Particular solution: pivot variables from RREF, free variables zero.
    let mut solution = vec![0.0; n];
    for (r, &c) in e.pivot_cols.iter().enumerate() {
        solution[c] = e.matrix[(r, n)];
    }
    let unique = e.pivot_cols.len() == n;
    Solvability::Consistent { solution, unique }
}

/// Whether `A x = y` has an exact solution, with `tol` floored at the
/// scale-aware default tolerance of the augmented system `[A | y]` — the
/// consistency check of Systems 3 and 4.
pub fn is_solvable(a: &Matrix, y: &[f64], tol: f64) -> bool {
    let tol = tol.max(default_tolerance(&a.augment_col(y)));
    analyze(a, y, tol).is_consistent()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn unique_solution_found() {
        let a = m(&[vec![2.0, 0.0], vec![0.0, 4.0]]);
        let y = [2.0, 8.0];
        match analyze(&a, &y, default_tolerance(&a.augment_col(&y))) {
            Solvability::Consistent { solution, unique } => {
                assert!(unique);
                assert!((solution[0] - 1.0).abs() < 1e-12);
                assert!((solution[1] - 2.0).abs() < 1e-12);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn underdetermined_is_consistent_not_unique() {
        let a = m(&[vec![1.0, 1.0]]);
        let y = [3.0];
        match analyze(&a, &y, default_tolerance(&a.augment_col(&y))) {
            Solvability::Consistent { solution, unique } => {
                assert!(!unique);
                let check = a.matvec(&solution);
                assert!((check[0] - 3.0).abs() < 1e-12);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_detected_with_residual() {
        // x = 0 and x = 1 simultaneously.
        let a = m(&[vec![1.0], vec![1.0]]);
        let y = [0.0, 1.0];
        match analyze(&a, &y, default_tolerance(&a.augment_col(&y))) {
            Solvability::Inconsistent {
                residual,
                least_squares,
            } => {
                assert!((least_squares[0] - 0.5).abs() < 1e-9);
                assert!((residual - (0.5_f64).sqrt()).abs() < 1e-9);
            }
            other => panic!("expected inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn paper_section_3_1_example_is_unsolvable() {
        // Figure 1 network, pathsets {p1},{p2},{p3}:
        //   y1 = x1 + x2 = 0
        //   y2 = x1 + x3 = 0.69   (p2 occasionally congested)
        //   y3 = x3 + x4 = 0
        // plus the implied nonneg constraints make it inconsistent only with
        // extra pathsets; the raw 3x4 system alone is solvable (x3 = 0.69).
        let a = m(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0, 1.0],
        ]);
        let y = [0.0, 0.69, 0.0];
        assert!(is_solvable(&a, &y, 1e-9));

        // Adding pathset {p2,p3} with y = 0.69 and {p1,p2} with y = 0.69
        // (observed correlations) is still linear-algebra solvable; the
        // *unsolvable* instance from §3.3 (Figure 5) is exercised in
        // nni-core's observability tests. Here we test the mechanism with a
        // directly inconsistent augmentation: p1 says x1 + x2 = 0 while
        // another vantage claims x1 + x2 = 1.
        let a2 = m(&[vec![1.0, 1.0, 0.0, 0.0], vec![1.0, 1.0, 0.0, 0.0]]);
        assert!(!is_solvable(&a2, &[0.0, 1.0], 1e-9));
    }

    #[test]
    fn tolerance_turns_noise_into_consistency() {
        let a = m(&[vec![1.0], vec![1.0]]);
        let y = [1.0, 1.0 + 1e-8];
        assert!(!is_solvable(&a, &y, 1e-12));
        assert!(is_solvable(&a, &y, 1e-6));
    }

    #[test]
    fn residual_norm_zero_for_consistent() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let y = a.matvec(&[1.0, -1.0]);
        assert!(norm2(&residual(&a, &lstsq(&a, &y), &y)) < 1e-9);
    }

    #[test]
    fn zero_rows_system_is_trivially_consistent() {
        let a = Matrix::zeros(0, 3);
        match analyze(&a, &[], 1e-9) {
            Solvability::Consistent { solution, unique } => {
                assert_eq!(solution, vec![0.0; 3]);
                assert!(!unique);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }
}
