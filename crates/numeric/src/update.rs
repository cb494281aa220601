//! Rank-k modification of a packed Cholesky factorization.
//!
//! An interactive edit changes a handful of matrix rows/columns of the
//! Galerkin operator; refactorizing from scratch costs `O(n³/3)` while a
//! rank-1 sweep costs `O(n²/2)`. This module provides the two primitive
//! sweeps and the symmetric row/column modification built on top of them:
//!
//! - [`CholeskyFactor::rank1_update`] — `A → A + xxᵀ` by plane (Givens)
//!   rotations, unconditionally stable because the result stays SPD.
//! - [`CholeskyFactor::rank1_downdate`] — `A → A − xxᵀ` by hyperbolic
//!   rotations; fails with [`UpdateError::Indefinite`] when the result
//!   leaves the SPD cone (the factor is then partially modified and must
//!   be rebuilt — callers fall back to a full refactorization).
//! - [`apply_sym_modification`] — a symmetric delta `ΔA` that is nonzero
//!   only in `m` rows/columns, decomposed into `2m` rank-1 terms
//!   `½[(wⱼ+eⱼ)(wⱼ+eⱼ)ᵀ − (wⱼ−eⱼ)(wⱼ−eⱼ)ᵀ]` with the touched entries of
//!   each stored column halved so every entry of `ΔA` is applied exactly
//!   once. Update and downdate are interleaved per column to limit
//!   transient indefiniteness.
//!
//! The [`incremental_worthwhile`] cost model decides when the `2m` sweeps
//! (≈ `m·n²` flops) beat a refactorization (`n³/3` flops) — the one
//! blocked factorization, pooled or inline; the old Crout loop is only
//! the tests' oracle: breakeven at `m = n/3`, applied with a 2× safety
//! margin, so the incremental path engages only for `0 < m ≤ n/6`.

use std::fmt;

use crate::cholesky::CholeskyFactor;

/// Error from a rank-1 or rank-k factor modification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The update vector length does not match the factor order.
    DimensionMismatch {
        /// The factor order `n`.
        expected: usize,
        /// The offending vector length.
        got: usize,
    },
    /// A downdate drove diagonal `column` out of the SPD cone: the
    /// modified matrix is not positive definite (or the sweep hit a
    /// non-finite pivot). The factor is partially modified and must be
    /// rebuilt by a full refactorization.
    Indefinite {
        /// First column whose pivot failed.
        column: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "update vector has length {got}, factor order is {expected}"
                )
            }
            UpdateError::Indefinite { column } => {
                write!(f, "modification leaves the SPD cone at column {column}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl CholeskyFactor {
    /// Rank-1 update `A → A + xxᵀ`, rewriting `L` in place by one sweep
    /// of plane rotations (`O(n²/2)` flops).
    ///
    /// Always succeeds on finite input (an SPD matrix plus a positive
    /// semidefinite term stays SPD); non-finite input poisons the factor
    /// and reports [`UpdateError::Indefinite`].
    pub fn rank1_update(&mut self, x: &[f64]) -> Result<(), UpdateError> {
        let n = self.order();
        if x.len() != n {
            return Err(UpdateError::DimensionMismatch {
                expected: n,
                got: x.len(),
            });
        }
        let mut work = x.to_vec();
        let l = self.packed_l_mut();
        for k in 0..n {
            let diag = k * (k + 1) / 2 + k;
            let lkk = l[diag];
            let r = lkk.hypot(work[k]);
            if !(r.is_finite() && r > 0.0) {
                return Err(UpdateError::Indefinite { column: k });
            }
            let c = r / lkk;
            let s = work[k] / lkk;
            l[diag] = r;
            for (i, w) in work.iter_mut().enumerate().skip(k + 1) {
                let off = i * (i + 1) / 2 + k;
                l[off] = (l[off] + s * *w) / c;
                *w = c * *w - s * l[off];
            }
        }
        Ok(())
    }

    /// Rank-1 downdate `A → A − xxᵀ`, rewriting `L` in place by one sweep
    /// of hyperbolic rotations (`O(n²/2)` flops).
    ///
    /// # Errors
    /// [`UpdateError::Indefinite`] when `A − xxᵀ` is not positive
    /// definite: the sweep stops at the first failing column and the
    /// factor is left **partially modified** — the caller must rebuild it
    /// from the matrix (the fallback refactorization path).
    pub fn rank1_downdate(&mut self, x: &[f64]) -> Result<(), UpdateError> {
        let n = self.order();
        if x.len() != n {
            return Err(UpdateError::DimensionMismatch {
                expected: n,
                got: x.len(),
            });
        }
        let mut work = x.to_vec();
        let l = self.packed_l_mut();
        for k in 0..n {
            let diag = k * (k + 1) / 2 + k;
            let lkk = l[diag];
            let d = (lkk - work[k]) * (lkk + work[k]);
            if !(d.is_finite() && d > 0.0) {
                return Err(UpdateError::Indefinite { column: k });
            }
            let r = d.sqrt();
            let c = r / lkk;
            let s = work[k] / lkk;
            l[diag] = r;
            for (i, w) in work.iter_mut().enumerate().skip(k + 1) {
                let off = i * (i + 1) / 2 + k;
                l[off] = (l[off] - s * *w) / c;
                *w = c * *w - s * l[off];
            }
        }
        Ok(())
    }
}

/// A symmetric modification `ΔA` that is nonzero only in the rows and
/// columns listed in `rows`: the incremental edit's footprint on the
/// Galerkin operator. Stores one **full-length** column of `ΔA` per
/// touched row, so entries coupling two touched rows appear in both
/// columns (the decomposition halves them to compensate).
#[derive(Clone, Debug)]
pub struct SymModification {
    n: usize,
    rows: Vec<usize>,
    cols: Vec<Vec<f64>>,
}

impl SymModification {
    /// Builds a modification of an order-`n` operator: `cols[j]` is the
    /// full column `ΔA[:, rows[j]]`.
    ///
    /// # Panics
    /// Panics if `rows` is not strictly increasing, any row is out of
    /// range, or any column has the wrong length.
    pub fn new(n: usize, rows: Vec<usize>, cols: Vec<Vec<f64>>) -> Self {
        assert_eq!(rows.len(), cols.len(), "one column per touched row");
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "touched rows must be strictly increasing"
        );
        assert!(rows.iter().all(|&r| r < n), "touched row out of range");
        assert!(
            cols.iter().all(|c| c.len() == n),
            "each stored column must have length n"
        );
        SymModification { n, rows, cols }
    }

    /// Operator order `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// The touched rows, strictly increasing.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The stored full-length columns, parallel to [`rows`](Self::rows).
    pub fn cols(&self) -> &[Vec<f64>] {
        &self.cols
    }

    /// Rank of the rank-1 decomposition: `2·m` sweeps for `m` touched
    /// rows (one update plus one downdate per column).
    pub fn rank(&self) -> usize {
        2 * self.rows.len()
    }
}

/// Applies the symmetric modification to the factor in place, returning
/// the total rank-1 sweep count (`2m`).
///
/// Decomposition: with `eⱼ` the unit vector of touched row `rⱼ` and `wⱼ`
/// the stored column with entries at **all** touched rows halved,
/// `ΔA = Σⱼ (eⱼwⱼᵀ + wⱼeⱼᵀ) = Σⱼ ½[(wⱼ+eⱼ)(wⱼ+eⱼ)ᵀ − (wⱼ−eⱼ)(wⱼ−eⱼ)ᵀ]`,
/// applied per column as one update with `(wⱼ+eⱼ)/√2` immediately
/// followed by one downdate with `(wⱼ−eⱼ)/√2` so the factor never drifts
/// further than one column from the true intermediate operator.
///
/// # Errors
/// [`UpdateError::Indefinite`] when some intermediate (or the final)
/// operator is not positive definite; the factor is then partially
/// modified and the caller must refactorize from the matrix.
pub fn apply_sym_modification(
    factor: &mut CholeskyFactor,
    m: &SymModification,
) -> Result<usize, UpdateError> {
    let n = factor.order();
    if m.n != n {
        return Err(UpdateError::DimensionMismatch {
            expected: n,
            got: m.n,
        });
    }
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut u = vec![0.0; n];
    let mut v = vec![0.0; n];
    for (j, col) in m.cols.iter().enumerate() {
        let rj = m.rows[j];
        for i in 0..n {
            let mut w = col[i];
            if m.rows.binary_search(&i).is_ok() {
                w *= 0.5;
            }
            let e = if i == rj { 1.0 } else { 0.0 };
            u[i] = (w + e) * inv_sqrt2;
            v[i] = (w - e) * inv_sqrt2;
        }
        factor.rank1_update(&u)?;
        factor.rank1_downdate(&v)?;
    }
    Ok(m.rank())
}

/// Cost model of the incremental path: rank-1 sweeps cost `n²/2` flops
/// each and a modification needs `2m` of them (`≈ m·n²` total), while a
/// refactorization costs `n³/3` — breakeven at `m = n/3`. Applied with a
/// 2× safety margin (the sweeps are serial and strided, the blocked
/// refactorization streams cached panels and may run on a pool):
/// incremental is worthwhile only for `0 < m ≤ n/6`.
pub fn incremental_worthwhile(n: usize, touched: usize) -> bool {
    touched > 0 && touched <= n / 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric::SymMatrix;

    fn factor(a: &SymMatrix) -> Result<CholeskyFactor, crate::cholesky::NotPositiveDefinite> {
        CholeskyFactor::factor(a)
    }

    /// Deterministic dense SPD test matrix: diagonally dominant with
    /// structured off-diagonal entries.
    fn spd(n: usize) -> SymMatrix {
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                if i == j {
                    a.set(i, j, 4.0 + n as f64 + (i as f64).sin().abs());
                } else {
                    a.set(i, j, 0.5 * ((i * 7 + j * 3) % 5) as f64 / 5.0);
                }
            }
        }
        a
    }

    fn max_abs_diff(a: &CholeskyFactor, b: &CholeskyFactor) -> f64 {
        a.packed_l()
            .iter()
            .zip(b.packed_l())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn rank1_update_matches_refactorization() {
        let n = 12;
        let a = spd(n);
        let x: Vec<f64> = (0..n).map(|i| 0.3 * ((i as f64) * 0.7).cos()).collect();
        let mut f = factor(&a).expect("spd");
        f.rank1_update(&x).expect("update");
        let mut apx = a.clone();
        for i in 0..n {
            for j in 0..=i {
                apx.add(i, j, x[i] * x[j]);
            }
        }
        let oracle = factor(&apx).expect("still spd");
        assert!(max_abs_diff(&f, &oracle) < 1e-10);
    }

    #[test]
    fn downdate_inverts_update() {
        let n = 9;
        let a = spd(n);
        let x: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 + 1.0).ln()).collect();
        let reference = factor(&a).expect("spd");
        let mut f = factor(&a).expect("spd");
        f.rank1_update(&x).expect("update");
        f.rank1_downdate(&x).expect("downdate");
        assert!(max_abs_diff(&f, &reference) < 1e-10);
    }

    #[test]
    fn downdate_rejects_indefinite_result() {
        let n = 6;
        let a = spd(n);
        // Subtracting a multiple of e₀ far larger than a₀₀ leaves the
        // cone at the first column.
        let mut x = vec![0.0; n];
        x[0] = 100.0;
        let mut f = factor(&a).expect("spd");
        assert_eq!(
            f.rank1_downdate(&x),
            Err(UpdateError::Indefinite { column: 0 })
        );
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let mut f = factor(&spd(4)).expect("spd");
        assert_eq!(
            f.rank1_update(&[1.0; 3]),
            Err(UpdateError::DimensionMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            f.rank1_downdate(&[1.0; 5]),
            Err(UpdateError::DimensionMismatch {
                expected: 4,
                got: 5
            })
        );
    }

    #[test]
    fn sym_modification_matches_refactorization() {
        let n = 14;
        let a = spd(n);
        let rows = vec![2usize, 5, 11];
        // A symmetric delta supported on `rows`: small relative to the
        // diagonal so the intermediates stay SPD.
        let mut delta = SymMatrix::zeros(n);
        for &r in &rows {
            for i in 0..n {
                let touched = rows.binary_search(&i).is_ok();
                if i >= r || !touched {
                    let v = 0.05 * (((r * 13 + i * 5) % 7) as f64 - 3.0) / 7.0;
                    delta.set(r.max(i), r.min(i), v);
                }
            }
        }
        let cols: Vec<Vec<f64>> = rows
            .iter()
            .map(|&r| (0..n).map(|i| delta.get(i, r)).collect())
            .collect();
        let m = SymModification::new(n, rows.clone(), cols);
        assert_eq!(m.rank(), 6);

        let mut f = factor(&a).expect("spd");
        let rank = apply_sym_modification(&mut f, &m).expect("incremental");
        assert_eq!(rank, 6);

        let mut ap = a.clone();
        for i in 0..n {
            for j in 0..=i {
                ap.add(i, j, delta.get(i, j));
            }
        }
        let oracle = factor(&ap).expect("modified spd");
        assert!(max_abs_diff(&f, &oracle) < 1e-9);
    }

    #[test]
    fn cost_model_pins_the_threshold() {
        // Incremental iff 0 < touched ≤ n/6 — pinned so edits to the
        // margin are conscious decisions.
        assert!(!incremental_worthwhile(600, 0));
        assert!(incremental_worthwhile(600, 1));
        assert!(incremental_worthwhile(600, 100));
        assert!(!incremental_worthwhile(600, 101));
        assert!(!incremental_worthwhile(5, 1), "tiny systems just refactor");
    }

    #[test]
    fn errors_render() {
        let e = UpdateError::DimensionMismatch {
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("length 3"));
        let e = UpdateError::Indefinite { column: 2 };
        assert!(e.to_string().contains("column 2"));
    }
}
