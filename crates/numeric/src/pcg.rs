//! Diagonally preconditioned conjugate gradient.
//!
//! This is the production solver of the paper (§4.3): the Galerkin BEM
//! matrix is dense and SPD, direct methods cost `O(N³/3)`, and "the best
//! results have been obtained by a diagonal preconditioned conjugate
//! gradient algorithm with assembly of the global matrix … extremely
//! efficient for solving large scale problems, with a very low
//! computational cost in comparison with matrix generation".
//!
//! The solver is written against the [`LinearOperator`] trait so it works
//! with the packed [`SymMatrix`], with the hierarchical
//! [`HMatrix`](crate::HMatrix), and with matrix-free operators in tests.
//!
//! The solve is serial. Matrix generation is where the paper spends its
//! time (Table 6.1: 1 723.2 s of 1 724.2 s) and what it parallelises; at
//! the orders this workspace solves (hundreds to a few thousand unknowns)
//! a pooled matvec and pooled level-1 ops were slower than this loop at
//! every measured size (ROADMAP item 2). Every reduction inside the
//! iteration (the dot products and the residual norm) uses the
//! fixed-partition order of [`vector::dot_blocked`] /
//! [`vector::norm2_blocked`], a pure function of the vector length, so
//! the Krylov trajectory — iterates, residual history, iteration count —
//! is the same whatever pool the rest of the study ran on.

use crate::symmetric::SymMatrix;
use crate::vector;

/// Anything that can apply `y = A·x` for a square operator.
pub trait LinearOperator {
    /// Operator order (dimension of the space).
    fn order(&self) -> usize;
    /// Applies the operator: `y = A·x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
    /// Returns the operator diagonal, used to build the Jacobi
    /// preconditioner. Implementations may estimate it; entries must be
    /// positive for an SPD operator.
    fn diagonal(&self) -> Vec<f64>;
    /// Vector dimension `apply` accepts — always [`order`](Self::order);
    /// provided so implementations and callers share one name for it.
    fn dim(&self) -> usize {
        self.order()
    }
    /// Shared argument check for `apply` implementations: panics unless
    /// both slices have length [`dim`](Self::dim). Every in-tree `apply`
    /// goes through this one assertion instead of duplicating ad-hoc
    /// length checks per impl.
    fn assert_apply_dims(&self, x: &[f64], y: &[f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "matvec: x length");
        assert_eq!(y.len(), n, "matvec: y length");
    }
}

impl LinearOperator for SymMatrix {
    fn order(&self) -> usize {
        self.order()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.assert_apply_dims(x, y);
        self.matvec(x, y);
    }
    fn diagonal(&self) -> Vec<f64> {
        self.diagonal()
    }
}

/// Options controlling the iteration.
#[derive(Clone, Copy, Debug)]
pub struct PcgOptions {
    /// Relative residual reduction target: stop when
    /// `‖r_k‖₂ ≤ rel_tol · ‖b‖₂`. The default, `1e-10`, is the tolerance
    /// every PCG study solves at.
    pub rel_tol: f64,
    /// Hard iteration cap (defaults to `2n` at call time when zero).
    pub max_iter: usize,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            rel_tol: 1e-10,
            max_iter: 0,
        }
    }
}

/// Residual-norm trace of a solve.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceHistory {
    /// `‖r_k‖₂` for `k = 0, 1, …` (index 0 is the initial residual).
    pub residual_norms: Vec<f64>,
}

impl ConvergenceHistory {
    /// Number of iterations actually performed.
    pub fn iterations(&self) -> usize {
        self.residual_norms.len().saturating_sub(1)
    }
}

/// Outcome of a PCG solve.
#[derive(Clone, Debug)]
pub struct PcgOutcome {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
    /// Residual trace.
    pub history: ConvergenceHistory,
}

/// Solves `A·x = b` for an SPD operator with Jacobi-preconditioned CG.
///
/// Starts from `x₀ = 0`. Returns the solution, a convergence flag and the
/// residual history.
///
/// ```
/// use layerbem_numeric::{pcg_solve, PcgOptions, SymMatrix};
/// let mut a = SymMatrix::zeros(2);
/// a.set(0, 0, 2.0);
/// a.set(1, 1, 3.0);
/// a.set(1, 0, 1.0);
/// let out = pcg_solve(&a, &[3.0, 5.0], PcgOptions::default());
/// assert!(out.converged);
/// // A·x = b: x = (0.8, 1.4).
/// assert!((out.x[0] - 0.8).abs() < 1e-9);
/// assert!((out.x[1] - 1.4).abs() < 1e-9);
/// ```
///
/// # Panics
/// Panics if `b.len()` differs from the operator order, or if the
/// preconditioner encounters a non-positive diagonal entry (which would
/// contradict positive-definiteness).
pub fn pcg_solve<A: LinearOperator + ?Sized>(a: &A, b: &[f64], opts: PcgOptions) -> PcgOutcome {
    let n = a.order();
    assert_eq!(b.len(), n, "pcg: rhs length");
    let max_iter = if opts.max_iter == 0 {
        2 * n + 10
    } else {
        opts.max_iter
    };

    // Inverse diagonal for the Jacobi preconditioner.
    let minv: Vec<f64> = a
        .diagonal()
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            assert!(
                d > 0.0 && d.is_finite(),
                "pcg: non-positive diagonal entry {d} at {i}; operator not SPD"
            );
            1.0 / d
        })
        .collect();

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b − A·0 = b
    let mut z = vec![0.0; n];
    vector::hadamard(&minv, &r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];

    let b_norm = vector::norm2_blocked(b);
    let mut history = ConvergenceHistory::default();
    history.residual_norms.push(vector::norm2_blocked(&r));

    if b_norm == 0.0 {
        // Trivial system: x = 0 is exact.
        return PcgOutcome {
            x,
            converged: true,
            history,
        };
    }
    let target = opts.rel_tol * b_norm;
    let mut rz = vector::dot_blocked(&r, &z);
    let mut converged = history.residual_norms[0] <= target;

    for _ in 0..max_iter {
        if converged {
            break;
        }
        a.apply(&p, &mut ap);
        let pap = vector::dot_blocked(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Operator is not SPD in the Krylov space explored (or we hit
            // round-off stagnation); stop with the best iterate so far.
            break;
        }
        let alpha = rz / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        let r_norm = vector::norm2_blocked(&r);
        history.residual_norms.push(r_norm);
        if r_norm <= target {
            converged = true;
            break;
        }
        vector::hadamard(&minv, &r, &mut z);
        let rz_new = vector::dot_blocked(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        vector::xpby(&z, beta, &mut p);
    }

    PcgOutcome {
        x,
        converged,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::cholesky::CholeskyFactor;

    fn spd(n: usize) -> SymMatrix {
        // Tridiagonal-ish SPD test matrix embedded in dense symmetric storage.
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            a.set(i, i, 4.0 + (i as f64) * 0.01);
            if i > 0 {
                a.set(i, i - 1, -1.0);
            }
        }
        a
    }

    #[test]
    fn solves_identity_in_one_step() {
        let mut a = SymMatrix::zeros(6);
        for i in 0..6 {
            a.set(i, i, 1.0);
        }
        let b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let out = pcg_solve(&a, &b, PcgOptions::default());
        assert!(out.converged);
        assert!(out.history.iterations() <= 1);
        for (u, v) in out.x.iter().zip(&b) {
            assert!(approx_eq(*u, *v, 1e-12));
        }
    }

    #[test]
    fn matches_cholesky_on_spd_system() {
        let a = spd(40);
        let b: Vec<f64> = (0..40).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let direct = CholeskyFactor::factor(&a).unwrap().solve(&b);
        let out = pcg_solve(&a, &b, PcgOptions::default());
        assert!(out.converged);
        for (u, v) in out.x.iter().zip(&direct) {
            assert!(approx_eq(*u, *v, 1e-8), "{u} vs {v}");
        }
    }

    #[test]
    fn residual_history_is_recorded_and_decreasing_overall() {
        let a = spd(30);
        let b = vec![1.0; 30];
        let out = pcg_solve(&a, &b, PcgOptions::default());
        assert!(out.converged);
        let h = &out.history.residual_norms;
        assert!(h.len() >= 2);
        assert!(*h.last().unwrap() < h[0] * 1e-9);
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = spd(10);
        let out = pcg_solve(&a, &[0.0; 10], PcgOptions::default());
        assert!(out.converged);
        assert_eq!(out.history.iterations(), 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = spd(50);
        let b = vec![1.0; 50];
        let out = pcg_solve(
            &a,
            &b,
            PcgOptions {
                rel_tol: 1e-30, // unreachable
                max_iter: 3,
            },
        );
        assert!(!out.converged);
        assert!(out.history.iterations() <= 3);
    }

    #[test]
    #[should_panic(expected = "not SPD")]
    fn panics_on_nonpositive_diagonal() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 0, -1.0);
        a.set(1, 1, 1.0);
        a.set(2, 2, 1.0);
        pcg_solve(&a, &[1.0, 1.0, 1.0], PcgOptions::default());
    }

    /// A matrix-free operator: the 1-D discrete Laplacian plus identity.
    struct StencilOp {
        n: usize,
    }

    impl LinearOperator for StencilOp {
        fn order(&self) -> usize {
            self.n
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            for i in 0..self.n {
                let left = if i > 0 { x[i - 1] } else { 0.0 };
                let right = if i + 1 < self.n { x[i + 1] } else { 0.0 };
                y[i] = 3.0 * x[i] - left - right;
            }
        }
        fn diagonal(&self) -> Vec<f64> {
            vec![3.0; self.n]
        }
    }

    #[test]
    fn works_with_matrix_free_operator() {
        let op = StencilOp { n: 64 };
        let b = vec![1.0; 64];
        let out = pcg_solve(&op, &b, PcgOptions::default());
        assert!(out.converged);
        let mut check = vec![0.0; 64];
        op.apply(&out.x, &mut check);
        for (u, v) in check.iter().zip(&b) {
            assert!(approx_eq(*u, *v, 1e-8));
        }
    }
}
