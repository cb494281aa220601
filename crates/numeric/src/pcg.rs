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
//! with the packed [`SymMatrix`], with matrix-free
//! operators in tests, and with parallel matvec wrappers.
//!
//! Every reduction inside the iteration (the dot products and the
//! residual norm) uses the deterministic fixed-partition order of
//! [`vector::dot_blocked`] / [`vector::norm2_blocked`], whether it runs
//! serially or — with [`PcgOptions::vector_parallelism`] set — on a
//! [`ThreadPool`] via the pooled reductions. The partition is a pure
//! function of the vector length, so the pooled vector ops are
//! bit-identical to the serial ones for every schedule and thread count:
//! combined with a bit-identical matvec (e.g. [`PooledSymOperator`]),
//! the whole Krylov trajectory — iterates, residual history, iteration
//! count — is independent of the execution resources.

use layerbem_parfor::{Schedule, ThreadPool};

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

/// A [`SymMatrix`] wrapped with a [`ThreadPool`]: the same operator, with
/// the matvec — the `O(N²)` cost of every PCG iteration — computed in
/// parallel over disjoint output-row ranges.
///
/// The row decomposition is the workspace-wide one —
/// [`Schedule::partition_ranges`] for the operator's `(schedule, order,
/// threads)` — computed **once** at construction and reused by every
/// `apply`, exactly the ranges the worklist-driven Galerkin assembler and
/// the pooled collocation assembler partition their matrices by. Each
/// output entry is computed by one thread as the *identical* sequence
/// of floating-point operations the serial [`SymMatrix::matvec`] folds
/// into it (row part in ascending column order, then the mirrored column
/// part in ascending row order), so the pooled operator is **bit-identical**
/// to the serial one: `pcg_solve` produces the same iterates, the same
/// residual history, and the same iteration count for any thread count and
/// schedule.
///
/// ```
/// use layerbem_numeric::{pcg_solve, PcgOptions, PooledSymOperator, SymMatrix};
/// use layerbem_parfor::{Schedule, ThreadPool};
/// let mut a = SymMatrix::zeros(2);
/// a.set(0, 0, 2.0);
/// a.set(1, 1, 3.0);
/// a.set(1, 0, 1.0);
/// let op = PooledSymOperator::new(&a, ThreadPool::new(2), Schedule::static_blocked());
/// # use layerbem_numeric::LinearOperator;
/// assert_eq!(op.dim(), 2);
/// let out = pcg_solve(&op, &[3.0, 5.0], PcgOptions::default());
/// assert!(out.converged);
/// assert!((out.x[0] - 0.8).abs() < 1e-9);
/// assert!((out.x[1] - 1.4).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct PooledSymOperator<'a> {
    matrix: &'a SymMatrix,
    pool: ThreadPool,
    /// Disjoint output-row ranges tiling `0..order`, precomputed from the
    /// construction schedule.
    ranges: Vec<std::ops::Range<usize>>,
    /// How the precomputed partitions are claimed by threads.
    dispatch: Schedule,
}

impl<'a> PooledSymOperator<'a> {
    /// Wraps a packed symmetric matrix with a pool and a schedule; the
    /// schedule's row-range decomposition is materialized here, once.
    pub fn new(matrix: &'a SymMatrix, pool: ThreadPool, schedule: Schedule) -> Self {
        PooledSymOperator {
            matrix,
            pool,
            ranges: schedule.partition_ranges(matrix.order(), pool.threads()),
            dispatch: schedule.partition_dispatch(),
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &SymMatrix {
        self.matrix
    }
}

impl LinearOperator for PooledSymOperator<'_> {
    fn order(&self) -> usize {
        self.matrix.order()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.assert_apply_dims(x, y);
        let packed = self.matrix.packed();
        // Split y into the precomputed disjoint row ranges (they tile
        // 0..n ascending) and hand each partition to the pool.
        let mut parts: Vec<(std::ops::Range<usize>, &mut [f64])> =
            Vec::with_capacity(self.ranges.len());
        let mut rest = y;
        for r in &self.ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            parts.push((r.clone(), head));
            rest = tail;
        }
        self.pool
            .scoped_partition(&mut parts, self.dispatch, |_, (range, ys)| {
                for (yi, i) in ys.iter_mut().zip(range.clone()) {
                    // Row part: packed row `i` is contiguous — entries
                    // (i, j≤i).
                    let row = &packed[i * (i + 1) / 2..i * (i + 1) / 2 + i + 1];
                    let mut s = 0.0;
                    for (j, a) in row[..i].iter().enumerate() {
                        s += a * x[j];
                    }
                    s += row[i] * x[i];
                    // Mirrored column part: entries (k, i) for k > i,
                    // strided.
                    for (k, xk) in x.iter().enumerate().skip(i + 1) {
                        s += packed[k * (k + 1) / 2 + i] * xk;
                    }
                    *yi = s;
                }
            });
    }

    fn diagonal(&self) -> Vec<f64> {
        self.matrix.diagonal()
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
    /// Pool and schedule for the solver's own vector operations
    /// (dot/axpy/norm/preconditioner application): `None` runs them
    /// serially. The pooled ops reproduce the serial fixed-partition
    /// reductions bit for bit, so setting this never changes an iterate —
    /// only who computes it. Irrelevant next to the `O(N²)` matvec until
    /// matrices reach `O(10⁴)`, at which point the `O(N)` level-1 ops
    /// stop being free.
    pub vector_parallelism: Option<(ThreadPool, Schedule)>,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            rel_tol: 1e-10,
            max_iter: 0,
            vector_parallelism: None,
        }
    }
}

/// The solver's level-1 kernels, dispatched serially or over a pool.
/// Both arms execute the identical fixed-partition scalar sequences
/// (see [`vector`] module docs), so the choice is invisible in the bits.
#[derive(Clone, Copy, Debug)]
enum VecOps {
    Serial,
    Pooled(ThreadPool, Schedule),
}

impl VecOps {
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        match self {
            VecOps::Serial => vector::dot_blocked(x, y),
            VecOps::Pooled(pool, s) => vector::pooled_dot(pool, *s, x, y),
        }
    }

    fn norm2(&self, x: &[f64]) -> f64 {
        match self {
            VecOps::Serial => vector::norm2_blocked(x),
            VecOps::Pooled(pool, s) => vector::pooled_norm2(pool, *s, x),
        }
    }

    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        match self {
            VecOps::Serial => vector::axpy(a, x, y),
            VecOps::Pooled(pool, s) => vector::pooled_axpy(pool, *s, a, x, y),
        }
    }

    fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        match self {
            VecOps::Serial => vector::xpby(x, b, y),
            VecOps::Pooled(pool, s) => vector::pooled_xpby(pool, *s, x, b, y),
        }
    }

    fn hadamard(&self, x: &[f64], y: &[f64], z: &mut [f64]) {
        match self {
            VecOps::Serial => vector::hadamard(x, y, z),
            VecOps::Pooled(pool, s) => vector::pooled_hadamard(pool, *s, x, y, z),
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
    let ops = match opts.vector_parallelism {
        Some((pool, schedule)) => VecOps::Pooled(pool, schedule),
        None => VecOps::Serial,
    };
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
    ops.hadamard(&minv, &r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];

    let b_norm = ops.norm2(b);
    let mut history = ConvergenceHistory::default();
    history.residual_norms.push(ops.norm2(&r));

    if b_norm == 0.0 {
        // Trivial system: x = 0 is exact.
        return PcgOutcome {
            x,
            converged: true,
            history,
        };
    }
    let target = opts.rel_tol * b_norm;
    let mut rz = ops.dot(&r, &z);
    let mut converged = history.residual_norms[0] <= target;

    for _ in 0..max_iter {
        if converged {
            break;
        }
        a.apply(&p, &mut ap);
        let pap = ops.dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Operator is not SPD in the Krylov space explored (or we hit
            // round-off stagnation); stop with the best iterate so far.
            break;
        }
        let alpha = rz / pap;
        ops.axpy(alpha, &p, &mut x);
        ops.axpy(-alpha, &ap, &mut r);
        let r_norm = ops.norm2(&r);
        history.residual_norms.push(r_norm);
        if r_norm <= target {
            converged = true;
            break;
        }
        ops.hadamard(&minv, &r, &mut z);
        let rz_new = ops.dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        ops.xpby(&z, beta, &mut p);
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
                ..Default::default()
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

    #[test]
    fn pooled_operator_matvec_is_bit_identical_to_serial() {
        let a = spd(57);
        let x: Vec<f64> = (0..57).map(|i| ((i * 31) % 13) as f64 - 6.0).collect();
        let serial = a.matvec_alloc(&x);
        for threads in [1, 2, 4] {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::dynamic(3),
                Schedule::guided(1),
            ] {
                let op = PooledSymOperator::new(&a, ThreadPool::new(threads), schedule);
                let mut y = vec![0.0; 57];
                op.apply(&x, &mut y);
                assert_eq!(serial, y, "threads={threads} {}", schedule.label());
            }
        }
    }

    #[test]
    fn pooled_solve_matches_serial_iterates_exactly() {
        let a = spd(48);
        let b: Vec<f64> = (0..48).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let serial = pcg_solve(&a, &b, PcgOptions::default());
        let op = PooledSymOperator::new(&a, ThreadPool::new(4), Schedule::dynamic(2));
        let pooled = pcg_solve(&op, &b, PcgOptions::default());
        assert!(pooled.converged);
        // Same matvec bits → same Krylov trajectory: iterate-for-iterate
        // identical residual history and solution.
        assert_eq!(serial.history.iterations(), pooled.history.iterations());
        assert_eq!(serial.history.residual_norms, pooled.history.residual_norms);
        assert_eq!(serial.x, pooled.x);
    }

    #[test]
    fn pooled_vector_ops_leave_the_krylov_trajectory_bit_identical() {
        // Large enough that the fixed reduction partition has several
        // runs (n > REDUCE_CHUNK), so the pooled dot/norm genuinely fan
        // out — and must still replay the serial trajectory exactly.
        let n = crate::vector::REDUCE_CHUNK + 300;
        let a = spd(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        let serial = pcg_solve(&a, &b, PcgOptions::default());
        assert!(serial.converged);
        for threads in [1, 2, 4] {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::dynamic(1),
                Schedule::guided(1),
            ] {
                let pool = ThreadPool::new(threads);
                let op = PooledSymOperator::new(&a, pool, schedule);
                let pooled = pcg_solve(
                    &op,
                    &b,
                    PcgOptions {
                        vector_parallelism: Some((pool, schedule)),
                        ..Default::default()
                    },
                );
                let label = format!("threads={threads} {}", schedule.label());
                assert_eq!(
                    serial.history.residual_norms, pooled.history.residual_norms,
                    "{label}"
                );
                assert_eq!(serial.x, pooled.x, "{label}");
            }
        }
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
