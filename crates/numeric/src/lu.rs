//! Partially pivoted LU factorization for general dense matrices.
//!
//! The collocation BEM formulation (point testing instead of Galerkin
//! weighting) produces a *nonsymmetric* dense matrix; LU with partial
//! pivoting is the appropriate direct solver for it. It also serves as an
//! independent cross-check of the Cholesky path in the test-suite.
//!
//! One algorithm produces the factor, for serial and pooled callers
//! alike: a **blocked** right-looking elimination. A panel of columns is
//! factorized sequentially (pivot search, row swaps, and the
//! panel-internal updates), then the panel's whole contribution to the
//! trailing columns is applied in one sweep over the rows below it — one
//! parallel region over disjoint row blocks of the row-major buffer when
//! the caller passes a pool, inline otherwise. The unblocked elimination
//! that serial callers used to run is kept only as the tests' oracle:
//! every entry receives the identical ascending-column sequence of
//! updates on identical operands in both loops, and pivot selection sees
//! identical column values, so the factor is **bit-identical** for every
//! order, schedule and thread count.

use layerbem_parfor::{Schedule, ThreadPool};

use crate::dense::DenseMatrix;
use crate::{FACTOR_PANEL, PAR_CUTOFF};

/// Error returned when a zero (or non-finite) pivot makes the matrix
/// numerically singular.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Elimination column at which the factorization broke down.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is numerically singular at column {}",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrix {}

/// LU factorization with row partial pivoting: `P·A = L·U`.
#[derive(Clone, Debug)]
pub struct LuFactor {
    n: usize,
    /// Combined storage: strictly-lower part holds `L` (unit diagonal
    /// implied), upper part holds `U`.
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 / −1.0), for determinants.
    perm_sign: f64,
}

impl LuFactor {
    /// Factorizes a square matrix on the calling thread.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn factor(a: &DenseMatrix) -> Result<Self, SingularMatrix> {
        Self::factor_in_place(a.clone(), &ThreadPool::new(1), Schedule::static_blocked())
    }

    /// Factorizes a matrix the caller gives up: its buffer is overwritten
    /// with `L\U`, so the operator and its factor are never resident side
    /// by side.
    ///
    /// A panel of `FACTOR_PANEL` columns is factorized sequentially:
    /// pivot search, full-row swap, multiplier column, and the elimination
    /// restricted to the panel columns. The deferred update of the
    /// trailing columns is then applied per entry in ascending
    /// panel-column order — first to the panel's own rows (sequential,
    /// `O(panel²·N)`), then to the rows below the panel, which are
    /// mutually independent. On a `pool` of more than one thread and
    /// with at least `PAR_CUTOFF` rows below the panel,
    /// those rows are partitioned into disjoint row blocks dispatched
    /// under the schedule while the finalized pivot rows are read through
    /// a shared split of the buffer; otherwise they are updated inline.
    /// Every entry receives the same updates on the same operands in the
    /// same order as in the unblocked elimination, and pivot search sees
    /// the same column values (a panel column is only ever updated by
    /// earlier columns, all already applied), so the factor and the
    /// permutation are **bit-identical** whoever computes them.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn factor_in_place(
        a: DenseMatrix,
        pool: &ThreadPool,
        schedule: Schedule,
    ) -> Result<Self, SingularMatrix> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + FACTOR_PANEL).min(n);
            // Panel factorization (sequential): steps k0..k1 with the
            // elimination restricted to the panel columns. Trailing
            // columns (≥ k1) receive the deferred updates below, per
            // entry in the same ascending-column order.
            for k in k0..k1 {
                let mut p = k;
                let mut pmax = lu.get(k, k).abs();
                for i in (k + 1)..n {
                    let v = lu.get(i, k).abs();
                    if v > pmax {
                        pmax = v;
                        p = i;
                    }
                }
                if pmax == 0.0 || !pmax.is_finite() {
                    return Err(SingularMatrix { column: k });
                }
                if p != k {
                    perm.swap(p, k);
                    perm_sign = -perm_sign;
                    for j in 0..n {
                        let tmp = lu.get(k, j);
                        lu.set(k, j, lu.get(p, j));
                        lu.set(p, j, tmp);
                    }
                }
                let pivot = lu.get(k, k);
                for i in (k + 1)..n {
                    let m = lu.get(i, k) / pivot;
                    lu.set(i, k, m);
                    if m != 0.0 {
                        for j in (k + 1)..k1 {
                            lu.add(i, j, -m * lu.get(k, j));
                        }
                    }
                }
            }
            if k1 == n {
                break;
            }
            // Finalize the trailing columns of the panel's own rows
            // (sequential, ascending row then ascending panel column, so
            // each pivot row is complete before a later row reads it).
            for i in (k0 + 1)..k1 {
                for c in k0..i {
                    let m = lu.get(i, c);
                    if m != 0.0 {
                        for j in k1..n {
                            lu.add(i, j, -m * lu.get(c, j));
                        }
                    }
                }
            }
            // Deferred trailing update of the rows below the panel: the
            // buffer splits into the finalized head (shared, read-only
            // pivot rows) and the tail, whose rows are mutually
            // independent. Each row applies the panel columns in
            // ascending order — the identical per-entry sequence of the
            // unblocked elimination.
            let rows = n - k1;
            let nb = k1 - k0;
            let (head, tail) = lu.as_mut_slice().split_at_mut(k1 * n);
            let pivot_rows = &head[k0 * n..];
            let update_row = |row: &mut [f64]| {
                for c in 0..nb {
                    let m = row[k0 + c];
                    if m != 0.0 {
                        let prow = &pivot_rows[c * n + k1..(c + 1) * n];
                        for (v, pj) in row[k1..].iter_mut().zip(prow) {
                            *v -= m * pj;
                        }
                    }
                }
            };
            match pool.threads() {
                threads if threads > 1 && rows >= PAR_CUTOFF => {
                    // Same chunk floor as the Cholesky sweep: per-panel
                    // partition count stays O(threads) under `dynamic,1`.
                    let step = schedule.with_min_chunk(rows.div_ceil(4 * threads));
                    let mut parts: Vec<&mut [f64]> = Vec::new();
                    let mut rest = tail;
                    for (a2, b2) in step.chunk_ranges(rows, threads) {
                        let (chunk, r) = rest.split_at_mut((b2 - a2) * n);
                        parts.push(chunk);
                        rest = r;
                    }
                    pool.scoped_partition(
                        &mut parts,
                        step.partition_dispatch(),
                        |_, rows_block| {
                            for row in rows_block.chunks_mut(n) {
                                update_row(row);
                            }
                        },
                    );
                }
                _ => {
                    for row in tail.chunks_mut(n) {
                        update_row(row);
                    }
                }
            }
            k0 = k1;
        }
        Ok(LuFactor {
            n,
            lu,
            perm,
            perm_sign,
        })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b`.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "solve: rhs length");
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        // Forward substitution with unit lower triangle.
        for i in 1..self.n {
            let mut s = x[i];
            for (k, xk) in x[..i].iter().enumerate() {
                s -= self.lu.get(i, k) * xk;
            }
            x[i] = s;
        }
        // Backward substitution with U.
        for i in (0..self.n).rev() {
            let mut s = x[i];
            for (off, xk) in x[(i + 1)..self.n].iter().enumerate() {
                s -= self.lu.get(i, i + 1 + off) * xk;
            }
            x[i] = s / self.lu.get(i, i);
        }
        x
    }

    /// The combined `L\U` storage (strict lower triangle holds the
    /// multipliers of `L`, upper triangle holds `U`), row-major — exposed
    /// so cross-crate tests can compare factorizations bit for bit.
    pub fn lu_entries(&self) -> &[f64] {
        self.lu.as_slice()
    }

    /// Row permutation: `perm[i]` is the original row now in position `i`.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Determinant of `A` (product of `U` pivots times permutation sign).
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.n {
            d *= self.lu.get(i, i);
        }
        d
    }
}

/// One-shot convenience: factor and solve.
pub fn lu_solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
    Ok(LuFactor::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    /// The unblocked partially pivoted elimination — the serial
    /// production path until the blocked kernel served every caller —
    /// kept as the oracle that kernel must match bit for bit.
    fn unblocked(a: &DenseMatrix) -> Result<LuFactor, SingularMatrix> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        for k in 0..n {
            // Pivot search in column k, rows k..n.
            let mut p = k;
            let mut pmax = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                perm.swap(p, k);
                perm_sign = -perm_sign;
                for j in 0..n {
                    let tmp = lu.get(k, j);
                    lu.set(k, j, lu.get(p, j));
                    lu.set(p, j, tmp);
                }
            }
            // Elimination.
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let m = lu.get(i, k) / pivot;
                lu.set(i, k, m);
                if m != 0.0 {
                    for j in (k + 1)..n {
                        lu.add(i, j, -m * lu.get(k, j));
                    }
                }
            }
        }
        Ok(LuFactor {
            n,
            lu,
            perm,
            perm_sign,
        })
    }

    /// Asserts two factors agree bit for bit: `L\U`, permutation, sign.
    fn assert_same_factor(got: &LuFactor, want: &LuFactor, label: &str) {
        assert_eq!(got.lu.as_slice(), want.lu.as_slice(), "{label}");
        assert_eq!(got.perm, want.perm, "{label}");
        assert_eq!(got.perm_sign, want.perm_sign, "{label}");
    }

    #[test]
    fn solves_small_nonsymmetric_system() {
        let a = DenseMatrix::from_rows(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let b = [8.0, -11.0, -3.0];
        let x = lu_solve(&a, &b).unwrap();
        // Known solution of the classic example: x = (2, 3, -1).
        assert!(approx_eq(x[0], 2.0, 1e-12));
        assert!(approx_eq(x[1], 3.0, 1e-12));
        assert!(approx_eq(x[2], -1.0, 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = lu_solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let err = LuFactor::factor(&a).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("column 1"));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        // Swapping rows of the identity gives det = -1.
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = LuFactor::factor(&a).unwrap();
        assert!(approx_eq(f.det(), -1.0, 1e-15));
    }

    #[test]
    fn determinant_of_triangular_is_pivot_product() {
        let a = DenseMatrix::from_rows(3, 3, vec![2.0, 1.0, 1.0, 0.0, 3.0, 1.0, 0.0, 0.0, 4.0]);
        let f = LuFactor::factor(&a).unwrap();
        assert!(approx_eq(f.det(), 24.0, 1e-12));
    }

    /// Deterministic pseudo-random dense matrix with a boosted diagonal.
    fn random_matrix(n: usize, seed: u64) -> DenseMatrix {
        let mut state = seed;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut vals = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let boost = if i == j { 2.0 } else { 0.0 };
                vals.push(next() + boost);
            }
        }
        DenseMatrix::from_rows(n, n, vals)
    }

    #[test]
    fn pooled_factor_is_bit_identical_to_sequential() {
        let a = random_matrix(130, 0xDEADBEEF);
        let oracle = unblocked(&a).unwrap();
        assert_same_factor(&LuFactor::factor(&a).unwrap(), &oracle, "serial");
        for threads in [1, 2, 4] {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::dynamic(16),
                Schedule::guided(1),
            ] {
                let pool = ThreadPool::new(threads);
                let pooled = LuFactor::factor_in_place(a.clone(), &pool, schedule).unwrap();
                let label = format!("threads={threads} {}", schedule.label());
                assert_same_factor(&pooled, &oracle, &label);
                assert_eq!(pooled.det(), oracle.det(), "{label}");
            }
        }
    }

    #[test]
    fn pooled_factor_detects_singularity() {
        // An exactly zero column is the one singularity floating point
        // preserves bit-exactly through elimination: updates into it are
        // `-m·0`, so it stays zero through any number of panels. Column 40
        // puts the breakdown in the *second* panel, after a parallel
        // trailing sweep has run.
        let n = 150;
        let mut a = random_matrix(n, 42);
        for i in 0..n {
            a.set(i, 40, 0.0);
        }
        let oracle = unblocked(&a).unwrap_err();
        let pool = ThreadPool::new(4);
        let pooled = LuFactor::factor_in_place(a.clone(), &pool, Schedule::dynamic(8)).unwrap_err();
        assert_eq!(oracle, pooled);
        assert_eq!(LuFactor::factor(&a).unwrap_err(), pooled);
        assert_eq!(pooled.column, 40);
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random SPD-ish matrix; solve then verify Ax≈b.
        let n = 20;
        let mut vals = Vec::with_capacity(n * n);
        let mut state = 0x12345678u64;
        let mut next = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                let diag_boost = if i == j { (n as f64) * 1.0 } else { 0.0 };
                vals.push(next() + diag_boost);
            }
        }
        let a = DenseMatrix::from_rows(n, n, vals);
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x = lu_solve(&a, &b).unwrap();
        let r = a.matvec_alloc(&x);
        for (u, v) in r.iter().zip(&b) {
            assert!(approx_eq(*u, *v, 1e-10));
        }
    }

    /// Orders 1–200: uniformly, and at the panel edges `32k ± 1` on both
    /// sides of the 64-row cutoff.
    fn orders() -> impl Strategy<Value = usize> {
        prop_oneof![
            1usize..=200,
            (1usize..=6, 0usize..3).prop_map(|(k, d)| FACTOR_PANEL * k + d - 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn blocked_factor_matches_the_unblocked_oracle_bit_for_bit(
            n in orders(),
            seed in 0u64..u64::MAX,
            schedule in 0usize..3,
        ) {
            // A diagonal boost of 2 against entries in (−½, ½) keeps
            // row swaps in every panel.
            let a = random_matrix(n, seed | 1);
            let oracle = unblocked(&a).expect("nonsingular");
            assert_same_factor(&LuFactor::factor(&a).unwrap(), &oracle, &format!("n={n}"));
            let schedule = [Schedule::static_blocked(), Schedule::dynamic(1), Schedule::guided(1)]
                [schedule];
            let pooled =
                LuFactor::factor_in_place(a, &ThreadPool::new(2), schedule).unwrap();
            assert_same_factor(&pooled, &oracle, &format!("n={n} {}", schedule.label()));
        }
    }
}
