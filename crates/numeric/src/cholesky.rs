//! Packed Cholesky factorization `A = L·Lᵀ` for symmetric positive-definite
//! matrices.
//!
//! The paper's §4.3 notes that direct resolution costs `O(N³/3)` and
//! "prevails in medium/large" problems, motivating the preconditioned CG.
//! We provide the direct factorization anyway: it is the reference solver
//! for small systems, the cross-check for the iterative path, and the tool
//! that certifies positive-definiteness of the assembled Galerkin matrix
//! (factorization succeeds ⇔ SPD up to round-off).
//!
//! One algorithm produces the factor, for serial and pooled callers
//! alike: a **blocked right-looking** elimination. Panels of
//! `FACTOR_PANEL` columns are factorized in order, and each panel's whole
//! contribution to the trailing submatrix — the `O(N³)` bulk of the work —
//! is applied in one sweep over the trailing rows: on the caller's
//! [`ThreadPool`], by disjoint row partitions of the packed triangle, when
//! a pool of more than one thread is passed and at least `PAR_CUTOFF`
//! trailing rows remain; inline otherwise. The row-oriented
//! Cholesky–Crout loop that serial callers used to run is kept only as
//! the tests' oracle: both loops apply, to every entry, the identical
//! ascending-column sequence of subtractions on identical finalized
//! operands, so the factors agree **bit for bit** for every order,
//! schedule and thread count.

use layerbem_parfor::{Schedule, ThreadPool};

use crate::symmetric::SymMatrix;
use crate::{FACTOR_PANEL, PAR_CUTOFF};

/// Error returned when the matrix is not positive definite (a non-positive
/// pivot was encountered at the given index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the failing pivot.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} non-positive)",
            self.pivot
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor in packed row-major storage.
#[derive(Clone, Debug)]
pub struct CholeskyFactor {
    n: usize,
    /// Packed lower triangle of `L`.
    l: Vec<f64>,
}

impl CholeskyFactor {
    /// Factorizes a packed symmetric matrix on the calling thread.
    ///
    /// Returns an error identifying the first non-positive pivot when the
    /// matrix is not positive definite.
    pub fn factor(a: &SymMatrix) -> Result<Self, NotPositiveDefinite> {
        Self::factor_in_place(a.clone(), &ThreadPool::new(1), Schedule::static_blocked())
    }

    /// Factorizes a matrix the caller gives up: its packed triangle is
    /// overwritten with `L`, so the operator and its factor are never
    /// resident side by side.
    ///
    /// Panels of `FACTOR_PANEL` columns are factorized sequentially, then
    /// the panel's whole contribution to the trailing submatrix —
    /// `l_ij -= Σ_c l_ic·l_jc` over the panel columns `c` — is applied in
    /// one sweep. On a `pool` of more than one thread and with at least
    /// `PAR_CUTOFF` trailing rows, that sweep is one parallel
    /// region over disjoint [`SymRowsMut`](crate::symmetric::SymRowsMut)
    /// views dispatched under the schedule; otherwise it runs inline.
    ///
    /// The factor is **bit-identical** whoever computes it: each entry
    /// `(i, j)` receives the same subtractions `l_ik·l_jk` on the same
    /// finalized operands in the same ascending-`k` order as in the
    /// row-oriented Crout loop, which accumulates them into a scalar in
    /// exactly this order.
    pub fn factor_in_place(
        a: SymMatrix,
        pool: &ThreadPool,
        schedule: Schedule,
    ) -> Result<Self, NotPositiveDefinite> {
        let n = a.order();
        let block = FACTOR_PANEL.min(n);
        let mut l = a;
        // Column-major cache of the finalized panel block l_ic (trailing
        // rows i, panel columns c): the strided packed-column reads happen
        // once per panel, and the row updates then touch only their own
        // packed rows plus this shared read-only cache. The first panel's
        // trailing block — (n − block) rows × block columns — is the
        // widest; later panels only shrink, so one allocation serves them
        // all.
        let mut cache = vec![0.0; (n - block) * block];
        let mut k0 = 0;
        while k0 < n {
            let k1 = (k0 + block).min(n);
            // Panel factorization (sequential): steps k0..k1 of the
            // right-looking sweep, with each step's trailing update
            // restricted to the panel columns (j < k1). Columns ≥ k1 get
            // the deferred updates in the panel's single trailing sweep
            // below, entry-wise in the same ascending-k order.
            for k in k0..k1 {
                let p = l.packed_mut();
                let rk = k * (k + 1) / 2;
                let s = p[rk + k];
                if s <= 0.0 || !s.is_finite() {
                    return Err(NotPositiveDefinite { pivot: k });
                }
                let lkk = s.sqrt();
                p[rk + k] = lkk;
                for i in (k + 1)..n {
                    let ri = i * (i + 1) / 2;
                    let lik = p[ri + k] / lkk;
                    p[ri + k] = lik;
                    for j in (k + 1)..=(k1 - 1).min(i) {
                        let ljk = p[j * (j + 1) / 2 + k];
                        p[ri + j] -= lik * ljk;
                    }
                }
            }
            let rows = n - k1;
            if rows == 0 {
                break;
            }
            let nb = k1 - k0;
            {
                let p = l.packed();
                for (c, col) in cache[..rows * nb].chunks_mut(rows).enumerate() {
                    for (off, v) in col.iter_mut().enumerate() {
                        let i = k1 + off;
                        *v = p[i * (i + 1) / 2 + k0 + c];
                    }
                }
            }
            let cache = &cache[..rows * nb];
            // One row's deferred panel update: entry (i, j) receives
            // `-l_ic·l_jc` for the panel columns c in ascending order —
            // the identical per-entry sequence the Crout loop applies.
            let update_row = |i: usize, tail: &mut [f64]| {
                for c in 0..nb {
                    let col = &cache[c * rows..(c + 1) * rows];
                    let lic = col[i - k1];
                    for (rj, ljc) in tail.iter_mut().zip(&col[..i - k1 + 1]) {
                        *rj -= lic * ljc;
                    }
                }
            };
            match pool.threads() {
                threads if threads > 1 && rows >= PAR_CUTOFF => {
                    // Floor the chunk so per-panel partition bookkeeping
                    // (one view + one dispatch claim each) stays
                    // O(threads), even for a `dynamic,1` schedule request.
                    let step = schedule.with_min_chunk(rows.div_ceil(4 * threads));
                    let ranges: Vec<std::ops::Range<usize>> = step
                        .chunk_ranges(rows, threads)
                        .into_iter()
                        .map(|(a, b)| (k1 + a)..(k1 + b))
                        .collect();
                    let mut views = l.partition_rows(&ranges);
                    pool.scoped_partition(&mut views, step.partition_dispatch(), |_, view| {
                        for i in view.rows() {
                            let row = view.row_mut(i);
                            update_row(i, &mut row[k1..]);
                        }
                    });
                }
                _ => {
                    let p = l.packed_mut();
                    for i in k1..n {
                        let ri = i * (i + 1) / 2;
                        update_row(i, &mut p[ri + k1..=ri + i]);
                    }
                }
            }
            k0 = k1;
        }
        Ok(CholeskyFactor {
            n,
            l: l.into_packed(),
        })
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` by forward/backward substitution, in place.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "solve: rhs length");
        // Forward: L·y = b.
        for i in 0..self.n {
            let row = i * (i + 1) / 2;
            let mut s = b[i];
            for (lk, bk) in self.l[row..row + i].iter().zip(&b[..i]) {
                s -= lk * bk;
            }
            b[i] = s / self.l[row + i];
        }
        // Backward: Lᵀ·x = y (column i of L read with triangular stride).
        for i in (0..self.n).rev() {
            let mut s = b[i];
            for (off, bk) in b[(i + 1)..self.n].iter().enumerate() {
                let k = i + 1 + off;
                s -= self.l[k * (k + 1) / 2 + i] * bk;
            }
            b[i] = s / self.l[i * (i + 1) / 2 + i];
        }
    }

    /// Allocating solve.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Log-determinant of `A` (`2·Σ ln l_ii`) — cheap once factorized, and
    /// a handy conditioning diagnostic for tests.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[i * (i + 1) / 2 + i].ln())
            .sum::<f64>()
            * 2.0
    }

    /// The packed lower triangle of `L`, row-major — exposed so
    /// cross-crate tests can compare factors bit for bit.
    pub fn packed_l(&self) -> &[f64] {
        &self.l
    }

    /// Mutable view of the packed lower triangle, for the sibling
    /// [`update`](crate::update) module's in-place rank-1 sweeps.
    pub(crate) fn packed_l_mut(&mut self) -> &mut [f64] {
        &mut self.l
    }

    /// Entry `(i, j)` of `L` (zero above the diagonal).
    pub fn l_entry(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.l[i * (i + 1) / 2 + j]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    /// The row-oriented Cholesky–Crout loop — the serial production path
    /// until the blocked kernel served every caller — kept as the oracle
    /// that kernel must match bit for bit:
    ///   l_ij = (a_ij − Σ_{k<j} l_ik l_jk) / l_jj   (j < i)
    ///   l_ii = sqrt(a_ii − Σ_{k<i} l_ik²)
    fn crout(a: &SymMatrix) -> Result<Vec<f64>, NotPositiveDefinite> {
        let n = a.order();
        let mut l = a.clone().into_packed();
        for i in 0..n {
            let row_i = i * (i + 1) / 2;
            for j in 0..=i {
                let row_j = j * (j + 1) / 2;
                let mut s = l[row_i + j];
                for k in 0..j {
                    s -= l[row_i + k] * l[row_j + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[row_i + j] = s.sqrt();
                } else {
                    l[row_i + j] = s / l[row_j + j];
                }
            }
        }
        Ok(l)
    }

    fn spd3() -> SymMatrix {
        // Diagonally dominant ⇒ SPD.
        SymMatrix::from_packed(3, vec![4.0, 1.0, 5.0, 2.0, 3.0, 6.0])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let f = CholeskyFactor::factor(&a).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..3 {
                    s += f.l_entry(i, k) * f.l_entry(j, k);
                }
                assert!(approx_eq(s, a.get(i, j), 1e-13), "({i},{j}): {s}");
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec_alloc(&x_true);
        let f = CholeskyFactor::factor(&a).unwrap();
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!(approx_eq(*u, *v, 1e-12));
        }
    }

    #[test]
    fn identity_factors_to_identity() {
        let mut a = SymMatrix::zeros(5);
        for i in 0..5 {
            a.set(i, i, 1.0);
        }
        let f = CholeskyFactor::factor(&a).unwrap();
        for i in 0..5 {
            for j in 0..=i {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(f.l_entry(i, j), expect);
            }
        }
        assert!(approx_eq(f.log_det(), 0.0, 1e-15));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        // Eigenvalues 1 and -1 ⇒ indefinite.
        let a = SymMatrix::from_packed(2, vec![0.0, 1.0, 0.0]);
        let err = CholeskyFactor::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 0);
    }

    #[test]
    fn rejects_negative_definite() {
        let a = SymMatrix::from_packed(2, vec![-2.0, 0.0, -3.0]);
        assert!(CholeskyFactor::factor(&a).is_err());
    }

    #[test]
    fn log_det_matches_product_of_pivots() {
        let a = spd3();
        let f = CholeskyFactor::factor(&a).unwrap();
        // det(A) for the sample matrix: 4(30-9) - 1(6-6) + 2(3-10) = 84 - 0 - 14 = 70.
        assert!(approx_eq(f.log_det(), 70.0f64.ln(), 1e-12));
    }

    #[test]
    fn error_display_mentions_pivot() {
        let e = NotPositiveDefinite { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
    }

    /// Dense-ish SPD matrix large enough to cross the parallel cutoff.
    fn spd_large(n: usize) -> SymMatrix {
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = 1.0 / (1.0 + (i - j) as f64); // Lehmer-like decay
                a.set(i, j, if i == j { v + n as f64 * 0.05 } else { v * 0.3 });
            }
        }
        a
    }

    /// Pseudo-random SPD matrix of order `n`: xorshift entries in
    /// (−0.5, 0.5) on a diagonal boosted past row-sum dominance.
    fn spd_random(n: usize, seed: u64) -> SymMatrix {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..i {
                a.set(i, j, next());
            }
            a.set(i, i, n as f64 * 0.5 + 1.0 + next());
        }
        a
    }

    #[test]
    fn pooled_factor_is_bit_identical_to_crout_factor() {
        let a = spd_large(150);
        let crout = crout(&a).unwrap();
        assert_eq!(CholeskyFactor::factor(&a).unwrap().l, crout);
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::static_blocked(),
            Schedule::dynamic(8),
            Schedule::guided(1),
        ] {
            let pooled = CholeskyFactor::factor_in_place(a.clone(), &pool, schedule).unwrap();
            assert_eq!(pooled.l, crout, "{}", schedule.label());
        }
    }

    #[test]
    fn pooled_factor_is_deterministic_across_thread_counts() {
        let a = spd_large(150);
        let reference = CholeskyFactor::factor(&a).unwrap();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let f =
                CholeskyFactor::factor_in_place(a.clone(), &pool, Schedule::dynamic(4)).unwrap();
            assert_eq!(f.l, reference.l, "threads={threads}");
        }
    }

    #[test]
    fn pooled_solve_round_trips() {
        let a = spd_large(120);
        let x_true: Vec<f64> = (0..120).map(|i| ((i % 9) as f64) - 4.0).collect();
        let b = a.matvec_alloc(&x_true);
        let pool = ThreadPool::new(3);
        let f = CholeskyFactor::factor_in_place(a, &pool, Schedule::guided(2)).unwrap();
        let x = f.solve(&b);
        for (u, v) in x.iter().zip(&x_true) {
            assert!(approx_eq(*u, *v, 1e-9));
        }
    }

    #[test]
    fn pooled_factor_reports_failing_pivot() {
        // Large enough to take the parallel trailing sweep; the panel
        // sweep reaches the poisoned diagonal at its own step and Crout
        // agrees on the pivot index (the updated values match bit for
        // bit).
        let mut a = spd_large(160);
        a.set(90, 90, -1.0);
        let pool = ThreadPool::new(2);
        let err =
            CholeskyFactor::factor_in_place(a.clone(), &pool, Schedule::dynamic(1)).unwrap_err();
        assert_eq!(err.pivot, 90);
        assert_eq!(CholeskyFactor::factor(&a).unwrap_err().pivot, 90);
        assert_eq!(crout(&a).unwrap_err().pivot, 90);
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
        fn blocked_factor_matches_the_crout_oracle_bit_for_bit(
            n in orders(),
            seed in 0u64..u64::MAX,
            schedule in 0usize..3,
        ) {
            let a = spd_random(n, seed);
            let oracle = crout(&a).expect("SPD by construction");
            prop_assert_eq!(&CholeskyFactor::factor(&a).unwrap().l, &oracle, "n={}", n);
            let schedule = [Schedule::static_blocked(), Schedule::dynamic(1), Schedule::guided(1)]
                [schedule];
            let pooled =
                CholeskyFactor::factor_in_place(a, &ThreadPool::new(2), schedule).unwrap();
            prop_assert_eq!(&pooled.l, &oracle, "n={} {}", n, schedule.label());
        }
    }
}
