//! Hierarchical (H-) matrix operator: sparse-symmetric near field plus
//! low-rank-compressed far field.
//!
//! The hierarchical backend stores the Galerkin operator as
//!
//! * a **near part** — a [`SparseSym`] holding exactly the packed-triangle
//!   entries touched by inadmissible (near) element pairs, assembled by
//!   the same quadrature path and in the same per-entry accumulation order
//!   as the dense assembler; and
//! * a **far part** — one [`FarBlock`] per admissible cluster pair
//!   `(σ, τ)`, a [`LowRank`] `U·Vᵀ` factorization of the coupling block
//!   between the two clusters' (disjoint) row sets, built by adaptive
//!   cross approximation without ever forming the block.
//!
//! [`HMatrix`] implements [`LinearOperator`], so the PCG solver drives it
//! unchanged. The apply is **serial** and fixed-order, like the rest of
//! the solve: the matvec is `O(nnz + Σ r·(|σ|+|τ|))` instead of `O(N²)`,
//! and the Krylov trajectory is bit-identical across the thread counts
//! and schedules the operator was assembled with. The operator diagonal
//! lives entirely in the near part, because a cluster is never admissible
//! with itself, so the Jacobi preconditioner is exact.

use crate::aca::LowRank;
use crate::pcg::LinearOperator;

/// Symmetric sparse matrix in CSR layout over the **lower triangle**
/// (entries `(i, j)` with `j ≤ i`), mirroring the packed [`SymMatrix`]
/// convention but storing only a prescribed sparsity pattern.
///
/// The pattern is fixed at construction ([`SparseSym::from_pattern`]);
/// assembly then accumulates into existing slots ([`SparseSym::add`]).
/// Writing outside the pattern is a bug in the caller and panics.
///
/// [`SymMatrix`]: crate::SymMatrix
#[derive(Clone, Debug, PartialEq)]
pub struct SparseSym {
    n: usize,
    /// CSR row pointers, length `n + 1`.
    row_ptr: Vec<usize>,
    /// Column indices per row, ascending, `col ≤ row`.
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseSym {
    /// Builds a zeroed matrix of order `n` whose pattern is the given
    /// lower-triangle coordinates (`row ≥ col`; duplicates are merged).
    pub fn from_pattern(n: usize, mut pattern: Vec<(u32, u32)>) -> Self {
        for &(r, c) in &pattern {
            assert!(
                c <= r && (r as usize) < n,
                "pattern entry ({r}, {c}) out of range"
            );
        }
        pattern.sort_unstable();
        pattern.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        for &(r, _) in &pattern {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<u32> = pattern.iter().map(|&(_, c)| c).collect();
        let vals = vec![0.0; col_idx.len()];
        SparseSym {
            n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of stored lower-triangle entries.
    pub fn stored_len(&self) -> usize {
        self.col_idx.len()
    }

    /// Flat index of `(i, j)` (unordered; normalized to the lower
    /// triangle), when it is part of the pattern.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let (r, c) = (i.max(j), i.min(j) as u32);
        let row = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[row.clone()]
            .binary_search(&c)
            .ok()
            .map(|k| row.start + k)
    }

    /// Accumulates `v` into entry `(i, j)`. Panics when the entry is not
    /// part of the pattern.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let k = self
            .slot(i, j)
            .unwrap_or_else(|| panic!("entry ({i}, {j}) outside the sparsity pattern"));
        self.vals[k] += v;
    }

    /// Reads entry `(i, j)`; zero off the pattern.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.slot(i, j).map_or(0.0, |k| self.vals[k])
    }

    /// The matrix diagonal (zeros where the diagonal is off the pattern).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            *di = self.get(i, i);
        }
        d
    }

    /// Symmetric matvec `y = A·x` over the stored pattern (both triangles
    /// via the mirror of each off-diagonal entry). Serial, fixed order:
    /// rows ascending, columns ascending within a row.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length");
        assert_eq!(y.len(), self.n, "matvec: y length");
        y.fill(0.0);
        for i in 0..self.n {
            let row = self.row_ptr[i]..self.row_ptr[i + 1];
            let mut s = 0.0;
            for (cj, aij) in self.col_idx[row.clone()].iter().zip(&self.vals[row]) {
                let j = *cj as usize;
                s += aij * x[j];
                if j != i {
                    y[j] += aij * x[i];
                }
            }
            y[i] += s;
        }
    }

    /// Resident bytes of the CSR payload.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.row_ptr.as_slice())
            + std::mem::size_of_val(self.col_idx.as_slice())
            + std::mem::size_of_val(self.vals.as_slice())
    }
}

/// One admissible cluster pair's compressed coupling block.
///
/// `factors` approximates the dense sub-block `A[rows × cols]`; because
/// the two row sets are disjoint (admissibility guarantees it) and `A` is
/// symmetric, one stored block serves both `A[rows × cols]` and its
/// transpose `A[cols × rows]` during the matvec.
#[derive(Clone, Debug, PartialEq)]
pub struct FarBlock {
    /// Global row indices of the block (cluster σ's Galerkin rows).
    pub rows: Vec<u32>,
    /// Global column indices of the block (cluster τ's Galerkin rows).
    pub cols: Vec<u32>,
    /// The `U·Vᵀ` factors, `rows.len() × cols.len()`.
    pub factors: LowRank,
}

impl FarBlock {
    /// Resident bytes: index lists plus factor payload.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice())
            + std::mem::size_of_val(self.cols.as_slice())
            + self.factors.resident_bytes()
    }
}

/// Compression accounting for a built [`HMatrix`], reported through the
/// study profile; `tests/hierarchical.rs` asserts
/// `resident_bytes < dense_bytes` on the refined Barberá grid.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompressionStats {
    /// Operator order `N`.
    pub order: usize,
    /// Stored near-field (lower-triangle) entries.
    pub near_entries: usize,
    /// Number of compressed far blocks.
    pub far_blocks: usize,
    /// Mean achieved ACA rank over far blocks (0 when there are none).
    pub mean_far_rank: f64,
    /// Largest achieved ACA rank.
    pub max_far_rank: usize,
    /// Total resident bytes (near CSR + far factors + index lists).
    pub resident_bytes: usize,
    /// Bytes of the dense packed triangle at the same order:
    /// `8·N·(N+1)/2`.
    pub dense_bytes: usize,
}

impl CompressionStats {
    /// `resident_bytes / dense_bytes` — below 1 means the hierarchical
    /// form is smaller than the dense packed triangle.
    pub fn compression_ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            0.0
        } else {
            self.resident_bytes as f64 / self.dense_bytes as f64
        }
    }
}

/// Hierarchical operator: near-field [`SparseSym`] + far-field
/// [`FarBlock`]s, applied through [`LinearOperator`] so PCG (pooled or
/// serial) drives it unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct HMatrix {
    near: SparseSym,
    far: Vec<FarBlock>,
}

impl HMatrix {
    /// Assembles the operator from its parts. Far blocks must couple
    /// index sets disjoint from each other's pair (the admissibility
    /// invariant); each block's factor dimensions must match its index
    /// lists.
    pub fn new(near: SparseSym, far: Vec<FarBlock>) -> Self {
        for b in &far {
            assert_eq!(b.factors.nrows, b.rows.len(), "far block row mismatch");
            assert_eq!(b.factors.ncols, b.cols.len(), "far block col mismatch");
        }
        HMatrix { near, far }
    }

    /// The near-field sparse part.
    pub fn near(&self) -> &SparseSym {
        &self.near
    }

    /// The compressed far blocks.
    pub fn far(&self) -> &[FarBlock] {
        &self.far
    }

    /// Total resident bytes of the operator payload.
    pub fn resident_bytes(&self) -> usize {
        self.near.resident_bytes() + self.far.iter().map(FarBlock::resident_bytes).sum::<usize>()
    }

    /// Compression accounting versus the dense packed triangle.
    pub fn compression_stats(&self) -> CompressionStats {
        let n = self.near.order();
        let ranks: Vec<usize> = self.far.iter().map(|b| b.factors.rank()).collect();
        CompressionStats {
            order: n,
            near_entries: self.near.stored_len(),
            far_blocks: self.far.len(),
            mean_far_rank: if ranks.is_empty() {
                0.0
            } else {
                ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
            },
            max_far_rank: ranks.iter().copied().max().unwrap_or(0),
            resident_bytes: self.resident_bytes(),
            dense_bytes: 8 * n * (n + 1) / 2,
        }
    }
}

impl LinearOperator for HMatrix {
    fn order(&self) -> usize {
        self.near.order()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.assert_apply_dims(x, y);
        self.near.matvec(x, y);
        // Fixed block order, serial: deterministic for any caller.
        let mut xg = Vec::new();
        let mut yg = Vec::new();
        for b in &self.far {
            // y[rows] += U·Vᵀ·x[cols]
            xg.clear();
            xg.extend(b.cols.iter().map(|&j| x[j as usize]));
            yg.clear();
            yg.resize(b.rows.len(), 0.0);
            b.factors.apply_add(&xg, &mut yg);
            for (&i, v) in b.rows.iter().zip(&yg) {
                y[i as usize] += v;
            }
            // y[cols] += V·Uᵀ·x[rows] (the transpose block of the
            // symmetric operator).
            xg.clear();
            xg.extend(b.rows.iter().map(|&i| x[i as usize]));
            yg.clear();
            yg.resize(b.cols.len(), 0.0);
            b.factors.apply_transpose_add(&xg, &mut yg);
            for (&j, v) in b.cols.iter().zip(&yg) {
                y[j as usize] += v;
            }
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        // Far blocks never touch the diagonal: a cluster is inadmissible
        // with itself, so (i, i) coupling is always near-field.
        self.near.diagonal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aca::aca;
    use crate::pcg::{pcg_solve, PcgOptions};
    use crate::symmetric::SymMatrix;

    /// A small SPD matrix with a block structure we can compress by hand:
    /// indices 0..3 and 6..9 are "far" from each other with a smooth
    /// rank-friendly coupling.
    fn model_problem() -> (SymMatrix, HMatrix) {
        let n = 10;
        let rows: Vec<u32> = vec![0, 1, 2];
        let cols: Vec<u32> = vec![6, 7, 8, 9];
        let coupling = |i: usize, j: usize| 0.1 / (4.0 + i as f64 + 0.7 * j as f64);
        let mut dense = SymMatrix::zeros(n);
        // Near part: tridiagonal SPD core.
        let mut pattern = Vec::new();
        for i in 0..n {
            dense.set(i, i, 4.0 + i as f64 * 0.1);
            pattern.push((i as u32, i as u32));
            if i > 0 {
                dense.set(i, i - 1, -1.0);
                pattern.push((i as u32, i as u32 - 1));
            }
        }
        // Everything not covered by the far block is near: add the rest of
        // the triangle as explicit (mostly zero) near entries so the two
        // operators describe the same matrix.
        for i in 0..n {
            for j in 0..i.saturating_sub(1) {
                let is_far = (rows.contains(&(j as u32)) && cols.contains(&(i as u32)))
                    || (rows.contains(&(i as u32)) && cols.contains(&(j as u32)));
                if !is_far {
                    pattern.push((i as u32, j as u32));
                }
            }
        }
        let mut near = SparseSym::from_pattern(n, pattern);
        for i in 0..n {
            near.add(i, i, dense.get(i, i));
            if i > 0 {
                near.add(i, i - 1, dense.get(i, i - 1));
            }
        }
        // Far coupling into the dense oracle…
        for (bi, &r) in rows.iter().enumerate() {
            for (bj, &c) in cols.iter().enumerate() {
                dense.set(c as usize, r as usize, coupling(bi, bj));
            }
        }
        // …and compressed into the H-matrix.
        let lr = aca(rows.len(), cols.len(), coupling, 1e-13, 3).expect("smooth coupling");
        let hm = HMatrix::new(
            near,
            vec![FarBlock {
                rows,
                cols,
                factors: lr,
            }],
        );
        (dense, hm)
    }

    #[test]
    fn sparse_sym_matches_dense_matvec_on_its_pattern() {
        let mut a =
            SparseSym::from_pattern(4, vec![(0, 0), (1, 1), (2, 2), (3, 3), (2, 0), (3, 1)]);
        a.add(0, 0, 2.0);
        a.add(1, 1, 3.0);
        a.add(2, 2, 4.0);
        a.add(3, 3, 5.0);
        a.add(2, 0, -1.0);
        a.add(1, 3, 0.5); // unordered accumulate normalizes to (3, 1)
        let mut dense = SymMatrix::zeros(4);
        for i in 0..4 {
            for j in 0..=i {
                dense.set(i, j, a.get(i, j));
            }
        }
        let x = [1.0, -2.0, 3.0, 0.25];
        let mut ys = vec![0.0; 4];
        let mut yd = vec![0.0; 4];
        a.matvec(&x, &mut ys);
        dense.matvec(&x, &mut yd);
        assert_eq!(ys, yd);
        assert_eq!(a.get(0, 2), -1.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.diagonal(), vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "outside the sparsity pattern")]
    fn writing_off_pattern_panics() {
        let mut a = SparseSym::from_pattern(3, vec![(0, 0), (1, 1), (2, 2)]);
        a.add(2, 0, 1.0);
    }

    #[test]
    fn hmatrix_apply_matches_dense_operator() {
        let (dense, hm) = model_problem();
        let n = dense.order();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let mut yh = vec![0.0; n];
        let mut yd = vec![0.0; n];
        hm.apply(&x, &mut yh);
        dense.matvec(&x, &mut yd);
        for (a, b) in yh.iter().zip(&yd) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        assert_eq!(hm.diagonal(), dense.diagonal());
    }

    #[test]
    fn pcg_drives_the_hmatrix_unchanged() {
        let (dense, hm) = model_problem();
        let b = vec![1.0; dense.order()];
        let dense_out = pcg_solve(&dense, &b, PcgOptions::default());
        let h_out = pcg_solve(&hm, &b, PcgOptions::default());
        assert!(dense_out.converged && h_out.converged);
        for (a, b) in h_out.x.iter().zip(&dense_out.x) {
            assert!((a - b).abs() <= 1e-8 * b.abs().max(1.0));
        }
    }

    #[test]
    fn compression_stats_account_for_every_payload_byte() {
        let (_, hm) = model_problem();
        let stats = hm.compression_stats();
        assert_eq!(stats.order, 10);
        assert_eq!(stats.far_blocks, 1);
        assert!(stats.mean_far_rank >= 1.0);
        assert_eq!(stats.dense_bytes, 8 * 10 * 11 / 2);
        assert_eq!(stats.resident_bytes, hm.resident_bytes());
        assert!(stats.compression_ratio() > 0.0);
    }
}
