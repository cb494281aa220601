//! Adaptive cross approximation (ACA) with partial pivoting.
//!
//! Builds a rank-revealing `U·Vᵀ` factorization of a matrix block by
//! *sampling* entries — the block is never formed. For the smooth
//! layered-soil BEM kernel, the coupling block between two well-separated
//! element clusters decays rapidly in singular values, so a handful of
//! adaptively chosen crosses (one row + one column per step) reproduces it
//! to tolerance: an `m×n` block costs `O(r·(m+n))` kernel evaluations and
//! bytes instead of `O(m·n)`.
//!
//! The algorithm is the classical partially pivoted ACA: at step `k`, take
//! the residual row at the current pivot row, pick the largest-magnitude
//! unused column as pivot, scale to get `v_k`, sample the residual column
//! to get `u_k`, then move to the row where `|u_k|` is largest among
//! unused rows. The stopping rule is the standard Frobenius-tail
//! test `‖u_k‖·‖v_k‖ ≤ tol·‖A_k‖_F`, with `‖A_k‖_F` tracked by the usual
//! recursion over the accumulated crosses. Everything is deterministic:
//! pivots are argmaxes with first-index tie-breaks over fixed iteration
//! orders, so the same block and tolerance always produce the same factors
//! regardless of thread count or schedule.

use std::fmt;

/// A rank-`r` factorization `A ≈ U·Vᵀ` of an `nrows × ncols` block.
///
/// `U` is stored column-major as `r` columns of length `nrows`
/// (`u[k·nrows + i]`), `V` as `r` columns of length `ncols`
/// (`v[k·ncols + j]`): `A[i][j] ≈ Σ_k u_k[i]·v_k[j]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LowRank {
    /// Row count of the approximated block.
    pub nrows: usize,
    /// Column count of the approximated block.
    pub ncols: usize,
    /// `rank` columns of length `nrows`, column-major.
    pub u: Vec<f64>,
    /// `rank` columns of length `ncols`, column-major.
    pub v: Vec<f64>,
}

impl LowRank {
    /// The achieved rank.
    pub fn rank(&self) -> usize {
        self.u.len().checked_div(self.nrows).unwrap_or(0)
    }

    /// Resident bytes of the factor payload.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.u.as_slice()) + std::mem::size_of_val(self.v.as_slice())
    }

    /// Reconstructs entry `(i, j)` from the factors (test/diagnostic
    /// helper — applications should use the factored forms directly).
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        let r = self.rank();
        let mut s = 0.0;
        for k in 0..r {
            s += self.u[k * self.nrows + i] * self.v[k * self.ncols + j];
        }
        s
    }

    /// `y += (U·Vᵀ)·x` with `x` of length `ncols`, `y` of length `nrows`.
    pub fn apply_add(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows);
        for k in 0..self.rank() {
            let vk = &self.v[k * self.ncols..(k + 1) * self.ncols];
            let mut t = 0.0;
            for (vj, xj) in vk.iter().zip(x) {
                t += vj * xj;
            }
            if t != 0.0 {
                let uk = &self.u[k * self.nrows..(k + 1) * self.nrows];
                for (yi, ui) in y.iter_mut().zip(uk) {
                    *yi += t * ui;
                }
            }
        }
    }

    /// `y += (U·Vᵀ)ᵀ·x = V·(Uᵀ·x)` with `x` of length `nrows`, `y` of
    /// length `ncols` — the mirrored application a symmetric operator needs
    /// for the transpose block.
    pub fn apply_transpose_add(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.nrows);
        debug_assert_eq!(y.len(), self.ncols);
        for k in 0..self.rank() {
            let uk = &self.u[k * self.nrows..(k + 1) * self.nrows];
            let mut t = 0.0;
            for (ui, xi) in uk.iter().zip(x) {
                t += ui * xi;
            }
            if t != 0.0 {
                let vk = &self.v[k * self.ncols..(k + 1) * self.ncols];
                for (yj, vj) in y.iter_mut().zip(vk) {
                    *yj += t * vj;
                }
            }
        }
    }
}

/// Why [`aca`] could not deliver the requested tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AcaError {
    /// The rank cap was exhausted before the Frobenius-tail stopping
    /// rule triggered — the block is not (numerically) low-rank at
    /// this tolerance, e.g. because an inadmissible pair was passed in.
    ToleranceNotReached {
        /// The cap that was hit.
        max_rank: usize,
        /// The requested relative tolerance.
        tol: f64,
    },
}

impl fmt::Display for AcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcaError::ToleranceNotReached { max_rank, tol } => write!(
                f,
                "ACA did not reach relative tolerance {tol:.2e} within rank {max_rank}"
            ),
        }
    }
}

impl std::error::Error for AcaError {}

/// Batched entry access for [`aca_sampled`]: the ACA driver asks for whole
/// matrix rows and columns at once instead of one entry at a time.
///
/// Partially pivoted ACA only ever touches the block through full-row and
/// full-column samples, so this is the natural kernel interface: a BEM
/// backend can evaluate all entries of a requested row through its batched
/// quadrature path (one structure-of-arrays kernel call per element pair)
/// instead of paying per-entry dispatch.
///
/// Implementations must be **pure**: the same row/column request always
/// fills the same values, independent of request order, so the pivot
/// sequence (and hence the factors) stays deterministic. The fills take
/// `&mut self` so a sampler can own its scratch (a kernel batch, a memo,
/// cost counters) as plain fields.
pub trait MatrixSampler {
    /// Row count of the sampled block.
    fn nrows(&self) -> usize;
    /// Column count of the sampled block.
    fn ncols(&self) -> usize;
    /// Fills `out` (length [`Self::ncols`], pre-zeroed) with matrix row `i`.
    fn fill_row(&mut self, i: usize, out: &mut [f64]);
    /// Fills `out` (length [`Self::nrows`], pre-zeroed) with matrix column `j`.
    fn fill_col(&mut self, j: usize, out: &mut [f64]);
}

/// Adapts a per-entry closure to the [`MatrixSampler`] interface — the
/// compatibility shim behind [`aca`].
struct ClosureSampler<F> {
    nrows: usize,
    ncols: usize,
    entry: F,
}

impl<F: Fn(usize, usize) -> f64> MatrixSampler for ClosureSampler<F> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn fill_row(&mut self, i: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = (self.entry)(i, j);
        }
    }
    fn fill_col(&mut self, j: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.entry)(i, j);
        }
    }
}

/// Compresses an `nrows × ncols` block to relative Frobenius tolerance
/// `tol` by partially pivoted ACA, sampling entries through `entry(i, j)`.
///
/// `max_rank` caps the number of crosses; pass `min(nrows, ncols)` to
/// allow exact (full-rank) fallback — the cross construction interpolates
/// the sampled rows/columns exactly, so at full rank the factorization is
/// exact and the loop terminates unconditionally. Returns
/// [`AcaError::ToleranceNotReached`] if the cap is smaller and the
/// Frobenius-tail test never triggers.
///
/// This is the per-entry convenience wrapper over [`aca_sampled`]; hot
/// callers (the hierarchical far-field assembler) implement
/// [`MatrixSampler`] directly so each row/column request runs through the
/// batched kernel path.
pub fn aca<F>(
    nrows: usize,
    ncols: usize,
    entry: F,
    tol: f64,
    max_rank: usize,
) -> Result<LowRank, AcaError>
where
    F: Fn(usize, usize) -> f64,
{
    aca_sampled(
        &mut ClosureSampler {
            nrows,
            ncols,
            entry,
        },
        tol,
        max_rank,
    )
}

/// Partially pivoted ACA over a [`MatrixSampler`] — identical algorithm,
/// pivot order and arithmetic to [`aca`], but every row/column sample is
/// one batched `fill_row`/`fill_col` call.
pub fn aca_sampled<S: MatrixSampler + ?Sized>(
    sampler: &mut S,
    tol: f64,
    max_rank: usize,
) -> Result<LowRank, AcaError> {
    assert!(tol > 0.0, "ACA tolerance must be positive");
    let (nrows, ncols) = (sampler.nrows(), sampler.ncols());
    let mut out = LowRank {
        nrows,
        ncols,
        u: Vec::new(),
        v: Vec::new(),
    };
    if nrows == 0 || ncols == 0 {
        return Ok(out);
    }
    let full = nrows.min(ncols);
    let cap = max_rank.min(full);

    let mut row_used = vec![false; nrows];
    let mut col_used = vec![false; ncols];
    // Squared Frobenius norm of the accumulated approximation A_k = Σ u_l v_lᵀ.
    let mut frob2 = 0.0f64;
    let mut pivot_row = 0usize;

    loop {
        let rank = out.rank();
        // Residual row at the pivot: row(i, ·) − Σ_l u_l[i]·v_l[·].
        let mut row = vec![0.0f64; ncols];
        sampler.fill_row(pivot_row, &mut row);
        for l in 0..rank {
            let ul_i = out.u[l * nrows + pivot_row];
            if ul_i != 0.0 {
                let vl = &out.v[l * ncols..(l + 1) * ncols];
                for (rj, vj) in row.iter_mut().zip(vl) {
                    *rj -= ul_i * vj;
                }
            }
        }
        row_used[pivot_row] = true;

        // Column pivot: largest residual magnitude among unused columns,
        // lowest index on ties.
        let mut pivot_col = None;
        let mut best = 0.0f64;
        for (j, &rj) in row.iter().enumerate() {
            if !col_used[j] && rj.abs() > best {
                best = rj.abs();
                pivot_col = Some(j);
            }
        }
        let Some(pivot_col) = pivot_col else {
            // The residual row is exactly zero: this row is fully resolved.
            // Move on to the next unused row, or stop when none remain.
            match row_used.iter().position(|&u| !u) {
                Some(next) => {
                    pivot_row = next;
                    continue;
                }
                None => return Ok(out),
            }
        };
        let delta = row[pivot_col];

        // v_k = residual row / pivot; u_k = residual column at the pivot.
        let vk: Vec<f64> = row.iter().map(|&rj| rj / delta).collect();
        let mut uk = vec![0.0f64; nrows];
        sampler.fill_col(pivot_col, &mut uk);
        for l in 0..rank {
            let vl_j = out.v[l * ncols + pivot_col];
            if vl_j != 0.0 {
                let ul = &out.u[l * nrows..(l + 1) * nrows];
                for (ri, ui) in uk.iter_mut().zip(ul) {
                    *ri -= vl_j * ui;
                }
            }
        }
        col_used[pivot_col] = true;

        // Frobenius recursion:
        // ‖A_k‖² = ‖A_{k−1}‖² + 2·Σ_l (u_kᵀu_l)(v_lᵀv_k) + ‖u_k‖²·‖v_k‖².
        let norm_u2: f64 = uk.iter().map(|x| x * x).sum();
        let norm_v2: f64 = vk.iter().map(|x| x * x).sum();
        let mut cross = 0.0f64;
        for l in 0..rank {
            let ul = &out.u[l * nrows..(l + 1) * nrows];
            let vl = &out.v[l * ncols..(l + 1) * ncols];
            let uu: f64 = uk.iter().zip(ul).map(|(a, b)| a * b).sum();
            let vv: f64 = vk.iter().zip(vl).map(|(a, b)| a * b).sum();
            cross += uu * vv;
        }
        frob2 = (frob2 + 2.0 * cross + norm_u2 * norm_v2).max(0.0);

        out.u.extend_from_slice(&uk);
        out.v.extend_from_slice(&vk);
        let rank = rank + 1;

        // Stop: the newest cross's norm is below tol relative to the
        // accumulated block norm.
        if (norm_u2 * norm_v2).sqrt() <= tol * frob2.sqrt() {
            return Ok(out);
        }
        if rank == full {
            // Full-rank cross interpolation is exact.
            return Ok(out);
        }
        if rank >= cap {
            return Err(AcaError::ToleranceNotReached { max_rank, tol });
        }

        // Next pivot row: largest |u_k| among unused rows, lowest index on
        // ties.
        let mut next = None;
        let mut best = -1.0f64;
        for (i, &ui) in uk.iter().enumerate() {
            if !row_used[i] && ui.abs() > best {
                best = ui.abs();
                next = Some(i);
            }
        }
        match next {
            Some(i) => pivot_row = i,
            // All rows sampled: the factorization interpolates every row
            // exactly.
            None => return Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_error(lr: &LowRank, a: &dyn Fn(usize, usize) -> f64) -> (f64, f64) {
        let mut err2 = 0.0;
        let mut norm2 = 0.0;
        for i in 0..lr.nrows {
            for j in 0..lr.ncols {
                let exact = a(i, j);
                let diff = exact - lr.entry(i, j);
                err2 += diff * diff;
                norm2 += exact * exact;
            }
        }
        (err2.sqrt(), norm2.sqrt())
    }

    #[test]
    fn rank_one_block_compresses_to_rank_one() {
        let f = |i: usize, j: usize| (1.0 + i as f64) * (2.0 - 0.1 * j as f64);
        let lr = aca(7, 5, f, 1e-12, 5).expect("rank-1 block");
        assert_eq!(lr.rank(), 1);
        let (err, norm) = dense_error(&lr, &f);
        assert!(err <= 1e-12 * norm.max(1.0), "err={err}");
    }

    #[test]
    fn smooth_kernel_block_meets_tolerance_at_low_rank() {
        // 1/(1+|x_i − y_j|) with separated point sets: numerically low-rank.
        let f = |i: usize, j: usize| 1.0 / (10.0 + i as f64 + 0.5 * j as f64);
        let lr = aca(24, 20, f, 1e-8, 20).expect("smooth block");
        assert!(lr.rank() < 10, "rank={} should be far below 20", lr.rank());
        let (err, norm) = dense_error(&lr, &f);
        assert!(err <= 1e-7 * norm, "err={err} norm={norm}");
    }

    #[test]
    fn zero_block_compresses_to_rank_zero() {
        let lr = aca(6, 9, |_, _| 0.0, 1e-10, 6).expect("zero block");
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.resident_bytes(), 0);
    }

    #[test]
    fn full_rank_fallback_is_exact() {
        // A well-conditioned full-rank matrix; with max_rank = min dim the
        // cross interpolation must terminate and reproduce it exactly.
        let f = |i: usize, j: usize| {
            if i == j {
                4.0 + i as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        };
        let lr = aca(6, 6, f, 1e-14, 6).expect("full-rank fallback");
        let (err, norm) = dense_error(&lr, &f);
        assert!(err <= 1e-10 * norm, "err={err}");
    }

    #[test]
    fn rank_cap_reports_typed_error() {
        // Random-ish full-rank block with a cap of 1 and a tight tolerance.
        let f = |i: usize, j: usize| ((i * 37 + j * 101 + 13) % 97) as f64 - 48.0;
        let err = aca(12, 12, f, 1e-12, 1).unwrap_err();
        assert_eq!(
            err,
            AcaError::ToleranceNotReached {
                max_rank: 1,
                tol: 1e-12
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "{msg}");
    }

    #[test]
    fn sampler_path_is_bit_identical_to_closure_path() {
        struct Smooth;
        impl MatrixSampler for Smooth {
            fn nrows(&self) -> usize {
                24
            }
            fn ncols(&self) -> usize {
                20
            }
            fn fill_row(&mut self, i: usize, out: &mut [f64]) {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = 1.0 / (10.0 + i as f64 + 0.5 * j as f64);
                }
            }
            fn fill_col(&mut self, j: usize, out: &mut [f64]) {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = 1.0 / (10.0 + i as f64 + 0.5 * j as f64);
                }
            }
        }
        let f = |i: usize, j: usize| 1.0 / (10.0 + i as f64 + 0.5 * j as f64);
        let via_closure = aca(24, 20, f, 1e-8, 20).expect("closure path");
        let via_sampler = aca_sampled(&mut Smooth, 1e-8, 20).expect("sampler path");
        assert_eq!(via_closure, via_sampler);
    }

    #[test]
    fn apply_add_matches_entry_reconstruction() {
        let f = |i: usize, j: usize| 1.0 / (5.0 + i as f64 + 2.0 * j as f64);
        let lr = aca(9, 7, f, 1e-10, 7).expect("block");
        let x: Vec<f64> = (0..7).map(|j| 0.3 + j as f64).collect();
        let mut y = vec![1.0; 9];
        lr.apply_add(&x, &mut y);
        for (i, yi) in y.iter().enumerate() {
            let want: f64 = 1.0 + (0..7).map(|j| lr.entry(i, j) * x[j]).sum::<f64>();
            assert!((yi - want).abs() <= 1e-12 * want.abs().max(1.0));
        }
        // Transpose application against the same reconstruction.
        let xt: Vec<f64> = (0..9).map(|i| 1.0 - 0.1 * i as f64).collect();
        let mut yt = vec![0.5; 7];
        lr.apply_transpose_add(&xt, &mut yt);
        for (j, yj) in yt.iter().enumerate() {
            let want: f64 = 0.5 + (0..9).map(|i| lr.entry(i, j) * xt[i]).sum::<f64>();
            assert!((yj - want).abs() <= 1e-12 * want.abs().max(1.0));
        }
    }
}
