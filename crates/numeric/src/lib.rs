//! # layerbem-numeric
//!
//! Dense linear-algebra, quadrature and series-summation substrate for the
//! `layerbem` boundary-element solver.
//!
//! The boundary-element method of Colominas et al. produces a **dense,
//! symmetric, positive-definite** system of moderate order (hundreds to a
//! few thousand unknowns). The paper solves it either directly (small
//! cases) or with a **diagonally preconditioned conjugate gradient**
//! (§4.3: "the best results have been obtained by a diagonal preconditioned
//! conjugate gradient algorithm with assembly of the global matrix").
//! This crate provides exactly that substrate, built from scratch:
//!
//! * [`SymMatrix`] — packed lower-triangular storage for symmetric dense
//!   matrices (halves memory; mirrors the paper's "approximately half of
//!   them are discarded because of symmetry").
//! * [`DenseMatrix`] + [`lu`] — general dense storage with partially
//!   pivoted LU, used by the collocation formulation and as a cross-check.
//! * [`cholesky`] — packed `L·Lᵀ` factorization for the Galerkin system.
//! * [`pcg`] — Jacobi-preconditioned conjugate gradient with convergence
//!   history, defined over a [`LinearOperator`] abstraction so that both
//!   assembled matrices and matrix-free operators can be solved.
//! * [`mod@aca`] + [`hmatrix`] — adaptive cross approximation and the
//!   hierarchical operator ([`HMatrix`]: sparse-symmetric near field +
//!   low-rank far field) that PCG drives through the same
//!   [`LinearOperator`] trait, turning the `O(N²)` matvec into
//!   `O(nnz + Σ r·(|σ|+|τ|))`.
//!
//! The **pooled layer** runs on the same `layerbem-parfor` runtime the
//! assembler uses — and every pooled path is **bit-identical** to its
//! serial counterpart, so the pool decides who computes, never what:
//! [`SymMatrix::partition_rows`] and [`DenseMatrix::partition_rows`]
//! split the packed triangle and the row-major dense buffer into disjoint
//! row-range views ([`symmetric::SymRowsMut`], [`dense::DenseRowsMut`])
//! that different threads may write without locks. [`CholeskyFactor`]
//! and [`LuFactor`] each have one algorithm, a **blocked** right-looking
//! factorization — sequential 32-column panels, each panel's trailing
//! update in one sweep, run as one parallel region when the caller
//! passes a pool and inline otherwise; the old unblocked loops are the
//! tests' oracles. PCG is serial (see [`pcg`]).
//! * [`quadrature`] — Gauss–Legendre rules computed to machine precision,
//!   used for the outer element integrals.
//! * [`series`] — compensated (Kahan) summation and tolerance-controlled
//!   summation of the slowly convergent image series, scalar and batched
//!   over lanes; [`lanes`] — the lane width and the four-lane `ln`.
//! * [`update`] — rank-`k` update/downdate of a packed Cholesky factor,
//!   the incremental-edit path.
//! * [`vector`] — level-1 kernels and PCG's fixed-partition reductions.
//! * [`bessel`] — `J₀` for the N-layer Hankel inversion; [`rng`] — the
//!   seeded generators of the uncertainty sweeps.

pub mod aca;
pub mod bessel;
pub mod cholesky;
pub mod dense;
pub mod hmatrix;
pub mod lanes;
pub mod lu;
pub mod pcg;
pub mod quadrature;
pub mod rng;
pub mod series;
pub mod symmetric;
pub mod update;
pub mod vector;

pub use aca::{aca, aca_sampled, AcaError, LowRank, MatrixSampler};
pub use cholesky::CholeskyFactor;
pub use dense::{DenseMatrix, DenseRowsMut};
pub use hmatrix::{CompressionStats, FarBlock, HMatrix, SparseSym};
pub use lanes::{ln4, slots_for, LANES};
pub use lu::LuFactor;
pub use pcg::{pcg_solve, ConvergenceHistory, LinearOperator, PcgOptions, PcgOutcome};
pub use quadrature::GaussLegendre;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use series::{BatchSeriesResult, ChunkedKahan, KahanSum, SeriesOptions, SeriesResult};
pub use symmetric::{SymMatrix, SymRowsMut};
pub use update::{apply_sym_modification, incremental_worthwhile, SymModification, UpdateError};

/// Panel width of the blocked right-looking factorizations
/// ([`CholeskyFactor`] and [`LuFactor`]): wide enough to amortize one
/// parallel-region launch over a block of column updates, narrow enough
/// that the sequential panel work stays a small fraction of the `O(N³)`
/// trailing update.
const FACTOR_PANEL: usize = 32;

/// Trailing rows below which a factorization panel's update runs inline
/// even when a pool is given.
const PAR_CUTOFF: usize = 64;

/// Returns `true` when `a` and `b` agree to tolerance `tol`, measured
/// relative to `max(|a|, |b|, 1)` — i.e. relative comparison for large
/// magnitudes, absolute comparison near zero.
///
/// This is the comparison primitive used throughout the workspace tests;
/// keeping it here avoids each crate re-inventing subtly different rules.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_identical_values() {
        assert!(approx_eq(1.0, 1.0, 1e-15));
        assert!(approx_eq(0.0, 0.0, 1e-15));
        assert!(approx_eq(-3.5e7, -3.5e7, 1e-15));
    }

    #[test]
    fn approx_eq_respects_relative_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-10));
        assert!(!approx_eq(1.0, 1.001, 1e-6));
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-11), 1e-9));
    }

    #[test]
    fn approx_eq_handles_tiny_magnitudes() {
        assert!(approx_eq(1e-305, -1e-305, 1e-12));
    }
}
