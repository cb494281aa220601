//! Property-based tests of the adaptive cross approximation: randomized
//! admissible blocks against the dense oracle.
//!
//! The strategy mirrors how [`aca`] is used by the hierarchical
//! assembler: entries come from a smooth (asymptotically rank-deficient)
//! kernel evaluated between two well-separated point clusters, the rank
//! cap allows full-rank fallback, and the approximation is judged in the
//! Frobenius norm against the explicitly formed block.

use proptest::prelude::*;

use layerbem_numeric::{aca, AcaError};

/// Two well-separated 1-D point clusters plus the smooth coupling kernel
/// `1/|x − y|` between them — the model problem for ACA. The gap (≥ 2)
/// is at least twice either cluster's diameter (≤ 1), so the block is
/// admissible at η = 1 and numerically low-rank.
fn kernel_block_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        prop::collection::vec(0.0f64..1.0, 1..24),
        prop::collection::vec(3.0f64..4.0, 1..24),
    )
}

/// Dense oracle for the block: `A[i][j] = 1/|x_i − y_j|`.
fn dense_block(xs: &[f64], ys: &[f64]) -> Vec<Vec<f64>> {
    xs.iter()
        .map(|x| ys.iter().map(|y| 1.0 / (x - y).abs()).collect())
        .collect()
}

fn frob(a: &[Vec<f64>]) -> f64 {
    a.iter()
        .flat_map(|r| r.iter())
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
}

proptest! {
    #[test]
    fn aca_reconstructs_smooth_kernel_blocks_within_tolerance(
        (xs, ys) in kernel_block_strategy(),
        tol_exp in 4u32..10,
    ) {
        let a = dense_block(&xs, &ys);
        let (m, n) = (xs.len(), ys.len());
        let tol = 10.0f64.powi(-(tol_exp as i32));
        let lr = aca(m, n, |i, j| a[i][j], tol, m.min(n))
            .expect("full-rank fallback always converges");
        // The Frobenius-tail stopping rule is a heuristic, so allow
        // a modest constant over the requested relative tolerance.
        let mut err2 = 0.0f64;
        for (i, row) in a.iter().enumerate() {
            for (j, aij) in row.iter().enumerate() {
                let d = lr.entry(i, j) - aij;
                err2 += d * d;
            }
        }
        prop_assert!(err2.sqrt() <= 10.0 * tol * frob(&a).max(1e-300));
        prop_assert!(lr.rank() <= m.min(n));
    }

    #[test]
    fn aca_full_rank_fallback_reconstructs_random_blocks(
        m in 1usize..9,
        n in 1usize..9,
        vals in prop::collection::vec(-5.0f64..5.0, 64),
    ) {
        // Arbitrary (generically full-rank) blocks: with the cap at
        // min(m, n) the cross construction interpolates every sampled
        // row/column exactly, so the factorization reproduces the block
        // up to roundoff even though it is not low-rank.
        let a: Vec<Vec<f64>> = (0..m)
            .map(|i| (0..n).map(|j| vals[(i * n + j) % vals.len()]).collect())
            .collect();
        let lr = aca(m, n, |i, j| a[i][j], 1e-14, m.min(n))
            .expect("full-rank fallback always converges");
        let scale = frob(&a).max(1.0);
        for (i, row) in a.iter().enumerate() {
            for (j, aij) in row.iter().enumerate() {
                prop_assert!((lr.entry(i, j) - aij).abs() <= 1e-8 * scale);
            }
        }
    }

    #[test]
    fn aca_is_deterministic((xs, ys) in kernel_block_strategy(), tol_exp in 4u32..10) {
        // Same entries, same tolerance → bit-identical factors; the
        // hierarchical assembler's cross-schedule determinism rests on
        // this (each far block is compressed by exactly one closure).
        let a = dense_block(&xs, &ys);
        let (m, n) = (xs.len(), ys.len());
        let tol = 10.0f64.powi(-(tol_exp as i32));
        let first = aca(m, n, |i, j| a[i][j], tol, m.min(n)).expect("converges");
        let second = aca(m, n, |i, j| a[i][j], tol, m.min(n)).expect("converges");
        prop_assert_eq!(first.u, second.u);
        prop_assert_eq!(first.v, second.v);
    }

    #[test]
    fn low_rank_apply_add_matches_entry_expansion(
        (xs, ys) in kernel_block_strategy(),
        seed in -3.0f64..3.0,
    ) {
        // apply_add / apply_transpose_add against the explicit U·Vᵀ
        // entries — the two paths the H-matrix matvec takes per block.
        let a = dense_block(&xs, &ys);
        let (m, n) = (xs.len(), ys.len());
        let lr = aca(m, n, |i, j| a[i][j], 1e-8, m.min(n)).expect("converges");
        let x: Vec<f64> = (0..n).map(|j| seed + j as f64).collect();
        let mut y = vec![0.0f64; m];
        lr.apply_add(&x, &mut y);
        for (i, yi) in y.iter().enumerate() {
            let want: f64 = (0..n).map(|j| lr.entry(i, j) * x[j]).sum();
            prop_assert!((yi - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        let xt: Vec<f64> = (0..m).map(|i| seed - i as f64).collect();
        let mut yt = vec![0.0f64; n];
        lr.apply_transpose_add(&xt, &mut yt);
        for (j, yj) in yt.iter().enumerate() {
            let want: f64 = (0..m).map(|i| lr.entry(i, j) * xt[i]).sum();
            prop_assert!((yj - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn rank_cap_surfaces_as_a_typed_error_on_full_rank_blocks(n in 2usize..12) {
        // The identity has no rank-1 approximation at any meaningful
        // tolerance: capping below n must fail loudly, never silently
        // truncate — this is the error the study layer maps to
        // `PrepareError::Aca`.
        let got = aca(n, n, |i, j| f64::from(u8::from(i == j)), 1e-12, 1);
        prop_assert_eq!(
            got.unwrap_err(),
            AcaError::ToleranceNotReached { max_rank: 1, tol: 1e-12 }
        );
    }

    #[test]
    fn zero_blocks_compress_to_rank_zero(m in 1usize..10, n in 1usize..10) {
        let lr = aca(m, n, |_, _| 0.0, 1e-10, m.min(n)).expect("zero block converges");
        prop_assert_eq!(lr.rank(), 0);
        prop_assert_eq!(lr.nrows, m);
        prop_assert_eq!(lr.ncols, n);
    }
}
