//! Property-based tests of the numeric substrate: random inputs, exact
//! invariants.

use proptest::prelude::*;

use layerbem_numeric::cholesky::CholeskyFactor;
use layerbem_numeric::dense::DenseMatrix;
use layerbem_numeric::lu::{lu_solve, LuFactor};
use layerbem_numeric::pcg::{pcg_solve, PcgOptions};
use layerbem_numeric::quadrature::GaussLegendre;
use layerbem_numeric::series::{sum_until, KahanSum, SeriesOptions};
use layerbem_numeric::symmetric::SymMatrix;

/// Random SPD matrix: A = Bᵀ·B + n·I with random B.
fn spd_strategy(n: usize) -> impl Strategy<Value = SymMatrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
        let b = DenseMatrix::from_rows(n, n, vals);
        let btb = b.transpose().matmul(&b);
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                // Symmetrize explicitly against round-off in matmul.
                let v = 0.5 * (btb.get(i, j) + btb.get(j, i));
                a.set(i, j, if i == j { v + n as f64 } else { v });
            }
        }
        a
    })
}

/// Arbitrary disjoint ascending row ranges covering `0..n`: a boolean per
/// interior row decides whether a split lands there.
fn split_strategy(n: usize) -> impl Strategy<Value = Vec<std::ops::Range<usize>>> {
    prop::collection::vec(any::<bool>(), n.saturating_sub(1)).prop_map(move |cuts| {
        let mut ranges = Vec::new();
        let mut start = 0;
        for (row, cut) in cuts.iter().enumerate() {
            if *cut {
                ranges.push(start..row + 1);
                start = row + 1;
            }
        }
        ranges.push(start..n);
        ranges
    })
}

proptest! {
    #[test]
    fn partitioned_adds_reproduce_whole_matrix_adds(
        splits in split_strategy(12),
        entries in prop::collection::vec((0usize..12, 0usize..12, -10.0f64..10.0), 0..60),
    ) {
        // Route every update through the owning row-range view; the
        // result must be indistinguishable from updating the matrix
        // directly — same packed bits, same get() on both triangles.
        let n = 12;
        let mut whole = SymMatrix::zeros(n);
        let mut split = SymMatrix::zeros(n);
        {
            let mut views = split.partition_rows(&splits);
            for &(i, j, v) in &entries {
                whole.add(i, j, v);
                let owner = views
                    .iter_mut()
                    .find(|w| w.owns(i, j))
                    .expect("splits cover 0..n");
                owner.add(i, j, v);
            }
        }
        prop_assert_eq!(whole.packed(), split.packed());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(whole.get(i, j), split.get(i, j));
            }
        }
    }

    #[test]
    fn partitioned_set_matches_whole_matrix_set(
        splits in split_strategy(9),
        entries in prop::collection::vec((0usize..9, 0usize..9, -10.0f64..10.0), 0..40),
    ) {
        let mut whole = SymMatrix::zeros(9);
        let mut split = SymMatrix::zeros(9);
        {
            let mut views = split.partition_rows(&splits);
            for &(i, j, v) in &entries {
                whole.set(i, j, v);
                let owner = views
                    .iter_mut()
                    .find(|w| w.owns(i, j))
                    .expect("splits cover the order");
                owner.set(i, j, v);
                prop_assert_eq!(owner.get(i, j), v);
                prop_assert_eq!(owner.get(j, i), v);
            }
        }
        prop_assert_eq!(whole.packed(), split.packed());
    }

    #[test]
    fn dense_partition_covers_rows_disjointly(splits in split_strategy(11)) {
        // Coverage + disjointness: with splits covering 0..n, every row
        // is owned by exactly one view, and the views' buffer lengths sum
        // to the whole matrix.
        let n = 11;
        let cols = 5;
        let mut a = DenseMatrix::zeros(n, cols);
        let views = a.partition_rows(&splits);
        let mut owners = vec![0usize; n];
        let mut covered = 0usize;
        for v in &views {
            prop_assert_eq!(v.cols(), cols);
            for i in v.rows() {
                owners[i] += 1;
                prop_assert!(v.owns(i));
            }
            covered += v.rows().len() * cols;
        }
        prop_assert!(owners.iter().all(|&c| c == 1));
        prop_assert_eq!(covered, n * cols);
    }

    #[test]
    fn dense_partitioned_writes_reproduce_whole_matrix_writes(
        splits in split_strategy(10),
        entries in prop::collection::vec((0usize..10, 0usize..6, -10.0f64..10.0), 0..50),
    ) {
        // Route every update through the owning row view; the result must
        // be indistinguishable from updating the matrix directly.
        let mut whole = DenseMatrix::zeros(10, 6);
        let mut split = DenseMatrix::zeros(10, 6);
        {
            let mut views = split.partition_rows(&splits);
            for &(i, j, v) in &entries {
                whole.add(i, j, v);
                let owner = views
                    .iter_mut()
                    .find(|w| w.owns(i))
                    .expect("splits cover 0..n");
                owner.add(i, j, v);
                prop_assert_eq!(owner.get(i, j), whole.get(i, j));
            }
        }
        prop_assert_eq!(whole.as_slice(), split.as_slice());
    }

    #[test]
    fn dense_partition_row_round_trip_reconstructs_the_matrix(
        splits in split_strategy(9),
        vals in prop::collection::vec(-3.0f64..3.0, 9 * 4),
    ) {
        // Writing whole rows through the views reconstructs exactly the
        // matrix built directly from the same buffer.
        let direct = DenseMatrix::from_rows(9, 4, vals.clone());
        let mut rebuilt = DenseMatrix::zeros(9, 4);
        {
            let mut views = rebuilt.partition_rows(&splits);
            for view in views.iter_mut() {
                for i in view.rows() {
                    view.row_mut(i).copy_from_slice(&vals[i * 4..(i + 1) * 4]);
                    prop_assert_eq!(view.row(i), direct.row(i));
                }
            }
        }
        prop_assert_eq!(rebuilt, direct);
    }

    #[test]
    fn cholesky_and_lu_agree_on_spd(a in spd_strategy(8), rhs in prop::collection::vec(-5.0f64..5.0, 8)) {
        let chol = CholeskyFactor::factor(&a).expect("SPD by construction");
        let x1 = chol.solve(&rhs);
        let dense = a.to_dense();
        let x2 = lu_solve(&dense, &rhs).expect("nonsingular");
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-8 * u.abs().max(v.abs()).max(1.0));
        }
    }

    #[test]
    fn pcg_solves_random_spd(a in spd_strategy(10), rhs in prop::collection::vec(-5.0f64..5.0, 10)) {
        let out = pcg_solve(&a, &rhs, PcgOptions::default());
        prop_assert!(out.converged);
        let r = a.matvec_alloc(&out.x);
        for (u, v) in r.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-7 * u.abs().max(v.abs()).max(1.0));
        }
    }

    #[test]
    fn matvec_matches_dense_expansion(a in spd_strategy(7), x in prop::collection::vec(-3.0f64..3.0, 7)) {
        let packed = a.matvec_alloc(&x);
        let dense = a.to_dense().matvec_alloc(&x);
        for (u, v) in packed.iter().zip(&dense) {
            prop_assert!((u - v).abs() < 1e-10 * u.abs().max(v.abs()).max(1.0));
        }
    }

    #[test]
    fn lu_determinant_sign_flips_with_row_swap(
        vals in prop::collection::vec(-2.0f64..2.0, 9),
    ) {
        let a = DenseMatrix::from_rows(3, 3, vals.clone());
        if let Ok(f) = LuFactor::factor(&a) {
            // Swap two rows: determinant must negate.
            let mut swapped = vals;
            for j in 0..3 {
                swapped.swap(j, 3 + j);
            }
            let b = DenseMatrix::from_rows(3, 3, swapped);
            if let Ok(g) = LuFactor::factor(&b) {
                prop_assert!((f.det() + g.det()).abs() < 1e-9 * f.det().abs().max(1e-6));
            }
        }
    }

    #[test]
    fn quadrature_exact_on_random_cubics(
        c0 in -3.0f64..3.0, c1 in -3.0f64..3.0, c2 in -3.0f64..3.0, c3 in -3.0f64..3.0,
        a in -5.0f64..0.0, b in 0.1f64..5.0,
    ) {
        let q = GaussLegendre::new(2); // exact through degree 3
        let got = q.integrate(a, b, |x| c0 + x * (c1 + x * (c2 + x * c3)));
        let anti = |x: f64| c0 * x + c1 * x * x / 2.0 + c2 * x.powi(3) / 3.0 + c3 * x.powi(4) / 4.0;
        let want = anti(b) - anti(a);
        prop_assert!((got - want).abs() < 1e-10 * want.abs().max(1.0));
    }

    #[test]
    fn kahan_matches_exact_rational_sum(vals in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        // Compare against a higher-precision reference (two-pass with
        // sorted magnitudes).
        let k: KahanSum = vals.iter().copied().collect();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.abs().partial_cmp(&b.abs()).expect("finite"));
        let reference: f64 = sorted.iter().sum();
        prop_assert!((k.value() - reference).abs()
            <= 1e-9 * vals.iter().map(|v| v.abs()).sum::<f64>().max(1.0));
    }

    #[test]
    fn geometric_series_converges_for_any_ratio(ratio in -0.99f64..0.99) {
        let r = sum_until(
            |l| ratio.powi(l as i32),
            SeriesOptions {
                rel_tol: 1e-11,
                max_terms: 100_000,
                ..Default::default()
            },
        );
        prop_assert!(r.converged);
        let exact = 1.0 / (1.0 - ratio);
        prop_assert!((r.value - exact).abs() < 1e-8 * exact.abs().max(1.0));
    }

    #[test]
    fn cholesky_log_det_matches_lu_det(a in spd_strategy(6)) {
        let chol = CholeskyFactor::factor(&a).expect("SPD");
        let lu = LuFactor::factor(&a.to_dense()).expect("nonsingular");
        // det > 0 for SPD; compare in log space.
        prop_assert!(lu.det() > 0.0);
        prop_assert!((chol.log_det() - lu.det().ln()).abs() < 1e-6 * chol.log_det().abs().max(1.0));
    }
}
