//! Hierarchical-operator accuracy suite on the paper grids: the
//! ACA-compressed H-matrix must stand in for the dense Galerkin matrix —
//! as a matvec (within the requested relative tolerance) and end to end
//! through the staged study API (GPR and fault-current scenarios agree
//! with the dense backend to engineering precision) — on Barberá and
//! Balaidos.
//!
//! The paper grids (238 / 201 dof) sit *below* the compression
//! crossover — at that size the H-matrix bookkeeping outweighs the
//! low-rank savings — so on them this suite pins **accuracy** only;
//! that the compressed operator is smaller than the packed dense triangle
//! is asserted by `refined_barbera_compresses_below_dense` on the refined
//! Barberá grid (2 224 dof), where the asymptotics have kicked in. That
//! test is `#[ignore]`d — an assembly of that size is release-only work —
//! and CI runs it with `--release -- --ignored`.

use layerbem_core::assembly::{assemble_galerkin, assemble_hierarchical};
use layerbem_core::formulation::{
    OperatorBackend, SolveOptions, DEFAULT_ACA_TOL, DEFAULT_LEAF_SIZE,
};
use layerbem_core::kernel::SoilKernel;
use layerbem_core::study::Scenario;
use layerbem_core::system::GroundingSystem;
use layerbem_geometry::{grids, Mesh, MeshOptions, Mesher};
use layerbem_numeric::{pcg_solve, LinearOperator, PcgOptions, SymMatrix};
use layerbem_soil::SoilModel;

/// The two paper grids with their uniform soil models.
fn paper_grids() -> Vec<(&'static str, Mesh, SoilModel)> {
    vec![
        (
            "Barbera",
            Mesher::default().mesh(&grids::barbera()),
            SoilModel::uniform(0.016),
        ),
        (
            "Balaidos",
            Mesher::default().mesh(&grids::balaidos()),
            SoilModel::uniform(0.020),
        ),
    ]
}

/// Frobenius norm of the full (symmetric) dense operator.
fn frob(a: &SymMatrix) -> f64 {
    let n = a.order();
    let mut s = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            s += a.get(i, j) * a.get(i, j);
        }
    }
    s.sqrt()
}

fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[test]
fn hmatrix_apply_matches_dense_within_tolerance_on_paper_grids() {
    for (grid, mesh, soil) in paper_grids() {
        let kernel = SoilKernel::new(&soil);
        let opts = SolveOptions::default();
        let dense = assemble_galerkin(&mesh, &kernel, &opts);
        let tol = DEFAULT_ACA_TOL;
        let rep = assemble_hierarchical(&mesh, &kernel, &opts, tol, 16).expect("ACA converges");
        let n = dense.matrix.order();
        assert_eq!(rep.operator.order(), n, "{grid}");
        // Same quadrature path ⇒ identical right-hand side, bit for bit.
        assert_eq!(rep.rhs, dense.rhs, "{grid}");
        // The diagonal lives entirely in the near field, so the Jacobi
        // preconditioner sees exactly the dense diagonal.
        assert_eq!(rep.operator.diagonal(), dense.matrix.diagonal(), "{grid}");

        // Matvec accuracy: ‖(A_H − A)·x‖ ≤ c·tol·‖A‖_F·‖x‖ for a
        // sign-alternating probe (exercises cancellation, not just
        // magnitudes).
        let x: Vec<f64> = (0..n)
            .map(|i| (-1.0f64).powi(i as i32) * (1.0 + (i % 7) as f64))
            .collect();
        let mut yd = vec![0.0; n];
        let mut yh = vec![0.0; n];
        dense.matrix.apply(&x, &mut yd);
        rep.operator.apply(&x, &mut yh);
        let err = norm2(&yd.iter().zip(&yh).map(|(a, b)| a - b).collect::<Vec<f64>>());
        let bound = 10.0 * tol * frob(&dense.matrix) * norm2(&x);
        assert!(
            err <= bound,
            "{grid}: matvec err {err:.3e} > bound {bound:.3e}"
        );

        // Far blocks must genuinely form (otherwise this suite is just
        // testing the sparse near path against itself).
        let stats = rep.operator.compression_stats();
        assert!(stats.far_blocks > 0, "{grid}: no far blocks formed");
        assert_eq!(stats.order, n, "{grid}");
        assert!(stats.mean_far_rank >= 1.0, "{grid}");
    }
}

#[test]
fn hierarchical_studies_agree_with_dense_studies_on_paper_grids() {
    // End-to-end: prepare once per backend, answer the same GPR and
    // fault-current scenarios, and compare the engineering outputs. The
    // two backends share quadrature, RHS, and the PCG driver — only the
    // operator representation differs — so they must agree far tighter
    // than the PCG relative tolerance.
    let scenarios = [Scenario::gpr(10_000.0), Scenario::fault_current(25_000.0)];
    for (grid, mesh, soil) in paper_grids() {
        let dense_study = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default())
            .prepare()
            .expect("dense prepare succeeds");
        let opts = SolveOptions::default().with_backend(OperatorBackend::hierarchical());
        let hier_study = GroundingSystem::new(mesh.clone(), &soil, opts)
            .prepare()
            .expect("hierarchical prepare succeeds");
        let profile = hier_study.profile();
        assert_eq!(
            profile.factorizations, 0,
            "{grid}: compressed operator is never factored"
        );
        let stats = profile
            .assembly
            .compression
            .expect("hierarchical profile reports compression");
        assert!(stats.resident_bytes > 0, "{grid}");
        assert_eq!(stats.order, mesh.dof(), "{grid}");

        for scenario in &scenarios {
            let d = dense_study.solve(scenario).expect("dense solve succeeds");
            let h = hier_study
                .solve(scenario)
                .expect("hierarchical solve succeeds");
            let label = format!("{grid}: {scenario:?}");
            let rel_req = (d.equivalent_resistance - h.equivalent_resistance).abs()
                / d.equivalent_resistance.abs();
            assert!(rel_req <= 1e-6, "{label}: Req rel diff {rel_req:.3e}");
            let diff = norm2(
                &d.leakage
                    .iter()
                    .zip(&h.leakage)
                    .map(|(a, b)| a - b)
                    .collect::<Vec<f64>>(),
            );
            assert!(
                diff <= 1e-6 * norm2(&d.leakage),
                "{label}: leakage rel diff {:.3e}",
                diff / norm2(&d.leakage)
            );
            let rel_gpr = (d.gpr - h.gpr).abs() / d.gpr.abs();
            assert!(rel_gpr <= 1e-6, "{label}: GPR rel diff {rel_gpr:.3e}");
            let rel_i = (d.total_current - h.total_current).abs() / d.total_current.abs();
            assert!(rel_i <= 1e-6, "{label}: IΓ rel diff {rel_i:.3e}");
        }
    }
}

/// Above the compression crossover the hierarchical operator must pay
/// off: on Barberá refined to ≤ 1 m elements it is smaller than the
/// packed triangle (ratio 0.70 at PR 20) and answers the same PCG solve.
#[test]
#[ignore = "assembles 2 224 dof twice: run with --release -- --ignored"]
fn refined_barbera_compresses_below_dense() {
    let mesh = Mesher::new(MeshOptions {
        max_element_length: 1.0,
    })
    .mesh(&grids::barbera());
    assert_eq!(mesh.dof(), 2224);
    let kernel = SoilKernel::new(&SoilModel::uniform(0.016));
    let opts = SolveOptions::default();
    let dense = assemble_galerkin(&mesh, &kernel, &opts);
    let hier = assemble_hierarchical(&mesh, &kernel, &opts, DEFAULT_ACA_TOL, DEFAULT_LEAF_SIZE)
        .expect("ACA converges");
    assert_eq!(hier.rhs, dense.rhs);

    let stats = hier
        .cost
        .compression
        .expect("hierarchical assembly reports compression");
    assert!(
        stats.resident_bytes < stats.dense_bytes,
        "hierarchical operator {} bytes does not beat dense {} bytes",
        stats.resident_bytes,
        stats.dense_bytes
    );

    let popts = PcgOptions::default();
    let d = pcg_solve(&dense.matrix, &dense.rhs, popts);
    let h = pcg_solve(&hier.operator, &hier.rhs, popts);
    assert!(d.converged && h.converged, "PCG diverged");
    let diff = norm2(
        &d.x.iter()
            .zip(&h.x)
            .map(|(a, b)| a - b)
            .collect::<Vec<f64>>(),
    );
    let rel = diff / norm2(&d.x);
    assert!(rel <= 1e-6, "hierarchical PCG solution off by {rel:.3e}");
}
