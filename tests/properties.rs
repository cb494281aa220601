//! Property-based integration tests over randomly generated grids and
//! soil models: invariants that must hold for *any* valid input.

use proptest::prelude::*;

use layerbem::core::assembly::assemble_galerkin;
use layerbem::core::kernel::SoilKernel;
use layerbem::numeric::cholesky::CholeskyFactor;
use layerbem::prelude::*;

/// Strategy: a small rectangular grid with arbitrary-but-sane geometry.
fn grid_strategy() -> impl Strategy<Value = (Mesh, f64)> {
    (
        1usize..=3,      // nx
        1usize..=3,      // ny
        5.0f64..30.0,    // width
        5.0f64..30.0,    // height
        0.3f64..1.5,     // depth
        0.004f64..0.012, // radius
    )
        .prop_map(|(nx, ny, w, h, depth, radius)| {
            let net = rectangular_grid(RectGridSpec {
                origin: (0.0, 0.0),
                width: w,
                height: h,
                nx,
                ny,
                depth,
                radius,
            });
            (Mesher::default().mesh(&net), depth)
        })
}

/// Strategy: uniform or two-layer soil with positive parameters.
fn soil_strategy() -> impl Strategy<Value = SoilModel> {
    prop_oneof![
        (0.001f64..0.1).prop_map(SoilModel::uniform),
        (0.001f64..0.1, 0.001f64..0.1, 0.3f64..4.0)
            .prop_map(|(a, b, h)| SoilModel::two_layer(a, b, h)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case assembles a dense BEM matrix
        ..ProptestConfig::default()
    })]

    /// The Galerkin matrix is SPD for every grid and soil model — the
    /// property the paper's choice of formulation rests on.
    #[test]
    fn galerkin_matrix_is_always_spd((mesh, _) in grid_strategy(), soil in soil_strategy()) {
        let kernel = SoilKernel::new(&soil);
        let rep = assemble_galerkin(
            &mesh,
            &kernel,
            &SolveOptions::default(),
        );
        prop_assert!(CholeskyFactor::factor(&rep.matrix).is_ok());
    }

    /// Physical sanity for every case: positive resistance, positive
    /// total current, leakage scales linearly with GPR.
    #[test]
    fn solution_is_physical((mesh, _) in grid_strategy(), soil in soil_strategy()) {
        let sys = GroundingSystem::new(mesh, &soil, SolveOptions::default());
        let study = sys.prepare().expect("prepare");
        let sol = study.solve(&Scenario::gpr(1.0)).expect("solve");
        prop_assert!(sol.equivalent_resistance > 0.0);
        prop_assert!(sol.total_current > 0.0);
        let sol10 = study.solve(&Scenario::gpr(10.0)).expect("solve");
        prop_assert!((sol10.total_current - 10.0 * sol.total_current).abs()
            < 1e-9 * sol10.total_current.abs());
    }

    /// A two-layer model with equal conductivities must match the uniform
    /// model to solver precision (κ = 0 degeneracy).
    #[test]
    fn zero_contrast_two_layer_equals_uniform(
        (mesh, _) in grid_strategy(),
        gamma in 0.005f64..0.05,
        h in 0.3f64..3.0,
    ) {
        let uni = GroundingSystem::new(mesh.clone(), &SoilModel::uniform(gamma), SolveOptions::default())
            .prepare().expect("prepare").solve(&Scenario::gpr(1.0)).expect("solve");
        let two = GroundingSystem::new(mesh, &SoilModel::two_layer(gamma, gamma, h), SolveOptions::default())
            .prepare().expect("prepare").solve(&Scenario::gpr(1.0)).expect("solve");
        let dev = (uni.equivalent_resistance - two.equivalent_resistance).abs()
            / uni.equivalent_resistance;
        prop_assert!(dev < 1e-6, "dev = {dev}");
    }

    /// More conductive soil ⇒ lower resistance (monotonicity).
    #[test]
    fn resistance_decreases_with_conductivity((mesh, _) in grid_strategy(), g in 0.002f64..0.02) {
        let lo = GroundingSystem::new(mesh.clone(), &SoilModel::uniform(g), SolveOptions::default())
            .prepare().expect("prepare").solve(&Scenario::gpr(1.0)).expect("solve");
        let hi = GroundingSystem::new(mesh, &SoilModel::uniform(2.0 * g), SolveOptions::default())
            .prepare().expect("prepare").solve(&Scenario::gpr(1.0)).expect("solve");
        prop_assert!(hi.equivalent_resistance < lo.equivalent_resistance);
        // Uniform-soil resistance scales exactly like 1/γ.
        prop_assert!((hi.equivalent_resistance * 2.0 - lo.equivalent_resistance).abs()
            < 1e-8 * lo.equivalent_resistance);
    }

    /// Schedule simulation conserves work and never beats the ideal bound.
    #[test]
    fn simulator_respects_bounds(
        costs in prop::collection::vec(1e-6f64..1e-2, 1..200),
        p in 1usize..32,
        kind in 0usize..4,
        chunk in 1usize..64,
    ) {
        let schedule = match kind {
            0 => Schedule::static_blocked(),
            1 => Schedule::static_chunk(chunk),
            2 => Schedule::dynamic(chunk),
            _ => Schedule::guided(chunk),
        };
        let r = simulate(&costs, p, schedule, SimOverheads::none());
        let total: f64 = costs.iter().sum();
        let maxc = costs.iter().cloned().fold(0.0f64, f64::max);
        // Work conservation.
        let busy: f64 = r.per_proc.iter().map(|q| q.busy).sum();
        prop_assert!((busy - total).abs() < 1e-9 * total.max(1.0));
        // Makespan bounds: ideal ≤ makespan ≤ sequential; and the greedy
        // list-scheduling bound for dynamic.
        prop_assert!(r.makespan >= total / p as f64 - 1e-12);
        prop_assert!(r.makespan <= total + 1e-12);
        if matches!(schedule.kind, layerbem::parfor::ScheduleKind::Dynamic) && chunk == 1 {
            prop_assert!(r.makespan <= total / p as f64 + maxc + 1e-12);
        }
    }

    /// The parallel runtime visits every iteration exactly once for any
    /// (n, threads, schedule) combination.
    #[test]
    fn runtime_coverage(
        n in 0usize..300,
        threads in 1usize..6,
        kind in 0usize..4,
        chunk in 1usize..50,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let schedule = match kind {
            0 => Schedule::static_blocked(),
            1 => Schedule::static_chunk(chunk),
            2 => Schedule::dynamic(chunk),
            _ => Schedule::guided(chunk),
        };
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        ThreadPool::new(threads).parallel_for(n, schedule, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }
}
