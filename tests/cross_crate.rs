//! Cross-crate integration tests: deck → pipeline → solution → maps →
//! safety, and equivalence of the serial and pooled assemblers on real
//! grids.

use layerbem::prelude::*;

const DECK: &str = "\
title integration yard
soil two-layer 0.005 0.016 1.0
gpr 10000
grid rect 0 0 30 20 3 2 0.8 0.006
rod 0 0 0.8 1.5 0.007
rod 30 20 0.8 1.5 0.007
max-element-length 10
";

#[test]
fn pipeline_end_to_end() {
    let case = parse_case(DECK).expect("deck parses");
    let result = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    assert!(result.solution().equivalent_resistance > 0.0);
    assert!(result.solution().total_current > 0.0);
    assert!(result.times.matrix_generation_share() > 0.5);
    assert!(result.report.contains("integration yard"));
    assert_eq!(result.column_terms.len(), result.mesh.element_count());
}

#[test]
fn all_assembly_modes_agree_bit_exactly() {
    let case = parse_case(DECK).unwrap();
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    let seq = GroundingSystem::new(mesh.clone(), &case.soil, SolveOptions::default()).assemble();
    let pool = ThreadPool::new(4);
    for schedule in [
        Schedule::static_blocked(),
        Schedule::static_chunk(4),
        Schedule::dynamic(1),
        Schedule::dynamic(16),
        Schedule::guided(1),
    ] {
        let opts = SolveOptions::default().with_parallelism(pool, schedule);
        let pooled = GroundingSystem::new(mesh.clone(), &case.soil, opts).assemble();
        assert_eq!(
            seq.matrix.packed(),
            pooled.matrix.packed(),
            "pooled {}",
            schedule.label()
        );
        assert_eq!(seq.column_terms, pooled.column_terms);
    }
}

#[test]
fn parallel_solution_matches_sequential_physics() {
    let case = parse_case(DECK).unwrap();
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    let pool = ThreadPool::new(3);
    let scenario = Scenario::gpr(case.gpr);
    let solve = |opts: SolveOptions| {
        GroundingSystem::new(mesh.clone(), &case.soil, opts)
            .prepare()
            .expect("prepare")
            .solve(&scenario)
            .expect("solve")
    };
    let seq = solve(SolveOptions::default());
    let par = solve(SolveOptions::default().with_parallelism(pool, Schedule::guided(1)));
    assert_eq!(seq.equivalent_resistance, par.equivalent_resistance);
    assert_eq!(seq.total_current, par.total_current);
}

#[test]
fn map_and_safety_from_pipeline_output() {
    let case = parse_case(DECK).unwrap();
    let result = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let sys = GroundingSystem::new(result.mesh.clone(), &case.soil, SolveOptions::default());
    let pool = ThreadPool::new(2);
    let map = PotentialMap::compute(
        &result.mesh,
        sys.kernel(),
        result.solution(),
        &MapSpec {
            x_range: (-5.0, 35.0),
            y_range: (-5.0, 25.0),
            nx: 17,
            ny: 13,
        },
        &pool,
        Schedule::dynamic(4),
    );
    assert!(map.max() < result.solution().gpr);
    assert!(map.min() > 0.0);
    let ve = voltage_extrema(&map, result.solution().gpr);
    let criteria = SafetyCriteria {
        fault_duration: 0.5,
        body_weight: BodyWeight::Kg50,
        soil_resistivity: 200.0,
        surface_layer: None,
    };
    let assessment = SafetyAssessment::evaluate(ve.touch, ve.step, &criteria);
    // This small, sparse yard at 10 kV GPR cannot be safe on bare soil.
    assert!(!assessment.is_safe());
    // Adding crushed rock must raise both limits.
    let rocked = SafetyCriteria {
        surface_layer: Some(SurfaceLayer {
            resistivity: 3000.0,
            thickness: 0.15,
        }),
        ..criteria
    };
    assert!(rocked.permissible_touch() > criteria.permissible_touch());
}

#[test]
fn solver_choices_agree_through_public_api() {
    let case = parse_case(DECK).unwrap();
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    let mut results = Vec::new();
    for solver in [
        SolverChoice::ConjugateGradient,
        SolverChoice::Cholesky,
        SolverChoice::Lu,
    ] {
        let sys = GroundingSystem::new(
            mesh.clone(),
            &case.soil,
            SolveOptions {
                solver,
                ..Default::default()
            },
        );
        results.push(
            sys.prepare()
                .expect("prepare")
                .solve(&Scenario::gpr(1.0))
                .expect("solve")
                .equivalent_resistance,
        );
    }
    for w in results.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-7 * w[0]);
    }
}

#[test]
fn collocation_cross_checks_galerkin_on_a_grid() {
    let case = parse_case(DECK).unwrap();
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    let galerkin = GroundingSystem::new(mesh.clone(), &case.soil, SolveOptions::default())
        .prepare()
        .expect("prepare")
        .solve(&Scenario::gpr(1.0))
        .expect("solve");
    let colloc = GroundingSystem::new(
        mesh,
        &case.soil,
        SolveOptions {
            formulation: Formulation::Collocation,
            ..Default::default()
        },
    )
    .prepare()
    .expect("prepare")
    .solve(&Scenario::gpr(1.0))
    .expect("solve");
    let dev = (galerkin.equivalent_resistance - colloc.equivalent_resistance).abs()
        / galerkin.equivalent_resistance;
    assert!(dev < 0.05, "galerkin vs collocation deviate {dev}");
}

#[test]
fn multilayer_soil_through_full_pipeline() {
    let deck = "\
soil multi-layer 0.005 1.0 0.01 2.0 0.016 inf
gpr 5000
grid rect 0 0 10 10 1 1 0.8 0.006
";
    let case = parse_case(deck).unwrap();
    let result = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    assert!(result.solution().equivalent_resistance > 0.0);
    // The 3-layer Req must land between the two bounding 2-layer models.
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    let lo = GroundingSystem::new(
        mesh.clone(),
        &SoilModel::two_layer(0.005, 0.016, 3.0),
        SolveOptions::default(),
    )
    .prepare()
    .expect("prepare")
    .solve(&Scenario::gpr(5000.0))
    .expect("solve");
    let hi = GroundingSystem::new(
        mesh,
        &SoilModel::two_layer(0.005, 0.016, 1.0),
        SolveOptions::default(),
    )
    .prepare()
    .expect("prepare")
    .solve(&Scenario::gpr(5000.0))
    .expect("solve");
    let (a, b) = (
        lo.equivalent_resistance.min(hi.equivalent_resistance),
        lo.equivalent_resistance.max(hi.equivalent_resistance),
    );
    let r = result.solution().equivalent_resistance;
    assert!(r > 0.98 * a && r < 1.02 * b, "{r} not in [{a}, {b}]");
}

#[test]
fn multilayer_decks_match_their_two_layer_twins() {
    // A `multi-layer` deck of two layers is the same soil as its
    // `two-layer` twin, whose image series is the reference. Rows: a grid
    // 0.5 m deep under interfaces at 1, 3 and 10 m (no element near
    // one), and a 3 m rod from 0.5 m down that crosses the 1 m interface.
    const GRID: (&str, &str) = (
        "grid",
        "grid rect 0 0 5 5 1 1 0.5 0.006\nmax-element-length 5",
    );
    const ROD: (&str, &str) = ("rod", "rod 0 0 0.5 3 0.007");
    let mut rows = Vec::new();
    for (upper, lower) in [(0.01, 0.99), (0.005, 0.016), (0.0182, 0.0018)] {
        for h in [1.0, 3.0, 10.0] {
            rows.push((GRID, upper, lower, h, 1e-6));
        }
    }
    for (upper, lower) in [(0.005, 0.016), (0.01, 1.0), (1e-4, 1.0), (0.1, 0.01)] {
        rows.push((ROD, upper, lower, 1.0, 5e-4));
    }
    let req = |soil: String, geometry: &str| {
        let case = parse_case(&format!("{soil}\ngpr 1000\n{geometry}\n")).expect("deck parses");
        let result = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
        result.solution().equivalent_resistance
    };
    let mut failures = Vec::new();
    for ((name, geometry), upper, lower, h, tol) in rows {
        let two = req(format!("soil two-layer {upper} {lower} {h}"), geometry);
        let multi = req(
            format!("soil multi-layer {upper} {h} {lower} inf"),
            geometry,
        );
        let err = (multi - two) / two;
        let row = format!("{name} γ {upper}/{lower} H {h}");
        eprintln!("{row}: {two:.6} Ω vs {multi:.6} Ω, {err:+.2e}");
        if err.abs() > tol {
            failures.push(format!("{row}: {err:+.2e} > {tol:e}"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
