//! Integration tests pinning the paper-reproduction results.
//!
//! These are the headline numbers of EXPERIMENTS.md: if a refactor moves
//! them, the reproduction claims must be re-examined. Tolerances reflect
//! the fidelity observed at submission time: Balaidos (whose published
//! invariants pin the reconstruction tightly) reproduces within 1%;
//! Barberá (layout reconstructed from a plan figure) within 7%.

use layerbem::prelude::*;

fn solve(mesh: Mesh, soil: &SoilModel) -> GroundingSolution {
    GroundingSystem::new(mesh, soil, SolveOptions::default())
        .prepare()
        .expect("prepare")
        .solve(&Scenario::gpr(10_000.0))
        .expect("solve")
}

#[test]
fn barbera_discretization_matches_paper() {
    let mesh = Mesher::default().mesh(&barbera());
    assert_eq!(mesh.element_count(), 408);
    assert_eq!(mesh.dof(), 238);
}

#[test]
fn barbera_uniform_scalars() {
    let mesh = Mesher::default().mesh(&barbera());
    let sol = solve(mesh, &SoilModel::uniform(0.016));
    // Paper §5.1: Req = 0.3128 Ω, I = 31.97 kA.
    assert!((sol.equivalent_resistance - 0.3128).abs() / 0.3128 < 0.07);
    assert!((sol.total_current / 1000.0 - 31.97).abs() / 31.97 < 0.07);
}

#[test]
fn barbera_two_layer_scalars() {
    let mesh = Mesher::default().mesh(&barbera());
    let sol = solve(mesh, &SoilModel::two_layer(0.005, 0.016, 1.0));
    // Paper §5.1: Req = 0.3704 Ω, I = 26.99 kA.
    assert!((sol.equivalent_resistance - 0.3704).abs() / 0.3704 < 0.07);
    assert!((sol.total_current / 1000.0 - 26.99).abs() / 26.99 < 0.07);
}

#[test]
fn barbera_two_layer_raises_resistance_over_uniform() {
    // The qualitative §5.1 conclusion, independent of reconstruction
    // error: the resistive top layer raises Req and lowers IΓ.
    let mesh = Mesher::default().mesh(&barbera());
    let uni = solve(mesh.clone(), &SoilModel::uniform(0.016));
    let two = solve(mesh, &SoilModel::two_layer(0.005, 0.016, 1.0));
    assert!(two.equivalent_resistance > uni.equivalent_resistance);
    assert!(two.total_current < uni.total_current);
}

#[test]
fn balaidos_discretization_matches_paper() {
    let mesh = Mesher::default().mesh(&balaidos());
    assert_eq!(mesh.element_count(), 241);
}

#[test]
fn balaidos_table_5_1() {
    let mesh = Mesher::default().mesh(&balaidos());
    // Paper Table 5.1.
    let expect = [
        (SoilModel::uniform(0.020), 0.3366, 29.71),
        (SoilModel::two_layer(0.0025, 0.020, 0.7), 0.3522, 28.39),
        (SoilModel::two_layer(0.0025, 0.020, 1.0), 0.4860, 20.58),
    ];
    let mut reqs = Vec::new();
    for (soil, req_paper, i_paper) in expect {
        let sol = solve(mesh.clone(), &soil);
        assert!(
            (sol.equivalent_resistance - req_paper).abs() / req_paper < 0.01,
            "Req {} vs paper {req_paper}",
            sol.equivalent_resistance
        );
        assert!(
            (sol.total_current / 1000.0 - i_paper).abs() / i_paper < 0.01,
            "I {} vs paper {i_paper}",
            sol.total_current / 1000.0
        );
        reqs.push(sol.equivalent_resistance);
    }
    // Orderings: C > B > A.
    assert!(reqs[2] > reqs[1] && reqs[1] > reqs[0]);
}

#[test]
fn table_6_3_cost_ordering() {
    // Matrix-generation cost C ≫ B ≫ A (paper: 443 / 81 / 2.4 s).
    let mesh = Mesher::default().mesh(&balaidos());
    let cost = |soil: &SoilModel| {
        let sys = GroundingSystem::new(mesh.clone(), soil, SolveOptions::default());
        sys.assemble().total_terms()
    };
    let a = cost(&SoilModel::uniform(0.020));
    let b = cost(&SoilModel::two_layer(0.0025, 0.020, 0.7));
    let c = cost(&SoilModel::two_layer(0.0025, 0.020, 1.0));
    assert!(b > 5 * a, "B {b} vs A {a}");
    assert!(c > 2 * b, "C {c} vs B {b}");
}

#[test]
fn table_6_2_schedule_shape() {
    // The simulator must reproduce Table 6.2's shape from the measured
    // Barberá profile: Static worst, chunk-64 collapses at P = 8,
    // Dynamic,1 near-ideal. Uses the deterministic term-count proxy so
    // the test is immune to machine noise.
    let mesh = Mesher::default().mesh(&barbera());
    let sys = GroundingSystem::new(
        mesh,
        &SoilModel::two_layer(0.005, 0.016, 1.0),
        SolveOptions::default(),
    );
    let rep = sys.assemble();
    let costs: Vec<f64> = rep.column_terms.iter().map(|&t| t as f64 * 1e-7).collect();
    let speedup = |s: Schedule, p: usize| simulate(&costs, p, s, SimOverheads::default()).speedup();
    let static8 = speedup(Schedule::static_blocked(), 8);
    let dyn1_8 = speedup(Schedule::dynamic(1), 8);
    let dyn64_8 = speedup(Schedule::dynamic(64), 8);
    let guided1_8 = speedup(Schedule::guided(1), 8);
    assert!(dyn1_8 > 7.5, "{dyn1_8}");
    assert!(guided1_8 > 7.5, "{guided1_8}");
    assert!(static8 < 5.5, "{static8}"); // paper: 4.38
    assert!(dyn64_8 < 5.0, "{dyn64_8}"); // paper: 3.55
                                         // And the paper's summary: "speed-up factors obtained for the outer
                                         // parallelization are very close to the number of processors for
                                         // good schedules".
    for p in [2usize, 4] {
        assert!(speedup(Schedule::dynamic(1), p) > 0.95 * p as f64);
    }
}

#[test]
fn fig_6_1_outer_beats_inner() {
    use layerbem::parfor::sim::simulate_inner_loop;
    let mesh = Mesher::default().mesh(&barbera());
    let sys = GroundingSystem::new(
        mesh,
        &SoilModel::two_layer(0.005, 0.016, 1.0),
        SolveOptions::default(),
    );
    let rep = sys.assemble();
    let m = rep.column_terms.len();
    let outer: Vec<f64> = rep.column_terms.iter().map(|&t| t as f64 * 1e-7).collect();
    let inner: Vec<Vec<f64>> = outer
        .iter()
        .enumerate()
        .map(|(beta, &c)| vec![c / (m - beta) as f64; m - beta])
        .collect();
    let mut last_gap = 0.0;
    for p in [4usize, 16, 64] {
        let o = simulate(&outer, p, Schedule::dynamic(1), SimOverheads::default()).speedup();
        let i =
            simulate_inner_loop(&inner, p, Schedule::dynamic(1), SimOverheads::default()).speedup();
        assert!(o > i, "P={p}: outer {o} vs inner {i}");
        let gap = o - i;
        assert!(gap > last_gap, "gap must widen with P");
        last_gap = gap;
    }
}
