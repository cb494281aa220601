//! Bitwise determinism of the incremental-edit subsystem across
//! schedules × thread counts.
//!
//! `Study::apply_edit` is deterministic by construction: pair
//! re-integration writes disjoint per-run slots, the delta scatter and
//! the rank-1 factor sweeps run serially in fixed order, and the
//! fallback refactorization is the one blocked factorization, whose
//! trailing updates give the same bits inline or on the pool. This suite
//! pins that claim: the
//! same edit sequence must produce **bitwise identical** solutions
//! whether the session runs serially or pooled, under any schedule, on
//! 1–8 threads.

use layerbem_core::{
    ConductorEnd, EditError, EditOp, EditPath, EditSession, GroundingSystem, Scenario,
    SolveOptions, SolverChoice,
};
use layerbem_geometry::{
    conductor::ground_rod, grids, ConductorNetwork, MeshOptions, Mesher, Point3,
};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

fn network() -> ConductorNetwork {
    let mut net = grids::rectangular_grid(grids::RectGridSpec {
        origin: (0.0, 0.0),
        width: 12.0,
        height: 12.0,
        nx: 2,
        ny: 2,
        depth: 0.6,
        radius: 0.007,
    });
    net.add(ground_rod(Point3::new(0.0, 0.0, 0.6), 1.5, 0.007));
    net.add(ground_rod(Point3::new(12.0, 12.0, 0.6), 1.5, 0.007));
    net
}

fn mesh_opts() -> MeshOptions {
    MeshOptions {
        max_element_length: 3.1,
    }
}

/// The edit script every configuration replays: two rod-end moves (the
/// incremental path) and one rod addition (the rebuild path).
fn script(rod0: usize, rod1: usize) -> Vec<EditOp> {
    vec![
        EditOp::MoveEnd {
            index: rod0,
            end: ConductorEnd::B,
            delta: [0.0, 0.0, 0.2],
        },
        EditOp::MoveEnd {
            index: rod1,
            end: ConductorEnd::B,
            delta: [0.15, 0.0, 0.1],
        },
        EditOp::Add {
            conductor: ground_rod(Point3::new(6.0, 6.0, 0.6), 1.5, 0.007),
        },
    ]
}

/// Runs the script under `opts`, returning the bit patterns of the final
/// solution (leakage vector + scalars) and the per-edit paths taken.
fn run(opts: SolveOptions) -> (Vec<u64>, Vec<EditPath>) {
    let net = network();
    let rod0 = net.len() - 2;
    let rod1 = net.len() - 1;
    let soil = SoilModel::uniform(0.016);
    let mut session = EditSession::open(net, &soil, mesh_opts(), opts).expect("open");
    let mut paths = Vec::new();
    for op in script(rod0, rod1) {
        paths.push(session.apply(&op).expect("edit").path);
    }
    let sol = session
        .study()
        .solve(&Scenario::fault_current(25_000.0))
        .expect("solve");
    let mut bits: Vec<u64> = sol.leakage.iter().map(|v| v.to_bits()).collect();
    bits.push(sol.gpr.to_bits());
    bits.push(sol.equivalent_resistance.to_bits());
    bits.push(sol.total_current.to_bits());
    (bits, paths)
}

#[test]
fn apply_edit_is_bitwise_deterministic_across_schedules_and_threads() {
    let base = SolveOptions {
        solver: SolverChoice::Cholesky,
        ..Default::default()
    };
    let (reference, paths) = run(base);
    // The script must actually exercise both routes, or the test pins
    // nothing.
    assert_eq!(
        paths,
        vec![
            EditPath::Incremental,
            EditPath::Incremental,
            EditPath::Rebuild
        ]
    );
    let schedules = [
        ("static", Schedule::static_chunk(1)),
        ("dynamic", Schedule::dynamic(1)),
        ("guided", Schedule::guided(1)),
    ];
    for threads in [1usize, 2, 4, 8] {
        for (name, schedule) in schedules {
            let opts = base.with_parallelism(ThreadPool::new(threads), schedule);
            let (bits, p) = run(opts);
            assert_eq!(p, paths, "paths diverged: {threads} threads, {name}");
            assert_eq!(
                bits, reference,
                "solution bits diverged from serial: {threads} threads, {name}"
            );
        }
    }
}

#[test]
fn pcg_sessions_are_bitwise_deterministic_too() {
    let base = SolveOptions::default();
    let (reference, paths) = run(base);
    assert_eq!(
        paths,
        vec![
            EditPath::Incremental,
            EditPath::Incremental,
            EditPath::Rebuild
        ]
    );
    for threads in [2usize, 4] {
        let opts = base.with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
        let (bits, p) = run(opts);
        assert_eq!(p, paths, "paths diverged: {threads} threads");
        assert_eq!(bits, reference, "PCG bits diverged: {threads} threads");
    }
}

fn cholesky() -> SolveOptions {
    SolveOptions {
        solver: SolverChoice::Cholesky,
        ..Default::default()
    }
}

/// A study keeps its unit-GPR solution between questions; every edit
/// route that changes the system must retire it, or the next answer
/// would be the pre-edit one.
#[test]
fn answers_follow_every_edit_route() {
    let soil = SoilModel::uniform(0.016);
    let s = Scenario::fault_current(25_000.0);
    // The shared network plus a long centre rod: four elements, so moving
    // its free end touches more rows than the rank-update route accepts.
    let mut net = network();
    let rod0 = net.len() - 2;
    let long = net.len();
    net.add(ground_rod(Point3::new(6.0, 6.0, 0.6), 10.0, 0.007));
    let routes = [
        (
            EditOp::MoveEnd {
                index: rod0,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.2],
            },
            EditPath::Incremental,
        ),
        (
            EditOp::MoveEnd {
                index: long,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.5],
            },
            EditPath::Refactor,
        ),
        (
            EditOp::Add {
                conductor: ground_rod(Point3::new(12.0, 0.0, 0.6), 1.5, 0.007),
            },
            EditPath::Rebuild,
        ),
    ];
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    for opts in [cholesky(), SolveOptions::default()] {
        let mut session = EditSession::open(net.clone(), &soil, mesh_opts(), opts).expect("open");
        let mut before = session.study().solve(&s).expect("solve");
        for (edits, (op, path)) in routes.iter().enumerate() {
            let report = session.apply(op).expect("edit");
            if opts.solver == SolverChoice::Cholesky {
                assert_eq!(report.path, *path);
            }
            let after = session.study().solve(&s).expect("solve");
            let mesh = Mesher::new(mesh_opts()).mesh(session.network());
            let fresh = GroundingSystem::new(mesh, &soil, opts)
                .prepare()
                .expect("prepare")
                .solve(&s)
                .expect("solve");
            assert!(rel(after.gpr, fresh.gpr) <= 1e-8, "{path:?}: GPR");
            assert!(
                rel(after.equivalent_resistance, fresh.equivalent_resistance) <= 1e-8,
                "{path:?}: Req"
            );
            assert_ne!(after.gpr, before.gpr, "{path:?}: the pre-edit answer");
            assert_ne!(
                after.leakage, before.leakage,
                "{path:?}: the pre-edit answer"
            );
            // One engine solve at open, one more after each edit.
            assert_eq!(session.study().profile().unit_solves, edits + 2, "{path:?}");
            before = after;
        }
        // A no-op edit changes nothing, so it keeps the unit solution…
        let noop = EditOp::Move {
            index: rod0,
            delta: [0.0; 3],
        };
        assert_eq!(session.apply(&noop).expect("edit").path, EditPath::Noop);
        let again = session.study().solve(&s).expect("solve");
        assert_eq!(again.leakage, before.leakage);
        assert_eq!(session.study().profile().unit_solves, routes.len() + 1);
        // …and a frozen snapshot of a solved study carries it along.
        let frozen = session.study().frozen_clone();
        assert_eq!(frozen.solve(&s).expect("solve").leakage, before.leakage);
        assert_eq!(frozen.profile().unit_solves, routes.len() + 1);
    }
}

/// A moved edit whose rank update and refactorization both refuse has
/// already poisoned the factor: the session must answer exactly as a
/// from-scratch prepare of its last successful network — not from the
/// half-applied edit, nor from a unit solution that outlived its system.
#[test]
fn a_failed_edit_does_not_leave_the_old_answer_behind() {
    use layerbem_geometry::Conductor;
    let soil = SoilModel::uniform(0.016);
    let s = Scenario::gpr(10_000.0);
    // A thick slanted rod hangs from the same corner node as the first
    // thin vertical one (whose free end is at depth 2.1).
    let mut net = network();
    let thick = net.len();
    net.add(Conductor::new(
        Point3::new(0.0, 0.0, 0.6),
        Point3::new(1.5, 0.0, 1.5),
        0.1,
    ));
    let mut session = EditSession::open(net, &soil, mesh_opts(), cholesky()).expect("open");
    // Swing it to within a millimetre of the thin rod: the free ends stay
    // distinct nodes (a moved edit), but the thin-wire coupling of the
    // two now exceeds the thick rod's self term — no longer positive
    // definite, so the rank update and the refactorization both refuse.
    let fold = EditOp::MoveEnd {
        index: thick,
        end: ConductorEnd::B,
        delta: [-1.499, 0.0, 0.6],
    };
    let err = session.apply(&fold).expect_err("not factorizable");
    assert!(matches!(err, EditError::Prepare(_)), "{err}");
    assert_eq!(session.study().profile().edits, 1, "failed past the diff");
    let after = session.study().solve(&s).expect("the last network answers");
    let mesh = Mesher::new(mesh_opts()).mesh(session.network());
    let fresh = GroundingSystem::new(mesh, &soil, cholesky())
        .prepare()
        .expect("prepare")
        .solve(&s)
        .expect("solve");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&after.leakage), bits(&fresh.leakage));
    assert_eq!(
        after.equivalent_resistance.to_bits(),
        fresh.equivalent_resistance.to_bits()
    );
    assert_eq!(after.total_current.to_bits(), fresh.total_current.to_bits());
}
