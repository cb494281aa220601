//! ROADMAP item 5's deciding experiment: dense vs hierarchical operator on
//! uniform-pitch yards (5 m cells, uniform Barberá soil, default ACA
//! tolerance and leaf size, PCG) beside the dense Cholesky factor.
//! Arguments: cells per side (default `20 33 47 70`, ≈ 1.5 min on 2 cores).
//! Exits non-zero if the backends' total currents differ beyond 1e-6.

use std::time::Instant;

use layerbem_bench::{render_table, soils};
use layerbem_core::formulation::{OperatorBackend, SolveOptions, SolverChoice};
use layerbem_core::study::Scenario;
use layerbem_core::system::GroundingSystem;
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::Mesher;
use layerbem_parfor::{Schedule, ThreadPool};

fn main() {
    let mut cells: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("cell counts are positive integers"))
        .collect();
    if cells.is_empty() {
        cells = vec![20, 33, 47, 70];
    }
    let pool = ThreadPool::with_available_parallelism();
    let base = SolveOptions::default().with_parallelism(pool, Schedule::dynamic(1));
    let soil = soils::barbera_uniform();
    let (mut worst, mut rows) = (0.0f64, Vec::new());
    for n in cells {
        let mesh = Mesher::default().mesh(&rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 5.0 * n as f64,
            height: 5.0 * n as f64,
            nx: n,
            ny: n,
            depth: 0.8,
            radius: 0.006,
        }));
        // → (study, prepare seconds, total current, solve seconds, resident MB)
        let run = |opts: SolveOptions| {
            let t = Instant::now();
            let study = GroundingSystem::new(mesh.clone(), &soil, opts).prepare();
            let (study, prepare_s) = (study.expect("prepare"), t.elapsed().as_secs_f64());
            let t = Instant::now();
            let current = study.solve(&Scenario::gpr(10_000.0)).expect("solve");
            let (current, solve_s) = (current.total_current, t.elapsed().as_secs_f64());
            let mb = study.resident_bytes() as f64 / 1e6;
            (study, prepare_s, current, solve_s, mb)
        };
        let (dense, dense_prep, dense_i, dense_solve, dense_mb) = run(base);
        let (_, hier_prep, hier_i, hier_solve, hier_mb) =
            run(base.with_backend(OperatorBackend::hierarchical()));
        let solver = SolverChoice::Cholesky;
        let (chol, _, _, chol_solve, _) = run(SolveOptions { solver, ..base });
        let rel = (hier_i - dense_i).abs() / dense_i;
        worst = worst.max(rel);
        rows.push(vec![
            dense.dof().to_string(),
            format!("{dense_prep:.2} → {hier_prep:.2}"),
            format!("{dense_mb:.1} → {hier_mb:.1} ({:.2})", hier_mb / dense_mb),
            format!("{dense_solve:.3} → {hier_solve:.3}"),
            format!("{:.3} / {chol_solve:.4}", chol.profile().factor_seconds),
            format!("{rel:.1e}"),
        ]);
    }
    let header = [
        "dof",
        "prepare s dense → hmatrix",
        "resident MB dense → hmatrix (ratio)",
        "PCG solve s dense → hmatrix",
        "Cholesky factor s / solve s",
        "rel ΔI",
    ];
    println!("{}", render_table(&header, &rows));
    println!("{} threads; worst rel ΔI {worst:.1e}", pool.threads());
    if worst > 1e-6 {
        eprintln!("backends disagree on the total current beyond 1e-6");
        std::process::exit(1);
    }
}
