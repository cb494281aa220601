//! Linear-solver benchmarks on real assembled BEM systems: the paper's
//! §4.3 cost argument — direct `O(N³/3)` vs diagonally preconditioned CG
//! "with a very low computational cost in comparison with matrix
//! generation" — plus the preconditioner ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use layerbem_core::assembly::assemble_galerkin;
use layerbem_core::formulation::SolveOptions;
use layerbem_core::kernel::SoilKernel;
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::Mesher;
use layerbem_numeric::cholesky::CholeskyFactor;
use layerbem_numeric::lu::LuFactor;
use layerbem_numeric::pcg::{pcg_solve, PcgOptions, PooledSymOperator};
use layerbem_numeric::SymMatrix;
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

/// Assembles a real BEM system of roughly `n` unknowns.
fn bem_system(cells: usize) -> (SymMatrix, Vec<f64>) {
    let mesh = Mesher::default().mesh(&rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 10.0 * cells as f64,
        height: 10.0 * cells as f64,
        nx: cells,
        ny: cells,
        depth: 0.8,
        radius: 0.006,
    }));
    let k = SoilKernel::new(&SoilModel::uniform(0.016));
    let rep = assemble_galerkin(&mesh, &k, &SolveOptions::default());
    (rep.matrix, rep.rhs)
}

fn direct_vs_iterative(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    for cells in [4usize, 8] {
        let (a, rhs) = bem_system(cells);
        let n = a.order();
        g.bench_with_input(BenchmarkId::new("pcg_jacobi", n), &(), |b, _| {
            b.iter(|| black_box(pcg_solve(&a, &rhs, PcgOptions::default())))
        });
        g.bench_with_input(BenchmarkId::new("pcg_plain", n), &(), |b, _| {
            b.iter(|| {
                black_box(pcg_solve(
                    &a,
                    &rhs,
                    PcgOptions {
                        unpreconditioned: true,
                        ..Default::default()
                    },
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("cholesky", n), &(), |b, _| {
            b.iter(|| {
                let f = CholeskyFactor::factor(&a).unwrap();
                black_box(f.solve(&rhs))
            })
        });
        g.bench_with_input(BenchmarkId::new("lu_dense", n), &(), |b, _| {
            b.iter(|| {
                let dense = a.to_dense();
                let f = LuFactor::factor(&dense).unwrap();
                black_box(f.solve(&rhs))
            })
        });
    }
    g.finish();
}

fn matvec(c: &mut Criterion) {
    let (a, rhs) = bem_system(8);
    let mut y = vec![0.0; a.order()];
    c.bench_function("sym_matvec", |b| {
        b.iter(|| {
            a.matvec(black_box(&rhs), &mut y);
            black_box(&y);
        })
    });
}

fn serial_vs_pooled(c: &mut Criterion) {
    // The solve-phase half of the tentpole: the previously 100%-serial
    // solvers against their pool-parallel counterparts on one BEM system
    // large enough (225 dof) to clear the factorizations' serial cutoff.
    let (a, rhs) = bem_system(14);
    let n = a.order();
    let pool = ThreadPool::with_available_parallelism();
    let schedule = Schedule::static_blocked();
    let mut g = c.benchmark_group("solver_serial_vs_pooled");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("pcg_serial", n), &(), |b, _| {
        b.iter(|| black_box(pcg_solve(&a, &rhs, PcgOptions::default())))
    });
    g.bench_with_input(BenchmarkId::new("pcg_pooled", n), &(), |b, _| {
        let op = PooledSymOperator::new(&a, pool, schedule);
        b.iter(|| black_box(pcg_solve(&op, &rhs, PcgOptions::default())))
    });
    g.bench_with_input(BenchmarkId::new("cholesky_serial", n), &(), |b, _| {
        b.iter(|| black_box(CholeskyFactor::factor(&a).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("cholesky_pooled", n), &(), |b, _| {
        b.iter(|| black_box(CholeskyFactor::factor_pooled(&a, &pool, schedule).unwrap()))
    });
    let dense = a.to_dense();
    g.bench_with_input(BenchmarkId::new("lu_serial", n), &(), |b, _| {
        b.iter(|| black_box(LuFactor::factor(&dense).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("lu_pooled", n), &(), |b, _| {
        b.iter(|| black_box(LuFactor::factor_pooled(&dense, &pool, schedule).unwrap()))
    });
    let mut y = vec![0.0; n];
    g.bench_with_input(BenchmarkId::new("matvec_pooled", n), &(), |b, _| {
        use layerbem_numeric::pcg::LinearOperator;
        let op = PooledSymOperator::new(&a, pool, schedule);
        b.iter(|| {
            op.apply(black_box(&rhs), &mut y);
            black_box(&y);
        })
    });
    g.finish();
}

criterion_group!(benches, direct_vs_iterative, serial_vs_pooled, matvec);
criterion_main!(benches);
