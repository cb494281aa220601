//! Matrix-generation benchmarks: the dominant pipeline phase (paper
//! Table 6.1) on a mid-size grid — serial loop vs the paper's staged
//! outer/inner variants vs the production pooled engine, uniform vs
//! two-layer soil, plus the outer-quadrature-order ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use layerbem_bench::staged::{assemble_staged, StagedLoop};
use layerbem_core::assembly::assemble_galerkin;
use layerbem_core::formulation::SolveOptions;
use layerbem_core::kernel::SoilKernel;
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{Mesh, Mesher};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

fn bench_mesh() -> Mesh {
    // 4×3 cells → 31 elements: big enough to exercise the triangle loop,
    // small enough for statistically meaningful Criterion runs.
    Mesher::default().mesh(&rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 40.0,
        height: 30.0,
        nx: 4,
        ny: 3,
        depth: 0.8,
        radius: 0.006,
    }))
}

fn soil_models(c: &mut Criterion) {
    let mesh = bench_mesh();
    let opts = SolveOptions::default();
    let mut g = c.benchmark_group("assembly_soil");
    g.sample_size(10);
    for (label, soil) in [
        ("uniform", SoilModel::uniform(0.016)),
        ("two_layer", SoilModel::two_layer(0.005, 0.016, 1.0)),
        ("two_layer_strong", SoilModel::two_layer(0.0025, 0.020, 1.0)),
    ] {
        let k = SoilKernel::new(&soil);
        g.bench_with_input(BenchmarkId::from_parameter(label), &k, |b, k| {
            b.iter(|| black_box(assemble_galerkin(&mesh, k, &opts)))
        });
    }
    g.finish();
}

fn parallel_modes(c: &mut Criterion) {
    let mesh = bench_mesh();
    let opts = SolveOptions::default();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let pool = ThreadPool::with_available_parallelism();
    let mut g = c.benchmark_group("assembly_mode");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(assemble_galerkin(&mesh, &k, &opts)))
    });
    g.bench_function("parallel_outer_dynamic1", |b| {
        b.iter(|| {
            black_box(assemble_staged(
                &mesh,
                &k,
                &opts,
                &pool,
                Schedule::dynamic(1),
                StagedLoop::Outer,
            ))
        })
    });
    g.bench_function("parallel_inner_dynamic1", |b| {
        b.iter(|| {
            black_box(assemble_staged(
                &mesh,
                &k,
                &opts,
                &pool,
                Schedule::dynamic(1),
                StagedLoop::Inner,
            ))
        })
    });
    g.finish();
}

fn staged_vs_direct(c: &mut Criterion) {
    // The tentpole comparison: the paper's staged scheme (compute blocks,
    // assemble sequentially, ~2× memory) against the zero-staging
    // in-place assembler (1× memory) on the same pool.
    let mesh = bench_mesh();
    let opts = SolveOptions::default();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let pool = ThreadPool::with_available_parallelism();
    let mut g = c.benchmark_group("assembly_staged_vs_direct");
    g.sample_size(10);
    for schedule in [Schedule::static_blocked(), Schedule::guided(1)] {
        g.bench_with_input(
            BenchmarkId::new("staged_outer", schedule.label()),
            &schedule,
            |b, s| {
                b.iter(|| {
                    black_box(assemble_staged(
                        &mesh,
                        &k,
                        &opts,
                        &pool,
                        *s,
                        StagedLoop::Outer,
                    ))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("direct", schedule.label()),
            &schedule,
            |b, s| {
                b.iter(|| {
                    black_box(assemble_galerkin(
                        &mesh,
                        &k,
                        &opts.with_parallelism(pool, *s),
                    ))
                })
            },
        );
    }
    g.finish();
}

fn quadrature_ablation(c: &mut Criterion) {
    // Cost of the outer-quadrature order — the accuracy/cost lever of
    // SolveOptions::outer_quadrature.
    let mesh = bench_mesh();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let mut g = c.benchmark_group("assembly_quadrature");
    g.sample_size(10);
    for order in [2usize, 4, 8] {
        let opts = SolveOptions {
            outer_quadrature: order,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(order), &opts, |b, opts| {
            b.iter(|| black_box(assemble_galerkin(&mesh, &k, opts)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    soil_models,
    parallel_modes,
    staged_vs_direct,
    quadrature_ablation
);
criterion_main!(benches);
