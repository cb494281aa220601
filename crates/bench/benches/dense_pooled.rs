//! The dense pooled layer, measured: blocked vs per-column pooled
//! factorizations (the region-launch amortization the blocked
//! right-looking form buys) and serial vs pooled collocation assembly
//! (the dense mirror of the staged-vs-direct Galerkin comparison).
//!
//! `block = 1` *is* the old one-parallel-region-per-column behavior —
//! every width produces bit-identical factors, so the comparison isolates
//! pure dispatch overhead. Besides the Criterion timings, each group
//! writes a plain-text summary under `results/` (one timed pass per
//! configuration) like the table/figure driver binaries do, so CI's
//! artifact upload keeps a machine-readable record of the comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use layerbem_bench::{render_table, write_artifact};
use layerbem_core::assembly::{assemble_collocation, assemble_galerkin};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::kernel::SoilKernel;
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{Mesh, Mesher};
use layerbem_numeric::cholesky::CholeskyFactor;
use layerbem_numeric::lu::LuFactor;
use layerbem_numeric::{SymMatrix, DEFAULT_FACTOR_BLOCK};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

fn bench_mesh(cells: usize) -> Mesh {
    Mesher::default().mesh(&rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 10.0 * cells as f64,
        height: 10.0 * cells as f64,
        nx: cells,
        ny: cells,
        depth: 0.8,
        radius: 0.006,
    }))
}

/// A real assembled Galerkin system of a few hundred unknowns (14×14
/// cells → 225 dof) — above the factorizations' serial cutoff, so the
/// pooled paths genuinely run instead of falling back.
fn bem_matrix() -> SymMatrix {
    let mesh = bench_mesh(14);
    let k = SoilKernel::new(&SoilModel::uniform(0.016));
    assemble_galerkin(&mesh, &k, &SolveOptions::default()).matrix
}

fn blocked_vs_percolumn(c: &mut Criterion) {
    let a = bem_matrix();
    let n = a.order();
    let dense = a.to_dense();
    let pool = ThreadPool::with_available_parallelism();
    let schedule = Schedule::static_blocked();
    let mut g = c.benchmark_group("blocked-vs-percolumn");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("cholesky_serial", n), &(), |b, _| {
        b.iter(|| black_box(CholeskyFactor::factor(&a).unwrap()))
    });
    for block in [1usize, 8, DEFAULT_FACTOR_BLOCK] {
        g.bench_with_input(
            BenchmarkId::new("cholesky_pooled", format!("n{n}_block{block}")),
            &block,
            |b, &block| {
                b.iter(|| {
                    black_box(
                        CholeskyFactor::factor_pooled_blocked(&a, &pool, schedule, block).unwrap(),
                    )
                })
            },
        );
    }
    g.bench_with_input(BenchmarkId::new("lu_serial", n), &(), |b, _| {
        b.iter(|| black_box(LuFactor::factor(&dense).unwrap()))
    });
    for block in [1usize, 8, DEFAULT_FACTOR_BLOCK] {
        g.bench_with_input(
            BenchmarkId::new("lu_pooled", format!("n{n}_block{block}")),
            &block,
            |b, &block| {
                b.iter(|| {
                    black_box(
                        LuFactor::factor_pooled_blocked(&dense, &pool, schedule, block).unwrap(),
                    )
                })
            },
        );
    }
    g.finish();

    // One timed pass per configuration into results/: a durable record of
    // the block-size sweep next to the Criterion console output.
    let mut rows = Vec::new();
    let t0 = Instant::now();
    black_box(CholeskyFactor::factor(&a).unwrap());
    rows.push(vec![
        "cholesky".into(),
        "serial".into(),
        "-".into(),
        format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
    ]);
    for block in [1usize, 8, DEFAULT_FACTOR_BLOCK] {
        let t0 = Instant::now();
        black_box(CholeskyFactor::factor_pooled_blocked(&a, &pool, schedule, block).unwrap());
        rows.push(vec![
            "cholesky".into(),
            format!("pooled x{}", pool.threads()),
            block.to_string(),
            format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    let t0 = Instant::now();
    black_box(LuFactor::factor(&dense).unwrap());
    rows.push(vec![
        "lu".into(),
        "serial".into(),
        "-".into(),
        format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
    ]);
    for block in [1usize, 8, DEFAULT_FACTOR_BLOCK] {
        let t0 = Instant::now();
        black_box(LuFactor::factor_pooled_blocked(&dense, &pool, schedule, block).unwrap());
        rows.push(vec![
            "lu".into(),
            format!("pooled x{}", pool.threads()),
            block.to_string(),
            format!("{:.2}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    let table = render_table(&["factorization", "mode", "block", "wall (ms)"], &rows);
    write_artifact(
        "blocked_vs_percolumn.txt",
        &format!("n = {n} (block=1 is the old per-column dispatch)\n{table}"),
    );
}

fn serial_vs_pooled_collocation(c: &mut Criterion) {
    let mesh = bench_mesh(4);
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let pool = ThreadPool::with_available_parallelism();
    let serial_opts = SolveOptions::default();
    let mut g = c.benchmark_group("serial-vs-pooled-collocation");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| black_box(assemble_collocation(&mesh, &k, &serial_opts)))
    });
    for schedule in [Schedule::static_blocked(), Schedule::dynamic(1)] {
        g.bench_with_input(
            BenchmarkId::new("pooled", schedule.label()),
            &schedule,
            |b, s| {
                let pooled_opts = serial_opts.with_parallelism(pool, *s);
                b.iter(|| black_box(assemble_collocation(&mesh, &k, &pooled_opts)))
            },
        );
    }
    g.finish();

    let t0 = Instant::now();
    let (serial, _, _) = assemble_collocation(&mesh, &k, &serial_opts);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut rows = vec![vec![
        "serial".into(),
        "-".into(),
        format!("{serial_ms:.2}"),
        "baseline".into(),
    ]];
    for schedule in [Schedule::static_blocked(), Schedule::dynamic(1)] {
        let t0 = Instant::now();
        let pooled_opts = serial_opts.with_parallelism(pool, schedule);
        let (pooled, _, _) = assemble_collocation(&mesh, &k, &pooled_opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            serial.as_slice(),
            pooled.as_slice(),
            "pooled collocation must stay bit-identical while being timed"
        );
        rows.push(vec![
            format!("pooled x{}", pool.threads()),
            schedule.label(),
            format!("{ms:.2}"),
            "identical".into(),
        ]);
    }
    let table = render_table(&["mode", "schedule", "wall (ms)", "vs serial"], &rows);
    write_artifact(
        "serial_vs_pooled_collocation.txt",
        &format!("collocation assembly, n = {}\n{table}", serial.rows()),
    );
}

criterion_group!(benches, blocked_vs_percolumn, serial_vs_pooled_collocation);
criterion_main!(benches);
