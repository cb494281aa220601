//! The paper's staged parallel assembly (§6.2), for the reproduction
//! tables only.
//!
//! "The assembly of the elemental matrices causes a dependency between
//! the actions of the threads. This drawback can be avoided by taking the
//! assembly process out of that loop, which implies first the computation
//! and the storage of all the elemental matrices and, after this step,
//! the assembly in a sequential mode. This scheme requires approximately
//! twice the memory space": stage 1 computes every 2×2 elemental block in
//! parallel — over the outer loop (columns) or the inner loop (rows of
//! each column, Fig 6.1's dashed line) — into one `Vec<Block>` per
//! column; stage 2 scatters them sequentially. Built on the same
//! [`pair_block`] / [`scatter_pair`] as the production engines (one
//! kernel evaluator, the batched lane path), in the same `(β, α)` order,
//! so the result is bit-identical to `assemble_galerkin` at every
//! thread count.

use std::time::Instant;

use layerbem_core::assembly::{
    element_geoms, galerkin_rhs, pair_block, scatter_pair, AssemblyCost, AssemblyReport, Block,
    OuterQuadrature,
};
use layerbem_core::kernel::{KernelBatch, KernelCost, SoilKernel};
use layerbem_geometry::Mesh;
use layerbem_numeric::SymMatrix;
use layerbem_parfor::{ExecutionStats, Schedule, ThreadPool};

/// Which loop of the pair triangle stage 1 distributes among threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagedLoop {
    /// Columns `β` are the parallel tasks (the paper's preferred variant).
    Outer,
    /// The outer loop runs sequentially; each column's rows `α ≥ β` are
    /// the parallel tasks (the granularity-losing comparison variant).
    Inner,
}

/// One stored column of the pair triangle: `blocks[k]` is pair `(β, β+k)`.
#[derive(Clone, Default)]
struct Column {
    blocks: Vec<Block>,
    cost: KernelCost,
    seconds: f64,
}

/// Runs the staged scheme on `pool` under `schedule`. The pool is
/// explicit, not a `SolveOptions` field, because the paper's measurement
/// pairs this parallel assembly with a serial solve.
pub fn assemble_staged(
    mesh: &Mesh,
    kernel: &SoilKernel,
    pool: &ThreadPool,
    schedule: Schedule,
    staged_loop: StagedLoop,
) -> AssemblyReport {
    let geoms = element_geoms(mesh);
    let quad = OuterQuadrature::default();
    let m = geoms.len();
    let t0 = Instant::now();
    let pair = |beta: usize, alpha: usize, batch: &mut KernelBatch| {
        pair_block(&geoms[beta], &geoms[alpha], kernel, &quad, batch)
    };

    // Stage 1: compute and store all M(M+1)/2 elemental matrices.
    let mut columns = vec![Column::default(); m];
    let stats = match staged_loop {
        StagedLoop::Outer => pool.scoped_partition(&mut columns, schedule, |beta, col| {
            let t = Instant::now();
            let mut batch = KernelBatch::new();
            for alpha in beta..m {
                let (b, c) = pair(beta, alpha, &mut batch);
                col.blocks.push(b);
                col.cost += c;
            }
            col.seconds = t.elapsed().as_secs_f64();
        }),
        StagedLoop::Inner => {
            for (beta, col) in columns.iter_mut().enumerate() {
                let t = Instant::now();
                let mut pairs = vec![(Block::default(), KernelCost::default()); m - beta];
                pool.parallel_fill(&mut pairs, schedule, |k| {
                    pair(beta, beta + k, &mut KernelBatch::new())
                });
                for (b, c) in pairs {
                    col.blocks.push(b);
                    col.cost += c;
                }
                col.seconds = t.elapsed().as_secs_f64();
            }
            // One region per column: no single region's stats to report.
            ExecutionStats::default()
        }
    };

    // Stage 2: the sequential assembly.
    let mut matrix = SymMatrix::zeros(mesh.dof());
    for (beta, col) in columns.iter().enumerate() {
        let nb = mesh.elements[beta].nodes;
        for (k, b) in col.blocks.iter().enumerate() {
            let na = mesh.elements[beta + k].nodes;
            scatter_pair(nb, na, k == 0, b, &mut |p, q, v| matrix.add(p, q, v));
        }
    }
    let mut kernel_cost = KernelCost::default();
    for col in &columns {
        kernel_cost += col.cost;
    }
    AssemblyReport {
        matrix,
        rhs: galerkin_rhs(mesh),
        column_seconds: columns.iter().map(|c| c.seconds).collect(),
        column_terms: columns.iter().map(|c| c.cost.terms).collect(),
        cost: AssemblyCost {
            assemblies: 1,
            seconds: t0.elapsed().as_secs_f64(),
            kernel_seconds: columns.iter().map(|c| c.seconds).sum(),
            kernel: kernel_cost,
            pairs: m * (m + 1) / 2,
            pairs_evaluated: m * (m + 1) / 2,
            compression: None,
        },
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_core::assembly::assemble_galerkin;
    use layerbem_core::formulation::SolveOptions;
    use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
    use layerbem_geometry::Mesher;
    use layerbem_soil::SoilModel;

    #[test]
    fn staged_assembly_is_bit_identical_to_the_serial_loop() {
        let mesh = Mesher::default().mesh(&rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 30.0,
            height: 20.0,
            nx: 3,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        }));
        let kernel = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
        let serial = assemble_galerkin(&mesh, &kernel, &SolveOptions::default());
        let pool = ThreadPool::new(3);
        for staged_loop in [StagedLoop::Outer, StagedLoop::Inner] {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::dynamic(1),
                Schedule::guided(1),
            ] {
                let staged = assemble_staged(&mesh, &kernel, &pool, schedule, staged_loop);
                let label = format!("{staged_loop:?} {}", schedule.label());
                assert_eq!(serial.matrix.packed(), staged.matrix.packed(), "{label}");
                assert_eq!(serial.rhs, staged.rhs, "{label}");
                assert_eq!(serial.column_terms, staged.column_terms, "{label}");
                assert_eq!(serial.cost.kernel, staged.cost.kernel, "{label}");
            }
        }
    }
}
