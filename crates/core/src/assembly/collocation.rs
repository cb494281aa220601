//! Point-collocation matrix generation — the paper's "different
//! formulations" alternative (§4.2), kept for cross-checks.

use layerbem_geometry::{ElementRowMap, Mesh};
use layerbem_numeric::DenseMatrix;

use super::{element_geoms, row_ranges, AssemblyCost};
use crate::formulation::SolveOptions;
use crate::integration::ElementGeom;
use crate::kernel::{KernelBatch, KernelCost, SoilKernel};

/// Computes one collocation row: the potentials at node `p`'s collocation
/// point due to every element, accumulated into `row`. Every partition
/// funnels its rows through this function, so a row is the identical
/// scalar sequence no matter which thread — or how many — computed it.
pub(super) fn collocation_row(
    mesh: &Mesh,
    geoms: &[ElementGeom],
    kernel: &SoilKernel,
    p: usize,
    incident: &[usize],
    row: &mut [f64],
    batch: &mut KernelBatch,
) -> KernelCost {
    // Collocation point: on the surface of the first incident element,
    // a quarter length in from the node (avoids junction end effects).
    let e = incident[0];
    let g = &geoms[e];
    let s = if mesh.elements[e].nodes[0] == p {
        0.25 * g.length
    } else {
        0.75 * g.length
    };
    let (xp, xm) = g.surface_pair(s);
    let mut cost = KernelCost::default();
    // Both surface points of the collocation pair ride in one two-point
    // batch per source element; the batch content is fixed by the row
    // alone, so rows stay schedule-invariant.
    for (alpha, ga) in geoms.iter().enumerate() {
        batch.clear();
        batch.push(xp);
        batch.push(xm);
        cost += kernel.element_potential_batch(batch, ga);
        let vals = batch.values();
        let na = mesh.elements[alpha].nodes;
        row[na[0]] += 0.5 * (vals[0][0] + vals[1][0]);
        row[na[1]] += 0.5 * (vals[0][1] + vals[1][1]);
    }
    cost
}

/// Per-partition state: the disjoint row view plus this worker's kernel
/// cost counters.
struct CollocationPart<'a> {
    view: layerbem_numeric::DenseRowsMut<'a>,
    cost: KernelCost,
}

/// Collocation matrix: row `p` states `V(x_p) = 1` at a surface point
/// near node `p`. Nonsymmetric; solved by LU. Returns the matrix, the
/// unit right-hand side and what the generation cost (one batched kernel
/// loop, so `kernel_seconds` is the whole wall time).
///
/// The matrix rows are partitioned into disjoint
/// [`DenseRowsMut`](layerbem_numeric::DenseRowsMut) views by
/// `row_ranges` — one range at one thread, the schedule's deterministic
/// chunk decomposition otherwise — and each partition fills its own rows
/// **in place** on `opts.parallelism`'s pool: no staging, no locks, 1×
/// memory, mirroring the Galerkin engine. Each row is one node's
/// collocation equation and depends on nothing outside the mesh, so the
/// result is **bit-identical** to a plain row loop for every schedule and
/// thread count.
pub fn assemble_collocation(
    mesh: &Mesh,
    kernel: &SoilKernel,
    opts: &SolveOptions,
) -> (DenseMatrix, Vec<f64>, AssemblyCost) {
    let t0 = std::time::Instant::now();
    let geoms = element_geoms(mesh);
    let n = mesh.dof();
    // The rows → owning-elements CSR half of the map: flat arrays, no
    // per-node allocation, same ascending element order as
    // `Mesh::node_elements`.
    let map = ElementRowMap::from_mesh(mesh);
    let mut c = DenseMatrix::zeros(n, n);
    let fill = |p: usize, row: &mut [f64], batch: &mut KernelBatch| {
        let incident = map.row_elements(p);
        collocation_row(mesh, &geoms, kernel, p, incident, row, batch)
    };
    let par = &opts.parallelism;
    // The same row split the worklist assembler and the hierarchical
    // near field use.
    let ranges = row_ranges(n, &par.pool, par.schedule);
    let mut parts: Vec<CollocationPart> = c
        .partition_rows(&ranges)
        .into_iter()
        .map(|view| CollocationPart {
            view,
            cost: KernelCost::default(),
        })
        .collect();
    par.pool
        .scoped_partition(&mut parts, par.schedule.partition_dispatch(), |_, part| {
            let mut batch = KernelBatch::new();
            for p in part.view.rows() {
                part.cost += fill(p, part.view.row_mut(p), &mut batch);
            }
        });
    let mut cost = KernelCost::default();
    for part in &parts {
        cost += part.cost;
    }
    drop(parts);
    let seconds = t0.elapsed().as_secs_f64();
    let cost = AssemblyCost {
        assemblies: 1,
        seconds,
        kernel_seconds: seconds,
        kernel: cost,
        ..AssemblyCost::default()
    };
    (c, vec![1.0; n], cost)
}
