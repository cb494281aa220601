//! Tests of the Galerkin, hierarchical and collocation assemblers (one
//! module: they share fixtures, the double-loop oracle and the
//! one-thread-vs-pool pattern).

use super::*;
use layerbem_geometry::conductor::ground_rod;
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{Conductor, ConductorNetwork, ElementRowMap, Mesher, Point3};
use layerbem_numeric::cholesky::CholeskyFactor;
use layerbem_numeric::{AcaError, DenseMatrix};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;
use proptest::prelude::*;

use super::collocation::collocation_row;

/// The paper's sequential double loop — the bit-identity oracle of the
/// class-first engine. Column `β` couples element `β` with every `α ≥ β`, so
/// "the first one has M rows and the last one has 1 row" (paper §6.2);
/// each pair's block is scattered into the packed triangle as soon as it
/// is computed. Returns the matrix, the per-column series terms and the
/// total kernel cost.
fn assemble_serial(mesh: &Mesh, kernel: &SoilKernel) -> (SymMatrix, Vec<u64>, KernelCost) {
    let geoms = element_geoms(mesh);
    let quad = OuterQuadrature::default();
    let m = geoms.len();
    let mut matrix = SymMatrix::zeros(mesh.dof());
    let mut column_terms = Vec::with_capacity(m);
    let mut total = KernelCost::default();
    let mut batch = KernelBatch::new();
    for beta in 0..m {
        let nb = mesh.elements[beta].nodes;
        let mut cost = KernelCost::default();
        for alpha in beta..m {
            let (b, c) = pair_block(&geoms[beta], &geoms[alpha], kernel, &quad, &mut batch);
            let na = mesh.elements[alpha].nodes;
            scatter_pair(nb, na, alpha == beta, &b, &mut |p, q, v| {
                matrix.add(p, q, v)
            });
            cost += c;
        }
        column_terms.push(cost.terms);
        total += cost;
    }
    (matrix, column_terms, total)
}

/// The collocation oracle: a plain loop over the rows, each filled by the
/// row function every partition of [`assemble_collocation`] calls.
fn collocation_serial(mesh: &Mesh, kernel: &SoilKernel) -> (DenseMatrix, KernelCost) {
    let geoms = element_geoms(mesh);
    let map = ElementRowMap::from_mesh(mesh);
    let n = mesh.dof();
    let mut c = DenseMatrix::zeros(n, n);
    let mut cost = KernelCost::default();
    let mut batch = KernelBatch::new();
    for p in 0..n {
        let row = c.row_mut(p);
        cost += collocation_row(
            mesh,
            &geoms,
            kernel,
            p,
            map.row_elements(p),
            row,
            &mut batch,
        );
    }
    (c, cost)
}

/// The hierarchical near field's oracle: the near pairs in their
/// sequential order, each block computed on the spot and scattered into a
/// dense triangle.
fn near_field_serial(mesh: &Mesh, kernel: &SoilKernel, leaf_size: usize) -> SymMatrix {
    let geoms = element_geoms(mesh);
    let quad = OuterQuadrature::default();
    let tree = layerbem_geometry::ClusterTree::build(mesh, leaf_size);
    let mut near = SymMatrix::zeros(mesh.dof());
    let mut batch = KernelBatch::new();
    for &(beta, alpha) in &tree.block_partition(DEFAULT_ADMISSIBILITY).near {
        let (beta, alpha) = (beta as usize, alpha as usize);
        let (b, _) = pair_block(&geoms[beta], &geoms[alpha], kernel, &quad, &mut batch);
        let (nb, na) = (mesh.elements[beta].nodes, mesh.elements[alpha].nodes);
        scatter_pair(nb, na, alpha == beta, &b, &mut |p, q, v| near.add(p, q, v));
    }
    near
}

/// Asserts every entry of `near` has the bits of the oracle's.
fn assert_near_field_is(near: &layerbem_numeric::SparseSym, oracle: &SymMatrix, label: &str) {
    for i in 0..oracle.order() {
        for j in 0..=i {
            assert_eq!(
                near.get(i, j).to_bits(),
                oracle.get(i, j).to_bits(),
                "({i}, {j}) {label}"
            );
        }
    }
}

/// Asserts the regions ran inline, on one thread.
fn assert_one_thread(stats: &ExecutionStats, label: &str) {
    assert_eq!(stats.per_thread.len(), 1, "{label}");
}

fn small_mesh() -> Mesh {
    let net = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 20.0,
        height: 10.0,
        nx: 2,
        ny: 1,
        depth: 0.8,
        radius: 0.006,
    });
    Mesher::default().mesh(&net)
}

fn uniform_kernel() -> SoilKernel {
    SoilKernel::new(&SoilModel::uniform(0.016))
}

#[test]
fn galerkin_matrix_is_spd() {
    let mesh = small_mesh();
    let rep = assemble_galerkin(&mesh, &uniform_kernel(), &SolveOptions::default());
    assert_eq!(rep.matrix.order(), mesh.dof());
    // Positive definiteness certified by a successful Cholesky.
    assert!(CholeskyFactor::factor(&rep.matrix).is_ok());
    // Diagonal dominance of the self terms: all diagonal entries
    // positive and the largest entries of the matrix.
    let diag = rep.matrix.diagonal();
    assert!(diag.iter().all(|&d| d > 0.0));
}

/// Barberá-style grid: a multi-cell rectangular mesh whose junction
/// nodes give element pairs with non-adjacent node indices — the
/// configuration that exercises partition-boundary pairs.
fn barbera_style_mesh() -> Mesh {
    let net = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 30.0,
        height: 20.0,
        nx: 3,
        ny: 2,
        depth: 0.8,
        radius: 0.006,
    });
    Mesher::default().mesh(&net)
}

#[test]
fn parallel_direct_engines_are_bit_identical_to_sequential() {
    let mesh = barbera_style_mesh();
    let k = uniform_kernel();
    let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
    let one = assemble_galerkin(&mesh, &k, &SolveOptions::default());
    assert_eq!(matrix.packed(), one.matrix.packed());
    assert_eq!(column_terms, one.column_terms);
    assert_eq!(cost, one.cost.kernel);
    assert_one_thread(&one.stats, "default");
    for threads in [2, 3] {
        let pool = ThreadPool::new(threads);
        for schedule in [
            Schedule::static_blocked(),
            Schedule::static_chunk(3),
            Schedule::dynamic(1),
            Schedule::dynamic(4),
            Schedule::guided(1),
        ] {
            let opts = SolveOptions::default().with_parallelism(pool, schedule);
            let direct = assemble_galerkin(&mesh, &k, &opts);
            let label = format!("threads={threads} {}", schedule.label());
            assert_eq!(matrix.packed(), direct.matrix.packed(), "{label}");
            assert_eq!(one.rhs, direct.rhs, "{label}");
            assert_eq!(column_terms, direct.column_terms, "{label}");
            assert_eq!(direct.stats.per_thread.len(), threads, "{label}");
        }
    }
}

#[test]
fn parallel_direct_matches_sequential_on_two_layer_soil() {
    // The layered kernel consumes far more series terms per pair;
    // the per-pair term attribution must still sum exactly.
    let mesh = small_mesh();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
    let pooled = SolveOptions::default().with_parallelism(ThreadPool::new(2), Schedule::guided(1));
    for opts in [SolveOptions::default(), pooled] {
        let direct = assemble_galerkin(&mesh, &k, &opts);
        assert_eq!(matrix.packed(), direct.matrix.packed());
        assert_eq!(column_terms, direct.column_terms);
        assert_eq!(cost.terms, direct.total_terms());
    }
}

#[test]
fn outer_rule_orders_are_pinned() {
    // The one outer rule: 4 points for separated pairs, 16 for near ones.
    let q = OuterQuadrature::default();
    assert_eq!((q.base.len(), q.near.len()), (4, 16));
}

#[test]
fn rhs_sums_to_total_length() {
    let mesh = small_mesh();
    let rhs = galerkin_rhs(&mesh);
    let total: f64 = rhs.iter().sum();
    assert!((total - mesh.total_length()).abs() < 1e-9);
}

#[test]
fn column_profile_is_triangular() {
    // Column β couples with β+1 sources: terms grow with β.
    let mesh = small_mesh();
    let rep = assemble_galerkin(&mesh, &uniform_kernel(), &SolveOptions::default());
    let m = mesh.element_count();
    assert_eq!(rep.column_terms.len(), m);
    // Column β holds M−β pairs: costs decrease with β — "the first
    // one has M rows and the last one has 1 row" (paper §6.2).
    for w in rep.column_terms.windows(2) {
        assert!(w[1] < w[0], "{:?}", rep.column_terms);
    }
    // Uniform soil: 2 image terms per evaluation, 2 azimuths, at
    // least the base rule's points per pair.
    let q = OuterQuadrature::default().base.len() as u64;
    for (beta, t) in rep.column_terms.iter().enumerate() {
        assert!(*t >= 2 * 2 * q * (m as u64 - beta as u64), "column {beta}");
    }
}

#[test]
fn two_conductor_symmetry() {
    // Two identical parallel bars: by symmetry the solution must give
    // them equal leakage, which requires the matrix to treat them
    // symmetrically.
    let mut net = ConductorNetwork::new();
    net.add(Conductor::new(
        Point3::new(0.0, 0.0, 0.8),
        Point3::new(10.0, 0.0, 0.8),
        0.006,
    ));
    net.add(Conductor::new(
        Point3::new(0.0, 5.0, 0.8),
        Point3::new(10.0, 5.0, 0.8),
        0.006,
    ));
    let mesh = Mesher::default().mesh(&net);
    let rep = assemble_galerkin(&mesh, &uniform_kernel(), &SolveOptions::default());
    // Node pairs (0,1) on bar 1 and (2,3) on bar 2: diagonal entries
    // must match across bars.
    let m = &rep.matrix;
    assert!((m.get(0, 0) - m.get(2, 2)).abs() < 1e-10 * m.get(0, 0));
    assert!((m.get(1, 1) - m.get(3, 3)).abs() < 1e-10 * m.get(1, 1));
}

#[test]
fn collocation_matrix_has_dominant_self_terms() {
    let mesh = small_mesh();
    let (c, rhs, _) = assemble_collocation(&mesh, &uniform_kernel(), &SolveOptions::default());
    assert_eq!(c.rows(), mesh.dof());
    assert!(rhs.iter().all(|&v| v == 1.0));
    // Rows should be strictly positive (potentials of positive
    // sources) with large near-diagonal entries.
    for p in 0..c.rows() {
        for q in 0..c.cols() {
            assert!(c.get(p, q) > 0.0);
        }
    }
}

#[test]
fn pooled_collocation_is_bit_identical_to_serial() {
    let mesh = barbera_style_mesh();
    let k = uniform_kernel();
    let (serial, cost_serial) = collocation_serial(&mesh, &k);
    for threads in [1, 2, 3] {
        let pool = ThreadPool::new(threads);
        for schedule in [
            Schedule::static_blocked(),
            Schedule::static_chunk(2),
            Schedule::dynamic(1),
            Schedule::guided(1),
        ] {
            let opts = SolveOptions::default().with_parallelism(pool, schedule);
            let (pooled, rhs, cost_pooled) = assemble_collocation(&mesh, &k, &opts);
            let label = format!("threads={threads} {}", schedule.label());
            assert_eq!(serial.as_slice(), pooled.as_slice(), "{label}");
            assert_eq!(rhs, vec![1.0; mesh.dof()], "{label}");
            assert_eq!(cost_serial, cost_pooled.kernel, "{label}");
        }
    }
}

#[test]
fn pooled_collocation_handles_layered_soil() {
    // The layered kernel takes a different series path per
    // evaluation; row-ownership must still reproduce the row loop
    // exactly.
    let mesh = small_mesh();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let (serial, _) = collocation_serial(&mesh, &k);
    let pooled_opts =
        SolveOptions::default().with_parallelism(ThreadPool::new(4), Schedule::dynamic(1));
    let (pooled, _, _) = assemble_collocation(&mesh, &k, &pooled_opts);
    assert_eq!(serial.as_slice(), pooled.as_slice());
}

#[test]
fn hierarchical_operator_matches_the_dense_matrix() {
    use layerbem_numeric::LinearOperator;
    let mesh = barbera_style_mesh();
    let k = uniform_kernel();
    let opts = SolveOptions::default();
    let dense = assemble_galerkin(&mesh, &k, &opts);
    let tol = 1e-8;
    let rep = assemble_hierarchical(&mesh, &k, &opts, tol, 4).expect("ACA converges");
    assert_eq!(rep.rhs, dense.rhs);
    assert_eq!(rep.operator.order(), mesh.dof());
    assert!(rep.cost.kernel.terms > 0);
    let n = mesh.dof();
    // Matvec agreement within tol·‖A‖_F·‖x‖ on a non-trivial vector.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.37).collect();
    let mut yd = vec![0.0; n];
    let mut yh = vec![0.0; n];
    dense.matrix.apply(&x, &mut yd);
    rep.operator.apply(&x, &mut yh);
    let norm_a: f64 = (0..n)
        .map(|p| (0..n).map(|q| dense.matrix.get(p, q).powi(2)).sum::<f64>())
        .sum::<f64>()
        .sqrt();
    let norm_x: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    let err: f64 = yd
        .iter()
        .zip(&yh)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(
        err <= 10.0 * tol * norm_a * norm_x,
        "‖(A - H)x‖ = {err:.3e} vs scale {:.3e}",
        tol * norm_a * norm_x
    );
    // Same diagonal: the far field never touches it.
    assert_eq!(rep.operator.diagonal(), dense.matrix.diagonal());
    // The compression accounting is self-consistent.
    let cs = rep.operator.compression_stats();
    assert_eq!(cs.order, n);
    assert!(cs.resident_bytes > 0);
}

#[test]
fn pooled_hierarchical_assembly_is_bit_identical_to_serial() {
    let mesh = barbera_style_mesh();
    let k = uniform_kernel();
    let serial =
        assemble_hierarchical(&mesh, &k, &SolveOptions::default(), 1e-8, 4).expect("ACA converges");
    assert_one_thread(&serial.stats, "default");
    for threads in [2, 3] {
        let pool = ThreadPool::new(threads);
        for schedule in [
            Schedule::static_blocked(),
            Schedule::dynamic(1),
            Schedule::guided(1),
        ] {
            let opts = SolveOptions::default().with_parallelism(pool, schedule);
            let pooled = assemble_hierarchical(&mesh, &k, &opts, 1e-8, 4).expect("ACA converges");
            let label = format!("threads={threads} {}", schedule.label());
            assert!(serial.operator == pooled.operator, "{label}");
            assert_eq!(serial.rhs, pooled.rhs, "{label}");
            assert_eq!(serial.cost.kernel, pooled.cost.kernel, "{label}");
            assert_eq!(pooled.stats.per_thread.len(), threads, "{label}");
        }
    }
}

#[test]
fn hierarchical_rank_cap_surfaces_as_a_typed_error() {
    // An absurdly tight tolerance with a rank cap of MAX_FAR_RANK
    // cannot be reached on blocks larger than the cap — but small
    // grids have far blocks below the cap, where ACA terminates
    // exactly. Drive the error path through `aca` directly instead:
    // a full-rank random block with rank cap 1.
    let err = layerbem_numeric::aca(
        8,
        8,
        |i, j| {
            if i == j {
                1.0
            } else {
                0.1 / (1.0 + (i * 31 + j * 17) as f64)
            }
        },
        1e-14,
        1,
    )
    .expect_err("rank-1 cap cannot reach 1e-14 on a full-rank block");
    assert_eq!(
        err,
        AcaError::ToleranceNotReached {
            max_rank: 1,
            tol: 1e-14
        }
    );
}

#[test]
fn two_layer_assembly_costs_more_terms_than_uniform() {
    let mesh = small_mesh();
    let opts = SolveOptions::default();
    let uni = assemble_galerkin(&mesh, &uniform_kernel(), &opts);
    let two = assemble_galerkin(
        &mesh,
        &SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 1.0)),
        &opts,
    );
    assert!(
        two.total_terms() > 10 * uni.total_terms(),
        "two-layer {} vs uniform {}",
        two.total_terms(),
        uni.total_terms()
    );
}

/// A `grid rect` yard of `nx × ny` cells, with a 1.5 m rod at each corner
/// when `rods` is set.
fn rect_yard(nx: usize, ny: usize, rods: bool) -> Mesh {
    let spec = RectGridSpec {
        origin: (0.0, 0.0),
        width: 12.0,
        height: 9.0,
        nx,
        ny,
        depth: 0.8,
        radius: 0.006,
    };
    let mut net = rectangular_grid(spec);
    if rods {
        for (x, y) in [(0.0, 0.0), (12.0, 0.0), (0.0, 9.0), (12.0, 9.0)] {
            net.add(ground_rod(Point3::new(x, y, 0.8), 1.5, 0.007));
        }
    }
    Mesher::default().mesh(&net)
}

/// `net` moved by `(dx, dy)` in plan.
fn shifted(net: &ConductorNetwork, dx: f64, dy: f64) -> ConductorNetwork {
    let d = Point3::new(dx, dy, 0.0);
    let mut out = ConductorNetwork::new();
    for c in net.conductors() {
        out.add(Conductor::new(c.axis.a + d, c.axis.b + d, c.radius));
    }
    out
}

#[test]
fn a_translated_grid_assembles_the_same_bits() {
    // Balaidos's coordinates are whole metres (and halves), so this shift
    // is exact: every element keeps its shape bits and every pair its
    // offset bits, and the pair frame makes each block the same integral.
    let net = layerbem_geometry::grids::balaidos();
    let mesh = Mesher::default().mesh(&net);
    let moved = Mesher::default().mesh(&shifted(&net, 1024.0, -2048.0));
    let k = SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 0.7));
    let opts = SolveOptions::default();
    let here = assemble_galerkin(&mesh, &k, &opts);
    let there = assemble_galerkin(&moved, &k, &opts);
    assert_eq!(here.matrix.packed(), there.matrix.packed());
    assert_eq!(here.column_terms, there.column_terms);
    assert_eq!(here.cost.kernel, there.cost.kernel);
    assert_eq!(here.cost.pairs_evaluated, there.cost.pairs_evaluated);
}

#[test]
fn a_one_class_budget_still_reproduces_the_double_loop() {
    // A one-class store evicts its class on every new key and closes a
    // band at every key change, so nearly every run of equal keys is its
    // own band: the engines must not depend on what the store keeps.
    let mesh = barbera_style_mesh();
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
    let near = near_field_serial(&mesh, &k, 4);
    let m = mesh.element_count();
    for threads in [1, 3] {
        let label = format!("threads={threads}");
        let opts = SolveOptions::default()
            .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
        let rep = assemble_galerkin_in(&mesh, &k, &opts, ClassStore::with_capacity(1));
        assert_eq!(matrix.packed(), rep.matrix.packed(), "{label}");
        assert_eq!(column_terms, rep.column_terms, "{label}");
        assert_eq!(cost, rep.cost.kernel, "{label}");
        assert_eq!(rep.cost.pairs, m * (m + 1) / 2, "{label}");
        let full = assemble_galerkin(&mesh, &k, &opts);
        assert!(
            full.cost.pairs_evaluated < rep.cost.pairs_evaluated,
            "{label}"
        );

        let one = hierarchical::assemble_hierarchical_in(
            &mesh,
            &k,
            &opts,
            1e-8,
            4,
            ClassStore::with_capacity(1),
        )
        .expect("ACA converges");
        assert_near_field_is(one.operator.near(), &near, &label);
        let full = assemble_hierarchical(&mesh, &k, &opts, 1e-8, 4).expect("ACA converges");
        assert_near_field_is(full.operator.near(), &near, &label);
        assert!(one.operator == full.operator, "{label}");
        assert_eq!(one.cost.kernel, full.cost.kernel, "{label}");
    }
}

#[test]
fn a_band_closes_at_its_pair_cap() {
    // A straight 512 m bar in 1 m elements, every coordinate exact: 131 328
    // pairs of 512 classes (one shape, offsets −511..=0 m). The store
    // never fills, so the bands close at 65 536 pairs, and a class met
    // again in a later band reuses its block: each is integrated once.
    let mut net = ConductorNetwork::new();
    net.add(Conductor::new(
        Point3::new(0.0, 0.0, 0.8),
        Point3::new(512.0, 0.0, 0.8),
        0.006,
    ));
    let mesh = Mesher::new(layerbem_geometry::MeshOptions {
        max_element_length: 1.0,
    })
    .mesh(&net);
    assert_eq!(mesh.element_count(), 512);
    let k = uniform_kernel();
    let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
    let rep = assemble_galerkin(&mesh, &k, &SolveOptions::default());
    assert_eq!(matrix.packed(), rep.matrix.packed());
    assert_eq!(column_terms, rep.column_terms);
    assert_eq!(cost, rep.cost.kernel);
    assert_eq!(rep.cost.pairs, 131_328);
    assert_eq!(rep.cost.pairs_evaluated, 512);
}

#[test]
fn the_memo_spares_most_kernel_runs_on_the_paper_grids() {
    // Which pairs share a class depends on the keys and their order
    // alone, not on the soil or the pool: uniform soil keeps the test
    // quick. The shares are exact: 5 055 of 29 161 pairs (17.3 %, every
    // class once) and 33 431 of 83 436 (40.1 %; Barberá's 28 588 classes
    // outgrow its pair set's 4 096-class store, and a class evicted and
    // met again is integrated again) at every thread count.
    let k = uniform_kernel();
    for (net, ceiling) in [
        (layerbem_geometry::grids::balaidos(), 0.18),
        (layerbem_geometry::grids::barbera(), 0.41),
    ] {
        let mesh = Mesher::default().mesh(&net);
        let m = mesh.element_count();
        for threads in [1, 2] {
            let opts = SolveOptions::default()
                .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
            let rep = assemble_galerkin(&mesh, &k, &opts);
            assert_eq!(rep.cost.pairs, m * (m + 1) / 2);
            let share = rep.cost.pairs_evaluated as f64 / rep.cost.pairs as f64;
            assert!(
                share <= ceiling,
                "{m} elements, {threads} threads: {share:.3} of pairs evaluated"
            );
        }
    }
}

#[test]
fn the_class_store_reproduces_the_double_loop_at_every_schedule() {
    // The production store (which holds every class of this yard), an
    // 8-set store of 64 classes and a one-class store (which evict on the
    // yard's pairs) at 1–4 threads and five schedules: every one has the
    // double loop's bits, and how many classes each store integrates
    // depends on the store alone — eviction runs in pair order, on the
    // calling thread.
    let mesh = rect_yard(3, 3, true);
    let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
    let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
    let m = mesh.element_count();
    let mut evaluated = Vec::new();
    for capacity in [None, Some(64), Some(1)] {
        let mut counts = Vec::new();
        for threads in 1..=4 {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::static_chunk(3),
                Schedule::dynamic(1),
                Schedule::dynamic(4),
                Schedule::guided(2),
            ] {
                let label = format!("{capacity:?} threads={threads} {}", schedule.label());
                let opts =
                    SolveOptions::default().with_parallelism(ThreadPool::new(threads), schedule);
                let store = capacity.map_or_else(ClassStore::default, ClassStore::with_capacity);
                let rep = assemble_galerkin_in(&mesh, &k, &opts, store);
                assert_eq!(matrix.packed(), rep.matrix.packed(), "{label}");
                assert_eq!(column_terms, rep.column_terms, "{label}");
                assert_eq!(cost, rep.cost.kernel, "{label}");
                assert_eq!(rep.cost.pairs, m * (m + 1) / 2, "{label}");
                counts.push(rep.cost.pairs_evaluated);
            }
        }
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{capacity:?}: {counts:?} classes integrated"
        );
        evaluated.push(counts[0]);
    }
    assert!(
        evaluated[0] < evaluated[1] && evaluated[1] < evaluated[2],
        "the small stores evict: {evaluated:?} classes integrated"
    );
}

#[test]
fn a_class_met_in_two_bands_is_integrated_once() {
    // Refined Barberá (628 dof, the `cold-dense` decks): 318 801 pairs in
    // about fifty bands. A store per band integrated 217 564 classes
    // (68.2 %); the pair set's 16 384-class store integrates 153 580
    // (48.2 %); 40.7 % of the pairs are distinct classes.
    let mesh = Mesher::new(layerbem_geometry::MeshOptions {
        max_element_length: 4.0,
    })
    .mesh(&layerbem_geometry::grids::barbera());
    let rep = assemble_galerkin(&mesh, &uniform_kernel(), &SolveOptions::default());
    assert_eq!(rep.cost.pairs, 318_801);
    assert!(
        2 * rep.cost.pairs_evaluated <= rep.cost.pairs,
        "{} of {} pairs evaluated",
        rep.cost.pairs_evaluated,
        rep.cost.pairs
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// One body per phase: at every thread count and schedule kind the
    /// class-first engine reproduces the double loop, and collocation the
    /// row loop, bit for bit. The classes integrated are the same at every
    /// thread count and schedule: the one-thread count.
    #[test]
    fn one_pooled_body_matches_the_loop_oracles(
        nx in 1usize..=4,
        ny in 1usize..=4,
        rods in any::<bool>(),
        layered in any::<bool>(),
        threads in 1usize..=4,
        kind in 0usize..4,
        chunk in 1usize..=4,
    ) {
        let mesh = rect_yard(nx, ny, rods);
        let soil = if layered {
            SoilModel::two_layer(0.005, 0.016, 1.0)
        } else {
            SoilModel::uniform(0.016)
        };
        let k = SoilKernel::new(&soil);
        let schedule = [
            Schedule::static_blocked(),
            Schedule::static_chunk(chunk),
            Schedule::dynamic(chunk),
            Schedule::guided(chunk),
        ][kind];
        let pool = ThreadPool::new(threads);
        let opts = SolveOptions::default().with_parallelism(pool, schedule);
        let label = format!("{nx}x{ny} rods={rods} layered={layered} threads={threads} {}",
            schedule.label());

        let (matrix, column_terms, cost) = assemble_serial(&mesh, &k);
        let rep = assemble_galerkin(&mesh, &k, &opts);
        prop_assert_eq!(matrix.packed(), rep.matrix.packed(), "{}", label);
        prop_assert_eq!(&column_terms, &rep.column_terms, "{}", label);
        prop_assert_eq!(cost, rep.cost.kernel, "{}", label);
        let one = assemble_galerkin(&mesh, &k, &SolveOptions::default());
        prop_assert_eq!(rep.cost.pairs_evaluated, one.cost.pairs_evaluated, "{}", label);
        prop_assert_eq!(rep.stats.per_thread.len(), threads, "{}", label);

        let (c, ccost) = collocation_serial(&mesh, &k);
        let (pooled, _, pcost) = assemble_collocation(&mesh, &k, &opts);
        prop_assert_eq!(c.as_slice(), pooled.as_slice(), "{}", label);
        prop_assert_eq!(ccost, pcost.kernel, "{}", label);
    }
}
