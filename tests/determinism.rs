//! Cross-crate determinism suite: every pooled linear-algebra path must
//! be **bit-identical** to its one-thread run on real BEM systems, for
//! every schedule × thread count × order exercised here. The "serial"
//! side of each test is `SolveOptions::default()` — a one-thread pool,
//! whose assembly is the class-first engine run inline; that engine's
//! match with the paper's double loop is pinned by the oracle tests in
//! `crates/core/src/assembly/tests.rs`.
//!
//! Covered, on the paper's Barberá (238 dof) and Balaidos (201 dof)
//! grids: the class-first pooled Galerkin assembler (matrix,
//! right-hand side and per-column series terms), the blocked pooled
//! Cholesky/LU factors, the row-partitioned pooled collocation assembler,
//! studies of every solver prepared on a pool (PCG itself is serial, so
//! its trajectory follows from the operator's bits), the hierarchical
//! (ACA-compressed) backend and the PCG trajectory it feeds, the seeded
//! Monte-Carlo soil sweep pooled *across* samples (a function of its seed
//! alone), and the tiled surface-potential map (a function of its sample
//! list alone).
//!
//! Grid selection honors the `LAYERBEM_DETERMINISM_GRID` environment
//! variable: `tiny` substitutes a 2×2-cell yard (the CI smoke
//! configuration, paired with `LAYERBEM_THREADS=4`); anything else — and
//! the default — runs both paper grids. The wide thread count follows
//! `LAYERBEM_THREADS` through `ThreadPool::with_available_parallelism`,
//! so the pinned CI run and a developer's 128-core box assert the same
//! invariants over different pools.

use layerbem_core::assembly::{
    assemble_collocation, assemble_galerkin, element_geoms, pair_block, pair_block_scalar,
    OuterQuadrature,
};
use layerbem_core::formulation::{OperatorBackend, SolveOptions, SolverChoice};
use layerbem_core::kernel::{KernelBatch, SoilKernel};
use layerbem_core::post::{MapSpec, PotentialMap};
use layerbem_core::study::Scenario;
use layerbem_core::system::GroundingSystem;
use layerbem_core::workload::{run_soil_sweep, FreshSource, SoilSweepSpec, StudySpec};
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{grids, ConductorNetwork, Mesh, MeshOptions, Mesher};
use layerbem_numeric::{CholeskyFactor, DenseMatrix, LuFactor, SymMatrix};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

/// One grid under test: name, conductor network, and its uniform soil
/// model.
fn grid_networks() -> Vec<(&'static str, ConductorNetwork, SoilModel)> {
    let selector = std::env::var("LAYERBEM_DETERMINISM_GRID").unwrap_or_default();
    if selector == "tiny" {
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 2,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        });
        return vec![("tiny 2x2 yard", net, SoilModel::uniform(0.016))];
    }
    vec![
        ("Barbera", grids::barbera(), SoilModel::uniform(0.016)),
        ("Balaidos", grids::balaidos(), SoilModel::uniform(0.020)),
    ]
}

/// [`grid_networks`], discretized with the default mesher.
fn grid_cases() -> Vec<(&'static str, Mesh, SoilModel)> {
    grid_networks()
        .into_iter()
        .map(|(grid, net, soil)| (grid, Mesher::default().mesh(&net), soil))
        .collect()
}

/// Thread counts under test: a small fixed pool plus the environment's
/// pool (the `LAYERBEM_THREADS` pin in CI), floored at 3 so two distinct
/// counts survive on small machines.
fn thread_counts() -> Vec<usize> {
    let wide = ThreadPool::with_available_parallelism().threads().max(3);
    vec![2, wide]
}

fn schedules() -> [Schedule; 4] {
    [
        Schedule::static_blocked(),
        Schedule::static_chunk(3),
        Schedule::dynamic(1),
        Schedule::guided(1),
    ]
}

/// Orders under test for the factorizations — leading principal
/// submatrices of a grid's system: one row, either side of the 32-column
/// panel, either side of the 64-row cutoff of the pooled trailing update
/// (96 = one panel + 64 rows), beyond it, and the whole system.
fn orders(n: usize) -> Vec<usize> {
    let mut orders: Vec<usize> = [1, 31, 33, 95, 97, 129, 161]
        .into_iter()
        .filter(|&k| k < n)
        .collect();
    orders.push(n);
    orders
}

/// The leading `k × k` block of a packed symmetric matrix: the first
/// `k(k+1)/2` entries of its packed rows.
fn leading_sym(a: &SymMatrix, k: usize) -> SymMatrix {
    SymMatrix::from_packed(k, a.packed()[..k * (k + 1) / 2].to_vec())
}

/// The leading `k × k` block of a dense row-major matrix.
fn leading_dense(a: &DenseMatrix, k: usize) -> DenseMatrix {
    let n = a.cols();
    let rows = a.as_slice().chunks(n).take(k);
    DenseMatrix::from_rows(k, k, rows.flat_map(|row| &row[..k]).copied().collect())
}

/// The assembled Galerkin system of a grid (the one-thread run).
fn galerkin_system(mesh: &Mesh, soil: &SoilModel) -> (SymMatrix, Vec<f64>) {
    let kernel = SoilKernel::new(soil);
    let rep = assemble_galerkin(mesh, &kernel, &SolveOptions::default());
    (rep.matrix, rep.rhs)
}

#[test]
fn worklist_and_scan_direct_assembly_are_bit_identical_to_sequential() {
    // The pooled Galerkin engine agrees with the serial double loop to
    // the bit, on the paper grids, for every schedule × thread count —
    // including the per-column series-term attribution, which charges
    // every pair its class's cost.
    for (grid, mesh, soil) in grid_cases() {
        let kernel = SoilKernel::new(&soil);
        let opts = SolveOptions::default();
        let seq = assemble_galerkin(&mesh, &kernel, &opts);
        for threads in thread_counts() {
            let pool = ThreadPool::new(threads);
            for schedule in schedules() {
                let pooled = opts.with_parallelism(pool, schedule);
                let direct = assemble_galerkin(&mesh, &kernel, &pooled);
                let label = format!("{grid}: threads={threads} {}", schedule.label());
                assert_eq!(seq.matrix.packed(), direct.matrix.packed(), "{label}");
                assert_eq!(seq.rhs, direct.rhs, "{label}");
                assert_eq!(seq.column_terms, direct.column_terms, "{label}");
                assert_eq!(seq.total_terms(), direct.total_terms(), "{label}");
            }
        }
    }
}

#[test]
fn batched_kernel_assembly_is_bit_identical_across_schedules_and_threads() {
    // The PR-7 tentpole invariant: the batched structure-of-arrays kernel
    // path evaluates per element pair, and a pair's batch content is
    // fixed by the pair alone — so the pooled engine must reproduce the
    // sequential batched assembly bit for bit (matrix, RHS, per-column
    // terms, lane counters) for every schedule × thread count, and every
    // pair block must agree with the retained scalar oracle within the
    // series tolerance.
    for (grid, mesh, soil) in grid_cases() {
        let kernel = SoilKernel::new(&soil);
        let batched_opts = SolveOptions::default();
        let seq = assemble_galerkin(&mesh, &kernel, &batched_opts);
        assert!(
            seq.cost.kernel.lane_slots > 0,
            "{grid}: batched assembly fills lanes"
        );
        assert!(
            seq.cost.kernel.lane_points <= seq.cost.kernel.lane_slots,
            "{grid}"
        );
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for schedule in schedules() {
                let direct = assemble_galerkin(
                    &mesh,
                    &kernel,
                    &batched_opts.with_parallelism(pool, schedule),
                );
                let label = format!("{grid}: batched threads={threads} {}", schedule.label());
                assert_eq!(seq.matrix.packed(), direct.matrix.packed(), "{label}");
                assert_eq!(seq.rhs, direct.rhs, "{label}");
                assert_eq!(seq.column_terms, direct.column_terms, "{label}");
                assert_eq!(seq.cost.kernel, direct.cost.kernel, "{label}");
            }
        }
        // The scalar oracle, pair by pair over the whole triangle: the
        // same blocks within the series tolerance, relative to the
        // largest entry of the operator they scatter into.
        let geoms = element_geoms(&mesh);
        let quad = OuterQuadrature::default();
        let mut batch = KernelBatch::new();
        let norm = seq
            .matrix
            .packed()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for beta in 0..geoms.len() {
            for alpha in beta..geoms.len() {
                let (want, _) = pair_block_scalar(&geoms[beta], &geoms[alpha], &kernel, &quad);
                let (got, _) = pair_block(&geoms[beta], &geoms[alpha], &kernel, &quad, &mut batch);
                for (j, i) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let (a, b) = (want[j][i], got[j][i]);
                    let rel = (a - b).abs() / norm;
                    assert!(
                        rel <= 1e-9,
                        "{grid}: pair ({beta}, {alpha}) [{j}][{i}]: scalar {a} vs batched {b} \
                         (rel {rel:.3e})"
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_pooled_cholesky_factors_are_bit_identical_to_serial() {
    for (grid, mesh, soil) in grid_cases() {
        let (full, _) = galerkin_system(&mesh, &soil);
        for n in orders(full.order()) {
            let a = leading_sym(&full, n);
            let serial = CholeskyFactor::factor(&a).expect("Galerkin matrix is SPD");
            for threads in thread_counts() {
                for schedule in schedules() {
                    let pool = ThreadPool::new(threads);
                    let pooled = CholeskyFactor::factor_in_place(a.clone(), &pool, schedule)
                        .expect("pooled factorization succeeds");
                    assert_eq!(
                        pooled.packed_l(),
                        serial.packed_l(),
                        "{grid}: n={n} threads={threads} {}",
                        schedule.label()
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_pooled_lu_factors_are_bit_identical_to_serial() {
    // LU runs on the collocation matrix — dense, nonsymmetric, and with
    // genuine partial pivoting to keep deterministic across panels.
    for (grid, mesh, soil) in grid_cases() {
        let kernel = SoilKernel::new(&soil);
        let (full, _, _) = assemble_collocation(&mesh, &kernel, &SolveOptions::default());
        for n in orders(full.rows()) {
            let c = leading_dense(&full, n);
            let serial = LuFactor::factor(&c).expect("collocation matrix is nonsingular");
            for threads in thread_counts() {
                for schedule in schedules() {
                    let pool = ThreadPool::new(threads);
                    let pooled = LuFactor::factor_in_place(c.clone(), &pool, schedule)
                        .expect("pooled factorization succeeds");
                    let label = format!("{grid}: n={n} threads={threads} {}", schedule.label());
                    assert_eq!(pooled.lu_entries(), serial.lu_entries(), "{label}");
                    assert_eq!(pooled.permutation(), serial.permutation(), "{label}");
                }
            }
        }
    }
}

#[test]
fn pooled_collocation_matrices_are_bit_identical_to_serial() {
    for (grid, mesh, soil) in grid_cases() {
        let kernel = SoilKernel::new(&soil);
        let opts = SolveOptions::default();
        let (serial, rhs_serial, _) = assemble_collocation(&mesh, &kernel, &opts);
        for threads in thread_counts() {
            let pool = ThreadPool::new(threads);
            for schedule in schedules() {
                let (pooled, rhs_pooled, _) =
                    assemble_collocation(&mesh, &kernel, &opts.with_parallelism(pool, schedule));
                let label = format!("{grid}: threads={threads} {}", schedule.label());
                assert_eq!(serial.as_slice(), pooled.as_slice(), "{label}");
                assert_eq!(rhs_serial, rhs_pooled, "{label}");
            }
        }
    }
}

#[test]
fn pooled_solves_through_grounding_system_are_bit_identical() {
    // The wiring layer: SolveOptions::parallelism (pool + schedule) must
    // reach every solver without perturbing a bit of the solution.
    for (grid, mesh, soil) in grid_cases() {
        for solver in [
            SolverChoice::ConjugateGradient,
            SolverChoice::Cholesky,
            SolverChoice::Lu,
        ] {
            let base = SolveOptions {
                solver,
                ..Default::default()
            };
            let serial_sys = GroundingSystem::new(mesh.clone(), &soil, base);
            let report = serial_sys.assemble();
            let solve = |sys: &GroundingSystem| {
                sys.prepare_assembled(&report)
                    .expect("prepare succeeds")
                    .solve(&Scenario::gpr(10_000.0))
                    .expect("solve succeeds")
            };
            let serial = solve(&serial_sys);
            for threads in thread_counts() {
                let opts = base.with_parallelism(ThreadPool::new(threads), Schedule::guided(1));
                let pooled = solve(&GroundingSystem::new(mesh.clone(), &soil, opts));
                let label = format!("{grid}: {solver:?} threads={threads}");
                assert_eq!(serial.leakage, pooled.leakage, "{label}");
                assert_eq!(
                    serial.solver_iterations, pooled.solver_iterations,
                    "{label}"
                );
                assert_eq!(
                    serial.equivalent_resistance, pooled.equivalent_resistance,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn staged_scenario_sweeps_are_bit_identical_to_repeated_legacy_solves() {
    // The PR-5 tentpole invariant: `prepare()` once + `solve_batch` over
    // a scenario sweep must reproduce, bit for bit, what N independent
    // `prepare()` + `solve` runs (one assembly and one factorization
    // each) produce — for every solver, schedule and thread count,
    // serial and pooled (the batch scales one unit-GPR solve, pooled or
    // not as the study's engine is).
    let gprs = [1.0, 2_500.0, 10_000.0, 25_000.0];
    let scenarios: Vec<Scenario> = gprs.iter().map(|g| Scenario::gpr(*g)).collect();
    for (grid, mesh, soil) in grid_cases() {
        for solver in [
            SolverChoice::ConjugateGradient,
            SolverChoice::Cholesky,
            SolverChoice::Lu,
        ] {
            let base = SolveOptions {
                solver,
                ..Default::default()
            };
            let serial_sys = GroundingSystem::new(mesh.clone(), &soil, base);
            let legacy: Vec<_> = scenarios
                .iter()
                .map(|s| {
                    serial_sys
                        .prepare()
                        .expect("serial prepare succeeds")
                        .solve(s)
                        .expect("serial solve succeeds")
                })
                .collect();

            let study = serial_sys.prepare().expect("serial prepare succeeds");
            let staged = study
                .solve_batch(&scenarios)
                .expect("serial sweep succeeds");
            // One assembly (and at most one factorization) answered the
            // whole sweep.
            let profile = study.profile();
            assert_eq!(profile.assembly.assemblies, 1, "{grid}: {solver:?}");
            assert!(profile.factorizations <= 1, "{grid}: {solver:?}");
            assert_eq!(profile.scenario_solves, gprs.len());
            for ((a, b), gpr) in legacy.iter().zip(&staged).zip(&gprs) {
                let label = format!("{grid}: {solver:?} serial gpr={gpr}");
                assert_eq!(a.leakage, b.leakage, "{label}");
                assert_eq!(a.total_current, b.total_current, "{label}");
                assert_eq!(a.equivalent_resistance, b.equivalent_resistance, "{label}");
                assert_eq!(a.solver_iterations, b.solver_iterations, "{label}");
            }

            // Two schedule kinds suffice here: per-kernel determinism
            // across the full schedule matrix is pinned by the dedicated
            // factor/PCG/assembly tests above — this test checks the
            // staged wiring end to end.
            for threads in thread_counts() {
                for schedule in [Schedule::static_blocked(), Schedule::dynamic(1)] {
                    let opts = base.with_parallelism(ThreadPool::new(threads), schedule);
                    let pooled_sys = GroundingSystem::new(mesh.clone(), &soil, opts);
                    let pooled = pooled_sys
                        .prepare()
                        .expect("pooled prepare succeeds")
                        .solve_batch(&scenarios)
                        .expect("pooled sweep succeeds");
                    for ((a, b), gpr) in legacy.iter().zip(&pooled).zip(&gprs) {
                        let label = format!(
                            "{grid}: {solver:?} threads={threads} {} gpr={gpr}",
                            schedule.label()
                        );
                        assert_eq!(a.leakage, b.leakage, "{label}");
                        assert_eq!(a.equivalent_resistance, b.equivalent_resistance, "{label}");
                        assert_eq!(a.solver_iterations, b.solver_iterations, "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn staged_fault_current_scenarios_match_the_legacy_driver() {
    // Fault-current scenarios answer exactly what linearity says — the
    // unit-GPR solution scaled to GPR = I·Req — serial and pooled, on
    // the paper grids.
    for (grid, mesh, soil) in grid_cases() {
        let sys = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
        let target = 30_000.0;
        let study = sys.prepare().expect("prepare succeeds");
        let unit = study.solve(&Scenario::gpr(1.0)).expect("solve succeeds");
        let legacy_gpr = target * unit.equivalent_resistance;
        let legacy_leakage: Vec<f64> = unit.leakage.iter().map(|q| q * legacy_gpr).collect();
        let staged = study
            .solve(&Scenario::fault_current(target))
            .expect("solve succeeds");
        assert_eq!(staged.total_current, target, "{grid}");
        assert_eq!(legacy_leakage, staged.leakage, "{grid}");
        assert_eq!(legacy_gpr, staged.gpr, "{grid}");
        for threads in thread_counts() {
            let opts = SolveOptions::default()
                .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
            let pooled = GroundingSystem::new(mesh.clone(), &soil, opts)
                .prepare()
                .expect("prepare succeeds")
                .solve(&Scenario::fault_current(target))
                .expect("solve succeeds");
            assert_eq!(legacy_leakage, pooled.leakage, "{grid} threads={threads}");
            assert_eq!(legacy_gpr, pooled.gpr, "{grid} threads={threads}");
        }
    }
}

#[test]
fn hierarchical_backend_solves_are_bit_identical_across_schedules_and_threads() {
    // The PR-6 tentpole invariant: the compressed operator is assembled
    // deterministically (per-entry near accumulation in sequential pair
    // order, per-block ACA independent of the pool), so the whole PCG
    // trajectory — leakage vector, iteration count, equivalent
    // resistance — must replay the serial hierarchical solve bit for
    // bit, for every schedule × thread count.
    let backend = OperatorBackend::hierarchical();
    for (grid, mesh, soil) in grid_cases() {
        let base = SolveOptions::default().with_backend(backend);
        let serial = GroundingSystem::new(mesh.clone(), &soil, base)
            .prepare()
            .expect("serial hierarchical prepare succeeds")
            .solve(&Scenario::gpr(10_000.0))
            .expect("serial hierarchical solve succeeds");
        for threads in thread_counts() {
            for schedule in schedules() {
                let opts = base.with_parallelism(ThreadPool::new(threads), schedule);
                let pooled = GroundingSystem::new(mesh.clone(), &soil, opts)
                    .prepare()
                    .expect("pooled hierarchical prepare succeeds")
                    .solve(&Scenario::gpr(10_000.0))
                    .expect("pooled hierarchical solve succeeds");
                let label = format!("{grid}: threads={threads} {}", schedule.label());
                assert_eq!(serial.leakage, pooled.leakage, "{label}");
                assert_eq!(
                    serial.solver_iterations, pooled.solver_iterations,
                    "{label}"
                );
                assert_eq!(
                    serial.equivalent_resistance, pooled.equivalent_resistance,
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn seeded_soil_sweeps_are_bit_identical_across_schedules_and_threads() {
    // The PR-9 tentpole invariant: a Monte-Carlo soil sweep draws every
    // sampled soil **serially** from one seeded generator before any
    // parallel work, and pools *across* samples (each per-sample solve
    // runs serially inside its partition slot) — so the whole sweep
    // (sampled soils, leakage vectors, GPRs, equivalent resistances) is
    // a function of the seed alone, bit-identical for every schedule ×
    // thread count, including the CI matrix's LAYERBEM_THREADS pins.
    let spec = SoilSweepSpec::new(
        6,
        0x5eed,
        0.2,
        vec![Scenario::gpr(10_000.0), Scenario::fault_current(25_000.0)],
    )
    .expect("sweep parameters are valid");
    for (grid, network, soil) in grid_networks() {
        let study = |opts| StudySpec {
            network: &network,
            mesh_options: MeshOptions::default(),
            soil: &soil,
            opts,
        };
        let serial = run_soil_sweep(&study(SolveOptions::default()), &spec, &FreshSource)
            .expect("serial sweep succeeds");
        assert_eq!(serial.len(), spec.samples);
        for threads in thread_counts() {
            for schedule in schedules() {
                let opts =
                    SolveOptions::default().with_parallelism(ThreadPool::new(threads), schedule);
                let pooled = run_soil_sweep(&study(opts), &spec, &FreshSource)
                    .expect("pooled sweep succeeds");
                let label = format!("{grid}: threads={threads} {}", schedule.label());
                for (a, b) in serial.iter().zip(&pooled) {
                    assert_eq!(a.index, b.index, "{label}");
                    assert_eq!(a.soil, b.soil, "{label}: sampled soils must match");
                    for (sa, sb) in a.solutions.iter().zip(&b.solutions) {
                        assert_eq!(sa.leakage, sb.leakage, "{label} sample {}", a.index);
                        assert_eq!(sa.gpr, sb.gpr, "{label} sample {}", a.index);
                        assert_eq!(
                            sa.equivalent_resistance, sb.equivalent_resistance,
                            "{label} sample {}",
                            a.index
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn surface_maps_are_bit_identical_across_schedules_and_threads() {
    // The PR-19 tentpole invariant: the map is evaluated in fixed tiles
    // of consecutive samples, and what a tile holds depends on the sample
    // list alone — so the one-thread inline map is reproduced bit for bit
    // (values and kernel cost) by every schedule × thread count. The
    // layered twin of each grid's soil runs the tolerance-stopped image
    // series, whose collective stop is what couples a tile's points; 13 ×
    // 11 samples make four full tiles and a 15-point remainder.
    for (grid, mesh, soil) in grid_cases() {
        let gamma = match soil {
            SoilModel::Uniform { conductivity } => conductivity,
            _ => unreachable!("the suite's grids sit in uniform soil"),
        };
        let system = GroundingSystem::new(mesh, &soil, SolveOptions::default());
        let solution = system
            .prepare()
            .expect("uniform reference prepare")
            .solve(&Scenario::gpr(10_000.0))
            .expect("uniform reference solve");
        let spec = MapSpec::new((-10.0, 90.0), (-10.0, 70.0), 13, 11).expect("valid window");
        for kernel in [
            SoilKernel::new(&soil),
            SoilKernel::new(&SoilModel::two_layer(0.25 * gamma, gamma, 1.0)),
        ] {
            let map = |pool: ThreadPool, schedule| {
                PotentialMap::compute(system.mesh(), &kernel, &solution, &spec, &pool, schedule)
            };
            let inline = map(ThreadPool::new(1), Schedule::static_blocked());
            assert!(inline.values.iter().all(|v| v.is_finite() && *v > 0.0));
            for threads in thread_counts() {
                for schedule in schedules() {
                    let pooled = map(ThreadPool::new(threads), schedule);
                    let label = format!("{grid}: threads={threads} {}", schedule.label());
                    let bits = |m: &PotentialMap| -> Vec<u64> {
                        m.values.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&inline), bits(&pooled), "{label}");
                    assert_eq!(inline.cost, pooled.cost, "{label}");
                }
            }
        }
    }
}

/// LU must also stay bit-identical when the matrix is the (SPD, but
/// treated as general) dense expansion of the Galerkin system — the path
/// `SolverChoice::Lu` takes for Galerkin decks.
#[test]
fn blocked_pooled_lu_on_dense_galerkin_expansion_is_bit_identical() {
    for (grid, mesh, soil) in grid_cases() {
        let (a, _) = galerkin_system(&mesh, &soil);
        let pool = ThreadPool::new(thread_counts().pop().expect("non-empty"));
        for n in orders(a.order()) {
            let dense: DenseMatrix = leading_sym(&a, n).to_dense();
            let serial = LuFactor::factor(&dense).expect("nonsingular");
            let pooled =
                LuFactor::factor_in_place(dense, &pool, Schedule::dynamic(2)).expect("nonsingular");
            assert_eq!(pooled.lu_entries(), serial.lu_entries(), "{grid}: n={n}");
        }
    }
}
