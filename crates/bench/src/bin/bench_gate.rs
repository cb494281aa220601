//! CI performance gates around the default engines, numbered 2–7 (the
//! numbers README, CI and ROADMAP refer to them by). Every timing is the
//! **best of `--reps` repetitions** per configuration (minimum wall time
//! — the standard way to suppress scheduler noise on shared CI runners).
//!
//! **Gate 2 — prepare-once vs re-solve-each:** answers a 16-scenario GPR
//! sweep twice — through one staged `prepare()` + `solve_batch` (one
//! assembly, one factorization, one back-substitution, 16 scalings) and
//! through 16 fresh `prepare()` + `solve` runs — verifies the sweep is
//! bit-identical to the per-scenario answers,
//! and **exits nonzero** unless the staged study is at least
//! `--sweep-speedup` (default 2×) faster. This pins the whole point of
//! the staged API: amortizing the Table-6.1 matrix-generation cost
//! across scenarios.
//!
//! **Gate 3 — dense vs hierarchical operator:** assembles both operator
//! representations of the refined Barberá grid (the largest in-repo
//! discretization — this gate ignores `--grid`, because the compression
//! crossover sits above the paper grids' native sizes), verifies the
//! hierarchical PCG solution agrees with the dense one, and **exits
//! nonzero** unless the compressed operator is smaller than the packed
//! dense triangle *and* its matvec is no slower than the dense one
//! beyond `--tolerance`.
//!
//! Every best observation is written as machine-readable rows (the
//! `BENCH_pr.json` artifact CI uploads, recording the benchmark
//! trajectory per PR) — gate 2 adds rows with modes `prepare_once` and
//! `resolve_each`, gate 3 rows with modes `matvec-*` / `assemble-*`
//! carrying measured `resident_bytes`, gate 4 rows with modes
//! `kernel-scalar` / `kernel-batched` carrying `kernel_seconds` and
//! `lane_occupancy`.

//! **Gate 4 — scalar vs batched kernel evaluation:** assembles the
//! refined Barberá grid under the two-layer soil at 4 **pinned** threads
//! with both kernel evaluation paths, re-asserts the batched contract
//! (within series tolerance of the scalar oracle; bit-identical across
//! schedule and thread-count changes), and **exits nonzero** unless the
//! batched kernel phase is at least `--kernel-speedup` (default 1.5×)
//! faster than the scalar one.
//!
//! **Gate 5 — cold prepare vs cached-hit solve:** runs the refined
//! Barberá grid through the served path — the one executor
//! (`core::workload::execute`) over a `Service`'s keyed study cache: one
//! cold request (miss: assembly + factorization + sweep) against
//! best-of-reps warm ones (hit: scalings of the resident unit solution),
//! verifies the cached answers are bit-identical to the same executor
//! over the fresh source, and **exits nonzero** unless the hit path is
//! at least `--cache-speedup` (default 5×) faster. This pins the serving
//! story: a resident study turns every further scenario request into
//! O(N) work.
//!
//! **Gate 6 — cold vs cached Monte-Carlo soil sweep:** draws a seeded
//! 32-sample soil sweep around the refined Barberá soil, answers it
//! twice by the executor over the cache source — once cold (every sampled soil
//! hashes to its own key: 32 misses, 32 prepares) and once with the
//! same seed (32 hits, scalings only) — verifies the cached
//! pass is bit-identical to the cold one, and **exits nonzero** unless
//! it is at least `--sweep-cache-speedup` (default 2×) faster. This
//! pins the workload story: a served uncertainty sweep re-run under a
//! fixed seed costs scalings, not factorizations.
//!
//! **Gate 7 — incremental edit vs full re-prepare:** opens an
//! [`EditSession`] on the refined Barberá grid with a probe rod
//! appended (grid conductors share both endpoints, so only the rod's
//! free bottom end can move without changing topology), nudges that
//! free end back and forth for best-of-reps [`EditSession::apply`]
//! timings, asserts every edit routes through the **incremental** path
//! (touched-pair re-integration + rank-`2m` Cholesky factor sweeps),
//! verifies the edited study agrees with a full re-prepare of the same
//! geometry to 1e-8 relative GPR, and **exits nonzero** unless the
//! incremental edit is at least `--edit-speedup` (default 5×) faster
//! than the full re-prepare. Rows `edit_incremental` / `edit_full`
//! carry `update_rank` (rank-1 sweeps applied; 0 on the full baseline).
//!
//! ```text
//! bench_gate [--grid tiny|barbera|balaidos] [--reps N]
//!            [--tolerance F] [--sweep-speedup F] [--kernel-speedup F]
//!            [--cache-speedup F] [--sweep-cache-speedup F]
//!            [--edit-speedup F] [--json NAME.json]
//! ```
//!
//! Thread count follows the environment pool (`LAYERBEM_THREADS`, which
//! CI pins to 4 so the gates compare at the documented 4-thread point).
//! The default `--tolerance` of 1.15 (gate 3's matvec bound) absorbs
//! residual runner noise.

use std::sync::atomic::Ordering;
use std::time::Instant;

use layerbem_bench::{
    balaidos_mesh, barbera_mesh, barbera_refined_mesh, render_table, soils, write_bench_json,
    BenchRecord,
};
use layerbem_core::assembly::{assemble_galerkin, assemble_hierarchical, AssemblyReport};
use layerbem_core::formulation::{
    KernelEval, SolveOptions, SolverChoice, DEFAULT_ACA_TOL, DEFAULT_LEAF_SIZE,
};
use layerbem_core::incremental::{ConductorEnd, EditOp, EditPath, EditSession};
use layerbem_core::kernel::SoilKernel;
use layerbem_core::study::Scenario;
use layerbem_core::system::GroundingSystem;
use layerbem_core::workload::{
    execute, FreshSource, SoilSweepSpec, StudySource, StudySpec, Workload,
};
use layerbem_geometry::conductor::ground_rod;
use layerbem_geometry::grids::{self, rectangular_grid, RectGridSpec};
use layerbem_geometry::{Mesh, MeshOptions, Mesher, Point3};
use layerbem_numeric::{pcg_solve, LinearOperator, PcgOptions};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_serve::Service;
use layerbem_soil::SoilModel;

fn tiny_mesh() -> Mesh {
    Mesher::default().mesh(&rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 20.0,
        height: 20.0,
        nx: 2,
        ny: 2,
        depth: 0.8,
        radius: 0.006,
    }))
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate [--grid tiny|barbera|balaidos] [--reps N] \
         [--tolerance F] [--sweep-speedup F] [--kernel-speedup F] \
         [--cache-speedup F] [--sweep-cache-speedup F] [--edit-speedup F] \
         [--json NAME.json]"
    );
    std::process::exit(2);
}

struct Args {
    grid: String,
    reps: usize,
    tolerance: f64,
    /// Minimum speedup gate 2 demands of the staged sweep over the
    /// per-scenario prepare-and-solve loop.
    sweep_speedup: f64,
    /// Minimum kernel-phase speedup gate 4 demands of the batched kernel
    /// evaluation over the scalar oracle.
    kernel_speedup: f64,
    /// Minimum speedup gate 5 demands of a cached-hit solve over the
    /// cold prepare-and-solve through the serve study cache.
    cache_speedup: f64,
    /// Minimum speedup gate 6 demands of a re-run seeded soil sweep
    /// (all cache hits) over its cold first pass (all misses).
    sweep_cache_speedup: f64,
    /// Minimum speedup gate 7 demands of an incremental `apply_edit`
    /// over a full re-prepare of the edited geometry.
    edit_speedup: f64,
    json: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        grid: "tiny".into(),
        reps: 7,
        tolerance: 1.15,
        sweep_speedup: 2.0,
        kernel_speedup: 1.5,
        cache_speedup: 5.0,
        sweep_cache_speedup: 2.0,
        edit_speedup: 5.0,
        json: "BENCH_pr.json".into(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--grid" => args.grid = argv.next().unwrap_or_else(|| usage()),
            "--reps" => {
                args.reps = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage());
            }
            "--tolerance" => {
                args.tolerance = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--sweep-speedup" => {
                args.sweep_speedup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--kernel-speedup" => {
                args.kernel_speedup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--cache-speedup" => {
                args.cache_speedup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--sweep-cache-speedup" => {
                args.sweep_cache_speedup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--edit-speedup" => {
                args.edit_speedup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--json" => args.json = argv.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let (grid, mesh, soil): (&str, Mesh, SoilModel) = match args.grid.as_str() {
        "tiny" => ("tiny 2x2 yard", tiny_mesh(), SoilModel::uniform(0.016)),
        "barbera" => ("Barbera", barbera_mesh(), soils::barbera_uniform()),
        "balaidos" => ("Balaidos A", balaidos_mesh(), soils::balaidos_a()),
        _ => usage(),
    };
    let threads = ThreadPool::with_available_parallelism().threads();
    let pool = ThreadPool::new(threads);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut failures = Vec::new();

    // ---- Gate 2: prepare-once vs re-solve-each scenario sweep. ----
    //
    // A 16-scenario GPR sweep answered through one staged study must be
    // at least `--sweep-speedup`× faster than 16 fresh prepare-and-solve
    // runs: the staged path pays one assembly, one factorization and one
    // back-substitution, then 16 scalings of that unit solution; the
    // per-scenario loop pays all three per scenario. Cholesky keeps the
    // retained factor on the direct path (the staged API's headline case).
    const SWEEP_SCENARIOS: usize = 16;
    let schedule = Schedule::dynamic(1);
    let base = SolveOptions {
        solver: SolverChoice::Cholesky,
        ..SolveOptions::default()
    };
    let opts = if threads > 1 {
        base.with_parallelism(pool, schedule)
    } else {
        base
    };
    let system = GroundingSystem::new(mesh.clone(), &soil, opts);
    let resolve = |s: &Scenario| {
        system
            .prepare()
            .expect("bench grid is well-posed")
            .solve(s)
            .expect("sweep scenarios are positive")
    };
    let scenarios: Vec<Scenario> = (1..=SWEEP_SCENARIOS)
        .map(|i| Scenario::gpr(625.0 * i as f64))
        .collect();

    // Identity check once: the staged sweep must be bit-identical to the
    // per-scenario answers. The study is kept alive for its
    // series-term count (no extra assembly just for accounting).
    let reference_study = system.prepare().expect("bench grid is well-posed");
    let staged = reference_study
        .solve_batch(&scenarios)
        .expect("sweep scenarios are positive");
    let each: Vec<_> = scenarios.iter().map(resolve).collect();
    for (i, (a, b)) in each.iter().zip(&staged).enumerate() {
        assert_eq!(
            a.leakage, b.leakage,
            "{grid}: staged sweep differs from a fresh prepare+solve at scenario {i}"
        );
        assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
    }

    // Capped reps: every resolve-each rep pays 16 assemblies.
    let sweep_reps = args.reps.min(3);
    let mut best_prepare = f64::INFINITY;
    let mut best_resolve = f64::INFINITY;
    for _ in 0..sweep_reps {
        let t0 = Instant::now();
        let study = system.prepare().expect("bench grid is well-posed");
        let sols = study
            .solve_batch(&scenarios)
            .expect("sweep scenarios are positive");
        assert_eq!(sols.len(), SWEEP_SCENARIOS);
        let profile = study.profile();
        assert_eq!(
            profile.assembly.assemblies, 1,
            "staged sweep must assemble once"
        );
        assert_eq!(
            profile.factorizations, 1,
            "staged sweep must factorize once"
        );
        assert_eq!(
            profile.unit_solves, 1,
            "staged sweep must back-substitute once"
        );
        best_prepare = best_prepare.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for s in &scenarios {
            let _ = resolve(s);
        }
        best_resolve = best_resolve.min(t0.elapsed().as_secs_f64());
    }
    let terms_once = reference_study.total_terms();
    records.push(BenchRecord::new(
        grid,
        "prepare_once",
        schedule.label(),
        threads,
        best_prepare,
        terms_once,
    ));
    records.push(BenchRecord::new(
        grid,
        "resolve_each",
        schedule.label(),
        threads,
        best_resolve,
        terms_once * SWEEP_SCENARIOS as u64,
    ));
    let speedup = best_resolve / best_prepare;
    let sweep_ok = speedup >= args.sweep_speedup;
    println!();
    println!(
        "{}",
        render_table(
            &["sweep mode", "best (s)", "speedup", "gate"],
            &[
                vec![
                    "prepare_once".into(),
                    format!("{best_prepare:.6}"),
                    format!("{speedup:.2}x"),
                    if sweep_ok { "ok".into() } else { "FAIL".into() },
                ],
                vec![
                    "resolve_each".into(),
                    format!("{best_resolve:.6}"),
                    "1.00x".into(),
                    "-".into(),
                ],
            ],
        )
    );
    println!(
        "{grid}, {SWEEP_SCENARIOS}-scenario GPR sweep, {threads} threads, best of \
         {sweep_reps} repetitions; staged sweep verified bit-identical to \
         {SWEEP_SCENARIOS} fresh prepare+solve runs."
    );
    if !sweep_ok {
        failures.push(format!(
            "prepare-once sweep only {speedup:.2}x faster than resolve-each \
             (gate requires {:.2}x)",
            args.sweep_speedup
        ));
    }

    // ---- Gate 3: dense vs hierarchical operator on the largest grid. ----
    //
    // This gate deliberately ignores `--grid`: the hierarchical backend's
    // claims — the compressed operator fits in less memory than the
    // packed dense triangle and applies at least as fast — only hold
    // above the compression crossover, so they are asserted on the
    // refined Barberá grid (the largest in-repo discretization) no
    // matter which grid the assembly gates ran on.
    let hgrid = "Barbera refined";
    let hmesh = barbera_refined_mesh();
    let hsoil = soils::barbera_uniform();
    let hkernel = SoilKernel::new(&hsoil);
    let n = hmesh.dof();
    let hopts = if threads > 1 {
        SolveOptions::default().with_parallelism(pool, Schedule::dynamic(1))
    } else {
        SolveOptions::default()
    };

    let dense = assemble_galerkin(&hmesh, &hkernel, &hopts);
    let hier = assemble_hierarchical(&hmesh, &hkernel, &hopts, DEFAULT_ACA_TOL, DEFAULT_LEAF_SIZE)
        .expect("ACA converges on the refined grid");
    let (dense_assemble_s, hier_assemble_s) = (dense.cost.seconds, hier.cost.seconds);
    let stats = hier
        .cost
        .compression
        .expect("hierarchical reports compression");

    // Correctness first: both operators must answer the same PCG solve.
    assert_eq!(hier.rhs, dense.rhs, "{hgrid}: hierarchical rhs differs");
    let popts = PcgOptions::default();
    let dense_sol = pcg_solve(&dense.matrix, &dense.rhs, popts);
    let hier_sol = pcg_solve(&hier.operator, &hier.rhs, popts);
    assert!(
        dense_sol.converged && hier_sol.converged,
        "{hgrid}: PCG diverged"
    );
    let (mut diff2, mut ref2) = (0.0f64, 0.0f64);
    for (a, b) in dense_sol.x.iter().zip(&hier_sol.x) {
        diff2 += (a - b) * (a - b);
        ref2 += a * a;
    }
    let rel = (diff2 / ref2).sqrt();
    assert!(
        rel <= 1e-6,
        "{hgrid}: hierarchical PCG solution deviates from dense by {rel:.3e}"
    );

    // Matvec wall time, best of `--reps` applies per operator.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
    let mut y = vec![0.0f64; n];
    let mut dense_apply = f64::INFINITY;
    let mut hier_apply = f64::INFINITY;
    for _ in 0..args.reps {
        let t0 = Instant::now();
        dense.matrix.apply(&x, &mut y);
        dense_apply = dense_apply.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        hier.operator.apply(&x, &mut y);
        hier_apply = hier_apply.min(t0.elapsed().as_secs_f64());
    }

    let dense_bytes = stats.dense_bytes as u64;
    let (dense_terms, hier_terms) = (dense.total_terms(), hier.cost.kernel.terms);
    let (dense_b, hier_b) = (dense_bytes as f64, stats.resident_bytes as f64);
    records.extend([
        BenchRecord::new(hgrid, "matvec-dense", "-", 1, dense_apply, dense_terms)
            .with("resident_bytes", dense_b),
        BenchRecord::new(hgrid, "matvec-hmatrix", "-", 1, hier_apply, hier_terms)
            .with("resident_bytes", hier_b),
        BenchRecord::new(
            hgrid,
            "assemble-dense",
            "Dynamic,1",
            threads,
            dense_assemble_s,
            dense_terms,
        )
        .with("resident_bytes", dense_b),
        BenchRecord::new(
            hgrid,
            "assemble-hmatrix",
            "Dynamic,1",
            threads,
            hier_assemble_s,
            hier_terms,
        )
        .with("resident_bytes", hier_b),
    ]);

    let apply_ratio = hier_apply / dense_apply;
    let apply_ok = hier_apply <= dense_apply * args.tolerance;
    let bytes_ok = (stats.resident_bytes as u64) < dense_bytes;
    if !apply_ok {
        failures.push(format!(
            "hierarchical matvec {hier_apply:.6}s vs dense {dense_apply:.6}s \
             (ratio {apply_ratio:.3} > tolerance {:.3})",
            args.tolerance
        ));
    }
    if !bytes_ok {
        failures.push(format!(
            "hierarchical operator {} bytes does not beat dense {} bytes",
            stats.resident_bytes, dense_bytes
        ));
    }
    println!();
    println!(
        "{}",
        render_table(
            &["operator", "apply best (s)", "resident bytes", "gate"],
            &[
                vec![
                    "dense".into(),
                    format!("{dense_apply:.6}"),
                    dense_bytes.to_string(),
                    "baseline".into(),
                ],
                vec![
                    "hmatrix".into(),
                    format!("{hier_apply:.6}"),
                    stats.resident_bytes.to_string(),
                    if apply_ok && bytes_ok {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ],
            ],
        )
    );
    println!(
        "{hgrid} ({n} dof), ACA tol {DEFAULT_ACA_TOL:.0e}, leaf {DEFAULT_LEAF_SIZE}: \
         {} far blocks, mean rank {:.1}, max rank {}, compression ratio {:.2}; \
         hierarchical PCG solution within {rel:.1e} of dense.",
        stats.far_blocks,
        stats.mean_far_rank,
        stats.max_far_rank,
        stats.compression_ratio()
    );

    // ---- Gate 4: scalar vs batched kernel evaluation. ----
    //
    // Full assembly of the refined Barberá grid at 4 **pinned** threads
    // (not the environment pool — the batched-vs-scalar contract is
    // documented at the 4-thread point), under the paper's two-layer
    // Barberá soil: the expensive image-series case (the Table 6.1
    // matrix-generation regime) where lane evaluation has real work to
    // amortize — uniform soil exhausts after one image group and would
    // measure only dispatch overhead. Compared on **kernel-phase**
    // seconds (`AssemblyReport::kernel_seconds`, the pair-walk time the
    // batched path accelerates), best of `reps`; fails below
    // `--kernel-speedup` (default 1.5×). Also re-asserts the batched
    // contract end to end: bit-identical across schedules *and* thread
    // counts, and within series tolerance of the scalar oracle.
    let kgrid = "Barbera refined";
    let kmesh = barbera_refined_mesh();
    let ksoil = soils::barbera_two_layer();
    let kkernel = SoilKernel::new(&ksoil);
    let kthreads = 4;
    let kpool = ThreadPool::new(kthreads);
    // Each rep is a full refined-grid two-layer assembly — cap like the
    // sweep gate so the gate stays CI-sized.
    let kernel_reps = args.reps.min(3);

    let mut best = [(f64::INFINITY, f64::INFINITY); 2]; // (wall, kernel) per eval
    let mut reports: Vec<AssemblyReport> = Vec::new();
    for (slot, eval) in [KernelEval::Scalar, KernelEval::Batched]
        .into_iter()
        .enumerate()
    {
        let kopts = SolveOptions::default()
            .with_kernel_eval(eval)
            .with_parallelism(kpool, Schedule::dynamic(1));
        let mut report = None;
        for _ in 0..kernel_reps {
            let rep = assemble_galerkin(&kmesh, &kkernel, &kopts);
            best[slot].0 = best[slot].0.min(rep.cost.seconds);
            best[slot].1 = best[slot].1.min(rep.cost.kernel_seconds);
            report = Some(rep);
        }
        reports.push(report.expect("kernel_reps > 0"));
    }
    let (scalar_rep, batched_rep) = (&reports[0], &reports[1]);

    // Batched-vs-scalar tolerance: the batched path must stay within the
    // series tolerance of the scalar oracle, entry by entry.
    let (sp, bp) = (scalar_rep.matrix.packed(), batched_rep.matrix.packed());
    let mut worst = 0.0f64;
    for (a, b) in sp.iter().zip(bp) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        worst = worst.max((a - b).abs() / scale);
    }
    assert!(
        worst <= 1e-6,
        "{kgrid}: batched kernel deviates from the scalar oracle by {worst:.3e}"
    );

    // Batched determinism: one run on a different schedule AND thread
    // count must reproduce the gate run bit for bit.
    let repool = ThreadPool::new(2);
    let recheck = assemble_galerkin(
        &kmesh,
        &kkernel,
        &SolveOptions::default()
            .with_kernel_eval(KernelEval::Batched)
            .with_parallelism(repool, Schedule::static_blocked()),
    );
    assert_eq!(
        batched_rep.matrix.packed(),
        recheck.matrix.packed(),
        "{kgrid}: batched assembly not bit-identical across schedule/thread changes"
    );

    let [(scalar_wall, scalar_kernel), (batched_wall, batched_kernel)] = best;
    let kernel_speedup = scalar_kernel / batched_kernel;
    let kernel_ok = kernel_speedup >= args.kernel_speedup;
    if !kernel_ok {
        failures.push(format!(
            "batched kernel phase only {kernel_speedup:.2}x faster than scalar \
             ({batched_kernel:.3}s vs {scalar_kernel:.3}s; gate requires {:.2}x)",
            args.kernel_speedup
        ));
    }
    let occupancy = batched_rep
        .cost
        .lane_occupancy()
        .expect("batched assembly fills lanes");
    records.push(
        BenchRecord::new(
            kgrid,
            "kernel-scalar",
            "Dynamic,1",
            kthreads,
            scalar_wall,
            scalar_rep.total_terms(),
        )
        .with("kernel_seconds", scalar_kernel),
    );
    records.push(
        BenchRecord::new(
            kgrid,
            "kernel-batched",
            "Dynamic,1",
            kthreads,
            batched_wall,
            batched_rep.total_terms(),
        )
        .with("kernel_seconds", batched_kernel)
        .with("lane_occupancy", occupancy),
    );
    println!();
    println!(
        "{}",
        render_table(
            &["kernel eval", "kernel best (s)", "speedup", "gate"],
            &[
                vec![
                    "scalar".into(),
                    format!("{scalar_kernel:.6}"),
                    "1.00x".into(),
                    "baseline".into(),
                ],
                vec![
                    "batched".into(),
                    format!("{batched_kernel:.6}"),
                    format!("{kernel_speedup:.2}x"),
                    if kernel_ok {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ],
            ],
        )
    );
    println!(
        "{kgrid} ({} dof), two-layer soil, {kthreads} pinned threads, best of \
         {kernel_reps} repetitions; batched within {worst:.1e} of the scalar \
         oracle, bit-identical across schedule and thread-count changes, lane \
         occupancy {:.1}%.",
        kmesh.dof(),
        100.0 * occupancy,
    );

    // ---- Gate 5: cold prepare vs cached-hit solve (the serve cache). ----
    //
    // The serving claim, measured on the served path: the one executor
    // drawing its studies from a `Service`'s keyed cache, exactly as the
    // `solve` wire op does. The first request for a study pays assembly +
    // factorization + the unit solve + the scenario sweep (a miss), every
    // further request for the same key scales the resident unit solution,
    // O(N) per scenario (a hit). Run on the refined Barberá grid
    // (the largest in-repo discretization, where the O(N³) cold cost is
    // unambiguous) with Cholesky — the retained-factor headline case.
    let sgrid = "Barbera refined";
    let snetwork = grids::barbera();
    let smesh_opts = MeshOptions {
        max_element_length: 1.0,
        ..Default::default()
    };
    let ssoil = soils::barbera_uniform();
    let sbase = SolveOptions {
        solver: SolverChoice::Cholesky,
        ..SolveOptions::default()
    };
    let sopts = if threads > 1 {
        sbase.with_parallelism(pool, Schedule::dynamic(1))
    } else {
        sbase
    };
    let sspec = StudySpec {
        network: &snetwork,
        mesh_options: smesh_opts,
        soil: &ssoil,
        opts: sopts,
    };
    let sscenarios: Vec<Scenario> = (1..=4).map(|i| Scenario::gpr(1250.0 * i as f64)).collect();
    let sworkload = Workload::Scenarios(sscenarios.clone());
    let solve_from = |source: &dyn StudySource| {
        let run = execute(&sspec, &sworkload, &[], source)
            .expect("refined Barbera grid is well-posed")
            .into_scenarios();
        (run.solutions, run.study)
    };

    // Reference: a fresh direct study, bypassing the cache entirely.
    let (want, _) = solve_from(&FreshSource);

    let served = Service::new(0, sopts);
    let misses = || served.metrics().cache_misses.load(Ordering::Relaxed);
    // Cold: one miss paying prepare + the sweep.
    let t0 = Instant::now();
    let (cold_solutions, sourced) = solve_from(&served);
    let cold = t0.elapsed().as_secs_f64();
    assert!(!sourced.reused, "first request must prepare");
    assert_eq!(misses(), 1, "first request must prepare");
    let study = sourced.study;

    // Warm: best-of-reps hits answering the same sweep from residency.
    let mut hit = f64::INFINITY;
    for _ in 0..args.reps {
        let t0 = Instant::now();
        let (sols, sourced) = solve_from(&served);
        hit = hit.min(t0.elapsed().as_secs_f64());
        assert!(sourced.reused, "resident study must hit");
        // Cached answers are bit-identical to the direct study's.
        for (a, b) in sols.iter().zip(&want) {
            assert_eq!(
                a.leakage, b.leakage,
                "{sgrid}: cached-hit solve differs from the direct study"
            );
            assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
        }
    }
    assert_eq!(misses(), 1, "hits never rebuild");
    for (a, b) in cold_solutions.iter().zip(&want) {
        assert_eq!(a.leakage, b.leakage, "{sgrid}: cold solve differs");
    }

    let cache_ratio = cold / hit;
    let cache_ok = cache_ratio >= args.cache_speedup;
    if !cache_ok {
        failures.push(format!(
            "cached-hit solve only {cache_ratio:.2}x faster than cold prepare \
             ({hit:.6}s vs {cold:.6}s; gate requires {:.2}x)",
            args.cache_speedup
        ));
    }
    let study_bytes = study.resident_bytes() as f64;
    records.push(
        BenchRecord::new(
            sgrid,
            "cache_miss",
            "Dynamic,1",
            threads,
            cold,
            study.total_terms(),
        )
        .with("resident_bytes", study_bytes),
    );
    records.push(
        BenchRecord::new(sgrid, "cache_hit", "Dynamic,1", threads, hit, 0)
            .with("resident_bytes", study_bytes),
    );
    println!();
    println!(
        "{}",
        render_table(
            &["cache path", "best (s)", "speedup", "gate"],
            &[
                vec![
                    "cache_miss".into(),
                    format!("{cold:.6}"),
                    "1.00x".into(),
                    "baseline".into(),
                ],
                vec![
                    "cache_hit".into(),
                    format!("{hit:.6}"),
                    format!("{cache_ratio:.2}x"),
                    if cache_ok { "ok".into() } else { "FAIL".into() },
                ],
            ],
        )
    );
    println!(
        "{sgrid} ({} dof), {}-scenario sweep, {threads} threads, \
         hit best of {} repetitions; cached answers verified bit-identical to \
         a fresh direct study ({} resident bytes).",
        study.dof(),
        sscenarios.len(),
        args.reps,
        study.resident_bytes(),
    );

    // ---- Gate 6: cold vs cached Monte-Carlo soil sweep. ----
    //
    // The workload story measured end to end: a seeded 32-sample soil
    // sweep around the refined Barberá soil, answered twice by the
    // executor over one `Service`'s cache — the `sweep` wire op's path.
    // The study key hashes the soil layers, so every sampled soil owns a
    // distinct key — the first pass is 32 misses (32 prepares), and
    // re-drawing with the same seed reproduces the same soils bit for
    // bit, so the second pass is 32 hits answering from resident
    // factors. Reuses gate 5's refined-Barberá study spec.
    let wspec = SoilSweepSpec::new(32, 20_260_808, 0.15, vec![Scenario::gpr(5_000.0)])
        .expect("gate 6 sweep parameters are valid");
    let wworkload = Workload::SoilSweep(wspec.clone());
    let wserved = Service::new(0, sopts);
    let sweep = || {
        execute(&sspec, &wworkload, &[], &wserved)
            .expect("sampled soils stay well-posed")
            .into_samples()
    };

    // Cold pass: every sampled soil is a fresh key — all misses.
    let t0 = Instant::now();
    let cold_rows = sweep();
    let sweep_cold = t0.elapsed().as_secs_f64();
    assert!(
        cold_rows.iter().all(|row| !row.reused),
        "{sgrid}: each sampled soil must hash to its own key"
    );
    assert_eq!(
        wserved.cache().residency().0,
        wspec.samples,
        "{sgrid}: the sweep must leave one resident study per sample"
    );
    let sweep_terms: u64 = cold_rows
        .iter()
        .map(|row| row.profile.assembly.kernel.terms)
        .sum();

    // Cached pass: the same seed draws the same soils — all hits, and
    // the answers must be bit-identical to the cold pass.
    let t0 = Instant::now();
    let cached_rows = sweep();
    let sweep_cached = t0.elapsed().as_secs_f64();
    for (cached, cold) in cached_rows.iter().zip(&cold_rows) {
        assert!(cached.reused, "same seed must replay as hits");
        for (a, b) in cached.solutions.iter().zip(&cold.solutions) {
            assert_eq!(
                a.leakage, b.leakage,
                "{sgrid}: cached sweep differs from the cold pass"
            );
            assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
        }
    }

    let sweep_cache_ratio = sweep_cold / sweep_cached;
    let sweep_cache_ok = sweep_cache_ratio >= args.sweep_cache_speedup;
    if !sweep_cache_ok {
        failures.push(format!(
            "cached soil sweep only {sweep_cache_ratio:.2}x faster than cold \
             ({sweep_cached:.6}s vs {sweep_cold:.6}s; gate requires {:.2}x)",
            args.sweep_cache_speedup
        ));
    }
    let sweep_bytes = wserved.cache().residency().1 as f64;
    records.push(
        BenchRecord::new(
            sgrid,
            "sweep_cold",
            "Dynamic,1",
            threads,
            sweep_cold,
            sweep_terms,
        )
        .with("resident_bytes", sweep_bytes),
    );
    records.push(
        BenchRecord::new(sgrid, "sweep_cached", "Dynamic,1", threads, sweep_cached, 0)
            .with("resident_bytes", sweep_bytes),
    );
    println!();
    println!(
        "{}",
        render_table(
            &["sweep pass", "wall (s)", "speedup", "gate"],
            &[
                vec![
                    "sweep_cold".into(),
                    format!("{sweep_cold:.6}"),
                    "1.00x".into(),
                    "baseline".into(),
                ],
                vec![
                    "sweep_cached".into(),
                    format!("{sweep_cached:.6}"),
                    format!("{sweep_cache_ratio:.2}x"),
                    if sweep_cache_ok {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ],
            ],
        )
    );
    println!(
        "{sgrid}, {}-sample seeded soil sweep (seed {}, sigma {}), {threads} \
         threads; re-run replayed as {} cache hits, verified bit-identical to \
         the cold pass ({} resident bytes).",
        wspec.samples,
        wspec.seed,
        wspec.sigma,
        wspec.samples,
        wserved.cache().residency().1,
    );

    // ---- Gate 7: incremental edit vs full re-prepare. ----
    //
    // The interactive-editing claim: a single-conductor move through
    // `EditSession::apply` re-integrates only the touched pair runs and
    // updates the retained Cholesky factor with rank-2m sweeps, while
    // the conventional route re-meshes, re-assembles all O(M²) pairs
    // and re-factorizes from scratch. Measured on the refined Barberá
    // grid with a probe rod appended at the origin corner — grid
    // conductors share both endpoints, so the rod's free bottom end is
    // the only spot a move preserves topology (and hence stays on the
    // incremental path). The end is nudged down and back up on
    // alternating repetitions so every timed `apply` is a real edit of
    // identical size.
    let egrid = "Barbera refined + rod";
    let mut enetwork = grids::barbera();
    enetwork.add(ground_rod(Point3::new(0.0, 0.0, 0.8), 1.5, 0.007));
    let probe = enetwork.conductors().len() - 1;
    let mut esession = EditSession::open(enetwork, &ssoil, smesh_opts, sopts)
        .expect("refined Barbera grid with probe rod is editable");
    let edof = esession.study().dof();

    let mut edit_inc = f64::INFINITY;
    let mut edit_terms = 0;
    let mut last_report = None;
    for rep in 0..args.reps.max(2) {
        let dz = if rep % 2 == 0 { 0.2 } else { -0.2 };
        let op = EditOp::MoveEnd {
            index: probe,
            end: ConductorEnd::B,
            delta: [0.0, 0.0, dz],
        };
        let terms_before = esession.study().profile().reintegrate.kernel.terms;
        let t0 = Instant::now();
        let report = esession
            .apply(&op)
            .expect("probe-rod move stays well-posed");
        edit_inc = edit_inc.min(t0.elapsed().as_secs_f64());
        // Series terms this one edit's re-integration consumed.
        edit_terms = esession.study().profile().reintegrate.kernel.terms - terms_before;
        assert_eq!(
            report.path,
            EditPath::Incremental,
            "{egrid}: a free-end move within the cost model must route incrementally"
        );
        assert_eq!(
            report.update_rank,
            2 * report.touched_rows,
            "{egrid}: the Cholesky path applies one update + one downdate per touched row"
        );
        assert!(report.update_rank > 0, "{egrid}: the move must touch rows");
        last_report = Some(report);
    }
    let last_report = last_report.expect("at least two repetitions ran");

    // Baseline: the same edited geometry prepared from scratch, exactly
    // what every edit would cost without the incremental subsystem.
    let mut edit_full = f64::INFINITY;
    let mut efull = None;
    for _ in 0..args.reps {
        let t0 = Instant::now();
        let mesh = Mesher::new(smesh_opts).mesh(esession.network());
        let study = GroundingSystem::new(mesh, &ssoil, sopts)
            .prepare()
            .expect("edited geometry stays well-posed");
        edit_full = edit_full.min(t0.elapsed().as_secs_f64());
        efull = Some(study);
    }
    let efull = efull.expect("at least one full re-prepare ran");

    // The edited session must agree with the from-scratch study: the
    // factor updates are algebraically exact, so anything beyond
    // accumulated rounding (1e-8 relative) is a defect.
    let escenario = Scenario::gpr(5_000.0);
    let got = esession
        .study()
        .solve(&escenario)
        .expect("edited study answers scenarios");
    let want = efull
        .solve(&escenario)
        .expect("re-prepared study answers scenarios");
    for (label, a, b) in [
        ("gpr", got.gpr, want.gpr),
        (
            "equivalent_resistance",
            got.equivalent_resistance,
            want.equivalent_resistance,
        ),
    ] {
        let rel = (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1e-8,
            "{egrid}: incremental {label} {a} diverged from full re-prepare {b} (rel {rel:.2e})"
        );
    }

    let edit_ratio = edit_full / edit_inc;
    let edit_ok = edit_ratio >= args.edit_speedup;
    if !edit_ok {
        failures.push(format!(
            "incremental edit only {edit_ratio:.2}x faster than full re-prepare \
             ({edit_inc:.6}s vs {edit_full:.6}s; gate requires {:.2}x)",
            args.edit_speedup
        ));
    }
    records.push(
        BenchRecord::new(
            egrid,
            "edit_incremental",
            "Dynamic,1",
            threads,
            edit_inc,
            edit_terms,
        )
        .with("resident_bytes", esession.study().resident_bytes() as f64)
        .with("update_rank", last_report.update_rank as f64),
    );
    records.push(
        BenchRecord::new(
            egrid,
            "edit_full",
            "Dynamic,1",
            threads,
            edit_full,
            efull.total_terms(),
        )
        .with("resident_bytes", efull.resident_bytes() as f64)
        .with("update_rank", 0.0),
    );
    println!();
    println!(
        "{}",
        render_table(
            &["edit path", "best (s)", "speedup", "gate"],
            &[
                vec![
                    "edit_full".into(),
                    format!("{edit_full:.6}"),
                    "1.00x".into(),
                    "baseline".into(),
                ],
                vec![
                    "edit_incremental".into(),
                    format!("{edit_inc:.6}"),
                    format!("{edit_ratio:.2}x"),
                    if edit_ok { "ok".into() } else { "FAIL".into() },
                ],
            ],
        )
    );
    println!(
        "{egrid} ({edof} dof), single-conductor free-end move, {threads} \
         threads, best of {} repetitions; incremental path touched {} rows \
         ({} rank-1 factor sweeps, {} pairs re-integrated), verified within \
         1e-8 relative GPR of a full re-prepare.",
        args.reps.max(2),
        last_report.touched_rows,
        last_report.update_rank,
        last_report.pairs_evaluated,
    );

    write_bench_json(&args.json, &records);

    if !failures.is_empty() {
        eprintln!("bench gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "bench gates passed: staged sweep >= \
         {:.1}x resolve-each at {threads} threads, the hierarchical \
         operator beats dense on bytes and matvec speed, the batched \
         kernel phase is >= {:.1}x the scalar oracle at 4 threads, a \
         cached-hit solve is >= {:.1}x faster than a cold prepare, a \
         re-run seeded soil sweep replays from cache >= {:.1}x faster, \
         and an incremental single-conductor edit beats a full \
         re-prepare by >= {:.1}x",
        args.sweep_speedup,
        args.kernel_speedup,
        args.cache_speedup,
        args.sweep_cache_speedup,
        args.edit_speedup
    );
}
