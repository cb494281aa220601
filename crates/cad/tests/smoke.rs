//! End-to-end smoke test of the CAD layer: a tiny inline deck goes
//! through `parse_case` + `run_pipeline` without touching the binary, so
//! `cargo test -q` exercises the same path `layerbem-cad` drives.

use layerbem_cad::{parse_case, run_pipeline, Phase};
use layerbem_core::formulation::SolveOptions;

const DECK: &str = "\
# tiny but complete case
title Smoke yard
soil two-layer 0.005 0.016 1.0
gpr 5000
grid rect 0 0 20 20 2 2 0.8 0.006
rod 10 10 0.8 1.5 0.007
max-element-length 5
";

#[test]
fn parse_and_pipeline_round_trip() {
    let case = parse_case(DECK).expect("deck parses");
    assert_eq!(case.title, "Smoke yard");
    // 12 grid segments + 1 rod.
    assert_eq!(case.network.len(), 13);

    let result = run_pipeline(&case, SolveOptions::default(), 0.25).expect("pipeline succeeds");

    // Physical sanity of the solution.
    assert!(result.solution().equivalent_resistance > 0.0);
    assert!(result.solution().total_current > 0.0);
    assert!(
        (result.solution().total_current * result.solution().equivalent_resistance - case.gpr)
            .abs()
            < 1e-6 * case.gpr
    );

    // Phase accounting: caller-supplied input time is preserved and the
    // total is the sum of the five phases.
    assert_eq!(result.times.of(Phase::DataInput), 0.25);
    let summed: f64 = Phase::all().iter().map(|p| result.times.of(*p)).sum();
    assert!((result.times.total() - summed).abs() < 1e-12);

    // The stored report names the case and the key outputs.
    assert!(result.report.contains("Smoke yard"));

    // The column cost profile has one entry per outer element of the
    // triangular assembly loop, matching the mesh the pipeline built.
    assert_eq!(result.column_terms.len(), result.mesh.element_count());
}

#[test]
fn deck_solver_choice_flows_into_pipeline() {
    // Same case solved by deck-selected Cholesky and by default PCG must
    // agree on the resistance to solver precision.
    let cg = parse_case(DECK).expect("deck parses");
    let chol = parse_case(&format!("{DECK}solver cholesky\n")).expect("deck parses");
    let a = run_pipeline(&cg, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let b = run_pipeline(&chol, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let dev = (a.solution().equivalent_resistance - b.solution().equivalent_resistance).abs()
        / a.solution().equivalent_resistance;
    assert!(dev < 1e-6, "cg vs cholesky deviation {dev}");
}

#[test]
fn parallel_direct_pipeline_reproduces_sequential_run() {
    // The path the `layerbem-cad` binary takes with `--threads N`:
    // the pooled class-first assembler, then the serial PCG solve. The
    // solution must be identical to the serial pipeline (the pooled
    // assembler is bit-faithful).
    use layerbem_parfor::{Schedule, ThreadPool};
    let case = parse_case(DECK).expect("deck parses");
    let serial = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let pool = ThreadPool::new(2);
    let schedule = Schedule::dynamic(1);
    let parallel = run_pipeline(
        &case,
        SolveOptions::default().with_parallelism(pool, schedule),
        0.0,
    )
    .expect("pipeline succeeds");
    assert_eq!(
        serial.solution().leakage,
        parallel.solution().leakage,
        "direct + pooled pipeline must reproduce the serial solution bit-for-bit"
    );
    assert_eq!(
        serial.solution().solver_iterations,
        parallel.solution().solver_iterations
    );
    assert_eq!(serial.column_terms, parallel.column_terms);
}

#[test]
fn collocation_deck_runs_pooled_end_to_end() {
    // A collocation deck with a pool configured takes the
    // row-partitioned in-place assembler (which fans out at any size)
    // and the pooled LU (serial fallback at this deck's size — the
    // blocked path is covered by tests/determinism.rs): the solution
    // must match the serial collocation run exactly.
    use layerbem_parfor::{Schedule, ThreadPool};
    let deck = format!("{DECK}formulation collocation\n");
    let case = parse_case(&deck).expect("deck parses");
    let serial = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let pool = ThreadPool::new(2);
    let schedule = Schedule::dynamic(1);
    let parallel = run_pipeline(
        &case,
        SolveOptions::default().with_parallelism(pool, schedule),
        0.0,
    )
    .expect("pipeline succeeds");
    assert_eq!(serial.solution().leakage, parallel.solution().leakage);
    assert_eq!(
        serial.solution().equivalent_resistance,
        parallel.solution().equivalent_resistance
    );
}

#[test]
fn sweep_profile_is_the_sum_of_its_samples() {
    // A soil sweep prepares one study per sample; the pipeline's profile
    // is their `+=` sum — counts, not ratios, so the pooled lane
    // occupancy survives the summation.
    use layerbem_core::workload::WorkloadRow;
    let case = parse_case(&format!("{DECK}sweep soil-samples 3 seed 7\n")).expect("deck parses");
    let result = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
    let samples: Vec<_> = result
        .rows
        .iter()
        .map(|row| match row {
            WorkloadRow::Sample(s) => s.profile.assembly,
            other => panic!("expected sample rows, got {other:?}"),
        })
        .collect();
    assert_eq!(samples.len(), 3);
    let total = result.profile.assembly;
    assert_eq!(total.assemblies, 3);
    assert_eq!(
        total.kernel.terms,
        samples.iter().map(|c| c.kernel.terms).sum::<u64>()
    );
    assert_eq!(
        total.kernel.lane_slots,
        samples.iter().map(|c| c.kernel.lane_slots).sum::<u64>()
    );
    let occ = total.lane_occupancy().expect("batched sweeps fill lanes");
    assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
}

#[test]
fn map_branch_checks_its_window_up_front_and_reports_its_cost() {
    // The library side of `layerbem-cad --map X0 X1 Y0 Y1 NX NY OUT`. The
    // window is built by the checked constructor while arguments are
    // parsed: `--map 0 10 0 10 1 1 out.csv` used to run the whole solve
    // and then panic inside `PotentialMap::compute`.
    use layerbem_core::post::{MapSpec, MapSpecError, PotentialMap};
    use layerbem_core::system::GroundingSystem;
    use layerbem_parfor::{Schedule, ThreadPool};
    assert_eq!(
        MapSpec::new((0.0, 10.0), (0.0, 10.0), 1, 1).unwrap_err(),
        MapSpecError::TooFewSamples { nx: 1, ny: 1 }
    );
    let spec = MapSpec::new((0.0, 20.0), (0.0, 20.0), 5, 5).expect("valid window");

    let case = parse_case(DECK).expect("deck parses");
    let opts = SolveOptions::default();
    let result = run_pipeline(&case, opts, 0.0).expect("pipeline succeeds");
    let system = GroundingSystem::new(result.mesh.clone(), &case.soil, opts);
    let map = PotentialMap::compute(
        &result.mesh,
        system.kernel(),
        result.solution(),
        &spec,
        &ThreadPool::new(2),
        Schedule::dynamic(4),
    );
    assert_eq!(map.values.len(), 25);
    assert!(map.values.iter().all(|v| *v > 0.0 && *v < case.gpr));
    assert_eq!(map.to_csv().lines().count(), 1 + 25);
    // What `--timing` prints for the map: its own kernel counters.
    assert!(map.cost.terms > 0 && map.seconds > 0.0);
    let occupancy = map.cost.lane_occupancy().expect("the map runs on lanes");
    assert!(occupancy > 0.0 && occupancy <= 1.0, "occupancy {occupancy}");
}
