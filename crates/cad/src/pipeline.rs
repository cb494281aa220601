//! The staged analysis pipeline with per-phase timing.
//!
//! The paper's Table 6.1 breaks the sequential Barberá two-layer run into
//! five phases and shows matrix generation taking 1723.2 s of the 1724.2 s
//! total — the observation that justifies parallelizing exactly that
//! loop. [`run_pipeline`] reproduces the same phase structure and
//! instrumentation as *validate → execute → render* around the one
//! executor, [`layerbem_core::workload::execute`], preparing every study
//! now on the mesh of phase 2 ([`StudySpec::prepare_on`], the body of
//! [`FreshSource`](layerbem_core::workload::FreshSource) without a second
//! meshing): it times discretization, hands the
//! deck's workload and `edit` stanzas to the executor, sums the returned
//! study profiles into one [`StudyProfile`] (`+=` — one study, or one per
//! soil sample or design candidate), attributes matrix generation and
//! linear solving from that sum, and renders the text report. Matrix
//! generation and factorization run **once** per study, and every
//! scenario is answered from the retained factor — so a 16-scenario study
//! pays one Table-6.1 matrix-generation bill, not sixteen.

use std::sync::Arc;
use std::time::Instant;

use layerbem_core::formulation::SolveOptions;
use layerbem_core::incremental::EditReport;
use layerbem_core::study::StudyProfile;
use layerbem_core::system::GroundingSolution;
use layerbem_core::workload::{
    execute, ExecuteError, Executed, Sourced, StudySource, StudySpec, Workload, WorkloadRow,
};
use layerbem_geometry::{Mesh, Mesher};

use crate::input::CadCase;
use crate::report::{design_search_report, soil_sweep_report, sweep_report, text_report};

/// The five pipeline phases of the paper's CAD system (Table 6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Reading and validating the case deck.
    DataInput,
    /// Discretizing conductors into boundary elements.
    DataPreprocessing,
    /// Generating the dense Galerkin matrix (the dominant cost).
    MatrixGeneration,
    /// Solving the linear system.
    LinearSystemSolving,
    /// Formatting and storing results.
    ResultsStorage,
}

impl Phase {
    /// All phases in execution order.
    pub fn all() -> [Phase; 5] {
        [
            Phase::DataInput,
            Phase::DataPreprocessing,
            Phase::MatrixGeneration,
            Phase::LinearSystemSolving,
            Phase::ResultsStorage,
        ]
    }

    /// Position of the phase in [`Phase::all`]'s execution order — a
    /// total match, so adding a phase without indexing it is a compile
    /// error rather than a runtime `expect` (the old lookup was the last
    /// panic path a malformed case could reach inside a resident server).
    pub fn index(&self) -> usize {
        match self {
            Phase::DataInput => 0,
            Phase::DataPreprocessing => 1,
            Phase::MatrixGeneration => 2,
            Phase::LinearSystemSolving => 3,
            Phase::ResultsStorage => 4,
        }
    }

    /// The paper's row label in Table 6.1.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::DataInput => "Data Input",
            Phase::DataPreprocessing => "Data Preprocessing",
            Phase::MatrixGeneration => "Matrix Generation",
            Phase::LinearSystemSolving => "Linear System Solving",
            Phase::ResultsStorage => "Results Storage",
        }
    }
}

/// Wall-clock seconds per phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Seconds for each phase, indexed like [`Phase::all`].
    pub seconds: [f64; 5],
}

impl PhaseTimes {
    /// Seconds of one phase.
    pub fn of(&self, phase: Phase) -> f64 {
        self.seconds[phase.index()]
    }

    /// Total pipeline seconds.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of the total spent in matrix generation (the paper's
    /// 99.9% observation).
    pub fn matrix_generation_share(&self) -> f64 {
        self.of(Phase::MatrixGeneration) / self.total()
    }

    /// Formats the phase table in the paper's layout.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str("Process                 CPU time(s)\n");
        for (phase, secs) in Phase::all().iter().zip(self.seconds) {
            s.push_str(&format!("{:<24}{:>10.3}\n", phase.label(), secs));
        }
        s.push_str(&format!("{:<24}{:>10.3}\n", "Total", self.total()));
        s
    }
}

/// Why the pipeline could not complete — the executor's own error: a
/// refused workload, an unsolvable model, a failed prepare or solve.
pub use layerbem_core::workload::ExecuteError as PipelineError;

/// Everything the pipeline produces: the result is **workload-shaped** —
/// one [`WorkloadRow`] per scenario, soil sample or design candidate,
/// owned alongside the [`Workload`] that was answered.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Discretized grid (the deck's network; design-search candidates
    /// re-mesh internally and report their own `dof`).
    pub mesh: Mesh,
    /// The workload that was answered (implicit scenarios resolved).
    pub workload: Workload,
    /// One row per scenario / sample / candidate, in workload order.
    /// Never empty.
    pub rows: Vec<WorkloadRow>,
    /// Per-phase timing.
    pub times: PhaseTimes,
    /// Text report produced by the results-storage phase (with one
    /// self-describing row per scenario/sample/candidate when the case
    /// sweeps or searches).
    pub report: String,
    /// Series terms per outer column of matrix generation (deterministic
    /// cost profile).
    pub column_terms: Vec<u64>,
    /// What the run's studies paid, summed over every study the workload
    /// prepared: `profile.assembly` is the matrix-generation record
    /// (series terms, kernel seconds split out of assembly, batched-lane
    /// occupancy, compression) the `--timing` report prints.
    pub profile: StudyProfile,
}

impl PipelineResult {
    /// The primary (first) scenario's solution: the first scenario row,
    /// or the first soil sample's first solution.
    ///
    /// # Panics
    /// Panics for a design-search result — candidates carry safety/cost
    /// scores, not a primary field solution; iterate [`PipelineResult::rows`]
    /// instead.
    pub fn solution(&self) -> &GroundingSolution {
        match &self.rows[0] {
            WorkloadRow::Scenario(s) => s,
            WorkloadRow::Sample(s) => &s.solutions[0],
            WorkloadRow::Candidate(_) => {
                panic!("design-search results have no primary solution; iterate rows")
            }
        }
    }
}

/// The fresh source on the mesh phase 2 timed: every study a deck asks
/// for — its scenarios' one, or one per soil sample — shares the deck's
/// network and mesh options, so each is prepared on a copy of that mesh.
struct Meshed<'m>(&'m Mesh);

impl StudySource for Meshed<'_> {
    fn study(&self, spec: &StudySpec<'_>) -> Result<Sourced, ExecuteError> {
        let t = Instant::now();
        let study = Arc::new(spec.prepare_on(self.0.clone())?);
        Ok(Sourced {
            study,
            reused: false,
            prepare_seconds: t.elapsed().as_secs_f64(),
        })
    }

    fn replays_edits(&self) -> bool {
        true
    }
}

/// Runs the five-phase pipeline on a parsed case; matrix generation and
/// the factorization run on the pool of [`SolveOptions::parallelism`]
/// (one thread is a one-thread pool, its regions inline; the double loop
/// is the tests' oracle). The deck's `formulation`/`solver` keywords
/// override `opts` ([`CadCase::solve_options`]).
///
/// `input_seconds` is the time the caller spent parsing the deck (phase 1
/// happens before this function can run; pass 0.0 when not measured).
pub fn run_pipeline(
    case: &CadCase,
    opts: SolveOptions,
    input_seconds: f64,
) -> Result<PipelineResult, PipelineError> {
    let mut times = PhaseTimes::default();
    times.seconds[0] = input_seconds;

    // Phase 2: preprocessing (discretization).
    let t = Instant::now();
    let mut mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    times.seconds[1] = t.elapsed().as_secs_f64();

    // Phases 3 + 4: the executor validates the workload, prepares (one
    // study per case, sample or candidate; a deck with `edit` stanzas
    // replays them as an editing session) and solves.
    let t = Instant::now();
    let done = execute(
        &case.study_spec(opts),
        &case.workload,
        &case.edits,
        &Meshed(&mesh),
    )?;
    let wall = t.elapsed().as_secs_f64();

    // Phase 5: results storage (report formatting).
    let t = Instant::now();
    let (rows, report, profile, study) = match (done, &case.workload) {
        (Executed::Scenarios(run), _) => {
            let (solutions, edit_reports, study) =
                (run.solutions, run.edit_reports, run.study.study);
            let profile = study.profile();
            if let Some(edited) = study.edited_mesh() {
                mesh = edited.clone();
            }
            let mut text = text_report(&case.title, &case.soil, &mesh, &solutions[0]);
            if !edit_reports.is_empty() {
                text.push('\n');
                text.push_str(&edit_session_report(&edit_reports));
            }
            if solutions.len() > 1 {
                text.push('\n');
                text.push_str(&sweep_report(&solutions));
            }
            let rows = solutions.into_iter().map(WorkloadRow::Scenario).collect();
            (rows, text, profile, Some(study))
        }
        (Executed::SoilSweep(samples), Workload::SoilSweep(spec)) => {
            let profile: StudyProfile = samples.iter().map(|s| s.profile).sum();
            let report = soil_sweep_report(&case.title, &case.soil, spec, &samples);
            let rows = samples.into_iter().map(WorkloadRow::Sample).collect();
            (rows, report, profile, None)
        }
        (Executed::DesignSearch(candidates), Workload::DesignSearch(spec)) => {
            let profile: StudyProfile = candidates.iter().map(|c| c.profile).sum();
            let report = design_search_report(&case.title, &case.soil, spec, &candidates);
            let rows = candidates.into_iter().map(WorkloadRow::Candidate).collect();
            (rows, report, profile, None)
        }
        _ => unreachable!("the executor answers in its workload's shape"),
    };
    // Phases 3 and 4, from the summed profile: assembly and edit
    // re-integration are matrix generation; the rest of the executor's
    // wall (factorization, factor updates, solves — pooled across samples
    // or candidates when there are several) is linear system solving.
    times.seconds[2] = profile.assembly.seconds + profile.reintegrate.seconds;
    times.seconds[3] = (wall - times.seconds[2]).max(0.0);
    times.seconds[4] = t.elapsed().as_secs_f64();

    Ok(PipelineResult {
        mesh,
        workload: case.workload.clone(),
        rows,
        times,
        report,
        column_terms: study
            .as_ref()
            .map_or_else(Vec::new, |s| s.column_terms().to_vec()),
        profile,
    })
}

/// Formats the per-edit session table the results-storage phase appends
/// when a deck replays `edit` stanzas: one row per edit with the route
/// taken and what it touched and paid.
fn edit_session_report(reports: &[EditReport]) -> String {
    let mut s = String::from(
        "Edit session\n  #  path         elements  rows  rank  reintegrate(s)  update(s)\n",
    );
    for (i, r) in reports.iter().enumerate() {
        let path = r.path.label();
        s.push_str(&format!(
            "{:>3}  {:<11}  {:>8}  {:>4}  {:>4}  {:>14.6}  {:>9.6}\n",
            i + 1,
            path,
            r.changed_elements,
            r.touched_rows,
            r.update_rank,
            r.reintegrate_seconds,
            r.update_seconds,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::parse_case;

    const CASE: &str = "\
title Pipeline test
soil two-layer 0.005 0.016 1.0
gpr 10000
grid rect 0 0 20 20 2 2 0.8 0.006
";

    fn run() -> PipelineResult {
        let case = parse_case(CASE).unwrap();
        run_pipeline(&case, SolveOptions::default(), 0.001).expect("pipeline succeeds")
    }

    #[test]
    fn edit_decks_replay_as_a_session_and_match_the_edited_deck() {
        // Moving the rod's free bottom end 0.2 m deeper is the same model
        // as a deck whose rod is 1.7 m long from the start.
        let edited = "\
title Edit replay
soil uniform 0.016
gpr 10000
solver cholesky
grid rect 0 0 20 20 2 2 0.8 0.006
rod 0 0 0.8 1.5 0.007
max-element-length 5
edit move 12 b 0 0 0.2
";
        let direct = "\
title Edit replay
soil uniform 0.016
gpr 10000
solver cholesky
grid rect 0 0 20 20 2 2 0.8 0.006
rod 0 0 0.8 1.7 0.007
max-element-length 5
";
        let a = run_pipeline(&parse_case(edited).unwrap(), SolveOptions::default(), 0.0)
            .expect("session pipeline");
        let b = run_pipeline(&parse_case(direct).unwrap(), SolveOptions::default(), 0.0)
            .expect("direct pipeline");
        let ra = a.solution().equivalent_resistance;
        let rb = b.solution().equivalent_resistance;
        let rel = (ra - rb).abs() / rb;
        assert!(rel <= 1e-8, "session vs direct Req rel {rel:.3e}");
        assert_eq!(a.profile.edits, 1);
        assert_eq!(
            a.profile.assembly.assemblies, 1,
            "the move must not re-assemble"
        );
        assert!(a.report.contains("Edit session"), "{}", a.report);
        assert!(a.report.contains("incremental"), "{}", a.report);
        // The result mesh is the edited one.
        assert_eq!(a.mesh.element_count(), b.mesh.element_count());
    }

    #[test]
    fn add_and_remove_edit_stanzas_rebuild_to_the_direct_deck() {
        // Adding a rod at the far corner and removing the one at the
        // origin (index 12; the added rod is 13 until the removal) is the
        // same model as a deck whose only rod stands at the far corner.
        let base = "\
title Edit replay
soil uniform 0.016
gpr 10000
solver cholesky
grid rect 0 0 20 20 2 2 0.8 0.006
max-element-length 5
";
        let edited = format!(
            "{base}rod 0 0 0.8 1.5 0.007\nedit add 20 20 0.8 20 20 2.3 0.007\nedit remove 12\n"
        );
        let direct = format!("{base}rod 20 20 0.8 1.5 0.007\n");
        let a = run_pipeline(&parse_case(&edited).unwrap(), SolveOptions::default(), 0.0)
            .expect("session pipeline");
        let b = run_pipeline(&parse_case(&direct).unwrap(), SolveOptions::default(), 0.0)
            .expect("direct pipeline");
        let ra = a.solution().equivalent_resistance;
        let rb = b.solution().equivalent_resistance;
        let rel = (ra - rb).abs() / rb;
        assert!(rel <= 1e-8, "session vs direct Req rel {rel:.3e}");
        assert_eq!(a.profile.edits, 2);
        assert_eq!(a.report.matches("rebuild").count(), 2, "{}", a.report);
        assert_eq!(a.mesh.element_count(), b.mesh.element_count());
    }

    #[test]
    fn edit_decks_surface_model_errors_instead_of_panicking() {
        // Removing the only bridge to the rod would disconnect... here:
        // removing a perimeter segment leaves the grid connected, but
        // moving a shared-corner grid conductor detaches it — a typed
        // model error, not an assertion failure.
        let deck = "\
soil uniform 0.016
grid rect 0 0 20 20 2 2 0.8 0.006
solver cholesky
edit move 0 1 0 0
";
        let e = run_pipeline(&parse_case(deck).unwrap(), SolveOptions::default(), 0.0)
            .expect_err("disconnecting edit must fail");
        assert!(matches!(e, PipelineError::Model(_)), "{e:?}");
    }

    #[test]
    fn phases_are_all_timed() {
        let r = run();
        assert_eq!(r.times.seconds[0], 0.001);
        for (i, s) in r.times.seconds.iter().enumerate() {
            assert!(*s >= 0.0, "phase {i}");
        }
        assert!(r.times.total() > 0.0);
    }

    #[test]
    fn matrix_generation_dominates_two_layer_runs() {
        // The Table 6.1 observation: for layered soil the matrix build is
        // by far the most expensive phase.
        let r = run();
        assert!(
            r.times.matrix_generation_share() > 0.5,
            "share = {}",
            r.times.matrix_generation_share()
        );
        let mg = r.times.of(Phase::MatrixGeneration);
        assert!(mg > r.times.of(Phase::LinearSystemSolving));
        assert!(mg > r.times.of(Phase::DataPreprocessing));
    }

    #[test]
    fn result_is_physical() {
        let r = run();
        assert!(r.solution().equivalent_resistance > 0.0);
        assert!(r.solution().total_current > 0.0);
        assert_eq!(r.column_terms.len(), r.mesh.element_count());
    }

    #[test]
    fn collocation_phases_are_attributed_separately() {
        // The satellite fix: a collocation run no longer lumps
        // factorization + solve into Matrix Generation — assembly lands
        // in phase 3, factor + per-scenario solves in phase 4.
        let case = parse_case(&format!("{CASE}formulation collocation\n")).unwrap();
        let r = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
        let mg = r.times.of(Phase::MatrixGeneration);
        let ls = r.times.of(Phase::LinearSystemSolving);
        assert!(mg > 0.0, "collocation assembly must be timed");
        assert!(ls > 0.0, "collocation factor+solve must be timed");
        assert!(
            mg > ls,
            "series-summation assembly should dominate the dense solve: {mg} vs {ls}"
        );
        assert!(r.solution().equivalent_resistance > 0.0);
    }

    #[test]
    fn scenario_sweep_produces_one_solution_per_scenario() {
        let deck =
            format!("{CASE}scenario gpr 5000\nscenario gpr 10000\nscenario fault-current 25000\n");
        let case = parse_case(&deck).unwrap();
        let r = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
        let solutions: Vec<&GroundingSolution> = r
            .rows
            .iter()
            .map(|row| match row {
                WorkloadRow::Scenario(s) => s,
                other => panic!("expected scenario rows, got {other:?}"),
            })
            .collect();
        assert_eq!(solutions.len(), 3);
        assert_eq!(solutions[0].gpr, 5_000.0);
        assert_eq!(solutions[1].gpr, 10_000.0);
        // The fault-current scenario reports exactly its prescribed IΓ.
        assert_eq!(solutions[2].total_current, 25_000.0);
        // All scenarios share one prepared system, so resistances agree
        // exactly (scaling never perturbs Req beyond its own arithmetic).
        assert_eq!(
            solutions[0].equivalent_resistance,
            solutions[1].equivalent_resistance
        );
        // The report carries one self-describing row per scenario.
        assert!(r.report.contains("Scenario sweep"));
        assert!(r.report.contains("fault current"));
    }

    #[test]
    fn soil_sweep_workload_runs_through_the_pipeline() {
        use layerbem_core::workload::WorkloadRow;
        let deck = format!("{CASE}sweep soil-samples 4 seed 11 sigma 0.2\n");
        let case = parse_case(&deck).unwrap();
        let r = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
        assert_eq!(r.rows.len(), 4);
        for (i, row) in r.rows.iter().enumerate() {
            match row {
                WorkloadRow::Sample(s) => {
                    assert_eq!(s.index, i);
                    assert_ne!(s.soil, case.soil, "sigma 0.2 perturbs every sample");
                    assert_eq!(s.solutions.len(), 1);
                    assert!(s.solutions[0].equivalent_resistance > 0.0);
                }
                other => panic!("expected sample rows, got {other:?}"),
            }
        }
        // One fresh assembly per sample (CG retains the operator, so no
        // factorizations), one scenario solve each.
        assert_eq!(r.profile.assembly.assemblies, 4);
        assert_eq!(r.profile.factorizations, 0);
        assert_eq!(r.profile.scenario_solves, 4);
        // The primary accessor resolves to the first sample's solution.
        assert!(r.solution().gpr > 0.0);
        // Report: per-sample rows plus distribution quantiles.
        assert!(r.report.contains("Soil-uncertainty sweep"));
        assert!(r.report.contains("seed 11"));
        assert!(r.report.contains("p50"));
    }

    #[test]
    fn design_search_workload_runs_through_the_pipeline() {
        use layerbem_core::workload::WorkloadRow;
        let deck = format!("{CASE}scenario fault-current 10000\nsearch pitch 5:10:2\n");
        let case = parse_case(&deck).unwrap();
        let r = run_pipeline(&case, SolveOptions::default(), 0.0).expect("pipeline succeeds");
        assert_eq!(r.rows.len(), 2);
        let mut pareto = 0;
        for row in &r.rows {
            match row {
                WorkloadRow::Candidate(c) => {
                    assert!(c.copper_kg > 0.0 && c.utilization > 0.0);
                    pareto += usize::from(c.pareto);
                }
                other => panic!("expected candidate rows, got {other:?}"),
            }
        }
        assert!(pareto >= 1, "a non-empty search always has a Pareto front");
        assert!(r.report.contains("design search"));
        assert!(r.report.contains("Pareto front"));
    }

    #[test]
    fn pipeline_surfaces_kernel_counters() {
        let r = run();
        let cost = r.profile.assembly;
        assert!(cost.kernel.terms > 0);
        assert!(cost.kernel_seconds > 0.0);
        assert!(cost.kernel_seconds <= r.times.of(Phase::MatrixGeneration) + 1e-9);
        let occ = cost.lane_occupancy().expect("the assembly runs on lanes");
        assert!(occ > 0.0 && occ <= 1.0);
    }

    #[test]
    fn report_mentions_key_quantities() {
        let r = run();
        assert!(r.report.contains("Pipeline test"));
        assert!(r.report.contains("Equivalent resistance"));
        assert!(r.report.contains("Total current"));
    }

    #[test]
    fn table_formats_all_rows() {
        let r = run();
        let t = r.times.table();
        for phase in Phase::all() {
            assert!(t.contains(phase.label()), "{t}");
        }
        assert!(t.contains("Total"));
    }

    #[test]
    fn phase_labels_match_paper() {
        assert_eq!(Phase::MatrixGeneration.label(), "Matrix Generation");
        assert_eq!(Phase::all().len(), 5);
    }

    #[test]
    fn phase_index_agrees_with_execution_order() {
        for (i, phase) in Phase::all().iter().enumerate() {
            assert_eq!(phase.index(), i, "{phase:?}");
        }
    }

    #[test]
    fn disconnected_electrodes_are_a_typed_model_error() {
        // Two rods hundreds of meters apart never merge into one mesh
        // island; this used to abort in GroundingSystem::new's assert.
        let case = parse_case("rod 0 0 0.5 2 0.01\nrod 900 900 0.5 2 0.01\n").unwrap();
        let err = run_pipeline(&case, SolveOptions::default(), 0.0).unwrap_err();
        match &err {
            PipelineError::Model(why) => assert!(why.contains("connected"), "{why}"),
            other => panic!("expected Model error, got {other:?}"),
        }
        assert!(err.to_string().contains("no solvable model"));
    }
}
