//! First-class workloads: what a grounding *study* actually asks.
//!
//! The staged solve surface ([`GroundingSystem::prepare`] → [`Study`])
//! answers scenario lists from one retained factor. Real engineering
//! traffic is shaped differently: it asks **distributions** ("how does
//! GPR scatter when the soil model is uncertain?") and **design loops**
//! ("which grid pitch meets IEEE 80 with the least copper?"). This
//! module makes those questions first-class values:
//!
//! * [`Workload::Scenarios`] — the classic path: explicit scenarios, one
//!   prepare, one unit solve, a scaling each. Deck `scenario` stanzas and
//!   the CLI's `--gpr-sweep` are thin constructors over it.
//! * [`Workload::SoilSweep`] — Monte-Carlo over soil uncertainty:
//!   [`sample_soils`] draws `N` log-normally perturbed soil models from
//!   a seeded, dependency-free RNG ([`Xoshiro256StarStar`]); each sample
//!   needs its **own factor**, so [`run_soil_sweep`] fans the samples
//!   out over the pool via `scoped_partition` (one sample per slot,
//!   one-thread inner solves — runs at every thread count are
//!   bit-identical for a fixed seed, because all sampling happens
//!   serially up front and each per-sample solve is a pure function of
//!   its soil model).
//! * [`Workload::DesignSearch`] — safety-driven layout search: candidate
//!   grid pitches are meshed, prepared **once** each, and reused across
//!   every candidate fault current via [`Study::solve_batch`]; each
//!   candidate is scored against the IEEE 80 touch/step criteria and the
//!   copper mass its fault sizing requires, and the Pareto front of
//!   (copper mass, safety utilization) is marked.
//!
//! ## One executor, two study sources
//!
//! [`execute`] is the single place where a parsed case plus a workload
//! becomes rows; the CAD pipeline and every serve wire op are
//! *validate → execute → render* around it. Everything it can
//! refuse — an unusable scenario drive, `edit` stanzas on a sweep or
//! search, `edit` stanzas sent to a front end that cannot replay them —
//! it refuses **before** any compute or cache touch. The one thing that
//! differs between front ends is where a prepared [`Study`] comes from,
//! so that is the one seam: a [`StudySource`] asked for the study of a
//! [`StudySpec`]. [`FreshSource`] prepares it now; `layerbem-serve`'s
//! keyed cache answers from residency and falls back to the same
//! [`StudySpec::prepare`].
//!
//! [`GroundingSystem::prepare`]: crate::system::GroundingSystem::prepare
//! [`Study`]: crate::study::Study
//! [`Study::solve_batch`]: crate::study::Study::solve_batch

use std::sync::Arc;
use std::time::Instant;

use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{ConductorNetwork, Mesh, MeshOptions, Mesher, Point3};
use layerbem_numeric::Xoshiro256StarStar;
use layerbem_soil::sample::perturb;
use layerbem_soil::SoilModel;

use crate::formulation::{Parallelism, SolveOptions};
use crate::incremental::{EditError, EditOp, EditReport, EditSession};
use crate::post::{mesh_voltage, potential_profile};
use crate::safety::{ConductorMaterial, SafetyCriteria};
use crate::study::{PrepareError, Scenario, SolveError, Study, StudyProfile};
use crate::system::{GroundingSolution, GroundingSystem};

/// Density of copper (kg/m³), for converting the IEEE 80 fault-sizing
/// cross-section into the mass the Pareto front trades against safety.
const COPPER_DENSITY_KG_M3: f64 = 8_960.0;

/// What a case asks of the solver: one of the three workload shapes.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Explicit scenarios answered from one prepared study (the
    /// `scenario` stanza / `--gpr-sweep` path).
    Scenarios(Vec<Scenario>),
    /// Monte-Carlo soil-uncertainty sweep: one fresh prepare per sampled
    /// soil model, all samples drawn serially from one seeded RNG.
    SoilSweep(SoilSweepSpec),
    /// Safety-driven grid-pitch search: one prepare per candidate
    /// layout, reused across candidate fault currents.
    DesignSearch(DesignSearchSpec),
}

/// Specification of a Monte-Carlo soil sweep.
#[derive(Clone, Debug)]
pub struct SoilSweepSpec {
    /// Number of soil-model samples (≥ 1).
    pub samples: usize,
    /// RNG seed: equal seeds give bit-identical sweeps on every thread
    /// count and schedule.
    pub seed: u64,
    /// Log-space standard deviation of the per-parameter perturbation
    /// (≈ relative one-sigma scatter; see [`layerbem_soil::sample::perturb`]).
    pub sigma: f64,
    /// Scenarios answered per sample (never empty after validation).
    pub scenarios: Vec<Scenario>,
}

impl SoilSweepSpec {
    /// Validated spec: rejects zero samples and a negative or non-finite
    /// sigma.
    pub fn new(
        samples: usize,
        seed: u64,
        sigma: f64,
        scenarios: Vec<Scenario>,
    ) -> Result<SoilSweepSpec, WorkloadError> {
        if samples == 0 {
            return Err(WorkloadError::Empty {
                what: "soil samples",
            });
        }
        if !(sigma >= 0.0 && sigma.is_finite()) {
            return Err(WorkloadError::InvalidParameter {
                what: "sweep sigma",
                value: sigma,
            });
        }
        Ok(SoilSweepSpec {
            samples,
            seed,
            sigma,
            scenarios,
        })
    }
}

/// Specification of a safety-driven design search over grid pitch.
#[derive(Clone, Debug)]
pub struct DesignSearchSpec {
    /// Geometry template: origin/extent/depth/radius are kept, `nx`/`ny`
    /// are re-derived per candidate pitch.
    pub base: RectGridSpec,
    /// Candidate conductor pitches (m), coarse to fine.
    pub pitches: Vec<f64>,
    /// Candidate fault currents (A); every candidate layout answers all
    /// of them from its one prepared study.
    pub fault_currents: Vec<f64>,
    /// IEEE 80 permissible-limit parameters.
    pub criteria: SafetyCriteria,
    /// Conductor material for fault sizing (IEEE 80 eq. 37).
    pub material: ConductorMaterial,
    /// Ambient temperature for the sizing (°C).
    pub ambient_c: f64,
}

/// Why a workload specification is invalid — the typed replacement for
/// the CLI's old silent acceptance of `--gpr-sweep 0`-point and
/// backwards ranges.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// A sweep or search asked for zero points/samples.
    Empty {
        /// Which range/count was empty.
        what: &'static str,
    },
    /// A `LO:HI` range is backwards, non-positive or non-finite.
    InvalidRange {
        /// Which range is invalid.
        what: &'static str,
        /// Lower endpoint as given.
        lo: f64,
        /// Upper endpoint as given.
        hi: f64,
    },
    /// A scalar parameter is out of its domain.
    InvalidParameter {
        /// Which parameter is invalid.
        what: &'static str,
        /// Value as given.
        value: f64,
    },
    /// `edit` stanzas came with a sweep or search workload: an edit
    /// session answers the deck's scenarios from one edited study.
    EditsNeedScenarios,
    /// `edit` stanzas reached a front end that answers from shared
    /// studies (the serve `solve`/`sweep` ops): replaying them there
    /// would answer, and cache, the base geometry under the wrong name.
    EditsNeedSession,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Empty { what } => {
                write!(f, "workload asks for zero {what}")
            }
            WorkloadError::InvalidRange { what, lo, hi } => write!(
                f,
                "invalid {what} range {lo}:{hi} (need finite 0 < LO <= HI)"
            ),
            WorkloadError::InvalidParameter { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            WorkloadError::EditsNeedScenarios => write!(
                f,
                "edit stanzas replay against the deck's scenarios and cannot \
                 be combined with sweep/search workloads"
            ),
            WorkloadError::EditsNeedSession => write!(
                f,
                "edit stanzas need an editing front end (the CAD pipeline, or \
                 a serve session opened with op:\"edit\")"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// `n` linearly spaced values over `[lo, hi]` (`n = 1` yields `lo`).
fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = if n == 1 {
                0.0
            } else {
                i as f64 / (n - 1) as f64
            };
            lo + (hi - lo) * t
        })
        .collect()
}

fn validate_range(what: &'static str, lo: f64, hi: f64, n: usize) -> Result<(), WorkloadError> {
    if n == 0 {
        return Err(WorkloadError::Empty { what });
    }
    if !(lo > 0.0 && hi >= lo && lo.is_finite() && hi.is_finite()) {
        return Err(WorkloadError::InvalidRange { what, lo, hi });
    }
    Ok(())
}

impl Workload {
    /// Explicit scenario list (may be empty: the pipeline substitutes the
    /// deck's implicit `gpr` scenario).
    pub fn scenarios(list: Vec<Scenario>) -> Workload {
        Workload::Scenarios(list)
    }

    /// `n` linearly spaced prescribed-GPR scenarios over `[lo, hi]` —
    /// the validated constructor behind `--gpr-sweep LO:HI:N`. Rejects
    /// `n = 0`, backwards ranges and non-positive/non-finite endpoints
    /// with a typed error instead of an empty or backwards sweep.
    pub fn gpr_sweep(lo: f64, hi: f64, n: usize) -> Result<Workload, WorkloadError> {
        validate_range("GPR sweep", lo, hi, n)?;
        Ok(Workload::Scenarios(
            linspace(lo, hi, n).into_iter().map(Scenario::gpr).collect(),
        ))
    }

    /// Validated Monte-Carlo soil sweep ([`SoilSweepSpec::new`]).
    pub fn soil_sweep(
        samples: usize,
        seed: u64,
        sigma: f64,
        scenarios: Vec<Scenario>,
    ) -> Result<Workload, WorkloadError> {
        SoilSweepSpec::new(samples, seed, sigma, scenarios).map(Workload::SoilSweep)
    }

    /// Validated design search: pitch candidates from `lo:hi:n` against
    /// the `base` grid extent. Guards against pitches finer than the
    /// extent can sensibly carry (the meshing budget).
    // One argument per spec field: the constructor exists to validate
    // every field before a spec can be built, so it mirrors the struct.
    #[allow(clippy::too_many_arguments)]
    pub fn design_search(
        base: RectGridSpec,
        lo: f64,
        hi: f64,
        n: usize,
        fault_currents: Vec<f64>,
        criteria: SafetyCriteria,
        material: ConductorMaterial,
        ambient_c: f64,
    ) -> Result<Workload, WorkloadError> {
        validate_range("pitch", lo, hi, n)?;
        let cells = (base.width.max(base.height) / lo).round();
        if cells > 256.0 {
            return Err(WorkloadError::InvalidParameter {
                what: "pitch (finer than extent/256)",
                value: lo,
            });
        }
        if fault_currents.is_empty() {
            return Err(WorkloadError::Empty {
                what: "fault currents",
            });
        }
        if let Some(&bad) = fault_currents
            .iter()
            .find(|i| !(**i > 0.0 && i.is_finite()))
        {
            return Err(WorkloadError::InvalidParameter {
                what: "fault current",
                value: bad,
            });
        }
        Ok(Workload::DesignSearch(DesignSearchSpec {
            base,
            pitches: linspace(lo, hi, n),
            fault_currents,
            criteria,
            material,
            ambient_c,
        }))
    }

    /// The scenario list this workload answers — the explicit list, or a
    /// sweep's per-sample list; `None` for a design search, which
    /// derives its scenarios from its candidate fault currents.
    pub fn scenario_list(&self) -> Option<&[Scenario]> {
        match self {
            Workload::Scenarios(list) => Some(list),
            Workload::SoilSweep(spec) => Some(&spec.scenarios),
            Workload::DesignSearch(_) => None,
        }
    }

    /// Short machine-readable label of the workload shape.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Scenarios(_) => "scenarios",
            Workload::SoilSweep(_) => "soil-sweep",
            Workload::DesignSearch(_) => "design-search",
        }
    }
}

/// One row of a workload's result: the shape-specific unit of output the
/// pipeline now returns instead of a flat solution vector.
#[derive(Clone, Debug)]
pub enum WorkloadRow {
    /// One scenario's solution (the [`Workload::Scenarios`] shape).
    Scenario(GroundingSolution),
    /// One Monte-Carlo sample: sampled soil, its solutions, its profile.
    Sample(SweepSample),
    /// One design-search candidate with its safety/cost scores.
    Candidate(DesignCandidate),
}

/// One Monte-Carlo sample of a soil sweep.
#[derive(Clone, Debug)]
pub struct SweepSample {
    /// Sample index in draw order (0-based).
    pub index: usize,
    /// The sampled soil model.
    pub soil: SoilModel,
    /// One solution per sweep scenario, from this sample's own factor.
    pub solutions: Vec<GroundingSolution>,
    /// The per-sample study's phase instrumentation.
    pub profile: StudyProfile,
    /// Whether the [`StudySource`] answered from a study it already held.
    pub reused: bool,
    /// Seconds of this sample's scenario solves.
    pub solve_seconds: f64,
}

/// One candidate layout of a design search, scored on safety and cost.
#[derive(Clone, Debug)]
pub struct DesignCandidate {
    /// Conductor pitch (m) this candidate was generated from.
    pub pitch: f64,
    /// Grid cells along x derived from the pitch.
    pub nx: usize,
    /// Grid cells along y derived from the pitch.
    pub ny: usize,
    /// Degrees of freedom of the candidate's discretization.
    pub dof: usize,
    /// Total buried conductor length (m).
    pub conductor_length: f64,
    /// IEEE 80 eq. 37 cross-section (mm²) for the worst fault current.
    pub section_mm2: f64,
    /// Conductor mass at copper density (kg) — the cost axis.
    pub copper_kg: f64,
    /// Equivalent resistance of the candidate grid (Ω).
    pub equivalent_resistance: f64,
    /// Worst probed touch voltage over the candidate fault currents (V).
    pub worst_touch: f64,
    /// Worst probed step voltage over the candidate fault currents (V).
    pub worst_step: f64,
    /// Permissible touch voltage (V).
    pub touch_limit: f64,
    /// Permissible step voltage (V).
    pub step_limit: f64,
    /// Safety utilization: max of touch/step computed-over-permissible at
    /// the worst fault current — the safety axis (> 1 means violation).
    pub utilization: f64,
    /// True when both voltages are within limits at every fault current.
    pub safe: bool,
    /// True when no other candidate has both less copper and less
    /// utilization (the Pareto front of the cost/safety trade).
    pub pareto: bool,
    /// The candidate study's phase instrumentation.
    pub profile: StudyProfile,
}

/// The study a front end asks a [`StudySource`] for — everything that
/// decides what gets meshed, assembled and factorized. `opts` are the
/// *effective* options (deck keywords already overlaid on the front
/// end's defaults).
#[derive(Clone, Copy, Debug)]
pub struct StudySpec<'a> {
    /// Electrode network, in deck order.
    pub network: &'a ConductorNetwork,
    /// Discretization controls.
    pub mesh_options: MeshOptions,
    /// Soil model.
    pub soil: &'a SoilModel,
    /// Effective solve options.
    pub opts: SolveOptions,
}

impl StudySpec<'_> {
    /// Prepares the study now: mesh → model check → assemble →
    /// factorize. The body of [`FreshSource`], and what a caching source
    /// falls back to on a miss.
    pub fn prepare(&self) -> Result<Study, ExecuteError> {
        self.prepare_on(Mesher::new(self.mesh_options).mesh(self.network))
    }

    /// [`Self::prepare`] on `mesh`, which must be `network` meshed under
    /// `mesh_options`: a front end that already meshed the network (the
    /// CLI times that as its own phase) does not mesh it again.
    pub fn prepare_on(&self, mesh: Mesh) -> Result<Study, ExecuteError> {
        let system =
            GroundingSystem::try_new(mesh, self.soil, self.opts).map_err(ExecuteError::Model)?;
        Ok(system.prepare()?)
    }
}

/// A [`StudySource`]'s answer.
pub struct Sourced {
    /// The prepared study (shared: a caching source hands the same one
    /// to every asker).
    pub study: Arc<Study>,
    /// Whether the source already held it (a cache hit).
    pub reused: bool,
    /// Seconds the source took to hand it over.
    pub prepare_seconds: f64,
}

/// Where prepared studies come from — the one seam between the front
/// ends that share [`execute`].
pub trait StudySource: Sync {
    /// The study of `spec`.
    fn study(&self, spec: &StudySpec<'_>) -> Result<Sourced, ExecuteError>;

    /// Whether the front end behind this source replays deck `edit`
    /// stanzas (as a private [`EditSession`]). A source of *shared*
    /// studies must say no: an edited study is not the study its base
    /// geometry names.
    fn replays_edits(&self) -> bool;
}

/// The source that prepares every study it is asked for, now.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreshSource;

impl StudySource for FreshSource {
    fn study(&self, spec: &StudySpec<'_>) -> Result<Sourced, ExecuteError> {
        let t = Instant::now();
        let study = Arc::new(spec.prepare()?);
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

/// Why [`execute`] (or a [`StudySource`]) refused or failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecuteError {
    /// The workload (or its combination with `edit` stanzas) was refused
    /// by validation, before any compute.
    Workload(WorkloadError),
    /// The network does not discretize into one solvable electrode
    /// ([`GroundingSystem::try_new`]'s wording).
    Model(&'static str),
    /// Assembly/factorization failed.
    Prepare(PrepareError),
    /// A scenario could not be answered (including an unusable drive,
    /// caught by validation).
    Solve(SolveError),
    /// A defect contained at the seam: a source whose prepare panicked,
    /// a session that lost its edit state.
    Internal(String),
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Workload(e) => write!(f, "invalid workload: {e}"),
            ExecuteError::Model(why) => write!(f, "case describes no solvable model: {why}"),
            ExecuteError::Prepare(e) => write!(f, "pipeline preparation failed: {e}"),
            ExecuteError::Solve(e) => write!(f, "pipeline scenario solve failed: {e}"),
            ExecuteError::Internal(why) => write!(f, "internal error: {why}"),
        }
    }
}

impl std::error::Error for ExecuteError {}

impl From<WorkloadError> for ExecuteError {
    fn from(e: WorkloadError) -> Self {
        ExecuteError::Workload(e)
    }
}

impl From<PrepareError> for ExecuteError {
    fn from(e: PrepareError) -> Self {
        ExecuteError::Prepare(e)
    }
}

impl From<SolveError> for ExecuteError {
    fn from(e: SolveError) -> Self {
        ExecuteError::Solve(e)
    }
}

impl From<EditError> for ExecuteError {
    fn from(e: EditError) -> Self {
        match e {
            EditError::Model(why) => ExecuteError::Model(why),
            EditError::Prepare(p) => ExecuteError::Prepare(p),
            EditError::NotEditable(why) => ExecuteError::Internal(why.to_string()),
        }
    }
}

/// A scenario workload's answer: one study, one solution per scenario.
pub struct ScenarioRun {
    /// One solution per scenario, in workload order.
    pub solutions: Vec<GroundingSolution>,
    /// The study that answered (from the source, or the replayed edit
    /// session's — then never `reused`).
    pub study: Sourced,
    /// Seconds of the scenario solves.
    pub solve_seconds: f64,
    /// One report per replayed `edit` stanza (empty without any).
    pub edit_reports: Vec<EditReport>,
}

/// What [`execute`] produced, shaped like the workload it answered.
pub enum Executed {
    /// A scenario workload's run.
    Scenarios(ScenarioRun),
    /// A soil sweep: one sample per drawn soil model, in draw order.
    SoilSweep(Vec<SweepSample>),
    /// A design search: one scored candidate per pitch.
    DesignSearch(Vec<DesignCandidate>),
}

impl Executed {
    /// The run of a [`Workload::Scenarios`].
    ///
    /// # Panics
    /// Panics for any other shape — [`execute`] answers in the shape of
    /// the workload it was given.
    pub fn into_scenarios(self) -> ScenarioRun {
        match self {
            Executed::Scenarios(run) => run,
            _ => panic!("not a scenario workload's answer"),
        }
    }

    /// The samples of a [`Workload::SoilSweep`]; panics like
    /// [`into_scenarios`](Self::into_scenarios).
    pub fn into_samples(self) -> Vec<SweepSample> {
        match self {
            Executed::SoilSweep(samples) => samples,
            _ => panic!("not a soil sweep's answer"),
        }
    }
}

/// Answers `workload` for the case `base` describes, drawing prepared
/// studies from `source` — the one executor under the CAD pipeline and
/// the serve wire ops.
///
/// All validation happens first, before any compute or cache touch:
/// every scenario drive must be usable, and `edits` (a deck's `edit`
/// stanzas) require a scenario workload **and** a front end that replays
/// them ([`StudySource::replays_edits`]).
pub fn execute(
    base: &StudySpec<'_>,
    workload: &Workload,
    edits: &[EditOp],
    source: &dyn StudySource,
) -> Result<Executed, ExecuteError> {
    if !edits.is_empty() {
        if !source.replays_edits() {
            return Err(WorkloadError::EditsNeedSession.into());
        }
        if !matches!(workload, Workload::Scenarios(_)) {
            return Err(WorkloadError::EditsNeedScenarios.into());
        }
    }
    if let Some(scenarios) = workload.scenario_list() {
        Scenario::validate(scenarios)?;
    }
    match workload {
        Workload::Scenarios(scenarios) => {
            let (study, edit_reports) = if edits.is_empty() {
                (source.study(base)?, Vec::new())
            } else {
                // An edited study is private to this call: prepared
                // editable, then each edit re-integrates only the pairs
                // it touched and updates the retained factor in place.
                let t = Instant::now();
                let (session, reports) = EditSession::replay(base, edits)?;
                let sourced = Sourced {
                    study: Arc::new(session.into_study()),
                    reused: false,
                    prepare_seconds: t.elapsed().as_secs_f64(),
                };
                (sourced, reports)
            };
            let t = Instant::now();
            let solutions = study.study.solve_batch(scenarios)?;
            Ok(Executed::Scenarios(ScenarioRun {
                solutions,
                study,
                solve_seconds: t.elapsed().as_secs_f64(),
                edit_reports,
            }))
        }
        Workload::SoilSweep(sweep) => Ok(Executed::SoilSweep(run_soil_sweep(base, sweep, source)?)),
        // Candidates probe touch/step voltages through each candidate
        // system's own kernel, so a search always prepares now.
        Workload::DesignSearch(search) => Ok(Executed::DesignSearch(run_design_search(
            base.soil,
            base.mesh_options,
            base.opts,
            search,
        )?)),
    }
}

/// Draws the sweep's soil models — **serially**, from one generator
/// seeded with `spec.seed`, before any parallel work: the sample list
/// (and hence every downstream result) is a pure function of the seed,
/// never of thread count or schedule.
pub fn sample_soils(base: &SoilModel, spec: &SoilSweepSpec) -> Vec<SoilModel> {
    let mut rng = Xoshiro256StarStar::seeded(spec.seed);
    (0..spec.samples)
        .map(|_| perturb(base, spec.sigma, &mut rng))
        .collect()
}

/// Runs a Monte-Carlo soil sweep: `base` with each sampled soil model
/// swapped in is drawn from `source` (one study per sample) and answered
/// against `sweep.scenarios`.
///
/// Samples fan out over `base.opts.parallelism`'s pool via
/// `scoped_partition` (one sample per slot; inline at one thread) with
/// the **inner** prepares and solves on one thread — each sample is a
/// pure function of its soil model, so sweeps are bitwise identical under
/// every schedule and thread count, whichever source the studies come
/// from.
pub fn run_soil_sweep(
    base: &StudySpec<'_>,
    sweep: &SoilSweepSpec,
    source: &dyn StudySource,
) -> Result<Vec<SweepSample>, ExecuteError> {
    let soils = sample_soils(base.soil, sweep);
    // Per-sample work runs on one thread inside its slot; the sweep itself is
    // the parallel axis (each sample is its own assembly +
    // factorization, which is exactly the grain the pool wants).
    let inner = SolveOptions {
        parallelism: Parallelism::default(),
        ..base.opts
    };
    let run_one = |index: usize| -> Result<SweepSample, ExecuteError> {
        let soil = soils[index].clone();
        let sourced = source.study(&StudySpec {
            soil: &soil,
            opts: inner,
            ..*base
        })?;
        let t = Instant::now();
        let solutions = sourced.study.solve_batch(&sweep.scenarios)?;
        Ok(SweepSample {
            index,
            soil,
            solutions,
            profile: sourced.study.profile(),
            reused: sourced.reused,
            solve_seconds: t.elapsed().as_secs_f64(),
        })
    };
    let mut slots: Vec<Option<_>> = soils.iter().map(|_| None).collect();
    let par = &base.opts.parallelism;
    par.pool
        .scoped_partition(&mut slots, par.schedule, |i, slot| *slot = Some(run_one(i)));
    // In draw order: the first failing sample wins.
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot visited exactly once"))
        .collect()
}

/// Distribution quantiles of a sweep quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

/// p10/p50/p90 of `values` by sorted linear interpolation.
///
/// # Panics
/// Panics on an empty slice or non-finite values (sweep outputs are
/// validated upstream).
pub fn quantiles(values: &[f64]) -> Quantiles {
    assert!(!values.is_empty(), "quantiles of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sweep values"));
    let at = |q: f64| -> f64 {
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let t = pos - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    };
    Quantiles {
        p10: at(0.10),
        p50: at(0.50),
        p90: at(0.90),
    }
}

/// GPR and equivalent-resistance quantiles over a sweep's samples,
/// evaluated on each sample's **first** scenario (the deck's primary
/// question).
pub fn sweep_quantiles(samples: &[SweepSample]) -> (Quantiles, Quantiles) {
    let gpr: Vec<f64> = samples.iter().map(|s| s.solutions[0].gpr).collect();
    let req: Vec<f64> = samples
        .iter()
        .map(|s| s.solutions[0].equivalent_resistance)
        .collect();
    (quantiles(&gpr), quantiles(&req))
}

/// Touch-voltage probe points of a candidate grid: cell centres of the
/// corner cells and the central cell — the IEEE 80 mesh-voltage worst
/// cases (corner meshes see the highest touch voltage).
fn touch_probe_centres(base: &RectGridSpec, nx: usize, ny: usize) -> Vec<Point3> {
    let (x0, y0) = base.origin;
    let cw = base.width / nx as f64;
    let ch = base.height / ny as f64;
    let centre = |i: usize, j: usize| {
        Point3::new(x0 + (i as f64 + 0.5) * cw, y0 + (j as f64 + 0.5) * ch, 0.0)
    };
    let picks = [
        (0, 0),
        (nx - 1, 0),
        (0, ny - 1),
        (nx - 1, ny - 1),
        (nx / 2, ny / 2),
    ];
    let mut pts: Vec<Point3> = Vec::new();
    for (i, j) in picks {
        let p = centre(i, j);
        if !pts.iter().any(|q| q.x == p.x && q.y == p.y) {
            pts.push(p);
        }
    }
    pts
}

/// Runs a safety-driven design search: each candidate pitch becomes a
/// rectangular grid, prepared **once** and reused across every candidate
/// fault current via `solve_batch`; touch/step voltages are
/// probed at the worst-case mesh centres and a 1 m-spaced step walk off
/// the grid corner, scored against `spec.criteria`, and the Pareto front
/// of copper mass vs. safety utilization is marked.
///
/// Candidates run serially (each prepare may itself use the pool in
/// `opts`); all probe evaluations are serial and deterministic.
pub fn run_design_search(
    soil: &SoilModel,
    mesh_options: MeshOptions,
    opts: SolveOptions,
    spec: &DesignSearchSpec,
) -> Result<Vec<DesignCandidate>, ExecuteError> {
    let scenarios: Vec<Scenario> = spec
        .fault_currents
        .iter()
        .map(|&amps| Scenario::fault_current(amps))
        .collect();
    let worst_amps = spec.fault_currents.iter().fold(0.0f64, |m, &i| m.max(i));
    let section_mm2 = spec.material.required_section_mm2(
        worst_amps,
        spec.criteria.fault_duration,
        spec.ambient_c,
    );
    let mut candidates = Vec::with_capacity(spec.pitches.len());
    for &pitch in &spec.pitches {
        let nx = (spec.base.width / pitch).round().max(1.0) as usize;
        let ny = (spec.base.height / pitch).round().max(1.0) as usize;
        let network = rectangular_grid(RectGridSpec {
            nx,
            ny,
            ..spec.base
        });
        let conductor_length: f64 = network.conductors().iter().map(|c| c.length()).sum();
        let mesh = Mesher::new(mesh_options).mesh(&network);
        let system = GroundingSystem::new(mesh.clone(), soil, opts);
        let study = system.prepare()?;
        let solutions = study.solve_batch(&scenarios)?;
        // Probe once on the first solution; touch/step scale linearly
        // with the drive (every solution shares the candidate's unit
        // solve), so the worst fault current is the worst scale factor.
        let sol0 = &solutions[0];
        let kernel = system.kernel();
        let centres = touch_probe_centres(&spec.base, nx, ny);
        let touch0 = mesh_voltage(&centres, &mesh, kernel, sol0);
        let (x0, y0) = spec.base.origin;
        let corner = Point3::new(x0, y0, 0.0);
        let away = Point3::new(
            x0 - 6.0,
            y0 - 6.0 * spec.base.height / spec.base.width.max(1e-9),
            0.0,
        );
        // 1 m-spaced samples walking off the corner; step voltage is the
        // worst difference between consecutive samples.
        let walk = potential_profile(corner, away, 7, &mesh, kernel, sol0);
        let step0 = walk
            .windows(2)
            .map(|w| (w[0].1 - w[1].1).abs())
            .fold(0.0f64, f64::max);
        let scale = solutions
            .iter()
            .map(|s| s.gpr / sol0.gpr)
            .fold(0.0f64, f64::max);
        let worst_touch = touch0 * scale;
        let worst_step = step0 * scale;
        let touch_limit = spec.criteria.permissible_touch();
        let step_limit = spec.criteria.permissible_step();
        let utilization = (worst_touch / touch_limit).max(worst_step / step_limit);
        candidates.push(DesignCandidate {
            pitch,
            nx,
            ny,
            dof: mesh.dof(),
            conductor_length,
            section_mm2,
            copper_kg: section_mm2 * 1e-6 * conductor_length * COPPER_DENSITY_KG_M3,
            equivalent_resistance: sol0.equivalent_resistance,
            worst_touch,
            worst_step,
            touch_limit,
            step_limit,
            utilization,
            safe: worst_touch <= touch_limit && worst_step <= step_limit,
            pareto: false,
            profile: study.profile(),
        });
    }
    mark_pareto(&mut candidates);
    Ok(candidates)
}

/// Marks the non-dominated candidates of the (copper mass, utilization)
/// trade — lower is better on both axes.
fn mark_pareto(candidates: &mut [DesignCandidate]) {
    let scores: Vec<(f64, f64)> = candidates
        .iter()
        .map(|c| (c.copper_kg, c.utilization))
        .collect();
    for (i, c) in candidates.iter_mut().enumerate() {
        let (mass, util) = scores[i];
        c.pareto = !scores
            .iter()
            .enumerate()
            .any(|(j, &(m, u))| j != i && m <= mass && u <= util && (m < mass || u < util));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::BodyWeight;
    use layerbem_parfor::{Schedule, ThreadPool};

    fn tiny_spec() -> RectGridSpec {
        RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 2,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        }
    }

    fn tiny_study<'a>(
        network: &'a ConductorNetwork,
        soil: &'a SoilModel,
        opts: SolveOptions,
    ) -> StudySpec<'a> {
        StudySpec {
            network,
            mesh_options: MeshOptions::default(),
            soil,
            opts,
        }
    }

    #[test]
    fn gpr_sweep_constructor_validates() {
        assert_eq!(
            Workload::gpr_sweep(1000.0, 2000.0, 0).unwrap_err(),
            WorkloadError::Empty { what: "GPR sweep" }
        );
        assert!(matches!(
            Workload::gpr_sweep(2000.0, 1000.0, 3).unwrap_err(),
            WorkloadError::InvalidRange { .. }
        ));
        assert!(Workload::gpr_sweep(-1.0, 1.0, 2).is_err());
        assert!(Workload::gpr_sweep(1.0, f64::INFINITY, 2).is_err());
        match Workload::gpr_sweep(1000.0, 3000.0, 3).unwrap() {
            Workload::Scenarios(s) => {
                assert_eq!(
                    s,
                    vec![
                        Scenario::gpr(1000.0),
                        Scenario::gpr(2000.0),
                        Scenario::gpr(3000.0)
                    ]
                );
            }
            other => panic!("wrong shape: {other:?}"),
        }
        // A single-point sweep is the low endpoint.
        match Workload::gpr_sweep(5000.0, 5000.0, 1).unwrap() {
            Workload::Scenarios(s) => assert_eq!(s, vec![Scenario::gpr(5000.0)]),
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn soil_sweep_constructor_validates() {
        assert!(Workload::soil_sweep(0, 1, 0.1, vec![]).is_err());
        assert!(Workload::soil_sweep(4, 1, -0.1, vec![]).is_err());
        assert!(Workload::soil_sweep(4, 1, f64::NAN, vec![]).is_err());
        assert!(Workload::soil_sweep(4, 1, 0.1, vec![]).is_ok());
    }

    #[test]
    fn sample_soils_is_seed_deterministic() {
        let base = SoilModel::two_layer(0.005, 0.016, 1.0);
        let spec = SoilSweepSpec {
            samples: 8,
            seed: 42,
            sigma: 0.2,
            scenarios: vec![Scenario::gpr(10_000.0)],
        };
        assert_eq!(sample_soils(&base, &spec), sample_soils(&base, &spec));
        let other = SoilSweepSpec {
            seed: 43,
            ..spec.clone()
        };
        assert_ne!(sample_soils(&base, &spec), sample_soils(&base, &other));
    }

    #[test]
    fn quantiles_interpolate_sorted_values() {
        let q = quantiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(q.p50, 3.0);
        assert!((q.p10 - 1.4).abs() < 1e-12);
        assert!((q.p90 - 4.6).abs() < 1e-12);
        let single = quantiles(&[7.0]);
        assert_eq!((single.p10, single.p50, single.p90), (7.0, 7.0, 7.0));
    }

    #[test]
    fn soil_sweep_pooled_equals_serial_bitwise() {
        let network = rectangular_grid(tiny_spec());
        let base = SoilModel::two_layer(0.005, 0.016, 1.0);
        let spec = SoilSweepSpec {
            samples: 4,
            seed: 0xC0FFEE,
            sigma: 0.15,
            scenarios: vec![Scenario::gpr(10_000.0), Scenario::fault_current(25_000.0)],
        };
        let serial = run_soil_sweep(
            &tiny_study(&network, &base, SolveOptions::default()),
            &spec,
            &FreshSource,
        )
        .unwrap();
        assert_eq!(serial.len(), 4);
        for threads in [2, 3] {
            let opts = SolveOptions::default()
                .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
            let pooled =
                run_soil_sweep(&tiny_study(&network, &base, opts), &spec, &FreshSource).unwrap();
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.soil, b.soil);
                for (sa, sb) in a.solutions.iter().zip(&b.solutions) {
                    assert_eq!(sa.leakage, sb.leakage, "threads {threads}");
                    assert_eq!(sa.gpr, sb.gpr);
                    assert_eq!(sa.equivalent_resistance, sb.equivalent_resistance);
                }
            }
        }
    }

    #[test]
    fn sweep_quantiles_cover_the_sample_scatter() {
        let network = rectangular_grid(tiny_spec());
        let base = SoilModel::uniform(0.01);
        let spec = SoilSweepSpec {
            samples: 6,
            seed: 7,
            sigma: 0.3,
            scenarios: vec![Scenario::fault_current(25_000.0)],
        };
        let samples = run_soil_sweep(
            &tiny_study(&network, &base, SolveOptions::default()),
            &spec,
            &FreshSource,
        )
        .unwrap();
        let (gpr, req) = sweep_quantiles(&samples);
        assert!(gpr.p10 <= gpr.p50 && gpr.p50 <= gpr.p90);
        assert!(req.p10 < req.p90, "σ = 0.3 must scatter Req");
        // Fault-current scenarios: GPR = I·Req sample by sample.
        for s in &samples {
            let sol = &s.solutions[0];
            assert!((sol.gpr - 25_000.0 * sol.equivalent_resistance).abs() < 1e-6 * sol.gpr);
        }
    }

    #[test]
    fn design_search_scores_and_marks_pareto() {
        let criteria = SafetyCriteria {
            fault_duration: 0.5,
            body_weight: BodyWeight::Kg50,
            soil_resistivity: 100.0,
            surface_layer: None,
        };
        let w = Workload::design_search(
            tiny_spec(),
            5.0,
            10.0,
            2,
            vec![5_000.0, 10_000.0],
            criteria,
            ConductorMaterial::copper_hard_drawn(),
            40.0,
        )
        .unwrap();
        let spec = match w {
            Workload::DesignSearch(s) => s,
            other => panic!("wrong shape: {other:?}"),
        };
        let soil = SoilModel::uniform(0.01);
        let candidates = run_design_search(
            &soil,
            MeshOptions::default(),
            SolveOptions::default(),
            &spec,
        )
        .unwrap();
        assert_eq!(candidates.len(), 2);
        let (fine, coarse) = (&candidates[0], &candidates[1]);
        assert_eq!(fine.pitch, 5.0);
        assert!(fine.nx > coarse.nx);
        // Denser grid: more copper, lower resistance, lower utilization.
        assert!(fine.copper_kg > coarse.copper_kg);
        assert!(fine.equivalent_resistance < coarse.equivalent_resistance);
        assert!(fine.utilization < coarse.utilization);
        // Both sit on the (mass, utilization) Pareto front then.
        assert!(fine.pareto && coarse.pareto);
        for c in &candidates {
            assert!(c.section_mm2 > 0.0 && c.copper_kg > 0.0);
            assert!(c.worst_touch > 0.0 && c.worst_step > 0.0);
            assert!(c.utilization > 0.0);
            assert_eq!(
                c.safe,
                c.worst_touch <= c.touch_limit && c.worst_step <= c.step_limit
            );
        }
    }

    #[test]
    fn design_search_constructor_validates() {
        let criteria = SafetyCriteria {
            fault_duration: 0.5,
            body_weight: BodyWeight::Kg50,
            soil_resistivity: 100.0,
            surface_layer: None,
        };
        let mat = ConductorMaterial::copper_annealed();
        let ok = |lo: f64, hi: f64, n: usize, amps: Vec<f64>| {
            Workload::design_search(tiny_spec(), lo, hi, n, amps, criteria, mat, 40.0)
        };
        assert!(ok(5.0, 10.0, 0, vec![1000.0]).is_err());
        assert!(ok(10.0, 5.0, 2, vec![1000.0]).is_err());
        assert!(ok(0.01, 10.0, 2, vec![1000.0]).is_err(), "pitch too fine");
        assert!(ok(5.0, 10.0, 2, vec![]).is_err());
        assert!(ok(5.0, 10.0, 2, vec![-5.0]).is_err());
        assert!(ok(5.0, 10.0, 2, vec![1000.0]).is_ok());
    }

    #[test]
    fn pareto_marking_rejects_dominated_points() {
        let mut cands: Vec<DesignCandidate> = [(10.0, 0.5), (20.0, 0.4), (15.0, 0.6), (30.0, 0.3)]
            .iter()
            .map(|&(kg, util)| DesignCandidate {
                pitch: 1.0,
                nx: 1,
                ny: 1,
                dof: 1,
                conductor_length: 1.0,
                section_mm2: 1.0,
                copper_kg: kg,
                equivalent_resistance: 1.0,
                worst_touch: 1.0,
                worst_step: 1.0,
                touch_limit: 2.0,
                step_limit: 2.0,
                utilization: util,
                safe: true,
                pareto: false,
                profile: StudyProfile::default(),
            })
            .collect();
        mark_pareto(&mut cands);
        // (15, 0.6) is dominated by (10, 0.5); the rest are a front.
        assert_eq!(
            cands.iter().map(|c| c.pareto).collect::<Vec<_>>(),
            vec![true, true, false, true]
        );
    }
}
