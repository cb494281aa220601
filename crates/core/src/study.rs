//! The staged "prepare once, solve many scenarios" API.
//!
//! The paper's Table 6.1 shows matrix generation taking 1723.2 s of a
//! 1724.2 s run — yet a per-question entry point pays that cost on
//! *every* call. Real grounding studies ask many questions of one grid:
//! fault-current sweeps, seasonal GPR levels, safety margins. This module
//! is the plan/execute split that amortizes the expensive part:
//!
//! 1. [`GroundingSystem::prepare`] assembles the BEM system **once**
//!    and factorizes it **once** (both on the pool of
//!    [`SolveOptions::parallelism`](crate::formulation::SolveOptions);
//!    one thread is a one-thread pool whose regions run inline on the
//!    calling thread — the same assembly and factorization loops at
//!    every thread count), returning
//!    a reusable [`Study`] that owns the retained
//!    [`CholeskyFactor`]/[`LuFactor`]/PCG operator state.
//! 2. [`Study::solve`] / [`Study::solve_batch`] then answer
//!    [`Scenario`]s — prescribed GPR or prescribed fault current. The
//!    problem is linear, so the study solves its system **once**, for
//!    unit GPR (one back-substitution or one PCG run, on the first
//!    question asked), keeps that solution, and every scenario is an
//!    `O(N)` scaling of it — **bit-identical** to what N independent
//!    `prepare()` + [`Study::solve`] runs would have produced.
//!
//! Every failure on this path is a typed error ([`PrepareError`],
//! [`SolveError`]) instead of a panic. What a study paid is **one
//! record**: every assembler returns an [`AssemblyCost`], the one
//! constructor stores it in the study's [`StudyProfile`], and
//! [`Study::profile`] hands that out whole — the CAD `--timing` report,
//! the phase table and the bench rows render it, and profiles of several
//! studies add with `+=`.
//!
//! ```
//! use layerbem_core::formulation::SolveOptions;
//! use layerbem_core::study::Scenario;
//! use layerbem_core::system::GroundingSystem;
//! use layerbem_geometry::conductor::ground_rod;
//! use layerbem_geometry::{ConductorNetwork, Mesher, Point3};
//! use layerbem_soil::SoilModel;
//!
//! let mut net = ConductorNetwork::new();
//! net.add(ground_rod(Point3::new(0.0, 0.0, 0.5), 3.0, 0.007));
//! let mesh = Mesher::default().mesh(&net);
//! let system = GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default());
//!
//! // Assemble + factorize once…
//! let study = system.prepare().expect("well-posed BEM system");
//! // …then sweep scenarios: one unit solve, a scaling per scenario.
//! let sweep = study
//!     .solve_batch(&[
//!         Scenario::gpr(5_000.0),
//!         Scenario::gpr(10_000.0),
//!         Scenario::fault_current(25_000.0),
//!     ])
//!     .expect("scenarios are positive");
//! assert_eq!(sweep.len(), 3);
//! assert_eq!(study.profile().assembly.assemblies, 1);
//! ```

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use layerbem_numeric::cholesky::{CholeskyFactor, NotPositiveDefinite};
use layerbem_numeric::lu::{LuFactor, SingularMatrix};
use layerbem_numeric::pcg::{pcg_solve, LinearOperator, PcgOptions};
use layerbem_numeric::{AcaError, HMatrix, SymMatrix};

use crate::assembly::{
    assemble_collocation, assemble_hierarchical, galerkin_rhs, AssemblyCost, AssemblyReport,
};
use crate::formulation::{Formulation, OperatorBackend, SolveOptions, SolverChoice};
use crate::kernel::SoilKernel;
use crate::system::{GroundingSolution, GroundingSystem};

/// One question asked of a prepared grounding system.
///
/// The BEM problem is linear, so every scenario is answered from the same
/// retained factorization: a prescribed-GPR scenario scales the unit-GPR
/// solution by its voltage, a prescribed-fault-current scenario finds the
/// GPR that leaks exactly the prescribed current (`GPR = I·Req`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scenario {
    /// Energize the grid to a prescribed Ground Potential Rise (V).
    Gpr {
        /// The prescribed GPR (V); must be positive and finite.
        volts: f64,
    },
    /// Inject a prescribed fault current (A); the GPR follows by
    /// linearity (`GPR = I·Req`).
    FaultCurrent {
        /// The prescribed total fault current (A); must be positive and
        /// finite.
        amps: f64,
    },
}

impl Scenario {
    /// Prescribed-GPR scenario (the classical energization question).
    pub fn gpr(volts: f64) -> Self {
        Scenario::Gpr { volts }
    }

    /// Prescribed-fault-current scenario.
    pub fn fault_current(amps: f64) -> Self {
        Scenario::FaultCurrent { amps }
    }

    /// The prescribed drive value (volts or amps, per the variant).
    pub fn drive(&self) -> f64 {
        match *self {
            Scenario::Gpr { volts } => volts,
            Scenario::FaultCurrent { amps } => amps,
        }
    }

    /// Whether the drive is a usable (positive, finite) number.
    fn is_valid(&self) -> bool {
        let v = self.drive();
        v > 0.0 && v.is_finite()
    }

    /// Checks every drive of a scenario list, reporting the first
    /// unusable one as the error [`Study::solve_batch`] would raise — so
    /// a front end can refuse a request before it prepares anything.
    pub fn validate(scenarios: &[Scenario]) -> Result<(), SolveError> {
        match scenarios.iter().find(|s| !s.is_valid()) {
            Some(bad) => Err(SolveError::NonPositiveDrive { scenario: *bad }),
            None => Ok(()),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Scenario::Gpr { volts } => write!(f, "GPR {volts} V"),
            Scenario::FaultCurrent { amps } => write!(f, "fault current {amps} A"),
        }
    }
}

/// Why [`GroundingSystem::prepare`] could not produce a [`Study`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PrepareError {
    /// The symmetric factorization failed: the assembled Galerkin matrix
    /// is not positive definite (a broken discretization or kernel).
    NotPositiveDefinite(NotPositiveDefinite),
    /// The LU factorization failed: the assembled matrix is numerically
    /// singular.
    Singular(SingularMatrix),
    /// The hierarchical backend's ACA compression could not reach its
    /// tolerance within the far-block rank cap — the operator would
    /// silently densify; tighten the leaf size or loosen the tolerance.
    Aca(AcaError),
    /// The requested operator backend does not support the configured
    /// formulation/solver combination (the hierarchical backend serves
    /// the Galerkin formulation with the conjugate-gradient solver only).
    UnsupportedBackend(&'static str),
    /// Some image series of the assembly reached its group cap before
    /// its tolerance: the layers' contrast (|κ| close to 1) is too strong
    /// for the series kernel, and the truncated potentials would come out
    /// percent-level low without a word.
    SeriesCap {
        /// The soil's reflection ratio κ = (γ₁ − γ₂)/(γ₁ + γ₂).
        kappa: f64,
        /// The group cap every series stops at.
        max_terms: usize,
    },
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::NotPositiveDefinite(e) => {
                write!(f, "cannot factorize the BEM system: {e}")
            }
            PrepareError::Singular(e) => write!(f, "cannot factorize the BEM system: {e}"),
            PrepareError::Aca(e) => write!(f, "cannot compress the BEM system: {e}"),
            PrepareError::UnsupportedBackend(why) => {
                write!(f, "unsupported operator backend: {why}")
            }
            PrepareError::SeriesCap { kappa, max_terms } => write!(
                f,
                "the image series does not converge within {max_terms} groups \
                 (reflection ratio κ = {kappa}): the layer contrast is too strong"
            ),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<NotPositiveDefinite> for PrepareError {
    fn from(e: NotPositiveDefinite) -> Self {
        PrepareError::NotPositiveDefinite(e)
    }
}

impl From<SingularMatrix> for PrepareError {
    fn from(e: SingularMatrix) -> Self {
        PrepareError::Singular(e)
    }
}

impl From<AcaError> for PrepareError {
    fn from(e: AcaError) -> Self {
        PrepareError::Aca(e)
    }
}

/// Why [`Study::solve`] could not answer a [`Scenario`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolveError {
    /// The scenario's prescribed GPR or fault current is not a positive
    /// finite number.
    NonPositiveDrive {
        /// The offending scenario.
        scenario: Scenario,
    },
    /// The iterative solver stalled before reaching its tolerance.
    IterationLimit {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// The unit-GPR solution leaked non-positive total current — a
    /// non-physical system (broken mesh orientation or kernel).
    NonPositiveCurrent {
        /// The computed unit-GPR total current.
        total: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NonPositiveDrive { scenario } => {
                write!(f, "scenario drive must be positive and finite ({scenario})")
            }
            SolveError::IterationLimit { iterations } => {
                write!(f, "PCG failed to converge in {iterations} iterations")
            }
            SolveError::NonPositiveCurrent { total } => {
                write!(f, "total leaked current must be positive (got {total})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Phase instrumentation of a [`Study`]: what `prepare` (and any edits
/// since) paid, and how many scenarios that investment has served so far.
///
/// A scenario sweep through one `Study` shows `assembly.assemblies == 1`,
/// `factorizations <= 1` and `unit_solves == 1` no matter how many
/// scenarios follow. Profiles add with `+=` (and `sum()`), so a soil
/// sweep or design search reports the total over its studies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StudyProfile {
    /// What matrix generation cost, summed over every full assembly
    /// (`assembly.assemblies`: 1 per prepare, plus 1 per
    /// topology-changing edit, each of which rebuilds the operator).
    pub assembly: AssemblyCost,
    /// Factorizations performed: 1 for the direct solvers, 0 for the
    /// iterative path (PCG retains the assembled operator instead of a
    /// factor); edits that refactorize add to it.
    pub factorizations: usize,
    /// Wall-clock seconds of those factorizations (0 for PCG).
    pub factor_seconds: f64,
    /// Engine solves paid (a back-substitution or a PCG run for unit
    /// GPR): at most 1 per prepare plus 1 per edit that changed the
    /// system, however many scenarios were scaled from them.
    pub unit_solves: usize,
    /// Scenario solves served since `prepare`.
    pub scenario_solves: usize,
    /// Incremental edits applied through [`Study::apply_edit`] (0 for
    /// studies prepared without edit state).
    pub edits: usize,
    /// What re-integrating touched pairs cost across all moved edits —
    /// the incremental counterpart of `assembly` (0 `assemblies`): each
    /// changed pair is placed twice (`pairs`, old and new geometry),
    /// `pairs_evaluated` counts the classes integrated over both
    /// geometries, and `kernel_seconds` is the integrate phase's wall
    /// time.
    pub reintegrate: AssemblyCost,
    /// Seconds updating or refactorizing the engine across all moved
    /// edits (the incremental counterpart of `factor_seconds`).
    pub update_seconds: f64,
}

impl std::ops::AddAssign for StudyProfile {
    fn add_assign(&mut self, other: StudyProfile) {
        self.assembly += other.assembly;
        self.factorizations += other.factorizations;
        self.factor_seconds += other.factor_seconds;
        self.unit_solves += other.unit_solves;
        self.scenario_solves += other.scenario_solves;
        self.edits += other.edits;
        self.reintegrate += other.reintegrate;
        self.update_seconds += other.update_seconds;
    }
}

impl std::iter::Sum for StudyProfile {
    fn sum<I: Iterator<Item = StudyProfile>>(profiles: I) -> StudyProfile {
        profiles.fold(StudyProfile::default(), |mut total, p| {
            total += p;
            total
        })
    }
}

/// The retained solver state: exactly one variant per
/// [`SolverChoice`](crate::formulation::SolverChoice) path.
#[derive(Clone)]
pub(crate) enum Engine {
    /// Packed `L·Lᵀ` factor of the Galerkin matrix.
    Cholesky(CholeskyFactor),
    /// Pivoted LU of the dense (Galerkin-expanded or collocation) matrix.
    Lu(LuFactor),
    /// The assembled Galerkin operator, retained for the unit-GPR PCG
    /// run (serial, diagonal preconditioner built for that run; every
    /// study of one system reaches the same bits).
    Pcg(SymMatrix),
    /// The compressed Galerkin operator (near-dense + ACA far blocks),
    /// retained for the unit-GPR PCG run through the same
    /// `LinearOperator` trait the dense engine uses.
    Hierarchical(HMatrix),
}

/// The unit-GPR solution every scenario is a scaling of.
#[derive(Clone)]
struct UnitSolution {
    /// Leakage density at unit GPR (the engine's solve of `rhs`).
    q: Vec<f64>,
    /// Total current leaked at unit GPR, `IΓ = Σ qᵢνᵢ` (positive).
    i_unit: f64,
    /// Iterations the engine took (0 for the direct engines).
    iterations: usize,
}

/// A prepared grounding study: the assembled-and-factorized system of one
/// [`GroundingSystem`], reusable across any number of [`Scenario`]s.
///
/// Created by [`GroundingSystem::prepare`] (or
/// [`prepare_assembled`](GroundingSystem::prepare_assembled)). The handle
/// owns everything it needs — factor, right-hand side, current weights,
/// solve options — so it may outlive the system that built it.
pub struct Study {
    pub(crate) opts: SolveOptions,
    pub(crate) engine: Engine,
    /// Unit-GPR right-hand side of the retained formulation (`ν` for
    /// Galerkin, the unit boundary potentials for collocation).
    pub(crate) rhs: Vec<f64>,
    /// Galerkin weights `ν_i = ∫ N_i dΓ` for the current integral
    /// `IΓ = Σ q_i ν_i` (identical to `rhs` for Galerkin).
    pub(crate) nu: Vec<f64>,
    /// Per-column series terms of the latest assembly (dense Galerkin
    /// only; empty otherwise) — a profile, not a total.
    pub(crate) column_terms: Vec<u64>,
    /// What this study has paid so far, stored once; `scenario_solves`
    /// stays 0 here and is read from `solves` by [`Study::profile`], and
    /// `unit_solves` counts only the memos edits have retired.
    pub(crate) spent: StudyProfile,
    pub(crate) solves: AtomicUsize,
    /// The unit-GPR solve of the current engine, paid by the first
    /// scenario asked and kept (a deterministic failure included) until
    /// [`Study::apply_edit`] changes the system.
    unit: OnceLock<Result<UnitSolution, SolveError>>,
    /// Incremental-edit state ([`crate::incremental`]): the retained
    /// mesh, kernel and (for the direct engine) assembled operator that
    /// [`Study::apply_edit`] diffs and scatters into. `None` for studies
    /// prepared through the ordinary paths — editing is opt-in via
    /// [`GroundingSystem::prepare_editable`], because retaining the
    /// assembled operator next to its factor doubles the direct engine's
    /// resident footprint.
    pub(crate) edit: Option<Box<crate::incremental::EditState>>,
}

impl std::fmt::Debug for Study {
    /// `Study` carries large owned buffers; summarize instead of dumping.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("dof", &self.rhs.len())
            .field("profile", &self.profile())
            .finish_non_exhaustive()
    }
}

impl Study {
    /// Assembles and factorizes `system`.
    pub(crate) fn prepare(system: &GroundingSystem) -> Result<Study, PrepareError> {
        let opts = *system.options();
        match (opts.formulation, opts.backend) {
            (Formulation::Galerkin, OperatorBackend::Dense) => {
                Study::from_galerkin(opts, system.kernel(), Cow::Owned(system.assemble()), false)
                    .map(|(s, _)| s)
            }
            (Formulation::Galerkin, OperatorBackend::Hierarchical { tol, leaf_size }) => {
                // The compressed operator cannot be factorized, so the
                // hierarchical backend serves PCG only.
                if opts.solver != SolverChoice::ConjugateGradient {
                    return Err(PrepareError::UnsupportedBackend(
                        "the hierarchical backend supports only the \
                         conjugate-gradient solver",
                    ));
                }
                let rep =
                    assemble_hierarchical(system.mesh(), system.kernel(), &opts, tol, leaf_size)?;
                let kernel = system.kernel();
                Study::assembled(
                    opts,
                    kernel,
                    rep.cost,
                    rep.rhs.clone(),
                    rep.rhs,
                    Vec::new(),
                    || Ok((Engine::Hierarchical(rep.operator), 0)),
                )
            }
            (Formulation::Collocation, OperatorBackend::Dense) => {
                let (c, rhs, cost) = assemble_collocation(system.mesh(), system.kernel(), &opts);
                let nu = galerkin_rhs(system.mesh());
                Study::assembled(opts, system.kernel(), cost, rhs, nu, Vec::new(), || {
                    let par = &opts.parallelism;
                    let lu = LuFactor::factor_in_place(c, &par.pool, par.schedule)?;
                    Ok((Engine::Lu(lu), 1))
                })
            }
            (Formulation::Collocation, OperatorBackend::Hierarchical { .. }) => {
                Err(PrepareError::UnsupportedBackend(
                    "the hierarchical backend requires the Galerkin formulation",
                ))
            }
        }
    }

    /// The one way an assembled operator becomes a `Study`: `factor`
    /// builds the retained engine (and counts its factorizations), timed
    /// here; `column_terms` is the per-column terms profile. An
    /// assembly that capped a series of `kernel` is refused here, before
    /// anything is factorized.
    fn assembled(
        opts: SolveOptions,
        kernel: &SoilKernel,
        cost: AssemblyCost,
        rhs: Vec<f64>,
        nu: Vec<f64>,
        column_terms: Vec<u64>,
        factor: impl FnOnce() -> Result<(Engine, usize), PrepareError>,
    ) -> Result<Study, PrepareError> {
        if cost.kernel.capped_series > 0 {
            let (kappa, max_terms) = kernel.series_limits();
            return Err(PrepareError::SeriesCap { kappa, max_terms });
        }
        let t = Instant::now();
        let (engine, factorizations) = factor()?;
        Ok(Study {
            opts,
            engine,
            rhs,
            nu,
            column_terms,
            spent: StudyProfile {
                assembly: cost,
                factorizations,
                factor_seconds: t.elapsed().as_secs_f64(),
                ..StudyProfile::default()
            },
            solves: AtomicUsize::new(0),
            unit: OnceLock::new(),
            edit: None,
        })
    }

    /// Dense-Galerkin prepare from a generated report — shared by
    /// `prepare`, `prepare_assembled`, `prepare_editable` and the edit
    /// rebuild. A borrowed report's matrix is cloned only if the engine
    /// must own it. With `retain`, a direct engine's assembled operator
    /// comes back beside the study for the edit state to keep (the PCG
    /// engine owns the operator itself: `None`).
    pub(crate) fn from_galerkin(
        opts: SolveOptions,
        kernel: &SoilKernel,
        report: Cow<'_, AssemblyReport>,
        retain: bool,
    ) -> Result<(Study, Option<SymMatrix>), PrepareError> {
        let (matrix, rhs, column_terms, cost) = match report {
            Cow::Owned(r) => (Cow::Owned(r.matrix), r.rhs, r.column_terms, r.cost),
            Cow::Borrowed(r) => (
                Cow::Borrowed(&r.matrix),
                r.rhs.clone(),
                r.column_terms.clone(),
                r.cost,
            ),
        };
        let retain = retain && opts.solver != SolverChoice::ConjugateGradient;
        let mut retained = None;
        let study = Study::assembled(opts, kernel, cost, rhs.clone(), rhs, column_terms, || {
            if retain {
                let built = Study::galerkin_engine(&opts, Cow::Borrowed(&*matrix))?;
                retained = Some(matrix.into_owned());
                Ok(built)
            } else {
                Study::galerkin_engine(&opts, matrix)
            }
        })?;
        Ok((study, retained))
    }

    /// Builds the retained engine from a Galerkin matrix. An owned
    /// matrix becomes the engine — kept by PCG, overwritten with its own
    /// factor by Cholesky — so operator and factor are never resident
    /// side by side; a borrowed one is cloned once for the same step.
    pub(crate) fn galerkin_engine(
        opts: &SolveOptions,
        matrix: Cow<'_, SymMatrix>,
    ) -> Result<(Engine, usize), PrepareError> {
        let (pool, schedule) = (&opts.parallelism.pool, opts.parallelism.schedule);
        Ok(match opts.solver {
            SolverChoice::ConjugateGradient => (Engine::Pcg(matrix.into_owned()), 0),
            SolverChoice::Cholesky => (
                Engine::Cholesky(CholeskyFactor::factor_in_place(
                    matrix.into_owned(),
                    pool,
                    schedule,
                )?),
                1,
            ),
            SolverChoice::Lu => (
                Engine::Lu(LuFactor::factor_in_place(
                    matrix.to_dense(),
                    pool,
                    schedule,
                )?),
                1,
            ),
        })
    }

    /// Degrees of freedom of the prepared system.
    pub fn dof(&self) -> usize {
        self.rhs.len()
    }

    /// Bytes this study keeps resident for the lifetime of the handle —
    /// the currency of a serving cache's eviction policy. Counts the
    /// retained engine (packed Cholesky triangle `8·N(N+1)/2`, dense LU
    /// `8·N²` plus its pivot permutation, the packed PCG operator, or the
    /// hierarchical backend's exact compressed footprint) plus the
    /// right-hand-side, weight and unit-solution vectors. The unit
    /// solution is counted from construction on, solved yet or not, so
    /// the figure a cache charged at insert stays exact when the first
    /// request fills it. The per-column instrumentation profiles are
    /// excluded: they are diagnostics, not factors, and scale as O(N)
    /// next to the O(N²) engine.
    pub fn resident_bytes(&self) -> usize {
        let vectors = 8 * (self.rhs.len() + self.nu.len() + self.dof());
        let engine = match &self.engine {
            Engine::Cholesky(f) => 8 * f.packed_l().len(),
            Engine::Lu(f) => 8 * f.lu_entries().len() + std::mem::size_of_val(f.permutation()),
            Engine::Pcg(m) => 8 * m.packed().len(),
            Engine::Hierarchical(hm) => hm.resident_bytes(),
        };
        // Editable studies additionally retain the assembled operator for
        // the fallback refactorization (direct engine only); the mesh and
        // kernel they also keep are O(N) next to it, excluded like the
        // instrumentation profiles.
        let edit = self
            .edit
            .as_deref()
            .map_or(0, |e| e.retained_matrix_bytes());
        engine + vectors + edit
    }

    /// The solve options the study was prepared with.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// An immutable snapshot of this study with the incremental-edit
    /// state dropped: the form a serving cache shares behind an `Arc`
    /// after a session finishes editing. The engine, right-hand side,
    /// unit solution (if already solved) and instrumentation are cloned
    /// as-is (solutions bit-identical to the edited original, the first
    /// one already a scaling); the retained mesh/operator stays with the
    /// private editable handle, so the snapshot's
    /// [`resident_bytes`](Self::resident_bytes) drops back to the
    /// ordinary engine formula.
    pub fn frozen_clone(&self) -> Study {
        Study {
            opts: self.opts,
            engine: self.engine.clone(),
            rhs: self.rhs.clone(),
            nu: self.nu.clone(),
            column_terms: self.column_terms.clone(),
            spent: self.spent,
            solves: AtomicUsize::new(self.solves.load(Ordering::Relaxed)),
            unit: self.unit.clone(),
            edit: None,
        }
    }

    /// Series terms per column of the latest assembly.
    pub fn column_terms(&self) -> &[u64] {
        &self.column_terms
    }

    /// Total series terms matrix generation consumed
    /// (`profile().assembly.kernel.terms`), over every assembly this
    /// study ran.
    pub fn total_terms(&self) -> u64 {
        self.spent.assembly.kernel.terms
    }

    /// What this study paid and how many scenarios it has served.
    pub fn profile(&self) -> StudyProfile {
        StudyProfile {
            unit_solves: self.spent.unit_solves + usize::from(self.unit.get().is_some()),
            scenario_solves: self.solves.load(Ordering::Relaxed),
            ..self.spent
        }
    }

    /// Answers one scenario as an `O(N)` scaling of the study's unit-GPR
    /// solution, which the first question asked of a study pays for (one
    /// back-substitution, or one PCG run on the iterative engines) and
    /// every later one — from any thread — reuses.
    ///
    /// The result is **bit-identical** to a fresh `prepare()` + `solve`
    /// of the same question, and to the same scenario's entry in a
    /// [`solve_batch`](Self::solve_batch). A unit solve that fails
    /// (`IterationLimit`, `NonPositiveCurrent`) is deterministic, so its
    /// error is kept and returned without running again.
    pub fn solve(&self, scenario: &Scenario) -> Result<GroundingSolution, SolveError> {
        // Validate first: an invalid drive must not cost the unit solve
        // or count as a served scenario.
        Scenario::validate(std::slice::from_ref(scenario))?;
        let solution = self.unit_solution()?.scaled_to(scenario);
        // Count only successfully served scenarios.
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(solution)
    }

    /// Answers a whole scenario sweep: [`solve`](Self::solve) per
    /// scenario, so at most one engine solve however long the sweep.
    ///
    /// The first invalid scenario aborts the batch with its error before
    /// anything is solved or counted.
    pub fn solve_batch(
        &self,
        scenarios: &[Scenario],
    ) -> Result<Vec<GroundingSolution>, SolveError> {
        Scenario::validate(scenarios)?;
        scenarios.iter().map(|s| self.solve(s)).collect()
    }

    /// The unit-GPR solution of the current engine, solved on first use.
    fn unit_solution(&self) -> Result<&UnitSolution, SolveError> {
        let memo = self.unit.get_or_init(|| {
            let (q, iterations) = self.solve_unit()?;
            // IΓ = ∫ q dΓ = Σ_i q_i ∫ N_i = Σ_i q_i ν_i. NaN fails the
            // comparison and is (correctly) reported as non-physical.
            let i_unit: f64 = q.iter().zip(&self.nu).map(|(q, n)| q * n).sum();
            if i_unit.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(SolveError::NonPositiveCurrent { total: i_unit });
            }
            Ok(UnitSolution {
                q,
                i_unit,
                iterations,
            })
        });
        memo.as_ref().map_err(|e| *e)
    }

    /// Drops the unit solution because the system it solved is about to
    /// change, keeping the solve it cost on the books.
    pub(crate) fn retire_unit_solution(&mut self) {
        if self.unit.take().is_some() {
            self.spent.unit_solves += 1;
        }
    }

    /// Solves the retained system for unit GPR; returns the unit leakage
    /// density and the iteration count (0 for the direct engines).
    fn solve_unit(&self) -> Result<(Vec<f64>, usize), SolveError> {
        let op: &dyn LinearOperator = match &self.engine {
            Engine::Cholesky(f) => return Ok((f.solve(&self.rhs), 0)),
            Engine::Lu(f) => return Ok((f.solve(&self.rhs), 0)),
            Engine::Pcg(matrix) => matrix,
            Engine::Hierarchical(hm) => hm,
        };
        let out = pcg_solve(op, &self.rhs, PcgOptions::default());
        if !out.converged {
            return Err(SolveError::IterationLimit {
                iterations: out.history.iterations(),
            });
        }
        Ok((out.x, out.history.iterations()))
    }
}

impl UnitSolution {
    /// The scenario's answer: the unit solution times the GPR the
    /// scenario prescribes or implies. Replies are pinned bit for bit, so
    /// `gpr / (i_unit·gpr)` must not be simplified to `1 / i_unit`.
    fn scaled_to(&self, scenario: &Scenario) -> GroundingSolution {
        let resistance_at = |gpr: f64| gpr / (self.i_unit * gpr);
        let (gpr, total_current, equivalent_resistance) = match *scenario {
            Scenario::Gpr { volts } => (volts, self.i_unit * volts, resistance_at(volts)),
            // The GPR that leaks exactly the prescribed current, by
            // linearity from the unit-GPR answer.
            Scenario::FaultCurrent { amps } => {
                let req = resistance_at(1.0);
                (amps * req, amps, req)
            }
        };
        GroundingSolution {
            leakage: self.q.iter().map(|q| q * gpr).collect(),
            gpr,
            total_current,
            equivalent_resistance,
            solver_iterations: self.iterations,
            scenario: *scenario,
        }
    }
}

/// Compile-time guarantee that prepared studies may be shared across
/// server threads behind an `Arc`: every engine variant is immutable
/// after prepare and the only interior mutability is the atomic solve
/// counter and the write-once unit solution. If a future engine smuggles in a non-`Sync` member (an `Rc`,
/// a raw pointer, a `RefCell`), this stops compiling — the serving layer
/// finds out at build time, not as a data race.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Study>();
    assert_send_sync::<Scenario>();
    assert_send_sync::<PrepareError>();
    assert_send_sync::<SolveError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{Formulation, SolveOptions, SolverChoice};
    use layerbem_geometry::conductor::ground_rod;
    use layerbem_geometry::{ConductorNetwork, MeshOptions, Mesher, Point3};
    use layerbem_soil::SoilModel;

    fn rod_mesh(n_elems: usize) -> layerbem_geometry::Mesh {
        let mut net = ConductorNetwork::new();
        net.add(ground_rod(Point3::new(0.0, 0.0, 0.5), 3.0, 0.007));
        Mesher::new(MeshOptions {
            max_element_length: 3.0 / n_elems as f64 + 1e-9,
        })
        .mesh(&net)
    }

    fn system(solver: SolverChoice) -> GroundingSystem {
        GroundingSystem::new(
            rod_mesh(6),
            &SoilModel::uniform(0.016),
            SolveOptions {
                solver,
                ..Default::default()
            },
        )
    }

    /// One system per engine: PCG, Cholesky and LU on the dense Galerkin
    /// operator, LU on the collocation matrix, PCG on the compressed one.
    fn every_engine() -> Vec<GroundingSystem> {
        let hier = OperatorBackend::Hierarchical {
            tol: 1e-8,
            leaf_size: 4,
        };
        [
            SolveOptions::default(),
            SolveOptions {
                solver: SolverChoice::Cholesky,
                ..Default::default()
            },
            SolveOptions {
                solver: SolverChoice::Lu,
                ..Default::default()
            },
            SolveOptions {
                formulation: Formulation::Collocation,
                ..Default::default()
            },
            SolveOptions::default().with_backend(hier),
        ]
        .into_iter()
        .map(|opts| GroundingSystem::new(rod_mesh(24), &SoilModel::uniform(0.016), opts))
        .collect()
    }

    fn assert_same_bits(a: &GroundingSolution, b: &GroundingSolution, what: &str) {
        assert_eq!(a.leakage, b.leakage, "{what}");
        assert_eq!(a.gpr, b.gpr, "{what}");
        assert_eq!(a.total_current, b.total_current, "{what}");
        assert_eq!(a.equivalent_resistance, b.equivalent_resistance, "{what}");
        assert_eq!(a.solver_iterations, b.solver_iterations, "{what}");
        assert_eq!(a.scenario, b.scenario, "{what}");
    }

    #[test]
    fn a_capped_image_series_is_a_typed_refusal() {
        // γ₁/γ₂ = 1e-4 and 1e4: |κ| ≈ 0.9998, so the image series would
        // need ~10⁵ groups; each one stops at the cap instead, and the
        // potentials would come out percent-level low.
        for (g1, g2) in [(1e-4, 1.0), (1.0, 1e-4)] {
            let soil = SoilModel::two_layer(g1, g2, 1.0);
            let sys = GroundingSystem::new(rod_mesh(1), &soil, SolveOptions::default());
            let want = PrepareError::SeriesCap {
                kappa: soil.reflection_ratio(),
                max_terms: layerbem_soil::default_series_options().max_terms,
            };
            let err = sys.prepare().expect_err("capped series");
            assert_eq!(err, want);
            assert!(err.to_string().contains("within 4000 groups"), "{err}");
            assert_eq!(sys.prepare_editable().err(), Some(want));
        }
        // The paper's soils stop far inside the cap.
        let paper = SoilModel::two_layer(0.005, 0.016, 1.0);
        let sys = GroundingSystem::new(rod_mesh(2), &paper, SolveOptions::default());
        let study = sys.prepare().expect("prepares");
        assert_eq!(study.profile().assembly.kernel.capped_series, 0);
    }

    #[test]
    fn staged_solutions_match_legacy_solves_bitwise() {
        let scenarios: Vec<Scenario> = (1..=32)
            .map(|i| match i % 3 {
                0 => Scenario::fault_current(1_250.0 * i as f64),
                _ => Scenario::gpr(312.5 * i as f64),
            })
            .collect();
        for sys in every_engine() {
            let what = format!("{:?}", sys.options());
            // One study asked 32 questions at once, one asked them one by
            // one: each pays a single engine solve…
            let batched = sys.prepare().expect("prepare");
            assert_eq!(batched.profile().unit_solves, 0, "{what}: solved lazily");
            let batch = batched.solve_batch(&scenarios).expect("batch");
            let single = sys.prepare().expect("prepare");
            for (s, from_batch) in scenarios.iter().zip(&batch) {
                // …and answers with the bits of a study prepared for that
                // question alone.
                let legacy = sys.prepare().expect("prepare").solve(s).expect("solve");
                assert_same_bits(&legacy, from_batch, &what);
                assert_same_bits(&legacy, &single.solve(s).expect("solve"), &what);
            }
            for study in [&batched, &single] {
                let p = study.profile();
                assert_eq!((p.unit_solves, p.scenario_solves), (1, 32), "{what}");
            }
        }
    }

    #[test]
    fn concurrent_first_solves_share_one_unit_solve() {
        use std::sync::{Arc, Barrier};
        // Eight threads race for the first question of a fresh PCG study:
        // one runs the Krylov solve, the rest wait for it and scale.
        let sys = system(SolverChoice::ConjugateGradient);
        let study = Arc::new(sys.prepare().expect("prepare"));
        let s = Scenario::fault_current(25_000.0);
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (study, barrier) = (Arc::clone(&study), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    study.solve(&s).expect("solve")
                })
            })
            .collect();
        let expected = sys.prepare().expect("prepare").solve(&s).expect("solve");
        for h in handles {
            assert_same_bits(&h.join().expect("thread"), &expected, "racing solve");
        }
        let p = study.profile();
        assert_eq!((p.unit_solves, p.scenario_solves), (1, 8));
    }

    #[test]
    fn a_failed_unit_solve_is_kept_not_rerun() {
        // A PCG study driven by the negated right-hand side: the solve
        // converges to −A⁻¹ν, whose total current is negative — a
        // deterministic failure of the unit solve.
        let opts = SolveOptions::default();
        let system = GroundingSystem::new(rod_mesh(24), &SoilModel::uniform(0.016), opts);
        let report = system.assemble();
        let negated = report.rhs.iter().map(|v| -v).collect();
        let kernel = system.kernel();
        let study = Study::assembled(
            opts,
            kernel,
            report.cost,
            negated,
            report.rhs,
            Vec::new(),
            || Ok((Engine::Pcg(report.matrix), 0)),
        )
        .expect("prepare");
        let first = study
            .solve(&Scenario::gpr(1.0))
            .expect_err("negative current");
        assert!(
            matches!(first, SolveError::NonPositiveCurrent { .. }),
            "{first}"
        );
        assert_eq!(study.solve(&Scenario::gpr(2.0)).err(), Some(first));
        let sweep = [Scenario::gpr(3.0), Scenario::fault_current(4.0)];
        assert_eq!(study.solve_batch(&sweep).map(|v| v.len()), Err(first));
        let p = study.profile();
        assert_eq!((p.unit_solves, p.scenario_solves), (1, 0));
    }

    #[test]
    fn solve_batch_is_bitwise_per_scenario_solve_and_amortizes_prepare() {
        let sys = system(SolverChoice::Cholesky);
        let study = sys.prepare().expect("prepare");
        let scenarios: Vec<Scenario> = (1..=16).map(|i| Scenario::gpr(625.0 * i as f64)).collect();
        let batch = study.solve_batch(&scenarios).expect("batch");
        assert_eq!(batch.len(), 16);
        for (sol, s) in batch.iter().zip(&scenarios) {
            let single = study.solve(s).expect("solve");
            assert_eq!(sol.leakage, single.leakage);
            assert_eq!(sol.equivalent_resistance, single.equivalent_resistance);
            assert_eq!(sol.scenario, *s);
        }
        // The acceptance invariant: the 16-scenario sweep (plus the 16
        // cross-check singles) paid exactly one assembly and one
        // factorization.
        let profile = study.profile();
        assert_eq!(profile.assembly.assemblies, 1);
        assert_eq!(profile.factorizations, 1);
        assert_eq!(profile.scenario_solves, 32);
        assert!(profile.assembly.seconds > 0.0);
    }

    #[test]
    fn profile_reports_kernel_counters_per_eval_strategy() {
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let batched = GroundingSystem::new(mesh, &soil, SolveOptions::default())
            .prepare()
            .expect("prepare");
        let bp = batched.profile().assembly;
        assert_eq!(bp.kernel.terms, batched.total_terms());
        assert_eq!(bp.kernel.terms, batched.column_terms().iter().sum::<u64>());
        assert!(bp.kernel.terms > 0);
        assert!(bp.kernel_seconds > 0.0);
        assert!(bp.kernel_seconds <= bp.seconds);
        let occ = bp.lane_occupancy().expect("batched path fills lanes");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn collocation_profile_counts_kernel_terms() {
        // Every assembler reports through the one record: collocation and
        // the hierarchical backend (bulk counts, no column profile) agree
        // with `total_terms()` exactly like the dense engine above.
        let colloc = SolveOptions {
            formulation: Formulation::Collocation,
            ..Default::default()
        };
        let hier = SolveOptions::default().with_backend(OperatorBackend::Hierarchical {
            tol: 1e-8,
            leaf_size: 4,
        });
        for opts in [colloc, hier] {
            let study = GroundingSystem::new(rod_mesh(24), &SoilModel::uniform(0.016), opts)
                .prepare()
                .expect("prepare");
            let p = study.profile().assembly;
            assert_eq!(p.assemblies, 1);
            assert!(p.kernel.terms > 0, "{opts:?}: terms counted");
            assert_eq!(p.kernel.terms, study.total_terms());
            assert!(study.column_terms().is_empty());
            assert!(
                p.lane_occupancy().is_some(),
                "{opts:?}: the kernel runs on lanes"
            );
            assert_eq!(p.kernel_seconds, p.seconds, "reported whole");
        }
    }

    #[test]
    fn frozen_clones_and_sums_carry_the_whole_profile() {
        use crate::incremental::{EditOp, EditSession};
        let mut net = ConductorNetwork::new();
        net.add(ground_rod(Point3::new(0.0, 0.0, 0.5), 3.0, 0.007));
        let mut session = EditSession::open(
            net,
            &SoilModel::uniform(0.016),
            MeshOptions::default(),
            SolveOptions {
                solver: SolverChoice::Cholesky,
                ..Default::default()
            },
        )
        .expect("open");
        // A free-end move (incremental) then a second rod (rebuild).
        let grow = EditOp::MoveEnd {
            index: 0,
            end: crate::incremental::ConductorEnd::B,
            delta: [0.0, 0.0, 0.5],
        };
        let add = EditOp::Add {
            conductor: ground_rod(Point3::new(0.0, 0.0, 0.5), 2.0, 0.007),
        };
        session.apply(&grow).expect("move");
        session.apply(&add).expect("add");
        let study = session.study();
        study.solve(&Scenario::gpr(1.0)).expect("solve");
        let p = study.profile();
        assert_eq!(
            (p.edits, p.assembly.assemblies, p.scenario_solves),
            (2, 2, 1)
        );
        assert!(p.reintegrate.kernel.terms > 0);
        assert_eq!(study.frozen_clone().profile(), p);
        // `+=` adds every counter; occupancy is pooled from the counts.
        let twice: StudyProfile = [p, p].into_iter().sum();
        assert_eq!(twice.assembly.kernel.terms, 2 * p.assembly.kernel.terms);
        assert_eq!(twice.edits, 4);
        assert_eq!(twice.assembly.lane_occupancy(), p.assembly.lane_occupancy());
    }

    #[test]
    fn pcg_studies_count_zero_factorizations() {
        let sys = system(SolverChoice::ConjugateGradient);
        let study = sys.prepare().expect("prepare");
        let _ = study.solve(&Scenario::gpr(1.0)).expect("solve");
        let profile = study.profile();
        assert_eq!(profile.assembly.assemblies, 1);
        assert_eq!(profile.factorizations, 0);
        assert_eq!(profile.scenario_solves, 1);
    }

    #[test]
    fn fault_current_scenario_matches_the_analysis_driver_bitwise() {
        // Linearity: the unit-GPR solution scaled to GPR = I·Req.
        let study = system(SolverChoice::ConjugateGradient)
            .prepare()
            .expect("prepare");
        let target = 25_000.0;
        let unit = study.solve(&Scenario::gpr(1.0)).expect("solve");
        let gpr = target * unit.equivalent_resistance;
        let staged = study
            .solve(&Scenario::fault_current(target))
            .expect("solve");
        assert_eq!(staged.total_current, target);
        assert_eq!(staged.gpr, gpr);
        assert_eq!(staged.equivalent_resistance, unit.equivalent_resistance);
        let scaled: Vec<f64> = unit.leakage.iter().map(|q| q * gpr).collect();
        assert_eq!(staged.leakage, scaled);
    }

    #[test]
    fn invalid_scenarios_return_typed_errors_not_panics() {
        let sys = system(SolverChoice::Cholesky);
        let study = sys.prepare().expect("prepare");
        for bad in [
            Scenario::gpr(0.0),
            Scenario::gpr(-5.0),
            Scenario::gpr(f64::NAN),
            Scenario::gpr(f64::INFINITY),
            Scenario::fault_current(0.0),
            Scenario::fault_current(-1.0),
        ] {
            match study.solve(&bad) {
                // Bit-level drive comparison: NaN drives are carried
                // through the error faithfully but compare unequal.
                Err(SolveError::NonPositiveDrive { scenario }) => {
                    assert_eq!(scenario.drive().to_bits(), bad.drive().to_bits())
                }
                other => panic!("expected NonPositiveDrive, got {other:?}"),
            }
        }
        // A bad scenario mid-batch aborts with the same typed error.
        let err = study
            .solve_batch(&[Scenario::gpr(1.0), Scenario::gpr(-1.0)])
            .unwrap_err();
        assert!(matches!(err, SolveError::NonPositiveDrive { .. }));
    }

    #[test]
    fn collocation_studies_prepare_and_sweep() {
        let sys = GroundingSystem::new(
            rod_mesh(8),
            &SoilModel::uniform(0.016),
            SolveOptions {
                formulation: Formulation::Collocation,
                ..Default::default()
            },
        );
        let study = sys.prepare().expect("prepare");
        assert_eq!(study.profile().factorizations, 1);
        let fresh = sys
            .prepare()
            .expect("prepare")
            .solve(&Scenario::gpr(5_000.0))
            .expect("solve");
        let staged = study.solve(&Scenario::gpr(5_000.0)).expect("solve");
        assert_eq!(fresh.leakage, staged.leakage);
        assert_eq!(fresh.equivalent_resistance, staged.equivalent_resistance);
        // Collocation has no per-column Galerkin profile.
        assert!(study.column_terms().is_empty());
    }

    #[test]
    fn pooled_batch_matches_serial_batch_bitwise() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let scenarios: Vec<Scenario> = (1..=5).map(|i| Scenario::gpr(2_000.0 * i as f64)).collect();
        for solver in [
            SolverChoice::ConjugateGradient,
            SolverChoice::Cholesky,
            SolverChoice::Lu,
        ] {
            let base = SolveOptions {
                solver,
                ..Default::default()
            };
            let serial = GroundingSystem::new(mesh.clone(), &soil, base)
                .prepare()
                .expect("prepare")
                .solve_batch(&scenarios)
                .expect("batch");
            for threads in [2, 4] {
                let opts = base.with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));
                let pooled = GroundingSystem::new(mesh.clone(), &soil, opts)
                    .prepare()
                    .expect("prepare")
                    .solve_batch(&scenarios)
                    .expect("batch");
                for (a, b) in serial.iter().zip(&pooled) {
                    assert_eq!(a.leakage, b.leakage, "{solver:?} threads={threads}");
                    assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
                    assert_eq!(a.solver_iterations, b.solver_iterations);
                }
            }
        }
    }

    #[test]
    fn hierarchical_studies_answer_scenarios_within_tolerance_of_dense() {
        let mesh = rod_mesh(24);
        let soil = SoilModel::uniform(0.016);
        let dense = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default())
            .prepare()
            .expect("dense prepare");
        let tol = 1e-8;
        let opts = SolveOptions::default()
            .with_backend(OperatorBackend::Hierarchical { tol, leaf_size: 4 });
        let study = GroundingSystem::new(mesh, &soil, opts)
            .prepare()
            .expect("hierarchical prepare");
        let profile = study.profile();
        assert_eq!(profile.assembly.assemblies, 1);
        assert_eq!(profile.factorizations, 0);
        let cs = profile.assembly.compression.expect("compression stats");
        assert_eq!(cs.order, study.dof());
        assert!(cs.far_blocks > 0, "rod mesh must produce far blocks");
        assert!(cs.resident_bytes > 0);
        // Terms are accounted in bulk, not per column.
        assert!(study.total_terms() > 0);
        assert!(study.column_terms().is_empty());
        for s in [Scenario::gpr(10_000.0), Scenario::fault_current(25_000.0)] {
            let a = dense.solve(&s).expect("dense solve");
            let b = study.solve(&s).expect("hierarchical solve");
            let rel =
                (a.equivalent_resistance - b.equivalent_resistance).abs() / a.equivalent_resistance;
            assert!(rel <= 1e-6, "{s}: rel {rel:.3e}");
            assert_eq!(a.total_current.is_finite(), b.total_current.is_finite());
        }
        // Batch = per-scenario solves, bit for bit, like the dense PCG arm.
        let sweep: Vec<Scenario> = (1..=4).map(|i| Scenario::gpr(500.0 * i as f64)).collect();
        let batch = study.solve_batch(&sweep).expect("batch");
        for (sol, s) in batch.iter().zip(&sweep) {
            let single = study.solve(s).expect("solve");
            assert_eq!(sol.leakage, single.leakage);
        }
    }

    #[test]
    fn hierarchical_backend_rejects_unsupported_configurations() {
        let soil = SoilModel::uniform(0.016);
        let hier = OperatorBackend::hierarchical();
        // Direct solvers cannot factor a compressed operator.
        for solver in [SolverChoice::Cholesky, SolverChoice::Lu] {
            let opts = SolveOptions {
                solver,
                ..Default::default()
            }
            .with_backend(hier);
            let err = GroundingSystem::new(rod_mesh(4), &soil, opts)
                .prepare()
                .expect_err("must reject");
            assert!(
                matches!(err, PrepareError::UnsupportedBackend(_)),
                "{solver:?}"
            );
            assert!(err.to_string().contains("conjugate-gradient"), "{err}");
        }
        // Collocation has no symmetric Galerkin operator to compress.
        let opts = SolveOptions {
            formulation: Formulation::Collocation,
            solver: SolverChoice::Lu,
            ..Default::default()
        }
        .with_backend(hier);
        let err = GroundingSystem::new(rod_mesh(4), &soil, opts)
            .prepare()
            .expect_err("must reject");
        assert!(matches!(err, PrepareError::UnsupportedBackend(_)));
        assert!(err.to_string().contains("Galerkin"), "{err}");
    }

    #[test]
    fn resident_bytes_match_the_engine_formulas() {
        let n = system(SolverChoice::Cholesky).prepare().expect("prepare");
        let dof = n.dof();
        // Right-hand side, weights and the unit solution — the last one
        // counted whether or not it has been solved yet, so a cache that
        // charged the study at insert stays exact.
        let vectors = 8 * 3 * dof;
        // Cholesky and PCG both keep one packed triangle.
        let packed = 8 * dof * (dof + 1) / 2;
        assert_eq!(n.resident_bytes(), packed + vectors);
        let pcg = system(SolverChoice::ConjugateGradient)
            .prepare()
            .expect("prepare");
        assert_eq!(pcg.resident_bytes(), packed + vectors);
        // LU keeps the full dense matrix plus its pivot permutation.
        let lu = system(SolverChoice::Lu).prepare().expect("prepare");
        assert_eq!(
            lu.resident_bytes(),
            8 * dof * dof + std::mem::size_of::<usize>() * dof + vectors
        );
        for study in [n, pcg, lu] {
            let before = study.resident_bytes();
            study.solve(&Scenario::gpr(1.0)).expect("solve");
            assert_eq!(study.resident_bytes(), before);
            assert_eq!(study.frozen_clone().resident_bytes(), before);
        }
    }

    #[test]
    fn hierarchical_resident_bytes_are_the_exact_compressed_footprint() {
        let mesh = rod_mesh(24);
        let soil = SoilModel::uniform(0.016);
        let opts = SolveOptions::default().with_backend(OperatorBackend::Hierarchical {
            tol: 1e-8,
            leaf_size: 4,
        });
        let study = GroundingSystem::new(mesh, &soil, opts)
            .prepare()
            .expect("prepare");
        let stats = study
            .profile()
            .assembly
            .compression
            .expect("compression stats");
        let vectors = 8 * 3 * study.dof();
        assert_eq!(study.resident_bytes(), stats.resident_bytes + vectors);
        assert!(study.resident_bytes() > 0);
    }

    #[test]
    fn studies_are_shareable_across_threads() {
        // The runtime counterpart of the compile-time Send+Sync
        // assertion: concurrent solves through one Arc'd study agree
        // bitwise with a serial solve.
        let study = std::sync::Arc::new(system(SolverChoice::Cholesky).prepare().expect("prepare"));
        let expected = study.solve(&Scenario::gpr(5_000.0)).expect("solve");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let study = std::sync::Arc::clone(&study);
                std::thread::spawn(move || study.solve(&Scenario::gpr(5_000.0)).expect("solve"))
            })
            .collect();
        for h in handles {
            let got = h.join().expect("thread");
            assert_eq!(got.leakage, expected.leakage);
            assert_eq!(got.equivalent_resistance, expected.equivalent_resistance);
        }
        assert_eq!(study.profile().scenario_solves, 5);
    }

    #[test]
    fn scenario_display_is_self_describing() {
        assert_eq!(Scenario::gpr(10_000.0).to_string(), "GPR 10000 V");
        assert_eq!(
            Scenario::fault_current(25_000.0).to_string(),
            "fault current 25000 A"
        );
        assert_eq!(Scenario::gpr(3.5).drive(), 3.5);
    }

    #[test]
    fn error_displays_name_the_cause() {
        let e = PrepareError::NotPositiveDefinite(NotPositiveDefinite { pivot: 4 });
        assert!(e.to_string().contains("pivot 4"));
        let e = PrepareError::Singular(SingularMatrix { column: 2 });
        assert!(e.to_string().contains("column 2"));
        let e = SolveError::IterationLimit { iterations: 7 };
        assert!(e.to_string().contains("7 iterations"));
        let e = SolveError::NonPositiveCurrent { total: -1.0 };
        assert!(e.to_string().contains("positive"));
        let e = PrepareError::Aca(AcaError::ToleranceNotReached {
            max_rank: 96,
            tol: 1e-8,
        });
        assert!(e.to_string().contains("rank 96"), "{e}");
        let e = PrepareError::UnsupportedBackend("reason text");
        assert!(e.to_string().contains("reason text"));
    }
}
