//! The staged "prepare once, solve many scenarios" API.
//!
//! The paper's Table 6.1 shows matrix generation taking 1723.2 s of a
//! 1724.2 s run — yet a per-question entry point pays that cost on
//! *every* call. Real grounding studies ask many questions of one grid:
//! fault-current sweeps, seasonal GPR levels, safety margins. This module
//! is the plan/execute split that amortizes the expensive part:
//!
//! 1. [`GroundingSystem::prepare`] assembles the BEM system **once**
//!    and factorizes it **once** (both on the pool when
//!    [`SolveOptions::parallelism`](crate::formulation::SolveOptions) is
//!    configured, both serial otherwise), returning
//!    a reusable [`Study`] that owns the retained
//!    [`CholeskyFactor`]/[`LuFactor`]/PCG operator state.
//! 2. [`Study::solve`] / [`Study::solve_batch`] then answer
//!    [`Scenario`]s — prescribed GPR or prescribed fault current — at
//!    `O(N²)` back-substitution cost each, pool-parallel over scenarios
//!    through the multi-RHS
//!    [`solve_many`](layerbem_numeric::CholeskyFactor::solve_many)
//!    kernels, and **bit-identical** to what N independent
//!    `prepare()` + [`Study::solve`] runs would have produced.
//!
//! Every failure on this path is a typed error ([`PrepareError`],
//! [`SolveError`]) instead of a panic, and [`Study::profile`] exposes the
//! phase instrumentation (assembly/factorization counts and seconds,
//! scenario solves served) that the CAD pipeline and the CI bench gate
//! assert against.
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
//! // …then sweep scenarios at back-substitution cost.
//! let sweep = study
//!     .solve_batch(&[
//!         Scenario::gpr(5_000.0),
//!         Scenario::gpr(10_000.0),
//!         Scenario::fault_current(25_000.0),
//!     ])
//!     .expect("scenarios are positive");
//! assert_eq!(sweep.len(), 3);
//! assert_eq!(study.profile().assemblies, 1);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use layerbem_numeric::cholesky::{CholeskyFactor, NotPositiveDefinite};
use layerbem_numeric::lu::{LuFactor, SingularMatrix};
use layerbem_numeric::pcg::{pcg_solve, PcgOptions, PooledSymOperator};
use layerbem_numeric::{AcaError, CompressionStats, HMatrix, SymMatrix};

use crate::assembly::{assemble_collocation, assemble_hierarchical, galerkin_rhs, AssemblyReport};
use crate::formulation::{Formulation, OperatorBackend, SolverChoice};
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

/// Phase instrumentation of a [`Study`]: what `prepare` paid, once, and
/// how many scenarios that investment has served so far.
///
/// This is the record the CAD pipeline's phase table and the CI bench
/// gate assert against: a scenario sweep through one `Study` shows
/// `assemblies == 1` and `factorizations <= 1` no matter how many solves
/// follow.
#[derive(Clone, Copy, Debug)]
pub struct StudyProfile {
    /// Matrix generations performed (always 1 per `Study`).
    pub assemblies: usize,
    /// Factorizations performed: 1 for the direct solvers, 0 for the
    /// iterative path (PCG retains the assembled operator instead of a
    /// factor).
    pub factorizations: usize,
    /// Wall-clock seconds of matrix generation.
    pub assembly_seconds: f64,
    /// Wall-clock seconds of the factorization (0 for PCG).
    pub factor_seconds: f64,
    /// Scenario solves served since `prepare`.
    pub scenario_solves: usize,
    /// Compression accounting of the retained operator: `Some` for the
    /// hierarchical backend (resident bytes, far-block ranks, ratio vs
    /// the dense `8·N(N+1)/2`), `None` for the dense engines.
    pub compression: Option<CompressionStats>,
    /// Series terms the one-time kernel evaluation consumed (identical to
    /// [`Study::total_terms`]).
    pub kernel_terms: u64,
    /// Seconds spent inside kernel evaluation, split out of
    /// `assembly_seconds`. For the dense Galerkin engines this is the
    /// per-column profile's sum — worker CPU seconds, which can exceed
    /// the wall-clock `assembly_seconds` when columns ran in parallel;
    /// the hierarchical and collocation assemblies are kernel-dominated
    /// with no finer attribution, so they report their full assembly
    /// wall time.
    pub kernel_seconds: f64,
    /// Batched-lane occupancy of the kernel phase — occupied lane points
    /// over padded lane slots, in `0.0..=1.0`. `None` when no batched
    /// lanes ran (the scalar oracle path, or a soil model whose image
    /// series never batched).
    pub lane_occupancy: Option<f64>,
    /// Incremental edits applied through [`Study::apply_edit`] (0 for
    /// studies prepared without edit state).
    pub edits: usize,
    /// Cumulative seconds re-integrating touched element pairs across all
    /// edits (the incremental counterpart of `assembly_seconds`).
    pub reintegrate_seconds: f64,
    /// Cumulative seconds updating or refactorizing the retained engine
    /// across all edits (the incremental counterpart of
    /// `factor_seconds`).
    pub update_seconds: f64,
}

/// The retained solver state: exactly one variant per
/// [`SolverChoice`](crate::formulation::SolverChoice) path.
#[derive(Clone)]
pub(crate) enum Engine {
    /// Packed `L·Lᵀ` factor of the Galerkin matrix.
    Cholesky(CholeskyFactor),
    /// Pivoted LU of the dense (Galerkin-expanded or collocation) matrix.
    Lu(LuFactor),
    /// The assembled Galerkin operator, retained for per-scenario PCG
    /// (diagonal preconditioner and pooled matvec are rebuilt per solve;
    /// both are deterministic, so repeated solves are bit-identical).
    Pcg(SymMatrix),
    /// The compressed Galerkin operator (near-dense + ACA far blocks),
    /// retained for per-scenario PCG through the same `LinearOperator`
    /// trait the dense engine uses.
    Hierarchical(HMatrix),
}

/// A prepared grounding study: the assembled-and-factorized system of one
/// [`GroundingSystem`], reusable across any number of [`Scenario`]s.
///
/// Created by [`GroundingSystem::prepare`] (or
/// [`prepare_assembled`](GroundingSystem::prepare_assembled)). The handle
/// owns everything it needs — factor, right-hand side, current weights,
/// solve options — so it may outlive the system that built it.
pub struct Study {
    pub(crate) opts: crate::formulation::SolveOptions,
    pub(crate) engine: Engine,
    /// Unit-GPR right-hand side of the retained formulation (`ν` for
    /// Galerkin, the unit boundary potentials for collocation).
    pub(crate) rhs: Vec<f64>,
    /// Galerkin weights `ν_i = ∫ N_i dΓ` for the current integral
    /// `IΓ = Σ q_i ν_i` (identical to `rhs` for Galerkin).
    pub(crate) nu: Vec<f64>,
    /// Per-column assembly cost profile (Galerkin engines; empty for
    /// collocation).
    pub(crate) column_seconds: Vec<f64>,
    pub(crate) column_terms: Vec<u64>,
    /// Series terms with no per-column attribution (the hierarchical
    /// engine's near pairs + ACA-sampled far entries; 0 for the dense
    /// engines, whose terms live in `column_terms`).
    pub(crate) bulk_terms: u64,
    /// Compression accounting of the retained operator (hierarchical
    /// engine only).
    pub(crate) compression: Option<CompressionStats>,
    /// Batched-lane accounting of the kernel phase: occupied lane points
    /// and padded lane slots (both 0 on the scalar oracle path).
    pub(crate) lane_points: u64,
    pub(crate) lane_slots: u64,
    /// Seconds inside kernel evaluation (see
    /// [`StudyProfile::kernel_seconds`]).
    pub(crate) kernel_seconds: f64,
    pub(crate) assembly_seconds: f64,
    pub(crate) factor_seconds: f64,
    pub(crate) factorizations: usize,
    pub(crate) solves: AtomicUsize,
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
        match opts.formulation {
            Formulation::Galerkin => match opts.backend {
                OperatorBackend::Dense => {
                    let t = Instant::now();
                    let report = system.assemble();
                    let assembly_seconds = t.elapsed().as_secs_f64();
                    Study::from_galerkin_report(system, report, assembly_seconds)
                }
                OperatorBackend::Hierarchical { tol, leaf_size } => {
                    // The compressed operator cannot be factorized, so the
                    // hierarchical backend serves PCG only.
                    if opts.solver != SolverChoice::ConjugateGradient {
                        return Err(PrepareError::UnsupportedBackend(
                            "the hierarchical backend supports only the \
                             conjugate-gradient solver",
                        ));
                    }
                    let t = Instant::now();
                    let rep = assemble_hierarchical(
                        system.mesh(),
                        system.kernel(),
                        &opts,
                        tol,
                        leaf_size,
                    )?;
                    let assembly_seconds = t.elapsed().as_secs_f64();
                    Ok(Study {
                        opts,
                        nu: rep.rhs.clone(),
                        rhs: rep.rhs,
                        compression: Some(rep.operator.compression_stats()),
                        engine: Engine::Hierarchical(rep.operator),
                        column_seconds: Vec::new(),
                        column_terms: Vec::new(),
                        bulk_terms: rep.terms,
                        lane_points: rep.lane_points,
                        lane_slots: rep.lane_slots,
                        // Hierarchical generation is kernel-dominated and
                        // has no per-column split: report it whole.
                        kernel_seconds: rep.generation_seconds,
                        assembly_seconds,
                        factor_seconds: 0.0,
                        factorizations: 0,
                        solves: AtomicUsize::new(0),
                        edit: None,
                    })
                }
            },
            Formulation::Collocation => {
                if opts.backend != OperatorBackend::Dense {
                    return Err(PrepareError::UnsupportedBackend(
                        "the hierarchical backend requires the Galerkin formulation",
                    ));
                }
                let t = Instant::now();
                let (c, rhs, cost) = assemble_collocation(system.mesh(), system.kernel(), &opts);
                let assembly_seconds = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let f = match opts.parallelism {
                    Some(par) => LuFactor::factor_pooled(&c, &par.pool, par.schedule),
                    None => LuFactor::factor(&c),
                }?;
                Ok(Study {
                    opts,
                    engine: Engine::Lu(f),
                    rhs,
                    nu: galerkin_rhs(system.mesh()),
                    column_seconds: Vec::new(),
                    column_terms: Vec::new(),
                    bulk_terms: cost.terms as u64,
                    lane_points: cost.lane_points,
                    lane_slots: cost.lane_slots,
                    // Collocation assembly is one kernel loop: report it
                    // whole.
                    kernel_seconds: assembly_seconds,
                    compression: None,
                    assembly_seconds,
                    factor_seconds: t.elapsed().as_secs_f64(),
                    factorizations: 1,
                    solves: AtomicUsize::new(0),
                    edit: None,
                })
            }
        }
    }

    /// Factorizes an already-generated Galerkin report, cloning only
    /// what the engine retains — the direct solvers factor from the
    /// borrowed matrix with no copy (the PCG engine must own it);
    /// `assembly_seconds` is attributed to the report's own generation
    /// time.
    pub(crate) fn from_report(
        system: &GroundingSystem,
        report: &AssemblyReport,
    ) -> Result<Study, PrepareError> {
        let opts = *system.options();
        let t = Instant::now();
        let (engine, factorizations) =
            Study::galerkin_engine(&opts, std::borrow::Cow::Borrowed(&report.matrix))?;
        Ok(Study {
            opts,
            rhs: report.rhs.clone(),
            nu: report.rhs.clone(),
            engine,
            column_seconds: report.column_seconds.clone(),
            column_terms: report.column_terms.clone(),
            bulk_terms: 0,
            lane_points: report.lane_points,
            lane_slots: report.lane_slots,
            kernel_seconds: report.kernel_seconds(),
            compression: None,
            assembly_seconds: report.generation_seconds,
            factor_seconds: t.elapsed().as_secs_f64(),
            factorizations,
            solves: AtomicUsize::new(0),
            edit: None,
        })
    }

    fn from_galerkin_report(
        system: &GroundingSystem,
        report: AssemblyReport,
        assembly_seconds: f64,
    ) -> Result<Study, PrepareError> {
        let opts = *system.options();
        let kernel_seconds = report.kernel_seconds();
        let AssemblyReport {
            matrix,
            rhs,
            column_seconds,
            column_terms,
            lane_points,
            lane_slots,
            ..
        } = report;
        let t = Instant::now();
        let (engine, factorizations) =
            Study::galerkin_engine(&opts, std::borrow::Cow::Owned(matrix))?;
        Ok(Study {
            opts,
            nu: rhs.clone(),
            rhs,
            engine,
            column_seconds,
            column_terms,
            bulk_terms: 0,
            lane_points,
            lane_slots,
            kernel_seconds,
            compression: None,
            assembly_seconds,
            factor_seconds: t.elapsed().as_secs_f64(),
            factorizations,
            solves: AtomicUsize::new(0),
            edit: None,
        })
    }

    /// Builds the retained engine from a Galerkin matrix. The direct
    /// solvers only read the matrix (owned input is dropped after
    /// factoring — no transient copy either way); the PCG engine keeps
    /// it, taking ownership or cloning as the `Cow` dictates.
    pub(crate) fn galerkin_engine(
        opts: &crate::formulation::SolveOptions,
        matrix: std::borrow::Cow<'_, SymMatrix>,
    ) -> Result<(Engine, usize), PrepareError> {
        Ok(match opts.solver {
            SolverChoice::ConjugateGradient => (Engine::Pcg(matrix.into_owned()), 0),
            SolverChoice::Cholesky => {
                let f = match opts.parallelism {
                    Some(par) => CholeskyFactor::factor_pooled(&matrix, &par.pool, par.schedule),
                    None => CholeskyFactor::factor(&matrix),
                }?;
                (Engine::Cholesky(f), 1)
            }
            SolverChoice::Lu => {
                let dense = matrix.to_dense();
                let f = match opts.parallelism {
                    Some(par) => LuFactor::factor_pooled(&dense, &par.pool, par.schedule),
                    None => LuFactor::factor(&dense),
                }?;
                (Engine::Lu(f), 1)
            }
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
    /// right-hand-side and weight vectors. The per-column instrumentation
    /// profiles are excluded: they are diagnostics, not factors, and
    /// scale as O(N) next to the O(N²) engine.
    pub fn resident_bytes(&self) -> usize {
        let vectors = 8 * (self.rhs.len() + self.nu.len());
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
    pub fn options(&self) -> &crate::formulation::SolveOptions {
        &self.opts
    }

    /// An immutable snapshot of this study with the incremental-edit
    /// state dropped: the form a serving cache shares behind an `Arc`
    /// after a session finishes editing. The engine, right-hand side and
    /// instrumentation are cloned as-is (solutions bit-identical to the
    /// edited original); the retained mesh/operator stays with the
    /// private editable handle, so the snapshot's
    /// [`resident_bytes`](Self::resident_bytes) drops back to the
    /// ordinary engine formula.
    pub fn frozen_clone(&self) -> Study {
        Study {
            opts: self.opts,
            engine: self.engine.clone(),
            rhs: self.rhs.clone(),
            nu: self.nu.clone(),
            column_seconds: self.column_seconds.clone(),
            column_terms: self.column_terms.clone(),
            bulk_terms: self.bulk_terms,
            compression: self.compression,
            lane_points: self.lane_points,
            lane_slots: self.lane_slots,
            kernel_seconds: self.kernel_seconds,
            assembly_seconds: self.assembly_seconds,
            factor_seconds: self.factor_seconds,
            factorizations: self.factorizations,
            solves: AtomicUsize::new(self.solves.load(Ordering::Relaxed)),
            edit: None,
        }
    }

    /// Per-column assembly wall seconds (Galerkin; empty for
    /// collocation) — the task profile the schedule simulator replays.
    pub fn column_seconds(&self) -> &[f64] {
        &self.column_seconds
    }

    /// Series terms per assembly column (deterministic cost proxy).
    pub fn column_terms(&self) -> &[u64] {
        &self.column_terms
    }

    /// Total series terms the one-time assembly consumed. For the dense
    /// Galerkin engines this is the column profile's sum; the hierarchical
    /// engine contributes a bulk count (near pairs + ACA-sampled far
    /// entries) with no per-column attribution.
    pub fn total_terms(&self) -> u64 {
        self.bulk_terms + self.column_terms.iter().sum::<u64>()
    }

    /// Batched-lane occupancy of the kernel phase: occupied lane points
    /// over padded lane slots. `None` when no batched lanes ran (the
    /// scalar oracle path).
    pub fn lane_occupancy(&self) -> Option<f64> {
        (self.lane_slots > 0).then(|| self.lane_points as f64 / self.lane_slots as f64)
    }

    /// Phase instrumentation: what `prepare` paid and how many scenarios
    /// it has served.
    pub fn profile(&self) -> StudyProfile {
        let e = self.edit.as_deref();
        StudyProfile {
            // Topology-changing edits rebuild the whole operator; each
            // rebuild is a full extra assembly.
            assemblies: 1 + e.map_or(0, |e| e.rebuilds),
            factorizations: self.factorizations,
            assembly_seconds: self.assembly_seconds,
            factor_seconds: self.factor_seconds,
            scenario_solves: self.solves.load(Ordering::Relaxed),
            compression: self.compression,
            kernel_terms: self.total_terms(),
            kernel_seconds: self.kernel_seconds,
            lane_occupancy: self.lane_occupancy(),
            edits: e.map_or(0, |e| e.edits),
            reintegrate_seconds: e.map_or(0.0, |e| e.reintegrate_seconds),
            update_seconds: e.map_or(0.0, |e| e.update_seconds),
        }
    }

    /// Answers one scenario at `O(N²)` back-substitution cost (one PCG
    /// run for the iterative engine).
    ///
    /// The result is **bit-identical** to a fresh `prepare()` + `solve`
    /// of the same question, and to the same scenario's entry in a
    /// [`solve_batch`](Self::solve_batch).
    pub fn solve(&self, scenario: &Scenario) -> Result<GroundingSolution, SolveError> {
        // Validate before paying the backsolve: an invalid drive must not
        // cost O(N²) work or count as a served scenario.
        if !scenario.is_valid() {
            return Err(SolveError::NonPositiveDrive {
                scenario: *scenario,
            });
        }
        let (q_unit, iterations) = self.solve_unit()?;
        let solution = self.package(q_unit, scenario, iterations)?;
        // Count only successfully served scenarios.
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(solution)
    }

    /// Answers a whole scenario sweep from the single retained
    /// factorization: one multi-RHS
    /// [`solve_many`](CholeskyFactor::solve_many) call — pool-parallel
    /// over the scenario columns when parallelism is configured — then a
    /// per-scenario scaling.
    ///
    /// Solutions are **bit-identical** to calling [`solve`](Self::solve)
    /// per scenario, serial and pooled; the first invalid scenario
    /// aborts the batch with its error.
    pub fn solve_batch(
        &self,
        scenarios: &[Scenario],
    ) -> Result<Vec<GroundingSolution>, SolveError> {
        // Validate the whole sweep before solving anything: one bad
        // scenario must not cost a multi-RHS solve.
        Scenario::validate(scenarios)?;
        match &self.engine {
            Engine::Pcg(_) | Engine::Hierarchical(_) => {
                scenarios.iter().map(|s| self.solve(s)).collect()
            }
            direct => {
                let cols = vec![self.rhs.clone(); scenarios.len()];
                let units = match (direct, self.opts.parallelism) {
                    (Engine::Cholesky(f), Some(par)) => {
                        f.solve_many_pooled(&cols, &par.pool, par.schedule)
                    }
                    (Engine::Cholesky(f), None) => f.solve_many(&cols),
                    (Engine::Lu(f), Some(par)) => {
                        f.solve_many_pooled(&cols, &par.pool, par.schedule)
                    }
                    (Engine::Lu(f), None) => f.solve_many(&cols),
                    (Engine::Pcg(_), _) | (Engine::Hierarchical(_), _) => {
                        unreachable!("handled above")
                    }
                };
                let solutions: Vec<GroundingSolution> = units
                    .into_iter()
                    .zip(scenarios)
                    .map(|(q_unit, s)| self.package(q_unit, s, 0))
                    .collect::<Result<_, _>>()?;
                // Count only successfully served scenarios.
                self.solves.fetch_add(solutions.len(), Ordering::Relaxed);
                Ok(solutions)
            }
        }
    }

    /// Solves the retained system for unit GPR; returns the unit leakage
    /// density and the iteration count (0 for the direct engines).
    fn solve_unit(&self) -> Result<(Vec<f64>, usize), SolveError> {
        match &self.engine {
            Engine::Cholesky(f) => Ok((f.solve(&self.rhs), 0)),
            Engine::Lu(f) => Ok((f.solve(&self.rhs), 0)),
            Engine::Pcg(matrix) => {
                let popts = PcgOptions {
                    rel_tol: self.opts.cg_rel_tol,
                    vector_parallelism: self.opts.parallelism.map(|p| (p.pool, p.schedule)),
                    ..Default::default()
                };
                let out = match self.opts.parallelism {
                    Some(par) => pcg_solve(
                        &PooledSymOperator::new(matrix, par.pool, par.schedule),
                        &self.rhs,
                        popts,
                    ),
                    None => pcg_solve(matrix, &self.rhs, popts),
                };
                if !out.converged {
                    return Err(SolveError::IterationLimit {
                        iterations: out.history.iterations(),
                    });
                }
                Ok((out.x, out.history.iterations()))
            }
            Engine::Hierarchical(hm) => {
                // The compressed matvec is intentionally serial (it is
                // already sub-quadratic); the pooled *vector* reductions
                // are still honored, and both are bit-identical to their
                // serial counterparts.
                let popts = PcgOptions {
                    rel_tol: self.opts.cg_rel_tol,
                    vector_parallelism: self.opts.parallelism.map(|p| (p.pool, p.schedule)),
                    ..Default::default()
                };
                let out = pcg_solve(hm, &self.rhs, popts);
                if !out.converged {
                    return Err(SolveError::IterationLimit {
                        iterations: out.history.iterations(),
                    });
                }
                Ok((out.x, out.history.iterations()))
            }
        }
    }

    /// Scales the unit-GPR solution to the scenario's drive.
    fn package(
        &self,
        q_unit: Vec<f64>,
        scenario: &Scenario,
        iterations: usize,
    ) -> Result<GroundingSolution, SolveError> {
        if !scenario.is_valid() {
            return Err(SolveError::NonPositiveDrive {
                scenario: *scenario,
            });
        }
        match *scenario {
            Scenario::Gpr { volts } => self.package_gpr(q_unit, volts, iterations, *scenario),
            Scenario::FaultCurrent { amps } => {
                // Answer the unit-GPR question, then scale to the GPR
                // that leaks exactly the prescribed current.
                let unit = self.package_gpr(q_unit, 1.0, iterations, *scenario)?;
                let gpr = amps * unit.equivalent_resistance;
                Ok(GroundingSolution {
                    leakage: unit.leakage.iter().map(|q| q * gpr).collect(),
                    gpr,
                    total_current: amps,
                    equivalent_resistance: unit.equivalent_resistance,
                    solver_iterations: iterations,
                    scenario: *scenario,
                })
            }
        }
    }

    fn package_gpr(
        &self,
        q_unit: Vec<f64>,
        gpr: f64,
        iterations: usize,
        scenario: Scenario,
    ) -> Result<GroundingSolution, SolveError> {
        // IΓ = ∫ q dΓ = Σ_i q_i ∫ N_i = Σ_i q_i ν_i. NaN fails the
        // comparison and is (correctly) reported as non-physical.
        let i_unit: f64 = q_unit.iter().zip(&self.nu).map(|(q, n)| q * n).sum();
        if i_unit.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(SolveError::NonPositiveCurrent { total: i_unit });
        }
        let leakage: Vec<f64> = q_unit.iter().map(|q| q * gpr).collect();
        Ok(GroundingSolution {
            leakage,
            gpr,
            total_current: i_unit * gpr,
            equivalent_resistance: gpr / (i_unit * gpr),
            solver_iterations: iterations,
            scenario,
        })
    }
}

/// Compile-time guarantee that prepared studies may be shared across
/// server threads behind an `Arc`: every engine variant is immutable
/// after prepare and the only interior mutability is the atomic solve
/// counter. If a future engine smuggles in a non-`Sync` member (an `Rc`,
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
            ..Default::default()
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

    #[test]
    fn staged_solutions_match_legacy_solves_bitwise() {
        for solver in [
            SolverChoice::ConjugateGradient,
            SolverChoice::Cholesky,
            SolverChoice::Lu,
        ] {
            let sys = system(solver);
            let study = sys.prepare().expect("prepare");
            for s in [1.0, 2_500.0, 10_000.0].map(Scenario::gpr) {
                let legacy = sys.prepare().expect("prepare").solve(&s).expect("solve");
                let staged = study.solve(&s).expect("solve");
                assert_eq!(legacy.leakage, staged.leakage, "{solver:?} {s}");
                assert_eq!(legacy.total_current, staged.total_current);
                assert_eq!(legacy.equivalent_resistance, staged.equivalent_resistance);
                assert_eq!(legacy.solver_iterations, staged.solver_iterations);
            }
        }
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
        assert_eq!(profile.assemblies, 1);
        assert_eq!(profile.factorizations, 1);
        assert_eq!(profile.scenario_solves, 32);
        assert!(profile.assembly_seconds > 0.0);
    }

    #[test]
    fn profile_reports_kernel_counters_per_eval_strategy() {
        use crate::formulation::KernelEval;
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let batched = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default())
            .prepare()
            .expect("prepare");
        let bp = batched.profile();
        assert_eq!(bp.kernel_terms, batched.total_terms());
        assert!(bp.kernel_terms > 0);
        assert!(bp.kernel_seconds > 0.0);
        assert!(bp.kernel_seconds <= bp.assembly_seconds);
        let occ = bp.lane_occupancy.expect("batched path fills lanes");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        // The scalar oracle runs no lanes at all.
        let scalar = GroundingSystem::new(
            mesh,
            &soil,
            SolveOptions::default().with_kernel_eval(KernelEval::Scalar),
        )
        .prepare()
        .expect("prepare");
        assert!(scalar.profile().lane_occupancy.is_none());
        assert!(scalar.profile().kernel_terms > 0);
    }

    #[test]
    fn collocation_profile_counts_kernel_terms() {
        let sys = GroundingSystem::new(
            rod_mesh(8),
            &SoilModel::uniform(0.016),
            SolveOptions {
                formulation: Formulation::Collocation,
                ..Default::default()
            },
        );
        let study = sys.prepare().expect("prepare");
        let p = study.profile();
        assert!(p.kernel_terms > 0, "collocation terms now counted");
        assert_eq!(p.kernel_terms, study.total_terms());
        assert!(p.lane_occupancy.is_some(), "batched by default");
    }

    #[test]
    fn pcg_studies_count_zero_factorizations() {
        let sys = system(SolverChoice::ConjugateGradient);
        let study = sys.prepare().expect("prepare");
        let _ = study.solve(&Scenario::gpr(1.0)).expect("solve");
        let profile = study.profile();
        assert_eq!(profile.assemblies, 1);
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
        assert!(study.column_seconds().is_empty());
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
        use crate::formulation::OperatorBackend;
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
        assert_eq!(profile.assemblies, 1);
        assert_eq!(profile.factorizations, 0);
        let cs = profile.compression.expect("compression stats");
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
        use crate::formulation::OperatorBackend;
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
        let vectors = 8 * 2 * dof;
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
    }

    #[test]
    fn hierarchical_resident_bytes_are_the_exact_compressed_footprint() {
        use crate::formulation::OperatorBackend;
        let mesh = rod_mesh(24);
        let soil = SoilModel::uniform(0.016);
        let opts = SolveOptions::default().with_backend(OperatorBackend::Hierarchical {
            tol: 1e-8,
            leaf_size: 4,
        });
        let study = GroundingSystem::new(mesh, &soil, opts)
            .prepare()
            .expect("prepare");
        let stats = study.profile().compression.expect("compression stats");
        let vectors = 8 * 2 * study.dof();
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
