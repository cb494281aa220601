//! # layerbem-core
//!
//! The boundary-element formulation of Colominas et al. for grounding
//! analysis in uniform and layered soils — the paper's primary
//! contribution, built on the workspace substrates:
//!
//! * [`images`] — decomposition of the uniform/two-layer Green's
//!   functions into **image segment families**, so the weakly singular
//!   inner integrals can be done analytically per image.
//! * [`integration`] — the analytic thin-wire segment integrals
//!   (`∫ N_i(ξ)/R dξ` in closed form) and the Gauss outer rule.
//! * [`kernel`] — [`kernel::SoilKernel`], one object per soil model that
//!   evaluates elemental potentials with whatever strategy fits the
//!   model: closed-form images (uniform), image series (two-layer), or
//!   quadrature over the Hankel-inverted kernel (N-layer).
//! * [`assembly`] — Galerkin matrix generation over the triangular
//!   element-pair iteration: the class-first engine (intern each pair's
//!   class, integrate each class once on the OpenMP-style runtime,
//!   scatter in pair order; one thread is a one-thread pool, the double
//!   loop is the tests' oracle), with per-column series terms as its
//!   cost profile.
//! * [`formulation`] — [`SolveOptions`]: the four choices a solve takes
//!   (formulation, solver, parallelism, operator backend). The outer
//!   quadrature and the PCG tolerance are fixed, not options.
//! * [`system`] — the high-level driver: mesh + soil model + GPR in,
//!   leakage distribution, total current, equivalent resistance out.
//! * [`study`] — the staged scenario API: [`system::GroundingSystem::prepare`]
//!   assembles and factorizes **once**, the returned [`study::Study`]
//!   solves for unit GPR once and answers GPR / fault-current scenarios
//!   by scaling that, bit-identical to independent per-scenario prepares.
//! * [`incremental`] — interactive editing: mesh diffs, touched-pair
//!   re-integration and rank-`2m` Cholesky update/downdate, so a CAD
//!   edit costs `O(m·M)` kernel work instead of a fresh `O(M²)` assembly.
//! * [`post`] — surface potential maps (Figs 5.2/5.4) and touch/step/mesh
//!   voltages; [`contours`] — equipotential lines of a map.
//! * [`safety`] — IEEE Std 80 permissible-limit checks, the design
//!   criteria that motivate the whole computation.
//! * [`workload`] — first-class workloads above the staged API: explicit
//!   scenario lists, seeded Monte-Carlo soil-uncertainty sweeps, and
//!   safety-driven grid-pitch design searches with Pareto scoring.

pub mod assembly;
pub mod contours;
pub mod formulation;
pub mod images;
pub mod incremental;
pub mod integration;
pub mod kernel;
pub mod post;
pub mod safety;
pub mod study;
pub mod system;
pub mod workload;

pub use assembly::{AssemblyCost, AssemblyReport};
pub use formulation::{Formulation, SolveOptions, SolverChoice};
pub use incremental::{
    apply_op, ConductorEnd, DeltaKind, EditError, EditOp, EditPath, EditReport, EditSession,
    MeshDelta,
};
pub use kernel::SoilKernel;
pub use post::PotentialMap;
pub use study::{PrepareError, Scenario, SolveError, Study, StudyProfile};
pub use system::{GroundingSolution, GroundingSystem};
pub use workload::{
    DesignCandidate, DesignSearchSpec, SoilSweepSpec, SweepSample, Workload, WorkloadError,
    WorkloadRow,
};
