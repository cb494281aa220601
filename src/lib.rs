//! # layerbem
//!
//! Parallel boundary-element analysis of substation earthing (grounding)
//! systems in uniform and layered soil models — a from-scratch Rust
//! reproduction of:
//!
//! > I. Colominas, J. Gómez, F. Navarrina, M. Casteleiro, J. M. Cela,
//! > *Parallel Computing Aided Design of Earthing Systems for Electrical
//! > Substations in Non-Homogeneous Soil Models*, ICPP Workshops 2000.
//!
//! The crate computes, for a grounding grid energized to a Ground
//! Potential Rise (GPR): the leakage current distribution, the total
//! fault current `IΓ`, the equivalent resistance `Req = GPR/IΓ`, surface
//! potential maps, and the IEEE Std 80 touch/step/mesh safety voltages —
//! in uniform, two-layer (image series) and N-layer (Hankel inversion)
//! soils, with OpenMP-style parallel matrix generation and a
//! deterministic multiprocessor schedule simulator.
//!
//! ## Quick start
//!
//! The solve surface is staged:
//! [`GroundingSystem::prepare`](prelude::GroundingSystem::prepare)
//! assembles and factorizes **once** (the expensive part — the paper's
//! Table 6.1 attributes 99.9% of a run to matrix generation), and the
//! returned [`Study`](prelude::Study) answers any number of
//! [`Scenario`](prelude::Scenario)s — prescribed GPR or prescribed fault
//! current — from one unit-GPR solve, an `O(N)` scaling each.
//!
//! ```
//! use layerbem::prelude::*;
//!
//! // A 20 m × 20 m grid of 2×2 cells buried 0.8 m deep.
//! let grid = rectangular_grid(RectGridSpec {
//!     origin: (0.0, 0.0),
//!     width: 20.0,
//!     height: 20.0,
//!     nx: 2,
//!     ny: 2,
//!     depth: 0.8,
//!     radius: 0.006,
//! });
//! let mesh = Mesher::default().mesh(&grid);
//! let soil = SoilModel::two_layer(0.005, 0.016, 1.0);
//! let system = GroundingSystem::new(mesh, &soil, SolveOptions::default());
//!
//! // Prepare once: assembly + factorization, typed errors instead of panics.
//! let study = system.prepare().expect("well-posed BEM system");
//! let solution = study.solve(&Scenario::gpr(10_000.0)).expect("positive GPR");
//! assert!(solution.equivalent_resistance > 0.0);
//!
//! // …then sweep more scenarios: O(N) scalings of the solve above.
//! let sweep = study
//!     .solve_batch(&[Scenario::gpr(5_000.0), Scenario::fault_current(25_000.0)])
//!     .expect("positive drives");
//! assert_eq!(sweep.len(), 2);
//! assert_eq!(study.profile().assembly.assemblies, 1); // one assembly served them all
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`numeric`] | packed symmetric storage, Cholesky, LU, Jacobi-PCG, Gauss–Legendre, Bessel, compensated series summation |
//! | [`parfor`] | OpenMP-style `parallel for` (static/dynamic/guided × chunk) + discrete-event schedule simulator |
//! | [`geometry`] | conductors, grids (incl. the paper's Barberá and Balaidos reconstructions), thin-wire mesher |
//! | [`soil`] | uniform / two-layer / N-layer Green's functions |
//! | [`core`] | image-segment BEM integration, Galerkin assembly (one class-first engine; one thread is a one-thread pool), solver driver, post-processing, IEEE 80 |
//! | [`cad`] | case-deck parser, five-phase timed pipeline, reports |
//! | [`serve`] | resident study server: newline-JSON protocol, keyed factorization cache, metrics |

pub use layerbem_cad as cad;
// Deliberate name reuse: this re-export is only ever reachable as
// `layerbem::core::...`, where the leading `layerbem::` segment keeps it
// distinct from the built-in `core` crate. Inside this crate the built-in
// stays reachable as `::core`. Rust 2018+ path resolution never confuses
// the two (pinned by `core_reexport_does_not_shadow_builtin_core` below).
pub use layerbem_core as core;
pub use layerbem_geometry as geometry;
pub use layerbem_numeric as numeric;
pub use layerbem_parfor as parfor;
pub use layerbem_serve as serve;
pub use layerbem_soil as soil;

/// One-stop imports for typical library use.
pub mod prelude {
    pub use layerbem_cad::{parse_case, run_pipeline, CadCase, Phase, PhaseTimes, PipelineError};
    pub use layerbem_core::formulation::{Formulation, SolveOptions, SolverChoice};
    pub use layerbem_core::post::{voltage_extrema, MapSpec, PotentialMap};
    pub use layerbem_core::safety::{BodyWeight, SafetyAssessment, SafetyCriteria, SurfaceLayer};
    pub use layerbem_core::study::{PrepareError, Scenario, SolveError, Study, StudyProfile};
    pub use layerbem_core::system::{GroundingSolution, GroundingSystem};
    pub use layerbem_geometry::grids::{
        balaidos, barbera, rectangular_grid, triangle_grid, RectGridSpec, TriangleGridSpec,
    };
    pub use layerbem_geometry::{Conductor, ConductorNetwork, Mesh, MeshOptions, Mesher, Point3};
    pub use layerbem_parfor::{simulate, Schedule, SimOverheads, ThreadPool};
    pub use layerbem_soil::{Layer, SoilModel};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        let _ = SoilModel::uniform(0.016);
        let _ = Schedule::dynamic(1);
        let _ = SolveOptions::default();
    }

    #[test]
    fn core_reexport_does_not_shadow_builtin_core() {
        // The facade path and the built-in crate coexist: downstream code
        // writes `layerbem::core::...`, and `::core` still means the
        // language's core library.
        let _ = crate::core::formulation::SolveOptions::default();
        let _ = ::core::num::NonZeroUsize::new(1).expect("nonzero");
    }
}
