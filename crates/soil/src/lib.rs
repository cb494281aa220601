//! # layerbem-soil
//!
//! Layered-soil Green's functions for grounding analysis.
//!
//! A point current source buried in a horizontally stratified soil induces
//! a potential field that the paper expresses through integral kernels
//! `k_bc(x, ξ)` — "formed by infinite series of terms corresponding to the
//! resultant images obtained when the Neumann exterior problem is
//! transformed into a Dirichlet one" (§3). This crate implements those
//! kernels from scratch:
//!
//! * [`SoilModel`] — uniform, two-layer and N-layer soil descriptions with
//!   validation (conductivities positive, thicknesses positive).
//! * [`uniform`] — the uniform half-space kernel: exactly two image terms
//!   (source + mirror across the insulating earth surface).
//! * [`two_layer`] — the four two-layer kernel families `k11`, `k12`,
//!   `k21`, `k22`, derived by Hankel-transform separation and summed as
//!   geometric image series in the reflection ratio
//!   `κ = (γ1−γ2)/(γ1+γ2)`, with tolerance/cap control.
//! * [`multilayer`] — general N-layer kernels evaluated by a digital
//!   linear filter (Guptasarma–Singh) inverse Hankel transform over the
//!   recursive layer impedance; this extends the paper ("double series in
//!   three-layer models, triple series in four-layer models, and so on"
//!   made tractable numerically).
//!
//! ## Conventions
//!
//! Depths are positive downward; the earth surface is `z = 0`. All kernels
//! are expressed as the **Green's function** `G(x, ξ)`: the potential at
//! `x` per unit point current injected at `ξ` (units V/A = Ω). The paper's
//! `k_bc` equals `4π γ_b G`. Working with `G` directly keeps mixed-layer
//! electrode systems (Balaidos model C) symmetric without per-element
//! prefactor bookkeeping, because `G` is symmetric by reciprocity.

pub mod model;
pub mod multilayer;
pub mod sample;
pub mod sounding;
pub mod two_layer;
pub mod uniform;

pub use model::{Layer, SoilModel};
pub use two_layer::TwoLayerKernels;

use layerbem_numeric::series::SeriesOptions;

/// Evaluates the potential Green's function for a soil model: potential at
/// horizontal distance `r` and depth `z` due to a unit point current at
/// depth `d`.
///
/// This trait is the seam between the BEM assembly (which integrates the
/// kernel over elements) and the soil physics. Implementations must be
/// `Sync` — kernel evaluation is the body of the parallel loops.
pub trait GreensFunction: Sync {
    /// Potential (Ω) at `(r, z)` due to a unit current source at depth `d`.
    ///
    /// `r` and `z`, `d` must be non-negative; `(r, z)` must not coincide
    /// with the source point `(0, d)` (the kernel is singular there — the
    /// BEM integration never evaluates it on the axis of the source
    /// element itself, thanks to the thin-wire radius offset).
    fn potential(&self, r: f64, z: f64, d: f64) -> f64;

    /// Number of series terms consumed by the most expensive evaluation
    /// pattern at this accuracy — a cost model hook used by the schedule
    /// simulator's documentation; implementations may return 2 (uniform)
    /// or an estimate from κ (layered).
    fn typical_terms(&self) -> usize;
}

/// Default series controls used by kernel evaluations throughout the
/// workspace (tolerance chosen so kernel error ≪ quadrature error).
pub fn default_series_options() -> SeriesOptions {
    SeriesOptions {
        rel_tol: 1e-9,
        abs_tol: 1e-300,
        max_terms: 4000,
        consecutive: 2,
    }
}
