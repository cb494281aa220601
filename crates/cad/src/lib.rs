//! # layerbem-cad
//!
//! The CAD-system layer around the BEM solver: the paper's numerical
//! approach "has been integrated in a Computer Aided Design system for
//! grounding analysis" (§5) whose five pipeline phases — Data Input, Data
//! Preprocessing, Matrix Generation, Linear System Solving, Results
//! Storage — are timed individually in Table 6.1. This crate provides:
//!
//! * [`input`] — a plain-text case-deck format (conductors, rods,
//!   parametric grids, soil model, GPR, discretization controls, and
//!   multi-`scenario` sweep stanzas) with a line-numbered parser.
//! * [`pipeline`] — the staged analysis driver with per-phase wall-clock
//!   timing ([`pipeline::PhaseTimes`] regenerates Table 6.1): one
//!   `prepare` (assembly + factorization) per case, then every scenario
//!   answered from the retained factor.
//! * [`report`] — human-readable result reports (including the
//!   per-scenario sweep table) and CSV emitters for potential maps.
//! * [`cpu`] — the start-up check both binaries run against the pinned
//!   `x86-64-v3` build.

pub mod cpu;
pub mod input;
pub mod pipeline;
pub mod report;

pub use input::{parse_case, CadCase, ParseError};
pub use pipeline::{run_pipeline, Phase, PhaseTimes, PipelineError, PipelineResult};
