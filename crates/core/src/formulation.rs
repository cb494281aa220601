//! Formulation and solver options.

use layerbem_parfor::{Schedule, ThreadPool};

/// Which BEM weighting scheme states the linear system.
///
/// "The selection of different sets of trial and test functions in the
/// numerical scheme allows to derive different formulations. Further
/// discussion in this paper is restricted to the case of a Galerkin type
/// approach, since the matrix of coefficients is symmetric and positive
/// definite" (paper §4.2). The point-collocation alternative is provided
/// for cross-checking and ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Formulation {
    /// Galerkin weighting (test = trial): symmetric positive-definite
    /// matrix, solvable by Cholesky or preconditioned CG.
    #[default]
    Galerkin,
    /// Point collocation at the nodes (on the conductor surface):
    /// nonsymmetric matrix, solved by LU.
    Collocation,
}

/// Linear solver choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Diagonally preconditioned conjugate gradient — the paper's
    /// production solver (§4.3). Galerkin only.
    #[default]
    ConjugateGradient,
    /// Direct Cholesky factorization (Galerkin only).
    Cholesky,
    /// Direct LU (works for both formulations; required for collocation).
    Lu,
}

/// How the prepared Galerkin operator is represented in memory.
///
/// The **dense** backend is the bit-identical default and the accuracy
/// oracle every other backend is measured against: the packed `N(N+1)/2`
/// triangle, assembled by the class-first engine, factorized or retained for
/// PCG. The **hierarchical** backend stores the same operator as a sparse
/// near field plus ACA-compressed far blocks
/// ([`HMatrix`](layerbem_numeric::HMatrix)) — `O(N log N)`-ish bytes and
/// matvec instead of `O(N²)` — and is served by PCG only (there is no
/// factorization of a compressed operator on this path).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum OperatorBackend {
    /// Packed dense triangle (default; bit-identical across both
    /// assembly engines, every schedule and every thread count).
    #[default]
    Dense,
    /// Hierarchical near-dense + far-low-rank operator.
    Hierarchical {
        /// Relative Frobenius tolerance of each far block's ACA
        /// compression (the accuracy knob; solutions agree with the dense
        /// backend to roughly this order).
        tol: f64,
        /// Cluster-tree leaf size cap (the granularity knob: smaller
        /// leaves compress more pairs but add block overhead).
        leaf_size: usize,
    },
}

/// Default ACA tolerance of [`OperatorBackend::hierarchical`].
pub const DEFAULT_ACA_TOL: f64 = 1e-8;
/// Default cluster-tree leaf size of [`OperatorBackend::hierarchical`].
pub const DEFAULT_LEAF_SIZE: usize = 32;

impl OperatorBackend {
    /// The hierarchical backend with the default tolerance
    /// ([`DEFAULT_ACA_TOL`]) and leaf size ([`DEFAULT_LEAF_SIZE`]).
    pub fn hierarchical() -> Self {
        OperatorBackend::Hierarchical {
            tol: DEFAULT_ACA_TOL,
            leaf_size: DEFAULT_LEAF_SIZE,
        }
    }
}

/// Pool and schedule of the parallel assembly and factorization phases.
///
/// One value of this struct is threaded from the CAD front-end through
/// [`SolveOptions::parallelism`] into every pooled path: the class
/// integrations of the Galerkin assembler, of the hierarchical near field
/// and of the edit re-integration, the pooled collocation assembler, the
/// ACA far blocks, the soil-sweep fan-out and the trailing updates of the
/// blocked factorizations. Each of those phases has one body, the pooled
/// one. One thread is a one-thread pool: its regions run inline, and the
/// serial double loop is only the tests' oracle.
/// Every thread count gives that oracle's bits, so this struct decides
/// *who computes*, never *what is computed*. PCG runs serially either
/// way.
#[derive(Clone, Copy, Debug)]
pub struct Parallelism {
    /// The worker pool every parallel region dispatches on.
    pub pool: ThreadPool,
    /// OpenMP-style schedule for those regions.
    pub schedule: Schedule,
}

impl Default for Parallelism {
    /// One thread under `dynamic,1`: the serial program.
    fn default() -> Self {
        Parallelism {
            pool: ThreadPool::new(1),
            schedule: Schedule::dynamic(1),
        }
    }
}

/// Options for a grounding solve.
///
/// Only what a deck, a flag or a caller actually chooses is an option.
/// The outer quadrature is fixed by
/// [`OuterQuadrature`](crate::assembly::OuterQuadrature) and the PCG
/// tolerance by the default [`PcgOptions`](layerbem_numeric::PcgOptions).
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Weighting scheme.
    pub formulation: Formulation,
    /// Linear solver.
    pub solver: SolverChoice,
    /// Parallelism of the assembly **and** factorization phases — the one
    /// knob that decides who computes. The default is one thread, a
    /// one-thread pool: every phase runs its pooled body inline. More
    /// threads integrate chunks of pair classes under the schedule, split
    /// the collocation rows by it, and run each factorization panel's
    /// trailing update on the pool. PCG is serial either way: at the orders solved
    /// here a pooled matvec is slower than the serial one.
    pub parallelism: Parallelism,
    /// Memory/compute representation of the prepared Galerkin operator.
    /// [`OperatorBackend::Dense`] (the default) keeps every existing path
    /// bit-identical; [`OperatorBackend::Hierarchical`] compresses the far
    /// field and requires the Galerkin formulation with the
    /// conjugate-gradient solver.
    pub backend: OperatorBackend,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            formulation: Formulation::Galerkin,
            solver: SolverChoice::ConjugateGradient,
            parallelism: Parallelism::default(),
            backend: OperatorBackend::Dense,
        }
    }
}

impl SolveOptions {
    /// Returns the options with assembly and solve running on `pool`
    /// under `schedule`.
    pub fn with_parallelism(self, pool: ThreadPool, schedule: Schedule) -> Self {
        SolveOptions {
            parallelism: Parallelism { pool, schedule },
            ..self
        }
    }

    /// Returns the options with the given operator backend.
    pub fn with_backend(self, backend: OperatorBackend) -> Self {
        SolveOptions { backend, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_production_setup() {
        // Exhaustive on purpose: a field added to `SolveOptions` must be
        // justified here, or this stops compiling.
        let SolveOptions {
            formulation,
            solver,
            parallelism,
            backend,
        } = SolveOptions::default();
        assert_eq!(formulation, Formulation::Galerkin);
        assert_eq!(solver, SolverChoice::ConjugateGradient);
        assert_eq!(parallelism.pool.threads(), 1, "one thread by default");
        assert_eq!(parallelism.schedule, Schedule::dynamic(1));
        assert_eq!(backend, OperatorBackend::Dense);
    }

    #[test]
    fn with_parallelism_sets_only_the_knob() {
        let o = SolveOptions::default().with_parallelism(ThreadPool::new(4), Schedule::guided(1));
        let par = o.parallelism;
        assert_eq!(par.pool.threads(), 4);
        assert_eq!(par.schedule, Schedule::guided(1));
        assert_eq!(o.solver, SolverChoice::ConjugateGradient);
    }
}
