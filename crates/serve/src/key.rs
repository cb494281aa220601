//! Canonical study keys: what makes two requests "the same study".
//!
//! The cache must hand the same prepared factors to every request that
//! would have produced the same `Study`. Two decks are the same study
//! exactly when their **geometry** (conductor endpoints and radii, in
//! order), **discretization** ([`MeshOptions`]), **soil model**, and the
//! **effective solver configuration** (formulation, solver, outer
//! quadrature, CG tolerance, operator backend, kernel strategy) agree.
//!
//! Deliberately *excluded* from the key:
//!
//! - the deck `title`, `gpr` line and `scenario` stanzas — they choose the
//!   questions, not the prepared operator;
//! - [`SolveOptions::parallelism`] — the repo-wide invariant is that the
//!   pooled assembly/factorization/solve paths are **bit-identical** to
//!   their serial counterparts, so who computes never changes what is
//!   cached. A 1-thread server and a 16-thread server answer from the
//!   same key.
//!
//! Hashing is FNV-1a over the 64-bit IEEE bit patterns of every float
//! (bit patterns, not values: the key must distinguish `-0.0` from `0.0`
//! exactly as the kernel arithmetic can), so the key is stable across
//! runs and platforms with no allocation.

use layerbem_cad::CadCase;
use layerbem_core::formulation::{
    Formulation, KernelEval, OperatorBackend, SolveOptions, SolverChoice,
};
use layerbem_core::workload::StudySpec;
use layerbem_geometry::{Conductor, MeshOptions};
use layerbem_soil::SoilModel;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte chunks.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_be_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn tag(&mut self, tag: u8) {
        self.bytes(&[tag]);
    }
}

/// The canonical identity of a prepared study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StudyKey(pub u64);

impl std::fmt::Display for StudyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl StudyKey {
    /// Key of a parsed deck under the server's solve options. The deck's
    /// `formulation`/`solver` keywords override the server defaults here
    /// exactly as the CAD pipeline applies them, so the key matches the
    /// study the server will actually prepare.
    pub fn of(case: &CadCase, server_opts: &SolveOptions) -> StudyKey {
        StudyKey::of_spec(&case.study_spec(*server_opts))
    }

    /// Key of the study a [`StudySpec`] names — what the cache source is
    /// asked for.
    pub(crate) fn of_spec(spec: &StudySpec<'_>) -> StudyKey {
        StudyKey::of_parts(
            spec.network.conductors(),
            &spec.mesh_options,
            spec.soil,
            &spec.opts,
        )
    }

    /// Key of explicit parts (addressing the cache without a deck).
    pub fn of_parts(
        conductors: &[Conductor],
        mesh: &MeshOptions,
        soil: &SoilModel,
        opts: &SolveOptions,
    ) -> StudyKey {
        let mut h = Fnv::new();

        h.tag(b'G');
        h.u64(conductors.len() as u64);
        for c in conductors {
            for p in [c.axis.a, c.axis.b] {
                h.f64(p.x);
                h.f64(p.y);
                h.f64(p.z);
            }
            h.f64(c.radius);
        }

        h.tag(b'M');
        h.f64(mesh.max_element_length);
        h.f64(mesh.merge_tolerance);

        h.tag(b'S');
        let layers = soil.layers();
        h.u64(layers.len() as u64);
        for layer in &layers {
            h.f64(layer.conductivity);
            h.f64(layer.thickness);
        }

        h.tag(b'O');
        h.tag(match opts.formulation {
            Formulation::Galerkin => 0,
            Formulation::Collocation => 1,
        });
        h.tag(match opts.solver {
            SolverChoice::ConjugateGradient => 0,
            SolverChoice::Cholesky => 1,
            SolverChoice::Lu => 2,
        });
        h.u64(opts.outer_quadrature as u64);
        h.f64(opts.cg_rel_tol);
        match opts.backend {
            OperatorBackend::Dense => h.tag(0),
            OperatorBackend::Hierarchical { tol, leaf_size } => {
                h.tag(1);
                h.f64(tol);
                h.u64(leaf_size as u64);
            }
        }
        h.tag(match opts.kernel_eval {
            KernelEval::Scalar => 0,
            KernelEval::Batched => 1,
        });
        // NOTE: opts.parallelism intentionally not hashed (see module
        // docs) — pooled and serial servers share cache entries because
        // their results are bit-identical.

        StudyKey(h.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_cad::parse_case;
    use layerbem_parfor::{Schedule, ThreadPool};

    const DECK: &str = "\
title A
soil two-layer 0.005 0.016 1.0
gpr 10000
grid rect 0 0 20 20 2 2 0.8 0.006
";

    fn key(deck: &str, opts: &SolveOptions) -> StudyKey {
        StudyKey::of(&parse_case(deck).unwrap(), opts)
    }

    #[test]
    fn same_study_different_questions_share_a_key() {
        let opts = SolveOptions::default();
        let base = key(DECK, &opts);
        // Title, gpr level and scenario stanzas do not change the study.
        let retitled = DECK.replace("title A", "title B").replace("10000", "99");
        assert_eq!(key(&retitled, &opts), base);
        assert_eq!(
            key(&format!("{DECK}scenario fault-current 25000\n"), &opts),
            base
        );
    }

    #[test]
    fn geometry_soil_and_mesh_all_perturb_the_key() {
        let opts = SolveOptions::default();
        let base = key(DECK, &opts);
        assert_ne!(key(&DECK.replace("0.006", "0.007"), &opts), base);
        assert_ne!(key(&DECK.replace("0.016", "0.017"), &opts), base);
        assert_ne!(key(&format!("{DECK}max-element-length 5\n"), &opts), base);
        assert_ne!(key(&format!("{DECK}rod 1 1 0.8 1.5 0.007\n"), &opts), base);
    }

    #[test]
    fn solver_configuration_perturbs_the_key() {
        let opts = SolveOptions::default();
        let base = key(DECK, &opts);
        assert_ne!(key(&format!("{DECK}solver cholesky\n"), &opts), base);
        assert_ne!(
            key(&format!("{DECK}formulation collocation\n"), &opts),
            base
        );
        let tighter = SolveOptions {
            cg_rel_tol: 1e-12,
            ..SolveOptions::default()
        };
        assert_ne!(key(DECK, &tighter), base);
        let hier = SolveOptions::default().with_backend(OperatorBackend::hierarchical());
        assert_ne!(key(DECK, &hier), base);
    }

    #[test]
    fn parallelism_is_excluded_pooled_and_serial_share_entries() {
        let serial = SolveOptions::default();
        let pooled =
            SolveOptions::default().with_parallelism(ThreadPool::new(8), Schedule::guided(2));
        assert_eq!(key(DECK, &serial), key(DECK, &pooled));
    }

    #[test]
    fn key_displays_as_16_hex_digits() {
        let k = key(DECK, &SolveOptions::default());
        let s = k.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        // Stable across calls (pure function of the canonical form).
        assert_eq!(k, key(DECK, &SolveOptions::default()));
    }
}
