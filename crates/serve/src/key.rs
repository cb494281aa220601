//! Canonical study keys: what makes two requests "the same study".
//!
//! The cache must hand the same prepared factors to every request that
//! would have produced the same `Study`. Two decks are the same study
//! exactly when their **geometry** (conductor endpoints and radii, in
//! order), **discretization** (the element-length cap of
//! [`MeshOptions`]), **soil model** (every layer's conductivity and
//! thickness), and the **effective solver configuration** (formulation,
//! solver, operator backend with its tolerance and leaf size) agree.
//!
//! Deliberately *excluded* from the key:
//!
//! - the deck `title`, `gpr` line and `scenario` stanzas — they choose the
//!   questions, not the prepared operator;
//! - [`SolveOptions::parallelism`] — the repo-wide invariant is that the
//!   assembly/factorization/solve paths are **bit-identical** at every
//!   thread count, so who computes never changes what is cached. A 1-thread server and a 16-thread server answer from the
//!   same key.
//!
//! **The identity is the bytes.** A key *is* the canonical encoding of
//! those fields — tags, counts and the 64-bit IEEE bit patterns of every
//! float (bit patterns, not values: the key must distinguish `-0.0` from
//! `0.0` exactly as the kernel arithmetic can) — and `Eq` compares it in
//! full. The 64-bit digest of the bytes is only an index: it is the
//! `HashMap` hash, the 16-hex [`Display`](std::fmt::Display) form the wire
//! reports, and nothing else, so two studies whose digests collide are
//! still two cache entries and neither is ever served for the other.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use layerbem_cad::CadCase;
use layerbem_core::formulation::{Formulation, OperatorBackend, SolveOptions, SolverChoice};
use layerbem_core::workload::StudySpec;
use layerbem_geometry::{Conductor, MeshOptions};
use layerbem_soil::SoilModel;

/// 64-bit digest of `bytes`, a little-endian word at a time (multiply-
/// rotate per word, a SplitMix64 finalizer at the end). Stable across
/// runs and platforms; an index, never an identity.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h ^= u64::from_le_bytes(tail);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The canonical encoder: tagged fields appended as little-endian words.
struct Canonical(Vec<u8>);

impl Canonical {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn tag(&mut self, tag: u8) {
        self.0.push(tag);
    }
}

/// The canonical identity of a prepared study: its canonical bytes, and
/// their digest as the index.
#[derive(Clone, Debug)]
pub struct StudyKey {
    digest: u64,
    bytes: Arc<[u8]>,
}

impl PartialEq for StudyKey {
    fn eq(&self, other: &StudyKey) -> bool {
        self.digest == other.digest && self.bytes == other.bytes
    }
}

impl Eq for StudyKey {}

impl Hash for StudyKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

impl std::fmt::Display for StudyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.digest)
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

    /// Key of explicit parts.
    fn of_parts(
        conductors: &[Conductor],
        mesh: &MeshOptions,
        soil: &SoilModel,
        opts: &SolveOptions,
    ) -> StudyKey {
        let mut h = Canonical(Vec::with_capacity(128 + 56 * conductors.len()));

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
        match opts.backend {
            OperatorBackend::Dense => h.tag(0),
            OperatorBackend::Hierarchical { tol, leaf_size } => {
                h.tag(1);
                h.f64(tol);
                h.u64(leaf_size as u64);
            }
        }
        // NOTE: opts.parallelism intentionally not encoded (see module
        // docs) — pooled and serial servers share cache entries because
        // their results are bit-identical.

        StudyKey::from_bytes(&h.0)
    }

    fn from_bytes(bytes: &[u8]) -> StudyKey {
        StudyKey {
            digest: digest(bytes),
            bytes: Arc::from(bytes),
        }
    }

    /// A key over arbitrary canonical bytes (tests address the cache
    /// without building a study description).
    #[cfg(test)]
    pub(crate) fn of_test_bytes(bytes: &[u8]) -> StudyKey {
        StudyKey::from_bytes(bytes)
    }

    /// The same identity under a forced digest: collisions on demand.
    #[cfg(test)]
    pub(crate) fn with_digest(mut self, digest: u64) -> StudyKey {
        self.digest = digest;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_cad::parse_case;
    use layerbem_geometry::conductor::ground_rod;
    use layerbem_geometry::Point3;
    use layerbem_parfor::{Schedule, ThreadPool};
    use std::collections::HashSet;

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

    #[test]
    fn identity_is_the_bytes_even_when_an_8_bit_digest_collides() {
        // 300 distinct rods under a digest cut to 8 bits: the pigeonhole
        // forces collisions, and every key must still be its own.
        let (mesh, soil, opts) = (
            MeshOptions::default(),
            SoilModel::uniform(0.016),
            SolveOptions::default(),
        );
        let keys: Vec<StudyKey> = (0..300)
            .map(|i| {
                let rod = ground_rod(Point3::new(i as f64, 0.0, 0.5), 2.0, 0.007);
                let k = StudyKey::of_parts(&[rod], &mesh, &soil, &opts);
                let weak = k.digest & 0xff;
                k.with_digest(weak)
            })
            .collect();
        let digests: HashSet<u64> = keys.iter().map(|k| k.digest).collect();
        assert!(digests.len() <= 256, "the digest really is 8 bits");
        let distinct: HashSet<&StudyKey> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "no two studies are one key");
    }

    #[test]
    fn digest_reads_every_byte_and_the_length() {
        let base = digest(b"canonical bytes!");
        assert_ne!(digest(b"canonical bytes?"), base, "last word");
        assert_ne!(digest(b"Canonical bytes!"), base, "first word");
        assert_ne!(digest(b"canonical bytes!\0"), base, "a zero tail");
        assert_eq!(digest(b"canonical bytes!"), base, "pure");
    }
}
