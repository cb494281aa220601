//! The keyed factorization cache: single-flight prepare, shared readers,
//! LRU eviction by resident bytes.
//!
//! The cache maps a canonical [`StudyKey`] to an `Arc<Study>` whose
//! factors are immutable after prepare — so any number of worker threads
//! answer scenarios from one entry concurrently, with no per-request
//! locking beyond the map lookup. Three properties the server tests pin:
//!
//! * **Single-flight**: N concurrent requests for an absent key run
//!   exactly ONE prepare; the others block on the in-flight build and
//!   count as hits (they paid none of the O(N³) cost).
//! * **Panic containment**: the build closure runs under
//!   [`std::panic::catch_unwind`]; a panicking prepare
//!   surfaces as a typed [`ExecuteError::Internal`] error to every waiter
//!   and leaves the cache consistent (no poisoned slot).
//! * **Bounded residency**: entries are charged their
//!   [`Study::resident_bytes`] (dense factor ≈ `8·N(N+1)/2`, hierarchical
//!   exact from compression stats) plus their deck alias, and evicted
//!   least-recently-used while the total exceeds the budget. The entry
//!   being inserted is exempt — a study larger than the whole budget
//!   still serves its requester, then leaves on the next insert. A key's
//!   canonical bytes (56 per conductor) are, like the mesh a study keeps,
//!   O(N) next to its factor and not charged.
//!
//! The map is keyed by the full [`StudyKey`] — canonical bytes, compared
//! in full — so a digest collision is two entries, never a wrong hit.
//!
//! **Deck aliases.** A resident entry may hold one raw deck text plus the
//! [`CadCase`] parsed from it (`attach_alias`, after the study
//! resolved), so a repeated deck is answered without being parsed again
//! (`alias`). An index maps the
//! text's digest to the entry's key; a lookup returns the case only when
//! the stored text is byte-equal to the request's. The newest alias of an
//! entry replaces the old one (and one digest indexes one text). Its
//! bytes — text plus case — are charged to the entry, only when they fit
//! the budget (an alias never evicts a study), and it dies with the
//! entry on eviction or republish.

use std::collections::HashMap;
use std::mem::size_of;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use layerbem_cad::CadCase;
use layerbem_core::formulation::SolveOptions;
use layerbem_core::incremental::EditOp;
use layerbem_core::study::{Scenario, Study};
use layerbem_core::workload::{
    execute, ExecuteError, Executed, Sourced, StudySource, StudySpec, Workload,
};
use layerbem_geometry::Conductor;
use layerbem_soil::Layer;

use crate::key::{digest, StudyKey};
use crate::metrics::Metrics;

/// How a request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from a resident (or in-flight) study.
    Hit,
    /// This request ran the prepare.
    Miss,
}

/// A resident entry: the shared study plus its accounting.
struct Entry {
    study: Arc<Study>,
    /// Charged bytes: the study's, the key's and the alias's.
    bytes: usize,
    /// Logical clock tick of the last touch (monotone per cache).
    last_used: u64,
    alias: Option<Alias>,
}

/// A deck text the entry's study was resolved from, with its parse.
struct Alias {
    digest: u64,
    text: Arc<str>,
    case: Arc<CadCase>,
    /// What the alias is charged ([`alias_bytes`]).
    bytes: usize,
}

/// What an alias of `text` parsed to `case` is charged: the text plus
/// the case — its struct and its vectors at length.
fn alias_bytes(text: &str, case: &CadCase) -> usize {
    let scenarios = case.scenarios.len() + case.workload.scenario_list().map_or(0, <[_]>::len);
    text.len()
        + size_of::<CadCase>()
        + case.title.len()
        + case.network.len() * size_of::<Conductor>()
        + case.soil.layers().len() * size_of::<Layer>()
        + scenarios * size_of::<Scenario>()
        + case.edits.len() * size_of::<EditOp>()
}

/// One in-flight prepare that later requesters wait on.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<Result<Arc<Study>, ExecuteError>>>,
    done: Condvar,
}

enum Slot {
    Ready(Entry),
    Preparing(Arc<Flight>),
}

#[derive(Default)]
struct Inner {
    slots: HashMap<StudyKey, Slot>,
    /// Raw deck digest → the key whose Ready entry holds that deck as its
    /// alias (exactly the live aliases, one per digest).
    aliases: HashMap<u64, StudyKey>,
    /// Bytes of all Ready entries.
    resident_bytes: usize,
    /// Monotone LRU clock.
    clock: u64,
    evictions: u64,
}

impl Inner {
    /// Inserts (or replaces) a Ready entry charged its study.
    fn insert(&mut self, key: StudyKey, study: Arc<Study>) -> usize {
        self.remove(&key);
        let bytes = study.resident_bytes();
        self.clock += 1;
        let entry = Entry {
            study,
            bytes,
            last_used: self.clock,
            alias: None,
        };
        self.slots.insert(key, Slot::Ready(entry));
        self.resident_bytes += bytes;
        bytes
    }

    /// Drops `key`'s slot; a Ready entry's bytes and alias are released.
    fn remove(&mut self, key: &StudyKey) {
        self.detach(key);
        if let Some(Slot::Ready(entry)) = self.slots.remove(key) {
            self.resident_bytes -= entry.bytes;
        }
    }

    /// Drops `key`'s alias, if it has one, with its index slot and bytes.
    fn detach(&mut self, key: &StudyKey) {
        let Some(Slot::Ready(entry)) = self.slots.get_mut(key) else {
            return;
        };
        let Some(alias) = entry.alias.take() else {
            return;
        };
        entry.bytes -= alias.bytes;
        self.resident_bytes -= alias.bytes;
        if self.aliases.get(&alias.digest) == Some(key) {
            self.aliases.remove(&alias.digest);
        }
    }
}

/// The shared study cache (wrap in an `Arc` to share across workers).
pub struct StudyCache {
    inner: Mutex<Inner>,
    /// Residency budget in bytes; 0 means unlimited.
    max_resident_bytes: usize,
    /// The deck-text digest (a parameter only so tests can force
    /// collisions).
    deck_digest: fn(&[u8]) -> u64,
}

impl StudyCache {
    /// Creates a cache with the given residency budget (0 = unlimited).
    pub fn new(max_resident_bytes: usize) -> Self {
        StudyCache {
            inner: Mutex::new(Inner::default()),
            max_resident_bytes,
            deck_digest: digest,
        }
    }

    /// A cache whose deck-text digest is `deck_digest` (collisions on
    /// demand).
    #[cfg(test)]
    pub(crate) fn with_deck_digest(
        max_resident_bytes: usize,
        deck_digest: fn(&[u8]) -> u64,
    ) -> Self {
        StudyCache {
            deck_digest,
            ..StudyCache::new(max_resident_bytes)
        }
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn max_resident_bytes(&self) -> usize {
        self.max_resident_bytes
    }

    /// `(resident studies, resident bytes, evictions so far)`. The bytes
    /// count the studies (and remembered decks) the cache holds. A study
    /// evicted while an in-flight request still holds its `Arc` stays in
    /// memory, uncounted, until that request drops it.
    pub fn residency(&self) -> (usize, usize, u64) {
        let inner = self.inner.lock().expect("cache lock");
        let ready = inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count();
        (ready, inner.resident_bytes, inner.evictions)
    }

    /// Whether `key` is resident right now (test hook; racy by nature).
    pub fn contains(&self, key: &StudyKey) -> bool {
        let inner = self.inner.lock().expect("cache lock");
        matches!(inner.slots.get(key), Some(Slot::Ready(_)))
    }

    /// Returns the study for `key`, running `build` (under single-flight
    /// and panic containment) only if it is neither resident nor already
    /// being prepared by another thread.
    pub fn get_or_prepare<F>(
        &self,
        key: &StudyKey,
        build: F,
    ) -> Result<(Arc<Study>, CacheOutcome), ExecuteError>
    where
        F: FnOnce() -> Result<Study, ExecuteError>,
    {
        let flight = {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let tick = inner.clock;
            match inner.slots.get_mut(key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_used = tick;
                    return Ok((Arc::clone(&entry.study), CacheOutcome::Hit));
                }
                Some(Slot::Preparing(flight)) => {
                    // Someone else is paying the prepare: wait for them.
                    let flight = Arc::clone(flight);
                    drop(inner);
                    return Self::await_flight(&flight).map(|s| (s, CacheOutcome::Hit));
                }
                None => {
                    let flight = Arc::new(Flight::default());
                    inner
                        .slots
                        .insert(key.clone(), Slot::Preparing(Arc::clone(&flight)));
                    flight
                }
            }
        };

        // We own the flight: build outside the map lock so hits on other
        // keys (and waiters) proceed while the O(N³) prepare runs.
        let built = catch_unwind(AssertUnwindSafe(build)).unwrap_or_else(|panic| {
            // `panic.as_ref()`, not `&panic`: the latter would coerce the
            // Box itself (not the payload) into `dyn Any` and every
            // downcast would miss.
            Err(ExecuteError::Internal(format!(
                "prepare panicked: {}",
                panic_message(panic.as_ref())
            )))
        });

        let outcome = match built {
            Ok(study) => {
                let study = Arc::new(study);
                let mut inner = self.inner.lock().expect("cache lock");
                inner.insert(key.clone(), Arc::clone(&study));
                self.evict_over_budget(&mut inner, key);
                Ok(study)
            }
            Err(e) => {
                // Failed prepares leave nothing resident: the next
                // request retries from scratch.
                let mut inner = self.inner.lock().expect("cache lock");
                inner.slots.remove(key);
                Err(e)
            }
        };

        let mut slot = flight.result.lock().expect("flight lock");
        *slot = Some(outcome.clone());
        drop(slot);
        flight.done.notify_all();
        outcome.map(|s| (s, CacheOutcome::Miss))
    }

    /// Publishes (or replaces) a resident entry under `key`, re-charging
    /// its [`Study::resident_bytes`] against the budget.
    ///
    /// This is the path edited studies take back into the cache.
    /// [`get_or_prepare`](StudyCache::get_or_prepare) charges bytes once
    /// at insert, which is sound only while a study's footprint is
    /// immutable — an edit session can grow it (an editable study
    /// retains its assembled operator) or shrink it (a republished
    /// frozen clone drops it), so the accounting must be redone here:
    /// the old entry's bytes (and its alias) are released, the new
    /// study's charged, and the LRU pass runs so a republished study can
    /// never silently push the cache past `max_resident_bytes`.
    ///
    /// Returns the bytes now charged. If the key is mid-prepare
    /// (single-flight in progress) the publish is declined and returns
    /// 0 — the in-flight build's insert would otherwise clobber this
    /// entry while its bytes stayed counted.
    pub fn publish(&self, key: StudyKey, study: Arc<Study>) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(Slot::Preparing(_)) = inner.slots.get(&key) {
            return 0;
        }
        let bytes = inner.insert(key.clone(), study);
        self.evict_over_budget(&mut inner, &key);
        bytes
    }

    /// The parse of deck `text` and the key of its resident study, when
    /// a resident entry holds `text` as its alias — byte-verified: a
    /// digest that indexes another text is a miss.
    pub(crate) fn alias(&self, text: &str) -> Option<(Arc<CadCase>, StudyKey)> {
        let digest = (self.deck_digest)(text.as_bytes());
        let inner = self.inner.lock().expect("cache lock");
        let key = inner.aliases.get(&digest)?;
        match inner.slots.get(key) {
            Some(Slot::Ready(Entry {
                alias: Some(alias), ..
            })) if *alias.text == *text => Some((Arc::clone(&alias.case), key.clone())),
            _ => None,
        }
    }

    /// Remembers that deck `text` parses to `case`, whose study is
    /// resident under `key`: the entry's alias becomes this one (the old
    /// one, and any other text under the same digest, is dropped) and its
    /// bytes are charged to the entry. A no-op unless `key` is resident;
    /// declined when the alias does not fit the budget — a parse is never
    /// worth evicting a study for.
    pub(crate) fn attach_alias(&self, key: &StudyKey, text: &str, case: &Arc<CadCase>) {
        let digest = (self.deck_digest)(text.as_bytes());
        let mut inner = self.inner.lock().expect("cache lock");
        if !matches!(inner.slots.get(key), Some(Slot::Ready(_))) {
            return;
        }
        if let Some(previous) = inner.aliases.remove(&digest) {
            inner.detach(&previous);
        }
        inner.detach(key);
        let bytes = alias_bytes(text, case);
        if self.max_resident_bytes != 0 && inner.resident_bytes + bytes > self.max_resident_bytes {
            return;
        }
        let Some(Slot::Ready(entry)) = inner.slots.get_mut(key) else {
            unreachable!("checked above");
        };
        entry.alias = Some(Alias {
            digest,
            text: Arc::from(text),
            case: Arc::clone(case),
            bytes,
        });
        entry.bytes += bytes;
        inner.resident_bytes += bytes;
        inner.aliases.insert(digest, key.clone());
    }

    /// Blocks until the flight's owner publishes a result.
    fn await_flight(flight: &Flight) -> Result<Arc<Study>, ExecuteError> {
        let mut slot = flight.result.lock().expect("flight lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = flight.done.wait(slot).expect("flight wait");
        }
    }

    /// Evicts least-recently-used Ready entries (never `just_inserted`,
    /// never in-flight slots) until the budget is met or nothing evictable
    /// remains.
    fn evict_over_budget(&self, inner: &mut Inner, just_inserted: &StudyKey) {
        if self.max_resident_bytes == 0 {
            return;
        }
        while inner.resident_bytes > self.max_resident_bytes {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) if k != just_inserted => Some((k, e.last_used)),
                    _ => None,
                })
                .min_by_key(|(_, used)| *used)
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            // Readers still holding the Arc keep answering from it; only
            // the cache's reference (and the entry's alias) is dropped.
            inner.remove(&k);
            inner.evictions += 1;
        }
    }
}

/// A request's deck, resolved once: its case and its base study's key
/// under the server's options `opts` — read off an alias, or parsed and
/// keyed by the request, which then keeps the text (`parsed`).
pub(crate) struct Deck<'a> {
    pub cache: &'a StudyCache,
    pub metrics: &'a Metrics,
    pub opts: SolveOptions,
    pub case: Arc<CadCase>,
    pub key: StudyKey,
    pub parsed: Option<&'a str>,
}

impl Deck<'_> {
    /// The base study's spec (what `key` names).
    pub fn spec(&self) -> StudySpec<'_> {
        self.case.study_spec(self.opts)
    }

    /// Answers `workload` for this deck on the one executor, drawing
    /// studies from the cache; a deck the request parsed then becomes its
    /// resident base study's alias.
    pub fn execute(&self, workload: &Workload) -> Result<Executed, ExecuteError> {
        let base = self.spec();
        let source = Source {
            deck: self,
            base: &base,
        };
        let executed = execute(&base, workload, &self.case.edits, &source)?;
        if let Some(text) = self.parsed {
            self.cache.attach_alias(&self.key, text, &self.case);
        }
        Ok(executed)
    }
}

/// The keyed cache as the executor's study source for one deck: resident
/// studies are reused, absent ones prepared once (single-flight), and the
/// hit/miss/prepare metrics move here, where the outcome is known. The
/// base spec — the very value handed to the executor — is drawn under
/// the deck's key; any other spec (a sweep sample's) is keyed here.
struct Source<'s, 'd> {
    deck: &'s Deck<'d>,
    base: &'s StudySpec<'s>,
}

impl StudySource for Source<'_, '_> {
    fn study(&self, spec: &StudySpec<'_>) -> Result<Sourced, ExecuteError> {
        let sample;
        let key = if std::ptr::eq(spec, self.base) {
            &self.deck.key
        } else {
            sample = StudyKey::of_spec(spec);
            &sample
        };
        debug_assert!(*key == StudyKey::of_spec(spec), "the key names the spec");
        let (cache, metrics) = (self.deck.cache, self.deck.metrics);
        let t = Instant::now();
        // A miss is counted before its entry is published, so `stats`
        // never shows a resident study whose miss is not yet counted.
        let (study, outcome) = cache.get_or_prepare(key, || {
            spec.prepare()
                .inspect(|_| Metrics::bump(&metrics.cache_misses))
        })?;
        let elapsed = t.elapsed();
        match outcome {
            CacheOutcome::Miss => metrics.prepare.record(elapsed),
            CacheOutcome::Hit => Metrics::bump(&metrics.cache_hits),
        }
        Ok(Sourced {
            study,
            reused: outcome == CacheOutcome::Hit,
            prepare_seconds: elapsed.as_secs_f64(),
        })
    }

    /// Cached studies are shared; edits belong to the `edit` op's session.
    fn replays_edits(&self) -> bool {
        false
    }
}

/// Best-effort text of a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_core::formulation::SolveOptions;
    use layerbem_core::study::PrepareError;
    use layerbem_core::system::GroundingSystem;
    use layerbem_geometry::conductor::ground_rod;
    use layerbem_geometry::{ConductorNetwork, MeshOptions, Mesher, Point3};
    use layerbem_soil::SoilModel;

    fn rod_study(x: f64) -> Study {
        let mut net = ConductorNetwork::new();
        net.add(ground_rod(Point3::new(x, 0.0, 0.5), 2.0, 0.007));
        let mesh = Mesher::new(MeshOptions {
            max_element_length: 0.5,
        })
        .mesh(&net);
        GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default())
            .prepare()
            .expect("prepare")
    }

    fn key(n: u64) -> StudyKey {
        StudyKey::of_test_bytes(&n.to_le_bytes())
    }

    #[test]
    fn first_request_misses_then_hits() {
        let cache = StudyCache::new(0);
        let (a, o1) = cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (b, o2) = cache
            .get_or_prepare(&key(1), || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit returns the same study");
        assert_eq!(cache.residency().0, 1);
        // The study solves its unit system on the first request, after
        // the cache charged it: the charge already covers that vector.
        use layerbem_core::study::Scenario;
        for volts in [1_000.0, 5_000.0] {
            b.solve_batch(&[Scenario::gpr(volts), Scenario::fault_current(volts)])
                .expect("solve");
        }
        assert_eq!(b.profile().unit_solves, 1);
        assert_eq!(cache.residency().1, b.resident_bytes());
    }

    #[test]
    fn failed_prepare_is_typed_and_leaves_no_residue() {
        let cache = StudyCache::new(0);
        let err = cache
            .get_or_prepare(&key(2), || {
                Err(PrepareError::UnsupportedBackend("singular").into())
            })
            .unwrap_err();
        assert!(matches!(err, ExecuteError::Prepare(_)), "{err}");
        assert!(!cache.contains(&key(2)));
        // The key is retryable after the failure.
        let (_, o) = cache
            .get_or_prepare(&key(2), || Ok(rod_study(0.0)))
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn panicking_prepare_is_contained_as_internal_error() {
        let cache = StudyCache::new(0);
        let err = cache
            .get_or_prepare(&key(3), || -> Result<Study, ExecuteError> {
                panic!("boom in prepare")
            })
            .unwrap_err();
        assert!(
            matches!(&err, ExecuteError::Internal(why) if why.contains("boom in prepare")),
            "{err}"
        );
        assert!(!cache.contains(&key(3)));
        // The cache still works afterwards.
        assert!(cache.get_or_prepare(&key(3), || Ok(rod_study(0.0))).is_ok());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let probe = rod_study(0.0).resident_bytes();
        // Room for two studies, not three.
        let cache = StudyCache::new(probe * 2 + probe / 2);
        cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache
            .get_or_prepare(&key(1), || panic!("resident"))
            .unwrap();
        cache
            .get_or_prepare(&key(3), || Ok(rod_study(2.0)))
            .unwrap();
        assert!(cache.contains(&key(1)), "recently used survives");
        assert!(!cache.contains(&key(2)), "LRU evicted");
        assert!(cache.contains(&key(3)), "new entry resident");
        let (studies, bytes, evictions) = cache.residency();
        assert_eq!(studies, 2);
        assert!(bytes <= cache.max_resident_bytes());
        assert_eq!(evictions, 1);
        // Re-requesting the evicted key re-prepares.
        let (_, o) = cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn oversized_entry_still_serves_its_requester() {
        // Budget smaller than any study: the insert is exempt from its
        // own eviction pass, so the requester is served; the entry is
        // evicted when the NEXT insert rebalances.
        let cache = StudyCache::new(1);
        let (s, o) = cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert!(s.dof() > 0);
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        assert!(!cache.contains(&key(1)), "displaced by the next insert");
    }

    #[test]
    fn republishing_an_edited_study_recharges_bytes_and_keeps_the_budget() {
        use layerbem_core::formulation::SolverChoice;
        // An *editable* Cholesky study retains its assembled operator, so
        // it is strictly bigger than the frozen study the cache first
        // charged for the same key — the footprint-change case `publish`
        // must re-account.
        let editable = {
            let mut net = ConductorNetwork::new();
            net.add(ground_rod(Point3::new(0.0, 0.0, 0.5), 2.0, 0.007));
            let mesh = Mesher::new(MeshOptions {
                max_element_length: 0.5,
            })
            .mesh(&net);
            let opts = SolveOptions {
                solver: SolverChoice::Cholesky,
                ..Default::default()
            };
            GroundingSystem::new(mesh, &SoilModel::uniform(0.016), opts)
                .prepare_editable()
                .expect("prepare editable")
        };
        let frozen_bytes = rod_study(0.0).resident_bytes();
        let editable_bytes = editable.resident_bytes();
        assert!(
            editable_bytes > frozen_bytes,
            "editable ({editable_bytes}) must outweigh frozen ({frozen_bytes})"
        );

        // Room for two frozen studies (plus slack), not for one frozen
        // plus the editable (at 5 dof the retained operator is only half
        // a frozen study, so the slack must stay below that).
        let cache = StudyCache::new(frozen_bytes * 2 + frozen_bytes / 4);
        cache
            .get_or_prepare(&key(1), || Ok(rod_study(1.0)))
            .unwrap();
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(0.0)))
            .unwrap();

        // Republish key 2 in its edited (larger) form: the entry is
        // re-charged and the LRU (key 1) evicted — the budget holds.
        let charged = cache.publish(key(2), Arc::new(editable));
        assert_eq!(charged, editable_bytes);
        let (studies, bytes, evictions) = cache.residency();
        assert!(
            bytes <= cache.max_resident_bytes(),
            "an edited study must not silently exceed the budget \
             ({bytes} > {})",
            cache.max_resident_bytes()
        );
        assert_eq!(bytes, editable_bytes, "old charge released, new charged");
        assert_eq!(studies, 1);
        assert_eq!(evictions, 1);
        assert!(!cache.contains(&key(1)), "LRU evicted to fund the edit");
        assert!(cache.contains(&key(2)));

        // A publish under an absent key simply inserts (and is evictable
        // like any other entry).
        let charged = cache.publish(key(3), Arc::new(rod_study(2.0)));
        assert_eq!(charged, frozen_bytes);
        assert!(cache.contains(&key(3)));
        assert!(!cache.contains(&key(2)), "bigger entry displaced in turn");
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let cache = StudyCache::new(0);
        for i in 0..4 {
            cache
                .get_or_prepare(&key(i), || Ok(rod_study(i as f64)))
                .unwrap();
        }
        assert_eq!(cache.residency().0, 4);
        assert_eq!(cache.residency().2, 0);
    }

    #[test]
    fn concurrent_same_key_requests_run_exactly_one_prepare() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(StudyCache::new(0));
        let prepares = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let prepares = Arc::clone(&prepares);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_prepare(&key(7), || {
                        prepares.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really queue.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(rod_study(0.0))
                    })
                    .unwrap()
            }));
        }
        let results: Vec<(Arc<Study>, CacheOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(prepares.load(Ordering::SeqCst), 1, "single-flight");
        let misses = results
            .iter()
            .filter(|(_, o)| *o == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1, "exactly one requester paid the prepare");
        for (s, _) in &results {
            assert!(Arc::ptr_eq(s, &results[0].0), "all share one study");
        }
    }

    #[test]
    fn digest_collisions_are_separate_entries_on_prepare_and_publish() {
        // Three identities forced onto one digest: each is its own entry.
        let (a, b, c) = (
            key(1).with_digest(7),
            key(2).with_digest(7),
            key(3).with_digest(7),
        );
        let cache = StudyCache::new(0);
        let (sa, o) = cache.get_or_prepare(&a, || Ok(rod_study(0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        let (sb, o) = cache.get_or_prepare(&b, || Ok(rod_study(1.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "a colliding digest is not a hit");
        assert!(!Arc::ptr_eq(&sa, &sb), "b got its own study");
        let sc = Arc::new(rod_study(2.0));
        cache.publish(c.clone(), Arc::clone(&sc));
        assert_eq!(cache.residency().0, 3, "publish displaced nobody");
        for (k, want) in [(&a, &sa), (&b, &sb), (&c, &sc)] {
            let (got, o) = cache.get_or_prepare(k, || panic!("resident")).unwrap();
            assert_eq!(o, CacheOutcome::Hit);
            assert!(Arc::ptr_eq(&got, want), "each key answers its own study");
        }
    }

    fn rod_case(deck: &str) -> Arc<CadCase> {
        Arc::new(layerbem_cad::parse_case(deck).expect("deck parses"))
    }

    /// The sum of the resident entries' charges, each re-derived from
    /// its parts.
    fn charged(cache: &StudyCache) -> usize {
        let inner = cache.inner.lock().unwrap();
        inner
            .slots
            .values()
            .filter_map(|s| match s {
                Slot::Ready(e) => {
                    let alias = e.alias.as_ref().map_or(0, |a| a.bytes);
                    assert_eq!(e.bytes, e.study.resident_bytes() + alias);
                    Some(e.bytes)
                }
                Slot::Preparing(_) => None,
            })
            .sum()
    }

    /// A rod of `1 + k/2` metres: each key's study has its own dof.
    fn keyed_study(k: u64) -> Study {
        let mut net = ConductorNetwork::new();
        net.add(ground_rod(
            Point3::new(0.0, 0.0, 0.5),
            1.0 + 0.5 * k as f64,
            0.007,
        ));
        let mesh = Mesher::new(MeshOptions {
            max_element_length: 0.5,
        })
        .mesh(&net);
        GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default())
            .prepare()
            .expect("prepare")
    }

    #[test]
    fn publishes_racing_prepares_keep_exact_accounting() {
        const KEYS: u64 = 4;
        let dof: Vec<usize> = (0..KEYS).map(|k| keyed_study(k).dof()).collect();
        let largest = (0..KEYS)
            .map(|k| keyed_study(k).resident_bytes())
            .max()
            .unwrap();
        // Room for about two studies: evictions race every insert.
        let cache = Arc::new(StudyCache::new(2 * largest + largest / 2));
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let dof = dof.clone();
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let k = (t + round) % KEYS;
                        if t % 2 == 0 {
                            // An edited study published under its key.
                            cache.publish(key(k), Arc::new(keyed_study(k)));
                        } else {
                            let (study, _) = cache
                                .get_or_prepare(&key(k), || Ok(keyed_study(k)))
                                .expect("prepare");
                            assert_eq!(study.dof(), dof[k as usize], "key {k}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("every requester received its study");
        }
        let (studies, bytes, evictions) = cache.residency();
        assert_eq!(charged(&cache), bytes);
        assert!(bytes <= cache.max_resident_bytes());
        assert!((1..=KEYS as usize).contains(&studies));
        assert!(evictions > 0, "the budget was exercised");
    }

    #[test]
    fn aliases_are_byte_verified_charged_and_die_with_their_entry() {
        const A: &str = "rod 0 0 0.5 2 0.007\n";
        const B: &str = "title other\nrod 0 0 0.5 2 0.007\n";
        let probe = rod_study(0.0).resident_bytes();
        // Room for two studies and one alias, not for three studies.
        let cache = StudyCache::new(probe * 2 + probe / 2 + alias_bytes(B, &rod_case(B)));
        cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        // Not resident: nothing to attach to.
        cache.attach_alias(&key(9), A, &rod_case(A));
        assert!(cache.alias(A).is_none());

        let case = rod_case(A);
        cache.attach_alias(&key(1), A, &case);
        let (got, k) = cache.alias(A).expect("aliased");
        assert!(Arc::ptr_eq(&got, &case) && k == key(1));
        assert!(cache.alias(B).is_none(), "another text is a miss");
        assert_eq!(cache.residency().1, charged(&cache));
        assert!(charged(&cache) > probe + A.len(), "text and case charged");

        // The newest alias replaces the old one.
        cache.attach_alias(&key(1), B, &rod_case(B));
        assert!(cache.alias(A).is_none());
        assert!(cache.alias(B).is_some());
        assert_eq!(cache.residency().1, charged(&cache));

        // Two more studies push key 1 (the LRU) out; its alias goes too.
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        cache
            .get_or_prepare(&key(3), || Ok(rod_study(2.0)))
            .unwrap();
        assert!(!cache.contains(&key(1)));
        assert!(cache.alias(B).is_none(), "the alias died with its entry");
        assert!(cache.inner.lock().unwrap().aliases.is_empty());
        assert_eq!(cache.residency().1, charged(&cache));

        // A republish drops the entry's alias as well.
        cache.attach_alias(&key(3), A, &rod_case(A));
        assert!(cache.alias(A).is_some());
        cache.publish(key(3), Arc::new(rod_study(2.0)));
        assert!(cache.alias(A).is_none());
        assert_eq!(cache.residency().1, charged(&cache));
    }

    #[test]
    fn an_alias_that_does_not_fit_is_declined_and_evicts_nothing() {
        const A: &str = "rod 0 0 0.5 2 0.007\n";
        let probe = rod_study(0.0).resident_bytes();
        let cache = StudyCache::new(probe * 2 + alias_bytes(A, &rod_case(A)) / 2);
        cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        cache.attach_alias(&key(1), A, &rod_case(A));
        assert!(cache.alias(A).is_none(), "declined");
        assert_eq!(cache.residency(), (2, 2 * probe, 0), "nobody evicted");
    }

    #[test]
    fn a_deck_digest_collision_is_a_miss_and_one_digest_indexes_one_text() {
        const A: &str = "rod 0 0 0.5 2 0.007\n";
        const B: &str = "rod 1 0 0.5 2 0.007\n";
        let cache = StudyCache::with_deck_digest(0, |_| 0);
        cache
            .get_or_prepare(&key(1), || Ok(rod_study(0.0)))
            .unwrap();
        cache
            .get_or_prepare(&key(2), || Ok(rod_study(1.0)))
            .unwrap();
        cache.attach_alias(&key(1), A, &rod_case(A));
        assert!(cache.alias(B).is_none(), "same digest, other bytes: a miss");
        // B takes the digest over; A's alias is dropped, not orphaned.
        cache.attach_alias(&key(2), B, &rod_case(B));
        assert_eq!(cache.alias(B).map(|(_, k)| k), Some(key(2)));
        assert!(cache.alias(A).is_none());
        let inner = cache.inner.lock().unwrap();
        let aliased = inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(e) if e.alias.is_some()))
            .count();
        assert_eq!((aliased, inner.aliases.len()), (1, 1));
        drop(inner);
        assert_eq!(cache.residency().1, charged(&cache));
    }
}
