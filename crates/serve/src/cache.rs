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
//!   exact from compression stats) and evicted least-recently-used while
//!   the total exceeds the budget. The entry being inserted is exempt —
//!   a study larger than the whole budget still serves its requester,
//!   then leaves on the next insert.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use layerbem_core::study::Study;
use layerbem_core::workload::ExecuteError;

use crate::key::StudyKey;

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
    bytes: usize,
    /// Logical clock tick of the last touch (monotone per cache).
    last_used: u64,
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
    slots: HashMap<u64, Slot>,
    /// Bytes of all Ready entries.
    resident_bytes: usize,
    /// Monotone LRU clock.
    clock: u64,
    evictions: u64,
}

/// The shared study cache (wrap in an `Arc` to share across workers).
pub struct StudyCache {
    inner: Mutex<Inner>,
    /// Residency budget in bytes; 0 means unlimited.
    max_resident_bytes: usize,
}

impl StudyCache {
    /// Creates a cache with the given residency budget (0 = unlimited).
    pub fn new(max_resident_bytes: usize) -> Self {
        StudyCache {
            inner: Mutex::new(Inner::default()),
            max_resident_bytes,
        }
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn max_resident_bytes(&self) -> usize {
        self.max_resident_bytes
    }

    /// `(resident studies, resident bytes, evictions so far)`.
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
    pub fn contains(&self, key: StudyKey) -> bool {
        let inner = self.inner.lock().expect("cache lock");
        matches!(inner.slots.get(&key.0), Some(Slot::Ready(_)))
    }

    /// Returns the study for `key`, running `build` (under single-flight
    /// and panic containment) only if it is neither resident nor already
    /// being prepared by another thread.
    pub fn get_or_prepare<F>(
        &self,
        key: StudyKey,
        build: F,
    ) -> Result<(Arc<Study>, CacheOutcome), ExecuteError>
    where
        F: FnOnce() -> Result<Study, ExecuteError>,
    {
        let flight = {
            let mut inner = self.inner.lock().expect("cache lock");
            match inner.slots.get(&key.0) {
                Some(Slot::Ready(_)) => {
                    inner.clock += 1;
                    let tick = inner.clock;
                    let Some(Slot::Ready(entry)) = inner.slots.get_mut(&key.0) else {
                        unreachable!("checked above");
                    };
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
                        .insert(key.0, Slot::Preparing(Arc::clone(&flight)));
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
                let bytes = study.resident_bytes();
                let study = Arc::new(study);
                let mut inner = self.inner.lock().expect("cache lock");
                inner.clock += 1;
                let tick = inner.clock;
                inner.slots.insert(
                    key.0,
                    Slot::Ready(Entry {
                        study: Arc::clone(&study),
                        bytes,
                        last_used: tick,
                    }),
                );
                inner.resident_bytes += bytes;
                self.evict_over_budget(&mut inner, key);
                Ok(study)
            }
            Err(e) => {
                // Failed prepares leave nothing resident: the next
                // request retries from scratch.
                let mut inner = self.inner.lock().expect("cache lock");
                inner.slots.remove(&key.0);
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
    /// the old entry's bytes are released, the new study's charged, and
    /// the LRU pass runs so a republished study can never silently push
    /// the cache past `max_resident_bytes`.
    ///
    /// Returns the bytes now charged. If the key is mid-prepare
    /// (single-flight in progress) the publish is declined and returns
    /// 0 — the in-flight build's insert would otherwise clobber this
    /// entry while its bytes stayed counted.
    pub fn publish(&self, key: StudyKey, study: Arc<Study>) -> usize {
        let bytes = study.resident_bytes();
        let mut inner = self.inner.lock().expect("cache lock");
        let displaced = match inner.slots.get(&key.0) {
            Some(Slot::Preparing(_)) => return 0,
            Some(Slot::Ready(e)) => e.bytes,
            None => 0,
        };
        inner.resident_bytes -= displaced;
        inner.clock += 1;
        let tick = inner.clock;
        inner.slots.insert(
            key.0,
            Slot::Ready(Entry {
                study,
                bytes,
                last_used: tick,
            }),
        );
        inner.resident_bytes += bytes;
        self.evict_over_budget(&mut inner, key);
        bytes
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
    fn evict_over_budget(&self, inner: &mut Inner, just_inserted: StudyKey) {
        if self.max_resident_bytes == 0 {
            return;
        }
        while inner.resident_bytes > self.max_resident_bytes {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) if *k != just_inserted.0 => Some((*k, e.last_used)),
                    _ => None,
                })
                .min_by_key(|(_, used)| *used)
                .map(|(k, _)| k);
            let Some(k) = victim else { break };
            if let Some(Slot::Ready(e)) = inner.slots.remove(&k) {
                inner.resident_bytes -= e.bytes;
                inner.evictions += 1;
                // Readers still holding the Arc keep answering from it;
                // only the cache's reference is dropped.
            }
        }
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
            ..Default::default()
        })
        .mesh(&net);
        GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default())
            .prepare()
            .expect("prepare")
    }

    fn key(n: u64) -> StudyKey {
        StudyKey(n)
    }

    #[test]
    fn first_request_misses_then_hits() {
        let cache = StudyCache::new(0);
        let (a, o1) = cache.get_or_prepare(key(1), || Ok(rod_study(0.0))).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (b, o2) = cache
            .get_or_prepare(key(1), || panic!("must not rebuild"))
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
            .get_or_prepare(key(2), || {
                Err(PrepareError::UnsupportedBackend("singular").into())
            })
            .unwrap_err();
        assert!(matches!(err, ExecuteError::Prepare(_)), "{err}");
        assert!(!cache.contains(key(2)));
        // The key is retryable after the failure.
        let (_, o) = cache.get_or_prepare(key(2), || Ok(rod_study(0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn panicking_prepare_is_contained_as_internal_error() {
        let cache = StudyCache::new(0);
        let err = cache
            .get_or_prepare(key(3), || -> Result<Study, ExecuteError> {
                panic!("boom in prepare")
            })
            .unwrap_err();
        assert!(
            matches!(&err, ExecuteError::Internal(why) if why.contains("boom in prepare")),
            "{err}"
        );
        assert!(!cache.contains(key(3)));
        // The cache still works afterwards.
        assert!(cache.get_or_prepare(key(3), || Ok(rod_study(0.0))).is_ok());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let probe = rod_study(0.0).resident_bytes();
        // Room for two studies, not three.
        let cache = StudyCache::new(probe * 2 + probe / 2);
        cache.get_or_prepare(key(1), || Ok(rod_study(0.0))).unwrap();
        cache.get_or_prepare(key(2), || Ok(rod_study(1.0))).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        cache.get_or_prepare(key(1), || panic!("resident")).unwrap();
        cache.get_or_prepare(key(3), || Ok(rod_study(2.0))).unwrap();
        assert!(cache.contains(key(1)), "recently used survives");
        assert!(!cache.contains(key(2)), "LRU evicted");
        assert!(cache.contains(key(3)), "new entry resident");
        let (studies, bytes, evictions) = cache.residency();
        assert_eq!(studies, 2);
        assert!(bytes <= cache.max_resident_bytes());
        assert_eq!(evictions, 1);
        // Re-requesting the evicted key re-prepares.
        let (_, o) = cache.get_or_prepare(key(2), || Ok(rod_study(1.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn oversized_entry_still_serves_its_requester() {
        // Budget smaller than any study: the insert is exempt from its
        // own eviction pass, so the requester is served; the entry is
        // evicted when the NEXT insert rebalances.
        let cache = StudyCache::new(1);
        let (s, o) = cache.get_or_prepare(key(1), || Ok(rod_study(0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert!(s.dof() > 0);
        cache.get_or_prepare(key(2), || Ok(rod_study(1.0))).unwrap();
        assert!(!cache.contains(key(1)), "displaced by the next insert");
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
                ..Default::default()
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
        cache.get_or_prepare(key(1), || Ok(rod_study(1.0))).unwrap();
        cache.get_or_prepare(key(2), || Ok(rod_study(0.0))).unwrap();

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
        assert!(!cache.contains(key(1)), "LRU evicted to fund the edit");
        assert!(cache.contains(key(2)));

        // A publish under an absent key simply inserts (and is evictable
        // like any other entry).
        let charged = cache.publish(key(3), Arc::new(rod_study(2.0)));
        assert_eq!(charged, frozen_bytes);
        assert!(cache.contains(key(3)));
        assert!(!cache.contains(key(2)), "bigger entry displaced in turn");
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let cache = StudyCache::new(0);
        for i in 0..4 {
            cache
                .get_or_prepare(key(i), || Ok(rod_study(i as f64)))
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
                    .get_or_prepare(key(7), || {
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
}
