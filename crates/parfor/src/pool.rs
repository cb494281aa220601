//! The `parallel for` executor.
//!
//! [`ThreadPool`] runs a loop body over `n` iterations on `p` OS threads
//! under any OpenMP-style [`Schedule`]. It uses `std::thread::scope`, so
//! loop bodies may borrow from the caller's stack — the same programming
//! model as an OpenMP parallel region, where the directive-annotated loop
//! reads and writes the enclosing function's variables.
//!
//! Threads are spawned per parallel region. On the paper's runs a region
//! is seconds to minutes of matrix generation and the launch disappears
//! in it; this repository also opens regions around far shorter work — a
//! 4 ms edit, each 32-column panel of a factorization, each band of a
//! class-first assembly (about 36 at 628 dof) — and there it shows: at
//! 628 dof a 2-thread Cholesky factor is slower than the inline one
//! (ROADMAP item 2 has the table; item 2(a) is the pool of parked workers
//! that would change this). What the paper
//! studies is the *iteration dispatch* strategy, which is implemented
//! here with lock-free atomics exactly mirroring the schedule semantics of
//! [`Schedule`].

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::schedule::{Schedule, ScheduleKind};
use crate::stats::{ExecutionStats, ThreadStats};

/// A `parallel for` executor over a fixed number of worker threads.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use layerbem_parfor::{Schedule, ThreadPool};
///
/// let pool = ThreadPool::new(4);
/// let acc = AtomicU64::new(0);
/// pool.parallel_for(100, Schedule::dynamic(8), |i| {
///     acc.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(acc.into_inner(), 4950);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Creates an executor with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        ThreadPool { threads }
    }

    /// An executor sized to the machine (`available_parallelism`).
    ///
    /// The `LAYERBEM_THREADS` environment variable, when set to a positive
    /// integer, overrides the detected core count — the knob CI uses to
    /// pin thread counts for reproducible timings regardless of the
    /// runner hardware. Unparsable or zero values are ignored.
    pub fn with_available_parallelism() -> Self {
        if let Some(n) = thread_override(std::env::var("LAYERBEM_THREADS").ok().as_deref()) {
            return ThreadPool::new(n);
        }
        let n = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(i)` for every `i in 0..n` under `schedule`.
    ///
    /// The body must be `Sync` because several threads call it
    /// concurrently (on disjoint iterations).
    pub fn parallel_for<F>(&self, n: usize, schedule: Schedule, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_region(n, schedule, &|_t, range: Range<usize>| {
            for i in range {
                body(i);
            }
        });
    }

    /// Instrumented variant of [`parallel_for`](Self::parallel_for):
    /// returns per-thread iteration counts, chunk counts and busy times.
    pub fn parallel_for_with_stats<F>(
        &self,
        n: usize,
        schedule: Schedule,
        body: F,
    ) -> ExecutionStats
    where
        F: Fn(usize) + Sync,
    {
        let t0 = Instant::now();
        let per_thread = self.run_region(n, schedule, &|_t, range: Range<usize>| {
            for i in range {
                body(i);
            }
        });
        ExecutionStats {
            per_thread,
            wall: t0.elapsed(),
        }
    }

    /// Computes `out[i] = f(i)` in parallel. Each index is written exactly
    /// once (by whichever thread's chunk claims it), so no synchronization
    /// is needed on the output beyond the region join.
    pub fn parallel_fill<T, F>(&self, out: &mut [T], schedule: Schedule, f: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.scoped_partition(out, schedule, |i, slot| *slot = f(i));
    }

    /// Hands out exclusive `&mut` access to each element of `parts`, one
    /// invocation of `body(index, &mut parts[index])` per element,
    /// dispatched across the pool under `schedule`.
    ///
    /// This is the generalization of [`parallel_fill`](Self::parallel_fill)
    /// (which only *writes* each slot): the body may read **and** mutate
    /// its element in place, so a partition element can be a whole owned
    /// workspace — e.g. a disjoint row-range view of a shared matrix plus
    /// its private accumulators — and the region stays race-free by
    /// construction: ownership is settled by the partition, not by locks.
    ///
    /// Returns the per-thread [`ExecutionStats`] of the region (an
    /// "iteration" is one partition element).
    pub fn scoped_partition<T, F>(
        &self,
        parts: &mut [T],
        schedule: Schedule,
        body: F,
    ) -> ExecutionStats
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = parts.len();
        let slots = Slot::wrap_slice(parts);
        let t0 = Instant::now();
        let per_thread = self.run_region(n, schedule, &|_t, range: Range<usize>| {
            for i in range {
                // SAFETY: schedules partition 0..n into disjoint chunks and
                // each chunk is executed by exactly one thread, so slot `i`
                // has a unique borrower and no concurrent access.
                body(i, unsafe { &mut *slots[i].0.get() });
            }
        });
        ExecutionStats {
            per_thread,
            wall: t0.elapsed(),
        }
    }

    /// Spawns the region and returns per-thread stats. All dispatch logic
    /// lives here.
    fn run_region<F>(&self, n: usize, schedule: Schedule, chunk_body: &F) -> Vec<ThreadStats>
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let p = self.threads;
        if n == 0 {
            return vec![ThreadStats::default(); p];
        }
        if p == 1 {
            // Degenerate region: run inline, preserving chunk boundaries so
            // instrumentation still reflects the schedule.
            let stats = run_thread_share(0, 1, n, schedule, chunk_body);
            return vec![stats];
        }

        let next = AtomicUsize::new(0);
        let mut collected: Vec<ThreadStats> = Vec::with_capacity(p);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|t| {
                    let next = &next;
                    scope.spawn(move || match schedule.kind {
                        ScheduleKind::Static => run_thread_share(t, p, n, schedule, chunk_body),
                        ScheduleKind::Dynamic => {
                            run_dynamic(t, n, schedule.chunk_or_default(), next, chunk_body)
                        }
                        ScheduleKind::Guided => {
                            run_guided(t, p, n, schedule.chunk_or_default(), next, chunk_body)
                        }
                    })
                })
                .collect();
            for h in handles {
                collected.push(h.join().expect("parallel_for worker panicked"));
            }
        });
        collected
    }
}

/// Executes the statically assigned chunks of thread `t` (also used for
/// the single-threaded inline path, where it replays every schedule kind
/// sequentially in chunk order).
fn run_thread_share<F>(
    t: usize,
    p: usize,
    n: usize,
    schedule: Schedule,
    chunk_body: &F,
) -> ThreadStats
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let chunks: Vec<(usize, usize)> = match schedule.kind {
        ScheduleKind::Static => schedule.static_chunks_for(n, p, t),
        // Inline (p == 1) execution of dynamic/guided: one thread claims
        // every chunk in order — exactly the deterministic decomposition.
        ScheduleKind::Dynamic | ScheduleKind::Guided => schedule.chunk_ranges(n, p),
    };
    let mut stats = ThreadStats::default();
    let t0 = Instant::now();
    for (a, b) in chunks {
        chunk_body(t, a..b);
        stats.chunks += 1;
        stats.iterations += b - a;
    }
    stats.busy = t0.elapsed();
    stats
}

/// Dynamic dispatch: threads race on a shared counter, claiming `chunk`
/// iterations at a time.
fn run_dynamic<F>(
    t: usize,
    n: usize,
    chunk: usize,
    next: &AtomicUsize,
    chunk_body: &F,
) -> ThreadStats
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let mut stats = ThreadStats::default();
    let mut busy = Duration::ZERO;
    loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        let t0 = Instant::now();
        chunk_body(t, start..end);
        busy += t0.elapsed();
        stats.chunks += 1;
        stats.iterations += end - start;
    }
    stats.busy = busy;
    stats
}

/// Guided dispatch: CAS loop computing the shrinking chunk size from the
/// remaining iteration count.
fn run_guided<F>(
    t: usize,
    p: usize,
    n: usize,
    min_chunk: usize,
    next: &AtomicUsize,
    chunk_body: &F,
) -> ThreadStats
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let mut stats = ThreadStats::default();
    let mut busy = Duration::ZERO;
    let mut cur = next.load(Ordering::Relaxed);
    loop {
        if cur >= n {
            break;
        }
        let size = Schedule::guided_next_size(n - cur, p, min_chunk);
        match next.compare_exchange_weak(cur, cur + size, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                let t0 = Instant::now();
                chunk_body(t, cur..cur + size);
                busy += t0.elapsed();
                stats.chunks += 1;
                stats.iterations += size;
                cur = next.load(Ordering::Relaxed);
            }
            Err(actual) => cur = actual,
        }
    }
    stats.busy = busy;
    stats
}

/// Interprets a `LAYERBEM_THREADS` value: a positive integer overrides
/// thread-count detection; anything else (unset, unparsable, zero) is
/// ignored. Pure so the rule is unit-testable without mutating the
/// process environment (`setenv` racing any concurrent `getenv` — e.g.
/// the panic hook reading `RUST_BACKTRACE` — is UB on glibc).
fn thread_override(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Interior-mutability wrapper that lets disjoint indices of a slice be
/// written from different threads without locks.
#[repr(transparent)]
struct Slot<T>(UnsafeCell<T>);

// SAFETY: `Slot` is only ever used through `scoped_partition` (and the
// `parallel_fill` wrappers built on it), which guarantees each element has
// exactly one accessing thread and no others until the region joins.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn wrap_slice(s: &mut [T]) -> &[Slot<T>] {
        // SAFETY: `Slot<T>` is `repr(transparent)` over `UnsafeCell<T>`,
        // which has the same layout as `T`.
        unsafe { &*(s as *mut [T] as *const [Slot<T>]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::static_blocked(),
            Schedule::static_chunk(1),
            Schedule::static_chunk(4),
            Schedule::static_chunk(64),
            Schedule::dynamic(1),
            Schedule::dynamic(4),
            Schedule::dynamic(64),
            Schedule::guided(1),
            Schedule::guided(16),
        ]
    }

    #[test]
    fn every_schedule_visits_each_index_exactly_once() {
        for p in [1, 2, 3, 8] {
            let pool = ThreadPool::new(p);
            for s in all_schedules() {
                for n in [0usize, 1, 7, 100, 408] {
                    let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    pool.parallel_for(n, s, |i| {
                        counters[i].fetch_add(1, Ordering::Relaxed);
                    });
                    for (i, c) in counters.iter().enumerate() {
                        assert_eq!(
                            c.load(Ordering::Relaxed),
                            1,
                            "p={p} n={n} {} index {i}",
                            s.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let pool = ThreadPool::new(4);
        let acc = AtomicU64::new(0);
        pool.parallel_for(1000, Schedule::dynamic(7), |i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 499_500);
    }

    #[test]
    fn parallel_fill_writes_every_slot() {
        let pool = ThreadPool::new(3);
        for s in all_schedules() {
            let mut out = vec![0usize; 257];
            pool.parallel_fill(&mut out, s, |i| i * i);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "{}", s.label());
            }
        }
    }

    #[test]
    fn parallel_fill_empty_and_single() {
        let pool = ThreadPool::new(2);
        let mut empty: Vec<usize> = vec![];
        pool.parallel_fill(&mut empty, Schedule::dynamic(1), |i| i);
        let mut one = vec![0.0f64];
        pool.parallel_fill(&mut one, Schedule::guided(1), |_| 42.0);
        assert_eq!(one[0], 42.0);
    }

    #[test]
    fn scoped_partition_mutates_every_part_exactly_once() {
        let pool = ThreadPool::new(4);
        for s in all_schedules() {
            let mut parts: Vec<(usize, Vec<u64>)> =
                (0..37).map(|i| (i, vec![0u64; i % 5])).collect();
            let stats = pool.scoped_partition(&mut parts, s, |i, part| {
                assert_eq!(part.0, i, "handed the right element");
                part.0 += 100;
                for v in part.1.iter_mut() {
                    *v = i as u64;
                }
            });
            for (i, part) in parts.iter().enumerate() {
                assert_eq!(part.0, i + 100, "{}", s.label());
                assert!(part.1.iter().all(|&v| v == i as u64));
            }
            assert_eq!(stats.total_iterations(), 37, "{}", s.label());
        }
    }

    #[test]
    fn scoped_partition_parts_may_borrow_disjoint_slices() {
        // The intended use: pre-split a buffer into disjoint &mut slices,
        // then let the pool mutate them concurrently.
        let pool = ThreadPool::new(3);
        let mut data = vec![0u32; 90];
        let mut parts: Vec<&mut [u32]> = data.chunks_mut(7).collect();
        pool.scoped_partition(&mut parts, Schedule::dynamic(1), |i, slice| {
            for v in slice.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, (k / 7) as u32 + 1);
        }
    }

    #[test]
    fn scoped_partition_empty_is_benign() {
        let pool = ThreadPool::new(2);
        let mut parts: Vec<u64> = Vec::new();
        let stats = pool.scoped_partition(&mut parts, Schedule::guided(1), |_, _| {});
        assert_eq!(stats.total_iterations(), 0);
    }

    #[test]
    fn layerbem_threads_override_parsing() {
        // The pure rule behind the LAYERBEM_THREADS env override; the
        // end-to-end path is exercised by CI (which sets the variable
        // before the process starts) rather than by in-process set_var,
        // whose environ reallocation races concurrent getenv callers.
        assert_eq!(thread_override(Some("3")), Some(3));
        assert_eq!(thread_override(Some(" 8 ")), Some(8));
        assert_eq!(thread_override(Some("0")), None);
        assert_eq!(thread_override(Some("not-a-number")), None);
        assert_eq!(thread_override(Some("")), None);
        assert_eq!(thread_override(None), None);
    }

    #[test]
    fn stats_account_for_all_iterations() {
        let pool = ThreadPool::new(4);
        for s in all_schedules() {
            let stats = pool.parallel_for_with_stats(500, s, |_i| {
                std::hint::black_box(3u64.pow(7));
            });
            assert_eq!(stats.total_iterations(), 500, "{}", s.label());
            assert_eq!(stats.per_thread.len(), 4);
            assert!(stats.total_chunks() >= 1);
        }
    }

    #[test]
    fn static_chunk_counts_match_schedule_maths() {
        let pool = ThreadPool::new(2);
        let stats = pool.parallel_for_with_stats(10, Schedule::static_chunk(2), |_| {});
        // Chunks (0,2)(4,6)(8,10) on t0; (2,4)(6,8) on t1.
        let mut chunk_counts: Vec<usize> = stats.per_thread.iter().map(|t| t.chunks).collect();
        chunk_counts.sort_unstable();
        assert_eq!(chunk_counts, vec![2, 3]);
    }

    #[test]
    fn dynamic_dispatch_counts_chunks() {
        let pool = ThreadPool::new(2);
        let stats = pool.parallel_for_with_stats(100, Schedule::dynamic(10), |_| {});
        assert_eq!(stats.total_chunks(), 10);
    }

    #[test]
    fn guided_uses_fewer_dispatches_than_dynamic_1() {
        let pool = ThreadPool::new(4);
        let dyn1 = pool.parallel_for_with_stats(1000, Schedule::dynamic(1), |_| {});
        let guided = pool.parallel_for_with_stats(1000, Schedule::guided(1), |_| {});
        assert_eq!(dyn1.total_chunks(), 1000);
        assert!(
            guided.total_chunks() < 100,
            "guided dispatched {} chunks",
            guided.total_chunks()
        );
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut out = vec![0usize; 10];
        // If this ran on another thread, the borrow checker would still be
        // fine (scoped), but the stats must show exactly one worker.
        let stats = pool.parallel_for_with_stats(10, Schedule::guided(2), |_| {});
        assert_eq!(stats.per_thread.len(), 1);
        pool.parallel_fill(&mut out, Schedule::static_blocked(), |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn body_may_borrow_from_stack() {
        // The scoped-thread design mirrors OpenMP: the body reads a local.
        let data: Vec<u64> = (0..100).collect();
        let pool = ThreadPool::new(3);
        let acc = AtomicU64::new(0);
        pool.parallel_for(data.len(), Schedule::static_blocked(), |i| {
            acc.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 4950);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        ThreadPool::new(0);
    }

    #[test]
    fn with_available_parallelism_is_positive() {
        assert!(ThreadPool::with_available_parallelism().threads() >= 1);
    }
}
