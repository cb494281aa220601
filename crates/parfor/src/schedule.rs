//! OpenMP `schedule()` clause semantics.
//!
//! A schedule decides how the `n` iterations of a `parallel for` are
//! partitioned into *chunks* and handed to `p` threads:
//!
//! * **`static`** (no chunk): iterations are divided into `p` contiguous
//!   blocks of near-equal size, block `t` to thread `t`. This is the
//!   schedule the paper calls "Static" with no parameter ("all the columns
//!   are uniformly distributed in the beginning").
//! * **`static,c`**: chunks of `c` consecutive iterations are assigned
//!   round-robin: thread `t` owns chunks `t, t+p, t+2p, …`.
//! * **`dynamic,c`**: chunks of `c` iterations are claimed at run time by
//!   whichever thread becomes free ("as each processor finishes a task, it
//!   dynamically takes the next one").
//! * **`guided,c`**: like dynamic, but the chunk size starts at
//!   `⌈remaining/p⌉` and shrinks exponentially, never below `c`
//!   ("pieces with size exponentially varying").
//!
//! The same [`Schedule`] value drives both the real
//! [`ThreadPool`](crate::ThreadPool) and the simulator ([`crate::sim`]),
//! so measured
//! and simulated executions use *identical* decompositions.

/// The three OpenMP schedule kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Compile-time assignment, round-robin by chunk (or blocked if no
    /// chunk is given).
    Static,
    /// Run-time first-come-first-served chunk claiming.
    Dynamic,
    /// Run-time claiming with exponentially decreasing chunk sizes.
    Guided,
}

impl std::fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleKind::Static => write!(f, "Static"),
            ScheduleKind::Dynamic => write!(f, "Dynamic"),
            ScheduleKind::Guided => write!(f, "Guided"),
        }
    }
}

/// A complete schedule clause: kind plus optional chunk parameter.
///
/// `chunk = None` is only meaningful for [`ScheduleKind::Static`] (blocked
/// partition); for `Dynamic` and `Guided` OpenMP defines the default chunk
/// as 1, which [`Schedule::chunk_or_default`] applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Schedule kind.
    pub kind: ScheduleKind,
    /// Chunk parameter; `None` means "unspecified" as in `schedule(static)`.
    pub chunk: Option<usize>,
}

impl Schedule {
    /// `schedule(static)` — blocked near-equal contiguous partition.
    pub fn static_blocked() -> Self {
        Schedule {
            kind: ScheduleKind::Static,
            chunk: None,
        }
    }

    /// `schedule(static, c)`.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn static_chunk(c: usize) -> Self {
        assert!(c > 0, "chunk must be positive");
        Schedule {
            kind: ScheduleKind::Static,
            chunk: Some(c),
        }
    }

    /// `schedule(dynamic, c)`.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn dynamic(c: usize) -> Self {
        assert!(c > 0, "chunk must be positive");
        Schedule {
            kind: ScheduleKind::Dynamic,
            chunk: Some(c),
        }
    }

    /// `schedule(guided, c)` — `c` is the minimum chunk size.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn guided(c: usize) -> Self {
        assert!(c > 0, "chunk must be positive");
        Schedule {
            kind: ScheduleKind::Guided,
            chunk: Some(c),
        }
    }

    /// Effective chunk parameter (OpenMP default of 1 for dynamic/guided).
    pub fn chunk_or_default(&self) -> usize {
        self.chunk.unwrap_or(1)
    }

    /// The static iteration→thread assignment, materialized as the list of
    /// `(start, end)` half-open chunk ranges owned by thread `t` out of `p`.
    ///
    /// Returns an empty list for dynamic/guided schedules (their
    /// assignment only exists at run time).
    pub fn static_chunks_for(&self, n: usize, p: usize, t: usize) -> Vec<(usize, usize)> {
        assert!(p > 0, "thread count must be positive");
        assert!(t < p, "thread index out of range");
        match (self.kind, self.chunk) {
            (ScheduleKind::Static, None) => {
                // Blocked: the first `n % p` threads get one extra iteration,
                // all blocks contiguous — matching OpenMP's static schedule.
                let base = n / p;
                let extra = n % p;
                let size = base + usize::from(t < extra);
                let start = t * base + t.min(extra);
                if size == 0 {
                    Vec::new()
                } else {
                    vec![(start, start + size)]
                }
            }
            (ScheduleKind::Static, Some(c)) => {
                let mut out = Vec::new();
                let mut start = t * c;
                while start < n {
                    out.push((start, (start + c).min(n)));
                    start += p * c;
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// The deterministic chunk decomposition of `0..n` for `p` threads:
    /// every chunk boundary this schedule would produce, in ascending
    /// order, independent of which thread ends up claiming each chunk.
    ///
    /// * `static` (blocked): the `p` near-equal contiguous blocks.
    /// * `static,c` / `dynamic,c`: `⌈n/c⌉` chunks of `c` iterations.
    /// * `guided,c`: the shrinking sizes of [`Schedule::guided_next_size`].
    ///
    /// Chunk *boundaries* are deterministic even for the run-time
    /// schedules: dynamic chunks start at multiples of `c`, and each
    /// guided size depends only on how many iterations remain, not on
    /// which thread claims them. This is what lets callers hand out
    /// disjoint `&mut` sub-slices per chunk before the parallel region
    /// starts (see `ThreadPool::scoped_partition`): ownership is settled
    /// by the decomposition, and only the chunk→thread *assignment* is
    /// resolved at run time. Empty chunks are omitted.
    pub fn chunk_ranges(&self, n: usize, p: usize) -> Vec<(usize, usize)> {
        assert!(p > 0, "thread count must be positive");
        if n == 0 {
            return Vec::new();
        }
        match (self.kind, self.chunk) {
            (ScheduleKind::Static, None) => (0..p)
                .flat_map(|t| self.static_chunks_for(n, p, t))
                .collect(),
            (ScheduleKind::Static, Some(c)) | (ScheduleKind::Dynamic, Some(c)) => (0..n
                .div_ceil(c))
                .map(|k| (k * c, ((k + 1) * c).min(n)))
                .collect(),
            (ScheduleKind::Dynamic, None) | (ScheduleKind::Guided, None) => {
                // chunk_or_default() == 1 for the run-time schedules.
                Schedule {
                    kind: self.kind,
                    chunk: Some(1),
                }
                .chunk_ranges(n, p)
            }
            (ScheduleKind::Guided, Some(min)) => {
                let mut out = Vec::new();
                let mut start = 0;
                while start < n {
                    let size = Schedule::guided_next_size(n - start, p, min);
                    out.push((start, start + size));
                    start += size;
                }
                out
            }
        }
    }

    /// [`chunk_ranges`](Self::chunk_ranges) as `Range<usize>` values — the
    /// form every row-partitioned pooled path consumes. The pooled
    /// collocation assembler and the factorizations' trailing updates
    /// derive their disjoint row ownership from this one function, so a
    /// `(schedule, n, p)` triple decides a single decomposition.
    pub fn partition_ranges(&self, n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
        self.chunk_ranges(n, p)
            .into_iter()
            .map(|(a, b)| a..b)
            .collect()
    }

    /// This schedule with its effective chunk parameter raised to at
    /// least `min` (itself floored at 1). Static *blocked* (`chunk:
    /// None`) is returned unchanged — it already produces one block per
    /// thread. Callers whose per-chunk cost is non-trivial (a partition
    /// workspace, a scan, a dispatch claim) use this to keep a
    /// fine-grained chunk request from degenerating into per-iteration
    /// partitions while preserving the schedule kind's dispatch
    /// semantics.
    pub fn with_min_chunk(&self, min: usize) -> Schedule {
        match (self.kind, self.chunk) {
            (ScheduleKind::Static, None) => *self,
            (kind, chunk) => {
                let c = chunk.unwrap_or(1);
                if c >= min {
                    Schedule {
                        kind,
                        chunk: Some(c),
                    }
                } else {
                    Schedule {
                        kind,
                        chunk: Some(min.max(1)),
                    }
                }
            }
        }
    }

    /// The schedule that assigns pre-materialized [`chunk_ranges`]
    /// partitions to threads with the same semantics as this schedule
    /// applied to raw iterations: static schedules keep their compile-time
    /// round-robin ownership (partition `k` → thread `k mod p`), while
    /// dynamic and guided partitions are claimed first-come-first-served
    /// (the shrinking guided sizes are already baked into the ranges).
    ///
    /// [`chunk_ranges`]: Self::chunk_ranges
    pub fn partition_dispatch(&self) -> Schedule {
        match self.kind {
            ScheduleKind::Static => Schedule::static_chunk(1),
            ScheduleKind::Dynamic | ScheduleKind::Guided => Schedule::dynamic(1),
        }
    }

    /// The next guided chunk size given `remaining` iterations and `p`
    /// threads: `max(min_chunk, ⌈remaining/(2p)⌉)`, clamped to `remaining`.
    ///
    /// The OpenMP specification only requires chunk sizes "proportional to
    /// the number of unassigned iterations divided by the number of
    /// threads". Production runtimes divide by an extra safety factor so
    /// the very first chunk cannot monopolize a processor; we use the
    /// widely implemented factor 2. This matters for the paper's triangular
    /// loop: its column costs *decrease linearly*, so a `remaining/p` first
    /// chunk would hold ~23% of all work and cap the 8-processor speed-up
    /// near 4 — whereas the paper measured 8.38 for `Guided,1`, consistent
    /// with the `remaining/(2p)` rule.
    pub fn guided_next_size(remaining: usize, p: usize, min_chunk: usize) -> usize {
        let natural = remaining.div_ceil(2 * p.max(1));
        natural.max(min_chunk).min(remaining)
    }

    /// Human-readable label in the paper's notation, e.g. `"Dynamic, 1"`.
    pub fn label(&self) -> String {
        match self.chunk {
            Some(c) => format!("{},{c}", self.kind),
            None => format!("{}", self.kind),
        }
    }

    /// Parses an OpenMP-style clause string: `static`, `static,16`,
    /// `dynamic`, `dynamic,4`, `guided`, `guided,1` (case-insensitive).
    ///
    /// ```
    /// use layerbem_parfor::Schedule;
    /// assert_eq!(Schedule::parse("dynamic,4"), Some(Schedule::dynamic(4)));
    /// assert_eq!(Schedule::parse("static"), Some(Schedule::static_blocked()));
    /// assert_eq!(Schedule::parse("fifo"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Schedule> {
        let lower = s.trim().to_ascii_lowercase();
        let mut parts = lower.split(',');
        let kind = parts.next()?.trim();
        let chunk: Option<usize> = match parts.next() {
            Some(c) => {
                let v: usize = c.trim().parse().ok()?;
                if v == 0 {
                    return None;
                }
                Some(v)
            }
            None => None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(match (kind, chunk) {
            ("static", None) => Schedule::static_blocked(),
            ("static", Some(c)) => Schedule::static_chunk(c),
            ("dynamic", c) => Schedule::dynamic(c.unwrap_or(1)),
            ("guided", c) => Schedule::guided(c.unwrap_or(1)),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(n: usize, p: usize, s: Schedule) -> Vec<usize> {
        // How many times each index is claimed across all threads.
        let mut seen = vec![0usize; n];
        for t in 0..p {
            for (a, b) in s.static_chunks_for(n, p, t) {
                for c in seen[a..b].iter_mut() {
                    *c += 1;
                }
            }
        }
        seen
    }

    #[test]
    fn static_blocked_partitions_exactly_once() {
        for &(n, p) in &[(10, 3), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let seen = coverage(n, p, Schedule::static_blocked());
            assert!(seen.iter().all(|&c| c == 1), "n={n} p={p}");
        }
    }

    #[test]
    fn static_blocked_is_contiguous_and_balanced() {
        let s = Schedule::static_blocked();
        // 10 iterations, 3 threads: sizes 4,3,3.
        assert_eq!(s.static_chunks_for(10, 3, 0), vec![(0, 4)]);
        assert_eq!(s.static_chunks_for(10, 3, 1), vec![(4, 7)]);
        assert_eq!(s.static_chunks_for(10, 3, 2), vec![(7, 10)]);
    }

    #[test]
    fn static_chunked_is_round_robin() {
        let s = Schedule::static_chunk(2);
        assert_eq!(s.static_chunks_for(10, 2, 0), vec![(0, 2), (4, 6), (8, 10)]);
        assert_eq!(s.static_chunks_for(10, 2, 1), vec![(2, 4), (6, 8)]);
    }

    #[test]
    fn static_chunked_covers_exactly_once() {
        for &(n, p, c) in &[(408, 8, 1), (408, 8, 64), (13, 5, 3), (64, 64, 64)] {
            let seen = coverage(n, p, Schedule::static_chunk(c));
            assert!(seen.iter().all(|&k| k == 1), "n={n} p={p} c={c}");
        }
    }

    #[test]
    fn high_chunk_starves_late_threads() {
        // The paper: "for any schedule, we obtained worse results when the
        // chunk parameter and the number of processors are high because
        // then some processors do not get any work."
        // 408 columns, chunk 64, 8 threads: only ⌈408/64⌉ = 7 chunks exist.
        let s = Schedule::static_chunk(64);
        assert!(s.static_chunks_for(408, 8, 6).len() == 1);
        assert!(s.static_chunks_for(408, 8, 7).is_empty());
    }

    #[test]
    fn dynamic_has_no_static_assignment() {
        assert!(Schedule::dynamic(4).static_chunks_for(10, 2, 0).is_empty());
        assert!(Schedule::guided(1).static_chunks_for(10, 2, 1).is_empty());
    }

    #[test]
    fn guided_size_shrinks_and_respects_minimum() {
        // remaining 100, p 4 → ⌈100/8⌉ = 13; then after claims sizes shrink.
        assert_eq!(Schedule::guided_next_size(100, 4, 1), 13);
        assert_eq!(Schedule::guided_next_size(87, 4, 1), 11);
        assert_eq!(Schedule::guided_next_size(3, 4, 1), 1);
        assert_eq!(Schedule::guided_next_size(3, 4, 16), 3); // clamped to remaining
        assert_eq!(Schedule::guided_next_size(80, 4, 16), 16); // floor at min chunk
        assert_eq!(Schedule::guided_next_size(0, 4, 16), 0);
    }

    #[test]
    fn chunk_ranges_partition_exactly_once() {
        let schedules = [
            Schedule::static_blocked(),
            Schedule::static_chunk(1),
            Schedule::static_chunk(5),
            Schedule::dynamic(1),
            Schedule::dynamic(7),
            Schedule::guided(1),
            Schedule::guided(16),
        ];
        for s in schedules {
            for &(n, p) in &[(0usize, 3usize), (1, 4), (10, 3), (238, 8), (408, 2)] {
                let ranges = s.chunk_ranges(n, p);
                let mut covered = 0;
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "{} n={n} p={p}: contiguous", s.label());
                }
                for &(a, b) in &ranges {
                    assert!(a < b, "{} n={n} p={p}: no empty chunks", s.label());
                    covered += b - a;
                }
                assert_eq!(covered, n, "{} n={n} p={p}", s.label());
                if n > 0 {
                    assert_eq!(ranges[0].0, 0);
                    assert_eq!(ranges.last().unwrap().1, n);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_match_schedule_shapes() {
        // static blocked: p blocks.
        assert_eq!(
            Schedule::static_blocked().chunk_ranges(10, 3),
            vec![(0, 4), (4, 7), (7, 10)]
        );
        // fixed-size chunks for static,c and dynamic,c.
        assert_eq!(
            Schedule::static_chunk(4).chunk_ranges(10, 2),
            vec![(0, 4), (4, 8), (8, 10)]
        );
        assert_eq!(
            Schedule::dynamic(4).chunk_ranges(10, 2),
            Schedule::static_chunk(4).chunk_ranges(10, 2)
        );
        // guided: shrinking sizes, first is ⌈n/2p⌉.
        let guided = Schedule::guided(1).chunk_ranges(100, 4);
        assert_eq!(guided[0], (0, 13));
        for w in guided.windows(2) {
            assert!(w[1].1 - w[1].0 <= w[0].1 - w[0].0, "{guided:?}");
        }
        // more threads than iterations: short blocked decomposition.
        assert_eq!(
            Schedule::static_blocked().chunk_ranges(2, 8),
            vec![(0, 1), (1, 2)]
        );
    }

    #[test]
    fn partition_ranges_mirror_chunk_ranges() {
        for s in [
            Schedule::static_blocked(),
            Schedule::static_chunk(4),
            Schedule::dynamic(1),
            Schedule::guided(2),
        ] {
            for &(n, p) in &[(0usize, 2usize), (10, 3), (238, 8)] {
                let pairs = s.chunk_ranges(n, p);
                let ranges = s.partition_ranges(n, p);
                assert_eq!(pairs.len(), ranges.len(), "{} n={n} p={p}", s.label());
                for ((a, b), r) in pairs.into_iter().zip(ranges) {
                    assert_eq!(a..b, r, "{} n={n} p={p}", s.label());
                }
            }
        }
    }

    #[test]
    fn with_min_chunk_floors_every_kind_except_static_blocked() {
        // Blocked static already yields p partitions: unchanged.
        assert_eq!(
            Schedule::static_blocked().with_min_chunk(50),
            Schedule::static_blocked()
        );
        // Explicit chunks are floored, larger ones kept.
        assert_eq!(Schedule::dynamic(1).with_min_chunk(8), Schedule::dynamic(8));
        assert_eq!(
            Schedule::dynamic(16).with_min_chunk(8),
            Schedule::dynamic(16)
        );
        assert_eq!(
            Schedule::static_chunk(2).with_min_chunk(5),
            Schedule::static_chunk(5)
        );
        assert_eq!(Schedule::guided(1).with_min_chunk(4), Schedule::guided(4));
        // The documented-legal None-chunk run-time schedules (default
        // chunk 1) are floored too — the degenerate case the direct
        // assembler must not hit.
        let bare_dynamic = Schedule {
            kind: ScheduleKind::Dynamic,
            chunk: None,
        };
        assert_eq!(bare_dynamic.with_min_chunk(8), Schedule::dynamic(8));
        // min 0 is treated as 1.
        assert_eq!(bare_dynamic.with_min_chunk(0), Schedule::dynamic(1));
    }

    #[test]
    fn partition_dispatch_keeps_kind_semantics() {
        assert_eq!(
            Schedule::static_blocked().partition_dispatch(),
            Schedule::static_chunk(1)
        );
        assert_eq!(
            Schedule::static_chunk(64).partition_dispatch(),
            Schedule::static_chunk(1)
        );
        assert_eq!(
            Schedule::dynamic(4).partition_dispatch(),
            Schedule::dynamic(1)
        );
        assert_eq!(
            Schedule::guided(16).partition_dispatch(),
            Schedule::dynamic(1)
        );
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Schedule::static_blocked().label(), "Static");
        assert_eq!(Schedule::static_chunk(64).label(), "Static,64");
        assert_eq!(Schedule::dynamic(1).label(), "Dynamic,1");
        assert_eq!(Schedule::guided(16).label(), "Guided,16");
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_rejected() {
        Schedule::dynamic(0);
    }

    #[test]
    fn chunk_default_is_one() {
        assert_eq!(Schedule::static_blocked().chunk_or_default(), 1);
        assert_eq!(Schedule::dynamic(5).chunk_or_default(), 5);
    }

    #[test]
    fn parse_round_trips_labels() {
        for s in [
            Schedule::static_blocked(),
            Schedule::static_chunk(16),
            Schedule::dynamic(1),
            Schedule::dynamic(64),
            Schedule::guided(4),
        ] {
            assert_eq!(Schedule::parse(&s.label()), Some(s), "{}", s.label());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "fifo", "static,0", "dynamic,x", "guided,1,2", "static,"] {
            assert_eq!(Schedule::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn parse_defaults_and_case() {
        assert_eq!(Schedule::parse("DYNAMIC"), Some(Schedule::dynamic(1)));
        assert_eq!(Schedule::parse(" Guided , 8 "), Some(Schedule::guided(8)));
    }
}
