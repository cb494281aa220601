//! Per-thread execution statistics for instrumented parallel loops.

use std::time::Duration;

/// What one worker thread did during a `parallel_for`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadStats {
    /// Iterations this thread executed.
    pub iterations: usize,
    /// Chunks this thread claimed (dispatch events).
    pub chunks: usize,
    /// Time spent inside the loop body.
    pub busy: Duration,
}

/// Statistics for a whole instrumented `parallel_for` execution.
#[derive(Clone, Debug, Default)]
pub struct ExecutionStats {
    /// One entry per worker thread.
    pub per_thread: Vec<ThreadStats>,
    /// Wall-clock duration of the whole parallel region.
    pub wall: Duration,
}

impl ExecutionStats {
    /// Total iterations across threads.
    pub fn total_iterations(&self) -> usize {
        self.per_thread.iter().map(|t| t.iterations).sum()
    }

    /// Total dispatch events across threads.
    pub fn total_chunks(&self) -> usize {
        self.per_thread.iter().map(|t| t.chunks).sum()
    }

    /// Load-balance metric: busiest thread busy-time divided by mean
    /// busy-time. 1.0 is perfect balance; large values mean imbalance.
    pub fn imbalance(&self) -> f64 {
        if self.per_thread.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self
            .per_thread
            .iter()
            .map(|t| t.busy.as_secs_f64())
            .collect();
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Number of threads that executed zero iterations (the paper's
    /// "some processors do not get any work" effect).
    pub fn idle_threads(&self) -> usize {
        self.per_thread.iter().filter(|t| t.iterations == 0).count()
    }
}

/// The stats of consecutive regions: per-thread counts and busy times
/// add thread by thread, and the walls add.
impl std::ops::AddAssign for ExecutionStats {
    fn add_assign(&mut self, other: ExecutionStats) {
        if self.per_thread.len() < other.per_thread.len() {
            self.per_thread
                .resize(other.per_thread.len(), ThreadStats::default());
        }
        for (t, o) in self.per_thread.iter_mut().zip(&other.per_thread) {
            t.iterations += o.iterations;
            t.chunks += o.chunks;
            t.busy += o.busy;
        }
        self.wall += other.wall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_threads() {
        let stats = ExecutionStats {
            per_thread: vec![
                ThreadStats {
                    iterations: 10,
                    chunks: 2,
                    busy: Duration::from_millis(5),
                },
                ThreadStats {
                    iterations: 6,
                    chunks: 3,
                    busy: Duration::from_millis(5),
                },
            ],
            wall: Duration::from_millis(6),
        };
        assert_eq!(stats.total_iterations(), 16);
        assert_eq!(stats.total_chunks(), 5);
        assert_eq!(stats.idle_threads(), 0);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let stats = ExecutionStats {
            per_thread: vec![
                ThreadStats {
                    iterations: 100,
                    chunks: 1,
                    busy: Duration::from_millis(30),
                },
                ThreadStats {
                    iterations: 0,
                    chunks: 0,
                    busy: Duration::ZERO,
                },
            ],
            wall: Duration::from_millis(30),
        };
        assert_eq!(stats.idle_threads(), 1);
        assert!((stats.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn consecutive_regions_add_thread_by_thread() {
        let region = |iterations, ms| ExecutionStats {
            per_thread: vec![
                ThreadStats {
                    iterations,
                    chunks: 1,
                    busy: Duration::from_millis(ms),
                };
                2
            ],
            wall: Duration::from_millis(ms),
        };
        let mut sum = ExecutionStats::default();
        sum += region(3, 4);
        sum += region(5, 6);
        assert_eq!(sum.per_thread.len(), 2);
        assert_eq!(sum.total_iterations(), 16);
        assert_eq!(sum.total_chunks(), 4);
        assert_eq!(sum.per_thread[1].busy, Duration::from_millis(10));
        assert_eq!(sum.wall, Duration::from_millis(10));
    }

    #[test]
    fn empty_stats_are_benign() {
        let stats = ExecutionStats::default();
        assert_eq!(stats.total_iterations(), 0);
        assert_eq!(stats.imbalance(), 1.0);
        assert_eq!(stats.idle_threads(), 0);
    }
}
