//! Lock-free serving metrics: counters and log₂ latency histograms.
//!
//! Every request path bumps atomic counters; prepare and solve latencies
//! land in fixed 40-bucket base-2 histograms (bucket *i* counts samples
//! `≤ 2^i` microseconds), from which the `stats` request derives p50/p99.
//! The quantile is interpolated within a log₂ bucket — linearly by rank
//! between the bucket's edges, so never above the bucket's upper bound —
//! and never needs the raw samples, so recording is one `fetch_add` with
//! no locks on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::json::Json;

/// Number of log₂ buckets: covers 1 µs … 2³⁹ µs (~6 days) per sample.
const BUCKETS: usize = 40;

/// A fixed-bucket base-2 latency histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        // Bucket i counts samples ≤ 2^i µs: idx = ceil(log2(us)), with
        // 0-or-1 µs in bucket 0 and everything above the range clamped
        // into the last bucket.
        let idx = if us <= 1 {
            0
        } else {
            (64 - (us - 1).leading_zeros()) as usize
        };
        self.counts[idx.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Quantile `q` in `0.0..=1.0` (µs), interpolated within a log₂
    /// bucket: linearly by rank inside the holding bucket `(2^(i−1), 2^i]`,
    /// so above its lower edge and at most its upper bound. Bucket 0 and
    /// the clamp bucket report their bound; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the sample at quantile q (1-based, clamped into range).
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut below = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if below + c >= rank {
                let hi = 1u64 << i;
                if i == 0 || i == BUCKETS - 1 {
                    return hi;
                }
                let lo = hi / 2;
                let within = u128::from(hi - lo) * u128::from(rank - below) / u128::from(c);
                return lo + within as u64;
            }
            below += c;
        }
        1u64 << (BUCKETS - 1)
    }

    /// The `{count, p50_us, p99_us}` stats object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count() as f64)),
            ("p50_us", Json::Num(self.quantile_us(0.50) as f64)),
            ("p99_us", Json::Num(self.quantile_us(0.99) as f64)),
        ])
    }
}

/// The server-wide metrics registry, shared by all worker threads.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests received (every parsed line, including malformed ones).
    pub requests: AtomicU64,
    /// Requests answered with `ok:false`.
    pub errors: AtomicU64,
    /// Solve requests answered from a resident study.
    pub cache_hits: AtomicU64,
    /// Solve requests that paid a prepare.
    pub cache_misses: AtomicU64,
    /// Cold prepare latency (misses only).
    pub prepare: Histogram,
    /// Scenario-solve latency (every solve request).
    pub solve: Histogram,
}

impl Metrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The `stats` response body (the caller wraps it with `ok:true`).
    /// Resident studies, resident bytes and evictions
    /// ([`StudyCache::residency`](crate::cache::StudyCache::residency))
    /// and the budget come from the cache, which owns residency truth:
    /// `cache.resident_bytes` counts the studies the cache holds, and a
    /// study evicted while an in-flight request still holds its `Arc`
    /// stays in memory, uncounted, until that request drops it.
    pub fn to_json(
        &self,
        (resident_studies, resident_bytes, evictions): (usize, usize, u64),
        max_resident_bytes: usize,
    ) -> Json {
        let n = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        Json::obj(vec![
            ("requests", n(&self.requests)),
            ("errors", n(&self.errors)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", n(&self.cache_hits)),
                    ("misses", n(&self.cache_misses)),
                    ("evictions", Json::Num(evictions as f64)),
                    ("resident_studies", Json::Num(resident_studies as f64)),
                    ("resident_bytes", Json::Num(resident_bytes as f64)),
                    ("max_resident_bytes", Json::Num(max_resident_bytes as f64)),
                ]),
            ),
            ("prepare", self.prepare.to_json()),
            ("solve", self.solve.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    #[test]
    fn buckets_are_log2_upper_bounds() {
        let h = Histogram::default();
        h.record(Duration::from_micros(1)); // bucket 0 (≤1 µs)
        h.record(Duration::from_micros(2)); // bucket 1 (≤2 µs)
        h.record(Duration::from_micros(3)); // bucket 2 (≤4 µs)
        h.record(Duration::from_micros(1000)); // bucket 10 (≤1024 µs)
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile_us(0.25), 1);
        assert_eq!(h.quantile_us(0.50), 2);
        assert_eq!(h.quantile_us(0.75), 4);
        assert_eq!(h.quantile_us(1.0), 1024);
        // Several samples in one bucket spread linearly by rank over
        // (8, 16]: above the lower edge, at most the upper bound.
        let h = Histogram::default();
        for us in [9, 11, 13, 16] {
            h.record(Duration::from_micros(us));
        }
        let spread = [0.25, 0.5, 0.75, 1.0].map(|q| h.quantile_us(q));
        assert_eq!(spread, [10, 12, 14, 16]);
    }

    #[test]
    fn p50_p99_walk_the_distribution() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket ≤16 µs
        }
        h.record(Duration::from_millis(100)); // outlier

        // Rank 50 of the 99 samples in (8, 16] — not the bucket's bound.
        assert_eq!(h.quantile_us(0.50), 12);
        assert_eq!(h.quantile_us(0.99), 16);
        assert!(h.quantile_us(1.0) >= 100_000);
    }

    #[test]
    fn oversized_samples_clamp_into_the_last_bucket() {
        let h = Histogram::default();
        h.record(Duration::from_secs(u64::MAX / 2));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn stats_document_has_the_wire_shape() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::bump(&m.cache_hits);
        m.solve.record(Duration::from_micros(100));
        let v = m.to_json((2, 4096, 0), 1 << 20);
        assert_eq!(v.get("requests").and_then(Json::as_f64), Some(1.0));
        let cache = v.get("cache").expect("cache object");
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            cache.get("resident_bytes").and_then(Json::as_f64),
            Some(4096.0)
        );
        let solve = v.get("solve").expect("solve histogram");
        assert_eq!(solve.get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(solve.get("p50_us").and_then(Json::as_f64), Some(128.0));
    }
}
