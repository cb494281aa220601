//! Tolerance-controlled summation of slowly convergent series.
//!
//! The layered-soil kernels are "formed by infinite series of terms
//! corresponding to the resultant images" (paper §3). Each matrix
//! coefficient sums such a series "until a tolerance is fulfilled or an
//! upper limit of summands is achieved" (paper §4.3). The reflection ratio
//! `κ = (γ1−γ2)/(γ1+γ2)` controls the geometric decay; for strongly
//! contrasting layers `|κ| → 1` and convergence degrades badly — the very
//! effect that makes two-layer matrix generation ~700× more expensive than
//! the uniform model (Table 6.1) and model C costlier than model B
//! (Table 6.3).
//!
//! This module provides:
//! * [`KahanSum`] — compensated accumulation, so that the many tiny tail
//!   terms are not lost to cancellation;
//! * [`sum_until`] — tolerance/cap-controlled summation with full
//!   diagnostics ([`SeriesResult`]);
//! * [`sum_until_batch`] / [`BatchSeries`] — the lane-ordered batched
//!   analogue with one collective stop, which the kernel's lane path runs.

/// Compensated (Kahan–Babuška) floating-point accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    /// New zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term with compensation (Neumaier's variant, which is also
    /// robust when the new term is larger than the running sum).
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

impl std::iter::FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut k = KahanSum::new();
        for v in iter {
            k.add(v);
        }
        k
    }
}

/// Controls for [`sum_until`].
#[derive(Clone, Copy, Debug)]
pub struct SeriesOptions {
    /// Stop when `|term| ≤ rel_tol · |partial sum|` (checked against the
    /// compensated partial sum; an absolute floor `abs_tol` also applies).
    pub rel_tol: f64,
    /// Absolute stopping floor for terms (guards near-zero sums).
    pub abs_tol: f64,
    /// Hard cap on the number of terms ("upper limit of summands").
    pub max_terms: usize,
    /// Require this many *consecutive* below-tolerance terms before
    /// declaring convergence. Image series interleave several families with
    /// different magnitudes, so a single small term is not proof of
    /// convergence.
    pub consecutive: usize,
}

impl Default for SeriesOptions {
    fn default() -> Self {
        SeriesOptions {
            rel_tol: 1e-9,
            abs_tol: 1e-300,
            max_terms: 2000,
            consecutive: 2,
        }
    }
}

/// Outcome of a tolerance-controlled summation.
#[derive(Clone, Copy, Debug)]
pub struct SeriesResult {
    /// Compensated sum of the consumed terms.
    pub value: f64,
    /// Number of terms consumed.
    pub terms: usize,
    /// Whether the tolerance was met before the cap.
    pub converged: bool,
}

/// Sums `term(l)` for `l = 0, 1, 2, …` until the stopping rule of `opts`
/// fires or `max_terms` is reached.
pub fn sum_until<F: FnMut(usize) -> f64>(mut term: F, opts: SeriesOptions) -> SeriesResult {
    let mut acc = KahanSum::new();
    let mut small_streak = 0usize;
    let mut terms = 0usize;
    let needed = opts.consecutive.max(1);
    while terms < opts.max_terms {
        let t = term(terms);
        acc.add(t);
        terms += 1;
        let threshold = opts.rel_tol * acc.value().abs() + opts.abs_tol;
        if t.abs() <= threshold {
            small_streak += 1;
            if small_streak >= needed {
                return SeriesResult {
                    value: acc.value(),
                    terms,
                    converged: true,
                };
            }
        } else {
            small_streak = 0;
        }
    }
    SeriesResult {
        value: acc.value(),
        terms,
        converged: false,
    }
}

/// Lane-ordered compensated accumulator for one batch of series: one
/// Neumaier accumulator per lane, stored structure-of-arrays so the
/// batched kernel path updates lanes in fixed 4-wide chunks.
///
/// The accumulation order is **fixed by construction** — lane `l` only
/// ever receives its own terms, in term order — which is what makes the
/// batched assembly path bit-identical across schedules, thread counts
/// and partitions: the pool decides *who* runs a batch, never in what
/// order its lanes accumulate.
#[derive(Clone, Debug)]
pub struct ChunkedKahan {
    sum: Vec<f64>,
    comp: Vec<f64>,
}

impl ChunkedKahan {
    /// New zeroed accumulator over `lanes` independent sums.
    pub fn new(lanes: usize) -> Self {
        ChunkedKahan {
            sum: vec![0.0; lanes],
            comp: vec![0.0; lanes],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.sum.len()
    }

    /// Adds `v` to lane `l` with Neumaier compensation — the exact per-lane
    /// analogue of [`KahanSum::add`]. The magnitude test picks which
    /// operand donates the rounding remainder; selecting the pair first
    /// (instead of branching on the whole expression) computes the
    /// identical result through a branch-free select the vectorizer packs.
    #[inline]
    pub fn add(&mut self, l: usize, v: f64) {
        let s = self.sum[l];
        let t = s + v;
        let (big, small) = if s.abs() >= v.abs() { (s, v) } else { (v, s) };
        self.comp[l] += (big - t) + small;
        self.sum[l] = t;
    }

    /// Current compensated value of lane `l`.
    #[inline]
    pub fn value(&self, l: usize) -> f64 {
        self.sum[l] + self.comp[l]
    }

    /// Compensated values of all lanes.
    pub fn values(&self) -> Vec<f64> {
        (0..self.lanes()).map(|l| self.value(l)).collect()
    }
}

/// Outcome of a batched tolerance-controlled summation.
#[derive(Clone, Debug)]
pub struct BatchSeriesResult {
    /// Compensated per-lane sums.
    pub values: Vec<f64>,
    /// Number of term indices consumed (each index covers every lane).
    pub terms: usize,
    /// Whether the collective tolerance was met (or the series exhausted)
    /// before the cap.
    pub converged: bool,
}

/// Reusable engine for repeated batched summations: owns the per-lane
/// Neumaier accumulators and the term buffer, so steady-state callers (one
/// engine per worker thread, one [`Self::run`] per element pair) stay
/// allocation-free. The arithmetic is identical to [`sum_until_batch`],
/// which is a thin wrapper over this type.
#[derive(Clone, Debug, Default)]
pub struct BatchSeries {
    sum: Vec<f64>,
    comp: Vec<f64>,
    buf: Vec<f64>,
}

impl BatchSeries {
    /// An empty engine (buffers grow on first use and are then retained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one collective summation over `lanes` lanes (see
    /// [`sum_until_batch`] for the stopping rule), returning
    /// `(terms, converged)`. Per-lane compensated values are read back
    /// with [`Self::value`]; they stay valid until the next `run`.
    pub fn run<F: FnMut(usize, &mut [f64]) -> bool>(
        &mut self,
        lanes: usize,
        mut term: F,
        opts: SeriesOptions,
    ) -> (usize, bool) {
        self.sum.clear();
        self.sum.resize(lanes, 0.0);
        self.comp.clear();
        self.comp.resize(lanes, 0.0);
        self.buf.clear();
        self.buf.resize(lanes, 0.0);
        let needed = opts.consecutive.max(1);
        let mut streak = 0usize;
        let mut terms = 0usize;
        while terms < opts.max_terms {
            let buf = &mut self.buf[..lanes];
            buf.fill(0.0);
            if !term(terms, buf) {
                return (terms, true);
            }
            let sum = &mut self.sum[..lanes];
            let comp = &mut self.comp[..lanes];
            // Neumaier accumulation, branch-free select (identical
            // arithmetic to ChunkedKahan::add). The shared-scale scan runs
            // as its own pass so this one has no cross-lane dependency and
            // vectorizes.
            for l in 0..lanes {
                let s = sum[l];
                let v = buf[l];
                let t = s + v;
                let (big, small) = if s.abs() >= v.abs() { (s, v) } else { (v, s) };
                comp[l] += (big - t) + small;
                sum[l] = t;
            }
            let mut scale = 0.0f64;
            for l in 0..lanes {
                scale = scale.max((sum[l] + comp[l]).abs());
            }
            terms += 1;
            let threshold = opts.rel_tol * scale + opts.abs_tol;
            if buf.iter().all(|t| t.abs() <= threshold) {
                streak += 1;
                if streak >= needed {
                    return (terms, true);
                }
            } else {
                streak = 0;
            }
        }
        (terms, false)
    }

    /// Compensated value of lane `l` after the last [`Self::run`].
    #[inline]
    pub fn value(&self, l: usize) -> f64 {
        self.sum[l] + self.comp[l]
    }
}

/// Batched analogue of [`sum_until`]: sums one series per lane, all lanes
/// in lockstep over the term index `l = 0, 1, 2, …`.
///
/// `term(l, out)` fills `out` (length `lanes`, pre-zeroed) with the `l`-th
/// term of every lane and returns `true`; returning `false` signals the
/// series is exhausted (nothing read from `out`, the sum stops converged).
///
/// **Collective stopping rule:** after each term index the largest
/// compensated lane magnitude is the shared scale; the index counts toward
/// the quiet streak only when *every* lane's term is below
/// `rel_tol · scale + abs_tol`, and [`SeriesOptions::consecutive`] quiet
/// indices in a row stop the sum. All lanes therefore consume the same
/// number of terms — the whole batch runs as far as its slowest lane,
/// which is what keeps the result independent of how points were grouped
/// into batches by the caller *for a fixed batch*; the per-pair batching
/// in the assembler fixes the batch content per element pair, making the
/// assembled matrix bit-identical across schedules × thread counts ×
/// partitions.
pub fn sum_until_batch<F: FnMut(usize, &mut [f64]) -> bool>(
    lanes: usize,
    term: F,
    opts: SeriesOptions,
) -> BatchSeriesResult {
    let mut engine = BatchSeries::new();
    let (terms, converged) = engine.run(lanes, term, opts);
    BatchSeriesResult {
        values: (0..lanes).map(|l| engine.value(l)).collect(),
        terms,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn kahan_beats_naive_on_ill_conditioned_sum() {
        // 1 + 1e-16 added 10_000 times: naive f64 drops every increment.
        let mut naive = 1.0f64;
        let mut kahan = KahanSum::new();
        kahan.add(1.0);
        for _ in 0..10_000 {
            naive += 1e-16;
            kahan.add(1e-16);
        }
        assert_eq!(naive, 1.0); // the point: naive loses them all
        assert!(approx_eq(kahan.value(), 1.0 + 1e-12, 1e-10));
    }

    #[test]
    fn kahan_from_iterator() {
        let k: KahanSum = [1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(k.value(), 6.0);
    }

    #[test]
    fn geometric_series_sums_to_closed_form() {
        for &ratio in &[0.5, 0.9, -0.7, 0.99] {
            let r = sum_until(
                |l| ratio_powi(ratio, l),
                SeriesOptions {
                    rel_tol: 1e-12,
                    max_terms: 20_000,
                    ..Default::default()
                },
            );
            assert!(r.converged, "ratio {ratio}");
            assert!(
                approx_eq(r.value, 1.0 / (1.0 - ratio), 1e-9),
                "ratio {ratio}: {} vs {}",
                r.value,
                1.0 / (1.0 - ratio)
            );
        }
    }

    fn ratio_powi(r: f64, l: usize) -> f64 {
        r.powi(l as i32)
    }

    #[test]
    fn term_count_grows_with_contrast() {
        // |κ| → 1 needs more terms — the cost driver behind Table 6.3.
        let terms_of =
            |kappa: f64| sum_until(|l| ratio_powi(kappa, l), SeriesOptions::default()).terms;
        assert!(terms_of(0.9) > terms_of(0.5));
        assert!(terms_of(0.99) > terms_of(0.9));
    }

    #[test]
    fn cap_is_enforced_and_reported() {
        let r = sum_until(
            |_| 1.0, // divergent
            SeriesOptions {
                max_terms: 17,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.terms, 17);
        assert!(approx_eq(r.value, 17.0, 1e-15));
    }

    #[test]
    fn consecutive_guard_survives_interleaved_families() {
        // Terms alternate big/tiny (two image families): a single tiny term
        // must not stop the sum early.
        let seq = [1.0, 1e-14, 0.5, 1e-14, 0.25, 1e-14, 1e-14, 1e-14];
        let r = sum_until(
            |l| seq.get(l).copied().unwrap_or(0.0),
            SeriesOptions {
                rel_tol: 1e-9,
                consecutive: 2,
                max_terms: 8,
                ..Default::default()
            },
        );
        // With consecutive=2 the sum must survive past the interleaved tiny
        // terms and capture all three big ones.
        assert!(r.value >= 1.75);
    }

    #[test]
    fn chunked_kahan_lanes_match_independent_kahan_sums() {
        let mut chunked = ChunkedKahan::new(3);
        let mut singles = [KahanSum::new(), KahanSum::new(), KahanSum::new()];
        for i in 0..1000 {
            for (l, single) in singles.iter_mut().enumerate() {
                let v = ((i * 7 + l * 13) % 29) as f64 * 1e-14 + (l as f64);
                chunked.add(l, v);
                single.add(v);
            }
        }
        for (l, single) in singles.iter().enumerate() {
            assert_eq!(chunked.value(l).to_bits(), single.value().to_bits());
        }
    }

    #[test]
    fn batch_sum_matches_per_lane_scalar_sums_on_geometric_series() {
        // Lanes with the same decay ratio stop at the same index as the
        // scalar sum of the largest lane, so the per-lane values agree with
        // independent scalar sums that ran as long.
        let ratios = [0.5, 0.5, 0.5, 0.5, 0.5];
        let r = sum_until_batch(
            ratios.len(),
            |l, out| {
                for (lane, ratio) in ratios.iter().enumerate() {
                    out[lane] = ratio_powi(*ratio, l);
                }
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged);
        let scalar = sum_until(|l| ratio_powi(0.5, l), SeriesOptions::default());
        assert_eq!(r.terms, scalar.terms);
        for v in &r.values {
            assert_eq!(v.to_bits(), scalar.value.to_bits());
        }
    }

    #[test]
    fn batch_runs_as_far_as_its_slowest_lane() {
        let ratios = [0.3, 0.95];
        let r = sum_until_batch(
            2,
            |l, out| {
                out[0] = ratio_powi(ratios[0], l);
                out[1] = ratio_powi(ratios[1], l);
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged);
        let slow = sum_until(|l| ratio_powi(0.95, l), SeriesOptions::default());
        // The fast lane keeps summing (harmlessly) until the slow lane's
        // terms drop below tolerance; both lanes land within tolerance of
        // their closed forms.
        assert!(r.terms >= slow.terms.saturating_sub(2));
        assert!(approx_eq(r.values[0], 1.0 / 0.7, 1e-9));
        assert!(approx_eq(r.values[1], 1.0 / 0.05, 1e-7));
    }

    #[test]
    fn batch_exhaustion_signal_stops_converged() {
        let r = sum_until_batch(
            3,
            |l, out| {
                if l >= 4 {
                    return false;
                }
                out.iter_mut().for_each(|v| *v = 1.0);
                true
            },
            SeriesOptions {
                rel_tol: 1e-30, // never quiet: only exhaustion can stop it
                ..Default::default()
            },
        );
        assert!(r.converged);
        assert_eq!(r.terms, 4);
        assert!(r.values.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn batch_cap_is_enforced() {
        let r = sum_until_batch(
            2,
            |_, out| {
                out[0] = 1.0;
                out[1] = -1.0;
                true
            },
            SeriesOptions {
                max_terms: 9,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.terms, 9);
    }

    #[test]
    fn collective_scale_is_shared_across_lanes() {
        // Lane 1 sums to ~0 (alternating); its terms are judged against the
        // big lane-0 scale, so the batch still stops.
        let r = sum_until_batch(
            2,
            |l, out| {
                out[0] = ratio_powi(0.5, l) * 1e6;
                out[1] = if l % 2 == 0 { 1e-4 } else { -1e-4 };
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged, "shared scale must allow the batch to stop");
        assert!(approx_eq(r.values[0], 2e6, 1e-8));
    }
}
