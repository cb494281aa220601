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
//!   summation the kernel runs: one Wynn ε table per lane accelerates
//!   the partial sums, and one collective stop ends the batch on the
//!   accelerated estimates. [`sum_until`] and [`sum_until_batch_plain`]
//!   stay the plain references.

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

/// Controls for [`sum_until`] and [`BatchSeries`].
#[derive(Clone, Copy, Debug)]
pub struct SeriesOptions {
    /// Relative tolerance: [`sum_until`] stops when `|term| ≤ rel_tol ·
    /// |partial sum|` (the compensated partial sum), [`BatchSeries`] when
    /// every lane's accelerated estimate moved by at most a tenth of
    /// `rel_tol` times the batch's largest estimate. `abs_tol` is added to
    /// either bar.
    pub rel_tol: f64,
    /// Absolute stopping floor (guards near-zero sums).
    pub abs_tol: f64,
    /// Hard cap on the number of terms ("upper limit of summands").
    pub max_terms: usize,
    /// Require this many *consecutive* quiet indices before declaring
    /// convergence: below-tolerance terms for [`sum_until`], estimates
    /// that moved by less than the tolerance for [`BatchSeries`] (whose
    /// stop reads the accelerated estimates, not the terms). Image series
    /// interleave several families with different magnitudes, and an
    /// early estimate can pause by chance, so a single quiet index is not
    /// proof of convergence.
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
    /// Per-lane values: the accelerated estimates, or the compensated sums
    /// of a series that was exhausted.
    pub values: Vec<f64>,
    /// Number of term indices consumed (each index covers every lane).
    pub terms: usize,
    /// Whether the collective tolerance was met (or the series exhausted)
    /// before the cap.
    pub converged: bool,
}

/// Deepest ε column a lane's table keeps (even: the estimates sit in the
/// even columns). `ablation_series` (ROADMAP item 12) measured the mean
/// groups per lane pass at depths 6 / 8 / 10 / 12 / 16: 13.8 / 12.3 /
/// 11.7 / 11.7 / 11.7 on Barberá pairs and 19.5 / 14.2 / 12.7 / 12.5 /
/// 12.5 on Balaidos C. Past 10 a column costs one more vector division per
/// lane and group and saves at most 0.2 groups.
const EPS_DEPTH: usize = 10;

/// The accelerated stop compares successive estimates against
/// `rel_tol · scale / EPS_SAFETY`: an estimate difference understates the
/// error left in an accelerated sum more than a plain tail term does. At
/// `EPS_SAFETY = 1` (`ablation_series`, depth 10) Balaidos C pairs land at
/// 8.3e-10 and κ = +0.524 pairs at 9.5e-10 relative error, above the plain
/// stop's 3.3e-10 and 5.6e-10; at 10 every soil of the table is below the
/// plain stop.
const EPS_SAFETY: f64 = 10.0;

/// Rounding floor of an estimate, per unit of `reach` — how far the
/// estimate lies from its lane's partial sum. The group sums carry
/// rounding of a few hundred ulp of their own size (the rod integrals'
/// `r_b − r_a`), and the table extrapolates it into the estimate in
/// proportion to the distance it bridges; the stop adds this floor to the
/// estimate move. Near κ = −1 the partial sums swing a hundred times wider
/// than their limit: without the floor `ablation_series` stops κ = −0.99
/// pairs after 20 groups at 5.4e-10 relative error, worse than the plain
/// stop's 4.9e-10; with it they run 183 groups (plain: 2 193) and land at
/// 1.7e-10. The paper soils never reach the floor.
const EPS_ROUNDING: f64 = 1e5 * f64::EPSILON;

/// Reusable engine for repeated batched summations: owns the per-lane
/// Neumaier accumulators, the per-lane Wynn ε tables and the term buffer,
/// so steady-state callers (one engine per worker thread, one
/// [`Self::run`] per element pair) stay allocation-free. The arithmetic is
/// identical to [`sum_until_batch`], which is a thin wrapper over this
/// type.
#[derive(Clone, Debug, Default)]
pub struct BatchSeries {
    sum: Vec<f64>,
    comp: Vec<f64>,
    buf: Vec<f64>,
    /// The current ascending diagonal of every lane's ε table,
    /// depth-major: entry `k · lanes + l` is lane `l`'s `ε_k`, for
    /// `k = 0..=EPS_DEPTH`, so each depth is one contiguous sweep.
    table: Vec<f64>,
    /// Per-lane estimate, copied into the sums when a run stops on it.
    est: Vec<f64>,
    /// Sweep scratch: the entry being carried up the new diagonal, and the
    /// old diagonal's entry one depth below it.
    carry: Vec<f64>,
    below: Vec<f64>,
}

impl BatchSeries {
    /// An empty engine (buffers grow on first use and are then retained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one collective summation over `lanes` lanes (see
    /// [`sum_until_batch`] for the stopping rule), returning
    /// `(terms, converged)`. Per-lane values are read back with
    /// [`Self::value`]; they stay valid until the next `run`.
    pub fn run<F: FnMut(usize, &mut [f64]) -> bool>(
        &mut self,
        lanes: usize,
        mut term: F,
        opts: SeriesOptions,
    ) -> (usize, bool) {
        for v in [&mut self.sum, &mut self.comp, &mut self.buf] {
            v.clear();
            v.resize(lanes, 0.0);
        }
        let needed = opts.consecutive.max(1);
        let mut streak = 0usize;
        let mut terms = 0usize;
        while terms < opts.max_terms {
            let buf = &mut self.buf[..lanes];
            buf.fill(0.0);
            if !term(terms, buf) {
                // Exhausted: the plain sums are exact. Uniform soil ends
                // here after group 0, before the table is ever touched.
                return (terms, true);
            }
            if terms == 1 {
                self.seed_table(lanes);
            }
            let buf = &self.buf[..lanes];
            let sum = &mut self.sum[..lanes];
            let comp = &mut self.comp[..lanes];
            // Neumaier accumulation, branch-free select (identical
            // arithmetic to ChunkedKahan::add): no cross-lane dependency,
            // so the pass vectorizes.
            for l in 0..lanes {
                let s = sum[l];
                let v = buf[l];
                let t = s + v;
                let (big, small) = if s.abs() >= v.abs() { (s, v) } else { (v, s) };
                comp[l] += (big - t) + small;
                sum[l] = t;
            }
            // One partial sum: nothing to accelerate or compare yet.
            let (moved, scale) = if terms == 0 {
                (f64::INFINITY, 0.0)
            } else {
                self.wynn_step(lanes, terms)
            };
            terms += 1;
            let threshold = opts.rel_tol / EPS_SAFETY * scale + opts.abs_tol;
            if moved <= threshold {
                streak += 1;
                if streak >= needed {
                    self.settle(lanes, terms);
                    return (terms, true);
                }
            } else {
                streak = 0;
            }
        }
        self.settle(lanes, terms);
        (terms, false)
    }

    /// Makes the estimates the values of a run that stopped or hit the cap
    /// after `terms` groups: a table exists from two groups on.
    fn settle(&mut self, lanes: usize, terms: usize) {
        if terms > 1 {
            self.sum[..lanes].copy_from_slice(&self.est[..lanes]);
            self.comp[..lanes].fill(0.0);
        }
    }

    /// Starts every lane's table at `S_0`, which is also its first
    /// estimate; called before group 1 is added, the first group that
    /// needs the table.
    fn seed_table(&mut self, lanes: usize) {
        let rows = EPS_DEPTH + 1;
        if self.table.len() < rows * lanes {
            self.table.resize(rows * lanes, 0.0);
        }
        for v in [&mut self.est, &mut self.carry, &mut self.below] {
            v.clear();
            v.resize(lanes, 0.0);
        }
        for ((e, s), k) in self.est.iter_mut().zip(&self.sum).zip(&self.comp) {
            *e = s + k;
        }
        self.table[..lanes].copy_from_slice(&self.est);
    }

    /// Appends partial sum `S_n` (`n ≥ 1`, the compensated sums) to every
    /// lane's ε table and moves each lane's estimate to the new diagonal's
    /// highest finite even column. Returns the largest estimate move plus
    /// the rounding floor, and the shared scale (the largest estimate).
    ///
    /// The diagonal holds `ε_k^{(n−k)}` for `k = 0..=min(n, EPS_DEPTH)`,
    /// built by Wynn's rule `ε_{k+1}^{(j)} = ε_{k−1}^{(j+1)} +
    /// 1/(ε_k^{(j+1)} − ε_k^{(j)})` with `ε_{−1} = 0`. A zero difference
    /// makes the entry above it infinite, and the column after that NaN or
    /// its neighbour's value; the estimate then stays on the highest even
    /// column that is still finite — column 0, the plain sum, always is —
    /// so a lane never returns NaN, and a series the table cannot
    /// accelerate (a divergent one) moves its estimate as its plain sum
    /// does. Lanes never mix: the arithmetic of each lane runs in a fixed
    /// order.
    fn wynn_step(&mut self, lanes: usize, n: usize) -> (f64, f64) {
        if lanes == 0 {
            return (0.0, 0.0);
        }
        let table = &mut self.table[..(EPS_DEPTH + 1) * lanes];
        let carry = &mut self.carry[..lanes];
        let below = &mut self.below[..lanes];
        below.fill(0.0);
        for ((c, s), k) in carry.iter_mut().zip(&self.sum).zip(&self.comp) {
            *c = s + k;
        }
        let depth = n.min(EPS_DEPTH);
        for row in table.chunks_exact_mut(lanes).take(depth) {
            for ((r, c), b) in row.iter_mut().zip(carry.iter_mut()).zip(below.iter_mut()) {
                let old = *r;
                let new = *c;
                *r = new;
                *c = *b + 1.0 / (new - old);
                *b = old;
            }
        }
        table[depth * lanes..][..lanes].copy_from_slice(carry);
        // Highest finite even column: walk the even rows upward, keeping
        // each finite entry.
        let (sums, upper) = table.split_at(lanes);
        let top = below;
        top.copy_from_slice(sums);
        for row in upper.chunks_exact(lanes).take(depth).skip(1).step_by(2) {
            for (t, &v) in top.iter_mut().zip(row) {
                if v.is_finite() {
                    *t = v;
                }
            }
        }
        let est = &mut self.est[..lanes];
        let mut moved = 0.0f64;
        let mut scale = 0.0f64;
        let mut reach = 0.0f64;
        for ((e, &t), &s) in est.iter_mut().zip(top.iter()).zip(sums) {
            reach = reach.max((s - t).abs());
            moved = moved.max((t - *e).abs());
            scale = scale.max(t.abs());
            *e = t;
        }
        (moved + EPS_ROUNDING * reach, scale)
    }

    /// Value of lane `l` after the last [`Self::run`]: its accelerated
    /// estimate, or its plain compensated sum when the series was
    /// exhausted.
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
/// **Collective stopping rule:** each lane feeds its compensated partial
/// sums to its own Wynn ε table (Wynn 1956) and carries an accelerated
/// estimate of its limit (see `wynn_step`). After each term index the
/// largest estimate magnitude is the shared scale; the index counts toward
/// the quiet streak only when *every* lane's estimate moved by at most
/// `rel_tol · scale / EPS_SAFETY + abs_tol`, less the estimates' rounding
/// floor (`EPS_ROUNDING` per unit of distance between an estimate and its
/// partial sum), and [`SeriesOptions::consecutive`] quiet indices in a row
/// stop the sum. Each lane then returns its estimate, not its partial sum.
/// A series that ends by exhaustion returns its plain sums, which are
/// exact; one that ends at index 0 does no ε work at all. All lanes
/// consume the same number of terms — the whole batch runs as far as its
/// slowest lane, which is what keeps the result independent of how points
/// were grouped into batches by the caller *for a fixed batch*; the
/// per-pair batching in the assembler fixes the batch content per element
/// pair, making the assembled matrix bit-identical across schedules ×
/// thread counts × partitions.
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

/// The plain collective stop, the bar the accelerated one is measured
/// against (the kernel's accuracy test, `ablation_series`): per-lane
/// compensated sums ([`ChunkedKahan`]), stopped when every lane's term is
/// at most `rel_tol · scale + abs_tol` — the scale being the largest
/// compensated sum — for [`SeriesOptions::consecutive`] indices in a row.
/// It is the stop [`BatchSeries`] ran before Wynn acceleration. With
/// `consecutive: usize::MAX` it sums exactly `max_terms` terms (or to
/// exhaustion): a long plain reference.
pub fn sum_until_batch_plain<F: FnMut(usize, &mut [f64]) -> bool>(
    lanes: usize,
    mut term: F,
    opts: SeriesOptions,
) -> BatchSeriesResult {
    let mut acc = ChunkedKahan::new(lanes);
    let mut buf = vec![0.0f64; lanes];
    let mut streak = 0usize;
    let mut terms = 0usize;
    let converged = loop {
        if terms >= opts.max_terms {
            break false;
        }
        buf.fill(0.0);
        if !term(terms, &mut buf) {
            break true;
        }
        for (l, &v) in buf.iter().enumerate() {
            acc.add(l, v);
        }
        terms += 1;
        let scale = (0..lanes).fold(0.0f64, |m, l| m.max(acc.value(l).abs()));
        let threshold = opts.rel_tol * scale + opts.abs_tol;
        if buf.iter().all(|t| t.abs() <= threshold) {
            streak += 1;
            if streak >= opts.consecutive.max(1) {
                break true;
            }
        } else {
            streak = 0;
        }
    };
    BatchSeriesResult {
        values: acc.values(),
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
        // Lanes with the same series get the same bits; the accelerated
        // estimate agrees with the plain scalar sum to its tolerance and
        // with the closed form to rounding (ε₂ is exact on a geometric
        // series), in a fraction of the terms.
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
        assert!(r.terms < scalar.terms, "{} vs {}", r.terms, scalar.terms);
        for v in &r.values {
            assert_eq!(v.to_bits(), r.values[0].to_bits());
            assert!(approx_eq(*v, scalar.value, 1e-9));
            assert!(approx_eq(*v, 2.0, 1e-14));
        }
    }

    /// `2 · Σ (−1)^l/(l+1) = 2 ln 2`: alternating, algebraic decay — the
    /// plain rule needs ~1e9 terms, the ε table a few dozen.
    fn alternating_harmonic(l: usize) -> f64 {
        let sign = if l.is_multiple_of(2) { 1.0 } else { -1.0 };
        2.0 * sign / (l + 1) as f64
    }

    #[test]
    fn batch_runs_as_far_as_its_slowest_lane() {
        // Lane 0 is geometric (exact after three terms), lane 1 the slow
        // alternating series and the larger one, so both runs share the
        // scale: the batch stops exactly where lane 1 alone stops.
        let r = sum_until_batch(
            2,
            |l, out| {
                out[0] = 0.5 * ratio_powi(0.3, l);
                out[1] = alternating_harmonic(l);
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged);
        let slow = sum_until_batch(
            1,
            |l, out| {
                out[0] = alternating_harmonic(l);
                true
            },
            SeriesOptions::default(),
        );
        let fast = sum_until_batch(
            1,
            |l, out| {
                out[0] = 0.5 * ratio_powi(0.3, l);
                true
            },
            SeriesOptions::default(),
        );
        assert_eq!(r.terms, slow.terms);
        assert!(fast.terms < r.terms, "{} vs {}", fast.terms, r.terms);
        assert_eq!(r.values[1].to_bits(), slow.values[0].to_bits());
        assert!(approx_eq(r.values[0], 0.5 / 0.7, 1e-12));
        assert!(approx_eq(r.values[1], 2.0 * std::f64::consts::LN_2, 1e-9));
    }

    #[test]
    fn wynn_estimate_sums_what_the_plain_rule_cannot() {
        let opts = SeriesOptions {
            max_terms: 4000,
            ..Default::default()
        };
        let plain = sum_until(alternating_harmonic, opts);
        assert!(!plain.converged, "the plain rule needs ~1e9 terms");
        let r = sum_until_batch(
            1,
            |l, out| {
                out[0] = alternating_harmonic(l);
                true
            },
            opts,
        );
        assert!(r.converged);
        assert!(r.terms < 60, "{} terms", r.terms);
        let want = 2.0 * std::f64::consts::LN_2;
        assert!(
            approx_eq(r.values[0], want, 1e-9),
            "{} vs {want}",
            r.values[0]
        );
    }

    #[test]
    fn a_table_that_goes_singular_never_returns_nan() {
        // Lane 0 stops changing exactly after two terms (zero differences:
        // infinite and NaN table entries), lane 1 is zero throughout, lane
        // 2 repeats one value (ε₁ infinite from the start). Every lane
        // keeps a finite estimate, and the exact ones stay exact.
        let r = sum_until_batch(
            3,
            |l, out| {
                out[0] = [1.0, 0.5].get(l).copied().unwrap_or(0.0);
                out[1] = 0.0;
                out[2] = if l == 0 { 3.0 } else { 0.0 };
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.values, vec![1.5, 0.0, 3.0]);
    }

    #[test]
    fn exhaustion_after_the_first_term_returns_the_plain_sums() {
        // Uniform soil's shape: one group, then exhaustion — the plain
        // compensated sums, bit for bit, with no ε work.
        let group = [0.1, -2.5e-3, 7.0];
        let r = sum_until_batch(
            3,
            |l, out| {
                if l > 0 {
                    return false;
                }
                out.copy_from_slice(&group);
                true
            },
            SeriesOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.terms, 1);
        assert_eq!(r.values, group.to_vec());
    }

    #[test]
    fn plain_batch_stop_reads_the_terms() {
        // The plain stop on a geometric series agrees with the per-lane
        // scalar rule (one lane: the same stop, the same bits), runs to
        // exactly `max_terms` when it may never stop, and, unlike the ε
        // table, cannot sum the alternating harmonic series in 4 000 terms.
        let geometric = |l: usize, out: &mut [f64]| {
            out[0] = ratio_powi(0.5, l);
            true
        };
        let r = sum_until_batch_plain(1, geometric, SeriesOptions::default());
        let scalar = sum_until(|l| ratio_powi(0.5, l), SeriesOptions::default());
        assert!(r.converged);
        assert_eq!(r.terms, scalar.terms);
        assert_eq!(r.values[0].to_bits(), scalar.value.to_bits());
        let long = SeriesOptions {
            max_terms: 70,
            consecutive: usize::MAX,
            ..Default::default()
        };
        let r = sum_until_batch_plain(1, geometric, long);
        assert!(!r.converged);
        assert_eq!(r.terms, 70);
        assert_eq!(r.values[0], 2.0);
        let r = sum_until_batch_plain(
            1,
            |l, out| {
                out[0] = alternating_harmonic(l);
                true
            },
            SeriesOptions {
                max_terms: 4000,
                ..Default::default()
            },
        );
        assert!(!r.converged);
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
