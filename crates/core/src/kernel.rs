//! Element-level soil kernels: `∫ N_i(ξ) G(x, ξ) dξ` per boundary element.
//!
//! [`SoilKernel`] is the object the assembler and post-processor talk to.
//! It picks the right evaluation strategy per soil model:
//!
//! * **Uniform / two-layer** — fully analytic inner integration over the
//!   *image segments* of the source element ([`crate::images`] +
//!   [`crate::integration`]), with the image-group series summed under
//!   tolerance control. Elements crossing the layer interface are split at
//!   the crossing, each part integrated with its own kernel family.
//!   [`SoilKernel::element_potential_batch`] is the one production
//!   evaluator (assembly and post-processing); the scalar
//!   [`SoilKernel::element_potential`] stays as the per-point oracle the
//!   tests compare against (through
//!   [`pair_block_scalar`](crate::assembly::pair_block_scalar)).
//! * **N-layer** — the singular part (direct + primary surface image) is
//!   integrated analytically with the same machinery; the smooth secondary
//!   part (`MultiLayerKernel::secondary_potential`) by Gauss quadrature.
//!
//! Every evaluation also reports the number of series terms / kernel
//! evaluations consumed, which is the cost signal the parallel-schedule
//! study tracks.

use layerbem_geometry::Point3;
use layerbem_numeric::series::{self, SeriesOptions};
use layerbem_numeric::{slots_for, GaussLegendre, LANES};
use layerbem_soil::multilayer::MultiLayerKernel;
use layerbem_soil::SoilModel;

use crate::images::{Family, Image, ImageExpansion};
use crate::integration::{pad_chunk, rod_chunk, rod_integrals_batch, ElementGeom};

const PI4: f64 = 4.0 * std::f64::consts::PI;

/// Structure-of-arrays batch of field points, plus the scratch the batched
/// kernel evaluation reuses across calls.
///
/// One batch holds **all** the field points a caller wants evaluated
/// against one source element — for Galerkin assembly the `2q` surface
/// points of an element pair, for collocation the two antipodal surface
/// points of a node. The caller fills it with [`KernelBatch::push`], hands
/// it to [`SoilKernel::element_potential_batch`], and reads the per-point
/// nodal values back from [`KernelBatch::values`]. All heap buffers are
/// retained between calls, so one long-lived batch per worker thread makes
/// the steady-state hot path allocation-free.
#[derive(Clone, Debug, Default)]
pub struct KernelBatch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// `I₀` scratch of the current image segment, one slot per point.
    i0: Vec<f64>,
    /// `I₁` scratch of the current image segment, one slot per point.
    i1: Vec<f64>,
    /// Per-point result: `[∫N₀·G, ∫N₁·G]`.
    vals: Vec<[f64; 2]>,
    /// Collective-series engine (accumulators + term buffer), reused
    /// across pairs so the steady-state series loop is allocation-free.
    series: series::BatchSeries,
    /// Subset compaction scratch of the side/layer-restricted passes:
    /// original indices and the compacted point SoA.
    sub_idx: Vec<usize>,
    sub_xs: Vec<f64>,
    sub_ys: Vec<f64>,
    sub_zs: Vec<f64>,
}

impl KernelBatch {
    /// An empty batch (buffers grow on first use and are then retained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the queued field points (capacity is kept).
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
    }

    /// Queues one field point.
    pub fn push(&mut self, p: Point3) {
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
    }

    /// Number of queued field points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` when no field points are queued.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Per-point results of the last
    /// [`SoilKernel::element_potential_batch`] call, in push order:
    /// `values()[j] = [∫N₀·G(x_j,·), ∫N₁·G(x_j,·)]`.
    pub fn values(&self) -> &[[f64; 2]] {
        &self.vals
    }
}

/// Cost accounting of kernel evaluation — one pair's, or any sum of
/// pairs' (records add with `+=`).
///
/// `terms` mirrors the scalar oracle's series-term count (images × points
/// summed over groups; a batch on the earth surface evaluates the
/// mirror-folded image list, so it counts half as many). `lane_points` /
/// `lane_slots` measure lane occupancy of the batched path: points
/// actually computed versus 4-wide-lane slots issued (padded remainder
/// chunks included). `capped_series` counts the collective series that
/// reached [`SeriesOptions::max_terms`] before their stopping rule fired:
/// their values are truncated, and
/// [`GroundingSystem::prepare`](crate::system::GroundingSystem::prepare)
/// refuses a study whose assembly counted any.
///
/// A pair block's record is a pure function of the pair's class (its key
/// in the assembly's class table), so the Galerkin engines charge every
/// pair the stored record of its class: the counts are those of the
/// matrix the generation *embodies*, identical to the double loop's
/// however few pairs the kernel actually ran ([`AssemblyCost::pairs_evaluated`](crate::assembly::AssemblyCost::pairs_evaluated)
/// says how many did).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCost {
    /// Series terms / kernel evaluations the result embodies.
    pub terms: u64,
    /// Field-point evaluations routed through the lane kernels.
    pub lane_points: u64,
    /// 4-wide-lane slots issued for those evaluations (≥ `lane_points`).
    pub lane_slots: u64,
    /// Collective series stopped by the group cap instead of the
    /// tolerance.
    pub capped_series: u64,
}

impl KernelCost {
    /// Batched-lane occupancy — occupied lane points over padded lane
    /// slots, in `0.0..=1.0` — or `None` when no batched lanes ran (an
    /// empty record). Computed from the summed counts, so a sum of
    /// records reports the pooled occupancy.
    pub fn lane_occupancy(&self) -> Option<f64> {
        (self.lane_slots > 0).then(|| self.lane_points as f64 / self.lane_slots as f64)
    }
}

impl std::ops::AddAssign for KernelCost {
    fn add_assign(&mut self, other: KernelCost) {
        self.terms += other.terms;
        self.lane_points += other.lane_points;
        self.lane_slots += other.lane_slots;
        self.capped_series += other.capped_series;
    }
}

/// Strategy-selecting kernel for elemental potentials.
#[derive(Clone, Debug)]
pub struct SoilKernel {
    model: SoilModel,
    opts: SeriesOptions,
    strategy: Strategy,
}

#[derive(Clone, Debug)]
enum Strategy {
    /// Uniform soil: one image group, closed form.
    Uniform { gamma: f64 },
    /// Two-layer: image-series per kernel family.
    TwoLayer {
        gamma1: f64,
        gamma2: f64,
        h: f64,
        kappa: f64,
    },
    /// N-layer: analytic singular part + quadrature of the smooth
    /// secondary kernel.
    Numeric {
        kernel: MultiLayerKernel,
        quad: GaussLegendre,
    },
}

impl SoilKernel {
    /// Builds the kernel for a soil model with default series options.
    pub fn new(model: &SoilModel) -> Self {
        Self::with_options(model, layerbem_soil::default_series_options())
    }

    /// Builds with explicit series controls.
    pub fn with_options(model: &SoilModel, opts: SeriesOptions) -> Self {
        let strategy = match model {
            SoilModel::Uniform { conductivity } => Strategy::Uniform {
                gamma: *conductivity,
            },
            SoilModel::TwoLayer {
                upper,
                lower,
                thickness,
            } => Strategy::TwoLayer {
                gamma1: *upper,
                gamma2: *lower,
                h: *thickness,
                kappa: model.reflection_ratio(),
            },
            SoilModel::MultiLayer { .. } => Strategy::Numeric {
                kernel: MultiLayerKernel::new(model),
                quad: GaussLegendre::new(8),
            },
        };
        SoilKernel {
            model: model.clone(),
            opts,
            strategy,
        }
    }

    /// The soil model this kernel evaluates.
    pub fn model(&self) -> &SoilModel {
        &self.model
    }

    /// Integrates `N_i(ξ)·G(x, ξ)` over the source element's axis,
    /// returning the two nodal values and the number of series terms /
    /// kernel evaluations consumed.
    ///
    /// `x` must not lie on the open source axis (surface evaluation keeps
    /// a radius away — the thin-wire regularization).
    pub fn element_potential(&self, x: Point3, src: &ElementGeom) -> ([f64; 2], usize) {
        match &self.strategy {
            Strategy::Uniform { gamma } => {
                let exp = ImageExpansion {
                    kappa: 0.0,
                    h: f64::INFINITY,
                    prefactor: 1.0 / (PI4 * gamma),
                    family: Family::UpperUpper,
                };
                integrate_sub_element(x, src, 0.0, src.length, &exp, self.opts)
            }
            Strategy::TwoLayer {
                gamma1,
                gamma2,
                h,
                kappa,
            } => {
                let mut acc = [0.0f64; 2];
                let mut terms = 0usize;
                // Split the source element at the interface if it crosses.
                for (s0, s1) in split_at_depth(src, *h) {
                    let mid_depth = src.at(0.5 * (s0 + s1)).z;
                    let src_upper = mid_depth <= *h;
                    let field_upper = x.z <= *h;
                    let (gamma_b, family) = match (src_upper, field_upper) {
                        (true, true) => (*gamma1, Family::UpperUpper),
                        (true, false) => (*gamma1, Family::UpperLower),
                        (false, true) => (*gamma2, Family::LowerUpper),
                        (false, false) => (*gamma2, Family::LowerLower),
                    };
                    let exp = ImageExpansion {
                        kappa: *kappa,
                        h: *h,
                        prefactor: 1.0 / (PI4 * gamma_b),
                        family,
                    };
                    let (v, t) = integrate_sub_element(x, src, s0, s1, &exp, self.opts);
                    acc[0] += v[0];
                    acc[1] += v[1];
                    terms += t;
                }
                (acc, terms)
            }
            Strategy::Numeric { kernel, quad } => {
                let mut acc = [0.0f64; 2];
                let mut evals = 0usize;
                // Analytic singular part per same-layer sub-segment:
                // direct + primary surface image, prefactor 1/(4πγ_b).
                for (s0, s1) in split_at_layers(src, kernel) {
                    let mid_depth = src.at(0.5 * (s0 + s1)).z;
                    let gamma_b = kernel.gamma_of(mid_depth);
                    let pre = 1.0 / (PI4 * gamma_b);
                    // The analytic split of soil::multilayer: the primary
                    // surface image always, the direct term only when the
                    // field point is in the source sub-segment's layer.
                    let same_layer = kernel.layer_index_of(x.z) == kernel.layer_index_of(mid_depth);
                    let mut imgs = vec![Image {
                        sign: -1.0,
                        offset: 0.0,
                        coefficient: pre,
                    }];
                    if same_layer {
                        imgs.push(Image {
                            sign: 1.0,
                            offset: 0.0,
                            coefficient: pre,
                        });
                    }
                    let (v, t) = integrate_images(x, src, s0, s1, &imgs);
                    acc[0] += v[0];
                    acc[1] += v[1];
                    evals += t;
                }
                // Smooth secondary part by quadrature over the whole
                // element.
                let len = src.length;
                for (s, w) in quad.mapped(0.0, len) {
                    let xi = src.at(s);
                    let r = x.horizontal_distance(xi);
                    let sec = kernel.secondary_potential(r, x.z, xi.z);
                    let n1 = s / len;
                    acc[0] += w * (1.0 - n1) * sec;
                    acc[1] += w * n1 * sec;
                    evals += kernel.layer_count() * 2 - 1;
                }
                (acc, evals)
            }
        }
    }

    /// Batched [`Self::element_potential`]: evaluates **all** queued field
    /// points of `batch` against one source element in a single
    /// structure-of-arrays pass, leaving the per-point nodal values in
    /// [`KernelBatch::values`].
    ///
    /// The uniform and two-layer strategies run the image series in
    /// 4-wide lanes ([`rod_integrals_batch`]) under the collective stop of
    /// [`series::BatchSeries`]: each lane accelerates its partial sums
    /// with a Wynn ε table, and the whole batch runs until **every**
    /// lane's estimate has settled against the shared scale (the largest
    /// estimate in the batch). That is a *block* tolerance — each point's
    /// truncation error is small relative to the batch maximum, so a point
    /// may run slightly shorter or longer than it would alone. Because
    /// the batch content is fixed by the (pair of) elements alone, the
    /// result is bit-identical no matter which thread, schedule or
    /// partition evaluates it. The N-layer strategy batches its analytic
    /// singular part the same way and keeps the smooth secondary
    /// quadrature per point (it is a transcendental-kernel sum with no
    /// rod-integral structure to lane).
    ///
    /// A batch whose points all have `z == 0.0` — surface maps, profiles,
    /// mesh-voltage probes — runs the uniform and two-layer series over
    /// [`ImageExpansion::surface_group`]: every image folded with its
    /// mirror, half the rod integrals per group. Each group sums to the
    /// full list's group to rounding, but the stop reads estimates built
    /// from those last bits, so it may land a group away from the full
    /// list's: the two agree to the series tolerance. The kernel reads the
    /// fold off the batch; there is no switch.
    ///
    /// Values agree with the scalar path to the series tolerance but are
    /// **not** bitwise equal to it (lane `ln`, one stop shared by the
    /// batch instead of one per point).
    pub fn element_potential_batch(
        &self,
        batch: &mut KernelBatch,
        src: &ElementGeom,
    ) -> KernelCost {
        let npts = batch.len();
        batch.vals.clear();
        batch.vals.resize(npts, [0.0f64; 2]);
        let mut cost = KernelCost::default();
        if npts == 0 {
            return cost;
        }
        match &self.strategy {
            Strategy::Uniform { gamma } => {
                let exp = ImageExpansion {
                    kappa: 0.0,
                    h: f64::INFINITY,
                    prefactor: 1.0 / (PI4 * gamma),
                    family: Family::UpperUpper,
                };
                integrate_sub_element_batch(
                    batch, src, 0.0, src.length, &exp, self.opts, &mut cost,
                );
            }
            Strategy::TwoLayer {
                gamma1,
                gamma2,
                h,
                kappa,
            } => {
                for (s0, s1) in split_at_depth(src, *h) {
                    let mid_depth = src.at(0.5 * (s0 + s1)).z;
                    let src_upper = mid_depth <= *h;
                    // The kernel family depends on the *field* side of the
                    // interface, so points above and below are separate
                    // lane passes over the same sub-segment.
                    for field_upper in [true, false] {
                        if !batch.zs.iter().any(|&z| (z <= *h) == field_upper) {
                            continue;
                        }
                        let (gamma_b, family) = match (src_upper, field_upper) {
                            (true, true) => (*gamma1, Family::UpperUpper),
                            (true, false) => (*gamma1, Family::UpperLower),
                            (false, true) => (*gamma2, Family::LowerUpper),
                            (false, false) => (*gamma2, Family::LowerLower),
                        };
                        let exp = ImageExpansion {
                            kappa: *kappa,
                            h: *h,
                            prefactor: 1.0 / (PI4 * gamma_b),
                            family,
                        };
                        integrate_sub_element_side_batch(
                            batch,
                            src,
                            s0,
                            s1,
                            &exp,
                            self.opts,
                            *h,
                            field_upper,
                            &mut cost,
                        );
                    }
                }
            }
            Strategy::Numeric { kernel, quad } => {
                for (s0, s1) in split_at_layers(src, kernel) {
                    let mid_depth = src.at(0.5 * (s0 + s1)).z;
                    let gamma_b = kernel.gamma_of(mid_depth);
                    let pre = 1.0 / (PI4 * gamma_b);
                    let src_layer = kernel.layer_index_of(mid_depth);
                    // Points in the source layer see direct + image, the
                    // rest only the primary surface image — two lane
                    // passes with different image lists.
                    for same_layer in [true, false] {
                        let mut imgs = vec![Image {
                            sign: -1.0,
                            offset: 0.0,
                            coefficient: pre,
                        }];
                        if same_layer {
                            imgs.push(Image {
                                sign: 1.0,
                                offset: 0.0,
                                coefficient: pre,
                            });
                        }
                        integrate_images_subset_batch(
                            batch,
                            src,
                            s0,
                            s1,
                            &imgs,
                            |z| (kernel.layer_index_of(z) == src_layer) == same_layer,
                            &mut cost,
                        );
                    }
                }
                // Smooth secondary part stays per point: the integrand is
                // a layered-kernel evaluation, not a rod integral.
                let len = src.length;
                for j in 0..npts {
                    let x = Point3::new(batch.xs[j], batch.ys[j], batch.zs[j]);
                    for (s, w) in quad.mapped(0.0, len) {
                        let xi = src.at(s);
                        let r = x.horizontal_distance(xi);
                        let sec = kernel.secondary_potential(r, x.z, xi.z);
                        let n1 = s / len;
                        batch.vals[j][0] += w * (1.0 - n1) * sec;
                        batch.vals[j][1] += w * n1 * sec;
                        cost.terms += (kernel.layer_count() * 2 - 1) as u64;
                    }
                }
            }
        }
        cost
    }

    /// Point-to-point Green's function: the quadrature reference of the
    /// element-potential tests.
    #[cfg(test)]
    fn point_potential(&self, x: Point3, xi: Point3) -> f64 {
        use layerbem_soil::{GreensFunction, TwoLayerKernels};
        let r = x.horizontal_distance(xi);
        match &self.strategy {
            Strategy::Uniform { gamma } => {
                layerbem_soil::uniform::UniformKernel::new(*gamma).potential(r, x.z, xi.z)
            }
            Strategy::TwoLayer { .. } => {
                TwoLayerKernels::with_options(&self.model, self.opts).potential(r, x.z, xi.z)
            }
            Strategy::Numeric { kernel, .. } => kernel.potential(r, x.z, xi.z),
        }
    }

    /// The two-layer reflection ratio κ (0 for the other strategies,
    /// whose series never reach the cap) and the group cap of every
    /// series: what a refusal of a capped assembly names.
    pub(crate) fn series_limits(&self) -> (f64, usize) {
        let kappa = match &self.strategy {
            Strategy::TwoLayer { kappa, .. } => *kappa,
            _ => 0.0,
        };
        (kappa, self.opts.max_terms)
    }
}

/// Splits the element's arclength range at the depth `h` crossing, if any.
fn split_at_depth(src: &ElementGeom, h: f64) -> Vec<(f64, f64)> {
    let (za, zb) = (src.a.z, src.b.z);
    let len = src.length;
    if (za - h) * (zb - h) < 0.0 {
        // Strictly crossing: find arclength of the crossing point.
        let t = (h - za) / (zb - za);
        let s = t * len;
        if s > 1e-12 && s < len - 1e-12 {
            return vec![(0.0, s), (s, len)];
        }
    }
    vec![(0.0, len)]
}

/// Splits at every interface of an N-layer model the element crosses.
fn split_at_layers(src: &ElementGeom, kernel: &MultiLayerKernel) -> Vec<(f64, f64)> {
    let mut cuts = vec![0.0, src.length];
    let (za, zb) = (src.a.z, src.b.z);
    if (za - zb).abs() > 1e-12 {
        // Probe interfaces via gamma changes along depth; we reconstruct
        // interface depths by bisection on gamma_of — the model only has a
        // few layers, so scan the element in small depth steps.
        let steps = 32;
        let mut prev_gamma = kernel.gamma_of(za);
        for k in 1..=steps {
            let s = src.length * k as f64 / steps as f64;
            let g = kernel.gamma_of(src.at(s).z);
            if g != prev_gamma {
                cuts.push(s);
                prev_gamma = g;
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Integrates the image expansion of a sub-range `[s0, s1]` of the source
/// element against both shape functions of the *whole* element, at one
/// field point: a 2-lane run (one lane per shape function) of the same
/// accelerated stop the lane kernel uses, with the scalar rod integrals.
fn integrate_sub_element(
    x: Point3,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    exp: &ImageExpansion,
    opts: SeriesOptions,
) -> ([f64; 2], usize) {
    let len = src.length;
    let sub_len = s1 - s0;
    debug_assert!(sub_len > 0.0);
    let p0 = src.at(s0);
    let p1 = src.at(s1);
    let mut terms = 0usize;
    let mut images: Vec<Image> = Vec::new();
    let mut engine = series::BatchSeries::new();
    engine.run(
        2,
        |n, buf| {
            exp.group(n, &mut images);
            if images.is_empty() {
                return false;
            }
            let group = images_quadratic_free_sum(x, p0, p1, sub_len, s0, len, &images);
            buf.copy_from_slice(&group);
            terms += images.len();
            true
        },
        opts,
    );
    ([engine.value(0), engine.value(1)], terms)
}

/// A sub-range `[s0, s1]` of a source element: what every image group's
/// lane pass over it reads, hoisted out of the group loop.
struct SubRange {
    p0: Point3,
    p1: Point3,
    sub_len: f64,
    /// Shape functions of the whole element restricted to the sub-range:
    /// N0(s0 + s') = w0 − s'/L, N1(s0 + s') = w1 + s'/L.
    w0: f64,
    w1: f64,
    inv_len: f64,
    /// Every image segment shares the element's x/y tangent; its z
    /// tangent only flips with the image's sign (exactly — see
    /// [`rod_integrals_batch_dir`](crate::integration::rod_integrals_batch_dir)).
    tx: f64,
    ty: f64,
    tz0: f64,
}

impl SubRange {
    fn new(src: &ElementGeom, s0: f64, s1: f64) -> Self {
        let len = src.length;
        let sub_len = s1 - s0;
        debug_assert!(sub_len > 0.0);
        let p0 = src.at(s0);
        let p1 = src.at(s1);
        SubRange {
            p0,
            p1,
            sub_len,
            w0: 1.0 - s0 / len,
            w1: s0 / len,
            inv_len: 1.0 / len,
            tx: (p1.x - p0.x) / sub_len,
            ty: (p1.y - p0.y) / sub_len,
            tz0: (p1.z - p0.z) / sub_len,
        }
    }

    /// Adds one image group to every point of the SoA slices: point `j`'s
    /// N₀ integral to `b0[j]`, its N₁ integral to `b1[j]`.
    ///
    /// Fused rod-chunk + accumulate, chunks outer and images inner: each
    /// chunk's points load once, and the group's contribution accumulates
    /// in registers before a single add to the buffers. Per lane this sums
    /// the images in the same order as an image-by-image `+=` into a
    /// zeroed buffer, starting from the same `0.0` — bit-identical (the
    /// register sum can never be `-0.0`, so the final `0.0 + sum` is
    /// exact).
    fn add_group(
        &self,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        images: &[Image],
        b0: &mut [f64],
        b1: &mut [f64],
    ) {
        let npts = xs.len();
        let accumulate = |px: &[f64; LANES], py: &[f64; LANES], pz: &[f64; LANES]| {
            let mut a0 = [0.0f64; LANES];
            let mut a1 = [0.0f64; LANES];
            for im in images {
                let ia = Point3::new(self.p0.x, self.p0.y, im.depth(self.p0.z));
                let ib = Point3::new(self.p1.x, self.p1.y, im.depth(self.p1.z));
                let t = [self.tx, self.ty, im.sign * self.tz0];
                let c = im.coefficient;
                let (r0, r1) = rod_chunk(px, py, pz, ia, ib, self.sub_len, t);
                for l in 0..LANES {
                    let v1 = r1[l] * self.inv_len;
                    a0[l] += c * (self.w0 * r0[l] - v1);
                    a1[l] += c * (self.w1 * r0[l] + v1);
                }
            }
            (a0, a1)
        };
        let mut base = 0usize;
        while base + LANES <= npts {
            let px: &[f64; LANES] = xs[base..base + LANES].try_into().unwrap();
            let py: &[f64; LANES] = ys[base..base + LANES].try_into().unwrap();
            let pz: &[f64; LANES] = zs[base..base + LANES].try_into().unwrap();
            let (a0, a1) = accumulate(px, py, pz);
            let o0: &mut [f64; LANES] = (&mut b0[base..base + LANES]).try_into().unwrap();
            let o1: &mut [f64; LANES] = (&mut b1[base..base + LANES]).try_into().unwrap();
            for l in 0..LANES {
                o0[l] += a0[l];
                o1[l] += a1[l];
            }
            base += LANES;
        }
        if base < npts {
            let m = npts - base;
            let (px, py, pz) = pad_chunk(xs, ys, zs, base, m);
            let (a0, a1) = accumulate(&px, &py, &pz);
            for l in 0..m {
                b0[base + l] += a0[l];
                b1[base + l] += a1[l];
            }
        }
    }
}

/// Core of the batched image-series integration: sums the image groups of
/// `exp` over the sub-range `[s0, s1]` for **all** points of the SoA
/// slices at once, under the collective stop of [`series::BatchSeries`]
/// (2 lanes per point — one per shape function, stored as two planes of
/// `npts` so the per-image accumulation is a contiguous vectorizable
/// sweep). Results are handed to `sink(point_index, v0, v1)` so callers
/// decide where they accumulate.
#[allow(clippy::too_many_arguments)]
fn image_series_batch(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    engine: &mut series::BatchSeries,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    exp: &ImageExpansion,
    opts: SeriesOptions,
    cost: &mut KernelCost,
    mut sink: impl FnMut(usize, f64, f64),
) {
    let npts = xs.len();
    if npts == 0 {
        return;
    }
    let sub = SubRange::new(src, s0, s1);
    // Read off the batch, not a switch: a batch lying wholly on the earth
    // surface (maps, profiles, mesh-voltage probes) sees every image and
    // its mirror at the same distance, so the folded list does half the
    // rod integrals. Assembly batches sit on conductor surfaces below
    // ground and take the full list.
    let on_surface = zs.iter().all(|&z| z == 0.0);
    let mut images: Vec<Image> = Vec::new();
    let (_, converged) = engine.run(
        2 * npts,
        |n, buf| {
            if on_surface {
                exp.surface_group(n, &mut images);
            } else {
                exp.group(n, &mut images);
            }
            if images.is_empty() {
                // Group 0 is never empty (crate::images invariant);
                // emptiness at n ≥ 1 signals exhaustion.
                debug_assert!(n > 0, "image group 0 is never empty");
                return false;
            }
            // Plane layout: lane j is point j's N₀ integral, lane
            // npts + j its N₁ integral.
            let (b0, b1) = buf.split_at_mut(npts);
            sub.add_group(xs, ys, zs, &images, b0, b1);
            cost.lane_points += (images.len() * npts) as u64;
            cost.lane_slots += (images.len() * slots_for(npts)) as u64;
            cost.terms += (images.len() * npts) as u64;
            true
        },
        opts,
    );
    cost.capped_series += u64::from(!converged);
    for j in 0..npts {
        sink(j, engine.value(j), engine.value(npts + j));
    }
}

/// Batched [`integrate_sub_element`] over the whole batch (single-family
/// strategies: uniform soil).
fn integrate_sub_element_batch(
    batch: &mut KernelBatch,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    exp: &ImageExpansion,
    opts: SeriesOptions,
    cost: &mut KernelCost,
) {
    let KernelBatch {
        xs,
        ys,
        zs,
        vals,
        series,
        ..
    } = batch;
    image_series_batch(
        xs,
        ys,
        zs,
        series,
        src,
        s0,
        s1,
        exp,
        opts,
        cost,
        |j, v0, v1| {
            vals[j][0] += v0;
            vals[j][1] += v1;
        },
    );
}

/// Batched two-layer sub-element integration restricted to the points on
/// one side of the interface (`z ≤ h` when `field_upper`): the kernel
/// family depends on the field layer, so each side is its own lane pass.
/// The subset is compacted into a scratch SoA; membership depends only on
/// the points themselves, so pair-level determinism is preserved.
#[allow(clippy::too_many_arguments)]
fn integrate_sub_element_side_batch(
    batch: &mut KernelBatch,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    exp: &ImageExpansion,
    opts: SeriesOptions,
    h: f64,
    field_upper: bool,
    cost: &mut KernelCost,
) {
    let KernelBatch {
        xs,
        ys,
        zs,
        vals,
        series,
        sub_idx,
        sub_xs,
        sub_ys,
        sub_zs,
        ..
    } = batch;
    sub_idx.clear();
    sub_xs.clear();
    sub_ys.clear();
    sub_zs.clear();
    for (j, &z) in zs.iter().enumerate() {
        if (z <= h) == field_upper {
            sub_idx.push(j);
            sub_xs.push(xs[j]);
            sub_ys.push(ys[j]);
            sub_zs.push(z);
        }
    }
    if sub_idx.is_empty() {
        return;
    }
    image_series_batch(
        sub_xs,
        sub_ys,
        sub_zs,
        series,
        src,
        s0,
        s1,
        exp,
        opts,
        cost,
        |k, v0, v1| {
            vals[sub_idx[k]][0] += v0;
            vals[sub_idx[k]][1] += v1;
        },
    );
}

/// Batched [`integrate_images`] (fixed image list, no series control)
/// restricted to the points satisfying `pred(z)` — the N-layer analytic
/// singular part, where the image list depends on whether the field point
/// shares the source sub-segment's layer.
fn integrate_images_subset_batch(
    batch: &mut KernelBatch,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    images: &[Image],
    pred: impl Fn(f64) -> bool,
    cost: &mut KernelCost,
) {
    let KernelBatch {
        xs,
        ys,
        zs,
        i0,
        i1,
        vals,
        sub_idx,
        sub_xs,
        sub_ys,
        sub_zs,
        ..
    } = batch;
    sub_idx.clear();
    sub_xs.clear();
    sub_ys.clear();
    sub_zs.clear();
    for (j, &z) in zs.iter().enumerate() {
        if pred(z) {
            sub_idx.push(j);
            sub_xs.push(xs[j]);
            sub_ys.push(ys[j]);
            sub_zs.push(z);
        }
    }
    let npts = sub_idx.len();
    if npts == 0 {
        return;
    }
    let len = src.length;
    let sub_len = s1 - s0;
    let p0 = src.at(s0);
    let p1 = src.at(s1);
    let w0 = 1.0 - s0 / len;
    let w1 = s0 / len;
    let inv_len = 1.0 / len;
    i0.resize(npts, 0.0);
    i1.resize(npts, 0.0);
    let mut acc = vec![[0.0f64; 2]; npts];
    for im in images {
        let ia = Point3::new(p0.x, p0.y, im.depth(p0.z));
        let ib = Point3::new(p1.x, p1.y, im.depth(p1.z));
        rod_integrals_batch(sub_xs, sub_ys, sub_zs, ia, ib, sub_len, i0, i1);
        let c = im.coefficient;
        for k in 0..npts {
            let v1 = i1[k] * inv_len;
            acc[k][0] += c * (w0 * i0[k] - v1);
            acc[k][1] += c * (w1 * i0[k] + v1);
        }
        cost.lane_points += npts as u64;
        cost.lane_slots += slots_for(npts) as u64;
    }
    cost.terms += (images.len() * npts) as u64;
    for (k, &j) in sub_idx.iter().enumerate() {
        vals[j][0] += acc[k][0];
        vals[j][1] += acc[k][1];
    }
}

/// Integrates a fixed image list over a sub-range (no series control).
fn integrate_images(
    x: Point3,
    src: &ElementGeom,
    s0: f64,
    s1: f64,
    images: &[Image],
) -> ([f64; 2], usize) {
    let p0 = src.at(s0);
    let p1 = src.at(s1);
    let v = images_quadratic_free_sum(x, p0, p1, s1 - s0, s0, src.length, images);
    (v, images.len())
}

/// Analytic contribution of a list of images to both shape integrals of a
/// sub-range `[s0, s0 + sub_len]` of an element of length `len`.
#[inline]
fn images_quadratic_free_sum(
    x: Point3,
    p0: Point3,
    p1: Point3,
    sub_len: f64,
    s0: f64,
    len: f64,
    images: &[Image],
) -> [f64; 2] {
    let mut out = [0.0f64; 2];
    for im in images {
        // Image of the sub-segment: x, y kept; z mapped affinely, so the
        // image is a straight segment of the same length parametrized
        // identically — shape functions ride along unchanged.
        let ia = Point3::new(p0.x, p0.y, im.depth(p0.z));
        let ib = Point3::new(p1.x, p1.y, im.depth(p1.z));
        let (i0, i1) = crate::integration::rod_integrals(x, ia, ib, sub_len);
        // Shape functions of the whole element restricted to the
        // sub-range: N0(s0 + s') = (1 − s0/L) − s'/L,
        //            N1(s0 + s') = s0/L + s'/L.
        let n0 = (1.0 - s0 / len) * i0 - i1 / len;
        let n1 = (s0 / len) * i0 + i1 / len;
        out[0] += im.coefficient * n0;
        out[1] += im.coefficient * n1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_numeric::GaussLegendre;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    fn horizontal_elem() -> ElementGeom {
        ElementGeom::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(5.0, 0.0, 0.8),
            0.006,
        )
    }

    /// Reference: quadrature of the point kernel against shape functions.
    fn quad_element_potential(
        k: &SoilKernel,
        x: Point3,
        src: &ElementGeom,
        order: usize,
    ) -> [f64; 2] {
        let q = GaussLegendre::new(order);
        let len = src.length;
        let mut out = [0.0f64; 2];
        for (s, w) in q.mapped(0.0, len) {
            let xi = src.at(s);
            let g = k.point_potential(x, xi);
            out[0] += w * (1.0 - s / len) * g;
            out[1] += w * (s / len) * g;
        }
        out
    }

    #[test]
    fn uniform_element_matches_quadrature() {
        let k = SoilKernel::new(&SoilModel::uniform(0.016));
        let src = horizontal_elem();
        for x in [
            Point3::new(2.5, 3.0, 0.0),
            Point3::new(-2.0, 1.0, 1.5),
            Point3::new(10.0, 0.0, 0.8),
        ] {
            let (got, terms) = k.element_potential(x, &src);
            let want = quad_element_potential(&k, x, &src, 32);
            assert!(close(got[0], want[0], 1e-8), "{got:?} vs {want:?}");
            assert!(close(got[1], want[1], 1e-8));
            assert_eq!(terms, 2);
        }
    }

    #[test]
    fn two_layer_element_matches_quadrature_same_layer() {
        let model = SoilModel::two_layer(0.005, 0.016, 1.0);
        let k = SoilKernel::new(&model);
        let src = horizontal_elem(); // entirely in layer 1
        for x in [
            Point3::new(2.5, 4.0, 0.0),
            Point3::new(0.0, 2.0, 0.5),
            Point3::new(3.0, 1.0, 2.0), // field in layer 2
        ] {
            let (got, _) = k.element_potential(x, &src);
            let want = quad_element_potential(&k, x, &src, 48);
            assert!(close(got[0], want[0], 1e-6), "x={x:?}: {got:?} vs {want:?}");
            assert!(close(got[1], want[1], 1e-6));
        }
    }

    #[test]
    fn straddling_rod_element_matches_quadrature() {
        // A rod element crossing the interface (Balaidos model C): split
        // integration must agree with brute-force quadrature of the point
        // kernel.
        let model = SoilModel::two_layer(0.0025, 0.020, 1.0);
        let k = SoilKernel::new(&model);
        let rod = ElementGeom::new(
            Point3::new(10.0, 0.0, 0.8),
            Point3::new(10.0, 0.0, 1.55),
            0.007,
        );
        for x in [
            Point3::new(12.0, 0.0, 0.5),
            Point3::new(8.0, 1.0, 1.8),
            Point3::new(10.0, 3.0, 0.0),
        ] {
            let (got, _) = k.element_potential(x, &rod);
            // The reference must also respect the interface: split the
            // quadrature at the crossing.
            let q = GaussLegendre::new(48);
            let len = rod.length;
            let s_cross = (1.0 - 0.8) / (1.55 - 0.8) * len;
            let mut want = [0.0f64; 2];
            for (a, b) in [(0.0, s_cross), (s_cross, len)] {
                for (s, w) in q.mapped(a, b) {
                    let xi = rod.at(s);
                    let g = k.point_potential(x, xi);
                    want[0] += w * (1.0 - s / len) * g;
                    want[1] += w * (s / len) * g;
                }
            }
            assert!(close(got[0], want[0], 1e-6), "x={x:?}: {got:?} vs {want:?}");
            assert!(close(got[1], want[1], 1e-6));
        }
    }

    #[test]
    fn multilayer_element_matches_two_layer_path() {
        // Same physical model expressed as MultiLayer must agree with the
        // image-series path.
        let two = SoilModel::two_layer(0.005, 0.016, 1.0);
        let multi = SoilModel::multi_layer(vec![
            layerbem_soil::Layer {
                conductivity: 0.005,
                thickness: 1.0,
            },
            layerbem_soil::Layer {
                conductivity: 0.016,
                thickness: f64::INFINITY,
            },
        ]);
        let k2 = SoilKernel::new(&two);
        let km = SoilKernel::new(&multi);
        let src = horizontal_elem();
        for x in [Point3::new(2.5, 3.0, 0.0), Point3::new(7.0, 1.0, 1.5)] {
            let (a, _) = k2.element_potential(x, &src);
            let (b, _) = km.element_potential(x, &src);
            assert!(close(a[0], b[0], 5e-3), "x={x:?}: {a:?} vs {b:?}");
            assert!(close(a[1], b[1], 5e-3));
        }
    }

    #[test]
    fn self_element_potential_is_finite_and_positive() {
        let k = SoilKernel::new(&SoilModel::uniform(0.016));
        let src = horizontal_elem();
        // Field point on the element's own surface.
        let x = src.surface_at(2.5);
        let (v, _) = k.element_potential(x, &src);
        assert!(v[0].is_finite() && v[1].is_finite());
        assert!(v[0] > 0.0 && v[1] > 0.0);
        // Self potential dominates a far-field evaluation.
        let (far, _) = k.element_potential(Point3::new(100.0, 100.0, 0.8), &src);
        assert!(v[0] > 10.0 * far[0]);
    }

    #[test]
    fn term_count_scales_with_contrast() {
        let src = horizontal_elem();
        let x = Point3::new(2.5, 5.0, 0.0);
        let mild = SoilKernel::new(&SoilModel::two_layer(0.014, 0.016, 1.0));
        let strong = SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 1.0));
        let (_, t_mild) = mild.element_potential(x, &src);
        let (_, t_strong) = strong.element_potential(x, &src);
        assert!(t_strong > t_mild, "{t_strong} vs {t_mild}");
    }

    fn batch_of(points: &[Point3]) -> KernelBatch {
        let mut b = KernelBatch::new();
        for &p in points {
            b.push(p);
        }
        b
    }

    #[test]
    fn batched_uniform_matches_scalar_and_term_count() {
        let k = SoilKernel::new(&SoilModel::uniform(0.016));
        let src = horizontal_elem();
        let pts = [
            Point3::new(2.5, 3.0, 0.0),
            Point3::new(-2.0, 1.0, 1.5),
            Point3::new(10.0, 0.0, 0.8),
            src.surface_at(2.5),
            Point3::new(0.5, 0.5, 0.5),
        ];
        let mut batch = batch_of(&pts);
        let cost = k.element_potential_batch(&mut batch, &src);
        let mut scalar_terms = 0u64;
        for (j, &x) in pts.iter().enumerate() {
            let (v, t) = k.element_potential(x, &src);
            scalar_terms += t as u64;
            let got = batch.values()[j];
            assert!(close(got[0], v[0], 1e-12), "point {j}: {got:?} vs {v:?}");
            assert!(close(got[1], v[1], 1e-12));
        }
        // Uniform soil: exactly one 2-image group per point on both paths.
        assert_eq!(cost.terms, scalar_terms);
        assert_eq!(cost.lane_points, 2 * pts.len() as u64);
        assert!(cost.lane_slots >= cost.lane_points);
    }

    #[test]
    fn batched_two_layer_matches_scalar_within_series_tolerance() {
        let k = SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 1.0));
        let src = horizontal_elem();
        // Field points on both sides of the 1 m interface exercise both
        // kernel-family lane passes.
        let pts = [
            Point3::new(2.5, 4.0, 0.0),
            Point3::new(0.0, 2.0, 0.5),
            Point3::new(3.0, 1.0, 2.0),
            Point3::new(-1.0, -1.0, 1.2),
            Point3::new(6.0, 0.3, 0.8),
            Point3::new(2.0, 2.0, 0.99),
            Point3::new(2.0, 2.0, 1.01),
        ];
        let mut batch = batch_of(&pts);
        let cost = k.element_potential_batch(&mut batch, &src);
        let mut scalar_terms = 0u64;
        for (j, &x) in pts.iter().enumerate() {
            let (v, t) = k.element_potential(x, &src);
            scalar_terms += t as u64;
            let got = batch.values()[j];
            assert!(close(got[0], v[0], 1e-6), "point {j}: {got:?} vs {v:?}");
            assert!(close(got[1], v[1], 1e-6));
        }
        // The collective stop applies a block tolerance (shared scale):
        // individual points may run slightly shorter or longer than the
        // scalar per-point rule, but the totals stay within a few percent.
        let lo = scalar_terms as f64 * 0.9;
        let hi = scalar_terms as f64 * 1.2;
        let t = cost.terms as f64;
        assert!(
            t >= lo && t <= hi,
            "{} vs scalar {scalar_terms}",
            cost.terms
        );
    }

    #[test]
    fn batched_straddling_rod_matches_scalar() {
        let k = SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 1.0));
        let rod = ElementGeom::new(
            Point3::new(10.0, 0.0, 0.8),
            Point3::new(10.0, 0.0, 1.55),
            0.007,
        );
        let pts = [
            Point3::new(12.0, 0.0, 0.5),
            Point3::new(8.0, 1.0, 1.8),
            Point3::new(10.0, 3.0, 0.0),
        ];
        let mut batch = batch_of(&pts);
        k.element_potential_batch(&mut batch, &rod);
        for (j, &x) in pts.iter().enumerate() {
            let (v, _) = k.element_potential(x, &rod);
            let got = batch.values()[j];
            assert!(close(got[0], v[0], 1e-6), "point {j}: {got:?} vs {v:?}");
            assert!(close(got[1], v[1], 1e-6));
        }
    }

    #[test]
    fn batched_multilayer_matches_scalar() {
        let model = SoilModel::multi_layer(vec![
            layerbem_soil::Layer {
                conductivity: 0.005,
                thickness: 1.0,
            },
            layerbem_soil::Layer {
                conductivity: 0.016,
                thickness: f64::INFINITY,
            },
        ]);
        let k = SoilKernel::new(&model);
        let src = horizontal_elem();
        let pts = [
            Point3::new(2.5, 3.0, 0.0),
            Point3::new(7.0, 1.0, 1.5),
            Point3::new(1.0, -2.0, 0.9),
        ];
        let mut batch = batch_of(&pts);
        let cost = k.element_potential_batch(&mut batch, &src);
        let mut scalar_terms = 0u64;
        for (j, &x) in pts.iter().enumerate() {
            let (v, t) = k.element_potential(x, &src);
            scalar_terms += t as u64;
            let got = batch.values()[j];
            assert!(close(got[0], v[0], 1e-9), "point {j}: {got:?} vs {v:?}");
            assert!(close(got[1], v[1], 1e-9));
        }
        // Fixed image lists + per-point secondary quadrature: the batched
        // accounting reproduces the scalar totals exactly.
        assert_eq!(cost.terms, scalar_terms);
    }

    #[test]
    fn batch_results_are_push_order_invariant() {
        // Within one batch, each lane's accumulator and ε table are
        // independent and the collective stop reads maxima over lanes —
        // both order-invariant — so permuting the push order must
        // permute the results bitwise. (Composition is a different story:
        // the collective stop couples lanes, so a point alone may run a
        // *shorter* series than inside a batch. Pair-level determinism
        // only needs the batch of a pair to be fixed — which it is.)
        let k = SoilKernel::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
        let src = horizontal_elem();
        let pts = [
            Point3::new(2.5, 4.0, 0.0),
            Point3::new(0.0, 2.0, 0.5),
            Point3::new(3.0, 1.0, 2.0),
            Point3::new(1.0, 1.0, 0.8),
            Point3::new(4.4, -0.6, 1.3),
        ];
        let mut fwd = batch_of(&pts);
        k.element_potential_batch(&mut fwd, &src);
        let rev_pts: Vec<Point3> = pts.iter().rev().copied().collect();
        let mut rev = batch_of(&rev_pts);
        k.element_potential_batch(&mut rev, &src);
        let n = pts.len();
        for j in 0..n {
            let a = fwd.values()[j];
            let b = rev.values()[n - 1 - j];
            assert_eq!(a[0].to_bits(), b[0].to_bits(), "point {j}");
            assert_eq!(a[1].to_bits(), b[1].to_bits(), "point {j}");
        }
    }

    #[test]
    fn uniform_batch_is_composition_invariant() {
        // Uniform soil has a single exhaustion-terminated image group, so
        // the series length cannot depend on batch mates: a point alone is
        // bitwise the point inside any batch.
        let k = SoilKernel::new(&SoilModel::uniform(0.016));
        let src = horizontal_elem();
        let pts = [
            Point3::new(2.5, 3.0, 0.0),
            Point3::new(-2.0, 1.0, 1.5),
            Point3::new(10.0, 0.0, 0.8),
            src.surface_at(1.0),
            Point3::new(0.5, 0.5, 0.5),
        ];
        let mut batch = batch_of(&pts);
        k.element_potential_batch(&mut batch, &src);
        let full: Vec<[f64; 2]> = batch.values().to_vec();
        for (j, &x) in pts.iter().enumerate() {
            let mut solo = batch_of(&[x]);
            k.element_potential_batch(&mut solo, &src);
            assert_eq!(solo.values()[0][0].to_bits(), full[j][0].to_bits());
            assert_eq!(solo.values()[0][1].to_bits(), full[j][1].to_bits());
        }
    }

    /// Largest `|v − r|` over a batch, relative to its largest `|r|`: the
    /// quantity the shared-scale stop controls.
    fn block_error(v: &[f64], r: &[f64]) -> f64 {
        let scale = r.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let err = v
            .iter()
            .zip(r)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        err / scale
    }

    /// Errors of the plain stop and of the kernel's accelerated values
    /// against a plain sum of `60/ln(1/|κ|) + 40` groups, for a batch the
    /// kernel evaluates in one lane pass (the source within one layer, all
    /// points on one side of the interface); `None` for any other batch.
    fn stop_errors(soil: (f64, f64, f64), src: &ElementGeom, pts: &[Point3]) -> Option<(f64, f64)> {
        let (g1, g2, h) = soil;
        let field_upper = pts[0].z <= h;
        if (src.a.z - h) * (src.b.z - h) < 0.0 || pts.iter().any(|p| (p.z <= h) != field_upper) {
            return None;
        }
        let kernel = SoilKernel::new(&SoilModel::two_layer(g1, g2, h));
        let Strategy::TwoLayer { kappa, .. } = kernel.strategy else {
            unreachable!("a two-layer soil")
        };
        let (gamma, family) = match (src.at(0.5 * src.length).z <= h, field_upper) {
            (true, true) => (g1, Family::UpperUpper),
            (true, false) => (g1, Family::UpperLower),
            (false, true) => (g2, Family::LowerUpper),
            (false, false) => (g2, Family::LowerLower),
        };
        let exp = ImageExpansion {
            kappa,
            h,
            prefactor: 1.0 / (PI4 * gamma),
            family,
        };
        let mut batch = batch_of(pts);
        kernel.element_potential_batch(&mut batch, src);
        let n = pts.len();
        let accelerated: Vec<f64> = (0..2 * n).map(|l| batch.values()[l % n][l / n]).collect();
        let (xs, ys, zs): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            pts.iter().map(|p| p.x).collect(),
            pts.iter().map(|p| p.y).collect(),
            pts.iter().map(|p| p.z).collect(),
        );
        let on_surface = zs.iter().all(|&z| z == 0.0);
        let sub = SubRange::new(src, 0.0, src.length);
        let mut images = Vec::new();
        let mut group = |g: usize, buf: &mut [f64]| {
            if on_surface {
                exp.surface_group(g, &mut images);
            } else {
                exp.group(g, &mut images);
            }
            let (b0, b1) = buf.split_at_mut(n);
            sub.add_group(&xs, &ys, &zs, &images, b0, b1);
            !images.is_empty()
        };
        let plain = series::sum_until_batch_plain(2 * n, &mut group, kernel.opts);
        let long = SeriesOptions {
            max_terms: (60.0 / (1.0 / kappa.abs()).ln()).ceil() as usize + 40,
            consecutive: usize::MAX,
            ..kernel.opts
        };
        let reference = series::sum_until_batch_plain(2 * n, &mut group, long);
        Some((
            block_error(&plain.values, &reference.values),
            block_error(&accelerated, &reference.values),
        ))
    }

    #[test]
    fn accelerated_sums_are_no_less_accurate_than_the_plain_stop() {
        use layerbem_geometry::{grids, Mesher, Segment};
        use layerbem_numeric::rng::Xoshiro256StarStar;
        let geoms = |net| -> Vec<ElementGeom> {
            let mesh = Mesher::default().mesh(&net);
            crate::assembly::element_geoms(&mesh)
        };
        let (barbera, balaidos) = (geoms(grids::barbera()), geoms(grids::balaidos()));
        let kappa_soil = |kappa: f64| (0.005, 0.005 * (1.0 - kappa) / (1.0 + kappa), 1.0);
        let cases = [
            ("barbera-2l", (0.005, 0.016, 1.0), &barbera, 40),
            ("balaidos-c", (0.0025, 0.020, 1.0), &balaidos, 40),
            ("balaidos-b", (0.0025, 0.020, 0.7), &balaidos, 40),
            ("κ −0.99", kappa_soil(-0.99), &barbera, 40),
            ("κ −0.9", kappa_soil(-0.9), &barbera, 20),
            ("κ +0.5", kappa_soil(0.5), &barbera, 20),
            ("κ +0.9", kappa_soil(0.9), &barbera, 20),
        ];
        let (base, near) = (GaussLegendre::new(4), GaussLegendre::new(16));
        for (seed, (name, soil, elements, count)) in cases.into_iter().enumerate() {
            let mut rng = Xoshiro256StarStar::seeded(seed as u64);
            let mut pick = || &elements[(rng.next_u64() % elements.len() as u64) as usize];
            let lo = elements
                .iter()
                .fold(Point3::new(f64::MAX, f64::MAX, 0.0), |lo, e| {
                    Point3::new(lo.x.min(e.a.x).min(e.b.x), lo.y.min(e.a.y).min(e.b.y), 0.0)
                });
            // Worst error per batch kind (pairs, tiles): plain, accelerated.
            let mut worst = [[0.0f64; 2]; 2];
            let mut checked = [0usize; 2];
            for k in 0..count {
                // Pairs as `pair_block` batches them: β's 2q surface
                // points, 16-point rule for near pairs; and surface-map
                // tiles, 32 points of a 4 m lattice at z = 0.
                let (beta, alpha) = (pick(), pick());
                let tile = k % 4 == 3;
                let pts: Vec<Point3> = if tile {
                    let x0 = lo.x + 4.0 * ((7 * k) % 20) as f64;
                    let y0 = lo.y + 4.0 * ((3 * k) % 10) as f64;
                    (0..32)
                        .map(|i| {
                            Point3::new(x0 + 4.0 * (i % 8) as f64, y0 + 4.0 * (i / 8) as f64, 0.0)
                        })
                        .collect()
                } else {
                    let (sb, sa) = (Segment::new(beta.a, beta.b), Segment::new(alpha.a, alpha.b));
                    let sep = sb
                        .distance_to_point(alpha.a)
                        .min(sb.distance_to_point(alpha.b))
                        .min(sa.distance_to_point(beta.a))
                        .min(sa.distance_to_point(beta.b));
                    let rule = if sep < 2.0 * beta.length.max(alpha.length) {
                        &near
                    } else {
                        &base
                    };
                    rule.mapped(0.0, beta.length)
                        .flat_map(|(s, _)| {
                            let (xp, xm) = beta.surface_pair(s);
                            [xp, xm]
                        })
                        .collect()
                };
                if let Some((plain, accelerated)) = stop_errors(soil, alpha, &pts) {
                    let kind = usize::from(tile);
                    worst[kind][0] = worst[kind][0].max(plain);
                    worst[kind][1] = worst[kind][1].max(accelerated);
                    checked[kind] += 1;
                }
            }
            assert!(
                checked[0] >= count / 4 && checked[1] >= 1,
                "{name}: {checked:?} batches checked"
            );
            for (kind, [plain, accelerated]) in ["pairs", "tiles"].iter().zip(worst) {
                assert!(
                    accelerated <= plain,
                    "{name} {kind}: accelerated error {accelerated:e} vs plain {plain:e}"
                );
            }
        }
    }

    #[test]
    fn point_potential_reciprocity_two_layer() {
        let k = SoilKernel::new(&SoilModel::two_layer(0.0025, 0.020, 1.0));
        let a = Point3::new(0.0, 0.0, 0.5);
        let b = Point3::new(4.0, 2.0, 1.9);
        assert!(close(
            k.point_potential(a, b),
            k.point_potential(b, a),
            1e-8
        ));
    }
}
