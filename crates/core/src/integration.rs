//! Analytic thin-wire segment integrals.
//!
//! The inner integral of every BEM coefficient has the form
//! `∫₀^L N(s) / |x − ξ(s)| ds` along a straight (image) segment
//! `ξ(s) = A + s·t̂`. With `a = |x − A|`, `b = |x − B|` and
//! `p = (x − A)·t̂` (the projection of the field point onto the segment
//! axis), the two primitives are closed-form:
//!
//! ```text
//! I₀ = ∫₀^L ds / R(s) = ln[(a + b + L) / (a + b − L)]
//! I₁ = ∫₀^L s  / R(s) ds = (b − a) + p·I₀
//! ```
//!
//! (from `dR/ds = (s − p)/R`). Linear shape functions follow as
//! `∫ N₀/R = I₀ − I₁/L`, `∫ N₁/R = I₁/L`. These are the "highly efficient
//! analytical integration techniques derived by the authors" the paper
//! leans on (§4.2, refs [4, 5]); the identity `I₀` is the classical
//! potential of a uniformly charged rod.
//!
//! The formulas are exact for any field point **off the segment axis**;
//! on-surface evaluation (self and adjacent interactions) keeps
//! `R ≥ radius > 0`, which is precisely the thin-wire regularization.

use layerbem_geometry::Point3;
use layerbem_numeric::{ln4, LANES};

/// Geometry of one boundary element (a straight axis piece plus the
/// conductor radius), precomputed for integration.
#[derive(Clone, Copy, Debug)]
pub struct ElementGeom {
    /// First endpoint of the axis.
    pub a: Point3,
    /// Second endpoint of the axis.
    pub b: Point3,
    /// Conductor radius (thin-wire offset).
    pub radius: f64,
    /// Axis length (cached).
    pub length: f64,
    /// Unit tangent (cached).
    pub tangent: Point3,
}

impl ElementGeom {
    /// Builds from endpoints and radius.
    ///
    /// # Panics
    /// Panics on a degenerate axis or non-positive radius.
    pub fn new(a: Point3, b: Point3, radius: f64) -> Self {
        let length = a.distance(b);
        assert!(length > 0.0, "degenerate element");
        assert!(radius > 0.0, "radius must be positive");
        ElementGeom {
            a,
            b,
            radius,
            length,
            tangent: (b - a) / length,
        }
    }

    /// A unit vector perpendicular to the axis (used to lift quadrature
    /// points onto the conductor surface).
    pub fn normal(&self) -> Point3 {
        let t = self.tangent;
        // Pick the seed axis least aligned with the tangent.
        let seed = if t.x.abs() <= t.y.abs().min(t.z.abs()) {
            Point3::new(1.0, 0.0, 0.0)
        } else if t.y.abs() <= t.z.abs() {
            Point3::new(0.0, 1.0, 0.0)
        } else {
            Point3::new(0.0, 0.0, 1.0)
        };
        let n = seed - t * seed.dot(t);
        n.normalized()
    }

    /// Point on the axis at arclength `s ∈ [0, L]`.
    pub fn at(&self, s: f64) -> Point3 {
        self.a + self.tangent * s
    }

    /// The preferred surface-offset direction: perpendicular to the axis
    /// and horizontal where possible, so lifted points keep the axis
    /// depth (a vertical offset would change the evaluation depth in the
    /// layered kernels).
    pub fn surface_normal(&self) -> Point3 {
        let mut n = self.normal();
        if n.z.abs() > 1e-9 {
            let horiz = Point3::new(n.x, n.y, 0.0);
            if horiz.norm() > 1e-9 {
                n = horiz.normalized();
            }
        }
        n
    }

    /// Point on the conductor *surface* at arclength `s`: the axis point
    /// lifted by one radius along [`Self::surface_normal`]. Under the
    /// circumferential-uniformity hypothesis the azimuth is immaterial
    /// for slender conductors.
    pub fn surface_at(&self, s: f64) -> Point3 {
        self.at(s) + self.surface_normal() * self.radius
    }

    /// The two antipodal surface points at arclength `s`
    /// (`axis ± radius·n`). Field evaluations average over the pair: this
    /// is a second-order circumferential average that, unlike a one-sided
    /// offset, preserves the mirror symmetries of the grid (a one-sided
    /// offset displaces, e.g., the `y = 0` and `y = L` bars of a square
    /// grid in the *same* direction, biasing their coefficients by
    /// `O(radius/spacing)`).
    pub fn surface_pair(&self, s: f64) -> (Point3, Point3) {
        let n = self.surface_normal() * self.radius;
        let p = self.at(s);
        (p + n, p - n)
    }
}

/// The closed-form primitives `(I₀, I₁)` for a field point `x` and an
/// image segment `[a, b]` of length `len`.
///
/// Degenerate geometry (field point on the open segment) is regularized
/// by clamping the denominator, which never fires for physical calls
/// because surface points keep `R ≥ radius`.
#[inline]
pub fn rod_integrals(x: Point3, a: Point3, b: Point3, len: f64) -> (f64, f64) {
    let ra = x.distance(a);
    let rb = x.distance(b);
    let sum = ra + rb;
    // I0 = ln((sum + len)/(sum − len)); the argument is ≥ 1 by the
    // triangle inequality, with equality only on the segment itself.
    let denom = (sum - len).max(1e-300);
    let i0 = ((sum + len) / denom).ln();
    let t = (b - a) / len;
    let p = (x - a).dot(t);
    let i1 = (rb - ra) + p * i0;
    (i0, i1)
}

/// Batched [`rod_integrals`]: the primitives `(I₀, I₁)` of **many** field
/// points against **one** image segment `a → b` with unit tangent
/// `t = (b − a)/len`, evaluated in fixed [`layerbem_numeric::LANES`]-wide
/// chunks.
///
/// The field points arrive in structure-of-arrays form (`xs`/`ys`/`zs`)
/// and the primitives land in `i0`/`i1` (all five slices the same
/// length). The distance and projection arithmetic is straight-line
/// fixed-width array code the autovectorizer packs; the logarithm — the
/// one libm call LLVM will not vectorize — goes through the lane kernel
/// [`layerbem_numeric::ln4`]. A partial final chunk is padded by
/// replicating its first point, and every lane of `ln4` depends only on
/// its own input, so each point's result is a pure function of that point
/// — the values are independent of the batch it rides in (the property
/// the schedule/partition determinism of the batched assembler rests on).
///
/// The results agree with the scalar [`rod_integrals`] to a few ulp (the
/// lane `ln` differs from libm's in the last bits) but are **not** bitwise
/// equal to it; callers pick one path and stay on it.
///
/// The tangent is the caller's: the image-series driver evaluates one
/// element against a whole family of image segments that differ only in a
/// sign flip and offset of `z`, so the tangent's `x`/`y` components are
/// shared by every image and `t_z` only flips sign (negation is exact, so
/// `sign · t_z` is bit-identical to re-deriving the division).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn rod_integrals_batch_dir(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    a: Point3,
    b: Point3,
    len: f64,
    t: [f64; 3],
    i0: &mut [f64],
    i1: &mut [f64],
) {
    let n = xs.len();
    debug_assert_eq!(ys.len(), n);
    debug_assert_eq!(zs.len(), n);
    debug_assert_eq!(i0.len(), n);
    debug_assert_eq!(i1.len(), n);
    // Full chunks first: each chunk is reborrowed as a `[f64; LANES]`
    // array so the lane loop carries no bounds checks and the vectorizer
    // packs contiguous unconditional loads (no padding select).
    let mut base = 0usize;
    while base + LANES <= n {
        let px: &[f64; LANES] = xs[base..base + LANES].try_into().unwrap();
        let py: &[f64; LANES] = ys[base..base + LANES].try_into().unwrap();
        let pz: &[f64; LANES] = zs[base..base + LANES].try_into().unwrap();
        let (r0, r1) = rod_chunk(px, py, pz, a, b, len, t);
        let o0: &mut [f64; LANES] = (&mut i0[base..base + LANES]).try_into().unwrap();
        let o1: &mut [f64; LANES] = (&mut i1[base..base + LANES]).try_into().unwrap();
        *o0 = r0;
        *o1 = r1;
        base += LANES;
    }
    if base < n {
        let m = n - base;
        let (px, py, pz) = pad_chunk(xs, ys, zs, base, m);
        let (r0, r1) = rod_chunk(&px, &py, &pz, a, b, len, t);
        i0[base..base + m].copy_from_slice(&r0[..m]);
        i1[base..base + m].copy_from_slice(&r1[..m]);
    }
}

/// Pads a partial chunk starting at `base` with `m < LANES` live points by
/// replicating its first point: valid geometry in every lane, and lanes
/// never mix, so the padding cannot perturb the live results.
#[inline(always)]
pub fn pad_chunk(
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    base: usize,
    m: usize,
) -> ([f64; LANES], [f64; LANES], [f64; LANES]) {
    let mut px = [0.0f64; LANES];
    let mut py = [0.0f64; LANES];
    let mut pz = [0.0f64; LANES];
    for l in 0..LANES {
        let i = base + if l < m { l } else { 0 };
        px[l] = xs[i];
        py[l] = ys[i];
        pz[l] = zs[i];
    }
    (px, py, pz)
}

/// One 4-wide chunk of the batched rod primitives: `I₀` and `I₁` of
/// [`rod_integrals`] for four field points against the segment `a → b`
/// with precomputed unit tangent `t`. The building block both
/// [`rod_integrals_batch_dir`] and the fused image-series accumulation in
/// `kernel` share; `inline(always)` so the chunk folds into the callers'
/// term loops as straight-line packed code.
#[inline(always)]
pub fn rod_chunk(
    px: &[f64; LANES],
    py: &[f64; LANES],
    pz: &[f64; LANES],
    a: Point3,
    b: Point3,
    len: f64,
    t: [f64; 3],
) -> ([f64; LANES], [f64; LANES]) {
    let [tx, ty, tz] = t;
    let mut arg = [0.0f64; LANES];
    let mut dr = [0.0f64; LANES];
    let mut proj = [0.0f64; LANES];
    for l in 0..LANES {
        let dxa = px[l] - a.x;
        let dya = py[l] - a.y;
        let dza = pz[l] - a.z;
        let dxb = px[l] - b.x;
        let dyb = py[l] - b.y;
        let dzb = pz[l] - b.z;
        let ra = (dxa * dxa + dya * dya + dza * dza).sqrt();
        let rb = (dxb * dxb + dyb * dyb + dzb * dzb).sqrt();
        let sum = ra + rb;
        let denom = (sum - len).max(1e-300);
        arg[l] = (sum + len) / denom;
        dr[l] = rb - ra;
        proj[l] = dxa * tx + dya * ty + dza * tz;
    }
    let lnv = ln4(arg);
    let mut i1 = [0.0f64; LANES];
    for l in 0..LANES {
        i1[l] = dr[l] + proj[l] * lnv[l];
    }
    (lnv, i1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_numeric::GaussLegendre;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    /// `[∫N₀/R, ∫N₁/R]` over the segment `a → b`, from the primitives.
    fn shapes(x: Point3, a: Point3, b: Point3, len: f64) -> [f64; 2] {
        let (i0, i1) = rod_integrals(x, a, b, len);
        let n1 = i1 / len;
        [i0 - n1, n1]
    }

    /// The batched primitives of `xs`/`ys`/`zs` against `a → b`.
    fn batch(xs: &[f64], ys: &[f64], zs: &[f64], a: Point3, b: Point3) -> (Vec<f64>, Vec<f64>) {
        let len = a.distance(b);
        let t = [(b.x - a.x) / len, (b.y - a.y) / len, (b.z - a.z) / len];
        let mut i0 = vec![0.0; xs.len()];
        let mut i1 = vec![0.0; xs.len()];
        rod_integrals_batch_dir(xs, ys, zs, a, b, len, t, &mut i0, &mut i1);
        (i0, i1)
    }

    fn quad_reference(x: Point3, a: Point3, b: Point3, which: usize) -> f64 {
        // Composite numerical reference for ∫ N_i/R: many panels so the
        // near-axis peak (width ≈ distance to the axis) is resolved.
        let len = a.distance(b);
        let q = GaussLegendre::new(8);
        let panels = 2000;
        let mut acc = 0.0;
        for k in 0..panels {
            let s0 = len * k as f64 / panels as f64;
            let s1 = len * (k + 1) as f64 / panels as f64;
            acc += q.integrate(s0, s1, |s| {
                let xi = a + (b - a) * (s / len);
                let n = if which == 0 { 1.0 - s / len } else { s / len };
                n / x.distance(xi)
            });
        }
        acc
    }

    #[test]
    fn i0_matches_quadrature_for_generic_points() {
        let a = Point3::new(0.0, 0.0, 1.0);
        let b = Point3::new(4.0, 0.0, 1.0);
        for x in [
            Point3::new(2.0, 3.0, 1.0),
            Point3::new(-1.0, 0.5, 0.2),
            Point3::new(5.0, -2.0, 4.0),
            Point3::new(2.0, 0.01, 1.0), // near the axis
        ] {
            let (i0, _) = rod_integrals(x, a, b, 4.0);
            let r0 = quad_reference(x, a, b, 0) + quad_reference(x, a, b, 1);
            assert!(close(i0, r0, 1e-9), "x={x:?}: {i0} vs {r0}");
        }
    }

    #[test]
    fn shape_integrals_match_quadrature() {
        let a = Point3::new(1.0, -2.0, 0.5);
        let b = Point3::new(3.0, 1.0, 2.5);
        let len = a.distance(b);
        for x in [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, -0.5, 1.5 + 0.01),
            Point3::new(10.0, 10.0, 3.0),
        ] {
            let got = shapes(x, a, b, len);
            for (i, g) in got.iter().enumerate() {
                let want = quad_reference(x, a, b, i);
                assert!(close(*g, want, 1e-8), "x={x:?} N{i}: {g} vs {want}");
            }
        }
    }

    #[test]
    fn shape_integrals_sum_to_i0() {
        let a = Point3::new(0.0, 0.0, 1.0);
        let b = Point3::new(0.0, 5.0, 1.0);
        let x = Point3::new(1.0, 2.0, 0.3);
        let (i0, _) = rod_integrals(x, a, b, 5.0);
        let s = shapes(x, a, b, 5.0);
        assert!(close(s[0] + s[1], i0, 1e-13));
    }

    #[test]
    fn symmetry_swapping_endpoints_swaps_shapes() {
        let a = Point3::new(0.0, 0.0, 1.0);
        let b = Point3::new(6.0, 0.0, 1.0);
        let x = Point3::new(1.5, 2.0, 0.0);
        let fwd = shapes(x, a, b, 6.0);
        let bwd = shapes(x, b, a, 6.0);
        assert!(close(fwd[0], bwd[1], 1e-12));
        assert!(close(fwd[1], bwd[0], 1e-12));
    }

    #[test]
    fn self_integral_on_surface_matches_classic_rod_potential() {
        // Field point on the conductor surface at midlength: the classic
        // result I0 = ln((2a+L)/(2a−L)) with a = √((L/2)² + r²).
        let len = 10.0f64;
        let r = 0.00642;
        let a = Point3::new(0.0, 0.0, 0.8);
        let b = Point3::new(len, 0.0, 0.8);
        let x = Point3::new(len / 2.0, r, 0.8);
        let (i0, _) = rod_integrals(x, a, b, len);
        let h = ((len / 2.0).powi(2) + r * r).sqrt();
        let expect = ((2.0 * h + len) / (2.0 * h - len)).ln();
        assert!(close(i0, expect, 1e-12));
    }

    #[test]
    fn element_geom_normal_is_unit_and_orthogonal() {
        for (a, b) in [
            (Point3::new(0.0, 0.0, 1.0), Point3::new(3.0, 0.0, 1.0)),
            (Point3::new(0.0, 0.0, 0.8), Point3::new(0.0, 0.0, 2.3)), // rod
            (Point3::new(1.0, 2.0, 0.5), Point3::new(2.0, 4.0, 1.5)),
        ] {
            let g = ElementGeom::new(a, b, 0.007);
            let n = g.normal();
            assert!(close(n.norm(), 1.0, 1e-12));
            assert!(n.dot(g.tangent).abs() < 1e-12);
        }
    }

    #[test]
    fn surface_points_stay_at_axis_depth_for_horizontal_bars() {
        let g = ElementGeom::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(5.0, 0.0, 0.8),
            0.006,
        );
        for s in [0.0, 1.2, 2.5, 5.0] {
            let p = g.surface_at(s);
            assert!(close(p.z, 0.8, 1e-12));
            // One radius off the axis.
            assert!(close(g.at(s).distance(p), 0.006, 1e-12));
        }
    }

    #[test]
    fn surface_points_of_rods_offset_horizontally() {
        let g = ElementGeom::new(
            Point3::new(1.0, 1.0, 0.8),
            Point3::new(1.0, 1.0, 2.3),
            0.007,
        );
        let p = g.surface_at(0.75);
        // Depth preserved, horizontal shift of one radius.
        assert!(close(p.z, 0.8 + 0.75, 1e-12));
        let dx = ((p.x - 1.0).powi(2) + (p.y - 1.0).powi(2)).sqrt();
        assert!(close(dx, 0.007, 1e-12));
    }

    #[test]
    fn batched_rod_integrals_match_scalar_to_roundoff() {
        let a = Point3::new(0.0, 0.0, 1.2);
        let b = Point3::new(4.0, 1.0, 1.2);
        let len = a.distance(b);
        // 7 points: one full lane chunk plus a padded remainder.
        let pts = [
            Point3::new(2.0, 3.0, 1.0),
            Point3::new(-1.0, 0.5, 0.2),
            Point3::new(5.0, -2.0, 4.0),
            Point3::new(2.0, 0.01, 1.2),
            Point3::new(0.3, 0.3, 0.3),
            Point3::new(9.0, 9.0, 0.1),
            Point3::new(1.0, -4.0, 2.0),
        ];
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = pts.iter().map(|p| p.z).collect();
        let (i0, i1) = batch(&xs, &ys, &zs, a, b);
        for (k, &x) in pts.iter().enumerate() {
            let (s0, s1) = rod_integrals(x, a, b, len);
            assert!(close(i0[k], s0, 1e-14), "I0 point {k}: {} vs {s0}", i0[k]);
            assert!(close(i1[k], s1, 1e-13), "I1 point {k}: {} vs {s1}", i1[k]);
        }
    }

    #[test]
    fn batched_rod_integrals_are_batch_size_invariant() {
        // Each point's primitives must be a pure function of that point:
        // evaluating it alone (remainder lane, padded) must be bitwise
        // equal to evaluating it inside a longer batch.
        let a = Point3::new(1.0, -2.0, 0.5);
        let b = Point3::new(3.0, 1.0, 2.5);
        let pts = [
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(2.0, -0.5, 1.51),
            Point3::new(10.0, 10.0, 3.0),
            Point3::new(-3.0, 4.0, 1.0),
            Point3::new(2.5, 2.5, 2.5),
            Point3::new(0.1, 0.1, 3.0),
        ];
        let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let zs: Vec<f64> = pts.iter().map(|p| p.z).collect();
        let (i0, i1) = batch(&xs, &ys, &zs, a, b);
        for k in 0..pts.len() {
            let (s0, s1) = batch(&xs[k..k + 1], &ys[k..k + 1], &zs[k..k + 1], a, b);
            assert_eq!(i0[k].to_bits(), s0[0].to_bits(), "I0 point {k}");
            assert_eq!(i1[k].to_bits(), s1[0].to_bits(), "I1 point {k}");
        }
    }

    #[test]
    fn i1_primitive_identity() {
        // d/ds R = (s−p)/R integrates to I1 = (rb − ra) + p·I0.
        let a = Point3::new(0.0, 0.0, 2.0);
        let b = Point3::new(7.0, 0.0, 2.0);
        let x = Point3::new(3.0, 1.0, 0.5);
        let (_, i1) = rod_integrals(x, a, b, 7.0);
        let q = GaussLegendre::new(48);
        let want = q.integrate(0.0, 7.0, |s| {
            let xi = Point3::new(s, 0.0, 2.0);
            s / x.distance(xi)
        });
        assert!(close(i1, want, 1e-9));
    }
}
