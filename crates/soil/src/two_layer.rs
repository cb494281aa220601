//! Two-layer soil kernels: the paper's evaluation workhorse.
//!
//! ## Derivation
//!
//! Separating variables with a Hankel transform, the potential of a unit
//! point current at depth `d` in a two-layer soil (upper layer conductivity
//! γ₁ and thickness `H`, lower half-space γ₂) satisfies the insulating
//! surface condition at `z = 0`, potential/flux continuity at `z = H`, and
//! decay at infinity. Expanding the transform denominator
//! `1/(1 − κ e^{−2λH})` as a geometric series in the **reflection ratio**
//! `κ = (γ1−γ2)/(γ1+γ2)` and inverting term-by-term with
//! `∫₀^∞ e^{−λa} J₀(λr) dλ = 1/√(r²+a²)` yields pure image series — the
//! "resultant images" of the paper's §3. With `R(a) = √(r² + a²)`:
//!
//! **Source and field in layer 1** (`d ≤ H`, `z ≤ H`):
//! ```text
//! 4πγ₁·G₁₁ = 1/R(z−d) + 1/R(z+d)
//!          + Σ_{n≥1} κⁿ [ 1/R(2nH−d−z) + 1/R(2nH+d−z)
//!                       + 1/R(2nH−d+z) + 1/R(2nH+d+z) ]
//! ```
//! **Source in layer 1, field in layer 2** (`d ≤ H ≤ z`):
//! ```text
//! 4πγ₁·G₁₂ = (1+κ) Σ_{n≥0} κⁿ [ 1/R(z−d+2nH) + 1/R(z+d+2nH) ]
//! ```
//! **Source in layer 2, field in layer 1** (`z ≤ H ≤ d`):
//! ```text
//! 4πγ₂·G₂₁ = (1−κ) Σ_{n≥0} κⁿ [ 1/R(d+2nH−z) + 1/R(d+2nH+z) ]
//! ```
//! **Source and field in layer 2** (`d ≥ H`, `z ≥ H`):
//! ```text
//! 4πγ₂·G₂₂ = 1/R(z−d) − κ/R(z+d−2H) + (1−κ²) Σ_{n≥0} κⁿ /R(z+d+2nH)
//! ```
//!
//! Sanity anchors (all enforced by tests):
//! * κ → 0 recovers the uniform kernel of the respective layer;
//! * reciprocity `G₁₂(z, d) = G₂₁(d, z)` holds because
//!   `(1+κ)/γ₁ = (1−κ)/γ₂ = 2/(γ₁+γ₂)`;
//! * potential and normal current are continuous across `z = H`;
//! * `∂G/∂z = 0` at the surface;
//! * the classical two-layer surface-resistivity series (Tagg) drops out
//!   of `G₁₁` at `z = d = 0`.
//!
//! Series are summed with compensated accumulation "until a tolerance is
//! fulfilled or an upper limit of summands is achieved" (paper §4.3); the
//! geometric ratio is `|κ|`, so strongly contrasting layers (|κ| → 1) are
//! expensive — the effect behind Tables 6.1 and 6.3.

use layerbem_numeric::series::{sum_until, SeriesOptions};

use crate::model::SoilModel;
use crate::GreensFunction;

const PI4: f64 = 4.0 * std::f64::consts::PI;

/// Evaluator for the four two-layer kernel families.
///
/// ```
/// use layerbem_soil::{GreensFunction, SoilModel, TwoLayerKernels};
/// // The Barberá model: resistive top metre over conductive ground.
/// let k = TwoLayerKernels::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
/// assert!((k.kappa() - (0.005 - 0.016) / (0.005 + 0.016)).abs() < 1e-15);
/// // Potential at the surface, 5 m from a source buried at 0.8 m.
/// let v = k.potential(5.0, 0.0, 0.8);
/// assert!(v > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct TwoLayerKernels {
    gamma1: f64,
    gamma2: f64,
    h: f64,
    kappa: f64,
    opts: SeriesOptions,
}

impl TwoLayerKernels {
    /// Builds the evaluator from a [`SoilModel::TwoLayer`].
    ///
    /// # Panics
    /// Panics if the model is not two-layer.
    pub fn new(model: &SoilModel) -> Self {
        Self::with_options(model, crate::default_series_options())
    }

    /// Builds with explicit series controls.
    ///
    /// # Panics
    /// Panics if the model is not two-layer.
    pub fn with_options(model: &SoilModel, opts: SeriesOptions) -> Self {
        match model {
            SoilModel::TwoLayer {
                upper,
                lower,
                thickness,
            } => TwoLayerKernels {
                gamma1: *upper,
                gamma2: *lower,
                h: *thickness,
                kappa: model.reflection_ratio(),
                opts,
            },
            _ => panic!("TwoLayerKernels requires a two-layer soil model"),
        }
    }

    /// Reflection ratio κ.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Upper-layer thickness H.
    pub fn thickness(&self) -> f64 {
        self.h
    }

    /// Potential and the number of series terms consumed — the per-pair
    /// cost driver the schedule study measures.
    pub fn potential_counted(&self, r: f64, z: f64, d: f64) -> (f64, usize) {
        debug_assert!(r >= 0.0 && z >= 0.0 && d >= 0.0, "coordinates must be >= 0");
        let src_upper = d <= self.h;
        let obs_upper = z <= self.h;
        match (src_upper, obs_upper) {
            (true, true) => self.g11(r, z, d),
            (true, false) => self.g12(r, z, d),
            (false, true) => self.g21(r, z, d),
            (false, false) => self.g22(r, z, d),
        }
    }

    fn g11(&self, r: f64, z: f64, d: f64) -> (f64, usize) {
        let inv = |a: f64| 1.0 / (r * r + a * a).sqrt();
        let direct = inv(z - d) + inv(z + d);
        if self.kappa == 0.0 {
            return (direct / (PI4 * self.gamma1), 2);
        }
        let (k, h) = (self.kappa, self.h);
        let series = sum_until(
            |i| {
                let n = (i + 1) as f64; // n ≥ 1
                let two_nh = 2.0 * n * h;
                k.powi((i + 1) as i32)
                    * (inv(two_nh - d - z)
                        + inv(two_nh + d - z)
                        + inv(two_nh - d + z)
                        + inv(two_nh + d + z))
            },
            self.opts,
        );
        (
            (direct + series.value) / (PI4 * self.gamma1),
            series.terms + 2,
        )
    }

    fn g12(&self, r: f64, z: f64, d: f64) -> (f64, usize) {
        let inv = |a: f64| 1.0 / (r * r + a * a).sqrt();
        let (k, h) = (self.kappa, self.h);
        let series = sum_until(
            |i| {
                let two_nh = 2.0 * (i as f64) * h;
                k.powi(i as i32) * (inv(z - d + two_nh) + inv(z + d + two_nh))
            },
            self.opts,
        );
        ((1.0 + k) * series.value / (PI4 * self.gamma1), series.terms)
    }

    fn g21(&self, r: f64, z: f64, d: f64) -> (f64, usize) {
        let inv = |a: f64| 1.0 / (r * r + a * a).sqrt();
        let (k, h) = (self.kappa, self.h);
        let series = sum_until(
            |i| {
                let two_nh = 2.0 * (i as f64) * h;
                k.powi(i as i32) * (inv(d + two_nh - z) + inv(d + two_nh + z))
            },
            self.opts,
        );
        ((1.0 - k) * series.value / (PI4 * self.gamma2), series.terms)
    }

    fn g22(&self, r: f64, z: f64, d: f64) -> (f64, usize) {
        let inv = |a: f64| 1.0 / (r * r + a * a).sqrt();
        let (k, h) = (self.kappa, self.h);
        let closed = inv(z - d) - k * inv(z + d - 2.0 * h);
        if k == 0.0 {
            // (1−κ²)Σ collapses to the single n = 0 surface image.
            return ((closed + inv(z + d)) / (PI4 * self.gamma2), 3);
        }
        let series = sum_until(
            |i| {
                let two_nh = 2.0 * (i as f64) * h;
                k.powi(i as i32) * inv(z + d + two_nh)
            },
            self.opts,
        );
        (
            (closed + (1.0 - k * k) * series.value) / (PI4 * self.gamma2),
            series.terms + 2,
        )
    }
}

impl GreensFunction for TwoLayerKernels {
    fn potential(&self, r: f64, z: f64, d: f64) -> f64 {
        self.potential_counted(r, z, d).0
    }

    fn typical_terms(&self) -> usize {
        // Terms until κⁿ < rel_tol: n ≈ ln(tol)/ln|κ| (≥ the 2 uniform
        // terms).
        if self.kappa == 0.0 {
            2
        } else {
            (self.opts.rel_tol.ln() / self.kappa.abs().ln())
                .ceil()
                .max(2.0) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformKernel;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    fn barbera_soil() -> TwoLayerKernels {
        // γ1 = 0.005, γ2 = 0.016, H = 1 m (paper §5.1).
        TwoLayerKernels::new(&SoilModel::two_layer(0.005, 0.016, 1.0))
    }

    fn strong_contrast() -> TwoLayerKernels {
        // Balaidos B/C contrast: κ ≈ −0.78.
        TwoLayerKernels::new(&SoilModel::two_layer(0.0025, 0.020, 1.0))
    }

    #[test]
    fn kappa_matches_paper_formula() {
        let k = barbera_soil();
        assert!(close(k.kappa(), (0.005 - 0.016) / (0.005 + 0.016), 1e-15));
    }

    #[test]
    fn zero_contrast_reduces_to_uniform_everywhere() {
        let tl = TwoLayerKernels::new(&SoilModel::two_layer(0.016, 0.016, 1.0));
        let un = UniformKernel::new(0.016);
        // Points exercising all four kernel branches.
        for &(r, z, d) in &[
            (3.0, 0.5, 0.8),  // g11
            (3.0, 2.5, 0.8),  // g12
            (3.0, 0.5, 2.2),  // g21
            (3.0, 2.5, 2.2),  // g22
            (0.01, 0.0, 0.8), // near-axis surface
        ] {
            assert!(
                close(tl.potential(r, z, d), un.potential(r, z, d), 1e-9),
                "(r={r}, z={z}, d={d})"
            );
        }
    }

    #[test]
    fn continuity_across_interface() {
        // Potential must be continuous at z = H for sources in either
        // layer.
        let k = strong_contrast();
        let h = k.thickness();
        let eps = 1e-9;
        for &d in &[0.4, 0.95, 1.3, 2.0] {
            let above = k.potential(5.0, h - eps, d);
            let below = k.potential(5.0, h + eps, d);
            assert!(close(above, below, 1e-5), "d={d}: {above} vs {below}");
        }
    }

    #[test]
    fn flux_continuity_across_interface() {
        // γ·∂V/∂z continuous at z = H (current conservation).
        let k = strong_contrast();
        let h = k.thickness();
        let step = 1e-5;
        for &d in &[0.5, 1.8] {
            let dv_up = (k.potential(4.0, h - step, d) - k.potential(4.0, h - 3.0 * step, d))
                / (2.0 * step);
            let dv_dn = (k.potential(4.0, h + 3.0 * step, d) - k.potential(4.0, h + step, d))
                / (2.0 * step);
            let flux_up = 0.0025 * dv_up;
            let flux_dn = 0.020 * dv_dn;
            assert!(
                close(flux_up, flux_dn, 1e-2),
                "d={d}: {flux_up} vs {flux_dn}"
            );
        }
    }

    #[test]
    fn insulating_surface_condition() {
        let k = strong_contrast();
        let step = 1e-6;
        for &d in &[0.5, 1.5] {
            let dvdz = (k.potential(4.0, 2.0 * step, d) - k.potential(4.0, 0.0, d)) / (2.0 * step);
            let v = k.potential(4.0, 0.0, d);
            assert!(dvdz.abs() < 1e-4 * v.abs(), "d={d}: {dvdz}");
        }
    }

    #[test]
    fn reciprocity_between_mixed_kernels() {
        // G(x, ξ) = G(ξ, x): source in layer 1 observed in layer 2 must
        // equal source in layer 2 observed in layer 1.
        let k = strong_contrast();
        for &(r, z, d) in &[(2.0, 2.4, 0.8), (7.0, 1.6, 0.3), (0.5, 3.0, 0.99)] {
            let g12 = k.potential(r, z, d); // d in layer1, z in layer2
            let g21 = k.potential(r, d, z); // swapped
            assert!(close(g12, g21, 1e-8), "(r={r}, z={z}, d={d})");
        }
    }

    #[test]
    fn same_layer_kernels_are_symmetric_in_z_and_d() {
        let k = strong_contrast();
        assert!(close(
            k.potential(3.0, 0.3, 0.9),
            k.potential(3.0, 0.9, 0.3),
            1e-9
        ));
        assert!(close(
            k.potential(3.0, 1.4, 2.6),
            k.potential(3.0, 2.6, 1.4),
            1e-9
        ));
    }

    #[test]
    fn matches_classical_surface_resistivity_series() {
        // Tagg's classical result for a surface source observed at the
        // surface: V(r) = (1/2πγ₁)[1/r + 2 Σ κⁿ/√(r²+(2nH)²)].
        let k = barbera_soil();
        let (r, h) = (3.7, 1.0);
        let mut expected = 1.0 / r;
        for n in 1..200 {
            expected += 2.0 * k.kappa().powi(n) / (r * r + (2.0 * n as f64 * h).powi(2)).sqrt();
        }
        expected /= 2.0 * std::f64::consts::PI * 0.005;
        // Source slightly below the surface to stay in the valid domain.
        let got = k.potential(r, 0.0, 1e-12);
        assert!(close(got, expected, 1e-7), "{got} vs {expected}");
    }

    #[test]
    fn resistive_upper_layer_raises_potential_in_layer_one() {
        // With a poorly conducting upper layer (κ < 0), a source in the
        // upper layer produces a *higher* potential nearby than in uniform
        // soil of the lower layer's conductivity — current is trapped.
        let two = strong_contrast();
        let uni = UniformKernel::new(0.020);
        let v2 = two.potential(2.0, 0.0, 0.8);
        let v1 = uni.potential(2.0, 0.0, 0.8);
        assert!(v2 > v1, "{v2} vs {v1}");
    }

    #[test]
    fn term_count_grows_with_contrast() {
        let mild = TwoLayerKernels::new(&SoilModel::two_layer(0.016, 0.020, 1.0));
        let strong = strong_contrast();
        let (_, t_mild) = mild.potential_counted(5.0, 0.5, 0.8);
        let (_, t_strong) = strong.potential_counted(5.0, 0.5, 0.8);
        assert!(t_strong > 2 * t_mild, "strong {t_strong} vs mild {t_mild}");
        assert!(strong.typical_terms() > mild.typical_terms());
    }

    #[test]
    fn g11_series_costs_more_than_g22_per_evaluation() {
        // g11 sums four image families per term, g22 one: the reason
        // Balaidos model C (electrodes straddling the interface, mixing
        // kernel families including g11) is costlier than model B (all in
        // layer 2) in Table 6.3.
        let k = strong_contrast();
        let (_, t11) = k.potential_counted(5.0, 0.5, 0.8);
        let (_, t22) = k.potential_counted(5.0, 1.5, 1.8);
        // Term *counts* are comparable (same κ); the per-term work is 4×.
        // Sanity: both series actually ran.
        assert!(t11 > 10 && t22 > 10);
    }

    #[test]
    #[should_panic(expected = "requires a two-layer")]
    fn rejects_uniform_model() {
        TwoLayerKernels::new(&SoilModel::uniform(0.016));
    }
}
