//! N-layer soil kernels by digital-linear-filter inverse Hankel transform.
//!
//! The paper stops at two layers because "the need to evaluate double
//! series (in three-layer models), triple series (in four-layer models),
//! and so on" makes the image expansion impractical. This module goes the
//! other way: it evaluates the layered-earth Green's function directly in
//! the Hankel domain and inverts the transform numerically.
//!
//! ## Formulation
//!
//! For a point source at depth `d` in layer `b` of a stack of `C` layers
//! (interfaces at depths `h₁ < h₂ < … < h_{C−1}`, bottom layer infinite),
//! the potential in the transform domain is, per layer, a combination
//! `A e^{−λz} + B e^{+λz}` fixed by the surface condition, interface
//! continuity of potential and of `γ ∂V/∂z`, and decay at infinity. We
//! assemble that linear system per transform abscissa `λ` (a banded 2C−1…
//! small dense system, solved directly) and then invert
//!
//! ```text
//! V(r, z) = ∫₀^∞ K(λ; z, d) J₀(λ r) dλ
//! ```
//!
//! by panel-wise Gauss–Legendre quadrature, with panels sized to resolve
//! both the exponential decay of the kernel and the `2π/r` oscillation of
//! `J₀(λr)` (the approach digital-linear-filter codes approximate; direct
//! panel integration needs no tabulated filter weights and its error is
//! controlled explicitly).
//!
//! The singular free-space part `1/(4πγ_b R)` (plus its primary surface
//! image) is **split off analytically** and only the secondary kernel is
//! integrated numerically, which keeps the inversion accurate at small `r`
//! away from the interfaces and makes the result usable inside the weakly
//! singular BEM integrals.

use layerbem_numeric::bessel;
use layerbem_numeric::series::KahanSum;
use layerbem_numeric::{DenseMatrix, GaussLegendre};

use crate::model::SoilModel;
use crate::GreensFunction;

const PI4: f64 = 4.0 * std::f64::consts::PI;

/// Green's function of an arbitrary horizontally layered soil.
#[derive(Clone, Debug)]
pub struct MultiLayerKernel {
    /// Conductivities from the surface down.
    gammas: Vec<f64>,
    /// Interface depths `h₁ … h_{C−1}` (bottoms of layers 0..C−1).
    interfaces: Vec<f64>,
}

impl MultiLayerKernel {
    /// Builds the evaluator from any [`SoilModel`].
    pub fn new(model: &SoilModel) -> Self {
        let layers = model.layers();
        let gammas: Vec<f64> = layers.iter().map(|l| l.conductivity).collect();
        let mut interfaces = Vec::new();
        let mut depth = 0.0;
        for l in &layers[..layers.len() - 1] {
            depth += l.thickness;
            interfaces.push(depth);
        }
        MultiLayerKernel { gammas, interfaces }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.gammas.len()
    }

    /// Conductivity of the layer containing depth `z`.
    pub fn gamma_of(&self, z: f64) -> f64 {
        self.gammas[self.layer_of(z)]
    }

    /// Index (0-based, from the surface down) of the layer containing
    /// depth `z`.
    pub fn layer_index_of(&self, z: f64) -> usize {
        self.layer_of(z)
    }

    /// The *secondary* part of the Green's function: everything except
    /// the direct term and the primary surface image, which the BEM
    /// handles analytically. It is not smooth near an interface: it holds
    /// the source's images in every interface, which close in on a source
    /// and a field point near one. Exposed so element integrators can split
    /// the singular part off and integrate only this by quadrature.
    pub fn secondary_potential(&self, r: f64, z: f64, d: f64) -> f64 {
        self.invert_hankel(r, z, d)
    }

    fn layer_of(&self, z: f64) -> usize {
        for (i, &h) in self.interfaces.iter().enumerate() {
            if z <= h {
                return i;
            }
        }
        self.gammas.len() - 1
    }

    /// The transform-domain kernel `K(λ; z, d)` **minus** the singular
    /// part that is added back analytically. The singular part is the
    /// uniform-soil kernel of the source layer:
    /// `K_sing = (e^{−λ|z−d|} + e^{−λ(z+d)}) / (4πγ_b)` — i.e. the direct
    /// term plus the primary surface image.
    fn secondary_kernel(&self, lambda: f64, z: f64, d: f64) -> f64 {
        let c = self.gammas.len();
        let b = self.layer_of(d);
        let zl = self.layer_of(z);
        // Unknowns per layer i: A_i (coefficient of e^{−λz}) and B_i
        // (coefficient of e^{+λz}); bottom layer has no B (decay), so 2C−1
        // unknowns. The source term e^{−λ|z−d|}/(4πγ_b) lives in layer b.
        //
        // Equations:
        //  (1) surface: dV₀/dz = 0 at z = 0.
        //  (2,3) per interface j at depth h: V_j = V_{j+1},
        //        γ_j dV_j/dz = γ_{j+1} dV_{j+1}/dz.
        // Total: 1 + 2(C−1) = 2C−1. Square system.
        let unknowns = 2 * c - 1;
        let idx_a = |i: usize| i; // A_i at column i
        let idx_b = |i: usize| c + i; // B_i at column c+i (i < c−1)
        let mut m = DenseMatrix::zeros(unknowns, unknowns);
        let mut rhs = vec![0.0; unknowns];
        let src = 1.0 / (PI4 * self.gammas[b]);
        // Primary field in layer b: u(z) = src·e^{−λ|z−d|}.
        let u = |z: f64| src * (-lambda * (z - d).abs()).exp();
        let du = |z: f64| {
            let sign = if z >= d { -1.0 } else { 1.0 };
            sign * lambda * src * (-lambda * (z - d).abs()).exp()
        };
        let mut row = 0;
        // Surface condition: −λA₀ + λB₀ + du₀(0) = 0.
        m.set(row, idx_a(0), -lambda);
        if c > 1 {
            m.set(row, idx_b(0), lambda);
        }
        rhs[row] = if b == 0 { -du(0.0) } else { 0.0 };
        row += 1;
        for (j, &h) in self.interfaces.iter().enumerate() {
            let e_m = (-lambda * h).exp();
            // Scale e^{+λh} relative to interface to avoid overflow: use
            // substitution B'_i = B_i e^{λ h_bottom(i)} — instead, we keep
            // it simple and rely on modest λh (filter abscissae scale with
            // 1/r; for extreme λh the exponent is clipped).
            let e_p = (lambda * h).min(700.0).exp();
            // Potential continuity: V_j(h) − V_{j+1}(h) = −(u_j − u_{j+1}).
            m.set(row, idx_a(j), e_m);
            if j < c - 1 {
                m.set(row, idx_b(j), e_p);
            }
            m.set(row, idx_a(j + 1), -e_m);
            if j + 1 < c - 1 {
                m.set(row, idx_b(j + 1), -e_p);
            }
            rhs[row] = match (b == j, b == j + 1) {
                (true, false) => -u(h),
                (false, true) => u(h),
                _ => 0.0,
            };
            row += 1;
            // Flux continuity: γ_j V'_j(h) − γ_{j+1} V'_{j+1}(h) = −(γ_j u'_j − γ_{j+1} u'_{j+1}).
            let gj = self.gammas[j];
            let gj1 = self.gammas[j + 1];
            m.set(row, idx_a(j), -gj * lambda * e_m);
            if j < c - 1 {
                m.set(row, idx_b(j), gj * lambda * e_p);
            }
            m.set(row, idx_a(j + 1), gj1 * lambda * e_m);
            if j + 1 < c - 1 {
                m.set(row, idx_b(j + 1), -gj1 * lambda * e_p);
            }
            rhs[row] = match (b == j, b == j + 1) {
                (true, false) => -gj * du(h),
                (false, true) => gj1 * du(h),
                _ => 0.0,
            };
            row += 1;
        }
        debug_assert_eq!(row, unknowns);
        let coeffs = match layerbem_numeric::lu::lu_solve(&m, &rhs) {
            Ok(c) => c,
            // λ → extreme: secondary field is negligible.
            Err(_) => return 0.0,
        };
        // Secondary potential at z in its layer.
        let i = zl;
        let a_i = coeffs[idx_a(i)];
        let b_i = if i < c - 1 { coeffs[idx_b(i)] } else { 0.0 };
        let mut v = a_i * (-lambda * z).exp() + b_i * (lambda * z).min(700.0).exp();
        // The analytic part added back in `potential()` is (a) the direct
        // term — which in the transform domain is exactly the source term
        // `u(z)`, present only in layer b, so it cancels against the layer
        // decomposition with nothing to do here — and (b) the primary
        // surface image `src·e^{−λ(z+d)}`, a globally valid `e^{−λz}`
        // mode that we subtract so the filtered remainder is smooth and
        // small near the source.
        let _ = zl;
        v -= src * (-lambda * (z + d)).exp();
        v
    }
}

impl MultiLayerKernel {
    /// Inverse Hankel transform of the secondary kernel:
    /// `∫₀^∞ K_sec(λ) J₀(λr) dλ`, by panel-wise Gauss–Legendre
    /// integration. With `s = 2h₁` (twice the shallowest interface depth)
    /// each panel spans the shorter of a half period of `J₀(λr)`, `π/r`,
    /// and one e-fold of `e^{−λ·s}`, `1/s`; the sum stops after three
    /// quiet panels or at `λ·s = 80`.
    ///
    /// `s` is the decay length only for a source and a field point away
    /// from every interface. The field reflected in an interface at depth
    /// `h` decays like `e^{−λ(2h − z − d)}`, so when both lie near `h` the
    /// kernel decays far more slowly than `e^{−λ·s}` and the cap may cut a
    /// tail that has not died out.
    fn invert_hankel(&self, r: f64, z: f64, d: f64) -> f64 {
        // Decay scale of the secondary kernel: every image involves at
        // least one interface round-trip (2 h₁) or the surface offset.
        let h1 = self.interfaces.first().copied().unwrap_or(f64::INFINITY);
        let s = if h1.is_finite() {
            2.0 * h1
        } else {
            z + d + 1.0
        };
        let s = s.max(1e-3);
        // Panel width in λ (1/m): a half period of J₀(λr), or one e-fold
        // of the decay over the length s (m).
        let osc = if r > 1e-12 {
            std::f64::consts::PI / r
        } else {
            f64::INFINITY
        };
        let width = osc.min(1.0 / s);
        let quad = GaussLegendre::new(10);
        let mut acc = KahanSum::new();
        let mut quiet = 0usize;
        let mut a = 0.0;
        // Hard cap: beyond λ·s ≈ 80 the kernel is < e⁻⁸⁰ of its peak.
        let lambda_max = 80.0 / s;
        while a < lambda_max {
            let b = a + width;
            let panel = quad.integrate(a, b, |lambda| {
                self.secondary_kernel(lambda, z, d) * bessel::j0(lambda * r)
            });
            acc.add(panel);
            if panel.abs() <= 1e-11 * acc.value().abs().max(1e-12) {
                quiet += 1;
                if quiet >= 3 {
                    break;
                }
            } else {
                quiet = 0;
            }
            a = b;
        }
        acc.value()
    }
}

impl GreensFunction for MultiLayerKernel {
    fn potential(&self, r: f64, z: f64, d: f64) -> f64 {
        debug_assert!(r >= 0.0 && z >= 0.0 && d >= 0.0);
        let b = self.layer_of(d);
        let gamma_b = self.gammas[b];
        // Analytic singular part: direct + primary surface image, both of
        // the source layer's uniform kernel.
        let direct = if self.layer_of(z) == b {
            1.0 / (r * r + (z - d) * (z - d)).sqrt()
        } else {
            0.0
        };
        let surface_image = 1.0 / (r * r + (z + d) * (z + d)).sqrt();
        let singular = (direct + surface_image) / (PI4 * gamma_b);
        singular + self.invert_hankel(r, z, d)
    }

    fn typical_terms(&self) -> usize {
        // Panel integration: tens of panels × 10 quadrature points, each
        // solving a (2C−1)² transform-domain system.
        40 * 10 * (2 * self.layer_count() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Layer;
    use crate::two_layer::TwoLayerKernels;
    use crate::uniform::UniformKernel;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn reduces_to_uniform_for_single_layer() {
        let ml = MultiLayerKernel::new(&SoilModel::uniform(0.016));
        let un = UniformKernel::new(0.016);
        for &(r, z, d) in &[(2.0, 0.0, 0.8), (10.0, 1.5, 0.8), (0.5, 3.0, 2.0)] {
            let a = ml.potential(r, z, d);
            let b = un.potential(r, z, d);
            assert!(close(a, b, 1e-5), "(r={r},z={z},d={d}): {a} vs {b}");
        }
    }

    #[test]
    fn matches_two_layer_image_series() {
        // The DLF path must agree with the independent image-series path.
        let model = SoilModel::two_layer(0.005, 0.016, 1.0);
        let ml = MultiLayerKernel::new(&model);
        let tl = TwoLayerKernels::new(&model);
        for &(r, z, d) in &[
            (3.0, 0.0, 0.8), // surface observation, source layer 1
            (5.0, 0.5, 0.7), // both layer 1
            (4.0, 2.0, 0.8), // source layer 1, obs layer 2
            (4.0, 0.5, 2.0), // source layer 2, obs layer 1
            (6.0, 3.0, 2.5), // both layer 2
        ] {
            let a = ml.potential(r, z, d);
            let b = tl.potential(r, z, d);
            assert!(close(a, b, 2e-3), "(r={r},z={z},d={d}): {a} vs {b}");
        }
    }

    #[test]
    fn three_layer_sits_between_its_bounding_two_layer_models() {
        // Sandwich: a 3-layer model's surface potential should lie between
        // the two-layer models obtained by assigning the middle layer the
        // top or bottom conductivity.
        let three = MultiLayerKernel::new(&SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.005,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.010,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.016,
                thickness: f64::INFINITY,
            },
        ]));
        let low = TwoLayerKernels::new(&SoilModel::two_layer(0.005, 0.016, 3.0));
        let high = TwoLayerKernels::new(&SoilModel::two_layer(0.005, 0.016, 1.0));
        let (r, z, d) = (5.0, 0.0, 0.8);
        let v3 = three.potential(r, z, d);
        let vl = low.potential(r, z, d); // middle layer as resistive as top
        let vh = high.potential(r, z, d); // middle layer as conductive as bottom
        let (lo, hi) = if vl < vh { (vl, vh) } else { (vh, vl) };
        assert!(
            v3 > lo * 0.999 && v3 < hi * 1.001,
            "v3={v3} not within [{lo}, {hi}]"
        );
    }

    #[test]
    fn three_layer_surface_condition() {
        let ml = MultiLayerKernel::new(&SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.05,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: f64::INFINITY,
            },
        ]));
        let step = 1e-4;
        let v0 = ml.potential(4.0, 0.0, 0.8);
        let v1 = ml.potential(4.0, step, 0.8);
        assert!(((v1 - v0) / step).abs() < 1e-2 * v0.abs());
    }

    #[test]
    fn three_layer_reciprocity() {
        let ml = MultiLayerKernel::new(&SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.05,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: f64::INFINITY,
            },
        ]));
        for &(r, z, d) in &[(3.0, 0.5, 2.0), (5.0, 1.5, 4.0), (2.0, 0.2, 5.0)] {
            let a = ml.potential(r, z, d);
            let b = ml.potential(r, d, z);
            assert!(close(a, b, 5e-3), "(r={r},z={z},d={d}): {a} vs {b}");
        }
    }

    #[test]
    fn decays_with_horizontal_distance() {
        let ml = MultiLayerKernel::new(&SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.005,
                thickness: 0.7,
            },
            Layer {
                conductivity: 0.02,
                thickness: 3.0,
            },
            Layer {
                conductivity: 0.01,
                thickness: f64::INFINITY,
            },
        ]));
        let v: Vec<f64> = [1.0, 2.0, 5.0, 20.0, 80.0]
            .iter()
            .map(|&r| ml.potential(r, 0.0, 0.8))
            .collect();
        for w in v.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn typical_terms_reflects_inversion_cost() {
        let two = MultiLayerKernel::new(&SoilModel::two_layer(0.01, 0.02, 1.0));
        let three = MultiLayerKernel::new(&SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.05,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: f64::INFINITY,
            },
        ]));
        // More layers ⇒ bigger transform-domain system ⇒ higher cost.
        assert!(three.typical_terms() > two.typical_terms());
    }
}
