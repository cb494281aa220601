//! Vertical electrical sounding: how the soil-model parameters are
//! "experimentally obtained" (paper §2).
//!
//! The layer conductivities and thicknesses the BEM consumes are not
//! given by nature — they come from *resistivity soundings*: four-point
//! Wenner measurements at increasing electrode spacings, inverted
//! against a layered-earth model. This module closes that loop:
//!
//! * [`wenner_apparent_resistivity`] — the forward model: apparent
//!   resistivity `ρa(a)` for any [`GreensFunction`], via the standard
//!   identity `ρa = 4πa·[G(a) − G(2a)]` for surface electrodes.
//! * [`two_layer_apparent_resistivity`] — the classical closed-form
//!   two-layer curve (Tagg), used as a fast forward model during
//!   inversion and as an independent cross-check of the kernel.
//! * [`invert_two_layer`] — fits `(ρ1, ρ2, H)` to measured `(a, ρa)`
//!   pairs by multi-start compass search in log-parameter space, and
//!   exposes the Gauss–Newton covariance of the fitted log-parameters so
//!   uncertainty sweeps can draw correlated soil-model samples
//!   ([`TwoLayerFit::sample`]) instead of treating the inversion as
//!   exact.

use layerbem_numeric::series::{sum_until, SeriesOptions};
use layerbem_numeric::Xoshiro256StarStar;

use crate::GreensFunction;

/// One Wenner measurement: electrode spacing `a` (m) and the measured
/// apparent resistivity (Ω·m).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoundingPoint {
    /// Wenner electrode spacing (m).
    pub spacing: f64,
    /// Apparent resistivity (Ω·m).
    pub rho_a: f64,
}

/// Apparent resistivity of a Wenner array of spacing `a` over any soil
/// whose Green's function is available. Electrodes are modelled at a
/// small burial `eps` (numerically robust surface limit).
pub fn wenner_apparent_resistivity<G: GreensFunction + ?Sized>(g: &G, a: f64) -> f64 {
    assert!(a > 0.0, "spacing must be positive");
    let eps = 1e-9 * a.max(1.0);
    let v1 = g.potential(a, 0.0, eps);
    let v2 = g.potential(2.0 * a, 0.0, eps);
    4.0 * std::f64::consts::PI * a * (v1 - v2)
}

/// Classical two-layer Wenner curve:
/// `ρa(a) = ρ1·[1 + 4 Σ_{n≥1} κⁿ (1/√(1+(2nH/a)²) − 1/√(4+(2nH/a)²))]`.
pub fn two_layer_apparent_resistivity(rho1: f64, rho2: f64, h: f64, a: f64) -> f64 {
    assert!(rho1 > 0.0 && rho2 > 0.0 && h > 0.0 && a > 0.0);
    // κ in resistivity form equals the conductivity form with the same
    // sign convention used across the workspace: (γ1−γ2)/(γ1+γ2)
    // = (ρ2−ρ1)/(ρ2+ρ1).
    let kappa = (rho2 - rho1) / (rho2 + rho1);
    let series = sum_until(
        |i| {
            let n = (i + 1) as f64;
            let t = 2.0 * n * h / a;
            kappa.powi((i + 1) as i32) * (1.0 / (1.0 + t * t).sqrt() - 1.0 / (4.0 + t * t).sqrt())
        },
        SeriesOptions {
            rel_tol: 1e-12,
            max_terms: 100_000,
            ..Default::default()
        },
    );
    rho1 * (1.0 + 4.0 * series.value)
}

/// A fitted two-layer model with its misfit.
#[derive(Clone, Copy, Debug)]
pub struct TwoLayerFit {
    /// Upper-layer resistivity (Ω·m).
    pub rho1: f64,
    /// Lower half-space resistivity (Ω·m).
    pub rho2: f64,
    /// Upper-layer thickness (m).
    pub thickness: f64,
    /// Relative RMS misfit of the fit.
    pub rms: f64,
    /// Gauss–Newton covariance of the fitted **log**-parameters
    /// `(ln ρ1, ln ρ2, ln H)`: `s²·(JᵀJ)⁻¹` with `J` the Jacobian of the
    /// relative residuals at the optimum and `s²` the residual variance
    /// (floored so noise-free synthetic data still yields a tiny but
    /// usable spread). Log-space is the natural parameterization: the
    /// parameters are positive and their sounding uncertainty is
    /// multiplicative.
    pub covariance: [[f64; 3]; 3],
}

impl TwoLayerFit {
    /// The fitted model as a [`crate::SoilModel`] (conductivities).
    pub fn soil_model(&self) -> crate::SoilModel {
        crate::SoilModel::two_layer(1.0 / self.rho1, 1.0 / self.rho2, self.thickness)
    }

    /// Draws one soil model from the fit's log-normal posterior: the
    /// fitted `(ln ρ1, ln ρ2, ln H)` plus `L·z` with `L·Lᵀ` the
    /// [`covariance`](Self::covariance) and `z` three standard normals —
    /// correlated draws, positive parameters by construction. All draws
    /// for a sweep come serially from one seeded generator, so sampled
    /// models are a reproducible function of the seed alone.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> crate::SoilModel {
        let l = chol3(self.covariance);
        let z = [rng.next_normal(), rng.next_normal(), rng.next_normal()];
        let mean = [self.rho1.ln(), self.rho2.ln(), self.thickness.ln()];
        let mut p = [0.0f64; 3];
        for i in 0..3 {
            let mut v = mean[i];
            for (k, zk) in z.iter().enumerate().take(i + 1) {
                v += l[i][k] * zk;
            }
            p[i] = v.exp();
        }
        crate::SoilModel::two_layer(1.0 / p[0], 1.0 / p[1], p[2])
    }
}

/// Lower-triangular Cholesky factor of a symmetric 3×3 covariance, with
/// diagonal clamping so a rank-deficient (perfectly constrained) matrix
/// degrades to zero spread in that direction instead of NaN.
fn chol3(a: [[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let mut l = [[0.0f64; 3]; 3];
    for i in 0..3 {
        for j in 0..=i {
            let mut s = a[i][j];
            for (lik, ljk) in l[i].iter().zip(&l[j]).take(j) {
                s -= lik * ljk;
            }
            if i == j {
                l[i][j] = s.max(0.0).sqrt();
            } else {
                l[i][j] = if l[j][j] > 0.0 { s / l[j][j] } else { 0.0 };
            }
        }
    }
    l
}

/// Inverse of a symmetric 3×3 matrix by the adjugate; `None` when the
/// determinant is not safely positive (singular normal equations).
fn invert3(a: &[[f64; 3]; 3]) -> Option<[[f64; 3]; 3]> {
    let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
    let scale = a.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
    // A NaN determinant (from NaN inputs) must also land in `None`.
    if det.is_nan() || det.abs() <= 1e-30 * scale.powi(3).max(1e-300) {
        return None;
    }
    let mut inv = [[0.0f64; 3]; 3];
    // Indices stay: each (i, j) writes the *transposed* slot `inv[j][i]`
    // (adjugate), which no iterator shape expresses cleanly.
    #[allow(clippy::needless_range_loop)]
    for i in 0..3 {
        for j in 0..3 {
            let (r0, r1) = ((i + 1) % 3, (i + 2) % 3);
            let (c0, c1) = ((j + 1) % 3, (j + 2) % 3);
            // Cofactor transpose (adjugate): note the swapped i/j roles.
            inv[j][i] = (a[r0][c0] * a[r1][c1] - a[r0][c1] * a[r1][c0]) / det;
        }
    }
    Some(inv)
}

/// Gauss–Newton covariance of the log-parameters at the fitted optimum:
/// central-difference Jacobian of the relative residuals, `s²·(JᵀJ)⁻¹`.
fn fit_covariance(data: &[SoundingPoint], x: [f64; 3], rms: f64) -> [[f64; 3]; 3] {
    let m = data.len();
    let h = 1e-5; // log-units; the forward model is smooth in ln-space
    let mut jt_j = [[0.0f64; 3]; 3];
    let mut rows = vec![[0.0f64; 3]; m];
    for dim in 0..3 {
        let (mut xp, mut xm) = (x, x);
        xp[dim] += h;
        xm[dim] -= h;
        for (i, p) in data.iter().enumerate() {
            let fp =
                two_layer_apparent_resistivity(xp[0].exp(), xp[1].exp(), xp[2].exp(), p.spacing);
            let fm =
                two_layer_apparent_resistivity(xm[0].exp(), xm[1].exp(), xm[2].exp(), p.spacing);
            rows[i][dim] = (fp - fm) / (2.0 * h) / p.rho_a;
        }
    }
    for r in &rows {
        for i in 0..3 {
            for j in 0..3 {
                jt_j[i][j] += r[i] * r[j];
            }
        }
    }
    // Residual variance with the m/(m−3) small-sample correction, floored
    // at (0.1%)² so exact synthetic data still yields a usable posterior.
    let dof = m.saturating_sub(3).max(1) as f64;
    let s2 = (rms * rms * m as f64 / dof).max(1e-6);
    match invert3(&jt_j) {
        Some(inv) => {
            let mut cov = inv;
            for row in cov.iter_mut() {
                for v in row.iter_mut() {
                    *v *= s2;
                }
            }
            cov
        }
        // Singular normal equations (degenerate sounding geometry): fall
        // back to an uncorrelated spread of one residual sigma per
        // parameter.
        None => {
            let mut cov = [[0.0f64; 3]; 3];
            for (i, row) in cov.iter_mut().enumerate() {
                row[i] = s2;
            }
            cov
        }
    }
}

/// Relative RMS misfit between data and a candidate model.
fn misfit(data: &[SoundingPoint], rho1: f64, rho2: f64, h: f64) -> f64 {
    let mut acc = 0.0;
    for p in data {
        let model = two_layer_apparent_resistivity(rho1, rho2, h, p.spacing);
        let rel = (model - p.rho_a) / p.rho_a;
        acc += rel * rel;
    }
    (acc / data.len() as f64).sqrt()
}

/// Fits a two-layer model to Wenner sounding data.
///
/// Multi-start compass (pattern) search over `(ln ρ1, ln ρ2, ln H)`:
/// derivative-free, bounded, and immune to the curve's plateaus. With
/// clean data the recovered parameters are accurate to ≪1%; with noisy
/// data the fit quality is reported through [`TwoLayerFit::rms`].
///
/// # Panics
/// Panics with fewer than 3 data points (3 unknowns) or non-positive
/// values.
pub fn invert_two_layer(data: &[SoundingPoint]) -> TwoLayerFit {
    assert!(data.len() >= 3, "need at least 3 sounding points");
    assert!(
        data.iter().all(|p| p.spacing > 0.0 && p.rho_a > 0.0),
        "spacings and resistivities must be positive"
    );
    // Asymptotics anchor the starts: ρa(a→0) → ρ1, ρa(a→∞) → ρ2.
    let mut sorted: Vec<SoundingPoint> = data.to_vec();
    sorted.sort_by(|x, y| x.spacing.partial_cmp(&y.spacing).expect("finite"));
    let rho1_guess = sorted.first().expect("non-empty").rho_a;
    let rho2_guess = sorted.last().expect("non-empty").rho_a;
    let spacing_mid = sorted[sorted.len() / 2].spacing;

    let mut best = TwoLayerFit {
        rho1: rho1_guess,
        rho2: rho2_guess,
        thickness: spacing_mid,
        rms: f64::INFINITY,
        covariance: [[0.0; 3]; 3],
    };
    // Multi-start over thickness decades (the least-constrained
    // parameter).
    for h0 in [0.3 * spacing_mid, spacing_mid, 3.0 * spacing_mid] {
        let mut x = [rho1_guess.ln(), rho2_guess.ln(), h0.ln()];
        let mut f = misfit(data, x[0].exp(), x[1].exp(), x[2].exp());
        let mut step = 0.5; // in log units
        while step > 1e-6 {
            let mut improved = false;
            for dim in 0..3 {
                for dir in [1.0, -1.0] {
                    let mut y = x;
                    y[dim] += dir * step;
                    let fy = misfit(data, y[0].exp(), y[1].exp(), y[2].exp());
                    if fy < f {
                        x = y;
                        f = fy;
                        improved = true;
                    }
                }
            }
            if !improved {
                step *= 0.5;
            }
        }
        if f < best.rms {
            best = TwoLayerFit {
                rho1: x[0].exp(),
                rho2: x[1].exp(),
                thickness: x[2].exp(),
                rms: f,
                covariance: [[0.0; 3]; 3],
            };
        }
    }
    best.covariance = fit_covariance(
        data,
        [best.rho1.ln(), best.rho2.ln(), best.thickness.ln()],
        best.rms,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SoilModel;
    use crate::two_layer::TwoLayerKernels;
    use crate::uniform::UniformKernel;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn uniform_soil_has_flat_curve() {
        let g = UniformKernel::new(0.016);
        for a in [0.5, 2.0, 10.0, 50.0] {
            assert!(
                close(wenner_apparent_resistivity(&g, a), 62.5, 1e-6),
                "a={a}"
            );
        }
    }

    #[test]
    fn kernel_forward_model_matches_closed_form() {
        // The Green's-function route and Tagg's closed form must agree —
        // an independent check of the two-layer kernel at the surface.
        let (rho1, rho2, h) = (200.0, 62.5, 1.0);
        let g = TwoLayerKernels::new(&SoilModel::two_layer(1.0 / rho1, 1.0 / rho2, h));
        for a in [0.3, 1.0, 3.0, 10.0, 40.0] {
            let via_kernel = wenner_apparent_resistivity(&g, a);
            let closed = two_layer_apparent_resistivity(rho1, rho2, h, a);
            assert!(
                close(via_kernel, closed, 1e-5),
                "a={a}: {via_kernel} vs {closed}"
            );
        }
    }

    #[test]
    fn curve_interpolates_between_layer_resistivities() {
        let (rho1, rho2, h) = (400.0, 50.0, 1.5);
        // Small spacings see the top layer, large the bottom.
        let tiny = two_layer_apparent_resistivity(rho1, rho2, h, 0.01);
        let huge = two_layer_apparent_resistivity(rho1, rho2, h, 1000.0);
        assert!(close(tiny, rho1, 1e-2), "{tiny}");
        assert!(close(huge, rho2, 2e-2), "{huge}");
        // Monotone descent for ρ1 > ρ2.
        let mut prev = tiny;
        for a in [0.1, 0.5, 1.0, 3.0, 10.0, 100.0] {
            let v = two_layer_apparent_resistivity(rho1, rho2, h, a);
            assert!(v <= prev * (1.0 + 1e-9));
            prev = v;
        }
    }

    fn synthetic(rho1: f64, rho2: f64, h: f64, noise: f64) -> Vec<SoundingPoint> {
        let spacings = [0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0, 10.0, 16.0, 25.0, 40.0];
        spacings
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                // Deterministic pseudo-noise.
                let wiggle = 1.0 + noise * ((i as f64 * 2.399).sin());
                SoundingPoint {
                    spacing: a,
                    rho_a: two_layer_apparent_resistivity(rho1, rho2, h, a) * wiggle,
                }
            })
            .collect()
    }

    #[test]
    fn inversion_recovers_clean_synthetic_model() {
        // The Balaidos-like contrast: ρ1 = 400, ρ2 = 50, H = 1 m.
        let data = synthetic(400.0, 50.0, 1.0, 0.0);
        let fit = invert_two_layer(&data);
        assert!(fit.rms < 1e-4, "rms {}", fit.rms);
        assert!(close(fit.rho1, 400.0, 0.02), "{}", fit.rho1);
        assert!(close(fit.rho2, 50.0, 0.02), "{}", fit.rho2);
        assert!(close(fit.thickness, 1.0, 0.05), "{}", fit.thickness);
    }

    #[test]
    fn inversion_recovers_conductive_over_resistive() {
        // The opposite contrast (κ > 0).
        let data = synthetic(60.0, 500.0, 2.0, 0.0);
        let fit = invert_two_layer(&data);
        assert!(close(fit.rho1, 60.0, 0.03), "{}", fit.rho1);
        assert!(close(fit.rho2, 500.0, 0.05), "{}", fit.rho2);
        assert!(close(fit.thickness, 2.0, 0.1), "{}", fit.thickness);
    }

    #[test]
    fn inversion_tolerates_noise() {
        let data = synthetic(400.0, 50.0, 1.0, 0.05); // ±5% wiggle
        let fit = invert_two_layer(&data);
        assert!(fit.rms < 0.06);
        assert!(close(fit.rho1, 400.0, 0.2));
        assert!(close(fit.rho2, 50.0, 0.2));
    }

    #[test]
    fn fit_converts_to_soil_model() {
        let data = synthetic(200.0, 62.5, 1.0, 0.0);
        let model = invert_two_layer(&data).soil_model();
        match model {
            SoilModel::TwoLayer { upper, lower, .. } => {
                assert!(close(upper, 0.005, 0.05));
                assert!(close(lower, 0.016, 0.05));
            }
            _ => panic!("expected two-layer"),
        }
    }

    #[test]
    fn fit_exposes_a_symmetric_positive_covariance() {
        let fit = invert_two_layer(&synthetic(400.0, 50.0, 1.0, 0.05));
        let c = fit.covariance;
        for i in 0..3 {
            assert!(c[i][i] > 0.0, "var[{i}] = {}", c[i][i]);
            for j in 0..3 {
                assert!((c[i][j] - c[j][i]).abs() <= 1e-12 * c[i][i].max(c[j][j]));
            }
        }
        // Noisier data must widen the posterior.
        let clean = invert_two_layer(&synthetic(400.0, 50.0, 1.0, 0.0));
        assert!(c[0][0] > clean.covariance[0][0]);
    }

    #[test]
    fn covariance_sampling_is_seeded_and_centered() {
        let fit = invert_two_layer(&synthetic(400.0, 50.0, 1.0, 0.03));
        let mut a = Xoshiro256StarStar::seeded(2024);
        let mut b = Xoshiro256StarStar::seeded(2024);
        let mut log_rho1 = Vec::new();
        for _ in 0..128 {
            let sa = fit.sample(&mut a);
            let sb = fit.sample(&mut b);
            assert_eq!(sa, sb, "seeded draws must be bit-identical");
            match sa {
                SoilModel::TwoLayer {
                    upper,
                    lower,
                    thickness,
                } => {
                    assert!(upper > 0.0 && lower > 0.0 && thickness > 0.0);
                    log_rho1.push((1.0 / upper).ln());
                }
                other => panic!("expected two-layer, got {other:?}"),
            }
        }
        let mean = log_rho1.iter().sum::<f64>() / log_rho1.len() as f64;
        // The sample cloud is centred on the fitted upper resistivity
        // (within a few posterior sigmas of the mean-of-128).
        let sigma = fit.covariance[0][0].sqrt();
        assert!(
            (mean - fit.rho1.ln()).abs() < 4.0 * sigma,
            "mean {mean} vs {} (sigma {sigma})",
            fit.rho1.ln()
        );
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_points_rejected() {
        invert_two_layer(&[
            SoundingPoint {
                spacing: 1.0,
                rho_a: 100.0,
            },
            SoundingPoint {
                spacing: 2.0,
                rho_a: 90.0,
            },
        ]);
    }
}
