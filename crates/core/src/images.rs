//! Image decomposition of the layered-soil Green's functions.
//!
//! For uniform and two-layer soils, the Green's function is a sum of
//! point-image terms `c · 1/R(x, ξ_l)` where every image position `ξ_l` is
//! an **affine map of the source depth**: `depth(ξ_l) = offset ± d`. A
//! straight source segment therefore maps to a straight *image segment*,
//! and the inner BEM integral over the source element reduces, image by
//! image, to the closed-form thin-wire integral of
//! [`crate::integration`]. This module enumerates those images.
//!
//! The decomposition mirrors the four kernel families derived in
//! `layerbem_soil::two_layer` (same κ-series, regrouped by image):
//!
//! | family | images (depth, coefficient) |
//! |--------|------------------------------|
//! | `G11`  | `(d, 1)`, `(−d, 1)`; for n ≥ 1, `κⁿ` × depths `2nH−d, 2nH+d, d−2nH, −d−2nH` |
//! | `G12`  | for n ≥ 0, `(1+κ)κⁿ` × depths `d−2nH, −d−2nH` |
//! | `G21`  | for n ≥ 0, `(1−κ)κⁿ` × depths `d+2nH, −d−2nH` |
//! | `G22`  | `(d, 1)`, `(2H−d, −κ)`; for n ≥ 0, `(1−κ²)κⁿ` × depth `−d−2nH` |
//!
//! All coefficients carry the `1/(4πγ_b)` prefactor of the source layer.
//! Image *groups* are indexed by `n`; summation over `n` happens in the
//! caller under tolerance control, exactly like the point-kernel series.

/// One image of the source: the source depth `d` maps to
/// `offset + sign·d`; the image's kernel contribution is
/// `coefficient / R`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Image {
    /// Multiplier of the source depth: `+1.0` or `−1.0`.
    pub sign: f64,
    /// Depth offset added after the sign flip.
    pub offset: f64,
    /// Kernel coefficient (includes reflection/transmission factors and
    /// the `1/(4πγ_b)` prefactor).
    pub coefficient: f64,
}

impl Image {
    /// Image depth for a source at depth `d`.
    #[inline]
    pub fn depth(&self, d: f64) -> f64 {
        self.offset + self.sign * d
    }
}

/// Which of the four two-layer kernel families applies to a
/// (source layer, field layer) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Source and field in the upper layer.
    UpperUpper,
    /// Source upper, field lower.
    UpperLower,
    /// Source lower, field upper.
    LowerUpper,
    /// Source and field in the lower layer.
    LowerLower,
}

/// Enumerates image groups for a two-layer (or uniform, κ = 0) soil.
#[derive(Clone, Copy, Debug)]
pub struct ImageExpansion {
    /// Reflection ratio κ (0 for uniform soil).
    pub kappa: f64,
    /// Upper-layer thickness H (`INFINITY` for uniform soil).
    pub h: f64,
    /// `1/(4πγ_b)` prefactor of the source layer.
    pub prefactor: f64,
    /// Kernel family for this (source, field) layer pair.
    pub family: Family,
}

impl ImageExpansion {
    /// The images of group `n`, pushed into `out` (cleared first).
    ///
    /// Group 0 holds the closed (non-series) terms plus the `n = 0` series
    /// terms where the family has them; group `n ≥ 1` holds the κⁿ terms.
    /// An empty result means the expansion is exhausted (uniform soil has
    /// only group 0).
    pub fn group(&self, n: usize, out: &mut Vec<Image>) {
        out.clear();
        let k = self.kappa;
        let h = self.h;
        let pre = self.prefactor;
        let kn = |n: usize| k.powi(n as i32);
        match self.family {
            Family::UpperUpper => {
                if n == 0 {
                    out.push(Image {
                        sign: 1.0,
                        offset: 0.0,
                        coefficient: pre,
                    });
                    out.push(Image {
                        sign: -1.0,
                        offset: 0.0,
                        coefficient: pre,
                    });
                } else if k != 0.0 {
                    let c = pre * kn(n);
                    let two_nh = 2.0 * n as f64 * h;
                    out.push(Image {
                        sign: -1.0,
                        offset: two_nh,
                        coefficient: c,
                    });
                    out.push(Image {
                        sign: 1.0,
                        offset: two_nh,
                        coefficient: c,
                    });
                    out.push(Image {
                        sign: 1.0,
                        offset: -two_nh,
                        coefficient: c,
                    });
                    out.push(Image {
                        sign: -1.0,
                        offset: -two_nh,
                        coefficient: c,
                    });
                }
            }
            Family::UpperLower => {
                if k == 0.0 && n > 0 {
                    return;
                }
                let c = pre * (1.0 + k) * kn(n);
                let two_nh = 2.0 * n as f64 * h;
                out.push(Image {
                    sign: 1.0,
                    offset: -two_nh,
                    coefficient: c,
                });
                out.push(Image {
                    sign: -1.0,
                    offset: -two_nh,
                    coefficient: c,
                });
            }
            Family::LowerUpper => {
                if k == 0.0 && n > 0 {
                    return;
                }
                let c = pre * (1.0 - k) * kn(n);
                let two_nh = 2.0 * n as f64 * h;
                out.push(Image {
                    sign: 1.0,
                    offset: two_nh,
                    coefficient: c,
                });
                out.push(Image {
                    sign: -1.0,
                    offset: -two_nh,
                    coefficient: c,
                });
            }
            Family::LowerLower => {
                if n == 0 {
                    out.push(Image {
                        sign: 1.0,
                        offset: 0.0,
                        coefficient: pre,
                    });
                    if k != 0.0 {
                        out.push(Image {
                            sign: -1.0,
                            offset: 2.0 * h,
                            coefficient: -pre * k,
                        });
                    }
                    out.push(Image {
                        sign: -1.0,
                        offset: 0.0,
                        coefficient: pre * (1.0 - k * k),
                    });
                } else if k != 0.0 {
                    let c = pre * (1.0 - k * k) * kn(n);
                    out.push(Image {
                        sign: -1.0,
                        offset: -2.0 * n as f64 * h,
                        coefficient: c,
                    });
                }
            }
        }
    }

    /// [`Self::group`] for field points **on the earth surface**
    /// (`z == 0`), with mirror images folded.
    ///
    /// An image at depth `offset + sign·d` and its mirror at
    /// `−offset − sign·d` are equidistant from every point of the plane
    /// `z = 0`, point by point along the segment — for sloped segments
    /// too, because Δz and the tangent's z component flip together — so
    /// their rod integrals are equal and the pair is one image carrying
    /// the sum of the two coefficients. `G11`, `G21` and uniform soil
    /// consist of such pairs only: half the images, doubled
    /// coefficients. Images without a mirror in the group pass through.
    pub fn surface_group(&self, n: usize, out: &mut Vec<Image>) {
        self.group(n, out);
        let mut kept = 0;
        for i in 0..out.len() {
            let im = out[i];
            match out[..kept]
                .iter_mut()
                .find(|k| k.sign == -im.sign && k.offset == -im.offset)
            {
                Some(mirror) => mirror.coefficient += im.coefficient,
                None => {
                    out[kept] = im;
                    kept += 1;
                }
            }
        }
        out.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_soil::uniform::UniformKernel;
    use layerbem_soil::{GreensFunction, SoilModel, TwoLayerKernels};

    const PI4: f64 = 4.0 * std::f64::consts::PI;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    /// Sums the expansion as a *point* kernel and compares against the
    /// independent implementation in `layerbem-soil`.
    fn point_sum(exp: &ImageExpansion, r: f64, z: f64, d: f64, groups: usize) -> f64 {
        let mut buf = Vec::new();
        let mut acc = 0.0;
        for n in 0..groups {
            exp.group(n, &mut buf);
            if buf.is_empty() && n > 0 {
                break;
            }
            for im in &buf {
                let dz = z - im.depth(d);
                acc += im.coefficient / (r * r + dz * dz).sqrt();
            }
        }
        acc
    }

    #[test]
    fn uniform_expansion_is_two_images() {
        let exp = ImageExpansion {
            kappa: 0.0,
            h: f64::INFINITY,
            prefactor: 1.0 / (PI4 * 0.016),
            family: Family::UpperUpper,
        };
        let un = UniformKernel::new(0.016);
        for &(r, z, d) in &[(2.0, 0.0, 0.8), (5.0, 1.5, 0.8), (0.3, 2.0, 1.0)] {
            assert!(close(
                point_sum(&exp, r, z, d, 5),
                un.potential(r, z, d),
                1e-14
            ));
        }
        // Group 1 must be empty for κ = 0.
        let mut buf = Vec::new();
        exp.group(1, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn two_layer_families_match_soil_kernels() {
        let model = SoilModel::two_layer(0.0025, 0.020, 1.0);
        let tl = TwoLayerKernels::new(&model);
        let kappa = tl.kappa();
        let h = 1.0;
        // (family, source-layer conductivity γ_b, r, z, d)
        let cases = [
            (Family::UpperUpper, 0.0025, 4.0, 0.5, 0.8),
            (Family::UpperLower, 0.0025, 4.0, 2.5, 0.8),
            (Family::LowerUpper, 0.020, 4.0, 0.5, 2.2),
            (Family::LowerLower, 0.020, 4.0, 2.5, 2.2),
        ];
        for (family, gamma_b, r, z, d) in cases {
            let exp = ImageExpansion {
                kappa,
                h,
                prefactor: 1.0 / (PI4 * gamma_b),
                family,
            };
            let got = point_sum(&exp, r, z, d, 400);
            let want = tl.potential(r, z, d);
            assert!(close(got, want, 1e-7), "{family:?}: {got} vs {want}");
        }
    }

    #[test]
    fn groups_decay_geometrically() {
        let exp = ImageExpansion {
            kappa: -0.5,
            h: 1.0,
            prefactor: 1.0,
            family: Family::UpperUpper,
        };
        let mut buf = Vec::new();
        let mut mags = Vec::new();
        for n in 1..6 {
            exp.group(n, &mut buf);
            let m: f64 = buf
                .iter()
                .map(|im| {
                    let dz = 0.5 - im.depth(0.5);
                    im.coefficient.abs() / (4.0 + dz * dz).sqrt()
                })
                .sum();
            mags.push(m);
        }
        for w in mags.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn image_depth_map_is_affine() {
        let im = Image {
            sign: -1.0,
            offset: 2.0,
            coefficient: 1.0,
        };
        assert_eq!(im.depth(0.8), 1.2);
        assert_eq!(im.depth(0.0), 2.0);
    }
}
