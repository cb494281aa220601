//! Soil model descriptions.

/// One horizontal soil layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Layer {
    /// Scalar conductivity γ in (Ω·m)⁻¹.
    pub conductivity: f64,
    /// Layer thickness in meters (`f64::INFINITY` for the bottom
    /// half-space).
    pub thickness: f64,
}

impl Layer {
    /// Resistivity ρ = 1/γ in Ω·m.
    pub fn resistivity(&self) -> f64 {
        1.0 / self.conductivity
    }
}

/// A horizontally stratified soil model.
///
/// "A more practical proposed soil model … consists of considering the
/// soil stratified in a number of horizontal layers, defined by an
/// appropriate thickness and an apparent scalar conductivity that must be
/// experimentally obtained" (paper §2). The paper's evaluation uses the
/// uniform and two-layer variants; the N-layer variant is handled
/// numerically by [`crate::multilayer`].
#[derive(Clone, Debug, PartialEq)]
pub enum SoilModel {
    /// Homogeneous, isotropic half-space.
    Uniform {
        /// Conductivity γ in (Ω·m)⁻¹.
        conductivity: f64,
    },
    /// Two horizontal layers: an upper layer of finite thickness over an
    /// infinite lower half-space.
    TwoLayer {
        /// Upper-layer conductivity γ₁ in (Ω·m)⁻¹.
        upper: f64,
        /// Lower half-space conductivity γ₂ in (Ω·m)⁻¹.
        lower: f64,
        /// Upper-layer thickness H in meters.
        thickness: f64,
    },
    /// `C ≥ 3` horizontal layers, the last of infinite thickness.
    MultiLayer {
        /// Layers from the surface down; every thickness finite except the
        /// last, which must be infinite.
        layers: Vec<Layer>,
    },
}

impl SoilModel {
    /// Uniform model with validation.
    ///
    /// # Panics
    /// Panics if the conductivity is not positive and finite.
    pub fn uniform(conductivity: f64) -> Self {
        assert!(
            conductivity > 0.0 && conductivity.is_finite(),
            "conductivity must be positive and finite"
        );
        SoilModel::Uniform { conductivity }
    }

    /// Two-layer model with validation.
    ///
    /// # Panics
    /// Panics if conductivities or thickness are not positive and finite.
    pub fn two_layer(upper: f64, lower: f64, thickness: f64) -> Self {
        assert!(
            upper > 0.0 && upper.is_finite() && lower > 0.0 && lower.is_finite(),
            "conductivities must be positive and finite"
        );
        assert!(
            thickness > 0.0 && thickness.is_finite(),
            "upper-layer thickness must be positive and finite"
        );
        SoilModel::TwoLayer {
            upper,
            lower,
            thickness,
        }
    }

    /// Multi-layer model with validation.
    ///
    /// # Panics
    /// Panics unless there are ≥ 2 layers, all conductivities are positive
    /// and finite, all thicknesses except the last are positive and
    /// finite, and the last thickness is infinite.
    pub fn multi_layer(layers: Vec<Layer>) -> Self {
        assert!(layers.len() >= 2, "multi-layer model needs >= 2 layers");
        for (i, l) in layers.iter().enumerate() {
            assert!(
                l.conductivity > 0.0 && l.conductivity.is_finite(),
                "layer {i}: conductivity must be positive and finite"
            );
            if i + 1 == layers.len() {
                assert!(
                    l.thickness.is_infinite() && l.thickness > 0.0,
                    "bottom layer must have infinite thickness"
                );
            } else {
                assert!(
                    l.thickness > 0.0 && l.thickness.is_finite(),
                    "layer {i}: thickness must be positive and finite"
                );
            }
        }
        SoilModel::MultiLayer { layers }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        match self {
            SoilModel::Uniform { .. } => 1,
            SoilModel::TwoLayer { .. } => 2,
            SoilModel::MultiLayer { layers } => layers.len(),
        }
    }

    /// The layers as a uniform list (a single infinite layer for
    /// [`SoilModel::Uniform`]).
    pub fn layers(&self) -> Vec<Layer> {
        match self {
            SoilModel::Uniform { conductivity } => vec![Layer {
                conductivity: *conductivity,
                thickness: f64::INFINITY,
            }],
            SoilModel::TwoLayer {
                upper,
                lower,
                thickness,
            } => vec![
                Layer {
                    conductivity: *upper,
                    thickness: *thickness,
                },
                Layer {
                    conductivity: *lower,
                    thickness: f64::INFINITY,
                },
            ],
            SoilModel::MultiLayer { layers } => layers.clone(),
        }
    }

    /// Index (0-based) of the layer containing depth `z`.
    ///
    /// Points exactly on an interface belong to the deeper layer only if
    /// strictly below it; the top of layer `i+1` is the bottom of layer
    /// `i`, and the boundary point is assigned to layer `i` (potential is
    /// continuous there, so either choice is consistent).
    pub fn layer_of(&self, z: f64) -> usize {
        assert!(z >= 0.0, "depth must be non-negative");
        let layers = self.layers();
        let mut bottom = 0.0;
        for (i, l) in layers.iter().enumerate() {
            bottom += l.thickness;
            if z <= bottom {
                return i;
            }
        }
        layers.len() - 1
    }

    /// Conductivity of the layer containing depth `z`.
    pub fn conductivity_at(&self, z: f64) -> f64 {
        self.layers()[self.layer_of(z)].conductivity
    }

    /// Reflection ratio κ = (γ1−γ2)/(γ1+γ2) for two-layer models
    /// (paper §3: "in the particular case of a two-layer soil model ratio
    /// κ is given by (γ1−γ2)/(γ1+γ2)").
    ///
    /// Returns 0 for uniform models; panics for multi-layer models, whose
    /// reflection structure is not a single scalar.
    pub fn reflection_ratio(&self) -> f64 {
        match self {
            SoilModel::Uniform { .. } => 0.0,
            SoilModel::TwoLayer { upper, lower, .. } => (upper - lower) / (upper + lower),
            SoilModel::MultiLayer { .. } => {
                panic!("reflection_ratio is only defined for <= 2 layers")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_basics() {
        let m = SoilModel::uniform(0.016);
        assert_eq!(m.layer_count(), 1);
        assert_eq!(m.reflection_ratio(), 0.0);
        assert_eq!(m.layer_of(100.0), 0);
        assert_eq!(m.conductivity_at(3.0), 0.016);
        assert!((m.layers()[0].resistivity() - 62.5).abs() < 1e-12);
    }

    #[test]
    fn two_layer_basics() {
        // Barberá two-layer model: γ1 = 0.005, γ2 = 0.016, H = 1 m.
        let m = SoilModel::two_layer(0.005, 0.016, 1.0);
        assert_eq!(m.layer_count(), 2);
        let kappa = m.reflection_ratio();
        assert!((kappa - (0.005 - 0.016) / (0.005 + 0.016)).abs() < 1e-15);
        assert!(kappa < 0.0); // resistive upper layer ⇒ negative κ
        assert_eq!(m.layer_of(0.5), 0);
        assert_eq!(m.layer_of(1.0), 0); // boundary belongs to upper
        assert_eq!(m.layer_of(1.5), 1);
        assert_eq!(m.conductivity_at(2.0), 0.016);
    }

    #[test]
    fn multi_layer_basics() {
        let m = SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.05,
                thickness: 3.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: f64::INFINITY,
            },
        ]);
        assert_eq!(m.layer_count(), 3);
        assert_eq!(m.layer_of(1.0), 0);
        assert_eq!(m.layer_of(4.0), 1);
        assert_eq!(m.layer_of(50.0), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn rejects_nonpositive_conductivity() {
        SoilModel::uniform(-1.0);
    }

    #[test]
    #[should_panic(expected = "thickness must be positive")]
    fn rejects_nonpositive_thickness() {
        SoilModel::two_layer(0.01, 0.02, 0.0);
    }

    #[test]
    #[should_panic(expected = "infinite thickness")]
    fn rejects_finite_bottom_layer() {
        SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: 5.0,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "only defined")]
    fn multilayer_has_no_scalar_kappa() {
        SoilModel::multi_layer(vec![
            Layer {
                conductivity: 0.01,
                thickness: 1.0,
            },
            Layer {
                conductivity: 0.02,
                thickness: 2.0,
            },
            Layer {
                conductivity: 0.03,
                thickness: f64::INFINITY,
            },
        ])
        .reflection_ratio();
    }

    #[test]
    fn equal_conductivity_two_layer_has_zero_kappa() {
        let m = SoilModel::two_layer(0.02, 0.02, 1.0);
        assert_eq!(m.reflection_ratio(), 0.0);
    }
}
