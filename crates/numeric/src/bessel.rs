//! The Bessel function of the first kind `J₀` (and, as the reference of
//! its derivative test, `J₁`).
//!
//! Needed by the inverse Hankel transform of the N-layer soil kernels:
//! `V(r,z) = ∫₀^∞ K(λ) J₀(λr) dλ`. Implemented with the classical
//! Abramowitz & Stegun rational approximations (9.4.1–9.4.6), accurate to
//! better than `1e-7` absolute — far below the tolerance of the layered
//! kernels they feed.

/// `J₀(x)`.
pub fn j0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.0 {
        // A&S 9.4.1.
        let t = (ax / 3.0).powi(2);
        1.0 + t
            * (-2.249_999_7
                + t * (1.265_620_8
                    + t * (-0.316_386_6
                        + t * (0.044_447_9 + t * (-0.003_944_4 + t * 0.000_210_0)))))
    } else {
        // A&S 9.4.3.
        let t = 3.0 / ax;
        let f0 = 0.797_884_56
            + t * (-0.000_000_77
                + t * (-0.005_527_40
                    + t * (-0.000_095_12
                        + t * (0.001_372_37 + t * (-0.000_728_05 + t * 0.000_144_76)))));
        let theta0 = ax - std::f64::consts::FRAC_PI_4
            + t * (-0.041_663_97
                + t * (-0.000_039_54
                    + t * (0.002_625_73
                        + t * (-0.000_541_25 + t * (-0.000_293_33 + t * 0.000_135_58)))));
        f0 * theta0.cos() / ax.sqrt()
    }
}

/// `J₁(x)`.
#[cfg(test)]
fn j1(x: f64) -> f64 {
    let ax = x.abs();
    let val = if ax < 3.0 {
        // A&S 9.4.4: J₁(x)/x.
        let t = (ax / 3.0).powi(2);
        let j1_over_x = 0.5
            + t * (-0.562_499_85
                + t * (0.210_935_73
                    + t * (-0.039_542_89
                        + t * (0.004_433_19 + t * (-0.000_317_61 + t * 0.000_011_09)))));
        ax * j1_over_x
    } else {
        // A&S 9.4.6.
        let t = 3.0 / ax;
        let f1 = 0.797_884_56
            + t * (0.000_001_56
                + t * (0.016_596_67
                    + t * (0.000_171_05
                        + t * (-0.002_495_11 + t * (0.001_136_53 + t * -0.000_200_33)))));
        // 3π/4 in the A&S expansion.
        let theta1 = ax - 3.0 * std::f64::consts::FRAC_PI_4
            + t * (0.124_996_12
                + t * (0.000_056_50
                    + t * (-0.006_378_79
                        + t * (0.000_743_48 + t * (0.000_798_24 + t * -0.000_291_66)))));
        f1 * theta1.cos() / ax.sqrt()
    };
    if x < 0.0 {
        -val
    } else {
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j0_known_values() {
        assert!((j0(0.0) - 1.0).abs() < 1e-8);
        assert!((j0(1.0) - 0.765_197_686_557_966_6).abs() < 1e-7);
        assert!((j0(2.0) - 0.223_890_779_141_235_7).abs() < 1e-7);
        assert!((j0(5.0) + 0.177_596_771_314_338_3).abs() < 1e-7);
        assert!((j0(10.0) + 0.245_935_764_451_348_4).abs() < 1e-7);
    }

    #[test]
    fn j0_zeros() {
        for z in [
            2.404_825_557_695_773,
            5.520_078_110_286_311,
            8.653_727_912_911_013,
        ] {
            assert!(j0(z).abs() < 1e-6, "J0({z}) = {}", j0(z));
        }
    }

    #[test]
    fn j0_is_even() {
        for x in [0.3, 1.7, 4.2, 9.9] {
            assert_eq!(j0(x), j0(-x));
        }
    }

    #[test]
    fn j1_known_values() {
        assert!((j1(0.0) - 0.0).abs() < 1e-12);
        assert!((j1(1.0) - 0.440_050_585_744_933_5).abs() < 1e-7);
        assert!((j1(2.0) - 0.576_724_807_756_873_4).abs() < 1e-7);
        assert!((j1(5.0) + 0.327_579_137_591_465_2).abs() < 1e-7);
    }

    #[test]
    fn j1_is_odd() {
        for x in [0.3, 1.7, 4.2] {
            assert_eq!(j1(x), -j1(-x));
        }
    }

    #[test]
    fn derivative_relation_j0_prime_is_minus_j1() {
        // J₀'(x) = −J₁(x); verify by central difference.
        let h = 1e-6;
        for x in [0.5, 1.5, 4.0, 7.0] {
            let num = (j0(x + h) - j0(x - h)) / (2.0 * h);
            assert!(
                (num + j1(x)).abs() < 1e-5,
                "x={x}: J0'={num}, -J1={}",
                -j1(x)
            );
        }
    }
}
