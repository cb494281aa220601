//! IEEE Std 80 safety criteria.
//!
//! The design goal of the whole computation (paper §1): "the values of
//! electrical potentials between close points on earth surface that can
//! be connected by a person must be kept under certain maximum safe
//! limits (step, touch and mesh voltages)", per IEEE Std 80 (the paper's
//! reference \[1\]). This module implements the permissible-limit formulas
//! of IEEE Std 80-2000 and a checker that compares them with computed
//! voltages.

/// Body-weight class of the exposed person (IEEE 80 tabulates both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyWeight {
    /// 50 kg person: limit factor 0.116 (more conservative).
    Kg50,
    /// 70 kg person: limit factor 0.157.
    Kg70,
}

impl BodyWeight {
    fn k(&self) -> f64 {
        match self {
            BodyWeight::Kg50 => 0.116,
            BodyWeight::Kg70 => 0.157,
        }
    }
}

/// Site surface condition: optional high-resistivity surface layer
/// (crushed rock) over the native soil.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceLayer {
    /// Surface-layer resistivity ρs (Ω·m).
    pub resistivity: f64,
    /// Surface-layer thickness hs (m).
    pub thickness: f64,
}

/// Parameters of a safety assessment.
#[derive(Clone, Copy, Debug)]
pub struct SafetyCriteria {
    /// Fault clearing time ts (s).
    pub fault_duration: f64,
    /// Body weight class.
    pub body_weight: BodyWeight,
    /// Native-soil resistivity at the surface, ρ (Ω·m).
    pub soil_resistivity: f64,
    /// Optional crushed-rock layer.
    pub surface_layer: Option<SurfaceLayer>,
}

impl SafetyCriteria {
    /// Surface-layer derating factor `Cs` (IEEE 80-2000 eq. 27):
    /// `Cs = 1 − 0.09·(1 − ρ/ρs) / (2·hs + 0.09)`, or 1 without a layer.
    pub fn derating_cs(&self) -> f64 {
        match self.surface_layer {
            None => 1.0,
            Some(l) => {
                1.0 - 0.09 * (1.0 - self.soil_resistivity / l.resistivity)
                    / (2.0 * l.thickness + 0.09)
            }
        }
    }

    /// Effective surface resistivity seen by the feet.
    fn rho_s(&self) -> f64 {
        self.surface_layer
            .map(|l| l.resistivity)
            .unwrap_or(self.soil_resistivity)
    }

    /// Permissible touch voltage (IEEE 80-2000 eq. 32/33):
    /// `E_touch = (1000 + 1.5·Cs·ρs) · k / √ts`.
    pub fn permissible_touch(&self) -> f64 {
        assert!(self.fault_duration > 0.0, "fault duration must be positive");
        (1000.0 + 1.5 * self.derating_cs() * self.rho_s()) * self.body_weight.k()
            / self.fault_duration.sqrt()
    }

    /// Permissible step voltage (IEEE 80-2000 eq. 29/30):
    /// `E_step = (1000 + 6·Cs·ρs) · k / √ts`.
    pub fn permissible_step(&self) -> f64 {
        assert!(self.fault_duration > 0.0, "fault duration must be positive");
        (1000.0 + 6.0 * self.derating_cs() * self.rho_s()) * self.body_weight.k()
            / self.fault_duration.sqrt()
    }
}

/// Outcome of comparing computed voltages with the permissible limits.
#[derive(Clone, Copy, Debug)]
pub struct SafetyAssessment {
    /// Worst computed touch voltage (V).
    pub touch: f64,
    /// Worst computed step voltage (V).
    pub step: f64,
    /// Permissible touch voltage (V).
    pub touch_limit: f64,
    /// Permissible step voltage (V).
    pub step_limit: f64,
}

impl SafetyAssessment {
    /// Evaluates computed voltages against criteria.
    pub fn evaluate(touch: f64, step: f64, criteria: &SafetyCriteria) -> Self {
        SafetyAssessment {
            touch,
            step,
            touch_limit: criteria.permissible_touch(),
            step_limit: criteria.permissible_step(),
        }
    }

    /// True when both voltages are within limits.
    pub fn is_safe(&self) -> bool {
        self.touch <= self.touch_limit && self.step <= self.step_limit
    }

    /// Utilization ratios (computed / permissible); > 1 means violation.
    pub fn utilization(&self) -> (f64, f64) {
        (self.touch / self.touch_limit, self.step / self.step_limit)
    }
}

/// Conductor material constants for fault-current sizing
/// (IEEE 80-2000 Table 1).
#[derive(Clone, Copy, Debug)]
pub struct ConductorMaterial {
    /// Thermal coefficient of resistivity at reference temperature,
    /// `α_r` (1/°C).
    pub alpha_r: f64,
    /// Resistivity at reference temperature, `ρ_r` (µΩ·cm).
    pub rho_r: f64,
    /// `K₀ = 1/α₀` (°C).
    pub k0: f64,
    /// Fusing (or maximum allowable) temperature `T_m` (°C).
    pub t_max: f64,
    /// Thermal capacity per unit volume, `TCAP` (J/(cm³·°C)).
    pub tcap: f64,
}

impl ConductorMaterial {
    /// Annealed soft-drawn copper (100% IACS).
    pub fn copper_annealed() -> Self {
        ConductorMaterial {
            alpha_r: 0.003_93,
            rho_r: 1.72,
            k0: 234.0,
            t_max: 1083.0,
            tcap: 3.42,
        }
    }

    /// Commercial hard-drawn copper (97% IACS).
    pub fn copper_hard_drawn() -> Self {
        ConductorMaterial {
            alpha_r: 0.003_81,
            rho_r: 1.78,
            k0: 242.0,
            t_max: 1084.0,
            tcap: 3.42,
        }
    }

    /// Minimum conductor cross-section (mm²) to carry fault current
    /// `i_amps` for `t_seconds` without exceeding `t_max`, starting from
    /// ambient `t_ambient` °C (IEEE 80-2000 eq. 37):
    ///
    /// ```text
    /// A_mm² = I / √( (TCAP·10⁻⁴)/(t_c·α_r·ρ_r) · ln[(K₀+T_m)/(K₀+T_a)] )
    /// ```
    /// with `I` in kA.
    pub fn required_section_mm2(&self, i_amps: f64, t_seconds: f64, t_ambient: f64) -> f64 {
        assert!(i_amps > 0.0 && t_seconds > 0.0, "positive current and time");
        assert!(
            t_ambient < self.t_max,
            "ambient must be below the limit temperature"
        );
        let i_ka = i_amps / 1000.0;
        let arg = (self.k0 + self.t_max) / (self.k0 + t_ambient);
        let denom = (self.tcap * 1e-4) / (t_seconds * self.alpha_r * self.rho_r) * arg.ln();
        i_ka / denom.sqrt()
    }

    /// The "Kf" shorthand of IEEE 80 Table 2 (`A_kcmil = Kf · I_kA · √t`)
    /// at 40 °C ambient. Note the table's unit: **kcmil**, the US wire
    /// gauge area (1 kcmil = 0.5067 mm²).
    pub fn kf(&self) -> f64 {
        const MM2_PER_KCMIL: f64 = 0.506_707;
        self.required_section_mm2(1000.0, 1.0, 40.0) / MM2_PER_KCMIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SafetyCriteria {
        SafetyCriteria {
            fault_duration: 0.5,
            body_weight: BodyWeight::Kg50,
            soil_resistivity: 62.5, // γ = 0.016
            surface_layer: None,
        }
    }

    #[test]
    fn touch_limit_formula_without_layer() {
        // (1000 + 1.5·62.5)·0.116/√0.5
        let c = base();
        let expect = (1000.0 + 1.5 * 62.5) * 0.116 / 0.5f64.sqrt();
        assert!((c.permissible_touch() - expect).abs() < 1e-9);
    }

    #[test]
    fn step_limit_is_higher_than_touch_limit() {
        // The 6ρs foot-to-foot term always exceeds the 1.5ρs hand-to-feet
        // term.
        let c = base();
        assert!(c.permissible_step() > c.permissible_touch());
    }

    #[test]
    fn heavier_body_tolerates_more() {
        let c50 = base();
        let c70 = SafetyCriteria {
            body_weight: BodyWeight::Kg70,
            ..base()
        };
        assert!(c70.permissible_touch() > c50.permissible_touch());
        assert!((c70.permissible_touch() / c50.permissible_touch() - 0.157 / 0.116).abs() < 1e-12);
    }

    #[test]
    fn faster_clearing_raises_limits() {
        let slow = base();
        let fast = SafetyCriteria {
            fault_duration: 0.1,
            ..base()
        };
        assert!(fast.permissible_touch() > slow.permissible_touch());
    }

    #[test]
    fn crushed_rock_layer_raises_limits() {
        let bare = base();
        let rocked = SafetyCriteria {
            surface_layer: Some(SurfaceLayer {
                resistivity: 3000.0,
                thickness: 0.1,
            }),
            ..base()
        };
        let cs = rocked.derating_cs();
        assert!(cs < 1.0 && cs > 0.5, "Cs = {cs}");
        assert!(rocked.permissible_touch() > bare.permissible_touch());
        assert!(rocked.permissible_step() > bare.permissible_step());
    }

    #[test]
    fn no_layer_means_cs_is_one() {
        assert_eq!(base().derating_cs(), 1.0);
    }

    #[test]
    fn copper_kf_matches_ieee_80_table() {
        // IEEE 80-2000 Table 2: Kf ≈ 7.00 for annealed copper, 7.06 for
        // hard-drawn copper.
        assert!(
            (ConductorMaterial::copper_annealed().kf() - 7.00).abs() < 0.1,
            "{}",
            ConductorMaterial::copper_annealed().kf()
        );
        assert!(
            (ConductorMaterial::copper_hard_drawn().kf() - 7.06).abs() < 0.1,
            "{}",
            ConductorMaterial::copper_hard_drawn().kf()
        );
    }

    #[test]
    fn sizing_scales_with_current_and_sqrt_time() {
        let m = ConductorMaterial::copper_hard_drawn();
        let a1 = m.required_section_mm2(20_000.0, 0.5, 40.0);
        let a2 = m.required_section_mm2(40_000.0, 0.5, 40.0);
        let a4 = m.required_section_mm2(20_000.0, 2.0, 40.0);
        assert!((a2 - 2.0 * a1).abs() < 1e-9 * a1);
        assert!((a4 - 2.0 * a1).abs() < 1e-9 * a1);
        // A 20 kA / 0.5 s fault needs a substantial but plausible bar.
        assert!(a1 > 50.0 && a1 < 200.0, "{a1}");
    }

    #[test]
    fn hotter_ambient_needs_more_copper() {
        let m = ConductorMaterial::copper_annealed();
        let cool = m.required_section_mm2(10_000.0, 1.0, 20.0);
        let hot = m.required_section_mm2(10_000.0, 1.0, 80.0);
        assert!(hot > cool);
    }

    #[test]
    #[should_panic(expected = "below the limit")]
    fn ambient_above_limit_rejected() {
        ConductorMaterial::copper_annealed().required_section_mm2(1.0, 1.0, 2000.0);
    }

    #[test]
    fn assessment_flags_violations() {
        let c = base();
        let safe = SafetyAssessment::evaluate(10.0, 20.0, &c);
        assert!(safe.is_safe());
        let unsafe_touch = SafetyAssessment::evaluate(1e6, 20.0, &c);
        assert!(!unsafe_touch.is_safe());
        let (ut, us) = unsafe_touch.utilization();
        assert!(ut > 1.0 && us < 1.0);
    }
}
