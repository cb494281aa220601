//! Higher-level analysis drivers: the design loops a grounding engineer
//! actually runs on top of a single solve.
//!
//! * [`auto_refine`] — discretization-convergence driver: re-mesh with
//!   shrinking element caps until the equivalent resistance stabilizes.
//!   This is the guard against trusting an under-resolved model, and the
//!   demonstration that the Galerkin BEM is free of the refinement
//!   anomaly of older methods (paper §1).
//!
//! Fault-current-driven studies need no driver of their own: since the
//! problem is linear, [`Scenario::fault_current`] answers them from the
//! same prepared [`Study`](crate::study::Study) as any GPR scenario.

use layerbem_geometry::{ConductorNetwork, Mesh, MeshOptions, Mesher};
use layerbem_soil::SoilModel;

use crate::formulation::SolveOptions;
use crate::study::Scenario;
use crate::system::{GroundingSolution, GroundingSystem};

/// One refinement step's record.
#[derive(Clone, Copy, Debug)]
pub struct RefinementStep {
    /// Element-length cap used (m).
    pub max_element_length: f64,
    /// Elements in the mesh.
    pub elements: usize,
    /// Degrees of freedom.
    pub dof: usize,
    /// Equivalent resistance (Ω).
    pub req: f64,
}

/// Result of an auto-refinement run.
#[derive(Clone, Debug)]
pub struct RefinementOutcome {
    /// The accepted (finest) mesh.
    pub mesh: Mesh,
    /// Solution on the accepted mesh.
    pub solution: GroundingSolution,
    /// Whether the tolerance was met before the step cap.
    pub converged: bool,
    /// Every step tried, coarsest first.
    pub history: Vec<RefinementStep>,
}

/// Refines the discretization until `Req` changes by less than `rel_tol`
/// between consecutive levels (element cap halves each level), or
/// `max_steps` levels have been tried.
///
/// # Panics
/// Panics on invalid tolerances or an empty network.
pub fn auto_refine(
    network: &ConductorNetwork,
    soil: &SoilModel,
    opts: SolveOptions,
    gpr: f64,
    initial_max_length: f64,
    rel_tol: f64,
    max_steps: usize,
) -> RefinementOutcome {
    assert!(rel_tol > 0.0 && initial_max_length > 0.0 && max_steps >= 2);
    assert!(!network.is_empty(), "empty network");
    let mut history = Vec::new();
    let mut max_len = initial_max_length;
    let mut prev: Option<(f64, Mesh, GroundingSolution)> = None;
    for _ in 0..max_steps {
        let mesh = Mesher::new(MeshOptions {
            max_element_length: max_len,
            ..Default::default()
        })
        .mesh(network);
        let sys = GroundingSystem::new(mesh.clone(), soil, opts);
        let sol = sys
            .prepare()
            .unwrap_or_else(|e| panic!("{e}"))
            .solve(&Scenario::gpr(gpr))
            .unwrap_or_else(|e| panic!("{e}"));
        history.push(RefinementStep {
            max_element_length: max_len,
            elements: mesh.element_count(),
            dof: mesh.dof(),
            req: sol.equivalent_resistance,
        });
        if let Some((prev_req, _, _)) = prev {
            let change = (sol.equivalent_resistance - prev_req).abs() / prev_req;
            if change <= rel_tol {
                return RefinementOutcome {
                    mesh,
                    solution: sol,
                    converged: true,
                    history,
                };
            }
        }
        prev = Some((sol.equivalent_resistance, mesh, sol.clone()));
        max_len *= 0.5;
    }
    let (_, mesh, solution) = prev.expect("max_steps >= 2 ran at least one level");
    RefinementOutcome {
        mesh,
        solution,
        converged: false,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};

    fn small_net() -> ConductorNetwork {
        rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 2,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        })
    }

    #[test]
    fn auto_refine_converges_and_tightens() {
        let out = auto_refine(
            &small_net(),
            &SoilModel::uniform(0.016),
            SolveOptions::default(),
            1.0,
            10.0,
            5e-3,
            6,
        );
        assert!(out.converged);
        assert!(out.history.len() >= 2);
        // Monotone growth of resolution.
        for w in out.history.windows(2) {
            assert!(w[1].elements > w[0].elements);
            assert!(w[1].dof > w[0].dof);
        }
        // Final change below tolerance.
        let last = out.history.len() - 1;
        let change =
            (out.history[last].req - out.history[last - 1].req).abs() / out.history[last - 1].req;
        assert!(change <= 5e-3);
    }

    #[test]
    fn auto_refine_reports_nonconvergence_at_step_cap() {
        let out = auto_refine(
            &small_net(),
            &SoilModel::uniform(0.016),
            SolveOptions::default(),
            1.0,
            10.0,  // halves to 5 m: a genuinely different mesh
            1e-12, // unreachable tolerance
            2,
        );
        assert!(!out.converged);
        assert_eq!(out.history.len(), 2);
    }

    #[test]
    fn fault_current_drive_matches_linearity() {
        let mesh = Mesher::default().mesh(&small_net());
        let sys = GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default());
        let target = 25_000.0; // 25 kA fault
        let study = sys.prepare().expect("prepare");
        let sol = study
            .solve(&Scenario::fault_current(target))
            .expect("solve");
        assert!((sol.total_current - target).abs() < 1e-9 * target);
        // Cross-check: solving with the reported GPR reproduces the
        // current.
        let check = study.solve(&Scenario::gpr(sol.gpr)).expect("solve");
        assert!((check.total_current - target).abs() < 1e-6 * target);
        assert!(
            (check.equivalent_resistance - sol.equivalent_resistance).abs()
                < 1e-12 * sol.equivalent_resistance
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fault_current_rejected() {
        let mesh = Mesher::default().mesh(&small_net());
        let sys = GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default());
        sys.prepare()
            .expect("prepare")
            .solve(&Scenario::fault_current(0.0))
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
