//! High-level grounding analysis driver.
//!
//! Ties the pipeline together: discretized grid + soil model + GPR in;
//! nodal leakage distribution, total ground current `IΓ`, and equivalent
//! resistance `Req = GPR / IΓ` out (paper eq. 2.2, with the unit-GPR
//! normalization of §2: "the assumption VΓ = 1 is not restrictive at all").

use layerbem_geometry::Mesh;
use layerbem_soil::SoilModel;

use crate::assembly::{assemble_galerkin, AssemblyReport};
use crate::formulation::SolveOptions;
use crate::kernel::SoilKernel;
use crate::study::{PrepareError, Scenario, Study};

/// A grounding analysis problem: mesh + soil + options.
#[derive(Clone, Debug)]
pub struct GroundingSystem {
    mesh: Mesh,
    kernel: SoilKernel,
    opts: SolveOptions,
}

/// Result of a grounding solve.
#[derive(Clone, Debug)]
pub struct GroundingSolution {
    /// Nodal leakage current per unit length (A/m) for the actual GPR.
    pub leakage: Vec<f64>,
    /// Ground Potential Rise the solution is scaled to (V).
    pub gpr: f64,
    /// Total current leaked to ground, `IΓ` (A).
    pub total_current: f64,
    /// Equivalent resistance `Req = GPR / IΓ` (Ω).
    pub equivalent_resistance: f64,
    /// Iterations used by the iterative solver (0 for direct).
    pub solver_iterations: usize,
    /// The scenario this solution answers — carried so sweep report rows
    /// are self-describing.
    pub scenario: Scenario,
}

/// Why a mesh is not one solvable electrode — the constant-GPR boundary
/// condition needs exactly one connected body of elements with two
/// distinct nodes each — or `None` when it is. The one place a mesh is
/// checked and the defect worded: [`GroundingSystem::try_new`] reports
/// it for a fresh model, the edit rebuild route for an edit.
pub(crate) fn mesh_defect(mesh: &Mesh) -> Option<&'static str> {
    if mesh.dof() == 0 || mesh.element_count() == 0 {
        Some("discretization produced no degrees of freedom")
    } else if mesh.elements.iter().any(|e| e.nodes[0] == e.nodes[1]) {
        Some(
            "a conductor is shorter than the mesher's 1e-6 m merge distance \
             (its ends collapse onto one node)",
        )
    } else if !mesh.is_connected() {
        Some(
            "electrode network is not connected (grounding grids are one \
             bonded structure; merge or remove the isolated conductors)",
        )
    } else {
        None
    }
}

impl GroundingSystem {
    /// Builds a system from a discretized grid and a soil model, or says
    /// why the grid is not one solvable electrode — the typed form every
    /// front end that takes models from outside the program goes through
    /// (the study sources of [`crate::workload`], edit sessions).
    pub fn try_new(mesh: Mesh, soil: &SoilModel, opts: SolveOptions) -> Result<Self, &'static str> {
        match mesh_defect(&mesh) {
            Some(why) => Err(why),
            None => Ok(GroundingSystem {
                mesh,
                kernel: SoilKernel::new(soil),
                opts,
            }),
        }
    }

    /// [`try_new`](Self::try_new) for meshes the caller built itself.
    ///
    /// # Panics
    /// Panics on an empty, collapsed or electrically disconnected mesh —
    /// the constant-GPR boundary condition requires one connected
    /// electrode.
    pub fn new(mesh: Mesh, soil: &SoilModel, opts: SolveOptions) -> Self {
        Self::try_new(mesh, soil, opts).unwrap_or_else(|why| panic!("{why}"))
    }

    /// The discretized grid.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The soil kernel in use.
    pub fn kernel(&self) -> &SoilKernel {
        &self.kernel
    }

    /// The solver options.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Generates the Galerkin system: the class-first engine on the pool of
    /// [`SolveOptions::parallelism`] (see [`assemble_galerkin`]).
    pub fn assemble(&self) -> AssemblyReport {
        assemble_galerkin(&self.mesh, &self.kernel, &self.opts)
    }

    /// Assembles **and** factorizes the system once, returning a
    /// reusable [`Study`] that answers any number of
    /// [`Scenario`]s from one unit-GPR solve.
    ///
    /// [`SolveOptions::parallelism`] alone decides who computes: matrix
    /// generation runs the class-first engine on its pool and the blocked
    /// factorization runs its trailing updates there; at one thread both
    /// run inline on the calling thread. The bits are the same at every
    /// thread count.
    ///
    /// This is the primary entry point: `prepare` once, then
    /// [`Study::solve`] / [`Study::solve_batch`] per question.
    pub fn prepare(&self) -> Result<Study, PrepareError> {
        Study::prepare(self)
    }

    /// Like [`prepare`](Self::prepare), but the returned [`Study`] also
    /// retains the edit state ([`Study::apply_edit`]) an interactive
    /// session needs: the mesh, the kernel and — for the direct engine —
    /// the assembled operator, so edits re-integrate only touched pairs
    /// and update the factor in place instead of re-running the full
    /// pipeline.
    ///
    /// # Errors
    /// [`PrepareError::UnsupportedBackend`] unless the study uses the
    /// dense Galerkin operator with the Cholesky or conjugate-gradient
    /// solver; otherwise as [`prepare`](Self::prepare).
    pub fn prepare_editable(&self) -> Result<Study, PrepareError> {
        Study::prepare_editable(self)
    }

    /// Factorizes an already-generated Galerkin report into a [`Study`]
    /// (retaining a copy of what it needs). The report is treated as a
    /// Galerkin system regardless of [`SolveOptions::formulation`].
    pub fn prepare_assembled(&self, report: &AssemblyReport) -> Result<Study, PrepareError> {
        let report = std::borrow::Cow::Borrowed(report);
        Study::from_galerkin(self.opts, &self.kernel, report, false).map(|(s, _)| s)
    }
}

impl GroundingSolution {
    /// Leakage current per unit length normalized to unit GPR (A/m/V).
    pub fn unit_leakage(&self) -> Vec<f64> {
        self.leakage.iter().map(|q| q / self.gpr).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{Formulation, SolverChoice};
    use layerbem_geometry::conductor::ground_rod;
    use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
    use layerbem_geometry::{ConductorNetwork, MeshOptions, Mesher, Point3};

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
    }

    /// `prepare()` + one GPR scenario — what most tests here ask.
    fn solve_gpr(sys: &GroundingSystem, gpr: f64) -> GroundingSolution {
        sys.prepare()
            .expect("prepare")
            .solve(&Scenario::gpr(gpr))
            .expect("solve")
    }

    fn rod_mesh(n_elems: usize) -> Mesh {
        let mut net = ConductorNetwork::new();
        net.add(ground_rod(Point3::new(0.0, 0.0, 0.5), 3.0, 0.007));
        Mesher::new(MeshOptions {
            max_element_length: 3.0 / n_elems as f64 + 1e-9,
        })
        .mesh(&net)
    }

    #[test]
    fn single_rod_matches_classical_formula() {
        // Classical driven-rod resistance (Dwight/Sunde, buried rod top
        // near the surface): R ≈ (ρ/2πL)·[ln(4L/a) − 1] for a rod whose
        // top reaches the surface. Our rod starts at 0.5 m, so compare
        // against the BEM's own convergence rather than the exact formula:
        // the value must sit within ~15% of the classical estimate.
        let gamma = 0.02;
        let rho = 1.0 / gamma;
        let l = 3.0f64;
        let a = 0.007;
        let classical = rho / (2.0 * std::f64::consts::PI * l) * ((4.0 * l / a).ln() - 1.0);
        let sys = GroundingSystem::new(
            rod_mesh(6),
            &SoilModel::uniform(gamma),
            SolveOptions::default(),
        );
        let sol = solve_gpr(&sys, 1.0);
        let r = sol.equivalent_resistance;
        assert!(
            (r - classical).abs() < 0.15 * classical,
            "BEM {r} vs classical {classical}"
        );
    }

    #[test]
    fn refinement_converges() {
        // Req under mesh refinement: successive differences shrink.
        let gamma = 0.02;
        let mut rs = Vec::new();
        for n in [2usize, 4, 8, 16] {
            let sys = GroundingSystem::new(
                rod_mesh(n),
                &SoilModel::uniform(gamma),
                SolveOptions::default(),
            );
            rs.push(solve_gpr(&sys, 1.0).equivalent_resistance);
        }
        let d1 = (rs[1] - rs[0]).abs();
        let d2 = (rs[2] - rs[1]).abs();
        let d3 = (rs[3] - rs[2]).abs();
        assert!(d2 < d1 && d3 < d2, "{rs:?}");
    }

    #[test]
    fn gpr_scales_current_not_resistance() {
        let sys = GroundingSystem::new(
            rod_mesh(4),
            &SoilModel::uniform(0.02),
            SolveOptions::default(),
        );
        let a = solve_gpr(&sys, 1.0);
        let b = solve_gpr(&sys, 10_000.0);
        assert!(close(
            a.equivalent_resistance,
            b.equivalent_resistance,
            1e-12
        ));
        assert!(close(b.total_current, 10_000.0 * a.total_current, 1e-12));
        assert!(close(b.leakage[0], 10_000.0 * a.leakage[0], 1e-12));
    }

    #[test]
    fn solvers_agree() {
        let mesh = rod_mesh(5);
        let soil = SoilModel::uniform(0.016);
        let mut results = Vec::new();
        for solver in [
            SolverChoice::ConjugateGradient,
            SolverChoice::Cholesky,
            SolverChoice::Lu,
        ] {
            let sys = GroundingSystem::new(
                mesh.clone(),
                &soil,
                SolveOptions {
                    solver,
                    ..Default::default()
                },
            );
            results.push(solve_gpr(&sys, 1.0).equivalent_resistance);
        }
        assert!(close(results[0], results[1], 1e-8));
        assert!(close(results[1], results[2], 1e-10));
    }

    #[test]
    fn pooled_pcg_solve_is_identical_to_serial() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let serial = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
        let report = serial.assemble();
        let solve_report = |sys: &GroundingSystem| {
            sys.prepare_assembled(&report)
                .expect("prepare")
                .solve(&Scenario::gpr(1.0))
                .expect("solve")
        };
        let a = solve_report(&serial);
        for threads in [2, 4] {
            let opts = SolveOptions::default()
                .with_parallelism(ThreadPool::new(threads), Schedule::dynamic(2));
            let pooled = GroundingSystem::new(mesh.clone(), &soil, opts);
            let b = solve_report(&pooled);
            // The pooled assembly is bit-identical and PCG is serial, so
            // the whole Krylov trajectory — iterate count included —
            // reproduces exactly.
            assert_eq!(
                a.solver_iterations, b.solver_iterations,
                "threads={threads}"
            );
            assert_eq!(a.leakage, b.leakage, "threads={threads}");
            assert_eq!(a.equivalent_resistance, b.equivalent_resistance);
        }
    }

    #[test]
    fn pooled_direct_solvers_agree_with_serial() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let mesh = rod_mesh(6);
        let soil = SoilModel::uniform(0.02);
        for solver in [SolverChoice::Cholesky, SolverChoice::Lu] {
            let base = SolveOptions {
                solver,
                ..Default::default()
            };
            let serial = solve_gpr(&GroundingSystem::new(mesh.clone(), &soil, base), 1.0);
            let opts = base.with_parallelism(ThreadPool::new(3), Schedule::static_blocked());
            let pooled_sys = GroundingSystem::new(mesh.clone(), &soil, opts);
            let pooled = solve_gpr(&pooled_sys, 1.0);
            assert!(
                close(
                    serial.equivalent_resistance,
                    pooled.equivalent_resistance,
                    1e-12
                ),
                "{solver:?}: {} vs {}",
                serial.equivalent_resistance,
                pooled.equivalent_resistance
            );
        }
    }

    #[test]
    fn pooled_collocation_solve_is_identical_to_serial() {
        use layerbem_parfor::{Schedule, ThreadPool};
        // Pooled assembler + blocked pooled LU are each bit-identical, so
        // the whole collocation pipeline reproduces the serial solution
        // exactly — not approximately.
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let base = SolveOptions {
            formulation: Formulation::Collocation,
            ..Default::default()
        };
        let serial = solve_gpr(&GroundingSystem::new(mesh.clone(), &soil, base), 1.0);
        for threads in [2, 4] {
            let opts = base.with_parallelism(ThreadPool::new(threads), Schedule::guided(1));
            let sys = GroundingSystem::new(mesh.clone(), &soil, opts);
            let pooled = solve_gpr(&sys, 1.0);
            assert_eq!(serial.leakage, pooled.leakage, "threads={threads}");
            assert_eq!(
                serial.equivalent_resistance, pooled.equivalent_resistance,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn collocation_agrees_with_galerkin_roughly() {
        // Different weightings converge to the same physics; on a modest
        // mesh they should agree within a few percent.
        let mesh = rod_mesh(8);
        let soil = SoilModel::uniform(0.016);
        let collocation = SolveOptions {
            formulation: Formulation::Collocation,
            ..Default::default()
        };
        let galerkin = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
        let galerkin = solve_gpr(&galerkin, 1.0);
        let colloc = solve_gpr(&GroundingSystem::new(mesh, &soil, collocation), 1.0);
        assert!(
            close(
                galerkin.equivalent_resistance,
                colloc.equivalent_resistance,
                0.05
            ),
            "galerkin {} vs collocation {}",
            galerkin.equivalent_resistance,
            colloc.equivalent_resistance
        );
    }

    #[test]
    fn resistive_upper_layer_raises_resistance() {
        // The Barberá §5.1 effect: the two-layer model with a resistive
        // top layer gives higher Req than the uniform lower-layer model.
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 2,
            ny: 2,
            depth: 0.8,
            radius: 0.006,
        });
        let mesh = Mesher::default().mesh(&net);
        let solve = |soil: SoilModel| {
            let sys = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
            solve_gpr(&sys, 10_000.0)
        };
        let uni = solve(SoilModel::uniform(0.016));
        let two = solve(SoilModel::two_layer(0.005, 0.016, 1.0));
        assert!(
            two.equivalent_resistance > uni.equivalent_resistance,
            "two-layer {} vs uniform {}",
            two.equivalent_resistance,
            uni.equivalent_resistance
        );
        assert!(two.total_current < uni.total_current);
    }

    #[test]
    fn leakage_is_positive_everywhere_on_simple_grids() {
        // A convex grid energized positively must leak outward from every
        // node.
        let sys = GroundingSystem::new(
            rod_mesh(6),
            &SoilModel::uniform(0.02),
            SolveOptions::default(),
        );
        let sol = solve_gpr(&sys, 1.0);
        assert!(sol.leakage.iter().all(|&q| q > 0.0), "{:?}", sol.leakage);
    }

    #[test]
    fn end_effect_shows_higher_leakage_at_extremities() {
        // Classic BEM result: current density peaks at conductor ends.
        let mut net = ConductorNetwork::new();
        net.add(layerbem_geometry::Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(20.0, 0.0, 0.8),
            0.006,
        ));
        let mesh = Mesher::new(MeshOptions {
            max_element_length: 2.0,
        })
        .mesh(&net);
        let sys = GroundingSystem::new(
            mesh.clone(),
            &SoilModel::uniform(0.016),
            SolveOptions::default(),
        );
        let sol = solve_gpr(&sys, 1.0);
        // Find end nodes (x = 0 and x = 20) and the middle node.
        let mut end_q = 0.0f64;
        let mut mid_q = f64::INFINITY;
        for (i, p) in mesh.nodes.iter().enumerate() {
            if p.x < 1e-9 || (p.x - 20.0).abs() < 1e-9 {
                end_q = end_q.max(sol.leakage[i]);
            }
            if (p.x - 10.0).abs() < 1.1 {
                mid_q = mid_q.min(sol.leakage[i]);
            }
        }
        assert!(end_q > 1.2 * mid_q, "end {end_q} vs mid {mid_q}");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_grid_rejected() {
        let mut net = ConductorNetwork::new();
        net.add(layerbem_geometry::Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(5.0, 0.0, 0.8),
            0.006,
        ));
        net.add(layerbem_geometry::Conductor::new(
            Point3::new(100.0, 0.0, 0.8),
            Point3::new(105.0, 0.0, 0.8),
            0.006,
        ));
        let mesh = Mesher::default().mesh(&net);
        GroundingSystem::new(mesh, &SoilModel::uniform(0.016), SolveOptions::default());
    }
}
