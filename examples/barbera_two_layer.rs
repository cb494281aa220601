//! The paper's Example 1 (§5.1) end-to-end: the Barberá substation
//! grounding grid analyzed in uniform and two-layer soil, with parallel
//! matrix generation.
//!
//! ```sh
//! cargo run --release --example barbera_two_layer
//! ```

use layerbem::prelude::*;

fn main() {
    // The reconstructed Barberá grid: a right-angled triangle of
    // 143 m × 89 m, 408 conductor segments (∅12.85 mm) buried 0.80 m
    // deep, discretized into 238 degrees of freedom.
    let grid = barbera();
    let mesh = Mesher::default().mesh(&grid);
    println!(
        "Barberá: {} conductors → {} elements, {} dof, {:.0} m of conductor",
        grid.len(),
        mesh.element_count(),
        mesh.dof(),
        grid.total_length()
    );

    let gpr = 10_000.0; // the paper's 10 kV ground potential rise
    let pool = ThreadPool::with_available_parallelism();
    let opts = SolveOptions::default().with_parallelism(pool, Schedule::dynamic(1));

    for (label, soil) in [
        ("uniform  γ = 0.016", SoilModel::uniform(0.016)),
        (
            "two-layer γ1 = 0.005, γ2 = 0.016, H = 1 m",
            SoilModel::two_layer(0.005, 0.016, 1.0),
        ),
    ] {
        let system = GroundingSystem::new(mesh.clone(), &soil, opts);
        let t0 = std::time::Instant::now();
        let report = system.assemble();
        let gen = t0.elapsed().as_secs_f64();
        let solution = system
            .prepare_assembled(&report)
            .expect("prepare")
            .solve(&Scenario::gpr(gpr))
            .expect("solve");
        println!("\nsoil: {label}");
        println!(
            "  matrix generation: {gen:.2} s on {} threads ({} series terms)",
            pool.threads(),
            report.total_terms()
        );
        println!(
            "  Req = {:.4} Ω   IΓ = {:.2} kA   (paper: 0.3128 Ω / 31.97 kA uniform,\n\
             \u{20}                                        0.3704 Ω / 26.99 kA two-layer)",
            solution.equivalent_resistance,
            solution.total_current / 1000.0
        );
        println!(
            "  PCG iterations: {} (diagonally preconditioned, dense SPD system)",
            solution.solver_iterations
        );
    }
}
