//! From field survey to safe design: the full engineering workflow the
//! paper's introduction describes. The layer parameters the BEM needs
//! "must be experimentally obtained" (paper §2) — here we simulate a
//! Wenner sounding survey over the (unknown) true soil, invert it for a
//! two-layer model, and then design the grid against the fitted model.
//!
//! ```sh
//! cargo run --release --example site_characterization
//! ```

use layerbem::prelude::*;
use layerbem::soil::sounding::{invert_two_layer, wenner_apparent_resistivity, SoundingPoint};
use layerbem::soil::TwoLayerKernels;

fn main() {
    // --- 1. The "true" site (unknown to the engineer): 1.2 m of dry fill
    //        (250 Ω·m) over wet clay (55 Ω·m). --------------------------
    let truth = SoilModel::two_layer(1.0 / 250.0, 1.0 / 55.0, 1.2);
    let truth_kernel = TwoLayerKernels::new(&truth);

    // --- 2. Field campaign: Wenner readings at 10 spacings. -----------
    let spacings = [0.5, 0.8, 1.2, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 32.0];
    let survey: Vec<SoundingPoint> = spacings
        .iter()
        .map(|&a| SoundingPoint {
            spacing: a,
            rho_a: wenner_apparent_resistivity(&truth_kernel, a),
        })
        .collect();
    println!("Wenner survey (spacing m → apparent resistivity Ω·m):");
    for p in &survey {
        println!("  a = {:>5.1}  ρa = {:>6.1}", p.spacing, p.rho_a);
    }

    // --- 3. Invert for the two-layer model. ---------------------------
    let fit = invert_two_layer(&survey);
    println!(
        "\nfitted model: ρ1 = {:.1} Ω·m, ρ2 = {:.1} Ω·m, H = {:.2} m (rms {:.2e})",
        fit.rho1, fit.rho2, fit.thickness, fit.rms
    );
    println!("true model:   ρ1 = 250.0 Ω·m, ρ2 = 55.0 Ω·m, H = 1.20 m");

    // --- 4. Design the grid against the fitted model. -----------------
    let soil = fit.soil_model();
    let mut network = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 40.0,
        height: 30.0,
        nx: 4,
        ny: 3,
        depth: 0.8,
        radius: 0.006,
    });
    // Rods through the resistive fill into the conductive clay.
    for (x, y) in [
        (0.0, 0.0),
        (40.0, 0.0),
        (0.0, 30.0),
        (40.0, 30.0),
        (20.0, 10.0),
    ] {
        network.add(layerbem::geometry::conductor::ground_rod(
            Point3::new(x, y, 0.8),
            3.0,
            0.007,
        ));
    }
    let mesh = Mesher::new(MeshOptions {
        max_element_length: 10.0,
    })
    .mesh(&network);
    let system = GroundingSystem::new(mesh, &soil, SolveOptions::default());
    let solution = system
        .prepare()
        .expect("prepare")
        .solve(&Scenario::gpr(8_000.0))
        .expect("solve");
    println!(
        "\ndesign on fitted soil: Req = {:.3} Ω, IΓ = {:.2} kA at 8 kV GPR",
        solution.equivalent_resistance,
        solution.total_current / 1000.0
    );

    // --- 5. Verify the design against the *true* soil. ----------------
    let check = GroundingSystem::new(system.mesh().clone(), &truth, SolveOptions::default())
        .prepare()
        .expect("prepare")
        .solve(&Scenario::gpr(8_000.0))
        .expect("solve");
    let dev = 100.0 * (solution.equivalent_resistance - check.equivalent_resistance)
        / check.equivalent_resistance;
    println!(
        "same grid on true soil: Req = {:.3} Ω ({dev:+.2}% design error from the inversion)",
        check.equivalent_resistance
    );
}
