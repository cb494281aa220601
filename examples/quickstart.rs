//! Quickstart: analyze a small grounding grid in a two-layer soil.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use layerbem::prelude::*;

fn main() {
    // 1. Describe the electrode: a 20 m × 20 m grid of 2×2 cells of bare
    //    copper conductor (∅12 mm), buried 0.8 m deep, plus a ground rod
    //    at each corner.
    let mut network = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 20.0,
        height: 20.0,
        nx: 2,
        ny: 2,
        depth: 0.8,
        radius: 0.006,
    });
    for (x, y) in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)] {
        network.add(layerbem::geometry::conductor::ground_rod(
            Point3::new(x, y, 0.8),
            2.0,
            0.007,
        ));
    }

    // 2. Discretize the conductor axes into boundary elements.
    let mesh = Mesher::new(MeshOptions {
        max_element_length: 5.0,
    })
    .mesh(&network);
    println!(
        "mesh: {} elements, {} degrees of freedom",
        mesh.element_count(),
        mesh.dof()
    );

    // 3. Soil model: 1 m of poor topsoil over a conductive substratum.
    let soil = SoilModel::two_layer(0.005, 0.016, 1.0);

    // 4. Prepare once (assembly + factorization), then solve scenarios.
    let system = GroundingSystem::new(mesh, &soil, SolveOptions::default());
    let study = system.prepare().expect("well-posed system");
    let solution = study.solve(&Scenario::gpr(10_000.0)).expect("solve");
    println!(
        "equivalent resistance: {:.4} Ω",
        solution.equivalent_resistance
    );
    println!(
        "total fault current:   {:.2} kA",
        solution.total_current / 1000.0
    );

    // 5. Surface potentials along a walk across the yard.
    let pool = ThreadPool::with_available_parallelism();
    let map = PotentialMap::compute(
        system.mesh(),
        system.kernel(),
        &solution,
        &MapSpec {
            x_range: (-10.0, 30.0),
            y_range: (10.0, 10.0 + 1e-9),
            nx: 9,
            ny: 2,
        },
        &pool,
        Schedule::dynamic(1),
    );
    println!("\nsurface potential across y = 10 m:");
    for (i, x) in map.xs.iter().enumerate() {
        println!("  x = {x:>6.1} m: {:>8.1} V", map.at(i, 0));
    }

    // 6. Check IEEE Std 80 safety limits for a 0.5 s fault.
    let criteria = SafetyCriteria {
        fault_duration: 0.5,
        body_weight: BodyWeight::Kg50,
        soil_resistivity: 1.0 / 0.005,
        surface_layer: Some(SurfaceLayer {
            resistivity: 3000.0,
            thickness: 0.1,
        }),
    };
    let extrema = voltage_extrema(&map, solution.gpr);
    let assessment = SafetyAssessment::evaluate(extrema.touch, extrema.step, &criteria);
    println!(
        "\ntouch {:.0} V (limit {:.0} V), step {:.0} V (limit {:.0} V) → {}",
        assessment.touch,
        assessment.touch_limit,
        assessment.step,
        assessment.step_limit,
        if assessment.is_safe() {
            "SAFE"
        } else {
            "NOT SAFE"
        }
    );
}
