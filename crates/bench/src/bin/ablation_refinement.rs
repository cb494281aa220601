//! Ablation: segmentation-refinement convergence.
//!
//! The paper motivates its BEM by the failures of older engineering
//! methods: "some problems were reported such as … unrealistic results
//! when segmentation of conductors was increased" (§1, the APM anomaly
//! of Garret & Pruitt). A sound Galerkin BEM must instead *converge*
//! monotonically as conductors are subdivided. This binary sweeps the
//! discretization of a Barberá-like case and reports Req, dof and solve
//! cost per refinement level.

use layerbem_bench::{render_table, write_artifact};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::system::GroundingSystem;
use layerbem_geometry::grids;
use layerbem_geometry::{MeshOptions, Mesher};
use layerbem_soil::SoilModel;

fn main() {
    let net = grids::barbera();
    let soil = SoilModel::uniform(0.016);
    let mut rows = Vec::new();
    let mut prev_req: Option<f64> = None;
    let mut prev_delta: Option<f64> = None;
    let mut csv = String::from("max_len,elements,dof,req,delta\n");
    for max_len in [8.0f64, 5.0, 3.5, 2.5, 1.8] {
        let mesh = Mesher::new(MeshOptions {
            max_element_length: max_len,
        })
        .mesh(&net);
        let t0 = std::time::Instant::now();
        let sys = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());
        let sol = sys
            .prepare()
            .expect("prepare")
            .solve(&layerbem_core::study::Scenario::gpr(10_000.0))
            .expect("solve");
        let secs = t0.elapsed().as_secs_f64();
        let delta = prev_req.map(|p| (sol.equivalent_resistance - p).abs());
        rows.push(vec![
            format!("{max_len:.1}"),
            mesh.element_count().to_string(),
            mesh.dof().to_string(),
            format!("{:.5}", sol.equivalent_resistance),
            delta
                .map(|d| format!("{d:.5}"))
                .unwrap_or_else(|| "—".into()),
            format!("{secs:.2}"),
        ]);
        csv.push_str(&format!(
            "{max_len},{},{},{:.6},{}\n",
            mesh.element_count(),
            mesh.dof(),
            sol.equivalent_resistance,
            delta.map(|d| format!("{d:.6}")).unwrap_or_default()
        ));
        if let (Some(d), Some(pd)) = (delta, prev_delta) {
            // pd == 0 happens when two caps produce the same mesh (all
            // elements already shorter); only a *growing* nonzero delta
            // indicates divergence.
            assert!(
                pd == 0.0 || d < pd * 1.5,
                "refinement diverging: Δ {d} after Δ {pd} — the APM anomaly!"
            );
        }
        if delta != Some(0.0) {
            prev_delta = delta;
        }
        prev_req = Some(sol.equivalent_resistance);
    }
    let table = render_table(
        &[
            "max elem (m)",
            "elements",
            "dof",
            "Req (Ω)",
            "|ΔReq|",
            "time (s)",
        ],
        &rows,
    );
    println!("{table}");
    println!(
        "Convergence check: |ΔReq| must shrink with refinement — the Galerkin\n\
         BEM is free of the \"unrealistic results when segmentation … was\n\
         increased\" anomaly of the older methods the paper cites."
    );
    write_artifact("ablation_refinement.csv", &csv);
    write_artifact("ablation_refinement.txt", &table);
}
