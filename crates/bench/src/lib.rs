//! # layerbem-bench
//!
//! The paper-reproduction drivers: they regenerate **every table and
//! figure** of the paper's evaluation. One binary per artifact:
//!
//! | target | paper artifact |
//! |--------|----------------|
//! | `example1_barbera` | §5.1 scalars (Req, IΓ, uniform vs two-layer) + Fig 5.1 plan CSV |
//! | `fig5_2_barbera_potentials` | Fig 5.2 surface-potential maps |
//! | `table5_1_balaidos` | Table 5.1 (models A/B/C) + Fig 5.3 plan CSV |
//! | `fig5_4_balaidos_potentials` | Fig 5.4 surface-potential maps |
//! | `table6_1_phase_times` | Table 6.1 per-phase CPU time |
//! | `fig6_1_outer_vs_inner` | Fig 6.1 outer- vs inner-loop speed-up |
//! | `table6_2_schedules` | Table 6.2 schedule × chunk × processors |
//! | `table6_3_balaidos_scaling` | Table 6.3 per-model scaling |
//! | `table_memory_modes` | §6.2's "approximately twice the memory space": the paper's staged scheme ([`staged`]) vs the production pooled engine, both asserted bit-identical to the one-thread run |
//!
//! Each binary prints the regenerated rows next to the paper's published
//! values and writes machine-readable output under `results/` of the
//! directory it is run from.
//!
//! Timing the program is not this crate's job: the repository's one
//! benchmark is the frozen `benchmark/` package that `BENCHMARK.json`
//! declares, and what must always hold is asserted by the test suites.

use std::path::PathBuf;

use layerbem_core::assembly::AssemblyReport;
use layerbem_core::formulation::SolveOptions;
use layerbem_core::system::{GroundingSolution, GroundingSystem};
use layerbem_geometry::grids;
use layerbem_geometry::{Mesh, Mesher};
use layerbem_serve::Json;
use layerbem_soil::SoilModel;

pub use layerbem_cad::report::render_table;

pub mod staged;

/// The soil models of the paper's evaluation.
pub mod soils {
    use layerbem_soil::SoilModel;

    /// Barberá uniform model: γ = 0.016 (Ω·m)⁻¹.
    pub fn barbera_uniform() -> SoilModel {
        SoilModel::uniform(0.016)
    }

    /// Barberá two-layer model: γ1 = 0.005, γ2 = 0.016, H = 1.0 m.
    pub fn barbera_two_layer() -> SoilModel {
        SoilModel::two_layer(0.005, 0.016, 1.0)
    }

    /// Balaidos model A: uniform γ = 0.020.
    pub fn balaidos_a() -> SoilModel {
        SoilModel::uniform(0.020)
    }

    /// Balaidos model B: γ1 = 0.0025, γ2 = 0.020, H = 0.7 m (all
    /// electrodes below the interface).
    pub fn balaidos_b() -> SoilModel {
        SoilModel::two_layer(0.0025, 0.020, 0.7)
    }

    /// Balaidos model C: γ1 = 0.0025, γ2 = 0.020, H = 1.0 m (electrodes
    /// straddle the interface).
    pub fn balaidos_c() -> SoilModel {
        SoilModel::two_layer(0.0025, 0.020, 1.0)
    }
}

/// Paper-published reference values, for side-by-side output.
pub mod paper {
    /// §5.1: (Req Ω, IΓ kA) for the uniform Barberá model.
    pub const BARBERA_UNIFORM: (f64, f64) = (0.3128, 31.97);
    /// §5.1: (Req Ω, IΓ kA) for the two-layer Barberá model.
    pub const BARBERA_TWO_LAYER: (f64, f64) = (0.3704, 26.99);
    /// Table 5.1 rows: (model, Req Ω, IΓ kA).
    pub const TABLE_5_1: [(&str, f64, f64); 3] = [
        ("A", 0.3366, 29.71),
        ("B", 0.3522, 28.39),
        ("C", 0.4860, 20.58),
    ];
    /// Table 6.1 rows: (phase, seconds) on the Origin 2000.
    pub const TABLE_6_1: [(&str, f64); 5] = [
        ("Data Input", 0.737),
        ("Data Preprocessing", 0.045),
        ("Matrix Generation", 1723.207),
        ("Linear System Solving", 0.211),
        ("Resuts Storage", 0.015),
    ];
    /// Table 6.2: speed-ups for (schedule label, [P=1, 2, 4, 8]).
    pub const TABLE_6_2: [(&str, [f64; 4]); 13] = [
        ("Static", [1.01, 1.32, 2.32, 4.38]),
        ("Static,64", [1.02, 1.76, 1.86, 3.55]),
        ("Static,16", [1.02, 1.94, 3.59, 6.23]),
        ("Static,4", [1.01, 2.01, 3.96, 7.36]),
        ("Static,1", [1.02, 2.03, 4.03, 7.99]),
        ("Dynamic,64", [1.02, 2.02, 3.56, 3.55]),
        ("Dynamic,16", [1.02, 2.02, 4.08, 7.87]),
        ("Dynamic,4", [1.01, 2.04, 3.99, 7.90]),
        ("Dynamic,1", [1.02, 2.03, 4.09, 8.05]),
        ("Guided,64", [1.02, 1.97, 3.56, 3.56]),
        ("Guided,16", [1.02, 1.99, 3.96, 8.03]),
        ("Guided,4", [1.02, 2.01, 4.11, 7.93]),
        ("Guided,1", [1.02, 2.07, 3.95, 8.38]),
    ];
    /// Table 6.3: (model, [CPU s at P=1, 2, 4, 8]) — speed-ups in the
    /// paper were 1 / 1.98–2.03 / 3.98 / 8.05–8.28.
    pub const TABLE_6_3: [(&str, [f64; 4]); 3] = [
        ("A", [2.44, f64::NAN, f64::NAN, f64::NAN]),
        ("B", [81.26, 40.85, 20.41, 10.09]),
        ("C", [443.28, 218.10, 111.38, 53.53]),
    ];
}

/// Discretized Barberá grid (408 elements, 238 dof).
pub fn barbera_mesh() -> Mesh {
    Mesher::default().mesh(&grids::barbera())
}

/// Discretized Balaidos grid (241 elements).
pub fn balaidos_mesh() -> Mesh {
    Mesher::default().mesh(&grids::balaidos())
}

/// Assembles and solves a case sequentially; returns the system, the
/// assembly report (with the column cost profile) and the solution.
pub fn solve_case(
    mesh: Mesh,
    soil: &SoilModel,
    gpr: f64,
) -> (GroundingSystem, AssemblyReport, GroundingSolution) {
    let system = GroundingSystem::new(mesh, soil, SolveOptions::default());
    let report = system.assemble();
    let solution = system
        .prepare_assembled(&report)
        .expect("prepare")
        .solve(&layerbem_core::study::Scenario::gpr(gpr))
        .expect("solve");
    (system, report, solution)
}

/// The results directory: `results/` under the directory the driver is
/// run from (CI and the README run drivers from the repository root),
/// created on demand. Resolved at run time, so a binary never writes into
/// the tree it happened to be compiled in.
pub fn results_dir() -> PathBuf {
    let dir = std::env::current_dir()
        .expect("current directory is readable")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes an artifact file under `results/` and reports the path.
pub fn write_artifact(name: &str, content: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write artifact");
    println!("[wrote {}]", path.display());
    path
}

/// One machine-readable timed row of a driver's JSON artifact
/// (`table_memory_modes --json`): which grid, which assembly mode, which
/// schedule, how many threads, how long, and how many series terms the
/// run consumed (the deterministic, machine-independent work proxy that
/// lets two runs be compared for *equal work* before their wall clocks
/// are compared for speed).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Grid label (`tiny 2x2 yard`, `Barbera`, …).
    pub grid: String,
    /// Assembly mode label (`sequential`, `class-first`, `staged-outer`, …).
    pub mode: String,
    /// Schedule label in the paper's notation (`Dynamic,1`, …).
    pub schedule: String,
    /// Worker threads of the run (1 for sequential).
    pub threads: usize,
    /// Best observed wall-clock seconds.
    pub wall_seconds: f64,
    /// Total series terms consumed (identical across modes by the
    /// bit-identity guarantee; recorded so the artifact proves it).
    pub series_terms: u64,
}

impl BenchRecord {
    /// A row from its columns.
    pub fn new(
        grid: impl Into<String>,
        mode: impl Into<String>,
        schedule: impl Into<String>,
        threads: usize,
        wall_seconds: f64,
        series_terms: u64,
    ) -> Self {
        BenchRecord {
            grid: grid.into(),
            mode: mode.into(),
            schedule: schedule.into(),
            threads,
            wall_seconds,
            series_terms,
        }
    }
}

/// Renders benchmark records as a JSON array, one row object per line,
/// through the workspace's one JSON writer ([`layerbem_serve::Json`]).
pub fn bench_records_json(records: &[BenchRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            let row = vec![
                ("grid", Json::str(r.grid.as_str())),
                ("mode", Json::str(r.mode.as_str())),
                ("schedule", Json::str(r.schedule.as_str())),
                ("threads", Json::Num(r.threads as f64)),
                ("wall_seconds", Json::Num(r.wall_seconds)),
                ("series_terms", Json::Num(r.series_terms as f64)),
            ];
            format!("  {}", Json::obj(row).to_line())
        })
        .collect();
    match rows.as_slice() {
        [] => "[\n]\n".to_string(),
        rows => format!("[\n{}\n]\n", rows.join(",\n")),
    }
}

/// Writes benchmark records as a JSON artifact under `results/`.
pub fn write_bench_json(name: &str, records: &[BenchRecord]) -> PathBuf {
    write_artifact(name, &bench_records_json(records))
}

/// Formats a relative deviation as a percentage string.
pub fn pct_dev(ours: f64, paper: f64) -> String {
    format!("{:+.1}%", 100.0 * (ours - paper) / paper)
}

/// Writes a grid-plan CSV (`x0,y0,x1,y1` per conductor) for plotting the
/// Fig 5.1 / Fig 5.3 layouts.
pub fn plan_csv(net: &layerbem_geometry::ConductorNetwork) -> String {
    let mut s = String::from("x0,y0,x1,y1,is_rod\n");
    for c in net.conductors() {
        s.push_str(&format!(
            "{},{},{},{},{}\n",
            c.axis.a.x,
            c.axis.a.y,
            c.axis.b.x,
            c.axis.b.y,
            u8::from(c.is_vertical())
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meshes_match_paper_counts() {
        assert_eq!(barbera_mesh().element_count(), 408);
        assert_eq!(barbera_mesh().dof(), 238);
        assert_eq!(balaidos_mesh().element_count(), 241);
    }

    #[test]
    fn results_dir_is_under_the_current_directory() {
        let cwd = std::env::current_dir().expect("current directory is readable");
        let dir = results_dir();
        assert_eq!(dir, cwd.join("results"));
        assert!(dir.is_dir());
    }

    #[test]
    fn pct_dev_formats() {
        assert_eq!(pct_dev(1.1, 1.0), "+10.0%");
        assert_eq!(pct_dev(0.95, 1.0), "-5.0%");
    }

    #[test]
    fn bench_records_render_as_json_rows() {
        let rows = vec![
            BenchRecord::new(
                "tiny 2x2 yard",
                "class-first",
                "Dynamic,1",
                4,
                0.012345,
                98765,
            ),
            BenchRecord::new("tiny \"q\" yard", "staged-outer", "Static", 1, 1.5, 7),
        ];
        let json = bench_records_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"mode\":\"class-first\""));
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"wall_seconds\":0.012345"));
        assert!(json.contains("\"series_terms\":98765"));
        // Quotes in labels are escaped; exactly one separating comma;
        // the document parses back with every row and key in order.
        assert!(json.contains("tiny \\\"q\\\" yard"));
        assert_eq!(json.matches("},").count(), 1);
        let parsed = Json::parse(&json).expect("artifact is JSON");
        let rows = parsed.as_arr().expect("array of rows");
        assert_eq!(
            rows[0].get("grid").and_then(Json::as_str),
            Some("tiny 2x2 yard")
        );
        // The exact key order of both rows.
        for row in rows {
            let keys = match row {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                other => panic!("row is not an object: {other:?}"),
            };
            assert_eq!(
                keys.join(" "),
                "grid mode schedule threads wall_seconds series_terms"
            );
        }
        assert_eq!(bench_records_json(&[]), "[\n]\n");
    }

    #[test]
    fn plan_csv_has_one_row_per_conductor() {
        let net = grids::balaidos();
        let csv = plan_csv(&net);
        assert_eq!(csv.trim().lines().count(), 1 + net.len());
        assert!(csv.contains(",1\n")); // rods flagged
    }
}
