//! Paper Table 6.2: speed-up of the Barberá two-layer matrix generation
//! for every OpenMP schedule × chunk × processor-count combination, outer
//! loop parallelization.
//!
//! Measured per-column costs replayed on the deterministic schedule
//! simulator (DESIGN.md §4). The costs come from the staged harness's
//! one-thread outer loop, which integrates every pair like the paper's
//! loop: the production engine's pair memo makes a column's time depend
//! on what earlier columns left in its table. The paper's findings to reproduce:
//! plain `Static` is the worst (the triangle's columns shrink linearly,
//! so blocked assignment is imbalanced); high chunks starve processors
//! (`Static,64` / `Dynamic,64` / `Guided,64` collapse at P = 8);
//! `Dynamic,1` and the `Guided` family are near-ideal.

use layerbem_bench::staged::{assemble_staged, StagedLoop};
use layerbem_bench::{paper, render_table, soils, write_artifact};
use layerbem_core::kernel::SoilKernel;
use layerbem_parfor::sim::{simulate, SimOverheads};
use layerbem_parfor::{Schedule, ThreadPool};

fn main() {
    let mesh = layerbem_bench::barbera_mesh();
    println!(
        "Measuring per-column costs of the Barberá two-layer assembly ({} columns)…",
        mesh.element_count()
    );
    let kernel = SoilKernel::new(&soils::barbera_two_layer());
    let one = ThreadPool::new(1);
    let report = assemble_staged(
        &mesh,
        &kernel,
        &one,
        Schedule::dynamic(1),
        StagedLoop::Outer,
    );
    let costs = report.column_seconds;
    println!(
        "sequential matrix generation: {:.2} s\n",
        costs.iter().sum::<f64>()
    );

    let schedules: Vec<(String, Schedule)> = {
        let mut v = vec![("Static".to_string(), Schedule::static_blocked())];
        for &c in &[64usize, 16, 4, 1] {
            v.push((format!("Static,{c}"), Schedule::static_chunk(c)));
        }
        for &c in &[64usize, 16, 4, 1] {
            v.push((format!("Dynamic,{c}"), Schedule::dynamic(c)));
        }
        for &c in &[64usize, 16, 4, 1] {
            v.push((format!("Guided,{c}"), Schedule::guided(c)));
        }
        v
    };
    let procs = [1usize, 2, 4, 8];
    let over = SimOverheads::default();

    let mut rows = Vec::new();
    let mut csv = String::from("schedule,p1,p2,p4,p8\n");
    for (label, schedule) in &schedules {
        let speedups: Vec<f64> = procs
            .iter()
            .map(|&p| simulate(&costs, p, *schedule, over).speedup())
            .collect();
        let paper_row = paper::TABLE_6_2.iter().find(|(l, _)| l == label);
        let mut row = vec![label.clone()];
        for (i, s) in speedups.iter().enumerate() {
            row.push(format!("{s:.2}"));
            row.push(
                paper_row
                    .map(|(_, ps)| format!("({:.2})", ps[i]))
                    .unwrap_or_default(),
            );
        }
        rows.push(row);
        csv.push_str(&format!(
            "{label},{:.3},{:.3},{:.3},{:.3}\n",
            speedups[0], speedups[1], speedups[2], speedups[3]
        ));
    }
    let table = render_table(
        &[
            "Schedule", "P=1", "(paper)", "P=2", "(paper)", "P=4", "(paper)", "P=8", "(paper)",
        ],
        &rows,
    );
    println!("{table}");
    println!(
        "Table 6.2 checks: Static (blocked) worst at P=8; chunk-64 rows collapse\n\
         (idle processors: only ⌈408/64⌉ = 7 chunks); Dynamic,1 / Guided,* ≈ P."
    );
    write_artifact("table6_2_schedules.csv", &csv);
    write_artifact("table6_2_schedules.txt", &table);
}
