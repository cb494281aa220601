//! Paper Fig 6.1: speed-up of the Barberá two-layer matrix generation
//! when parallelizing the **outer** loop (columns of the element-pair
//! triangle, solid line) vs the **inner** loop (rows within each column,
//! dashed line), with schedule `Dynamic,1`, on 1–64 processors.
//!
//! The per-column task costs are *measured* from the staged harness's
//! sequential outer loop on this machine (every pair integrated, as in the
//! paper's loop — the production engine's pair memo would make a column's
//! time depend on the columns before it), then replayed on P simulated processors by
//! the deterministic schedule simulator (see `layerbem_parfor::sim` and
//! DESIGN.md §4 for why simulation is the faithful reproduction on hosts
//! without 64 CPUs). The paper's qualitative result — the outer loop
//! scales nearly linearly while the inner loop falls away as P grows,
//! because "the granularity is bigger in that way" — is the check.

use layerbem_bench::staged::{assemble_staged, StagedLoop};
use layerbem_bench::{render_table, soils, write_artifact};
use layerbem_core::kernel::SoilKernel;
use layerbem_parfor::sim::{simulate, simulate_inner_loop, SimOverheads};
use layerbem_parfor::{Schedule, ThreadPool};

fn main() {
    let mesh = layerbem_bench::barbera_mesh();
    let m = mesh.element_count();
    println!("Measuring per-column costs of the Barberá two-layer assembly ({m} columns)…");
    let kernel = SoilKernel::new(&soils::barbera_two_layer());
    let one = ThreadPool::new(1);
    let report = assemble_staged(
        &mesh,
        &kernel,
        &one,
        Schedule::dynamic(1),
        StagedLoop::Outer,
    );
    let outer_costs = report.column_seconds;
    let total: f64 = outer_costs.iter().sum();
    println!("sequential matrix generation: {total:.2} s over {m} columns\n");

    // Row costs within a column: the column cost spread uniformly over
    // its M−β pairs (pair costs within a column are near-uniform: same
    // kernel family mix, same series ratio).
    let inner_columns: Vec<Vec<f64>> = outer_costs
        .iter()
        .enumerate()
        .map(|(beta, &c)| vec![c / (m - beta) as f64; m - beta])
        .collect();

    let schedule = Schedule::dynamic(1);
    let over = SimOverheads::default();
    let procs = [1usize, 2, 4, 8, 16, 24, 32, 48, 64];
    let mut rows = Vec::new();
    let mut csv = String::from("processors,outer_speedup,inner_speedup\n");
    for &p in &procs {
        let outer = simulate(&outer_costs, p, schedule, over);
        let inner = simulate_inner_loop(&inner_columns, p, schedule, over);
        rows.push(vec![
            p.to_string(),
            format!("{:.2}", outer.speedup()),
            format!("{:.2}", inner.speedup()),
            format!("{:.2}", outer.speedup() / p as f64),
            format!("{:.2}", inner.speedup() / p as f64),
        ]);
        csv.push_str(&format!(
            "{p},{:.4},{:.4}\n",
            outer.speedup(),
            inner.speedup()
        ));
    }
    let table = render_table(
        &[
            "P",
            "outer speed-up",
            "inner speed-up",
            "outer eff.",
            "inner eff.",
        ],
        &rows,
    );
    println!("{table}");
    println!(
        "Fig 6.1 checks: outer ≥ inner everywhere; the gap widens with P\n\
         (\"this effect of granularity is, of course, more sensible when the\n\
         number of processors grows\")."
    );
    write_artifact("fig6_1_outer_vs_inner.csv", &csv);
    write_artifact("fig6_1_outer_vs_inner.txt", &table);
    // Gantt trace of the 8-processor outer-loop run: the per-processor
    // timeline makes the load balance of Dynamic,1 visible.
    let gantt = simulate(&outer_costs, 8, schedule, over);
    write_artifact("fig6_1_gantt_outer_p8.csv", &gantt.timeline_csv());
}
