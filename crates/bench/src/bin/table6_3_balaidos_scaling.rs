//! Paper Table 6.3: Balaidos matrix-generation CPU time and speed-up for
//! soil models A (uniform), B and C (two-layer) on 1–8 processors, with
//! the `Dynamic,1` schedule over the outer loop.
//!
//! Reproduction targets: the *cost ordering* C ≫ B ≫ A — model B's
//! electrodes all sit in the lower layer while model C's straddle the
//! interface, forcing the mixed-layer kernels with more image families —
//! and near-linear speed-ups for the two-layer models. (Model A is so
//! cheap that the paper did not even parallelize it.)
//!
//! The per-column costs come from the staged harness's one-thread outer
//! loop, which integrates every pair like the paper's loop: the
//! production engine's pair memo makes a column's time depend on what
//! earlier columns left in its table.

use layerbem_bench::staged::{assemble_staged, StagedLoop};
use layerbem_bench::{paper, render_table, soils, write_artifact};
use layerbem_core::kernel::SoilKernel;
use layerbem_parfor::sim::{simulate, SimOverheads};
use layerbem_parfor::{Schedule, ThreadPool};

fn main() {
    let mesh = layerbem_bench::balaidos_mesh();
    println!(
        "Balaidos: {} elements. Measuring per-column costs per soil model…\n",
        mesh.element_count()
    );
    let procs = [1usize, 2, 4, 8];
    let over = SimOverheads::default();
    let schedule = Schedule::dynamic(1);

    let mut rows = Vec::new();
    let mut csv = String::from("model,p,cpu_seconds,speedup\n");
    for ((label, soil), (plabel, ptimes)) in [
        ("A", soils::balaidos_a()),
        ("B", soils::balaidos_b()),
        ("C", soils::balaidos_c()),
    ]
    .into_iter()
    .zip(paper::TABLE_6_3)
    {
        assert_eq!(label, plabel);
        let kernel = SoilKernel::new(&soil);
        let one = ThreadPool::new(1);
        let (_, costs) = assemble_staged(&mesh, &kernel, &one, schedule, StagedLoop::Outer);
        let seq: f64 = costs.iter().sum();
        let mut row = vec![label.to_string()];
        for (i, &p) in procs.iter().enumerate() {
            let r = simulate(&costs, p, schedule, over);
            let cpu = r.makespan;
            row.push(format!("{cpu:.3} ({:.2})", r.speedup()));
            let ptime = ptimes[i];
            row.push(if ptime.is_nan() {
                "—".to_string()
            } else {
                format!("{ptime:.2}")
            });
            csv.push_str(&format!("{label},{p},{cpu:.5},{:.3}\n", r.speedup()));
        }
        row.push(format!("{seq:.3}"));
        rows.push(row);
    }
    let table = render_table(
        &[
            "Model",
            "P=1 s (S)",
            "paper s",
            "P=2 s (S)",
            "paper s",
            "P=4 s (S)",
            "paper s",
            "P=8 s (S)",
            "paper s",
            "seq s",
        ],
        &rows,
    );
    println!("{table}");
    println!(
        "Table 6.3 checks: CPU time C ≫ B ≫ A at every P (paper: 443 / 81 / 2.4 s\n\
         at P=1); speed-ups ≈ P for the two-layer models (paper: 1.98–2.03,\n\
         3.98, 8.05–8.28). Absolute seconds differ from the 250 MHz R10000."
    );
    write_artifact("table6_3_balaidos_scaling.csv", &csv);
    write_artifact("table6_3_balaidos_scaling.txt", &table);
}
