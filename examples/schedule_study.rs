//! The paper's §6 parallelization study in miniature: run the Barberá
//! two-layer matrix generation under every OpenMP-style schedule on the
//! real thread pool, then replay the measured task profile on simulated
//! processor counts the host does not have.
//!
//! ```sh
//! cargo run --release --example schedule_study
//! ```

use layerbem::parfor::sim::simulate_inner_loop;
use layerbem::prelude::*;

fn main() {
    let mesh = Mesher::default().mesh(&barbera());
    let soil = SoilModel::two_layer(0.005, 0.016, 1.0);
    let system = GroundingSystem::new(mesh.clone(), &soil, SolveOptions::default());

    // --- Real execution on this machine's threads. -----------------------
    let pool = ThreadPool::with_available_parallelism();
    println!(
        "running matrix generation on {} real thread(s)…",
        pool.threads()
    );
    let schedules = [
        Schedule::static_blocked(),
        Schedule::static_chunk(16),
        Schedule::dynamic(1),
        Schedule::guided(1),
    ];
    for schedule in schedules {
        let pooled = GroundingSystem::new(
            mesh.clone(),
            &soil,
            SolveOptions::default().with_parallelism(pool, schedule),
        );
        let t0 = std::time::Instant::now();
        let report = pooled.assemble();
        let secs = t0.elapsed().as_secs_f64();
        let stats = report.stats;
        println!(
            "  {:<12} {:.2} s  chunks dispatched: {:<4} imbalance: {:.2}  idle threads: {}",
            schedule.label(),
            secs,
            stats.total_chunks(),
            stats.imbalance(),
            stats.idle_threads()
        );
    }

    // --- Simulated Origin-2000-style scaling from the column profile. ---
    // Series terms per column give the tasks' shape: they count every
    // pair the paper's loop integrates, where the engine integrates each
    // class of congruent pairs once and a column has no time of its own.
    // Scaled to the measured kernel seconds, so the simulator's overheads
    // keep their unit.
    println!("\nmeasuring sequential per-column costs for the simulator…");
    let report = system.assemble();
    let per_term = report.cost.kernel_seconds / report.total_terms() as f64;
    let costs: Vec<f64> = report
        .column_terms
        .iter()
        .map(|&t| t as f64 * per_term)
        .collect();
    let m = costs.len();
    println!(
        "  {} columns, total {:.2} s (column sizes decrease linearly — the\n\
         \u{20} paper's load-imbalance driver)\n",
        m,
        costs.iter().sum::<f64>()
    );

    println!("simulated speed-ups (outer loop):");
    println!("  P     Static  Dynamic,1  Guided,1  Dynamic,64");
    for p in [2usize, 4, 8, 16, 32, 64] {
        let s = |sch: Schedule| simulate(&costs, p, sch, SimOverheads::default()).speedup();
        println!(
            "  {p:<4}  {:>6.2}  {:>9.2}  {:>8.2}  {:>10.2}",
            s(Schedule::static_blocked()),
            s(Schedule::dynamic(1)),
            s(Schedule::guided(1)),
            s(Schedule::dynamic(64)),
        );
    }

    // Outer vs inner granularity (Fig 6.1).
    let inner: Vec<Vec<f64>> = costs
        .iter()
        .enumerate()
        .map(|(beta, &c)| vec![c / (m - beta) as f64; m - beta])
        .collect();
    let p = 32;
    let outer32 = simulate(&costs, p, Schedule::dynamic(1), SimOverheads::default());
    let inner32 = simulate_inner_loop(&inner, p, Schedule::dynamic(1), SimOverheads::default());
    println!(
        "\nouter vs inner loop at P = {p}: {:.1}× vs {:.1}× — \"results are better\n\
         when the outer loop is parallelized because the granularity is bigger\"",
        outer32.speedup(),
        inner32.speedup()
    );
}
