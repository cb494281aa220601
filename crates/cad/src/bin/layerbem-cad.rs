//! Command-line grounding analysis: the CAD front-end of the paper's §5,
//! "developed for running in sequential mode (in conventional computers)
//! or in parallel mode (in parallel computers)".
//!
//! ```text
//! layerbem-cad [--deck] CASE.deck [--threads N] [--schedule KIND[,CHUNK]]
//!              [--operator dense|hmatrix] [--aca-tol T]
//!              [--gpr-sweep LO:HI:N] [--soil-sweep N:SEED[:SIGMA]]
//!              [--search-pitch LO:HI:N]
//!              [--map X0 X1 Y0 Y1 NX NY OUT.csv] [--timing]
//! ```
//!
//! `--gpr-sweep LO:HI:N` appends `N` linearly spaced prescribed-GPR
//! scenarios to the deck's sweep; together with the deck's own
//! `scenario` stanzas they are all answered from **one** prepared study
//! (one assembly, one factorization — the staged `prepare` API), with a
//! self-describing row per scenario in the report. Degenerate specs
//! (`N = 0`, backwards or non-positive ranges) are typed errors now, not
//! silently usage-rejected.
//!
//! `--soil-sweep N:SEED[:SIGMA]` (sigma defaults to 0.1) and
//! `--search-pitch LO:HI:N` select the richer workload shapes from the
//! command line, overriding any `sweep`/`search` stanza in the deck —
//! the same Monte-Carlo soil sweep and safety-driven pitch search the
//! deck stanzas describe (see the `layerbem-cad::input` deck grammar).
//!
//! `--threads` defaults to the machine's available parallelism (overridable
//! via the `LAYERBEM_THREADS` environment variable; `--threads 0` is a
//! usage error) and reaches the program through
//! [`SolveOptions::parallelism`]: matrix generation runs the class-first
//! assembler, which integrates each class of congruent pairs once on the
//! pool and scatters in pair order (for collocation decks, the
//! row-partitioned in-place collocation assembler), and the Cholesky/LU
//! factorizations run each panel's trailing update on the pool; PCG is
//! serial either way. One thread is a one-thread pool: every region runs
//! inline, and the serial double loop is only the tests' oracle. Every
//! configuration produces the same bits.
//!
//! `--operator hmatrix` switches the prepared Galerkin operator to the
//! hierarchical backend: near-field pairs assembled densely into a sparse
//! pattern, admissible far cluster pairs compressed by adaptive cross
//! approximation (`--aca-tol`, default 1e-8) and served to PCG through
//! the same operator trait. Dense stays the default and the accuracy
//! oracle; with `--timing`, a compressed run prints its compression
//! statistics (resident bytes, mean far rank, ratio vs the dense
//! triangle). Requires a Galerkin deck with the CG solver.
//!
//! With `--timing`, the run prints its phase table and kernel counters
//! (series terms, kernel seconds split out of matrix generation, lane
//! occupancy), and a `--map` prints its own line: seconds, points/s,
//! series terms and lane occupancy of the surface sweep.
//!
//! `--map` windows are checked at parse time (finite, `X0 < X1`,
//! `Y0 < Y1`, integer `NX`, `NY` ≥ 2): a bad window is a usage error
//! before the deck is read. The map is swept in tiles of 32 consecutive
//! samples, so for it `--schedule`'s chunk counts tiles, not samples.

use std::process::ExitCode;
use std::time::Instant;

use layerbem_cad::input::parse_case;
use layerbem_cad::pipeline::{run_pipeline, PipelineError};
use layerbem_core::formulation::{
    OperatorBackend, SolveOptions, DEFAULT_ACA_TOL, DEFAULT_LEAF_SIZE,
};
use layerbem_core::post::{MapSpec, PotentialMap};
use layerbem_core::system::GroundingSystem;
use layerbem_core::workload::Workload;
use layerbem_parfor::{Schedule, ThreadPool};

struct Args {
    deck: String,
    threads: usize,
    schedule: Schedule,
    /// `--operator hmatrix`: serve the Galerkin solve from the
    /// hierarchical (ACA-compressed) operator instead of the dense
    /// triangle.
    hmatrix: bool,
    /// ACA tolerance of the hierarchical backend (`--aca-tol`).
    aca_tol: f64,
    /// `--gpr-sweep LO:HI:N` as given; validated by the workload layer so
    /// degenerate specs become typed errors, not usage aborts.
    gpr_sweep: Option<(f64, f64, usize)>,
    /// `--soil-sweep N:SEED[:SIGMA]` — Monte-Carlo workload override.
    soil_sweep: Option<(usize, u64, f64)>,
    /// `--search-pitch LO:HI:N` — design-search workload override.
    search_pitch: Option<(f64, f64, usize)>,
    map: Option<(MapSpec, String)>,
    timing: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: layerbem-cad [--deck] CASE.deck [--threads N] [--schedule static|static,C|dynamic,C|guided,C]\n\
         \u{20}                [--operator dense|hmatrix] [--aca-tol T]\n\
         \u{20}                [--gpr-sweep LO:HI:N] [--soil-sweep N:SEED[:SIGMA]] [--search-pitch LO:HI:N]\n\
         \u{20}                [--map X0 X1 Y0 Y1 NX NY OUT.csv] [--timing]"
    );
    std::process::exit(2);
}

/// Splits `LO:HI:N` into its raw fields. Only the *shape* is parsed here
/// — the domain (positive, ordered, non-empty) is validated by the
/// workload constructors so the user sees a typed error naming the
/// problem instead of the generic usage text.
fn parse_range3(spec: &str) -> Option<(f64, f64, usize)> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [lo, hi, n] = parts.as_slice() else {
        return None;
    };
    Some((lo.parse().ok()?, hi.parse().ok()?, n.parse().ok()?))
}

/// Splits `N:SEED[:SIGMA]` for `--soil-sweep` (sigma defaults to 0.1).
fn parse_soil_sweep(spec: &str) -> Option<(usize, u64, f64)> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        [n, seed] => Some((n.parse().ok()?, seed.parse().ok()?, 0.1)),
        [n, seed, sigma] => Some((n.parse().ok()?, seed.parse().ok()?, sigma.parse().ok()?)),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut deck = None;
    // Default: every core the machine offers, honoring LAYERBEM_THREADS.
    let mut threads = ThreadPool::with_available_parallelism().threads();
    let mut schedule = Schedule::dynamic(1);
    let mut hmatrix = false;
    let mut aca_tol = DEFAULT_ACA_TOL;
    let mut gpr_sweep = None;
    let mut soil_sweep = None;
    let mut search_pitch = None;
    let mut map = None;
    let mut timing = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--deck" => {
                deck = Some(argv.next().unwrap_or_else(|| usage()));
            }
            "--threads" => {
                threads = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--schedule" => {
                schedule = argv
                    .next()
                    .as_deref()
                    .and_then(Schedule::parse)
                    .unwrap_or_else(|| usage());
            }
            "--operator" => {
                hmatrix = match argv.next().as_deref() {
                    Some("dense") => false,
                    Some("hmatrix") => true,
                    _ => usage(),
                };
            }
            "--aca-tol" => {
                aca_tol = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t > 0.0 && t.is_finite())
                    .unwrap_or_else(|| usage());
            }
            "--gpr-sweep" => {
                gpr_sweep = Some(
                    argv.next()
                        .as_deref()
                        .and_then(parse_range3)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--soil-sweep" => {
                soil_sweep = Some(
                    argv.next()
                        .as_deref()
                        .and_then(parse_soil_sweep)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--search-pitch" => {
                search_pitch = Some(
                    argv.next()
                        .as_deref()
                        .and_then(parse_range3)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--map" => {
                let nums: Vec<String> = (0..6).filter_map(|_| argv.next()).collect();
                let out = argv.next().unwrap_or_else(|| usage());
                let [x0, x1, y0, y1, nx, ny] = nums.as_slice() else {
                    usage();
                };
                let bound = |s: &String| s.parse::<f64>().unwrap_or_else(|_| usage());
                let count = |s: &String| s.parse::<usize>().unwrap_or_else(|_| usage());
                let spec = MapSpec::new(
                    (bound(x0), bound(x1)),
                    (bound(y0), bound(y1)),
                    count(nx),
                    count(ny),
                )
                .unwrap_or_else(|e| {
                    eprintln!("error: --map: {e}");
                    usage()
                });
                map = Some((spec, out));
            }
            "--timing" => timing = true,
            "--help" | "-h" => usage(),
            other if deck.is_none() && !other.starts_with('-') => deck = Some(other.to_string()),
            _ => usage(),
        }
    }
    Args {
        deck: deck.unwrap_or_else(|| usage()),
        threads,
        schedule,
        hmatrix,
        aca_tol,
        gpr_sweep,
        soil_sweep,
        search_pitch,
        map,
        timing,
    }
}

/// Resolves the CLI workload flags against the deck's parsed workload:
/// `--gpr-sweep` extends the scenario list, `--soil-sweep` /
/// `--search-pitch` replace the workload shape. Returns a user-facing
/// error message on invalid or conflicting requests.
fn apply_workload_flags(
    case: &mut layerbem_cad::input::CadCase,
    args: &Args,
) -> Result<(), String> {
    if args.soil_sweep.is_some() && args.search_pitch.is_some() {
        return Err("--soil-sweep and --search-pitch are mutually exclusive".to_string());
    }
    if let Some((lo, hi, n)) = args.gpr_sweep {
        let extra = match Workload::gpr_sweep(lo, hi, n) {
            Ok(Workload::Scenarios(s)) => s,
            Ok(_) => unreachable!("gpr_sweep builds a scenario workload"),
            Err(e) => return Err(format!("--gpr-sweep: {}", PipelineError::from(e))),
        };
        // The CLI sweep extends the deck's own stanzas (and, like any
        // explicit scenario list, supersedes the deck's implicit `gpr`
        // line); for a soil-sweep deck it extends the per-sample list.
        case.scenarios.extend(extra.iter().copied());
        match &mut case.workload {
            Workload::Scenarios(list) => list.extend(extra),
            Workload::SoilSweep(spec) => spec.scenarios.extend(extra),
            Workload::DesignSearch(_) => {
                return Err("--gpr-sweep cannot extend a design search".to_string())
            }
        }
    }
    if let Some((samples, seed, sigma)) = args.soil_sweep {
        let scenarios = case
            .workload
            .scenario_list()
            .ok_or("--soil-sweep cannot override a design-search deck")?
            .to_vec();
        case.workload = Workload::soil_sweep(samples, seed, sigma, scenarios)
            .map_err(|e| format!("--soil-sweep: {}", PipelineError::from(e)))?;
    }
    if let Some((lo, hi, n)) = args.search_pitch {
        case.workload = case
            .design_search(lo, hi, n)
            .map_err(|m| format!("--search-pitch: {m}"))?;
    }
    Ok(())
}

/// Lane occupancy as the `--timing` lines print it.
fn occupancy_label(occupancy: Option<f64>) -> String {
    match occupancy {
        Some(o) => format!("{:.1}% lane occupancy", 100.0 * o),
        None => "no lanes".to_string(),
    }
}

fn main() -> ExitCode {
    layerbem_cad::cpu::check("layerbem-cad");
    let args = parse_args();
    let text = match std::fs::read_to_string(&args.deck) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.deck);
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let mut case = match parse_case(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {}: {e}", args.deck);
            return ExitCode::FAILURE;
        }
    };
    if let Err(msg) = apply_workload_flags(&mut case, &args) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    let input_seconds = t0.elapsed().as_secs_f64();

    let pool = ThreadPool::new(args.threads);
    // `--operator hmatrix` swaps the prepared operator representation; it
    // survives the pipeline's deck-keyword merge, so it applies at every
    // thread count.
    let backend = if args.hmatrix {
        OperatorBackend::Hierarchical {
            tol: args.aca_tol,
            leaf_size: DEFAULT_LEAF_SIZE,
        }
    } else {
        OperatorBackend::Dense
    };
    // One pool drives assembly and the direct factorizations.
    let opts = SolveOptions::default()
        .with_backend(backend)
        .with_parallelism(pool, args.schedule);
    let result = match run_pipeline(&case, opts, input_seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.deck);
            return ExitCode::FAILURE;
        }
    };
    print!("{}", result.report);
    if args.timing {
        println!();
        print!("{}", result.times.table());
        println!(
            "matrix-generation share: {:.2}%  (threads: {}, schedule: {})",
            100.0 * result.times.matrix_generation_share(),
            args.threads,
            args.schedule.label()
        );
        let cost = &result.profile.assembly;
        // Collocation assembles rows, not pairs: no pair count to show.
        let pairs = if cost.pairs > 0 {
            format!(
                "{} of {} pairs evaluated, ",
                cost.pairs_evaluated, cost.pairs
            )
        } else {
            String::new()
        };
        println!(
            "kernel evaluation: {:.3} s in series kernels, {} terms, {pairs}{}",
            cost.kernel_seconds,
            cost.kernel.terms,
            occupancy_label(cost.lane_occupancy())
        );
        if let Some(cs) = cost.compression {
            println!(
                "operator compression: {} B resident vs {} B dense ({:.1}% of dense), \
                 {} far blocks, mean rank {:.1}, max rank {}",
                cs.resident_bytes,
                cs.dense_bytes,
                100.0 * cs.compression_ratio(),
                cs.far_blocks,
                cs.mean_far_rank,
                cs.max_far_rank
            );
        }
    }

    if let Some((spec, out)) = args.map {
        // The surface map belongs to one field solution over the deck's
        // own soil model; sweep samples and search candidates answer
        // perturbed soils / re-derived layouts, so a map would silently
        // mix models.
        if !matches!(case.workload, Workload::Scenarios(_)) {
            eprintln!("error: --map requires a scenario workload (not a sweep or search)");
            return ExitCode::FAILURE;
        }
        let system = GroundingSystem::new(result.mesh.clone(), &case.soil, opts);
        let map = PotentialMap::compute(
            &result.mesh,
            system.kernel(),
            result.solution(),
            &spec,
            &pool,
            args.schedule,
        );
        if let Err(e) = std::fs::write(&out, map.to_csv()) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "surface potential map ({}×{}) written to {out}",
            spec.nx, spec.ny
        );
        if args.timing {
            println!(
                "surface map: {:.3} s, {:.0} points/s, {} terms, {}",
                map.seconds,
                map.values.len() as f64 / map.seconds,
                map.cost.terms,
                occupancy_label(map.cost.lane_occupancy())
            );
        }
    }
    ExitCode::SUCCESS
}
