//! The cold workloads: deck bytes in, rendered report out, every round a
//! problem nobody has seen before.
//!
//! Untraced rounds go through the two calls the CLI makes —
//! `parse_case` → `run_pipeline` — on the plain one-thread path, two
//! lanes of rounds side by side, each deck timed as a whole. Traced
//! rounds make the same stage-wise public calls the pipeline makes
//! internally, each inside a span, so every second of a round is
//! attributed to a layer from outside the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use layerbem_cad::input::{parse_case, CadCase};
use layerbem_cad::pipeline::run_pipeline;
use layerbem_cad::report::{sweep_report, text_report};
use layerbem_core::formulation::{Formulation, SolveOptions, SolverChoice};
use layerbem_core::post::{MapSpec, PotentialMap};
use layerbem_core::study::Scenario;
use layerbem_core::system::{GroundingSolution, GroundingSystem};
use layerbem_core::workload::{Workload, WorkloadRow};
use layerbem_geometry::Mesher;
use layerbem_parfor::ThreadPool;

use crate::harness::{
    case_options, ensure, peak_rss_mb, repeat_setup, Config, HostClock, Report, Tally,
};
use crate::inputs::{self, ColdDeck, Scale, Soil};
use crate::stats;
use crate::trace::Tracer;

/// What one deck of one round produced — everything the checks need.
struct DeckResult {
    deck_bytes: usize,
    soil: Soil,
    seconds: f64,
    report: String,
    solutions: Vec<GroundingSolution>,
    /// Surface-map op, when the deck has one: seconds, values, CSV bytes.
    map: Option<(f64, Vec<f64>, usize)>,
    /// Sizes of the prepared study (staged, i.e. traced, decks only).
    facts: Option<StudyFacts>,
}

/// Exact sizes of one prepared study; none depends on the soil.
#[derive(Clone, Copy)]
struct StudyFacts {
    elements: usize,
    dof: usize,
    resident_bytes: usize,
}

struct Round {
    seconds: f64,
    decks: Vec<DeckResult>,
}

struct Cold<'a> {
    cfg: &'a Config,
    decks: Vec<ColdDeck>,
    /// `conductor` lines per deck.
    geometry: Vec<String>,
    /// Root span names per deck: the deck's, and its map op's.
    span_names: Vec<(String, String)>,
    opts: SolveOptions,
    pool: ThreadPool,
}

fn flatten(rows: Vec<WorkloadRow>) -> Vec<GroundingSolution> {
    rows.into_iter()
        .flat_map(|row| match row {
            WorkloadRow::Scenario(s) => vec![s],
            WorkloadRow::Sample(sample) => sample.solutions,
            WorkloadRow::Candidate(_) => Vec::new(),
        })
        .collect()
}

fn map_spec(scale: Scale) -> MapSpec {
    let (x0, x1, y0, y1) = scale.map_window();
    let (nx, ny) = scale.map_samples();
    MapSpec {
        x_range: (x0, x1),
        y_range: (y0, y1),
        nx,
        ny,
    }
}

impl<'a> Cold<'a> {
    /// Set-up: render the geometry, size the pool, and push a cheap twin
    /// of every deck — same native grid, same stanzas, but uniform soil
    /// and no refinement, so milliseconds instead of seconds — through the
    /// same code, so first-call costs (code pages, thread start-up,
    /// allocator growth) are paid before the first timed round.
    fn new(cfg: &'a Config, decks: Vec<ColdDeck>) -> Cold<'a> {
        let geometry = decks
            .iter()
            .map(|d| inputs::wire_lines(&d.grid.wires(cfg.scale)))
            .collect();
        let span_names = decks
            .iter()
            .map(|d| {
                let name = format!("cad.pipeline.{}", d.name);
                (name.clone(), format!("{name}-map"))
            })
            .collect();
        let twins = decks
            .iter()
            .map(|d| ColdDeck {
                soil: Soil::Uniform(d.soil.conductivity()),
                refined: false,
                ..*d
            })
            .collect();
        let mut cold = Cold {
            cfg,
            decks: twins,
            geometry,
            span_names,
            opts: cfg.solve_options(),
            pool: cfg.pool(),
        };
        // A failure here recurs in the first timed round, which reports it.
        let _ = black_box(cold.round(0, &mut Tracer::new(false)));
        cold.decks = decks;
        cold
    }

    fn deck_text(&self, index: usize, round: usize) -> (String, Soil) {
        let deck = &self.decks[index];
        let soil = inputs::cold_soil(self.cfg.seed, index, round, deck);
        let text =
            inputs::render_cold_deck(deck, &self.geometry[index], soil, round, self.cfg.scale);
        (text, soil)
    }

    /// One round: every deck from bytes to report (and map), in order.
    fn round(&self, round: usize, tracer: &mut Tracer) -> Result<Round, String> {
        // Inputs are generated before the clock starts: the programs
        // under test receive only bytes.
        let texts: Vec<(String, Soil)> = (0..self.decks.len())
            .map(|i| self.deck_text(i, round))
            .collect();
        let start = Instant::now();
        let decks = texts
            .iter()
            .enumerate()
            .map(|(i, (text, soil))| self.deck_op(i, text, *soil, round, tracer, false))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Round {
            seconds: start.elapsed().as_secs_f64(),
            decks,
        })
    }

    /// One deck from bytes to report, then its surface map if it has
    /// one. `pooled` runs the pooled path instead of the timed one-thread
    /// path — the two must agree bit for bit.
    fn deck_op(
        &self,
        i: usize,
        text: &str,
        soil: Soil,
        round: usize,
        tracer: &mut Tracer,
        pooled: bool,
    ) -> Result<DeckResult, String> {
        let (opts, pool) = if pooled {
            (
                self.cfg.pooled_options(),
                ThreadPool::new(self.cfg.pool_threads),
            )
        } else {
            (self.opts, self.pool)
        };
        let deck = &self.decks[i];
        let op = (round * 16 + i) as u64;
        let (deck_span, map_span) = &self.span_names[i];
        let t = Instant::now();
        let staged = tracer.enabled() && !deck.sweep;
        let (case, report, solutions, mesh, facts) = tracer.span(deck_span, op, |tr| {
            if staged {
                staged_pipeline(text, opts, op, tr)
            } else {
                whole_pipeline(text, opts, op, tr)
            }
        })?;
        let seconds = t.elapsed().as_secs_f64();
        let map = deck.map.then(|| {
            let t = Instant::now();
            let (values, csv_bytes) = tracer.span(map_span, op, |tr| {
                tr.span("core.post.map", op, |_| {
                    // Exactly the CLI's `--map` branch.
                    let system =
                        GroundingSystem::new(mesh.clone(), &case.soil, case_options(&case, opts));
                    let map = PotentialMap::compute(
                        &mesh,
                        system.kernel(),
                        &solutions[0],
                        &map_spec(self.cfg.scale),
                        &pool,
                        self.cfg.schedule(),
                    );
                    let csv = black_box(map.to_csv());
                    (map.values, csv.len())
                })
            });
            (t.elapsed().as_secs_f64(), values, csv_bytes)
        });
        Ok(DeckResult {
            deck_bytes: text.len(),
            soil,
            seconds,
            report,
            solutions,
            map,
            facts,
        })
    }

    /// The per-round checks: shape, positivity, and physical agreement
    /// with round 0 (exact `1/γ` scaling in uniform soil; a band around
    /// the published model in layered soil, whose jitter is ±2 %).
    fn check_round(&self, round: &Round, first: &Round, index: usize, tally: &mut Tally) {
        for (i, result) in round.decks.iter().enumerate() {
            let deck = &self.decks[i];
            let what = format!("{} round {index}", deck.name);
            let expected = if deck.sweep {
                self.cfg.scale.sweep_samples().0
            } else {
                deck.scenarios.max(1)
            };
            let base = &first.decks[i];
            tally.record((|| {
                ensure(result.report.contains(deck.name), || {
                    format!("{what}: report does not name its deck")
                })?;
                ensure(result.solutions.len() == expected, || {
                    format!(
                        "{what}: {} solutions, expected {expected}",
                        result.solutions.len()
                    )
                })?;
                for (s, s0) in result.solutions.iter().zip(&base.solutions) {
                    let (req, req0) = (s.equivalent_resistance, s0.equivalent_resistance);
                    ensure(req.is_finite() && req > 0.0, || {
                        format!("{what}: Req {req}")
                    })?;
                    // Both conductivities share one jitter factor, so Req
                    // scales as 1/γ exactly in uniform soil (direct solvers
                    // to rounding, PCG to its 1e-10 residual) and up to
                    // the ±2 % thickness jitter in layered soil.
                    let (g, g0) = (result.soil.conductivity(), base.soil.conductivity());
                    let drift = (req * g / (req0 * g0) - 1.0).abs();
                    let allowed = match result.soil {
                        Soil::Uniform(_) if s.solver_iterations == 0 => 1e-9,
                        Soil::Uniform(_) => 1e-6,
                        Soil::TwoLayer(..) => 0.05,
                    };
                    ensure(drift <= allowed, || {
                        format!("{what}: Req {req} vs round-0 {req0}: drift {drift:.3e}")
                    })?;
                }
                if let Some((_, values, csv_bytes)) = &result.map {
                    let (nx, ny) = self.cfg.scale.map_samples();
                    ensure(
                        values.len() == nx * ny
                            && *csv_bytes > values.len()
                            && values.iter().all(|v| v.is_finite() && *v > 0.0),
                        || format!("{what}: malformed surface map"),
                    )?;
                }
                Ok(())
            })());
        }
    }

    /// Round 0 against the paper: the native-grid `Req` tolerances
    /// `tests/paper_reproduction.rs` pins.
    fn check_paper(&self, first: &Round, tally: &mut Tally) {
        if self.cfg.scale.smoke {
            return;
        }
        for (deck, result) in self.decks.iter().zip(&first.decks) {
            if let Some((paper, tolerance)) = deck.paper_req {
                let req = result.solutions[0].equivalent_resistance;
                tally.record(ensure((req - paper).abs() / paper < tolerance, || {
                    format!("{}: Req {req} Ω vs the paper's {paper} Ω", deck.name)
                }));
            }
        }
    }

    /// The determinism oracle: one deck of round 0 again on the pooled
    /// path; it must match the timed one-thread result bit for bit. A
    /// whole pooled round would cost a timed round, so each run checks
    /// one deck, chosen by the seed — any ten seeds cover them all — and
    /// the traced pass checks pooled against serial on every assembly.
    fn check_pooled_reference(&self, first: &Round, tally: &mut Tally) {
        let index = (self.cfg.seed % self.decks.len() as u64) as usize;
        let (text, _) = self.deck_text(index, 0);
        let timed = &first.decks[index];
        let pooled = self.deck_op(index, &text, timed.soil, 0, &mut Tracer::new(false), true);
        tally.record(
            pooled
                .and_then(|pooled| {
                    solutions_identical(&pooled.solutions, &timed.solutions)?;
                    ensure(pooled.report == timed.report, || {
                        "reports differ".to_string()
                    })?;
                    let bits = |m: &Option<(f64, Vec<f64>, usize)>| {
                        m.as_ref()
                            .map(|(_, v, _)| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    };
                    ensure(bits(&pooled.map) == bits(&timed.map), || {
                        "surface maps differ".to_string()
                    })
                })
                .map_err(|e| format!("{}: pooled vs serial: {e}", self.decks[index].name)),
        );
    }
}

/// Bitwise equality of two solution lists.
fn solutions_identical(a: &[GroundingSolution], b: &[GroundingSolution]) -> Result<(), String> {
    ensure(a.len() == b.len(), || {
        format!("{} vs {} solutions", a.len(), b.len())
    })?;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let same = x.gpr.to_bits() == y.gpr.to_bits()
            && x.total_current.to_bits() == y.total_current.to_bits()
            && x.equivalent_resistance.to_bits() == y.equivalent_resistance.to_bits()
            && x.solver_iterations == y.solver_iterations
            && x.leakage.len() == y.leakage.len()
            && x.leakage
                .iter()
                .zip(&y.leakage)
                .all(|(p, q)| p.to_bits() == q.to_bits());
        ensure(same, || {
            format!(
                "solution {i} differs (Req {} vs {})",
                x.equivalent_resistance, y.equivalent_resistance
            )
        })?;
    }
    Ok(())
}

type Staged = (
    CadCase,
    String,
    Vec<GroundingSolution>,
    layerbem_geometry::Mesh,
    Option<StudyFacts>,
);

/// Deck text → report through the CLI's two calls.
fn whole_pipeline(
    text: &str,
    opts: SolveOptions,
    op: u64,
    tr: &mut Tracer,
) -> Result<Staged, String> {
    let t = Instant::now();
    let case = tr
        .span("cad.input.parse", op, |_| parse_case(text))
        .map_err(|e| e.to_string())?;
    let parse_seconds = t.elapsed().as_secs_f64();
    let span = if matches!(case.workload, Workload::SoilSweep(_)) {
        "core.workload.sweep"
    } else {
        "cad.pipeline.run"
    };
    let result = tr
        .span(span, op, |_| run_pipeline(&case, opts, parse_seconds))
        .map_err(|e| e.to_string())?;
    let mesh = result.mesh;
    let report = black_box(result.report);
    Ok((case, report, flatten(result.rows), mesh, None))
}

/// The same work as [`whole_pipeline`] for a scenario deck, one public
/// call per stage, one span per call.
fn staged_pipeline(
    text: &str,
    opts: SolveOptions,
    op: u64,
    tr: &mut Tracer,
) -> Result<Staged, String> {
    let case = tr
        .span("cad.input.parse", op, |_| parse_case(text))
        .map_err(|e| e.to_string())?;
    let Workload::Scenarios(scenarios) = &case.workload else {
        return Err("staged tracing covers scenario decks only".to_string());
    };
    let mesh = tr.span("geometry.mesh.build", op, |_| {
        Mesher::new(case.mesh_options).mesh(&case.network)
    });
    let system = tr.span("core.system.new", op, |_| {
        GroundingSystem::new(mesh.clone(), &case.soil, case_options(&case, opts))
    });
    let study = tr
        .span("core.study.prepare", op, |_| system.prepare())
        .map_err(|e| e.to_string())?;
    let solutions = tr
        .span("core.study.solve_batch", op, |_| {
            study.solve_batch(scenarios)
        })
        .map_err(|e| e.to_string())?;
    let report = tr.span("cad.report.render", op, |_| {
        let mut text = text_report(&case.title, &case.soil, &mesh, &solutions[0]);
        if solutions.len() > 1 {
            text.push('\n');
            text.push_str(&sweep_report(&solutions));
        }
        black_box(text)
    });
    let facts = StudyFacts {
        elements: mesh.element_count(),
        dof: study.dof(),
        resident_bytes: study.resident_bytes(),
    };
    Ok((case, report, solutions, mesh, Some(facts)))
}

pub fn run(cfg: &Config, layered: bool) -> Report {
    let decks = if layered {
        inputs::cold_layered()
    } else {
        inputs::cold_dense(cfg.scale)
    };
    let mut report = Report::default();
    let (cold, setup_s) = repeat_setup(|| Cold::new(cfg, decks.clone()));
    report.setup_s = setup_s;

    let mut tracer = Tracer::new(cfg.trace);
    let host = HostClock::now();
    let start = Instant::now();
    // A traced run needs one round of each kind whatever the clock says.
    let least = if cfg.trace { 2 } else { 1 };
    let next = AtomicUsize::new(0);
    // One lane: rounds in order, until the clock runs out. In a traced run
    // odd rounds are traced and even rounds are not, so the tracing
    // overhead is the ratio of their medians.
    let lane = |tracer: &mut Tracer| -> Result<Vec<(usize, Round)>, String> {
        let mut off = Tracer::new(false);
        let mut rounds = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= least && start.elapsed().as_secs_f64() >= cfg.seconds {
                return Ok(rounds);
            }
            let traced = cfg.trace && index % 2 == 1;
            let mut round = cold
                .round(index, if traced { &mut *tracer } else { &mut off })
                .map_err(|e| format!("round {index}: {e}"))?;
            if index > 0 {
                // Only round 0's leakage vectors are compared (with the
                // serial reference); kept for every round they would make
                // peak memory grow with the number of rounds a run fits.
                for solution in round.decks.iter_mut().flat_map(|d| &mut d.solutions) {
                    solution.leakage = Vec::new();
                }
            }
            rounds.push((index, round));
        }
    };
    // The timed path is one thread, so a second lane of rounds runs
    // beside the first on the other core: the host slows its two cores
    // independently of each other, and the fastest sample of a class
    // only needs one of them undisturbed for as long as one deck takes.
    // A traced run is one lane: the tracer is one sequence of spans.
    let lanes = if cfg.trace { 1 } else { cfg.connections };
    let outcomes = if lanes == 1 {
        vec![lane(&mut tracer)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|_| scope.spawn(|| lane(&mut Tracer::new(false))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread"))
                .collect()
        })
    };
    let mut indexed: Vec<(usize, Round)> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(rounds) => indexed.extend(rounds),
            Err(e) => report.tally.record(Err(e)),
        }
    }
    indexed.sort_by_key(|(index, _)| *index);
    let rounds: Vec<Round> = indexed.into_iter().map(|(_, round)| round).collect();
    report.peak_rss_mb = peak_rss_mb();
    report.note(host.since());
    // The second window of set-up repetitions (see `repeat_setup`).
    report
        .setup_s
        .extend(repeat_setup(|| Cold::new(cfg, decks.clone())).1);
    let Some(first) = rounds.first() else {
        return report;
    };

    for (index, round) in rounds.iter().enumerate() {
        cold.check_round(round, first, index, &mut report.tally);
    }
    cold.check_paper(first, &mut report.tally);
    // The typical round: each op class at its fastest over the rounds of
    // both lanes, summed (see `stats::fastest` for why the fastest sample
    // and not the median is the steady estimate on this host).
    let mut typical_round = 0.0;
    for (i, deck) in cold.decks.iter().enumerate() {
        let deck_s: Vec<f64> = rounds.iter().map(|r| r.decks[i].seconds).collect();
        let map_s: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.decks[i].map.as_ref().map(|m| m.0))
            .collect();
        let map_fastest = if map_s.is_empty() {
            0.0
        } else {
            stats::fastest(&map_s)
        };
        typical_round += stats::fastest(&deck_s) + map_fastest;
        report.note(format!(
            "  {:<18} {:>8.4} s (fastest; median {:.4} s)   Req[round 0] = {:.4} Ω",
            deck.name,
            stats::fastest(&deck_s),
            stats::median(&deck_s),
            first.decks[i].solutions[0].equivalent_resistance
        ));
        if deck.map {
            report.note(format!(
                "  {:<18} {:>8.4} s",
                format!("{}-map", deck.name),
                map_fastest
            ));
        }
    }
    report.op_ms = typical_round * 1e3;
    report.op_samples = rounds.len();
    // Rounds per second one lane sustains at that pace.
    let round_s: Vec<f64> = rounds.iter().map(|r| r.seconds).collect();
    report.ops_per_s = 1.0 / typical_round;
    report.note(format!(
        "cold_round_s = {typical_round:.4} s (sum of per-op fastest times over {} rounds; = op_ms); \
         median round wall time {:.4} s",
        rounds.len(),
        stats::median(&round_s)
    ));

    if cfg.trace {
        layers(&cold, &rounds, &tracer, &mut report);
        probes(&cold, first, &tracer, &mut report);
    } else {
        cold.check_pooled_reference(first, &mut report.tally);
    }
    crate::write_trace(cfg, &tracer);
    report
}

/// Per-round sums of the spans `keep` selects by name and deck, one
/// sample per traced round (a span's op id carries its round and deck).
fn per_round(cold: &Cold, tracer: &Tracer, keep: &dyn Fn(&str, &ColdDeck) -> bool) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in tracer.spans() {
        if keep(&s.name, &cold.decks[(s.op % 16) as usize]) {
            *sums.entry(s.op / 16).or_default() += s.seconds();
        }
    }
    sums.into_values().collect()
}

/// The fastest per-round sum — the estimator of the end-to-end metric,
/// so layer times add up to it — or zero where nothing was selected.
fn fastest_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::fastest(samples)
    }
}

/// Per-layer metrics read straight off the traced rounds' spans. Times
/// are per-round totals (all decks of a round), the fastest of the traced
/// rounds; exact counts come from round 0, whose inputs carry no jitter.
fn layers(cold: &Cold, rounds: &[Round], tracer: &Tracer, report: &mut Report) {
    let of_parity = |odd: bool| -> Vec<f64> {
        let rounds = rounds.iter().enumerate();
        rounds
            .filter(|(i, _)| (i % 2 == 1) == odd)
            .map(|(_, r)| r.seconds)
            .collect()
    };
    let (untraced_s, traced_s) = (of_parity(false), of_parity(true));
    let span_s = |name: &str| fastest_or_zero(&per_round(cold, tracer, &|n, _| n == name));
    report.layer("cad.input.parse_us", span_s("cad.input.parse") * 1e6);
    report.layer("cad.report.render_us", span_s("cad.report.render") * 1e6);
    report.layer(
        "geometry.mesh.build_ms",
        span_s("geometry.mesh.build") * 1e3,
    );
    report.layer("core.system.new_ms", span_s("core.system.new") * 1e3);
    report.layer("core.workload.sweep_s", span_s("core.workload.sweep"));
    let solve_s = span_s("core.study.solve_batch");
    report.layer("core.study.solve_batch_ms", solve_s * 1e3);
    for (deck, (deck_span, map_span)) in cold.decks.iter().zip(&cold.span_names) {
        report.layer(&format!("{deck_span}_s"), span_s(deck_span));
        if deck.map {
            report.layer(&format!("{map_span}_s"), span_s(map_span));
        }
    }
    let map_s = span_s("core.post.map");
    if map_s > 0.0 {
        let (nx, ny) = cold.cfg.scale.map_samples();
        report.layer("core.post.map_s", map_s);
        report.layer("core.post.points_per_s", (nx * ny) as f64 / map_s);
    }

    let first = &rounds[0];
    let total = |f: &dyn Fn(&DeckResult) -> usize| first.decks.iter().map(f).sum::<usize>() as f64;
    report.layer("cad.input.deck_bytes", total(&|d| d.deck_bytes));
    report.layer("cad.report.bytes", total(&|d| d.report.len()));
    let staged_scenarios: usize = cold
        .decks
        .iter()
        .filter(|d| !d.sweep)
        .map(|d| d.scenarios.max(1))
        .sum();
    report.layer(
        "core.study.solve_per_scenario_us",
        solve_s * 1e6 / staged_scenarios as f64,
    );
    report.layer(
        "numeric.pcg.iterations",
        first
            .decks
            .iter()
            .flat_map(|d| &d.solutions)
            .map(|s| s.solver_iterations as f64)
            .sum(),
    );
    // Study sizes do not depend on the soil: any traced round has them.
    let facts = |f: &dyn Fn(&StudyFacts) -> usize| {
        rounds[1]
            .decks
            .iter()
            .filter_map(|d| d.facts.as_ref())
            .map(f)
            .sum::<usize>() as f64
    };
    report.layer("geometry.mesh.elements", facts(&|f| f.elements));
    report.layer("geometry.mesh.dof", facts(&|f| f.dof));
    report.layer("core.study.resident_bytes", facts(&|f| f.resident_bytes));

    report.layer("trace.rounds", traced_s.len() as f64);
    report.layer("trace.spans", tracer.spans().len() as f64);
    report.layer(
        "trace_overhead_ratio",
        fastest_or_zero(&traced_s) / fastest_or_zero(&untraced_s) - 1.0,
    );
    // Unattributed: what no named child span covers — each root span's
    // self time, plus whatever a round spends between its root spans.
    let roots: Vec<usize> = (0..tracer.spans().len())
        .filter(|&i| tracer.spans()[i].parent.is_none())
        .collect();
    let covered: f64 = roots.iter().map(|&i| tracer.spans()[i].seconds()).sum();
    let roots_self: f64 = roots.iter().map(|&i| tracer.self_seconds(i)).sum();
    let all: f64 = traced_s.iter().sum();
    report.layer(
        "trace.unattributed_ratio",
        (all - covered + roots_self) / all,
    );
}

/// Measurements the traced round cannot make from outside in one pass,
/// taken once on round 0's decks: assembly alone (`prepare` with PCG
/// factors nothing), factor by solver subtraction on the same mesh and
/// soil, and the pooled path beside the timed one-thread path.
fn probes(cold: &Cold, first: &Round, tracer: &Tracer, report: &mut Report) {
    let pooled_opts = cold.cfg.pooled_options();
    // Timed-path assembly seconds per distinct (grid, refinement): decks
    // that share mesh and soil share one measurement.
    let mut assembled: Vec<((inputs::Grid, bool), f64)> = Vec::new();
    let (mut assembly_pooled, mut pairs, mut terms) = (0.0, 0.0, 0.0);
    let (mut factor_s, mut factor_flops) = (0.0, 0.0);
    for (i, deck) in cold.decks.iter().enumerate() {
        let (text, _) = cold.deck_text(i, 0);
        let Ok(case) = parse_case(&text) else {
            continue;
        };
        if deck.sweep || case.formulation != Formulation::Galerkin {
            continue;
        }
        let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
        let prepare = |solver, opts: SolveOptions| {
            let opts = SolveOptions {
                formulation: Formulation::Galerkin,
                solver,
                ..opts
            };
            // The fastest of three, like every other timing here: factor
            // time is a difference of two of these.
            let mut fastest = f64::INFINITY;
            let mut study = None;
            for _ in 0..3 {
                let t = Instant::now();
                study = Some(GroundingSystem::new(mesh.clone(), &case.soil, opts).prepare());
                fastest = fastest.min(t.elapsed().as_secs_f64());
            }
            (fastest, study.expect("three repetitions"))
        };
        let key = (deck.grid, deck.refined);
        if !assembled.iter().any(|(k, _)| *k == key) {
            let (serial_s, serial) = prepare(SolverChoice::ConjugateGradient, cold.opts);
            let (pooled_s, pooled) = prepare(SolverChoice::ConjugateGradient, pooled_opts);
            assembled.push((key, serial_s));
            assembly_pooled += pooled_s;
            let m = mesh.element_count() as f64;
            pairs += m * (m + 1.0) / 2.0;
            let scenario = [Scenario::gpr(10_000.0)];
            report.tally.record(match (pooled, serial) {
                (Ok(p), Ok(s)) => {
                    terms += p.total_terms() as f64;
                    match (p.solve_batch(&scenario), s.solve_batch(&scenario)) {
                        (Ok(a), Ok(b)) => solutions_identical(&a, &b)
                            .map_err(|e| format!("{} probe: pooled vs serial: {e}", deck.name)),
                        _ => Err(format!("{} probe: solve failed", deck.name)),
                    }
                }
                _ => Err(format!("{} probe: prepare failed", deck.name)),
            });
        }
        if case.solver == SolverChoice::Cholesky {
            let assembly_only = assembled
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, s)| *s);
            let (with_factor, _) = prepare(SolverChoice::Cholesky, cold.opts);
            factor_s += (with_factor - assembly_only).max(0.0);
            let n = mesh.dof() as f64;
            factor_flops += n * n * n / 3.0;
        }
    }
    // Rates and shares are the timed (one-thread) path's; `wall_s` is the
    // pooled assembly's, for the speed-up.
    let assembly_serial: f64 = assembled.iter().map(|(_, s)| s).sum();
    report.layer("core.assembly.wall_s", assembly_pooled);
    report.layer("core.assembly.serial_wall_s", assembly_serial);
    report.layer("core.assembly.pairs", pairs);
    report.layer("soil.series.terms", terms);
    if assembly_serial > 0.0 && assembly_pooled > 0.0 {
        report.layer("core.assembly.pairs_per_s", pairs / assembly_serial);
        report.layer("soil.series.terms_per_s", terms / assembly_serial);
        report.layer("parfor.assembly.speedup", assembly_serial / assembly_pooled);
    }
    report.layer("numeric.cholesky.factor_s", factor_s);
    if factor_s > 0.0 {
        report.layer("numeric.cholesky.gflops", factor_flops / factor_s * 1e-9);
    }

    // The sweep deck, whole, with the pool across its samples, against
    // the traced rounds' one-thread sweeps.
    let total =
        |keep: &dyn Fn(&str, &ColdDeck) -> bool| fastest_or_zero(&per_round(cold, tracer, keep));
    let sweep_s = total(&|name, _| name == "core.workload.sweep");
    if let Some(i) = cold.decks.iter().position(|d| d.sweep) {
        let (text, _) = cold.deck_text(i, 0);
        let t = Instant::now();
        let pooled = parse_case(&text)
            .map_err(|e| e.to_string())
            .and_then(|case| run_pipeline(&case, pooled_opts, 0.0).map_err(|e| e.to_string()));
        let pooled_s = t.elapsed().as_secs_f64();
        report.tally.record(pooled.and_then(|r| {
            solutions_identical(&first.decks[i].solutions, &flatten(r.rows))
                .map_err(|e| format!("sweep probe: pooled vs serial: {e}"))
        }));
        report.layer("parfor.sweep.speedup", sweep_s / pooled_s);
    }

    // Per traced round: PCG decks' solve spans are PCG runs; an LU deck's
    // prepare is collocation assembly plus LU, unsplit from outside.
    let pcg_s = total(&|name, deck| name == "core.study.solve_batch" && deck.stanzas.is_empty());
    let lu_s =
        total(&|name, deck| name == "core.study.prepare" && deck.stanzas.contains("solver lu"));
    let prepare_s = total(&|name, _| name == "core.study.prepare");
    let solve_s = total(&|name, _| name == "core.study.solve_batch");
    let map_s = total(&|name, _| name == "core.post.map");
    let round_s = total(&|name, _| name.starts_with("cad.pipeline."));
    if pcg_s > 0.0 {
        report.layer("numeric.pcg.solve_s", pcg_s);
    }
    if lu_s > 0.0 {
        report.layer("numeric.lu.prepare_s", lu_s);
    }
    // Where a round goes: the kernel-bound share (Galerkin prepares minus
    // the Cholesky factor, the sweep, the map) and the linear-algebra
    // share (Cholesky factor plus every solve; LU stays uncounted).
    report.layer("cold.share.factor_solve", (factor_s + solve_s) / round_s);
    report.layer(
        "cold.share.assembly_map",
        (prepare_s - factor_s - lu_s + sweep_s + map_s) / round_s,
    );
}
