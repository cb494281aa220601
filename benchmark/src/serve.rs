//! The served workloads: a real loopback socket between the shipped
//! `ServeClient` and an in-process `layerbem_serve::spawn` server.
//!
//! `serve-warm` only reads — every request hits a study made resident
//! during set-up — and `serve-edit` writes beside the reads: private edit
//! sessions update, rebuild and publish factors under eviction pressure.
//! The generator uses the client exactly as shipped: it sets no socket
//! option and coalesces no writes, so what the wire costs today is part of
//! the measurement.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use layerbem_cad::input::{parse_case, CadCase};
use layerbem_cad::pipeline::run_pipeline;
use layerbem_core::formulation::SolveOptions;
use layerbem_core::study::Scenario;
use layerbem_core::system::{GroundingSolution, GroundingSystem};
use layerbem_core::workload::WorkloadRow;
use layerbem_geometry::Mesher;
use layerbem_serve::protocol::parse_request;
use layerbem_serve::{spawn, Json, ServeClient, ServerConfig, ServerHandle, StudyKey};

use crate::harness::{
    case_options, ensure, peak_rss_mb, repeat_setup, Config, HostClock, Report, Tally,
};
use crate::inputs::{
    op_request, EditScript, EditStep, WarmClass, WarmOracle, WarmScript, WireScenario,
};
use crate::stats;
use crate::trace::Tracer;

fn spawn_server(cfg: &Config, max_resident_bytes: usize) -> Result<ServerHandle, String> {
    spawn(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        max_resident_bytes,
        workers: cfg.connections,
        solve: cfg.solve_options(),
    })
    .map_err(|e| format!("cannot spawn the server: {e}"))
}

fn connect(server: &ServerHandle) -> Result<ServeClient, String> {
    ServeClient::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))
}

fn number(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Json::as_f64)
}

/// The study a deck resolves to, prepared directly — the oracle served
/// answers are compared against.
fn direct_study(case: &CadCase, opts: SolveOptions) -> Result<layerbem_core::study::Study, String> {
    let mesh = Mesher::new(case.mesh_options).mesh(&case.network);
    GroundingSystem::new(mesh, &case.soil, case_options(case, opts))
        .prepare()
        .map_err(|e| e.to_string())
}

fn scenarios_of(list: &[WireScenario]) -> Vec<Scenario> {
    list.iter()
        .map(|s| {
            if s.fault_current {
                Scenario::fault_current(s.value)
            } else {
                Scenario::gpr(s.value)
            }
        })
        .collect()
}

/// Served `solutions` against directly computed ones, bit for bit (the
/// wire's shortest-round-trip floats make that a fair demand).
fn served_matches(
    served: Option<&Json>,
    direct: &[GroundingSolution],
    leakage: bool,
) -> Result<(), String> {
    let served = served
        .and_then(Json::as_arr)
        .ok_or("reply carries no 'solutions' array")?;
    ensure(served.len() == direct.len(), || {
        format!(
            "{} served vs {} direct solutions",
            served.len(),
            direct.len()
        )
    })?;
    for (i, (s, d)) in served.iter().zip(direct).enumerate() {
        let field = |name: &str| number(s, &[name]).map(f64::to_bits);
        let scalars = field("gpr") == Some(d.gpr.to_bits())
            && field("total_current") == Some(d.total_current.to_bits())
            && field("equivalent_resistance") == Some(d.equivalent_resistance.to_bits())
            && number(s, &["solver_iterations"]) == Some(d.solver_iterations as f64);
        ensure(scalars, || {
            format!(
                "solution {i}: served Req {:?} vs direct {}",
                number(s, &["equivalent_resistance"]),
                d.equivalent_resistance
            )
        })?;
        let served_leakage = s.get("leakage").and_then(Json::as_arr);
        let leakage_ok = match (leakage, served_leakage) {
            (false, None) => true,
            (true, Some(q)) => {
                q.len() == d.leakage.len()
                    && q.iter()
                        .zip(&d.leakage)
                        .all(|(a, b)| a.as_f64().map(f64::to_bits) == Some(b.to_bits()))
            }
            _ => false,
        };
        ensure(leakage_ok, || {
            format!("solution {i}: leakage vector differs")
        })?;
    }
    Ok(())
}

// ───────────────────────────── serve-warm ─────────────────────────────

struct Warm {
    server: ServerHandle,
    script: WarmScript,
    /// Cache misses the priming paid; the measurement must add none.
    primed_misses: f64,
}

/// Set-up: generate the script, spawn the server, make every study the
/// script touches resident.
fn setup_warm(cfg: &Config) -> Result<Warm, String> {
    let script = WarmScript::new(cfg.seed, cfg.scale);
    let server = spawn_server(cfg, 1 << 30)?;
    let mut client = connect(&server)?;
    for request in script.priming() {
        client
            .request(&request)
            .map_err(|e| format!("priming request failed: {e}"))?;
    }
    let stats = client
        .request(&op_request("stats"))
        .map_err(|e| e.to_string())?;
    let primed_misses = number(&stats, &["cache", "misses"]).ok_or("stats without cache.misses")?;
    Ok(Warm {
        server,
        script,
        primed_misses,
    })
}

/// The part of a reply that must be identical every time the variant is
/// asked: the answers, not the timings.
fn answer(reply: &Json) -> Vec<Option<&Json>> {
    ["solutions", "results", "gpr", "req"]
        .iter()
        .map(|k| reply.get(k))
        .collect()
}

/// What one connection of the closed loop saw.
#[derive(Default)]
struct WarmLog {
    /// `(variant, latency seconds)` per request, in order.
    samples: Vec<(usize, f64)>,
    /// First reply per variant, kept for the oracle.
    firsts: BTreeMap<usize, Json>,
    tally: Tally,
}

impl WarmLog {
    /// Sends `variant` once, timing request → reply, then checks it.
    fn request(&mut self, client: &mut ServeClient, script: &WarmScript, variant: usize) {
        let v = &script.variants[variant];
        let t = Instant::now();
        let reply = client.request(&v.request);
        self.samples.push((variant, t.elapsed().as_secs_f64()));
        let outcome = reply.map_err(|e| e.to_string()).and_then(|reply| {
            match v.class {
                WarmClass::Control => {}
                WarmClass::Sweep => ensure(
                    number(&reply, &["cache_hits"]) == Some(script.sweep_samples as f64),
                    || "sweep replay was not answered entirely from cache".to_string(),
                )?,
                _ => ensure(
                    reply.get("cache_hit").and_then(Json::as_bool) == Some(true),
                    || "solve against a resident study was not a cache hit".to_string(),
                )?,
            }
            match self.firsts.get(&variant) {
                Some(first) => ensure(answer(first) == answer(&reply), || {
                    "a repeated request was answered differently".to_string()
                }),
                None => {
                    self.firsts.insert(variant, reply);
                    Ok(())
                }
            }
        });
        self.tally
            .record(outcome.map_err(|e| format!("{} request: {e}", v.class.label())));
    }
}

/// The closed loop: `connections` clients, each sending its next request
/// only after the previous reply, for `seconds`. Returns each
/// connection's log and the wall time of the longest-running one.
fn warm_closed_loop(cfg: &Config, warm: &Warm, seconds: f64) -> (Vec<WarmLog>, f64) {
    let barrier = Barrier::new(cfg.connections);
    let per_connection: Vec<(WarmLog, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|conn| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = WarmLog::default();
                    let client = connect(&warm.server);
                    barrier.wait();
                    let mut client = match client {
                        Ok(c) => c,
                        Err(e) => {
                            log.tally.record(Err(e));
                            return (log, 0.0);
                        }
                    };
                    let start = Instant::now();
                    let mut i = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        log.request(&mut client, &warm.script, warm.script.pick(conn, i));
                        i += 1;
                    }
                    (log, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = per_connection.iter().map(|(_, w)| *w).fold(0.0, f64::max);
    (
        per_connection.into_iter().map(|(log, _)| log).collect(),
        wall_s,
    )
}

/// The oracle: every variant's first reply against a direct
/// `Study::solve_batch` (or `run_pipeline`, for the sweep) on the same
/// deck bytes.
fn verify_warm(
    cfg: &Config,
    script: &WarmScript,
    firsts: &BTreeMap<usize, Json>,
    tally: &mut Tally,
) {
    let opts = cfg.solve_options();
    let mut studies: BTreeMap<usize, Result<layerbem_core::study::Study, String>> = BTreeMap::new();
    for (&variant, reply) in firsts {
        let v = &script.variants[variant];
        let outcome = match &v.oracle {
            WarmOracle::None => continue,
            WarmOracle::Solve {
                deck,
                scenarios,
                leakage,
            } => studies
                .entry(*deck)
                .or_insert_with(|| {
                    let case = parse_case(&script.decks[*deck]).map_err(|e| e.to_string())?;
                    direct_study(&case, opts)
                })
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|study| {
                    let direct = study
                        .solve_batch(&scenarios_of(scenarios))
                        .map_err(|e| e.to_string())?;
                    served_matches(reply.get("solutions"), &direct, *leakage)
                }),
            WarmOracle::Sweep { sweep_deck } => parse_case(sweep_deck)
                .map_err(|e| e.to_string())
                .and_then(|case| run_pipeline(&case, opts, 0.0).map_err(|e| e.to_string()))
                .and_then(|result| {
                    let results = reply
                        .get("results")
                        .and_then(Json::as_arr)
                        .ok_or("sweep reply carries no 'results'")?;
                    ensure(results.len() == result.rows.len(), || {
                        "sweep sample count differs".to_string()
                    })?;
                    for (served, row) in results.iter().zip(&result.rows) {
                        let WorkloadRow::Sample(sample) = row else {
                            return Err("pipeline row is not a sweep sample".to_string());
                        };
                        served_matches(served.get("solutions"), &sample.solutions, false)?;
                    }
                    Ok(())
                }),
        };
        tally.record(outcome.map_err(|e| format!("{} oracle: {e}", v.class.label())));
    }
}

fn merged_firsts(logs: &mut [WarmLog], tally: &mut Tally) -> BTreeMap<usize, Json> {
    let mut firsts: BTreeMap<usize, Json> = BTreeMap::new();
    for log in logs {
        for (variant, reply) in std::mem::take(&mut log.firsts) {
            match firsts.get(&variant) {
                Some(first) => tally.record(ensure(answer(first) == answer(&reply), || {
                    "two connections were answered differently".to_string()
                })),
                None => {
                    firsts.insert(variant, reply);
                }
            }
        }
    }
    firsts
}

pub fn run_warm(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (warm, setup_s) = repeat_setup(|| setup_warm(cfg));
    report.setup_s = setup_s;
    let warm = match warm {
        Ok(w) => w,
        Err(e) => {
            report.tally.record(Err(format!("set-up: {e}")));
            return report;
        }
    };

    // A traced run spends half its time in the same closed loop (for the
    // tail percentiles) and half probing one class at a time.
    let loop_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let host = HostClock::now();
    let (mut logs, wall_s) = warm_closed_loop(cfg, &warm, loop_seconds);
    report.peak_rss_mb = peak_rss_mb();
    report.note(host.since());
    for log in &mut logs {
        report.tally.absorb(std::mem::take(&mut log.tally));
    }
    let samples: Vec<(usize, f64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    if samples.is_empty() {
        report.tally.record(Err("no request completed".to_string()));
        return report;
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
    report.ops_per_s = samples.len() as f64 / wall_s;
    report.op_samples = samples.len();
    report.op_ms = stats::median(&latencies) * 1e3;
    let beyond = |p: f64| samples.len() - (p * samples.len() as f64).ceil() as usize;
    report.note(format!(
        "warm_p50_ms = {:.3} (= op_ms)   warm_p95_ms = {:.3} ({} beyond)   \
         warm_p99_ms = {:.3} ({} beyond)   warm_rps = {:.1} (= ops_per_s)   n = {}",
        report.op_ms,
        stats::percentile(&latencies, 0.95) * 1e3,
        beyond(0.95),
        stats::percentile(&latencies, 0.99) * 1e3,
        beyond(0.99),
        samples.len() as f64 / wall_s,
        samples.len()
    ));
    for class in [
        WarmClass::Control,
        WarmClass::Small,
        WarmClass::Large8,
        WarmClass::Sweep,
        WarmClass::Leak,
    ] {
        let of_class: Vec<f64> = samples
            .iter()
            .filter(|(v, _)| warm.script.variants[*v].class == class)
            .map(|s| s.1)
            .collect();
        if !of_class.is_empty() {
            report.note(format!(
                "  {:<8} n = {:<5} share {:.3}   p50 {:>9.3} ms   p95 {:>9.3} ms",
                class.label(),
                of_class.len(),
                of_class.len() as f64 / samples.len() as f64,
                stats::median(&of_class) * 1e3,
                stats::percentile(&of_class, 0.95) * 1e3
            ));
        }
    }

    let mut probe_tracer = Tracer::new(cfg.trace);
    if cfg.trace {
        report.layer("serve.warm.p50_ms", report.op_ms);
        report.layer(
            "serve.warm.p95_ms",
            stats::percentile(&latencies, 0.95) * 1e3,
        );
        report.layer(
            "serve.warm.p99_ms",
            stats::percentile(&latencies, 0.99) * 1e3,
        );
        report.layer("serve.warm.rps", samples.len() as f64 / wall_s);
        warm_probes(
            cfg,
            &warm,
            cfg.seconds - loop_seconds,
            &mut probe_tracer,
            &mut report,
        );
    }

    // Zero assembly, zero factor: the measurement may not have missed.
    let stats_reply = connect(&warm.server)
        .and_then(|mut c| c.request(&op_request("stats")).map_err(|e| e.to_string()));
    let cache_outcome = stats_reply.and_then(|stats| {
        let cache = |key: &str| number(&stats, &["cache", key]).unwrap_or(f64::NAN);
        if cfg.trace {
            report.layer("serve.cache.hits", cache("hits"));
            report.layer("serve.cache.misses", cache("misses"));
            report.layer("serve.cache.evictions", cache("evictions"));
            report.layer("serve.cache.resident_bytes", cache("resident_bytes"));
        }
        ensure(
            cache("misses") == warm.primed_misses
                && cache("evictions") == 0.0
                && number(&stats, &["errors"]) == Some(0.0),
            || {
                format!(
                    "cache missed after priming ({} → {} misses) or the server saw errors",
                    warm.primed_misses,
                    cache("misses")
                )
            },
        )
    });
    report.tally.record(cache_outcome);

    let firsts = merged_firsts(&mut logs, &mut report.tally);
    verify_warm(cfg, &warm.script, &firsts, &mut report.tally);
    crate::write_trace(cfg, &probe_tracer);
    report
}

/// The traced pass of `serve-warm`: one class at a time, the same request
/// answered in process by `Service::handle_line` and over the socket, so
/// the wire's share is the difference; plus the stages a hit pays before
/// it reaches the cache, each in its own span.
fn warm_probes(cfg: &Config, warm: &Warm, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let script = &warm.script;
    let service = warm.server.service();
    let opts = cfg.solve_options();
    let mut client = match connect(&warm.server) {
        Ok(c) => c,
        Err(e) => return report.tally.record(Err(e)),
    };
    let ping = op_request("ping");
    let mut reply_bytes: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed().as_secs_f64() < seconds {
        for class in WarmClass::TRACED {
            let of_class = script.of_class(class);
            let variant = &script.variants[of_class[cycle % of_class.len()]];
            let deck = match &variant.oracle {
                WarmOracle::Solve { deck, .. } => &script.decks[*deck],
                _ => &script.decks[1],
            };
            let line = variant.request.to_line();
            let op = cycle as u64;
            let label = class.label();
            let name = |stage: &str| format!("{stage}.{label}");
            let handled = tracer.span(&name("serve.probe"), op, |tr| {
                let parsed = tr.span(&name("serve.json.parse"), op, |_| Json::parse(&line));
                let request = tr.span(&name("serve.protocol.parse_request"), op, |_| {
                    parse_request(&line)
                });
                let case = tr.span(&name("cad.input.parse"), op, |_| parse_case(deck));
                if let Ok(case) = &case {
                    tr.span(&name("serve.key.hash"), op, |_| StudyKey::of(case, &opts));
                }
                let reply = tr.span(&name("serve.service.handle"), op, |_| {
                    service.handle_line(&line)
                });
                let reply_json = Json::parse(&reply);
                if let Ok(json) = &reply_json {
                    tr.span(&name("serve.json.encode"), op, |_| json.to_line());
                }
                if class == WarmClass::Small {
                    reply_bytes.push(reply.len() as f64);
                }
                parsed.is_ok()
                    && request.is_ok()
                    && case.is_ok()
                    && reply_json.is_ok_and(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
            });
            report.tally.record(ensure(handled, || {
                format!("{label} probe: in-process handling failed")
            }));
            let wire = tracer.span(&name("serve.wire.rtt"), op, |_| {
                client.request(&variant.request)
            });
            report
                .tally
                .record(wire.map(|_| ()).map_err(|e| format!("{label} probe: {e}")));
        }
        let pong = tracer.span("serve.ping.rtt", cycle as u64, |_| client.request(&ping));
        report
            .tally
            .record(pong.map(|_| ()).map_err(|e| format!("ping probe: {e}")));
        cycle += 1;
    }

    let us = |name: &str| stats::median(&tracer.durations(name)) * 1e6;
    for class in WarmClass::TRACED {
        let label = class.label();
        let handle = us(&format!("serve.service.handle.{label}"));
        let rtt = us(&format!("serve.wire.rtt.{label}"));
        report.layer(&format!("serve.service.handle_us.{label}"), handle);
        report.layer(&format!("serve.wire.rtt_us.{label}"), rtt);
        report.layer(&format!("serve.wire.overhead_us.{label}"), rtt - handle);
    }
    // The single-number stage metrics are the `small` class's: it is the
    // class the median request belongs to.
    report.layer("serve.json.parse_us", us("serve.json.parse.small"));
    report.layer("serve.json.encode_us", us("serve.json.encode.small"));
    report.layer(
        "serve.protocol.parse_request_us",
        us("serve.protocol.parse_request.small"),
    );
    report.layer("serve.key.hash_us", us("serve.key.hash.small"));
    report.layer("cad.input.parse_us", us("cad.input.parse.small"));
    report.layer("serve.ping.rtt_us", us("serve.ping.rtt"));
    let small = script.of_class(WarmClass::Small);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let request_bytes: Vec<f64> = small
        .iter()
        .map(|&i| script.variants[i].request.to_line().len() as f64)
        .collect();
    report.layer("serve.request.bytes", mean(&request_bytes));
    report.layer("serve.reply.bytes", stats::median(&reply_bytes));
    report.layer(
        "cad.input.deck_bytes",
        mean(&[script.decks[0].len() as f64, script.decks[1].len() as f64]),
    );
    report.layer("trace.rounds", cycle as f64);
    report.layer("trace.spans", tracer.spans().len() as f64);
    report.note(format!(
        "wire check: handle_us.small + wire.overhead_us.small = {:.1} us vs closed-loop p50 {:.1} us",
        us("serve.wire.rtt.small"),
        report.op_ms * 1e3
    ));
}

// ───────────────────────────── serve-edit ─────────────────────────────

struct Edit {
    server: ServerHandle,
    /// Degrees of freedom of every session's base grid.
    dof: usize,
}

/// Set-up: size the cache to two and a half refined studies (so publishes
/// evict), spawn, and make one study resident through a cold `solve`.
fn setup_edit(cfg: &Config) -> Result<Edit, String> {
    let script = EditScript::new(cfg.seed, 0, 0, cfg.scale);
    let case = parse_case(&script.open_deck).map_err(|e| e.to_string())?;
    let dof = Mesher::new(case.mesh_options).mesh(&case.network).dof();
    // Computed: the packed Cholesky triangle plus two vectors.
    let study_bytes = 8 * dof * (dof + 1) / 2 + 16 * dof;
    let server = spawn_server(cfg, study_bytes * 5 / 2)?;
    connect(&server)?
        .request(&crate::inputs::solve_request(
            &script.open_deck,
            None,
            false,
        ))
        .map_err(|e| format!("priming solve failed: {e}"))?;
    Ok(Edit { server, dof })
}

/// What one request of a session cost and reported.
struct StepLog {
    step: EditStep,
    seconds: f64,
    /// The reply's first edit report, when it has one.
    edit_report: Option<EditCost>,
}

/// What the server says an edit cost (the `reports` entry of its reply).
#[derive(Clone, Copy)]
struct EditCost {
    update_rank: f64,
    pairs_evaluated: f64,
    reintegrate_s: f64,
    update_s: f64,
}

/// One session in flight: its script, what it has logged so far, and
/// whether a failed request left it in an unknown state.
struct Session {
    script: EditScript,
    log: SessionLog,
    abandoned: bool,
}

struct SessionLog {
    conn: usize,
    session: usize,
    /// First request sent → last reply received, the other connections'
    /// turns included.
    seconds: f64,
    steps: Vec<StepLog>,
    /// The key of the deck a from-scratch client would write for the
    /// session's final geometry, predicted before the session starts.
    expected_key: Result<String, String>,
    /// That deck itself, for a connection's first session (the one checked
    /// against a from-scratch prepare); kept for every session the decks
    /// would make peak memory grow with the number of sessions a run fits.
    equivalent_deck: Option<String>,
    published_key: Option<String>,
    /// The `solutions` of the publish reply and of the post-publish solve.
    published: Option<Json>,
    solved: Option<Json>,
}

impl Session {
    fn new(cfg: &Config, conn: usize, session: usize) -> Session {
        let script = EditScript::new(cfg.seed, conn, session, cfg.scale);
        Session {
            log: SessionLog {
                conn,
                session,
                seconds: 0.0,
                steps: Vec::new(),
                expected_key: parse_case(&script.equivalent_deck)
                    .map(|case| StudyKey::of(&case, &cfg.solve_options()).to_string())
                    .map_err(|e| format!("equivalent deck: {e}")),
                equivalent_deck: (session == 0).then(|| script.equivalent_deck.clone()),
                published_key: None,
                published: None,
                solved: None,
            },
            script,
            abandoned: false,
        }
    }

    /// Sends request `index` of the script on `client`, times it, and
    /// checks the reply.
    fn step(
        &mut self,
        index: usize,
        edit: &Edit,
        client: &mut ServeClient,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        if self.abandoned {
            return;
        }
        let (step, request) = &self.script.steps[index];
        let log = &mut self.log;
        let span = match step {
            EditStep::Open => "serve.edit.open",
            EditStep::Move => "serve.edit.move",
            EditStep::Add | EditStep::Remove => "serve.edit.rebuild",
            EditStep::Publish => "serve.edit.publish",
            EditStep::Solve => "serve.edit.post_publish_solve",
        };
        let op = (log.conn * 1000 + log.session) as u64;
        let t = Instant::now();
        let reply = tracer.span(span, op, |_| client.request(request));
        let seconds = t.elapsed().as_secs_f64();
        let what = format!("connection {} session {} {step:?}", log.conn, log.session);
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(format!("{what}: {e}")));
                self.abandoned = true;
                return;
            }
        };
        let report = reply
            .get("reports")
            .and_then(Json::as_arr)
            .and_then(|r| r.first());
        let path = report.and_then(|r| r.get("path")).and_then(Json::as_str);
        let expected_path = match step {
            EditStep::Open | EditStep::Solve => None,
            EditStep::Move | EditStep::Publish => Some("incremental"),
            EditStep::Add | EditStep::Remove => Some("rebuild"),
        };
        let mut outcome = ensure(path == expected_path, || {
            format!("took route {path:?}, expected {expected_path:?}")
        });
        match step {
            EditStep::Open => {
                outcome = outcome.and(ensure(
                    number(&reply, &["dof"]) == Some(edit.dof as f64),
                    || format!("opened with dof {:?}", number(&reply, &["dof"])),
                ));
            }
            EditStep::Publish => {
                log.published_key = reply
                    .get("published_key")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                log.published = reply.get("solutions").cloned();
                outcome = outcome.and(ensure(log.published_key.is_some(), || {
                    "publish reply carries no published_key".to_string()
                }));
            }
            EditStep::Solve => {
                log.solved = reply.get("solutions").cloned();
                let hit = reply.get("cache_hit").and_then(Json::as_bool) == Some(true);
                let key = reply.get("key").and_then(Json::as_str).map(str::to_string);
                outcome = outcome
                    .and(ensure(
                        hit && key.is_some() && key == log.published_key,
                        || {
                            format!(
                                "equivalent deck did not hit the published study \
                                 (hit {hit}, key {key:?}, published {:?})",
                                log.published_key
                            )
                        },
                    ))
                    .and(ensure(log.solved == log.published, || {
                        "published study answers differently than the session did".to_string()
                    }));
            }
            _ => {}
        }
        tally.record(outcome.map_err(|e| format!("{what}: {e}")));
        log.steps.push(StepLog {
            step: *step,
            seconds,
            edit_report: report.map(|r| {
                let f = |k: &str| number(r, &[k]).unwrap_or(f64::NAN);
                EditCost {
                    update_rank: f("update_rank"),
                    pairs_evaluated: f("pairs_evaluated"),
                    reintegrate_s: f("reintegrate_seconds"),
                    update_s: f("update_seconds"),
                }
            }),
        });
    }
}

/// After the clock: every published key against the key of the
/// equivalent deck, and — for each connection's first session — the
/// published answers against a from-scratch prepare of that deck, within
/// 1e-8 relative (rank-k updates are exact up to rounding).
fn verify_edit(cfg: &Config, sessions: &[SessionLog], tally: &mut Tally) {
    let opts = cfg.solve_options();
    for s in sessions {
        let what = format!("connection {} session {}", s.conn, s.session);
        tally.record(s.expected_key.clone().and_then(|key| {
            ensure(s.published_key.as_deref() == Some(key.as_str()), || {
                format!(
                    "{what}: published key {:?} is not the equivalent deck's {key}",
                    s.published_key
                )
            })
        }));
        let Some(Ok(case)) = s.equivalent_deck.as_deref().map(parse_case) else {
            continue;
        };
        let scenarios = [Scenario::gpr(10_000.0), Scenario::fault_current(25_000.0)];
        tally.record(
            direct_study(&case, opts)
                .and_then(|study| study.solve_batch(&scenarios).map_err(|e| e.to_string()))
                .and_then(|direct| {
                    let served = s
                        .solved
                        .as_ref()
                        .and_then(Json::as_arr)
                        .ok_or("no post-publish solutions")?;
                    ensure(served.len() == direct.len(), || {
                        "scenario count differs".to_string()
                    })?;
                    for (served, direct) in served.iter().zip(&direct) {
                        for (name, want) in [
                            ("gpr", direct.gpr),
                            ("equivalent_resistance", direct.equivalent_resistance),
                        ] {
                            let got = number(served, &[name]).unwrap_or(f64::NAN);
                            let rel = ((got - want) / want).abs();
                            ensure(rel <= 1e-8, || {
                                format!("{name} {got} vs from-scratch {want} (rel {rel:.2e})")
                            })?;
                        }
                    }
                    Ok(())
                })
                .map_err(|e| format!("{what}: {e}")),
        );
    }
}

pub fn run_edit(cfg: &Config) -> Report {
    let mut report = Report::default();
    let (edit, setup_s) = repeat_setup(|| setup_edit(cfg));
    report.setup_s = setup_s;
    let edit = match edit {
        Ok(e) => e,
        Err(e) => {
            report.tally.record(Err(format!("set-up: {e}")));
            return report;
        }
    };

    // Every connection runs its sessions back to back on its own thread,
    // so two editable studies are resident and two streams of publishes
    // compete for the cache. The server computes each request on its
    // connection's worker, one thread, so two connections keep two cores
    // busy and never share one: a request's latency is its own cost, and
    // the fastest sample of a step class can come from whichever core
    // the host leaves alone. Traced: one connection alone, inline.
    let connections = if cfg.trace { 1 } else { cfg.connections };
    let mut tracer = Tracer::new(cfg.trace);
    let host = HostClock::now();
    let start = Instant::now();
    let drive = |conn: usize, tracer: &mut Tracer| -> (Vec<SessionLog>, Tally) {
        let (mut sessions, mut tally) = (Vec::new(), Tally::default());
        let mut client = match connect(&edit.server) {
            Ok(c) => c,
            Err(e) => {
                tally.record(Err(e));
                return (sessions, tally);
            }
        };
        while sessions.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
            let round = sessions.len();
            let mut session = Session::new(cfg, conn, round);
            let begun = Instant::now();
            tracer.span("serve.edit.sessions", round as u64, |tr| {
                for index in 0..session.script.steps.len() {
                    session.step(index, &edit, &mut client, tr, &mut tally);
                }
            });
            let seconds = begun.elapsed().as_secs_f64();
            sessions.push(SessionLog {
                seconds,
                ..session.log
            });
        }
        (sessions, tally)
    };
    let driven = if connections == 1 {
        vec![drive(0, &mut tracer)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|conn| {
                    let drive = &drive;
                    scope.spawn(move || drive(conn, &mut Tracer::new(false)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        })
    };
    let mut sessions: Vec<SessionLog> = Vec::new();
    for (logs, tally) in driven {
        sessions.extend(logs);
        report.tally.absorb(tally);
    }
    if sessions.is_empty() {
        return report;
    }
    report.peak_rss_mb = peak_rss_mb();
    report.note(host.since());
    // The second window of set-up repetitions (see `repeat_setup`); each
    // spawns, primes and shuts down a server of its own.
    report.setup_s.extend(repeat_setup(|| setup_edit(cfg)).1);

    let seconds_of = |keep: &dyn Fn(EditStep) -> bool| -> Vec<f64> {
        sessions
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|s| keep(s.step))
            .map(|s| s.seconds)
            .collect()
    };
    let moves = seconds_of(&|s| s == EditStep::Move);
    if moves.is_empty() {
        report.tally.record(Err("no edit completed".to_string()));
        return report;
    }
    let rebuilds = seconds_of(&|s| matches!(s, EditStep::Add | EditStep::Remove));
    let opens = seconds_of(&|s| s == EditStep::Open);
    let publishes = seconds_of(&|s| s == EditStep::Publish);
    let solves = seconds_of(&|s| s == EditStep::Solve);
    // Both end-to-end timings are fastest-sample estimates (see
    // `stats::fastest`): a move takes 4 ms and a run holds a thousand, a
    // rebuild 0.16 s and a run holds a hundred. A session is most of a
    // second of them back to back, too long to fall inside one quiet
    // stretch of the host, so its time is rebuilt from its steps: each
    // step's class at its fastest, summed over the script.
    let session_fast_s: f64 = sessions[0]
        .steps
        .iter()
        .map(|s| {
            stats::fastest(match s.step {
                EditStep::Open => &opens,
                EditStep::Move => &moves,
                EditStep::Add | EditStep::Remove => &rebuilds,
                EditStep::Publish => &publishes,
                EditStep::Solve => &solves,
            })
        })
        .sum();
    let session_s: Vec<f64> = sessions.iter().map(|s| s.seconds).collect();
    report.ops_per_s = sessions[0].steps.len() as f64 / session_fast_s;
    report.op_samples = moves.len();
    report.op_ms = stats::fastest(&moves) * 1e3;
    let ms = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            stats::median(v) * 1e3
        }
    };
    report.note(format!(
        "edit_ms = {:.3} (= op_ms, fastest of {} moves)   edit_p50_ms = {:.3}   edit_p95_ms = {:.3}",
        report.op_ms,
        moves.len(),
        ms(&moves),
        stats::percentile(&moves, 0.95) * 1e3,
    ));
    report.note(format!(
        "edit_session_s = {session_fast_s:.4} (each of its {} steps at its class's fastest)   \
         requests/s = {:.2} (= ops_per_s)   median wall time of {} sessions {:.3} s",
        sessions[0].steps.len(),
        report.ops_per_s,
        sessions.len(),
        stats::median(&session_s),
    ));
    report.note(format!(
        "  medians: open {:.1} ms   rebuild {:.1} ms   publish {:.1} ms   post-publish solve {:.1} ms   dof {}",
        ms(&opens),
        ms(&rebuilds),
        ms(&publishes),
        ms(&solves),
        edit.dof
    ));

    if cfg.trace {
        // Layer times by the end-to-end estimator, so they add up to it.
        let ms = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                stats::fastest(v) * 1e3
            }
        };
        report.layer("serve.edit.open_s", ms(&opens) * 1e-3);
        report.layer("serve.edit.move_ms", ms(&moves));
        report.layer(
            "serve.edit.move_p95_ms",
            stats::percentile(&moves, 0.95) * 1e3,
        );
        report.layer("serve.edit.rebuild_ms", ms(&rebuilds));
        report.layer("serve.edit.publish_ms", ms(&publishes));
        report.layer("serve.edit.post_publish_solve_ms", ms(&solves));
        report.layer("serve.edit.session_s", session_fast_s);
        // From the replies' own edit reports: what the incremental route
        // re-integrated and what the factor update cost.
        let incremental: Vec<EditCost> = sessions
            .iter()
            .flat_map(|s| &s.steps)
            .filter(|s| matches!(s.step, EditStep::Move | EditStep::Publish))
            .filter_map(|s| s.edit_report)
            .collect();
        let column =
            |f: &dyn Fn(&EditCost) -> f64| -> Vec<f64> { incremental.iter().map(f).collect() };
        report.layer(
            "core.incremental.reintegrate_ms",
            ms(&column(&|c| c.reintegrate_s)),
        );
        report.layer("core.incremental.update_ms", ms(&column(&|c| c.update_s)));
        report.layer(
            "numeric.update.sweep_ms",
            ms(&column(&|c| c.update_s / c.update_rank)),
        );
        // Exact per seed: the first session's totals.
        let first = &sessions[0].steps;
        let count =
            |keep: &dyn Fn(EditStep) -> bool| first.iter().filter(|s| keep(s.step)).count() as f64;
        report.layer(
            "core.incremental.pairs_evaluated",
            first
                .iter()
                .filter(|s| matches!(s.step, EditStep::Move | EditStep::Publish))
                .filter_map(|s| s.edit_report)
                .map(|c| c.pairs_evaluated)
                .sum(),
        );
        report.layer(
            "core.incremental.route_incremental",
            count(&|s| matches!(s, EditStep::Move | EditStep::Publish)),
        );
        report.layer(
            "core.incremental.route_rebuild",
            count(&|s| matches!(s, EditStep::Add | EditStep::Remove)),
        );
        report.layer("geometry.mesh.dof", edit.dof as f64);
        report.layer(
            "cad.input.deck_bytes",
            sessions[0].equivalent_deck.as_ref().map_or(0, String::len) as f64,
        );
        report.layer("trace.rounds", sessions.len() as f64);
        report.layer("trace.spans", tracer.spans().len() as f64);
        let session_self: f64 = (0..tracer.spans().len())
            .filter(|&i| tracer.spans()[i].parent.is_none())
            .map(|i| tracer.self_seconds(i))
            .sum();
        report.layer(
            "trace.unattributed_ratio",
            session_self / session_s.iter().sum::<f64>(),
        );
    }

    // The drivers have closed their connections, so a worker is free.
    let stats_reply = connect(&edit.server)
        .and_then(|mut c| c.request(&op_request("stats")).map_err(|e| e.to_string()));
    let cache_outcome = stats_reply.and_then(|stats| {
        let cache = |key: &str| number(&stats, &["cache", key]).unwrap_or(f64::NAN);
        if cfg.trace {
            report.layer("serve.cache.hits", cache("hits"));
            report.layer("serve.cache.misses", cache("misses"));
            report.layer("serve.cache.evictions", cache("evictions"));
            report.layer("serve.cache.resident_bytes", cache("resident_bytes"));
        }
        report.note(format!(
            "  cache: {} hits, {} misses, {} evictions, {} bytes resident of {} allowed",
            cache("hits"),
            cache("misses"),
            cache("evictions"),
            cache("resident_bytes"),
            cache("max_resident_bytes")
        ));
        // One priming miss; every post-publish solve a hit; the budget held.
        ensure(
            cache("misses") == 1.0
                && cache("hits") == sessions.iter().filter(|s| s.solved.is_some()).count() as f64
                && cache("resident_bytes") <= cache("max_resident_bytes")
                && number(&stats, &["errors"]) == Some(0.0),
            || "cache counters disagree with the script".to_string(),
        )
    });
    report.tally.record(cache_outcome);

    verify_edit(cfg, &sessions, &mut report.tally);
    crate::write_trace(cfg, &tracer);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    /// The whole scripted edit sequence through `Service::handle_line` in
    /// one request: the study it publishes is keyed exactly like the
    /// equivalent deck the generator renders from its own arithmetic.
    #[test]
    fn equivalent_deck_reproduces_the_published_key() {
        let script = EditScript::new(9, 1, 2, Scale { smoke: true });
        let ops: Vec<Json> = script
            .steps
            .iter()
            .filter_map(|(_, request)| request.get("edits")?.as_arr())
            .flatten()
            .cloned()
            .collect();
        assert!(
            ops.len() > 4,
            "moves, an add, a remove and the publishing move"
        );
        let request = Json::obj(vec![
            ("op", Json::str("edit")),
            ("deck", Json::str(script.open_deck.as_str())),
            ("edits", Json::Arr(ops)),
            ("publish", Json::Bool(true)),
        ]);
        let server = spawn(ServerConfig::default()).expect("server");
        let reply = Json::parse(&server.service().handle_line(&request.to_line())).expect("reply");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply:?}"
        );
        let case = parse_case(&script.equivalent_deck).expect("equivalent deck");
        assert_eq!(
            reply.get("published_key").and_then(Json::as_str),
            Some(
                StudyKey::of(&case, &SolveOptions::default())
                    .to_string()
                    .as_str()
            )
        );
    }
}
