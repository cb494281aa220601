//! End-to-end and per-layer benchmark of layerbem.
//!
//! ```text
//! layerbem-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! layerbem-benchmark [--seed N] [--seconds S] [--smoke] [--sets K] [--out FILE]
//! layerbem-benchmark compare PARENT.jsonl CHANGE.jsonl
//! layerbem-benchmark manifest
//! ```
//!
//! With `--workload`, runs that workload in this process and prints every
//! metric by name and unit, then — as the last line of standard output —
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without it, runs every workload (a fresh process each, so
//! peak memory is per workload), untraced then traced; `--sets K` repeats
//! the untraced suite `K` times and holds each metric's spread between
//! sets against its bound. Exits non-zero on any correctness failure.
//!
//! See `benchmark/README.md` for what each workload and metric means.

// The benchmark is the API freeze for what it calls: nothing deprecated.
#![deny(deprecated)]

mod cold;
mod harness;
mod inputs;
mod serve;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use harness::{Config, Report, END_TO_END, PER_LAYER, WORKLOADS};
use inputs::Scale;
use trace::Tracer;

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u64 = 26;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
    pub out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: layerbem-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1]\n\
         \u{20}                         [--smoke] [--sets K] [--out FILE]\n\
         \u{20}      layerbem-benchmark compare PARENT.jsonl CHANGE.jsonl\n\
         \u{20}      layerbem-benchmark manifest",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next()?;
                WORKLOADS.iter().find(|(w, _)| w == name)?;
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = Some(it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?),
            "--trace" => {
                args.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--smoke" => args.smoke = true,
            "--sets" => args.sets = it.next()?.parse().ok().filter(|k| *k >= 1)?,
            "--out" => args.out = Some(it.next()?.clone()),
            _ => return None,
        }
    }
    Some(args)
}

pub fn config(args: &Args, workload: &str) -> Config {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only `serve-warm` times pooled ops (its median request is mostly a
    // kernel timer, which the host cannot slow). The other three time the
    // plain one-thread path (`SolveOptions::default()`), one core each: a
    // core of the shared host flips between full speed and two thirds of
    // it for seconds at a time, an op pooled over both cores sees a blend
    // of the two that is different in every run, while an op on one core
    // is, often enough, wholly undisturbed — and then repeats to 1 %. On
    // top of that `parfor` spawns its threads per parallel region, so the
    // 628-dof decks (thousands of sub-millisecond regions: one per PCG
    // mat-vec, factor panel and update sweep) take 1.6× as long pooled as
    // serial. Pooled is still checked against serial bit for bit after
    // the clock, and measured against it in the traced pass
    // (`parfor.assembly.speedup`, `parfor.sweep.speedup`).
    let pooled = workload == "serve-warm";
    let pool_threads = nproc.min(4);
    Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.5 } else { RUN_SECONDS as f64 }),
        trace: args.trace,
        scale: Scale { smoke: args.smoke },
        threads: if pooled { pool_threads } else { 1 },
        pool_threads,
        connections: 2,
        // Relative to the working directory: the checkout root the
        // command is documented to run from.
        trace_dir: "benchmark/out".into(),
    }
}

pub fn run_workload(cfg: &Config) -> Report {
    match cfg.workload.as_str() {
        "cold-layered" => cold::run(cfg, true),
        "cold-dense" => cold::run(cfg, false),
        "serve-warm" => serve::run_warm(cfg),
        "serve-edit" => serve::run_edit(cfg),
        other => unreachable!("workload '{other}' passed argument validation"),
    }
}

/// Writes a traced run's spans to `<trace_dir>/trace-<workload>.json`.
/// Tracing is an observation aid: a write failure is reported, not fatal.
pub fn write_trace(cfg: &Config, tracer: &Tracer) {
    if !tracer.enabled() {
        return;
    }
    let path = cfg.trace_dir.join(format!("trace-{}.json", cfg.workload));
    let written = std::fs::create_dir_all(&cfg.trace_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(&cfg.workload, cfg.seed).to_line()));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}

fn print_report(cfg: &Config, report: &Report) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}  smoke {}  timed path {} threads  pool {} threads  connections {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.scale.smoke,
        cfg.threads,
        cfg.pool_threads,
        cfg.connections
    );
    for line in &report.notes {
        println!("{line}");
    }
    if cfg.trace {
        for m in &PER_LAYER {
            if let Some(v) = report.layers.get(m.name) {
                println!("{:<40} {v:>16.4} {}", m.name, m.unit);
            }
        }
    } else {
        let samples = [report.setup_s.len(), report.op_samples];
        for (i, (m, v)) in END_TO_END.iter().zip(report.end_to_end()).enumerate() {
            let n = samples
                .get(i)
                .map_or(String::new(), |n| format!("  (n = {n})"));
            println!("{:<40} {v:>16.4} {}{n}", m.name, m.unit);
        }
    }
    println!(
        "fail_ratio {}/{}",
        report.tally.failed, report.tally.attempted
    );
    for why in &report.tally.reasons {
        println!("FAILED: {why}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", harness::manifest(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match argv.as_slice() {
                [_, parent, change] => suite::compare(parent, change),
                _ => usage(),
            }
        }
        _ => {}
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let Some(workload) = &args.workload else {
        return suite::run_all(&args);
    };
    let cfg = config(&args, workload);
    let report = run_workload(&cfg);
    print_report(&cfg, &report);
    let line = report.result_json(cfg.trace).to_line();
    if let Some(path) = &args.out {
        if let Err(e) = suite::append_result(path, &cfg, &line) {
            eprintln!("error: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.tally.failed == 0 && report.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` miniature of every workload, untraced and traced:
    /// every check the full benchmark makes still runs, and passes.
    #[test]
    fn smoke_suite_runs_every_workload_and_every_check() {
        // Inside the benchmark's own (ignored) output directory.
        let trace_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-smoke-{}", std::process::id()));
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: Some(workload.to_string()),
                    seed: 42,
                    seconds: Some(0.3),
                    trace,
                    smoke: true,
                    sets: 1,
                    out: None,
                };
                let cfg = Config {
                    trace_dir: trace_dir.clone(),
                    ..config(&args, workload)
                };
                let report = run_workload(&cfg);
                assert_eq!(
                    report.tally.failed, 0,
                    "{workload} trace {trace}: {:?}",
                    report.tally.reasons
                );
                assert!(report.tally.attempted > 0, "{workload}: nothing attempted");
                if trace {
                    let spans =
                        std::fs::read_to_string(trace_dir.join(format!("trace-{workload}.json")))
                            .expect("trace file");
                    let spans = layerbem_serve::Json::parse(&spans).expect("trace is JSON");
                    assert!(!spans
                        .get("spans")
                        .and_then(layerbem_serve::Json::as_arr)
                        .expect("spans")
                        .is_empty());
                    assert!(report.layers["trace.spans"] > 0.0);
                } else {
                    for (m, v) in END_TO_END.iter().zip(report.end_to_end()) {
                        assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload serve-warm --seed 7 --seconds 10 --trace 1",
        ))
        .expect("the driver's own command line");
        assert_eq!(args.workload.as_deref(), Some("serve-warm"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(10.0), true));
        // The seed has a default, and is echoed.
        assert_eq!(
            parse_args(&argv("--workload cold-dense"))
                .expect("defaults")
                .seed,
            1
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--sets 0",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_none(), "{bad}");
        }
    }
}
