//! Whole-suite runs and the tooling around recorded results.
//!
//! Without `--workload` the binary runs every workload in a fresh child
//! process of itself (so `peak_rss_mb` is per workload), untraced then
//! traced; `--sets K` repeats the untraced suite and holds each metric's
//! spread between sets against its bound. `--out FILE` appends every
//! result as one JSON line, and `compare` applies the comparison rule of
//! the choosing-metrics guide (§8) to two such files.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use layerbem_serve::Json;

use crate::harness::{Config, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{self, Verdict};
use crate::Args;

/// Appends one run to `path`: `{"workload", "seed", "trace", "result"}`.
pub fn append_result(path: &str, cfg: &Config, result_line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{result_line}}}",
        Json::str(cfg.workload.as_str()).to_line(),
        cfg.seed,
        u8::from(cfg.trace)
    )?;
    file.flush()
}

/// Runs one workload in a child process, relays what it prints, and
/// returns its end-to-end metric values when it succeeded.
fn run_child(args: &Args, workload: &str, trace: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(out) = &args.out {
        command.args(["--out", out]);
    }
    // `output` waits for the child to exit.
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = Json::parse(stdout.lines().last()?).ok()?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return None;
    };
    output.status.success().then(|| {
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect()
    })
}

pub fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    // values[(workload, metric)] = one value per set.
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..args.sets {
        for (workload, _) in WORKLOADS {
            println!("── set {} · {workload} · untraced ──", set + 1);
            match run_child(args, workload, false) {
                Some(metrics) => {
                    for (name, v) in metrics {
                        values
                            .entry((workload.to_string(), name))
                            .or_default()
                            .push(v);
                    }
                }
                None => ok = false,
            }
        }
    }
    for (workload, _) in WORKLOADS {
        println!("── {workload} · traced ──");
        ok &= run_child(args, workload, true).is_some();
    }
    if args.sets >= 2 {
        println!(
            "── spread between {} sets (inter-quartile distance / median) ──",
            args.sets
        );
        for ((workload, name), v) in &values {
            let Some(def) = END_TO_END.iter().find(|m| m.name == name) else {
                continue;
            };
            let spread = stats::spread(v);
            println!(
                "{workload:<14} {name:<12} spread {spread:>7.4}  bound {:<5} {}  values {v:?}",
                def.bound,
                if spread <= def.bound {
                    "within"
                } else {
                    "EXCEEDS"
                },
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark FAILED: a workload reported failures (see FAILED lines above)");
        ExitCode::FAILURE
    }
}

/// Untraced results of a `--out` file: `(workload, metric)` → values in
/// file order.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        if let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values)
}

fn describe(def: &MetricDef, parent: &[f64], change: &[f64]) -> String {
    let pairs = parent.len().min(change.len());
    let summary = |v: &[f64]| {
        if v.len() < 2 {
            return format!("{:?}", v);
        }
        let (q1, q3) = stats::quartiles(v);
        format!(
            "median {:.5} [q1 {:.5}, q3 {:.5}]",
            stats::median(v),
            q1,
            q3
        )
    };
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if def.higher_is_better { c > p } else { c < p })
        .count();
    let verdict = match stats::verdict(parent, change, !def.higher_is_better, def.bound) {
        Verdict::Gain => "GAIN",
        Verdict::Regression => "REGRESSION",
        Verdict::Unchanged => "unchanged",
        Verdict::Unresolved => "unresolved (parent spread exceeds the bound)",
        Verdict::TooFewPairs => "too few pairs (need 10)",
    };
    format!(
        "parent {}  change {}  wins {wins}/{pairs}  {verdict}",
        summary(parent),
        summary(change)
    )
}

/// `compare PARENT CHANGE`: per workload and end-to-end metric, medians
/// and quartiles of both sides and the verdict. Runs pair up in file
/// order, so record them alternating which side goes first.
pub fn compare(parent_path: &str, change_path: &str) -> ExitCode {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressed = false;
    for ((workload, name), p) in &parent {
        let (Some(def), Some(c)) = (
            END_TO_END.iter().find(|m| m.name == name),
            change.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        let line = describe(def, p, c);
        regressed |= line.contains("REGRESSION");
        println!("{workload:<14} {name:<12} {line}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_runs_load_back_grouped_by_workload_and_metric() {
        // Inside the benchmark's own (ignored) output directory.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-suite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let path = path.to_str().unwrap();
        let cfg = |workload: &str, trace| Config {
            workload: workload.to_string(),
            seed: 3,
            seconds: 1.0,
            trace,
            scale: crate::inputs::Scale { smoke: true },
            threads: 1,
            pool_threads: 2,
            connections: 2,
            trace_dir: dir.clone(),
        };
        let result = |v: f64| {
            format!("{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"op_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}")
        };
        for v in [1.0, 2.0] {
            append_result(path, &cfg("serve-warm", false), &result(v)).unwrap();
        }
        append_result(path, &cfg("serve-warm", true), &result(9.0)).unwrap();
        append_result(path, &cfg("cold-dense", false), &result(5.0)).unwrap();
        let loaded = load(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            loaded[&("serve-warm".to_string(), "op_ms".to_string())],
            [1.0, 2.0],
            "traced runs are not end-to-end samples"
        );
        assert_eq!(
            loaded[&("cold-dense".to_string(), "op_ms".to_string())],
            [5.0]
        );
    }

    #[test]
    fn comparison_lines_name_the_verdict() {
        let def = &END_TO_END[1];
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert!(describe(def, &parent, &faster).ends_with("wins 10/10  GAIN"));
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert!(describe(def, &parent, &slower).ends_with("wins 0/10  REGRESSION"));
        assert!(describe(def, &parent[..3], &slower[..3]).contains("too few pairs"));
    }
}
