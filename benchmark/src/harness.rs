//! What every workload shares: the run configuration, failure accounting,
//! the metric tables `BENCHMARK.json` is generated from, and the result
//! line the driver reads.

use std::collections::BTreeMap;
use std::time::Instant;

use layerbem_cad::input::CadCase;
use layerbem_core::formulation::SolveOptions;
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_serve::Json;

use crate::inputs::Scale;
use crate::stats;

/// The four workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold-layered",
        "deck bytes to report on the paper's native grids in two-layer soil, plain one-thread path: image-series kernels and pair assembly dominate, factor and wire are bypassed",
    ),
    (
        "cold-dense",
        "deck bytes to report on refined Barbera (628 dof) in uniform soil, plain one-thread path: no image series, so Cholesky/LU factor, multi-RHS solves and PCG show",
    ),
    (
        "serve-warm",
        "closed loop of 2 connections against resident studies: zero assembly or factor, only parse, key, cache lookup, back-substitution, JSON and socket",
    ),
    (
        "serve-edit",
        "2 connections side by side through edit sessions (630 dof) under eviction pressure: rank-k factor updates, rebuilds and cache writes beside reads",
    ),
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one; what "op" means per workload is the table in the README.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

/// Per-layer metrics, from the traced pass. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 80] = [
    layer("cad.input.parse_us", "us", false),
    layer("cad.input.deck_bytes", "B", false),
    layer("cad.report.render_us", "us", false),
    layer("cad.report.bytes", "B", false),
    layer("cad.pipeline.barbera-2l_s", "s", false),
    layer("cad.pipeline.balaidos-c_s", "s", false),
    layer("cad.pipeline.balaidos-b-sweep_s", "s", false),
    layer("cad.pipeline.barbera-2l-map_s", "s", false),
    layer("cad.pipeline.dense-chol_s", "s", false),
    layer("cad.pipeline.dense-cg_s", "s", false),
    layer("cad.pipeline.dense-colloc-lu_s", "s", false),
    layer("geometry.mesh.build_ms", "ms", false),
    layer("geometry.mesh.elements", "count", false),
    layer("geometry.mesh.dof", "count", false),
    layer("soil.series.terms", "count", false),
    layer("soil.series.terms_per_s", "1/s", true),
    layer("core.system.new_ms", "ms", false),
    layer("core.assembly.wall_s", "s", false),
    layer("core.assembly.pairs", "count", false),
    layer("core.assembly.pairs_per_s", "1/s", true),
    layer("core.assembly.serial_wall_s", "s", false),
    layer("parfor.assembly.speedup", "ratio", true),
    layer("numeric.cholesky.factor_s", "s", false),
    layer("numeric.cholesky.gflops", "GFLOP/s", true),
    layer("numeric.lu.prepare_s", "s", false),
    layer("core.study.resident_bytes", "B", false),
    layer("core.study.solve_batch_ms", "ms", false),
    layer("core.study.solve_per_scenario_us", "us", false),
    layer("numeric.pcg.iterations", "count", false),
    layer("numeric.pcg.solve_s", "s", false),
    layer("core.post.map_s", "s", false),
    layer("core.post.points_per_s", "1/s", true),
    layer("core.workload.sweep_s", "s", false),
    layer("parfor.sweep.speedup", "ratio", true),
    layer("cold.share.assembly_map", "ratio", true),
    layer("cold.share.factor_solve", "ratio", true),
    layer("core.incremental.reintegrate_ms", "ms", false),
    layer("core.incremental.update_ms", "ms", false),
    layer("numeric.update.sweep_ms", "ms", false),
    layer("core.incremental.pairs_evaluated", "count", false),
    layer("core.incremental.route_incremental", "count", true),
    layer("core.incremental.route_rebuild", "count", false),
    layer("serve.json.parse_us", "us", false),
    layer("serve.json.encode_us", "us", false),
    layer("serve.protocol.parse_request_us", "us", false),
    layer("serve.key.hash_us", "us", false),
    layer("serve.service.handle_us.small", "us", false),
    layer("serve.service.handle_us.sweep", "us", false),
    layer("serve.service.handle_us.large8", "us", false),
    layer("serve.service.handle_us.leak", "us", false),
    layer("serve.wire.rtt_us.small", "us", false),
    layer("serve.wire.rtt_us.sweep", "us", false),
    layer("serve.wire.rtt_us.large8", "us", false),
    layer("serve.wire.rtt_us.leak", "us", false),
    layer("serve.wire.overhead_us.small", "us", false),
    layer("serve.wire.overhead_us.sweep", "us", false),
    layer("serve.wire.overhead_us.large8", "us", false),
    layer("serve.wire.overhead_us.leak", "us", false),
    layer("serve.ping.rtt_us", "us", false),
    layer("serve.warm.p50_ms", "ms", false),
    layer("serve.warm.p95_ms", "ms", false),
    layer("serve.warm.p99_ms", "ms", false),
    layer("serve.warm.rps", "1/s", true),
    layer("serve.request.bytes", "B", false),
    layer("serve.reply.bytes", "B", false),
    layer("serve.cache.hits", "count", true),
    layer("serve.cache.misses", "count", false),
    layer("serve.cache.evictions", "count", false),
    layer("serve.cache.resident_bytes", "B", false),
    layer("serve.edit.open_s", "s", false),
    layer("serve.edit.move_ms", "ms", false),
    layer("serve.edit.move_p95_ms", "ms", false),
    layer("serve.edit.rebuild_ms", "ms", false),
    layer("serve.edit.publish_ms", "ms", false),
    layer("serve.edit.post_publish_solve_ms", "ms", false),
    layer("serve.edit.session_s", "s", false),
    layer("trace.rounds", "count", true),
    layer("trace.spans", "count", false),
    layer("trace.unattributed_ratio", "ratio", false),
    layer("trace_overhead_ratio", "ratio", false),
];

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the measurement loop keeps starting new ops.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Width of the timed path: `pool_threads` where the measured ops are
    /// pooled (`serve-warm`), 1 — the plain serial path — where they are
    /// timed one core each (see `main::config`).
    pub threads: usize,
    /// Compute-pool width, `min(nproc, 4)`: what the pooled references and
    /// the traced pass's pooled-against-serial probes run on.
    pub pool_threads: usize,
    /// Concurrent clients: socket connections (and server connection
    /// workers) of the served workloads, side-by-side lanes of `cold-dense`.
    pub connections: usize,
    /// Where a traced run writes its spans.
    pub trace_dir: std::path::PathBuf,
}

impl Config {
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }

    pub fn schedule(&self) -> Schedule {
        Schedule::dynamic(1)
    }

    /// The options the CLI would build for `--threads <threads>`: the
    /// plain serial path at one thread, the pooled one otherwise.
    pub fn solve_options(&self) -> SolveOptions {
        if self.threads == 1 {
            SolveOptions::default()
        } else {
            SolveOptions::default().with_parallelism(self.pool(), self.schedule())
        }
    }

    /// The pooled path at `pool_threads`, whatever the timed path is.
    pub fn pooled_options(&self) -> SolveOptions {
        SolveOptions::default()
            .with_parallelism(ThreadPool::new(self.pool_threads), self.schedule())
    }
}

/// The options the pipeline and the server derive for a parsed deck: its
/// `formulation`/`solver` keywords override the caller's.
pub fn case_options(case: &CadCase, opts: SolveOptions) -> SolveOptions {
    SolveOptions {
        formulation: case.formulation,
        solver: case.solver,
        ..opts
    }
}

/// Ops attempted and failed. An op that errors, is refused, or fails a
/// correctness check counts once, with the first few reasons kept.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(20);
    }
}

/// `Ok(())` when `ok`, else the lazily built reason.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Everything a workload run produces.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// One sample per set-up repetition; the metric is the fastest.
    pub setup_s: Vec<f64>,
    /// Latency of the workload's unit op by the workload's own estimator
    /// (see the README's metric table), and its sample count.
    pub op_ms: f64,
    pub op_samples: usize,
    /// Sustained throughput in the workload's own ops (see the README).
    pub ops_per_s: f64,
    /// `VmHWM` when the measurement ended, before verification.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced pass), by name.
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines: aliases, sample counts, sizing.
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unlisted per-layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// End-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        vec![
            stats::fastest(&self.setup_s),
            self.op_ms,
            self.ops_per_s,
            self.peak_rss_mb,
        ]
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self.layers.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), metric(value, m.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|(m, v)| (m.name.to_string(), metric(v, m.unit)))
                .collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// `BENCHMARK.json`, generated from the tables above so the manifest and
/// the program cannot drift apart.
pub fn manifest(run_seconds: u64) -> String {
    let quote = |s: &str| Json::str(s).to_line();
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--locked\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let direction = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                direction(m),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(m.name),
                quote(m.unit),
                direction(m)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-side counters that tell a quiet run from a contended one: CPU
/// time stolen by the hypervisor (machine-wide) and CPU time this process
/// consumed, both in seconds since boot / process start.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostClock {
    pub steal_s: f64,
    pub busy_s: f64,
    pub process_cpu_s: f64,
}

impl HostClock {
    /// Reads `/proc/stat` and `/proc/self/stat`; fields that cannot be
    /// read stay zero (the counters are diagnostics, never metrics).
    pub fn now() -> HostClock {
        // USER_HZ is 100 on every Linux this runs on.
        let ticks = |s: &str| s.parse::<f64>().map_or(0.0, |t| t / 100.0);
        let mut clock = HostClock::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(cpu) = stat.lines().next() {
                let f: Vec<f64> = cpu.split_whitespace().skip(1).map(ticks).collect();
                // user nice system idle iowait irq softirq steal
                if f.len() >= 8 {
                    clock.steal_s = f[7];
                    clock.busy_s = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
                }
            }
        }
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 12th and 13th of those.
            if let Some(rest) = stat.rsplit(')').next() {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() > 12 {
                    clock.process_cpu_s = ticks(f[11]) + ticks(f[12]);
                }
            }
        }
        clock
    }

    /// One line for the report: how contended the host was since `self`.
    pub fn since(self) -> String {
        let now = HostClock::now();
        let busy = now.busy_s - self.busy_s;
        let steal = now.steal_s - self.steal_s;
        format!(
            "host: {:.1} CPU-s used by this process, {:.1} CPU-s stolen by the hypervisor \
             ({:.1} % of the machine's busy time) during the measurement",
            now.process_cpu_s - self.process_cpu_s,
            steal,
            if busy > 0.0 {
                100.0 * steal / busy
            } else {
                0.0
            }
        )
    }
}

/// Sets up repeatedly and keeps the last instance: at least three
/// repetitions, and cheap set-ups keep repeating (up to fifteen) until
/// they have filled three quarters of a second. `setup_s` is the fastest
/// repetition (see `stats::fastest`); the workloads whose set-up is a
/// fraction of a second call this a second time after the measurement,
/// so the repetitions fall into two windows half a minute apart and the
/// host has to be slow in both to slow the fastest of them.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let built = setup();
        samples.push(t.elapsed().as_secs_f64());
        let total: f64 = samples.iter().sum();
        if samples.len() >= 15 || (samples.len() >= 3 && total >= 0.75) {
            return (built, samples);
        }
        drop(built);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = Json::parse(&committed).expect("valid JSON");
        let seconds = parsed
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert_eq!(committed, manifest(seconds as u64));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let mut report = Report {
            setup_s: vec![0.5, 0.25, 0.75],
            op_ms: 2.5,
            op_samples: 4,
            ops_per_s: 2.0,
            peak_rss_mb: 12.5,
            ..Report::default()
        };
        report.tally.record(Ok(()));
        report.tally.record(Err("nope".into()));
        let line = report.result_json(false).to_line();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"op_ms\":{\"value\":2.5,\"unit\":\"ms\"},\
             \"ops_per_s\":{\"value\":2,\"unit\":\"1/s\"},\
             \"peak_rss_mb\":{\"value\":12.5,\"unit\":\"MB\"}}}"
        );
        report.layer("trace.spans", 3.0);
        let traced = report.result_json(true);
        let metrics = traced.get("metrics").expect("metrics");
        for m in &PER_LAYER {
            assert!(metrics.get(m.name).is_some(), "{}", m.name);
        }
        assert_eq!(
            metrics
                .get("trace.spans")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
