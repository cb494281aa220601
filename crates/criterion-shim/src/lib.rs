//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment for this repository has no access to a crates.io
//! registry, so the real `criterion` cannot be vendored. This shim keeps the
//! workspace's `benches/` sources compiling and running unmodified:
//! `criterion_group!`/`criterion_main!`, `Criterion::benchmark_group`,
//! `bench_function`/`bench_with_input`, `BenchmarkId`, and `Bencher::iter`.
//!
//! Positional harness args act as substring name filters, like real
//! criterion's `cargo bench -- <filter>` (though real criterion treats the
//! filter as a regex; this shim matches substrings only).
//!
//! Two execution modes, selected from the harness arguments cargo passes:
//! - **bench mode** (`cargo bench` passes `--bench`): each benchmark is
//!   calibrated to ~25 ms per sample and measured over `sample_size`
//!   samples; median / min / max per-iteration wall time is printed.
//! - **test mode** (anything else, e.g. `cargo test --benches`): each
//!   benchmark body runs exactly once, as a smoke test.
//!
//! No statistical analysis, plots, or baselines. Swap the workspace
//! `criterion` dependency back to the real crate when a registry is
//! reachable; the bench sources need no changes.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall time per measured sample in bench mode.
const TARGET_SAMPLE: Duration = Duration::from_millis(25);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Full measurement (`cargo bench`).
    Bench,
    /// Run every body once (`cargo test --benches`).
    Test,
}

pub struct Criterion {
    mode: Mode,
    default_sample_size: usize,
    /// Positional harness args (`cargo bench -- <substring>...`): when
    /// non-empty, only benchmarks whose full name contains one of them run.
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut bench = false;
        let mut filters = Vec::new();
        for arg in std::env::args().skip(1) {
            if arg == "--bench" {
                bench = true;
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        Criterion {
            mode: if bench { Mode::Bench } else { Mode::Test },
            default_sample_size: 100,
            filters,
        }
    }
}

impl Criterion {
    fn matches_filter(&self, label: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| label.contains(f.as_str()))
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        self.run_one(&id.into().full_name(None), sample_size, f);
        self
    }

    fn run_one<F>(&mut self, label: &str, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if !self.matches_filter(label) {
            return;
        }
        let mut b = Bencher {
            mode: self.mode,
            sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        match self.mode {
            Mode::Test => println!("bench {label}: ok (test mode, 1 iteration)"),
            Mode::Bench => {
                b.samples
                    .sort_by(|a, c| a.partial_cmp(c).expect("finite timings"));
                if b.samples.is_empty() {
                    println!("bench {label}: no samples (Bencher::iter never called)");
                } else {
                    let median = b.samples[b.samples.len() / 2];
                    let min = b.samples[0];
                    let max = b.samples[b.samples.len() - 1];
                    println!(
                        "bench {label}: median {} (min {}, max {}, {} samples)",
                        fmt_ns(median),
                        fmt_ns(min),
                        fmt_ns(max),
                        b.samples.len()
                    );
                }
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = id.into().full_name(Some(&self.name));
        let n = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run_one(&label, n, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

pub struct BenchmarkId {
    function_name: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function_name: Some(function_name.into()),
            parameter: Some(parameter.to_string()),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function_name: None,
            parameter: Some(parameter.to_string()),
        }
    }

    fn full_name(&self, group: Option<&str>) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if let Some(g) = group {
            parts.push(g);
        }
        if let Some(f) = self.function_name.as_deref() {
            parts.push(f);
        }
        if let Some(p) = self.parameter.as_deref() {
            parts.push(p);
        }
        parts.join("/")
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            function_name: Some(name.to_owned()),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            function_name: Some(name),
            parameter: None,
        }
    }
}

pub struct Bencher {
    mode: Mode,
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        match self.mode {
            Mode::Test => {
                black_box(routine());
            }
            Mode::Bench => {
                // Calibrate: how many iterations fill TARGET_SAMPLE?
                let mut iters_per_sample: u64 = 1;
                loop {
                    let t = Instant::now();
                    for _ in 0..iters_per_sample {
                        black_box(routine());
                    }
                    let elapsed = t.elapsed();
                    if elapsed >= TARGET_SAMPLE || iters_per_sample >= 1 << 30 {
                        break;
                    }
                    // Aim past the target so the loop terminates quickly.
                    let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                    iters_per_sample = (iters_per_sample as f64 * scale.clamp(2.0, 100.0)) as u64;
                }
                self.samples.clear();
                for _ in 0..self.sample_size {
                    let t = Instant::now();
                    for _ in 0..iters_per_sample {
                        black_box(routine());
                    }
                    self.samples
                        .push(t.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64);
                }
            }
        }
    }
}

/// Expands to a function running each target against one `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Expands to `fn main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_each_body_once() {
        let mut c = Criterion {
            mode: Mode::Test,
            default_sample_size: 100,
            filters: Vec::new(),
        };
        let mut runs = 0;
        {
            let mut g = c.benchmark_group("group");
            g.sample_size(10);
            g.bench_function("case", |b| b.iter(|| runs += 1));
            g.bench_with_input(BenchmarkId::new("param", 42), &3usize, |b, &x| {
                b.iter(|| runs += x)
            });
            g.finish();
        }
        assert_eq!(runs, 4);
    }

    #[test]
    fn name_filters_select_benchmarks() {
        let mut c = Criterion {
            mode: Mode::Test,
            default_sample_size: 100,
            filters: vec!["two_layer".to_string()],
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("kernel");
            g.bench_function("uniform", |b| b.iter(|| ran.push("uniform")));
            g.bench_function("two_layer_barbera", |b| b.iter(|| ran.push("two_layer")));
            g.finish();
        }
        assert_eq!(ran, ["two_layer"]);
    }

    #[test]
    fn benchmark_id_naming() {
        assert_eq!(
            BenchmarkId::new("f", 8).full_name(Some("g")),
            "g/f/8".to_string()
        );
        assert_eq!(
            BenchmarkId::from_parameter("dynamic(1)").full_name(Some("g")),
            "g/dynamic(1)".to_string()
        );
        assert_eq!(
            BenchmarkId::from("plain").full_name(None),
            "plain".to_string()
        );
    }
}
