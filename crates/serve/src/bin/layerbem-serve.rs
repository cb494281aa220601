//! The `layerbem-serve` binary: a resident grounding-study server.
//!
//! ```text
//! layerbem-serve [--listen ADDR] [--max-resident-bytes N] [--threads N]
//! ```
//!
//! * `--listen` — bind address (default `127.0.0.1:4811`; port 0 picks a
//!   free port, printed in the readiness line).
//! * `--max-resident-bytes` — study-cache budget; accepts plain bytes or
//!   `k`/`m`/`g` suffixes (default 0 = unlimited).
//! * `--threads` — connection workers, and the size of the pool each
//!   study's assembly and factorization run on (default 1, a one-thread
//!   pool; every thread count gives the same bits, so this never changes
//!   answers).
//!
//! On success the process prints `layerbem-serve listening on ADDR` and
//! serves until killed — the readiness line is what the CI smoke job and
//! the integration tests wait for.

use layerbem_core::formulation::SolveOptions;
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_serve::{spawn, ServerConfig};

const USAGE: &str =
    "usage: layerbem-serve [--listen ADDR] [--max-resident-bytes N[k|m|g]] [--threads N]";

fn fail(message: &str) -> ! {
    eprintln!("layerbem-serve: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Parses `N`, `Nk`, `Nm`, `Ng` into bytes.
fn parse_bytes(text: &str) -> Option<usize> {
    let lower = text.to_ascii_lowercase();
    let (digits, scale) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(head) => (
            head,
            match lower.as_bytes()[lower.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (lower.as_str(), 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(scale)
}

fn main() {
    layerbem_cad::cpu::check("layerbem-serve");
    let mut config = ServerConfig {
        listen: "127.0.0.1:4811".to_string(),
        ..Default::default()
    };
    let mut threads = 1usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} expects a value")))
        };
        match arg.as_str() {
            "--listen" => config.listen = value("--listen"),
            "--max-resident-bytes" => {
                let v = value("--max-resident-bytes");
                config.max_resident_bytes = parse_bytes(&v)
                    .unwrap_or_else(|| fail(&format!("bad --max-resident-bytes '{v}'")));
            }
            "--threads" => {
                let v = value("--threads");
                threads = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| fail(&format!("bad --threads '{v}'")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }

    config.workers = threads;
    config.solve =
        SolveOptions::default().with_parallelism(ThreadPool::new(threads), Schedule::dynamic(1));

    match spawn(config) {
        Ok(handle) => {
            println!("layerbem-serve listening on {}", handle.addr());
            handle.join();
        }
        Err(e) => {
            eprintln!("layerbem-serve: cannot bind: {e}");
            std::process::exit(1);
        }
    }
}
