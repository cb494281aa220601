//! Grounding-as-a-service round trip: spawn the study server in-process,
//! ask it the same deck twice, and watch the second request answer from
//! the resident factorization.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
//!
//! Against a standalone server (`cargo run --release -p layerbem-serve`),
//! replace the `spawn` with `ServeClient::connect("127.0.0.1:4811")`.

use layerbem::core::study::Scenario;
use layerbem::serve::{spawn, Json, ServeClient, ServerConfig};

const DECK: &str = "\
title example substation
soil two-layer 0.016 0.012 2.0
grid rect 0 0 20 20 2 2 0.8 0.006
solver cholesky
gpr 5000
";

fn main() {
    // 1. Start a server on a kernel-assigned loopback port. In
    //    production this runs once, stays resident, and answers every
    //    engineer's scenario sweeps from the shared cache.
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    println!("server listening on {}", handle.addr());

    let mut client = ServeClient::connect(handle.addr()).expect("connect");

    // 2. First request: a cache miss — the server meshes, assembles and
    //    factorizes the study, then answers the sweep.
    let scenarios = [
        Scenario::gpr(5000.0),
        Scenario::fault_current(10.0),
        Scenario::fault_current(25.0),
    ];
    let cold = client
        .solve(DECK, Some(&scenarios), false)
        .expect("cold solve");
    println!(
        "cold:  key {} cache_hit {} dof {} prepare {:.3}s solve {:.6}s",
        cold.key, cold.cache_hit, cold.dof, cold.prepare_seconds, cold.solve_seconds
    );

    // 3. Second request, same grounding problem: a cache hit — the study
    //    and its unit solution are resident, each scenario is a scaling.
    let warm = client
        .solve(DECK, Some(&scenarios), false)
        .expect("warm solve");
    println!(
        "warm:  key {} cache_hit {} prepare {:.6}s solve {:.6}s",
        warm.key, warm.cache_hit, warm.prepare_seconds, warm.solve_seconds
    );
    for (a, b) in cold.solutions.iter().zip(&warm.solutions) {
        assert_eq!(
            a.gpr.to_bits(),
            b.gpr.to_bits(),
            "answers are bit-identical"
        );
    }
    for s in &warm.solutions {
        println!(
            "  GPR {:8.1} V  fault current {:8.2} A  Req {:.4} Ω",
            s.gpr, s.total_current, s.equivalent_resistance
        );
    }

    // 4. The server's ledger: one miss, one hit, one resident study.
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    println!(
        "stats: hits {} misses {} resident_bytes {}",
        cache.get("hits").and_then(Json::as_f64).unwrap_or(0.0),
        cache.get("misses").and_then(Json::as_f64).unwrap_or(0.0),
        cache
            .get("resident_bytes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );

    handle.shutdown();
}
