//! Socket-level integration tests of the study server.
//!
//! These exercise the full stack — TCP accept loop, line framing, JSON
//! protocol, keyed cache, and the solve core — with real clients on real
//! sockets, checking the three promises the server makes: concurrent
//! clients asking the same question pay exactly one prepare, served
//! answers are bit-identical to a direct [`Study`] solve, and the
//! residency budget evicts least-recently-used studies without losing
//! correctness — also when a client hangs up mid-request.

use std::io::{BufRead, BufReader, Write};
use std::mem::size_of;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use layerbem_cad::{parse_case, run_pipeline, CadCase};
use layerbem_core::incremental::EditOp;
use layerbem_core::workload::{FreshSource, StudySource, WorkloadRow};
use layerbem_core::{Scenario, SolveOptions, SolverChoice};
use layerbem_geometry::Conductor;
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_serve::protocol::solutions_json;
use layerbem_serve::{spawn, Json, ServeClient, ServerConfig, Service};
use layerbem_soil::Layer;

/// A small but non-trivial deck: a 3×3-cell grid in two-layer soil.
const GRID_DECK: &str = "title integration grid\n\
     soil two-layer 0.016 0.012 2.0\n\
     grid rect 0 0 12 12 3 3 0.6 0.008\n\
     solver cholesky\n\
     gpr 5000\n";

/// A second, distinct deck for eviction tests.
const ROD_DECK: &str = "soil uniform 0.016\nrod 0 0 0.5 3 0.01\nsolver cholesky\n";

fn default_server() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    }
}

/// N clients, one deck, one barrier: the cache must single-flight the
/// prepare (1 miss, N−1 hits) and every client must receive answers
/// bit-identical to solving the same prepared [`Study`] directly.
#[test]
fn concurrent_clients_share_one_prepare_and_match_direct_solves() {
    let handle = spawn(default_server()).expect("spawn server");
    let addr = handle.addr();

    let scenarios = [Scenario::gpr(5000.0), Scenario::fault_current(25.0)];

    // The reference: the same case prepared directly, bypassing the
    // server entirely — the fresh study source, with the deck's `solver`
    // keyword laid over the defaults exactly as the server does.
    let case = parse_case(GRID_DECK).expect("deck parses");
    assert_eq!(case.solver, SolverChoice::Cholesky);
    let study = FreshSource
        .study(&case.study_spec(SolveOptions::default()))
        .expect("direct prepare")
        .study;
    let direct: Vec<_> = scenarios
        .iter()
        .map(|s| study.solve(s).expect("direct solve"))
        .collect();

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let replies: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                barrier.wait();
                client
                    .solve(GRID_DECK, Some(&scenarios), true)
                    .expect("served solve")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Exactly one prepare across all clients; cache_hit in each reply is
    // consistent with the single-flight outcome.
    let misses = replies.iter().filter(|r| !r.cache_hit).count();
    assert_eq!(misses, 1, "single-flight must admit exactly one prepare");

    for reply in &replies {
        assert_eq!(reply.dof, study.dof());
        assert_eq!(reply.solutions.len(), direct.len());
        for (served, want) in reply.solutions.iter().zip(&direct) {
            // Bit-identical across the text protocol: the wire format
            // prints f64 shortest-round-trip, so parsing it back must
            // reproduce the exact bits of the direct solve.
            assert_eq!(served.gpr.to_bits(), want.gpr.to_bits());
            assert_eq!(served.total_current.to_bits(), want.total_current.to_bits());
            assert_eq!(
                served.equivalent_resistance.to_bits(),
                want.equivalent_resistance.to_bits()
            );
            assert_eq!(served.solver_iterations, want.solver_iterations);
            let leakage = served.leakage.as_ref().expect("leakage requested");
            assert_eq!(leakage.len(), want.leakage.len());
            for (a, b) in leakage.iter().zip(&want.leakage) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    // The server's own ledger agrees.
    let mut client = ServeClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        cache.get("hits").and_then(Json::as_f64),
        Some((CLIENTS - 1) as f64)
    );
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(1.0)
    );

    handle.shutdown();
}

/// A one-byte residency budget keeps at most the just-inserted study, so
/// alternating between two decks evicts on every switch and re-requesting
/// the first deck pays a fresh prepare — the cache never serves a stale
/// or missing entry, it just re-prepares.
#[test]
fn lru_eviction_under_budget_forces_reprepare() {
    let handle = spawn(ServerConfig {
        max_resident_bytes: 1,
        ..default_server()
    })
    .expect("spawn server");

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let first = client.solve(GRID_DECK, None, false).expect("solve A");
    assert!(!first.cache_hit);
    let other = client.solve(ROD_DECK, None, false).expect("solve B");
    assert!(!other.cache_hit, "different deck is its own cache key");
    let again = client.solve(GRID_DECK, None, false).expect("solve A again");
    assert!(
        !again.cache_hit,
        "budget evicted the first study, so this must re-prepare"
    );
    assert_eq!(again.key, first.key, "same deck, same key");

    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(3.0));
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(0.0));
    assert!(
        cache.get("evictions").and_then(Json::as_f64) >= Some(2.0),
        "each switch past the budget evicts the previous resident"
    );
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(1.0),
        "only the just-inserted study survives a one-byte budget"
    );

    // The answers themselves are unaffected by eviction.
    assert_eq!(
        first.solutions[0].gpr.to_bits(),
        again.solutions[0].gpr.to_bits()
    );

    handle.shutdown();
}

/// An unlimited budget keeps both studies resident and both hot.
#[test]
fn unlimited_budget_keeps_every_study_hot() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    assert!(!client.solve(GRID_DECK, None, false).expect("A").cache_hit);
    assert!(!client.solve(ROD_DECK, None, false).expect("B").cache_hit);
    assert!(client.solve(GRID_DECK, None, false).expect("A'").cache_hit);
    assert!(client.solve(ROD_DECK, None, false).expect("B'").cache_hit);
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        cache.get("resident_studies").and_then(Json::as_f64),
        Some(2.0)
    );
    assert_eq!(cache.get("evictions").and_then(Json::as_f64), Some(0.0));
    handle.shutdown();
}

/// A client that sends a cold `solve` and closes its socket before the
/// reply costs the server nothing but that prepare: it keeps serving, the
/// next client's identical deck is a cache hit, and the resident bytes
/// are exactly the entry's study plus its remembered deck (text + parse).
#[test]
fn a_client_that_hangs_up_mid_solve_leaves_exact_accounting() {
    let handle = spawn(default_server()).expect("spawn server");
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let line = Json::obj(vec![
            ("op", Json::str("solve")),
            ("deck", Json::str(GRID_DECK)),
        ]);
        stream
            .write_all(format!("{}\n", line.to_line()).as_bytes())
            .expect("send");
        // Dropped here: closed before a reply could be read.
    }
    // The hung-up request's prepare still lands in the cache.
    let cache = handle.service().cache();
    let deadline = Instant::now() + Duration::from_secs(60);
    while cache.residency().0 == 0 {
        assert!(
            Instant::now() < deadline,
            "the orphaned prepare never landed"
        );
        thread::sleep(Duration::from_millis(2));
    }

    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let reply = client.solve(GRID_DECK, None, false).expect("served solve");
    assert!(reply.cache_hit, "the hung-up client's prepare is reused");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    let number = |name: &str| cache.get(name).and_then(Json::as_f64);
    assert_eq!(number("misses"), Some(1.0));
    assert_eq!(number("hits"), Some(1.0));
    assert_eq!(number("resident_studies"), Some(1.0));

    // The entry's charge, re-derived from its parts: the study's
    // resident bytes plus the deck alias — the text and its parse, the
    // struct and its vectors at length.
    let case = parse_case(GRID_DECK).expect("deck parses");
    let study = FreshSource
        .study(&case.study_spec(SolveOptions::default()))
        .expect("direct prepare")
        .study;
    let scenarios = case.scenarios.len() + case.workload.scenario_list().map_or(0, <[_]>::len);
    let alias = GRID_DECK.len()
        + size_of::<CadCase>()
        + case.title.len()
        + case.network.len() * size_of::<Conductor>()
        + case.soil.layers().len() * size_of::<Layer>()
        + scenarios * size_of::<Scenario>()
        + case.edits.len() * size_of::<EditOp>();
    assert_eq!(
        number("resident_bytes"),
        Some((study.resident_bytes() + alias) as f64)
    );

    handle.shutdown();
}

/// A non-finite scenario drive smuggled in as `1e999` (which our lenient
/// number parser reads as +∞) is rejected with a typed `solve` error over
/// the wire — not a panic, not a NaN answer — and the connection stays
/// usable afterwards.
#[test]
fn non_finite_drive_is_a_typed_solve_error_over_the_wire() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let deck_json = "soil uniform 0.016\\nrod 0 0 0.5 3 0.01\\nsolver cholesky\\n";
    let line = format!(
        "{{\"op\":\"solve\",\"deck\":\"{deck_json}\",\"scenarios\":[{{\"kind\":\"gpr\",\"value\":1e999}}]}}\n"
    );
    stream.write_all(line.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    let v = Json::parse(&reply).expect("reply is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let error = v.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("solve"));

    // The connection survives the rejected request.
    stream.write_all(b"{\"op\":\"ping\"}\n").expect("ping");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    let v = Json::parse(&pong).expect("pong is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

/// Garbage bytes on the socket get a typed `protocol` error line, and the
/// server keeps serving.
#[test]
fn garbage_lines_get_protocol_errors_not_disconnects() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for junk in ["not json at all\n", "[1,2,3]\n", "{\"op\":\"warp\"}\n"] {
        stream.write_all(junk.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let v = Json::parse(&reply).expect("reply is JSON");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string);
        assert_eq!(kind.as_deref(), Some("protocol"));
    }
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    client.ping().expect("still serving");
    handle.shutdown();
}

/// The split-write regression: a request line longer than the old 8 KiB
/// `BufWriter` used to leave as two sends (the line, then a lone `\n`
/// that Nagle held back for the peer's delayed ACK), costing ≥ 40 ms on
/// every round trip over loopback. One `write_all` per line on a
/// `TCP_NODELAY` socket answers a resident study in well under 20 ms.
#[test]
fn long_request_lines_round_trip_without_the_delayed_ack_stall() {
    let handle = spawn(default_server()).expect("spawn server");
    let mut client = ServeClient::connect(handle.addr()).expect("connect");
    let mut deck = String::from(ROD_DECK);
    while deck.len() <= 8 * 1024 {
        deck.push_str("# padding so the request line outgrows one 8 KiB buffer\n");
    }
    client.solve(&deck, None, false).expect("cold solve");
    let fastest = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let reply = client.solve(&deck, None, false).expect("warm solve");
            assert!(reply.cache_hit);
            t.elapsed()
        })
        .min()
        .expect("five trips");
    assert!(
        fastest < std::time::Duration::from_millis(20),
        "fastest of five warm round trips took {fastest:?}"
    );
    handle.shutdown();
}

/// One executor under both front ends: what the server answers for a
/// deck is bit for bit what `run_pipeline` computes for it — scenario
/// decks and seeded soil sweeps, serial and on a 2-thread pool.
#[test]
fn served_solutions_equal_the_pipelines_rows_bit_for_bit() {
    let sweep_deck = format!("{GRID_DECK}sweep soil-samples 4 seed 7\n");
    let pooled = SolveOptions::default().with_parallelism(ThreadPool::new(2), Schedule::dynamic(1));
    for opts in [SolveOptions::default(), pooled] {
        let service = Service::new(0, opts);
        for (op, deck) in [("solve", GRID_DECK), ("sweep", sweep_deck.as_str())] {
            let line = Json::obj(vec![
                ("op", Json::str(op)),
                ("deck", Json::str(deck)),
                ("include_leakage", Json::Bool(true)),
            ]);
            let reply = Json::parse(&service.handle_line(&line.to_line())).expect("JSON reply");
            // One `solutions` array per study: the reply's own, or one
            // per sweep sample. Shortest-round-trip floats: equal text
            // is equal bits.
            let served: Vec<String> = match reply.get("results").and_then(Json::as_arr) {
                Some(samples) => samples.iter().collect(),
                None => vec![&reply],
            }
            .into_iter()
            .map(|r| r.get("solutions").expect("solutions").to_line())
            .collect();
            let case = parse_case(deck).expect("deck parses");
            let mut direct: Vec<Vec<_>> = Vec::new();
            for row in run_pipeline(&case, opts, 0.0).expect("pipeline runs").rows {
                match row {
                    WorkloadRow::Sample(sample) => direct.push(sample.solutions),
                    WorkloadRow::Scenario(s) if direct.is_empty() => direct.push(vec![s]),
                    WorkloadRow::Scenario(s) => direct[0].push(s),
                    WorkloadRow::Candidate(_) => unreachable!("no search deck here"),
                }
            }
            let direct: Vec<String> = direct
                .iter()
                .map(|solutions| solutions_json(solutions, true).to_line())
                .collect();
            assert_eq!(
                served,
                direct,
                "{op}, threads: {}",
                opts.parallelism.pool.threads()
            );
        }
    }
}
