//! The resident TCP server: accept loop, connection workers, and the
//! request handler shared by both (and by the fuzz tests, which drive
//! [`Service::handle_line`] directly — no socket required).
//!
//! Every deck-carrying op is *validate → execute → render*: parse the
//! deck, resolve the workload the request asks for, hand both to the one
//! executor ([`layerbem_core::workload::execute`], shared with the CAD
//! pipeline) and render its rows as JSON. The server's own part is the
//! **study source**: the request's deck over the keyed [`StudyCache`],
//! falling back on a miss to the same [`StudySpec::prepare`] the CLI
//! runs. Whatever validation can refuse is refused before the cache is
//! touched. A deck the cache holds as a resident study's alias is not
//! parsed again: its case and key are read off the entry after a byte
//! comparison.
//!
//! Threading: one accept thread feeds a fixed pool of connection workers
//! (one connection per worker at a time; a request may still use the
//! solver's pool via [`SolveOptions::parallelism`], and `sweep` fans its
//! samples over it). All workers share one [`Service`] through an `Arc` —
//! sound because a prepared `Study` is `Send + Sync` and immutable.
//! Thread-per-connection is a measured choice (PR 14): a ping round trip
//! cost 0.2 ms against milliseconds of handling, so no readiness loop is
//! built. Each reply leaves in **one** `write_all` on a `TCP_NODELAY`
//! socket; a `\n` sent on its own waits ~40 ms for the peer's delayed ACK.
//!
//! The `edit` op is the one **stateful** corner: each connection owns an
//! optional [`EditSessionState`] with a private editable study. Cached
//! `Arc<Study>` entries are never mutated — `publish` inserts a frozen
//! snapshot under the edited geometry's key ([`StudyCache::publish`]).
//! A deck with `edit` stanzas is answered only here; `solve` and `sweep`
//! draw *shared* studies, so the executor refuses it for them.
//!
//! Robustness, each pinned by a test: request lines are capped at
//! 16 MiB; every request runs under `catch_unwind` (a panic becomes an
//! `internal` error line and the worker lives on); malformed JSON, bad
//! decks, disconnected electrodes, singular systems and non-finite drives
//! map to typed kinds ([`crate::errors::ErrorKind`]).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layerbem_cad::{parse_case, CadCase};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::incremental::{EditOp, EditSession};
use layerbem_core::study::Scenario;
use layerbem_core::workload::{sweep_quantiles, ExecuteError, StudySpec, Workload};

use crate::cache::{Deck, StudyCache};
use crate::errors::{ErrorKind, RequestError};
use crate::json::Json;
use crate::key::StudyKey;
use crate::metrics::Metrics;
use crate::protocol::{
    edit_report_json, ok_obj, parse_request, quantiles_json, soil_json, solutions_json, Request,
};

/// Hard cap on one request line (a deck embedded in JSON): 16 MiB.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Read-poll interval: how often an idle connection checks for shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub listen: String,
    /// Study-cache residency budget in bytes (0 = unlimited).
    pub max_resident_bytes: usize,
    /// Connection worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Solve options used for every study (deck `formulation`/`solver`
    /// keywords override their two fields, exactly like the CLI).
    pub solve: SolveOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            max_resident_bytes: 0,
            workers: 2,
            solve: SolveOptions::default(),
        }
    }
}

/// The request-handling core shared by every worker (and usable without
/// any socket — the fuzz suite feeds lines straight in).
pub struct Service {
    cache: StudyCache,
    metrics: Metrics,
    solve: SolveOptions,
}

impl Service {
    /// A service answering with `solve` options under a residency budget.
    pub fn new(max_resident_bytes: usize, solve: SolveOptions) -> Self {
        Service {
            cache: StudyCache::new(max_resident_bytes),
            metrics: Metrics::default(),
            solve,
        }
    }

    /// The shared study cache.
    pub fn cache(&self) -> &StudyCache {
        &self.cache
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Answers one request line with one response line (no trailing
    /// newline). **Never panics**: any panic in the handler is caught and
    /// reported as an `internal` error response.
    ///
    /// Session-less entry point (the fuzz suite and one-shot callers):
    /// an `edit` request must carry its own deck, and the session it
    /// opens is discarded after the line. Connections use
    /// [`handle_line_with_session`](Self::handle_line_with_session).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with_session(line, &mut None)
    }

    /// [`handle_line`](Self::handle_line) with a caller-held edit
    /// session: consecutive `edit` requests routed through the same
    /// `session` slot keep editing one private study. A caught panic
    /// drops the session — it may have died mid-edit, and the connection
    /// must not keep answering from a half-updated study.
    pub fn handle_line_with_session(
        &self,
        line: &str,
        session: &mut Option<EditSessionState>,
    ) -> String {
        Metrics::bump(&self.metrics.requests);
        let reply = match catch_unwind(AssertUnwindSafe(|| self.answer(line, session))) {
            Ok(Ok(reply)) => reply,
            Ok(Err(e)) => {
                Metrics::bump(&self.metrics.errors);
                e.to_json()
            }
            Err(_) => {
                *session = None;
                Metrics::bump(&self.metrics.errors);
                RequestError::new(ErrorKind::Internal, "request handler panicked").to_json()
            }
        };
        reply.to_line()
    }

    fn answer(
        &self,
        line: &str,
        session: &mut Option<EditSessionState>,
    ) -> Result<Json, RequestError> {
        match parse_request(line)? {
            Request::Ping => Ok(ok_obj("ping", Json::Obj(Vec::new()))),
            Request::Stats => Ok(ok_obj(
                "stats",
                self.metrics
                    .to_json(self.cache.residency(), self.cache.max_resident_bytes()),
            )),
            Request::Solve {
                deck,
                scenarios,
                include_leakage,
            } => self.solve(&deck, scenarios, include_leakage),
            Request::Sweep {
                deck,
                samples,
                seed,
                sigma,
                scenarios,
                include_leakage,
            } => self.sweep(&deck, samples, seed, sigma, scenarios, include_leakage),
            Request::Edit {
                deck,
                edits,
                scenarios,
                include_leakage,
                publish,
            } => self.edit(
                deck.as_deref(),
                &edits,
                scenarios,
                include_leakage,
                publish,
                session,
            ),
        }
    }

    /// `solve`: the request's scenarios (else the deck's) answered from
    /// the deck's study, prepared or reused through the cache.
    fn solve(
        &self,
        deck: &str,
        scenarios: Option<Vec<Scenario>>,
        include_leakage: bool,
    ) -> Result<Json, RequestError> {
        let resolved = self.deck(deck)?;
        let workload = Workload::Scenarios(request_scenarios(&resolved.case, scenarios)?);
        let run = resolved.execute(&workload)?.into_scenarios();
        self.metrics
            .solve
            .record(Duration::from_secs_f64(run.solve_seconds));
        Ok(ok_obj(
            "solve",
            Json::obj(vec![
                ("key", Json::str(resolved.key.to_string())),
                ("cache_hit", Json::Bool(run.study.reused)),
                ("dof", Json::Num(run.study.study.dof() as f64)),
                ("prepare_seconds", Json::Num(run.study.prepare_seconds)),
                ("solve_seconds", Json::Num(run.solve_seconds)),
                ("solutions", solutions_json(&run.solutions, include_leakage)),
            ]),
        ))
    }

    /// `sweep`: seeded soil samples around the deck's soil, each under
    /// its own [`StudyKey`] (the key hashes soil layers), with
    /// GPR/resistance quantiles. Request fields win over the deck's
    /// `sweep` stanza ([`CadCase::soil_sweep`]). The executor draws every
    /// soil serially before any solve, so a repeated request is answered
    /// bit-identically from cache, whatever the server's pool.
    fn sweep(
        &self,
        deck: &str,
        samples: Option<usize>,
        seed: Option<u64>,
        sigma: Option<f64>,
        scenarios: Option<Vec<Scenario>>,
        include_leakage: bool,
    ) -> Result<Json, RequestError> {
        let resolved = self.deck(deck)?;
        let scenarios = request_scenarios(&resolved.case, scenarios)?;
        let sweep = resolved
            .case
            .soil_sweep(samples, seed, sigma, scenarios)
            .map_err(RequestError::protocol)?;
        let (samples, seed, sigma) = (sweep.samples, sweep.seed, sweep.sigma);
        let rows = resolved
            .execute(&Workload::SoilSweep(sweep))?
            .into_samples();
        let spec = resolved.spec();
        let (gpr, req) = sweep_quantiles(&rows);
        let mut results = Vec::with_capacity(rows.len());
        for row in &rows {
            self.metrics
                .solve
                .record(Duration::from_secs_f64(row.solve_seconds));
            let key = StudyKey::of_spec(&StudySpec {
                soil: &row.soil,
                ..spec
            });
            results.push(Json::obj(vec![
                ("sample", Json::Num(row.index as f64)),
                ("soil", soil_json(&row.soil)),
                ("key", Json::str(key.to_string())),
                ("cache_hit", Json::Bool(row.reused)),
                ("solutions", solutions_json(&row.solutions, include_leakage)),
            ]));
        }
        let hits = rows.iter().filter(|row| row.reused).count();
        Ok(ok_obj(
            "sweep",
            Json::obj(vec![
                ("samples", Json::Num(samples as f64)),
                ("seed", Json::Num(seed as f64)),
                ("sigma", Json::Num(sigma)),
                ("cache_hits", Json::Num(hits as f64)),
                ("results", Json::Arr(results)),
                ("gpr", quantiles_json(gpr)),
                ("req", quantiles_json(req)),
            ]),
        ))
    }

    /// `edit`: opens (a deck replays its own `edit` stanzas first, like
    /// the CLI) or continues the connection's private session, applies
    /// the ops incrementally, answers from the edited study and — on
    /// `publish` — snapshots it into the shared cache under the edited
    /// geometry's key. Earlier ops stay committed when a later one
    /// fails: the session reflects the last *successful* edit.
    fn edit(
        &self,
        deck: Option<&str>,
        edits: &[EditOp],
        scenarios: Option<Vec<Scenario>>,
        include_leakage: bool,
        publish: bool,
        session: &mut Option<EditSessionState>,
    ) -> Result<Json, RequestError> {
        if let Some(list) = &scenarios {
            Scenario::validate(list).map_err(refused)?;
        }
        if let Some(deck) = deck {
            let case = self.deck(deck)?.case;
            let scenarios = request_scenarios(&case, None)?;
            let spec = case.study_spec(self.solve);
            let t = Instant::now();
            let (open, _) = EditSession::replay(&spec, &case.edits).map_err(refused)?;
            self.metrics.prepare.record(t.elapsed());
            *session = Some(EditSessionState {
                session: open,
                case,
                scenarios,
            });
        }
        let state = session.as_mut().ok_or_else(|| {
            RequestError::protocol(
                "no edit session is open on this connection; include a 'deck' field to open one",
            )
        })?;
        let mut reports = Vec::with_capacity(edits.len());
        for op in edits {
            reports.push(state.session.apply(op).map_err(refused)?);
        }
        let scenarios = scenarios.as_deref().unwrap_or(&state.scenarios);
        let study = state.session.study();
        let t = Instant::now();
        let solutions = study.solve_batch(scenarios).map_err(refused)?;
        self.metrics.solve.record(t.elapsed());

        let mut pairs = vec![
            ("dof", Json::Num(study.dof() as f64)),
            ("session_edits", Json::Num(study.profile().edits as f64)),
            (
                "reports",
                Json::Arr(reports.iter().map(edit_report_json).collect()),
            ),
            ("solutions", solutions_json(&solutions, include_leakage)),
        ];
        if publish {
            let key = StudyKey::of_spec(&StudySpec {
                network: state.session.network(),
                ..state.case.study_spec(self.solve)
            });
            pairs.push(("published_key", Json::str(key.to_string())));
            let bytes = self.cache.publish(key, Arc::new(study.frozen_clone()));
            pairs.push(("published_bytes", Json::Num(bytes as f64)));
        }
        Ok(ok_obj("edit", Json::obj(pairs)))
    }

    /// The one place a request's deck is parsed: a deck the cache holds
    /// as a resident study's alias is read off it instead, key included
    /// (byte-verified by `StudyCache::alias`). A failed parse is never
    /// remembered.
    fn deck<'a>(&'a self, text: &'a str) -> Result<Deck<'a>, RequestError> {
        let (case, key, parsed) = match self.cache.alias(text) {
            Some((case, key)) => (case, key, None),
            None => {
                let case = Arc::new(parse_case(text)?);
                let key = StudyKey::of(&case, &self.solve);
                (case, key, Some(text))
            }
        };
        Ok(Deck {
            cache: &self.cache,
            metrics: &self.metrics,
            opts: self.solve,
            case,
            key,
            parsed,
        })
    }
}

/// The connection-scoped state behind the `edit` op: the live session,
/// the deck it was opened from (which keys a published study) and that
/// deck's scenarios. Held by the connection loop, not the shared
/// [`Service`] — sessions are private by construction.
pub struct EditSessionState {
    session: EditSession,
    case: Arc<CadCase>,
    scenarios: Vec<Scenario>,
}

/// A library refusal as its wire error, kind preserved.
fn refused(e: impl Into<ExecuteError>) -> RequestError {
    e.into().into()
}

/// The scenarios a request answers: its own `scenarios` field, else the
/// deck's (a design-search deck has none: that shape is not a wire op).
fn request_scenarios(
    case: &CadCase,
    explicit: Option<Vec<Scenario>>,
) -> Result<Vec<Scenario>, RequestError> {
    match (explicit, case.workload.scenario_list()) {
        (Some(list), _) => Ok(list),
        (None, Some(list)) => Ok(list.to_vec()),
        (None, None) => Err(RequestError::protocol(
            "deck asks for a design search; pass explicit 'scenarios' or run it via the CLI",
        )),
    }
}

/// A running server: join handles plus the shared service.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (test hook: inspect cache/metrics in-process).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, drains the workers, and joins every thread —
    /// which is what dropping the handle does.
    pub fn shutdown(self) {}

    /// Blocks until the server stops (the binary's foreground mode; only
    /// a signal or process kill ends it).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for h in self.accept.take().into_iter().chain(self.workers.drain(..)) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.join_threads();
    }
}

/// Binds, spawns the accept loop and worker pool, and returns the handle.
pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    let service = Arc::new(Service::new(config.max_resident_bytes, config.solve));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || loop {
                let next = rx.lock().expect("worker queue lock").recv();
                match next {
                    Ok(stream) => serve_connection(&service, stream, &shutdown),
                    // Sender dropped: the accept loop is gone, we drain out.
                    Err(_) => return,
                }
            })
        })
        .collect();

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for incoming in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = incoming {
                    // A send only fails when the workers are gone, which
                    // only happens at shutdown.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // Dropping `tx` here wakes every idle worker to exit.
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        shutdown,
        accept: Some(accept),
        workers,
    })
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line is in the buffer (terminator stripped).
    Line,
    /// The peer closed the connection.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`].
    TooLong,
}

/// Reads one newline-terminated line into `buf`, capped at `max` bytes.
/// On timeout the partial line stays in `buf` and the caller retries; at
/// EOF an unterminated trailing fragment is dropped (the protocol
/// requires newline-terminated requests).
fn read_line_limited(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    let room = (max + 1).saturating_sub(buf.len()) as u64;
    std::io::Read::take(&mut *reader, room).read_until(b'\n', buf)?;
    Ok(if buf.last() == Some(&b'\n') {
        buf.pop();
        LineRead::Line
    } else if buf.len() > max {
        LineRead::TooLong
    } else {
        LineRead::Eof
    })
}

/// Sends one response line — terminator included — in a single write,
/// so the kernel never holds a lone `\n` back for the peer's delayed ACK.
fn send_line(mut stream: &TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Serves one connection: request line in, response line out, until EOF,
/// an I/O error, an oversized line, or server shutdown. The connection
/// owns one (initially empty) edit-session slot, so consecutive `edit`
/// requests on a connection keep editing the same private study; it
/// drops with the connection.
fn serve_connection(service: &Service, stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(read_half);
    let mut session: Option<EditSessionState> = None;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_line_limited(&mut reader, &mut buf, MAX_LINE_BYTES) {
            Ok(LineRead::Eof) => return,
            Ok(LineRead::TooLong) => {
                let e =
                    RequestError::protocol(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = send_line(&stream, e.to_json().to_line());
                return;
            }
            Ok(LineRead::Line) => {
                let line = String::from_utf8_lossy(&buf);
                let reply =
                    service.handle_line_with_session(line.trim_end_matches('\r'), &mut session);
                buf.clear();
                if send_line(&stream, reply).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle poll: keep any partial line and re-check shutdown.
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::ErrorKind;

    const ROD_DECK: &str = "rod 0 0 0.5 2 0.01\n";

    fn service() -> Service {
        Service::new(0, SolveOptions::default())
    }

    fn solve_line(deck: &str) -> String {
        Json::obj(vec![("op", Json::str("solve")), ("deck", Json::str(deck))]).to_line()
    }

    #[test]
    fn lines_are_framed_by_newlines_and_capped() {
        let mut reader = std::io::Cursor::new(b"ab\ncdefgh\nxy".to_vec());
        let mut buf = Vec::new();
        let mut next = |buf: &mut Vec<u8>| read_line_limited(&mut reader, buf, 4).unwrap();
        assert!(matches!(next(&mut buf), LineRead::Line));
        assert_eq!(buf, b"ab");
        // A partial line left by a read timeout is kept and completed.
        buf = b"0".to_vec();
        assert!(matches!(next(&mut buf), LineRead::TooLong), "0cdefgh > 4");
        buf.clear();
        assert!(matches!(next(&mut buf), LineRead::Line), "the rest of it");
        assert!(matches!(next(&mut buf), LineRead::Eof), "unterminated tail");
    }

    #[test]
    fn ping_answers_ok() {
        let s = service();
        let v = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
    }

    #[test]
    fn solve_misses_then_hits_and_stats_reflect_it() {
        let s = service();
        let first = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("cache_hit").and_then(Json::as_bool), Some(false));
        let second = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        assert_eq!(second.get("cache_hit").and_then(Json::as_bool), Some(true));
        // Identical payloads modulo the hit flag and timings.
        assert_eq!(
            first.get("solutions").unwrap().to_line(),
            second.get("solutions").unwrap().to_line()
        );
        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            cache.get("resident_studies").and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(cache.get("resident_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(stats.get("requests").and_then(Json::as_f64), Some(3.0));
    }

    fn error_kind(reply: &str) -> String {
        let v = Json::parse(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn every_failure_mode_maps_to_its_typed_kind() {
        let s = service();
        // Protocol: not JSON at all.
        assert_eq!(error_kind(&s.handle_line("garbage")), "protocol");
        // Parse: bad deck keyword, a conductor with no length, and grids
        // with a zero radius or a negative depth.
        for deck in [
            "bogus 1\n",
            "conductor 0 0 1 0 0 1 0.01\n",
            "grid rect 0 0 20 20 2 2 0.8 0\n",
            "grid rect 0 0 20 20 2 2 -0.8 0.006\n",
        ] {
            assert_eq!(error_kind(&s.handle_line(&solve_line(deck))), "parse");
        }
        // Model: two disconnected electrodes, and a conductor shorter than
        // the mesher's merge distance.
        for deck in [
            "rod 0 0 0.5 2 0.01\nrod 500 500 0.5 2 0.01\n",
            "conductor 0 0 1 0 0 1.0000001 0.01\n",
        ] {
            assert_eq!(error_kind(&s.handle_line(&solve_line(deck))), "model");
        }
        // Solve: a non-finite drive smuggled through the protocol, and a
        // plain negative one.
        let line = r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":1e999}]}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "solve");
        assert_eq!(error_kind(&s.handle_line(BAD_DRIVE)), "solve");
        // Protocol: a deck with `edit` stanzas sent to an op that answers
        // from shared studies — refused, pointing at op:"edit".
        for op in ["solve", "sweep"] {
            let reply = s.handle_line(&edit_deck_line(op));
            assert_eq!(error_kind(&reply), "protocol");
            assert!(reply.contains(r#"op:\"edit\""#), "{reply}");
        }
        // The service survived all of it.
        let v = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            s.metrics().errors.load(Ordering::Relaxed),
            11,
            "each failure counted"
        );
    }

    #[test]
    fn a_soil_the_image_series_cannot_sum_is_a_prepare_error() {
        let s = service();
        // κ ≈ +0.9998: no accelerated estimate settles within the cap.
        let deck = "soil two-layer 1.0 0.0001 1.0\nrod 0 0 0.5 3 0.007\n";
        let reply = s.handle_line(&solve_line(deck));
        assert_eq!(error_kind(&reply), "prepare");
        assert!(reply.contains("within 4000 groups"), "{reply}");
        // The paper's Barberá soil on the same rod still prepares.
        let paper = "soil two-layer 0.005 0.016 1.0\nrod 0 0 0.5 3 0.007\n";
        let v = Json::parse(&s.handle_line(&solve_line(paper))).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }

    const BAD_DRIVE: &str =
        r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":-1}]}"#;

    /// A sweep-capable request carrying a deck with one `edit` stanza.
    fn edit_deck_line(op: &str) -> String {
        Json::obj(vec![
            ("op", Json::str(op)),
            (
                "deck",
                Json::str("gpr 5000\nrod 0 0 0.5 2 0.01\nedit move 0 b 0 0 0.5\n"),
            ),
            ("samples", Json::Num(2.0)),
        ])
        .to_line()
    }

    #[test]
    fn refused_requests_never_touch_the_cache() {
        let s = service();
        // A bad drive, a search deck without explicit scenarios, and
        // edit-stanza decks are all refused by validation: no prepare is
        // paid, nothing becomes resident, no miss is counted.
        let search = solve_line("grid rect 0 0 20 20 2 2 0.8 0.006\nsearch pitch 5:10:2\n");
        assert_eq!(error_kind(&s.handle_line(BAD_DRIVE)), "solve");
        assert_eq!(error_kind(&s.handle_line(&search)), "protocol");
        assert_eq!(
            error_kind(&s.handle_line(&edit_deck_line("solve"))),
            "protocol"
        );
        assert_eq!(
            error_kind(&s.handle_line(&edit_deck_line("sweep"))),
            "protocol"
        );
        assert_eq!(s.cache().residency(), (0, 0, 0));
        assert_eq!(s.metrics().cache_misses.load(Ordering::Relaxed), 0);
        assert_eq!(s.metrics().prepare.count(), 0);
        // The same edit deck is what op:"edit" is for.
        let v = Json::parse(&s.handle_line(&edit_deck_line("edit"))).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("session_edits").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn request_scenarios_override_the_decks() {
        let s = service();
        let line = r#"{"op":"solve","deck":"gpr 8000\nrod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":100},{"kind":"fault-current","value":50}]}"#;
        let v = Json::parse(&s.handle_line(line)).unwrap();
        let sols = v.get("solutions").and_then(Json::as_arr).unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0].get("gpr").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            sols[1].get("total_current").and_then(Json::as_f64),
            Some(50.0)
        );
    }

    #[test]
    fn leakage_is_opt_in() {
        let s = service();
        let lean = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        let sol = &lean.get("solutions").and_then(Json::as_arr).unwrap()[0];
        assert!(sol.get("leakage").is_none());
        let line = r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","include_leakage":true}"#;
        let fat = Json::parse(&s.handle_line(line)).unwrap();
        let sol = &fat.get("solutions").and_then(Json::as_arr).unwrap()[0];
        let dof = fat.get("dof").and_then(Json::as_f64).unwrap() as usize;
        assert_eq!(
            sol.get("leakage").and_then(Json::as_arr).unwrap().len(),
            dof
        );
    }

    #[test]
    fn deck_solver_keyword_changes_the_study_key() {
        let s = service();
        let a = Json::parse(&s.handle_line(&solve_line(ROD_DECK))).unwrap();
        let b = Json::parse(&s.handle_line(&solve_line("solver cholesky\nrod 0 0 0.5 2 0.01\n")))
            .unwrap();
        assert_ne!(
            a.get("key").and_then(Json::as_str),
            b.get("key").and_then(Json::as_str)
        );
        assert_eq!(b.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(s.cache().residency().0, 2);
    }

    #[test]
    fn sweep_misses_cold_then_answers_warm_from_cache_bit_identically() {
        let s = service();
        let line = r#"{"op":"sweep","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n","samples":4,"seed":7,"sigma":0.2}"#;
        let cold = Json::parse(&s.handle_line(line)).unwrap();
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(cold.get("cache_hits").and_then(Json::as_f64), Some(0.0));
        let results = cold.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 4);
        // Every sampled soil hashes to its own study key.
        let keys: std::collections::BTreeSet<&str> = results
            .iter()
            .map(|r| r.get("key").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(keys.len(), 4);
        for r in results {
            assert_eq!(r.get("cache_hit").and_then(Json::as_bool), Some(false));
            assert_eq!(
                r.get("soil")
                    .and_then(|s| s.get("model"))
                    .and_then(Json::as_str),
                Some("uniform")
            );
        }
        let q = cold.get("gpr").unwrap();
        let (p10, p50, p90) = (
            q.get("p10").and_then(Json::as_f64).unwrap(),
            q.get("p50").and_then(Json::as_f64).unwrap(),
            q.get("p90").and_then(Json::as_f64).unwrap(),
        );
        assert!(p10 <= p50 && p50 <= p90);
        // Same seed again: all four studies come back from the cache and
        // the per-sample payloads are bit-identical.
        let warm = Json::parse(&s.handle_line(line)).unwrap();
        assert_eq!(warm.get("cache_hits").and_then(Json::as_f64), Some(4.0));
        for (c, w) in results
            .iter()
            .zip(warm.get("results").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(
                c.get("solutions").unwrap().to_line(),
                w.get("solutions").unwrap().to_line()
            );
            assert_eq!(w.get("cache_hit").and_then(Json::as_bool), Some(true));
        }
        assert_eq!(s.cache().residency().0, 4);
    }

    #[test]
    fn sweep_defaults_come_from_the_deck_stanza() {
        let s = service();
        let deck = "gpr 5000\nrod 0 0 0.5 2 0.01\nsweep soil-samples 3 seed 9 sigma 0.1\n";
        let line = Json::obj(vec![("op", Json::str("sweep")), ("deck", Json::str(deck))]).to_line();
        let v = Json::parse(&s.handle_line(&line)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("samples").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(v.get("sigma").and_then(Json::as_f64), Some(0.1));
        assert_eq!(v.get("results").and_then(Json::as_arr).unwrap().len(), 3);
    }

    #[test]
    fn sweep_without_samples_anywhere_is_a_protocol_error() {
        let s = service();
        let line = r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n"}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "protocol");
        // Zero samples is rejected by the workload validator, same kind.
        let line = r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n","samples":0,"seed":1}"#;
        assert_eq!(error_kind(&s.handle_line(line)), "protocol");
    }

    #[test]
    fn pooled_sweeps_answer_byte_identically_to_serial_ones() {
        use layerbem_parfor::{Schedule, ThreadPool};
        let line = r#"{"op":"sweep","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n","samples":4,"seed":7,"sigma":0.2}"#;
        let serial = service().handle_line(line);
        let pooled = Service::new(
            0,
            SolveOptions::default().with_parallelism(ThreadPool::new(4), Schedule::dynamic(1)),
        )
        .handle_line(line);
        // The sweep response carries no wall-clock fields, so fanning the
        // samples out over the pool must not change a single byte.
        assert_eq!(serial, pooled);
    }

    #[test]
    fn edit_sessions_continue_across_lines_and_publish_into_the_cache() {
        let s = service();
        let mut session = None;
        // Open a session from a deck: no ops yet, just the baseline answer.
        let open = r#"{"op":"edit","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n"}"#;
        let v = Json::parse(&s.handle_line_with_session(open, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("edit"));
        assert_eq!(v.get("reports").and_then(Json::as_arr).unwrap().len(), 0);
        assert_eq!(v.get("solutions").and_then(Json::as_arr).unwrap().len(), 1);
        assert!(session.is_some(), "the connection now holds a session");
        assert_eq!(s.cache().residency().0, 0, "sessions are private");

        // Continue on the same connection WITHOUT a deck: stretch the
        // rod's free end and publish the edited study.
        let mv = r#"{"op":"edit","edits":[{"kind":"move-end","index":0,"end":"b","delta":[0,0,0.5]}],"publish":true}"#;
        let v2 = Json::parse(&s.handle_line_with_session(mv, &mut session)).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true), "{v2:?}");
        let reports = v2.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);
        let path = reports[0].get("path").and_then(Json::as_str).unwrap();
        assert!(
            ["incremental", "refactor", "rebuild"].contains(&path),
            "a real edit must take a real route, got {path}"
        );
        assert_eq!(v2.get("session_edits").and_then(Json::as_f64), Some(1.0));
        let published = v2.get("published_key").and_then(Json::as_str).unwrap();
        assert!(v2.get("published_bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(s.cache().residency().0, 1);

        // The published entry lives under the edited geometry's key: a
        // plain solve of the equivalent deck is a cache HIT and answers
        // bit-identically to the session's own solutions.
        let direct = solve_line("gpr 5000\nrod 0 0 0.5 2.5 0.01\n");
        let v3 = Json::parse(&s.handle_line(&direct)).unwrap();
        assert_eq!(v3.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(v3.get("key").and_then(Json::as_str), Some(published));
        assert_eq!(
            v3.get("solutions").unwrap().to_line(),
            v2.get("solutions").unwrap().to_line()
        );
    }

    #[test]
    fn edit_failures_are_typed_and_leave_the_session_usable() {
        let s = service();
        // No session on this line and no deck to open one: protocol.
        assert_eq!(error_kind(&s.handle_line(r#"{"op":"edit"}"#)), "protocol");

        let mut session = None;
        let open = r#"{"op":"edit","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n"}"#;
        let v = Json::parse(&s.handle_line_with_session(open, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        // An out-of-range index is a model-shaped refusal…
        let bad = r#"{"op":"edit","edits":[{"kind":"remove","index":99}]}"#;
        assert_eq!(
            error_kind(&s.handle_line_with_session(bad, &mut session)),
            "model"
        );
        // …and the session survives it: the next line keeps editing.
        assert!(session.is_some());
        let ok =
            r#"{"op":"edit","edits":[{"kind":"move-end","index":0,"end":"b","delta":[0,0,0.25]}]}"#;
        let v = Json::parse(&s.handle_line_with_session(ok, &mut session)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }

    #[test]
    fn build_study_rejects_bad_models_as_typed_errors() {
        use layerbem_core::workload::{FreshSource, StudySource};
        let case = parse_case("rod 0 0 0.5 2 0.01\nrod 900 900 0.5 2 0.01\n").unwrap();
        let e: RequestError = FreshSource
            .study(&case.study_spec(SolveOptions::default()))
            .err()
            .expect("two islands are no model")
            .into();
        assert_eq!(e.kind, ErrorKind::Model);
        assert!(e.message.contains("connected"), "{}", e.message);
    }

    /// The `solutions` of one reply, as text (equal text is equal bits).
    fn solutions(reply: &str) -> String {
        let v = Json::parse(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        v.get("solutions").unwrap().to_line()
    }

    #[test]
    fn a_repeated_deck_is_read_off_its_alias_and_answers_identically() {
        let s = service();
        let cold = s.handle_line(&solve_line(ROD_DECK));
        let (case, key) = s.cache().alias(ROD_DECK).expect("the deck became an alias");
        let warm = s.handle_line(&solve_line(ROD_DECK));
        let (again, _) = s.cache().alias(ROD_DECK).unwrap();
        assert!(Arc::ptr_eq(&case, &again), "the hit reused the parse");
        assert_eq!(solutions(&cold), solutions(&warm));
        let v = Json::parse(&warm).unwrap();
        assert_eq!(v.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("key").and_then(Json::as_str), Some(&*key.to_string()));
        // A sweep of the same deck text reads the alias too.
        let line = r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n","samples":2,"seed":3}"#;
        let v = Json::parse(&s.handle_line(line)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert!(Arc::ptr_eq(&s.cache().alias(ROD_DECK).unwrap().0, &case));
    }

    #[test]
    fn decks_sharing_one_study_are_each_answered_with_their_own_drives() {
        // Same geometry, soil and options — one study, one key — but
        // different titles, gpr lines and scenario stanzas.
        let a = "title a\ngpr 1000\nrod 0 0 0.5 2 0.01\n";
        let b =
            "title b\ngpr 7000\nscenario fault-current 50\nscenario gpr 300\nrod 0 0 0.5 2 0.01\n";
        let fresh = |deck: &str| solutions(&service().handle_line(&solve_line(deck)));
        let (want_a, want_b) = (fresh(a), fresh(b));
        assert_ne!(want_a, want_b);
        let s = service();
        for _ in 0..3 {
            assert_eq!(solutions(&s.handle_line(&solve_line(a))), want_a);
            assert_eq!(solutions(&s.handle_line(&solve_line(b))), want_b);
        }
        assert_eq!(s.cache().residency().0, 1, "one study answered both");
        assert_eq!(s.metrics().cache_misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_deck_digest_collision_reparses_and_still_answers_right() {
        // Every deck text digests to 0: each switch of deck is a digest
        // hit on the other text, which must be a miss and a fresh parse.
        let s = Service {
            cache: StudyCache::with_deck_digest(0, |_| 0),
            metrics: Metrics::default(),
            solve: SolveOptions::default(),
        };
        let other = "rod 3 0 0.5 2.5 0.01\n";
        let fresh = |deck: &str| solutions(&service().handle_line(&solve_line(deck)));
        let (want_rod, want_other) = (fresh(ROD_DECK), fresh(other));
        for _ in 0..2 {
            assert_eq!(solutions(&s.handle_line(&solve_line(ROD_DECK))), want_rod);
            assert!(s.cache().alias(other).is_none(), "colliding text missed");
            assert_eq!(solutions(&s.handle_line(&solve_line(other))), want_other);
            assert!(s.cache().alias(ROD_DECK).is_none(), "one digest, one text");
            assert!(s.cache().alias(other).is_some());
        }
        assert_eq!(s.metrics().cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn refused_and_unparsable_decks_leave_no_alias() {
        let s = service();
        assert_eq!(
            error_kind(&s.handle_line(&solve_line("bogus 1\n"))),
            "parse"
        );
        assert!(s.cache().alias("bogus 1\n").is_none());
        let islands = "rod 0 0 0.5 2 0.01\nrod 500 500 0.5 2 0.01\n";
        assert_eq!(error_kind(&s.handle_line(&solve_line(islands))), "model");
        assert!(s.cache().alias(islands).is_none());
        assert_eq!(
            error_kind(&s.handle_line(&edit_deck_line("solve"))),
            "protocol"
        );
        assert_eq!(s.cache().residency(), (0, 0, 0), "nothing charged");
    }

    #[test]
    fn an_evicted_study_takes_its_alias_along() {
        // Room for one study and its alias, not for two studies (a
        // one-byte budget declines the alias: it never evicts a study).
        let resident = |budget| {
            let s = Service::new(budget, SolveOptions::default());
            s.handle_line(&solve_line(ROD_DECK));
            s.cache().residency().1
        };
        let (study, aliased) = (resident(1), resident(0));
        assert!(aliased > study, "the alias is charged");
        let s = Service::new(aliased + study / 2, SolveOptions::default());
        let other = "rod 3 0 0.5 2 0.011\n";
        s.handle_line(&solve_line(ROD_DECK));
        assert!(s.cache().alias(ROD_DECK).is_some());
        s.handle_line(&solve_line(other));
        assert!(
            s.cache().alias(ROD_DECK).is_none(),
            "evicted with its study"
        );
        assert!(s.cache().alias(other).is_some());
        assert_eq!(s.cache().residency().0, 1);
    }
}
