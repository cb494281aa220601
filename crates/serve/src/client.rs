//! A small blocking client for the line protocol, used by the
//! integration tests, the CI smoke job, and `examples/serve_client.rs`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use layerbem_core::study::Scenario;

use crate::json::Json;
use crate::protocol::scenario_json;

/// Client-side failure: transport, malformed response, or a server-side
/// typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The server's response line was not a valid response document.
    Protocol(String),
    /// The server answered `ok:false` — kind and message verbatim.
    Server {
        /// The server's `error.kind` label.
        kind: String,
        /// The server's `error.message`.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "i/o error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { kind, message } => write!(f, "server error ({kind}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// One answered scenario, with every float parsed back bit-identically
/// to what the server computed (shortest-round-trip formatting on the
/// wire).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioAnswer {
    /// The scenario this answers.
    pub scenario: Scenario,
    /// Ground potential rise (V).
    pub gpr: f64,
    /// Total leaked current (A).
    pub total_current: f64,
    /// Equivalent grounding resistance (Ω).
    pub equivalent_resistance: f64,
    /// Iterations of the iterative solver (0 for direct engines).
    pub solver_iterations: usize,
    /// Per-node leakage density, when requested.
    pub leakage: Option<Vec<f64>>,
}

/// A solve response.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveReply {
    /// The 16-hex digest of the canonical study key (an index for the
    /// reader: the server compares full keys, not this).
    pub key: String,
    /// Whether the study was already resident (or in flight).
    pub cache_hit: bool,
    /// Degrees of freedom of the prepared system.
    pub dof: usize,
    /// Seconds this request spent obtaining the prepared study.
    pub prepare_seconds: f64,
    /// Seconds answering the scenarios.
    pub solve_seconds: f64,
    /// One answer per scenario, in request order.
    pub solutions: Vec<ScenarioAnswer>,
}

/// A connected client (one request/response at a time, in order).
pub struct ServeClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            writer: stream,
            reader,
        })
    }

    /// Sends one request document and reads one response document,
    /// unwrapping `ok:false` into [`ClientError::Server`]. The line and
    /// its terminator leave in one write: a `\n` sent on its own would
    /// wait out the server's delayed ACK (~40 ms per request).
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io("server closed the connection".into()));
        }
        let v = Json::parse(line.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let get = |k: &str| {
                    v.get("error")
                        .and_then(|e| e.get(k))
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string()
                };
                Err(ClientError::Server {
                    kind: get("kind"),
                    message: get("message"),
                })
            }
            None => Err(ClientError::Protocol(
                "response carries no boolean 'ok' field".into(),
            )),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Json::obj(vec![("op", Json::str("ping"))]))
            .map(|_| ())
    }

    /// Metrics snapshot (the raw stats document).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Json::obj(vec![("op", Json::str("stats"))]))
    }

    /// Solves a deck; `scenarios: None` answers the deck's own sweep.
    pub fn solve(
        &mut self,
        deck: &str,
        scenarios: Option<&[Scenario]>,
        include_leakage: bool,
    ) -> Result<SolveReply, ClientError> {
        let mut pairs = vec![("op", Json::str("solve")), ("deck", Json::str(deck))];
        if let Some(list) = scenarios {
            pairs.push((
                "scenarios",
                Json::Arr(list.iter().map(scenario_json).collect()),
            ));
        }
        if include_leakage {
            pairs.push(("include_leakage", Json::Bool(true)));
        }
        let v = self.request(&Json::obj(pairs))?;
        parse_solve_reply(&v)
    }
}

fn parse_solve_reply(v: &Json) -> Result<SolveReply, ClientError> {
    let bad = |what: &str| ClientError::Protocol(format!("solve response missing {what}"));
    let f = |k: &str| v.get(k).and_then(Json::as_f64);
    let solutions = v
        .get("solutions")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("'solutions'"))?
        .iter()
        .map(parse_answer)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SolveReply {
        key: v
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("'key'"))?
            .to_string(),
        cache_hit: v
            .get("cache_hit")
            .and_then(Json::as_bool)
            .ok_or_else(|| bad("'cache_hit'"))?,
        dof: f("dof").ok_or_else(|| bad("'dof'"))? as usize,
        prepare_seconds: f("prepare_seconds").ok_or_else(|| bad("'prepare_seconds'"))?,
        solve_seconds: f("solve_seconds").ok_or_else(|| bad("'solve_seconds'"))?,
        solutions,
    })
}

fn parse_answer(v: &Json) -> Result<ScenarioAnswer, ClientError> {
    let bad = |what: &str| ClientError::Protocol(format!("solution missing {what}"));
    let f = |k: &str| v.get(k).and_then(Json::as_f64);
    let s = v.get("scenario").ok_or_else(|| bad("'scenario'"))?;
    let value = s
        .get("value")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("scenario 'value'"))?;
    let scenario = match s.get("kind").and_then(Json::as_str) {
        Some("gpr") => Scenario::gpr(value),
        Some("fault-current") => Scenario::fault_current(value),
        other => {
            return Err(ClientError::Protocol(format!(
                "unknown scenario kind {other:?}"
            )))
        }
    };
    let leakage = match v.get("leakage") {
        None => None,
        Some(arr) => Some(
            arr.as_arr()
                .ok_or_else(|| bad("numeric 'leakage' array"))?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| bad("numeric 'leakage' entry")))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    Ok(ScenarioAnswer {
        scenario,
        gpr: f("gpr").ok_or_else(|| bad("'gpr'"))?,
        total_current: f("total_current").ok_or_else(|| bad("'total_current'"))?,
        equivalent_resistance: f("equivalent_resistance")
            .ok_or_else(|| bad("'equivalent_resistance'"))?,
        solver_iterations: f("solver_iterations").ok_or_else(|| bad("'solver_iterations'"))?
            as usize,
        leakage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_reply_parses_the_wire_shape() {
        let line = r#"{"ok":true,"op":"solve","key":"00000000deadbeef","cache_hit":true,"dof":3,"prepare_seconds":0.5,"solve_seconds":0.001,"solutions":[{"scenario":{"kind":"gpr","value":5000},"gpr":5000,"total_current":1234.5,"equivalent_resistance":4.05,"solver_iterations":7,"leakage":[0.1,0.2,0.3]}]}"#;
        let v = Json::parse(line).unwrap();
        let r = parse_solve_reply(&v).unwrap();
        assert_eq!(r.key, "00000000deadbeef");
        assert!(r.cache_hit);
        assert_eq!(r.dof, 3);
        assert_eq!(r.solutions.len(), 1);
        let a = &r.solutions[0];
        assert_eq!(a.scenario, Scenario::gpr(5000.0));
        assert_eq!(a.equivalent_resistance, 4.05);
        assert_eq!(a.solver_iterations, 7);
        assert_eq!(a.leakage.as_deref(), Some(&[0.1, 0.2, 0.3][..]));
    }

    #[test]
    fn missing_fields_are_protocol_errors() {
        let v = Json::parse(r#"{"ok":true,"op":"solve","cache_hit":true}"#).unwrap();
        assert!(matches!(
            parse_solve_reply(&v),
            Err(ClientError::Protocol(_))
        ));
    }
}
