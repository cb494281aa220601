//! Typed request errors and their wire representation.
//!
//! Everything that can go wrong while answering one request maps to a
//! [`RequestError`] with a machine-readable [`ErrorKind`] — the resident
//! server **never** surfaces a failure as a panic or a dropped
//! connection. The kinds partition the deck/solve boundary exactly the
//! way the library's typed errors do: protocol (bad JSON / unknown op),
//! parse ([`layerbem_cad::ParseError`]), model (a deck that
//! parses but does not describe one connected electrode), prepare
//! (`PrepareError`), solve (`SolveError`), and internal (a caught
//! panic — the backstop that keeps a bug from killing the process).
//! Everything the executor or a study source can refuse arrives as one
//! [`ExecuteError`] and keeps its kind.

use layerbem_cad::ParseError;
use layerbem_core::workload::ExecuteError;

use crate::json::{Json, JsonError};

/// Which boundary a request failed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line is not valid JSON / not a known operation.
    Protocol,
    /// The deck text failed to parse (typed, with a line number).
    Parse,
    /// The deck parsed but does not describe a solvable model (empty
    /// discretization, disconnected electrode islands).
    Model,
    /// Assembly/factorization failed (`PrepareError`).
    Prepare,
    /// A scenario could not be answered (`SolveError`).
    Solve,
    /// A caught panic or other server-side defect.
    Internal,
}

impl ErrorKind {
    /// The wire label of the kind (the `error.kind` field).
    pub fn label(&self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Parse => "parse",
            ErrorKind::Model => "model",
            ErrorKind::Prepare => "prepare",
            ErrorKind::Solve => "solve",
            ErrorKind::Internal => "internal",
        }
    }
}

/// One request's failure: kind + human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestError {
    /// Which boundary failed.
    pub kind: ErrorKind,
    /// Human-readable cause (the library error's `Display`).
    pub message: String,
}

impl RequestError {
    /// Constructs an error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        RequestError {
            kind,
            message: message.into(),
        }
    }

    /// A protocol-level failure (bad JSON, unknown op, missing field).
    pub fn protocol(message: impl Into<String>) -> Self {
        RequestError::new(ErrorKind::Protocol, message)
    }

    /// The `{"ok":false,"error":{…}}` response document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj(vec![
                    ("kind", Json::str(self.kind.label())),
                    ("message", Json::str(self.message.clone())),
                ]),
            ),
        ])
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for RequestError {}

impl From<JsonError> for RequestError {
    fn from(e: JsonError) -> Self {
        RequestError::new(ErrorKind::Protocol, e.to_string())
    }
}

impl From<ParseError> for RequestError {
    fn from(e: ParseError) -> Self {
        RequestError::new(ErrorKind::Parse, e.to_string())
    }
}

impl From<ExecuteError> for RequestError {
    fn from(e: ExecuteError) -> Self {
        match e {
            // An invalid workload shape is a bad request, not a solver
            // failure.
            ExecuteError::Workload(w) => RequestError::protocol(w.to_string()),
            ExecuteError::Model(why) => RequestError::new(ErrorKind::Model, why),
            ExecuteError::Prepare(p) => RequestError::new(ErrorKind::Prepare, p.to_string()),
            ExecuteError::Solve(s) => RequestError::new(ErrorKind::Solve, s.to_string()),
            ExecuteError::Internal(why) => RequestError::new(ErrorKind::Internal, why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_core::study::SolveError;

    #[test]
    fn wire_shape_is_ok_false_with_kind_and_message() {
        let e = RequestError::protocol("bad request");
        let line = e.to_json().to_line();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let err = v.get("error").expect("error object");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
        assert_eq!(
            err.get("message").and_then(Json::as_str),
            Some("bad request")
        );
    }

    #[test]
    fn library_errors_map_to_their_kinds() {
        let e: RequestError = ParseError {
            line: 3,
            message: "bad".into(),
        }
        .into();
        assert_eq!(e.kind, ErrorKind::Parse);
        assert!(e.message.contains("line 3"));
        let e: RequestError =
            ExecuteError::Solve(SolveError::IterationLimit { iterations: 9 }).into();
        assert_eq!(e.kind, ErrorKind::Solve);
        let e: RequestError = ExecuteError::Model("two islands").into();
        assert_eq!(e.kind, ErrorKind::Model);
        assert_eq!(e.message, "two islands");
    }
}
