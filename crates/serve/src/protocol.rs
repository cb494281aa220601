//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"op":"ping"}
//! ← {"ok":true,"op":"ping"}
//! → {"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":5000}]}
//! ← {"ok":true,"op":"solve","key":"…16 hex…","cache_hit":false,"dof":4,…,"solutions":[…]}
//! → {"op":"sweep","deck":"gpr 5000\nrod 0 0 0.5 2 0.01\n","samples":8,"seed":7}
//! ← {"ok":true,"op":"sweep","results":[…one per sample…],"gpr":{"p10":…},…}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","requests":3,…}
//! → {"op":"edit","deck":"…","edits":[{"kind":"move-end","index":1,"end":"b","delta":[0,0,0.2]}]}
//! ← {"ok":true,"op":"edit","dof":…,"reports":[{"path":"incremental",…}],"solutions":[…]}
//! ```
//!
//! `edit` is **session-scoped**: the first request on a connection
//! carries a deck to open the session; later ones on the same connection
//! may omit it and keep editing the same (private) study.
//!
//! Failures are `{"ok":false,"error":{"kind":…,"message":…}}` — see
//! [`RequestError`]. Floating-point payloads are written with Rust's
//! shortest-round-trip formatting, so a client that parses them back with
//! `str::parse::<f64>()` recovers **bit-identical** values — the property
//! the server tests use to check cached responses against a direct
//! [`Study::solve`](layerbem_core::study::Study::solve).

use layerbem_core::incremental::{ConductorEnd, EditOp, EditReport};
use layerbem_core::study::Scenario;
use layerbem_core::system::GroundingSolution;
use layerbem_core::workload::Quantiles;
use layerbem_geometry::{Conductor, Point3};
use layerbem_soil::SoilModel;

use crate::errors::RequestError;
use crate::json::Json;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Metrics snapshot.
    Stats,
    /// Prepare-or-reuse a study and answer scenarios.
    Solve {
        /// The case deck, verbatim (the same text format the CLI reads).
        deck: String,
        /// Scenario overrides; `None` answers the deck's own scenarios
        /// (its `scenario` stanzas, else the implicit `gpr` line).
        scenarios: Option<Vec<Scenario>>,
        /// Whether to include the per-element leakage vector in each
        /// solution (large; off by default).
        include_leakage: bool,
    },
    /// Batched Monte-Carlo soil sweep: `N` seeded soil samples around
    /// the deck's soil model, each prepared (or reused) through the
    /// study cache and answered for the same scenarios.
    Sweep {
        /// The case deck, verbatim (the same text format the CLI reads).
        deck: String,
        /// Sample count; `None` defers to the deck's `sweep` stanza.
        samples: Option<usize>,
        /// RNG seed; `None` defers to the deck's `sweep` stanza.
        seed: Option<u64>,
        /// Log-normal spread; `None` defers to the deck's `sweep`
        /// stanza, else 0.1.
        sigma: Option<f64>,
        /// Scenario overrides; `None` answers the deck's own scenarios.
        scenarios: Option<Vec<Scenario>>,
        /// Whether to include per-element leakage vectors (large).
        include_leakage: bool,
    },
    /// Interactive geometry editing against a connection-scoped session.
    /// A `deck` opens (or replaces) the session — replaying the deck's
    /// own `edit` stanzas first; without one the connection's existing
    /// session continues. Each op is applied incrementally
    /// ([`EditSession::apply`](layerbem_core::incremental::EditSession));
    /// the response reports the route each edit took and answers the
    /// scenarios against the edited study. The session's study is
    /// **private** to the connection — cached `Arc<Study>` entries are
    /// never mutated; `publish` snapshots the edited study back into the
    /// cache under its new key, re-charging the residency budget.
    Edit {
        /// Deck text opening a fresh session; `None` continues the
        /// connection's current one.
        deck: Option<String>,
        /// Edit operations, applied in order.
        edits: Vec<EditOp>,
        /// Scenario overrides; `None` answers the session's deck
        /// scenarios.
        scenarios: Option<Vec<Scenario>>,
        /// Whether to include per-element leakage vectors (large).
        include_leakage: bool,
        /// Snapshot the edited study into the shared cache under its
        /// (new) key, re-accounting resident bytes.
        publish: bool,
    },
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = Json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::protocol("request must carry a string 'op' field"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "solve" => {
            let deck = deck_field(&v, "solve")?;
            let scenarios = scenarios_field(&v)?;
            let include_leakage = bool_field(&v, "include_leakage")?;
            Ok(Request::Solve {
                deck,
                scenarios,
                include_leakage,
            })
        }
        "sweep" => {
            let deck = deck_field(&v, "sweep")?;
            let samples = count_field(&v, "samples")?;
            let seed = count_field(&v, "seed")?.map(|n| n as u64);
            let sigma = match v.get("sigma") {
                None | Some(Json::Null) => None,
                Some(x) => Some(
                    x.as_f64()
                        .ok_or_else(|| RequestError::protocol("'sigma' must be a number"))?,
                ),
            };
            let scenarios = scenarios_field(&v)?;
            let include_leakage = bool_field(&v, "include_leakage")?;
            Ok(Request::Sweep {
                deck,
                samples,
                seed,
                sigma,
                scenarios,
                include_leakage,
            })
        }
        "edit" => {
            let deck = match v.get("deck") {
                None | Some(Json::Null) => None,
                Some(d) => Some(
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| RequestError::protocol("'deck' must be a string"))?,
                ),
            };
            let edits = edits_field(&v)?;
            let scenarios = scenarios_field(&v)?;
            let include_leakage = bool_field(&v, "include_leakage")?;
            let publish = bool_field(&v, "publish")?;
            Ok(Request::Edit {
                deck,
                edits,
                scenarios,
                include_leakage,
                publish,
            })
        }
        other => Err(RequestError::protocol(format!("unknown op '{other}'"))),
    }
}

/// The mandatory string `deck` field of a solve-shaped request.
fn deck_field(v: &Json, op: &str) -> Result<String, RequestError> {
    v.get("deck")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| RequestError::protocol(format!("{op} expects a string 'deck' field")))
}

/// The optional `scenarios` array (`None` defers to the deck's own).
fn scenarios_field(v: &Json) -> Result<Option<Vec<Scenario>>, RequestError> {
    match v.get("scenarios") {
        None | Some(Json::Null) => Ok(None),
        Some(list) => {
            let items = list
                .as_arr()
                .ok_or_else(|| RequestError::protocol("'scenarios' must be an array"))?;
            if items.is_empty() {
                return Err(RequestError::protocol(
                    "'scenarios' must not be empty (omit it to use the deck's)",
                ));
            }
            Ok(Some(
                items
                    .iter()
                    .map(scenario_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        }
    }
}

/// An optional boolean field (absent/null read as `false`).
fn bool_field(v: &Json, name: &str) -> Result<bool, RequestError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(false),
        Some(flag) => flag
            .as_bool()
            .ok_or_else(|| RequestError::protocol(format!("'{name}' must be a boolean"))),
    }
}

/// An optional non-negative integer field (sample counts, seeds).
fn count_field(v: &Json, name: &str) -> Result<Option<usize>, RequestError> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => {
            let n = x.as_f64().ok_or_else(|| {
                RequestError::protocol(format!("'{name}' must be a non-negative integer"))
            })?;
            // 2^53: the largest width at which f64 still holds every
            // integer exactly (seeds round-trip bit-exactly below it).
            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
                return Err(RequestError::protocol(format!(
                    "'{name}' must be a non-negative integer, got {n}"
                )));
            }
            Ok(Some(n as usize))
        }
    }
}

/// The optional `edits` array (absent/null reads as no ops — a bare
/// `edit` request with a deck just opens the session and solves).
fn edits_field(v: &Json) -> Result<Vec<EditOp>, RequestError> {
    match v.get("edits") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(list) => list
            .as_arr()
            .ok_or_else(|| RequestError::protocol("'edits' must be an array"))?
            .iter()
            .map(edit_op_from_json)
            .collect(),
    }
}

/// Parses one edit operation:
///
/// ```text
/// {"kind":"move","index":I,"delta":[dx,dy,dz]}
/// {"kind":"move-end","index":I,"end":"a"|"b","delta":[dx,dy,dz]}
/// {"kind":"add","conductor":[x0,y0,z0,x1,y1,z1,r]}
/// {"kind":"remove","index":I}
/// ```
///
/// Geometric validity of `add` is checked here by
/// [`Conductor::try_new`], the same gate the deck parser applies.
/// Everything else (index bounds, moved geometry, connectivity) flows
/// into [`apply_op`](layerbem_core::incremental::apply_op)'s own typed
/// validation.
fn edit_op_from_json(v: &Json) -> Result<EditOp, RequestError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::protocol("edit op expects a string 'kind'"))?;
    let index = |v: &Json| -> Result<usize, RequestError> {
        count_field(v, "index")?
            .ok_or_else(|| RequestError::protocol("edit op expects a non-negative integer 'index'"))
    };
    match kind {
        "move" => Ok(EditOp::Move {
            index: index(v)?,
            delta: vec3_field(v, "delta")?,
        }),
        "move-end" => {
            let end = match v.get("end").and_then(Json::as_str) {
                Some("a") => ConductorEnd::A,
                Some("b") => ConductorEnd::B,
                _ => return Err(RequestError::protocol("edit 'end' must be \"a\" or \"b\"")),
            };
            Ok(EditOp::MoveEnd {
                index: index(v)?,
                end,
                delta: vec3_field(v, "delta")?,
            })
        }
        "add" => {
            let arr = v.get("conductor").and_then(Json::as_arr).ok_or_else(|| {
                RequestError::protocol(
                    "edit add expects a 7-number 'conductor' array [x0,y0,z0,x1,y1,z1,r]",
                )
            })?;
            if arr.len() != 7 {
                return Err(RequestError::protocol(format!(
                    "'conductor' must have 7 numbers [x0,y0,z0,x1,y1,z1,r], got {}",
                    arr.len()
                )));
            }
            let mut c = [0.0f64; 7];
            for (i, x) in arr.iter().enumerate() {
                c[i] = x
                    .as_f64()
                    .ok_or_else(|| RequestError::protocol("'conductor' entries must be numbers"))?;
            }
            let conductor = Conductor::try_new(
                Point3::new(c[0], c[1], c[2]),
                Point3::new(c[3], c[4], c[5]),
                c[6],
            )
            .map_err(RequestError::protocol)?;
            Ok(EditOp::Add { conductor })
        }
        "remove" => Ok(EditOp::Remove { index: index(v)? }),
        other => Err(RequestError::protocol(format!(
            "edit kind must be move|move-end|add|remove, got '{other}'"
        ))),
    }
}

/// A mandatory 3-number array field of an edit op.
fn vec3_field(v: &Json, name: &str) -> Result<[f64; 3], RequestError> {
    let arr = v.get(name).and_then(Json::as_arr).ok_or_else(|| {
        RequestError::protocol(format!("edit op expects a 3-number '{name}' array"))
    })?;
    if arr.len() != 3 {
        return Err(RequestError::protocol(format!(
            "'{name}' must have exactly 3 numbers, got {}",
            arr.len()
        )));
    }
    let mut out = [0.0f64; 3];
    for (i, x) in arr.iter().enumerate() {
        out[i] = x
            .as_f64()
            .ok_or_else(|| RequestError::protocol(format!("'{name}' entries must be numbers")))?;
    }
    Ok(out)
}

/// One per-edit row of an edit response: the route taken and what it
/// touched and paid.
pub fn edit_report_json(r: &EditReport) -> Json {
    Json::obj(vec![
        ("path", Json::str(r.path.label())),
        ("changed_elements", Json::Num(r.changed_elements as f64)),
        ("touched_rows", Json::Num(r.touched_rows as f64)),
        ("update_rank", Json::Num(r.update_rank as f64)),
        ("pairs_evaluated", Json::Num(r.pairs_evaluated as f64)),
        ("reintegrate_seconds", Json::Num(r.reintegrate_seconds)),
        ("update_seconds", Json::Num(r.update_seconds)),
    ])
}

/// Parses `{"kind":"gpr"|"fault-current","value":N}`. The drive's
/// *finiteness* is deliberately not checked here: it flows into
/// [`Study::solve`](layerbem_core::study::Study::solve)'s own validation
/// so NaN/∞ drives surface as typed `solve` errors, exercising the same
/// boundary every caller goes through.
fn scenario_from_json(v: &Json) -> Result<Scenario, RequestError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::protocol("scenario expects a string 'kind'"))?;
    let value = v
        .get("value")
        .and_then(Json::as_f64)
        .ok_or_else(|| RequestError::protocol("scenario expects a numeric 'value'"))?;
    match kind {
        "gpr" => Ok(Scenario::gpr(value)),
        "fault-current" => Ok(Scenario::fault_current(value)),
        other => Err(RequestError::protocol(format!(
            "scenario kind must be gpr|fault-current, got '{other}'"
        ))),
    }
}

/// The `{"kind":…,"value":…}` form of a scenario.
pub fn scenario_json(s: &Scenario) -> Json {
    let kind = match s {
        Scenario::Gpr { .. } => "gpr",
        Scenario::FaultCurrent { .. } => "fault-current",
    };
    Json::obj(vec![
        ("kind", Json::str(kind)),
        ("value", Json::Num(s.drive())),
    ])
}

/// One solution object of a solve response.
pub fn solution_json(sol: &GroundingSolution, include_leakage: bool) -> Json {
    let mut pairs = vec![
        ("scenario", scenario_json(&sol.scenario)),
        ("gpr", Json::Num(sol.gpr)),
        ("total_current", Json::Num(sol.total_current)),
        (
            "equivalent_resistance",
            Json::Num(sol.equivalent_resistance),
        ),
        ("solver_iterations", Json::Num(sol.solver_iterations as f64)),
    ];
    if include_leakage {
        pairs.push((
            "leakage",
            Json::Arr(sol.leakage.iter().map(|q| Json::Num(*q)).collect()),
        ));
    }
    Json::obj(pairs)
}

/// The `solutions` array of a response: one object per scenario.
pub fn solutions_json(solutions: &[GroundingSolution], include_leakage: bool) -> Json {
    Json::Arr(
        solutions
            .iter()
            .map(|s| solution_json(s, include_leakage))
            .collect(),
    )
}

/// The `{"p10":…,"p50":…,"p90":…}` form of sweep quantiles.
pub fn quantiles_json(q: Quantiles) -> Json {
    Json::obj(vec![
        ("p10", Json::Num(q.p10)),
        ("p50", Json::Num(q.p50)),
        ("p90", Json::Num(q.p90)),
    ])
}

/// A self-describing JSON view of a soil model (sweep responses carry
/// each sample's drawn parameters alongside its results). Non-finite
/// values (the bottom layer's infinite thickness) render as `null` to
/// stay inside JSON.
pub fn soil_json(soil: &SoilModel) -> Json {
    let num = |x: f64| {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    };
    match soil {
        SoilModel::Uniform { conductivity } => Json::obj(vec![
            ("model", Json::str("uniform")),
            ("conductivity", num(*conductivity)),
        ]),
        SoilModel::TwoLayer {
            upper,
            lower,
            thickness,
        } => Json::obj(vec![
            ("model", Json::str("two-layer")),
            ("upper", num(*upper)),
            ("lower", num(*lower)),
            ("thickness", num(*thickness)),
        ]),
        SoilModel::MultiLayer { layers } => Json::obj(vec![
            ("model", Json::str("multi-layer")),
            (
                "layers",
                Json::Arr(
                    layers
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("conductivity", num(l.conductivity)),
                                ("thickness", num(l.thickness)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// `{"ok":true,"op":…, …body fields…}`.
pub fn ok_obj(op: &str, body: Json) -> Json {
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str(op)),
    ];
    if let Json::Obj(rest) = body {
        pairs.extend(rest);
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::ErrorKind;

    #[test]
    fn ping_stats_and_solve_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        let r = parse_request(
            r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":5000},{"kind":"fault-current","value":25000}],"include_leakage":true}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Solve {
                deck: "rod 0 0 0.5 2 0.01\n".into(),
                scenarios: Some(vec![
                    Scenario::gpr(5_000.0),
                    Scenario::fault_current(25_000.0)
                ]),
                include_leakage: true,
            }
        );
    }

    #[test]
    fn omitted_scenarios_defer_to_the_deck() {
        let r = parse_request(r#"{"op":"solve","deck":"gpr 10\n"}"#).unwrap();
        assert_eq!(
            r,
            Request::Solve {
                deck: "gpr 10\n".into(),
                scenarios: None,
                include_leakage: false,
            }
        );
    }

    #[test]
    fn sweep_requests_parse_with_and_without_tuning_fields() {
        let full = parse_request(
            r#"{"op":"sweep","deck":"rod 0 0 0.5 2 0.01\n","samples":8,"seed":7,"sigma":0.15,"scenarios":[{"kind":"gpr","value":5000}]}"#,
        )
        .unwrap();
        assert_eq!(
            full,
            Request::Sweep {
                deck: "rod 0 0 0.5 2 0.01\n".into(),
                samples: Some(8),
                seed: Some(7),
                sigma: Some(0.15),
                scenarios: Some(vec![Scenario::gpr(5_000.0)]),
                include_leakage: false,
            }
        );
        // Every tuning field is optional: the deck's own sweep stanza
        // (or server defaults) fill the gaps.
        let bare = parse_request(r#"{"op":"sweep","deck":"gpr 10\n"}"#).unwrap();
        assert_eq!(
            bare,
            Request::Sweep {
                deck: "gpr 10\n".into(),
                samples: None,
                seed: None,
                sigma: None,
                scenarios: None,
                include_leakage: false,
            }
        );
    }

    #[test]
    fn bad_sweep_fields_are_protocol_errors() {
        for bad in [
            r#"{"op":"sweep"}"#,
            r#"{"op":"sweep","deck":7}"#,
            r#"{"op":"sweep","deck":"x","samples":-1}"#,
            r#"{"op":"sweep","deck":"x","samples":2.5}"#,
            r#"{"op":"sweep","deck":"x","samples":"many"}"#,
            r#"{"op":"sweep","deck":"x","seed":1e999}"#,
            r#"{"op":"sweep","deck":"x","sigma":"wide"}"#,
            r#"{"op":"sweep","deck":"x","scenarios":[]}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn edit_requests_parse_every_op_kind() {
        let r = parse_request(
            r#"{"op":"edit","deck":"rod 0 0 0.5 2 0.01\n","edits":[
                {"kind":"move","index":0,"delta":[0.5,0,0]},
                {"kind":"move-end","index":1,"end":"b","delta":[0,0,0.2]},
                {"kind":"add","conductor":[1,1,0.6,1,1,2.1,0.007]},
                {"kind":"remove","index":2}
            ],"publish":true}"#,
        )
        .unwrap();
        let Request::Edit {
            deck,
            edits,
            scenarios,
            include_leakage,
            publish,
        } = r
        else {
            panic!("expected edit");
        };
        assert_eq!(deck.as_deref(), Some("rod 0 0 0.5 2 0.01\n"));
        assert_eq!(scenarios, None);
        assert!(!include_leakage);
        assert!(publish);
        assert_eq!(edits.len(), 4);
        assert_eq!(
            edits[0],
            EditOp::Move {
                index: 0,
                delta: [0.5, 0.0, 0.0]
            }
        );
        assert_eq!(
            edits[1],
            EditOp::MoveEnd {
                index: 1,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.2]
            }
        );
        match &edits[2] {
            EditOp::Add { conductor } => assert_eq!(conductor.radius, 0.007),
            other => panic!("expected add, got {other:?}"),
        }
        assert_eq!(edits[3], EditOp::Remove { index: 2 });

        // A session continuation: no deck, no edits — still a valid
        // request (it just re-solves the current state).
        let bare = parse_request(r#"{"op":"edit"}"#).unwrap();
        assert_eq!(
            bare,
            Request::Edit {
                deck: None,
                edits: Vec::new(),
                scenarios: None,
                include_leakage: false,
                publish: false,
            }
        );
    }

    #[test]
    fn malformed_edit_ops_are_protocol_errors() {
        for bad in [
            r#"{"op":"edit","deck":7}"#,
            r#"{"op":"edit","edits":"move"}"#,
            r#"{"op":"edit","edits":[{"index":0}]}"#,
            r#"{"op":"edit","edits":[{"kind":"teleport","index":0}]}"#,
            r#"{"op":"edit","edits":[{"kind":"move","delta":[0,0,0]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"move","index":-1,"delta":[0,0,0]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"move","index":0,"delta":[0,0]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"move","index":0,"delta":[0,0,"up"]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"move-end","index":0,"end":"c","delta":[0,0,0]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"add","conductor":[1,1,0.6,1,1]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"add","conductor":[1,1,0.6,1,1,2.1,0]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"add","conductor":[1,1,-0.5,1,1,2.1,0.007]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"add","conductor":[1,1,0.6,1,1,0.6,0.007]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"add","conductor":[1e999,1,0.6,1,1,2.1,0.007]}]}"#,
            r#"{"op":"edit","edits":[{"kind":"remove"}]}"#,
            r#"{"op":"edit","publish":"yes"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        for bad in [
            "not json",
            r#"{"deck":"x"}"#,
            r#"{"op":"reboot"}"#,
            r#"{"op":"solve"}"#,
            r#"{"op":"solve","deck":7}"#,
            r#"{"op":"solve","deck":"x","scenarios":"gpr"}"#,
            r#"{"op":"solve","deck":"x","scenarios":[]}"#,
            r#"{"op":"solve","deck":"x","scenarios":[{"kind":"volts","value":1}]}"#,
            r#"{"op":"solve","deck":"x","scenarios":[{"kind":"gpr"}]}"#,
            r#"{"op":"solve","deck":"x","include_leakage":"yes"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Protocol, "{bad}");
        }
    }

    #[test]
    fn non_finite_drives_parse_and_defer_to_solve_validation() {
        // 1e999 overflows to +inf in the lenient number scan; the
        // scenario must survive parsing so the SOLVE boundary rejects it.
        let r = parse_request(
            r#"{"op":"solve","deck":"rod 0 0 0.5 2 0.01\n","scenarios":[{"kind":"gpr","value":1e999}]}"#,
        )
        .unwrap();
        match r {
            Request::Solve { scenarios, .. } => {
                assert_eq!(scenarios.unwrap()[0].drive(), f64::INFINITY);
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn scenario_json_round_trips() {
        for s in [Scenario::gpr(5_000.5), Scenario::fault_current(0.1 + 0.2)] {
            let line = scenario_json(&s).to_line();
            let v = Json::parse(&line).unwrap();
            let back = scenario_from_json(&v).unwrap();
            assert_eq!(back.drive().to_bits(), s.drive().to_bits());
        }
    }

    #[test]
    fn solution_json_includes_leakage_only_on_request() {
        let sol = GroundingSolution {
            leakage: vec![0.25, 0.5],
            gpr: 5_000.0,
            total_current: 1_234.5,
            equivalent_resistance: 4.05,
            solver_iterations: 7,
            scenario: Scenario::gpr(5_000.0),
        };
        let lean = solution_json(&sol, false);
        assert!(lean.get("leakage").is_none());
        assert_eq!(lean.get("gpr").and_then(Json::as_f64), Some(5_000.0));
        let fat = solution_json(&sol, true);
        let leak = fat.get("leakage").and_then(Json::as_arr).unwrap();
        assert_eq!(leak.len(), 2);
        assert_eq!(leak[1].as_f64(), Some(0.5));
    }
}
