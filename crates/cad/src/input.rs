//! Case-deck parser.
//!
//! A grounding case is described by a line-oriented text deck, in the
//! spirit of the era's CAD input files (the paper's system TOTBEM used
//! fixed-format decks; we use a keyword format):
//!
//! ```text
//! # Balaidos-like case
//! title Balaidos substation
//! soil two-layer 0.0025 0.020 1.0      # γ1 γ2 H
//! gpr 10000                            # volts
//! grid rect 0 0 80 60 8 6 0.8 0.00564  # x0 y0 w h nx ny depth radius
//! rod 10 10 0.8 1.5 0.007              # x y ztop length radius
//! conductor 0 0 0.8 10 0 0.8 0.006     # x0 y0 z0 x1 y1 z1 radius
//! max-element-length 5.0
//! scenario gpr 5000                    # optional: sweep scenarios…
//! scenario fault-current 25000         # …all answered from ONE prepare
//! ```
//!
//! Keywords may appear in any order; later `soil`/`gpr` lines override
//! earlier ones; geometry and `scenario` lines accumulate. When one or
//! more `scenario` stanzas are present the pipeline answers all of them
//! from a single prepared study (one assembly, one factorization);
//! without any, the deck's `gpr` line is the single implicit scenario.
//!
//! ## Workload stanzas
//!
//! Beyond plain scenario lists, a deck may ask for one (not both) of the
//! richer workload shapes:
//!
//! ```text
//! sweep soil-samples 32 seed 7 sigma 0.15   # Monte-Carlo soil sweep
//! search pitch 4:10:4                       # grid-pitch design search
//! ```
//!
//! `sweep` answers the deck's scenarios for `N` log-normally perturbed
//! copies of the soil model, drawn from a seeded RNG (`sigma` defaults
//! to 0.1); `search` re-derives the deck's `grid rect` layout at each
//! candidate pitch `LO:HI:N` and scores it against IEEE 80 touch/step
//! limits, using the deck's `scenario fault-current` values (default
//! 25 kA). The parsed shape lands in [`CadCase::workload`]; the
//! [`CadCase::scenarios`] field keeps the raw `scenario` stanzas.
//!
//! ## Edit stanzas
//!
//! A deck may follow its geometry with incremental edits, replayed in
//! order as an interactive session after the base grid is prepared:
//!
//! ```text
//! edit move 3 0 0 0.2        # translate conductor 3 by (dx dy dz)
//! edit move 3 b 0 0 0.2      # displace only endpoint b
//! edit add 5 5 0.8 5 5 2.3 0.007
//! edit remove 3
//! ```
//!
//! Conductor indices are deck order, 0-based, re-evaluated after each
//! edit (a `remove` shifts later indices down). Geometry-only moves
//! re-integrate just the touched element pairs, under the old and the new
//! geometry, through the assembler's own class-first integrator, and
//! update the retained operator and Cholesky factor in place;
//! `add`/`remove` rebuild. Edits accumulate in [`CadCase::edits`] and
//! cannot be combined with sweep/search stanzas.

use layerbem_core::formulation::{Formulation, SolveOptions, SolverChoice};
use layerbem_core::incremental::{ConductorEnd, EditOp};
use layerbem_core::safety::{BodyWeight, ConductorMaterial, SafetyCriteria};
use layerbem_core::study::Scenario;
use layerbem_core::workload::{SoilSweepSpec, StudySpec, Workload, WorkloadError};
use layerbem_geometry::grids::{rectangular_grid, triangle_grid, RectGridSpec, TriangleGridSpec};
use layerbem_geometry::{Conductor, ConductorNetwork, MeshOptions, Point3};
use layerbem_soil::{Layer, SoilModel};

/// A parsed grounding case.
#[derive(Clone, Debug)]
pub struct CadCase {
    /// Case title (defaults to "untitled").
    pub title: String,
    /// Electrode network.
    pub network: ConductorNetwork,
    /// Soil model (defaults to uniform 0.01 (Ω·m)⁻¹ if absent).
    pub soil: SoilModel,
    /// Ground potential rise in volts (defaults to 1).
    pub gpr: f64,
    /// Discretization controls.
    pub mesh_options: MeshOptions,
    /// BEM weighting scheme (default Galerkin).
    pub formulation: Formulation,
    /// Linear solver (default preconditioned CG).
    pub solver: SolverChoice,
    /// Explicit sweep scenarios from `scenario` stanzas (may be empty:
    /// the `gpr` line is then the single implicit scenario). The deck's
    /// full request, with the implicit scenario resolved and sweep/search
    /// stanzas applied, lives in [`CadCase::workload`].
    pub scenarios: Vec<Scenario>,
    /// The workload the deck asks for, with implicit scenarios already
    /// resolved (a scenario-shaped workload is never empty).
    pub workload: Workload,
    /// The last `grid rect` stanza's geometry, kept as the template a
    /// `search` workload re-derives candidate layouts from.
    pub grid_spec: Option<RectGridSpec>,
    /// `edit` stanzas in deck order, replayed as an interactive session
    /// against the base geometry: each move re-integrates only the
    /// touched element pairs, class-first like a full assembly, and
    /// updates the retained operator and factor in place instead of
    /// re-running the full prepare; `add`/`remove` rebuild.
    pub edits: Vec<EditOp>,
}

impl CadCase {
    /// The deck's `formulation`/`solver` keywords laid over a front end's
    /// `base` options — the effective options every front end solves
    /// (and the serve cache keys) this deck with. The knobs a deck cannot
    /// express (quadrature, tolerance, backend, parallelism) stay the
    /// caller's.
    pub fn solve_options(&self, base: SolveOptions) -> SolveOptions {
        SolveOptions {
            formulation: self.formulation,
            solver: self.solver,
            ..base
        }
    }

    /// The study this deck's base geometry names under a front end's
    /// `base` options — what the executor asks a study source for.
    pub fn study_spec(&self, base: SolveOptions) -> StudySpec<'_> {
        StudySpec {
            network: &self.network,
            mesh_options: self.mesh_options,
            soil: &self.soil,
            opts: self.solve_options(base),
        }
    }

    /// Builds a soil-sweep spec over `scenarios`: each parameter is the
    /// explicit value (a serve request field, the CLI's `--soil-sweep`),
    /// else the deck's `sweep` stanza, else its default (seed 0, sigma
    /// 0.1; the sample count has none).
    pub fn soil_sweep(
        &self,
        samples: Option<usize>,
        seed: Option<u64>,
        sigma: Option<f64>,
        scenarios: Vec<Scenario>,
    ) -> Result<SoilSweepSpec, String> {
        let stanza = match &self.workload {
            Workload::SoilSweep(spec) => Some(spec),
            _ => None,
        };
        let samples = samples
            .or(stanza.map(|s| s.samples))
            .ok_or("sweep expects 'samples' (or a deck with a 'sweep soil-samples' stanza)")?;
        let seed = seed.or(stanza.map(|s| s.seed)).unwrap_or(0);
        let sigma = sigma.or(stanza.map(|s| s.sigma)).unwrap_or(0.1);
        SoilSweepSpec::new(samples, seed, sigma, scenarios).map_err(|e| e.to_string())
    }

    /// Builds a design-search workload over pitch candidates `lo:hi:n`
    /// from this case's `grid rect` template, its `fault-current`
    /// scenarios (default 25 kA) and IEEE 80 default criteria — the
    /// shared path behind the deck's `search pitch` stanza and the CLI's
    /// `--search-pitch` flag.
    pub fn design_search(&self, lo: f64, hi: f64, n: usize) -> Result<Workload, String> {
        let base = self
            .grid_spec
            .ok_or_else(|| "search requires a 'grid rect' stanza as template".to_string())?;
        let fault_currents: Vec<f64> = self
            .scenarios
            .iter()
            .filter_map(|s| match s {
                Scenario::FaultCurrent { amps } => Some(*amps),
                Scenario::Gpr { .. } => None,
            })
            .collect();
        let fault_currents = if fault_currents.is_empty() {
            vec![25_000.0]
        } else {
            fault_currents
        };
        let criteria = SafetyCriteria {
            fault_duration: 0.5,
            body_weight: BodyWeight::Kg50,
            soil_resistivity: 1.0 / self.soil.conductivity_at(0.0),
            surface_layer: None,
        };
        Workload::design_search(
            base,
            lo,
            hi,
            n,
            fault_currents,
            criteria,
            ConductorMaterial::copper_hard_drawn(),
            40.0,
        )
        .map_err(|e| e.to_string())
    }
}

/// Parse failure with location and cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_floats(line: usize, parts: &[&str], n: usize, what: &str) -> Result<Vec<f64>, ParseError> {
    if parts.len() != n {
        return Err(err(
            line,
            format!("{what} expects {n} numeric fields, got {}", parts.len()),
        ));
    }
    parts
        .iter()
        .map(|p| {
            // Non-finite values are rejected here rather than downstream:
            // Rust's f64 parser accepts "inf"/"NaN" and huge literals like
            // 1e999 overflow to ∞, none of which describe a physical deck
            // quantity (a resident solver must see them as typed errors,
            // never as NaNs propagating through assembly).
            p.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| err(line, format!("invalid number '{p}' in {what}")))
        })
        .collect()
}

/// The conductor a deck's `x0 y0 z0 x1 y1 z1 r` fields describe, or the
/// line's parse error saying why they describe none.
fn conductor(line: usize, v: &[f64]) -> Result<Conductor, ParseError> {
    Conductor::try_new(
        Point3::new(v[0], v[1], v[2]),
        Point3::new(v[3], v[4], v[5]),
        v[6],
    )
    .map_err(|why| err(line, why))
}

/// Ceiling on grid cells per axis and per grid: a deck is a hand-written
/// description of one substation, so counts beyond this are typos (e.g.
/// `1e30`, which passes an integrality check) that would OOM the process
/// generating conductors.
const MAX_GRID_CELLS_PER_AXIS: f64 = 10_000.0;
const MAX_GRID_CELLS: f64 = 1_000_000.0;

/// Validates a grid stanza's `(nx, ny)` fields: positive integers within
/// the generation budget.
fn parse_grid_counts(line: usize, x: f64, y: f64) -> Result<(usize, usize), ParseError> {
    if !(x >= 1.0 && y >= 1.0 && x.fract() == 0.0 && y.fract() == 0.0) {
        return Err(err(line, "grid cell counts must be positive integers"));
    }
    if x > MAX_GRID_CELLS_PER_AXIS || y > MAX_GRID_CELLS_PER_AXIS || x * y > MAX_GRID_CELLS {
        return Err(err(
            line,
            format!(
                "grid cell counts capped at {MAX_GRID_CELLS_PER_AXIS} per axis \
                 and {MAX_GRID_CELLS} total"
            ),
        ));
    }
    Ok((x as usize, y as usize))
}

/// Validates a grid stanza's geometry before its generator builds
/// conductors from it: positive extents (`width height`, or the legs), a
/// buried depth and a positive radius.
fn check_grid_geometry(
    line: usize,
    what: &str,
    extents: [f64; 2],
    depth: f64,
    radius: f64,
) -> Result<(), ParseError> {
    if !(extents[0] > 0.0 && extents[1] > 0.0) {
        return Err(err(line, format!("{what} extents must be positive")));
    }
    if depth < 0.0 {
        return Err(err(line, "conductors must be buried (z >= 0)"));
    }
    if radius <= 0.0 {
        return Err(err(line, "conductor radius must be positive"));
    }
    Ok(())
}

/// Parses a `LO:HI:N` range spec (shared by the `search pitch` stanza
/// and the CLI's sweep flags). Only the shape is validated here; the
/// endpoints' domain is checked by the workload constructors.
fn parse_range(line: usize, spec: &str, what: &str) -> Result<(f64, f64, usize), ParseError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let invalid = || err(line, format!("{what} expects LO:HI:N, got '{spec}'"));
    if parts.len() != 3 {
        return Err(invalid());
    }
    let lo: f64 = parts[0].parse().map_err(|_| invalid())?;
    let hi: f64 = parts[1].parse().map_err(|_| invalid())?;
    let n: usize = parts[2].parse().map_err(|_| invalid())?;
    Ok((lo, hi, n))
}

/// Parses one `edit` stanza:
///
/// ```text
/// edit move I dx dy dz        # translate conductor I rigidly
/// edit move I a|b dx dy dz    # displace one endpoint of conductor I
/// edit add x0 y0 z0 x1 y1 z1 r
/// edit remove I
/// ```
///
/// Only shape and numeric sanity are validated here; whether the edit
/// produces a solvable model (connectivity, buried conductors after the
/// move) is checked when the session replays it.
fn parse_edit(line: usize, rest: &[&str]) -> Result<EditOp, ParseError> {
    let usage = "edit expects 'move I [a|b] dx dy dz', 'add x0 y0 z0 x1 y1 z1 r' or 'remove I'";
    let kind = *rest.first().ok_or_else(|| err(line, usage))?;
    let index = |s: &str| -> Result<usize, ParseError> {
        s.parse()
            .map_err(|_| err(line, "edit expects a conductor index (deck order, 0-based)"))
    };
    match kind {
        "move" => {
            let i = index(rest.get(1).copied().ok_or_else(|| err(line, usage))?)?;
            match rest.len() {
                5 => {
                    let v = parse_floats(line, &rest[2..], 3, "edit move")?;
                    Ok(EditOp::Move {
                        index: i,
                        delta: [v[0], v[1], v[2]],
                    })
                }
                6 => {
                    let end = match rest[2] {
                        "a" => ConductorEnd::A,
                        "b" => ConductorEnd::B,
                        other => {
                            return Err(err(
                                line,
                                format!("edit move endpoint must be 'a' or 'b', got '{other}'"),
                            ))
                        }
                    };
                    let v = parse_floats(line, &rest[3..], 3, "edit move")?;
                    Ok(EditOp::MoveEnd {
                        index: i,
                        end,
                        delta: [v[0], v[1], v[2]],
                    })
                }
                _ => Err(err(line, usage)),
            }
        }
        "add" => {
            let v = parse_floats(line, &rest[1..], 7, "edit add")?;
            Ok(EditOp::Add {
                conductor: conductor(line, &v)?,
            })
        }
        "remove" => {
            if rest.len() != 2 {
                return Err(err(line, usage));
            }
            Ok(EditOp::Remove {
                index: index(rest[1])?,
            })
        }
        other => Err(err(line, format!("unknown edit kind '{other}'"))),
    }
}

/// Parses a case deck from text.
pub fn parse_case(text: &str) -> Result<CadCase, ParseError> {
    let mut title = "untitled".to_string();
    let mut network = ConductorNetwork::new();
    let mut soil: Option<SoilModel> = None;
    let mut gpr = 1.0;
    let mut mesh_options = MeshOptions::default();
    let mut formulation = Formulation::Galerkin;
    let mut solver = SolverChoice::ConjugateGradient;
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut grid_spec: Option<RectGridSpec> = None;
    // (samples, seed, sigma, line) / (lo, hi, n, line) of the workload
    // stanzas; validated against each other and the rest of the deck
    // once everything is parsed.
    let mut sweep: Option<(usize, u64, f64, usize)> = None;
    let mut search: Option<(f64, f64, usize, usize)> = None;
    let mut edits: Vec<EditOp> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Strip comments and whitespace.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // A tokenless line is as blank as the ones skipped above. The old
        // `.expect("non-empty line has a token")` coupled this loop to
        // trim() and split_whitespace() agreeing exactly on what counts
        // as whitespace — a panic path a resident server cannot afford if
        // either ever diverges.
        let mut tokens = line.split_whitespace();
        let Some(keyword) = tokens.next() else {
            continue;
        };
        let rest: Vec<&str> = tokens.collect();
        match keyword {
            "title" => {
                if rest.is_empty() {
                    return Err(err(line_no, "title expects a name"));
                }
                title = rest.join(" ");
            }
            "soil" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| err(line_no, "soil expects a model kind"))?;
                let nums = &rest[1..];
                soil = Some(match kind {
                    "uniform" => {
                        let v = parse_floats(line_no, nums, 1, "soil uniform")?;
                        if v[0] <= 0.0 {
                            return Err(err(line_no, "conductivity must be positive"));
                        }
                        SoilModel::uniform(v[0])
                    }
                    "two-layer" => {
                        let v = parse_floats(line_no, nums, 3, "soil two-layer")?;
                        if v[0] <= 0.0 || v[1] <= 0.0 || v[2] <= 0.0 {
                            return Err(err(line_no, "two-layer parameters must be positive"));
                        }
                        SoilModel::two_layer(v[0], v[1], v[2])
                    }
                    "multi-layer" => {
                        // Pairs γ h, last layer given with h = inf.
                        if nums.len() < 4 || !nums.len().is_multiple_of(2) {
                            return Err(err(
                                line_no,
                                "soil multi-layer expects pairs 'γ h' ending with 'γ inf'",
                            ));
                        }
                        let mut layers = Vec::new();
                        let pair_count = nums.len() / 2;
                        for (i, pair) in nums.chunks(2).enumerate() {
                            let g: f64 = pair[0]
                                .parse::<f64>()
                                .ok()
                                .filter(|g| g.is_finite() && *g > 0.0)
                                .ok_or_else(|| {
                                    err(line_no, "conductivity must be a positive finite number")
                                })?;
                            // Only the literal keyword "inf" means the
                            // bottom half-space; the float parser's own
                            // "inf"/"NaN" spellings and non-positive
                            // thicknesses are rejected (interior layers
                            // must be finite slabs).
                            let h: f64 = if pair[1] == "inf" {
                                f64::INFINITY
                            } else {
                                pair[1]
                                    .parse::<f64>()
                                    .ok()
                                    .filter(|h| h.is_finite() && *h > 0.0)
                                    .ok_or_else(|| {
                                        err(line_no, "thickness must be a positive finite number")
                                    })?
                            };
                            if h.is_infinite() && i + 1 != pair_count {
                                return Err(err(
                                    line_no,
                                    "only the last layer may have thickness 'inf'",
                                ));
                            }
                            layers.push(Layer {
                                conductivity: g,
                                thickness: h,
                            });
                        }
                        if !layers
                            .last()
                            .map(|l| l.thickness.is_infinite())
                            .unwrap_or(false)
                        {
                            return Err(err(line_no, "last layer thickness must be 'inf'"));
                        }
                        SoilModel::multi_layer(layers)
                    }
                    other => return Err(err(line_no, format!("unknown soil model '{other}'"))),
                });
            }
            "gpr" => {
                let v = parse_floats(line_no, &rest, 1, "gpr")?;
                if v[0] <= 0.0 {
                    return Err(err(line_no, "gpr must be positive"));
                }
                gpr = v[0];
            }
            "conductor" => {
                let v = parse_floats(line_no, &rest, 7, "conductor")?;
                network.add(conductor(line_no, &v)?);
            }
            "rod" => {
                let v = parse_floats(line_no, &rest, 5, "rod")?;
                if v[3] <= 0.0 || v[4] <= 0.0 {
                    return Err(err(line_no, "rod length and radius must be positive"));
                }
                // x y ztop length radius → the axis from the top down.
                network.add(conductor(
                    line_no,
                    &[v[0], v[1], v[2], v[0], v[1], v[2] + v[3], v[4]],
                )?);
            }
            "grid" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| err(line_no, "grid expects a kind"))?;
                match kind {
                    "rect" => {
                        let v = parse_floats(line_no, &rest[1..], 8, "grid rect")?;
                        let (nx, ny) = parse_grid_counts(line_no, v[4], v[5])?;
                        check_grid_geometry(line_no, "grid rect", [v[2], v[3]], v[6], v[7])?;
                        let spec = RectGridSpec {
                            origin: (v[0], v[1]),
                            width: v[2],
                            height: v[3],
                            nx,
                            ny,
                            depth: v[6],
                            radius: v[7],
                        };
                        grid_spec = Some(spec);
                        network.extend(rectangular_grid(spec).conductors().iter().copied());
                    }
                    "triangle" => {
                        // leg_x leg_y nx ny depth radius
                        let v = parse_floats(line_no, &rest[1..], 6, "grid triangle")?;
                        let (nx, ny) = parse_grid_counts(line_no, v[2], v[3])?;
                        check_grid_geometry(line_no, "grid triangle", [v[0], v[1]], v[4], v[5])?;
                        network.extend(
                            triangle_grid(TriangleGridSpec {
                                leg_x: v[0],
                                leg_y: v[1],
                                nx,
                                ny,
                                depth: v[4],
                                radius: v[5],
                                min_stub: 1.0,
                                hypotenuse_chain: true,
                            })
                            .conductors()
                            .iter()
                            .copied(),
                        );
                    }
                    other => return Err(err(line_no, format!("unknown grid kind '{other}'"))),
                }
            }
            "formulation" => {
                formulation = match rest.first().copied() {
                    Some("galerkin") => Formulation::Galerkin,
                    Some("collocation") => Formulation::Collocation,
                    other => {
                        return Err(err(
                            line_no,
                            format!("formulation expects galerkin|collocation, got {other:?}"),
                        ))
                    }
                };
            }
            "solver" => {
                solver = match rest.first().copied() {
                    Some("cg") => SolverChoice::ConjugateGradient,
                    Some("cholesky") => SolverChoice::Cholesky,
                    Some("lu") => SolverChoice::Lu,
                    other => {
                        return Err(err(
                            line_no,
                            format!("solver expects cg|cholesky|lu, got {other:?}"),
                        ))
                    }
                };
            }
            "scenario" => {
                let kind = *rest
                    .first()
                    .ok_or_else(|| err(line_no, "scenario expects gpr|fault-current"))?;
                let v = parse_floats(line_no, &rest[1..], 1, "scenario")?;
                if !(v[0] > 0.0 && v[0].is_finite()) {
                    return Err(err(line_no, "scenario drive must be positive and finite"));
                }
                scenarios.push(match kind {
                    "gpr" => Scenario::gpr(v[0]),
                    "fault-current" => Scenario::fault_current(v[0]),
                    other => {
                        return Err(err(
                            line_no,
                            format!("scenario expects gpr|fault-current, got '{other}'"),
                        ))
                    }
                });
            }
            "sweep" => {
                let usage = "sweep expects 'soil-samples N seed S [sigma F]'";
                if rest.first() != Some(&"soil-samples") || rest.get(2) != Some(&"seed") {
                    return Err(err(line_no, usage));
                }
                let samples: usize = rest
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, usage))?;
                let seed: u64 = rest
                    .get(3)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, usage))?;
                let sigma = match rest.get(4) {
                    None => 0.1,
                    Some(&"sigma") if rest.len() == 6 => rest[5]
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .ok_or_else(|| err(line_no, "sigma must be a non-negative number"))?,
                    _ => return Err(err(line_no, usage)),
                };
                sweep = Some((samples, seed, sigma, line_no));
            }
            "search" => {
                if rest.len() != 2 || rest[0] != "pitch" {
                    return Err(err(line_no, "search expects 'pitch LO:HI:N'"));
                }
                let (lo, hi, n) = parse_range(line_no, rest[1], "search pitch")?;
                search = Some((lo, hi, n, line_no));
            }
            "edit" => {
                edits.push(parse_edit(line_no, &rest)?);
            }
            "max-element-length" => {
                let v = parse_floats(line_no, &rest, 1, "max-element-length")?;
                // Floor at 1 mm: grounding conductors are meters long, so
                // anything finer is a typo that would explode the element
                // count (and the O(N³) prepare) without bound.
                if v[0] < 1e-3 {
                    return Err(err(
                        line_no,
                        "max-element-length must be at least 1e-3 meters",
                    ));
                }
                mesh_options.max_element_length = v[0];
            }
            other => return Err(err(line_no, format!("unknown keyword '{other}'"))),
        }
    }

    if network.is_empty() {
        return Err(err(0, "case contains no electrodes"));
    }
    let effective = if scenarios.is_empty() {
        vec![Scenario::gpr(gpr)]
    } else {
        scenarios.clone()
    };
    let mut case = CadCase {
        title,
        network,
        soil: soil.unwrap_or_else(|| SoilModel::uniform(0.01)),
        gpr,
        mesh_options,
        formulation,
        solver,
        scenarios,
        workload: Workload::Scenarios(effective),
        grid_spec,
        edits,
    };
    if !case.edits.is_empty() && (sweep.is_some() || search.is_some()) {
        return Err(err(0, WorkloadError::EditsNeedScenarios.to_string()));
    }
    match (sweep, search) {
        (Some(_), Some((_, _, _, line))) => {
            return Err(err(
                line,
                "a deck may ask for a sweep or a search, not both",
            ));
        }
        (Some((samples, seed, sigma, line)), None) => {
            let scenarios = case
                .workload
                .scenario_list()
                .expect("workload starts scenario-shaped")
                .to_vec();
            case.workload = Workload::soil_sweep(samples, seed, sigma, scenarios)
                .map_err(|e| err(line, e.to_string()))?;
        }
        (None, Some((lo, hi, n, line))) => {
            case.workload = case.design_search(lo, hi, n).map_err(|m| err(line, m))?;
        }
        (None, None) => {}
    }
    Ok(case)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo case
title Demo yard
soil two-layer 0.005 0.016 1.0
gpr 10000
grid rect 0 0 20 20 2 2 0.8 0.006
rod 0 0 0.8 1.5 0.007
conductor 0 0 0.8 -5 0 0.8 0.006
max-element-length 5
";

    #[test]
    fn parses_full_case() {
        let case = parse_case(SAMPLE).unwrap();
        assert_eq!(case.title, "Demo yard");
        assert_eq!(case.gpr, 10_000.0);
        assert_eq!(case.mesh_options.max_element_length, 5.0);
        // 12 grid segments + rod + conductor.
        assert_eq!(case.network.len(), 14);
        match case.soil {
            SoilModel::TwoLayer {
                upper,
                lower,
                thickness,
            } => {
                assert_eq!((upper, lower, thickness), (0.005, 0.016, 1.0));
            }
            _ => panic!("wrong soil model"),
        }
    }

    #[test]
    fn parses_edit_stanzas_in_order() {
        let deck = "\
grid rect 0 0 20 20 2 2 0.8 0.006
rod 0 0 0.8 1.5 0.007
edit move 12 b 0 0 0.25
edit move 3 0.5 0 0
edit add 10 10 0.8 10 10 2.3 0.007
edit remove 0
";
        let case = parse_case(deck).unwrap();
        assert_eq!(case.edits.len(), 4);
        assert_eq!(
            case.edits[0],
            EditOp::MoveEnd {
                index: 12,
                end: ConductorEnd::B,
                delta: [0.0, 0.0, 0.25],
            }
        );
        assert_eq!(
            case.edits[1],
            EditOp::Move {
                index: 3,
                delta: [0.5, 0.0, 0.0],
            }
        );
        assert!(matches!(case.edits[2], EditOp::Add { .. }));
        assert_eq!(case.edits[3], EditOp::Remove { index: 0 });
    }

    #[test]
    fn edit_stanzas_reject_malformed_lines() {
        let base = "conductor 0 0 1 5 0 1 0.01\n";
        for bad in [
            "edit",
            "edit move",
            "edit move x 0 0 0",
            "edit move 0 c 0 0 0",
            "edit move 0 1 2",
            "edit add 0 0 1 0 0 1 0.01", // zero length
            "edit add 0 0 1 5 0 1 0",    // zero radius
            "edit add 0 0 -1 5 0 1 0.01",
            "edit remove",
            "edit resize 0",
        ] {
            let deck = format!("{base}{bad}\n");
            assert!(parse_case(&deck).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn edits_cannot_combine_with_sweep_or_search_workloads() {
        let deck = "\
grid rect 0 0 20 20 2 2 0.8 0.006
sweep soil-samples 4 seed 1
edit move 0 b 0 0 0.1
";
        let e = parse_case(deck).unwrap_err();
        assert!(e.message.contains("cannot"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let case = parse_case("conductor 0 0 1 5 0 1 0.01 # inline\n\n# full line\n").unwrap();
        assert_eq!(case.network.len(), 1);
        assert_eq!(case.title, "untitled");
        assert_eq!(case.gpr, 1.0);
    }

    #[test]
    fn multi_layer_soil_parses() {
        let case =
            parse_case("soil multi-layer 0.005 1.0 0.01 2.0 0.016 inf\nrod 0 0 0.5 2 0.01\n")
                .unwrap();
        assert_eq!(case.soil.layer_count(), 3);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_case("title ok\nbogus 1 2 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn wrong_arity_is_reported() {
        let e = parse_case("conductor 0 0 1 5 0 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expects 7"));
    }

    #[test]
    fn impossible_conductors_are_parse_errors_naming_their_line() {
        // A deck must never reach `Conductor::new`'s panic, directly or
        // through a grid generator.
        for (line, why) in [
            ("conductor 0 0 1 0 0 1 0.01", "positive length"),
            ("conductor 0 0 1 5 0 -1 0.01", "buried"),
            ("rod 0 0 -1 1 0.01", "buried"),
            ("grid rect 0 0 20 20 2 2 0.8 0", "radius must be positive"),
            ("grid rect 0 0 20 20 2 2 -0.8 0.006", "buried"),
            ("grid rect 0 0 0 20 2 2 0.8 0.006", "extents must be"),
            ("grid triangle 89 -143 9 11 0.8 0.006", "extents must be"),
            ("grid triangle 89 143 9 11 -0.8 0.006", "buried"),
            ("grid triangle 89 143 9 11 0.8 -0.006", "radius must be"),
        ] {
            let e = parse_case(&format!("title t\n{line}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{line}");
            assert!(e.to_string().starts_with("line 2: "), "{e}");
            assert!(e.message.contains(why), "{line}: {e}");
        }
    }

    #[test]
    fn bad_number_is_reported() {
        let e = parse_case("gpr ten\n").unwrap_err();
        assert!(e.message.contains("invalid number"));
    }

    #[test]
    fn negative_parameters_rejected() {
        assert!(parse_case("gpr -5\nrod 0 0 0 1 0.01\n").is_err());
        assert!(parse_case("soil uniform -0.1\nrod 0 0 0 1 0.01\n").is_err());
        assert!(parse_case("rod 0 0 0 -1 0.01\n").is_err());
    }

    #[test]
    fn empty_case_rejected() {
        let e = parse_case("title nothing\n").unwrap_err();
        assert!(e.message.contains("no electrodes"));
    }

    #[test]
    fn multilayer_requires_infinite_bottom() {
        let e = parse_case("soil multi-layer 0.01 1.0 0.02 2.0\nrod 0 0 0 1 0.01\n").unwrap_err();
        assert!(e.message.contains("inf"));
    }

    #[test]
    fn triangle_grid_keyword() {
        let case = parse_case("grid triangle 89 143 9 11 0.8 0.006\n").unwrap();
        assert!(case.network.len() > 100);
        // All conductors inside the triangle.
        for c in case.network.conductors() {
            assert!(c.axis.a.x / 89.0 + c.axis.a.y / 143.0 <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn solver_and_formulation_keywords() {
        let case =
            parse_case("solver cholesky\nformulation collocation\nrod 0 0 0.5 1 0.01\n").unwrap();
        assert_eq!(case.solver, SolverChoice::Cholesky);
        assert_eq!(case.formulation, Formulation::Collocation);
        // Defaults when absent.
        let d = parse_case("rod 0 0 0.5 1 0.01\n").unwrap();
        assert_eq!(d.solver, SolverChoice::ConjugateGradient);
        assert_eq!(d.formulation, Formulation::Galerkin);
    }

    #[test]
    fn scenario_stanzas_accumulate_in_order() {
        let case = parse_case(
            "rod 0 0 0.5 1 0.01\nscenario gpr 5000\nscenario fault-current 25000\nscenario gpr 10000\n",
        )
        .unwrap();
        assert_eq!(
            case.scenarios,
            vec![
                Scenario::gpr(5_000.0),
                Scenario::fault_current(25_000.0),
                Scenario::gpr(10_000.0),
            ]
        );
        match case.workload {
            Workload::Scenarios(s) => assert_eq!(s, case.scenarios),
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn gpr_line_is_the_implicit_scenario_when_no_stanzas() {
        let case = parse_case("gpr 8000\nrod 0 0 0.5 1 0.01\n").unwrap();
        assert!(case.scenarios.is_empty());
        // The workload view resolves the implicit scenario.
        match case.workload {
            Workload::Scenarios(s) => assert_eq!(s, vec![Scenario::gpr(8_000.0)]),
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn sweep_stanza_parses_into_a_soil_sweep_workload() {
        let case =
            parse_case("gpr 10000\nrod 0 0 0.5 1 0.01\nsweep soil-samples 32 seed 7 sigma 0.15\n")
                .unwrap();
        match case.workload {
            Workload::SoilSweep(spec) => {
                assert_eq!((spec.samples, spec.seed, spec.sigma), (32, 7, 0.15));
                assert_eq!(spec.scenarios, vec![Scenario::gpr(10_000.0)]);
            }
            other => panic!("wrong workload: {other:?}"),
        }
        // sigma defaults to 0.1; deck scenarios flow into the sweep.
        let d = parse_case(
            "rod 0 0 0.5 1 0.01\nscenario fault-current 25000\nsweep soil-samples 8 seed 1\n",
        )
        .unwrap();
        match d.workload {
            Workload::SoilSweep(spec) => {
                assert_eq!(spec.sigma, 0.1);
                assert_eq!(spec.scenarios, vec![Scenario::fault_current(25_000.0)]);
            }
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn search_stanza_parses_into_a_design_search_workload() {
        let case = parse_case(
            "grid rect 0 0 20 20 2 2 0.8 0.006\nscenario fault-current 5000\nsearch pitch 4:10:4\n",
        )
        .unwrap();
        assert!(case.grid_spec.is_some());
        match case.workload {
            Workload::DesignSearch(spec) => {
                assert_eq!(spec.pitches, vec![4.0, 6.0, 8.0, 10.0]);
                assert_eq!(spec.fault_currents, vec![5_000.0]);
            }
            other => panic!("wrong workload: {other:?}"),
        }
        // Default fault current when the deck names none.
        let d = parse_case("grid rect 0 0 20 20 2 2 0.8 0.006\nsearch pitch 5:10:2\n").unwrap();
        match d.workload {
            Workload::DesignSearch(spec) => assert_eq!(spec.fault_currents, vec![25_000.0]),
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn bad_workload_stanzas_are_typed_parse_errors() {
        // Malformed stanzas.
        assert!(parse_case("rod 0 0 0.5 1 0.01\nsweep soil-samples x seed 1\n").is_err());
        assert!(parse_case("rod 0 0 0.5 1 0.01\nsweep soil-samples 4\n").is_err());
        assert!(parse_case("rod 0 0 0.5 1 0.01\nsweep soil-samples 4 seed 1 sigma -1\n").is_err());
        assert!(parse_case("rod 0 0 0.5 1 0.01\nsearch pitch 4:10\n").is_err());
        // Workload-domain errors surface with the stanza's line number.
        let e = parse_case("rod 0 0 0.5 1 0.01\nsweep soil-samples 0 seed 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("zero"));
        let e = parse_case("grid rect 0 0 20 20 2 2 0.8 0.006\nsearch pitch 10:4:3\n").unwrap_err();
        assert!(e.message.contains("range"));
        // A search without a rect-grid template is rejected.
        let e = parse_case("rod 0 0 0.5 1 0.01\nsearch pitch 4:10:3\n").unwrap_err();
        assert!(e.message.contains("grid rect"));
        // Sweep and search in one deck conflict.
        let e = parse_case(
            "grid rect 0 0 20 20 2 2 0.8 0.006\nsweep soil-samples 4 seed 1\nsearch pitch 4:10:3\n",
        )
        .unwrap_err();
        assert!(e.message.contains("not both"));
    }

    #[test]
    fn bad_scenarios_rejected_with_line_numbers() {
        let e = parse_case("rod 0 0 0.5 1 0.01\nscenario gpr -5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("positive"));
        assert!(parse_case("scenario voltage 10\nrod 0 0 0.5 1 0.01\n").is_err());
        assert!(parse_case("scenario gpr\nrod 0 0 0.5 1 0.01\n").is_err());
    }

    #[test]
    fn bad_solver_rejected() {
        assert!(parse_case("solver gmres\nrod 0 0 0.5 1 0.01\n").is_err());
        assert!(parse_case("formulation fem\nrod 0 0 0.5 1 0.01\n").is_err());
    }

    #[test]
    fn tokenless_lines_are_skipped_not_panics() {
        // Regression: lines that are non-empty but tokenize to nothing —
        // a lone '#', comment-markers with trailing whitespace, and
        // non-ASCII whitespace that survives the ASCII trim — used to hit
        // an `.expect()` panic path.
        for deck in [
            "#\nrod 0 0 0.5 1 0.01\n",
            "   #   \nrod 0 0 0.5 1 0.01\n",
            "# x # y\nrod 0 0 0.5 1 0.01\n",
            "\u{00A0}\u{2003}\nrod 0 0 0.5 1 0.01\n",
            "\u{00A0} # c\nrod 0 0 0.5 1 0.01\n",
            "\t \r\nrod 0 0 0.5 1 0.01\n",
        ] {
            let case = parse_case(deck).unwrap_or_else(|e| panic!("{deck:?}: {e}"));
            assert_eq!(case.network.len(), 1, "{deck:?}");
        }
        // A deck of ONLY such lines still reports the no-electrode error.
        let e = parse_case("#\n\u{00A0}\n # tail\n").unwrap_err();
        assert!(e.message.contains("no electrodes"));
    }

    #[test]
    fn non_finite_deck_floats_are_typed_errors() {
        // f64::parse accepts these spellings; the deck must not.
        for deck in [
            "gpr inf\nrod 0 0 0.5 1 0.01\n",
            "gpr NaN\nrod 0 0 0.5 1 0.01\n",
            "gpr 1e999\nrod 0 0 0.5 1 0.01\n",
            "rod 0 0 0.5 inf 0.01\n",
            "conductor 0 0 nan 5 0 1 0.01\n",
            "soil uniform inf\nrod 0 0 0.5 1 0.01\n",
            "scenario gpr inf\nrod 0 0 0.5 1 0.01\n",
            "max-element-length inf\nrod 0 0 0.5 1 0.01\n",
        ] {
            let e = parse_case(deck).unwrap_err();
            assert!(
                e.message.contains("invalid number"),
                "{deck:?} gave: {}",
                e.message
            );
        }
    }

    #[test]
    fn multi_layer_parameters_are_validated() {
        // The last-layer 'inf' literal keeps working…
        assert!(parse_case("soil multi-layer 0.01 1.0 0.02 inf\nrod 0 0 0.5 1 0.01\n").is_ok());
        // …but non-finite / non-positive layer parameters are typed errors
        // (these previously flowed into SoilModel's asserting constructor).
        for deck in [
            "soil multi-layer inf 1.0 0.02 inf\nrod 0 0 0.5 1 0.01\n",
            "soil multi-layer -0.01 1.0 0.02 inf\nrod 0 0 0.5 1 0.01\n",
            "soil multi-layer 0.01 nan 0.02 inf\nrod 0 0 0.5 1 0.01\n",
            "soil multi-layer 0.01 -1.0 0.02 inf\nrod 0 0 0.5 1 0.01\n",
            "soil multi-layer 0.01 inf 0.02 inf\nrod 0 0 0.5 1 0.01\n",
            "soil multi-layer 0.01 1e999 0.02 inf\nrod 0 0 0.5 1 0.01\n",
        ] {
            assert!(parse_case(deck).is_err(), "{deck:?}");
        }
    }

    #[test]
    fn absurd_grid_counts_are_rejected_before_generation() {
        // 1e30 is integral to f64 — the old `fract()` check passed it and
        // the generator would try to allocate 2e30 conductors.
        for deck in [
            "grid rect 0 0 80 60 1e30 2 0.8 0.006\n",
            "grid rect 0 0 80 60 2 99999 0.8 0.006\n",
            "grid rect 0 0 80 60 5000 5000 0.8 0.006\n",
            "grid triangle 89 143 1e30 11 0.8 0.006\n",
        ] {
            let e = parse_case(deck).unwrap_err();
            assert!(e.message.contains("cap"), "{deck:?} gave: {}", e.message);
        }
        // Within-cap grids keep parsing.
        assert!(parse_case("grid rect 0 0 80 60 8 6 0.8 0.006\n").is_ok());
    }

    #[test]
    fn microscopic_element_length_is_rejected() {
        let e = parse_case("max-element-length 1e-9\nrod 0 0 0.5 1 0.01\n").unwrap_err();
        assert!(e.message.contains("1e-3"));
        assert!(parse_case("max-element-length 0.001\nrod 0 0 0.5 1 0.01\n").is_ok());
    }
}
