//! Seeded input generator: every byte the programs under test receive.
//!
//! Decks are rendered as explicit `conductor` lines (the `grid triangle`
//! stanza cannot express Barberá's `min_stub` / no-hypotenuse
//! reconstruction) with Rust's shortest-round-trip float formatting, so a
//! parsed deck reproduces the generator's `f64` bit patterns — which is
//! what lets the edit workload predict a published study key from its own
//! arithmetic. Same seed ⇒ byte-identical decks, request scripts and edit
//! scripts; nothing here reads a clock or the environment.

use layerbem_geometry::grids::{self, RectGridSpec};
use layerbem_geometry::ConductorNetwork;
use layerbem_serve::Json;

/// SplitMix64: the benchmark owns its generator so its inputs do not move
/// when the repository's own RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, tags…)`: request `i` of
    /// connection `c` can be drawn without generating its predecessors.
    pub fn stream(seed: u64, tags: &[u64]) -> Rng {
        let mut r = Rng::new(seed);
        for t in tags {
            r.0 = r.next_u64() ^ t.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        }
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

// Stream tags: one per independent draw site.
const TAG_COLD_SOIL: u64 = 1;
const TAG_SERVE_SOIL: u64 = 2;
const TAG_WARM_VARIANTS: u64 = 3;
const TAG_WARM_PICK: u64 = 4;
const TAG_EDIT: u64 = 5;

/// Relative amplitude of the per-round soil jitter.
pub const SOIL_JITTER: f64 = 0.02;

/// RNG seed of every soil-sweep deck and request.
const SWEEP_SEED: u64 = 7;

/// Problem sizes: the full benchmark, or the `--smoke` miniature (a 2×2
/// yard through every code path and every check in seconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// `max-element-length` of the warm workload's big resident study
    /// (Barberá at 2224 dof, a 20 MB factor): the heavy tail of the mix.
    pub fn refined_length(self) -> f64 {
        if self.smoke {
            5.0
        } else {
            1.0
        }
    }

    /// `max-element-length` of the decks whose own cost is the metric
    /// (`cold-dense`, `serve-edit`): Barberá at 628 dof. Its factor (1.6 MB
    /// packed) stays in a core's private cache and an op takes 0.1–0.2 s,
    /// so a 26 s run holds a hundred ops per class and some of them
    /// always fall into a stretch where the host leaves the core alone
    /// (README, "What the host does"; at 2224 dof an op outlasts those
    /// stretches and streams the shared last-level cache).
    pub fn dense_length(self) -> f64 {
        if self.smoke {
            5.0
        } else {
            4.0
        }
    }

    /// Surface-map samples along x and y.
    pub fn map_samples(self) -> (usize, usize) {
        if self.smoke {
            (7, 9)
        } else {
            (31, 46)
        }
    }

    /// Surface-map window `(x0, x1, y0, y1)`: Fig 5.2's window around
    /// Barberá, or the smoke yard with the same 20 m margin.
    pub fn map_window(self) -> (f64, f64, f64, f64) {
        if self.smoke {
            (-20.0, 40.0, -20.0, 40.0)
        } else {
            (-20.0, 100.0, -20.0, 160.0)
        }
    }

    /// Soil samples of the cold sweep deck / the warm sweep request.
    pub fn sweep_samples(self) -> (usize, usize) {
        if self.smoke {
            (2, 3)
        } else {
            (4, 8)
        }
    }

    /// Scenarios of the multi-scenario dense decks and warm `large8`
    /// requests.
    pub fn many_scenarios(self) -> (usize, usize) {
        if self.smoke {
            (4, 3)
        } else {
            (16, 8)
        }
    }

    /// Moves before the add, and on the added rod, of one edit session.
    pub fn edit_moves(self) -> (usize, usize) {
        if self.smoke {
            (3, 2)
        } else {
            (12, 4)
        }
    }
}

/// One conductor as the seven numbers of a `conductor` line.
pub type Wire = [f64; 7];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    Barbera,
    Balaidos,
}

impl Grid {
    /// The paper's native grid, or its smoke stand-in (a 20 m yard of 2×2
    /// cells; "Balaidos" adds corner rods so the rod paths still run).
    pub fn wires(self, scale: Scale) -> Vec<Wire> {
        let net = match (self, scale.smoke) {
            (Grid::Barbera, false) => grids::barbera(),
            (Grid::Balaidos, false) => grids::balaidos(),
            (_, true) => grids::rectangular_grid(RectGridSpec {
                origin: (0.0, 0.0),
                width: 20.0,
                height: 20.0,
                nx: 2,
                ny: 2,
                depth: 0.8,
                radius: 0.006,
            }),
        };
        let mut wires = network_wires(&net);
        if self == Grid::Balaidos && scale.smoke {
            for (x, y) in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)] {
                wires.push(rod_wire(x, y));
            }
        }
        wires
    }
}

fn network_wires(net: &ConductorNetwork) -> Vec<Wire> {
    net.conductors()
        .iter()
        .map(|c| {
            let (a, b) = (c.axis.a, c.axis.b);
            [a.x, a.y, a.z, b.x, b.y, b.z, c.radius]
        })
        .collect()
}

/// A 1.5 m ∅14 mm rod hanging from the grid plane at `(x, y)`.
fn rod_wire(x: f64, y: f64) -> Wire {
    [x, y, 0.8, x, y, 2.3, 0.007]
}

/// `conductor` lines for `wires`, one per line, shortest-round-trip.
pub fn wire_lines(wires: &[Wire]) -> String {
    let mut s = String::with_capacity(wires.len() * 64);
    for w in wires {
        s.push_str("conductor");
        for v in w {
            s.push(' ');
            s.push_str(&v.to_string());
        }
        s.push('\n');
    }
    s
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Soil {
    /// Conductivity γ.
    Uniform(f64),
    /// γ₁, γ₂, H.
    TwoLayer(f64, f64, f64),
}

impl Soil {
    /// Conductivities scaled by one `1 ± amp` factor, thickness by
    /// another. Sharing the factor between γ₁ and γ₂ keeps the reflection
    /// coefficient κ — hence the image-series length, hence the work —
    /// the same for every round and every seed, while every matrix entry
    /// still changes (measured: a ±2 % κ change moves the series terms by
    /// ±4 %, a ±2 % H change by under 0.2 %).
    pub fn jittered(self, rng: &mut Rng, amp: f64) -> Soil {
        let g = 1.0 + amp * rng.symmetric();
        let h = 1.0 + amp * rng.symmetric();
        match self {
            Soil::Uniform(g0) => Soil::Uniform(g0 * g),
            Soil::TwoLayer(g1, g2, h0) => Soil::TwoLayer(g1 * g, g2 * g, h0 * h),
        }
    }

    /// The (upper-layer) conductivity: what the shared jitter factor
    /// scales, and what `Req` scales inversely with.
    pub fn conductivity(self) -> f64 {
        match self {
            Soil::Uniform(g) | Soil::TwoLayer(g, _, _) => g,
        }
    }

    pub fn line(self) -> String {
        match self {
            Soil::Uniform(g) => format!("soil uniform {g}\n"),
            Soil::TwoLayer(g1, g2, h) => format!("soil two-layer {g1} {g2} {h}\n"),
        }
    }
}

/// `n` scenario stanzas alternating prescribed GPR and fault current
/// (`n = 0`: the deck's `gpr` line is the single implicit scenario).
fn scenario_lines(n: usize) -> String {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                format!("scenario gpr {}\n", 5_000 + 500 * i)
            } else {
                format!("scenario fault-current {}\n", 10_000 + 1_250 * i)
            }
        })
        .collect()
}

/// One deck of a cold round.
#[derive(Clone, Copy, Debug)]
pub struct ColdDeck {
    pub name: &'static str,
    pub grid: Grid,
    pub refined: bool,
    pub soil: Soil,
    /// Solver / formulation stanzas, verbatim.
    pub stanzas: &'static str,
    /// Scenario stanzas (0 = the implicit `gpr` scenario).
    pub scenarios: usize,
    /// Soil-sweep deck (`sweep soil-samples N`)?
    pub sweep: bool,
    /// Follow the report with the CLI's `--map` surface map?
    pub map: bool,
    /// `(Req Ω, relative tolerance)` the paper publishes for this deck at
    /// zero jitter on the native grid (`tests/paper_reproduction.rs`).
    pub paper_req: Option<(f64, f64)>,
}

/// The paper's own regime: image-series kernels and pair assembly on the
/// native grids.
pub fn cold_layered() -> Vec<ColdDeck> {
    vec![
        ColdDeck {
            name: "barbera-2l",
            grid: Grid::Barbera,
            refined: false,
            soil: Soil::TwoLayer(0.005, 0.016, 1.0),
            stanzas: "solver cholesky\n",
            scenarios: 2,
            sweep: false,
            map: true,
            paper_req: Some((0.3704, 0.07)),
        },
        ColdDeck {
            name: "balaidos-c",
            grid: Grid::Balaidos,
            refined: false,
            soil: Soil::TwoLayer(0.0025, 0.020, 1.0),
            stanzas: "",
            scenarios: 0,
            sweep: false,
            map: false,
            paper_req: Some((0.4860, 0.01)),
        },
        ColdDeck {
            name: "balaidos-b-sweep",
            grid: Grid::Balaidos,
            refined: false,
            soil: Soil::TwoLayer(0.0025, 0.020, 0.7),
            stanzas: "",
            scenarios: 0,
            sweep: true,
            map: false,
            paper_req: None,
        },
    ]
}

/// No image series (uniform soil, one term per pair): the dense linear
/// algebra on the refined grid.
pub fn cold_dense(scale: Scale) -> Vec<ColdDeck> {
    let (many, _) = scale.many_scenarios();
    let deck = |name, stanzas, scenarios| ColdDeck {
        name,
        grid: Grid::Barbera,
        refined: true,
        soil: Soil::Uniform(0.016),
        stanzas,
        scenarios,
        sweep: false,
        map: false,
        paper_req: None,
    };
    vec![
        deck("dense-chol", "solver cholesky\n", many),
        // Half as many as the direct decks: each one is a PCG run, and
        // eight of them keep factor + solves above a fifth of the round.
        deck("dense-cg", "", many / 2),
        deck(
            "dense-colloc-lu",
            "formulation collocation\nsolver lu\n",
            many,
        ),
    ]
}

/// The soil of `deck` in `round`: round 0 is the published model (the
/// paper-tolerance and serial-reference checks run on it); later rounds
/// jitter every parameter so each round is a distinct, cold problem.
pub fn cold_soil(seed: u64, deck_index: usize, round: usize, deck: &ColdDeck) -> Soil {
    if round == 0 {
        return deck.soil;
    }
    let mut rng = Rng::stream(seed, &[TAG_COLD_SOIL, deck_index as u64, round as u64]);
    deck.soil.jittered(&mut rng, SOIL_JITTER)
}

/// Renders one cold deck. `geometry` is the grid's `conductor` lines.
pub fn render_cold_deck(
    deck: &ColdDeck,
    geometry: &str,
    soil: Soil,
    round: usize,
    scale: Scale,
) -> String {
    let mut s = format!("title {} round {round}\n", deck.name);
    s.push_str(&soil.line());
    s.push_str("gpr 10000\n");
    s.push_str(deck.stanzas);
    if deck.refined {
        s.push_str(&format!("max-element-length {}\n", scale.dense_length()));
    }
    s.push_str(geometry);
    s.push_str(&scenario_lines(deck.scenarios));
    if deck.sweep {
        // One fixed sweep seed: every round perturbs its own (jittered)
        // soil by the same factors, so the sampled κ's — the work, and
        // the slowest sample the deck waits for — do not move with the
        // round or the benchmark seed.
        s.push_str(&format!(
            "sweep soil-samples {} seed {SWEEP_SEED} sigma 0.1\n",
            scale.sweep_samples().0
        ));
    }
    s
}

/// A scenario as the wire protocol spells it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireScenario {
    pub fault_current: bool,
    pub value: f64,
}

impl WireScenario {
    fn json(self) -> Json {
        let kind = if self.fault_current {
            "fault-current"
        } else {
            "gpr"
        };
        Json::obj(vec![
            ("kind", Json::str(kind)),
            ("value", Json::Num(self.value)),
        ])
    }
}

fn seeded_scenarios(rng: &mut Rng, n: usize) -> Vec<WireScenario> {
    (0..n)
        .map(|_| {
            let fault_current = rng.unit() < 0.5;
            let value = if fault_current {
                (5_000.0 + 35_000.0 * rng.unit()).round()
            } else {
                (2_000.0 + 18_000.0 * rng.unit()).round()
            };
            WireScenario {
                fault_current,
                value,
            }
        })
        .collect()
}

pub fn solve_request(deck: &str, scenarios: Option<&[WireScenario]>, leakage: bool) -> Json {
    let mut pairs = vec![("op", Json::str("solve")), ("deck", Json::str(deck))];
    if let Some(list) = scenarios {
        pairs.push((
            "scenarios",
            Json::Arr(list.iter().map(|s| s.json()).collect()),
        ));
    }
    if leakage {
        pairs.push(("include_leakage", Json::Bool(true)));
    }
    Json::obj(pairs)
}

pub fn op_request(op: &str) -> Json {
    Json::obj(vec![("op", Json::str(op))])
}

/// Request classes of the warm workload, in ascending expected cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmClass {
    /// `ping` / `stats`.
    Control,
    /// `solve`, native Barberá/Balaidos uniform, 1–4 scenarios.
    Small,
    /// `solve`, refined Barberá Cholesky, 8 scenarios.
    Large8,
    /// `sweep` replay, native Balaidos, all samples resident.
    Sweep,
    /// `large8` with `include_leakage`.
    Leak,
}

impl WarmClass {
    /// The classes the traced pass measures one by one.
    pub const TRACED: [WarmClass; 4] = [
        WarmClass::Small,
        WarmClass::Sweep,
        WarmClass::Large8,
        WarmClass::Leak,
    ];

    pub fn label(self) -> &'static str {
        match self {
            WarmClass::Control => "control",
            WarmClass::Small => "small",
            WarmClass::Large8 => "large8",
            WarmClass::Sweep => "sweep",
            WarmClass::Leak => "leak",
        }
    }
}

/// What a warm reply must be checked against once the timing is over.
#[derive(Clone, Debug, PartialEq)]
pub enum WarmOracle {
    /// `ping` / `stats`: `ok:true` is the whole contract.
    None,
    /// Direct `Study::solve_batch` of `decks[deck]` for `scenarios`.
    Solve {
        deck: usize,
        scenarios: Vec<WireScenario>,
        leakage: bool,
    },
    /// `run_pipeline` on `sweep_deck` (the same deck with a `sweep`
    /// stanza carrying the request's samples/seed/sigma).
    Sweep { sweep_deck: String },
}

/// One distinct request of the warm script.
#[derive(Clone, Debug)]
pub struct WarmVariant {
    pub class: WarmClass,
    pub request: Json,
    pub oracle: WarmOracle,
}

/// The warm workload's inputs: three resident decks, the finite set of
/// request variants, and the rule picking request `i` of connection `c`.
#[derive(Clone, Debug)]
pub struct WarmScript {
    seed: u64,
    /// `[native Barberá, native Balaidos, refined Barberá Cholesky]`.
    pub decks: Vec<String>,
    pub variants: Vec<WarmVariant>,
    /// Sample count of the sweep variant (its expected `cache_hits`).
    pub sweep_samples: usize,
}

/// Class shares of the warm mix. The median request falls well inside
/// `small` (55 % of requests are `small` or cheaper) and the tail inside
/// the two heavy classes.
const WARM_SHARES: [(WarmClass, f64); 5] = [
    (WarmClass::Small, 0.50),
    (WarmClass::Sweep, 0.10),
    (WarmClass::Large8, 0.25),
    (WarmClass::Leak, 0.10),
    (WarmClass::Control, 0.05),
];

impl WarmScript {
    pub fn new(seed: u64, scale: Scale) -> WarmScript {
        let serve_soil = |index: u64, soil: Soil| {
            soil.jittered(
                &mut Rng::stream(seed, &[TAG_SERVE_SOIL, index]),
                SOIL_JITTER,
            )
        };
        let deck = |title: &str, soil: Soil, extra: &str, wires: &[Wire]| {
            format!(
                "title {title}\n{}gpr 10000\n{extra}{}",
                soil.line(),
                wire_lines(wires)
            )
        };
        let barbera = Grid::Barbera.wires(scale);
        let balaidos = Grid::Balaidos.wires(scale);
        let balaidos_soil = serve_soil(1, Soil::Uniform(0.020));
        let decks = vec![
            deck(
                "warm-barbera",
                serve_soil(0, Soil::Uniform(0.016)),
                "",
                &barbera,
            ),
            deck("warm-balaidos", balaidos_soil, "", &balaidos),
            deck(
                "warm-refined",
                serve_soil(2, Soil::Uniform(0.016)),
                &format!(
                    "solver cholesky\nmax-element-length {}\n",
                    scale.refined_length()
                ),
                &barbera,
            ),
        ];

        let mut rng = Rng::stream(seed, &[TAG_WARM_VARIANTS]);
        let mut variants = vec![
            WarmVariant {
                class: WarmClass::Control,
                request: op_request("ping"),
                oracle: WarmOracle::None,
            },
            WarmVariant {
                class: WarmClass::Control,
                request: op_request("stats"),
                oracle: WarmOracle::None,
            },
        ];
        let mut solve_variant = |class, deck: usize, scenarios: Vec<WireScenario>, leakage| {
            variants.push(WarmVariant {
                class,
                request: solve_request(&decks[deck], Some(&scenarios), leakage),
                oracle: WarmOracle::Solve {
                    deck,
                    scenarios,
                    leakage,
                },
            });
        };
        // Sixteen small variants: both decks × 1–4 scenarios × two seeded
        // lists. The seed draws the scenarios, not how many there are —
        // each one is a PCG run, so a seeded count would move the median
        // request's cost with the seed.
        for i in 0..16 {
            let n = 1 + (i / 2) % 4;
            solve_variant(
                WarmClass::Small,
                i % 2,
                seeded_scenarios(&mut rng, n),
                false,
            );
        }
        let (_, large) = scale.many_scenarios();
        for _ in 0..4 {
            solve_variant(
                WarmClass::Large8,
                2,
                seeded_scenarios(&mut rng, large),
                false,
            );
        }
        for _ in 0..4 {
            solve_variant(WarmClass::Leak, 2, seeded_scenarios(&mut rng, large), true);
        }
        let (_, sweep_samples) = scale.sweep_samples();
        variants.push(WarmVariant {
            class: WarmClass::Sweep,
            request: Json::obj(vec![
                ("op", Json::str("sweep")),
                ("deck", Json::str(decks[1].as_str())),
                ("samples", Json::Num(sweep_samples as f64)),
                ("seed", Json::Num(SWEEP_SEED as f64)),
                ("sigma", Json::Num(0.1)),
            ]),
            oracle: WarmOracle::Sweep {
                sweep_deck: format!(
                    "{}sweep soil-samples {sweep_samples} seed {SWEEP_SEED} sigma 0.1\n",
                    decks[1]
                ),
            },
        });
        WarmScript {
            seed,
            decks,
            variants,
            sweep_samples,
        }
    }

    /// The requests that make every variant a cache hit: one `solve` per
    /// deck, then the sweep (which prepares its sampled soils).
    pub fn priming(&self) -> Vec<Json> {
        let mut requests: Vec<Json> = self
            .decks
            .iter()
            .map(|d| solve_request(d, None, false))
            .collect();
        requests.extend(
            self.variants
                .iter()
                .filter(|v| v.class == WarmClass::Sweep)
                .map(|v| v.request.clone()),
        );
        requests
    }

    /// Indices of the variants of `class`.
    pub fn of_class(&self, class: WarmClass) -> Vec<usize> {
        (0..self.variants.len())
            .filter(|&i| self.variants[i].class == class)
            .collect()
    }

    /// The variant sent as request `i` of connection `conn`.
    pub fn pick(&self, conn: usize, i: usize) -> usize {
        let mut rng = Rng::stream(self.seed, &[TAG_WARM_PICK, conn as u64, i as u64]);
        let mut u = rng.unit();
        let mut class = WarmClass::Control;
        for (c, share) in WARM_SHARES {
            class = c;
            if u < share {
                break;
            }
            u -= share;
        }
        let of_class = self.of_class(class);
        of_class[rng.below(of_class.len())]
    }
}

/// What one request of an edit session is, for routing its latency and
/// checking its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditStep {
    /// `edit` with a deck: opens the session (a full prepare).
    Open,
    /// A `move-end` of a rod's free end: the incremental route.
    Move,
    /// `add` a rod: topology change, rebuild.
    Add,
    /// `remove` the added rod: rebuild.
    Remove,
    /// The final `move-end` with `publish:true`.
    Publish,
    /// Plain `solve` of the equivalent deck: must hit `published_key`.
    Solve,
}

/// One edit session, fully scripted: the requests in order and the deck
/// a from-scratch client would write for the final geometry.
#[derive(Clone, Debug)]
pub struct EditScript {
    pub steps: Vec<(EditStep, Json)>,
    pub open_deck: String,
    pub equivalent_deck: String,
}

/// Free-end offsets stay inside this box around the rod's rest position,
/// so a 1.5 m rod stays one element (length within 1.2–1.95 m, under the
/// 4 m cap) and every move stays a pure geometry edit.
const MOVE_BOX: [(f64, f64); 3] = [(-0.3, 0.3), (-0.3, 0.3), (-0.3, 0.4)];

impl EditScript {
    /// Session `session` of connection `conn`: refined Barberá plus two
    /// rods at seeded grid nodes.
    pub fn new(seed: u64, conn: usize, session: usize, scale: Scale) -> EditScript {
        let mut rng = Rng::stream(seed, &[TAG_EDIT, conn as u64, session as u64]);
        let base = Grid::Barbera.wires(scale);
        let soil = Soil::Uniform(0.016).jittered(&mut rng, SOIL_JITTER);
        let header = format!(
            "title edit c{conn} s{session}\n{}gpr 10000\nsolver cholesky\n\
             max-element-length {}\nscenario gpr 10000\nscenario fault-current 25000\n",
            soil.line(),
            scale.dense_length()
        );

        // Grid nodes: the distinct conductor endpoints in first-seen order
        // (distinct up to the mesher's merge tolerance — the grid carries
        // the same node under two roundings). Each rod's node is drawn
        // from its own window of neighbours in that order, the windows
        // side by side around the middle of the list: the seed still
        // moves every rod, but every rod's row in the factor — and with it
        // the cost of the rank-k sweeps its moves trigger, which grows
        // with the square of the rows below it — stays within a few
        // percent across rods, sessions and seeds. Drawn from the whole
        // grid, a rod near the top of the factor costs several times one
        // near the bottom, and the median move flips between the two.
        let mut nodes: Vec<(f64, f64)> = Vec::new();
        for w in &base {
            for p in [(w[0], w[1]), (w[3], w[4])] {
                let seen = |q: &(f64, f64)| (q.0 - p.0).abs() < 1e-6 && (q.1 - p.1).abs() < 1e-6;
                if !nodes.iter().any(seen) {
                    nodes.push(p);
                }
            }
        }
        let pick_node = |rod: usize, rng: &mut Rng| {
            let window = 4.min(nodes.len() / 3);
            nodes[nodes.len() / 2 + rod * window - 3 * window / 2 + rng.below(window)]
        };
        let mut rods: Vec<Wire> = (0..2)
            .map(|rod| {
                let (x, y) = pick_node(rod, &mut rng);
                rod_wire(x, y)
            })
            .collect();
        let first_rod = base.len();
        let deck_of = |rods: &[Wire]| format!("{header}{}{}", wire_lines(&base), wire_lines(rods));
        let open_deck = deck_of(&rods);

        // A seeded move of rod `r`'s free end `b` to a fresh offset inside
        // the box; the tracked endpoint advances by the very additions the
        // server performs, so the equivalent deck lands on the same bits.
        let move_request = |rods: &mut Vec<Wire>, rest: &[[f64; 3]], r: usize, rng: &mut Rng| {
            let mut delta = [0.0; 3];
            for (axis, (lo, hi)) in MOVE_BOX.iter().enumerate() {
                let target = rest[r][axis] + lo + (hi - lo) * rng.unit();
                // Centimetre grid: short request text, still a real move.
                delta[axis] = ((target - rods[r][3 + axis]) * 100.0).round() / 100.0;
            }
            if delta == [0.0; 3] {
                // Never a no-op: every scripted move must take the
                // incremental route.
                delta[2] = if rods[r][5] > rest[r][2] { -0.01 } else { 0.01 };
            }
            for axis in 0..3 {
                rods[r][3 + axis] += delta[axis];
            }
            Json::obj(vec![
                ("kind", Json::str("move-end")),
                ("index", Json::Num((first_rod + r) as f64)),
                ("end", Json::str("b")),
                (
                    "delta",
                    Json::Arr(delta.iter().map(|d| Json::Num(*d)).collect()),
                ),
            ])
        };
        let edit = |ops: Vec<Json>, publish: bool| {
            let mut pairs = vec![("op", Json::str("edit")), ("edits", Json::Arr(ops))];
            if publish {
                pairs.push(("publish", Json::Bool(true)));
            }
            Json::obj(pairs)
        };

        let mut rest: Vec<[f64; 3]> = rods.iter().map(|rod| [rod[3], rod[4], rod[5]]).collect();
        let mut steps = vec![(
            EditStep::Open,
            Json::obj(vec![
                ("op", Json::str("edit")),
                ("deck", Json::str(open_deck.as_str())),
            ]),
        )];
        let (moves, moves_on_added) = scale.edit_moves();
        for _ in 0..moves {
            let r = rng.below(2);
            let op = move_request(&mut rods, &rest, r, &mut rng);
            steps.push((EditStep::Move, edit(vec![op], false)));
        }
        let (x, y) = pick_node(2, &mut rng);
        let added = rod_wire(x, y);
        rods.push(added);
        rest.push([added[3], added[4], added[5]]);
        steps.push((
            EditStep::Add,
            edit(
                vec![Json::obj(vec![
                    ("kind", Json::str("add")),
                    (
                        "conductor",
                        Json::Arr(added.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ])],
                false,
            ),
        ));
        for _ in 0..moves_on_added {
            let op = move_request(&mut rods, &rest, 2, &mut rng);
            steps.push((EditStep::Move, edit(vec![op], false)));
        }
        rods.pop();
        steps.push((
            EditStep::Remove,
            edit(
                vec![Json::obj(vec![
                    ("kind", Json::str("remove")),
                    ("index", Json::Num((first_rod + 2) as f64)),
                ])],
                false,
            ),
        ));
        let r = rng.below(2);
        let op = move_request(&mut rods, &rest, r, &mut rng);
        steps.push((EditStep::Publish, edit(vec![op], true)));
        let equivalent_deck = deck_of(&rods);
        steps.push((
            EditStep::Solve,
            solve_request(&equivalent_deck, None, false),
        ));
        EditScript {
            steps,
            open_deck,
            equivalent_deck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layerbem_cad::input::parse_case;
    use layerbem_geometry::Mesher;

    const FULL: Scale = Scale { smoke: false };
    const SMOKE: Scale = Scale { smoke: true };

    fn render(deck: &ColdDeck, seed: u64, round: usize) -> String {
        let geometry = wire_lines(&deck.grid.wires(FULL));
        render_cold_deck(
            deck,
            &geometry,
            cold_soil(seed, 0, round, deck),
            round,
            FULL,
        )
    }

    #[test]
    fn generated_decks_parse_back_to_the_papers_discretizations() {
        let layered = cold_layered();
        let barbera = parse_case(&render(&layered[0], 1, 0)).expect("barbera deck");
        let mesh = Mesher::new(barbera.mesh_options).mesh(&barbera.network);
        assert_eq!((mesh.element_count(), mesh.dof()), (408, 238));
        let balaidos = parse_case(&render(&layered[1], 1, 0)).expect("balaidos deck");
        let mesh = Mesher::new(balaidos.mesh_options).mesh(&balaidos.network);
        assert_eq!(mesh.element_count(), 241);
    }

    #[test]
    fn rendered_wires_round_trip_bit_exactly() {
        let wires = Grid::Barbera.wires(FULL);
        let case = parse_case(&format!("soil uniform 0.016\n{}", wire_lines(&wires))).unwrap();
        assert_eq!(network_wires(&case.network), wires);
    }

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        let deck = &cold_layered()[1];
        assert_eq!(render(deck, 7, 3), render(deck, 7, 3));
        assert_ne!(render(deck, 7, 3), render(deck, 8, 3));
        assert_ne!(render(deck, 7, 3), render(deck, 7, 4));
        let lines = |s: &WarmScript| -> Vec<String> {
            s.variants.iter().map(|v| v.request.to_line()).collect()
        };
        let (a, b) = (WarmScript::new(7, SMOKE), WarmScript::new(7, SMOKE));
        assert_eq!(lines(&a), lines(&b));
        assert_eq!(
            (0..200).map(|i| a.pick(1, i)).collect::<Vec<_>>(),
            (0..200).map(|i| b.pick(1, i)).collect::<Vec<_>>()
        );
        assert_ne!(lines(&a), lines(&WarmScript::new(8, SMOKE)));
        let edit = |seed| {
            EditScript::new(seed, 0, 1, SMOKE)
                .steps
                .iter()
                .map(|(_, r)| r.to_line())
                .collect::<Vec<_>>()
        };
        assert_eq!(edit(7), edit(7));
        assert_ne!(edit(7), edit(8));
    }

    #[test]
    fn round_zero_is_the_published_soil_and_jitter_stays_within_two_percent() {
        let deck = &cold_layered()[0];
        assert_eq!(cold_soil(5, 0, 0, deck), deck.soil);
        for round in 1..50 {
            let (Soil::TwoLayer(a, b, h), Soil::TwoLayer(a0, b0, h0)) =
                (cold_soil(5, 0, round, deck), deck.soil)
            else {
                panic!("two-layer deck");
            };
            for (v, v0) in [(a, a0), (b, b0), (h, h0)] {
                assert!((v / v0 - 1.0).abs() <= SOIL_JITTER && v != v0);
            }
            // One factor for both conductivities: κ is untouched.
            assert!((a / b - a0 / b0).abs() < 1e-15);
        }
    }

    #[test]
    fn warm_mix_honours_the_class_shares() {
        let script = WarmScript::new(3, SMOKE);
        let n = 20_000;
        let mut counts = [0usize; 5];
        for i in 0..n {
            let class = script.variants[script.pick(0, i)].class;
            let slot = WARM_SHARES.iter().position(|(c, _)| *c == class).unwrap();
            counts[slot] += 1;
        }
        for (count, (class, share)) in counts.iter().zip(WARM_SHARES) {
            let got = *count as f64 / n as f64;
            assert!((got - share).abs() < 0.015, "{class:?}: {got} vs {share}");
        }
    }

    #[test]
    fn edit_moves_keep_every_rod_at_one_element() {
        // Seed 302 once put both rods on one node that the grid spells
        // with two roundings.
        for (seed, session) in [(11, 0), (11, 1), (11, 2), (302, 0), (302, 1), (5, 0)] {
            let script = EditScript::new(seed, session % 2, session, FULL);
            let case = parse_case(&script.equivalent_deck).expect("equivalent deck");
            let open = parse_case(&script.open_deck).expect("open deck");
            assert_eq!(case.network.len(), open.network.len());
            let dof = |c: &layerbem_cad::input::CadCase| {
                Mesher::new(c.mesh_options).mesh(&c.network).dof()
            };
            assert_eq!(dof(&case), dof(&open), "moves must not change topology");
            assert_eq!(dof(&open), 630);
        }
    }
}
