//! Random edit sequences replayed against from-scratch prepares.
//!
//! An [`EditSession`] advances one [`EditOp`] at a time through three
//! routes: rank-2m factor sweeps (`incremental`), a refactorization of
//! the retained operator (`refactor`) and a full re-assembly
//! (`rebuild`). This suite replays random sequences of 10–30 moves,
//! endpoint moves, additions and removals on a small grid, for the
//! Cholesky and PCG engines at 1 and 2 threads, and checks after every
//! op:
//!
//! - accepted: `Req` and the leakage within 1e-8 (relative) of a fresh
//!   prepare of `session.network()`;
//! - refused: the answer is bit-identical to the last successful
//!   network's — the pre-op answer for a refusal before the engine is
//!   touched, a fresh prepare's for one past it.
//!
//! Over the run every route must occur, so the refactor route — the one
//! blocked factorization, inline or pooled — stays covered.

use std::sync::atomic::{AtomicUsize, Ordering};

use layerbem_core::{
    ConductorEnd, EditError, EditOp, EditPath, EditSession, GroundingSolution, GroundingSystem,
    Scenario, SolveOptions, SolverChoice,
};
use layerbem_geometry::conductor::ground_rod;
use layerbem_geometry::{grids, Conductor, ConductorNetwork, MeshOptions, Mesher, Point3};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;
use proptest::prelude::*;

/// A 2×2-cell grid with two short corner rods and a long centre rod:
/// moving the long rod's free end touches more rows than the rank-update
/// route accepts, so it refactorizes.
fn network() -> ConductorNetwork {
    let mut net = grids::rectangular_grid(grids::RectGridSpec {
        origin: (0.0, 0.0),
        width: 12.0,
        height: 12.0,
        nx: 2,
        ny: 2,
        depth: 0.6,
        radius: 0.007,
    });
    net.add(ground_rod(Point3::new(0.0, 0.0, 0.6), 1.5, 0.007));
    net.add(ground_rod(Point3::new(12.0, 12.0, 0.6), 1.5, 0.007));
    net.add(ground_rod(Point3::new(6.0, 6.0, 0.6), 14.0, 0.007));
    net
}

fn mesh_opts() -> MeshOptions {
    MeshOptions {
        max_element_length: 3.1,
    }
}

fn soil() -> SoilModel {
    SoilModel::uniform(0.016)
}

const SCENARIO: Scenario = Scenario::Gpr { volts: 10_000.0 };

/// Accepted ops per route over the whole run: incremental, refactor,
/// rebuild.
static ROUTES: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

/// One random op, resolved against the network it is applied to.
#[derive(Clone, Copy, Debug)]
struct Draw {
    kind: usize,
    pick: usize,
    delta: [f64; 3],
    length: f64,
}

fn draws() -> impl Strategy<Value = Vec<Draw>> {
    prop::collection::vec(
        (
            0usize..6,
            0usize..64,
            -0.4f64..0.4,
            -0.4f64..0.4,
            -0.3f64..0.6,
            0.5f64..3.0,
        )
            .prop_map(|(kind, pick, dx, dy, dz, length)| Draw {
                kind,
                pick,
                delta: [dx, dy, dz],
                length,
            }),
        10..31,
    )
}

impl Draw {
    fn op(&self, net: &ConductorNetwork) -> EditOp {
        let list = net.conductors();
        let index = self.pick % list.len();
        let end = ConductorEnd::B;
        match self.kind {
            // A rod's free end keeps the topology (incremental); a bar's
            // end leaves its junction (rebuild).
            0 => EditOp::MoveEnd {
                index,
                end,
                delta: self.delta,
            },
            // The longest conductor's free end — the long rod's, while it
            // lasts: the refactor route.
            1 => EditOp::MoveEnd {
                index: longest(list),
                end,
                delta: self.delta,
            },
            // A rigid move detaches a conductor from its junctions:
            // refused as disconnected.
            2 => EditOp::Move {
                index,
                delta: self.delta,
            },
            // A rod hung from an existing endpoint: rebuild.
            3 => EditOp::Add {
                conductor: ground_rod(list[index].axis.a, self.length, 0.007),
            },
            // Sometimes out of range or disconnecting: refused; otherwise
            // a rebuild.
            4 => EditOp::Remove {
                index: self.pick % (list.len() + 1),
            },
            // Folds a conductor onto its own start, shorter than the
            // mesher's merge distance: refused.
            _ => {
                let (a, b) = (list[index].axis.a, list[index].axis.b);
                EditOp::MoveEnd {
                    index,
                    end,
                    delta: [a.x - b.x, a.y - b.y, a.z - b.z],
                }
            }
        }
    }
}

fn longest(list: &[Conductor]) -> usize {
    (0..list.len())
        .max_by(|&i, &j| list[i].length().total_cmp(&list[j].length()))
        .expect("a session never holds an empty network")
}

fn answer(session: &EditSession) -> GroundingSolution {
    session.study().solve(&SCENARIO).expect("solve")
}

fn fresh(net: &ConductorNetwork, opts: SolveOptions) -> GroundingSolution {
    let mesh = Mesher::new(mesh_opts()).mesh(net);
    GroundingSystem::new(mesh, &soil(), opts)
        .prepare()
        .expect("prepare")
        .solve(&SCENARIO)
        .expect("solve")
}

fn bits(s: &GroundingSolution) -> Vec<u64> {
    let mut v: Vec<u64> = s.leakage.iter().map(|q| q.to_bits()).collect();
    v.extend([s.equivalent_resistance, s.total_current].map(f64::to_bits));
    v
}

/// Replays one sequence under `opts`, checking every op's answer.
fn replay(draws: &[Draw], opts: SolveOptions) {
    let mut session = EditSession::open(network(), &soil(), mesh_opts(), opts).expect("open");
    let mut before = answer(&session);
    for (step, draw) in draws.iter().enumerate() {
        let op = draw.op(session.network());
        let what = format!("{opts:?} step {step}: {op:?}");
        match session.apply(&op) {
            Ok(report) => {
                let route = match report.path {
                    EditPath::Incremental => 0,
                    EditPath::Refactor => 1,
                    EditPath::Rebuild => 2,
                    EditPath::Noop => 3,
                };
                if let Some(count) = ROUTES.get(route) {
                    count.fetch_add(1, Ordering::Relaxed);
                }
                let after = answer(&session);
                let want = fresh(session.network(), opts);
                let rel = (after.equivalent_resistance - want.equivalent_resistance).abs()
                    / want.equivalent_resistance;
                assert!(rel <= 1e-8, "{what}: Req rel {rel:.3e}");
                let scale = want.leakage.iter().fold(0.0f64, |m, q| m.max(q.abs()));
                let drift = after
                    .leakage
                    .iter()
                    .zip(&want.leakage)
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    drift <= 1e-8 * scale,
                    "{what}: leakage rel {:.3e}",
                    drift / scale
                );
                before = after;
            }
            Err(e) => {
                let want = match e {
                    EditError::Prepare(_) => fresh(session.network(), opts),
                    _ => before.clone(),
                };
                assert_eq!(bits(&answer(&session)), bits(&want), "{what} refused: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    fn sequences_agree_with_fresh_prepares(draws in draws()) {
        for solver in [SolverChoice::Cholesky, SolverChoice::ConjugateGradient] {
            let serial = SolveOptions {
                solver,
                ..Default::default()
            };
            replay(&draws, serial);
            replay(&draws, serial.with_parallelism(ThreadPool::new(2), Schedule::dynamic(1)));
        }
    }
}

#[test]
fn random_edit_sequences_agree_with_fresh_prepares() {
    sequences_agree_with_fresh_prepares();
    let [incremental, refactor, rebuild] = ROUTES.each_ref().map(|c| c.load(Ordering::Relaxed));
    assert!(
        incremental > 0 && refactor > 0 && rebuild > 0,
        "every route must occur: {incremental} incremental, {refactor} refactor, \
         {rebuild} rebuild"
    );
}
