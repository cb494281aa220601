//! Specification of the tiled surface-potential evaluator
//! (`post::surface_potentials`): what a tile holds depends on the point
//! list alone, so the same list gives the same bits under every schedule
//! × thread count — the one-thread inline path included — for every tile
//! shape (one point, one short of a tile, exactly a tile, one over,
//! arbitrary remainders); and the tiled lane-kernel sum agrees with the
//! scalar point-at-a-time oracle on the paper's layered decks.

use proptest::prelude::*;

use layerbem_core::assembly::element_geoms;
use layerbem_core::kernel::SoilKernel;
use layerbem_core::post::{surface_potentials, TILE};
use layerbem_geometry::conductor::ground_rod;
use layerbem_geometry::grids::{self, rectangular_grid, RectGridSpec};
use layerbem_geometry::{ConductorNetwork, Mesh, Mesher, Point3};
use layerbem_parfor::{Schedule, ThreadPool};
use layerbem_soil::SoilModel;

/// A positive, element-to-element varying stand-in for a unit leakage:
/// eq. 4.2 is linear in `q`, so any vector exercises the sum.
fn leakage(mesh: &Mesh) -> Vec<f64> {
    (0..mesh.dof())
        .map(|i| 1.0 + 0.3 * (i as f64).sin())
        .collect()
}

/// `n` surface points scattered over (and beyond) a `w × w` yard.
fn surface_points(n: usize, w: f64, seed: u64) -> Vec<Point3> {
    (0..n)
        .map(|i| {
            let t = (seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 40503) % 1000) as f64
                / 1000.0;
            let u = (i as f64 + 0.5) / n as f64;
            Point3::new(w * (1.4 * t - 0.2), w * (1.4 * u - 0.2), 0.0)
        })
        .collect()
}

/// A one-bay yard with a rod through the 1 m interface: horizontal bars
/// in the upper layer, one rod element crossing, one below.
fn yard() -> ConductorNetwork {
    let mut net = rectangular_grid(RectGridSpec {
        origin: (0.0, 0.0),
        width: 10.0,
        height: 10.0,
        nx: 1,
        ny: 1,
        depth: 0.8,
        radius: 0.006,
    });
    net.add(ground_rod(Point3::new(10.0, 10.0, 0.8), 1.5, 0.007));
    net
}

proptest! {
    // Each case runs the evaluator 21 times, unoptimized.
    #![proptest_config(ProptestConfig { cases: 10, ..Default::default() })]

    #[test]
    fn same_point_list_gives_the_same_bits(
        shape in 0usize..6,
        extra in 2usize..(2 * TILE + 9),
        layered in 0usize..2,
        g1 in 0.003f64..0.02,
        g2 in 0.01f64..0.05,
        seed in 0u64..1000,
    ) {
        let n = match shape {
            0 => 1,
            1 => TILE - 1,
            2 => TILE,
            3 => TILE + 1,
            _ => extra,
        };
        let soil = if layered == 1 {
            SoilModel::two_layer(g1, g2, 1.0)
        } else {
            SoilModel::uniform(g2)
        };
        let mesh = Mesher::default().mesh(&yard());
        let kernel = SoilKernel::new(&soil);
        let q = leakage(&mesh);
        let points = surface_points(n, 10.0, seed);
        let (inline, inline_cost) = surface_potentials(
            &points,
            &mesh,
            &kernel,
            &q,
            &ThreadPool::new(1),
            Schedule::static_blocked(),
        );
        prop_assert_eq!(inline.len(), n);
        prop_assert!(inline.iter().all(|v| v.is_finite() && *v > 0.0));
        for threads in 1usize..=4 {
            for schedule in [
                Schedule::static_blocked(),
                Schedule::static_chunk(2),
                Schedule::dynamic(1),
                Schedule::dynamic(3),
                Schedule::guided(1),
            ] {
                let (pooled, cost) = surface_potentials(
                    &points,
                    &mesh,
                    &kernel,
                    &q,
                    &ThreadPool::new(threads),
                    schedule,
                );
                for (k, (a, b)) in inline.iter().zip(&pooled).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={} threads={} {} point {}", n, threads, schedule.label(), k
                    );
                }
                prop_assert_eq!(inline_cost, cost);
            }
        }
    }
}

/// Worst relative deviation of the tiled evaluator from the scalar
/// per-point, per-element oracle sum over a `7 × 6` surface lattice.
fn worst_deviation_from_scalar(net: &ConductorNetwork, soil: &SoilModel, window: f64) -> f64 {
    let mesh = Mesher::default().mesh(net);
    let kernel = SoilKernel::new(soil);
    let q = leakage(&mesh);
    let points: Vec<Point3> = (0..42)
        .map(|k| {
            let (i, j) = (k % 7, k / 7);
            Point3::new(
                window * (i as f64 / 6.0 * 1.3 - 0.15),
                window * (j as f64 / 5.0 * 1.3 - 0.15),
                0.0,
            )
        })
        .collect();
    let (tiled, cost) = surface_potentials(
        &points,
        &mesh,
        &kernel,
        &q,
        &ThreadPool::new(2),
        Schedule::dynamic(1),
    );
    assert!(cost.terms > 0 && cost.lane_slots >= cost.lane_points);
    let geoms = element_geoms(&mesh);
    points
        .iter()
        .zip(&tiled)
        .map(|(&p, got)| {
            let mut want = 0.0;
            for (g, element) in geoms.iter().zip(&mesh.elements) {
                let (vi, _) = kernel.element_potential(p, g);
                let [n0, n1] = element.nodes;
                want += q[n0] * vi[0] + q[n1] * vi[1];
            }
            ((got - want) / want).abs()
        })
        .fold(0.0f64, f64::max)
}

#[test]
fn tiled_sum_matches_the_scalar_oracle_on_barbera_two_layer() {
    let worst = worst_deviation_from_scalar(
        &grids::barbera(),
        &SoilModel::two_layer(0.005, 0.016, 1.0),
        120.0,
    );
    assert!(worst <= 1e-8, "worst relative deviation {worst:.3e}");
}

#[test]
fn tiled_sum_matches_the_scalar_oracle_on_balaidos_c() {
    // Model C: the 1.5 m rods start at 0.8 m and cross the 1 m
    // interface, so their lower parts reach the surface through the
    // folded `LowerUpper` family.
    let worst = worst_deviation_from_scalar(
        &grids::balaidos(),
        &SoilModel::two_layer(0.0025, 0.020, 1.0),
        80.0,
    );
    assert!(worst <= 1e-8, "worst relative deviation {worst:.3e}");
}
