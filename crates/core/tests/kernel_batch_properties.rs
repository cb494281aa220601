//! Property-based specification of the batched structure-of-arrays
//! kernel path: for random soils × element geometries × point counts
//! (including every remainder-lane shape), the batched evaluation agrees
//! with the scalar point-at-a-time oracle to the series tolerance, is
//! bitwise invariant under push-order permutation, and — for
//! exhaustion-terminated series — bitwise invariant under batch
//! composition. At the assembly level, every pair block of the lane
//! kernel matches the scalar oracle's (`pair_block_scalar`) within the
//! series tolerance, and so does the assembled Galerkin operator. For
//! batches lying wholly on the earth surface the kernel folds every image
//! with its mirror: the folded groups integrate to the full groups, and
//! the fold is taken exactly when every point has `z == 0.0`.

use proptest::prelude::*;

use layerbem_core::assembly::{
    assemble_galerkin, element_geoms, pair_block, pair_block_scalar, scatter_pair, OuterQuadrature,
};
use layerbem_core::formulation::SolveOptions;
use layerbem_core::images::{Family, Image, ImageExpansion};
use layerbem_core::integration::{shape_integrals, ElementGeom};
use layerbem_core::kernel::{KernelBatch, SoilKernel};
use layerbem_geometry::grids::{rectangular_grid, RectGridSpec};
use layerbem_geometry::{Mesher, Point3};
use layerbem_numeric::series::SeriesOptions;
use layerbem_numeric::SymMatrix;
use layerbem_soil::{Layer, SoilModel};

/// A random soil model covering all three kernel families.
fn soil_from(kind: usize, g1: f64, g2: f64, h: f64) -> SoilModel {
    match kind % 3 {
        0 => SoilModel::uniform(g1),
        1 => SoilModel::two_layer(1.0 / g1, 1.0 / g2, h),
        _ => SoilModel::multi_layer(vec![
            Layer {
                conductivity: g1,
                thickness: h,
            },
            Layer {
                conductivity: 0.5 * (g1 + g2),
                thickness: h,
            },
            Layer {
                conductivity: g2,
                thickness: f64::INFINITY,
            },
        ]),
    }
}

/// A random buried source rod (strictly below the surface).
fn rod_from(x: f64, y: f64, z: f64, dx: f64, dz: f64) -> ElementGeom {
    ElementGeom::new(
        Point3::new(x, y, 0.2 + z),
        Point3::new(x + dx, y + 0.3, 0.2 + z + dz),
        0.006,
    )
}

/// Field points below the surface, spread around (but off) the rod.
fn points_from(n: usize, seed: u64) -> Vec<Point3> {
    // Deterministic low-discrepancy scatter: enough variety to exercise
    // every lane, no RNG state to couple cases.
    (0..n)
        .map(|i| {
            let t = (seed.wrapping_mul(2654435761).wrapping_add(i as u64 * 40503) % 1000) as f64
                / 1000.0;
            let u = (i as f64 + 0.5) / n as f64;
            Point3::new(3.0 + 4.0 * t, -2.0 + 3.0 * u, 0.3 + 1.8 * (t + u) % 2.0)
        })
        .collect()
}

fn batch_of(points: &[Point3]) -> KernelBatch {
    let mut b = KernelBatch::new();
    for &p in points {
        b.push(p);
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..Default::default() })]

    /// The batched path matches the scalar oracle to the series tolerance
    /// for every point of every batch shape — `1..=11` points covers all
    /// four remainder-lane shapes (full chunks, and tails of 1, 2, 3).
    #[test]
    fn batched_matches_the_scalar_oracle(
        kind in 0usize..3,
        g1 in 0.005f64..0.1,
        g2 in 0.005f64..0.1,
        h in 0.5f64..3.0,
        x in -2.0f64..2.0,
        z in 0.0f64..2.0,
        dx in 1.0f64..4.0,
        dz in -0.1f64..0.1,
        npts in 1usize..12,
        seed in 0u64..1000,
    ) {
        let kernel = SoilKernel::new(&soil_from(kind, g1, g2, h));
        let src = rod_from(x, 0.0, z, dx, dz);
        let points = points_from(npts, seed);
        let mut batch = batch_of(&points);
        kernel.element_potential_batch(&mut batch, &src);
        for (p, got) in points.iter().zip(batch.values()) {
            let (want, _) = kernel.element_potential(*p, &src);
            for c in 0..2 {
                let scale = want[c].abs().max(1e-12);
                let rel = (got[c] - want[c]).abs() / scale;
                prop_assert!(
                    rel <= 1e-6,
                    "kind={} npts={} component {}: batched {} vs scalar {} (rel {:.3e})",
                    kind, npts, c, got[c], want[c], rel
                );
            }
        }
    }

    /// Reordering the pushed points permutes the values bitwise: each
    /// lane's Kahan stream is independent and the collective stop
    /// threshold (a max over lanes) is order-invariant.
    #[test]
    fn push_order_permutation_is_bitwise(
        kind in 0usize..3,
        g1 in 0.005f64..0.1,
        g2 in 0.005f64..0.1,
        h in 0.5f64..3.0,
        npts in 2usize..10,
        seed in 0u64..1000,
        rotate in 1usize..9,
    ) {
        let kernel = SoilKernel::new(&soil_from(kind, g1, g2, h));
        let src = rod_from(0.0, 0.0, 0.5, 2.0, 0.0);
        let points = points_from(npts, seed);
        let mut rotated = points.clone();
        rotated.rotate_left(rotate % npts);
        let mut a = batch_of(&points);
        let mut b = batch_of(&rotated);
        kernel.element_potential_batch(&mut a, &src);
        kernel.element_potential_batch(&mut b, &src);
        for (i, p) in points.iter().enumerate() {
            let j = rotated.iter().position(|q| q == p).expect("same points");
            for c in 0..2 {
                prop_assert_eq!(
                    a.values()[i][c].to_bits(),
                    b.values()[j][c].to_bits(),
                    "point {} component {}", i, c
                );
            }
        }
    }

    /// For the uniform soil the image list is exhausted rather than
    /// tolerance-stopped, so a point's value cannot depend on its batch
    /// companions at all: solo evaluation is bitwise identical to
    /// evaluation inside any larger batch (remainder-lane padding
    /// included).
    #[test]
    fn uniform_batches_are_composition_invariant(
        g1 in 0.005f64..0.1,
        x in -2.0f64..2.0,
        z in 0.0f64..2.0,
        dx in 1.0f64..4.0,
        npts in 1usize..12,
        seed in 0u64..1000,
    ) {
        let kernel = SoilKernel::new(&SoilModel::uniform(g1));
        let src = rod_from(x, 0.0, z, dx, 0.0);
        let points = points_from(npts, seed);
        let mut all = batch_of(&points);
        kernel.element_potential_batch(&mut all, &src);
        for (i, p) in points.iter().enumerate() {
            let mut solo = batch_of(std::slice::from_ref(p));
            kernel.element_potential_batch(&mut solo, &src);
            for c in 0..2 {
                prop_assert_eq!(
                    all.values()[i][c].to_bits(),
                    solo.values()[0][c].to_bits(),
                    "point {} component {}", i, c
                );
            }
        }
    }
}

proptest! {
    // Assembly sweeps are expensive; fewer, bigger cases.
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// Every pair block of the production lane kernel matches the
    /// point-at-a-time oracle within the series tolerance over the whole
    /// pair triangle, and the assembled operator matches the oracle's
    /// blocks scattered the same way, for random grids and soils.
    #[test]
    fn batched_assembly_matches_scalar_within_tolerance(
        kind in 0usize..3,
        g1 in 0.005f64..0.1,
        g2 in 0.005f64..0.1,
        h in 0.6f64..2.0,
        nx in 1usize..3,
    ) {
        // One grid bay tall: soil-kind variety is what matters here, and
        // an unoptimized layered-series assembly is expensive per pair.
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 10.0 * (nx as f64 + 1.0),
            height: 10.0,
            nx,
            ny: 1,
            depth: 0.8,
            radius: 0.006,
        });
        let mesh = Mesher::default().mesh(&net);
        let kernel = SoilKernel::new(&soil_from(kind, g1, g2, h));
        let geoms = element_geoms(&mesh);
        let quad = OuterQuadrature::default();
        let mut batch = KernelBatch::new();
        let mut oracle = SymMatrix::zeros(mesh.dof());
        let mut pairs = Vec::new();
        for beta in 0..geoms.len() {
            for alpha in beta..geoms.len() {
                let (want, _) = pair_block_scalar(&geoms[beta], &geoms[alpha], &kernel, &quad);
                let (got, _) = pair_block(&geoms[beta], &geoms[alpha], &kernel, &quad, &mut batch);
                let (nb, na) = (mesh.elements[beta].nodes, mesh.elements[alpha].nodes);
                scatter_pair(nb, na, alpha == beta, &want, &mut |p, q, v| oracle.add(p, q, v));
                pairs.push((beta, alpha, want, got));
            }
        }
        let norm = oracle.packed().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (beta, alpha, want, got) in &pairs {
            for j in 0..2 {
                for i in 0..2 {
                    let rel = (got[j][i] - want[j][i]).abs() / norm;
                    prop_assert!(
                        rel <= 1e-8,
                        "pair ({}, {}) entry [{}][{}]: {} vs {} (rel {:.3e})",
                        beta, alpha, j, i, got[j][i], want[j][i], rel
                    );
                }
            }
        }
        let batched = assemble_galerkin(&mesh, &kernel, &SolveOptions::default());
        for (i, (a, b)) in oracle.packed().iter().zip(batched.matrix.packed()).enumerate() {
            let rel = (a - b).abs() / norm;
            prop_assert!(rel <= 1e-8, "packed entry {}: {} vs {} (rel {:.3e})", i, a, b, rel);
        }
        prop_assert!(batched.cost.kernel.lane_slots > 0);
        prop_assert!(batched.cost.kernel.lane_points <= batched.cost.kernel.lane_slots);
    }
}

/// `Σ c · [∫N₀/R, ∫N₁/R]` of an image list over the segment `a → b`.
fn group_integral(images: &[Image], x: Point3, a: Point3, b: Point3) -> [f64; 2] {
    let len = a.distance(b);
    let mut out = [0.0f64; 2];
    for im in images {
        let ia = Point3::new(a.x, a.y, im.depth(a.z));
        let ib = Point3::new(b.x, b.y, im.depth(b.z));
        let v = shape_integrals(x, ia, ib, len);
        out[0] += im.coefficient * v[0];
        out[1] += im.coefficient * v[1];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// On `z = 0` an image and its mirror are equidistant from the field
    /// point all along the segment — horizontal or sloped — so the folded
    /// group (half the images, summed coefficients) integrates to the
    /// full group, both shape functions.
    #[test]
    fn folded_groups_integrate_to_the_full_groups_on_the_surface(
        family in 0usize..4,
        kappa in -0.9f64..0.9,
        h in 0.5f64..3.0,
        z in 0.3f64..2.5,
        dx in 1.0f64..4.0,
        dz in -0.25f64..1.5,
        px in -6.0f64..8.0,
        py in -6.0f64..6.0,
    ) {
        let family = [
            Family::UpperUpper,
            Family::UpperLower,
            Family::LowerUpper,
            Family::LowerLower,
        ][family];
        let exp = ImageExpansion { kappa, h, prefactor: 1.0 / 0.2, family };
        let (a, b) = (Point3::new(0.0, 0.0, z), Point3::new(dx, 0.3, z + dz));
        let x = Point3::new(px, py + 7.0, 0.0);
        let (mut full, mut folded) = (Vec::new(), Vec::new());
        for n in 0..6 {
            exp.group(n, &mut full);
            exp.surface_group(n, &mut folded);
            if matches!(family, Family::UpperUpper | Family::LowerUpper) {
                prop_assert_eq!(2 * folded.len(), full.len(), "{:?} group {}", family, n);
            }
            let want = group_integral(&full, x, a, b);
            let got = group_integral(&folded, x, a, b);
            for c in 0..2 {
                prop_assert!(
                    (got[c] - want[c]).abs() <= 1e-13 * want[c].abs(),
                    "{:?} group {} component {}: folded {} vs full {}",
                    family, n, c, got[c], want[c]
                );
            }
        }
    }

    /// The kernel reads the fold off the batch: all points at `z == 0.0`
    /// run half the images for the same values; the same points lifted by
    /// the smallest positive depth (geometrically indistinguishable, but
    /// not `== 0.0`), or joined by one buried point, take the full list.
    ///
    /// Three runs of each batch. Over a fixed 8 groups (a stop that never
    /// fires before the group cap) the fold does exactly half the terms.
    /// Over a fixed 2 groups the values are the plain partial sums (a
    /// two-sum ε table has only its sums column), and they agree to
    /// rounding. Under the production stop the two lists may stop a group
    /// apart — the stop reads estimates built from the groups' last bits,
    /// and an ε estimate before the stop amplifies those bits (up to
    /// 4e-10 relative at a forced 8 groups) — so they agree to the series
    /// tolerance: within `rel_tol` of the batch's largest value.
    #[test]
    fn only_all_surface_batches_fold(
        layered in 0usize..2,
        g1 in 0.005f64..0.1,
        g2 in 0.005f64..0.1,
        h in 0.5f64..3.0,
        z in 0.0f64..2.0,
        dx in 1.0f64..4.0,
        dz in -0.15f64..1.5,
        npts in 1usize..12,
        seed in 0u64..1000,
    ) {
        let soil = soil_from(layered, g1, g2, h);
        let src = rod_from(0.0, 0.0, z, dx, dz);
        let surface: Vec<Point3> = points_from(npts, seed)
            .into_iter()
            .map(|p| Point3::new(p.x, p.y, 0.0))
            .collect();
        let lifted: Vec<Point3> = surface
            .iter()
            .map(|p| Point3::new(p.x, p.y, f64::MIN_POSITIVE))
            .collect();
        let production = layerbem_soil::default_series_options();
        let fixed = |groups| SeriesOptions {
            max_terms: groups,
            consecutive: usize::MAX,
            ..production
        };
        let run = |kernel: &SoilKernel| {
            let mut folded = batch_of(&surface);
            let mut full = batch_of(&lifted);
            let folded_cost = kernel.element_potential_batch(&mut folded, &src);
            let full_cost = kernel.element_potential_batch(&mut full, &src);
            (folded, full, folded_cost.terms, full_cost.terms)
        };
        let (_, _, folded_terms, full_terms) = run(&SoilKernel::with_options(&soil, fixed(8)));
        prop_assert_eq!(2 * folded_terms, full_terms);
        let kernel = SoilKernel::with_options(&soil, fixed(2));
        let (folded, full, two_group_terms, full_terms) = run(&kernel);
        prop_assert_eq!(2 * two_group_terms, full_terms);
        for (got, want) in folded.values().iter().zip(full.values()) {
            for c in 0..2 {
                prop_assert!(
                    (got[c] - want[c]).abs() <= 1e-13 * want[c].abs(),
                    "component {}: folded {} vs full {}", c, got[c], want[c]
                );
            }
        }
        let (folded, full, _, _) = run(&SoilKernel::with_options(&soil, production));
        let scale = full.values().iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
        for (got, want) in folded.values().iter().zip(full.values()) {
            for c in 0..2 {
                prop_assert!(
                    (got[c] - want[c]).abs() <= production.rel_tol * scale,
                    "production stop, component {}: folded {} vs full {} (scale {})",
                    c, got[c], want[c], scale
                );
            }
        }
        if layered == 0 {
            // Uniform soil: one group, so the term count names the list —
            // two images per point once a single point leaves the surface.
            let mut mixed_points = surface.clone();
            mixed_points.push(Point3::new(1.0, 2.0, 0.4));
            let mut mixed = batch_of(&mixed_points);
            let mixed_cost = kernel.element_potential_batch(&mut mixed, &src);
            prop_assert_eq!(two_group_terms, npts as u64);
            prop_assert_eq!(mixed_cost.terms, 2 * (npts as u64 + 1));
        }
    }
}
