//! Parametric grounding-grid generators, including reconstructions of the
//! two substation grids evaluated in the paper.
//!
//! The paper's exact grid plans are published only as small figures
//! (Fig 5.1 and Fig 5.3), so the generators here are **parametric
//! reconstructions tuned to the published invariants**:
//!
//! * **Barberá** (§5.1): right-angled triangle 143 m × 89 m, 408 segments
//!   of ∅12.85 mm conductor at 0.80 m depth, 238 degrees of freedom,
//!   ≈6 600 m² protected area.
//! * **Balaidos** (§5.2): 107 cylindrical conductors (∅11.28 mm, 0.80 m
//!   deep) plus 67 vertical rods (1.5 m × ∅14 mm), discretized into 241
//!   elements.
//!
//! Matching these invariants preserves what matters for the reproduction:
//! system size, task-count of the parallel loop (one outer task per
//! element), conditioning, and the order of magnitude of the resistance
//! results.

use crate::conductor::{ground_rod, Conductor};
use crate::network::ConductorNetwork;
use crate::point::Point3;

/// Specification of a rectangular grid of conductors.
#[derive(Clone, Copy, Debug)]
pub struct RectGridSpec {
    /// Lower-left corner (x, y) on the horizontal plane.
    pub origin: (f64, f64),
    /// Extent along x (m).
    pub width: f64,
    /// Extent along y (m).
    pub height: f64,
    /// Number of cells along x.
    pub nx: usize,
    /// Number of cells along y.
    pub ny: usize,
    /// Burial depth (m).
    pub depth: f64,
    /// Conductor radius (m).
    pub radius: f64,
}

/// Generates a rectangular grid: `(nx+1)` lines along y and `(ny+1)` lines
/// along x, each split into per-cell segments so crossings become shared
/// element endpoints. Produces `(nx+1)·ny + (ny+1)·nx` conductors.
pub fn rectangular_grid(spec: RectGridSpec) -> ConductorNetwork {
    assert!(spec.nx > 0 && spec.ny > 0, "grid must have cells");
    let mut net = ConductorNetwork::new();
    let (x0, y0) = spec.origin;
    let dx = spec.width / spec.nx as f64;
    let dy = spec.height / spec.ny as f64;
    // Segments along x (horizontal in plan view).
    for j in 0..=spec.ny {
        let y = y0 + j as f64 * dy;
        for i in 0..spec.nx {
            let xa = x0 + i as f64 * dx;
            net.add(Conductor::new(
                Point3::new(xa, y, spec.depth),
                Point3::new(xa + dx, y, spec.depth),
                spec.radius,
            ));
        }
    }
    // Segments along y.
    for i in 0..=spec.nx {
        let x = x0 + i as f64 * dx;
        for j in 0..spec.ny {
            let ya = y0 + j as f64 * dy;
            net.add(Conductor::new(
                Point3::new(x, ya, spec.depth),
                Point3::new(x, ya + dy, spec.depth),
                spec.radius,
            ));
        }
    }
    net
}

/// Specification of a right-triangle grid (right angle at the origin,
/// legs along +x and +y, hypotenuse joining `(leg_x, 0)` and `(0, leg_y)`).
#[derive(Clone, Copy, Debug)]
pub struct TriangleGridSpec {
    /// Leg along x (m).
    pub leg_x: f64,
    /// Leg along y (m).
    pub leg_y: f64,
    /// Number of cells along x.
    pub nx: usize,
    /// Number of cells along y.
    pub ny: usize,
    /// Burial depth (m).
    pub depth: f64,
    /// Conductor radius (m).
    pub radius: f64,
    /// Shortest clipped stub worth keeping (m): fragments between the
    /// last full cell and the hypotenuse shorter than this are dropped.
    pub min_stub: f64,
    /// When `true`, a perimeter conductor chain follows the hypotenuse;
    /// when `false`, grid lines simply end at the fence line.
    pub hypotenuse_chain: bool,
}

/// Generates a grid clipped to a right triangle. Grid lines are cut at
/// the hypotenuse (partial cells keep their clipped segments when longer
/// than a metre), and the hypotenuse itself is a chain of conductors
/// between consecutive grid-line crossings — as in real triangular
/// substation plots, whose perimeter conductor follows the fence line.
pub fn triangle_grid(spec: TriangleGridSpec) -> ConductorNetwork {
    assert!(spec.nx > 0 && spec.ny > 0, "grid must have cells");
    let mut net = ConductorNetwork::new();
    let a = spec.leg_x;
    let b = spec.leg_y;
    let dx = a / spec.nx as f64;
    let dy = b / spec.ny as f64;
    let min_stub = spec.min_stub;
    // Inside test with tolerance for exact boundary points.
    let inside = |x: f64, y: f64| x / a + y / b <= 1.0 + 1e-9;
    // Hypotenuse point at a given x (same formula used everywhere so that
    // endpoint merging is exact).
    let hyp_y = |x: f64| b * (1.0 - x / a);
    let hyp_x = |y: f64| a * (1.0 - y / b);

    // Lines along x at heights y_j.
    for j in 0..=spec.ny {
        let y = j as f64 * dy;
        let x_max = hyp_x(y);
        let mut x = 0.0;
        while x + dx <= x_max + 1e-9 {
            net.add(Conductor::new(
                Point3::new(x, y, spec.depth),
                Point3::new((x + dx).min(x_max), y, spec.depth),
                spec.radius,
            ));
            x += dx;
        }
        if x_max - x > min_stub {
            net.add(Conductor::new(
                Point3::new(x, y, spec.depth),
                Point3::new(x_max, y, spec.depth),
                spec.radius,
            ));
        }
    }
    // Lines along y at stations x_i.
    for i in 0..=spec.nx {
        let x = i as f64 * dx;
        let y_max = hyp_y(x);
        let mut y = 0.0;
        while y + dy <= y_max + 1e-9 {
            net.add(Conductor::new(
                Point3::new(x, y, spec.depth),
                Point3::new(x, (y + dy).min(y_max), spec.depth),
                spec.radius,
            ));
            y += dy;
        }
        if y_max - y > min_stub {
            net.add(Conductor::new(
                Point3::new(x, y, spec.depth),
                Point3::new(x, y_max, spec.depth),
                spec.radius,
            ));
        }
    }
    // Hypotenuse chain through every grid-line crossing. Crossing
    // coordinates reuse hyp_x/hyp_y so they merge exactly with the clipped
    // line ends above.
    if !spec.hypotenuse_chain {
        return net;
    }
    let mut stations: Vec<(f64, f64)> = Vec::new();
    for i in 0..=spec.nx {
        let x = i as f64 * dx;
        stations.push((x, hyp_y(x)));
    }
    for j in 0..=spec.ny {
        let y = j as f64 * dy;
        stations.push((hyp_x(y), y));
    }
    stations.retain(|&(x, y)| inside(x, y) && x >= -1e-9 && y >= -1e-9);
    stations.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("finite coordinates"));
    stations.dedup_by(|p, q| (p.0 - q.0).abs() < 1e-7 && (p.1 - q.1).abs() < 1e-7);
    for w in stations.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        if len > 1e-7 {
            net.add(Conductor::new(
                Point3::new(x0, y0, spec.depth),
                Point3::new(x1, y1, spec.depth),
                spec.radius,
            ));
        }
    }
    net
}

/// Reconstruction of the **Barberá** substation grounding grid (paper
/// §5.1, Fig 5.1): right-angled triangle of 143 m × 89 m protecting
/// ≈6 600 m², ∅12.85 mm conductor buried at 0.80 m. The cell counts are
/// chosen so the discretized grid matches the paper's **408 elements and
/// 238 degrees of freedom** (see `grids::tests::barbera_invariants`).
pub fn barbera() -> ConductorNetwork {
    triangle_grid(barbera_spec())
}

/// The triangle-grid parameters behind [`barbera`]. Found by scanning the
/// (nx, ny, min_stub, hypotenuse) space for an exact match of the paper's
/// 408 elements / 238 dof: 18 × 21 cells (4.94 m × 6.81 m spacing), stubs
/// under 1.25 m dropped, no hypotenuse perimeter chain (grid lines end at
/// the fence line).
pub fn barbera_spec() -> TriangleGridSpec {
    TriangleGridSpec {
        leg_x: 89.0,
        leg_y: 143.0,
        nx: BARBERA_NX,
        ny: BARBERA_NY,
        depth: 0.8,
        radius: 0.012_85 / 2.0,
        min_stub: 1.25,
        hypotenuse_chain: false,
    }
}

/// Cells along x for the Barberá reconstruction (see [`barbera_spec`]).
const BARBERA_NX: usize = 18;
/// Cells along y for the Barberá reconstruction (see [`barbera_spec`]).
const BARBERA_NY: usize = 21;

/// Reconstruction of the **Balaidos** substation grounding grid (paper
/// §5.2, Fig 5.3): a rectangular mesh of **107** conductor segments
/// (∅11.28 mm, 0.80 m deep) supplemented with **67** vertical rods
/// (1.5 m long, ∅14 mm), meshed into **241** elements (each rod
/// contributes two elements: 107 + 2·67 = 241).
///
/// Construction: an 80 m × 60 m grid of 8×6 cells (110 segments, 63
/// crossings), from which 7 interior segments are removed — the real plan
/// (Fig 5.3) has irregular open areas — and 4 perimeter segments are
/// split at their midpoints to host extra rods: 110 − 7 − 4 + 8 = **107**
/// conductor segments, and 63 + 4 = **67** rod sites with one rod each.
pub fn balaidos() -> ConductorNetwork {
    let spec = RectGridSpec {
        origin: (0.0, 0.0),
        width: 80.0,
        height: 60.0,
        nx: 8,
        ny: 6,
        depth: 0.8,
        radius: 0.011_28 / 2.0,
    };
    let base = rectangular_grid(spec);
    let dx = 10.0;
    let dy = 10.0;
    /// A plan-view edge: ((x0, y0), (x1, y1)).
    type PlanEdge = ((f64, f64), (f64, f64));
    // Remove 7 interior segments (open areas in the real plan): chosen as
    // a contiguous notch plus scattered bays, away from the perimeter.
    let removed: &[PlanEdge] = &[
        ((30.0, 30.0), (40.0, 30.0)),
        ((40.0, 30.0), (50.0, 30.0)),
        ((30.0, 20.0), (30.0, 30.0)),
        ((50.0, 20.0), (50.0, 30.0)),
        ((40.0, 40.0), (40.0, 50.0)),
        ((20.0, 40.0), (30.0, 40.0)),
        ((60.0, 10.0), (60.0, 20.0)),
    ];
    // Split these 4 perimeter segments at midpoints (extra rod sites).
    let split: &[PlanEdge] = &[
        ((0.0, 0.0), (10.0, 0.0)),
        ((70.0, 0.0), (80.0, 0.0)),
        ((0.0, 50.0), (0.0, 60.0)),
        ((80.0, 50.0), (80.0, 60.0)),
    ];
    let key = |c: &Conductor| ((c.axis.a.x, c.axis.a.y), (c.axis.b.x, c.axis.b.y));
    let matches = |c: &Conductor, pat: &PlanEdge| {
        let k = key(c);
        let eq =
            |p: (f64, f64), q: (f64, f64)| (p.0 - q.0).abs() < 1e-9 && (p.1 - q.1).abs() < 1e-9;
        (eq(k.0, pat.0) && eq(k.1, pat.1)) || (eq(k.0, pat.1) && eq(k.1, pat.0))
    };

    let mut net = ConductorNetwork::new();
    let mut rod_sites: Vec<(f64, f64)> = Vec::new();
    for i in 0..=8 {
        for j in 0..=6 {
            rod_sites.push((i as f64 * dx, j as f64 * dy));
        }
    }
    for c in base.conductors() {
        if removed.iter().any(|r| matches(c, r)) {
            continue;
        }
        if split.iter().any(|s| matches(c, s)) {
            for piece in c.subdivide(2) {
                net.add(piece);
            }
            let m = c.axis.midpoint();
            rod_sites.push((m.x, m.y));
            continue;
        }
        net.add(*c);
    }
    debug_assert_eq!(net.len(), 107); // 110 − 7 removed − 4 split + 8 pieces

    // Rods: 1.5 m × ∅14 mm from the grid plane down, pre-split into two
    // conductors so each rod meshes into 2 elements (107 + 2·67 = 241).
    assert_eq!(rod_sites.len(), 67, "rod-site bookkeeping");
    for (x, y) in rod_sites {
        let rod = ground_rod(Point3::new(x, y, 0.8), 1.5, 0.014 / 2.0);
        for piece in rod.subdivide(2) {
            net.add(piece);
        }
    }
    net
}

/// Generates a rectangular grid with **unequal (geometric) spacing**:
/// IEEE 80 recommends compressing the outer meshes because the current
/// density — and hence the mesh voltage — peaks at the periphery. Grid
/// lines are placed symmetrically with spacing that shrinks toward the
/// edges by the given `compression` ratio (1.0 = uniform).
pub fn compressed_grid(spec: RectGridSpec, compression: f64) -> ConductorNetwork {
    assert!(
        compression > 0.0 && compression <= 1.0,
        "compression ratio must be in (0, 1]"
    );
    let stations = |n: usize, extent: f64| -> Vec<f64> {
        // Symmetric geometric progression of cell widths: widths w_k ∝
        // compression^{distance from centre}, normalized to the extent.
        let mut widths = Vec::with_capacity(n);
        for k in 0..n {
            let from_centre = ((2 * k + 1) as f64 - n as f64).abs() / 2.0;
            widths.push(compression.powf(from_centre));
        }
        let total: f64 = widths.iter().sum();
        let mut xs = vec![0.0];
        let mut acc = 0.0;
        for w in widths {
            acc += w / total * extent;
            xs.push(acc);
        }
        xs
    };
    let xs = stations(spec.nx, spec.width);
    let ys = stations(spec.ny, spec.height);
    let (x0, y0) = spec.origin;
    let mut net = ConductorNetwork::new();
    for y in &ys {
        for w in xs.windows(2) {
            net.add(Conductor::new(
                Point3::new(x0 + w[0], y0 + y, spec.depth),
                Point3::new(x0 + w[1], y0 + y, spec.depth),
                spec.radius,
            ));
        }
    }
    for x in &xs {
        for w in ys.windows(2) {
            net.add(Conductor::new(
                Point3::new(x0 + x, y0 + w[0], spec.depth),
                Point3::new(x0 + x, y0 + w[1], spec.depth),
                spec.radius,
            ));
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesher;

    #[test]
    fn rectangular_grid_counts() {
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 30.0,
            height: 20.0,
            nx: 3,
            ny: 2,
            depth: 0.8,
            radius: 0.005,
        });
        // (nx+1)*ny + (ny+1)*nx = 4*2 + 3*3 = 17.
        assert_eq!(net.len(), 17);
        let mesh = Mesher::default().mesh(&net);
        assert_eq!(mesh.dof(), 4 * 3); // (nx+1)(ny+1)
        assert!(mesh.is_connected());
    }

    #[test]
    fn triangle_grid_is_inside_triangle_and_connected() {
        let net = triangle_grid(TriangleGridSpec {
            leg_x: 89.0,
            leg_y: 143.0,
            nx: 9,
            ny: 11,
            depth: 0.8,
            radius: 0.006,
            min_stub: 1.0,
            hypotenuse_chain: true,
        });
        for c in net.conductors() {
            for p in [c.axis.a, c.axis.b] {
                assert!(
                    p.x / 89.0 + p.y / 143.0 <= 1.0 + 1e-6,
                    "point outside triangle: {p:?}"
                );
                assert!(p.x >= -1e-9 && p.y >= -1e-9);
            }
        }
        let mesh = Mesher::default().mesh(&net);
        assert!(mesh.is_connected());
    }

    #[test]
    fn barbera_invariants() {
        let net = barbera();
        let mesh = Mesher::default().mesh(&net);
        // Paper §5.1: 408 segments, 238 degrees of freedom.
        assert_eq!(mesh.element_count(), 408, "Barberá element count");
        assert_eq!(mesh.dof(), 238, "Barberá dof");
        assert!(mesh.is_connected());
        // Right-triangle 143 × 89 protecting ~6 600 m²: the triangle area
        // is 89·143/2 ≈ 6 363 m², within a few percent of the quoted area.
        let (lo, hi) = net.bounding_box();
        assert!((hi.x - lo.x - 89.0).abs() < 1.0);
        assert!((hi.y - lo.y - 143.0).abs() < 1.0);
        // All conductors at 0.8 m depth, ∅ 12.85 mm.
        assert!(net.conductors().iter().all(|c| c.is_horizontal()));
        assert!(net
            .conductors()
            .iter()
            .all(|c| (c.radius - 0.006425).abs() < 1e-12));
    }

    #[test]
    fn balaidos_invariants() {
        let net = balaidos();
        // 107 grid conductor segments + 67 rods pre-split in two: meshing
        // must give exactly 241 elements (107 + 2·67).
        assert_eq!(net.rod_count(), 134); // 67 rods × 2 pieces
        assert_eq!(net.len() - net.rod_count(), 107);
        let mesh = Mesher::default().mesh(&net);
        assert_eq!(mesh.element_count(), 241, "Balaidos element count");
        assert!(mesh.is_connected());
        // Rod pieces: 0.75 m; grid segments: 5 or 10 m.
        let (lo, hi) = net.depth_range();
        assert_eq!(lo, 0.8);
        assert!((hi - 2.3).abs() < 1e-12); // 0.8 + 1.5
    }

    #[test]
    fn balaidos_element_split_matches_paper_arithmetic() {
        // 107 + 2·67 = 241 (paper: "107 cylindrical conductors …
        // supplemented with 67 vertical rods … discretization in 241
        // elements").
        assert_eq!(107 + 2 * 67, 241);
        let mesh = Mesher::default().mesh(&balaidos());
        let rod_elements = mesh
            .elements
            .iter()
            .enumerate()
            .filter(|(e, _)| {
                let s = mesh.element_segment(*e);
                s.a.x == s.b.x && s.a.y == s.b.y
            })
            .count();
        assert_eq!(rod_elements, 134);
        assert_eq!(mesh.element_count() - rod_elements, 107);
    }

    #[test]
    fn compressed_grid_shrinks_edge_meshes() {
        let spec = RectGridSpec {
            origin: (0.0, 0.0),
            width: 60.0,
            height: 60.0,
            nx: 6,
            ny: 6,
            depth: 0.8,
            radius: 0.006,
        };
        let net = compressed_grid(spec, 0.7);
        // Same topology as the uniform grid.
        assert_eq!(net.len(), 7 * 6 + 7 * 6);
        let mesh = Mesher::default().mesh(&net);
        assert!(mesh.is_connected());
        assert_eq!(mesh.dof(), 49);
        // Horizontal segments in the first row: outermost shorter than
        // central.
        let mut row0: Vec<f64> = net
            .conductors()
            .iter()
            .filter(|c| c.axis.a.y == 0.0 && c.axis.b.y == 0.0)
            .map(Conductor::length)
            .collect();
        assert_eq!(row0.len(), 6);
        let first = row0[0];
        row0.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = row0[3];
        assert!(first < median, "edge {first} vs median {median}");
        // Total extent preserved.
        let (lo, hi) = net.bounding_box();
        assert!((hi.x - lo.x - 60.0).abs() < 1e-9);
    }

    #[test]
    fn compression_one_reproduces_uniform_grid() {
        let spec = RectGridSpec {
            origin: (0.0, 0.0),
            width: 30.0,
            height: 30.0,
            nx: 3,
            ny: 3,
            depth: 0.8,
            radius: 0.006,
        };
        let a = compressed_grid(spec, 1.0);
        let b = rectangular_grid(spec);
        assert_eq!(a.len(), b.len());
        let lengths = |n: &ConductorNetwork| {
            let mut v: Vec<f64> = n.conductors().iter().map(Conductor::length).collect();
            v.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            v
        };
        for (x, y) in lengths(&a).iter().zip(lengths(&b).iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = Mesher::default().mesh(&barbera());
        let b = Mesher::default().mesh(&barbera());
        assert_eq!(a.element_count(), b.element_count());
        assert_eq!(a.dof(), b.dof());
        for (p, q) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(p, q);
        }
    }
}
