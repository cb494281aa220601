//! Property-based tests of the geometry substrate.

use proptest::prelude::*;

use layerbem_geometry::grids::{rectangular_grid, triangle_grid, RectGridSpec, TriangleGridSpec};
use layerbem_geometry::{MeshOptions, Mesher, Point3};

proptest! {
    /// Rectangular grids have the closed-form counts
    /// `E = (nx+1)·ny + (ny+1)·nx`, `V = (nx+1)(ny+1)` and are connected.
    #[test]
    fn rect_grid_counts(
        nx in 1usize..6,
        ny in 1usize..6,
        w in 5.0f64..100.0,
        h in 5.0f64..100.0,
        depth in 0.2f64..2.0,
    ) {
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0), width: w, height: h, nx, ny, depth, radius: 0.006,
        });
        prop_assert_eq!(net.len(), (nx + 1) * ny + (ny + 1) * nx);
        let mesh = Mesher::default().mesh(&net);
        prop_assert_eq!(mesh.dof(), (nx + 1) * (ny + 1));
        prop_assert!(mesh.is_connected());
        // Total length is exactly the grid-line length.
        let expect = (nx as f64 + 1.0) * h + (ny as f64 + 1.0) * w;
        prop_assert!((net.total_length() - expect).abs() < 1e-9 * expect);
    }

    /// Triangle grids stay inside their triangle and mesh connected.
    #[test]
    fn triangle_grid_invariants(
        nx in 2usize..12,
        ny in 2usize..12,
        legx in 20.0f64..120.0,
        legy in 20.0f64..150.0,
        hyp in any::<bool>(),
    ) {
        let net = triangle_grid(TriangleGridSpec {
            leg_x: legx, leg_y: legy, nx, ny,
            depth: 0.8, radius: 0.006, min_stub: 1.0, hypotenuse_chain: hyp,
        });
        prop_assert!(!net.is_empty());
        for c in net.conductors() {
            for p in [c.axis.a, c.axis.b] {
                prop_assert!(p.x / legx + p.y / legy <= 1.0 + 1e-6);
                prop_assert!(p.x >= -1e-9 && p.y >= -1e-9);
            }
        }
        let mesh = Mesher::default().mesh(&net);
        prop_assert!(mesh.is_connected());
    }

    /// Subdividing a mesh never changes total length and never produces
    /// over-long elements; dof grows accordingly.
    #[test]
    fn mesher_subdivision_invariants(
        nx in 1usize..4,
        ny in 1usize..4,
        max_len in 2.0f64..15.0,
    ) {
        let net = rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0), width: 30.0, height: 30.0, nx, ny,
            depth: 0.8, radius: 0.006,
        });
        let coarse = Mesher::default().mesh(&net);
        let fine = Mesher::new(MeshOptions {
            max_element_length: max_len,
        }).mesh(&net);
        prop_assert!((coarse.total_length() - fine.total_length()).abs() < 1e-9 * coarse.total_length());
        for e in 0..fine.element_count() {
            prop_assert!(fine.element_length(e) <= max_len + 1e-9);
        }
        prop_assert!(fine.dof() >= coarse.dof());
        prop_assert!(fine.is_connected());
    }

    /// Segment distance function: symmetric in a reversal, zero on the
    /// segment, positive off it.
    #[test]
    fn segment_distance_properties(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0,
        px in -10.0f64..10.0, py in -10.0f64..10.0,
        t in 0.0f64..1.0,
    ) {
        use layerbem_geometry::Segment;
        let a = Point3::new(ax, ay, 0.0);
        let b = Point3::new(bx, by, 0.0);
        prop_assume!(a.distance(b) > 1e-9);
        let s = Segment::new(a, b);
        let rev = Segment::new(b, a);
        let p = Point3::new(px, py, 0.0);
        prop_assert!((s.distance_to_point(p) - rev.distance_to_point(p)).abs() < 1e-9);
        // Points on the segment have zero distance.
        let on = s.point_at(t);
        prop_assert!(s.distance_to_point(on) < 1e-9);
        // Distance is bounded by endpoint distances.
        prop_assert!(s.distance_to_point(p) <= p.distance(a) + 1e-12);
        prop_assert!(s.distance_to_point(p) <= p.distance(b) + 1e-12);
    }
}
