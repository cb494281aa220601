//! Cylindrical electrode conductors.

use crate::point::{Point3, Segment};

/// A straight cylindrical conductor bar: the physical electrode element of
/// a grounding grid. Characterized by its axis segment and its radius; the
/// thin-wire BEM is valid because the diameter/length ratio of real
/// earthing conductors is ~10⁻³ (paper §3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Conductor {
    /// Axis of the bar.
    pub axis: Segment,
    /// Cylinder radius in meters.
    pub radius: f64,
}

impl Conductor {
    /// Creates a conductor from axis endpoints and radius, or says why
    /// they describe none: the radius must be positive and finite, the
    /// coordinates finite, the axis of positive length, and every part of
    /// the conductor buried (`z >= 0`, z grows downward). This is the one
    /// check every conductor read from a deck, the wire or an edit passes.
    pub fn try_new(a: Point3, b: Point3, radius: f64) -> Result<Self, &'static str> {
        if !(radius > 0.0 && radius.is_finite()) {
            return Err("conductor radius must be positive");
        }
        if ![a.x, a.y, a.z, b.x, b.y, b.z].iter().all(|v| v.is_finite()) {
            return Err("conductor coordinates must be finite");
        }
        if a.distance(b) <= 0.0 {
            return Err("conductor axis must have positive length");
        }
        if a.z < 0.0 || b.z < 0.0 {
            return Err("conductors must be buried (z >= 0)");
        }
        Ok(Conductor {
            axis: Segment::new(a, b),
            radius,
        })
    }

    /// Creates a conductor from axis endpoints and radius.
    ///
    /// # Panics
    /// Panics with [`try_new`](Self::try_new)'s message if the endpoints
    /// and radius describe no conductor.
    pub fn new(a: Point3, b: Point3, radius: f64) -> Self {
        Self::try_new(a, b, radius).unwrap_or_else(|why| panic!("{why}"))
    }

    /// Conductor length.
    pub fn length(&self) -> f64 {
        self.axis.length()
    }

    /// True when the axis is horizontal (constant depth).
    pub fn is_horizontal(&self) -> bool {
        (self.axis.a.z - self.axis.b.z).abs() < 1e-12
    }

    /// True when the axis is vertical (a ground rod).
    pub fn is_vertical(&self) -> bool {
        self.axis.a.x == self.axis.b.x && self.axis.a.y == self.axis.b.y
    }

    /// Depth range `(min z, max z)` spanned by the axis.
    pub fn depth_range(&self) -> (f64, f64) {
        let (za, zb) = (self.axis.a.z, self.axis.b.z);
        (za.min(zb), za.max(zb))
    }

    /// Splits the conductor into `n` equal-length collinear pieces.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn subdivide(&self, n: usize) -> Vec<Conductor> {
        assert!(n > 0, "subdivision count must be positive");
        (0..n)
            .map(|k| {
                let t0 = k as f64 / n as f64;
                let t1 = (k + 1) as f64 / n as f64;
                Conductor {
                    axis: Segment::new(self.axis.point_at(t0), self.axis.point_at(t1)),
                    radius: self.radius,
                }
            })
            .collect()
    }
}

/// Convenience constructor for a vertical ground rod: `top` is the upper
/// end (shallowest point), the rod extends `length` further down.
pub fn ground_rod(top: Point3, length: f64, radius: f64) -> Conductor {
    assert!(length > 0.0, "rod length must be positive");
    Conductor::new(top, Point3::new(top.x, top.y, top.z + length), radius)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    fn horizontal_bar() -> Conductor {
        Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(10.0, 0.0, 0.8),
            0.006425, // Barberá: ∅ 12.85 mm
        )
    }

    #[test]
    fn classification() {
        let bar = horizontal_bar();
        assert!(bar.is_horizontal());
        assert!(!bar.is_vertical());
        let rod = ground_rod(Point3::new(1.0, 2.0, 0.8), 1.5, 0.007);
        assert!(rod.is_vertical());
        assert!(!rod.is_horizontal());
        assert_eq!(rod.depth_range(), (0.8, 2.3));
    }

    #[test]
    fn subdivision_preserves_geometry() {
        let bar = horizontal_bar();
        let parts = bar.subdivide(4);
        assert_eq!(parts.len(), 4);
        let total: f64 = parts.iter().map(Conductor::length).sum();
        assert!(close(total, bar.length()));
        // Pieces chain end-to-end.
        for w in parts.windows(2) {
            assert!(w[0].axis.b.distance(w[1].axis.a) < 1e-12);
        }
        assert_eq!(parts[0].axis.a, bar.axis.a);
        assert_eq!(parts[3].axis.b, bar.axis.b);
        // Radius carried through.
        assert!(parts.iter().all(|c| c.radius == bar.radius));
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        Conductor::new(Point3::new(0.0, 0.0, 1.0), Point3::new(1.0, 0.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn degenerate_axis_rejected() {
        let p = Point3::new(0.0, 0.0, 1.0);
        Conductor::new(p, p, 0.01);
    }

    #[test]
    #[should_panic(expected = "buried")]
    fn above_surface_rejected() {
        Conductor::new(
            Point3::new(0.0, 0.0, -0.1),
            Point3::new(1.0, 0.0, 0.5),
            0.01,
        );
    }

    #[test]
    #[should_panic(expected = "subdivision count")]
    fn zero_subdivision_rejected() {
        horizontal_bar().subdivide(0);
    }
}
