//! Conductor networks: whole grounding grids.

use crate::conductor::Conductor;
use crate::point::Point3;

/// A grounding grid: the set of interconnected conductors and rods.
#[derive(Clone, Debug, Default)]
pub struct ConductorNetwork {
    conductors: Vec<Conductor>,
}

impl ConductorNetwork {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one conductor.
    pub fn add(&mut self, c: Conductor) {
        self.conductors.push(c);
    }

    /// Adds every conductor of an iterator.
    pub fn extend<I: IntoIterator<Item = Conductor>>(&mut self, it: I) {
        self.conductors.extend(it);
    }

    /// Conductors in insertion order.
    pub fn conductors(&self) -> &[Conductor] {
        &self.conductors
    }

    /// Number of conductors.
    pub fn len(&self) -> usize {
        self.conductors.len()
    }

    /// True when the network has no conductors.
    pub fn is_empty(&self) -> bool {
        self.conductors.is_empty()
    }

    /// Total buried conductor length.
    pub fn total_length(&self) -> f64 {
        self.conductors.iter().map(Conductor::length).sum()
    }

    /// Number of vertical rods.
    pub fn rod_count(&self) -> usize {
        self.conductors.iter().filter(|c| c.is_vertical()).count()
    }

    /// Depth interval `(min, max)` spanned by all conductors.
    ///
    /// # Panics
    /// Panics on an empty network.
    pub fn depth_range(&self) -> (f64, f64) {
        assert!(!self.is_empty(), "depth_range of empty network");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.conductors {
            let (a, b) = c.depth_range();
            lo = lo.min(a);
            hi = hi.max(b);
        }
        (lo, hi)
    }

    /// Axis-aligned bounding box `(min corner, max corner)`.
    ///
    /// # Panics
    /// Panics on an empty network.
    pub fn bounding_box(&self) -> (Point3, Point3) {
        assert!(!self.is_empty(), "bounding_box of empty network");
        let mut lo = Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut hi = Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for c in &self.conductors {
            lo = lo.min(c.axis.a).min(c.axis.b);
            hi = hi.max(c.axis.a).max(c.axis.b);
        }
        (lo, hi)
    }
}

impl FromIterator<Conductor> for ConductorNetwork {
    fn from_iter<I: IntoIterator<Item = Conductor>>(iter: I) -> Self {
        ConductorNetwork {
            conductors: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductor::ground_rod;

    fn sample() -> ConductorNetwork {
        let mut n = ConductorNetwork::new();
        n.add(Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(10.0, 0.0, 0.8),
            0.005,
        ));
        n.add(Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(0.0, 8.0, 0.8),
            0.005,
        ));
        n.add(ground_rod(Point3::new(0.0, 0.0, 0.8), 1.5, 0.007));
        n
    }

    #[test]
    fn counts_and_lengths() {
        let n = sample();
        assert_eq!(n.len(), 3);
        assert!(!n.is_empty());
        assert_eq!(n.rod_count(), 1);
        assert!((n.total_length() - 19.5).abs() < 1e-12);
    }

    #[test]
    fn depth_and_bbox() {
        let n = sample();
        assert_eq!(n.depth_range(), (0.8, 2.3));
        let (lo, hi) = n.bounding_box();
        assert_eq!(lo, Point3::new(0.0, 0.0, 0.8));
        assert_eq!(hi, Point3::new(10.0, 8.0, 2.3));
    }

    #[test]
    fn from_iterator_collects() {
        let n: ConductorNetwork = sample().conductors().to_vec().into_iter().collect();
        assert_eq!(n.len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn bbox_of_empty_panics() {
        ConductorNetwork::new().bounding_box();
    }
}
