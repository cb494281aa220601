//! Discretization of conductor networks into boundary elements.
//!
//! The 1-D BEM needs the conductor *axes* "discretized in linear leakage
//! current elements" (paper §5.1) whose endpoints are shared **nodes**
//! wherever conductors meet. The unknowns of the Galerkin system are nodal
//! leakage intensities, so degrees of freedom = merged node count; on the
//! Barberá grid 408 elements share endpoints into 238 nodes.
//!
//! [`Mesher`] does this with a spatial-hash endpoint merge, which keeps
//! meshing `O(n)` in the number of element endpoints.

use std::collections::HashMap;

use crate::conductor::Conductor;
use crate::network::ConductorNetwork;
use crate::point::{Point3, Segment};

/// A 2-node boundary element on a conductor axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Element {
    /// Indices of the two endpoint nodes.
    pub nodes: [usize; 2],
    /// Index of the originating conductor in the source network.
    pub conductor: usize,
}

/// A discretized grounding grid.
#[derive(Clone, Debug, Default)]
pub struct Mesh {
    /// Node coordinates (merged element endpoints).
    pub nodes: Vec<Point3>,
    /// Per-node conductor radius (radius of one incident conductor; the
    /// thin-wire integration only needs a local radius scale).
    pub node_radius: Vec<f64>,
    /// Elements referencing `nodes`.
    pub elements: Vec<Element>,
    /// Per-element radius (copied from the originating conductor).
    pub element_radius: Vec<f64>,
}

impl Mesh {
    /// Number of degrees of freedom of the Galerkin system (= nodes).
    pub fn dof(&self) -> usize {
        self.nodes.len()
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Axis segment of element `e`.
    pub fn element_segment(&self, e: usize) -> Segment {
        let el = &self.elements[e];
        Segment::new(self.nodes[el.nodes[0]], self.nodes[el.nodes[1]])
    }

    /// Length of element `e`.
    pub fn element_length(&self, e: usize) -> f64 {
        self.element_segment(e).length()
    }

    /// Total discretized length.
    pub fn total_length(&self) -> f64 {
        (0..self.elements.len())
            .map(|e| self.element_length(e))
            .sum()
    }

    /// Indices of elements incident to each node (adjacency list).
    pub fn node_elements(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for (e, el) in self.elements.iter().enumerate() {
            adj[el.nodes[0]].push(e);
            adj[el.nodes[1]].push(e);
        }
        adj
    }

    /// True when every node is reachable from node 0 through shared
    /// elements — i.e. the grid is a single electrically connected
    /// electrode (a requirement of the constant-GPR boundary condition).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let adj = self.node_elements();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for &e in &adj[n] {
                for &m in &self.elements[e].nodes {
                    if !seen[m] {
                        seen[m] = true;
                        stack.push(m);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Endpoints closer than this (m) merge into one node. An element shorter
/// than this collapses onto one node; the mesh keeps it, and the solver
/// refuses such a mesh with a typed error.
const MERGE_TOLERANCE: f64 = 1e-6;

/// Meshing options.
#[derive(Clone, Copy, Debug)]
pub struct MeshOptions {
    /// Conductors longer than this are subdivided into equal pieces no
    /// longer than it. `f64::INFINITY` keeps one element per conductor.
    pub max_element_length: f64,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            max_element_length: f64::INFINITY,
        }
    }
}

/// Discretizes conductor networks into [`Mesh`]es.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mesher {
    opts: MeshOptions,
}

impl Mesher {
    /// Mesher with the given options.
    pub fn new(opts: MeshOptions) -> Self {
        Mesher { opts }
    }

    /// Discretizes `network`.
    pub fn mesh(&self, network: &ConductorNetwork) -> Mesh {
        let mut mesh = Mesh::default();
        let mut merger = NodeMerger::new(MERGE_TOLERANCE);
        for (ci, c) in network.conductors().iter().enumerate() {
            let pieces = self.split(c);
            for piece in pieces {
                let n0 = merger.intern(piece.axis.a, piece.radius, &mut mesh);
                let n1 = merger.intern(piece.axis.b, piece.radius, &mut mesh);
                mesh.elements.push(Element {
                    nodes: [n0, n1],
                    conductor: ci,
                });
                mesh.element_radius.push(piece.radius);
            }
        }
        mesh
    }

    fn split(&self, c: &Conductor) -> Vec<Conductor> {
        if self.opts.max_element_length.is_infinite() {
            return vec![*c];
        }
        let n = (c.length() / self.opts.max_element_length).ceil().max(1.0) as usize;
        c.subdivide(n)
    }
}

/// Spatial-hash point interner.
struct NodeMerger {
    tol: f64,
    cell: f64,
    buckets: HashMap<(i64, i64, i64), Vec<usize>>,
}

impl NodeMerger {
    fn new(tol: f64) -> Self {
        NodeMerger {
            tol,
            // Cell comfortably larger than the tolerance so a point's
            // matches are confined to its 27-cell neighbourhood.
            cell: (tol * 4.0).max(1e-9),
            buckets: HashMap::new(),
        }
    }

    fn key(&self, p: Point3) -> (i64, i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
            (p.z / self.cell).floor() as i64,
        )
    }

    fn intern(&mut self, p: Point3, radius: f64, mesh: &mut Mesh) -> usize {
        let (kx, ky, kz) = self.key(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if let Some(ids) = self.buckets.get(&(kx + dx, ky + dy, kz + dz)) {
                        for &id in ids {
                            if mesh.nodes[id].distance(p) <= self.tol {
                                return id;
                            }
                        }
                    }
                }
            }
        }
        let id = mesh.nodes.len();
        mesh.nodes.push(p);
        mesh.node_radius.push(radius);
        self.buckets.entry((kx, ky, kz)).or_default().push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductor::ground_rod;

    fn l_shape() -> ConductorNetwork {
        // Two bars sharing the corner (5, 0, 0.8).
        let mut n = ConductorNetwork::new();
        n.add(Conductor::new(
            Point3::new(0.0, 0.0, 0.8),
            Point3::new(5.0, 0.0, 0.8),
            0.005,
        ));
        n.add(Conductor::new(
            Point3::new(5.0, 0.0, 0.8),
            Point3::new(5.0, 5.0, 0.8),
            0.005,
        ));
        n
    }

    #[test]
    fn shared_endpoint_merges_into_one_node() {
        let mesh = Mesher::default().mesh(&l_shape());
        assert_eq!(mesh.element_count(), 2);
        assert_eq!(mesh.dof(), 3); // 4 endpoints, one shared
        assert!(mesh.is_connected());
    }

    #[test]
    fn near_coincident_endpoints_merge_within_tolerance() {
        let mut n = l_shape();
        // A rod whose top is 0.1 µm away from the corner: must merge.
        n.add(ground_rod(Point3::new(5.0, 1e-7, 0.8), 1.5, 0.007));
        let mesh = Mesher::default().mesh(&n);
        assert_eq!(mesh.dof(), 4); // corner shared by 3 elements
        let adj = mesh.node_elements();
        assert!(adj.iter().any(|a| a.len() == 3));
    }

    #[test]
    fn subdivision_respects_max_length() {
        let opts = MeshOptions {
            max_element_length: 2.0,
        };
        let mesh = Mesher::new(opts).mesh(&l_shape());
        // Each 5 m bar splits into 3 pieces of 5/3 m.
        assert_eq!(mesh.element_count(), 6);
        for e in 0..6 {
            assert!(mesh.element_length(e) <= 2.0 + 1e-12);
        }
        // Interior subdivision points are *not* shared between bars.
        assert_eq!(mesh.dof(), 2 * (3 + 1) - 1);
        assert!((mesh.total_length() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_networks_are_detected() {
        let mut n = l_shape();
        n.add(Conductor::new(
            Point3::new(100.0, 100.0, 0.8),
            Point3::new(101.0, 100.0, 0.8),
            0.005,
        ));
        let mesh = Mesher::default().mesh(&n);
        assert!(!mesh.is_connected());
    }

    #[test]
    fn element_segments_match_geometry() {
        let mesh = Mesher::default().mesh(&l_shape());
        let s0 = mesh.element_segment(0);
        assert!((s0.length() - 5.0).abs() < 1e-12);
        assert_eq!(mesh.elements[0].conductor, 0);
        assert_eq!(mesh.elements[1].conductor, 1);
    }

    #[test]
    fn empty_network_gives_empty_mesh() {
        let mesh = Mesher::default().mesh(&ConductorNetwork::new());
        assert_eq!(mesh.dof(), 0);
        assert_eq!(mesh.element_count(), 0);
        assert!(mesh.is_connected());
    }

    #[test]
    fn grid_euler_relation() {
        // A closed 2×2 grid of cells: 12 edges, 9 nodes.
        let mut n = ConductorNetwork::new();
        for i in 0..3 {
            let y = i as f64 * 10.0;
            for j in 0..2 {
                let x0 = j as f64 * 10.0;
                n.add(Conductor::new(
                    Point3::new(x0, y, 0.8),
                    Point3::new(x0 + 10.0, y, 0.8),
                    0.005,
                ));
                n.add(Conductor::new(
                    Point3::new(y, x0, 0.8),
                    Point3::new(y, x0 + 10.0, 0.8),
                    0.005,
                ));
            }
        }
        let mesh = Mesher::default().mesh(&n);
        assert_eq!(mesh.element_count(), 12);
        assert_eq!(mesh.dof(), 9);
        assert!(mesh.is_connected());
    }
}
