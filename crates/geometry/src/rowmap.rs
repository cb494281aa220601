//! CSR map between elements and the Galerkin matrix rows they target.
//!
//! The Galerkin unknowns are nodal, so element `e` writes matrix entries
//! whose rows are `e`'s own node indices. [`ElementRowMap`] captures that
//! relation in both directions, derived **once** from a [`Mesh`]:
//!
//! * element → rows ([`element_nodes`](ElementRowMap::element_nodes)):
//!   the element's two node indices;
//! * rows → owning elements ([`row_elements`](ElementRowMap::row_elements)):
//!   a CSR adjacency (flat arrays, no per-row allocation) listing, in
//!   ascending element order, the elements incident to each node.
//!
//! Collocation reads a row's incident elements off it, the hierarchical
//! backend a cluster's rows, and an edit the rows its changed elements
//! touch.

use crate::mesh::Mesh;

/// CSR-style map between mesh elements and packed matrix rows.
///
/// ```
/// use layerbem_geometry::{rowmap::ElementRowMap, Conductor, ConductorNetwork, Mesher, Point3};
/// let mut net = ConductorNetwork::new();
/// net.add(Conductor::new(
///     Point3::new(0.0, 0.0, 0.8),
///     Point3::new(5.0, 0.0, 0.8),
///     0.005,
/// ));
/// net.add(Conductor::new(
///     Point3::new(5.0, 0.0, 0.8),
///     Point3::new(5.0, 5.0, 0.8),
///     0.005,
/// ));
/// let mesh = Mesher::default().mesh(&net); // 2 elements sharing node 1
/// let map = ElementRowMap::from_mesh(&mesh);
/// assert_eq!(map.element_nodes(0), [0, 1]);
/// assert_eq!(map.row_elements(1), &[0, 1]); // the shared corner
/// ```
#[derive(Clone, Debug)]
pub struct ElementRowMap {
    /// Per-element node pair, copied from the mesh.
    nodes: Vec<[usize; 2]>,
    /// CSR row pointers: `row_ptr[r]..row_ptr[r + 1]` indexes
    /// [`row_elems`](Self::row_elems) for node/row `r`.
    row_ptr: Vec<usize>,
    /// CSR payload: element indices incident to each row, ascending.
    row_elems: Vec<usize>,
}

impl ElementRowMap {
    /// Builds the map from a mesh in `O(nodes + elements)`.
    pub fn from_mesh(mesh: &Mesh) -> Self {
        let n = mesh.dof();
        let m = mesh.element_count();
        let nodes: Vec<[usize; 2]> = mesh.elements.iter().map(|e| e.nodes).collect();

        // Two counting passes build the CSR arrays without any per-row Vec.
        let mut row_ptr = vec![0usize; n + 1];
        for nd in &nodes {
            row_ptr[nd[0] + 1] += 1;
            row_ptr[nd[1] + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor = row_ptr.clone();
        let mut row_elems = vec![0usize; 2 * m];
        // Filling in ascending element order keeps each row's slice sorted.
        for (e, nd) in nodes.iter().enumerate() {
            for &p in nd {
                row_elems[cursor[p]] = e;
                cursor[p] += 1;
            }
        }
        ElementRowMap {
            nodes,
            row_ptr,
            row_elems,
        }
    }

    /// Number of matrix rows (= mesh nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of elements.
    #[inline]
    pub fn element_count(&self) -> usize {
        self.nodes.len()
    }

    /// The two node indices of element `e`.
    #[inline]
    pub fn element_nodes(&self, e: usize) -> [usize; 2] {
        self.nodes[e]
    }

    /// Elements incident to node/row `r`, in ascending element order.
    #[inline]
    pub fn row_elements(&self, r: usize) -> &[usize] {
        &self.row_elems[self.row_ptr[r]..self.row_ptr[r + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::{rectangular_grid, RectGridSpec};
    use crate::{ConductorNetwork, Mesher};

    fn grid_mesh(nx: usize, ny: usize) -> Mesh {
        Mesher::default().mesh(&rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx,
            ny,
            depth: 0.8,
            radius: 0.006,
        }))
    }

    #[test]
    fn csr_matches_node_elements_adjacency() {
        let mesh = grid_mesh(3, 2);
        let map = ElementRowMap::from_mesh(&mesh);
        let adj = mesh.node_elements();
        assert_eq!(map.rows(), mesh.dof());
        assert_eq!(map.element_count(), mesh.element_count());
        for (r, incident) in adj.iter().enumerate() {
            assert_eq!(map.row_elements(r), incident.as_slice(), "row {r}");
            // Ascending element order within each row.
            for w in map.row_elements(r).windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn extremes_bound_element_nodes() {
        let mesh = grid_mesh(2, 2);
        let map = ElementRowMap::from_mesh(&mesh);
        for (e, el) in mesh.elements.iter().enumerate() {
            assert_eq!(map.element_nodes(e), el.nodes);
            assert!(el.nodes.iter().all(|&p| p < map.rows()));
        }
    }

    #[test]
    fn empty_mesh_yields_empty_map() {
        let mesh = Mesher::default().mesh(&ConductorNetwork::new());
        let map = ElementRowMap::from_mesh(&mesh);
        assert_eq!(map.rows(), 0);
        assert_eq!(map.element_count(), 0);
    }
}
