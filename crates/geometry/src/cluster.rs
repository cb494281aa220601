//! Binary cluster tree over mesh elements and the admissibility-driven
//! near/far block partition behind the hierarchical (H-matrix) operator
//! backend.
//!
//! The Galerkin BEM matrix couples every element pair, but the layered-soil
//! kernel is smooth once source and field elements are well separated, so
//! the coupling block between two distant element *clusters* is numerically
//! low-rank. This module supplies the geometric half of that observation:
//!
//! * [`ClusterTree`] — a binary tree built by recursive longest-axis
//!   bisection of element midpoints. Each node owns a contiguous slice of a
//!   permutation of the element indices, so the leaves partition the
//!   element set exactly (every element sits in exactly one leaf).
//! * [`ClusterTree::block_partition`] — walks the tree pair (root × root)
//!   and splits the unordered element-pair triangle `{(β, α) : β ≤ α}` into
//!   **near** pairs (assembled densely, exactly as the dense path would)
//!   and **far** cluster pairs satisfying the standard admissibility test
//!   `max(diam σ, diam τ) ≤ η · dist(σ, τ)` (compressed by adaptive cross
//!   approximation in `layerbem-numeric`).
//!
//! Cluster bounding boxes are taken over element *endpoints*, which buys a
//! load-bearing invariant: an admissible pair has `dist > 0`, so the two
//! boxes are disjoint, so no mesh node (a merged endpoint) can belong to
//! elements of both clusters — **admissible cluster pairs have disjoint
//! Galerkin row sets** (see [`ClusterTree::cluster_rows`]). A diagonal pair
//! `(σ, σ)` has `dist = 0` and is never admissible, so the operator
//! diagonal comes entirely from the near part. The partition is exact and
//! deterministic: ties in the bisection sort break on element index, and
//! the near list is emitted in the dense assembly's `(β, then α)` order.

use std::ops::Range;

use crate::mesh::Mesh;
use crate::point::Point3;
use crate::rowmap::ElementRowMap;

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Point3,
    /// Componentwise maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// The inverted box (min = +∞, max = −∞); absorbs any point.
    pub fn empty() -> Self {
        Aabb {
            min: Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            max: Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Grows the box to contain `p`.
    pub fn include(&mut self, p: Point3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Diagonal length — the cluster diameter used by the admissibility
    /// test.
    pub fn diameter(&self) -> f64 {
        self.max.distance(self.min)
    }

    /// Euclidean distance between the two boxes (0 when they touch or
    /// overlap).
    pub fn distance(&self, other: &Aabb) -> f64 {
        let gap = |lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64| -> f64 {
            (lo_b - hi_a).max(lo_a - hi_b).max(0.0)
        };
        let dx = gap(self.min.x, self.max.x, other.min.x, other.max.x);
        let dy = gap(self.min.y, self.max.y, other.min.y, other.max.y);
        let dz = gap(self.min.z, self.max.z, other.min.z, other.max.z);
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

/// One node of the [`ClusterTree`]: a contiguous run of the permuted
/// element order plus its endpoint bounding box.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Range into [`ClusterTree::element_order`].
    pub elements: Range<usize>,
    /// Bounding box of the member elements' endpoints.
    pub bbox: Aabb,
    /// Child node indices, `None` for leaves.
    pub children: Option<(usize, usize)>,
}

impl Cluster {
    /// Number of member elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when the cluster owns no elements (only possible for an empty
    /// mesh's root).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

/// Binary cluster tree over the elements of a [`Mesh`].
#[derive(Clone, Debug)]
pub struct ClusterTree {
    nodes: Vec<Cluster>,
    /// Permutation of `0..element_count`; each cluster owns a contiguous
    /// slice.
    order: Vec<u32>,
    leaf_size: usize,
}

/// The outcome of [`ClusterTree::block_partition`]: an exact cover of the
/// unordered element-pair triangle.
#[derive(Clone, Debug, Default)]
pub struct BlockPartition {
    /// Inadmissible element pairs `(β, α)` with `β ≤ α`, sorted in the
    /// dense assembly's iteration order (ascending `β`, then `α`).
    pub near: Vec<(u32, u32)>,
    /// Admissible cluster pairs `(σ, τ)` (node indices, `σ ≠ τ`), each
    /// covering every cross pair between the two clusters exactly once.
    pub far: Vec<(usize, usize)>,
}

impl ClusterTree {
    /// Builds the tree by recursive longest-axis bisection of element
    /// midpoints, stopping when a node holds at most `leaf_size` elements
    /// (`leaf_size` is clamped to ≥ 1). Deterministic: the bisection sorts
    /// by midpoint coordinate with element index as tie-break, and always
    /// splits at the median position.
    pub fn build(mesh: &Mesh, leaf_size: usize) -> Self {
        let leaf_size = leaf_size.max(1);
        let m = mesh.element_count();
        let centers: Vec<Point3> = (0..m).map(|e| mesh.element_segment(e).midpoint()).collect();
        let mut order: Vec<u32> = (0..m as u32).collect();
        let mut nodes = Vec::new();
        // Reserve the root slot so index 0 is always the root.
        nodes.push(Cluster {
            elements: 0..m,
            bbox: Aabb::empty(),
            children: None,
        });
        Self::split(mesh, &centers, &mut order, &mut nodes, 0, leaf_size);
        ClusterTree {
            nodes,
            order,
            leaf_size,
        }
    }

    fn bbox_of(mesh: &Mesh, members: &[u32]) -> Aabb {
        let mut bb = Aabb::empty();
        for &e in members {
            let seg = mesh.element_segment(e as usize);
            bb.include(seg.a);
            bb.include(seg.b);
        }
        bb
    }

    fn split(
        mesh: &Mesh,
        centers: &[Point3],
        order: &mut [u32],
        nodes: &mut Vec<Cluster>,
        node: usize,
        leaf_size: usize,
    ) {
        let range = nodes[node].elements.clone();
        nodes[node].bbox = Self::bbox_of(mesh, &order[range.clone()]);
        if range.len() <= leaf_size {
            return;
        }
        // Longest axis of the midpoint cloud, not the endpoint box: the
        // split keys are midpoints, so this is the axis that actually
        // separates them.
        let mut cbb = Aabb::empty();
        for &e in &order[range.clone()] {
            cbb.include(centers[e as usize]);
        }
        let ext = [
            cbb.max.x - cbb.min.x,
            cbb.max.y - cbb.min.y,
            cbb.max.z - cbb.min.z,
        ];
        let axis = (0..3).max_by(|&a, &b| ext[a].total_cmp(&ext[b])).unwrap();
        let key = |e: u32| -> f64 {
            let c = centers[e as usize];
            match axis {
                0 => c.x,
                1 => c.y,
                _ => c.z,
            }
        };
        order[range.clone()].sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
        let mid = range.start + range.len() / 2;
        let left = nodes.len();
        nodes.push(Cluster {
            elements: range.start..mid,
            bbox: Aabb::empty(),
            children: None,
        });
        let right = nodes.len();
        nodes.push(Cluster {
            elements: mid..range.end,
            bbox: Aabb::empty(),
            children: None,
        });
        nodes[node].children = Some((left, right));
        Self::split(mesh, centers, order, nodes, left, leaf_size);
        Self::split(mesh, centers, order, nodes, right, leaf_size);
    }

    /// Root node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Node accessor.
    pub fn node(&self, i: usize) -> &Cluster {
        &self.nodes[i]
    }

    /// Number of tree nodes.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The leaf-size cap the tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The permutation of element indices the clusters slice into.
    pub fn element_order(&self) -> &[u32] {
        &self.order
    }

    /// Member element indices of node `i`.
    pub fn elements(&self, i: usize) -> &[u32] {
        &self.order[self.nodes[i].elements.clone()]
    }

    /// Indices of leaf nodes, in depth-first order.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].children.is_none())
            .collect()
    }

    /// Sorted, deduplicated Galerkin rows (mesh nodes) touched by the
    /// members of cluster `i`, read off the CSR [`ElementRowMap`]. For an
    /// admissible pair the two row sets are disjoint (see module docs).
    pub fn cluster_rows(&self, i: usize, map: &ElementRowMap) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .elements(i)
            .iter()
            .flat_map(|&e| map.element_nodes(e as usize))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Splits the unordered element-pair triangle into near pairs and
    /// admissible far cluster pairs (admissibility parameter `eta`; the
    /// customary choice is `eta ≤ 1`, smaller = stricter separation).
    ///
    /// Every unordered pair `{β, α}` (including `β = α`) lands in exactly
    /// one bucket: as an entry of `near`, or inside exactly one far block's
    /// `σ × τ` cross product — the partition tests pin this exactly.
    pub fn block_partition(&self, eta: f64) -> BlockPartition {
        assert!(eta > 0.0, "admissibility parameter must be positive");
        let mut out = BlockPartition::default();
        if !self.nodes[0].is_empty() {
            self.partition_pair(0, 0, eta, &mut out);
        }
        out.near.sort_unstable();
        out
    }

    fn admissible(&self, s: usize, t: usize, eta: f64) -> bool {
        let (bs, bt) = (&self.nodes[s].bbox, &self.nodes[t].bbox);
        let dist = bs.distance(bt);
        dist > 0.0 && bs.diameter().max(bt.diameter()) <= eta * dist
    }

    fn push_near(&self, s: usize, t: usize, out: &mut BlockPartition) {
        let (es, et) = (self.elements(s), self.elements(t));
        if s == t {
            for (i, &a) in es.iter().enumerate() {
                for &b in &es[i..] {
                    out.near.push((a.min(b), a.max(b)));
                }
            }
        } else {
            for &a in es {
                for &b in et {
                    out.near.push((a.min(b), a.max(b)));
                }
            }
        }
    }

    fn partition_pair(&self, s: usize, t: usize, eta: f64, out: &mut BlockPartition) {
        if s == t {
            match self.nodes[s].children {
                // Diagonal internal node: the two (child, child) diagonals
                // plus the one unordered cross pair.
                Some((l, r)) => {
                    self.partition_pair(l, l, eta, out);
                    self.partition_pair(l, r, eta, out);
                    self.partition_pair(r, r, eta, out);
                }
                None => self.push_near(s, s, out),
            }
            return;
        }
        if self.admissible(s, t, eta) {
            out.far.push((s, t));
            return;
        }
        let (cs, ct) = (self.nodes[s].children, self.nodes[t].children);
        match (cs, ct) {
            (None, None) => self.push_near(s, t, out),
            (Some((l, r)), None) => {
                self.partition_pair(l, t, eta, out);
                self.partition_pair(r, t, eta, out);
            }
            (None, Some((l, r))) => {
                self.partition_pair(s, l, eta, out);
                self.partition_pair(s, r, eta, out);
            }
            (Some((sl, sr)), Some((tl, tr))) => {
                // Refine the larger cluster; ties refine `s` so the walk is
                // deterministic.
                if self.nodes[s].bbox.diameter() >= self.nodes[t].bbox.diameter() {
                    self.partition_pair(sl, t, eta, out);
                    self.partition_pair(sr, t, eta, out);
                } else {
                    self.partition_pair(s, tl, eta, out);
                    self.partition_pair(s, tr, eta, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids::{self, RectGridSpec};
    use crate::mesh::{MeshOptions, Mesher};

    fn test_mesh() -> Mesh {
        let grid = grids::rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 20.0,
            height: 20.0,
            nx: 4,
            ny: 4,
            depth: 0.8,
            radius: 0.006,
        });
        Mesher::new(MeshOptions {
            max_element_length: 2.5,
        })
        .mesh(&grid)
    }

    #[test]
    fn leaves_partition_the_element_set_exactly() {
        let mesh = test_mesh();
        let tree = ClusterTree::build(&mesh, 8);
        let mut count = vec![0usize; mesh.element_count()];
        for leaf in tree.leaves() {
            assert!(tree.node(leaf).len() <= 8);
            for &e in tree.elements(leaf) {
                count[e as usize] += 1;
            }
        }
        assert!(
            count.iter().all(|&c| c == 1),
            "every element must sit in exactly one leaf"
        );
    }

    #[test]
    fn internal_nodes_cover_their_children_exactly() {
        let mesh = test_mesh();
        let tree = ClusterTree::build(&mesh, 4);
        for i in 0..tree.node_count() {
            if let Some((l, r)) = tree.node(i).children {
                assert_eq!(tree.node(i).elements.start, tree.node(l).elements.start);
                assert_eq!(tree.node(l).elements.end, tree.node(r).elements.start);
                assert_eq!(tree.node(r).elements.end, tree.node(i).elements.end);
            }
        }
    }

    #[test]
    fn block_partition_covers_the_pair_triangle_exactly_once() {
        let mesh = test_mesh();
        let m = mesh.element_count();
        let tree = ClusterTree::build(&mesh, 8);
        let parts = tree.block_partition(1.0);
        assert!(!parts.far.is_empty(), "grid this size must have far blocks");
        let mut seen = vec![0usize; m * (m + 1) / 2];
        let slot = |lo: usize, hi: usize| hi * (hi + 1) / 2 + lo;
        for &(lo, hi) in &parts.near {
            assert!(lo <= hi);
            seen[slot(lo as usize, hi as usize)] += 1;
        }
        for &(s, t) in &parts.far {
            for &a in tree.elements(s) {
                for &b in tree.elements(t) {
                    assert_ne!(a, b, "far block cannot contain a diagonal pair");
                    seen[slot(a.min(b) as usize, a.max(b) as usize)] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every unordered element pair must be covered exactly once"
        );
    }

    #[test]
    fn near_pairs_come_out_in_dense_iteration_order() {
        let mesh = test_mesh();
        let tree = ClusterTree::build(&mesh, 8);
        let parts = tree.block_partition(1.0);
        assert!(parts.near.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn far_blocks_are_admissible_with_disjoint_rows() {
        let mesh = test_mesh();
        let map = ElementRowMap::from_mesh(&mesh);
        let eta = 1.0;
        let tree = ClusterTree::build(&mesh, 8);
        let parts = tree.block_partition(eta);
        for &(s, t) in &parts.far {
            let (bs, bt) = (&tree.node(s).bbox, &tree.node(t).bbox);
            let dist = bs.distance(bt);
            assert!(dist > 0.0);
            assert!(bs.diameter().max(bt.diameter()) <= eta * dist);
            let rs = tree.cluster_rows(s, &map);
            let rt = tree.cluster_rows(t, &map);
            assert!(
                rs.iter().all(|r| rt.binary_search(r).is_err()),
                "admissible clusters must touch disjoint Galerkin rows"
            );
        }
    }

    #[test]
    fn single_element_mesh_is_one_leaf_and_all_near() {
        let grid = grids::rectangular_grid(RectGridSpec {
            origin: (0.0, 0.0),
            width: 1.0,
            height: 1.0,
            nx: 1,
            ny: 1,
            depth: 0.5,
            radius: 0.006,
        });
        let mesh = Mesher::default().mesh(&grid);
        let tree = ClusterTree::build(&mesh, 16);
        assert_eq!(tree.leaves().len(), 1);
        let parts = tree.block_partition(1.0);
        let m = mesh.element_count();
        assert_eq!(parts.far.len(), 0);
        assert_eq!(parts.near.len(), m * (m + 1) / 2);
    }
}
