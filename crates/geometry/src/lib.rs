//! # layerbem-geometry
//!
//! Geometry and meshing substrate for grounding-grid analysis.
//!
//! A real grounding grid "consists of a mesh of interconnected cylindrical
//! conductors, horizontally buried and supplemented by ground rods
//! vertically thrusted in specific places" (paper §1). This crate models
//! exactly that:
//!
//! * [`Point3`] / [`Segment`] — basic 3-D primitives. The coordinate
//!   convention matches the paper's soil model: the earth surface is the
//!   plane `z = 0` and **z increases downward** (a conductor buried at
//!   80 cm has `z = 0.8`).
//! * [`Conductor`] — a straight cylindrical electrode bar (axis segment +
//!   radius).
//! * [`ConductorNetwork`] — a collection of conductors forming a grid.
//! * [`mesh`] — discretization of conductor axes into 2-node boundary
//!   elements with endpoint merging, producing the node/element structure
//!   the Galerkin BEM needs (elements share nodes at grid crossings, so
//!   the paper's "408 segments … 238 degrees of freedom" arises naturally).
//! * [`rowmap`] — CSR map between elements and the Galerkin matrix rows
//!   they target (element → nodes, rows → owning elements), read by the
//!   collocation rows, the cluster tree and the edit subsystem.
//! * [`cluster`] — binary cluster tree over elements with the
//!   admissibility test that splits the element-pair triangle into near
//!   (dense) and far (low-rank compressible) blocks, the geometric
//!   substrate of the hierarchical operator backend.
//! * [`grids`] — parametric generators for rectangular and right-triangle
//!   grids with vertical rods, including reconstructions of the two
//!   substation geometries evaluated in the paper (Barberá, Fig 5.1, and
//!   Balaidos, Fig 5.3).

pub mod cluster;
pub mod conductor;
pub mod grids;
pub mod mesh;
pub mod network;
pub mod point;
pub mod rowmap;
pub mod svg;

pub use cluster::{Aabb, BlockPartition, Cluster, ClusterTree};
pub use conductor::Conductor;
pub use mesh::{Element, Mesh, MeshOptions, Mesher};
pub use network::ConductorNetwork;
pub use point::{Point3, Segment};
pub use rowmap::ElementRowMap;
