//! Graph algorithms used by the backboning methods and the evaluation harness.
//!
//! * [`UnionFind`] — disjoint sets, used by Kruskal's
//!   algorithm and the connectivity check of the Doubly-Stochastic backbone.
//! * [`components`] — (weakly) connected components and component counts.
//! * [`traversal`] — breadth-first and depth-first traversals.
//! * [`shortest_path`] — Dijkstra's algorithm and shortest-path trees, the
//!   building block of the High Salience Skeleton.
//! * [`spanning_tree`] — Kruskal maximum spanning trees.
//! * [`kcore`] — k-core decomposition (Seidman 1983), listed by the paper's
//!   related work among the classic network-reduction tools.
//! * [`degree`] — degree/strength sequences and neighbour-weight statistics
//!   (the quantities behind Figure 6 of the paper).

pub mod components;
pub mod degree;
pub mod kcore;
pub mod shortest_path;
pub mod spanning_tree;
pub mod traversal;
pub mod union_find;

pub use components::{connected_components, is_connected, largest_component_size};
pub use kcore::{core_numbers, degeneracy, k_core_subgraph};
pub use shortest_path::{dijkstra, DistanceTransform, ShortestPathTree};
pub use spanning_tree::maximum_spanning_tree;
pub use traversal::{breadth_first_order, depth_first_order};
pub use union_find::UnionFind;
