//! # backboning-graph
//!
//! Weighted-graph substrate for the `backboning-rs` workspace, a Rust
//! reproduction of *Network Backboning with Noisy Data* (Coscia & Neffke,
//! ICDE 2017).
//!
//! The paper's data structure is a weighted graph `G = (V, E, N)` with
//! non-negative real edge weights, either directed or undirected. This crate
//! provides:
//!
//! * [`CsrGraph`] — the canonical compact representation: `u32` node ids,
//!   flat prefix-offset CSR adjacency and dense edge arrays, built by the
//!   streaming [`csr::CsrBuilder`]. This is what the pipeline, server and
//!   scalability experiments (Figure 9) operate on.
//! * [`WeightedGraph`] — the mutable adjacency-list builder/compat shim with
//!   node labels and O(1) edge lookup, used for small graphs, fixtures and
//!   materialized backbone subgraphs.
//! * [`GraphView`] — the read-only trait both implement, over which the
//!   scoring pipeline is generic (bit-identical results on either
//!   representation).
//! * [`LabelTable`] — the one node-label interner both representations, the
//!   streaming builder and PATCH batches ([`DeltaGraph`]) share: label
//!   bytes in one arena, decimal labels indexed directly, the rest through
//!   SipHash.
//! * Graph [`generators`] — Barabási–Albert, Erdős–Rényi, stochastic block
//!   model and small deterministic topologies, used by the synthetic
//!   experiments (Figure 4) and the test suites.
//! * Graph [`algorithms`] — union–find, connected components, BFS/DFS,
//!   Dijkstra shortest-path trees (the building block of the High Salience
//!   Skeleton), and Kruskal maximum spanning trees.
//! * Edge-list [`io`] for plain-text interchange of weighted networks,
//!   and [`io::write_f64`], which writes edge weights, score columns and
//!   shortest-form JSON numbers as the bytes of `{}`, found with Ryu's
//!   shortest-digit search.
//! * A dense [`matrix`] adjacency view used by the
//!   Doubly-Stochastic backbone's Sinkhorn normalisation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod builder;
pub mod csr;
pub mod delta;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod labels;
pub mod matrix;
mod ryu;
pub mod view;

pub use builder::GraphBuilder;
pub use csr::{CsrBuilder, CsrGraph};
pub use delta::{DeltaBatch, DeltaGraph, DeltaOp, DeltaOpKind, PatchEffect};
pub use error::{GraphError, GraphResult};
pub use graph::{Direction, Edge, EdgeRef, InNeighbors, NodeId, WeightedGraph};
pub use labels::LabelTable;
pub use view::GraphView;
