//! # backboning-gen
//!
//! Seeded, deterministic scenario generation for the `backboning-rs`
//! workspace: parameterised graph families (Barabási–Albert, Erdős–Rényi,
//! random geometric, stochastic block) × weight distributions (unit,
//! uniform, power-law, log-normal) × an optional multiplicative-noise layer
//! matching the noise model of *Network Backboning with Noisy Data*
//! (Coscia & Neffke, ICDE 2017).
//!
//! Every scenario is described by a [`ScenarioSpec`] that round-trips
//! through a compact string form — the same string is the CLI argument of
//! `backbone gen`, the row key of the bench crate's `bench_matrix` grid, and
//! a cache key:
//!
//! ```
//! use backboning_gen::ScenarioSpec;
//!
//! let spec = ScenarioSpec::parse("sb:n=200,b=4,pin=0.1,pout=0.01,w=lognormal(0,1)").unwrap();
//! assert_eq!(
//!     spec.render(),
//!     "sb:n=200,b=4,pin=0.1,pout=0.01,w=lognormal(0,1),noise=0,seed=4242",
//! );
//! assert_eq!(ScenarioSpec::parse(&spec.render()).unwrap(), spec);
//!
//! let graph = spec.generate().unwrap();
//! assert_eq!(graph.node_count(), 200);
//! // Same spec, same bytes: generation is deterministic.
//! let again = spec.generate().unwrap();
//! assert_eq!(graph.edge_count(), again.edge_count());
//! ```
//!
//! Graphs are emitted straight into the workspace's canonical compact
//! [`CsrGraph`](backboning_graph::CsrGraph) representation; BA and ER specs
//! consume the exact random streams of the pre-existing bench substrate
//! generators, so historical substrate files are reproducible byte-for-byte
//! from their specs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
pub mod spec;

pub use spec::{Family, ScenarioSpec, SpecError, WeightDist, DEFAULT_SEED};
