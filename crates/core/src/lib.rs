//! # backboning
//!
//! A Rust implementation of **Network Backboning with Noisy Data**
//! (Michele Coscia & Frank M. H. Neffke, ICDE 2017).
//!
//! Network backboning extracts the statistically significant "backbone" of a
//! dense, noisy weighted network by pruning edges whose weights are compatible
//! with a random null model. This crate contains the paper's primary
//! contribution — the **Noise-Corrected (NC) backbone** — together with every
//! baseline the paper compares against, all operating on the same scored-edge
//! API:
//!
//! | Method | Type | Reference |
//! |---|---|---|
//! | [`NoiseCorrected`] | statistical, Bayesian binomial null model | Coscia & Neffke 2017 (this paper) |
//! | [`NoiseCorrectedBinomial`] | direct binomial p-values (paper footnote 2) | Coscia & Neffke 2017 |
//! | [`DisparityFilter`] | statistical, per-node exponential null model | Serrano, Boguñá & Vespignani 2009 |
//! | [`HighSalienceSkeleton`] | structural, shortest-path-tree superposition | Grady, Thiemann & Brockmann 2012 |
//! | [`DoublyStochastic`] | structural, Sinkhorn–Knopp normalisation | Slater 2009 |
//! | [`MaximumSpanningTree`] | structural, Kruskal | classic |
//! | [`NaiveThreshold`] | weight threshold | classic |
//!
//! # Quick start
//!
//! ```
//! use backboning_graph::GraphBuilder;
//! use backboning::{BackboneExtractor, NoiseCorrected};
//!
//! // A noisy star: the hub connects to everything, but the only *surprising*
//! // edge is the one between the two peripheral nodes.
//! let graph = GraphBuilder::undirected()
//!     .edge("hub", "a", 10.0)
//!     .edge("hub", "b", 10.0)
//!     .edge("hub", "c", 12.0)
//!     .edge("hub", "d", 11.0)
//!     .edge("a", "b", 6.0)
//!     .build()
//!     .unwrap();
//!
//! let scored = NoiseCorrected::default().score(&graph).unwrap();
//! // Keep edges at least 1.64 standard deviations above the null expectation
//! // (roughly a one-tailed p-value of 0.05).
//! let backbone = scored.backbone(&graph, 1.64).unwrap();
//! assert!(backbone.edge_count() <= graph.edge_count());
//! ```
//!
//! The scored-edge representation ([`ScoredEdges`]) supports thresholding by
//! the method's natural significance parameter, selecting the top-`k` edges,
//! or selecting a fixed share of edges — the latter two are what the paper's
//! evaluation sweeps (coverage, quality, stability) use to compare methods at
//! equal backbone sizes.
//!
//! # The pipeline
//!
//! The [`Pipeline`] type composes the whole flow — method selection
//! ([`Method`]), scoring, and a pruning [`ThresholdPolicy`] — behind one
//! `run` call. It is the engine of the `backbone` command-line tool and of
//! the paper's reproduction binaries alike:
//!
//! ```
//! use backboning::{Pipeline, Method, ThresholdPolicy};
//! use backboning_graph::io::{read_edge_list_str, EdgeListOptions};
//! use backboning_graph::Direction;
//!
//! let edge_list = "hub a 10\nhub b 10\nhub c 12\nhub d 11\na b 6\n";
//! let options = EdgeListOptions::with_direction(Direction::Undirected);
//! let graph = read_edge_list_str(edge_list, &options).unwrap();
//!
//! let run = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopK(3))
//!     .run(&graph)
//!     .unwrap();
//! assert_eq!(run.kept.len(), 3);
//! assert!(run.coverage > 0.0 && run.coverage <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod disparity;
pub mod doubly_stochastic;
pub mod error;
pub mod high_salience;
pub mod json;
pub mod method;
pub mod naive;
pub mod noise_corrected;
pub mod pipeline;
pub mod scored;
pub mod spanning_tree;
mod totals;

pub use delta::{
    apply_batch, delta_rescore, delta_rescore_all, delta_rescore_in_place, DeltaStrategy,
};
pub use disparity::DisparityFilter;
pub use doubly_stochastic::DoublyStochastic;
pub use error::{BackboneError, BackboneResult};
pub use high_salience::HighSalienceSkeleton;
pub use method::Method;
pub use naive::NaiveThreshold;
pub use noise_corrected::{NoiseCorrected, NoiseCorrectedBinomial};
pub use pipeline::{Pipeline, PipelineRun, StageTimings, ThresholdPolicy};
pub use scored::{BackboneExtractor, ScoredEdge, ScoredEdges, Symmetrization};
pub use spanning_tree::MaximumSpanningTree;

/// The paper's suggested Noise-Corrected threshold for a one-tailed p ≈ 0.10.
pub const DELTA_P10: f64 = 1.28;
/// The paper's suggested Noise-Corrected threshold for a one-tailed p ≈ 0.05.
pub const DELTA_P05: f64 = 1.64;
/// The paper's suggested Noise-Corrected threshold for a one-tailed p ≈ 0.01.
pub const DELTA_P01: f64 = 2.32;
