//! # backboning-server
//!
//! A concurrent HTTP serving subsystem for the backboning pipeline, with a
//! **scored-graph cache**: the paper's methods (Coscia & Neffke, ICDE 2017)
//! score every edge once, and only the threshold policy varies per query —
//! so a long-lived server that caches [`backboning::ScoredEdges`] per
//! `(graph, method)` turns threshold sweeping (the paper's fig. 7/8
//! workflow) from a full recompute into a microsecond re-selection.
//!
//! The server is std-only (`std::net::TcpListener`, hand-rolled HTTP/1.1 in
//! [`http`]), sized by the same thread-count resolution as the
//! `backboning_parallel` scoring engine, and exposed as the `backbone serve`
//! subcommand of the CLI. Architecture:
//!
//! ```text
//!   TcpListener ──accept──▶ mpsc ──▶ worker pool (≥ 4 threads)
//!                                       │  http::read_request
//!                                       ▼
//!                                   router::handle ──▶ registry::Registry
//!                                       │                 graphs: name → CsrGraph (compact u32 core)
//!                                       │                 cache:  (graph, method) → ScoredEdges (LRU)
//!                                       ▼
//!                            Pipeline::run_with_scores   (select only — scores reused;
//!                                                         top-k/share/coverage read a
//!                                                         prefix of the set's rank order)
//! ```
//!
//! Responses reuse the CLI's writers (TSV backbone/score tables, JSON
//! summaries via `backboning::json`), and the served summary excludes wall
//! time, so **a cache-hit response is byte-identical to the cold one** — the
//! integration suite pins that down, concurrently, at several worker
//! counts.
//!
//! ## Example
//!
//! ```
//! use backboning_server::{Server, ServerConfig};
//! use backboning_graph::io::{read_edge_list_csr_str, EdgeListOptions};
//! use backboning_graph::Direction;
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let graph = read_edge_list_csr_str(
//!     "a b 2\nb c 1\n",
//!     &EdgeListOptions::with_direction(Direction::Undirected),
//! )
//! .unwrap();
//! server.registry().insert("tiny", graph).unwrap();
//! assert_eq!(server.registry().graph_count(), 1);
//! server.shutdown(); // drains the pool and joins every thread
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod patch;
pub mod registry;
pub mod router;
pub mod server;

pub use metrics::ServerMetrics;
pub use registry::{CacheCounters, GraphEntry, GraphState, PatchOutcome, Registry};
pub use server::{Server, ServerConfig, ServerControl, ServerError, MIN_WORKERS};
