//! The Doubly-Stochastic backbone (Slater, 2009).
//!
//! A two-stage structural method (paper, Section III-B): first the adjacency
//! matrix is transformed into a doubly-stochastic matrix by alternately
//! normalising rows and columns (Sinkhorn–Knopp); then edges are added to the
//! backbone in order of decreasing normalised weight until every node belongs
//! to a single connected component.
//!
//! Limitations reproduced from the paper:
//!
//! * the adjacency matrix must be square with no all-zero row or column, and
//!   not every such matrix admits a doubly-stochastic scaling (Sinkhorn 1964) —
//!   this is why the method is reported as "n/a" for several of the paper's
//!   networks;
//! * the method has no parameter, so it appears as a single point (rather than
//!   a sweep) in the coverage and stability figures;
//! * the dense normalisation makes it far slower than NC/DF/NT on large
//!   networks (Figure 9).

use backboning_graph::algorithms::union_find::UnionFind;
use backboning_graph::matrix::AdjacencyMatrix;
use backboning_graph::{GraphView, WeightedGraph};

use crate::error::{BackboneError, BackboneResult};
use crate::scored::{BackboneExtractor, ScoredEdges};

/// The Doubly-Stochastic backbone extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoublyStochastic {
    /// Convergence tolerance of the Sinkhorn–Knopp iteration.
    pub tolerance: f64,
    /// Maximum number of Sinkhorn–Knopp sweeps before giving up.
    pub max_iterations: usize,
}

impl Default for DoublyStochastic {
    fn default() -> Self {
        DoublyStochastic {
            tolerance: 1e-9,
            max_iterations: 1_000,
        }
    }
}

impl DoublyStochastic {
    /// Create the extractor with default convergence settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Score every edge with its doubly-stochastic weight, with an explicit
    /// worker count (`0` = automatic).
    ///
    /// The Sinkhorn–Knopp sweeps are inherently sequential (each sweep reads
    /// the previous one), but the per-edge read-out of the scaled matrix is
    /// split across workers; per-edge values are independent, so the result
    /// is thread-count invariant.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let name = BackboneExtractor::name(self);
        if graph.edge_count() == 0 {
            return ScoredEdges::score_edges(name, graph, threads, [], |_| Ok((0.0, [])));
        }
        let doubly_stochastic = AdjacencyMatrix::from_graph(graph)
            .and_then(|matrix| matrix.sinkhorn_knopp(self.tolerance, self.max_iterations))
            .map_err(|err| BackboneError::UnsupportedGraph {
                method: "doubly_stochastic",
                message: err.to_string(),
            })?;
        let directed = graph.is_directed();
        ScoredEdges::score_edges(name, graph, threads, [], |edge| {
            let forward = doubly_stochastic.get(edge.source, edge.target);
            let score = if directed {
                forward
            } else {
                // The scaled matrix is generally *not* symmetric even for a
                // symmetric input; use the larger orientation.
                forward.max(doubly_stochastic.get(edge.target, edge.source))
            };
            Ok((score, []))
        })
    }

    /// The paper's parameter-free backbone: add edges in decreasing
    /// doubly-stochastic weight until all non-isolated nodes of the original
    /// graph belong to one connected component, then stop. Returns the dense
    /// edge indices of the selected edges.
    pub fn fixed_edge_set<G: GraphView>(&self, graph: &G) -> BackboneResult<Vec<usize>> {
        let scored = self.score_with_threads(graph, 0)?;
        Ok(Self::fixed_edge_set_from_scores(graph, &scored))
    }

    /// [`DoublyStochastic::fixed_edge_set`], reusing an already-computed score
    /// set (the scores *are* the doubly-stochastic weights) so the Sinkhorn
    /// normalisation does not run a second time. Bit-identical to recomputing.
    pub fn fixed_edge_set_from_scores<G: GraphView>(graph: &G, scored: &ScoredEdges) -> Vec<usize> {
        let weights = scored.scores();
        let mut order: Vec<usize> = (0..graph.edge_count()).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });

        // Target connectivity: every node that is non-isolated in the original
        // graph must end up in a single component.
        let relevant: Vec<usize> = graph.nodes().filter(|&n| graph.degree(n) > 0).collect();
        let mut union_find = UnionFind::new(graph.node_count());
        let mut selected = Vec::new();
        let mut connected_components_remaining = relevant.len();

        for index in order {
            if connected_components_remaining <= 1 {
                break;
            }
            let edge = graph.edge(index).expect("index in range");
            selected.push(index);
            if union_find.union(edge.source, edge.target) {
                connected_components_remaining -= 1;
            }
        }
        selected.sort_unstable();
        selected
    }

    /// Convenience: build the parameter-free backbone graph.
    pub fn extract_fixed<G: GraphView>(&self, graph: &G) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.fixed_edge_set(graph)?)?)
    }
}

impl BackboneExtractor for DoublyStochastic {
    fn name(&self) -> &'static str {
        "doubly_stochastic"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::algorithms::components::is_connected;
    use backboning_graph::{Direction, WeightedGraph};

    /// A dense directed graph on which the Sinkhorn scaling always exists.
    fn dense_directed(n: usize) -> WeightedGraph {
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    graph
                        .add_edge(i, j, 1.0 + ((i * 7 + j * 3) % 5) as f64)
                        .unwrap();
                }
            }
        }
        graph
    }

    #[test]
    fn normalised_scores_are_positive_and_bounded() {
        let graph = dense_directed(6);
        let scored = DoublyStochastic::new().score(&graph).unwrap();
        for edge in scored.iter() {
            assert!(edge.score > 0.0);
            assert!(edge.score <= 1.0);
        }
    }

    #[test]
    fn normalisation_boosts_edges_of_weak_nodes() {
        // Two nodes with very different total strengths: the doubly-stochastic
        // transformation re-weights their edges onto a comparable scale, so an
        // edge that dominates a weak node's budget scores higher than one that
        // is a small share of a strong node's budget, even at equal raw weight.
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 4);
        // Strong node 0 spreads 300 across three edges; weak node 3 has a single outgoing edge.
        graph.add_edge(0, 1, 100.0).unwrap();
        graph.add_edge(0, 2, 100.0).unwrap();
        graph.add_edge(0, 3, 100.0).unwrap();
        graph.add_edge(1, 2, 10.0).unwrap();
        graph.add_edge(1, 0, 10.0).unwrap();
        graph.add_edge(2, 3, 10.0).unwrap();
        graph.add_edge(2, 0, 5.0).unwrap();
        graph.add_edge(3, 0, 10.0).unwrap();
        graph.add_edge(1, 3, 1.0).unwrap();
        graph.add_edge(3, 1, 1.0).unwrap();
        graph.add_edge(2, 1, 1.0).unwrap();
        graph.add_edge(3, 2, 1.0).unwrap();

        let scored = DoublyStochastic::new().score(&graph).unwrap();
        let weak_nodes_edge = scored.get(graph.edge_index(3, 0).unwrap()).unwrap();
        let strong_nodes_edge = scored.get(graph.edge_index(0, 1).unwrap()).unwrap();
        assert!(weak_nodes_edge.score > strong_nodes_edge.score * 0.5);
    }

    #[test]
    fn fixed_edge_set_connects_all_non_isolated_nodes() {
        let graph = dense_directed(8);
        let ds = DoublyStochastic::new();
        let backbone = ds.extract_fixed(&graph).unwrap();
        assert_eq!(backbone.node_count(), graph.node_count());
        assert!(is_connected(&backbone));
        assert!(backbone.edge_count() < graph.edge_count());
        assert!(backbone.edge_count() >= graph.node_count() - 1);
    }

    #[test]
    fn fixed_edge_set_is_deterministic() {
        let graph = dense_directed(7);
        let ds = DoublyStochastic::new();
        assert_eq!(
            ds.fixed_edge_set(&graph).unwrap(),
            ds.fixed_edge_set(&graph).unwrap()
        );
    }

    #[test]
    fn graphs_without_scaling_are_rejected() {
        // A directed path: the first node has no incoming edges (zero column),
        // so no doubly-stochastic scaling exists — mirroring the "n/a" entries
        // of the paper's Table II.
        let graph =
            WeightedGraph::from_edges(Direction::Directed, 3, vec![(0, 1, 1.0), (1, 2, 1.0)])
                .unwrap();
        let result = DoublyStochastic::new().score(&graph);
        assert!(matches!(
            result,
            Err(BackboneError::UnsupportedGraph { .. })
        ));
    }

    #[test]
    fn undirected_graphs_are_supported() {
        let mut graph = WeightedGraph::with_nodes(Direction::Undirected, 5);
        for i in 0..5usize {
            for j in (i + 1)..5usize {
                graph.add_edge(i, j, 1.0 + (i + j) as f64).unwrap();
            }
        }
        let ds = DoublyStochastic::new();
        let scored = ds.score(&graph).unwrap();
        assert_eq!(scored.len(), graph.edge_count());
        let backbone = ds.extract_fixed(&graph).unwrap();
        assert!(is_connected(&backbone));
    }

    #[test]
    fn empty_graph_is_handled() {
        let empty = WeightedGraph::directed();
        let scored = DoublyStochastic::new().score(&empty).unwrap();
        assert!(scored.is_empty());
        assert!(DoublyStochastic::new()
            .fixed_edge_set(&empty)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn isolated_nodes_make_the_scaling_impossible() {
        // An isolated node contributes an all-zero row and column, so no
        // doubly-stochastic scaling exists — the same structural limitation
        // that makes the method "n/a" on several of the paper's networks.
        let mut graph = dense_directed(5);
        graph.add_node(); // isolated node 5
        let ds = DoublyStochastic::new();
        assert!(matches!(
            ds.fixed_edge_set(&graph),
            Err(BackboneError::UnsupportedGraph { .. })
        ));
    }
}
