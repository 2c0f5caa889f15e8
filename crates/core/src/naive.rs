//! The naive weight-threshold backbone.
//!
//! The simplest possible approach (paper, Section III-B): keep every edge
//! whose raw weight exceeds an arbitrary threshold `δ`. The paper uses it as
//! the floor any principled method must beat; its known failure modes —
//! meaningless thresholds under broad weight distributions and wholesale
//! removal of weakly-connected regions — are exactly what the evaluation
//! criteria expose.

use backboning_graph::{EdgeRef, GraphView, WeightedGraph};

use crate::error::BackboneResult;
use crate::scored::{BackboneExtractor, ScoredEdges};

/// The naive-threshold backbone extractor: the score of an edge is its raw weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NaiveThreshold;

impl NaiveThreshold {
    /// Create the extractor.
    pub fn new() -> Self {
        NaiveThreshold
    }

    /// Score every edge of any graph representation with an explicit worker
    /// count (`0` = automatic). The score of an edge is its raw weight.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        ScoredEdges::score_edges(BackboneExtractor::name(self), graph, threads, [], |edge| {
            Ok(score_edge(edge))
        })
    }
}

/// The naive score of one edge, `(weight, [])` — shared with the
/// incremental rescoring path in [`crate::delta`].
pub(crate) fn score_edge(edge: EdgeRef) -> (f64, [f64; 0]) {
    (edge.weight, [])
}

impl BackboneExtractor for NaiveThreshold {
    fn name(&self) -> &'static str {
        "naive_threshold"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{Direction, GraphBuilder, WeightedGraph};

    #[test]
    fn score_equals_weight() {
        let graph = GraphBuilder::directed()
            .indexed_edge(0, 1, 3.5)
            .indexed_edge(1, 2, 0.5)
            .build()
            .unwrap();
        let scored = NaiveThreshold::new().score(&graph).unwrap();
        for edge in scored.iter() {
            assert_eq!(edge.score, edge.weight);
        }
    }

    #[test]
    fn thresholding_keeps_heavy_edges() {
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 1.0)
            .indexed_edge(2, 3, 5.0)
            .build()
            .unwrap();
        let backbone = NaiveThreshold::new().extract(&graph, 4.0).unwrap();
        assert_eq!(backbone.edge_count(), 2);
        assert!(backbone.has_edge(0, 1));
        assert!(backbone.has_edge(2, 3));
        assert!(!backbone.has_edge(1, 2));
    }

    #[test]
    fn naive_threshold_can_isolate_weak_nodes() {
        // The known failure mode: node 3 only has weak edges, so any threshold
        // that prunes noise also disconnects it entirely.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 100.0)
            .indexed_edge(0, 2, 90.0)
            .indexed_edge(1, 2, 95.0)
            .indexed_edge(0, 3, 1.0)
            .indexed_edge(1, 3, 2.0)
            .build()
            .unwrap();
        let backbone = NaiveThreshold::new().extract(&graph, 50.0).unwrap();
        assert!(backbone.isolates().contains(&3));
    }

    #[test]
    fn top_k_selects_heaviest_edges() {
        let graph = GraphBuilder::directed()
            .indexed_edge(0, 1, 1.0)
            .indexed_edge(1, 2, 2.0)
            .indexed_edge(2, 3, 3.0)
            .build()
            .unwrap();
        let scored = NaiveThreshold::new().score(&graph).unwrap();
        assert_eq!(scored.top_k(1), vec![2]);
    }

    #[test]
    fn empty_graph_is_handled() {
        let empty = WeightedGraph::new(Direction::Directed);
        let scored = NaiveThreshold::new().score(&empty).unwrap();
        assert!(scored.is_empty());
    }
}
