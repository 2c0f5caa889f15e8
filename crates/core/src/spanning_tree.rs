//! The Maximum Spanning Tree backbone.
//!
//! A classic parameter-free baseline (paper, Section III-B): keep, per
//! connected component, the spanning tree of maximum total weight. It
//! guarantees full node coverage by construction, but — being a tree — it
//! destroys transitivity and community structure, which is the paper's main
//! criticism of it.

use backboning_graph::algorithms::spanning_tree::maximum_spanning_tree;
use backboning_graph::{GraphView, WeightedGraph};

use crate::error::BackboneResult;
use crate::scored::{BackboneExtractor, ScoredEdges};

/// The Maximum Spanning Tree backbone extractor.
///
/// Tree edges receive score 1, all other edges score 0, so any threshold in
/// `(0, 1]` selects exactly the spanning forest. [`MaximumSpanningTree::fixed_edge_set`]
/// returns the forest directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaximumSpanningTree;

impl MaximumSpanningTree {
    /// Create the extractor.
    pub fn new() -> Self {
        MaximumSpanningTree
    }

    /// The maximum spanning forest as dense edge indices.
    pub fn fixed_edge_set<G: GraphView>(&self, graph: &G) -> Vec<usize> {
        maximum_spanning_tree(graph)
    }

    /// Convenience: build the spanning-forest backbone graph.
    pub fn extract_fixed<G: GraphView>(&self, graph: &G) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.fixed_edge_set(graph))?)
    }

    /// Score every edge of any graph representation (tree edges score 1, the
    /// rest 0). Kruskal is inherently sequential; `threads` only splits the
    /// pass that writes the scores.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let mut in_tree = vec![false; graph.edge_count()];
        for index in maximum_spanning_tree(graph) {
            in_tree[index] = true;
        }
        ScoredEdges::score_edges(BackboneExtractor::name(self), graph, threads, [], |edge| {
            Ok((if in_tree[edge.index] { 1.0 } else { 0.0 }, []))
        })
    }
}

impl BackboneExtractor for MaximumSpanningTree {
    fn name(&self) -> &'static str {
        "maximum_spanning_tree"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::algorithms::components::{component_count, is_connected};
    use backboning_graph::generators::complete_graph;
    use backboning_graph::{Direction, WeightedGraph};

    #[test]
    fn tree_edges_get_unit_score() {
        let graph = WeightedGraph::from_edges(
            Direction::Undirected,
            3,
            vec![(0, 1, 1.0), (1, 2, 3.0), (0, 2, 2.0)],
        )
        .unwrap();
        let scored = MaximumSpanningTree::new().score(&graph).unwrap();
        let selected = scored.filter(0.5);
        assert_eq!(selected.len(), 2);
        // The weakest edge (weight 1) is dropped.
        assert!(!selected.contains(&0));
    }

    #[test]
    fn backbone_preserves_connectivity_and_coverage() {
        let graph = complete_graph(10, 1.0).unwrap();
        let backbone = MaximumSpanningTree::new().extract_fixed(&graph).unwrap();
        assert_eq!(backbone.node_count(), 10);
        assert_eq!(backbone.edge_count(), 9);
        assert!(is_connected(&backbone));
        assert!(backbone.isolates().is_empty());
    }

    #[test]
    fn forest_on_disconnected_input() {
        let graph = WeightedGraph::from_edges(
            Direction::Undirected,
            6,
            vec![(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 2.0)],
        )
        .unwrap();
        let backbone = MaximumSpanningTree::new().extract_fixed(&graph).unwrap();
        assert_eq!(component_count(&backbone), 2);
        assert_eq!(backbone.edge_count(), 4);
    }

    #[test]
    fn fixed_edge_set_matches_scored_filter() {
        let graph = complete_graph(7, 1.0).unwrap();
        let mst = MaximumSpanningTree::new();
        let fixed = mst.fixed_edge_set(&graph);
        let scored = mst.score(&graph).unwrap();
        let mut filtered = scored.filter(0.5);
        filtered.sort_unstable();
        assert_eq!(fixed, filtered);
    }

    #[test]
    fn empty_graph_is_handled() {
        let empty = WeightedGraph::undirected();
        let scored = MaximumSpanningTree::new().score(&empty).unwrap();
        assert!(scored.is_empty());
        assert!(MaximumSpanningTree::new().fixed_edge_set(&empty).is_empty());
    }
}
