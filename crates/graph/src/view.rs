//! The read-only graph abstraction shared by both representations.
//!
//! Every backboning method consumes a graph through the same narrow,
//! edge-id-ordered surface: the edge list in dense-id order, per-node
//! degrees, direction semantics and a way to materialize a backbone
//! subgraph. [`GraphView`] captures exactly that surface, so the scoring and
//! selection pipeline is written once and monomorphizes over both the
//! mutable adjacency-map [`WeightedGraph`] (builder/compat shim) and the
//! compact [`CsrGraph`] core — with *identical* floating-point evaluation
//! order, which is what makes the two paths bit-identical (pinned by the
//! parity suite).
//!
//! [`GraphView::subgraph_with_edges`] materializes a backbone as a
//! [`WeightedGraph`] for callers that need a graph; writing one needs no
//! subgraph at all ([`crate::io::write_edges`] reads the kept edges from the
//! input graph by id).

use std::borrow::Cow;
use std::ops::Range;

use crate::csr::CsrGraph;
use crate::error::GraphResult;
use crate::graph::{Direction, EdgeRef, NodeId, WeightedGraph};

/// Read-only access to a weighted graph in dense edge-id order.
///
/// Implementors guarantee:
///
/// * [`edge`](GraphView::edge) returns `Some` exactly for
///   `0..edge_count()`, and undirected edges carry canonical
///   `(min, max)` endpoints;
/// * [`edges`](GraphView::edges) yields every edge in ascending dense-id
///   order (the insertion/first-occurrence order);
/// * degree semantics match [`WeightedGraph`]: for undirected graphs
///   `degree` counts incident edges (self-loops once) and equals both
///   `out_degree` and `in_degree`; for directed graphs `degree` is
///   `out_degree + in_degree`.
///
/// A view is read-only, so it is `Sync`: scoring workers read one graph
/// from several threads at once.
pub trait GraphView: Sync {
    /// Direction semantics of the graph.
    fn direction(&self) -> Direction;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Number of edges.
    fn edge_count(&self) -> usize;

    /// The edge with dense id `index`, if it exists.
    fn edge(&self, index: usize) -> Option<EdgeRef>;

    /// Out-degree of `node`.
    fn out_degree(&self, node: NodeId) -> usize;

    /// In-degree of `node`.
    fn in_degree(&self, node: NodeId) -> usize;

    /// Degree of `node` (see the trait docs for the exact semantics).
    fn degree(&self, node: NodeId) -> usize;

    /// The label of `node`, if it has one.
    fn label(&self, node: NodeId) -> Option<&str>;

    /// Sum of all edge weights (each edge once).
    fn total_weight(&self) -> f64;

    /// Number of nodes with at least one incident edge.
    fn non_isolated_node_count(&self) -> usize;

    /// Materialize the subgraph keeping only the listed dense edge ids,
    /// with the full node set and labels preserved.
    fn subgraph_with_edges(&self, edge_indices: &[usize]) -> GraphResult<WeightedGraph>;

    /// The compact CSR form of this graph — borrowed when the graph already
    /// is one, built on the fly otherwise.
    fn to_csr(&self) -> GraphResult<Cow<'_, CsrGraph>>;

    /// Whether the graph is directed.
    fn is_directed(&self) -> bool {
        self.direction() == Direction::Directed
    }

    /// Iterator over all node ids.
    fn nodes(&self) -> Range<NodeId> {
        0..self.node_count()
    }

    /// Iterate over all edges in dense-id order.
    fn edges(&self) -> ViewEdges<'_, Self>
    where
        Self: Sized,
    {
        ViewEdges {
            graph: self,
            range: 0..self.edge_count(),
        }
    }
}

/// The edge iterator of [`GraphView::edges`].
#[derive(Debug, Clone)]
pub struct ViewEdges<'a, G: GraphView> {
    graph: &'a G,
    range: Range<usize>,
}

impl<G: GraphView> Iterator for ViewEdges<'_, G> {
    type Item = EdgeRef;

    fn next(&mut self) -> Option<EdgeRef> {
        self.range
            .next()
            .map(|index| self.graph.edge(index).expect("edge index in range"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl<G: GraphView> ExactSizeIterator for ViewEdges<'_, G> {}

impl GraphView for WeightedGraph {
    fn direction(&self) -> Direction {
        WeightedGraph::direction(self)
    }

    fn node_count(&self) -> usize {
        WeightedGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        WeightedGraph::edge_count(self)
    }

    fn edge(&self, index: usize) -> Option<EdgeRef> {
        WeightedGraph::edge(self, index)
    }

    fn out_degree(&self, node: NodeId) -> usize {
        WeightedGraph::out_degree(self, node)
    }

    fn in_degree(&self, node: NodeId) -> usize {
        WeightedGraph::in_degree(self, node)
    }

    fn degree(&self, node: NodeId) -> usize {
        WeightedGraph::degree(self, node)
    }

    fn label(&self, node: NodeId) -> Option<&str> {
        WeightedGraph::label(self, node)
    }

    fn total_weight(&self) -> f64 {
        WeightedGraph::total_weight(self)
    }

    fn non_isolated_node_count(&self) -> usize {
        WeightedGraph::non_isolated_node_count(self)
    }

    fn subgraph_with_edges(&self, edge_indices: &[usize]) -> GraphResult<WeightedGraph> {
        WeightedGraph::subgraph_with_edges(self, edge_indices)
    }

    fn to_csr(&self) -> GraphResult<Cow<'_, CsrGraph>> {
        CsrGraph::from_graph(self).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 3.0)],
        )
        .unwrap()
    }

    /// The same generic function run through both implementations.
    fn summarize<G: GraphView>(graph: &G) -> (usize, usize, f64, Vec<(usize, usize, f64)>) {
        (
            graph.node_count(),
            graph.edge_count(),
            graph.total_weight(),
            graph
                .edges()
                .map(|edge| (edge.source, edge.target, edge.weight))
                .collect(),
        )
    }

    #[test]
    fn both_representations_expose_the_same_view() {
        let graph = triangle();
        let csr = CsrGraph::from_graph(&graph).unwrap();
        assert_eq!(summarize(&graph), summarize(&csr));
        for node in GraphView::nodes(&graph) {
            assert_eq!(
                GraphView::degree(&graph, node),
                GraphView::degree(&csr, node)
            );
            assert_eq!(GraphView::label(&graph, node), GraphView::label(&csr, node));
        }
    }

    #[test]
    fn to_csr_borrows_when_already_compact() {
        let graph = triangle();
        let csr = CsrGraph::from_graph(&graph).unwrap();
        assert!(matches!(GraphView::to_csr(&csr).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(GraphView::to_csr(&graph).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn view_edges_is_exact_size() {
        let graph = triangle();
        let edges = GraphView::edges(&graph);
        assert_eq!(edges.len(), 3);
        assert_eq!(edges.count(), 3);
    }
}
