//! The central weighted-graph representation.

use std::collections::HashMap;

use crate::error::{GraphError, GraphResult};
use crate::labels::LabelTable;

/// Node identifier: a dense index in `0..node_count()`.
pub type NodeId = usize;

/// Whether a graph's edges are directed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Edges `(i, j)` and `(j, i)` are distinct.
    Directed,
    /// Edges `(i, j)` and `(j, i)` are the same edge.
    Undirected,
}

/// A stored edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source endpoint (for undirected graphs: the smaller endpoint).
    pub source: NodeId,
    /// Target endpoint (for undirected graphs: the larger endpoint).
    pub target: NodeId,
    /// Non-negative, finite edge weight.
    pub weight: f64,
}

/// A lightweight copyable reference to an edge, including its dense index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Dense index of the edge in insertion order.
    pub index: usize,
    /// Source endpoint.
    pub source: NodeId,
    /// Target endpoint.
    pub target: NodeId,
    /// Edge weight.
    pub weight: f64,
}

/// Concrete iterator over a node's incoming `(neighbor, weight)` pairs.
///
/// Returned by [`WeightedGraph::in_neighbors`]. Both direction variants share
/// one representation: an adjacency slice (the in-list for directed graphs,
/// the incident list for undirected ones) resolved against the edge store.
#[derive(Debug, Clone)]
pub struct InNeighbors<'a> {
    edges: &'a [Edge],
    adjacency: std::slice::Iter<'a, (NodeId, usize)>,
}

impl Iterator for InNeighbors<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        self.adjacency
            .next()
            .map(|&(neighbor, index)| (neighbor, self.edges[index].weight))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.adjacency.size_hint()
    }
}

impl ExactSizeIterator for InNeighbors<'_> {}

/// A weighted graph `G = (V, E, N)` with non-negative real edge weights,
/// stored as adjacency lists with an auxiliary hash index for O(1) edge
/// lookup.
///
/// Nodes are dense indices; an optional string label can be attached to each
/// node (country codes, occupation titles, ...), kept in a [`LabelTable`].
/// For undirected graphs each edge is stored once with its endpoints in
/// canonical (smaller, larger) order, and adjacency lists are symmetric.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    direction: Direction,
    labels: LabelTable,
    edges: Vec<Edge>,
    /// For each node, the list of (neighbor, edge index) pairs for outgoing
    /// edges (or all incident edges in the undirected case).
    out_adjacency: Vec<Vec<(NodeId, usize)>>,
    /// For each node, the list of (neighbor, edge index) pairs for incoming
    /// edges. Unused (empty lists) in the undirected case.
    in_adjacency: Vec<Vec<(NodeId, usize)>>,
    edge_lookup: HashMap<(NodeId, NodeId), usize>,
}

impl WeightedGraph {
    /// Create an empty graph with the given edge direction semantics.
    pub fn new(direction: Direction) -> Self {
        WeightedGraph {
            direction,
            labels: LabelTable::new(),
            edges: Vec::new(),
            out_adjacency: Vec::new(),
            in_adjacency: Vec::new(),
            edge_lookup: HashMap::new(),
        }
    }

    /// Create an empty directed graph.
    pub fn directed() -> Self {
        Self::new(Direction::Directed)
    }

    /// Create an empty undirected graph.
    pub fn undirected() -> Self {
        Self::new(Direction::Undirected)
    }

    /// Create a graph with `n` unlabeled nodes and no edges.
    pub fn with_nodes(direction: Direction, n: usize) -> Self {
        let mut graph = Self::new(direction);
        for _ in 0..n {
            graph.add_node();
        }
        graph
    }

    /// An edgeless graph on `node_count` nodes labelled by `labels`.
    pub(crate) fn with_label_table(
        direction: Direction,
        node_count: usize,
        labels: LabelTable,
    ) -> Self {
        let mut graph = Self::with_nodes(direction, node_count);
        graph.labels = labels;
        graph
    }

    /// The graph's label table.
    pub(crate) fn label_table(&self) -> &LabelTable {
        &self.labels
    }

    /// The graph's direction semantics.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_adjacency.len()
    }

    /// Number of stored edges (each undirected edge counts once).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count()
    }

    /// Add an unlabeled node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.out_adjacency.len();
        self.out_adjacency.push(Vec::new());
        self.in_adjacency.push(Vec::new());
        id
    }

    /// Add a labeled node and return its id.
    ///
    /// Returns an error if the label already exists, or if the label table
    /// is full (see [`LabelTable`]).
    pub fn add_labeled_node(&mut self, label: impl Into<String>) -> GraphResult<NodeId> {
        let label = label.into();
        if self.labels.get(&label).is_some() {
            return Err(GraphError::InvalidParameter {
                parameter: "label",
                message: format!("label `{label}` already exists"),
            });
        }
        self.intern_node(&label)
    }

    /// Return the node with the given label, creating it if necessary.
    ///
    /// # Panics
    ///
    /// If the label table is full: past `u32::MAX` labelled nodes or
    /// [`LABEL_BYTES_LIMIT`](crate::labels::LABEL_BYTES_LIMIT) label bytes.
    /// The edge-list readers report that as an error instead.
    pub fn ensure_node(&mut self, label: &str) -> NodeId {
        self.intern_node(label)
            .expect("label table capacity exceeded")
    }

    /// [`WeightedGraph::ensure_node`], returning a full label table as an
    /// error.
    pub(crate) fn intern_node(&mut self, label: &str) -> GraphResult<NodeId> {
        let next = self.node_count();
        let id = self.labels.intern(label, next)?;
        if id == next {
            self.add_node();
        }
        Ok(id)
    }

    /// The label of a node, if it has one.
    pub fn label(&self, node: NodeId) -> Option<&str> {
        self.labels.label(node)
    }

    /// Look up a node by label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.get(label)
    }

    fn check_node(&self, node: NodeId) -> GraphResult<()> {
        if node >= self.node_count() {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        } else {
            Ok(())
        }
    }

    fn check_weight(weight: f64) -> GraphResult<()> {
        if !weight.is_finite() || weight < 0.0 {
            Err(GraphError::InvalidWeight { weight })
        } else {
            Ok(())
        }
    }

    fn canonical_key(&self, source: NodeId, target: NodeId) -> (NodeId, NodeId) {
        match self.direction {
            Direction::Directed => (source, target),
            Direction::Undirected => {
                if source <= target {
                    (source, target)
                } else {
                    (target, source)
                }
            }
        }
    }

    /// Add weight to the edge `(source, target)`, creating the edge if it does
    /// not exist yet. Returns the edge's dense index.
    ///
    /// Accumulation (rather than replacement) matches the count-data semantics
    /// of the paper: edge weights are sums of unitary interactions.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: f64) -> GraphResult<usize> {
        self.check_node(source)?;
        self.check_node(target)?;
        Self::check_weight(weight)?;
        let key = self.canonical_key(source, target);
        if let Some(&index) = self.edge_lookup.get(&key) {
            self.edges[index].weight += weight;
            return Ok(index);
        }
        self.insert_new_edge(key, weight)
    }

    /// Set the weight of the edge `(source, target)`, creating the edge if it
    /// does not exist yet. Returns the edge's dense index.
    pub fn set_edge_weight(
        &mut self,
        source: NodeId,
        target: NodeId,
        weight: f64,
    ) -> GraphResult<usize> {
        self.check_node(source)?;
        self.check_node(target)?;
        Self::check_weight(weight)?;
        let key = self.canonical_key(source, target);
        if let Some(&index) = self.edge_lookup.get(&key) {
            self.edges[index].weight = weight;
            return Ok(index);
        }
        self.insert_new_edge(key, weight)
    }

    fn insert_new_edge(&mut self, key: (NodeId, NodeId), weight: f64) -> GraphResult<usize> {
        let (source, target) = key;
        let index = self.edges.len();
        self.edges.push(Edge {
            source,
            target,
            weight,
        });
        self.edge_lookup.insert(key, index);
        match self.direction {
            Direction::Directed => {
                self.out_adjacency[source].push((target, index));
                self.in_adjacency[target].push((source, index));
            }
            Direction::Undirected => {
                self.out_adjacency[source].push((target, index));
                if source != target {
                    self.out_adjacency[target].push((source, index));
                }
            }
        }
        Ok(index)
    }

    /// The weight of the edge `(source, target)`, if present.
    pub fn edge_weight(&self, source: NodeId, target: NodeId) -> Option<f64> {
        if source >= self.node_count() || target >= self.node_count() {
            return None;
        }
        let key = self.canonical_key(source, target);
        self.edge_lookup
            .get(&key)
            .map(|&index| self.edges[index].weight)
    }

    /// Whether the edge `(source, target)` exists.
    pub fn has_edge(&self, source: NodeId, target: NodeId) -> bool {
        self.edge_weight(source, target).is_some()
    }

    /// The dense index of the edge `(source, target)`, if present.
    pub fn edge_index(&self, source: NodeId, target: NodeId) -> Option<usize> {
        if source >= self.node_count() || target >= self.node_count() {
            return None;
        }
        let key = self.canonical_key(source, target);
        self.edge_lookup.get(&key).copied()
    }

    /// The stored edge at a dense index.
    pub fn edge(&self, index: usize) -> Option<EdgeRef> {
        self.edges.get(index).map(|e| EdgeRef {
            index,
            source: e.source,
            target: e.target,
            weight: e.weight,
        })
    }

    /// Iterator over all stored edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges.iter().enumerate().map(|(index, e)| EdgeRef {
            index,
            source: e.source,
            target: e.target,
            weight: e.weight,
        })
    }

    /// Outgoing neighbors of a node as `(neighbor, weight)` pairs.
    ///
    /// For undirected graphs this is simply the set of incident edges.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.out_adjacency
            .get(node)
            .into_iter()
            .flatten()
            .map(move |&(neighbor, index)| (neighbor, self.edges[index].weight))
    }

    /// Incoming neighbors of a node as `(neighbor, weight)` pairs.
    ///
    /// For undirected graphs this is identical to [`Self::out_neighbors`].
    /// Returns a concrete iterator (not a boxed `dyn Iterator`), so per-node
    /// strength loops compile down to plain slice walks.
    pub fn in_neighbors(&self, node: NodeId) -> InNeighbors<'_> {
        let adjacency = match self.direction {
            Direction::Directed => self.in_adjacency.get(node),
            Direction::Undirected => self.out_adjacency.get(node),
        };
        InNeighbors {
            edges: &self.edges,
            adjacency: adjacency.map_or([].iter(), |list| list.iter()),
        }
    }

    /// Incident edge indices of a node (outgoing edges for directed graphs).
    pub fn out_edge_indices(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.out_adjacency
            .get(node)
            .into_iter()
            .flatten()
            .map(|&(_, index)| index)
    }

    /// Out-degree of a node (number of incident edges for undirected graphs).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adjacency.get(node).map_or(0, |adj| adj.len())
    }

    /// In-degree of a node (same as [`Self::out_degree`] for undirected graphs).
    pub fn in_degree(&self, node: NodeId) -> usize {
        match self.direction {
            Direction::Directed => self.in_adjacency.get(node).map_or(0, |adj| adj.len()),
            Direction::Undirected => self.out_degree(node),
        }
    }

    /// Total degree: out-degree plus in-degree for directed graphs, number of
    /// incident edges for undirected graphs.
    pub fn degree(&self, node: NodeId) -> usize {
        match self.direction {
            Direction::Directed => self.out_degree(node) + self.in_degree(node),
            Direction::Undirected => self.out_degree(node),
        }
    }

    /// Total outgoing weight of a node: `N_i. = Σ_j N_ij`.
    pub fn out_strength(&self, node: NodeId) -> f64 {
        self.out_neighbors(node).map(|(_, w)| w).sum()
    }

    /// Total incoming weight of a node: `N_.j = Σ_i N_ij`.
    pub fn in_strength(&self, node: NodeId) -> f64 {
        self.in_neighbors(node).map(|(_, w)| w).sum()
    }

    /// Total weight in the network, `N_..`.
    ///
    /// For directed graphs this is the sum of all edge weights. For undirected
    /// graphs each edge contributes once (the backboning crate symmetrises the
    /// table itself when it needs both directions).
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Nodes with no incident edges at all.
    pub fn isolates(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.degree(n) == 0).collect()
    }

    /// Number of nodes that have at least one incident edge.
    pub fn non_isolated_node_count(&self) -> usize {
        self.node_count() - self.isolates().len()
    }

    /// Build a new graph with the same node set (and labels) containing only
    /// the edges whose dense indices are listed in `edge_indices`.
    pub fn subgraph_with_edges(&self, edge_indices: &[usize]) -> GraphResult<WeightedGraph> {
        let mut subgraph =
            WeightedGraph::with_label_table(self.direction, self.node_count(), self.labels.clone());
        for &index in edge_indices {
            let edge = self.edges.get(index).ok_or(GraphError::InvalidParameter {
                parameter: "edge_indices",
                message: format!("edge index {index} out of bounds"),
            })?;
            subgraph.set_edge_weight(edge.source, edge.target, edge.weight)?;
        }
        Ok(subgraph)
    }

    /// Build a new graph with the same node set keeping only edges for which
    /// the predicate returns `true`.
    pub fn filter_edges<F>(&self, mut keep: F) -> GraphResult<WeightedGraph>
    where
        F: FnMut(EdgeRef) -> bool,
    {
        let kept: Vec<usize> = self
            .edges()
            .filter(|&edge| keep(edge))
            .map(|edge| edge.index)
            .collect();
        self.subgraph_with_edges(&kept)
    }

    /// Convenience constructor: build a graph from `(source_label, target_label, weight)`
    /// triples, creating labeled nodes on the fly and accumulating duplicate edges.
    pub fn from_labeled_edges<S: AsRef<str>>(
        direction: Direction,
        triples: impl IntoIterator<Item = (S, S, f64)>,
    ) -> GraphResult<WeightedGraph> {
        let mut graph = WeightedGraph::new(direction);
        for (source, target, weight) in triples {
            let source = graph.intern_node(source.as_ref())?;
            let target = graph.intern_node(target.as_ref())?;
            graph.add_edge(source, target, weight)?;
        }
        Ok(graph)
    }

    /// Convenience constructor: build a graph on `node_count` unlabeled nodes from
    /// `(source, target, weight)` triples, accumulating duplicate edges.
    pub fn from_edges(
        direction: Direction,
        node_count: usize,
        triples: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> GraphResult<WeightedGraph> {
        let mut graph = WeightedGraph::with_nodes(direction, node_count);
        for (source, target, weight) in triples {
            graph.add_edge(source, target, weight)?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::directed();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_directed());
        assert_eq!(g.isolates(), Vec::<NodeId>::new());
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn add_nodes_and_labels() {
        let mut g = WeightedGraph::undirected();
        let a = g.add_labeled_node("USA").unwrap();
        let b = g.add_labeled_node("DEU").unwrap();
        let c = g.add_node();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.label(a), Some("USA"));
        assert_eq!(g.label(b), Some("DEU"));
        assert_eq!(g.label(c), None);
        assert_eq!(g.node_by_label("USA"), Some(a));
        assert_eq!(g.node_by_label("FRA"), None);
        assert!(g.add_labeled_node("USA").is_err());
    }

    #[test]
    fn ensure_node_is_idempotent() {
        let mut g = WeightedGraph::directed();
        let a = g.ensure_node("A");
        let again = g.ensure_node("A");
        assert_eq!(a, again);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn directed_edge_bookkeeping() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(1, 2, 3.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();

        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), None); // direction matters
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));

        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.degree(2), 2);

        assert!((g.out_strength(0) - 3.0).abs() < 1e-12);
        assert!((g.in_strength(2) - 4.0).abs() < 1e-12);
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_edge_bookkeeping() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(2, 1, 3.0).unwrap();

        assert_eq!(g.edge_count(), 2);
        // Both orientations resolve to the same edge.
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(2.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.0));

        assert_eq!(g.degree(1), 2);
        assert_eq!(g.in_degree(1), 2);
        assert!((g.out_strength(1) - 5.0).abs() < 1e-12);
        assert!((g.in_strength(1) - 5.0).abs() < 1e-12);
        assert!((g.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_edge_accumulates_and_set_replaces() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 1, 2.5).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.edge_count(), 1);

        g.set_edge_weight(0, 1, 10.0).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(10.0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn undirected_accumulation_merges_orientations() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 0, 2.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 2);
        assert!(g.add_edge(0, 5, 1.0).is_err());
        assert!(g.add_edge(5, 0, 1.0).is_err());
        assert!(g.add_edge(0, 1, -1.0).is_err());
        assert!(g.add_edge(0, 1, f64::NAN).is_err());
        assert!(g.add_edge(0, 1, f64::INFINITY).is_err());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_are_allowed_and_counted_once() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 2);
        g.add_edge(0, 0, 5.0).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 0), Some(5.0));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn neighbors_iteration() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 2, 2.0).unwrap();
        g.add_edge(3, 0, 4.0).unwrap();

        let out: Vec<(NodeId, f64)> = g.out_neighbors(0).collect();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&(1, 1.0)));
        assert!(out.contains(&(2, 2.0)));

        let incoming: Vec<(NodeId, f64)> = g.in_neighbors(0).collect();
        assert_eq!(incoming, vec![(3, 4.0)]);
    }

    #[test]
    fn isolates_and_coverage_counts() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 5);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        assert_eq!(g.isolates(), vec![3, 4]);
        assert_eq!(g.non_isolated_node_count(), 3);
    }

    #[test]
    fn subgraph_preserves_nodes_and_selected_edges() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 4);
        let e0 = g.add_edge(0, 1, 1.0).unwrap();
        let _e1 = g.add_edge(1, 2, 2.0).unwrap();
        let e2 = g.add_edge(2, 3, 3.0).unwrap();

        let sub = g.subgraph_with_edges(&[e0, e2]).unwrap();
        assert_eq!(sub.node_count(), 4);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(0, 1));
        assert!(!sub.has_edge(1, 2));
        assert!(sub.has_edge(2, 3));

        assert!(g.subgraph_with_edges(&[99]).is_err());
    }

    #[test]
    fn subgraph_preserves_labels() {
        let mut g = WeightedGraph::undirected();
        let a = g.add_labeled_node("A").unwrap();
        let b = g.add_labeled_node("B").unwrap();
        g.add_edge(a, b, 1.0).unwrap();
        let sub = g.subgraph_with_edges(&[0]).unwrap();
        assert_eq!(sub.label(a), Some("A"));
        assert_eq!(sub.node_by_label("B"), Some(b));
    }

    #[test]
    fn filter_edges_by_weight() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 5.0).unwrap();
        let filtered = g.filter_edges(|e| e.weight >= 2.0).unwrap();
        assert_eq!(filtered.edge_count(), 1);
        assert!(filtered.has_edge(1, 2));
    }

    #[test]
    fn from_labeled_edges_round_trip() {
        let g = WeightedGraph::from_labeled_edges(
            Direction::Directed,
            vec![("A", "B", 1.0), ("B", "C", 2.0), ("A", "B", 0.5)],
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let a = g.node_by_label("A").unwrap();
        let b = g.node_by_label("B").unwrap();
        assert_eq!(g.edge_weight(a, b), Some(1.5));
    }

    #[test]
    fn from_edges_round_trip() {
        let g = WeightedGraph::from_edges(Direction::Undirected, 3, vec![(0, 1, 1.0), (1, 2, 2.0)])
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edges_iterator_exposes_indices() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 2.0).unwrap();
        let collected: Vec<EdgeRef> = g.edges().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].index, 0);
        assert_eq!(collected[1].index, 1);
        assert_eq!(g.edge(1).unwrap().weight, 2.0);
        assert!(g.edge(5).is_none());
    }
}
