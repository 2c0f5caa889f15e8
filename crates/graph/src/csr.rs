//! Compact compressed-sparse-row (CSR) graph core.
//!
//! This is the canonical large-graph representation of the workspace: `u32`
//! node ids, a flat prefix-offset adjacency (one cache-friendly entry array
//! instead of a `Vec` per node) and parallel dense edge arrays in edge-id
//! order. A 10M-edge undirected graph costs ~48 bytes per edge here versus
//! several hundred in the adjacency-map [`WeightedGraph`], which remains as a
//! mutable builder/compat shim for small graphs. The node labels live in one
//! [`LabelTable`] shared behind an `Arc`, so a clone, a reweighted copy
//! ([`CsrGraph::with_reweighted_edges`]) or a PATCH generation that adds no
//! node never copies the labels.
//!
//! Structure invariants (shared with [`WeightedGraph`], pinned by the parity
//! suite):
//!
//! * edge ids are dense `0..edge_count` in first-occurrence order; duplicate
//!   `(source, target)` pairs accumulate their weights into the first
//!   occurrence, left to right;
//! * undirected edges store canonical `(min, max)` endpoints and appear in
//!   the adjacency rows of **both** endpoints under the same edge id
//!   (self-loops appear once);
//! * per-row adjacency order equals [`WeightedGraph`]'s insertion order, so
//!   any algorithm walking rows (e.g. [`CsrDijkstra`]) is bit-identical on
//!   either representation.
//!
//! Every constructor returns a structured [`GraphError::CapacityExceeded`]
//! (never a panic or a silent truncation) when the node, edge or adjacency
//! entry count would overflow the `u32` index space.
//!
//! [`CsrDijkstra`]: crate::algorithms::shortest_path::CsrDijkstra

use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

use crate::error::{GraphError, GraphResult};
use crate::graph::{Direction, EdgeRef, NodeId, WeightedGraph};
use crate::labels::LabelTable;
use crate::view::GraphView;

/// The maximum node/edge/entry count the compact core can address.
pub const CSR_INDEX_LIMIT: u64 = u32::MAX as u64;

pub(crate) fn check_capacity(what: &'static str, requested: u64) -> GraphResult<()> {
    if requested > CSR_INDEX_LIMIT {
        Err(GraphError::CapacityExceeded {
            what,
            requested,
            limit: CSR_INDEX_LIMIT,
        })
    } else {
        Ok(())
    }
}

/// An immutable compact CSR graph — see the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    direction: Direction,
    node_count: usize,
    /// Row boundaries: node `n`'s adjacency entries live at
    /// `offsets[n]..offsets[n + 1]`.
    offsets: Vec<u32>,
    /// Neighbor node id per adjacency entry.
    targets: Vec<u32>,
    /// Dense edge id per adjacency entry (undirected edges share one id
    /// across both endpoint rows).
    entry_edge_ids: Vec<u32>,
    /// Edge weight per adjacency entry.
    entry_weights: Vec<f64>,
    /// Canonical source per edge, in edge-id order.
    edge_sources: Vec<u32>,
    /// Canonical target per edge, in edge-id order.
    edge_targets: Vec<u32>,
    /// Weight per edge, in edge-id order.
    edge_weights: Vec<f64>,
    /// In-degree per node (directed graphs only; empty for undirected, where
    /// in-degree equals the row length).
    in_degrees: Vec<u32>,
    /// Node labels (empty when the graph is unlabeled). Shared: clones,
    /// reweighted copies and label-preserving compactions point at one
    /// table instead of copying it.
    labels: Arc<LabelTable>,
}

impl CsrGraph {
    /// Build the compact CSR form of an adjacency-map graph, preserving node
    /// labels, edge ids and per-row adjacency order exactly.
    pub fn from_graph(graph: &WeightedGraph) -> GraphResult<CsrGraph> {
        check_capacity("nodes", graph.node_count() as u64)?;
        check_capacity("edges", graph.edge_count() as u64)?;

        let node_count = graph.node_count();
        let mut edge_sources = Vec::with_capacity(graph.edge_count());
        let mut edge_targets = Vec::with_capacity(graph.edge_count());
        let mut edge_weights = Vec::with_capacity(graph.edge_count());
        for edge in graph.edges() {
            edge_sources.push(edge.source as u32);
            edge_targets.push(edge.target as u32);
            edge_weights.push(edge.weight);
        }

        let mut entry_total = 0u64;
        for node in graph.nodes() {
            entry_total += graph.out_degree(node) as u64;
        }
        check_capacity("adjacency entries", entry_total)?;

        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut targets = Vec::with_capacity(entry_total as usize);
        let mut entry_edge_ids = Vec::with_capacity(entry_total as usize);
        let mut entry_weights = Vec::with_capacity(entry_total as usize);
        offsets.push(0);
        for node in graph.nodes() {
            for ((neighbor, weight), edge_id) in
                graph.out_neighbors(node).zip(graph.out_edge_indices(node))
            {
                targets.push(neighbor as u32);
                entry_edge_ids.push(edge_id as u32);
                entry_weights.push(weight);
            }
            offsets.push(targets.len() as u32);
        }

        let in_degrees = match graph.direction() {
            Direction::Undirected => Vec::new(),
            Direction::Directed => graph.nodes().map(|n| graph.in_degree(n) as u32).collect(),
        };
        Ok(CsrGraph {
            direction: graph.direction(),
            node_count,
            offsets,
            targets,
            entry_edge_ids,
            entry_weights,
            edge_sources,
            edge_targets,
            edge_weights,
            in_degrees,
            labels: Arc::new(graph.label_table().clone()),
        })
    }

    /// Build a compact graph on `node_count` unlabeled nodes from
    /// `(source, target, weight)` triples, accumulating duplicate edges —
    /// the streaming equivalent of [`WeightedGraph::from_edges`].
    pub fn from_edges(
        direction: Direction,
        node_count: usize,
        triples: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> GraphResult<CsrGraph> {
        let mut builder = CsrBuilder::with_nodes(direction, node_count)?;
        for (source, target, weight) in triples {
            builder.add_edge(source, target, weight)?;
        }
        builder.finish()
    }

    /// A copy of this graph with the listed edges' weights replaced —
    /// `(edge id, new weight)` pairs. Structure (node ids, edge ids,
    /// adjacency order) is untouched, so the result is bit-identical to
    /// rebuilding the graph from the reweighted edge list. The copy shares
    /// this graph's label table. Each adjacency row an update touches is
    /// rewritten once, however many of its edges change.
    pub fn with_reweighted_edges(&self, updates: &[(usize, f64)]) -> GraphResult<CsrGraph> {
        let mut graph = self.clone();
        let mut rows = Vec::with_capacity(2 * updates.len());
        for &(edge, weight) in updates {
            if !weight.is_finite() || weight < 0.0 {
                return Err(GraphError::InvalidWeight { weight });
            }
            if edge >= graph.edge_weights.len() {
                return Err(GraphError::InvalidParameter {
                    parameter: "edge",
                    message: format!(
                        "edge id {edge} is out of range (graph has {} edges)",
                        graph.edge_weights.len()
                    ),
                });
            }
            graph.edge_weights[edge] = weight;
            rows.push(graph.edge_sources[edge]);
            if graph.direction == Direction::Undirected {
                rows.push(graph.edge_targets[edge]);
            }
        }
        rows.sort_unstable();
        rows.dedup();
        for node in rows {
            for slot in graph.entry_range(node as usize) {
                graph.entry_weights[slot] = graph.edge_weights[graph.entry_edge_ids[slot] as usize];
            }
        }
        Ok(graph)
    }

    /// Direction semantics of the graph.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of adjacency entries (each undirected edge contributes two
    /// except self-loops, which contribute one).
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_weights.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> Range<NodeId> {
        0..self.node_count
    }

    /// The label of `node`, if it has one.
    pub fn label(&self, node: NodeId) -> Option<&str> {
        self.labels.label(node)
    }

    /// Look up a node by label.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels.get(label)
    }

    /// The shared label table.
    pub(crate) fn label_table(&self) -> &Arc<LabelTable> {
        &self.labels
    }

    /// This graph with `labels` as its label table.
    pub(crate) fn with_label_table(self, labels: Arc<LabelTable>) -> CsrGraph {
        CsrGraph { labels, ..self }
    }

    /// The entry range of `node`'s adjacency row.
    #[inline]
    pub fn entry_range(&self, node: NodeId) -> Range<usize> {
        self.offsets[node] as usize..self.offsets[node + 1] as usize
    }

    /// The neighbor ids of `node`, in insertion order.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        &self.targets[self.entry_range(node)]
    }

    /// The dense edge ids of `node`'s adjacency row.
    #[inline]
    pub fn edge_ids(&self, node: NodeId) -> &[u32] {
        &self.entry_edge_ids[self.entry_range(node)]
    }

    /// The edge weights of `node`'s adjacency row.
    #[inline]
    pub fn weights(&self, node: NodeId) -> &[f64] {
        &self.entry_weights[self.entry_range(node)]
    }

    /// The neighbor id of one adjacency entry.
    #[inline]
    pub fn entry_target(&self, entry: usize) -> NodeId {
        self.targets[entry] as NodeId
    }

    /// The dense edge id of one adjacency entry.
    #[inline]
    pub fn entry_edge_id(&self, entry: usize) -> usize {
        self.entry_edge_ids[entry] as usize
    }

    /// The flat per-entry weight array (parallel to the entry array).
    #[inline]
    pub fn entry_weights(&self) -> &[f64] {
        &self.entry_weights
    }

    /// Out-degree of `node` (row length).
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// In-degree of `node` (equals the out-degree for undirected graphs).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        match self.direction {
            Direction::Undirected => self.out_degree(node),
            Direction::Directed => self.in_degrees[node] as usize,
        }
    }

    /// Degree of `node`: incident edge count for undirected graphs,
    /// out-degree plus in-degree for directed ones.
    pub fn degree(&self, node: NodeId) -> usize {
        match self.direction {
            Direction::Undirected => self.out_degree(node),
            Direction::Directed => self.out_degree(node) + self.in_degree(node),
        }
    }

    /// Sum of the weights in `node`'s adjacency row.
    pub fn strength(&self, node: NodeId) -> f64 {
        self.weights(node).iter().sum()
    }

    /// Sum of all entry weights (undirected edges count twice, except
    /// self-loops).
    pub fn total_entry_weight(&self) -> f64 {
        self.entry_weights.iter().sum()
    }

    /// Sum of all edge weights (each edge once) — matches
    /// [`WeightedGraph::total_weight`].
    pub fn total_weight(&self) -> f64 {
        self.edge_weights.iter().sum()
    }

    /// The edge with dense id `index`, if it exists.
    pub fn edge(&self, index: usize) -> Option<EdgeRef> {
        if index < self.edge_count() {
            Some(EdgeRef {
                index,
                source: self.edge_sources[index] as NodeId,
                target: self.edge_targets[index] as NodeId,
                weight: self.edge_weights[index],
            })
        } else {
            None
        }
    }

    /// Iterate over all edges in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.edge_count()).map(|index| EdgeRef {
            index,
            source: self.edge_sources[index] as NodeId,
            target: self.edge_targets[index] as NodeId,
            weight: self.edge_weights[index],
        })
    }

    /// Iterate over the adjacency entries as `(source, target, weight)`.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.nodes().flat_map(move |node| {
            self.neighbors(node)
                .iter()
                .zip(self.weights(node))
                .map(move |(&target, &weight)| (node, target as NodeId, weight))
        })
    }

    /// Number of nodes with at least one incident edge.
    pub fn non_isolated_node_count(&self) -> usize {
        self.nodes().filter(|&n| self.degree(n) > 0).count()
    }

    /// Build an adjacency-map graph with the same node set (and labels)
    /// containing only the edges whose dense ids are listed in
    /// `edge_indices` — semantics identical to
    /// [`WeightedGraph::subgraph_with_edges`]. This copies the label table;
    /// to write a backbone, [`crate::io::write_edges`] reads the kept edges
    /// from this graph by id instead.
    pub fn subgraph_with_edges(&self, edge_indices: &[usize]) -> GraphResult<WeightedGraph> {
        let mut subgraph = WeightedGraph::with_label_table(
            self.direction,
            self.node_count,
            (*self.labels).clone(),
        );
        for &index in edge_indices {
            let edge = self.edge(index).ok_or(GraphError::InvalidParameter {
                parameter: "edge_indices",
                message: format!("edge index {index} out of bounds"),
            })?;
            subgraph.set_edge_weight(edge.source, edge.target, edge.weight)?;
        }
        Ok(subgraph)
    }

    /// Expand back into a mutable adjacency-map graph (labels preserved).
    pub fn to_weighted_graph(&self) -> GraphResult<WeightedGraph> {
        self.subgraph_with_edges(&(0..self.edge_count()).collect::<Vec<_>>())
    }

    /// Precise heap footprint in bytes: the compact arrays plus the label
    /// table ([`LabelTable::memory_bytes`]; zero for an unlabeled graph).
    /// The number reported by the scaling benchmarks and `/metrics`.
    pub fn memory_bytes(&self) -> usize {
        self.labels.memory_bytes()
            + self.offsets.len() * size_of::<u32>()
            + self.targets.len() * size_of::<u32>()
            + self.entry_edge_ids.len() * size_of::<u32>()
            + self.entry_weights.len() * size_of::<f64>()
            + self.edge_sources.len() * size_of::<u32>()
            + self.edge_targets.len() * size_of::<u32>()
            + self.edge_weights.len() * size_of::<f64>()
            + self.in_degrees.len() * size_of::<u32>()
    }
}

/// Streaming builder for [`CsrGraph`]: push `(source, target, weight)` edges
/// one at a time (by index or by label) and [`CsrBuilder::finish`] into the
/// compact form. No intermediate [`WeightedGraph`] is involved. A labelled
/// edge costs one [`LabelTable`] lookup per endpoint, and each label is
/// stored once, in the table's arena, which [`CsrBuilder::finish`] moves
/// into the graph. Edges are only appended while building;
/// `finish` finds duplicates with a counting sort by source, which
/// reproduces [`WeightedGraph::add_edge`]'s left-to-right duplicate
/// accumulation bit-exactly (pinned by the ingestion parity suite).
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    direction: Direction,
    node_count: usize,
    sources: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Every labelled node's label.
    labels: LabelTable,
}

/// Marks a pushed edge that repeats an earlier one in [`CsrBuilder::finish`]:
/// node ids stay below `u32::MAX`, so no real source equals it.
const REPEATED: u32 = u32::MAX;

impl CsrBuilder {
    /// Start a builder with no declared nodes (node count grows with the
    /// pushed edges and labels).
    pub fn new(direction: Direction) -> CsrBuilder {
        CsrBuilder {
            direction,
            node_count: 0,
            sources: Vec::new(),
            targets: Vec::new(),
            weights: Vec::new(),
            labels: LabelTable::new(),
        }
    }

    /// Start a builder with `node_count` pre-declared unlabeled nodes.
    /// Fails fast (before any allocation) when the count overflows the
    /// `u32` index space.
    pub fn with_nodes(direction: Direction, node_count: usize) -> GraphResult<CsrBuilder> {
        check_capacity("nodes", node_count as u64)?;
        let mut builder = CsrBuilder::new(direction);
        builder.node_count = node_count;
        Ok(builder)
    }

    /// Start a builder with `node_count` pre-declared nodes carrying an
    /// existing label table (shorter tables are padded with unlabeled
    /// nodes; a table without labels declares every node unlabeled).
    pub fn with_labeled_nodes(
        direction: Direction,
        node_count: usize,
        labels: Vec<Option<String>>,
    ) -> GraphResult<CsrBuilder> {
        if labels.len() > node_count {
            return Err(GraphError::InvalidParameter {
                parameter: "labels",
                message: format!("{} labels supplied for {node_count} nodes", labels.len()),
            });
        }
        let mut builder = CsrBuilder::with_nodes(direction, node_count)?;
        for (id, label) in labels.iter().enumerate() {
            let Some(label) = label else { continue };
            if builder.labels.intern(label, id)? != id {
                return Err(GraphError::InvalidParameter {
                    parameter: "labels",
                    message: format!("duplicate node label `{label}`"),
                });
            }
        }
        Ok(builder)
    }

    /// Direction semantics of the graph being built.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Current node count.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of pushed (pre-deduplication) edges.
    pub fn pushed_edges(&self) -> usize {
        self.weights.len()
    }

    /// The node id for `label`, interning a new node on first appearance —
    /// the same first-appearance id assignment as
    /// [`WeightedGraph::ensure_node`].
    pub fn ensure_node(&mut self, label: &str) -> GraphResult<NodeId> {
        let id = self.labels.intern(label, self.node_count)?;
        if id == self.node_count {
            self.node_count += 1;
        }
        Ok(id)
    }

    /// Push an edge by node index, growing the node count as needed.
    /// Validates the weight exactly like [`WeightedGraph::add_edge`]
    /// (finite, non-negative).
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: f64) -> GraphResult<()> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(GraphError::InvalidWeight { weight });
        }
        let max_id = source.max(target);
        check_capacity("nodes", max_id as u64 + 1)?;
        check_capacity("edges", self.weights.len() as u64 + 1)?;
        if max_id >= self.node_count {
            self.node_count = max_id + 1;
        }
        let (a, b) = match self.direction {
            Direction::Directed => (source, target),
            Direction::Undirected => (source.min(target), source.max(target)),
        };
        self.sources.push(a as u32);
        self.targets.push(b as u32);
        self.weights.push(weight);
        Ok(())
    }

    /// Push an edge by node labels, interning nodes on first appearance.
    pub fn add_labeled_edge(&mut self, source: &str, target: &str, weight: f64) -> GraphResult<()> {
        let source = self.ensure_node(source)?;
        let target = self.ensure_node(target)?;
        self.add_edge(source, target, weight)
    }

    /// Deduplicate and pack the pushed edges into the compact form.
    pub fn finish(self) -> GraphResult<CsrGraph> {
        let CsrBuilder {
            direction,
            node_count,
            sources: mut edge_sources,
            targets: mut edge_targets,
            weights: mut edge_weights,
            mut labels,
        } = self;
        labels.shrink_to_fit();

        // Bucket push indices by source with a stable counting sort, so each
        // bucket lists one source's pushes in arrival order. `bucket_end`
        // holds the bucket starts while filling and the ends afterwards.
        let pushed = edge_weights.len();
        let mut bucket_end = vec![0u32; node_count];
        for &source in &edge_sources {
            bucket_end[source as usize] += 1;
        }
        let mut start = 0u32;
        for slot in &mut bucket_end {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut order = vec![0u32; pushed];
        for (push, &source) in edge_sources.iter().enumerate() {
            let slot = &mut bucket_end[source as usize];
            order[*slot as usize] = push as u32;
            *slot += 1;
        }

        // Walk each bucket once. `first_seen[t]` is 1 + the bucket position
        // of target `t`'s first push; a value above the bucket start means
        // `t` already occurred in this bucket, so the push repeats that edge:
        // its weight joins the first occurrence, left to right exactly like
        // repeated `WeightedGraph::add_edge` calls, and it is marked.
        let mut first_seen = vec![0u32; node_count];
        let mut bucket_start = 0u32;
        for &end in &bucket_end {
            for position in bucket_start..end {
                let push = order[position as usize] as usize;
                let target = edge_targets[push] as usize;
                let seen = first_seen[target];
                if seen > bucket_start {
                    let first = order[seen as usize - 1] as usize;
                    edge_weights[first] += edge_weights[push];
                    edge_sources[push] = REPEATED;
                } else {
                    first_seen[target] = position + 1;
                }
            }
            bucket_start = end;
        }
        drop(order);
        drop(bucket_end);
        drop(first_seen);

        // Dense edge ids follow first-occurrence order: keep the unmarked
        // pushes, in push order, in place.
        let mut edge_count = 0;
        for push in 0..pushed {
            if edge_sources[push] != REPEATED {
                edge_sources[edge_count] = edge_sources[push];
                edge_targets[edge_count] = edge_targets[push];
                edge_weights[edge_count] = edge_weights[push];
                edge_count += 1;
            }
        }
        edge_sources.truncate(edge_count);
        edge_targets.truncate(edge_count);
        edge_weights.truncate(edge_count);
        edge_sources.shrink_to_fit();
        edge_targets.shrink_to_fit();
        edge_weights.shrink_to_fit();

        // Row sizes, then a counting sort appending the edges in id order:
        // this reproduces the adjacency-map push order (source row first,
        // then — for a non-loop undirected edge — the target row).
        let mut row_len = vec![0u32; node_count];
        let mut in_degrees = match direction {
            Direction::Directed => vec![0u32; node_count],
            Direction::Undirected => Vec::new(),
        };
        let mut entry_total = 0u64;
        for index in 0..edge_count {
            let source = edge_sources[index] as usize;
            let target = edge_targets[index] as usize;
            row_len[source] += 1;
            entry_total += 1;
            match direction {
                Direction::Directed => in_degrees[target] += 1,
                Direction::Undirected => {
                    if source != target {
                        row_len[target] += 1;
                        entry_total += 1;
                    }
                }
            }
        }
        check_capacity("adjacency entries", entry_total)?;

        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0u32);
        let mut running = 0u32;
        for &len in &row_len {
            running += len;
            offsets.push(running);
        }
        drop(row_len);
        let entry_count = running as usize;
        let mut next_slot: Vec<u32> = offsets[..node_count].to_vec();
        let mut entry_targets = vec![0u32; entry_count];
        let mut entry_edge_ids = vec![0u32; entry_count];
        let mut entry_weights = vec![0.0f64; entry_count];
        for index in 0..edge_count {
            let source = edge_sources[index] as usize;
            let target = edge_targets[index] as usize;
            let weight = edge_weights[index];
            let slot = next_slot[source] as usize;
            entry_targets[slot] = target as u32;
            entry_edge_ids[slot] = index as u32;
            entry_weights[slot] = weight;
            next_slot[source] += 1;
            if direction == Direction::Undirected && source != target {
                let slot = next_slot[target] as usize;
                entry_targets[slot] = source as u32;
                entry_edge_ids[slot] = index as u32;
                entry_weights[slot] = weight;
                next_slot[target] += 1;
            }
        }

        Ok(CsrGraph {
            direction,
            node_count,
            offsets,
            targets: entry_targets,
            entry_edge_ids,
            entry_weights,
            edge_sources,
            edge_targets,
            edge_weights,
            in_degrees,
            labels: Arc::new(labels),
        })
    }
}

impl GraphView for CsrGraph {
    fn direction(&self) -> Direction {
        self.direction
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn edge(&self, index: usize) -> Option<EdgeRef> {
        CsrGraph::edge(self, index)
    }

    fn out_degree(&self, node: NodeId) -> usize {
        CsrGraph::out_degree(self, node)
    }

    fn in_degree(&self, node: NodeId) -> usize {
        CsrGraph::in_degree(self, node)
    }

    fn degree(&self, node: NodeId) -> usize {
        CsrGraph::degree(self, node)
    }

    fn label(&self, node: NodeId) -> Option<&str> {
        CsrGraph::label(self, node)
    }

    fn total_weight(&self) -> f64 {
        CsrGraph::total_weight(self)
    }

    fn non_isolated_node_count(&self) -> usize {
        CsrGraph::non_isolated_node_count(self)
    }

    fn subgraph_with_edges(&self, edge_indices: &[usize]) -> GraphResult<WeightedGraph> {
        CsrGraph::subgraph_with_edges(self, edge_indices)
    }

    fn to_csr(&self) -> GraphResult<std::borrow::Cow<'_, CsrGraph>> {
        Ok(std::borrow::Cow::Borrowed(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Direction;

    fn sample_undirected() -> WeightedGraph {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 4);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 2.0).unwrap();
        g.add_edge(2, 3, 3.0).unwrap();
        g.add_edge(0, 3, 4.0).unwrap();
        g
    }

    #[test]
    fn csr_matches_graph_structure() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.entry_count(), 8);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.weights(2), &[2.0, 3.0]);
        assert_eq!(csr.degree(1), 2);
        assert!((csr.total_entry_weight() - 20.0).abs() < 1e-12);
        assert!((csr.total_weight() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn undirected_entries_double_edges() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.entry_count(), 2 * g.edge_count());
        assert!((csr.total_entry_weight() - 2.0 * g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn entries_iterator_visits_every_entry() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        let entries: Vec<(usize, usize, f64)> = csr.entries().collect();
        assert_eq!(entries.len(), csr.entry_count());
        assert!(entries.contains(&(0, 1, 1.0)));
        assert!(entries.contains(&(1, 0, 1.0)));
    }

    #[test]
    fn rows_mirror_adjacency_insertion_order() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        for node in g.nodes() {
            let adjacency: Vec<(usize, usize, f64)> = g
                .out_neighbors(node)
                .zip(g.out_edge_indices(node))
                .map(|((neighbor, weight), edge_id)| (neighbor, edge_id, weight))
                .collect();
            for (slot, &(neighbor, edge_id, weight)) in adjacency.iter().enumerate() {
                assert_eq!(neighbor as u32, csr.neighbors(node)[slot]);
                assert_eq!(edge_id as u32, csr.edge_ids(node)[slot]);
                assert_eq!(weight, csr.weights(node)[slot]);
                let entry = csr.entry_range(node).start + slot;
                assert_eq!(csr.entry_target(entry), neighbor);
                assert_eq!(csr.entry_edge_id(entry), edge_id);
            }
        }
    }

    #[test]
    fn undirected_endpoints_share_edge_ids() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 2.0).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.edge_ids(0), &[0]);
        assert!(csr.edge_ids(1).contains(&0));
        assert!(csr.edge_ids(1).contains(&1));
    }

    #[test]
    fn self_loops_appear_once_and_zero_weights_survive() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 2);
        g.add_edge(0, 0, 0.0).unwrap();
        g.add_edge(0, 1, 2.0).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.out_degree(0), 2);
        assert_eq!(csr.weights(0), &[0.0, 2.0]);
        assert_eq!(csr.out_degree(1), 1);
        assert!((csr.total_entry_weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn directed_rows_are_out_edges_only() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 2.0).unwrap();
        g.add_edge(2, 0, 3.0).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.out_degree(0), 1);
        assert_eq!(csr.in_degree(0), 1);
        assert_eq!(csr.degree(0), 2);
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let empty = WeightedGraph::undirected();
        let csr = CsrGraph::from_graph(&empty).unwrap();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.entry_count(), 0);

        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 3);
        g.add_edge(0, 1, 7.5).unwrap();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(csr.out_degree(2), 0);
        assert_eq!(csr.neighbors(2), &[] as &[u32]);
        assert_eq!(csr.weights(0), &[7.5]);
        assert_eq!(
            csr.entries().collect::<Vec<_>>(),
            vec![(0, 1, 7.5), (1, 0, 7.5)]
        );
        assert_eq!(csr.non_isolated_node_count(), 2);
    }

    #[test]
    fn builder_matches_weighted_graph_on_duplicates() {
        // Duplicate edges (in both orientations for the undirected case)
        // accumulate into the first occurrence, preserving edge-id order.
        let triples = vec![
            (0usize, 1usize, 1.0),
            (2, 3, 4.0),
            (1, 0, 2.5),
            (0, 1, 0.5),
            (3, 3, 1.0),
        ];
        for direction in [Direction::Undirected, Direction::Directed] {
            let reference = WeightedGraph::from_edges(direction, 4, triples.clone()).unwrap();
            let compact = CsrGraph::from_edges(direction, 4, triples.clone()).unwrap();
            let converted = CsrGraph::from_graph(&reference).unwrap();
            assert_eq!(compact, converted, "{direction:?}");
        }
    }

    #[test]
    fn builder_labels_follow_first_appearance() {
        let mut builder = CsrBuilder::new(Direction::Undirected);
        builder.add_labeled_edge("b", "a", 1.0).unwrap();
        builder.add_labeled_edge("a", "c", 2.0).unwrap();
        let csr = builder.finish().unwrap();
        assert_eq!(csr.label(0), Some("b"));
        assert_eq!(csr.label(1), Some("a"));
        assert_eq!(csr.label(2), Some("c"));

        let reference = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("b", "a", 1.0), ("a", "c", 2.0)],
        )
        .unwrap();
        assert_eq!(csr, CsrGraph::from_graph(&reference).unwrap());
    }

    #[test]
    fn labeled_builder_rejects_duplicate_labels() {
        let labels = vec![Some("a".to_string()), None, Some("a".to_string())];
        assert_eq!(
            CsrBuilder::with_labeled_nodes(Direction::Directed, 3, labels).unwrap_err(),
            GraphError::InvalidParameter {
                parameter: "labels",
                message: "duplicate node label `a`".to_string(),
            }
        );
        let too_many = vec![None, None];
        assert!(CsrBuilder::with_labeled_nodes(Direction::Directed, 1, too_many).is_err());
    }

    #[test]
    fn builder_rejects_invalid_weights() {
        let mut builder = CsrBuilder::new(Direction::Directed);
        assert_eq!(
            builder.add_edge(0, 1, -1.0),
            Err(GraphError::InvalidWeight { weight: -1.0 })
        );
        assert!(builder.add_edge(0, 1, f64::NAN).is_err());
        assert!(builder.add_edge(0, 1, f64::INFINITY).is_err());
    }

    #[test]
    fn capacity_overflow_is_a_structured_error() {
        // Declaring too many nodes fails before any allocation.
        let oversized = u32::MAX as usize + 1;
        match CsrBuilder::with_nodes(Direction::Undirected, oversized) {
            Err(GraphError::CapacityExceeded {
                what, requested, ..
            }) => {
                assert_eq!(what, "nodes");
                assert_eq!(requested, oversized as u64);
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        // A single edge endpoint beyond the id space is rejected too.
        let mut builder = CsrBuilder::new(Direction::Directed);
        assert!(matches!(
            builder.add_edge(0, oversized, 1.0),
            Err(GraphError::CapacityExceeded { what: "nodes", .. })
        ));
        // And the error has a readable message.
        let error = CsrBuilder::with_nodes(Direction::Undirected, oversized).unwrap_err();
        assert!(error.to_string().contains("capacity"));
    }

    #[test]
    fn subgraph_round_trips_like_weighted_graph() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        let kept = vec![0usize, 2];
        let from_csr = csr.subgraph_with_edges(&kept).unwrap();
        let from_graph = g.subgraph_with_edges(&kept).unwrap();
        assert_eq!(from_csr.node_count(), from_graph.node_count());
        assert_eq!(from_csr.edge_count(), from_graph.edge_count());
        for (a, b) in from_csr.edges().zip(from_graph.edges()) {
            assert_eq!(
                (a.source, a.target, a.weight),
                (b.source, b.target, b.weight)
            );
        }
        assert!(csr.subgraph_with_edges(&[99]).is_err());
    }

    #[test]
    fn reweighted_copies_share_the_label_table() {
        let reference = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![
                ("a", "b", 1.0),
                ("b", "c", 2.0),
                ("c", "c", 0.5),
                ("c", "d", 3.0),
            ],
        )
        .unwrap();
        let csr = CsrGraph::from_graph(&reference).unwrap();
        let updates = [(1, 7.0), (2, 0.0), (1, 9.5)];
        let reweighted = csr.with_reweighted_edges(&updates).unwrap();
        assert!(Arc::ptr_eq(&reweighted.labels, &csr.labels));
        assert!(Arc::ptr_eq(&csr.clone().labels, &csr.labels));

        // Sharing changes nothing observable: the copy equals the graph
        // rebuilt from the reweighted edge list.
        let mut rebuilt = CsrBuilder::new(Direction::Undirected);
        for edge in csr.edges() {
            let weight = updates
                .iter()
                .rev()
                .find(|&&(id, _)| id == edge.index)
                .map_or(edge.weight, |&(_, weight)| weight);
            rebuilt
                .add_labeled_edge(
                    csr.label(edge.source).unwrap(),
                    csr.label(edge.target).unwrap(),
                    weight,
                )
                .unwrap();
        }
        assert_eq!(reweighted, rebuilt.finish().unwrap());
    }

    #[test]
    fn memory_bytes_counts_the_flat_arrays() {
        let g = sample_undirected();
        let csr = CsrGraph::from_graph(&g).unwrap();
        // 5 offsets + 8 entry targets/ids ×2 + 8 entry weights
        // + 4 edge sources/targets ×2 + 4 edge weights.
        let expected = 5 * 4 + 8 * 4 + 8 * 4 + 8 * 8 + 4 * 4 + 4 * 4 + 4 * 8;
        assert_eq!(csr.memory_bytes(), expected);
    }

    #[test]
    fn memory_bytes_counts_the_label_table() {
        let mut builder = CsrBuilder::new(Direction::Directed);
        builder.add_labeled_edge("alpha", "b", 1.0).unwrap();
        builder.add_labeled_edge("b", "0", 2.0).unwrap();
        let csr = builder.finish().unwrap();
        // 4 offsets + 2 entry targets/ids + 2 entry weights + 2 edge
        // sources/targets + 2 edge weights + 3 in-degrees.
        let arrays = 4 * 4 + 2 * 4 * 2 + 2 * 8 + 2 * 4 * 2 + 2 * 8 + 3 * 4;
        // Labels: 7 arena bytes, 3 span ends, one decimal slot (`0`) and
        // the 16-slot hash index holding `alpha` and `b`.
        let labels = 7 + 3 * 4 + 4 + 16 * 8;
        assert_eq!(csr.memory_bytes(), arrays + labels);
        assert_eq!(csr.label_table().memory_bytes(), labels);
    }

    #[test]
    fn a_huge_decimal_label_costs_no_huge_table() {
        let options = crate::io::EdgeListOptions::default();
        let csr = crate::io::read_edge_list_csr_str("0 999999999\n", &options).unwrap();
        assert_eq!(csr.node_by_label("999999999"), Some(1));
        assert_eq!(csr.label(1), Some("999999999"));
        assert!(csr.memory_bytes() < 512, "{}", csr.memory_bytes());
    }
}
