//! Batched edge deltas over the compact CSR core.
//!
//! The paper's measures are defined on a static weighted graph, but served
//! workloads mutate: edges appear, disappear and change weight. This module
//! turns a batch of such mutations into the next immutable [`CsrGraph`]:
//!
//! * [`DeltaBatch`] — a parsed batch of [`DeltaOp`]s (`add` / `remove` /
//!   `reweight`), each carrying the 1-based line it came from so validation
//!   errors point at the offending input line.
//! * [`DeltaGraph`] — a borrowed [`CsrGraph`] ([`DeltaGraph::from_csr`]
//!   copies nothing) that applies batches **transactionally**: every op in
//!   a batch is validated before the next generation is built, so a failed
//!   batch leaves the graph untouched. There is no edge log and no pair
//!   index. Node tokens resolve against the graph's own [`LabelTable`],
//!   and a batch stages its new labels in a table of its own. Edges resolve
//!   against the adjacency rows: a row is scanned on its first lookup and
//!   mapped on its second, so a batch reads no row more than twice however
//!   many of its edges it names, and what a batch stages is O(batch).
//! * [`PatchEffect`] — what a committed batch did: counts, the touched
//!   nodes, the (post-patch) ids of changed edges, and the survivor remap
//!   when edges were removed. This is exactly the input the incremental
//!   rescoring path in `backboning::delta` needs.
//!
//! ## The next generation keeps every bit
//!
//! [`DeltaGraph::apply`] builds the next generation. A reweight-only batch
//! goes through [`CsrGraph::with_reweighted_edges`], which keeps every id
//! and rewrites each touched row once. Any add or remove feeds one
//! [`CsrBuilder`] the surviving edges in edge-id order, then the added
//! edges in arrival order. Their canonical endpoint pairs are already
//! unique, so the builder's sort-merge is the identity permutation: edge
//! ids follow that order and every adjacency row lists a node's incident
//! edges in ascending edge-id order — the same order a from-scratch ingest
//! of the patched edge list would produce. Per-node strength sums therefore
//! accumulate in the same order and keep identical `f64` bits, which is
//! what makes node-local incremental rescoring *exact* rather than
//! approximate (pinned by the churn-parity suite).
//!
//! ```
//! use backboning_graph::delta::{DeltaBatch, DeltaGraph};
//! use backboning_graph::io::{read_edge_list_csr_str, EdgeListOptions};
//! use backboning_graph::Direction;
//!
//! let options = EdgeListOptions::with_direction(Direction::Undirected);
//! let base = read_edge_list_csr_str("a b 2\nb c 1\n", &options).unwrap();
//!
//! let mut delta = DeltaGraph::from_csr(&base);
//! let batch = DeltaBatch::parse_tsv("add a c 4\nreweight a b 3\n").unwrap();
//! let effect = delta.apply(&batch).unwrap();
//! assert_eq!((effect.added, effect.reweighted), (1, 1));
//!
//! let patched = delta.into_csr();
//! assert_eq!(patched.edge_count(), 3);
//! ```

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::csr::{check_capacity, CsrBuilder, CsrGraph};
use crate::error::{GraphError, GraphResult};
use crate::graph::{Direction, NodeId};
use crate::io::check_node_name;
use crate::labels::LabelTable;

/// One edge mutation, tagged with the 1-based input line it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOp {
    /// 1-based line (or op index) in the delta body, used in error messages.
    pub line: usize,
    /// The mutation itself.
    pub kind: DeltaOpKind,
}

/// The three supported edge mutations. Node tokens are labels on labeled
/// graphs and numeric ids on unlabeled ones; resolution happens at apply
/// time against the target graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOpKind {
    /// Insert a new edge; fails if the edge already exists.
    Add {
        /// Source node token.
        source: String,
        /// Target node token.
        target: String,
        /// Edge weight (finite, non-negative).
        weight: f64,
    },
    /// Delete an existing edge; fails if the edge is absent.
    Remove {
        /// Source node token.
        source: String,
        /// Target node token.
        target: String,
    },
    /// Replace an existing edge's weight; fails if the edge is absent.
    Reweight {
        /// Source node token.
        source: String,
        /// Target node token.
        target: String,
        /// The new weight (finite, non-negative).
        weight: f64,
    },
}

/// A parsed batch of delta ops, applied atomically by [`DeltaGraph::apply`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The ops in application order.
    pub ops: Vec<DeltaOp>,
}

fn line_error(line: usize, message: impl fmt::Display) -> GraphError {
    GraphError::Io {
        message: format!("line {line}: {message}"),
    }
}

impl DeltaBatch {
    /// Parse the TSV delta format: one op per line,
    /// `add SOURCE TARGET WEIGHT`, `remove SOURCE TARGET` or
    /// `reweight SOURCE TARGET WEIGHT`, whitespace-separated. Blank lines
    /// and `#` comments are skipped; errors carry the 1-based line number.
    pub fn parse_tsv(text: &str) -> GraphResult<DeltaBatch> {
        let mut ops = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            let kind = match fields[0] {
                op @ ("add" | "reweight") => {
                    if fields.len() != 4 {
                        return Err(line_error(
                            line,
                            format!("expected `{op} SOURCE TARGET WEIGHT`, got `{trimmed}`"),
                        ));
                    }
                    let weight = fields[3].parse::<f64>().map_err(|_| {
                        line_error(line, format!("cannot parse weight `{}`", fields[3]))
                    })?;
                    if op == "add" {
                        DeltaOpKind::Add {
                            source: fields[1].to_string(),
                            target: fields[2].to_string(),
                            weight,
                        }
                    } else {
                        DeltaOpKind::Reweight {
                            source: fields[1].to_string(),
                            target: fields[2].to_string(),
                            weight,
                        }
                    }
                }
                "remove" => {
                    if fields.len() != 3 {
                        return Err(line_error(
                            line,
                            format!("expected `remove SOURCE TARGET`, got `{trimmed}`"),
                        ));
                    }
                    DeltaOpKind::Remove {
                        source: fields[1].to_string(),
                        target: fields[2].to_string(),
                    }
                }
                other => {
                    return Err(line_error(
                        line,
                        format!("unknown op `{other}` (expected add, remove or reweight)"),
                    ));
                }
            };
            ops.push(DeltaOp { line, kind });
        }
        Ok(DeltaBatch { ops })
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What a committed batch did to the graph — the contract between
/// [`DeltaGraph::apply`] and the incremental rescoring path.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchEffect {
    /// Number of `add` ops committed.
    pub added: usize,
    /// Number of `remove` ops committed.
    pub removed: usize,
    /// Number of `reweight` ops committed.
    pub reweighted: usize,
    /// Whether the edge set changed (any add or remove). When false the
    /// patch was reweight-only and edge ids are stable.
    pub structure_changed: bool,
    /// Every node incident to a mutated edge, sorted ascending.
    pub touched_nodes: Vec<NodeId>,
    /// Post-patch ids of added and reweighted edges (sorted, deduplicated;
    /// edges mutated and then removed in the same batch are dropped).
    pub changed_edges: Vec<usize>,
    /// For each pre-patch edge id, its post-patch id (`None` if removed).
    /// Only present when edges were removed; the mapping is monotone.
    pub remap: Option<Vec<Option<u32>>>,
    /// The edge count before the batch was applied.
    pub old_edge_count: usize,
}

/// A published [`CsrGraph`] and the generations [`DeltaGraph::apply`]
/// builds from it — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaGraph<'a> {
    /// The current generation: the published graph until a batch commits.
    graph: Cow<'a, CsrGraph>,
}

/// Where an endpoint pair named by the batch stands after the ops so far.
#[derive(Clone, Copy)]
enum Slot {
    /// The current generation's edge with this id.
    Base(u32),
    /// The batch's add with this index.
    Added(usize),
    /// No edge.
    Absent,
}

/// Resolves one batch's node tokens: the graph's labels first, then the
/// labels the batch adds, which it stages in a table of its own.
struct Nodes<'g> {
    labels: &'g LabelTable,
    /// The graph's node count.
    base: usize,
    /// The node count after the ops read so far.
    count: usize,
    /// The batch's new labels; the `k`-th is node `base + k`.
    added: LabelTable,
}

impl Nodes<'_> {
    fn resolve(&mut self, token: &str, line: usize, allow_new: bool) -> GraphResult<u32> {
        if !self.labels.is_empty() {
            if let Some(id) = self.labels.get(token) {
                return Ok(id as u32);
            }
            if let Some(local) = self.added.get(token) {
                return Ok((self.base + local) as u32);
            }
            if !allow_new {
                return Err(line_error(line, format!("unknown node `{token}`")));
            }
            check_node_name(token).map_err(|message| line_error(line, format!("new {message}")))?;
            check_capacity("nodes", self.count as u64 + 1)?;
            let id = self.count;
            self.added.intern(token, id - self.base)?;
            self.count += 1;
            Ok(id as u32)
        } else {
            let id: u64 = token
                .parse()
                .map_err(|_| line_error(line, format!("cannot parse node id `{token}`")))?;
            check_capacity("nodes", id + 1)?;
            if allow_new {
                self.count = self.count.max(id as usize + 1);
            } else if id as usize >= self.count {
                return Err(line_error(
                    line,
                    format!(
                        "node {id} is out of bounds (graph has {} nodes)",
                        self.count
                    ),
                ));
            }
            Ok(id as u32)
        }
    }

    /// A node's name in an error message: its label, whether the graph or
    /// the batch holds it, else its id.
    fn describe(&self, node: u32) -> String {
        let node = node as usize;
        let label = match node.checked_sub(self.base) {
            Some(local) => self.added.label(local),
            None => self.labels.label(node),
        };
        label.map_or_else(|| node.to_string(), str::to_string)
    }
}

/// Finds the graph's edges through its adjacency rows. A row's first lookup
/// scans it; its second maps it, neighbor to edge id, for the rest of the
/// batch. So a batch reads each row at most twice, however many of the
/// row's edges it names.
struct Rows<'g> {
    graph: &'g CsrGraph,
    /// Every row looked up so far: `None` after its first scan.
    seen: HashMap<u32, Option<HashMap<u32, u32>>>,
}

impl Rows<'_> {
    /// The id of the edge with canonical endpoints `(a, b)`, if any. The
    /// edge sits in `a`'s row: a directed edge in its source's row only, an
    /// undirected one in both endpoints' rows.
    fn find(&mut self, a: u32, b: u32) -> Option<u32> {
        let graph = self.graph;
        if a.max(b) as usize >= graph.node_count() {
            return None;
        }
        let neighbors = graph.neighbors(a as usize);
        let ids = graph.edge_ids(a as usize);
        match self.seen.entry(a) {
            Entry::Vacant(first) => {
                first.insert(None);
                let at = neighbors.iter().position(|&node| node == b)?;
                Some(ids[at])
            }
            Entry::Occupied(again) => again
                .into_mut()
                .get_or_insert_with(|| neighbors.iter().copied().zip(ids.iter().copied()).collect())
                .get(&b)
                .copied(),
        }
    }
}

impl<'a> DeltaGraph<'a> {
    /// Borrow a published graph; nothing is copied.
    pub fn from_csr(graph: &'a CsrGraph) -> DeltaGraph<'a> {
        DeltaGraph {
            graph: Cow::Borrowed(graph),
        }
    }

    /// The current generation.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Take the current generation out. After a committed batch this is
    /// the graph [`DeltaGraph::apply`] built, moved rather than copied.
    pub fn into_csr(self) -> CsrGraph {
        self.graph.into_owned()
    }

    /// The weight of the current generation's edge with the given id, if
    /// any.
    pub fn edge_weight(&self, edge: usize) -> Option<f64> {
        self.graph.edge(edge).map(|edge| edge.weight)
    }

    /// Apply a batch transactionally and build the next generation: every
    /// op is validated first, so an `Err` leaves the current generation
    /// untouched. Errors carry the offending op's line number, except
    /// capacity overflows, which surface as structured
    /// [`GraphError::CapacityExceeded`]. A new node name must survive a
    /// round trip through an edge list: it may not be empty, start or end
    /// with whitespace, or hold a tab or a line break.
    pub fn apply(&mut self, batch: &DeltaBatch) -> GraphResult<PatchEffect> {
        let graph: &CsrGraph = &self.graph;
        let old_edge_count = graph.edge_count();
        let mut nodes = Nodes {
            labels: graph.label_table(),
            base: graph.node_count(),
            count: graph.node_count(),
            added: LabelTable::new(),
        };
        let mut rows = Rows {
            graph,
            seen: HashMap::new(),
        };
        let mut slots: HashMap<(u32, u32), Slot> = HashMap::new();
        // The graph's edges the batch reweights (`Some`) or removes
        // (`None`), and the edges it adds (`None` once removed again).
        let mut base_ops: Vec<(u32, Option<f64>)> = Vec::new();
        let mut adds: Vec<(u32, u32, Option<f64>)> = Vec::new();
        let mut edge_count = old_edge_count;
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        let (mut added, mut removed, mut reweighted) = (0usize, 0usize, 0usize);
        for op in &batch.ops {
            let line = op.line;
            let (source, target, weight, allow_new) = match &op.kind {
                DeltaOpKind::Add {
                    source,
                    target,
                    weight,
                } => (source, target, Some(*weight), true),
                DeltaOpKind::Remove { source, target } => (source, target, None, false),
                DeltaOpKind::Reweight {
                    source,
                    target,
                    weight,
                } => (source, target, Some(*weight), false),
            };
            let source = nodes.resolve(source, line, allow_new)?;
            let target = nodes.resolve(target, line, allow_new)?;
            if let Some(weight) = weight {
                if !weight.is_finite() || weight < 0.0 {
                    return Err(line_error(line, format!("invalid weight {weight}")));
                }
            }
            let (a, b) = match graph.direction() {
                Direction::Directed => (source, target),
                Direction::Undirected => (source.min(target), source.max(target)),
            };
            let slot = slots
                .entry((a, b))
                .or_insert_with(|| rows.find(a, b).map_or(Slot::Absent, Slot::Base));
            let pair = || format!("`{}` -> `{}`", nodes.describe(a), nodes.describe(b));
            if matches!(op.kind, DeltaOpKind::Add { .. }) {
                if !matches!(slot, Slot::Absent) {
                    let message = format!("edge {} already exists (use reweight)", pair());
                    return Err(line_error(line, message));
                }
                check_capacity("edges", edge_count as u64 + 1)?;
                edge_count += 1;
                added += 1;
                *slot = Slot::Added(adds.len());
                adds.push((a, b, weight));
            } else {
                match *slot {
                    Slot::Base(id) => base_ops.push((id, weight)),
                    Slot::Added(index) => adds[index].2 = weight,
                    Slot::Absent => {
                        let verb = if weight.is_some() {
                            "reweight"
                        } else {
                            "remove"
                        };
                        let message = format!("cannot {verb} absent edge {}", pair());
                        return Err(line_error(line, message));
                    }
                }
                if weight.is_some() {
                    reweighted += 1;
                } else {
                    *slot = Slot::Absent;
                    edge_count -= 1;
                    removed += 1;
                }
            }
            touched.insert(a as NodeId);
            touched.insert(b as NodeId);
        }

        // A stable sort keeps each edge's ops in batch order: its last op
        // decides it.
        base_ops.sort_by_key(|&(id, _)| id);
        let structure_changed = added > 0 || removed > 0;
        let (next, remap, changed_edges) = if !structure_changed {
            let updates: Vec<(usize, f64)> = base_ops
                .iter()
                .filter_map(|&(id, weight)| Some((id as usize, weight?)))
                .collect();
            let mut changed: Vec<usize> = updates.iter().map(|&(id, _)| id).collect();
            changed.dedup();
            (graph.with_reweighted_edges(&updates)?, None, changed)
        } else {
            let mut labels = Arc::clone(graph.label_table());
            if !nodes.added.is_empty() {
                Arc::make_mut(&mut labels).append(&nodes.added, nodes.base)?;
            }
            // Every pushed pair is unique, so a push's index is its edge id.
            let mut builder = CsrBuilder::with_nodes(graph.direction(), nodes.count)?;
            let mut remap = Vec::with_capacity(if removed > 0 { old_edge_count } else { 0 });
            let mut changed = Vec::new();
            let mut ops = base_ops.iter().peekable();
            for edge in graph.edges() {
                let (mut weight, mut hit) = (Some(edge.weight), false);
                while let Some(&(_, last)) = ops.next_if(|&&(id, _)| id as usize == edge.index) {
                    (weight, hit) = (last, true);
                }
                let id = builder.pushed_edges();
                if let Some(weight) = weight {
                    builder.add_edge(edge.source, edge.target, weight)?;
                    if hit {
                        changed.push(id);
                    }
                }
                if removed > 0 {
                    remap.push(weight.map(|_| id as u32));
                }
            }
            for &(source, target, weight) in &adds {
                if let Some(weight) = weight {
                    changed.push(builder.pushed_edges());
                    builder.add_edge(source as NodeId, target as NodeId, weight)?;
                }
            }
            let next = builder.finish()?.with_label_table(labels);
            (next, (removed > 0).then_some(remap), changed)
        };
        self.graph = Cow::Owned(next);
        Ok(PatchEffect {
            added,
            removed,
            reweighted,
            structure_changed,
            touched_nodes: touched.into_iter().collect(),
            changed_edges,
            remap,
            old_edge_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_edge_list_csr_str, EdgeListOptions};

    fn base() -> CsrGraph {
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        read_edge_list_csr_str("a b 2\nb c 1\nc d 4\na d 0.5\n", &options).unwrap()
    }

    #[test]
    fn parse_tsv_reads_all_three_ops() {
        let batch = DeltaBatch::parse_tsv("# comment\n\nadd a e 2.5\nremove b c\nreweight a b 7\n")
            .unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.ops[0].line, 3);
        assert_eq!(
            batch.ops[1].kind,
            DeltaOpKind::Remove {
                source: "b".to_string(),
                target: "c".to_string(),
            }
        );
        assert_eq!(batch.ops[2].line, 5);
    }

    #[test]
    fn parse_tsv_errors_carry_line_numbers() {
        for (text, needle) in [
            ("add a b\n", "line 1: expected `add SOURCE TARGET WEIGHT`"),
            ("\nremove a\n", "line 2: expected `remove SOURCE TARGET`"),
            ("add a b x\n", "line 1: cannot parse weight `x`"),
            ("frobnicate a b\n", "line 1: unknown op `frobnicate`"),
        ] {
            let err = DeltaBatch::parse_tsv(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn apply_is_transactional() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        let batch = DeltaBatch::parse_tsv("add a c 1\nremove a zz\n").unwrap();
        let err = delta.apply(&batch).unwrap_err().to_string();
        assert!(err.contains("line 2: unknown node `zz`"), "{err}");
        // Nothing from line 1 leaked.
        assert_eq!(delta.graph().edge_count(), 4);
        assert_eq!(*delta.graph(), base());
    }

    #[test]
    fn validation_errors_are_line_numbered() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        for (text, needle) in [
            ("add a b 1\n", "line 1: edge `a` -> `b` already exists"),
            (
                "remove a c\n",
                "line 1: cannot remove absent edge `a` -> `c`",
            ),
            (
                "reweight a c 2\n",
                "line 1: cannot reweight absent edge `a` -> `c`",
            ),
            ("add a e -3\n", "line 1: invalid weight -3"),
            ("reweight a b NaN\n", "line 1: invalid weight NaN"),
            ("remove e f\n", "line 1: unknown node `e`"),
        ] {
            let batch = DeltaBatch::parse_tsv(text).unwrap();
            let err = delta.apply(&batch).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    #[test]
    fn effect_reports_what_happened() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        // Base edges in id order: a-b (0), b-c (1), c-d (2), a-d (3).
        let batch = DeltaBatch::parse_tsv("add b d 9\nremove b c\nreweight c d 5\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert_eq!((effect.added, effect.removed, effect.reweighted), (1, 1, 1));
        assert!(effect.structure_changed);
        assert_eq!(effect.old_edge_count, 4);
        // Survivors: 0 -> 0, 2 -> 1, 3 -> 2; the add lands at 3.
        assert_eq!(effect.remap, Some(vec![Some(0), None, Some(1), Some(2)]));
        assert_eq!(effect.changed_edges, vec![1, 3]);
        // Touched: b (1), c (2), d (3).
        assert_eq!(effect.touched_nodes, vec![1, 2, 3]);
    }

    #[test]
    fn reweight_only_batches_keep_structure() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        let batch = DeltaBatch::parse_tsv("reweight a b 10\nreweight c d 0\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert!(!effect.structure_changed);
        assert_eq!(effect.remap, None);
        assert_eq!(effect.changed_edges, vec![0, 2]);
        assert_eq!(delta.edge_weight(0), Some(10.0));
        // The cheap reweight path must match a from-scratch ingest of the
        // reweighted edge list bit-for-bit.
        let updates: Vec<(usize, f64)> = effect
            .changed_edges
            .iter()
            .map(|&id| (id, delta.edge_weight(id).unwrap()))
            .collect();
        let poked = base().with_reweighted_edges(&updates).unwrap();
        assert_eq!(poked, *delta.graph());
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        let fresh = read_edge_list_csr_str("a b 10\nb c 1\nc d 0\na d 0.5\n", &options).unwrap();
        assert_eq!(poked, fresh);
    }

    #[test]
    fn intra_batch_remove_then_add_gets_a_fresh_id() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        let batch = DeltaBatch::parse_tsv("remove a b\nadd a b 6\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert_eq!((effect.added, effect.removed), (1, 1));
        // The re-added edge moves to the end of the id space.
        let patched = delta.graph();
        let last = patched.edge(patched.edge_count() - 1).unwrap();
        assert_eq!(patched.label(last.source), Some("a"));
        assert_eq!(last.weight, 6.0);
        assert_eq!(effect.changed_edges, vec![3]);
    }

    #[test]
    fn add_then_remove_in_one_batch_nets_out() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        let batch = DeltaBatch::parse_tsv("add a c 1\nremove a c\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert!(effect.changed_edges.is_empty());
        assert_eq!(delta.graph().edge_count(), 4);
    }

    #[test]
    fn compaction_matches_from_scratch_ingest() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        let batch =
            DeltaBatch::parse_tsv("remove b c\nadd a e 2\nreweight a b 3\nadd e b 1.5\n").unwrap();
        delta.apply(&batch).unwrap();
        let patched = delta.graph();
        // The patched edge list, written in survivor order then adds.
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        let fresh =
            read_edge_list_csr_str("a b 3\nc d 4\na d 0.5\na e 2\ne b 1.5\n", &options).unwrap();
        assert_eq!(*patched, fresh);
    }

    #[test]
    fn unlabeled_graphs_resolve_numeric_ids() {
        let csr =
            CsrGraph::from_edges(Direction::Undirected, 4, vec![(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let mut delta = DeltaGraph::from_csr(&csr);
        let batch = DeltaBatch::parse_tsv("add 2 3 4\nreweight 0 1 5\n").unwrap();
        delta.apply(&batch).unwrap();
        let patched = delta.graph();
        assert_eq!(patched.edge_count(), 3);
        assert_eq!(patched.edge(0).unwrap().weight, 5.0);

        let bad = DeltaBatch::parse_tsv("remove x y\n").unwrap();
        let err = delta.apply(&bad).unwrap_err().to_string();
        assert!(err.contains("line 1: cannot parse node id `x`"), "{err}");
    }

    #[test]
    fn capacity_overflow_is_structured_not_a_panic() {
        let csr = CsrGraph::from_edges(Direction::Undirected, 2, vec![(0, 1, 1.0)]).unwrap();
        let mut delta = DeltaGraph::from_csr(&csr);
        let batch = DeltaBatch::parse_tsv("add 0 4294967295 1\n").unwrap();
        match delta.apply(&batch).unwrap_err() {
            GraphError::CapacityExceeded {
                what, requested, ..
            } => {
                assert_eq!(what, "nodes");
                assert_eq!(requested, u64::from(u32::MAX) + 1);
            }
            other => panic!("expected CapacityExceeded, got {other:?}"),
        }
        // Transactional: the graph is untouched.
        assert_eq!(delta.graph().edge_count(), 1);
        assert_eq!(delta.graph().node_count(), 2);
    }

    #[test]
    fn directed_graphs_keep_orientation() {
        let options = EdgeListOptions::default();
        let csr = read_edge_list_csr_str("a b 2\nb a 3\n", &options).unwrap();
        let mut delta = DeltaGraph::from_csr(&csr);
        // a->b and b->a are distinct edges.
        let batch = DeltaBatch::parse_tsv("remove b a\nreweight a b 7\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert_eq!((effect.removed, effect.reweighted), (1, 1));
        let patched = delta.graph();
        assert_eq!(patched.edge_count(), 1);
        assert_eq!(patched.edge(0).unwrap().weight, 7.0);
    }

    #[test]
    fn new_node_names_must_survive_an_edge_list() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        for (token, problem) in [
            ("", "is empty"),
            (" x", "has leading or trailing whitespace"),
            ("x\u{3000}", "has leading or trailing whitespace"),
            ("x\ty", "contains a tab or line break"),
            ("x\ry", "contains a tab or line break"),
            ("x\ny", "contains a tab or line break"),
        ] {
            let batch = DeltaBatch {
                ops: vec![
                    DeltaOp {
                        line: 1,
                        kind: DeltaOpKind::Reweight {
                            source: "a".to_string(),
                            target: "b".to_string(),
                            weight: 9.0,
                        },
                    },
                    DeltaOp {
                        line: 2,
                        kind: DeltaOpKind::Add {
                            source: "b".to_string(),
                            target: token.to_string(),
                            weight: 5.0,
                        },
                    },
                ],
            };
            let err = delta.apply(&batch).unwrap_err().to_string();
            assert!(
                err.contains(&format!("line 2: new node name {token:?} {problem}")),
                "{token:?}: {err}"
            );
        }
        // Nothing was applied, and a name with an inner space is accepted.
        assert_eq!(*delta.graph(), base());
        let spaced = DeltaBatch {
            ops: vec![DeltaOp {
                line: 1,
                kind: DeltaOpKind::Add {
                    source: "x y".to_string(),
                    target: "a".to_string(),
                    weight: 1.0,
                },
            }],
        };
        delta.apply(&spaced).unwrap();
        assert_eq!(delta.graph().label(4), Some("x y"));
    }

    #[test]
    fn compaction_shares_the_label_table_until_a_batch_adds_a_node() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        assert!(Arc::ptr_eq(
            delta.graph().label_table(),
            graph.label_table()
        ));

        // Structural, but over existing nodes: the compacted graph shares
        // the published table.
        delta
            .apply(&DeltaBatch::parse_tsv("remove b c\nadd a c 2\n").unwrap())
            .unwrap();
        let compacted = delta.graph().clone();
        assert!(Arc::ptr_eq(compacted.label_table(), graph.label_table()));

        // A new node copies the table once; the next generation shares it.
        delta
            .apply(&DeltaBatch::parse_tsv("add c 17 1\nadd 17 e 2\n").unwrap())
            .unwrap();
        let grown = delta.graph().clone();
        assert!(!Arc::ptr_eq(grown.label_table(), graph.label_table()));
        assert_eq!(grown.node_by_label("17"), Some(4));
        assert_eq!(grown.node_by_label("e"), Some(5));
        assert_eq!(
            graph.node_by_label("17"),
            None,
            "the published graph is untouched"
        );
        delta
            .apply(&DeltaBatch::parse_tsv("reweight 17 e 3\n").unwrap())
            .unwrap();
        assert!(Arc::ptr_eq(
            delta.graph().label_table(),
            grown.label_table()
        ));
    }

    #[test]
    fn errors_name_nodes_the_batch_added() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        for (text, needle) in [
            (
                "add a zed 1\nadd a zed 2\n",
                "line 2: edge `a` -> `zed` already exists",
            ),
            (
                "add a zed 1\nreweight zed b 3\n",
                "line 2: cannot reweight absent edge `b` -> `zed`",
            ),
        ] {
            let batch = DeltaBatch::parse_tsv(text).unwrap();
            let err = delta.apply(&batch).unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    /// One edge of a shadow edge list: endpoints, weight, whether the
    /// batch added or reweighted it, and its id before the batch.
    struct ShadowEdge {
        source: usize,
        target: usize,
        weight: f64,
        changed: bool,
        before: Option<usize>,
    }

    /// Apply `batch` to a shadow edge list the way a from-scratch reader of
    /// the patched edge list sees it: a removal deletes in place, an add
    /// appends and a reweight rewrites the live edge. New names join
    /// `names`. Returns the nodes the batch touched, sorted.
    fn shadow(
        direction: Direction,
        names: &mut Vec<String>,
        edges: &mut Vec<ShadowEdge>,
        batch: &DeltaBatch,
    ) -> Vec<NodeId> {
        let mut touched = BTreeSet::new();
        for op in &batch.ops {
            let (source, target, weight) = match &op.kind {
                DeltaOpKind::Add {
                    source,
                    target,
                    weight,
                }
                | DeltaOpKind::Reweight {
                    source,
                    target,
                    weight,
                } => (source, target, Some(*weight)),
                DeltaOpKind::Remove { source, target } => (source, target, None),
            };
            let mut id = |name: &String| {
                names
                    .iter()
                    .position(|known| known == name)
                    .unwrap_or_else(|| {
                        names.push(name.clone());
                        names.len() - 1
                    })
            };
            let (s, t) = (id(source), id(target));
            touched.extend([s, t]);
            let at = edges.iter().position(|edge| {
                (edge.source, edge.target) == (s, t)
                    || (direction == Direction::Undirected && (edge.source, edge.target) == (t, s))
            });
            match (&op.kind, at) {
                (DeltaOpKind::Add { .. }, None) => edges.push(ShadowEdge {
                    source: s,
                    target: t,
                    weight: weight.unwrap(),
                    changed: true,
                    before: None,
                }),
                (DeltaOpKind::Remove { .. }, Some(at)) => {
                    edges.remove(at);
                }
                (DeltaOpKind::Reweight { .. }, Some(at)) => {
                    edges[at].weight = weight.unwrap();
                    edges[at].changed = true;
                }
                _ => panic!("line {} does not apply", op.line),
            }
        }
        touched.into_iter().collect()
    }

    /// A from-scratch build of `edges` over the nodes `names`, in id order.
    fn build(direction: Direction, names: &[String], edges: &[ShadowEdge]) -> CsrGraph {
        let labels = names.iter().cloned().map(Some).collect();
        let mut builder = CsrBuilder::with_labeled_nodes(direction, names.len(), labels).unwrap();
        for edge in edges {
            builder
                .add_edge(edge.source, edge.target, edge.weight)
                .unwrap();
        }
        builder.finish().unwrap()
    }

    #[test]
    fn a_batch_on_a_hub_matches_a_from_scratch_build() {
        // Tokens in both orders, remove-then-add, add-then-reweight,
        // add-then-remove, a self-loop, and 151 reweights of hub edges.
        let mut text = String::from(
            "reweight h x1 7\nreweight x2 h 8\nremove x3 h\nremove h x4\nadd h x4 9\n\
             reweight x4 h 10\nreweight h h 0.25\nadd new h 11\nreweight new h 12\n\
             add x5 x6 13\nremove x5 x6\nreweight x1 h 14\nadd x1 x7 15\n",
        );
        for leaf in 100..=250 {
            text.push_str(&format!("reweight h x{leaf} {}\n", 0.5 * leaf as f64));
        }
        let batch = DeltaBatch::parse_tsv(&text).unwrap();
        for direction in [Direction::Undirected, Direction::Directed] {
            // A star: hub `h` joined to leaves x1..x250, which also point
            // back at the hub when directed; the hub has a self-loop.
            let mut names = vec!["h".to_string()];
            names.extend((1..=250).map(|leaf| format!("x{leaf}")));
            let mut pairs: Vec<(usize, usize, f64)> =
                (1..=250).map(|leaf| (0, leaf, leaf as f64)).collect();
            if direction == Direction::Directed {
                pairs.extend((1..=250).map(|leaf| (leaf, 0, 1000.0 + leaf as f64)));
            }
            pairs.push((0, 0, 0.5));
            let mut edges: Vec<ShadowEdge> = pairs
                .iter()
                .enumerate()
                .map(|(id, &(source, target, weight))| ShadowEdge {
                    source,
                    target,
                    weight,
                    changed: false,
                    before: Some(id),
                })
                .collect();
            let graph = build(direction, &names, &edges);
            let touched = shadow(direction, &mut names, &mut edges, &batch);

            let mut delta = DeltaGraph::from_csr(&graph);
            let effect = delta.apply(&batch).unwrap();
            assert_eq!(
                *delta.graph(),
                build(direction, &names, &edges),
                "{direction:?}"
            );
            assert_eq!(
                (effect.added, effect.removed, effect.reweighted),
                (4, 3, 157)
            );
            assert!(effect.structure_changed);
            assert_eq!(effect.old_edge_count, pairs.len());
            assert_eq!(effect.touched_nodes, touched);
            let changed: Vec<usize> = (0..edges.len()).filter(|&id| edges[id].changed).collect();
            assert_eq!(effect.changed_edges, changed, "{direction:?}");
            let mut remap = vec![None; pairs.len()];
            for (id, edge) in edges.iter().enumerate() {
                if let Some(before) = edge.before {
                    remap[before] = Some(id as u32);
                }
            }
            assert_eq!(effect.remap, Some(remap), "{direction:?}");
        }
    }

    #[test]
    fn a_reweight_only_batch_on_a_hub_matches_a_from_scratch_build() {
        for direction in [Direction::Undirected, Direction::Directed] {
            // A star on hub 0 with 300 leaves and a self-loop (edge 300).
            let star = |weight: fn(usize) -> f64| {
                let mut triples: Vec<_> = (1..=300).map(|leaf| (0, leaf, weight(leaf))).collect();
                triples.push((0, 0, weight(0)));
                CsrGraph::from_edges(direction, 301, triples).unwrap()
            };
            let graph = star(|_| 1.0);
            let mut text = String::new();
            for node in (0..=300).rev() {
                if direction == Direction::Undirected && node % 2 == 1 {
                    text.push_str(&format!("reweight {node} 0 {node}.5\n"));
                } else {
                    text.push_str(&format!("reweight 0 {node} {node}.5\n"));
                }
            }
            let mut delta = DeltaGraph::from_csr(&graph);
            let effect = delta.apply(&DeltaBatch::parse_tsv(&text).unwrap()).unwrap();
            assert_eq!(
                *delta.graph(),
                star(|node| node as f64 + 0.5),
                "{direction:?}"
            );
            assert!(!effect.structure_changed);
            assert_eq!(effect.reweighted, 301);
            assert_eq!(effect.changed_edges, (0..=300).collect::<Vec<_>>());
            assert_eq!(effect.touched_nodes, (0..=300).collect::<Vec<_>>());
        }
    }
}
