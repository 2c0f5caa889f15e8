//! Batched edge deltas over the compact CSR core.
//!
//! The paper's measures are defined on a static weighted graph, but served
//! workloads mutate: edges appear, disappear and change weight. This module
//! is the mutable overlay that makes those mutations cheap while keeping the
//! immutable [`CsrGraph`] canonical:
//!
//! * [`DeltaBatch`] — a parsed batch of [`DeltaOp`]s (`add` / `remove` /
//!   `reweight`), each carrying the 1-based line it came from so validation
//!   errors point at the offending input line.
//! * [`DeltaGraph`] — a dense edge log seeded from a [`CsrGraph`]
//!   ([`DeltaGraph::from_csr`]) that applies batches **transactionally**:
//!   every op in a batch is validated against a staged view before anything
//!   mutates, so a failed batch leaves the graph untouched. Node tokens
//!   resolve against the seed graph's own [`LabelTable`], shared rather
//!   than copied; a batch stages its new labels in a table of its own, and
//!   [`DeltaGraph::to_csr`] hands the table back to the compacted graph.
//! * [`PatchEffect`] — what a committed batch did: counts, the touched
//!   nodes, the (post-patch) ids of changed edges, and the survivor remap
//!   when edges were removed. This is exactly the input the incremental
//!   rescoring path in `backboning::delta` needs.
//!
//! ## Compaction preserves bits
//!
//! [`DeltaGraph::to_csr`] compacts the log back to a flat [`CsrGraph`]. The
//! log keeps live edges in first-occurrence order (surviving base edges in
//! base-id order, then additions in arrival order) with canonical endpoint
//! pairs already unique, so the builder's sort-merge is the identity
//! permutation: edge ids follow the log order and every adjacency row lists
//! a node's incident edges in ascending edge-id order — the same order a
//! from-scratch ingest of the patched edge list would produce. Per-node
//! strength sums therefore accumulate in the same order and keep identical
//! `f64` bits, which is what makes node-local incremental rescoring *exact*
//! rather than approximate (pinned by the churn-parity suite).
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
//! let patched = delta.to_csr().unwrap();
//! assert_eq!(patched.edge_count(), 3);
//! ```

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

/// What a committed batch did to the graph — the contract between the
/// overlay and the incremental rescoring path.
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

#[derive(Clone, Copy, PartialEq)]
enum Staged {
    Present,
    Absent,
}

/// A mutable edge log seeded from a [`CsrGraph`] — see the
/// [module docs](self) for the ordering invariants it maintains.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    direction: Direction,
    node_count: usize,
    sources: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Canonical packed endpoint pair → live edge id.
    index: HashMap<u64, u32>,
    /// The seed graph's label table, shared with every graph compacted
    /// from this overlay until a batch adds a node.
    labels: Arc<LabelTable>,
    patches: u64,
    ops_applied: u64,
}

fn pair_key(source: u32, target: u32) -> u64 {
    (u64::from(source) << 32) | u64::from(target)
}

impl DeltaGraph {
    /// Seed the overlay from a compact graph: live edges in edge-id order,
    /// plus the graph's shared label table for token resolution.
    pub fn from_csr(graph: &CsrGraph) -> DeltaGraph {
        let edge_count = graph.edge_count();
        let mut sources = Vec::with_capacity(edge_count);
        let mut targets = Vec::with_capacity(edge_count);
        let mut weights = Vec::with_capacity(edge_count);
        let mut index = HashMap::with_capacity(edge_count);
        for edge in graph.edges() {
            let source = edge.source as u32;
            let target = edge.target as u32;
            index.insert(pair_key(source, target), sources.len() as u32);
            sources.push(source);
            targets.push(target);
            weights.push(edge.weight);
        }
        DeltaGraph {
            direction: graph.direction(),
            node_count: graph.node_count(),
            sources,
            targets,
            weights,
            index,
            labels: Arc::clone(graph.label_table()),
            patches: 0,
            ops_applied: 0,
        }
    }

    /// Direction semantics of the overlay.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Current node count.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Current live edge count.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of batches committed so far.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Number of individual ops committed so far.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The weight of the live edge with the given id, if any.
    pub fn edge_weight(&self, edge: usize) -> Option<f64> {
        self.weights.get(edge).copied()
    }

    fn has_labels(&self) -> bool {
        !self.labels.is_empty()
    }

    fn canonical(&self, source: u32, target: u32) -> (u32, u32) {
        match self.direction {
            Direction::Directed => (source, target),
            Direction::Undirected => (source.min(target), source.max(target)),
        }
    }

    fn describe(&self, node: u32) -> String {
        self.labels
            .label(node as usize)
            .map_or_else(|| node.to_string(), str::to_string)
    }

    /// Resolve a node token against the staged view (validation phase).
    /// A new label becomes node `node_count + k` for the batch's `k`-th new
    /// label, and is staged in `staged_labels` as node `k`.
    fn resolve_staged(
        &self,
        token: &str,
        line: usize,
        allow_new: bool,
        staged_nodes: &mut usize,
        staged_labels: &mut LabelTable,
    ) -> GraphResult<u32> {
        if self.has_labels() {
            if let Some(id) = self.labels.get(token) {
                return Ok(id as u32);
            }
            if let Some(local) = staged_labels.get(token) {
                return Ok((self.node_count + local) as u32);
            }
            if !allow_new {
                return Err(line_error(line, format!("unknown node `{token}`")));
            }
            check_node_name(token).map_err(|message| line_error(line, format!("new {message}")))?;
            check_capacity("nodes", *staged_nodes as u64 + 1)?;
            let id = *staged_nodes;
            staged_labels.intern(token, id - self.node_count)?;
            *staged_nodes += 1;
            Ok(id as u32)
        } else {
            let id: u64 = token
                .parse()
                .map_err(|_| line_error(line, format!("cannot parse node id `{token}`")))?;
            check_capacity("nodes", id + 1)?;
            if allow_new {
                *staged_nodes = (*staged_nodes).max(id as usize + 1);
            } else if id as usize >= *staged_nodes {
                return Err(line_error(
                    line,
                    format!("node {id} is out of bounds (graph has {staged_nodes} nodes)"),
                ));
            }
            Ok(id as u32)
        }
    }

    /// Apply a batch transactionally: every op is validated against a
    /// staged view first, so an `Err` leaves the overlay untouched. Errors
    /// carry the offending op's line number, except capacity overflows,
    /// which surface as structured [`GraphError::CapacityExceeded`]. A new
    /// node name must survive a round trip through an edge list: it may
    /// not be empty, start or end with whitespace, or hold a tab or a line
    /// break.
    pub fn apply(&mut self, batch: &DeltaBatch) -> GraphResult<PatchEffect> {
        // Phase 1: validate everything against staged state, resolving
        // every op's canonical endpoints once.
        let mut staged: HashMap<u64, Staged> = HashMap::new();
        let mut staged_nodes = self.node_count;
        let mut staged_labels = LabelTable::new();
        let mut staged_edge_count = self.weights.len();
        let mut endpoints: Vec<(u32, u32)> = Vec::with_capacity(batch.len());
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
            let source = self.resolve_staged(
                source,
                line,
                allow_new,
                &mut staged_nodes,
                &mut staged_labels,
            )?;
            let target = self.resolve_staged(
                target,
                line,
                allow_new,
                &mut staged_nodes,
                &mut staged_labels,
            )?;
            if let Some(weight) = weight {
                if !weight.is_finite() || weight < 0.0 {
                    return Err(line_error(line, format!("invalid weight {weight}")));
                }
            }
            let (a, b) = self.canonical(source, target);
            endpoints.push((a, b));
            let key = pair_key(a, b);
            let present = match staged.get(&key) {
                Some(Staged::Present) => true,
                Some(Staged::Absent) => false,
                None => self.index.contains_key(&key),
            };
            match &op.kind {
                DeltaOpKind::Add { .. } => {
                    if present {
                        return Err(line_error(
                            line,
                            format!(
                                "edge `{}` -> `{}` already exists (use reweight)",
                                self.describe(a),
                                self.describe(b)
                            ),
                        ));
                    }
                    check_capacity("edges", staged_edge_count as u64 + 1)?;
                    staged_edge_count += 1;
                    staged.insert(key, Staged::Present);
                }
                DeltaOpKind::Remove { .. } => {
                    if !present {
                        return Err(line_error(
                            line,
                            format!(
                                "cannot remove absent edge `{}` -> `{}`",
                                self.describe(a),
                                self.describe(b)
                            ),
                        ));
                    }
                    staged_edge_count -= 1;
                    staged.insert(key, Staged::Absent);
                }
                DeltaOpKind::Reweight { .. } => {
                    if !present {
                        return Err(line_error(
                            line,
                            format!(
                                "cannot reweight absent edge `{}` -> `{}`",
                                self.describe(a),
                                self.describe(b)
                            ),
                        ));
                    }
                    staged.insert(key, Staged::Present);
                }
            }
        }

        // Phase 2: commit. Only the label append can fail, and it fails
        // before anything changes.
        if !staged_labels.is_empty() {
            Arc::make_mut(&mut self.labels).append(&staged_labels, self.node_count)?;
        }
        self.node_count = staged_nodes;
        let old_edge_count = self.weights.len();
        let mut removed_flags = vec![false; old_edge_count];
        let mut any_removed = false;
        let mut added_ids: Vec<u32> = Vec::new();
        let mut reweighted_ids: Vec<u32> = Vec::new();
        let mut touched: BTreeSet<NodeId> = BTreeSet::new();
        let (mut added, mut removed, mut reweighted) = (0usize, 0usize, 0usize);
        for (op, &(a, b)) in batch.ops.iter().zip(&endpoints) {
            match &op.kind {
                DeltaOpKind::Add { weight, .. } => {
                    let id = self.weights.len() as u32;
                    self.sources.push(a);
                    self.targets.push(b);
                    self.weights.push(*weight);
                    removed_flags.push(false);
                    self.index.insert(pair_key(a, b), id);
                    added_ids.push(id);
                    added += 1;
                    touched.insert(a as NodeId);
                    touched.insert(b as NodeId);
                }
                DeltaOpKind::Remove { .. } => {
                    let id = self
                        .index
                        .remove(&pair_key(a, b))
                        .expect("validated edge presence");
                    removed_flags[id as usize] = true;
                    any_removed = true;
                    removed += 1;
                    touched.insert(a as NodeId);
                    touched.insert(b as NodeId);
                }
                DeltaOpKind::Reweight { weight, .. } => {
                    let id = *self
                        .index
                        .get(&pair_key(a, b))
                        .expect("validated edge presence");
                    self.weights[id as usize] = *weight;
                    reweighted_ids.push(id);
                    reweighted += 1;
                    touched.insert(a as NodeId);
                    touched.insert(b as NodeId);
                }
            }
        }

        // Order-preserving sweep of removed slots; survivors keep their
        // relative order so the remap is monotone.
        let (remap, changed_edges) = if any_removed {
            let total = self.weights.len();
            let mut full_remap: Vec<Option<u32>> = vec![None; total];
            let mut write = 0usize;
            for read in 0..total {
                if removed_flags[read] {
                    continue;
                }
                if write != read {
                    self.sources[write] = self.sources[read];
                    self.targets[write] = self.targets[read];
                    self.weights[write] = self.weights[read];
                }
                full_remap[read] = Some(write as u32);
                write += 1;
            }
            self.sources.truncate(write);
            self.targets.truncate(write);
            self.weights.truncate(write);
            self.index.clear();
            for id in 0..write {
                self.index
                    .insert(pair_key(self.sources[id], self.targets[id]), id as u32);
            }
            let changed: BTreeSet<usize> = added_ids
                .iter()
                .chain(reweighted_ids.iter())
                .filter_map(|&id| full_remap[id as usize].map(|new| new as usize))
                .collect();
            (
                Some(full_remap[..old_edge_count].to_vec()),
                changed.into_iter().collect(),
            )
        } else {
            let changed: BTreeSet<usize> = added_ids
                .iter()
                .chain(reweighted_ids.iter())
                .map(|&id| id as usize)
                .collect();
            (None, changed.into_iter().collect())
        };

        self.patches += 1;
        self.ops_applied += batch.ops.len() as u64;
        Ok(PatchEffect {
            added,
            removed,
            reweighted,
            structure_changed: added > 0 || any_removed,
            touched_nodes: touched.into_iter().collect(),
            changed_edges,
            remap,
            old_edge_count,
        })
    }

    /// Compact the log back to a flat [`CsrGraph`]. Edge ids follow the
    /// log's first-occurrence order, so the result is identical (including
    /// `f64` bits of every per-node strength sum) to ingesting the patched
    /// edge list from scratch. The result shares this overlay's label
    /// table: no label is copied.
    pub fn to_csr(&self) -> GraphResult<CsrGraph> {
        let mut builder = CsrBuilder::with_nodes(self.direction, self.node_count)?;
        for id in 0..self.weights.len() {
            builder.add_edge(
                self.sources[id] as NodeId,
                self.targets[id] as NodeId,
                self.weights[id],
            )?;
        }
        Ok(builder.finish()?.with_label_table(Arc::clone(&self.labels)))
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
        let mut delta = DeltaGraph::from_csr(&base());
        let batch = DeltaBatch::parse_tsv("add a c 1\nremove a zz\n").unwrap();
        let err = delta.apply(&batch).unwrap_err().to_string();
        assert!(err.contains("line 2: unknown node `zz`"), "{err}");
        // Nothing from line 1 leaked.
        assert_eq!(delta.edge_count(), 4);
        assert_eq!(delta.patches(), 0);
        assert_eq!(delta.to_csr().unwrap(), base());
    }

    #[test]
    fn validation_errors_are_line_numbered() {
        let mut delta = DeltaGraph::from_csr(&base());
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
        let mut delta = DeltaGraph::from_csr(&base());
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
        let mut delta = DeltaGraph::from_csr(&base());
        let batch = DeltaBatch::parse_tsv("reweight a b 10\nreweight c d 0\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert!(!effect.structure_changed);
        assert_eq!(effect.remap, None);
        assert_eq!(effect.changed_edges, vec![0, 2]);
        assert_eq!(delta.edge_weight(0), Some(10.0));
        // The cheap reweight path must match a full compaction bit-for-bit.
        let updates: Vec<(usize, f64)> = effect
            .changed_edges
            .iter()
            .map(|&id| (id, delta.edge_weight(id).unwrap()))
            .collect();
        let poked = base().with_reweighted_edges(&updates).unwrap();
        assert_eq!(poked, delta.to_csr().unwrap());
    }

    #[test]
    fn intra_batch_remove_then_add_gets_a_fresh_id() {
        let mut delta = DeltaGraph::from_csr(&base());
        let batch = DeltaBatch::parse_tsv("remove a b\nadd a b 6\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert_eq!((effect.added, effect.removed), (1, 1));
        // The re-added edge moves to the end of the id space.
        let patched = delta.to_csr().unwrap();
        let last = patched.edge(patched.edge_count() - 1).unwrap();
        assert_eq!(patched.label(last.source), Some("a"));
        assert_eq!(last.weight, 6.0);
        assert_eq!(effect.changed_edges, vec![3]);
    }

    #[test]
    fn add_then_remove_in_one_batch_nets_out() {
        let mut delta = DeltaGraph::from_csr(&base());
        let batch = DeltaBatch::parse_tsv("add a c 1\nremove a c\n").unwrap();
        let effect = delta.apply(&batch).unwrap();
        assert!(effect.changed_edges.is_empty());
        assert_eq!(delta.to_csr().unwrap().edge_count(), 4);
    }

    #[test]
    fn compaction_matches_from_scratch_ingest() {
        let mut delta = DeltaGraph::from_csr(&base());
        let batch =
            DeltaBatch::parse_tsv("remove b c\nadd a e 2\nreweight a b 3\nadd e b 1.5\n").unwrap();
        delta.apply(&batch).unwrap();
        let patched = delta.to_csr().unwrap();
        // The patched edge list, written in survivor order then adds.
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        let fresh =
            read_edge_list_csr_str("a b 3\nc d 4\na d 0.5\na e 2\ne b 1.5\n", &options).unwrap();
        assert_eq!(patched, fresh);
    }

    #[test]
    fn unlabeled_graphs_resolve_numeric_ids() {
        let csr =
            CsrGraph::from_edges(Direction::Undirected, 4, vec![(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let mut delta = DeltaGraph::from_csr(&csr);
        let batch = DeltaBatch::parse_tsv("add 2 3 4\nreweight 0 1 5\n").unwrap();
        delta.apply(&batch).unwrap();
        let patched = delta.to_csr().unwrap();
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
        // Transactional: the overlay is untouched.
        assert_eq!(delta.edge_count(), 1);
        assert_eq!(delta.node_count(), 2);
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
        let patched = delta.to_csr().unwrap();
        assert_eq!(patched.edge_count(), 1);
        assert_eq!(patched.edge(0).unwrap().weight, 7.0);
    }

    #[test]
    fn new_node_names_must_survive_an_edge_list() {
        let mut delta = DeltaGraph::from_csr(&base());
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
        assert_eq!(delta.patches(), 0);
        assert_eq!(delta.to_csr().unwrap(), base());
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
        assert_eq!(delta.to_csr().unwrap().label(4), Some("x y"));
    }

    #[test]
    fn compaction_shares_the_label_table_until_a_batch_adds_a_node() {
        let graph = base();
        let mut delta = DeltaGraph::from_csr(&graph);
        assert!(Arc::ptr_eq(&delta.labels, graph.label_table()));

        // Structural, but over existing nodes: the compacted graph shares
        // the published table.
        delta
            .apply(&DeltaBatch::parse_tsv("remove b c\nadd a c 2\n").unwrap())
            .unwrap();
        let compacted = delta.to_csr().unwrap();
        assert!(Arc::ptr_eq(compacted.label_table(), graph.label_table()));

        // A new node copies the table once; the next generation shares it.
        delta
            .apply(&DeltaBatch::parse_tsv("add c 17 1\nadd 17 e 2\n").unwrap())
            .unwrap();
        let grown = delta.to_csr().unwrap();
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
            delta.to_csr().unwrap().label_table(),
            grown.label_table()
        ));
    }

    #[test]
    fn counters_accumulate_across_batches() {
        let mut delta = DeltaGraph::from_csr(&base());
        delta
            .apply(&DeltaBatch::parse_tsv("reweight a b 1\n").unwrap())
            .unwrap();
        delta
            .apply(&DeltaBatch::parse_tsv("add a c 1\nremove a c\n").unwrap())
            .unwrap();
        assert_eq!(delta.patches(), 2);
        assert_eq!(delta.ops_applied(), 3);
    }
}
