//! The scored-edge representation shared by all backboning methods.
//!
//! Every method assigns each edge a *significance score* such that higher
//! means "more salient" and the method's natural pruning rule is
//! `score ≥ threshold`:
//!
//! | Method | `score` | threshold meaning |
//! |---|---|---|
//! | Noise-Corrected | `L̃ij / sqrt(V[L̃ij])` (standard deviations above the null) | the paper's `δ` |
//! | NC (binomial p-value variant) | `1 − p` | `1 − p_max` |
//! | Disparity Filter | `1 − α` | `1 − α_max` |
//! | High Salience Skeleton | salience ∈ [0, 1] | salience cut |
//! | Doubly Stochastic | doubly-stochastic weight | weight cut |
//! | Maximum Spanning Tree | 1 for tree edges, 0 otherwise | any value in (0, 1] |
//! | Naive Threshold | raw weight | the naive weight cut `δ` |
//!
//! On top of thresholding, [`ScoredEdges`] supports selecting the `k` highest
//! scoring edges or a fixed *share* of edges — the mechanism the paper uses to
//! compare methods at equal backbone sizes in the coverage, quality and
//! stability experiments.
//!
//! # Storage
//!
//! A [`ScoredEdges`] set stores one column per field, indexed by dense edge
//! id: `u32` sources and targets, `f64` weights and scores, and whole `f64`
//! columns for the optional values only the methods that define them carry.
//! [`ScoredEdges::iter`] and [`ScoredEdges::get`] hand out [`ScoredEdge`]
//! rows by value, built from the columns; `get` is O(1). Exact bytes per
//! edge ([`ScoredEdges::memory_bytes`]):
//!
//! | Method | optional columns | bytes per edge | once ranked |
//! |---|---|---|---|
//! | Noise-Corrected (both prior variants) | raw score, standard deviation | 40 | 44 |
//! | NC binomial variant, Disparity Filter | p-value | 32 | 36 |
//! | HSS, sampled HSS, Doubly Stochastic, MST, Naive | — | 24 | 28 |
//!
//! "Once ranked" is a set whose [`ScoredEdges::ranked`] order has been
//! built: 4 more bytes per edge, one `u32` edge id each.
//!
//! # Ranking
//!
//! [`ScoredEdges::top_k`], [`ScoredEdges::top_share`] and the pipeline's
//! coverage policy all rank edges by one rule: descending score, then
//! descending weight, then ascending edge id. Each edge maps to the integer
//! key `(desc_key(score), desc_key(weight), id)`, where `desc_key` turns a
//! float's bits into a `u64` whose ascending order is the float's
//! descending order; −0.0 folds into +0.0, and a NaN maps past every
//! number. A one-shot run selects on these keys; a score set that is read
//! again keeps the full order ([`ScoredEdges::ranked`]) and answers every
//! later read with a prefix of it.

use std::ops::Range;
use std::sync::OnceLock;

use backboning_graph::csr::CSR_INDEX_LIMIT;
use backboning_graph::{CsrGraph, EdgeRef, GraphError, GraphView, NodeId, WeightedGraph};
use backboning_parallel::{clamped_threads, par_split, SplitAt};

use crate::error::{BackboneError, BackboneResult};

/// How the two directed scores of an undirected edge are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Symmetrization {
    /// Keep the larger of the two directional scores (the default of the
    /// reference implementation: an edge is salient if it is salient in
    /// either direction).
    #[default]
    Max,
    /// Keep the smaller of the two directional scores (stricter: the edge must
    /// be salient in both directions).
    Min,
    /// Average the two directional scores.
    Average,
}

impl Symmetrization {
    /// Combine two directional scores.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Symmetrization::Max => a.max(b),
            Symmetrization::Min => a.min(b),
            Symmetrization::Average => 0.5 * (a + b),
        }
    }
}

/// One scored edge: a row of a [`ScoredEdges`] set, built by value from its
/// columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEdge {
    /// Dense index of the edge in the original graph.
    pub edge_index: usize,
    /// Source endpoint in the original graph.
    pub source: NodeId,
    /// Target endpoint in the original graph.
    pub target: NodeId,
    /// Original edge weight.
    pub weight: f64,
    /// Method-specific significance score (higher = more salient).
    pub score: f64,
    /// Method-specific raw score, when it differs from `score` (for the
    /// Noise-Corrected backbone: the transformed lift `L̃ij`).
    pub raw_score: Option<f64>,
    /// Standard deviation of the raw score under the null model (NC only).
    pub std_dev: Option<f64>,
    /// p-value of the edge under the method's null model, when defined.
    pub p_value: Option<f64>,
}

/// A method-specific optional column of a [`ScoredEdges`] set: a scorer
/// names the columns it fills, in the order of the values it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Column {
    /// [`ScoredEdge::raw_score`].
    RawScore,
    /// [`ScoredEdge::std_dev`].
    StdDev,
    /// [`ScoredEdge::p_value`].
    PValue,
}

/// The scored edges of a graph under one backboning method, stored as
/// columns indexed by dense edge id (see the [module docs](self) for the
/// bytes per edge of each method).
///
/// Position `i` of every column describes edge id `i`: [`ScoredEdges::get`]
/// is an O(1) index, and [`ScoredEdges::iter`] yields [`ScoredEdge`] rows by
/// value in edge-id order. Every scorer fills the columns in one pass over
/// the edge ids, copying endpoints and weights from the graph.
///
/// The set's value is its columns: the rank order [`ScoredEdges::ranked`]
/// may cache is ignored by `==`, and a clone starts without it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredEdges {
    method: &'static str,
    node_count: usize,
    sources: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    scores: Vec<f64>,
    raw_scores: Option<Vec<f64>>,
    std_devs: Option<Vec<f64>>,
    p_values: Option<Vec<f64>>,
    ranked: RankOrder,
}

/// The cached full ranking order of a [`ScoredEdges`] set, built on the
/// first [`ScoredEdges::ranked`] call. It is derived from the columns, so it
/// is no part of the set's value: every two orders compare equal, and a
/// clone starts empty (a carried or patched copy must not keep a stale one).
#[derive(Debug, Default)]
struct RankOrder(OnceLock<Box<[u32]>>);

impl Clone for RankOrder {
    fn clone(&self) -> Self {
        RankOrder::default()
    }
}

impl PartialEq for RankOrder {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// An edge's place in a ranking being sorted: a [`desc_key`] and the edge
/// id. Sorting these 16-byte pairs, then re-sorting each run of tied scores
/// by weight ([`ScoredEdges::sort_keys`]), gives the order of the full
/// `(score, weight, id)` key without a 24-byte tuple per edge.
type RankKey = (u64, u32);

/// The key whose ascending order is `value`'s descending order: −0.0 and
/// +0.0 map to one key, and every NaN maps to `u64::MAX`, past every number.
fn desc_key(value: f64) -> u64 {
    if value.is_nan() {
        return u64::MAX;
    }
    let bits = if value == 0.0 { 0 } else { value.to_bits() };
    // As unsigned integers, positive floats ascend with their bits and
    // negative ones descend. Clearing a positive float's sign bit after
    // inverting it puts it below every negative one, largest first.
    if bits >> 63 == 1 {
        bits
    } else {
        !bits & (u64::MAX >> 1)
    }
}

/// One worker's edge-id range of the columns [`ScoredEdges::score_edges`]
/// fills: the four fixed columns plus the scorer's optional ones.
struct RowsMut<'a> {
    sources: &'a mut [u32],
    targets: &'a mut [u32],
    weights: &'a mut [f64],
    scores: &'a mut [f64],
    values: Vec<&'a mut [f64]>,
}

impl SplitAt for RowsMut<'_> {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (sources, sources_tail) = self.sources.split_at_mut(mid);
        let (targets, targets_tail) = self.targets.split_at_mut(mid);
        let (weights, weights_tail) = self.weights.split_at_mut(mid);
        let (scores, scores_tail) = self.scores.split_at_mut(mid);
        let (values, values_tail) = self
            .values
            .into_iter()
            .map(|column| column.split_at_mut(mid))
            .unzip();
        (
            RowsMut {
                sources,
                targets,
                weights,
                scores,
                values,
            },
            RowsMut {
                sources: sources_tail,
                targets: targets_tail,
                weights: weights_tail,
                scores: scores_tail,
                values: values_tail,
            },
        )
    }
}

impl ScoredEdges {
    /// Score every edge of `graph` in one pass over its edge ids — the
    /// constructor every scorer goes through. `score` maps an edge to its
    /// significance score and its values for `columns`, in that order;
    /// endpoints and weights are copied from the graph.
    ///
    /// Workers fill disjoint edge-id ranges of the columns in place (the
    /// graph is read directly, nothing is copied out first or collected
    /// afterwards), so when `score` is a pure function of the edge the
    /// result is bit-identical at every thread count. On failure the error
    /// of the lowest failing edge id is returned, also at every thread count.
    pub(crate) fn score_edges<G, F, const N: usize>(
        method: &'static str,
        graph: &G,
        threads: usize,
        columns: [Column; N],
        score: F,
    ) -> BackboneResult<Self>
    where
        G: GraphView,
        F: Fn(EdgeRef) -> BackboneResult<(f64, [f64; N])> + Sync,
    {
        let node_count = graph.node_count();
        if node_count as u64 > CSR_INDEX_LIMIT {
            return Err(GraphError::CapacityExceeded {
                what: "nodes",
                requested: node_count as u64,
                limit: CSR_INDEX_LIMIT,
            }
            .into());
        }
        let edge_count = graph.edge_count();
        if edge_count as u64 > CSR_INDEX_LIMIT {
            // A rank order stores edge ids as `u32`.
            return Err(GraphError::CapacityExceeded {
                what: "edges",
                requested: edge_count as u64,
                limit: CSR_INDEX_LIMIT,
            }
            .into());
        }
        let mut sources = vec![0u32; edge_count];
        let mut targets = vec![0u32; edge_count];
        let mut weights = vec![0.0; edge_count];
        let mut scores = vec![0.0; edge_count];
        let mut values: Vec<Vec<f64>> = columns.iter().map(|_| vec![0.0; edge_count]).collect();
        let rows = RowsMut {
            sources: &mut sources,
            targets: &mut targets,
            weights: &mut weights,
            scores: &mut scores,
            values: values.iter_mut().map(Vec::as_mut_slice).collect(),
        };
        par_split(
            edge_count,
            clamped_threads(threads, edge_count, 2048),
            rows,
            |range: Range<usize>, mut rows: RowsMut| {
                for (row, id) in range.enumerate() {
                    let edge = graph.edge(id).expect("edge id below the edge count");
                    // Node ids fit: the node count was checked above.
                    rows.sources[row] = edge.source as u32;
                    rows.targets[row] = edge.target as u32;
                    rows.weights[row] = edge.weight;
                    let (score, extra) = score(edge)?;
                    rows.scores[row] = score;
                    for (column, value) in rows.values.iter_mut().zip(extra) {
                        column[row] = value;
                    }
                }
                Ok(())
            },
        )
        .into_iter()
        .collect::<BackboneResult<Vec<()>>>()?;
        let mut scored = ScoredEdges {
            method,
            node_count,
            sources,
            targets,
            weights,
            scores,
            raw_scores: None,
            std_devs: None,
            p_values: None,
            ranked: RankOrder::default(),
        };
        for (column, values) in columns.into_iter().zip(values) {
            *scored.optional_mut(column) = Some(values);
        }
        Ok(scored)
    }

    fn optional_mut(&mut self, column: Column) -> &mut Option<Vec<f64>> {
        match column {
            Column::RawScore => &mut self.raw_scores,
            Column::StdDev => &mut self.std_devs,
            Column::PValue => &mut self.p_values,
        }
    }

    /// Overwrite edge `edge.index`'s row: endpoints and weight from `edge`,
    /// then its score and its values for `columns` (the incremental
    /// rescore's write path; `columns` are the layout the set was scored
    /// with, and `edge` is an edge of a [`CsrGraph`], so its node ids fit
    /// the `u32` columns). Drops the rank order, which the new row may
    /// invalidate.
    pub(crate) fn set_row<const N: usize>(
        &mut self,
        edge: EdgeRef,
        columns: [Column; N],
        (score, values): (f64, [f64; N]),
    ) {
        self.ranked = RankOrder::default();
        let id = edge.index;
        self.sources[id] = edge.source as u32;
        self.targets[id] = edge.target as u32;
        self.weights[id] = edge.weight;
        self.scores[id] = score;
        for (column, value) in columns.into_iter().zip(values) {
            self.optional_mut(column)
                .as_mut()
                .expect("the set carries the scorer's columns")[id] = value;
        }
    }

    /// These scores carried to the patched `graph`: every surviving row
    /// moves to its new edge id through the monotone `remap` (old id → new
    /// id, `None` for a removed edge; without a remap every row stays), and
    /// every edge of `graph` past the carried rows gets a zeroed row with
    /// its endpoints and weight, which the caller then rescores.
    pub(crate) fn carried(&self, remap: Option<&[Option<u32>]>, graph: &CsrGraph) -> Self {
        let mut carried = match remap {
            None => self.clone(),
            Some(remap) => {
                debug_assert!(
                    remap
                        .iter()
                        .flatten()
                        .enumerate()
                        .all(|(k, &id)| id as usize == k),
                    "the remap is monotone and dense"
                );
                fn keep<T: Copy>(column: &[T], remap: &[Option<u32>]) -> Vec<T> {
                    column
                        .iter()
                        .zip(remap)
                        .filter_map(|(&value, new_id)| new_id.map(|_| value))
                        .collect()
                }
                let keep_optional =
                    |column: &Option<Vec<f64>>| column.as_deref().map(|c| keep(c, remap));
                ScoredEdges {
                    method: self.method,
                    node_count: self.node_count,
                    sources: keep(&self.sources, remap),
                    targets: keep(&self.targets, remap),
                    weights: keep(&self.weights, remap),
                    scores: keep(&self.scores, remap),
                    raw_scores: keep_optional(&self.raw_scores),
                    std_devs: keep_optional(&self.std_devs),
                    p_values: keep_optional(&self.p_values),
                    ranked: RankOrder::default(),
                }
            }
        };
        carried.node_count = graph.node_count();
        for id in carried.len()..graph.edge_count() {
            let edge = graph.edge(id).expect("edge id below the edge count");
            carried.sources.push(edge.source as u32);
            carried.targets.push(edge.target as u32);
            carried.weights.push(edge.weight);
            carried.scores.push(0.0);
            for column in [
                &mut carried.raw_scores,
                &mut carried.std_devs,
                &mut carried.p_values,
            ]
            .into_iter()
            .flatten()
            {
                column.push(0.0);
            }
        }
        carried
    }

    /// Name of the method that produced the scores.
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// Number of nodes in the original graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of scored edges (equals the original graph's edge count).
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether there are no scored edges.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Exact bytes held by the columns and, once built, the rank order
    /// (see the [module docs](self) for the bytes per edge of each method);
    /// like [`CsrGraph::memory_bytes`], it counts column lengths, not spare
    /// capacity.
    pub fn memory_bytes(&self) -> usize {
        let ranked = self
            .ranked
            .0
            .get()
            .map_or(0, |order| order.len() * size_of::<u32>());
        let optional = [&self.raw_scores, &self.std_devs, &self.p_values]
            .into_iter()
            .flatten()
            .map(|column| column.len() * size_of::<f64>())
            .sum::<usize>();
        self.sources.len() * size_of::<u32>()
            + self.targets.len() * size_of::<u32>()
            + self.weights.len() * size_of::<f64>()
            + self.scores.len() * size_of::<f64>()
            + optional
            + ranked
    }

    /// The row of edge id `i` (which must be below [`ScoredEdges::len`]).
    fn row(&self, i: usize) -> ScoredEdge {
        ScoredEdge {
            edge_index: i,
            source: self.sources[i] as NodeId,
            target: self.targets[i] as NodeId,
            weight: self.weights[i],
            score: self.scores[i],
            raw_score: self.raw_scores.as_ref().map(|column| column[i]),
            std_dev: self.std_devs.as_ref().map(|column| column[i]),
            p_value: self.p_values.as_ref().map(|column| column[i]),
        }
    }

    /// Iterate over the scored edges in original edge order, yielding rows
    /// by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            scored: self,
            ids: 0..self.len(),
        }
    }

    /// The scored edge with original edge index `edge_index`, or `None` at
    /// and past [`ScoredEdges::len`]. O(1).
    pub fn get(&self, edge_index: usize) -> Option<ScoredEdge> {
        (edge_index < self.len()).then(|| self.row(edge_index))
    }

    /// All scores, in original edge order.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Indices (into the original graph) of edges whose score is at least
    /// `threshold`.
    pub fn filter(&self, threshold: f64) -> Vec<usize> {
        self.scores
            .iter()
            .enumerate()
            .filter(|(_, &score)| score >= threshold)
            .map(|(index, _)| index)
            .collect()
    }

    /// Indices of the `k` highest ranked edges (all of them when `k`
    /// exceeds [`ScoredEdges::len`]), in ranking order.
    ///
    /// # Ranking rule
    ///
    /// Edges rank by descending `score`, then descending `weight`, then
    /// *ascending* `edge_index`. −0.0 and +0.0 are equal, and a NaN ranks
    /// after every number (a NaN score after every scored edge; among equal
    /// scores, a NaN weight after every weight). For NaN-free scores this is
    /// the order of comparing the floats directly. Because `edge_index` is
    /// unique, no two edges tie: the selected set and its order are a pure
    /// function of the columns, independent of thread count, of whether the
    /// order was cached, and of call order. Equal-score, equal-weight edges
    /// are kept in original edge order — the contract the evaluation sweeps
    /// and the `Pipeline` golden tests rely on.
    ///
    /// # Cost
    ///
    /// Once [`ScoredEdges::ranked`] has built the full order, this is a copy
    /// of its first `k` ids. Otherwise it selects on integer keys (see the
    /// [module docs](self#ranking)): `select_nth_unstable` over one 8-byte
    /// score key per edge, `O(E)`, then a sort of the `k` survivors and any
    /// edges tied with the `k`-th score. The order is not built here, so a
    /// one-shot run never pays for a full sort.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let k = k.min(self.len());
        match self.ranked.0.get() {
            Some(order) => order[..k].iter().map(|&id| id as usize).collect(),
            None => self
                .rank_prefix(k)
                .into_iter()
                .map(|(_, id)| id as usize)
                .collect(),
        }
    }

    /// Every edge id in ranking order (the rule of [`ScoredEdges::top_k`]).
    ///
    /// The first call sorts one key per edge and keeps the result; every
    /// later call, and every [`ScoredEdges::top_k`] and
    /// [`ScoredEdges::top_share`] call after it, reads that order. It costs
    /// 4 bytes per edge, counted in [`ScoredEdges::memory_bytes`] once
    /// built. Build it for a set that is selected from more than once (the
    /// server's cached scores, a sweep over edge shares); a single top-k
    /// selection is cheaper without it.
    pub fn ranked(&self) -> &[u32] {
        self.ranked.0.get_or_init(|| {
            self.rank_prefix(self.len())
                .into_iter()
                .map(|(_, id)| id)
                .collect()
        })
    }

    /// The first `k` (at most [`ScoredEdges::len`]) edges in ranking order,
    /// by keyed selection; only their ids are meaningful afterwards (see
    /// [`ScoredEdges::sort_keys`]).
    fn rank_prefix(&self, k: usize) -> Vec<RankKey> {
        if k == 0 {
            return Vec::new();
        }
        // Below the full length, find the k-th highest score on 8-byte keys
        // first: only the edges scoring at or above it, ties included (a
        // tie may outrank the k-th edge by weight), need an id and a sort.
        let (boundary, survivors) = if k < self.len() {
            let mut keys: Vec<u64> = self.scores.iter().map(|&score| desc_key(score)).collect();
            let (_, &mut boundary, below) = keys.select_nth_unstable(k - 1);
            let ties = below.iter().filter(|&&key| key == boundary).count();
            (boundary, k + ties)
        } else {
            (u64::MAX, self.len())
        };
        let mut keys: Vec<RankKey> = Vec::with_capacity(survivors);
        // Edge ids fit `u32`: `score_edges` refuses larger sets.
        keys.extend(
            self.scores
                .iter()
                .zip(0u32..)
                .map(|(&score, id)| (desc_key(score), id))
                .filter(|&(key, _)| key <= boundary),
        );
        self.sort_keys(&mut keys);
        keys.truncate(k);
        keys
    }

    /// Sort `(desc_key(score), id)` pairs into ranking order: sort them,
    /// then re-key each run of tied scores by weight and sort the run again.
    /// The run's score key is no longer needed once the run is in place.
    fn sort_keys(&self, keys: &mut [RankKey]) {
        keys.sort_unstable();
        for run in keys.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                for key in run.iter_mut() {
                    key.0 = desc_key(self.weights[key.1 as usize]);
                }
                run.sort_unstable();
            }
        }
    }

    /// Indices of the top `share` (in `[0, 1]`) of edges by score.
    ///
    /// The edge count is `round(share × E)` — round-half-up, so `share = 0.5`
    /// of 5 edges keeps 3 — and the selection is [`ScoredEdges::top_k`] of
    /// that count: the same ranking rule, so the same set in the same order
    /// on every run and at every thread count, and a prefix copy once the
    /// order is [`ranked`](ScoredEdges::ranked).
    pub fn top_share(&self, share: f64) -> BackboneResult<Vec<usize>> {
        if !(0.0..=1.0).contains(&share) {
            return Err(BackboneError::InvalidParameter {
                parameter: "share",
                message: format!("must lie in [0, 1], got {share}"),
            });
        }
        let k = (share * self.len() as f64).round() as usize;
        Ok(self.top_k(k))
    }

    /// The score threshold that keeps exactly the top `k` edges (the k-th
    /// highest score), or `None` when `k` is zero or exceeds the edge count.
    pub fn threshold_for_count(&self, k: usize) -> Option<f64> {
        if k == 0 || k > self.len() {
            return None;
        }
        let mut scores = self.scores.clone();
        // Partial selection: only the k-th highest score is needed.
        let (_, kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        Some(*kth)
    }

    /// Build the backbone graph containing edges with score at least `threshold`.
    pub fn backbone<G: GraphView>(
        &self,
        graph: &G,
        threshold: f64,
    ) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.filter(threshold))?)
    }

    /// Build the backbone graph containing the `k` highest scoring edges.
    pub fn backbone_top_k<G: GraphView>(
        &self,
        graph: &G,
        k: usize,
    ) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.top_k(k))?)
    }

    /// Build the backbone graph containing the top `share` of edges by score.
    pub fn backbone_top_share<G: GraphView>(
        &self,
        graph: &G,
        share: f64,
    ) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.top_share(share)?)?)
    }
}

/// The row iterator of [`ScoredEdges::iter`]: [`ScoredEdge`] rows by value,
/// in edge-id order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    scored: &'a ScoredEdges,
    ids: Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = ScoredEdge;

    fn next(&mut self) -> Option<ScoredEdge> {
        self.ids.next().map(|id| self.scored.row(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a ScoredEdges {
    type Item = ScoredEdge;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The common interface of all backboning methods.
pub trait BackboneExtractor {
    /// Human-readable method name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Score every edge of the graph.
    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges>;

    /// Convenience: score the graph and keep edges with score at least
    /// `threshold`.
    fn extract(&self, graph: &WeightedGraph, threshold: f64) -> BackboneResult<WeightedGraph> {
        self.score(graph)?.backbone(graph, threshold)
    }

    /// Convenience: score the graph and keep the `k` highest scoring edges.
    fn extract_top_k(&self, graph: &WeightedGraph, k: usize) -> BackboneResult<WeightedGraph> {
        self.score(graph)?.backbone_top_k(graph, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::Direction;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn sample_scores() -> (WeightedGraph, ScoredEdges) {
        let graph = WeightedGraph::from_edges(
            Direction::Directed,
            4,
            vec![(0, 1, 10.0), (1, 2, 5.0), (2, 3, 1.0), (3, 0, 7.0)],
        )
        .unwrap();
        let scored =
            ScoredEdges::score_edges("test", &graph, 1, [], |e| Ok((e.weight / 10.0, []))).unwrap();
        (graph, scored)
    }

    #[test]
    fn basic_accessors() {
        let (_, scored) = sample_scores();
        assert_eq!(scored.method(), "test");
        assert_eq!(scored.len(), 4);
        assert!(!scored.is_empty());
        assert_eq!(scored.node_count(), 4);
        assert_eq!(scored.scores(), vec![1.0, 0.5, 0.1, 0.7]);
        assert!(scored.get(2).is_some());
        assert!(scored.get(9).is_none());
    }

    #[test]
    fn filter_by_threshold() {
        let (_, scored) = sample_scores();
        assert_eq!(scored.filter(0.6), vec![0, 3]);
        assert_eq!(scored.filter(0.0).len(), 4);
        assert!(scored.filter(2.0).is_empty());
    }

    #[test]
    fn top_k_is_sorted_by_score() {
        let (_, scored) = sample_scores();
        assert_eq!(scored.top_k(2), vec![0, 3]);
        assert_eq!(scored.top_k(0), Vec::<usize>::new());
        assert_eq!(scored.top_k(10).len(), 4);
    }

    #[test]
    fn top_share_selects_fraction() {
        let (_, scored) = sample_scores();
        assert_eq!(scored.top_share(0.5).unwrap(), vec![0, 3]);
        assert_eq!(scored.top_share(1.0).unwrap().len(), 4);
        assert!(scored.top_share(0.0).unwrap().is_empty());
        assert!(scored.top_share(1.5).is_err());
    }

    #[test]
    fn threshold_for_count_matches_filter() {
        let (_, scored) = sample_scores();
        let threshold = scored.threshold_for_count(2).unwrap();
        assert_eq!(scored.filter(threshold).len(), 2);
        assert_eq!(scored.threshold_for_count(0), None);
        assert_eq!(scored.threshold_for_count(99), None);
    }

    #[test]
    fn backbone_graphs_preserve_node_set() {
        let (graph, scored) = sample_scores();
        let backbone = scored.backbone(&graph, 0.6).unwrap();
        assert_eq!(backbone.node_count(), 4);
        assert_eq!(backbone.edge_count(), 2);

        let top = scored.backbone_top_k(&graph, 1).unwrap();
        assert_eq!(top.edge_count(), 1);
        assert!(top.has_edge(0, 1));

        let share = scored.backbone_top_share(&graph, 0.75).unwrap();
        assert_eq!(share.edge_count(), 3);
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let graph = WeightedGraph::from_edges(
            Direction::Directed,
            3,
            vec![(0, 1, 5.0), (1, 2, 5.0), (2, 0, 5.0)],
        )
        .unwrap();
        let scored = ScoredEdges::score_edges("tied", &graph, 1, [], |_| Ok((1.0, []))).unwrap();
        assert_eq!(scored.top_k(2), vec![0, 1]);
    }

    /// The comparator `top_k` ranked with before it selected on integer
    /// keys, kept as the oracle of the keyed order: descending score, then
    /// descending weight, then ascending edge id, by `partial_cmp`. A NaN
    /// "compares equal" to everything, so it is a total order only on
    /// NaN-free columns.
    fn comparator(scored: &ScoredEdges, a: usize, b: usize) -> Ordering {
        scored.scores[b]
            .partial_cmp(&scored.scores[a])
            .unwrap_or(Ordering::Equal)
            .then_with(|| {
                scored.weights[b]
                    .partial_cmp(&scored.weights[a])
                    .unwrap_or(Ordering::Equal)
            })
            .then_with(|| a.cmp(&b))
    }

    /// Descending order with every NaN after every number: the stated rule
    /// for NaN, which the comparator leaves undefined.
    fn descending_nan_last(a: f64, b: f64) -> Ordering {
        a.is_nan()
            .cmp(&b.is_nan())
            .then_with(|| b.partial_cmp(&a).unwrap_or(Ordering::Equal))
    }

    /// Every edge id, fully sorted by `order`.
    fn sorted_by(
        scored: &ScoredEdges,
        order: impl Fn(&ScoredEdges, usize, usize) -> Ordering,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..scored.len()).collect();
        ids.sort_by(|&a, &b| order(scored, a, b));
        ids
    }

    /// A set with these score and weight columns and no optional ones.
    fn from_columns(scores: Vec<f64>, weights: Vec<f64>) -> ScoredEdges {
        let len = scores.len();
        ScoredEdges {
            method: "columns",
            node_count: 2,
            sources: vec![0; len],
            targets: vec![1; len],
            weights,
            scores,
            raw_scores: None,
            std_devs: None,
            p_values: None,
            ranked: RankOrder::default(),
        }
    }

    /// Small value pools, so a few dozen edges tie heavily on score and on
    /// weight; both hold ±0.0, ±∞, subnormals and ±`f64::MAX`.
    const SCORE_POOL: [f64; 13] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        1.0,
        2.5,
        -2.5,
        1e300,
        f64::MAX,
        -f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const WEIGHT_POOL: [f64; 8] = [
        1.0,
        2.0,
        0.0,
        -0.0,
        5e-324,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Columns drawn from the pools; an index one past a pool is a NaN.
    fn pool_columns(picks: &[(usize, usize)]) -> (Vec<f64>, Vec<f64>) {
        let pick = |pool: &[f64], index: usize| pool.get(index).copied().unwrap_or(f64::NAN);
        picks
            .iter()
            .map(|&(score, weight)| (pick(&SCORE_POOL, score), pick(&WEIGHT_POOL, weight)))
            .unzip()
    }

    fn ranked_ids(scored: &ScoredEdges) -> Vec<usize> {
        scored.ranked().iter().map(|&id| id as usize).collect()
    }

    #[test]
    fn desc_key_orders_numbers_descending_and_nan_last() {
        let values = SCORE_POOL.iter().chain(&WEIGHT_POOL).copied();
        for a in values.clone() {
            for b in values.clone() {
                assert_eq!(
                    desc_key(a).cmp(&desc_key(b)),
                    b.partial_cmp(&a).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
            assert!(desc_key(a) < desc_key(f64::NAN), "{a:e}");
            assert!(desc_key(a) < desc_key(-f64::NAN), "{a:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Keyed selection, the cached order and the comparator's full sort
        /// agree on every prefix of NaN-free columns.
        #[test]
        fn keyed_selection_and_the_ranked_order_match_the_comparator(
            picks in proptest::collection::vec(
                (0usize..SCORE_POOL.len(), 0usize..WEIGHT_POOL.len()),
                0..48,
            )
        ) {
            let (scores, weights) = pool_columns(&picks);
            let scored = from_columns(scores, weights);
            let oracle = sorted_by(&scored, comparator);
            let len = scored.len();
            for k in 0..=len + 1 {
                let top = scored.top_k(k);
                prop_assert!(top == oracle[..k.min(len)], "keyed, k = {}: {:?}", k, top);
            }
            prop_assert!(scored.ranked.0.get().is_none(), "top_k built the order");
            prop_assert_eq!(ranked_ids(&scored), oracle);
            prop_assert_eq!(scored.memory_bytes(), 28 * len);
            for k in 0..=len + 1 {
                let top = scored.top_k(k);
                prop_assert!(top == oracle[..k.min(len)], "ranked, k = {}: {:?}", k, top);
            }
        }

        /// The NaN rule: a NaN score ranks after every number, and among
        /// equal scores a NaN weight after every weight. The keyed and the
        /// cached order both follow it.
        #[test]
        fn a_nan_ranks_after_every_number(
            picks in proptest::collection::vec(
                (0usize..SCORE_POOL.len() + 1, 0usize..WEIGHT_POOL.len() + 1),
                0..48,
            )
        ) {
            let (scores, weights) = pool_columns(&picks);
            let scored = from_columns(scores, weights);
            let rule = sorted_by(&scored, |scored, a, b| {
                descending_nan_last(scored.scores[a], scored.scores[b])
                    .then_with(|| descending_nan_last(scored.weights[a], scored.weights[b]))
                    .then_with(|| a.cmp(&b))
            });
            let len = scored.len();
            for k in 0..=len + 1 {
                let top = scored.top_k(k);
                prop_assert!(top == rule[..k.min(len)], "keyed, k = {}: {:?}", k, top);
            }
            let ranked = ranked_ids(&scored);
            prop_assert_eq!(&ranked, &rule);
            let numbers = scored.scores.iter().filter(|score| !score.is_nan()).count();
            prop_assert!(ranked[..numbers].iter().all(|&id| !scored.scores[id].is_nan()));
        }

        /// Overwriting a row drops the order built from the old columns; the
        /// next read ranks the new ones. `==` and clones ignore the order.
        #[test]
        fn set_row_drops_a_stale_rank_order(
            picks in proptest::collection::vec(
                (0usize..SCORE_POOL.len(), 0usize..WEIGHT_POOL.len()),
                1..48,
            ),
            row in 0usize..48,
            new_score in 0usize..SCORE_POOL.len(),
        ) {
            let (scores, weights) = pool_columns(&picks);
            let mut scored = from_columns(scores, weights);
            let unranked = scored.clone();
            scored.ranked();
            prop_assert!(scored == unranked);
            prop_assert!(scored.clone().ranked.0.get().is_none());
            let edge = EdgeRef {
                index: row % scored.len(),
                source: 0,
                target: 1,
                weight: WEIGHT_POOL[row % WEIGHT_POOL.len()],
            };
            scored.set_row(edge, [], (SCORE_POOL[new_score], []));
            prop_assert!(scored.ranked.0.get().is_none(), "set_row kept the order");
            prop_assert_eq!(scored.memory_bytes(), 24 * scored.len());
            let oracle = sorted_by(&scored, comparator);
            prop_assert_eq!(ranked_ids(&scored), oracle);
        }
    }

    #[test]
    fn symmetrization_combinations() {
        assert_eq!(Symmetrization::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(Symmetrization::Min.combine(1.0, 2.0), 1.0);
        assert_eq!(Symmetrization::Average.combine(1.0, 2.0), 1.5);
        assert_eq!(Symmetrization::default(), Symmetrization::Max);
    }

    #[test]
    fn into_iterator_yields_all_edges() {
        let (_, scored) = sample_scores();
        let count = (&scored).into_iter().count();
        assert_eq!(count, 4);
    }

    #[test]
    fn get_indexes_every_edge_id() {
        let (graph, scored) = sample_scores();
        for edge in graph.edges() {
            let row = scored.get(edge.index).unwrap();
            assert_eq!(row, scored.iter().nth(edge.index).unwrap());
            assert_eq!(row.edge_index, edge.index);
            assert_eq!((row.source, row.target), (edge.source, edge.target));
            assert_eq!(row.weight, edge.weight);
            assert_eq!(row.score, edge.weight / 10.0);
            assert_eq!(
                (row.raw_score, row.std_dev, row.p_value),
                (None, None, None)
            );
        }
        assert!(scored.get(scored.len()).is_none());
        assert!(scored.get(usize::MAX).is_none());
    }

    #[test]
    fn memory_bytes_per_edge_by_method() {
        use crate::method::Method;
        // Dense, so the doubly-stochastic scaling exists.
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 6);
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    graph
                        .add_edge(i, j, 1.0 + ((i * 7 + j * 3) % 5) as f64)
                        .unwrap();
                }
            }
        }
        let methods = Method::every()
            .into_iter()
            .chain([Method::hss_approx_default()]);
        for method in methods {
            let scored = method.score_with_threads(&graph, 1).unwrap();
            let per_edge = match method {
                Method::NoiseCorrected => 40,
                Method::NoiseCorrectedBinomial | Method::DisparityFilter => 32,
                _ => 24,
            };
            assert_eq!(
                scored.memory_bytes(),
                per_edge * graph.edge_count(),
                "{method}"
            );
            // The rank order adds one u32 edge id per edge.
            scored.ranked();
            assert_eq!(
                scored.memory_bytes(),
                (per_edge + 4) * graph.edge_count(),
                "{method}, ranked"
            );
        }
    }

    #[test]
    fn score_edges_reports_the_lowest_failing_edge_at_every_thread_count() {
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 100);
        for i in 0..100 {
            for j in 0..100 {
                if i != j {
                    graph.add_edge(i, j, (i * 100 + j) as f64).unwrap();
                }
            }
        }
        assert!(graph.edge_count() > 4 * 2048, "enough edges to fan out");
        let failing = [3000, 4500];
        let score = |edge: EdgeRef| {
            if failing.contains(&edge.index) {
                Err(BackboneError::InvalidParameter {
                    parameter: "edge",
                    message: edge.index.to_string(),
                })
            } else {
                Ok((edge.weight, [edge.weight * 2.0]))
            }
        };
        let fine = |edge: EdgeRef| Ok((edge.weight, [edge.weight * 2.0]));
        let reference = ScoredEdges::score_edges("t", &graph, 1, [Column::PValue], fine).unwrap();
        for threads in [1, 2, 3, 8] {
            let err = ScoredEdges::score_edges("t", &graph, threads, [Column::PValue], score)
                .unwrap_err();
            assert!(err.to_string().ends_with(": 3000"), "{err}");
            let scored =
                ScoredEdges::score_edges("t", &graph, threads, [Column::PValue], fine).unwrap();
            assert_eq!(scored, reference, "threads = {threads}");
        }
    }
}
