//! Exact incremental rescoring after a batched graph patch.
//!
//! When a served graph mutates (edges added, removed or reweighted through
//! [`backboning_graph::delta`]), recomputing every method from
//! scratch throws away almost all of the previous work: for the
//! locally-defined measures, an edge's score depends only on its own weight
//! and its endpoints' strengths and degrees. This module exploits that with
//! a per-method [`DeltaStrategy`] and one entry point, [`delta_rescore`],
//! which updates a previous [`ScoredEdges`] to the patched graph **exactly**
//! — the results are bit-identical to from-scratch scoring on the patched
//! graph, not an approximation (pinned by the churn-parity proptest suite).
//!
//! Why exactness holds: the patched graph keeps surviving edges in their
//! original relative order and appends additions at the end, so every
//! *untouched* node's adjacency row lists the same weights in the same
//! ascending-edge-id order as before — its strength sum accumulates in the
//! same order and keeps identical `f64` bits. Touched edges are rescored
//! through the exact same per-edge arithmetic as the batch scorers (shared
//! code, not a re-implementation), from strengths read off the patched CSR.
//!
//! Strategy per method:
//!
//! | Strategy | Methods | Work per patch |
//! |---|---|---|
//! | [`EdgeLocal`](DeltaStrategy::EdgeLocal) | naive threshold | changed edges only |
//! | [`NodeLocal`](DeltaStrategy::NodeLocal) | disparity filter | incident edges of touched nodes |
//! | [`TotalCoupled`](DeltaStrategy::TotalCoupled) | noise-corrected (both variants) | full pass (scores couple to the grand total) |
//! | [`Global`](DeltaStrategy::Global) | doubly stochastic | full pass (global Sinkhorn fixed point) |
//! | [`Invalidate`](DeltaStrategy::Invalidate) | HSS, HSS-approx, MST | staged full recompute |
//!
//! `TotalCoupled`, `Global` and `Invalidate` all fall back to
//! [`Method::score_with_threads`] on the patched graph — still exact, just
//! not sublinear; serving layers use [`DeltaStrategy::Invalidate`] to decide
//! whether to recompute eagerly or lazily.

use std::collections::{BTreeSet, HashMap};

use backboning_graph::{CsrGraph, DeltaGraph, PatchEffect};

use crate::disparity;
use crate::error::{BackboneError, BackboneResult};
use crate::method::Method;
use crate::naive;
use crate::scored::{ScoredEdges, Symmetrization};
use crate::totals::ensure_finite;

/// How a method's scores respond to a graph patch — what fraction of the
/// previous scoring survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaStrategy {
    /// An edge's score depends only on the edge itself; only changed edges
    /// need rescoring.
    EdgeLocal,
    /// An edge's score depends on its endpoints' strengths and degrees;
    /// every edge incident to a touched node needs rescoring.
    NodeLocal,
    /// Scores couple to the network's grand total, so any weight change
    /// moves every score: incremental update degenerates to an (exact)
    /// full pass.
    TotalCoupled,
    /// Scores are a global fixed point over the whole graph; a full pass is
    /// required.
    Global,
    /// Path-based structure can change arbitrarily far from the patch; the
    /// cached result must be invalidated and recomputed from scratch.
    Invalidate,
}

impl Method {
    /// The incremental-maintenance strategy of this method's scores.
    pub fn delta_strategy(&self) -> DeltaStrategy {
        match self {
            Method::NaiveThreshold => DeltaStrategy::EdgeLocal,
            Method::DisparityFilter => DeltaStrategy::NodeLocal,
            Method::NoiseCorrected | Method::NoiseCorrectedBinomial => DeltaStrategy::TotalCoupled,
            Method::DoublyStochastic => DeltaStrategy::Global,
            Method::MaximumSpanningTree
            | Method::HighSalienceSkeleton
            | Method::HssApprox { .. } => DeltaStrategy::Invalidate,
        }
    }
}

fn invalid(message: String) -> BackboneError {
    BackboneError::InvalidParameter {
        parameter: "previous",
        message,
    }
}

/// Update `previous` (scores of the pre-patch graph) to `graph` (the
/// patched CSR), given the [`PatchEffect`] [`DeltaGraph::apply`] reported
/// for the batch. The result is bit-identical to
/// `method.score_with_threads(graph, threads)`; sublinear for
/// [`EdgeLocal`](DeltaStrategy::EdgeLocal) and
/// [`NodeLocal`](DeltaStrategy::NodeLocal) methods, a full (still exact)
/// pass otherwise.
pub fn delta_rescore(
    method: Method,
    graph: &CsrGraph,
    previous: &ScoredEdges,
    effect: &PatchEffect,
    threads: usize,
) -> BackboneResult<ScoredEdges> {
    let Some(node_local) = delta_applicability(method, graph, previous, effect)? else {
        return method.score_with_threads(graph, threads);
    };
    let carried = previous.carried(effect.remap.as_deref(), graph);
    rescore_carried(method, graph, carried, effect, node_local)
}

/// The zero-copy form of [`delta_rescore`]: consume the previous scores and
/// update their columns in place. For a reweight-only batch (no structural
/// change) this skips the O(edges) carry-over entirely — the whole cost is
/// the rescore set, which is what makes a small batch on a large graph
/// sublinear in practice, not just in rescored-edge count. Structural
/// batches and non-local methods behave exactly like [`delta_rescore`].
/// The result is bit-identical to `method.score_with_threads(graph,
/// threads)` either way.
pub fn delta_rescore_in_place(
    method: Method,
    graph: &CsrGraph,
    previous: ScoredEdges,
    effect: &PatchEffect,
    threads: usize,
) -> BackboneResult<ScoredEdges> {
    let Some(node_local) = delta_applicability(method, graph, &previous, effect)? else {
        return method.score_with_threads(graph, threads);
    };
    let carried = if effect.structure_changed {
        previous.carried(effect.remap.as_deref(), graph)
    } else {
        previous
    };
    rescore_carried(method, graph, carried, effect, node_local)
}

/// Shared validation and strategy dispatch: `Ok(Some(node_local))` when the
/// method has an incremental path on this graph, `Ok(None)` when the caller
/// must fall back to a full (still exact) pass.
fn delta_applicability(
    method: Method,
    graph: &CsrGraph,
    previous: &ScoredEdges,
    effect: &PatchEffect,
) -> BackboneResult<Option<bool>> {
    if previous.method() != method.score_name() {
        return Err(invalid(format!(
            "previous scores are for `{}`, not `{}`",
            previous.method(),
            method.score_name()
        )));
    }
    if previous.len() != effect.old_edge_count {
        return Err(invalid(format!(
            "previous scores cover {} edges but the patch started from {}",
            previous.len(),
            effect.old_edge_count
        )));
    }
    Ok(match method.delta_strategy() {
        DeltaStrategy::EdgeLocal => Some(false),
        // The CSR core keeps no in-adjacency rows, so a directed node-local
        // rescore cannot enumerate a touched target's in-edges: fall back.
        DeltaStrategy::NodeLocal if !graph.is_directed() => Some(true),
        _ => None,
    })
}

/// Rescore the touched subset of already-carried scores in place. Every
/// changed edge (and, for node-local methods, every edge incident to a
/// touched node) is recomputed from the patched graph, so stale rows at
/// those edge ids are overwritten wholesale.
fn rescore_carried(
    method: Method,
    graph: &CsrGraph,
    mut scored: ScoredEdges,
    effect: &PatchEffect,
    node_local: bool,
) -> BackboneResult<ScoredEdges> {
    if scored.len() != graph.edge_count() {
        return Err(invalid(format!(
            "patch effect yields {} edges but the graph has {}",
            scored.len(),
            graph.edge_count()
        )));
    }

    // The rescore set: changed edges, plus — for node-local methods — every
    // edge incident to a touched node (their strengths changed).
    let mut rescore: BTreeSet<usize> = effect.changed_edges.iter().copied().collect();
    if node_local {
        for &node in &effect.touched_nodes {
            for &edge_id in graph.edge_ids(node) {
                rescore.insert(edge_id as usize);
            }
        }
    }

    // Strengths of every endpoint involved, each summed over its adjacency
    // row in ascending-edge-id order — the exact accumulation order of
    // `NetworkTotals`, hence the same bits. Only these strengths can have
    // changed, so checking them refuses exactly the patched graphs a
    // from-scratch pass refuses.
    let mut strengths: HashMap<usize, f64> = HashMap::new();
    if node_local {
        for &id in &rescore {
            let edge = graph.edge(id).expect("rescore id in range");
            for node in [edge.source, edge.target] {
                strengths
                    .entry(node)
                    .or_insert_with(|| graph.strength(node));
            }
        }
        ensure_finite(method.score_name(), strengths.values().copied())?;
    }

    for &id in &rescore {
        let edge = graph.edge(id).expect("rescore id in range");
        match method {
            Method::NaiveThreshold => scored.set_row(edge, [], naive::score_edge(edge)),
            Method::DisparityFilter => scored.set_row(
                edge,
                disparity::COLUMNS,
                disparity::score_edge(
                    Symmetrization::Max,
                    edge.weight,
                    strengths[&edge.source],
                    graph.out_degree(edge.source),
                    strengths[&edge.target],
                    graph.in_degree(edge.target),
                ),
            ),
            _ => unreachable!("only edge- and node-local methods reach here"),
        }
    }
    Ok(scored)
}

/// Convenience wrapper: rescore every method in `methods` against the
/// patched graph, chaining from the matching entry of `previous` (keyed by
/// [`Method::score_name`]); methods without a previous entry are scored
/// from scratch. Used by the CLI's offline parity runs.
pub fn delta_rescore_all(
    methods: &[Method],
    graph: &CsrGraph,
    previous: &HashMap<&'static str, ScoredEdges>,
    effect: &PatchEffect,
    threads: usize,
) -> BackboneResult<Vec<(Method, ScoredEdges)>> {
    methods
        .iter()
        .map(|&method| {
            let scored = match previous.get(method.score_name()) {
                Some(prior) => delta_rescore(method, graph, prior, effect, threads)?,
                None => method.score_with_threads(graph, threads)?,
            };
            Ok((method, scored))
        })
        .collect()
}

/// Apply a parsed delta batch to a compact graph and return the patched
/// graph together with the effect — the one-call form used by offline
/// tools. The patched graph keeps the summation order, and so the bits, of
/// a from-scratch build (see [`DeltaGraph::apply`]).
pub fn apply_batch(
    graph: &CsrGraph,
    batch: &backboning_graph::DeltaBatch,
) -> BackboneResult<(CsrGraph, PatchEffect)> {
    let mut delta = DeltaGraph::from_csr(graph);
    let effect = delta.apply(batch)?;
    Ok((delta.into_csr(), effect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::io::{read_edge_list_csr_str, EdgeListOptions};
    use backboning_graph::{DeltaBatch, Direction};

    fn base() -> CsrGraph {
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        read_edge_list_csr_str("a b 4\nb c 1\nc d 6\na d 2\nb d 3\na c 5\n", &options).unwrap()
    }

    const LOCAL_METHODS: [Method; 4] = [
        Method::NaiveThreshold,
        Method::DisparityFilter,
        Method::NoiseCorrected,
        Method::DoublyStochastic,
    ];

    #[test]
    fn strategies_cover_every_method() {
        assert_eq!(
            Method::NaiveThreshold.delta_strategy(),
            DeltaStrategy::EdgeLocal
        );
        assert_eq!(
            Method::DisparityFilter.delta_strategy(),
            DeltaStrategy::NodeLocal
        );
        assert_eq!(
            Method::NoiseCorrected.delta_strategy(),
            DeltaStrategy::TotalCoupled
        );
        assert_eq!(
            Method::DoublyStochastic.delta_strategy(),
            DeltaStrategy::Global
        );
        for method in [
            Method::MaximumSpanningTree,
            Method::HighSalienceSkeleton,
            Method::HssApprox { roots: 8, seed: 1 },
        ] {
            assert_eq!(method.delta_strategy(), DeltaStrategy::Invalidate);
        }
    }

    #[test]
    fn rescore_matches_from_scratch_bit_for_bit() {
        let graph = base();
        let batch =
            DeltaBatch::parse_tsv("remove b c\nadd b e 2.5\nreweight a b 7\nadd d e 1\n").unwrap();
        let (patched, effect) = apply_batch(&graph, &batch).unwrap();
        for method in LOCAL_METHODS {
            let previous = method.score_with_threads(&graph, 1).unwrap();
            let incremental = delta_rescore(method, &patched, &previous, &effect, 1).unwrap();
            let fresh = method.score_with_threads(&patched, 1).unwrap();
            assert_eq!(incremental, fresh, "{method}");
        }
    }

    #[test]
    fn reweight_only_rescore_matches_from_scratch() {
        let graph = base();
        let batch = DeltaBatch::parse_tsv("reweight a b 0.25\nreweight b d 8\n").unwrap();
        let (patched, effect) = apply_batch(&graph, &batch).unwrap();
        assert!(!effect.structure_changed);
        for method in LOCAL_METHODS {
            let previous = method.score_with_threads(&graph, 1).unwrap();
            let incremental = delta_rescore(method, &patched, &previous, &effect, 1).unwrap();
            let fresh = method.score_with_threads(&patched, 1).unwrap();
            assert_eq!(incremental, fresh, "{method}");
        }
    }

    #[test]
    fn directed_node_local_falls_back_to_full() {
        let options = EdgeListOptions::default();
        let graph = read_edge_list_csr_str("a b 2\nb c 3\nc a 4\nb a 1\n", &options).unwrap();
        let batch = DeltaBatch::parse_tsv("reweight a b 9\n").unwrap();
        let (patched, effect) = apply_batch(&graph, &batch).unwrap();
        let previous = Method::DisparityFilter
            .score_with_threads(&graph, 1)
            .unwrap();
        let incremental =
            delta_rescore(Method::DisparityFilter, &patched, &previous, &effect, 1).unwrap();
        let fresh = Method::DisparityFilter
            .score_with_threads(&patched, 1)
            .unwrap();
        assert_eq!(incremental, fresh);
    }

    #[test]
    fn overflowing_patches_are_refused_like_from_scratch() {
        let graph = base();
        let batch = DeltaBatch::parse_tsv("reweight a b 1e308\nreweight a c 1e308\n").unwrap();
        let (patched, effect) = apply_batch(&graph, &batch).unwrap();
        for method in [Method::DisparityFilter, Method::NoiseCorrected] {
            let previous = method.score_with_threads(&graph, 1).unwrap();
            let fresh = method.score_with_threads(&patched, 1).unwrap_err();
            let incremental = delta_rescore(method, &patched, &previous, &effect, 1).unwrap_err();
            assert_eq!(incremental, fresh, "{method}");
            assert!(matches!(fresh, BackboneError::UnsupportedGraph { .. }));
        }
    }

    #[test]
    fn mismatched_previous_scores_are_rejected() {
        let graph = base();
        let batch = DeltaBatch::parse_tsv("reweight a b 1\n").unwrap();
        let (patched, effect) = apply_batch(&graph, &batch).unwrap();
        let df = Method::DisparityFilter
            .score_with_threads(&graph, 1)
            .unwrap();
        let err = delta_rescore(Method::NaiveThreshold, &patched, &df, &effect, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("disparity_filter"), "{err}");

        let stale = Method::NaiveThreshold
            .score_with_threads(&patched, 1)
            .unwrap();
        // `stale` has the patched edge count; chain it against a structural
        // effect whose old count differs.
        let structural = DeltaBatch::parse_tsv("add a e 1\n").unwrap();
        let (patched2, effect2) = apply_batch(&patched, &structural).unwrap();
        let wrong = Method::NaiveThreshold
            .score_with_threads(&patched2, 1)
            .unwrap();
        let err = delta_rescore(Method::NaiveThreshold, &patched2, &wrong, &effect2, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("edges"), "{err}");
        let _ = stale;
    }

    #[test]
    fn chained_patches_stay_exact() {
        // Doubly stochastic is excluded: Sinkhorn legitimately fails to
        // converge on some of the tiny intermediate graphs, identically on
        // both the incremental and the from-scratch path.
        let methods = [
            Method::NaiveThreshold,
            Method::DisparityFilter,
            Method::NoiseCorrected,
        ];
        let mut graph = base();
        let mut scores: HashMap<&'static str, ScoredEdges> = methods
            .iter()
            .map(|&m| (m.score_name(), m.score_with_threads(&graph, 1).unwrap()))
            .collect();
        for text in [
            "add c e 2\nreweight a c 1.5\n",
            "remove a d\nremove b d\n",
            "add a d 9\nreweight c e 0.5\nadd d e 4\n",
        ] {
            let batch = DeltaBatch::parse_tsv(text).unwrap();
            let (patched, effect) = apply_batch(&graph, &batch).unwrap();
            let rescored = delta_rescore_all(&methods, &patched, &scores, &effect, 1).unwrap();
            for (method, scored) in &rescored {
                let fresh = method.score_with_threads(&patched, 1).unwrap();
                assert_eq!(scored, &fresh, "{method} after {text:?}");
            }
            scores = rescored
                .into_iter()
                .map(|(m, s)| (m.score_name(), s))
                .collect();
            graph = patched;
        }
    }
}
