//! The Disparity Filter (Serrano, Boguñá & Vespignani, 2009).
//!
//! The Disparity Filter is the statistical state of the art the paper compares
//! against. For each node, the weights of its `k` incident edges are expressed
//! as shares `p_ij = w_ij / s_i` of the node's total strength and compared to
//! a null model in which the unit interval is split by `k − 1` uniform random
//! points. The probability that a share at least as large as `p_ij` arises
//! under this null model is
//!
//! ```text
//! α_ij = (1 − p_ij)^(k_i − 1)
//! ```
//!
//! which acts as a p-value: small `α_ij` means the edge carries a
//! significantly larger share of the node's weight than expected.
//!
//! Every edge is tested from both of its endpoints (as emitter and as
//! receiver) and the most favourable (smallest) p-value is kept — the
//! behaviour of the reference implementation. Crucially, and unlike the
//! Noise-Corrected backbone, the null model never considers the *pair* of
//! endpoints jointly, which is why the Disparity Filter keeps periphery–hub
//! connections that the NC backbone prunes (paper, Figure 3).

use backboning_graph::{GraphView, WeightedGraph};

use crate::error::BackboneResult;
use crate::scored::{BackboneExtractor, Column, ScoredEdges, Symmetrization};
use crate::totals::{ensure_finite, NetworkTotals};

/// The optional column the Disparity Filter fills: the p-value `α`.
pub(crate) const COLUMNS: [Column; 1] = [Column::PValue];

/// The Disparity Filter backbone extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisparityFilter {
    /// How the two directional p-values of an edge are combined. The default
    /// ([`Symmetrization::Max`] on scores, i.e. the *smaller* p-value wins)
    /// matches the reference implementation: an edge is kept if it is
    /// significant for either endpoint.
    pub symmetrization: Symmetrization,
}

impl Default for DisparityFilter {
    fn default() -> Self {
        DisparityFilter {
            symmetrization: Symmetrization::Max,
        }
    }
}

impl DisparityFilter {
    /// Create the extractor with the default (either-endpoint) symmetrization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the extractor with a specific symmetrization rule.
    pub fn with_symmetrization(symmetrization: Symmetrization) -> Self {
        DisparityFilter { symmetrization }
    }

    /// The Disparity Filter p-value of one edge seen from one node:
    /// probability of a weight share at least `share` among `degree` edges
    /// under the uniform-splitting null model.
    fn alpha(share: f64, degree: usize) -> f64 {
        if degree <= 1 {
            // A node with a single edge can never reject the null model.
            return 1.0;
        }
        let share = share.clamp(0.0, 1.0);
        (1.0 - share).powi(degree as i32 - 1)
    }

    /// Score every edge with an explicit worker count (`0` = automatic,
    /// honoring `BACKBONING_THREADS`). Each edge's p-value depends only on the
    /// precomputed per-node strengths and degrees, so the result is
    /// bit-identical for every thread count.
    ///
    /// Errors with [`crate::BackboneError::UnsupportedGraph`] when a node
    /// strength overflows `f64`: every share `w / ∞` would be 0 and every
    /// score 0, silently.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let name = BackboneExtractor::name(self);
        // Per-node strengths and degrees for both roles (emitter / receiver),
        // built in one pass over the edge list.
        let totals = NetworkTotals::compute(graph);
        ensure_finite(name, totals.sums())?;
        let out_degree: Vec<usize> = graph.nodes().map(|n| graph.out_degree(n)).collect();
        let in_degree: Vec<usize> = graph.nodes().map(|n| graph.in_degree(n)).collect();
        ScoredEdges::score_edges(name, graph, threads, COLUMNS, |edge| {
            Ok(score_edge(
                self.symmetrization,
                edge.weight,
                totals.out_strength[edge.source],
                out_degree[edge.source],
                totals.in_strength[edge.target],
                in_degree[edge.target],
            ))
        })
    }
}

/// The Disparity Filter score of one edge from its endpoint strengths and
/// degrees, as `(score, [p-value])` for [`COLUMNS`] — the single source of
/// truth shared by the batch scorer above and the incremental rescoring path
/// in [`crate::delta`], so both produce bit-identical results.
pub(crate) fn score_edge(
    symmetrization: Symmetrization,
    weight: f64,
    source_strength: f64,
    source_degree: usize,
    target_strength: f64,
    target_degree: usize,
) -> (f64, [f64; 1]) {
    // Emitter perspective: the edge as a share of the source's outgoing weight.
    let source_alpha = if source_strength > 0.0 {
        DisparityFilter::alpha(weight / source_strength, source_degree)
    } else {
        1.0
    };
    // Receiver perspective: the edge as a share of the target's incoming weight.
    let target_alpha = if target_strength > 0.0 {
        DisparityFilter::alpha(weight / target_strength, target_degree)
    } else {
        1.0
    };

    // Combine the two perspectives on the *score* scale (1 − α), so that
    // Max keeps the most significant perspective.
    let score = symmetrization.combine(1.0 - source_alpha, 1.0 - target_alpha);
    (score, [1.0 - score])
}

impl BackboneExtractor for DisparityFilter {
    fn name(&self) -> &'static str {
        "disparity_filter"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise_corrected::NoiseCorrected;
    use backboning_graph::{Direction, GraphBuilder, WeightedGraph};

    /// The Figure 3 toy graph: hub 0 with five spokes, plus a peripheral edge 1–2.
    fn figure3_toy() -> WeightedGraph {
        GraphBuilder::undirected()
            .indexed_edge(0, 1, 20.0)
            .indexed_edge(0, 2, 20.0)
            .indexed_edge(0, 3, 20.0)
            .indexed_edge(0, 4, 20.0)
            .indexed_edge(0, 5, 20.0)
            .indexed_edge(1, 2, 10.0)
            .build()
            .unwrap()
    }

    #[test]
    fn alpha_formula_matches_hand_computation() {
        // Node with 3 edges, one carrying 60% of the strength:
        // α = (1 − 0.6)² = 0.16.
        assert!((DisparityFilter::alpha(0.6, 3) - 0.16).abs() < 1e-12);
        // Degree-1 nodes can never be significant.
        assert_eq!(DisparityFilter::alpha(0.9, 1), 1.0);
        // Full share with degree ≥ 2 is maximally significant.
        assert_eq!(DisparityFilter::alpha(1.0, 4), 0.0);
    }

    #[test]
    fn dominant_edge_is_most_significant() {
        // A node with one dominant edge and several tiny ones.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 100.0)
            .indexed_edge(0, 2, 1.0)
            .indexed_edge(0, 3, 1.0)
            .indexed_edge(0, 4, 1.0)
            .indexed_edge(1, 5, 50.0)
            .indexed_edge(2, 5, 1.0)
            .build()
            .unwrap();
        let scored = DisparityFilter::new().score(&graph).unwrap();
        let dominant = scored.get(graph.edge_index(0, 1).unwrap()).unwrap();
        let tiny = scored.get(graph.edge_index(0, 2).unwrap()).unwrap();
        assert!(dominant.score > tiny.score);
        assert!(dominant.p_value.unwrap() < tiny.p_value.unwrap());
    }

    #[test]
    fn p_values_are_probabilities() {
        let scored = DisparityFilter::new().score(&figure3_toy()).unwrap();
        for edge in scored.iter() {
            let p = edge.p_value.unwrap();
            assert!((0.0..=1.0).contains(&p), "p-value {p} out of range");
            assert!((edge.score - (1.0 - p)).abs() < 1e-12);
        }
    }

    #[test]
    fn hub_spokes_survive_under_disparity_but_not_under_nc() {
        // The paper's Figure 3 contrast. The edges from the hub to nodes 1 and
        // 2 (the connected peripheral pair) are the blue dashed edges of the
        // figure: the Disparity Filter keeps them — from nodes 1 and 2's
        // perspective they carry two thirds of the node strength — while the
        // Noise-Corrected backbone ranks them *below* the peripheral edge 1–2,
        // because connecting to the hub is exactly what the null model expects.
        let graph = figure3_toy();

        let df = DisparityFilter::new().score(&graph).unwrap();
        let nc = NoiseCorrected::default().score(&graph).unwrap();

        let peripheral = graph.edge_index(1, 2).unwrap();
        let hub_to_pair = graph.edge_index(0, 1).unwrap();

        // Disparity Filter: the hub spoke is at least as significant as the
        // peripheral edge (it survives).
        assert!(df.get(hub_to_pair).unwrap().score >= df.get(peripheral).unwrap().score);
        // Noise-Corrected: the ordering flips.
        assert!(nc.get(hub_to_pair).unwrap().score < nc.get(peripheral).unwrap().score);
    }

    #[test]
    fn directed_graph_uses_both_roles() {
        // Source 0 spreads evenly (no significance from its side), but target 3
        // receives almost everything from node 0 → receiver side is significant.
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 5);
        graph.add_edge(0, 1, 10.0).unwrap();
        graph.add_edge(0, 2, 10.0).unwrap();
        graph.add_edge(0, 3, 10.0).unwrap();
        graph.add_edge(1, 3, 0.1).unwrap();
        graph.add_edge(2, 3, 0.1).unwrap();
        graph.add_edge(4, 1, 5.0).unwrap();

        let either = DisparityFilter::new().score(&graph).unwrap();
        let both = DisparityFilter::with_symmetrization(Symmetrization::Min)
            .score(&graph)
            .unwrap();
        let edge = graph.edge_index(0, 3).unwrap();
        // Requiring significance from both perspectives can only lower the score.
        assert!(both.get(edge).unwrap().score <= either.get(edge).unwrap().score);
    }

    #[test]
    fn uniform_star_has_no_significant_edges() {
        // A hub spreading its weight perfectly evenly: no edge stands out.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 5.0)
            .indexed_edge(0, 2, 5.0)
            .indexed_edge(0, 3, 5.0)
            .indexed_edge(0, 4, 5.0)
            .build()
            .unwrap();
        let scored = DisparityFilter::new().score(&graph).unwrap();
        for edge in scored.iter() {
            // α = (1 − 1/4)³ ≈ 0.42 from the hub side, 1.0 from the leaves.
            assert!(edge.p_value.unwrap() > 0.4);
        }
    }

    #[test]
    fn thresholding_reduces_edges_monotonically() {
        let graph = figure3_toy();
        let scored = DisparityFilter::new().score(&graph).unwrap();
        let relaxed = scored.filter(0.0).len();
        let moderate = scored.filter(0.5).len();
        let strict = scored.filter(0.95).len();
        assert!(relaxed >= moderate && moderate >= strict);
    }

    #[test]
    fn empty_graph_is_handled() {
        let empty = WeightedGraph::undirected();
        let scored = DisparityFilter::new().score(&empty).unwrap();
        assert!(scored.is_empty());
        assert_eq!(scored.method(), "disparity_filter");
    }
}
