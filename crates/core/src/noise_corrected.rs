//! The Noise-Corrected (NC) backbone — the paper's primary contribution.
//!
//! The NC backbone models each observed edge weight `N̂ij` as the number of
//! successes among `N̂..` unitary interactions, each succeeding with an unknown
//! probability `P_ij` (a binomial null model). The method proceeds in three
//! steps (paper, Section IV):
//!
//! 1. **Transform** the edge weight into a symmetric *lift* score centred on
//!    zero:
//!    `L̃ij = (κ N̂ij − 1) / (κ N̂ij + 1)` with `κ = N̂.. / (N̂i. N̂.j)`.
//! 2. **Estimate the variance** of `L̃ij` with the delta method, where the
//!    variance of `N̂ij` comes from the binomial model with `P_ij` estimated in
//!    a *Bayesian* framework: the prior is the conjugate Beta distribution
//!    whose mean and variance match a hypergeometric edge-formation null
//!    model, and the posterior follows from the observed weight (Eqs. 3–8).
//!    The Bayesian step is what keeps variance estimates strictly positive for
//!    weak and zero-weight edges.
//! 3. **Prune**: keep an edge iff `L̃ij > δ · sqrt(V[L̃ij])`, i.e. the
//!    transformed lift exceeds the null expectation (zero) by at least `δ`
//!    standard deviations.
//!
//! The [`ScoredEdges`] produced here carry `score = L̃ij / sqrt(V[L̃ij])` (the
//! number of standard deviations above the expectation), so the pruning rule
//! is exactly `score ≥ δ`, with `δ` the paper's only parameter.
//!
//! [`NoiseCorrectedBinomial`] implements the alternative mentioned in the
//! paper's footnote 2: skip the transformation and compute a p-value directly
//! from the binomial null model. It is cheaper but cannot say whether two
//! edges differ significantly from each other.

use backboning_graph::{GraphView, WeightedGraph};
use backboning_stats::distributions::{Binomial, ContinuousDistribution};
use backboning_stats::BetaBinomialModel;

use crate::error::{BackboneError, BackboneResult};
use crate::scored::{BackboneExtractor, Column, ScoredEdges};
use crate::totals::{ensure_finite, NetworkTotals};

/// The Noise-Corrected backbone extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseCorrected {
    /// Whether to estimate `P_ij` with the Bayesian Beta–Binomial posterior
    /// (the paper's method). When `false` the plug-in estimate
    /// `P̂ij = N̂ij / N̂..` is used instead, which degenerates for zero-weight
    /// and low-information edges — exposed for the ablation study.
    pub bayesian_prior: bool,
}

impl Default for NoiseCorrected {
    fn default() -> Self {
        NoiseCorrected {
            bayesian_prior: true,
        }
    }
}

impl NoiseCorrected {
    /// The paper's method: Bayesian posterior estimation of `P_ij`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ablation variant using the raw plug-in estimate of `P_ij`.
    pub fn without_prior() -> Self {
        NoiseCorrected {
            bayesian_prior: false,
        }
    }

    /// Score a single edge given the precomputed totals. Returns
    /// `(transformed lift, standard deviation)`.
    fn score_edge(
        &self,
        weight: f64,
        out_strength: f64,
        in_strength: f64,
        total: f64,
    ) -> (f64, f64) {
        if out_strength <= 0.0 || in_strength <= 0.0 || total <= 1.0 {
            return (0.0, 0.0);
        }
        let kappa = total / (out_strength * in_strength);
        let lift_term = kappa * weight;
        let transformed_lift = (lift_term - 1.0) / (lift_term + 1.0);

        // Posterior (or plug-in) estimate of P_ij.
        let posterior_p = if self.bayesian_prior {
            match BetaBinomialModel::edge_prior(out_strength, in_strength, total)
                .and_then(|model| model.posterior(weight.min(total), total))
            {
                Ok(posterior) => posterior.mean(),
                // Degenerate prior moments (e.g. a node holding nearly all the
                // weight): fall back to the plug-in estimate.
                Err(_) => (weight / total).clamp(0.0, 1.0),
            }
        } else {
            (weight / total).clamp(0.0, 1.0)
        };

        // Binomial variance of the edge weight (Eq. 2 with the posterior P_ij).
        let weight_variance = total * posterior_p * (1.0 - posterior_p);

        // Delta method: V[L̃ij] = V[N̂ij] · (2 (κ + N̂ij dκ/dN̂ij) / (κ N̂ij + 1)²)².
        let d_kappa = 1.0 / (out_strength * in_strength)
            - total * (out_strength + in_strength) / (out_strength * in_strength).powi(2);
        let derivative = 2.0 * (kappa + weight * d_kappa) / (lift_term + 1.0).powi(2);
        let lift_variance = weight_variance * derivative * derivative;

        // A NaN variance (an underflowed strength product) stays NaN, so the
        // caller refuses the edge instead of reading a zero deviation.
        let std_dev = if lift_variance.is_nan() {
            f64::NAN
        } else {
            lift_variance.max(0.0).sqrt()
        };
        (transformed_lift, std_dev)
    }

    /// Score every edge with an explicit worker count (`0` = automatic,
    /// honoring `BACKBONING_THREADS`). Each edge's score is a pure function of
    /// the precomputed totals, and every edge lands at its own edge id, so
    /// the result is bit-identical for every thread count.
    ///
    /// Errors with [`BackboneError::UnsupportedGraph`] when a node strength
    /// or the network total overflows `f64`: `κ = N̂.. / (N̂i. N̂.j)` would be
    /// `∞/∞` and every score would silently come out as zero. Errors the
    /// same way when an edge's lift or standard deviation is not finite:
    /// for strengths so small that `N̂i. N̂.j` or its square underflows, `κ`
    /// or its derivative divides by zero and the edge would be written with
    /// a `NaN` lift or an infinite standard deviation.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let name = BackboneExtractor::name(self);
        let totals = NetworkTotals::compute(graph);
        ensure_finite(name, totals.sums().chain([totals.total]))?;
        ScoredEdges::score_edges(
            name,
            graph,
            threads,
            [Column::RawScore, Column::StdDev],
            |edge| {
                // The NC score formula is symmetric in (out-strength of the source,
                // in-strength of the target); for undirected graphs both directions
                // give the same value, so a single evaluation suffices.
                let (out_strength, in_strength) = (
                    totals.out_strength[edge.source],
                    totals.in_strength[edge.target],
                );
                let (transformed_lift, std_dev) =
                    self.score_edge(edge.weight, out_strength, in_strength, totals.total);
                if !(transformed_lift.is_finite() && std_dev.is_finite()) {
                    return Err(BackboneError::UnsupportedGraph {
                        method: name,
                        message: format!(
                            "node strengths {out_strength:e} and {in_strength:e} are too small \
                             for f64: their edge's lift comes out {transformed_lift} with \
                             standard deviation {std_dev}"
                        ),
                    });
                }
                let score = if std_dev > 0.0 {
                    transformed_lift / std_dev
                } else if transformed_lift > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                Ok((score, [transformed_lift, std_dev]))
            },
        )
    }
}

impl BackboneExtractor for NoiseCorrected {
    fn name(&self) -> &'static str {
        if self.bayesian_prior {
            "noise_corrected"
        } else {
            "noise_corrected_no_prior"
        }
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

/// The direct binomial p-value variant of the Noise-Corrected backbone
/// (paper, footnote 2).
///
/// The p-value of an edge is `P(X ≥ N̂ij)` for
/// `X ~ Binomial(N̂.., N̂i. N̂.j / N̂..²)`. The resulting `score` is `1 − p`, so
/// thresholding at `1 − p_max` keeps edges significant at level `p_max`.
/// Edge weights are rounded to the nearest integer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoiseCorrectedBinomial;

impl NoiseCorrectedBinomial {
    /// Create the extractor.
    pub fn new() -> Self {
        NoiseCorrectedBinomial
    }

    /// Score every edge with an explicit worker count (`0` = automatic). Edge
    /// p-values are independent, so the result is thread-count invariant.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let totals = NetworkTotals::compute(graph);
        if totals.total > 4.0e18 {
            return Err(BackboneError::UnsupportedGraph {
                method: "noise_corrected_binomial",
                message: format!(
                    "total weight {} is too large to treat as an integer trial count",
                    totals.total
                ),
            });
        }
        let trials = totals.total.round().max(0.0) as u64;
        ScoredEdges::score_edges(
            BackboneExtractor::name(self),
            graph,
            threads,
            [Column::PValue],
            |edge| {
                let out_strength = totals.out_strength[edge.source];
                let in_strength = totals.in_strength[edge.target];
                let p_value = if out_strength <= 0.0 || in_strength <= 0.0 || trials == 0 {
                    1.0
                } else {
                    let success_probability = (out_strength * in_strength
                        / (totals.total * totals.total))
                        .clamp(0.0, 1.0);
                    let observed = edge.weight.round().max(0.0) as u64;
                    Binomial::new(trials, success_probability)?.upper_tail(observed)
                };
                Ok((1.0 - p_value, [p_value]))
            },
        )
    }
}

impl BackboneExtractor for NoiseCorrectedBinomial {
    fn name(&self) -> &'static str {
        "noise_corrected_binomial"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{Direction, GraphBuilder, WeightedGraph};

    /// The toy example of the paper's Figure 3: a hub (node 0) connected to
    /// five peripheral nodes, two of which (1 and 2) share a weaker edge.
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
    fn transformed_lift_is_centered_and_bounded() {
        let nc = NoiseCorrected::default();
        let graph = figure3_toy();
        let scored = nc.score(&graph).unwrap();
        for edge in scored.iter() {
            let lift = edge.raw_score.unwrap();
            assert!(lift > -1.0 && lift < 1.0, "lift {lift} out of (-1, 1)");
            assert!(edge.std_dev.unwrap() >= 0.0);
        }
    }

    #[test]
    fn peripheral_edge_beats_hub_edges_on_toy_example() {
        // The key qualitative behaviour of Figure 3: the weaker 1–2 edge is
        // *more* surprising than the stronger hub edges towards those same two
        // nodes, because nodes 1 and 2 already have appreciable strength of
        // their own — connecting to the hub is not extraordinary, connecting to
        // each other is. (The hub's edges towards its degree-1 leaves are a
        // different story: those carry the leaf's entire strength and stay
        // highly significant, exactly as in the paper's figure where they are
        // selected by both methods.)
        let nc = NoiseCorrected::default();
        let graph = figure3_toy();
        let scored = nc.score(&graph).unwrap();

        let peripheral_index = graph.edge_index(1, 2).unwrap();
        let peripheral = scored.get(peripheral_index).unwrap();
        for hub_target in [1usize, 2usize] {
            let hub_index = graph.edge_index(0, hub_target).unwrap();
            let hub_edge = scored.get(hub_index).unwrap();
            assert!(
                peripheral.raw_score.unwrap() > hub_edge.raw_score.unwrap(),
                "peripheral lift {} should exceed hub lift {}",
                peripheral.raw_score.unwrap(),
                hub_edge.raw_score.unwrap()
            );
            assert!(peripheral.score > hub_edge.score);
        }
    }

    #[test]
    fn expected_weight_edges_have_near_zero_lift() {
        // In a uniform complete graph every edge has exactly its expected
        // weight, so transformed lifts concentrate near zero (they are not
        // exactly zero because removing the diagonal shifts the expectation).
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 10);
        for i in 0..10usize {
            for j in 0..10usize {
                if i != j {
                    graph.add_edge(i, j, 5.0).unwrap();
                }
            }
        }
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        for edge in scored.iter() {
            assert!(edge.raw_score.unwrap().abs() < 0.1);
        }
    }

    #[test]
    fn scores_are_symmetric_for_undirected_graphs() {
        let graph = figure3_toy();
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        // Both hub edges 0-1 and 0-2 have identical structure → identical scores.
        let a = scored.get(graph.edge_index(0, 1).unwrap()).unwrap();
        let b = scored.get(graph.edge_index(0, 2).unwrap()).unwrap();
        assert!((a.score - b.score).abs() < 1e-12);
    }

    #[test]
    fn directed_scores_use_out_and_in_strengths() {
        // Node 0 sends a lot, node 2 receives little: an edge 0→2 is expected
        // to be small, so a moderate weight on it is salient.
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 4);
        graph.add_edge(0, 1, 100.0).unwrap();
        graph.add_edge(0, 2, 10.0).unwrap();
        graph.add_edge(3, 1, 100.0).unwrap();
        graph.add_edge(3, 2, 1.0).unwrap();
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let strong_to_popular = scored.get(graph.edge_index(0, 1).unwrap()).unwrap();
        let moderate_to_unpopular = scored.get(graph.edge_index(0, 2).unwrap()).unwrap();
        // 10 units towards an unpopular receiver is more surprising than 100
        // units towards the receiver that gets almost everything.
        assert!(moderate_to_unpopular.raw_score.unwrap() > strong_to_popular.raw_score.unwrap());
    }

    #[test]
    fn bayesian_prior_keeps_variance_positive_for_weak_edges() {
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 3);
        graph.add_edge(0, 1, 1000.0).unwrap();
        graph.add_edge(1, 2, 1.0).unwrap();
        graph.add_edge(1, 0, 10.0).unwrap();
        graph.add_edge(2, 1, 5.0).unwrap();
        // A zero-weight edge explicitly present in the data.
        graph.add_edge(2, 0, 0.0).unwrap();

        let with_prior = NoiseCorrected::default().score(&graph).unwrap();
        let zero_edge = with_prior.get(graph.edge_index(2, 0).unwrap()).unwrap();
        assert!(
            zero_edge.std_dev.unwrap() > 0.0,
            "posterior variance must not degenerate"
        );

        let without_prior = NoiseCorrected::without_prior().score(&graph).unwrap();
        let zero_edge_plugin = without_prior.get(graph.edge_index(2, 0).unwrap()).unwrap();
        assert_eq!(
            zero_edge_plugin.std_dev.unwrap(),
            0.0,
            "plug-in variance degenerates to zero for zero-weight edges"
        );
    }

    #[test]
    fn extractor_names_distinguish_variants() {
        assert_eq!(NoiseCorrected::default().name(), "noise_corrected");
        assert_eq!(
            NoiseCorrected::without_prior().name(),
            "noise_corrected_no_prior"
        );
        assert_eq!(
            NoiseCorrectedBinomial::new().name(),
            "noise_corrected_binomial"
        );
    }

    #[test]
    fn backbone_extraction_prunes_hub_spokes_to_connected_pair_first() {
        // Figure 3 of the paper: at equal backbone size, the NC backbone keeps
        // the peripheral edge 1–2 and the hub's edges to its degree-1 leaves,
        // while the hub's edges to the already-connected pair (the blue dashed
        // edges of the figure) are the first to be pruned.
        let graph = figure3_toy();
        let nc = NoiseCorrected::default();
        let scored = nc.score(&graph).unwrap();
        let top4 = scored.top_k(4);
        assert!(top4.contains(&graph.edge_index(1, 2).unwrap()));
        assert!(!top4.contains(&graph.edge_index(0, 1).unwrap()));
        assert!(!top4.contains(&graph.edge_index(0, 2).unwrap()));
        let backbone = scored.backbone_top_k(&graph, 4).unwrap();
        assert_eq!(backbone.edge_count(), 4);
        assert!(backbone.has_edge(1, 2));
        assert_eq!(backbone.node_count(), graph.node_count());
    }

    #[test]
    fn delta_threshold_reduces_edge_count_monotonically() {
        let graph = figure3_toy();
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let loose = scored.filter(0.0).len();
        let medium = scored.filter(1.28).len();
        let strict = scored.filter(2.32).len();
        assert!(loose >= medium);
        assert!(medium >= strict);
    }

    #[test]
    fn binomial_variant_agrees_qualitatively_with_nc() {
        let graph = figure3_toy();
        let nc = NoiseCorrected::default().score(&graph).unwrap();
        let binomial = NoiseCorrectedBinomial::new().score(&graph).unwrap();

        // Both variants consider the peripheral 1–2 edge more significant than
        // the hub's edge towards node 1 (which node 1 would form anyway given
        // its strength and the hub's attraction).
        let peripheral = graph.edge_index(1, 2).unwrap();
        let hub = graph.edge_index(0, 1).unwrap();
        assert!(nc.get(peripheral).unwrap().score > nc.get(hub).unwrap().score);
        assert!(
            binomial.get(peripheral).unwrap().p_value.unwrap()
                < binomial.get(hub).unwrap().p_value.unwrap()
        );
    }

    #[test]
    fn binomial_variant_p_values_are_probabilities() {
        let graph = figure3_toy();
        let scored = NoiseCorrectedBinomial::new().score(&graph).unwrap();
        for edge in scored.iter() {
            let p = edge.p_value.unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!((edge.score - (1.0 - p)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_single_edge_graphs_are_handled() {
        let empty = WeightedGraph::directed();
        let scored = NoiseCorrected::default().score(&empty).unwrap();
        assert!(scored.is_empty());

        let single = WeightedGraph::from_edges(Direction::Directed, 2, vec![(0, 1, 5.0)]).unwrap();
        let scored = NoiseCorrected::default().score(&single).unwrap();
        assert_eq!(scored.len(), 1);
        // With a single edge the network total is tiny; the score must be finite or zero.
        let edge = scored.iter().next().unwrap();
        assert!(edge.score.is_finite() || edge.score == 0.0);
    }

    #[test]
    fn prior_and_no_prior_agree_on_heavy_edges() {
        // For well-measured (heavy) edges the Bayesian update is dominated by
        // the data, so both variants should give nearly identical scores.
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 20);
        for i in 0..20usize {
            for j in 0..20usize {
                if i != j {
                    graph
                        .add_edge(i, j, 50.0 + ((i * 7 + j * 3) % 13) as f64 * 10.0)
                        .unwrap();
                }
            }
        }
        let with_prior = NoiseCorrected::default().score(&graph).unwrap();
        let without = NoiseCorrected::without_prior().score(&graph).unwrap();
        for (a, b) in with_prior.iter().zip(without.iter()) {
            // The transformed lift does not depend on the prior at all.
            assert!((a.raw_score.unwrap() - b.raw_score.unwrap()).abs() < 1e-12);
            // The prior shrinks the posterior towards the null expectation, so
            // the two standard deviations differ, but for heavy, well-measured
            // edges they stay within the same order of magnitude.
            let ratio = a.std_dev.unwrap() / b.std_dev.unwrap().max(1e-300);
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "std-dev ratio {ratio} outside [0.5, 2]"
            );
        }
    }
}
