//! A uniform registry over the backboning methods.
//!
//! Every consumer of this crate — the CLI, the evaluation harness, the
//! reproduction binaries — selects a method the same way: a [`Method`] value
//! dispatches to the per-module extractor types ([`NoiseCorrected`],
//! [`DisparityFilter`], …) behind one `score`/`edge_set` entry point. The
//! paper's evaluation compares six methods ([`Method::all`]); the full
//! registry ([`Method::every`]) additionally carries the binomial
//! Noise-Corrected variant from the paper's footnote 2.
//!
//! ```
//! use backboning::Method;
//! use backboning_graph::generators::complete_graph;
//!
//! let graph = complete_graph(10, 2.0).unwrap();
//! let method = Method::parse("nc").unwrap();
//! assert_eq!(method, Method::NoiseCorrected);
//! let scored = method.score(&graph).unwrap();
//! assert_eq!(scored.len(), graph.edge_count());
//! ```

use backboning_graph::{GraphView, WeightedGraph};

use crate::disparity::DisparityFilter;
use crate::doubly_stochastic::DoublyStochastic;
use crate::error::{BackboneError, BackboneResult};
use crate::high_salience::{HighSalienceSkeleton, HSS_APPROX_SCORE_NAME};
use crate::naive::NaiveThreshold;
use crate::noise_corrected::{NoiseCorrected, NoiseCorrectedBinomial};
use crate::pipeline::{Pipeline, ThresholdPolicy};
use crate::scored::{BackboneExtractor, ScoredEdges};
use crate::spanning_tree::MaximumSpanningTree;

/// The backboning methods, selectable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Naive weight threshold.
    NaiveThreshold,
    /// Maximum spanning tree (parameter-free).
    MaximumSpanningTree,
    /// Doubly-Stochastic transformation (parameter-free).
    DoublyStochastic,
    /// High Salience Skeleton.
    HighSalienceSkeleton,
    /// High Salience Skeleton estimated from `roots` sampled shortest-path
    /// tree roots drawn deterministically from `seed` (see
    /// `HighSalienceSkeleton::score_sampled_with_threads` for the Hoeffding
    /// error bounds). Not part of the paper's evaluation sweep; it exists so
    /// HSS-style structure survives onto networks where the exact skeleton's
    /// one-tree-per-node cost is prohibitive.
    HssApprox {
        /// How many shortest-path-tree roots to sample (`≥ |V|` degenerates
        /// to the exact skeleton).
        roots: usize,
        /// Seed for the deterministic root sample.
        seed: u64,
    },
    /// Disparity Filter.
    DisparityFilter,
    /// Noise-Corrected backbone (the paper's contribution).
    NoiseCorrected,
    /// Noise-Corrected backbone, direct binomial p-value variant (the paper's
    /// footnote 2). Not part of the paper's six-method evaluation sweep.
    NoiseCorrectedBinomial,
}

impl Method {
    /// Default root-sample size for [`Method::HssApprox`]: 256 roots bound the
    /// per-edge salience error by ~0.076 at 95% confidence
    /// (`salience_error_bound(256, 0.95)`) while costing hundreds of times
    /// less than the exact skeleton on large networks.
    pub const DEFAULT_HSS_APPROX_ROOTS: usize = 256;

    /// Default sampling seed for [`Method::HssApprox`] (the same constant the
    /// repo's substrate generators use, so runs are reproducible by default).
    pub const DEFAULT_HSS_APPROX_SEED: u64 = 4242;

    /// The sampled-root HSS with the default `(roots, seed)` parameters.
    pub fn hss_approx_default() -> Method {
        Method::HssApprox {
            roots: Method::DEFAULT_HSS_APPROX_ROOTS,
            seed: Method::DEFAULT_HSS_APPROX_SEED,
        }
    }

    /// The six methods of the paper's evaluation, in the plotting order of the
    /// paper's figures.
    pub fn all() -> [Method; 6] {
        [
            Method::NaiveThreshold,
            Method::MaximumSpanningTree,
            Method::DoublyStochastic,
            Method::HighSalienceSkeleton,
            Method::DisparityFilter,
            Method::NoiseCorrected,
        ]
    }

    /// Every *exact* method in the registry, including the binomial
    /// Noise-Corrected variant (the full menu of the `backbone` CLI's
    /// `--methods all`). The sampled-root [`Method::HssApprox`] estimator is
    /// deliberately excluded: it is parameterized (its output depends on
    /// `(roots, seed)`) and approximates a method already listed here, so
    /// sweeps over `every()` stay sweeps over exact, parameter-identical
    /// methods.
    pub fn every() -> [Method; 7] {
        [
            Method::NaiveThreshold,
            Method::MaximumSpanningTree,
            Method::DoublyStochastic,
            Method::HighSalienceSkeleton,
            Method::DisparityFilter,
            Method::NoiseCorrected,
            Method::NoiseCorrectedBinomial,
        ]
    }

    /// The methods that scale to large networks (used by the Figure 9 sweep
    /// on millions of edges and by `bench_snapshot`'s large substrates).
    ///
    /// Inclusion criterion: worst-case scoring cost sub-quadratic in `|V|`
    /// (near-linear in `|E|` up to log factors). NT, MST, DF and NC are one
    /// or two passes over the edges; `HssApprox` with its default fixed root
    /// count costs `O(roots · |E|)` — a constant number of tree sweeps,
    /// independent of `|V|`. Exact HSS (`Θ(|V| · |E|)`) and DS (quadratic
    /// Sinkhorn iterations) stay excluded, as in the paper.
    pub fn scalable() -> [Method; 5] {
        [
            Method::NaiveThreshold,
            Method::MaximumSpanningTree,
            Method::DisparityFilter,
            Method::NoiseCorrected,
            Method::hss_approx_default(),
        ]
    }

    /// Short identifier used in tables (matches the paper's legend).
    pub fn short_name(&self) -> &'static str {
        match self {
            Method::NaiveThreshold => "NT",
            Method::MaximumSpanningTree => "MST",
            Method::DoublyStochastic => "DS",
            Method::HighSalienceSkeleton => "HSS",
            Method::HssApprox { .. } => "HSSA",
            Method::DisparityFilter => "DF",
            Method::NoiseCorrected => "NC",
            Method::NoiseCorrectedBinomial => "NCB",
        }
    }

    /// Full name used in reports.
    pub fn full_name(&self) -> &'static str {
        match self {
            Method::NaiveThreshold => "Naive Threshold",
            Method::MaximumSpanningTree => "Maximum Spanning Tree",
            Method::DoublyStochastic => "Doubly Stochastic",
            Method::HighSalienceSkeleton => "High Salience Skeleton",
            Method::HssApprox { .. } => "High Salience Skeleton (sampled roots)",
            Method::DisparityFilter => "Disparity Filter",
            Method::NoiseCorrected => "Noise-Corrected",
            Method::NoiseCorrectedBinomial => "Noise-Corrected (binomial)",
        }
    }

    /// The lowercase identifier used by the `backbone` CLI and the JSON run
    /// summaries.
    pub fn cli_name(&self) -> &'static str {
        match self {
            Method::NaiveThreshold => "naive",
            Method::MaximumSpanningTree => "mst",
            Method::DoublyStochastic => "ds",
            Method::HighSalienceSkeleton => "hss",
            Method::HssApprox { .. } => "hss-approx",
            Method::DisparityFilter => "df",
            Method::NoiseCorrected => "nc",
            Method::NoiseCorrectedBinomial => "ncb",
        }
    }

    /// The identifier this method's extractor stamps onto the
    /// [`ScoredEdges`] it produces (its [`BackboneExtractor::name`]); used
    /// to verify that cached scores belong to the method re-selecting over
    /// them.
    pub fn score_name(&self) -> &'static str {
        match self {
            Method::NaiveThreshold => NaiveThreshold::new().name(),
            Method::MaximumSpanningTree => MaximumSpanningTree::new().name(),
            Method::DoublyStochastic => DoublyStochastic::new().name(),
            Method::HighSalienceSkeleton => HighSalienceSkeleton::new().name(),
            Method::HssApprox { .. } => HSS_APPROX_SCORE_NAME,
            Method::DisparityFilter => DisparityFilter::new().name(),
            Method::NoiseCorrected => NoiseCorrected::default().name(),
            Method::NoiseCorrectedBinomial => NoiseCorrectedBinomial::new().name(),
        }
    }

    /// The CLI names [`Method::parse`] accepts, as error messages list them.
    pub const NAMES: &'static str = "nc, ncb, df, hss, hss-approx, ds, mst, naive";

    /// Parse a method name, case-insensitively. Accepts the CLI names
    /// (`nc`, `ncb`, `df`, `hss`, `hss-approx`, `ds`, `mst`, `naive`), the
    /// table legends (`NT`, …) and a few spelled-out aliases
    /// (`noise-corrected`, `disparity`, `high-salience`, `doubly-stochastic`,
    /// `spanning-tree`, `naive-threshold`).
    ///
    /// `hss-approx` parses to [`Method::hss_approx_default`]; callers that
    /// accept `--hss-roots` / `--hss-seed` overrides patch the fields
    /// afterwards.
    pub fn parse(name: &str) -> Option<Method> {
        match name.to_ascii_lowercase().as_str() {
            "naive" | "nt" | "naive-threshold" | "threshold" => Some(Method::NaiveThreshold),
            "mst" | "spanning-tree" | "maximum-spanning-tree" => Some(Method::MaximumSpanningTree),
            "ds" | "doubly-stochastic" => Some(Method::DoublyStochastic),
            "hss" | "high-salience" | "high-salience-skeleton" => {
                Some(Method::HighSalienceSkeleton)
            }
            "hss-approx" | "hssa" | "high-salience-approx" => Some(Method::hss_approx_default()),
            "df" | "disparity" | "disparity-filter" => Some(Method::DisparityFilter),
            "nc" | "noise-corrected" => Some(Method::NoiseCorrected),
            "ncb" | "noise-corrected-binomial" | "nc-binomial" => {
                Some(Method::NoiseCorrectedBinomial)
            }
            _ => None,
        }
    }

    /// A cache key uniquely identifying this method *and its parameters*.
    ///
    /// [`Method::cli_name`] alone is ambiguous for [`Method::HssApprox`]
    /// (every `(roots, seed)` shares the name `hss-approx`), so caches keyed
    /// by method — the server's scored-edge cache in particular — key by this
    /// string instead. Exact methods use their `cli_name` verbatim;
    /// `HssApprox` appends its parameters as
    /// `hss-approx:roots=<K>:seed=<S>`.
    pub fn cache_key(&self) -> String {
        match self {
            Method::HssApprox { roots, seed } => {
                format!("hss-approx:roots={roots}:seed={seed}")
            }
            _ => self.cli_name().to_string(),
        }
    }

    /// Check the method's parameters: `hss-approx` needs at least one root.
    /// The CLI and the server run this next to [`ThresholdPolicy::validate`],
    /// before any input is read or scored.
    pub fn validate(&self) -> BackboneResult<()> {
        match self {
            Method::HssApprox { roots: 0, .. } => Err(BackboneError::InvalidParameter {
                parameter: "hss-roots",
                message: "sampled-root HSS needs at least one root".to_string(),
            }),
            _ => Ok(()),
        }
    }

    /// Whether the method has no tunable parameter (its backbone is a single
    /// fixed edge set).
    pub fn is_parameter_free(&self) -> bool {
        matches!(self, Method::MaximumSpanningTree | Method::DoublyStochastic)
    }

    /// Score every edge of the graph (either representation) with this
    /// method.
    pub fn score<G: GraphView>(&self, graph: &G) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }

    /// [`Method::score`] with an explicit worker count (`0` = automatic).
    ///
    /// Experiments that already parallelize an outer loop (e.g. the Monte
    /// Carlo trials of Figure 4) pass `1` here so the inner scoring does not
    /// nest a second thread fan-out. Naive thresholding and MST are single
    /// sequential passes and ignore the count.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        match self {
            Method::NaiveThreshold => NaiveThreshold::new().score_with_threads(graph, threads),
            Method::MaximumSpanningTree => {
                MaximumSpanningTree::new().score_with_threads(graph, threads)
            }
            Method::DoublyStochastic => DoublyStochastic::new().score_with_threads(graph, threads),
            Method::HighSalienceSkeleton => {
                HighSalienceSkeleton::new().score_with_threads(graph, threads)
            }
            Method::HssApprox { roots, seed } => HighSalienceSkeleton::new()
                .score_sampled_with_threads(graph, *roots, *seed, threads),
            Method::DisparityFilter => DisparityFilter::new().score_with_threads(graph, threads),
            Method::NoiseCorrected => NoiseCorrected::default().score_with_threads(graph, threads),
            Method::NoiseCorrectedBinomial => {
                NoiseCorrectedBinomial::new().score_with_threads(graph, threads)
            }
        }
    }

    /// The method's fixed backbone edge set, for the parameter-free methods
    /// (MST: the spanning forest; DS: edges added by decreasing
    /// doubly-stochastic weight until the non-isolated nodes are connected),
    /// in ascending edge-index order.
    ///
    /// Returns `None` for tunable methods.
    pub fn fixed_edge_set<G: GraphView>(&self, graph: &G) -> Option<BackboneResult<Vec<usize>>> {
        if !self.is_parameter_free() {
            return None;
        }
        Some(self.score_with_threads(graph, 0).map(|scored| {
            self.fixed_edge_set_from_scores(graph, &scored)
                .expect("parameter-free methods have a fixed edge set")
        }))
    }

    /// [`Method::fixed_edge_set`], reusing an already-computed score set so
    /// the expensive scoring pass (DS: the Sinkhorn normalisation; MST:
    /// Kruskal) does not run a second time. The scores fully determine the
    /// fixed set: MST scores mark the forest edges with 1, DS scores are the
    /// doubly-stochastic weights.
    pub fn fixed_edge_set_from_scores<G: GraphView>(
        &self,
        graph: &G,
        scored: &ScoredEdges,
    ) -> Option<Vec<usize>> {
        match self {
            Method::MaximumSpanningTree => Some(scored.filter(0.5)),
            Method::DoublyStochastic => {
                Some(DoublyStochastic::fixed_edge_set_from_scores(graph, scored))
            }
            _ => None,
        }
    }

    /// The method's backbone as an edge-index set at a target edge count.
    ///
    /// Scored methods return their `target_edges` highest scoring edges;
    /// parameter-free methods return their fixed backbone regardless of
    /// `target_edges` (matching how the paper compares them). Routed through
    /// the shared [`Pipeline`], so the reproduction experiments and the
    /// `backbone` CLI exercise the same code.
    pub fn edge_set<G: GraphView>(
        &self,
        graph: &G,
        target_edges: usize,
    ) -> BackboneResult<Vec<usize>> {
        self.edge_set_with_threads(graph, target_edges, 0)
    }

    /// [`Method::edge_set`] with an explicit worker count (`0` = automatic).
    pub fn edge_set_with_threads<G: GraphView>(
        &self,
        graph: &G,
        target_edges: usize,
        threads: usize,
    ) -> BackboneResult<Vec<usize>> {
        Pipeline::new(*self, ThresholdPolicy::TopK(target_edges))
            .with_threads(threads)
            .edge_set(graph)
    }

    /// The method's backbone graph at a target edge count (see [`Method::edge_set`]).
    pub fn backbone<G: GraphView>(
        &self,
        graph: &G,
        target_edges: usize,
    ) -> BackboneResult<WeightedGraph> {
        Ok(graph.subgraph_with_edges(&self.edge_set(graph, target_edges)?)?)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::generators::complete_graph;

    #[test]
    fn registry_covers_the_methods() {
        assert_eq!(Method::all().len(), 6);
        assert_eq!(Method::every().len(), 7);
        assert_eq!(Method::scalable().len(), 5);
        let names: Vec<&str> = Method::all().iter().map(|m| m.short_name()).collect();
        assert_eq!(names, vec!["NT", "MST", "DS", "HSS", "DF", "NC"]);
        // hss-approx is scalable but deliberately not part of `every()`.
        assert!(Method::scalable().contains(&Method::hss_approx_default()));
        assert!(!Method::every()
            .iter()
            .any(|m| matches!(m, Method::HssApprox { .. })));
        for method in Method::every() {
            assert!(!method.full_name().is_empty());
        }
    }

    #[test]
    fn hss_approx_parses_and_keys_its_parameters() {
        assert_eq!(
            Method::parse("hss-approx"),
            Some(Method::hss_approx_default())
        );
        assert_eq!(Method::parse("HSSA"), Some(Method::hss_approx_default()));
        let custom = Method::HssApprox { roots: 64, seed: 7 };
        assert_eq!(custom.cli_name(), "hss-approx");
        assert_eq!(custom.cache_key(), "hss-approx:roots=64:seed=7");
        // Exact methods key by their CLI name; different parameterizations of
        // hss-approx never collide.
        assert_eq!(Method::NoiseCorrected.cache_key(), "nc");
        assert_ne!(custom.cache_key(), Method::hss_approx_default().cache_key());
    }

    #[test]
    fn hss_approx_scores_deterministically() {
        let graph = complete_graph(12, 2.0).unwrap();
        let method = Method::HssApprox { roots: 4, seed: 9 };
        let scored = method.score(&graph).unwrap();
        assert_eq!(scored.len(), graph.edge_count());
        assert_eq!(scored.method(), method.score_name());
        let again = method.score(&graph).unwrap();
        for (a, b) in scored.iter().zip(again.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn parse_round_trips_every_name() {
        for method in Method::every() {
            assert_eq!(Method::parse(method.cli_name()), Some(method));
            assert_eq!(Method::parse(method.short_name()), Some(method));
        }
        assert_eq!(
            Method::parse("Noise-Corrected"),
            Some(Method::NoiseCorrected)
        );
        assert_eq!(Method::parse("DISPARITY"), Some(Method::DisparityFilter));
        assert_eq!(Method::parse("bogus"), None);
    }

    #[test]
    fn names_lists_every_cli_name_once() {
        let names: Vec<&str> = Method::NAMES.split(", ").collect();
        let mut cli_names: Vec<&str> = Method::every().iter().map(Method::cli_name).collect();
        cli_names.push(Method::hss_approx_default().cli_name());
        assert_eq!(names.len(), cli_names.len());
        for name in cli_names {
            assert!(names.contains(&name), "{name}");
        }
        for name in names {
            assert_eq!(Method::parse(name).map(|m| m.cli_name()), Some(name));
        }
    }

    #[test]
    fn parameter_free_flags() {
        assert!(Method::MaximumSpanningTree.is_parameter_free());
        assert!(Method::DoublyStochastic.is_parameter_free());
        assert!(!Method::NoiseCorrected.is_parameter_free());
        assert!(!Method::DisparityFilter.is_parameter_free());
        assert!(!Method::NoiseCorrectedBinomial.is_parameter_free());
        assert!(!Method::hss_approx_default().is_parameter_free());
    }

    #[test]
    fn every_method_scores_a_dense_graph() {
        let graph = complete_graph(12, 2.0).unwrap();
        for method in Method::every() {
            let scored = method.score(&graph).unwrap();
            assert_eq!(scored.len(), graph.edge_count(), "{}", method.short_name());
            assert_eq!(scored.method(), method.score_name());
        }
    }

    #[test]
    fn edge_sets_respect_target_for_scored_methods() {
        let graph = complete_graph(10, 2.0).unwrap();
        for method in [
            Method::NaiveThreshold,
            Method::DisparityFilter,
            Method::NoiseCorrected,
            Method::NoiseCorrectedBinomial,
        ] {
            let edges = method.edge_set(&graph, 7).unwrap();
            assert_eq!(edges.len(), 7, "{}", method.short_name());
        }
        // MST ignores the target and returns n − 1 edges.
        let mst = Method::MaximumSpanningTree.edge_set(&graph, 7).unwrap();
        assert_eq!(mst.len(), 9);
    }

    #[test]
    fn backbone_preserves_node_count() {
        let graph = complete_graph(8, 1.0).unwrap();
        for method in Method::every() {
            let backbone = method.backbone(&graph, 10).unwrap();
            assert_eq!(backbone.node_count(), 8, "{}", method.short_name());
        }
    }
}
