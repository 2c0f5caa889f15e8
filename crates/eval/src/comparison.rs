//! The backbone evaluation & comparison engine behind `backbone compare`.
//!
//! The paper's core argument is not just the Noise-Corrected estimator but
//! its *evaluation methodology* (Section V): methods are compared **at
//! matched edge coverage** — every method is asked for the same number of
//! edges — on node coverage, connectivity, and robustness to multiplicative
//! noise. This module packages that methodology as a reusable engine:
//!
//! * [`ComparisonConfig`] — which methods, the matched edge share, and the
//!   noise Monte Carlo parameters;
//! * [`Comparison::run`] — score each method, select at matched coverage,
//!   and compute every metric;
//! * [`Comparison::run_with_scores`] — the same, but scoring through a
//!   caller-supplied source of [`ScoredEdges`] (the HTTP server passes its
//!   `(graph, method)` scored-edge cache here, so a repeated comparison
//!   never re-scores);
//! * [`ComparisonReport`] — per-method coverage/connectivity/degree metrics,
//!   a pairwise Jaccard agreement matrix, noise stability, and the wall time
//!   of each method's scoring pass, renderable as a text table
//!   ([`ComparisonReport::render_table`]), as JSON with the timings
//!   ([`ComparisonReport::to_json`]), or as **stable JSON**
//!   ([`ComparisonReport::to_json_stable`]: a pure function of graph and
//!   config, so the CLI and a cache-hit server response emit identical
//!   bytes).
//!
//! Noise stability is a Monte Carlo: the graph's weights are perturbed
//! multiplicatively ([`multiplicative_resample`]) `noise_resamples` times,
//! each resample is re-scored and re-selected at the same matched size, and
//! the metric is the mean Jaccard similarity between the original and the
//! perturbed backbone. Resamples run in parallel via
//! [`backboning_parallel::par_map`] with per-trial seeds and a sequential
//! trial-order mean, so the result is bit-identical at any thread count.
//!
//! ```
//! use backboning::Method;
//! use backboning_eval::comparison::{Comparison, ComparisonConfig};
//! use backboning_graph::generators::complete_graph;
//!
//! let graph = complete_graph(8, 2.0).unwrap(); // 28 edges
//! let config = ComparisonConfig {
//!     methods: vec![Method::NaiveThreshold, Method::NoiseCorrected],
//!     noise_resamples: 2,
//!     ..ComparisonConfig::default()
//! };
//! let report = Comparison::new(config).unwrap().run(&graph).unwrap();
//! assert_eq!(report.matched_edges, 3); // round(0.1 × 28)
//! assert_eq!(report.methods.len(), 2);
//! assert_eq!(report.jaccard[0][0], Some(1.0));
//! assert!(report.to_json().contains("\"noise_stability\""));
//! ```

use std::sync::Arc;
use std::time::Instant;

use backboning::error::{BackboneError, BackboneResult};
use backboning::json::{self, JsonArray, JsonObject};
use backboning::pipeline::matched_edge_count;
use backboning::{Method, Pipeline, ScoredEdges, ThresholdPolicy};
use backboning_graph::algorithms::union_find::UnionFind;
use backboning_graph::{GraphView, WeightedGraph};
use backboning_parallel::par_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::recovery::jaccard_index;
use crate::report::{fmt3, fmt_opt, TextTable};

/// The methods `backbone compare` evaluates when none are requested: the
/// three tunable statistical methods the selection guide weighs against each
/// other. The parameter-free methods (MST, DS) and the naive baseline can be
/// added explicitly (`--methods all` compares every registered method).
pub const DEFAULT_METHODS: [Method; 3] = [
    Method::NoiseCorrected,
    Method::DisparityFilter,
    Method::HighSalienceSkeleton,
];

/// The most noise resamples one comparison may run. Every resample
/// re-scores each method on a perturbed copy of the graph, and the trial
/// list is allocated up front, so [`Comparison::new`] rejects larger counts:
/// `backbone compare --resamples` and the server's `/compare?resamples=`
/// share this cap.
pub const MAX_NOISE_RESAMPLES: usize = 1000;

/// Configuration of a backbone comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonConfig {
    /// The methods to compare, in report order (no duplicates).
    pub methods: Vec<Method>,
    /// The matched edge coverage: every method keeps `round(top_share × E)`
    /// edges (parameter-free methods keep their fixed set). In `[0, 1]`.
    pub top_share: f64,
    /// Magnitude of the multiplicative noise: each resample multiplies every
    /// edge weight by an independent uniform factor in
    /// `[1 − noise_level, 1 + noise_level]`. In `[0, 1)`.
    pub noise_level: f64,
    /// Number of Monte Carlo noise resamples (`0` skips the stability
    /// metric entirely), at most [`MAX_NOISE_RESAMPLES`].
    pub noise_resamples: usize,
    /// Base seed of the noise Monte Carlo; resample `i` derives its own
    /// generator from `(seed, i)`, so results are reproducible.
    pub seed: u64,
    /// Worker threads for scoring and for the noise trials (`0` = automatic,
    /// honouring `BACKBONING_THREADS`). Results are bit-identical at any
    /// setting.
    pub threads: usize,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        ComparisonConfig {
            methods: DEFAULT_METHODS.to_vec(),
            top_share: 0.1,
            noise_level: 0.1,
            noise_resamples: 8,
            seed: 4242,
            threads: 0,
        }
    }
}

/// Parse a comma-separated method list (`"nc,df,hss"`). Accepts every name
/// [`Method::parse`] accepts, plus the single word `all` for the full
/// seven-method registry. Rejects empty lists, unknown names and duplicates.
///
/// ```
/// use backboning::Method;
/// use backboning_eval::comparison::parse_method_list;
///
/// assert_eq!(
///     parse_method_list("nc, df").unwrap(),
///     vec![Method::NoiseCorrected, Method::DisparityFilter]
/// );
/// assert_eq!(parse_method_list("all").unwrap().len(), 7);
/// assert!(parse_method_list("nc,bogus").is_err());
/// assert!(parse_method_list("nc,nc").is_err());
/// ```
pub fn parse_method_list(spec: &str) -> Result<Vec<Method>, String> {
    if spec.trim().eq_ignore_ascii_case("all") {
        return Ok(Method::every().to_vec());
    }
    let mut methods = Vec::new();
    for name in spec.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("empty method name in `{spec}`"));
        }
        let method = Method::parse(name).ok_or_else(|| {
            format!(
                "unknown method `{name}` (expected one of: {}, or `all`)",
                Method::NAMES
            )
        })?;
        if methods.contains(&method) {
            return Err(format!(
                "duplicate method `{}` in `{spec}`",
                method.cli_name()
            ));
        }
        methods.push(method);
    }
    if methods.is_empty() {
        return Err("at least one method is required".to_string());
    }
    Ok(methods)
}

/// `graph` with every edge weight multiplied by an independent uniform
/// factor in `[1 − level, 1 + level]` — the multiplicative-noise resample of
/// the stability Monte Carlo. Nodes, edge endpoints and edge *indices* are
/// preserved exactly, so edge-index sets of the original and the resampled
/// graph are directly comparable. Deterministic for a given `seed`.
pub fn multiplicative_resample<G: GraphView>(graph: &G, level: f64, seed: u64) -> WeightedGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(usize, usize, f64)> = graph
        .edges()
        .map(|edge| {
            let factor = 1.0 - level + 2.0 * level * rng.random::<f64>();
            (edge.source, edge.target, edge.weight * factor)
        })
        .collect();
    WeightedGraph::from_edges(graph.direction(), graph.node_count(), edges)
        .expect("a perturbed copy of a valid graph is valid")
}

/// The per-method metrics of a comparison, all computed on the backbone
/// selected at matched edge coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMetrics {
    /// Edges actually kept (equals the matched target for tunable methods;
    /// the fixed set size for MST/DS).
    pub edges: usize,
    /// Kept edges as a share of the original edges.
    pub edge_share: f64,
    /// Share of originally non-isolated nodes keeping at least one edge —
    /// the paper's Topology/coverage criterion (Figure 7).
    pub node_coverage: f64,
    /// Kept edge weight as a share of the total edge weight.
    pub weight_share: f64,
    /// Number of connected components among the covered nodes (isolated
    /// nodes are not counted as components; `0` for an empty backbone).
    pub components: usize,
    /// Nodes of the largest backbone component as a share of the originally
    /// non-isolated nodes.
    pub largest_component_share: f64,
    /// Minimum degree over the covered nodes (`0` for an empty backbone).
    pub degree_min: usize,
    /// Mean degree over the covered nodes.
    pub degree_mean: f64,
    /// Maximum degree over the covered nodes.
    pub degree_max: usize,
    /// Mean Jaccard similarity between this backbone and the backbone
    /// re-extracted from each multiplicative-noise resample; `None` when the
    /// Monte Carlo was skipped (`noise_resamples = 0`) or every resample
    /// failed for this method.
    pub noise_stability: Option<f64>,
}

/// A measured wall time in milliseconds.
///
/// Compares equal to **any** other value: a timing is a measurement, not
/// part of a report's identity, so the derived `PartialEq` on the report
/// types keeps meaning "same backbone result" — the thread-invariance and
/// CSR-parity tests rely on that, the same way `wall_ms` is excluded from
/// the pipeline's stable summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallMillis(pub f64);

impl PartialEq for WallMillis {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// One method's entry in a [`ComparisonReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// The method compared.
    pub method: Method,
    /// The kept edge indices at matched coverage, in ranking order (empty
    /// when the method failed).
    pub kept: Vec<usize>,
    /// Wall time of this method's scoring pass alone (selection and metrics
    /// excluded). Against a score cache this is the cache-lookup time, which
    /// is exactly the point of reporting it. Excluded from report equality
    /// and from the stable JSON (see [`WallMillis`]).
    pub score_wall_ms: WallMillis,
    /// The computed metrics, or the scoring/selection error (e.g. Doubly
    /// Stochastic on a graph with no feasible scaling).
    pub metrics: Result<MethodMetrics, String>,
}

/// The full result of a [`Comparison`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Node count of the compared graph.
    pub nodes: usize,
    /// Edge count of the compared graph.
    pub edges: usize,
    /// The matched edge share of the run.
    pub top_share: f64,
    /// The matched edge target: `round(top_share × edges)`.
    pub matched_edges: usize,
    /// The multiplicative-noise magnitude of the stability Monte Carlo.
    pub noise_level: f64,
    /// Number of noise resamples (0 = stability skipped).
    pub noise_resamples: usize,
    /// Base seed of the noise Monte Carlo.
    pub seed: u64,
    /// One entry per compared method, in configuration order.
    pub methods: Vec<MethodReport>,
    /// Pairwise Jaccard agreement between the methods' kept edge sets,
    /// indexed `[row][column]` in the order of [`ComparisonReport::methods`];
    /// `None` where either method failed.
    pub jaccard: Vec<Vec<Option<f64>>>,
}

impl ComparisonReport {
    /// The report of one method, if it was part of the comparison.
    pub fn method_report(&self, method: Method) -> Option<&MethodReport> {
        self.methods.iter().find(|report| report.method == method)
    }

    /// The report as JSON, *including* each method's `score_wall_ms` timing
    /// (three fixed decimals, last field of each method object). Everything
    /// except the timings is deterministic; callers that need byte-stable
    /// output (the server cache, the golden tests) use
    /// [`ComparisonReport::to_json_stable`] instead — the same split as the
    /// pipeline's `summary_json` / `summary_json_stable`.
    pub fn to_json(&self) -> String {
        self.json_body(true)
    }

    /// The report as a stable JSON document: a pure function of the graph
    /// and the configuration (no wall times), so two runs with the same
    /// inputs — CLI or server, cold or cache-hit — produce byte-identical
    /// output. Computed metrics are emitted with six fixed decimals.
    pub fn to_json_stable(&self) -> String {
        self.json_body(false)
    }

    fn json_body(&self, include_timing: bool) -> String {
        let mut input = JsonObject::inline();
        input.usize("nodes", self.nodes).usize("edges", self.edges);
        let mut noise = JsonObject::inline();
        noise
            .f64("level", self.noise_level)
            .usize("resamples", self.noise_resamples)
            .u64("seed", self.seed);

        let mut methods = JsonArray::new();
        for report in &self.methods {
            let mut object = JsonObject::inline();
            object.string("method", report.method.cli_name());
            match &report.metrics {
                Err(error) => {
                    object.string("error", error);
                }
                Ok(metrics) => {
                    let mut degree = JsonObject::inline();
                    degree
                        .usize("min", metrics.degree_min)
                        .f64_fixed("mean", metrics.degree_mean, 6)
                        .usize("max", metrics.degree_max);
                    object
                        .usize("edges", metrics.edges)
                        .f64_fixed("edge_share", metrics.edge_share, 6)
                        .f64_fixed("node_coverage", metrics.node_coverage, 6)
                        .f64_fixed("weight_share", metrics.weight_share, 6)
                        .usize("components", metrics.components)
                        .f64_fixed(
                            "largest_component_share",
                            metrics.largest_component_share,
                            6,
                        )
                        .raw("degree", &degree.finish())
                        .raw(
                            "noise_stability",
                            &match metrics.noise_stability {
                                Some(value) => json::number_fixed(value, 6),
                                None => "null".to_string(),
                            },
                        );
                }
            }
            if include_timing {
                object.f64_fixed("score_wall_ms", report.score_wall_ms.0, 3);
            }
            methods.raw(&object.finish());
        }

        let mut jaccard = JsonArray::new();
        for row in &self.jaccard {
            let mut rendered = JsonArray::new();
            for entry in row {
                match entry {
                    Some(value) => rendered.raw(&json::number_fixed(*value, 6)),
                    None => rendered.raw("null"),
                };
            }
            jaccard.raw(&rendered.finish());
        }

        let mut body = JsonObject::pretty();
        body.raw("input", &input.finish())
            .f64("top_share", self.top_share)
            .usize("matched_edges", self.matched_edges)
            .raw("noise", &noise.finish())
            .raw("methods", &methods.finish())
            .raw("jaccard", &jaccard.finish());
        body.finish()
    }

    /// The report as human-readable text: a headline, one metrics table
    /// (methods × criteria), and the pairwise Jaccard agreement matrix.
    pub fn render_table(&self) -> String {
        let mut output = format!(
            "Backbone comparison — {} nodes, {} edges, matched at top {} of edges ({} edges)\n",
            self.nodes, self.edges, self.top_share, self.matched_edges
        );
        if self.noise_resamples > 0 {
            output.push_str(&format!(
                "noise stability: mean self-Jaccard over {} multiplicative resamples at ±{} (seed {})\n",
                self.noise_resamples, self.noise_level, self.seed
            ));
        }
        output.push('\n');

        let mut table = TextTable::new(vec![
            "method",
            "edges",
            "edge share",
            "node cov",
            "weight share",
            "comps",
            "lcc share",
            "deg min/mean/max",
            "stability",
            "score ms",
        ]);
        for report in &self.methods {
            match &report.metrics {
                Ok(metrics) => table.add_row(vec![
                    report.method.short_name().to_string(),
                    metrics.edges.to_string(),
                    fmt3(metrics.edge_share),
                    fmt3(metrics.node_coverage),
                    fmt3(metrics.weight_share),
                    metrics.components.to_string(),
                    fmt3(metrics.largest_component_share),
                    format!(
                        "{}/{}/{}",
                        metrics.degree_min,
                        fmt3(metrics.degree_mean),
                        metrics.degree_max
                    ),
                    fmt_opt(metrics.noise_stability),
                    fmt3(report.score_wall_ms.0),
                ]),
                Err(error) => table.add_row(vec![
                    report.method.short_name().to_string(),
                    format!("failed: {error}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    fmt3(report.score_wall_ms.0),
                ]),
            }
        }
        output.push_str(&table.render());

        output.push_str("\nPairwise Jaccard agreement of the kept edge sets\n");
        let mut header = vec![String::new()];
        header.extend(
            self.methods
                .iter()
                .map(|report| report.method.short_name().to_string()),
        );
        let mut agreement = TextTable::new(header);
        for (report, row) in self.methods.iter().zip(&self.jaccard) {
            let mut cells = vec![report.method.short_name().to_string()];
            cells.extend(row.iter().map(|&entry| fmt_opt(entry)));
            agreement.add_row(cells);
        }
        output.push_str(&agreement.render());
        output
    }
}

/// A configured comparison run — see the [module docs](self) for the
/// methodology and an example.
#[derive(Debug, Clone)]
pub struct Comparison {
    config: ComparisonConfig,
}

impl Comparison {
    /// Validate a configuration. Rejects an empty or duplicated method list,
    /// a `top_share` outside `[0, 1]`, a `noise_level` outside `[0, 1)`
    /// (a level of 1 could zero out an edge weight, which a weighted graph
    /// cannot represent), and more than [`MAX_NOISE_RESAMPLES`] resamples.
    pub fn new(config: ComparisonConfig) -> BackboneResult<Comparison> {
        if config.methods.is_empty() {
            return Err(BackboneError::InvalidParameter {
                parameter: "methods",
                message: "at least one method is required".to_string(),
            });
        }
        for (index, method) in config.methods.iter().enumerate() {
            if config.methods[..index].contains(method) {
                return Err(BackboneError::InvalidParameter {
                    parameter: "methods",
                    message: format!("duplicate method `{}`", method.cli_name()),
                });
            }
            method.validate()?;
        }
        if !(0.0..=1.0).contains(&config.top_share) {
            return Err(BackboneError::InvalidParameter {
                parameter: "top_share",
                message: format!("must lie in [0, 1], got {}", config.top_share),
            });
        }
        if !(0.0..1.0).contains(&config.noise_level) {
            return Err(BackboneError::InvalidParameter {
                parameter: "noise_level",
                message: format!("must lie in [0, 1), got {}", config.noise_level),
            });
        }
        if config.noise_resamples > MAX_NOISE_RESAMPLES {
            return Err(BackboneError::InvalidParameter {
                parameter: "noise_resamples",
                message: format!(
                    "must be at most {MAX_NOISE_RESAMPLES}, got {}",
                    config.noise_resamples
                ),
            });
        }
        Ok(Comparison { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ComparisonConfig {
        &self.config
    }

    /// Run the comparison, scoring every method on `graph` directly.
    pub fn run<G: GraphView + Sync>(&self, graph: &G) -> BackboneResult<ComparisonReport> {
        self.run_with_scores(graph, |method| {
            method
                .score_with_threads(graph, self.config.threads)
                .map(Arc::new)
        })
    }

    /// Run the comparison, obtaining each method's [`ScoredEdges`] from
    /// `scores` — the score-once entry point. The HTTP server passes its
    /// `(graph, method)` scored-edge cache here, so an N-method comparison
    /// costs at most N scoring passes *ever*, shared with every `/backbone`
    /// query; only the noise resamples (perturbed copies of the graph) are
    /// re-scored, and those cannot be cached.
    ///
    /// Per-method failures (scoring or selection errors) are captured in the
    /// report rather than failing the run; an `Err` here means the
    /// comparison itself was impossible (invalid matched share).
    pub fn run_with_scores<G, F>(
        &self,
        graph: &G,
        mut scores: F,
    ) -> BackboneResult<ComparisonReport>
    where
        G: GraphView + Sync,
        F: FnMut(Method) -> BackboneResult<Arc<ScoredEdges>>,
    {
        let matched = matched_edge_count(graph.edge_count(), self.config.top_share)?;
        let mut score_wall: Vec<WallMillis> = Vec::with_capacity(self.config.methods.len());
        let selections: Vec<Result<Vec<usize>, String>> = self
            .config
            .methods
            .iter()
            .map(|&method| {
                let pipeline = Pipeline::new(method, ThresholdPolicy::TopK(matched))
                    .with_threads(self.config.threads);
                // Time the scoring pass alone: against a cache `scores` is a
                // lookup and the near-zero reading is the interesting datum.
                let start = Instant::now();
                let scored = scores(method);
                score_wall.push(WallMillis(start.elapsed().as_secs_f64() * 1e3));
                scored
                    .and_then(|scored| pipeline.select(graph, &scored))
                    .map_err(|error| error.to_string())
            })
            .collect();

        let stability = self.noise_stability(graph, matched, &selections);

        let methods: Vec<MethodReport> = self
            .config
            .methods
            .iter()
            .zip(selections.iter())
            .zip(stability)
            .zip(score_wall)
            .map(
                |(((&method, selection), noise_stability), score_wall_ms)| match selection {
                    Ok(kept) => MethodReport {
                        method,
                        kept: kept.clone(),
                        score_wall_ms,
                        metrics: Ok(backbone_metrics(graph, kept, noise_stability)),
                    },
                    Err(error) => MethodReport {
                        method,
                        kept: Vec::new(),
                        score_wall_ms,
                        metrics: Err(error.clone()),
                    },
                },
            )
            .collect();

        let jaccard = selections
            .iter()
            .map(|row| {
                selections
                    .iter()
                    .map(|column| match (row, column) {
                        (Ok(a), Ok(b)) => Some(jaccard_index(a, b)),
                        _ => None,
                    })
                    .collect()
            })
            .collect();

        Ok(ComparisonReport {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            top_share: self.config.top_share,
            matched_edges: matched,
            noise_level: self.config.noise_level,
            noise_resamples: self.config.noise_resamples,
            seed: self.config.seed,
            methods,
            jaccard,
        })
    }

    /// The noise-stability Monte Carlo: one mean self-Jaccard per method
    /// (aligned with the config's method list). Each trial perturbs the
    /// graph once ([`multiplicative_resample`], so every method sees the
    /// *same* perturbed weights — a fair comparison), re-scores every method
    /// sequentially inside the trial, and re-selects at the matched size.
    /// Trials fan out via [`par_map`] (order-preserving) and the per-method
    /// means are accumulated in trial order on the calling thread, so the
    /// result is bit-identical at any thread count.
    fn noise_stability<G: GraphView + Sync>(
        &self,
        graph: &G,
        matched: usize,
        selections: &[Result<Vec<usize>, String>],
    ) -> Vec<Option<f64>> {
        if self.config.noise_resamples == 0 || graph.edge_count() == 0 {
            return vec![None; self.config.methods.len()];
        }
        let trials: Vec<u64> = (0..self.config.noise_resamples as u64).collect();
        let per_trial: Vec<Vec<Option<f64>>> =
            par_map(&trials, self.config.threads, |_, &trial| {
                let noisy = multiplicative_resample(
                    graph,
                    self.config.noise_level,
                    self.config.seed.wrapping_add(trial),
                );
                self.config
                    .methods
                    .iter()
                    .zip(selections.iter())
                    .map(|(&method, selection)| {
                        let base = selection.as_ref().ok()?;
                        // Inner scoring stays sequential: the Monte Carlo already
                        // fans out across trials.
                        let pipeline =
                            Pipeline::new(method, ThresholdPolicy::TopK(matched)).with_threads(1);
                        let scored = pipeline.score(&noisy).ok()?;
                        let kept = pipeline.select(&noisy, &scored).ok()?;
                        Some(jaccard_index(base, &kept))
                    })
                    .collect()
            });
        (0..self.config.methods.len())
            .map(|column| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for trial in &per_trial {
                    if let Some(value) = trial[column] {
                        sum += value;
                        count += 1;
                    }
                }
                (count > 0).then(|| sum / count as f64)
            })
            .collect()
    }
}

/// Compute the coverage/connectivity/degree metrics of one kept edge set.
///
/// Runs directly on the kept edge ids with a union–find over the original
/// node set — the backbone subgraph is never materialized, so a comparison
/// on a multi-million-edge [`backboning_graph::CsrGraph`] costs one degree
/// array and one union–find, not an adjacency-map copy per method.
fn backbone_metrics<G: GraphView>(
    graph: &G,
    kept: &[usize],
    noise_stability: Option<f64>,
) -> MethodMetrics {
    let node_count = graph.node_count();
    let directed = graph.is_directed();
    // Backbone degrees, matching `WeightedGraph::degree` semantics exactly:
    // directed = out + in (a self-loop counts twice), undirected = incident
    // edges (a self-loop counts once).
    let mut degrees = vec![0usize; node_count];
    let mut union_find = UnionFind::new(node_count);
    let mut kept_weight = 0.0;
    for &index in kept {
        let edge = graph
            .edge(index)
            .expect("kept indices come from this graph");
        kept_weight += edge.weight;
        degrees[edge.source] += 1;
        if directed || edge.source != edge.target {
            degrees[edge.target] += 1;
        }
        union_find.union(edge.source, edge.target);
    }
    let covered = degrees.iter().filter(|&&degree| degree > 0).count();
    let original_connected = graph.non_isolated_node_count();
    let share_of_connected = |count: usize| {
        if original_connected == 0 {
            1.0
        } else {
            count as f64 / original_connected as f64
        }
    };
    let edge_share = if graph.edge_count() == 0 {
        1.0
    } else {
        kept.len() as f64 / graph.edge_count() as f64
    };
    let total_weight = graph.total_weight();
    let weight_share = if total_weight == 0.0 {
        1.0
    } else {
        kept_weight / total_weight
    };
    let (components, largest_component_share) = if kept.is_empty() {
        (0, 0.0)
    } else {
        // Components among the covered nodes only: count distinct union–find
        // roots over the nodes that kept at least one edge, and take the
        // largest such root's population for the LCC share.
        let mut root_sizes = vec![0usize; node_count];
        for node in 0..node_count {
            if degrees[node] > 0 {
                root_sizes[union_find.find(node)] += 1;
            }
        }
        let mut components = 0usize;
        let mut largest = 0usize;
        for &size in &root_sizes {
            if size > 0 {
                components += 1;
                largest = largest.max(size);
            }
        }
        (components, share_of_connected(largest))
    };
    let mut degree_min = 0usize;
    let mut degree_max = 0usize;
    let mut degree_sum = 0usize;
    for &degree in &degrees {
        if degree == 0 {
            continue;
        }
        degree_min = if degree_sum == 0 {
            degree
        } else {
            degree_min.min(degree)
        };
        degree_max = degree_max.max(degree);
        degree_sum += degree;
    }
    MethodMetrics {
        edges: kept.len(),
        edge_share,
        node_coverage: share_of_connected(covered),
        weight_share,
        components,
        largest_component_share,
        degree_min,
        degree_mean: if covered == 0 {
            0.0
        } else {
            degree_sum as f64 / covered as f64
        },
        degree_max,
        noise_stability,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::generators::complete_graph;
    use backboning_graph::Direction;

    fn two_triangles() -> WeightedGraph {
        // Two disjoint triangles with distinct weights.
        WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![
                ("a", "b", 9.0),
                ("b", "c", 8.0),
                ("c", "a", 7.0),
                ("x", "y", 3.0),
                ("y", "z", 2.0),
                ("z", "x", 1.0),
            ],
        )
        .unwrap()
    }

    fn quick_config(methods: Vec<Method>) -> ComparisonConfig {
        ComparisonConfig {
            methods,
            noise_resamples: 2,
            threads: 1,
            ..ComparisonConfig::default()
        }
    }

    #[test]
    fn csr_comparison_is_bit_identical_to_adjacency() {
        // The comparison engine is generic over GraphView; running it on the
        // compact CSR form must reproduce the adjacency report byte for byte
        // (same scores, same union-find connectivity, same JSON).
        let graph = two_triangles();
        let csr = backboning_graph::CsrGraph::from_graph(&graph).unwrap();
        let comparison = Comparison::new(quick_config(vec![
            Method::NaiveThreshold,
            Method::NoiseCorrected,
            Method::MaximumSpanningTree,
        ]))
        .unwrap();
        let adjacency_report = comparison.run(&graph).unwrap();
        let csr_report = comparison.run(&csr).unwrap();
        assert_eq!(adjacency_report, csr_report);
        assert_eq!(
            adjacency_report.to_json_stable(),
            csr_report.to_json_stable()
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let base = ComparisonConfig::default();
        assert!(Comparison::new(ComparisonConfig {
            methods: vec![],
            ..base.clone()
        })
        .is_err());
        assert!(Comparison::new(ComparisonConfig {
            methods: vec![Method::NoiseCorrected, Method::NoiseCorrected],
            ..base.clone()
        })
        .is_err());
        assert!(Comparison::new(ComparisonConfig {
            top_share: 1.5,
            ..base.clone()
        })
        .is_err());
        assert!(Comparison::new(ComparisonConfig {
            noise_level: 1.0,
            ..base.clone()
        })
        .is_err());
        let err = Comparison::new(ComparisonConfig {
            methods: vec![
                Method::NoiseCorrected,
                Method::HssApprox { roots: 0, seed: 1 },
            ],
            ..base.clone()
        })
        .unwrap_err();
        assert!(err.to_string().contains("at least one root"), "{err}");
        // The resample cap is inclusive; a larger count is refused before
        // any trial is allocated.
        assert!(Comparison::new(ComparisonConfig {
            noise_resamples: MAX_NOISE_RESAMPLES,
            ..base.clone()
        })
        .is_ok());
        let err = Comparison::new(ComparisonConfig {
            noise_resamples: 1_000_000_000_000,
            ..base.clone()
        })
        .unwrap_err();
        assert!(err.to_string().contains("at most 1000"), "{err}");
        assert!(Comparison::new(base).is_ok());
    }

    #[test]
    fn metrics_on_a_known_backbone() {
        let graph = two_triangles();
        // Naive top-2 keeps the two heaviest edges: a–b and b–c.
        let config = ComparisonConfig {
            top_share: 2.0 / 6.0,
            noise_resamples: 0,
            ..quick_config(vec![Method::NaiveThreshold])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        assert_eq!(report.matched_edges, 2);
        let naive = report.method_report(Method::NaiveThreshold).unwrap();
        assert_eq!(naive.kept, vec![0, 1]);
        let metrics = naive.metrics.as_ref().unwrap();
        assert_eq!(metrics.edges, 2);
        // Covered nodes: a, b, c of 6 → coverage 0.5; one path component.
        assert!((metrics.node_coverage - 0.5).abs() < 1e-12);
        assert_eq!(metrics.components, 1);
        assert!((metrics.largest_component_share - 0.5).abs() < 1e-12);
        assert!((metrics.weight_share - 17.0 / 30.0).abs() < 1e-12);
        assert_eq!((metrics.degree_min, metrics.degree_max), (1, 2));
        assert!((metrics.degree_mean - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(metrics.noise_stability, None);
        // The Jaccard diagonal is exactly 1.
        assert_eq!(report.jaccard[0][0], Some(1.0));
    }

    #[test]
    fn disconnected_backbones_report_their_components() {
        let graph = two_triangles();
        // Keep 4 edges: the whole heavy triangle plus x–y.
        let config = ComparisonConfig {
            top_share: 4.0 / 6.0,
            noise_resamples: 0,
            ..quick_config(vec![Method::NaiveThreshold])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        let metrics = report.methods[0].metrics.as_ref().unwrap();
        assert_eq!(metrics.components, 2);
        assert!((metrics.node_coverage - 5.0 / 6.0).abs() < 1e-12);
        assert!((metrics.largest_component_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_backbone_has_empty_metrics() {
        let graph = two_triangles();
        let config = ComparisonConfig {
            top_share: 0.0,
            noise_resamples: 2,
            ..quick_config(vec![Method::NaiveThreshold])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        let metrics = report.methods[0].metrics.as_ref().unwrap();
        assert_eq!(metrics.edges, 0);
        assert_eq!(metrics.components, 0);
        assert_eq!(metrics.largest_component_share, 0.0);
        assert_eq!((metrics.degree_min, metrics.degree_max), (0, 0));
        // An empty set is stable under any noise: Jaccard(∅, ∅) = 1.
        assert_eq!(metrics.noise_stability, Some(1.0));
    }

    #[test]
    fn failed_methods_are_reported_not_fatal() {
        // A path graph has no doubly-stochastic scaling, so DS fails while
        // the other methods succeed.
        let graph = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("a", "b", 2.0), ("b", "c", 1.0)],
        )
        .unwrap();
        let config = ComparisonConfig {
            top_share: 0.5,
            noise_resamples: 1,
            ..quick_config(vec![Method::DoublyStochastic, Method::NaiveThreshold])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        assert!(report.methods[0].metrics.is_err());
        assert!(report.methods[1].metrics.is_ok());
        assert_eq!(report.jaccard[0][1], None);
        assert_eq!(report.jaccard[1][0], None);
        assert!(report.jaccard[1][1].is_some());
        let json = report.to_json();
        assert!(json.contains("\"error\""));
        let table = report.render_table();
        assert!(table.contains("failed:"));
    }

    #[test]
    fn jaccard_matrix_is_symmetric_with_unit_diagonal() {
        let graph = complete_graph(10, 2.0).unwrap();
        let config = ComparisonConfig {
            noise_resamples: 0,
            ..quick_config(vec![
                Method::NaiveThreshold,
                Method::NoiseCorrected,
                Method::DisparityFilter,
            ])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        for (i, row) in report.jaccard.iter().enumerate() {
            assert_eq!(row[i], Some(1.0));
            for (j, &entry) in row.iter().enumerate() {
                assert_eq!(entry, report.jaccard[j][i]);
            }
        }
    }

    #[test]
    fn noise_stability_is_deterministic_and_bounded() {
        let graph = complete_graph(12, 2.0).unwrap();
        let config = ComparisonConfig {
            noise_resamples: 4,
            ..quick_config(vec![Method::NoiseCorrected, Method::NaiveThreshold])
        };
        let first = Comparison::new(config.clone())
            .unwrap()
            .run(&graph)
            .unwrap();
        let second = Comparison::new(config).unwrap().run(&graph).unwrap();
        assert_eq!(first, second);
        for report in &first.methods {
            let stability = report.metrics.as_ref().unwrap().noise_stability.unwrap();
            assert!((0.0..=1.0).contains(&stability), "{stability}");
        }
    }

    #[test]
    fn cached_scores_reproduce_the_direct_run() {
        let graph = complete_graph(9, 2.0).unwrap();
        let config = ComparisonConfig {
            noise_resamples: 2,
            ..quick_config(vec![Method::NoiseCorrected, Method::DisparityFilter])
        };
        let comparison = Comparison::new(config).unwrap();
        let direct = comparison.run(&graph).unwrap();
        // Pre-score once, hand the shared scores in — the server's cache path.
        let mut passes = 0usize;
        let cached = comparison
            .run_with_scores(&graph, |method| {
                passes += 1;
                method.score_with_threads(&graph, 1).map(Arc::new)
            })
            .unwrap();
        assert_eq!(passes, 2);
        assert_eq!(direct, cached);
        assert_eq!(direct.to_json_stable(), cached.to_json_stable());
    }

    #[test]
    fn score_wall_time_is_reported_but_kept_out_of_the_stable_json() {
        let graph = two_triangles();
        let config = ComparisonConfig {
            noise_resamples: 0,
            ..quick_config(vec![Method::NaiveThreshold, Method::NoiseCorrected])
        };
        let report = Comparison::new(config).unwrap().run(&graph).unwrap();
        let timed = report.to_json();
        let stable = report.to_json_stable();
        assert_eq!(timed.matches("\"score_wall_ms\"").count(), 2);
        assert!(!stable.contains("score_wall_ms"));
        assert!(report.render_table().contains("score ms"));
        // The timing is a measurement, not identity: two reports differing
        // only in wall time still compare equal.
        let mut retimed = report.clone();
        retimed.methods[0].score_wall_ms = WallMillis(report.methods[0].score_wall_ms.0 + 1.0);
        assert_eq!(retimed, report);
    }

    #[test]
    fn multiplicative_resample_preserves_structure() {
        let graph = two_triangles();
        let noisy = multiplicative_resample(&graph, 0.3, 7);
        assert_eq!(noisy.node_count(), graph.node_count());
        assert_eq!(noisy.edge_count(), graph.edge_count());
        for (original, perturbed) in graph.edges().zip(noisy.edges()) {
            assert_eq!(original.source, perturbed.source);
            assert_eq!(original.target, perturbed.target);
            let factor = perturbed.weight / original.weight;
            assert!((0.7..=1.3).contains(&factor), "{factor}");
        }
        // Level 0 is the identity; the same seed reproduces the same weights.
        let identity = multiplicative_resample(&graph, 0.0, 7);
        for (original, copy) in graph.edges().zip(identity.edges()) {
            assert_eq!(original.weight, copy.weight);
        }
        let again = multiplicative_resample(&graph, 0.3, 7);
        for (first, second) in noisy.edges().zip(again.edges()) {
            assert_eq!(first.weight, second.weight);
        }
    }

    #[test]
    fn method_list_parsing() {
        assert_eq!(
            parse_method_list("nc,df,hss").unwrap(),
            DEFAULT_METHODS.to_vec()
        );
        assert_eq!(parse_method_list(" ALL ").unwrap().len(), 7);
        assert!(parse_method_list("").is_err());
        assert!(parse_method_list("nc,,df").is_err());
        assert!(parse_method_list("nc,wat").is_err());
        assert!(parse_method_list("nc,noise-corrected").is_err());
    }
}
