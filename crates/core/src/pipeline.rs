//! The end-to-end backboning pipeline shared by the `backbone` CLI and the
//! reproduction experiments.
//!
//! A [`Pipeline`] bundles the three decisions of a backboning run — which
//! [`Method`] scores the edges, which [`ThresholdPolicy`] decides how many of
//! them survive, and how many worker threads do the scoring — behind one
//! `run` call that produces a [`PipelineRun`]: the scored edges, the kept
//! edge ids, and the run statistics (node coverage, wall time). The same
//! type drives the paper's evaluation sweeps (via [`Method::edge_set`]) and
//! user-supplied networks (via the `backbone` binary in `crates/cli`), so the
//! reproduction path and the serving path are the same code.
//!
//! A run never materializes the backbone as a graph: the kept edge ids index
//! into the input graph, and [`PipelineRun::write_backbone`] and
//! [`PipelineRun::write_scores`] read labels, endpoints and weights from that
//! graph by edge id. Pass the graph the run was made on; a graph of another
//! size is rejected. Callers that need the backbone as a graph call
//! [`GraphView::subgraph_with_edges`] with [`PipelineRun::kept`].
//!
//! ```
//! use backboning::{Pipeline, Method, ThresholdPolicy};
//! use backboning_graph::io::{read_edge_list_str, EdgeListOptions};
//! use backboning_graph::Direction;
//!
//! let text = "hub a 10\nhub b 10\nhub c 12\nhub d 11\na b 6\n";
//! let options = EdgeListOptions::with_direction(Direction::Undirected);
//! let graph = read_edge_list_str(text, &options).unwrap();
//!
//! let run = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopShare(0.6))
//!     .run(&graph)
//!     .unwrap();
//! assert_eq!(run.kept.len(), 3);
//! assert!(run.nodes_covered <= graph.node_count());
//! assert!(run.summary_json().contains("\"method\": \"nc\""));
//!
//! let mut backbone = Vec::new();
//! run.write_backbone(&graph, &mut backbone).unwrap();
//! assert_eq!(String::from_utf8(backbone).unwrap().lines().count(), 1 + 3);
//! ```

use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use backboning_graph::io::{write_edge_fields, write_edges, write_f64};
use backboning_graph::{GraphError, GraphView};

use crate::error::{BackboneError, BackboneResult};
use crate::json;
use crate::method::Method;
use crate::scored::ScoredEdges;

/// How the scored edges are pruned into a backbone.
///
/// Every policy selects by the method's significance score (see the table in
/// [`crate::scored`]); they differ in how the cut-off is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Keep edges whose score is at least this value (the method's natural
    /// significance parameter, e.g. the Noise-Corrected `δ`).
    Score(f64),
    /// Keep the `k` highest scoring edges (ties broken deterministically, see
    /// [`ScoredEdges::top_k`]).
    TopK(usize),
    /// Keep the top share (in `[0, 1]`) of edges by score.
    TopShare(f64),
    /// Keep the smallest score-ranked prefix of edges whose node coverage —
    /// the share of originally non-isolated nodes with at least one backbone
    /// edge — reaches the target (in `[0, 1]`).
    Coverage(f64),
}

impl ThresholdPolicy {
    /// The lowercase identifier used by the `backbone` CLI and the JSON run
    /// summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            ThresholdPolicy::Score(_) => "score",
            ThresholdPolicy::TopK(_) => "top_k",
            ThresholdPolicy::TopShare(_) => "top_share",
            ThresholdPolicy::Coverage(_) => "coverage",
        }
    }

    /// The policy's parameter as a number (for reports and JSON summaries).
    pub fn value(&self) -> f64 {
        match self {
            ThresholdPolicy::Score(s) => *s,
            ThresholdPolicy::TopK(k) => *k as f64,
            ThresholdPolicy::TopShare(s) => *s,
            ThresholdPolicy::Coverage(c) => *c,
        }
    }

    /// Check the policy's parameter, whatever the method: a threshold may
    /// not be NaN, and a top share or a coverage target lies in `[0, 1]`.
    /// [`Pipeline::select`] runs this first; the CLI and the server run it
    /// before any input is read or scored.
    pub fn validate(&self) -> BackboneResult<()> {
        let (parameter, message) = match *self {
            ThresholdPolicy::Score(threshold) if threshold.is_nan() => {
                ("threshold", "must be a number, got NaN".to_string())
            }
            ThresholdPolicy::TopShare(share) if !(0.0..=1.0).contains(&share) => {
                ("top_share", format!("must lie in [0, 1], got {share}"))
            }
            ThresholdPolicy::Coverage(target) if !(0.0..=1.0).contains(&target) => {
                ("coverage", format!("must lie in [0, 1], got {target}"))
            }
            _ => return Ok(()),
        };
        Err(BackboneError::InvalidParameter { parameter, message })
    }
}

impl std::fmt::Display for ThresholdPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThresholdPolicy::Score(s) => write!(f, "score ≥ {s}"),
            ThresholdPolicy::TopK(k) => write!(f, "top {k} edges"),
            ThresholdPolicy::TopShare(s) => write!(f, "top {s} of edges"),
            ThresholdPolicy::Coverage(c) => write!(f, "coverage ≥ {c}"),
        }
    }
}

/// A configured backboning run: method × threshold policy × worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipeline {
    method: Method,
    policy: ThresholdPolicy,
    threads: usize,
}

/// The number of edges a matched-coverage comparison keeps: `round(share ×
/// edge_count)` — the same round-half-up rule as [`ScoredEdges::top_share`],
/// so a matched [`Pipeline`] and a `TopShare` pipeline at the same share keep
/// identical edge sets. Rejects shares outside `[0, 1]`.
///
/// ```
/// use backboning::pipeline::matched_edge_count;
/// assert_eq!(matched_edge_count(28, 0.1).unwrap(), 3);
/// assert_eq!(matched_edge_count(5, 0.5).unwrap(), 3);
/// assert!(matched_edge_count(10, 1.2).is_err());
/// ```
pub fn matched_edge_count(edge_count: usize, share: f64) -> BackboneResult<usize> {
    if !(0.0..=1.0).contains(&share) {
        return Err(BackboneError::InvalidParameter {
            parameter: "top_share",
            message: format!("must lie in [0, 1], got {share}"),
        });
    }
    Ok((share * edge_count as f64).round() as usize)
}

impl Pipeline {
    /// A pipeline with automatic thread count (honours `BACKBONING_THREADS`).
    pub fn new(method: Method, policy: ThresholdPolicy) -> Self {
        Pipeline {
            method,
            policy,
            threads: 0,
        }
    }

    /// The matched-coverage pipeline of the paper's evaluation methodology
    /// (Section V): every method is asked for the **same number of edges** —
    /// [`matched_edge_count`] of `graph`'s edges at `top_share` — so that
    /// coverage, connectivity and stability are compared at equal backbone
    /// size rather than at each method's natural threshold. Parameter-free
    /// methods (MST, DS) still return their fixed edge set, which is exactly
    /// how the paper places them on the same axes.
    pub fn matched<G: GraphView>(
        method: Method,
        graph: &G,
        top_share: f64,
    ) -> BackboneResult<Pipeline> {
        let target = matched_edge_count(graph.edge_count(), top_share)?;
        Ok(Pipeline::new(method, ThresholdPolicy::TopK(target)))
    }

    /// Set an explicit worker count (`0` = automatic). Results are
    /// bit-identical at any thread count — parallelism only changes the wall
    /// time (see `backboning_parallel`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The configured threshold policy.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// The configured worker count (`0` = automatic).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Stage 1: score every edge of the graph with the configured method.
    pub fn score<G: GraphView>(&self, graph: &G) -> BackboneResult<ScoredEdges> {
        self.method.score_with_threads(graph, self.threads)
    }

    /// Stage 2: apply the threshold policy to a scored edge set, returning the
    /// kept edge indices.
    ///
    /// For the parameter-free methods (MST, DS) the size-targeting policies
    /// (`TopK`, `TopShare`, `Coverage`) return the method's fixed backbone
    /// regardless of the requested size — their backbone is a single edge set,
    /// which is how the paper compares them. The fixed set is derived from the
    /// already-computed scores, so the expensive scoring pass never runs
    /// twice. The `Score` policy always thresholds the scores directly. An
    /// invalid policy ([`ThresholdPolicy::validate`]) is refused for every
    /// method.
    pub fn select<G: GraphView>(
        &self,
        graph: &G,
        scored: &ScoredEdges,
    ) -> BackboneResult<Vec<usize>> {
        self.policy.validate()?;
        if !matches!(self.policy, ThresholdPolicy::Score(_)) {
            if let Some(fixed) = self.method.fixed_edge_set_from_scores(graph, scored) {
                return Ok(fixed);
            }
        }
        match self.policy {
            ThresholdPolicy::Score(threshold) => Ok(scored.filter(threshold)),
            ThresholdPolicy::TopK(k) => Ok(scored.top_k(k)),
            ThresholdPolicy::TopShare(share) => scored.top_share(share),
            ThresholdPolicy::Coverage(target) => Ok(coverage_prefix(graph, scored, target)),
        }
    }

    /// Score and select in one call, returning the kept edge indices.
    pub fn edge_set<G: GraphView>(&self, graph: &G) -> BackboneResult<Vec<usize>> {
        let scored = self.score(graph)?;
        self.select(graph, &scored)
    }

    /// Run the full pipeline: score, select, and count the nodes the kept
    /// edges cover, measuring wall time and per-stage time along the way.
    pub fn run<G: GraphView>(&self, graph: &G) -> BackboneResult<PipelineRun> {
        let start = Instant::now();
        let scored = Arc::new(self.score(graph)?);
        self.assemble(graph, scored, start, Some(start.elapsed()))
    }

    /// Run everything *after* scoring on an already-scored edge set: apply
    /// the threshold policy, count the covered nodes, and assemble a full
    /// [`PipelineRun`] — without recomputing the scores.
    ///
    /// This is the score-once-select-many entry point: score a graph once
    /// (via [`Pipeline::score`] or a cache of [`ScoredEdges`]) and sweep any
    /// number of threshold policies over the shared scores at selection
    /// cost only — the `Arc` makes the hot path allocation-free even for
    /// multi-million-edge score sets. The resulting run is identical to a
    /// fresh [`Pipeline::run`] with the same method and policy — same kept
    /// set, same coverage, same summary — except for the measured wall
    /// time, which here covers only selection and the coverage count.
    /// The `backboning_server` scored-graph cache serves every threshold
    /// query after the first through this path.
    ///
    /// Because the scores are reused, a `TopK`, `TopShare` or `Coverage`
    /// run here builds their [`ScoredEdges::ranked`] order (one keyed sort,
    /// 4 bytes per edge) unless it exists: this run and every later one of
    /// those policies over the same scores read a prefix of it instead of
    /// selecting again. `Score` runs and the parameter-free methods (MST,
    /// DS), which do not rank, never build it. [`Pipeline::run`] reads its
    /// scores once, so its `TopK` and `TopShare` runs select without the
    /// order; `Coverage` walks the full order on either path.
    ///
    /// The scores must actually belong to this pipeline's method and to
    /// `graph` (same node and edge counts); mismatches — scores produced by
    /// another method, or for another graph — are rejected instead of
    /// silently producing a wrong backbone.
    pub fn run_with_scores<G: GraphView>(
        &self,
        graph: &G,
        scored: Arc<ScoredEdges>,
    ) -> BackboneResult<PipelineRun> {
        let expected = self.method.score_name();
        if scored.method() != expected {
            return Err(BackboneError::InvalidParameter {
                parameter: "scored",
                message: format!(
                    "scores were produced by `{}`, but this pipeline runs `{expected}`",
                    scored.method()
                ),
            });
        }
        if scored.node_count() != graph.node_count() || scored.len() != graph.edge_count() {
            return Err(BackboneError::InvalidParameter {
                parameter: "scored",
                message: format!(
                    "scores cover a {}-node / {}-edge graph, but this graph has {} nodes / {} edges",
                    scored.node_count(),
                    scored.len(),
                    graph.node_count(),
                    graph.edge_count()
                ),
            });
        }
        self.assemble(graph, scored, Instant::now(), None)
    }

    /// Whether [`Pipeline::select`] reads the scores in ranking order: a
    /// size-targeting policy on a method without a fixed edge set.
    fn ranks(&self) -> bool {
        !matches!(self.policy, ThresholdPolicy::Score(_)) && !self.method.is_parameter_free()
    }

    /// Select, count the covered nodes, and package the run statistics. `start`
    /// is when the caller's measured work began (before scoring for `run`,
    /// after it for `run_with_scores`); `score` is the already-measured
    /// scoring time, `None` when the scores were supplied by the caller —
    /// the reused scores whose rank order is worth keeping.
    fn assemble<G: GraphView>(
        &self,
        graph: &G,
        scored: Arc<ScoredEdges>,
        start: Instant,
        score: Option<Duration>,
    ) -> BackboneResult<PipelineRun> {
        let select_start = Instant::now();
        if score.is_none() && self.ranks() {
            scored.ranked();
        }
        let kept = self.select(graph, &scored)?;
        let select = select_start.elapsed();
        let build_start = Instant::now();
        let nodes_covered = covered_node_count(graph, &kept);
        let build = build_start.elapsed();
        let elapsed = start.elapsed();
        let original_connected = graph.non_isolated_node_count();
        let coverage = if original_connected == 0 {
            1.0
        } else {
            nodes_covered as f64 / original_connected as f64
        };
        Ok(PipelineRun {
            method: self.method,
            policy: self.policy,
            threads: backboning_parallel::resolve_threads(self.threads),
            original_nodes: graph.node_count(),
            original_edges: graph.edge_count(),
            coverage,
            elapsed,
            stages: StageTimings {
                score,
                select,
                build,
            },
            scored,
            kept,
            nodes_covered,
        })
    }
}

/// The number of distinct nodes the `kept` edges touch — the
/// non-isolated node count of the backbone subgraph, without building it.
fn covered_node_count<G: GraphView>(graph: &G, kept: &[usize]) -> usize {
    let mut covered = vec![false; graph.node_count()];
    let mut count = 0usize;
    for &index in kept {
        let edge = graph
            .edge(index)
            .expect("select keeps ids of the graph's edges");
        for node in [edge.source, edge.target] {
            if !covered[node] {
                covered[node] = true;
                count += 1;
            }
        }
    }
    count
}

/// Per-stage wall times of one pipeline run, as measured by
/// [`Pipeline::run`] / [`Pipeline::run_with_scores`].
///
/// The stages are the three steps the pipeline takes: [`Pipeline::score`],
/// [`Pipeline::select`], and the coverage pass over the kept edges. Their
/// sum is slightly below [`PipelineRun::elapsed`] (the difference is the
/// bookkeeping between stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Time spent scoring the edges; `None` when the run reused
    /// already-computed scores ([`Pipeline::run_with_scores`]).
    pub score: Option<Duration>,
    /// Time spent applying the threshold policy to the scored edges.
    pub select: Duration,
    /// Time spent on the coverage pass: counting the nodes the kept edges
    /// cover. The field keeps its name so the `stage_ms` key and the CLI's
    /// `--timings` row stay the same.
    pub build: Duration,
}

/// The smallest score-ranked prefix of edges whose node coverage reaches
/// `target` (in `[0, 1]`, checked by [`ThresholdPolicy::validate`]), in
/// ranking order. It walks the full [`ScoredEdges::ranked`] order,
/// building it if it does not exist yet.
fn coverage_prefix<G: GraphView>(graph: &G, scored: &ScoredEdges, target: f64) -> Vec<usize> {
    let original_connected = graph.non_isolated_node_count();
    if target == 0.0 || original_connected == 0 {
        return Vec::new();
    }
    let mut covered = vec![false; graph.node_count()];
    let mut covered_count = 0usize;
    let mut kept = Vec::new();
    for &edge_index in scored.ranked() {
        let edge_index = edge_index as usize;
        let edge = graph.edge(edge_index).expect("scored edge index in range");
        kept.push(edge_index);
        for node in [edge.source, edge.target] {
            if !covered[node] {
                covered[node] = true;
                covered_count += 1;
            }
        }
        if covered_count as f64 / original_connected as f64 >= target - 1e-12 {
            return kept;
        }
    }
    // The full edge set covers every non-isolated node, so this is only
    // reachable through floating-point slack; keep everything.
    kept
}

/// The result of one [`Pipeline::run`]: scores, kept edge ids and run
/// statistics. The backbone is the input graph's full node set with the
/// `kept` edges; the writers read it from the input graph.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The method that scored the edges.
    pub method: Method,
    /// The policy that pruned them.
    pub policy: ThresholdPolicy,
    /// The resolved worker count that did the scoring.
    pub threads: usize,
    /// Node count of the input graph.
    pub original_nodes: usize,
    /// Edge count of the input graph.
    pub original_edges: usize,
    /// Node coverage of the backbone (share of originally non-isolated nodes
    /// keeping at least one edge).
    pub coverage: f64,
    /// Wall time of scoring + selection + the coverage pass.
    pub elapsed: Duration,
    /// Per-stage breakdown of `elapsed` (score / select / build).
    pub stages: StageTimings,
    /// Every edge with its method-specific significance score (shared, so a
    /// cached selection never copies the score vector).
    pub scored: Arc<ScoredEdges>,
    /// Indices (into the input graph) of the kept edges.
    pub kept: Vec<usize>,
    /// Number of nodes with at least one kept edge.
    pub nodes_covered: usize,
}

impl PipelineRun {
    /// Share of original edges kept in the backbone.
    pub fn edge_share(&self) -> f64 {
        if self.original_edges == 0 {
            1.0
        } else {
            self.kept.len() as f64 / self.original_edges as f64
        }
    }

    /// One flag per input edge: whether the run kept it.
    pub fn kept_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.original_edges];
        for &index in &self.kept {
            mask[index] = true;
        }
        mask
    }

    /// Write the backbone as a tab-separated edge list
    /// (`source<TAB>target<TAB>weight`, one header comment line), one line
    /// per kept edge in `kept` order, read from `graph` — the graph this run
    /// was made on. The bytes equal writing
    /// `graph.subgraph_with_edges(&self.kept)` with
    /// [`backboning_graph::io::write_edge_list`].
    pub fn write_backbone<G: GraphView, W: Write>(
        &self,
        graph: &G,
        writer: W,
    ) -> BackboneResult<()> {
        self.check_graph(graph)?;
        Ok(write_edges(graph, self.kept.iter().copied(), writer)?)
    }

    /// Write the full scored-edge table as tab-separated text: one row per
    /// original edge with its weight, significance score, the method-specific
    /// optional columns (raw score, standard deviation, p-value; `NA` when
    /// the method does not define them) and whether the edge was kept.
    /// Endpoint labels come from `graph`, the graph this run was made on.
    pub fn write_scores<G: GraphView, W: Write>(&self, graph: &G, writer: W) -> BackboneResult<()> {
        self.check_graph(graph)?;
        let mut writer = BufWriter::new(writer);
        let kept = self.kept_mask();
        let io_err = |e: std::io::Error| GraphError::from(e);
        writer
            .write_all(b"# source\ttarget\tweight\tscore\traw_score\tstd_dev\tp_value\tkept\n")
            .map_err(io_err)?;
        for edge in self.scored.iter() {
            write_edge_fields(graph, edge.source, edge.target, edge.weight, &mut writer)
                .map_err(io_err)?;
            for value in [Some(edge.score), edge.raw_score, edge.std_dev, edge.p_value] {
                match value {
                    Some(value) => {
                        writer.write_all(b"\t").map_err(io_err)?;
                        write_f64(&mut writer, value).map_err(io_err)?;
                    }
                    None => writer.write_all(b"\tNA").map_err(io_err)?,
                }
            }
            let kept_column: &[u8] = if kept[edge.edge_index] {
                b"\t1\n"
            } else {
                b"\t0\n"
            };
            writer.write_all(kept_column).map_err(io_err)?;
        }
        writer.flush().map_err(io_err)?;
        Ok(())
    }

    /// Reject a graph other than the one this run was made on (by size,
    /// the check [`Pipeline::run_with_scores`] makes for scores).
    fn check_graph<G: GraphView>(&self, graph: &G) -> BackboneResult<()> {
        if graph.node_count() != self.original_nodes || graph.edge_count() != self.original_edges {
            return Err(BackboneError::InvalidParameter {
                parameter: "graph",
                message: format!(
                    "this run was made on a {}-node / {}-edge graph, but this graph has {} nodes / {} edges",
                    self.original_nodes,
                    self.original_edges,
                    graph.node_count(),
                    graph.edge_count()
                ),
            });
        }
        Ok(())
    }

    /// The run summary as a JSON object: method, policy, thread count,
    /// input/backbone sizes, coverage, wall time and the per-stage
    /// `stage_ms` breakdown (the `score` entry is omitted when the run
    /// reused cached scores).
    pub fn summary_json(&self) -> String {
        self.summary(true)
    }

    /// [`PipelineRun::summary_json`] without the `wall_ms` and `stage_ms`
    /// fields.
    ///
    /// Wall time is the one run statistic that is not a pure function of the
    /// input; omitting it makes the summary *stable*: two runs with the same
    /// graph, method and policy produce byte-identical summaries. The HTTP
    /// server responds with this form so a cache-hit answer is exactly the
    /// bytes of the cold one.
    pub fn summary_json_stable(&self) -> String {
        self.summary(false)
    }

    fn summary(&self, include_timing: bool) -> String {
        let mut policy = json::JsonObject::inline();
        policy
            .string("kind", self.policy.kind())
            .f64("value", self.policy.value());
        let mut input = json::JsonObject::inline();
        input
            .usize("nodes", self.original_nodes)
            .usize("edges", self.original_edges);
        let mut backbone = json::JsonObject::inline();
        backbone
            .usize("nodes_covered", self.nodes_covered)
            .usize("edges", self.kept.len())
            .f64_fixed("edge_share", self.edge_share(), 6)
            .f64_fixed("coverage", self.coverage, 6);
        let mut summary = json::JsonObject::pretty();
        summary.string("method", self.method.cli_name());
        // `hss-approx` is parameterized, and the summary must pin the run
        // down completely — emit the sample parameters right after the name.
        if let Method::HssApprox { roots, seed } = self.method {
            let mut params = json::JsonObject::inline();
            params.usize("hss_roots", roots).u64("hss_seed", seed);
            summary.raw("method_params", &params.finish());
        }
        summary
            .raw("policy", &policy.finish())
            .usize("threads", self.threads)
            .raw("input", &input.finish())
            .raw("backbone", &backbone.finish());
        if include_timing {
            summary.f64_fixed("wall_ms", self.elapsed.as_secs_f64() * 1e3, 3);
            let mut stages = json::JsonObject::inline();
            if let Some(score) = self.stages.score {
                stages.f64_fixed("score", score.as_secs_f64() * 1e3, 3);
            }
            stages
                .f64_fixed("select", self.stages.select.as_secs_f64() * 1e3, 3)
                .f64_fixed("build", self.stages.build.as_secs_f64() * 1e3, 3);
            summary.raw("stage_ms", &stages.finish());
        }
        summary.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::generators::complete_graph;
    use backboning_graph::{Direction, WeightedGraph};

    fn path_graph() -> WeightedGraph {
        WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![
                ("a", "b", 4.0),
                ("b", "c", 3.0),
                ("c", "d", 2.0),
                ("d", "e", 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn top_k_policy_keeps_exactly_k_edges() {
        let graph = path_graph();
        let run = Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::TopK(2))
            .run(&graph)
            .unwrap();
        assert_eq!(run.kept, vec![0, 1]);
        // a–b and b–c cover three nodes.
        assert_eq!(run.nodes_covered, 3);
        assert_eq!(run.kept_mask(), vec![true, true, false, false]);
    }

    #[test]
    fn score_policy_thresholds_directly() {
        let graph = path_graph();
        let run = Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::Score(2.5))
            .run(&graph)
            .unwrap();
        // Naive scores are the raw weights: 4 and 3 survive.
        assert_eq!(run.kept, vec![0, 1]);
    }

    #[test]
    fn coverage_policy_stops_at_the_target() {
        let graph = path_graph();
        // 5 non-isolated nodes; the two heaviest edges cover a, b, c: 3/5.
        let run = Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::Coverage(0.6))
            .run(&graph)
            .unwrap();
        assert_eq!(run.kept, vec![0, 1]);
        assert!((run.coverage - 0.6).abs() < 1e-12);

        let full = Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::Coverage(1.0))
            .run(&graph)
            .unwrap();
        assert_eq!(full.coverage, 1.0);

        let none = Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::Coverage(0.0))
            .run(&graph)
            .unwrap();
        assert!(none.kept.is_empty());
    }

    #[test]
    fn coverage_policy_rejects_out_of_range_targets() {
        let graph = path_graph();
        for target in [-0.1, 1.5] {
            assert!(
                Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::Coverage(target))
                    .run(&graph)
                    .is_err()
            );
        }
    }

    #[test]
    fn parameter_free_methods_ignore_size_policies() {
        let graph = complete_graph(8, 2.0).unwrap();
        let fixed = Method::MaximumSpanningTree
            .fixed_edge_set(&graph)
            .unwrap()
            .unwrap();
        for policy in [
            ThresholdPolicy::TopK(1),
            ThresholdPolicy::TopShare(0.1),
            ThresholdPolicy::Coverage(0.5),
        ] {
            let run = Pipeline::new(Method::MaximumSpanningTree, policy)
                .run(&graph)
                .unwrap();
            assert_eq!(run.kept, fixed, "{policy}");
        }
        // The score policy still thresholds MST's 0/1 scores directly.
        let scored = Pipeline::new(Method::MaximumSpanningTree, ThresholdPolicy::Score(0.5))
            .run(&graph)
            .unwrap();
        let mut sorted = scored.kept.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, fixed);
    }

    #[test]
    fn run_summary_and_writers_are_consistent() {
        let graph = path_graph();
        let run = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopShare(0.5))
            .with_threads(1)
            .run(&graph)
            .unwrap();
        assert_eq!(run.threads, 1);
        assert_eq!(run.kept.len(), 2);
        assert!((run.edge_share() - 0.5).abs() < 1e-12);

        let mut backbone_out = Vec::new();
        run.write_backbone(&graph, &mut backbone_out).unwrap();
        let text = String::from_utf8(backbone_out).unwrap();
        assert_eq!(text.lines().count(), 1 + run.kept.len());

        let mut scores_out = Vec::new();
        run.write_scores(&graph, &mut scores_out).unwrap();
        let table = String::from_utf8(scores_out).unwrap();
        assert_eq!(table.lines().count(), 1 + graph.edge_count());
        assert!(table.contains("a\tb"));

        // The writers read the run's own graph; another graph is refused.
        let other = complete_graph(3, 1.0).unwrap();
        assert!(run.write_backbone(&other, Vec::new()).is_err());
        assert!(run.write_scores(&other, Vec::new()).is_err());

        let json = run.summary_json();
        assert!(json.contains("\"method\": \"nc\""));
        assert!(json.contains("\"kind\": \"top_share\""));
        assert!(json.contains("\"edges\": 4"));
        // Exact methods carry no parameter object.
        assert!(!json.contains("method_params"));
    }

    #[test]
    fn hss_approx_summary_pins_its_parameters() {
        let graph = path_graph();
        let run = Pipeline::new(
            Method::HssApprox { roots: 2, seed: 7 },
            ThresholdPolicy::TopShare(0.5),
        )
        .with_threads(1)
        .run(&graph)
        .unwrap();
        let json = run.summary_json();
        assert!(json.contains("\"method\": \"hss-approx\""));
        assert!(json.contains("\"method_params\": { \"hss_roots\": 2, \"hss_seed\": 7 }"));
        // The parameters are part of the stable summary too.
        assert!(run.summary_json_stable().contains("\"hss_roots\": 2"));
    }

    #[test]
    fn matched_pipeline_equals_top_share_selection() {
        let graph = complete_graph(9, 2.0).unwrap(); // 36 edges
        for share in [0.0, 0.1, 0.25, 1.0] {
            let matched = Pipeline::matched(Method::NoiseCorrected, &graph, share)
                .unwrap()
                .edge_set(&graph)
                .unwrap();
            let top_share = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopShare(share))
                .edge_set(&graph)
                .unwrap();
            assert_eq!(matched, top_share, "share {share}");
            assert_eq!(matched.len(), matched_edge_count(36, share).unwrap());
        }
        for share in [-0.01, 1.01, f64::NAN] {
            assert!(Pipeline::matched(Method::NoiseCorrected, &graph, share).is_err());
        }
    }

    #[test]
    fn stage_timings_follow_the_run_entry_point() {
        let graph = path_graph();
        let pipeline = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopK(2));

        let full = pipeline.run(&graph).unwrap();
        assert!(full.stages.score.is_some());
        let json = full.summary_json();
        assert!(json.contains("\"stage_ms\": { \"score\": "));
        assert!(json.contains("\"select\": "));
        assert!(json.contains("\"build\": "));
        // The stable summary carries no timing at all.
        let stable = full.summary_json_stable();
        assert!(!stable.contains("stage_ms"));
        assert!(!stable.contains("wall_ms"));

        // Reusing scores drops the score stage from both the struct and the
        // summary, but keeps select/build.
        let cached = pipeline
            .run_with_scores(&graph, Arc::clone(&full.scored))
            .unwrap();
        assert_eq!(cached.stages.score, None);
        assert_eq!(cached.kept, full.kept);
        let cached_json = cached.summary_json();
        assert!(cached_json.contains("\"stage_ms\": { \"select\": "));
        assert!(!cached_json.contains("\"score\": "));
    }

    #[test]
    fn policy_display_and_metadata() {
        assert_eq!(ThresholdPolicy::TopK(5).kind(), "top_k");
        assert_eq!(ThresholdPolicy::TopK(5).value(), 5.0);
        assert_eq!(ThresholdPolicy::Score(1.28).to_string(), "score ≥ 1.28");
        assert_eq!(ThresholdPolicy::Coverage(0.9).kind(), "coverage");
    }
}
