//! Regression proof of the score-once-select-many contract: for every
//! method × threshold policy, scoring the graph **once** and re-selecting
//! over the borrowed [`backboning::ScoredEdges`] via
//! [`backboning::Pipeline::run_with_scores`] yields exactly the same run as
//! a fresh [`backboning::Pipeline::run`] per policy — same kept edge set,
//! byte-identical backbone and score tables, byte-identical stable summary.
//!
//! This is the contract the `backboning_server` scored-graph cache depends
//! on: a cached threshold query must be indistinguishable (except for wall
//! time) from a cold one.

use std::path::PathBuf;
use std::sync::Arc;

use backboning::{Method, Pipeline, PipelineRun, ThresholdPolicy};
use backboning_graph::io::{read_edge_list_file, EdgeListOptions};
use backboning_graph::{Direction, WeightedGraph};

fn fixture_graph() -> WeightedGraph {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/examples/trade.tsv");
    let options = EdgeListOptions::with_direction(Direction::Undirected);
    read_edge_list_file(&path, &options).expect("bundled example edge list parses")
}

/// A score threshold in each method's natural scale (same picks as the
/// golden tests) so the `Score` policy keeps a strict subset of edges.
fn score_threshold(method: Method) -> f64 {
    match method {
        Method::NaiveThreshold => 40.0,
        Method::MaximumSpanningTree => 0.5,
        Method::DoublyStochastic => 0.1,
        Method::HighSalienceSkeleton => 0.3,
        Method::HssApprox { .. } => 0.3,
        Method::DisparityFilter => 0.6,
        Method::NoiseCorrected => 1.28,
        Method::NoiseCorrectedBinomial => 0.9,
    }
}

fn policies(method: Method) -> [ThresholdPolicy; 4] {
    [
        ThresholdPolicy::Score(score_threshold(method)),
        ThresholdPolicy::TopK(10),
        ThresholdPolicy::TopShare(0.3),
        ThresholdPolicy::Coverage(0.9),
    ]
}

fn backbone_bytes(graph: &WeightedGraph, run: &PipelineRun) -> Vec<u8> {
    let mut out = Vec::new();
    run.write_backbone(graph, &mut out).expect("write backbone");
    out
}

fn score_bytes(graph: &WeightedGraph, run: &PipelineRun) -> Vec<u8> {
    let mut out = Vec::new();
    run.write_scores(graph, &mut out).expect("write scores");
    out
}

#[test]
fn score_once_select_many_equals_run_per_policy() {
    let graph = fixture_graph();
    // Every exact method, plus the sampled-root estimator the server caches
    // under its parameterized cache key.
    let methods = Method::every()
        .into_iter()
        .chain([Method::hss_approx_default()]);
    for method in methods {
        // One scoring pass, shared by all four policies…
        let scored = Arc::new(
            Pipeline::new(method, ThresholdPolicy::TopK(0))
                .with_threads(1)
                .score(&graph)
                .expect("scoring the fixture succeeds"),
        );
        for policy in policies(method) {
            let pipeline = Pipeline::new(method, policy).with_threads(1);
            // …versus a full re-run (re-scoring included) per policy.
            let fresh = pipeline.run(&graph).expect("fresh run succeeds");
            let cached = pipeline
                .run_with_scores(&graph, Arc::clone(&scored))
                .expect("cached run succeeds");

            let label = format!("{} × {policy}", method.cli_name());
            assert_eq!(cached.kept, fresh.kept, "{label}: kept edge set");
            assert_eq!(cached.scored, fresh.scored, "{label}: scored edges");
            assert_eq!(cached.coverage, fresh.coverage, "{label}: coverage");
            assert_eq!(
                backbone_bytes(&graph, &cached),
                backbone_bytes(&graph, &fresh),
                "{label}: backbone bytes"
            );
            assert_eq!(
                score_bytes(&graph, &cached),
                score_bytes(&graph, &fresh),
                "{label}: score table bytes"
            );
            assert_eq!(
                cached.summary_json_stable(),
                fresh.summary_json_stable(),
                "{label}: stable summary"
            );
        }
    }
}

#[test]
fn stable_summary_omits_only_the_wall_time() {
    let graph = fixture_graph();
    let run = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopShare(0.3))
        .with_threads(1)
        .run(&graph)
        .unwrap();
    let full = run.summary_json();
    let stable = run.summary_json_stable();
    assert!(full.contains("\"wall_ms\":"));
    assert!(!stable.contains("\"wall_ms\":"));
    // `wall_ms` is the last field of the full summary, so the full form is
    // the stable form (minus its closing `\n}`) plus the timing line.
    let stable_prefix = &stable[..stable.len() - 2];
    assert!(full.starts_with(stable_prefix));
    assert!(full[stable_prefix.len()..].starts_with(",\n  \"wall_ms\":"));
}

#[test]
fn run_with_scores_rejects_mismatched_policies_like_run_does() {
    let graph = fixture_graph();
    let scored = Arc::new(
        Pipeline::new(Method::NaiveThreshold, ThresholdPolicy::TopK(1))
            .score(&graph)
            .unwrap(),
    );
    for policy in [
        ThresholdPolicy::TopShare(1.5),
        ThresholdPolicy::Coverage(-0.1),
    ] {
        let pipeline = Pipeline::new(Method::NaiveThreshold, policy);
        assert!(pipeline.run(&graph).is_err(), "{policy}");
        assert!(
            pipeline
                .run_with_scores(&graph, Arc::clone(&scored))
                .is_err(),
            "{policy}"
        );
    }
}

#[test]
fn run_with_scores_rejects_foreign_scores() {
    let graph = fixture_graph();
    let nc_scores = Arc::new(
        Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopK(1))
            .score(&graph)
            .unwrap(),
    );

    // Scores from another method must not be re-selected silently.
    let err = Pipeline::new(Method::DisparityFilter, ThresholdPolicy::TopK(5))
        .run_with_scores(&graph, Arc::clone(&nc_scores))
        .unwrap_err();
    assert!(err.to_string().contains("produced by"), "{err}");

    // Scores from another graph (different size) must be rejected, not
    // panic inside coverage selection.
    let other = WeightedGraph::from_labeled_edges(
        Direction::Undirected,
        vec![("x", "y", 1.0), ("y", "z", 2.0)],
    )
    .unwrap();
    let err = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::Coverage(0.9))
        .run_with_scores(&other, nc_scores)
        .unwrap_err();
    assert!(err.to_string().contains("nodes"), "{err}");
}
