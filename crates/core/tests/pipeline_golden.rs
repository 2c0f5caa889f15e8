//! Golden-file round-trip tests for the [`backboning::Pipeline`]: the bundled
//! example edge list (`docs/examples/trade.tsv`) goes in, and for **every**
//! method × threshold-policy combination the resulting backbone edge list
//! must match the committed golden file byte for byte, and parse back into
//! the same graph.
//!
//! The golden files live in `crates/core/tests/golden/`. To regenerate them
//! after an intentional behaviour change:
//!
//! ```sh
//! BACKBONING_REGEN_GOLDEN=1 cargo test -p backboning --test pipeline_golden
//! ```

use std::path::PathBuf;

use backboning::{Method, Pipeline, ThresholdPolicy};
use backboning_graph::io::{read_edge_list_file, read_edge_list_str, EdgeListOptions};
use backboning_graph::{Direction, WeightedGraph};

fn fixture_graph() -> WeightedGraph {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/examples/trade.tsv");
    let options = EdgeListOptions::with_direction(Direction::Undirected);
    read_edge_list_file(&path, &options).expect("bundled example edge list parses")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// A score threshold in each method's natural scale, chosen to keep a strict
/// subset of the fixture's 28 edges.
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

#[test]
fn every_method_and_policy_matches_its_golden_backbone() {
    let graph = fixture_graph();
    assert_eq!(graph.node_count(), 8);
    assert_eq!(graph.edge_count(), 28);
    let regenerate = std::env::var("BACKBONING_REGEN_GOLDEN").is_ok();
    let dir = golden_dir();
    if regenerate {
        std::fs::create_dir_all(&dir).unwrap();
    }

    for method in Method::every() {
        for policy in policies(method) {
            let run = Pipeline::new(method, policy)
                .run(&graph)
                .unwrap_or_else(|e| panic!("{method} × {policy} failed: {e}"));
            let mut bytes = Vec::new();
            run.write_backbone(&graph, &mut bytes).unwrap();
            let produced = String::from_utf8(bytes).unwrap();

            let golden_path = dir.join(format!("{}_{}.tsv", method.cli_name(), policy.kind()));
            if regenerate {
                std::fs::write(&golden_path, &produced).unwrap();
                continue;
            }
            let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
                panic!(
                    "missing golden file {} (regenerate with BACKBONING_REGEN_GOLDEN=1): {e}",
                    golden_path.display()
                )
            });
            assert_eq!(
                produced,
                golden,
                "{method} × {policy}: backbone drifted from {}",
                golden_path.display()
            );

            // Round-trip: the emitted edge list parses back into exactly the
            // backbone's edges and weights.
            let options = EdgeListOptions::with_direction(Direction::Undirected);
            let restored = read_edge_list_str(&produced, &options).unwrap();
            assert_eq!(restored.edge_count(), run.kept.len());
            for edge in run.kept.iter().map(|&index| graph.edge(index).unwrap()) {
                let source = graph.label(edge.source).unwrap();
                let target = graph.label(edge.target).unwrap();
                let restored_source = restored.node_by_label(source).unwrap();
                let restored_target = restored.node_by_label(target).unwrap();
                assert_eq!(
                    restored.edge_weight(restored_source, restored_target),
                    Some(edge.weight),
                    "{method} × {policy}: weight of {source}–{target} drifted"
                );
            }
        }
    }
}

#[test]
fn golden_policies_have_the_advertised_sizes() {
    let graph = fixture_graph();
    for method in Method::every() {
        // Size-targeting policies: parameter-free methods keep their fixed
        // backbone, scored methods honour the requested size.
        let top_k = Pipeline::new(method, ThresholdPolicy::TopK(10))
            .edge_set(&graph)
            .unwrap();
        let top_share = Pipeline::new(method, ThresholdPolicy::TopShare(0.3))
            .edge_set(&graph)
            .unwrap();
        if !method.is_parameter_free() {
            assert_eq!(top_k.len(), 10, "{method}");
            // 0.3 × 28 rounds to 8.
            assert_eq!(top_share.len(), 8, "{method}");
        }
        // Coverage 0.9 of 8 nodes needs at least 8 covered (ceil(7.2)).
        let coverage_run = Pipeline::new(method, ThresholdPolicy::Coverage(0.9))
            .run(&graph)
            .unwrap();
        assert!(
            coverage_run.coverage >= 0.9 - 1e-12,
            "{method}: coverage {}",
            coverage_run.coverage
        );
    }
}
