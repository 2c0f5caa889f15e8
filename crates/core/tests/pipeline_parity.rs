//! Thread-parity property tests for the [`backboning::Pipeline`], extending
//! the `parallel_parity` harness to the full score → select → backbone flow:
//! the kept edge set must be **bit-identical** at 1, 2 and 4 worker threads
//! for every method and every threshold policy.
//!
//! The backbone writer is pinned here too: a run writes its backbone from
//! the input graph by edge id, and the materialized subgraph of the kept
//! edges is the oracle it must match byte for byte.

use proptest::prelude::*;

use backboning::{Method, Pipeline, ThresholdPolicy};
use backboning_graph::io::write_edge_list;
use backboning_graph::{CsrGraph, Direction, GraphView, WeightedGraph};

/// Strategy: a small random weighted graph of either direction, possibly with
/// accumulated duplicate edges, isolated nodes and weak weights (the same
/// shape as the `parallel_parity` scoring harness).
fn random_graph() -> impl Strategy<Value = WeightedGraph> {
    (
        proptest::collection::vec(((0usize..12), (0usize..12), 0.05f64..50.0), 1..80),
        0usize..2,
    )
        .prop_map(|(edges, directed)| {
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut graph = WeightedGraph::with_nodes(direction, 12);
            for (source, target, weight) in edges {
                if source != target {
                    graph.add_edge(source, target, weight).unwrap();
                }
            }
            graph
        })
}

/// Strategy: a random weighted graph of either direction with self-loops
/// and accumulated duplicate edges, whose 12 nodes are unlabeled, all
/// labeled, or labeled every other node.
fn random_labeled_graph() -> impl Strategy<Value = WeightedGraph> {
    (
        proptest::collection::vec(((0usize..12), (0usize..12), 0.05f64..50.0), 1..60),
        0usize..2,
        0usize..3,
    )
        .prop_map(|(edges, directed, labeling)| {
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut graph = WeightedGraph::new(direction);
            for node in 0..12 {
                if labeling == 1 || (labeling == 2 && node % 2 == 0) {
                    graph.add_labeled_node(format!("city-{node}")).unwrap();
                } else {
                    graph.add_node();
                }
            }
            for (source, target, weight) in edges {
                graph.add_edge(source, target, weight).unwrap();
            }
            graph
        })
}

/// Every method × policy: the run's backbone bytes equal the oracle's —
/// the kept edges' subgraph written by `write_edge_list` — and its node
/// coverage count equals the subgraph's non-isolated node count.
fn backbone_matches_subgraph_oracle<G: GraphView>(graph: &G) -> Result<(), TestCaseError> {
    let methods = Method::every()
        .into_iter()
        .chain([Method::HssApprox { roots: 4, seed: 9 }]);
    for method in methods {
        for policy in policies() {
            let run = match Pipeline::new(method, policy).with_threads(1).run(graph) {
                Ok(run) => run,
                Err(_) => {
                    // Only DS may fail (no feasible scaling).
                    prop_assert!(method == Method::DoublyStochastic);
                    continue;
                }
            };
            let subgraph = graph.subgraph_with_edges(&run.kept).unwrap();
            let mut expected = Vec::new();
            write_edge_list(&subgraph, &mut expected).unwrap();
            let mut written = Vec::new();
            run.write_backbone(graph, &mut written).unwrap();
            prop_assert!(
                written == expected,
                "{} × {}: backbone bytes differ from the subgraph oracle\n{}\nvs\n{}",
                method,
                policy,
                String::from_utf8_lossy(&written),
                String::from_utf8_lossy(&expected)
            );
            prop_assert!(
                run.nodes_covered == subgraph.non_isolated_node_count(),
                "{} × {}: {} covered nodes, the subgraph has {}",
                method,
                policy,
                run.nodes_covered,
                subgraph.non_isolated_node_count()
            );
        }
    }
    Ok(())
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn policies() -> [ThresholdPolicy; 4] {
    [
        ThresholdPolicy::Score(0.5),
        ThresholdPolicy::TopK(7),
        ThresholdPolicy::TopShare(0.4),
        ThresholdPolicy::Coverage(0.8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every method × policy keeps exactly the same edge set at every thread
    /// count (Doubly Stochastic may fail when no scaling exists — then it
    /// must fail at every thread count).
    #[test]
    fn pipeline_edge_sets_are_thread_count_invariant(graph in random_graph()) {
        for method in Method::every() {
            for policy in policies() {
                let reference = Pipeline::new(method, policy)
                    .with_threads(1)
                    .edge_set(&graph);
                for threads in THREAD_COUNTS {
                    let result = Pipeline::new(method, policy)
                        .with_threads(threads)
                        .edge_set(&graph);
                    match (&reference, &result) {
                        (Ok(expected), Ok(got)) => {
                            prop_assert!(
                                expected == got,
                                "{} × {} differs at {} threads",
                                method,
                                policy,
                                threads
                            );
                        }
                        (Err(_), Err(_)) => {
                            // Only DS may fail (no feasible scaling).
                            prop_assert!(method == Method::DoublyStochastic);
                        }
                        _ => prop_assert!(
                            false,
                            "{} × {}: success at 1 thread but not at {}",
                            method,
                            policy,
                            threads
                        ),
                    }
                }
            }
        }
    }

    /// The full run is deterministic: two identical runs produce the same
    /// scores, kept set and backbone (wall time aside).
    #[test]
    fn pipeline_runs_are_reproducible(graph in random_graph()) {
        for method in [Method::NoiseCorrected, Method::DisparityFilter, Method::NaiveThreshold] {
            let policy = ThresholdPolicy::TopShare(0.5);
            let first = Pipeline::new(method, policy).run(&graph).unwrap();
            let second = Pipeline::new(method, policy).run(&graph).unwrap();
            prop_assert_eq!(&first.scored, &second.scored);
            prop_assert_eq!(&first.kept, &second.kept);
            prop_assert_eq!(first.nodes_covered, second.nodes_covered);
            prop_assert!((first.coverage - second.coverage).abs() < 1e-15);
        }
    }

    /// The backbone writer reads the input graph by edge id and must match
    /// the materialized-subgraph oracle on both representations.
    #[test]
    fn backbone_writer_matches_the_subgraph_oracle(graph in random_labeled_graph()) {
        backbone_matches_subgraph_oracle(&graph)?;
        backbone_matches_subgraph_oracle(&CsrGraph::from_graph(&graph).unwrap())?;
    }
}
