//! Regression tests for degenerate inputs: isolated nodes, zero-weight edges,
//! self-loops, and single-edge graphs must never panic in any extractor, and
//! weight sums that overflow `f64` are refused instead of scored.

use backboning::{
    apply_batch, delta_rescore, BackboneError, BackboneExtractor, DisparityFilter,
    DoublyStochastic, HighSalienceSkeleton, MaximumSpanningTree, Method, NaiveThreshold,
    NoiseCorrected, NoiseCorrectedBinomial,
};
use backboning_graph::io::{read_edge_list_csr_str, read_edge_list_str, EdgeListOptions};
use backboning_graph::{CsrGraph, DeltaBatch, Direction, WeightedGraph};

fn extractors() -> Vec<Box<dyn BackboneExtractor>> {
    vec![
        Box::new(NoiseCorrected::default()),
        Box::new(NoiseCorrected::without_prior()),
        Box::new(NoiseCorrectedBinomial::new()),
        Box::new(DisparityFilter::new()),
        Box::new(NaiveThreshold::new()),
        Box::new(HighSalienceSkeleton::new()),
        Box::new(DoublyStochastic::new()),
        Box::new(MaximumSpanningTree::new()),
    ]
}

/// Graphs that have historically been good at shaking out panics.
fn degenerate_graphs() -> Vec<(&'static str, WeightedGraph)> {
    let mut cases = Vec::new();

    for direction in [Direction::Directed, Direction::Undirected] {
        let tag = match direction {
            Direction::Directed => "directed",
            Direction::Undirected => "undirected",
        };

        cases.push(("empty", WeightedGraph::with_nodes(direction, 0)));

        // Nodes but no edges at all.
        cases.push(("edgeless", WeightedGraph::with_nodes(direction, 5)));

        // A single edge, with trailing isolated nodes.
        let mut single = WeightedGraph::with_nodes(direction, 4);
        single.add_edge(0, 1, 5.0).unwrap();
        cases.push((
            if tag == "directed" {
                "single_directed"
            } else {
                "single_undirected"
            },
            single,
        ));

        // Zero-weight edges mixed with positive ones.
        let mut zero = WeightedGraph::with_nodes(direction, 4);
        zero.add_edge(0, 1, 0.0).unwrap();
        zero.add_edge(1, 2, 3.0).unwrap();
        zero.add_edge(2, 3, 0.0).unwrap();
        cases.push(("zero_weight", zero));

        // Every edge has zero weight: totals and strengths all vanish.
        let mut all_zero = WeightedGraph::with_nodes(direction, 3);
        all_zero.add_edge(0, 1, 0.0).unwrap();
        all_zero.add_edge(1, 2, 0.0).unwrap();
        cases.push(("all_zero", all_zero));
    }

    cases
}

#[test]
fn csr_from_graph_handles_degenerate_inputs() {
    for (name, graph) in degenerate_graphs() {
        let csr = CsrGraph::from_graph(&graph).unwrap();
        assert_eq!(csr.node_count(), graph.node_count(), "{name}: node count");
        // Every row must be addressable, including trailing isolated nodes.
        let mut entries = 0usize;
        for node in 0..csr.node_count() {
            assert_eq!(
                csr.neighbors(node).len(),
                csr.out_degree(node),
                "{name}: row {node}"
            );
            assert_eq!(
                csr.weights(node).len(),
                csr.out_degree(node),
                "{name}: row {node}"
            );
            assert_eq!(
                csr.degree(node),
                graph.degree(node),
                "{name}: degree {node}"
            );
            entries += csr.out_degree(node);
        }
        assert_eq!(entries, csr.entry_count(), "{name}: total entries");
        assert_eq!(csr.entries().count(), csr.entry_count(), "{name}: iterator");
    }
}

#[test]
fn every_extractor_scores_degenerate_graphs_without_panicking() {
    for (name, graph) in degenerate_graphs() {
        for extractor in extractors() {
            let scored = match extractor.score(&graph) {
                Ok(scored) => scored,
                // A clean error is acceptable for a degenerate input; a panic
                // is not (and would fail this test by unwinding).
                Err(_) => continue,
            };
            assert_eq!(
                scored.len(),
                graph.edge_count(),
                "{}/{name}: every edge must be scored exactly once",
                extractor.name()
            );
            for edge in scored.iter() {
                assert!(
                    !edge.score.is_nan(),
                    "{}/{name}: NaN score on edge {} ({} -> {}, w={})",
                    extractor.name(),
                    edge.edge_index,
                    edge.source,
                    edge.target,
                    edge.weight
                );
            }
            // Selection helpers must tolerate k larger than the edge count.
            let all = scored.top_k(graph.edge_count() + 10);
            assert!(
                all.len() <= graph.edge_count(),
                "{}/{name}",
                extractor.name()
            );
            let none = scored.top_k(0);
            assert!(none.is_empty(), "{}/{name}", extractor.name());
        }
    }
}

#[test]
fn nc_scores_zero_weight_edges_with_positive_variance() {
    // The zero-weight edge's endpoints both have positive strength, so the
    // Bayesian prior has something to work with and must keep the posterior
    // variance strictly positive (the paper's motivation for the prior).
    let mut graph = WeightedGraph::with_nodes(Direction::Directed, 4);
    graph.add_edge(0, 1, 10.0).unwrap();
    graph.add_edge(1, 2, 7.0).unwrap();
    graph.add_edge(2, 1, 4.0).unwrap();
    graph.add_edge(1, 0, 3.0).unwrap();
    let zero_index = graph.add_edge(2, 0, 0.0).unwrap();

    let scored = NoiseCorrected::default().score(&graph).unwrap();
    let zero_edge = scored.get(zero_index).unwrap();
    assert!(zero_edge.score.is_finite());
    assert!(
        zero_edge.std_dev.unwrap() > 0.0,
        "Bayesian prior must keep the variance of a zero-weight edge positive"
    );
}

#[test]
fn nc_gives_zero_score_to_edges_from_zero_strength_nodes() {
    // When the source node's entire out-strength is zero the lift is
    // undefined (kappa would divide by zero); the scorer must degrade to a
    // zero score instead of panicking or emitting NaN/inf.
    let mut graph = WeightedGraph::with_nodes(Direction::Directed, 3);
    graph.add_edge(0, 1, 10.0).unwrap();
    let dead_index = graph.add_edge(2, 0, 0.0).unwrap();

    let scored = NoiseCorrected::default().score(&graph).unwrap();
    let dead_edge = scored.get(dead_index).unwrap();
    assert_eq!(dead_edge.score, 0.0);
    assert!(!dead_edge.score.is_nan());
}

#[test]
fn single_edge_graph_survives_the_whole_pipeline() {
    for direction in [Direction::Directed, Direction::Undirected] {
        let mut graph = WeightedGraph::with_nodes(direction, 2);
        graph.add_edge(0, 1, 5.0).unwrap();

        let scored = NoiseCorrected::default().score(&graph).unwrap();
        assert_eq!(scored.len(), 1);
        let edge = scored.iter().next().unwrap();
        assert!(!edge.score.is_nan());

        let backbone = scored.backbone_top_k(&graph, 1).unwrap();
        assert_eq!(backbone.edge_count(), 1);
        assert_eq!(backbone.node_count(), 2);
    }
}

#[test]
fn weight_sums_that_overflow_f64_are_refused() {
    // NC: the total overflows (κ = ∞/∞); DF: node `a`'s strength overflows
    // (every share w/∞ = 0). Both used to score every edge 0 and succeed.
    let cases = [
        (Method::NoiseCorrected, "a b 1e308\nb c 1e308\nc d 1\n"),
        (
            Method::DisparityFilter,
            "a b 1e308\na c 1e308\na d 1\na e 1\n",
        ),
        (
            Method::NoiseCorrectedBinomial,
            "a b 1e308\na c 1e308\na d 1\na e 1\n",
        ),
    ];
    let options = EdgeListOptions::default();
    for (method, text) in cases {
        let graph = read_edge_list_str(text, &options).unwrap();
        let csr = read_edge_list_csr_str(text, &options).unwrap();
        for err in [
            method.score(&graph).unwrap_err(),
            method.score(&csr).unwrap_err(),
            method.score_with_threads(&csr, 2).unwrap_err(),
        ] {
            assert!(
                matches!(err, BackboneError::UnsupportedGraph { method: name, .. }
                    if name == method.score_name()),
                "{method}: {err}"
            );
            assert!(err.to_string().contains("inf"), "{method}: {err}");
        }
    }

    // One order of magnitude lower the sums are finite and DF scores the
    // two heavy edges as it should: α = (1 − 1/2)³.
    let graph = read_edge_list_str("a b 1e307\na c 1e307\na d 1\na e 1\n", &options).unwrap();
    let scored = Method::DisparityFilter.score(&graph).unwrap();
    assert_eq!(scored.scores(), &[0.875, 0.875, 0.0, 0.0]);
}

#[test]
fn strength_products_that_underflow_f64_are_refused_by_nc() {
    // 1e-200: N̂i.·N̂.j underflows to 0, so κ = ∞ and the lift is NaN.
    // 1e-100: the product is finite but its square underflows, so the
    // lift's standard deviation is ∞. The undirected zero-weight edge b–x
    // joins two strengths of 1e-150: its lift is a finite −1, but 0 · ∞
    // makes its variance NaN, which used to be written as a deviation of 0.
    let options = EdgeListOptions::default();
    let undirected = EdgeListOptions::with_direction(Direction::Undirected);
    let cases = [
        ("a b 1e-200\nc d 5\n", &options),
        ("a b 1e-100\nc d 5\n", &options),
        ("a b 1e-150\nc x 1e-150\na c 5\nb x 0\n", &undirected),
    ];
    for (text, options) in cases {
        let graph = read_edge_list_str(text, options).unwrap();
        let csr = read_edge_list_csr_str(text, options).unwrap();
        for extractor in [NoiseCorrected::default(), NoiseCorrected::without_prior()] {
            for err in [
                extractor.score(&graph).unwrap_err(),
                extractor.score_with_threads(&csr, 1).unwrap_err(),
                extractor.score_with_threads(&csr, 2).unwrap_err(),
            ] {
                assert!(
                    matches!(err, BackboneError::UnsupportedGraph { method, .. }
                        if method == extractor.name()),
                    "{text:?}: {err}"
                );
                assert!(err.to_string().contains("too small for f64"), "{err}");
            }
        }
    }

    // A PATCH that shrinks a weight that far is refused the same way: NC
    // rescores a patched graph from scratch.
    let graph = read_edge_list_csr_str("a b 3\nc d 5\n", &options).unwrap();
    let previous = Method::NoiseCorrected.score(&graph).unwrap();
    let batch = DeltaBatch::parse_tsv("reweight a b 1e-200\n").unwrap();
    let (patched, effect) = apply_batch(&graph, &batch).unwrap();
    let err = delta_rescore(Method::NoiseCorrected, &patched, &previous, &effect, 1).unwrap_err();
    assert!(
        matches!(err, BackboneError::UnsupportedGraph { .. }),
        "{err}"
    );

    // Small weights whose products stay normal floats score as before.
    let graph = read_edge_list_str("a b 1e-20\nc d 5\n", &options).unwrap();
    let scored = Method::NoiseCorrected.score(&graph).unwrap();
    assert!(scored
        .iter()
        .all(|edge| edge.raw_score.unwrap().is_finite() && edge.std_dev.unwrap().is_finite()));
}
