//! Parity tests for the parallel scoring engine.
//!
//! The contract of `backboning_parallel` and the CSR hot paths is that
//! parallelism and data layout change *nothing* about the output: every
//! extractor must produce bit-identical `ScoredEdges` at 1, 2 and N worker
//! threads, and the CSR Dijkstra must produce the exact tree of the
//! adjacency-list Dijkstra. These properties are what lets the evaluation
//! pipeline switch freely between the sequential and parallel paths.

use proptest::prelude::*;

use backboning::{
    BackboneExtractor, DisparityFilter, DoublyStochastic, HighSalienceSkeleton, NoiseCorrected,
    NoiseCorrectedBinomial,
};
use backboning_graph::algorithms::shortest_path::{csr_dijkstra, dijkstra, DistanceTransform};
use backboning_graph::{CsrGraph, Direction, WeightedGraph};

/// Strategy: a small random weighted graph of either direction, possibly with
/// accumulated duplicate edges, isolated nodes and weak weights.
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

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HSS salience is identical at every thread count, and identical to the
    /// seed adjacency-list implementation.
    #[test]
    fn hss_is_thread_count_invariant_and_matches_seed_path(graph in random_graph()) {
        let hss = HighSalienceSkeleton::new();
        let reference = hss.score_adjacency_reference(&graph).unwrap();
        for threads in THREAD_COUNTS {
            let parallel = hss.score_with_threads(&graph, threads).unwrap();
            prop_assert_eq!(&parallel, &reference);
        }
    }

    /// NC scores (including raw lifts and standard deviations) are identical
    /// at every thread count.
    #[test]
    fn noise_corrected_is_thread_count_invariant(graph in random_graph()) {
        let nc = NoiseCorrected::default();
        let reference = nc.score_with_threads(&graph, 1).unwrap();
        for threads in THREAD_COUNTS {
            let parallel = nc.score_with_threads(&graph, threads).unwrap();
            prop_assert_eq!(&parallel, &reference);
        }
        // The trait entry point agrees with the explicit-thread path.
        prop_assert_eq!(&nc.score(&graph).unwrap(), &reference);
    }

    /// Disparity Filter p-values are identical at every thread count.
    #[test]
    fn disparity_is_thread_count_invariant(graph in random_graph()) {
        let df = DisparityFilter::new();
        let reference = df.score_with_threads(&graph, 1).unwrap();
        for threads in THREAD_COUNTS {
            let parallel = df.score_with_threads(&graph, threads).unwrap();
            prop_assert_eq!(&parallel, &reference);
        }
    }

    /// The binomial NC variant is identical at every thread count.
    #[test]
    fn noise_corrected_binomial_is_thread_count_invariant(graph in random_graph()) {
        let ncb = NoiseCorrectedBinomial::new();
        let reference = ncb.score_with_threads(&graph, 1).unwrap();
        for threads in THREAD_COUNTS {
            let parallel = ncb.score_with_threads(&graph, threads).unwrap();
            prop_assert_eq!(&parallel, &reference);
        }
    }

    /// CSR Dijkstra produces the exact tree (distances *and* predecessors) of
    /// the adjacency-list Dijkstra from every root, under every transform.
    #[test]
    fn csr_dijkstra_matches_adjacency_dijkstra(graph in random_graph()) {
        let csr = CsrGraph::from_graph(&graph).unwrap();
        for transform in [
            DistanceTransform::Inverse,
            DistanceTransform::NegativeLog,
            DistanceTransform::Identity,
        ] {
            for source in graph.nodes() {
                let adjacency = dijkstra(&graph, source, transform).unwrap();
                let csr_tree = csr_dijkstra(&csr, source, transform).unwrap();
                prop_assert_eq!(&adjacency, &csr_tree);
            }
        }
    }

    /// Doubly-Stochastic scores are identical at every thread count whenever
    /// the scaling exists.
    #[test]
    fn doubly_stochastic_is_thread_count_invariant(graph in random_graph()) {
        let ds = DoublyStochastic::new();
        if let Ok(reference) = ds.score_with_threads(&graph, 1) {
            for threads in THREAD_COUNTS {
                let parallel = ds.score_with_threads(&graph, threads).unwrap();
                prop_assert_eq!(&parallel, &reference);
            }
        }
    }

    /// Sampled-root HSS with K = |V| roots (every node sampled) is
    /// bit-identical to the exact skeleton, for any seed.
    #[test]
    fn hss_approx_with_all_roots_matches_exact(graph in random_graph(), seed in 0u64..u64::MAX) {
        let hss = HighSalienceSkeleton::new();
        let exact = hss.score_with_threads(&graph, 1).unwrap();
        let sampled = hss
            .score_sampled_with_threads(&graph, graph.node_count(), seed, 1)
            .unwrap();
        prop_assert_eq!(sampled.len(), exact.len());
        // The extractor names differ on purpose; the scores must not.
        for (a, b) in exact.iter().zip(sampled.iter()) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// A fixed `(roots, seed)` sample estimates bit-identically at 1/2/3/8
    /// worker threads.
    #[test]
    fn hss_approx_is_thread_count_invariant(
        graph in random_graph(),
        roots in 1usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let hss = HighSalienceSkeleton::new();
        let reference = hss.score_sampled_with_threads(&graph, roots, seed, 1).unwrap();
        for threads in [2, 3, 8] {
            let parallel = hss
                .score_sampled_with_threads(&graph, roots, seed, threads)
                .unwrap();
            prop_assert_eq!(&parallel, &reference);
        }
    }
}

/// The HSS engine handles degenerate inputs identically to the seed path.
#[test]
fn hss_parity_on_degenerate_graphs() {
    let hss = HighSalienceSkeleton::new();
    let empty = WeightedGraph::undirected();
    assert_eq!(
        hss.score_with_threads(&empty, 4).unwrap(),
        hss.score_adjacency_reference(&empty).unwrap()
    );

    let mut isolated = WeightedGraph::with_nodes(Direction::Undirected, 5);
    isolated.add_edge(0, 1, 2.0).unwrap();
    assert_eq!(
        hss.score_with_threads(&isolated, 4).unwrap(),
        hss.score_adjacency_reference(&isolated).unwrap()
    );

    // Zero-weight edges are unreachable under the inverse transform.
    let mut zero = WeightedGraph::with_nodes(Direction::Directed, 3);
    zero.add_edge(0, 1, 0.0).unwrap();
    zero.add_edge(1, 2, 3.0).unwrap();
    assert_eq!(
        hss.score_with_threads(&zero, 4).unwrap(),
        hss.score_adjacency_reference(&zero).unwrap()
    );
}

/// Unit-weight graphs take the uniform-distance (BFS) fast path inside the
/// CSR engine; the salience must still match the seed heap-based path.
#[test]
fn hss_parity_on_unit_weight_graphs() {
    // A Barabási–Albert-like unit-weight topology: hubs, cycles, leaves.
    let mut graph = WeightedGraph::with_nodes(Direction::Undirected, 30);
    for i in 1..30usize {
        graph.add_edge(i, i / 2, 1.0).unwrap();
        graph.add_edge(i, (i * 7 + 3) % 30, 1.0).unwrap();
    }
    let hss = HighSalienceSkeleton::new();
    let reference = hss.score_adjacency_reference(&graph).unwrap();
    for threads in THREAD_COUNTS {
        assert_eq!(hss.score_with_threads(&graph, threads).unwrap(), reference);
    }

    // Sampling every node rides the same batched-BFS path and must agree
    // with the seed path score for score, at any thread count.
    for threads in [1, 2, 3, 8] {
        let sampled = hss
            .score_sampled_with_threads(&graph, graph.node_count(), 4242, threads)
            .unwrap();
        for (a, b) in reference.iter().zip(sampled.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

/// More workers than roots degrade gracefully to one root per worker.
#[test]
fn hss_with_more_threads_than_nodes() {
    let mut graph = WeightedGraph::with_nodes(Direction::Undirected, 3);
    graph.add_edge(0, 1, 1.0).unwrap();
    graph.add_edge(1, 2, 2.0).unwrap();
    let hss = HighSalienceSkeleton::new();
    assert_eq!(
        hss.score_with_threads(&graph, 64).unwrap(),
        hss.score_adjacency_reference(&graph).unwrap()
    );
}
