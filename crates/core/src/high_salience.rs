//! The High Salience Skeleton (Grady, Thiemann & Brockmann, 2012).
//!
//! The HSS is the structural state of the art the paper compares against. For
//! every node `v` the shortest-path tree `SPT(v)` rooted at `v` is computed
//! (on a distance transform of the proximity-like edge weights); the
//! *salience* of an edge is the fraction of shortest-path trees that contain
//! it:
//!
//! ```text
//! salience(e) = |{v : e ∈ SPT(v)}| / |V|
//! ```
//!
//! Empirically salience is strongly bimodal — most edges appear in almost no
//! tree or in almost every tree — so the skeleton is read off by keeping edges
//! with salience close to one. The HSS never models noise in the edge weights,
//! which is the paper's core criticism of it.
//!
//! The computation costs one Dijkstra run per node (`O(|V| (|E| + |V|) log |V|)`),
//! which is why the paper could not run HSS on its larger networks. This
//! implementation breaks that wall in three ways, the first two without
//! changing a single output bit (pinned by `tests/parallel_parity.rs`):
//!
//! * **CSR hot path** — every root's shortest-path tree grows over an
//!   immutable [`CsrGraph`] with reusable scratch
//!   workspaces, distance transforms precomputed once per edge, and tree-edge
//!   counts accumulated directly by CSR edge id. Uniform-weight graphs take a
//!   64-root batched BFS ([`UniformBfsBatch`]) that settles 64 trees per edge
//!   sweep; weighted graphs take the per-root [`CsrDijkstra`], whose
//!   frontier-bucketed queue replaces most of a binary heap's `O(log n)`
//!   sifts with `O(1)` bucket pushes. Both grow exactly the trees of the
//!   adjacency-list [`dijkstra`].
//! * **Parallel roots** — the root loop fans out across worker threads
//!   (see `backboning_parallel`; override with `BACKBONING_THREADS`), each
//!   worker accumulating integer salience counters that are merged exactly at
//!   the end, so the result is independent of the thread count.
//! * **Sampled roots** — [`HighSalienceSkeleton::score_sampled_with_threads`]
//!   estimates salience from `K` deterministically seeded roots instead of
//!   all `|V|`. The estimate is unbiased, and Hoeffding's inequality bounds
//!   the per-edge error: `P(|ŝ(e) − s(e)| ≥ ε) ≤ 2·exp(−2Kε²)` (see
//!   [`salience_error_bound`]). With `K = |V|` the sample is every node and
//!   the output is bit-identical to the exact skeleton.
//!
//! The seed adjacency-list implementation is kept as
//! [`HighSalienceSkeleton::score_adjacency_reference`] — it is the baseline
//! the parity tests compare against and the `bench_snapshot` perf trajectory
//! measures speedups over.

use backboning_graph::algorithms::shortest_path::{
    csr_entry_distances, dijkstra, CsrDijkstra, DistanceTransform, EntryDistances, UniformBfsBatch,
    UNIFORM_BFS_LANES,
};
use backboning_graph::{CsrGraph, GraphView, NodeId, WeightedGraph};
use backboning_parallel::{clamped_threads, par_accumulate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{BackboneError, BackboneResult};
use crate::scored::{BackboneExtractor, ScoredEdges};

/// Extractor name stamped on sampled-root salience scores (distinct from the
/// exact skeleton's, so cached exact scores are never mistaken for estimates).
pub const HSS_APPROX_SCORE_NAME: &str = "high_salience_skeleton_approx";

/// Deterministically sample `k` distinct root nodes, sorted ascending, via a
/// seeded partial Fisher–Yates shuffle. `k ≥ node_count` selects every node
/// (making the sampled estimator coincide with the exact skeleton).
pub fn sample_roots(node_count: usize, k: usize, seed: u64) -> Vec<NodeId> {
    if k >= node_count {
        return (0..node_count).collect();
    }
    let mut indices: Vec<u32> = (0..node_count as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let j = rng.random_range(i..node_count);
        indices.swap(i, j);
    }
    let mut roots: Vec<NodeId> = indices[..k].iter().map(|&node| node as NodeId).collect();
    roots.sort_unstable();
    roots
}

/// Hoeffding bound on a **single edge's** salience estimation error.
///
/// Each of the `roots` sampled trees contributes an indicator in `{0, 1}` for
/// the edge, so by Hoeffding's inequality the estimate `ŝ = count / K`
/// satisfies `P(|ŝ − s| ≥ ε) ≤ 2·exp(−2Kε²)`; solving for the error at the
/// requested confidence gives `ε = sqrt(ln(2 / (1 − confidence)) / (2K))`.
/// Roots are drawn without replacement, which concentrates at least as fast
/// as the independent case the bound assumes (Hoeffding 1963, Theorem 4).
pub fn salience_error_bound(roots: usize, confidence: f64) -> f64 {
    assert!(roots > 0, "error bound requires at least one sampled root");
    assert!(
        (0.0..1.0).contains(&confidence),
        "confidence must be in [0, 1)"
    );
    ((2.0 / (1.0 - confidence)).ln() / (2.0 * roots as f64)).sqrt()
}

/// Union (Bonferroni) bound over **every edge at once**: with probability at
/// least `confidence`, no edge's salience estimate errs by more than the
/// returned `ε = sqrt(ln(2·|E| / (1 − confidence)) / (2K))`. This is the
/// bound to compare a measured max per-edge deviation against.
pub fn max_salience_error_bound(roots: usize, edge_count: usize, confidence: f64) -> f64 {
    assert!(roots > 0, "error bound requires at least one sampled root");
    assert!(edge_count > 0, "error bound requires at least one edge");
    assert!(
        (0.0..1.0).contains(&confidence),
        "confidence must be in [0, 1)"
    );
    ((2.0 * edge_count as f64 / (1.0 - confidence)).ln() / (2.0 * roots as f64)).sqrt()
}

/// Accumulate per-edge shortest-path-tree membership counts over `roots`.
///
/// Uniform-weight graphs batch [`UNIFORM_BFS_LANES`] roots per bit-parallel
/// BFS sweep; every other graph runs one [`CsrDijkstra`] per root. Both grow
/// the trees of the adjacency-list [`dijkstra`] (strict-relaxation parents,
/// ties popped by ascending node id), and both fan out over `threads` workers
/// whose integer counters merge in worker order, so the counts are
/// independent of the thread count and of which of the two ran.
fn tree_membership_counts(
    csr: &CsrGraph,
    entry_distances: &EntryDistances,
    roots: &[NodeId],
    threads: usize,
    edge_count: usize,
) -> Vec<usize> {
    let node_count = csr.node_count();
    if entry_distances.uniform().is_some() {
        let batches = roots.len().div_ceil(UNIFORM_BFS_LANES);
        // Each batch already sweeps up to 64 trees, so one batch per worker
        // is plenty of work.
        let threads = clamped_threads(threads, batches, 1);
        let (_, counts) = par_accumulate(
            batches,
            threads,
            || (UniformBfsBatch::new(node_count), vec![0usize; edge_count]),
            |(scratch, counts), batch| {
                let start = batch * UNIFORM_BFS_LANES;
                let end = roots.len().min(start + UNIFORM_BFS_LANES);
                scratch.run(csr, entry_distances, &roots[start..end], |entry, lanes| {
                    counts[csr.entry_edge_id(entry)] += lanes as usize;
                });
            },
            |(_, counts), (_, partial)| {
                for (count, other) in counts.iter_mut().zip(partial) {
                    *count += other;
                }
            },
        );
        counts
    } else {
        // One Dijkstra per item is expensive; a handful of roots per worker
        // already amortises the spawn cost.
        let threads = clamped_threads(threads, roots.len(), 8);
        let (_, counts) = par_accumulate(
            roots.len(),
            threads,
            || (CsrDijkstra::new(node_count), vec![0usize; edge_count]),
            |(scratch, counts), index| {
                scratch.run(csr, entry_distances, roots[index]);
                for &node in scratch.reached() {
                    if let Some(entry) = scratch.parent_entry(node) {
                        counts[csr.entry_edge_id(entry)] += 1;
                    }
                }
            },
            |(_, counts), (_, partial)| {
                for (count, other) in counts.iter_mut().zip(partial) {
                    *count += other;
                }
            },
        );
        counts
    }
}

/// The High Salience Skeleton backbone extractor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HighSalienceSkeleton {
    /// How proximity weights are converted to distances for the shortest-path
    /// trees. The original HSS uses the inverse transform; the negative-log
    /// alternative is exposed for the ablation benchmarks.
    pub transform: DistanceTransform,
}

impl Default for HighSalienceSkeleton {
    fn default() -> Self {
        HighSalienceSkeleton {
            transform: DistanceTransform::Inverse,
        }
    }
}

impl HighSalienceSkeleton {
    /// Create the extractor with the canonical inverse-weight distance transform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create the extractor with a custom distance transform.
    pub fn with_transform(transform: DistanceTransform) -> Self {
        HighSalienceSkeleton { transform }
    }

    /// Score every edge using the parallel CSR engine with an explicit worker
    /// count (`0` means "decide automatically", honoring `BACKBONING_THREADS`).
    ///
    /// The salience of every edge is identical for every `threads` value: each
    /// worker accumulates integer tree-membership counters over a disjoint
    /// range of roots, and integer merges are exact.
    pub fn score_with_threads<G: GraphView>(
        &self,
        graph: &G,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        let node_count = graph.node_count();
        // Borrowed when the input already is compact; built once otherwise.
        let csr = graph.to_csr()?;
        let entry_distances = csr_entry_distances(&csr, self.transform);
        let roots: Vec<NodeId> = (0..node_count).collect();
        let tree_membership =
            tree_membership_counts(&csr, &entry_distances, &roots, threads, graph.edge_count());
        scored_from_membership(
            graph,
            &tree_membership,
            node_count,
            BackboneExtractor::name(self),
            threads,
        )
    }

    /// Estimate every edge's salience from `roots` deterministically sampled
    /// shortest-path-tree roots (see [`sample_roots`]), using the same CSR
    /// engines and thread fan-out as the exact skeleton.
    ///
    /// The estimate is unbiased and obeys the Hoeffding bounds of
    /// [`salience_error_bound`] / [`max_salience_error_bound`]. With
    /// `roots ≥ |V|` the sample is every node and the scores are bit-identical
    /// to [`Self::score_with_threads`] (pinned by `tests/parallel_parity.rs`); the
    /// result is deterministic for a fixed `(roots, seed)` regardless of
    /// `threads`. Errors on `roots == 0`.
    pub fn score_sampled_with_threads<G: GraphView>(
        &self,
        graph: &G,
        roots: usize,
        seed: u64,
        threads: usize,
    ) -> BackboneResult<ScoredEdges> {
        if roots == 0 {
            return Err(BackboneError::InvalidParameter {
                parameter: "hss-roots",
                message: "sampled-root HSS needs at least one root".to_string(),
            });
        }
        let node_count = graph.node_count();
        let csr = graph.to_csr()?;
        let entry_distances = csr_entry_distances(&csr, self.transform);
        let selected = sample_roots(node_count, roots, seed);
        let tree_membership = tree_membership_counts(
            &csr,
            &entry_distances,
            &selected,
            threads,
            graph.edge_count(),
        );
        scored_from_membership(
            graph,
            &tree_membership,
            selected.len(),
            HSS_APPROX_SCORE_NAME,
            threads,
        )
    }

    /// The seed adjacency-list implementation: one full Dijkstra (with fresh
    /// allocations) per root and a hash lookup per tree edge, single-threaded.
    ///
    /// Kept as the reference the parity tests compare the CSR engine against,
    /// and as the baseline the `bench_snapshot` perf trajectory measures
    /// speedups over.
    pub fn score_adjacency_reference(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        let mut tree_membership = vec![0usize; graph.edge_count()];
        for root in graph.nodes() {
            let tree = dijkstra(graph, root, self.transform)?;
            for (parent, child) in tree.tree_edges() {
                // Map the tree edge back to the stored edge. For directed
                // graphs tree edges follow edge direction by construction; for
                // undirected graphs edge_index resolves either orientation.
                if let Some(edge_index) = graph.edge_index(parent, child) {
                    tree_membership[edge_index] += 1;
                }
            }
        }
        let node_count = graph.node_count();
        scored_from_membership(
            graph,
            &tree_membership,
            node_count,
            BackboneExtractor::name(self),
            1,
        )
    }
}

/// Turn per-edge tree-membership counts into salience scores: the count
/// divided by `denominator` (the number of roots whose trees were grown),
/// stamped with `score_name`.
fn scored_from_membership<G: GraphView>(
    graph: &G,
    tree_membership: &[usize],
    denominator: usize,
    score_name: &'static str,
    threads: usize,
) -> BackboneResult<ScoredEdges> {
    ScoredEdges::score_edges(score_name, graph, threads, [], |edge| {
        let salience = if denominator > 0 {
            tree_membership[edge.index] as f64 / denominator as f64
        } else {
            0.0
        };
        Ok((salience, []))
    })
}

impl BackboneExtractor for HighSalienceSkeleton {
    fn name(&self) -> &'static str {
        "high_salience_skeleton"
    }

    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges> {
        self.score_with_threads(graph, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{Direction, GraphBuilder, WeightedGraph};

    #[test]
    fn salience_is_a_fraction() {
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 10.0)
            .indexed_edge(2, 3, 10.0)
            .indexed_edge(0, 3, 1.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        for edge in scored.iter() {
            assert!((0.0..=1.0).contains(&edge.score));
        }
    }

    #[test]
    fn path_graph_edges_have_full_salience() {
        // On a path every edge lies on every shortest-path tree.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 2.0)
            .indexed_edge(1, 2, 3.0)
            .indexed_edge(2, 3, 4.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        for edge in scored.iter() {
            assert!((edge.score - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weak_shortcut_has_low_salience() {
        // A strong path 0-1-2 and a weak direct edge 0-2: with inverse-weight
        // distances the detour is shorter, so the weak shortcut joins no tree.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 10.0)
            .indexed_edge(0, 2, 1.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        let shortcut = scored.get(graph.edge_index(0, 2).unwrap()).unwrap();
        let trunk = scored.get(graph.edge_index(0, 1).unwrap()).unwrap();
        assert_eq!(shortcut.score, 0.0);
        assert!((trunk.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_hub_edges_are_fully_salient() {
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 1.0)
            .indexed_edge(0, 2, 1.0)
            .indexed_edge(0, 3, 1.0)
            .indexed_edge(0, 4, 1.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        for edge in scored.iter() {
            assert!((edge.score - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn salience_is_bimodal_on_two_communities() {
        // Two tight triangles joined by a single bridge: the bridge must appear
        // in every tree, intra-triangle edges only in some.
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 10.0)
            .indexed_edge(0, 2, 10.0)
            .indexed_edge(3, 4, 10.0)
            .indexed_edge(4, 5, 10.0)
            .indexed_edge(3, 5, 10.0)
            .indexed_edge(2, 3, 5.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        let bridge = scored.get(graph.edge_index(2, 3).unwrap()).unwrap();
        assert!((bridge.score - 1.0).abs() < 1e-12);
        // Every intra-triangle edge has strictly smaller salience than the bridge.
        for edge in scored.iter() {
            if edge.edge_index != bridge.edge_index {
                assert!(edge.score < 1.0);
            }
        }
    }

    #[test]
    fn directed_graphs_are_supported() {
        let mut graph = WeightedGraph::with_nodes(Direction::Directed, 3);
        graph.add_edge(0, 1, 5.0).unwrap();
        graph.add_edge(1, 2, 5.0).unwrap();
        graph.add_edge(2, 0, 5.0).unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        // Each edge lies on the unique directed path from two of the three roots.
        for edge in scored.iter() {
            assert!(edge.score > 0.0);
            assert!(edge.score <= 1.0);
        }
    }

    #[test]
    fn transform_variants_give_same_ranking_on_simple_graph() {
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 10.0)
            .indexed_edge(0, 2, 1.0)
            .build()
            .unwrap();
        let inverse = HighSalienceSkeleton::new().score(&graph).unwrap();
        let neg_log = HighSalienceSkeleton::with_transform(DistanceTransform::NegativeLog)
            .score(&graph)
            .unwrap();
        let shortcut = graph.edge_index(0, 2).unwrap();
        assert_eq!(
            inverse.get(shortcut).unwrap().score,
            neg_log.get(shortcut).unwrap().score
        );
    }

    #[test]
    fn empty_graph_is_handled() {
        let empty = WeightedGraph::undirected();
        let scored = HighSalienceSkeleton::new().score(&empty).unwrap();
        assert!(scored.is_empty());
    }

    #[test]
    fn disconnected_components_are_scored_independently() {
        let graph = GraphBuilder::undirected()
            .indexed_edge(0, 1, 1.0)
            .indexed_edge(2, 3, 1.0)
            .build()
            .unwrap();
        let scored = HighSalienceSkeleton::new().score(&graph).unwrap();
        // Each edge appears in the trees of its own component's two nodes only.
        for edge in scored.iter() {
            assert!((edge.score - 0.5).abs() < 1e-12);
        }
    }

    fn community_graph() -> WeightedGraph {
        GraphBuilder::undirected()
            .indexed_edge(0, 1, 10.0)
            .indexed_edge(1, 2, 10.0)
            .indexed_edge(0, 2, 10.0)
            .indexed_edge(3, 4, 10.0)
            .indexed_edge(4, 5, 10.0)
            .indexed_edge(3, 5, 10.0)
            .indexed_edge(2, 3, 5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn sample_roots_are_distinct_sorted_and_deterministic() {
        let roots = sample_roots(1000, 64, 4242);
        assert_eq!(roots.len(), 64);
        assert!(roots.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(roots.iter().all(|&root| root < 1000));
        assert_eq!(roots, sample_roots(1000, 64, 4242));
        assert_ne!(roots, sample_roots(1000, 64, 4243));
    }

    #[test]
    fn sample_roots_with_k_at_least_v_selects_every_node() {
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(sample_roots(10, 10, 7), all);
        assert_eq!(sample_roots(10, 1000, 7), all);
    }

    #[test]
    fn sampled_scores_with_all_roots_match_exact() {
        let graph = community_graph();
        let hss = HighSalienceSkeleton::new();
        let exact = hss.score_with_threads(&graph, 1).unwrap();
        let sampled = hss
            .score_sampled_with_threads(&graph, graph.node_count(), 99, 1)
            .unwrap();
        assert_eq!(sampled.method(), HSS_APPROX_SCORE_NAME);
        for (a, b) in exact.iter().zip(sampled.iter()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn sampled_scores_are_deterministic_and_thread_invariant() {
        let graph = community_graph();
        let hss = HighSalienceSkeleton::new();
        let baseline = hss.score_sampled_with_threads(&graph, 3, 11, 1).unwrap();
        for threads in [2, 3, 8] {
            let other = hss
                .score_sampled_with_threads(&graph, 3, 11, threads)
                .unwrap();
            for (a, b) in baseline.iter().zip(other.iter()) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn sampled_scores_use_the_sample_size_as_denominator() {
        // The bridge edge 2–3 lies on every shortest-path tree, so any sample
        // of roots must give it salience exactly 1.
        let graph = community_graph();
        let sampled = HighSalienceSkeleton::new()
            .score_sampled_with_threads(&graph, 3, 5, 1)
            .unwrap();
        let bridge = sampled.get(graph.edge_index(2, 3).unwrap()).unwrap();
        assert_eq!(bridge.score, 1.0);
    }

    #[test]
    fn zero_roots_are_rejected() {
        let graph = community_graph();
        let err = HighSalienceSkeleton::new()
            .score_sampled_with_threads(&graph, 0, 5, 1)
            .unwrap_err();
        assert!(matches!(
            err,
            BackboneError::InvalidParameter {
                parameter: "hss-roots",
                ..
            }
        ));
    }

    #[test]
    fn error_bounds_shrink_with_more_roots() {
        let loose = salience_error_bound(64, 0.95);
        let tight = salience_error_bound(1024, 0.95);
        assert!(tight < loose);
        // The union bound dominates the per-edge bound.
        assert!(max_salience_error_bound(64, 10_000, 0.95) > loose);
        // 2exp(-2Kε²) = 0.05 at K=1024 → ε ≈ 0.0424.
        assert!((salience_error_bound(1024, 0.95) - 0.042448).abs() < 1e-4);
    }
}
