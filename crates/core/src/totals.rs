//! Per-node strengths and network totals, computed in one pass.

use backboning_graph::GraphView;

use crate::error::{BackboneError, BackboneResult};

/// Strengths and totals of the (possibly symmetrised) network, precomputed
/// once per extraction and shared by the statistical extractors.
pub(crate) struct NetworkTotals {
    /// Total outgoing weight per node, `N_i. = Σ_j N_ij`.
    pub out_strength: Vec<f64>,
    /// Total incoming weight per node, `N_.j = Σ_i N_ij`.
    pub in_strength: Vec<f64>,
    /// Total weight in the network, `N_..` (sum of strengths for undirected
    /// graphs, matching the symmetrised table of the reference implementation).
    pub total: f64,
}

impl NetworkTotals {
    /// Build the strengths in a single `O(V + E)` pass over the edge list.
    ///
    /// Per-node contributions are accumulated in edge-insertion order — the
    /// same order in which the per-node adjacency lists store them — so the
    /// resulting sums are bit-identical to per-node
    /// `WeightedGraph::out_strength`/`WeightedGraph::in_strength` sums, and
    /// identical across graph representations (the edge order is the dense
    /// edge-id order on both).
    pub fn compute<G: GraphView>(graph: &G) -> Self {
        let node_count = graph.node_count();
        let mut out_strength = vec![0.0; node_count];
        if graph.is_directed() {
            let mut in_strength = vec![0.0; node_count];
            let mut total = 0.0;
            for edge in graph.edges() {
                out_strength[edge.source] += edge.weight;
                in_strength[edge.target] += edge.weight;
                total += edge.weight;
            }
            NetworkTotals {
                out_strength,
                in_strength,
                total,
            }
        } else {
            for edge in graph.edges() {
                out_strength[edge.source] += edge.weight;
                if edge.source != edge.target {
                    out_strength[edge.target] += edge.weight;
                }
            }
            // Every undirected edge is counted from both endpoints, so the
            // relevant total is the sum of strengths (≈ 2× the edge-weight sum).
            let total = out_strength.iter().sum();
            NetworkTotals {
                in_strength: out_strength.clone(),
                out_strength,
                total,
            }
        }
    }

    /// Every per-node strength: out-strengths, then in-strengths.
    pub fn sums(&self) -> impl Iterator<Item = f64> + '_ {
        self.out_strength.iter().chain(&self.in_strength).copied()
    }
}

/// Refuse a graph whose weight sums overflowed `f64`. The statistical
/// extractors divide by node strengths (and NC by the network total), so an
/// infinite sum would turn every affected score into `NaN` or `0` without an
/// error; `method` names the extractor in the [`BackboneError::UnsupportedGraph`].
pub(crate) fn ensure_finite(
    method: &'static str,
    sums: impl IntoIterator<Item = f64>,
) -> BackboneResult<()> {
    match sums.into_iter().find(|sum| !sum.is_finite()) {
        None => Ok(()),
        Some(sum) => Err(BackboneError::UnsupportedGraph {
            method,
            message: format!("edge weights sum to {sum}, past the largest finite f64"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{CsrGraph, Direction, WeightedGraph};

    #[test]
    fn single_pass_matches_per_node_iterator_sums() {
        for direction in [Direction::Directed, Direction::Undirected] {
            let mut graph = WeightedGraph::with_nodes(direction, 7);
            let mut k = 0u32;
            for i in 0..7usize {
                for j in 0..7usize {
                    if i != j && (i + 3 * j) % 4 != 0 {
                        k += 1;
                        graph.add_edge(i, j, 0.37 * f64::from(k)).unwrap();
                    }
                }
            }
            // A self-loop, which must be counted once.
            graph.add_edge(2, 2, 1.5).unwrap();

            let totals = NetworkTotals::compute(&graph);
            for node in graph.nodes() {
                assert_eq!(totals.out_strength[node], graph.out_strength(node));
                assert_eq!(totals.in_strength[node], graph.in_strength(node));
            }
            let expected_total = if graph.is_directed() {
                graph.total_weight()
            } else {
                graph.nodes().map(|n| graph.out_strength(n)).sum()
            };
            assert_eq!(totals.total, expected_total);
        }
    }

    #[test]
    fn csr_totals_are_bit_identical() {
        for direction in [Direction::Directed, Direction::Undirected] {
            let mut graph = WeightedGraph::with_nodes(direction, 6);
            let mut k = 0u32;
            for i in 0..6usize {
                for j in 0..6usize {
                    if i != j && (i * 2 + j) % 3 != 0 {
                        k += 1;
                        graph.add_edge(i, j, 0.61 * f64::from(k)).unwrap();
                    }
                }
            }
            let csr = CsrGraph::from_graph(&graph).unwrap();
            let reference = NetworkTotals::compute(&graph);
            let compact = NetworkTotals::compute(&csr);
            assert_eq!(reference.out_strength, compact.out_strength);
            assert_eq!(reference.in_strength, compact.in_strength);
            assert_eq!(reference.total, compact.total);
        }
    }

    #[test]
    fn empty_graph_has_zero_totals() {
        let totals = NetworkTotals::compute(&WeightedGraph::undirected());
        assert!(totals.out_strength.is_empty());
        assert!(totals.in_strength.is_empty());
        assert_eq!(totals.total, 0.0);
    }
}
