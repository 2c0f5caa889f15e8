//! Dense adjacency-matrix view and the Sinkhorn–Knopp doubly-stochastic
//! normalisation.
//!
//! The Doubly-Stochastic backbone (Slater, 2009; paper Section III-B) first
//! transforms the adjacency matrix into a doubly-stochastic matrix by
//! alternately normalising rows and columns. That transformation lives here,
//! next to the dense matrix view it operates on.

use crate::error::{GraphError, GraphResult};
use crate::graph::{Direction, NodeId};
use crate::view::GraphView;

/// A dense adjacency matrix of a weighted graph.
///
/// For undirected graphs the matrix is symmetric (each stored edge fills both
/// `(i, j)` and `(j, i)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdjacencyMatrix {
    size: usize,
    values: Vec<f64>,
}

/// Reserve room for the `size × size` entries of a dense matrix, or fail with
/// a structured error where `vec!` would abort the process: the entry count
/// overflows `usize`, the byte size exceeds `isize::MAX`, or the allocator
/// refuses the request.
fn reserve_entries(size: usize) -> GraphResult<Vec<f64>> {
    let mut values = Vec::new();
    size.checked_mul(size)
        .and_then(|len| values.try_reserve_exact(len).ok())
        .ok_or_else(|| GraphError::InvalidParameter {
            parameter: "matrix",
            message: format!("cannot allocate the dense {size}×{size} matrix"),
        })?;
    Ok(values)
}

impl AdjacencyMatrix {
    /// Build the dense adjacency matrix of a graph (either representation).
    ///
    /// Fails when the `V × V` matrix cannot be allocated (see
    /// [`GraphError::InvalidParameter`]); a graph of 50,000 nodes asks for
    /// 20 GB.
    pub fn from_graph<G: GraphView>(graph: &G) -> GraphResult<Self> {
        let size = graph.node_count();
        let mut values = reserve_entries(size)?;
        values.resize(size * size, 0.0);
        for edge in graph.edges() {
            values[edge.source * size + edge.target] = edge.weight;
            if graph.direction() == Direction::Undirected {
                values[edge.target * size + edge.source] = edge.weight;
            }
        }
        Ok(AdjacencyMatrix { size, values })
    }

    /// Matrix dimension (number of nodes).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Element access.
    #[inline]
    pub fn get(&self, row: NodeId, col: NodeId) -> f64 {
        self.values[row * self.size + col]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, row: NodeId, col: NodeId, value: f64) {
        self.values[row * self.size + col] = value;
    }

    /// Sum of a row.
    pub fn row_sum(&self, row: NodeId) -> f64 {
        self.values[row * self.size..(row + 1) * self.size]
            .iter()
            .sum()
    }

    /// Sum of a column.
    pub fn col_sum(&self, col: NodeId) -> f64 {
        (0..self.size).map(|row| self.get(row, col)).sum()
    }

    /// Iterate over the non-zero entries as `(row, col, value)`.
    pub fn non_zero_entries(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.size).flat_map(move |row| {
            (0..self.size).filter_map(move |col| {
                let value = self.get(row, col);
                if value != 0.0 {
                    Some((row, col, value))
                } else {
                    None
                }
            })
        })
    }

    /// Transform the matrix into a doubly-stochastic matrix with the
    /// Sinkhorn–Knopp algorithm: alternately normalise rows and columns until
    /// both row and column sums are within `tolerance` of one, or fail after
    /// `max_iterations` sweeps.
    ///
    /// Fails when the working copy cannot be allocated, when a row or column
    /// is entirely zero, or when the iteration does not converge — the paper
    /// notes (citing Sinkhorn 1964) that not every square non-negative matrix
    /// admits a doubly-stochastic scaling, which is why the Doubly-Stochastic
    /// backbone is "n/a" for some networks in Tables and Figures.
    pub fn sinkhorn_knopp(
        &self,
        tolerance: f64,
        max_iterations: usize,
    ) -> GraphResult<AdjacencyMatrix> {
        let n = self.size;
        if n == 0 {
            return Err(GraphError::InvalidParameter {
                parameter: "matrix",
                message: "cannot normalise an empty matrix".to_string(),
            });
        }
        for row in 0..n {
            if self.row_sum(row) == 0.0 {
                return Err(GraphError::InvalidParameter {
                    parameter: "matrix",
                    message: format!(
                        "row {row} sums to zero; doubly-stochastic scaling impossible"
                    ),
                });
            }
        }
        for col in 0..n {
            if self.col_sum(col) == 0.0 {
                return Err(GraphError::InvalidParameter {
                    parameter: "matrix",
                    message: format!(
                        "column {col} sums to zero; doubly-stochastic scaling impossible"
                    ),
                });
            }
        }

        let mut values = reserve_entries(n)?;
        values.extend_from_slice(&self.values);
        let mut work = AdjacencyMatrix { size: n, values };
        for _ in 0..max_iterations {
            // Normalise rows.
            for row in 0..n {
                let sum = work.row_sum(row);
                if sum > 0.0 {
                    for col in 0..n {
                        let value = work.get(row, col) / sum;
                        work.set(row, col, value);
                    }
                }
            }
            // Normalise columns.
            for col in 0..n {
                let sum = work.col_sum(col);
                if sum > 0.0 {
                    for row in 0..n {
                        let value = work.get(row, col) / sum;
                        work.set(row, col, value);
                    }
                }
            }
            // Check convergence.
            let row_error = (0..n)
                .map(|row| (work.row_sum(row) - 1.0).abs())
                .fold(0.0, f64::max);
            let col_error = (0..n)
                .map(|col| (work.col_sum(col) - 1.0).abs())
                .fold(0.0, f64::max);
            if row_error < tolerance && col_error < tolerance {
                return Ok(work);
            }
        }
        Err(GraphError::InvalidParameter {
            parameter: "matrix",
            message: format!("Sinkhorn-Knopp did not converge within {max_iterations} iterations"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Direction, WeightedGraph};

    #[test]
    fn matrix_from_directed_graph() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(2, 0, 3.0).unwrap();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        assert_eq!(m.size(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 0), 3.0);
        assert_eq!(m.row_sum(0), 2.0);
        assert_eq!(m.col_sum(0), 3.0);
    }

    #[test]
    fn matrix_from_undirected_graph_is_symmetric() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(1, 2, 5.0).unwrap();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        assert_eq!(m.get(0, 1), m.get(1, 0));
        assert_eq!(m.get(1, 2), m.get(2, 1));
    }

    #[test]
    fn non_zero_entries_iteration() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 2.0).unwrap();
        g.add_edge(1, 2, 3.0).unwrap();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        let entries: Vec<_> = m.non_zero_entries().collect();
        assert_eq!(entries.len(), 2);
        assert!(entries.contains(&(0, 1, 2.0)));
        assert!(entries.contains(&(1, 2, 3.0)));
    }

    #[test]
    fn sinkhorn_converges_on_positive_matrix() {
        // Fully connected weighted graph → scaling always exists.
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        for i in 0..3 {
            for j in 0..3 {
                g.add_edge(i, j, (1 + i + 2 * j) as f64).unwrap();
            }
        }
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        let ds = m.sinkhorn_knopp(1e-9, 1000).unwrap();
        for i in 0..3 {
            assert!((ds.row_sum(i) - 1.0).abs() < 1e-6);
            assert!((ds.col_sum(i) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sinkhorn_preserves_zero_pattern() {
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 2);
        g.add_edge(0, 0, 1.0).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 0, 1.0).unwrap();
        g.add_edge(1, 1, 1.0).unwrap();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        let ds = m.sinkhorn_knopp(1e-9, 100).unwrap();
        assert!(ds.get(0, 0) > 0.0);
        assert!((ds.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sinkhorn_fails_on_zero_row_or_column() {
        // Node 2 has no outgoing edges → zero row.
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 3);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(0, 2, 1.0).unwrap();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        assert!(m.sinkhorn_knopp(1e-9, 100).is_err());
    }

    #[test]
    fn unallocatable_matrices_are_refused_not_aborted() {
        // (2^30)² f64 entries take 2^63 bytes, past `isize::MAX`;
        // `usize::MAX`² entries overflow `usize` itself. Neither may reach
        // the allocator's abort path.
        for size in [1usize << 30, usize::MAX] {
            let err = reserve_entries(size).unwrap_err();
            assert!(err.to_string().contains("cannot allocate"), "{err}");
        }
        assert_eq!(reserve_entries(3).unwrap().capacity(), 9);
    }

    #[test]
    fn sinkhorn_rejects_empty_matrix() {
        let g = WeightedGraph::directed();
        let m = AdjacencyMatrix::from_graph(&g).unwrap();
        assert!(m.sinkhorn_knopp(1e-9, 100).is_err());
    }
}
