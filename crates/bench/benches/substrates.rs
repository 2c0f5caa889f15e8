//! Criterion benchmarks of the substrate crates: graph construction,
//! shortest-path trees (the HSS inner loop), Kruskal spanning trees, the
//! Sinkhorn normalisation and the OLS regression used by Table II.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use backboning_graph::algorithms::shortest_path::{dijkstra, DistanceTransform};
use backboning_graph::algorithms::spanning_tree::maximum_spanning_tree;
use backboning_graph::generators::{barabasi_albert, erdos_renyi};
use backboning_graph::matrix::AdjacencyMatrix;
use backboning_graph::Direction;
use backboning_stats::OlsModel;

fn substrates(criterion: &mut Criterion) {
    let ba = barabasi_albert(2_000, 3, 11).expect("valid BA parameters");
    let er =
        erdos_renyi(20_000, 30_000, 10.0, Direction::Undirected, 5).expect("valid ER parameters");

    criterion.bench_function("substrates/barabasi_albert_2k", |bencher| {
        bencher.iter(|| black_box(barabasi_albert(2_000, 3, 11).unwrap().edge_count()));
    });

    criterion.bench_function("substrates/dijkstra_spt_ba2k", |bencher| {
        bencher.iter(|| {
            let tree = dijkstra(black_box(&ba), 0, DistanceTransform::Inverse).unwrap();
            black_box(tree.tree_edges().len());
        });
    });

    criterion.bench_function("substrates/kruskal_mst_er30k", |bencher| {
        bencher.iter(|| black_box(maximum_spanning_tree(black_box(&er)).len()));
    });

    criterion.bench_function("substrates/sinkhorn_knopp_120", |bencher| {
        let mut dense = backboning_graph::WeightedGraph::with_nodes(Direction::Directed, 120);
        for i in 0..120usize {
            for j in 0..120usize {
                if i != j {
                    dense
                        .add_edge(i, j, 1.0 + ((i * 13 + j * 7) % 23) as f64)
                        .unwrap();
                }
            }
        }
        let matrix = AdjacencyMatrix::from_graph(&dense).unwrap();
        bencher.iter(|| black_box(matrix.sinkhorn_knopp(1e-9, 500).unwrap().row_sum(0)));
    });

    criterion.bench_function("substrates/ols_regression_5k_rows", |bencher| {
        let n = 5_000;
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.017).sin() * 4.0).collect();
        let x2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.031).cos() * 2.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + 2.0 * x1[i] - 0.5 * x2[i] + ((i % 7) as f64 - 3.0) * 0.1)
            .collect();
        bencher.iter(|| {
            let fit = OlsModel::new()
                .predictor("x1", x1.clone())
                .predictor("x2", x2.clone())
                .fit(black_box(&y))
                .unwrap();
            black_box(fit.r_squared);
        });
    });
}

criterion_group!(benches, substrates);
criterion_main!(benches);
