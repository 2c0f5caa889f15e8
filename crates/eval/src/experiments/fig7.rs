//! Figure 7: coverage (the Topology criterion).
//!
//! For every network and every method the paper plots the share of originally
//! non-isolated nodes preserved by the backbone as a function of the share of
//! edges kept. MST, DS and HSS achieve (near-)perfect coverage by
//! construction; the interesting comparison is NC vs DF vs the naive
//! threshold, where the naive threshold is the first to isolate weak nodes.

use backboning::{Pipeline, ThresholdPolicy};
use backboning_data::{CountryData, CountryNetworkKind};
use backboning_parallel::{par_map, resolve_threads};

use crate::methods::Method;
use crate::metrics::coverage::coverage;
use crate::report::{fmt_opt, TextTable};

/// Coverage of every method at one edge share on one network.
#[derive(Debug, Clone)]
pub struct CoveragePoint {
    /// Share of edges kept in the backbone.
    pub edge_share: f64,
    /// Coverage per method (aligned with the result's method list, `None` when
    /// the method is not applicable).
    pub coverage: Vec<Option<f64>>,
}

/// Coverage sweep of one network.
#[derive(Debug, Clone)]
pub struct CoverageSweep {
    /// Which network.
    pub kind: CountryNetworkKind,
    /// One point per edge share.
    pub points: Vec<CoveragePoint>,
}

/// Results of the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct CoverageResult {
    /// Methods compared, in column order.
    pub methods: Vec<Method>,
    /// One sweep per network.
    pub sweeps: Vec<CoverageSweep>,
}

impl CoverageResult {
    /// Render the Figure 7 tables (one block per network).
    pub fn render(&self) -> String {
        let mut output = String::new();
        for sweep in &self.sweeps {
            output.push_str(&format!("Coverage — {} network\n", sweep.kind.name()));
            let mut header = vec!["edge share".to_string()];
            header.extend(self.methods.iter().map(|m| m.short_name().to_string()));
            let mut table = TextTable::new(header);
            for point in &sweep.points {
                let mut row = vec![format!("{:.3}", point.edge_share)];
                row.extend(point.coverage.iter().map(|&c| fmt_opt(c)));
                table.add_row(row);
            }
            output.push_str(&table.render());
            output.push('\n');
        }
        output
    }
}

/// Run the Figure 7 experiment.
///
/// `edge_shares` is the list of backbone sizes (as shares of the original edge
/// count) to sweep; parameter-free methods (MST, DS) are evaluated once and
/// reported at every share, mirroring the single points of the paper's plots.
pub fn run(data: &CountryData, methods: &[Method], edge_shares: &[f64]) -> CoverageResult {
    run_with_threads(data, methods, edge_shares, 0)
}

/// [`run`] with an explicit worker count (`0` = automatic).
///
/// The six networks are swept concurrently — each sweep re-scores every
/// method on its own network, which is the expensive part — and the sweeps
/// are returned in the fixed network order, so the result does not depend on
/// the thread count.
pub fn run_with_threads(
    data: &CountryData,
    methods: &[Method],
    edge_shares: &[f64],
    threads: usize,
) -> CoverageResult {
    let kinds = CountryNetworkKind::all();
    let sweeps = par_map(&kinds, resolve_threads(threads), |_, &kind| {
        let graph = data.network(kind, 0);
        // Pre-score the tunable methods once per network, and rank each
        // score set once: every edge share below is a prefix of that order.
        // Inner scoring is pinned to one thread — the per-network sweep is
        // the parallel axis.
        let scored: Vec<Option<backboning::ScoredEdges>> = methods
            .iter()
            .map(|method| {
                if method.is_parameter_free() {
                    None
                } else {
                    method.score_with_threads(graph, 1).ok().inspect(|scored| {
                        scored.ranked();
                    })
                }
            })
            .collect();
        // Pre-compute the fixed backbones of the parameter-free methods.
        let fixed: Vec<Option<Vec<usize>>> = methods
            .iter()
            .map(|method| {
                if method.is_parameter_free() {
                    method.edge_set_with_threads(graph, 0, 1).ok()
                } else {
                    None
                }
            })
            .collect();

        let mut points = Vec::new();
        for &share in edge_shares {
            let target = ((share * graph.edge_count() as f64).round() as usize).max(1);
            let mut row = Vec::with_capacity(methods.len());
            for (column, method) in methods.iter().enumerate() {
                // The per-share cut goes through the shared Pipeline, the
                // same selection code the `backbone` CLI runs.
                let edge_set = if method.is_parameter_free() {
                    fixed[column].clone()
                } else {
                    scored[column].as_ref().and_then(|s| {
                        Pipeline::new(*method, ThresholdPolicy::TopK(target))
                            .select(graph, s)
                            .ok()
                    })
                };
                let value = edge_set.and_then(|edges| {
                    graph
                        .subgraph_with_edges(&edges)
                        .ok()
                        .map(|backbone| coverage(graph, &backbone))
                });
                row.push(value);
            }
            points.push(CoveragePoint {
                edge_share: share,
                coverage: row,
            });
        }
        CoverageSweep { kind, points }
    });
    CoverageResult {
        methods: methods.to_vec(),
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_data::CountryDataConfig;

    #[test]
    fn coverage_grows_with_edge_share() {
        let data = CountryData::generate(&CountryDataConfig::small());
        let methods = vec![
            Method::NaiveThreshold,
            Method::NoiseCorrected,
            Method::MaximumSpanningTree,
        ];
        let result = run(&data, &methods, &[0.05, 0.5]);
        assert_eq!(result.sweeps.len(), 6);
        for sweep in &result.sweeps {
            let small = &sweep.points[0];
            let large = &sweep.points[1];
            for column in 0..2 {
                // Scored methods: more edges can only increase coverage.
                if let (Some(a), Some(b)) = (small.coverage[column], large.coverage[column]) {
                    assert!(
                        b >= a - 1e-12,
                        "{}: coverage not monotone",
                        sweep.kind.name()
                    );
                    assert!(a >= 0.0 && b <= 1.0 + 1e-12);
                }
            }
            // MST coverage is 1 by construction, at every share.
            assert!((small.coverage[2].unwrap() - 1.0).abs() < 1e-12);
        }
        assert!(result.render().contains("Coverage"));
    }
}
