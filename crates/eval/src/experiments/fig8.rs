//! Figure 8: stability (year-on-year robustness of the backbone).
//!
//! The paper computes, for every method and backbone size, the Spearman
//! correlation between the year-`t` and year-`t+1` weights of the backbone's
//! edges. All methods are very stable on the country networks (correlations
//! above .84); the experiment checks that pruning noisy edges does not *hurt*
//! stability.

use backboning::{Pipeline, ThresholdPolicy};
use backboning_data::{CountryData, CountryNetworkKind};

use crate::methods::Method;
use crate::metrics::stability::stability;
use crate::report::{fmt_opt, TextTable};

/// Stability of every method at one edge share on one network.
#[derive(Debug, Clone)]
pub struct StabilityPoint {
    /// Share of edges kept in the backbone.
    pub edge_share: f64,
    /// Stability per method (aligned with the result's method list).
    pub stability: Vec<Option<f64>>,
}

/// Stability sweep of one network.
#[derive(Debug, Clone)]
pub struct StabilitySweep {
    /// Which network.
    pub kind: CountryNetworkKind,
    /// One point per edge share.
    pub points: Vec<StabilityPoint>,
}

/// Results of the Figure 8 experiment.
#[derive(Debug, Clone)]
pub struct StabilityResult {
    /// Methods compared, in column order.
    pub methods: Vec<Method>,
    /// One sweep per network.
    pub sweeps: Vec<StabilitySweep>,
}

impl StabilityResult {
    /// Render the Figure 8 tables (one block per network).
    pub fn render(&self) -> String {
        let mut output = String::new();
        for sweep in &self.sweeps {
            output.push_str(&format!("Stability — {} network\n", sweep.kind.name()));
            let mut header = vec!["edge share".to_string()];
            header.extend(self.methods.iter().map(|m| m.short_name().to_string()));
            let mut table = TextTable::new(header);
            for point in &sweep.points {
                let mut row = vec![format!("{:.3}", point.edge_share)];
                row.extend(point.stability.iter().map(|&s| fmt_opt(s)));
                table.add_row(row);
            }
            output.push_str(&table.render());
            output.push('\n');
        }
        output
    }
}

/// Run the Figure 8 experiment between the first two yearly observations.
pub fn run(data: &CountryData, methods: &[Method], edge_shares: &[f64]) -> StabilityResult {
    assert!(
        data.years() >= 2,
        "stability needs at least two yearly observations"
    );
    let mut sweeps = Vec::new();
    for kind in CountryNetworkKind::all() {
        let year_t = data.network(kind, 0);
        let year_t1 = data.network(kind, 1);
        // Rank each score set once: every edge share below is a prefix of
        // that order.
        let scored: Vec<Option<backboning::ScoredEdges>> = methods
            .iter()
            .map(|method| {
                if method.is_parameter_free() {
                    None
                } else {
                    method.score(year_t).ok().inspect(|scored| {
                        scored.ranked();
                    })
                }
            })
            .collect();
        let fixed: Vec<Option<Vec<usize>>> = methods
            .iter()
            .map(|method| {
                if method.is_parameter_free() {
                    method.edge_set(year_t, 0).ok()
                } else {
                    None
                }
            })
            .collect();

        let mut points = Vec::new();
        for &share in edge_shares {
            let target = ((share * year_t.edge_count() as f64).round() as usize).max(2);
            let mut row = Vec::with_capacity(methods.len());
            for (column, method) in methods.iter().enumerate() {
                // The per-share cut goes through the shared Pipeline, the
                // same selection code the `backbone` CLI runs.
                let edge_set = if method.is_parameter_free() {
                    fixed[column].clone()
                } else {
                    scored[column].as_ref().and_then(|s| {
                        Pipeline::new(*method, ThresholdPolicy::TopK(target))
                            .select(year_t, s)
                            .ok()
                    })
                };
                let value = edge_set.and_then(|edges| stability(&edges, year_t, year_t1).ok());
                row.push(value);
            }
            points.push(StabilityPoint {
                edge_share: share,
                stability: row,
            });
        }
        sweeps.push(StabilitySweep { kind, points });
    }
    StabilityResult {
        methods: methods.to_vec(),
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_data::CountryDataConfig;

    #[test]
    fn backbones_are_stable_across_years() {
        let data = CountryData::generate(&CountryDataConfig::small());
        let methods = vec![Method::NaiveThreshold, Method::NoiseCorrected];
        let result = run(&data, &methods, &[0.2]);
        assert_eq!(result.sweeps.len(), 6);
        for sweep in &result.sweeps {
            for point in &sweep.points {
                for (column, value) in point.stability.iter().enumerate() {
                    let value = value.unwrap_or_else(|| {
                        panic!("{}: missing stability", result.methods[column].short_name())
                    });
                    assert!(
                        value > 0.5,
                        "{} / {}: stability {value} too low",
                        sweep.kind.name(),
                        result.methods[column].short_name()
                    );
                }
            }
        }
        assert!(result.render().contains("Stability"));
    }
}
