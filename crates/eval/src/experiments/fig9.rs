//! Figure 9: running-time scalability.
//!
//! The paper measures the running time of every method on Erdős–Rényi graphs
//! with average degree 3 and uniform random weights, from tens of thousands to
//! millions of edges, and reports (i) nearly linear scaling for the
//! Noise-Corrected backbone (`~O(|E|^1.14)` empirically), (ii) NC, NT and DF
//! within a constant factor of each other, and (iii) HSS and DS orders of
//! magnitude slower, unusable beyond a few thousand edges. The same workload
//! and measurements are reproduced here; absolute seconds depend on the
//! machine, the scaling exponent and method ordering do not.

use std::time::Instant;

use backboning_data::scalability_workload;

use crate::methods::Method;
use crate::report::TextTable;

/// Scoring repetitions per (size, method) cell. A busy host only ever adds
/// time, so the fastest repetition is the robust estimate of the cost.
pub const REPETITIONS: usize = 5;

/// Timing of every method at one network size.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Number of edges of the workload.
    pub edges: usize,
    /// Seconds per method, the fastest of [`REPETITIONS`] scoring runs
    /// (aligned with the result's method list; `None` when the method was
    /// skipped at this size or failed).
    pub seconds: Vec<Option<f64>>,
}

/// Results of the Figure 9 experiment.
#[derive(Debug, Clone)]
pub struct ScalabilityResult {
    /// Methods compared, in column order.
    pub methods: Vec<Method>,
    /// One point per network size.
    pub points: Vec<ScalabilityPoint>,
}

impl ScalabilityResult {
    /// Empirical scaling exponent of one method: the slope of a log–log least
    /// squares fit of seconds against edge count. Requires at least two sizes.
    pub fn scaling_exponent(&self, method: Method) -> Option<f64> {
        let column = self.methods.iter().position(|&m| m == method)?;
        let samples: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter_map(|p| p.seconds[column].map(|s| ((p.edges as f64).ln(), s.max(1e-9).ln())))
            .collect();
        if samples.len() < 2 {
            return None;
        }
        let n = samples.len() as f64;
        let mean_x = samples.iter().map(|s| s.0).sum::<f64>() / n;
        let mean_y = samples.iter().map(|s| s.1).sum::<f64>() / n;
        let numerator: f64 = samples
            .iter()
            .map(|s| (s.0 - mean_x) * (s.1 - mean_y))
            .sum();
        let denominator: f64 = samples
            .iter()
            .map(|s| (s.0 - mean_x) * (s.0 - mean_x))
            .sum();
        if denominator > 0.0 {
            Some(numerator / denominator)
        } else {
            None
        }
    }

    /// Render the timing table and the fitted exponents.
    pub fn render(&self) -> String {
        let mut header = vec!["edges".to_string()];
        header.extend(self.methods.iter().map(|m| m.short_name().to_string()));
        let mut table = TextTable::new(header);
        for point in &self.points {
            let mut row = vec![point.edges.to_string()];
            row.extend(point.seconds.iter().map(|&s| match s {
                Some(seconds) => format!("{seconds:.3}s"),
                None => "skipped".to_string(),
            }));
            table.add_row(row);
        }
        let mut output = table.render();
        output.push('\n');
        for method in &self.methods {
            if let Some(exponent) = self.scaling_exponent(*method) {
                output.push_str(&format!(
                    "{}: empirical time complexity ~ O(|E|^{exponent:.2})\n",
                    method.short_name()
                ));
            }
        }
        output
    }
}

/// Run the Figure 9 experiment.
///
/// * `sizes` — edge counts of the Erdős–Rényi workloads;
/// * `slow_method_limit` — HSS and DS are only run on workloads with at most
///   this many edges (the paper could not run them beyond a few thousand
///   edges either).
pub fn run(
    methods: &[Method],
    sizes: &[usize],
    slow_method_limit: usize,
    seed: u64,
) -> ScalabilityResult {
    let mut points = Vec::with_capacity(sizes.len());
    for (index, &edges) in sizes.iter().enumerate() {
        let graph = scalability_workload(edges, seed.wrapping_add(index as u64))
            .expect("valid scalability workload");
        let mut seconds = Vec::with_capacity(methods.len());
        for method in methods {
            let is_slow = matches!(
                method,
                Method::HighSalienceSkeleton | Method::DoublyStochastic
            );
            if is_slow && edges > slow_method_limit {
                seconds.push(None);
                continue;
            }
            let fastest = (0..REPETITIONS)
                .map(|_| {
                    let start = Instant::now();
                    let outcome = method.score(&graph);
                    let elapsed = start.elapsed().as_secs_f64();
                    outcome.ok().map(|_| elapsed)
                })
                .collect::<Option<Vec<f64>>>()
                .map(|runs| runs.into_iter().fold(f64::INFINITY, f64::min));
            seconds.push(fastest);
        }
        points.push(ScalabilityPoint { edges, seconds });
    }
    ScalabilityResult {
        methods: methods.to_vec(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nc_runs_fast_and_scales_near_linearly() {
        let methods = vec![Method::NaiveThreshold, Method::NoiseCorrected];
        let result = run(&methods, &[2_000, 8_000], usize::MAX, 3);
        assert_eq!(result.points.len(), 2);
        for point in &result.points {
            for value in &point.seconds {
                assert!(value.is_some());
            }
        }
        // Even in debug builds 8k edges must take well under a second per method.
        assert!(result.points[1].seconds[1].unwrap() < 5.0);
        let rendered = result.render();
        assert!(rendered.contains("edges"));
    }

    #[test]
    fn slow_methods_are_skipped_above_the_limit() {
        let methods = vec![Method::NoiseCorrected, Method::HighSalienceSkeleton];
        let result = run(&methods, &[500, 4_000], 1_000, 5);
        assert!(result.points[0].seconds[1].is_some());
        assert!(result.points[1].seconds[1].is_none());
    }
}
