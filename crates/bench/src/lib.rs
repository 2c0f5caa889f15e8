//! # backboning-bench
//!
//! Reproduction binaries, Criterion benchmarks, runnable examples and
//! workspace-spanning integration tests for the `backboning-rs` workspace.
//!
//! One binary per table/figure of *Network Backboning with Noisy Data*
//! (Coscia & Neffke, ICDE 2017):
//!
//! ```text
//! cargo run --release -p backboning-bench --bin fig2_thresholds
//! cargo run --release -p backboning-bench --bin fig3_toy
//! cargo run --release -p backboning-bench --bin fig4_recovery
//! cargo run --release -p backboning-bench --bin fig5_weight_distributions
//! cargo run --release -p backboning-bench --bin fig6_local_correlation
//! cargo run --release -p backboning-bench --bin table1_validation
//! cargo run --release -p backboning-bench --bin fig7_coverage
//! cargo run --release -p backboning-bench --bin table2_quality
//! cargo run --release -p backboning-bench --bin fig8_stability
//! cargo run --release -p backboning-bench --bin fig9_scalability
//! cargo run --release -p backboning-bench --bin case_study
//! cargo run --release -p backboning-bench --bin reproduce_all
//! ```
//!
//! The library part only holds shared configuration helpers so that every
//! binary (and the integration tests) evaluates the same synthetic datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadtest;
pub mod matrix;
pub mod patchbench;
pub mod section;

use std::time::Instant;

use backboning_data::{CountryData, CountryDataConfig, OccupationData, OccupationDataConfig};
use backboning_eval::Method;

/// Whether the `BACKBONING_SMALL` environment variable asks for the reduced
/// experiment sizes (used by smoke tests and CI).
pub fn small_mode() -> bool {
    std::env::var("BACKBONING_SMALL").is_ok_and(|value| value != "0" && !value.is_empty())
}

/// The country-data configuration used by all reproduction binaries: the
/// full-size synthetic world, or the reduced one in small mode.
pub fn country_config() -> CountryDataConfig {
    if small_mode() {
        CountryDataConfig::small()
    } else {
        CountryDataConfig::default()
    }
}

/// Generate the country dataset used by the reproduction binaries.
pub fn country_data() -> CountryData {
    CountryData::generate(&country_config())
}

/// The occupation-data configuration used by the case-study binary.
pub fn occupation_config() -> OccupationDataConfig {
    if small_mode() {
        OccupationDataConfig::small()
    } else {
        OccupationDataConfig::default()
    }
}

/// Generate the occupation dataset used by the case-study binary.
pub fn occupation_data() -> OccupationData {
    OccupationData::generate(&occupation_config())
}

/// The methods compared by the reproduction binaries: the paper's six in
/// full mode, or the four fast ones in small mode (the structural methods —
/// HSS in particular — are expensive on the larger configuration).
pub fn paper_methods() -> Vec<Method> {
    if small_mode() {
        Method::scalable().to_vec()
    } else {
        Method::all().to_vec()
    }
}

/// Median of `runs` timed executions of `work`, in milliseconds.
pub fn timed_runs(runs: usize, mut work: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The edge shares swept by the coverage and stability reproductions.
pub fn sweep_shares() -> Vec<f64> {
    if small_mode() {
        vec![0.05, 0.2, 0.5]
    } else {
        vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_are_consistent() {
        let config = country_config();
        assert!(config.years >= 2);
        assert!(config.country_count >= 50);
        let shares = sweep_shares();
        assert!(!shares.is_empty());
        assert!(shares.iter().all(|&s| s > 0.0 && s <= 1.0));
    }
}
