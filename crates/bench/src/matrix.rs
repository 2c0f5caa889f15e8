//! The scenario × method perf grid behind the `bench_matrix` binary: sweep
//! generated scenarios × methods × a threshold policy and record one
//! structured row per cell in the `"matrix"` section of `BENCH_backbones.json`.
//!
//! Each row carries two kinds of fields:
//!
//! * **Deterministic** — spec string, family, node/edge counts, method
//!   cache key, policy, kept-edge count and an FNV-1a hash of the kept edge
//!   indices. Two runs with the same seed must reproduce these
//!   byte-identically (CI diffs them).
//! * **Run-dependent** — `median_ms` / `edges_per_sec` timings, stripped by
//!   the same `sed` idiom CI already uses for `score_wall_ms`.
//!
//! Rows are upserted through [`crate::section`] (key: spec × method ×
//! policy × threads), so the `bench_matrix` binary can extend the grid
//! incrementally without re-running every cell, and `bench_snapshot`
//! carries the section over when it rewrites the rest of the file.

use std::time::Instant;

use backboning::{Method, Pipeline, ThresholdPolicy};
use backboning_gen::ScenarioSpec;

use crate::section::SectionRow;

/// One swept cell of the scenario × method matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Canonical scenario spec string (the row's substrate cache key).
    pub spec: String,
    /// Family tag of the spec (`ba`/`er`/`geo`/`sb`), for grepping.
    pub family: String,
    /// Node count of the generated substrate.
    pub nodes: usize,
    /// Edge count of the generated substrate.
    pub edges: usize,
    /// Method cache key (`nc`, `hss-approx:roots=256:seed=4242`, …).
    pub method: String,
    /// Threshold policy, rendered as `top_share=0.1`.
    pub policy: String,
    /// Number of edges the backbone kept.
    pub kept_edges: usize,
    /// FNV-1a 64-bit hash over the kept edge-index sequence — the
    /// timing-independent witness that the backbone itself is unchanged.
    pub backbone_hash: String,
    /// Worker threads used for scoring (resolved, never 0).
    pub threads: usize,
    /// Median scoring+selection wall time over the configured runs (ms).
    pub median_ms: f64,
    /// Input-edge throughput at the median (edges / second).
    pub edges_per_sec: f64,
}

/// Configuration of one `bench-matrix` sweep.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Scenarios to sweep (generated once each, shared by all methods).
    pub specs: Vec<ScenarioSpec>,
    /// Methods to run on every scenario.
    pub methods: Vec<Method>,
    /// Share of top-scored edges each backbone keeps.
    pub top_share: f64,
    /// Timed repetitions per cell (the row records the median).
    pub runs: usize,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            specs: default_grid(),
            methods: Method::scalable().to_vec(),
            top_share: 0.1,
            runs: 3,
            threads: 1,
        }
    }
}

/// The committed default grid: 4 families × 2 sizes, each family under a
/// different weight distribution, all on the workspace default seed.
pub fn default_grid() -> Vec<ScenarioSpec> {
    [
        "ba:n=2000,m=3,w=unit,noise=0,seed=4242",
        "ba:n=10000,m=3,w=unit,noise=0,seed=4242",
        "er:n=2000,e=6000,w=uniform(10),noise=0,seed=4242",
        "er:n=10000,e=30000,w=uniform(10),noise=0,seed=4242",
        "geo:n=2000,r=0.04,w=powerlaw(2.5),noise=0,seed=4242",
        "geo:n=10000,r=0.018,w=powerlaw(2.5),noise=0,seed=4242",
        "sb:n=2000,b=8,pin=0.01,pout=0.0004,w=lognormal(0,1),noise=0,seed=4242",
        "sb:n=10000,b=8,pin=0.002,pout=0.00008,w=lognormal(0,1),noise=0,seed=4242",
    ]
    .into_iter()
    .map(|text| ScenarioSpec::parse(text).expect("default grid specs are valid"))
    .collect()
}

/// FNV-1a over the kept edge-index sequence.
fn fnv1a_hash(kept: &[usize]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &index in kept {
        for byte in (index as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Run the sweep: every spec × method cell, `runs` timed repetitions each.
///
/// The kept edge set must be identical across repetitions (scoring is
/// deterministic); a divergence is reported as an error rather than a row.
pub fn run_matrix(config: &MatrixConfig) -> Result<Vec<MatrixRow>, String> {
    if config.specs.is_empty() || config.methods.is_empty() {
        return Err("bench-matrix needs at least one spec and one method".to_string());
    }
    if config.runs == 0 {
        return Err("bench-matrix needs at least one run per cell".to_string());
    }
    let policy = ThresholdPolicy::TopShare(config.top_share);
    let mut rows = Vec::with_capacity(config.specs.len() * config.methods.len());
    for spec in &config.specs {
        let graph = spec
            .generate()
            .map_err(|error| format!("generating `{spec}`: {error}"))?;
        for method in &config.methods {
            let mut timings_ms = Vec::with_capacity(config.runs);
            let mut witness: Option<(usize, String, usize)> = None;
            for _ in 0..config.runs {
                let started = Instant::now();
                let run = Pipeline::new(*method, policy)
                    .with_threads(config.threads)
                    .run(&graph)
                    .map_err(|error| format!("`{spec}` × {method}: {error}"))?;
                timings_ms.push(started.elapsed().as_secs_f64() * 1e3);
                let hash = fnv1a_hash(&run.kept);
                match &witness {
                    None => witness = Some((run.kept.len(), hash, run.threads)),
                    Some((kept_edges, expected, _)) => {
                        if *expected != hash || *kept_edges != run.kept.len() {
                            return Err(format!(
                                "`{spec}` × {method}: kept edge set diverged between runs"
                            ));
                        }
                    }
                }
            }
            let (kept_edges, backbone_hash, threads) = witness.expect("runs >= 1");
            timings_ms.sort_by(|a, b| a.total_cmp(b));
            let median_ms = timings_ms[timings_ms.len() / 2];
            let edges_per_sec = if median_ms > 0.0 {
                graph.edge_count() as f64 / (median_ms / 1e3)
            } else {
                f64::INFINITY
            };
            rows.push(MatrixRow {
                spec: spec.render(),
                family: spec.family.tag().to_string(),
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                method: method.cache_key(),
                policy: format!("top_share={}", config.top_share),
                kept_edges,
                backbone_hash,
                threads,
                median_ms,
                edges_per_sec,
            });
        }
    }
    Ok(rows)
}

impl SectionRow for MatrixRow {
    const SECTION: &'static str = "matrix";
    const KEY: &'static [&'static str] = &["spec", "method", "policy", "threads"];

    fn render(&self) -> String {
        format!(
            "{{\"spec\": \"{}\", \"family\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"method\": \"{}\", \"policy\": \"{}\", \"kept_edges\": {}, \
             \"backbone_hash\": \"{}\", \"threads\": {}, \"median_ms\": {:.3}, \
             \"edges_per_sec\": {:.1}}}",
            self.spec,
            self.family,
            self.nodes,
            self.edges,
            self.method,
            self.policy,
            self.kept_edges,
            self.backbone_hash,
            self.threads,
            self.median_ms,
            self.edges_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::{field, rows, upsert};

    impl MatrixRow {
        /// Read a rendered row back (the test oracle for `render`).
        pub(crate) fn parse(line: &str) -> Option<MatrixRow> {
            Some(MatrixRow {
                spec: field(line, "spec")?.to_string(),
                family: field(line, "family")?.to_string(),
                nodes: field(line, "nodes")?.parse().ok()?,
                edges: field(line, "edges")?.parse().ok()?,
                method: field(line, "method")?.to_string(),
                policy: field(line, "policy")?.to_string(),
                kept_edges: field(line, "kept_edges")?.parse().ok()?,
                backbone_hash: field(line, "backbone_hash")?.to_string(),
                threads: field(line, "threads")?.parse().ok()?,
                median_ms: field(line, "median_ms")?.parse().ok()?,
                edges_per_sec: field(line, "edges_per_sec")?.parse().ok()?,
            })
        }
    }

    fn sample_row() -> MatrixRow {
        MatrixRow {
            spec: "ba:n=2000,m=3,w=unit,noise=0,seed=4242".to_string(),
            family: "ba".to_string(),
            nodes: 2000,
            edges: 5994,
            method: "nc".to_string(),
            policy: "top_share=0.1".to_string(),
            kept_edges: 599,
            backbone_hash: "0123456789abcdef".to_string(),
            threads: 1,
            median_ms: 1.234,
            edges_per_sec: 4857142.9,
        }
    }

    fn parsed_rows(doc: &str) -> Vec<MatrixRow> {
        rows(doc, MatrixRow::SECTION)
            .into_iter()
            .map(|line| MatrixRow::parse(line).unwrap())
            .collect()
    }

    #[test]
    fn row_render_parse_round_trip() {
        let row = sample_row();
        assert_eq!(MatrixRow::parse(&row.render()), Some(row));
        assert_eq!(MatrixRow::parse("not a row"), None);
    }

    #[test]
    fn section_insert_extract_strip_round_trip() {
        let base = "{\n  \"entries\": [\n    {\"a\": 1}\n  ]\n}\n";
        let mut second = sample_row();
        second.method = "df".to_string();
        let rows = vec![sample_row(), second];

        let with_section = upsert(base, &rows).unwrap();
        assert!(with_section.contains("\"matrix\": ["));
        assert_eq!(parsed_rows(&with_section), rows);
        // The section is the document's last key: strip it and the rest is
        // the base document.
        let cut = with_section.find(",\n  \"matrix\"").unwrap();
        assert_eq!(format!("{}\n}}\n", &with_section[..cut]), base);
        assert!(parsed_rows(base).is_empty());
    }

    #[test]
    fn with_matrix_section_replaces_existing_rows() {
        let base = "{\n  \"entries\": []\n}\n";
        let first = upsert(base, &[sample_row()]).unwrap();
        let mut updated = sample_row();
        updated.kept_edges = 42;
        let second = upsert(&first, &[updated.clone()]).unwrap();
        assert_eq!(parsed_rows(&second), vec![updated]);
        assert_eq!(second.matches("\"matrix\"").count(), 1);
    }

    #[test]
    fn merge_rows_upserts_by_cell_key() {
        let mut replacement = sample_row();
        replacement.median_ms = 9.999;
        let mut other = sample_row();
        other.method = "mst".to_string();
        let mut other_threads = sample_row();
        other_threads.threads = 2;

        let first = upsert("{\n}\n", &[sample_row()]).unwrap();
        let merged = upsert(
            &first,
            &[replacement.clone(), other.clone(), other_threads.clone()],
        );
        assert_eq!(
            parsed_rows(&merged.unwrap()),
            vec![replacement, other, other_threads]
        );
    }

    #[test]
    fn default_grid_covers_four_families_and_two_sizes() {
        let grid = default_grid();
        assert_eq!(grid.len(), 8);
        for tag in ["ba", "er", "geo", "sb"] {
            let sizes: Vec<usize> = grid
                .iter()
                .filter(|spec| spec.family.tag() == tag)
                .map(|spec| spec.nodes)
                .collect();
            assert_eq!(sizes, vec![2000, 10000], "family {tag}");
        }
    }

    #[test]
    fn run_matrix_produces_deterministic_rows() {
        let config = MatrixConfig {
            specs: vec![ScenarioSpec::parse("ba:n=300,m=3,seed=1").unwrap()],
            methods: vec![Method::NoiseCorrected, Method::DisparityFilter],
            top_share: 0.2,
            runs: 2,
            threads: 1,
        };
        let first = run_matrix(&config).unwrap();
        let second = run_matrix(&config).unwrap();
        assert_eq!(first.len(), 2);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.method, b.method);
            assert_eq!(a.kept_edges, b.kept_edges);
            assert_eq!(a.backbone_hash, b.backbone_hash);
            assert!(a.kept_edges > 0);
        }
    }

    #[test]
    fn run_matrix_rejects_empty_configs() {
        let mut config = MatrixConfig::default();
        config.methods.clear();
        assert!(run_matrix(&config).is_err());
    }
}
