//! Incremental-rescore benchmark: maintain the `"patch"` section of
//! `BENCH_backbones.json`.
//!
//! One row per (substrate, method): the median wall time of a full
//! from-scratch scoring pass next to the median wall time of
//! [`delta_rescore`] after a small reweight batch, with the speedup between
//! them. Before timing anything the harness asserts the two paths agree
//! bit-for-bit — a fast wrong answer must never make it into the snapshot.
//!
//! Like the `"matrix"` section, rows are upserted through
//! [`crate::section`] (key: substrate × method × batch size × threads), so
//! the `bench_patch` binary can refresh its rows without touching anything
//! else in the document, and `bench_snapshot` carries the section over
//! untouched.

use backboning::{apply_batch, delta_rescore, delta_rescore_in_place, DeltaStrategy, Method};
use backboning_graph::delta::{DeltaOp, DeltaOpKind};
use backboning_graph::{CsrGraph, DeltaBatch};

use crate::section::SectionRow;
use crate::timed_runs;

/// One row of the `"patch"` section.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchRow {
    /// Substrate label (`ba_100k`, …).
    pub substrate: String,
    /// Node count of the substrate.
    pub nodes: usize,
    /// Edge count of the substrate.
    pub edges: usize,
    /// Method cache key (`nt`, `df`, `nc`, …).
    pub method: String,
    /// The method's [`DeltaStrategy`], as a stable label.
    pub strategy: String,
    /// Edges reweighted by the benchmark batch.
    pub batch_edges: usize,
    /// Worker threads both paths ran with.
    pub threads: usize,
    /// Median wall time of a from-scratch scoring pass, in milliseconds.
    pub full_median_ms: f64,
    /// Median wall time of the incremental rescore, in milliseconds.
    pub delta_median_ms: f64,
    /// `full_median_ms / delta_median_ms`.
    pub speedup: f64,
}

/// The stable label of a [`DeltaStrategy`] used in the snapshot rows.
pub fn strategy_name(strategy: DeltaStrategy) -> &'static str {
    match strategy {
        DeltaStrategy::EdgeLocal => "edge-local",
        DeltaStrategy::NodeLocal => "node-local",
        DeltaStrategy::TotalCoupled => "total-coupled",
        DeltaStrategy::Global => "global",
        DeltaStrategy::Invalidate => "invalidate",
    }
}

/// Build the benchmark delta: `batch_edges` reweights spread evenly across
/// the edge-id range (old weight + 1), addressed by the unlabeled graph's
/// numeric node ids.
pub fn reweight_batch(graph: &CsrGraph, batch_edges: usize) -> DeltaBatch {
    let stride = (graph.edge_count() / batch_edges).max(1);
    let ops = (0..batch_edges)
        .filter_map(|k| graph.edge(k * stride))
        .enumerate()
        .map(|(index, edge)| DeltaOp {
            line: index + 1,
            kind: DeltaOpKind::Reweight {
                source: edge.source.to_string(),
                target: edge.target.to_string(),
                weight: edge.weight + 1.0,
            },
        })
        .collect();
    DeltaBatch { ops }
}

/// Measure every method's full-pass vs incremental-rescore wall time on one
/// substrate after a `batch_edges`-edge reweight batch. Fails (rather than
/// recording a row) if the incremental scores are not identical to the
/// from-scratch ones.
pub fn measure_patch_rescore(
    substrate: &str,
    graph: &CsrGraph,
    methods: &[Method],
    batch_edges: usize,
    runs: usize,
    threads: usize,
) -> Result<Vec<PatchRow>, String> {
    let batch = reweight_batch(graph, batch_edges);
    let (patched, effect) = apply_batch(graph, &batch)
        .map_err(|e| format!("{substrate}: applying the benchmark batch: {e}"))?;
    let mut rows = Vec::new();
    for &method in methods {
        let name = method.cache_key();
        let previous = method
            .score_with_threads(graph, threads)
            .map_err(|e| format!("{substrate}/{name}: base scoring: {e}"))?;
        let fresh = method
            .score_with_threads(&patched, threads)
            .map_err(|e| format!("{substrate}/{name}: from-scratch scoring: {e}"))?;
        let incremental = delta_rescore(method, &patched, &previous, &effect, threads)
            .map_err(|e| format!("{substrate}/{name}: incremental rescore: {e}"))?;
        let in_place = delta_rescore_in_place(method, &patched, previous.clone(), &effect, threads)
            .map_err(|e| format!("{substrate}/{name}: in-place rescore: {e}"))?;
        if incremental != fresh || in_place != fresh {
            return Err(format!(
                "{substrate}/{name}: incremental scores differ from from-scratch scoring \
                 — refusing to record a speedup for a wrong answer"
            ));
        }
        let full_median_ms = timed_runs(runs, || {
            let _ = method.score_with_threads(&patched, threads);
        });
        // Time the ownership-threading loop a maintained score state uses:
        // each iteration consumes the state and gets the updated one back
        // (idempotent here — the rescore set is recomputed from the patched
        // graph — so every iteration does the full incremental work).
        let mut state = Some(previous);
        let delta_median_ms = timed_runs(runs, || {
            let next = delta_rescore_in_place(
                method,
                &patched,
                state.take().expect("state is always returned"),
                &effect,
                threads,
            )
            .expect("rescore succeeded above");
            state = Some(next);
        });
        rows.push(PatchRow {
            substrate: substrate.to_string(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            method: name,
            strategy: strategy_name(method.delta_strategy()).to_string(),
            batch_edges,
            threads,
            full_median_ms,
            delta_median_ms,
            speedup: full_median_ms / delta_median_ms,
        });
    }
    Ok(rows)
}

impl SectionRow for PatchRow {
    const SECTION: &'static str = "patch";
    const KEY: &'static [&'static str] = &["substrate", "method", "batch_edges", "threads"];

    fn render(&self) -> String {
        format!(
            "{{\"substrate\": \"{}\", \"nodes\": {}, \"edges\": {}, \"method\": \"{}\", \
             \"strategy\": \"{}\", \"batch_edges\": {}, \"threads\": {}, \
             \"full_median_ms\": {:.3}, \"delta_median_ms\": {:.6}, \"speedup\": {:.1}}}",
            self.substrate,
            self.nodes,
            self.edges,
            self.method,
            self.strategy,
            self.batch_edges,
            self.threads,
            self.full_median_ms,
            self.delta_median_ms,
            self.speedup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::{field, rows, upsert};
    use backboning_graph::generators::barabasi_albert_csr;

    impl PatchRow {
        /// Read a rendered row back (the test oracle for `render`).
        pub(crate) fn parse(line: &str) -> Option<PatchRow> {
            Some(PatchRow {
                substrate: field(line, "substrate")?.to_string(),
                nodes: field(line, "nodes")?.parse().ok()?,
                edges: field(line, "edges")?.parse().ok()?,
                method: field(line, "method")?.to_string(),
                strategy: field(line, "strategy")?.to_string(),
                batch_edges: field(line, "batch_edges")?.parse().ok()?,
                threads: field(line, "threads")?.parse().ok()?,
                full_median_ms: field(line, "full_median_ms")?.parse().ok()?,
                delta_median_ms: field(line, "delta_median_ms")?.parse().ok()?,
                speedup: field(line, "speedup")?.parse().ok()?,
            })
        }
    }

    fn sample_row() -> PatchRow {
        PatchRow {
            substrate: "ba_100k".to_string(),
            nodes: 100_000,
            edges: 299_994,
            method: "nt".to_string(),
            strategy: "edge-local".to_string(),
            batch_edges: 16,
            threads: 1,
            full_median_ms: 15.877,
            delta_median_ms: 0.021,
            speedup: 756.0,
        }
    }

    fn parsed_rows(doc: &str) -> Vec<PatchRow> {
        rows(doc, PatchRow::SECTION)
            .into_iter()
            .map(|line| PatchRow::parse(line).unwrap())
            .collect()
    }

    #[test]
    fn rows_round_trip_through_render_and_parse() {
        let row = sample_row();
        assert_eq!(PatchRow::parse(&row.render()), Some(row));
        assert_eq!(PatchRow::parse("not a row"), None);
    }

    #[test]
    fn section_insert_extract_strip_round_trip() {
        let base = "{\n  \"entries\": [\n    {\"x\": 1}\n  ]\n}\n";
        let rows = vec![sample_row()];
        let with_section = upsert(base, &rows).unwrap();
        assert!(with_section.contains("\"patch\": ["));
        assert_eq!(parsed_rows(&with_section), rows);
        let cut = with_section.find(",\n  \"patch\"").unwrap();
        assert_eq!(format!("{}\n}}\n", &with_section[..cut]), base);
        // Upsert: same key replaces, new key appends.
        let mut faster = sample_row();
        faster.delta_median_ms = 0.01;
        let mut other = sample_row();
        other.method = "df".to_string();
        let merged = upsert(&with_section, &[faster.clone(), other.clone()]).unwrap();
        assert_eq!(parsed_rows(&merged), vec![faster, other]);
    }

    #[test]
    fn measured_rows_pin_bit_identity_on_a_small_substrate() {
        let graph = barabasi_albert_csr(300, 3, 7).unwrap();
        let methods = [
            Method::parse("naive").unwrap(),
            Method::parse("df").unwrap(),
            Method::parse("nc").unwrap(),
        ];
        let rows = measure_patch_rescore("ba_300", &graph, &methods, 16, 1, 1).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].strategy, "edge-local");
        assert_eq!(rows[1].strategy, "node-local");
        assert_eq!(rows[2].strategy, "total-coupled");
        for row in &rows {
            assert_eq!(row.batch_edges, 16);
            assert!(row.full_median_ms > 0.0 && row.delta_median_ms > 0.0);
        }
    }
}
