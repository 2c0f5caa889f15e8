//! Refresh the `"patch"` section of `BENCH_backbones.json`: incremental
//! rescoring after a small PATCH batch vs scoring from scratch.
//!
//! ```text
//! cargo run --release -p backboning_bench --bin bench_patch
//! ```
//!
//! The workload is the acceptance scenario of the dynamic-graph work: a
//! 16-edge reweight batch on the 100k-node Barabási–Albert substrate (the
//! same `ba_100k` the `large_substrates` section measures), rescored with
//! `delta_rescore` for one method per [`DeltaStrategy`] tier — `nt`
//! (edge-local), `df` (node-local) and `nc` (total-coupled, an honest ~1×:
//! every NC score couples to the grand total, so the exact incremental path
//! is a full pass by construction). Bit-identity against from-scratch
//! scoring is asserted before any timing is recorded.
//!
//! The section is upserted where it stands (see [`backboning_bench::section`]),
//! so the rest of the snapshot document — including rows measured under
//! `BENCH_SCALE=full` — is preserved verbatim. Environment: `BENCH_RUNS`
//! (default 5) timed runs per cell, median reported.
//!
//! [`DeltaStrategy`]: backboning::DeltaStrategy

use std::path::Path;

use backboning::Method;
use backboning_bench::{patchbench, section};
use backboning_graph::generators::barabasi_albert_csr;

fn main() {
    let runs: usize = std::env::var("BENCH_RUNS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(5);
    let graph = barabasi_albert_csr(100_000, 3, 4242).expect("valid BA parameters");
    let methods = [
        Method::parse("naive").expect("known method"),
        Method::parse("df").expect("known method"),
        Method::parse("nc").expect("known method"),
    ];
    let rows = match patchbench::measure_patch_rescore("ba_100k", &graph, &methods, 16, runs, 1) {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("bench_patch: {message}");
            std::process::exit(1);
        }
    };

    let path = "BENCH_backbones.json";
    if let Err(message) = section::upsert_file(Path::new(path), &rows) {
        eprintln!("bench_patch: {message}");
        std::process::exit(1);
    }

    for row in &rows {
        println!(
            "patch {} {} ({}): full {:.3} ms vs delta {:.3} ms = {:.1}x \
             (16-edge reweight, bit-identical scores)",
            row.substrate,
            row.method,
            row.strategy,
            row.full_median_ms,
            row.delta_median_ms,
            row.speedup
        );
    }
    println!("patch section upserted into {path}");
}
