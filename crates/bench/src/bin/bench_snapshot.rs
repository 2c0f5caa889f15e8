//! Perf smoke snapshot: time every backbone extractor on fixed synthetic
//! substrates and write `BENCH_backbones.json` at the repo root (or the
//! file `BENCH_SNAPSHOT_PATH` names: `ci.sh` runs the smoke into a temp
//! file, so the committed full-scale record is not overwritten).
//!
//! Substrates (fixed seeds, so every run measures the same graphs):
//!
//! * `ba_2000` — Barabási–Albert, 2000 nodes, m = 3 (the scalability wall the
//!   paper hit with the High Salience Skeleton);
//! * `er_2000` — Erdős–Rényi, 2000 nodes, ~6000 weighted edges;
//! * `complete_200` — a dense complete graph where the Doubly-Stochastic
//!   scaling is guaranteed to exist.
//!
//! Besides the six methods, the snapshot times the HSS seed adjacency path
//! against the parallel CSR engine at 4 workers and reports the speedup —
//! the headline number of the "HSS doesn't scale" fix.
//!
//! Since PR 4 the snapshot also measures the HTTP serving subsystem
//! (`backboning_server`) on `ba_2000`: for NC and HSS it records the cold
//! first request (scoring included), the cached-request median and its
//! requests/sec, the in-process pipeline-from-scratch median, and the
//! resulting cache speedup — the "sweeping thresholds costs microseconds"
//! claim, measured end-to-end through real loopback sockets.
//!
//! Since PR 5 the snapshot also times the `backbone compare` evaluation
//! engine (`backboning_eval::Comparison`) on `er_2000`: the cold run (every
//! method scored plus the noise Monte Carlo) against the cache-backed run
//! (`run_with_scores` over pre-scored edges — what the server's
//! `/graphs/{name}/compare` route does after the first request).
//!
//! Since PR 6 the snapshot also measures the compact u32/CSR core at scale:
//! `ba_100k`/`er_100k` (always) and `ba_1m`/`er_1m` (1M nodes, 3M/10M
//! edges; only with `BENCH_SCALE=full`, which is how the committed
//! `BENCH_backbones.json` is produced) are generated straight into
//! [`backboning_graph::CsrGraph`] and scored with the four scalable
//! methods (NT, MST, DF, NC), recording the CSR footprint and the process
//! memory high-water mark (`VmHWM`) alongside each median. The substrates
//! run smallest-first, so each entry's HWM bounds that substrate's peak.
//!
//! Since PR 7 the scalable-method set includes the sampled-root `hss-approx`
//! estimator, so the large substrates carry approximate-HSS rows, and a
//! dedicated `hss` section records (a) the estimator's max per-edge
//! deviation from exact HSS on the 2k substrates next to its 95% Hoeffding
//! union bound, and (b) exact HSS timed at 100k on the unit-weight BA
//! substrate under `BENCH_SCALE=full` — with explicit `"skipped": true`
//! markers where the exact skeleton is deliberately not run. Every
//! `large_substrates` row now also reports its resolved worker count.
//!
//! Since PR 8 the deviation check also covers a community (stochastic
//! block) substrate generated by `backboning_gen`, and the snapshot
//! preserves the `"matrix"` section maintained by the `bench_matrix` binary
//! when it rewrites the file.
//!
//! Since PR 9 the server numbers come from the observability layer itself:
//! cold and cached timings are read back from the server's `/metrics`
//! duration histograms, the cached soaks run through the
//! [`backboning_bench::loadtest`] harness (whose count, byte-identity and
//! quantile cross-checks gate the snapshot), and a new `server_load`
//! section records a concurrent mixed-route soak (rps + client p50/p90/p99).
//!
//! Environment: `BENCH_RUNS` (default 3) timed runs per entry, median
//! reported; `BENCH_SCALE=full` adds the million-node substrates;
//! `BACKBONING_THREADS` steers the auto-threaded entries.

use std::sync::Arc;

use backboning::{HighSalienceSkeleton, Pipeline, ThresholdPolicy};
use backboning_bench::loadtest::{self, LoadTarget, LoadtestConfig};
use backboning_bench::matrix::MatrixRow;
use backboning_bench::patchbench::PatchRow;
use backboning_bench::section::{self, SectionRow};
use backboning_bench::timed_runs;
use backboning_eval::comparison::{Comparison, ComparisonConfig};
use backboning_eval::Method;
use backboning_gen::ScenarioSpec;
use backboning_graph::generators::{
    barabasi_albert, barabasi_albert_csr, complete_graph, erdos_renyi, erdos_renyi_csr,
};
use backboning_graph::{CsrGraph, Direction, WeightedGraph};
use backboning_parallel::available_threads;
use backboning_server::{Server, ServerConfig};

/// One measured snapshot entry.
struct Entry {
    method: &'static str,
    substrate: &'static str,
    nodes: usize,
    edges: usize,
    threads: usize,
    median_ms: f64,
    edges_per_sec: f64,
}

fn entry(
    runs: usize,
    method: &'static str,
    substrate: &'static str,
    graph: &WeightedGraph,
    threads: usize,
    work: impl FnMut(),
) -> Entry {
    let median_ms = timed_runs(runs, work);
    Entry {
        method,
        substrate,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        threads,
        median_ms,
        edges_per_sec: graph.edge_count() as f64 / (median_ms / 1e3),
    }
}

/// One measured entry of the large CSR substrates.
struct LargeEntry {
    method: &'static str,
    substrate: &'static str,
    nodes: usize,
    edges: usize,
    /// Bytes of the flat CSR arrays (offsets, targets, edge ids, weights).
    graph_mib: f64,
    /// The resolved worker count the scoring pass actually used.
    threads: usize,
    median_ms: f64,
    edges_per_sec: f64,
    /// Process `VmHWM` after this measurement, in MiB. The kernel counter
    /// is monotone, so within the smallest-first substrate order each value
    /// is an upper bound on the substrate's true peak.
    peak_rss_mib: f64,
}

/// The process's peak resident set (`VmHWM` from `/proc/self/status`) in
/// MiB; `0.0` where the proc interface is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Score every scalable method on one large CSR substrate, recording the
/// resolved worker count and the memory high-water mark after each timed
/// run.
fn measure_large(
    entries: &mut Vec<LargeEntry>,
    substrate: &'static str,
    graph: &CsrGraph,
    runs: usize,
    default_threads: usize,
) {
    for method in Method::scalable() {
        // NT and MST are single sequential passes regardless of the
        // engine's worker count; the statistical methods auto-thread.
        let threads = if method.is_parameter_free() || method == Method::NaiveThreshold {
            1
        } else {
            default_threads
        };
        let median_ms = timed_runs(runs, || {
            let _ = method.score(graph);
        });
        entries.push(LargeEntry {
            method: method.short_name(),
            substrate,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            graph_mib: graph.memory_bytes() as f64 / (1024.0 * 1024.0),
            threads,
            median_ms,
            edges_per_sec: graph.edge_count() as f64 / (median_ms / 1e3),
            peak_rss_mib: peak_rss_mib(),
        });
    }
}

/// One measured server query: the same (graph, method, policy) asked cold
/// (first request: scoring runs), cached (every later request), and as an
/// in-process pipeline run from scratch for comparison.
struct ServerQuery {
    method: &'static str,
    cold_first_request_ms: f64,
    cached_median_ms: f64,
    cached_rps: f64,
    pipeline_scratch_ms: f64,
    speedup_cached_vs_scratch: f64,
}

/// The route label the server files every backbone query under.
const BACKBONE_ROUTE: &str = "/graphs/{name}/backbone";

/// Bind a fresh ephemeral-port bench server with `graph` registered under
/// `name`.
fn bench_server(name: &str, graph: &WeightedGraph) -> Server {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind the bench server on an ephemeral port");
    server
        .registry()
        .insert(
            name,
            CsrGraph::from_graph(graph).expect("bench graph fits the CSR limits"),
        )
        .expect("register the bench graph");
    server
}

/// Measure the serving subsystem on `graph`: cold vs cached requests for a
/// cheap-to-score method (NC) and an expensive one (HSS), plus an aggregate
/// cached requests/sec under 4 concurrent client threads.
///
/// Since PR 9 every served-request number comes from the same measurement
/// pipeline as the `backbone_loadtest` binary: the cold and cached timings
/// are read back from the server's own `/metrics` duration histogram (so
/// they measure request handling, not loopback overhead), and the
/// concurrent burst is a [`loadtest::run_loadtest`] soak whose count,
/// byte-identity and quantile cross-checks must pass for the snapshot to be
/// written at all. Each method gets a fresh server because both share the
/// `/graphs/{name}/backbone` route label in `/metrics`.
fn measure_server(runs: usize, graph: &WeightedGraph) -> (Vec<ServerQuery>, f64) {
    let mut queries = Vec::new();
    let mut concurrent_rps = 0.0;
    for method in [Method::NoiseCorrected, Method::HighSalienceSkeleton] {
        let cli_name = match method {
            Method::NoiseCorrected => "nc",
            _ => "hss",
        };
        // The same work, in process, re-scoring every time — what each
        // threshold sweep step cost before the scored-graph cache existed.
        let pipeline = Pipeline::new(method, ThresholdPolicy::TopShare(0.2));
        let pipeline_scratch_ms = timed_runs(runs, || {
            let _ = pipeline.run(graph);
        });

        let name = format!("bench_{cli_name}");
        let server = bench_server(&name, graph);
        let addr = server.addr();
        let path =
            format!("/graphs/{name}/backbone?method={cli_name}&top_share=0.2&output=summary");

        // Cold first request (scoring runs), timed by the server's own
        // duration histogram: after exactly one request the histogram sum
        // is that request's handling time.
        let (status, _) = loadtest::http_get(addr, &path).expect("cold bench request");
        assert_eq!(status, 200, "cold bench request failed");
        let scrape = loadtest::scrape_metrics_json(addr).expect("scrape the bench server");
        let (cold_count, cold_sum_seconds) =
            loadtest::route_duration_seconds(&scrape, BACKBONE_ROUTE)
                .expect("cold request histogram");
        assert_eq!(cold_count, 1, "exactly the cold request is recorded");
        let cold_first_request_ms = cold_sum_seconds * 1e3;

        // Cached requests through the loadtest harness (count and
        // byte-identity cross-checks included); the median comes from the
        // server-side histogram, where the single cold request cannot move
        // the p50 of the soak.
        let samples = (runs * 10).max(20);
        let target = LoadTarget {
            path: path.clone(),
            route: BACKBONE_ROUTE.to_string(),
            expect_identical: true,
        };
        let report = loadtest::run_loadtest(&LoadtestConfig {
            addr,
            clients: 1,
            requests_per_client: samples,
            targets: vec![target.clone()],
        })
        .expect("cached soak passes its cross-checks");
        let cached_median_ms = report.routes[0].server_p50_ms;

        queries.push(ServerQuery {
            method: cli_name,
            cold_first_request_ms,
            cached_median_ms,
            cached_rps: 1e3 / cached_median_ms,
            pipeline_scratch_ms,
            speedup_cached_vs_scratch: pipeline_scratch_ms / cached_median_ms,
        });

        // Aggregate cached throughput on the NC server: 4 client threads,
        // 25 requests each, client-side wall clock.
        if method == Method::NoiseCorrected {
            let burst = loadtest::run_loadtest(&LoadtestConfig {
                addr,
                clients: 4,
                requests_per_client: 25,
                targets: vec![target],
            })
            .expect("concurrent soak passes its cross-checks");
            concurrent_rps = burst.rps;
        }
        server.shutdown();
    }
    (queries, concurrent_rps)
}

/// The `server_load` section: a concurrent mixed-route soak against a fresh
/// server, recorded only after the loadtest's count, byte-identity and
/// quantile cross-checks all passed.
struct ServerLoad {
    clients: usize,
    requests_per_client: usize,
    report: loadtest::LoadtestReport,
}

fn measure_server_load(graph: &WeightedGraph) -> ServerLoad {
    let server = bench_server("bench_load", graph);
    let clients = 4;
    let requests_per_client = 50;
    let report = loadtest::run_loadtest(&LoadtestConfig {
        addr: server.addr(),
        clients,
        requests_per_client,
        targets: vec![
            LoadTarget {
                path: "/graphs/bench_load/backbone?method=nc&top_share=0.2&output=summary"
                    .to_string(),
                route: BACKBONE_ROUTE.to_string(),
                expect_identical: true,
            },
            LoadTarget {
                path: "/health".to_string(),
                route: "/health".to_string(),
                expect_identical: false,
            },
        ],
    })
    .expect("server_load soak passes its cross-checks");
    server.shutdown();
    ServerLoad {
        clients,
        requests_per_client,
        report,
    }
}

/// Empirical accuracy of the sampled-root HSS estimator on one substrate
/// where the exact skeleton is affordable: the maximum per-edge absolute
/// deviation between `hss-approx` (at its default roots/seed) and exact
/// HSS, next to the Hoeffding bounds it is supposed to respect.
struct HssDeviation {
    substrate: &'static str,
    edges: usize,
    max_abs_deviation: f64,
    union_bound_95: f64,
}

/// Exact HSS timed at scale — or an explicit skip marker, so a missing
/// number in the snapshot reads as a decision, not an oversight.
enum HssAtScale {
    Measured {
        substrate: &'static str,
        threads: usize,
        median_ms: f64,
        peak_rss_mib: f64,
    },
    Skipped {
        substrate: &'static str,
        reason: &'static str,
    },
}

/// Max per-edge |approx − exact| of the default hss-approx configuration.
fn measure_hss_deviation(substrate: &'static str, graph: &WeightedGraph) -> HssDeviation {
    let Method::HssApprox { roots, seed } = Method::hss_approx_default() else {
        unreachable!("hss_approx_default is the sampled variant");
    };
    let hss = HighSalienceSkeleton::new();
    let exact = hss.score_with_threads(graph, 0).expect("exact HSS scores");
    let approx = hss
        .score_sampled_with_threads(graph, roots, seed, 0)
        .expect("sampled HSS scores");
    let max_abs_deviation = exact
        .iter()
        .zip(approx.iter())
        .map(|(a, b)| (a.score - b.score).abs())
        .fold(0.0, f64::max);
    HssDeviation {
        substrate,
        edges: graph.edge_count(),
        max_abs_deviation,
        union_bound_95: backboning::high_salience::max_salience_error_bound(
            roots,
            graph.edge_count(),
            0.95,
        ),
    }
}

/// Timings of the `backbone compare` evaluation engine on one substrate,
/// with the configuration labels derived from the config that actually ran.
struct CompareTimings {
    methods: String,
    top_share: f64,
    noise: f64,
    resamples: usize,
    cold_ms: f64,
    cached_scores_ms: f64,
}

/// Time the comparison engine cold (every method scored in-run) and with
/// pre-scored edges (the server's scored-edge-cache path).
fn measure_compare(runs: usize, graph: &WeightedGraph) -> CompareTimings {
    let config = ComparisonConfig {
        methods: vec![
            Method::NoiseCorrected,
            Method::DisparityFilter,
            Method::NaiveThreshold,
        ],
        noise_resamples: 4,
        ..ComparisonConfig::default()
    };
    let comparison = Comparison::new(config).expect("bench compare config is valid");
    let cold_ms = timed_runs(runs, || {
        let _ = comparison.run(graph);
    });
    let scored: Vec<(Method, Arc<backboning::ScoredEdges>)> = comparison
        .config()
        .methods
        .iter()
        .map(|&method| {
            (
                method,
                Arc::new(method.score(graph).expect("bench methods score")),
            )
        })
        .collect();
    let cached_scores_ms = timed_runs(runs, || {
        let _ = comparison.run_with_scores(graph, |method| {
            Ok(Arc::clone(
                &scored
                    .iter()
                    .find(|(cached, _)| *cached == method)
                    .expect("pre-scored method")
                    .1,
            ))
        });
    });
    let config = comparison.config();
    CompareTimings {
        methods: config
            .methods
            .iter()
            .map(|m| m.cli_name())
            .collect::<Vec<_>>()
            .join(","),
        top_share: config.top_share,
        noise: config.noise_level,
        resamples: config.noise_resamples,
        cold_ms,
        cached_scores_ms,
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    default_threads: usize,
    entries: &[Entry],
    large: &[LargeEntry],
    hss_speedup: f64,
    server_queries: &[ServerQuery],
    concurrent_rps: f64,
    server_load: &ServerLoad,
    compare: &CompareTimings,
    hss_deviation: &[HssDeviation],
    hss_at_scale: &[HssAtScale],
) -> String {
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"default_threads\": {default_threads},\n"));
    json.push_str(&format!(
        "  \"hss_speedup_4_threads_vs_seed_ba_2000\": {hss_speedup:.3},\n"
    ));
    json.push_str("  \"entries\": [\n");
    for (index, e) in entries.iter().enumerate() {
        let comma = if index + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"method\": \"{}\", \"substrate\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"threads\": {}, \"median_ms\": {:.3}, \"edges_per_sec\": {:.1}}}{}\n",
            e.method, e.substrate, e.nodes, e.edges, e.threads, e.median_ms, e.edges_per_sec, comma
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"large_substrates\": [\n");
    for (index, e) in large.iter().enumerate() {
        let comma = if index + 1 < large.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"method\": \"{}\", \"substrate\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"csr_mib\": {:.1}, \"threads\": {}, \"median_ms\": {:.3}, \
             \"edges_per_sec\": {:.1}, \"peak_rss_mib\": {:.1}}}{}\n",
            e.method,
            e.substrate,
            e.nodes,
            e.edges,
            e.graph_mib,
            e.threads,
            e.median_ms,
            e.edges_per_sec,
            e.peak_rss_mib,
            comma
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"server\": {\n");
    json.push_str("    \"substrate\": \"ba_2000\",\n");
    json.push_str("    \"policy\": \"top_share=0.2, summary output\",\n");
    json.push_str(&format!(
        "    \"cached_concurrent_rps_4_clients\": {concurrent_rps:.1},\n"
    ));
    json.push_str("    \"queries\": [\n");
    for (index, q) in server_queries.iter().enumerate() {
        let comma = if index + 1 < server_queries.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "      {{\"method\": \"{}\", \"cold_first_request_ms\": {:.3}, \
             \"cached_median_ms\": {:.3}, \"cached_rps\": {:.1}, \
             \"pipeline_scratch_ms\": {:.3}, \"speedup_cached_vs_scratch\": {:.1}}}{}\n",
            q.method,
            q.cold_first_request_ms,
            q.cached_median_ms,
            q.cached_rps,
            q.pipeline_scratch_ms,
            q.speedup_cached_vs_scratch,
            comma
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"server_load\": {\n");
    json.push_str("    \"substrate\": \"ba_2000\",\n");
    json.push_str(
        "    \"mix\": \"cached nc backbone summary + /health, alternating, \
         fresh connection per request\",\n",
    );
    let load = &server_load.report;
    let q_ms = |q: f64| load.client.quantile_micros(q) as f64 / 1e3;
    json.push_str(&format!(
        "    \"clients\": {}, \"requests_per_client\": {}, \"total_requests\": {},\n",
        server_load.clients, server_load.requests_per_client, load.total_requests
    ));
    json.push_str(&format!(
        "    \"rps\": {:.1}, \"client_p50_ms\": {:.3}, \"client_p90_ms\": {:.3}, \
         \"client_p99_ms\": {:.3}, \"client_max_ms\": {:.3},\n",
        load.rps,
        q_ms(0.5),
        q_ms(0.9),
        q_ms(0.99),
        load.client.max_micros() as f64 / 1e3
    ));
    json.push_str("    \"metrics_cross_checked\": true,\n");
    json.push_str("    \"routes\": [\n");
    for (index, route) in load.routes.iter().enumerate() {
        let comma = if index + 1 < load.routes.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "      {{\"route\": \"{}\", \"requests\": {}, \"client_p50_ms\": {:.3}, \
             \"server_p50_ms\": {:.3}, \"server_p90_ms\": {:.3}, \"server_p99_ms\": {:.3}}}{}\n",
            route.route,
            route.requests,
            route.client.quantile_micros(0.5) as f64 / 1e3,
            route.server_p50_ms,
            route.server_p90_ms,
            route.server_p99_ms,
            comma
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  },\n");
    json.push_str("  \"compare\": {\n");
    json.push_str("    \"substrate\": \"er_2000\",\n");
    json.push_str(&format!(
        "    \"methods\": \"{}\", \"top_share\": {}, \"noise\": {}, \"resamples\": {},\n",
        compare.methods, compare.top_share, compare.noise, compare.resamples
    ));
    json.push_str(&format!(
        "    \"cold_ms\": {:.3}, \"cached_scores_ms\": {:.3}, \"speedup_cached_vs_cold\": {:.2}\n",
        compare.cold_ms,
        compare.cached_scores_ms,
        compare.cold_ms / compare.cached_scores_ms
    ));
    json.push_str("  },\n");

    let Method::HssApprox { roots, seed } = Method::hss_approx_default() else {
        unreachable!("hss_approx_default is the sampled variant");
    };
    json.push_str("  \"hss\": {\n");
    json.push_str(&format!(
        "    \"approx_roots\": {roots}, \"approx_seed\": {seed},\n"
    ));
    json.push_str(&format!(
        "    \"per_edge_error_bound_95\": {:.6},\n",
        backboning::high_salience::salience_error_bound(roots, 0.95)
    ));
    json.push_str("    \"deviation_vs_exact\": [\n");
    for (index, d) in hss_deviation.iter().enumerate() {
        let comma = if index + 1 < hss_deviation.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "      {{\"substrate\": \"{}\", \"edges\": {}, \"max_abs_deviation\": {:.6}, \
             \"union_bound_95\": {:.6}, \"within_union_bound\": {}}}{}\n",
            d.substrate,
            d.edges,
            d.max_abs_deviation,
            d.union_bound_95,
            d.max_abs_deviation <= d.union_bound_95,
            comma
        ));
    }
    json.push_str("    ],\n");
    json.push_str("    \"exact_at_scale\": [\n");
    for (index, e) in hss_at_scale.iter().enumerate() {
        let comma = if index + 1 < hss_at_scale.len() {
            ","
        } else {
            ""
        };
        match e {
            HssAtScale::Measured {
                substrate,
                threads,
                median_ms,
                peak_rss_mib,
            } => json.push_str(&format!(
                "      {{\"substrate\": \"{substrate}\", \"threads\": {threads}, \
                 \"median_ms\": {median_ms:.3}, \"peak_rss_mib\": {peak_rss_mib:.1}}}{comma}\n"
            )),
            HssAtScale::Skipped { substrate, reason } => json.push_str(&format!(
                "      {{\"substrate\": \"{substrate}\", \"skipped\": true, \
                 \"reason\": \"{reason}\"}}{comma}\n"
            )),
        }
    }
    json.push_str("    ]\n");
    json.push_str("  }\n}\n");
    json
}

fn main() {
    let runs: usize = std::env::var("BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    let default_threads = available_threads();

    let ba_2000 = barabasi_albert(2000, 3, 4242).expect("valid BA parameters");
    let er_2000 =
        erdos_renyi(2000, 6000, 10.0, Direction::Undirected, 99).expect("valid ER parameters");
    let complete_200 = complete_graph(200, 2.0).expect("valid complete-graph parameters");

    let mut entries = Vec::new();
    for (substrate, graph) in [("ba_2000", &ba_2000), ("er_2000", &er_2000)] {
        for method in Method::all() {
            // The dense Sinkhorn normalisation is measured on its own feasible
            // substrate below; a 2000-node dense matrix is not a smoke test.
            if method == Method::DoublyStochastic {
                continue;
            }
            // NT and MST are single sequential passes regardless of the
            // engine's worker count.
            let threads = if method.is_parameter_free() || method == Method::NaiveThreshold {
                1
            } else {
                default_threads
            };
            entries.push(entry(
                runs,
                method.short_name(),
                substrate,
                graph,
                threads,
                || {
                    let _ = method.score(graph);
                },
            ));
        }
    }
    entries.push(entry(
        runs,
        Method::DoublyStochastic.short_name(),
        "complete_200",
        &complete_200,
        default_threads,
        || {
            let _ = Method::DoublyStochastic.score(&complete_200);
        },
    ));

    // The headline comparison: seed adjacency HSS vs the parallel CSR engine.
    let hss = HighSalienceSkeleton::new();
    let seed = entry(runs, "HSS_seed_path", "ba_2000", &ba_2000, 1, || {
        let _ = hss.score_adjacency_reference(&ba_2000);
    });
    let engine = entry(runs, "HSS_csr_4_threads", "ba_2000", &ba_2000, 4, || {
        let _ = hss.score_with_threads(&ba_2000, 4);
    });
    let hss_speedup = seed.median_ms / engine.median_ms;
    entries.push(seed);
    entries.push(engine);

    let (server_queries, concurrent_rps) = measure_server(runs, &ba_2000);
    let server_load = measure_server_load(&ba_2000);
    let compare = measure_compare(runs, &er_2000);

    // Sampled-root accuracy: on the 2k substrates the exact skeleton is
    // affordable, so the estimator's worst per-edge deviation can be put
    // next to its Hoeffding bound.
    // The community substrate comes from the scenario generator; exact HSS
    // needs the adjacency view either way, so the CSR image is converted.
    let sb_2000 = ScenarioSpec::parse("sb:n=2000,b=8,pin=0.01,pout=0.0004,w=lognormal(0,1)")
        .expect("valid SB spec")
        .generate()
        .expect("SB generation succeeds")
        .to_weighted_graph()
        .expect("SB substrate fits the adjacency view");
    let hss_deviation = vec![
        measure_hss_deviation("ba_2000", &ba_2000),
        measure_hss_deviation("er_2000", &er_2000),
        measure_hss_deviation("sb_2000", &sb_2000),
    ];

    // Large CSR substrates, smallest first (VmHWM is monotone). The
    // million-node pair only runs under BENCH_SCALE=full — that mode
    // produces the committed BENCH_backbones.json; the default keeps CI
    // within its smoke budget.
    let full_scale = std::env::var("BENCH_SCALE").as_deref() == Ok("full");
    let mut large = Vec::new();
    let mut hss_at_scale = Vec::new();
    {
        let ba_100k = barabasi_albert_csr(100_000, 3, 4242).expect("valid BA parameters");
        measure_large(&mut large, "ba_100k", &ba_100k, runs, default_threads);
        // Exact HSS is feasible at 100k on the unit-weight BA substrate
        // (the batched-BFS path), but only inside the full-scale budget.
        if full_scale {
            let hss = HighSalienceSkeleton::new();
            let median_ms = timed_runs(1, || {
                let _ = hss.score_with_threads(&ba_100k, 0);
            });
            hss_at_scale.push(HssAtScale::Measured {
                substrate: "ba_100k",
                threads: default_threads,
                median_ms,
                peak_rss_mib: peak_rss_mib(),
            });
        } else {
            hss_at_scale.push(HssAtScale::Skipped {
                substrate: "ba_100k",
                reason: "exact HSS at 100k runs only under BENCH_SCALE=full",
            });
        }
    }
    {
        let er_100k = erdos_renyi_csr(100_000, 300_000, 10.0, Direction::Undirected, 99)
            .expect("valid ER parameters");
        measure_large(&mut large, "er_100k", &er_100k, runs, default_threads);
        hss_at_scale.push(HssAtScale::Skipped {
            substrate: "er_100k",
            reason: "weighted substrate: 100k exact per-root SSSP is out of budget; use hss-approx",
        });
    }
    if full_scale {
        {
            let ba_1m = barabasi_albert_csr(1_000_000, 3, 4242).expect("valid BA parameters");
            measure_large(&mut large, "ba_1m", &ba_1m, 1, default_threads);
        }
        let er_1m = erdos_renyi_csr(1_000_000, 10_000_000, 10.0, Direction::Undirected, 99)
            .expect("valid ER parameters");
        measure_large(&mut large, "er_1m", &er_1m, 1, default_threads);
    }

    let json = render_json(
        default_threads,
        &entries,
        &large,
        hss_speedup,
        &server_queries,
        concurrent_rps,
        &server_load,
        &compare,
        &hss_deviation,
        &hss_at_scale,
    );
    // Resolved at runtime (ci.sh runs from the repo root); override with
    // BENCH_SNAPSHOT_PATH when invoking from elsewhere.
    let path =
        std::env::var("BENCH_SNAPSHOT_PATH").unwrap_or_else(|_| "BENCH_backbones.json".to_string());
    // The "matrix" section is owned by `bench_matrix` and the "patch"
    // section by `bench_patch`; carry their rows over instead of wiping
    // them with the rewrite.
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let json = section::carry_over(&json, &existing, &[MatrixRow::SECTION, PatchRow::SECTION])
        .expect("the rendered snapshot is a JSON object");
    std::fs::write(&path, &json).expect("write BENCH_backbones.json");

    println!("{json}");
    println!("HSS ba_2000: seed path vs CSR engine @4 threads = {hss_speedup:.2}x (target >= 2x)");
    for q in &server_queries {
        println!(
            "server ba_2000 {}: cached query vs pipeline from scratch = {:.1}x (target >= 10x)",
            q.method, q.speedup_cached_vs_scratch
        );
    }
    println!(
        "server_load ba_2000: {} requests across {} clients = {:.1} req/s \
         (all /metrics cross-checks passed)",
        server_load.report.total_requests, server_load.clients, server_load.report.rps
    );
    if let Some(exact_hss) = entries
        .iter()
        .find(|e| e.method == "HSS" && e.substrate == "ba_2000")
    {
        println!(
            "exact HSS ba_2000: {:.1} ms (target <= 86.4 ms, half the 172.8 ms seed-era median)",
            exact_hss.median_ms
        );
    }
    let large_median = |method: &str, substrate: &str| {
        large
            .iter()
            .find(|e| e.method == method && e.substrate == substrate)
            .map(|e| e.median_ms)
    };
    if let (Some(approx), Some(nc)) = (
        large_median("HSSA", "ba_100k"),
        large_median("NC", "ba_100k"),
    ) {
        println!(
            "hss-approx ba_100k: {:.1} ms = {:.1}x NC's {:.1} ms (target <= 10x)",
            approx,
            approx / nc,
            nc
        );
    }
    for d in &hss_deviation {
        println!(
            "hss-approx {}: max per-edge deviation {:.4} vs 95% union bound {:.4} ({})",
            d.substrate,
            d.max_abs_deviation,
            d.union_bound_95,
            if d.max_abs_deviation <= d.union_bound_95 {
                "within bound"
            } else {
                "EXCEEDS bound"
            }
        );
    }
    println!("snapshot written to {path}");
}
