//! Server-side request metrics and the `/metrics` rendering.
//!
//! All per-request series live in a [`backboning_obs::MetricsRegistry`]
//! owned by [`ServerMetrics`]; recording is lock-free after a series' first
//! registration. Routes are labelled by **pattern** (`/graphs/{name}/…`),
//! never by the concrete graph name, so label cardinality stays bounded no
//! matter what clients request.
//!
//! Exposed series:
//!
//! | name | labels | kind |
//! |---|---|---|
//! | `http_requests_total` | `route`, `method`, `status` | counter |
//! | `http_request_duration_seconds` | `route`, `method` | latency histogram |
//! | `http_requests_in_flight` | — | gauge |
//! | `http_request_bytes_total` | — | counter (request heads + bodies) |
//! | `http_response_bytes_total` | — | counter (response heads + bodies) |
//! | `patch_apply_duration_seconds` | — | latency histogram (a PATCH's apply step: resolve the batch, build the next generation) |
//! | `patch_rescore_duration_seconds` | `method` | latency histogram (one carried method's `delta_rescore` in a PATCH) |
//!
//! The two PATCH series get one sample per committed PATCH (and per
//! carried method): they split the route's latency into the graph step and
//! each rescore. Their `method` label is the CLI name, and only `naive`,
//! `df`, `nc`, `ncb` and `ds` are ever rescored (the rest invalidate), so
//! its values stay bounded. Neither series exists before the first PATCH.
//!
//! The `/metrics` endpoint additionally appends scrape-time samples owned
//! elsewhere: the graph count, the resolved worker-thread count, the
//! registry's scored-edge / compare-report cache counters, two memory
//! gauges, each summed over every registered graph's current generation,
//! and the whole process's resident memory:
//!
//! | name | labels | kind |
//! |---|---|---|
//! | `graph_memory_bytes` | — | gauge (CSR arrays and label table, `CsrGraph::memory_bytes`) |
//! | `score_cache_bytes` | — | gauge (cached score sets, `ScoredEdges::memory_bytes`) |
//! | `process_resident_memory_bytes` | — | gauge (resident set size, `VmRSS` of `/proc/self/status`; omitted off Linux) |
//!
//! The resident set also holds what the two memory gauges do not count —
//! the compare-report cache, allocator slack, the binary — so it reads at
//! least their sum.
//!
//! Requests are recorded **before** their response bytes are written, so a
//! client that has read its response can rely on a subsequent scrape already
//! counting that request — the load-test harness cross-checks its client-side
//! counts against `/metrics` on exactly this guarantee.

use std::sync::Arc;
use std::time::Duration;

use backboning_obs::{Counter, Gauge, MetricsRegistry};

use crate::http::{Request, Response};
use crate::registry::{PatchOutcome, Registry};

/// Route label used for requests that never parsed into a [`Request`].
pub const ROUTE_INVALID: &str = "invalid";

/// The server's request-metric recorder.
pub struct ServerMetrics {
    registry: MetricsRegistry,
    in_flight: Arc<Gauge>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// A fresh recorder with the label-free series pre-registered.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let in_flight = registry.gauge("http_requests_in_flight", &[]);
        let bytes_in = registry.counter("http_request_bytes_total", &[]);
        let bytes_out = registry.counter("http_response_bytes_total", &[]);
        ServerMetrics {
            registry,
            in_flight,
            bytes_in,
            bytes_out,
        }
    }

    /// The gauge of requests currently being handled.
    pub fn in_flight(&self) -> &Arc<Gauge> {
        &self.in_flight
    }

    /// Records one finished request. Must be called before the response is
    /// written to the socket (see the module docs for why).
    pub fn record_request(
        &self,
        route: &str,
        method: &str,
        status: u16,
        elapsed: Duration,
        bytes_in: u64,
        bytes_out: u64,
    ) {
        let status = status.to_string();
        self.registry
            .counter(
                "http_requests_total",
                &[("route", route), ("method", method), ("status", &status)],
            )
            .inc();
        self.registry
            .histogram(
                "http_request_duration_seconds",
                &[("route", route), ("method", method)],
            )
            .record(elapsed);
        self.bytes_in.add(bytes_in);
        self.bytes_out.add(bytes_out);
    }

    /// Records the stage latencies of one committed PATCH: the apply step
    /// and each carried method's rescore, labelled by its CLI name.
    pub fn record_patch(&self, outcome: &PatchOutcome) {
        self.registry
            .histogram("patch_apply_duration_seconds", &[])
            .record(outcome.apply_time);
        for (method, elapsed) in &outcome.rescore_times {
            self.registry
                .histogram(
                    "patch_rescore_duration_seconds",
                    &[("method", method.cli_name())],
                )
                .record(*elapsed);
        }
    }

    /// Renders the `/metrics` body: every request series plus scrape-time
    /// samples for the graph count, worker pool size, memory gauges and
    /// cache counters.
    pub fn render(&self, registry: &Registry, workers: usize, as_json: bool) -> String {
        let mut snapshot = self.registry.snapshot();
        snapshot.push_gauge("graphs_registered", &[], registry.graph_count() as i64);
        snapshot.push_gauge("worker_threads", &[], workers as i64);
        let (graph_bytes, score_bytes) = registry.memory_bytes();
        for (name, bytes) in [
            ("graph_memory_bytes", graph_bytes),
            ("score_cache_bytes", score_bytes),
        ] {
            snapshot.push_gauge(name, &[], i64::try_from(bytes).unwrap_or(i64::MAX));
        }
        if let Some(bytes) = resident_memory_bytes() {
            snapshot.push_gauge(
                "process_resident_memory_bytes",
                &[],
                i64::try_from(bytes).unwrap_or(i64::MAX),
            );
        }
        let counters = registry.cache_counters();
        snapshot.push_counter("score_cache_hits_total", &[], counters.scored_hits);
        snapshot.push_counter("score_cache_misses_total", &[], counters.scored_misses);
        snapshot.push_counter(
            "score_cache_evictions_total",
            &[],
            counters.scored_evictions,
        );
        snapshot.push_counter("compare_cache_hits_total", &[], counters.compare_hits);
        snapshot.push_counter("compare_cache_misses_total", &[], counters.compare_misses);
        snapshot.push_counter(
            "compare_cache_evictions_total",
            &[],
            counters.compare_evictions,
        );
        snapshot.push_counter("graph_patches_total", &[], counters.patches);
        snapshot.push_counter("graph_patch_ops_total", &[], counters.patch_ops);
        snapshot.push_counter("graph_compactions_total", &[], counters.compactions);
        if as_json {
            snapshot.to_json()
        } else {
            snapshot.to_prometheus()
        }
    }
}

/// The process's resident set size in bytes: the `VmRSS` line of
/// `/proc/self/status`, which Linux gives in kB, so no page-size lookup is
/// needed. `None` where that file or line does not exist (off Linux).
fn resident_memory_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?;
    let kib: u64 = value.trim().strip_suffix("kB")?.trim_end().parse().ok()?;
    Some(kib * 1024)
}

/// The bounded-cardinality route label of a parsed request: the matching
/// route pattern, or `"other"` for unrouted paths.
pub fn route_pattern(request: &Request) -> &'static str {
    match request.path_segments().as_slice() {
        ["health"] => "/health",
        ["metrics"] => "/metrics",
        ["graphs"] => "/graphs",
        ["graphs", _] => "/graphs/{name}",
        ["graphs", _, "backbone"] => "/graphs/{name}/backbone",
        ["graphs", _, "compare"] => "/graphs/{name}/compare",
        ["shutdown"] => "/shutdown",
        _ => "other",
    }
}

/// The bounded-cardinality method label: known verbs pass through, anything
/// else collapses to `OTHER` so clients cannot mint label values.
pub fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "PATCH" => "PATCH",
        "DELETE" => "DELETE",
        "PUT" => "PUT",
        "HEAD" => "HEAD",
        _ => "OTHER",
    }
}

/// Dispatches the `/metrics` request itself: Prometheus text by default,
/// JSON with `?format=json`.
pub fn metrics_response(
    metrics: &ServerMetrics,
    registry: &Registry,
    workers: usize,
    request: &Request,
) -> Response {
    match request.query_param("format") {
        None | Some("prometheus") | Some("text") => {
            Response::prometheus(metrics.render(registry, workers, false))
        }
        Some("json") => Response::json(200, metrics.render(registry, workers, true)),
        Some(other) => Response::error(
            400,
            &format!("unknown format `{other}` (expected prometheus or json)"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;

    fn request(raw: &str) -> Request {
        read_request(&mut raw.as_bytes()).unwrap().unwrap()
    }

    #[test]
    fn route_patterns_never_leak_graph_names() {
        for (target, expected) in [
            ("/health", "/health"),
            ("/metrics", "/metrics"),
            ("/graphs", "/graphs"),
            ("/graphs/trade", "/graphs/{name}"),
            (
                "/graphs/trade/backbone?method=nc",
                "/graphs/{name}/backbone",
            ),
            ("/graphs/secret-name/compare", "/graphs/{name}/compare"),
            ("/shutdown", "/shutdown"),
            ("/not/a/route", "other"),
        ] {
            let req = request(&format!("GET {target} HTTP/1.1\r\n\r\n"));
            assert_eq!(route_pattern(&req), expected, "{target}");
        }
    }

    #[test]
    fn method_labels_are_bounded() {
        assert_eq!(method_label("GET"), "GET");
        assert_eq!(method_label("DELETE"), "DELETE");
        assert_eq!(method_label("BREW"), "OTHER");
    }

    #[test]
    fn recorded_requests_show_up_in_both_renderings() {
        let metrics = ServerMetrics::new();
        metrics.record_request("/health", "GET", 200, Duration::from_micros(250), 100, 300);
        metrics.record_request("/health", "GET", 200, Duration::from_micros(400), 100, 300);
        let registry = Registry::new(1);

        let text = metrics.render(&registry, 4, false);
        assert!(text
            .contains("http_requests_total{method=\"GET\",route=\"/health\",status=\"200\"} 2\n"));
        assert!(text.contains("# TYPE http_request_duration_seconds summary\n"));
        assert!(text
            .contains("http_request_duration_seconds_count{method=\"GET\",route=\"/health\"} 2\n"));
        assert!(text.contains("http_request_bytes_total 200\n"));
        assert!(text.contains("http_response_bytes_total 600\n"));
        assert!(text.contains("worker_threads 4\n"));
        assert!(text.contains("graphs_registered 0\n"));
        assert!(text.contains("graph_memory_bytes 0\n"));
        assert!(text.contains("score_cache_bytes 0\n"));
        assert!(text.contains("score_cache_hits_total 0\n"));
        assert_eq!(
            text.contains("\nprocess_resident_memory_bytes "),
            cfg!(target_os = "linux")
        );
        assert!(text.contains("compare_cache_evictions_total 0\n"));

        let json = metrics.render(&registry, 4, true);
        assert!(json.contains("\"name\": \"http_requests_total\""));
        assert!(json.contains("\"count\": 2"));
        assert!(json.ends_with("}\n"));
    }
}
