//! A concurrent load-test harness for the backboning HTTP server.
//!
//! The harness soaks a running server with `clients × requests_per_client`
//! keep-alive-less requests cycling over a route mix, measures every
//! client-side latency (post-connect: request write → full response read)
//! into the same [`backboning_obs::LatencyHistogram`] the server uses, and
//! then **cross-checks the server's own `/metrics` against what the clients
//! observed**:
//!
//! * per-route request counts must match *exactly* (the server records a
//!   request's metrics before writing its response, so every response a
//!   client finished reading is visible to the next scrape);
//! * responses of deterministic routes must be byte-identical under
//!   concurrency (the scored-graph cache's central guarantee);
//! * the server-reported p50/p90/p99 may not exceed the client-observed
//!   quantile by more than one histogram bucket (server handling time is a
//!   subset of the client round trip, and the shared log-bucketed histogram
//!   overstates a quantile by at most one bucket).
//!
//! Both the `backbone_loadtest` binary (run by `ci.sh` against the smoke
//! server) and `bench_snapshot`'s `server_load` section are thin wrappers
//! around [`run_loadtest`] — one measurement pipeline, two consumers.
//!
//! [`run_churn_soak`] is the dynamic-graph counterpart: writers stream
//! `PATCH` deltas at a graph while readers hammer its backbone route, and
//! every response a reader sees must be byte-identical to the from-scratch
//! output of *some* reachable weight state — the server's generation
//! snapshots make torn reads impossible, and this soak is the end-to-end
//! proof under real concurrency.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use backboning::{apply_batch, Method, Pipeline, ThresholdPolicy};
use backboning_graph::io::{read_edge_list_csr_str, EdgeListOptions};
use backboning_graph::{DeltaBatch, Direction};
use backboning_obs::{bucket_index_micros, HistogramSnapshot, LatencyHistogram};

/// One route of the soak mix.
#[derive(Debug, Clone)]
pub struct LoadTarget {
    /// Request path (with query string) sent to the server.
    pub path: String,
    /// The route label the server files this path under in `/metrics`
    /// (e.g. `/graphs/{name}/backbone` — patterns, not concrete paths).
    pub route: String,
    /// Assert that every response is byte-identical to the first one.
    /// Off for routes whose body legitimately varies (`/health` reports
    /// live cache counters).
    pub expect_identical: bool,
}

/// A full load-test configuration.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Address of the running server.
    pub addr: SocketAddr,
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Requests per client, cycling round-robin over [`LoadtestConfig::targets`].
    pub requests_per_client: usize,
    /// The route mix.
    pub targets: Vec<LoadTarget>,
}

/// Per-route outcome of one soak: client-side latency distribution next to
/// the server-reported quantiles for the same route.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// The server's route label.
    pub route: String,
    /// Requests the clients completed against this route.
    pub requests: u64,
    /// Client-side latency distribution (write → full read).
    pub client: HistogramSnapshot,
    /// Server-reported p50 for this route, in milliseconds.
    pub server_p50_ms: f64,
    /// Server-reported p90 for this route, in milliseconds.
    pub server_p90_ms: f64,
    /// Server-reported p99 for this route, in milliseconds.
    pub server_p99_ms: f64,
}

/// The result of one [`run_loadtest`] soak. Constructed only after every
/// cross-check passed.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Total requests completed across all clients.
    pub total_requests: u64,
    /// Wall time of the soak (first connect to last read), in seconds.
    pub wall_seconds: f64,
    /// Aggregate client-side throughput: `total_requests / wall_seconds`.
    pub rps: f64,
    /// Client-side latency distribution over every request of the soak.
    pub client: HistogramSnapshot,
    /// Per-route breakdown, in route-label order.
    pub routes: Vec<RouteOutcome>,
}

/// Parse the status code off a raw HTTP/1.1 response.
fn status_of(response: &[u8], path: &str) -> Result<u16, String> {
    let head = std::str::from_utf8(response.get(..12).unwrap_or(response))
        .map_err(|_| format!("{path}: non-UTF-8 status line"))?;
    head.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{path}: malformed status line `{head}`"))
}

/// The body of a raw HTTP response (everything after the header separator).
pub fn response_body(response: &[u8]) -> Result<&[u8], String> {
    response
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .map(|at| &response[at + 4..])
        .ok_or_else(|| "response has no header/body separator".to_string())
}

/// One blocking HTTP/1.1 GET over a fresh connection, returning the status
/// code and the full raw response (head + body).
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect {addr} for {path}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: loadtest\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send {path}: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status = status_of(&response, path)?;
    Ok((status, response))
}

/// One blocking HTTP/1.1 request with a body (`POST`, `PATCH`, `DELETE`, …)
/// over a fresh connection, returning the status code and the full raw
/// response (head + body).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
) -> Result<(u16, Vec<u8>), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect {addr} for {path}: {e}"))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: loadtest\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .map_err(|e| format!("send {method} {path}: {e}"))?;
    stream
        .write_all(body)
        .map_err(|e| format!("send {method} {path} body: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    let status = status_of(&response, path)?;
    Ok((status, response))
}

/// The body of a `/metrics?format=json` scrape.
pub fn scrape_metrics_json(addr: SocketAddr) -> Result<String, String> {
    let (status, response) = http_get(addr, "/metrics?format=json")?;
    if status != 200 {
        return Err(format!("/metrics scrape returned {status}"));
    }
    let text = String::from_utf8(response).map_err(|_| "/metrics: non-UTF-8 body".to_string())?;
    let body_at = text
        .find("\r\n\r\n")
        .ok_or_else(|| "/metrics: no header/body separator".to_string())?;
    Ok(text[body_at + 4..].to_string())
}

/// Extract the first number following `"key": ` on `line`.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Total of `http_requests_total` over every status for one GET route in a
/// `/metrics?format=json` body. The obs renderer emits one metric entry per
/// line, so a line filter is a complete parse.
pub fn route_request_count(metrics_json: &str, route: &str) -> u64 {
    route_request_count_by_method(metrics_json, "GET", route)
}

/// [`route_request_count`] for an explicit HTTP method — the churn soak
/// counts `PATCH` traffic separately from the `GET` reader traffic.
pub fn route_request_count_by_method(metrics_json: &str, method: &str, route: &str) -> u64 {
    metrics_json
        .lines()
        .filter(|line| {
            line.contains("\"name\": \"http_requests_total\"")
                && line.contains(&format!("\"method\": \"{method}\""))
                && line.contains(&format!("\"route\": \"{route}\""))
        })
        .filter_map(|line| json_number(line, "value"))
        .sum::<f64>() as u64
}

/// Total of one unlabeled (or label-summed) counter in a
/// `/metrics?format=json` body — e.g. `graph_patches_total`.
pub fn counter_total(metrics_json: &str, name: &str) -> u64 {
    metrics_json
        .lines()
        .filter(|line| line.contains(&format!("\"name\": \"{name}\"")))
        .filter_map(|line| json_number(line, "value"))
        .sum::<f64>() as u64
}

/// The `(count, sum_seconds)` of one GET route's duration histogram in a
/// `/metrics?format=json` body.
pub fn route_duration_seconds(metrics_json: &str, route: &str) -> Option<(u64, f64)> {
    metrics_json
        .lines()
        .find(|line| {
            line.contains("\"name\": \"http_request_duration_seconds\"")
                && line.contains("\"method\": \"GET\"")
                && line.contains(&format!("\"route\": \"{route}\""))
        })
        .and_then(|line| {
            Some((
                json_number(line, "count")? as u64,
                json_number(line, "sum_seconds")?,
            ))
        })
}

/// The server-reported `(p50, p90, p99)` of one GET route's duration
/// histogram, in seconds.
pub fn route_quantiles_seconds(metrics_json: &str, route: &str) -> Option<(f64, f64, f64)> {
    metrics_json
        .lines()
        .find(|line| {
            line.contains("\"name\": \"http_request_duration_seconds\"")
                && line.contains("\"method\": \"GET\"")
                && line.contains(&format!("\"route\": \"{route}\""))
        })
        .and_then(|line| {
            Some((
                json_number(line, "p50_seconds")?,
                json_number(line, "p90_seconds")?,
                json_number(line, "p99_seconds")?,
            ))
        })
}

/// Per-target shared state of one soak.
struct TargetState {
    histogram: LatencyHistogram,
    completed: AtomicU64,
    reference: Mutex<Option<Vec<u8>>>,
}

/// Run the soak and every cross-check; any failed assertion returns `Err`
/// with a message naming the route and the numbers that disagreed.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, String> {
    if config.targets.is_empty() || config.clients == 0 || config.requests_per_client == 0 {
        return Err("loadtest needs at least one target, client and request".to_string());
    }
    let before = scrape_metrics_json(config.addr)?;

    let states: Vec<TargetState> = config
        .targets
        .iter()
        .map(|_| TargetState {
            histogram: LatencyHistogram::new(),
            completed: AtomicU64::new(0),
            reference: Mutex::new(None),
        })
        .collect();
    let overall = LatencyHistogram::new();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());

    let soak_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.clients {
            scope.spawn(|| {
                for index in 0..config.requests_per_client {
                    let target_index = index % config.targets.len();
                    let target = &config.targets[target_index];
                    let state = &states[target_index];
                    let result = (|| -> Result<(), String> {
                        let mut stream = TcpStream::connect(config.addr)
                            .map_err(|e| format!("connect for {}: {e}", target.path))?;
                        let start = Instant::now();
                        write!(
                            stream,
                            "GET {} HTTP/1.1\r\nHost: loadtest\r\nConnection: close\r\n\r\n",
                            target.path
                        )
                        .map_err(|e| format!("send {}: {e}", target.path))?;
                        let mut response = Vec::new();
                        stream
                            .read_to_end(&mut response)
                            .map_err(|e| format!("read {}: {e}", target.path))?;
                        let elapsed = start.elapsed();
                        if !response.starts_with(b"HTTP/1.1 200") {
                            return Err(format!(
                                "{}: non-200 response: {}",
                                target.path,
                                String::from_utf8_lossy(&response[..response.len().min(120)])
                            ));
                        }
                        if target.expect_identical {
                            let mut reference = state.reference.lock().unwrap();
                            match reference.as_ref() {
                                None => *reference = Some(response.clone()),
                                Some(expected) if *expected != response => {
                                    return Err(format!(
                                        "{}: response bytes diverged under load \
                                         ({} vs {} bytes)",
                                        target.path,
                                        expected.len(),
                                        response.len()
                                    ));
                                }
                                Some(_) => {}
                            }
                        }
                        state.histogram.record(elapsed);
                        overall.record(elapsed);
                        state.completed.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })();
                    if let Err(message) = result {
                        failures.lock().unwrap().push(message);
                        break;
                    }
                }
            });
        }
    });
    let wall_seconds = soak_start.elapsed().as_secs_f64();
    let failures = failures.into_inner().unwrap();
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} client failure(s); first: {first}",
            failures.len()
        ));
    }

    let after = scrape_metrics_json(config.addr)?;

    // Group client-side results by route label: several paths may share one
    // route pattern (the server can't tell them apart, so neither do we).
    let mut routes: Vec<RouteOutcome> = Vec::new();
    for (target, state) in config.targets.iter().zip(&states) {
        let snapshot = state.histogram.snapshot();
        let completed = state.completed.load(Ordering::Relaxed);
        match routes.iter_mut().find(|r| r.route == target.route) {
            Some(existing) => {
                existing.requests += completed;
                existing.client.merge(&snapshot);
            }
            None => routes.push(RouteOutcome {
                route: target.route.clone(),
                requests: completed,
                client: snapshot,
                server_p50_ms: 0.0,
                server_p90_ms: 0.0,
                server_p99_ms: 0.0,
            }),
        }
    }
    routes.sort_by(|a, b| a.route.cmp(&b.route));

    for outcome in &mut routes {
        // Exact count cross-check. The pre-soak scrape's own request is
        // recorded before its response is written, so it is part of the
        // after-scrape's `/metrics` count; the after-scrape itself is not.
        let mut expected = outcome.requests;
        if outcome.route == "/metrics" {
            expected += 1;
        }
        let delta = route_request_count(&after, &outcome.route)
            .saturating_sub(route_request_count(&before, &outcome.route));
        if delta != expected {
            return Err(format!(
                "route {}: /metrics counted {delta} request(s), clients completed {expected}",
                outcome.route
            ));
        }

        let (p50, p90, p99) = route_quantiles_seconds(&after, &outcome.route)
            .ok_or_else(|| format!("route {}: no duration histogram in /metrics", outcome.route))?;
        outcome.server_p50_ms = p50 * 1e3;
        outcome.server_p90_ms = p90 * 1e3;
        outcome.server_p99_ms = p99 * 1e3;

        // Quantile cross-check — only when the soak is the route's whole
        // traffic, so both sides rank the same request population. Server
        // handling time is a subset of the client round trip, and each
        // reported quantile overstates its true value by at most one
        // bucket, so the server may lead the client by at most one bucket.
        if route_request_count(&before, &outcome.route) == 0 && outcome.route != "/metrics" {
            for (quantile, server_ms) in [
                (0.5, outcome.server_p50_ms),
                (0.9, outcome.server_p90_ms),
                (0.99, outcome.server_p99_ms),
            ] {
                let client_micros = outcome.client.quantile_micros(quantile);
                let server_micros = (server_ms * 1e3).round() as u64;
                if bucket_index_micros(server_micros) > bucket_index_micros(client_micros) + 1 {
                    return Err(format!(
                        "route {}: server p{} {:.3} ms exceeds the client-side {:.3} ms \
                         by more than one histogram bucket",
                        outcome.route,
                        (quantile * 100.0) as u32,
                        server_ms,
                        client_micros as f64 / 1e3
                    ));
                }
            }
        }
    }

    let total_requests: u64 = states
        .iter()
        .map(|s| s.completed.load(Ordering::Relaxed))
        .sum();
    Ok(LoadtestReport {
        total_requests,
        wall_seconds,
        rps: total_requests as f64 / wall_seconds,
        client: overall.snapshot(),
        routes,
    })
}

impl LoadtestReport {
    /// Render the human-readable soak summary printed by the
    /// `backbone_loadtest` binary.
    pub fn render_table(&self) -> String {
        let ms = |micros: u64| micros as f64 / 1e3;
        let mut out = format!(
            "loadtest: {} requests in {:.3} s = {:.1} req/s\n\
             client latency: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
            self.total_requests,
            self.wall_seconds,
            self.rps,
            ms(self.client.quantile_micros(0.5)),
            ms(self.client.quantile_micros(0.9)),
            ms(self.client.quantile_micros(0.99)),
            ms(self.client.max_micros()),
        );
        for route in &self.routes {
            out.push_str(&format!(
                "  {}: {} requests, client p50 {:.3} ms / server p50 {:.3} ms \
                 (count + quantile cross-checks passed)\n",
                route.route,
                route.requests,
                ms(route.client.quantile_micros(0.5)),
                route.server_p50_ms,
            ));
        }
        out
    }
}

/// Writers in the churn soak. Each writer owns a disjoint set of edges and
/// only ever *reweights* them to absolute values, so any interleaving of
/// writer progress lands on one of `(BATCHES + 1)^2` well-defined weight
/// states.
const CHURN_WRITERS: usize = 2;
/// Sequential delta batches each churn writer applies.
const CHURN_BATCHES: usize = 6;
/// Name the churn soak registers its graph under (replaced on re-runs,
/// deleted on success).
const CHURN_GRAPH: &str = "churn-soak";

/// Configuration of one [`run_churn_soak`]: reader concurrency against a
/// running server. The writer side is fixed (`CHURN_WRITERS` writers ×
/// `CHURN_BATCHES` batches) so the reachable-state enumeration stays
/// exact.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Address of the running server.
    pub addr: SocketAddr,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Backbone requests per reader.
    pub reads_per_reader: usize,
}

/// The result of one [`run_churn_soak`]. Constructed only after every
/// cross-check passed.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Backbone reads completed across all readers.
    pub reads: u64,
    /// PATCH deltas the writers applied.
    pub patches: u64,
    /// Distinct weight states the readers actually observed (≤
    /// [`ChurnReport::reachable_states`]; scheduling-dependent).
    pub states_observed: usize,
    /// Weight states reachable under any writer interleaving.
    pub reachable_states: usize,
    /// The graph's generation after all writers finished.
    pub final_generation: u64,
    /// Wall time of the soak, in seconds.
    pub wall_seconds: f64,
}

impl ChurnReport {
    /// Render the human-readable churn summary printed by the
    /// `backbone_loadtest` binary.
    pub fn render_table(&self) -> String {
        format!(
            "churn soak: {} reads raced against {} PATCH deltas in {:.3} s\n\
               every response was byte-identical to a from-scratch build of its state\n\
               {}/{} reachable states observed, final generation {}, \
             /metrics patch counters match\n\
             churn cross-checks passed\n",
            self.reads,
            self.patches,
            self.wall_seconds,
            self.states_observed,
            self.reachable_states,
            self.final_generation,
        )
    }
}

/// The churn substrate: three stable high-weight edges plus three edges per
/// writer, with base weights matching [`churn_batch_tsv`] at batch 0.
fn churn_base_edges() -> &'static str {
    "s1 s2 100\n\
     s2 s3 90\n\
     s3 s1 80\n\
     a0 b0 10\n\
     a1 b1 11\n\
     a2 b2 12\n\
     c0 d0 50\n\
     c1 d1 51\n\
     c2 d2 52\n"
}

/// The TSV delta a churn writer sends as its `batch`-th PATCH (1-based):
/// absolute reweights of the writer's own three edges, so the weight state
/// after any interleaving is `(batches applied by writer 0, batches applied
/// by writer 1)` — the last batch per writer wins.
fn churn_batch_tsv(writer: usize, batch: usize) -> String {
    let endpoints: [[(&str, &str); 3]; CHURN_WRITERS] = [
        [("a0", "b0"), ("a1", "b1"), ("a2", "b2")],
        [("c0", "d0"), ("c1", "d1"), ("c2", "d2")],
    ];
    let mut text = String::new();
    for (edge, (source, target)) in endpoints[writer].iter().enumerate() {
        let weight = 10 + writer * 40 + batch * 5 + edge;
        text.push_str(&format!("reweight {source} {target} {weight}\n"));
    }
    text
}

/// The backbone query the churn readers poll: TSV output so the body is the
/// exact `write_backbone` byte stream, `top_k=9` so every edge (and thus
/// every reweight) is visible in it.
fn churn_backbone_path() -> String {
    format!("/graphs/{CHURN_GRAPH}/backbone?method=naive&top_k=9&output=backbone&format=tsv")
}

/// Enumerate every reachable weight state `(i, j)` and compute its
/// from-scratch backbone body with the same pipeline the server runs —
/// `apply_batch` + [`Pipeline`] + `write_backbone`, no server involved.
fn churn_expected_bodies() -> Result<HashMap<Vec<u8>, (usize, usize)>, String> {
    let options = EdgeListOptions {
        direction: Direction::Undirected,
        ..Default::default()
    };
    let base = read_edge_list_csr_str(churn_base_edges(), &options)
        .map_err(|e| format!("churn substrate: {e}"))?;
    let method = Method::parse("naive").ok_or("churn: unknown method `naive`")?;
    let pipeline = Pipeline::new(method, ThresholdPolicy::TopK(9));
    let mut bodies = HashMap::new();
    for i in 0..=CHURN_BATCHES {
        for j in 0..=CHURN_BATCHES {
            let mut delta_text = String::new();
            if i > 0 {
                delta_text.push_str(&churn_batch_tsv(0, i));
            }
            if j > 0 {
                delta_text.push_str(&churn_batch_tsv(1, j));
            }
            let graph = if delta_text.is_empty() {
                base.clone()
            } else {
                let batch = DeltaBatch::parse_tsv(&delta_text)
                    .map_err(|e| format!("churn state ({i}, {j}): {e}"))?;
                apply_batch(&base, &batch)
                    .map_err(|e| format!("churn state ({i}, {j}): {e}"))?
                    .0
            };
            let run = pipeline
                .run(&graph)
                .map_err(|e| format!("churn state ({i}, {j}): {e}"))?;
            let mut body = Vec::new();
            run.write_backbone(&graph, &mut body)
                .map_err(|e| format!("churn state ({i}, {j}): {e}"))?;
            bodies.insert(body, (i, j));
        }
    }
    Ok(bodies)
}

/// Soak a running server with concurrent writers PATCHing a graph while
/// readers poll its backbone route, then cross-check everything that must
/// hold if generation snapshots work:
///
/// * every reader response is byte-identical to the from-scratch backbone
///   of **some** reachable weight state — never a torn mix of two deltas;
/// * the final generation equals `upload generation + total patches`;
/// * `/metrics` agrees exactly: `graph_patches_total`, per-op and
///   compaction counters, the PATCH request count on the graph route, and
///   the GET count on the backbone route all match the client side.
pub fn run_churn_soak(config: &ChurnConfig) -> Result<ChurnReport, String> {
    if config.readers == 0 || config.reads_per_reader == 0 {
        return Err("churn soak needs at least one reader and one read".to_string());
    }
    let expected = churn_expected_bodies()?;
    let before = scrape_metrics_json(config.addr)?;

    let upload_path = format!("/graphs/{CHURN_GRAPH}");
    let (status, response) = http_request(
        config.addr,
        "POST",
        &upload_path,
        churn_base_edges().as_bytes(),
        "text/tab-separated-values",
    )?;
    if status != 201 {
        return Err(format!("churn upload returned {status}"));
    }
    let upload_body = String::from_utf8_lossy(response_body(&response)?).to_string();
    let base_generation = upload_body
        .lines()
        .find_map(|line| json_number(line, "generation"))
        .ok_or("churn upload response has no generation")? as u64;

    let backbone_path = churn_backbone_path();
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let observed: Mutex<HashSet<(usize, usize)>> = Mutex::new(HashSet::new());
    let reads_completed = AtomicU64::new(0);

    let soak_start = Instant::now();
    std::thread::scope(|scope| {
        for writer in 0..CHURN_WRITERS {
            scope.spawn({
                let failures = &failures;
                let upload_path = &upload_path;
                move || {
                    for batch in 1..=CHURN_BATCHES {
                        let delta = churn_batch_tsv(writer, batch);
                        let result = http_request(
                            config.addr,
                            "PATCH",
                            upload_path,
                            delta.as_bytes(),
                            "text/tab-separated-values",
                        );
                        match result {
                            Ok((200, _)) => {}
                            Ok((status, response)) => {
                                failures.lock().unwrap().push(format!(
                                    "writer {writer} batch {batch}: PATCH returned {status}: {}",
                                    String::from_utf8_lossy(&response[..response.len().min(200)])
                                ));
                                return;
                            }
                            Err(message) => {
                                failures.lock().unwrap().push(message);
                                return;
                            }
                        }
                        // Spread the batches across the read window so the
                        // readers race real mid-soak generations.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            });
        }
        for _ in 0..config.readers {
            scope.spawn(|| {
                for _ in 0..config.reads_per_reader {
                    let result = (|| -> Result<(), String> {
                        let (status, response) = http_get(config.addr, &backbone_path)?;
                        if status != 200 {
                            return Err(format!("{backbone_path}: status {status}"));
                        }
                        let body = response_body(&response)?;
                        let Some(&state) = expected.get(body) else {
                            return Err(format!(
                                "{backbone_path}: response matches no reachable weight \
                                 state (torn read?): {}",
                                String::from_utf8_lossy(&body[..body.len().min(200)])
                            ));
                        };
                        observed.lock().unwrap().insert(state);
                        reads_completed.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })();
                    if let Err(message) = result {
                        failures.lock().unwrap().push(message);
                        break;
                    }
                }
            });
        }
    });
    let wall_seconds = soak_start.elapsed().as_secs_f64();
    let failures = failures.into_inner().unwrap();
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} churn failure(s); first: {first}",
            failures.len()
        ));
    }

    // The settled state must be the one where both writers finished.
    let (status, response) = http_get(config.addr, &backbone_path)?;
    if status != 200 {
        return Err(format!("churn final read returned {status}"));
    }
    match expected.get(response_body(&response)?) {
        Some(&(CHURN_BATCHES, CHURN_BATCHES)) => {}
        Some(&state) => {
            return Err(format!(
                "churn settled on state {state:?}, expected \
                 ({CHURN_BATCHES}, {CHURN_BATCHES})"
            ))
        }
        None => return Err("churn final body matches no reachable state".to_string()),
    }

    let total_patches = (CHURN_WRITERS * CHURN_BATCHES) as u64;
    let (status, response) = http_get(config.addr, &upload_path)?;
    if status != 200 {
        return Err(format!("churn graph info returned {status}"));
    }
    let info = String::from_utf8_lossy(response_body(&response)?).to_string();
    let final_generation = info
        .lines()
        .find_map(|line| json_number(line, "generation"))
        .ok_or("churn graph info has no generation")? as u64;
    if final_generation != base_generation + total_patches {
        return Err(format!(
            "final generation {final_generation}, expected {} \
             (upload generation {base_generation} + {total_patches} patches)",
            base_generation + total_patches
        ));
    }

    // /metrics must agree exactly with what the clients did.
    let after = scrape_metrics_json(config.addr)?;
    let reads = reads_completed.load(Ordering::Relaxed);
    let checks: [(&str, u64, u64); 5] = [
        (
            "graph_patches_total",
            counter_total(&after, "graph_patches_total")
                .saturating_sub(counter_total(&before, "graph_patches_total")),
            total_patches,
        ),
        (
            "graph_patch_ops_total",
            counter_total(&after, "graph_patch_ops_total")
                .saturating_sub(counter_total(&before, "graph_patch_ops_total")),
            total_patches * 3,
        ),
        (
            "graph_compactions_total",
            counter_total(&after, "graph_compactions_total")
                .saturating_sub(counter_total(&before, "graph_compactions_total")),
            0,
        ),
        (
            "PATCH /graphs/{name}",
            route_request_count_by_method(&after, "PATCH", "/graphs/{name}").saturating_sub(
                route_request_count_by_method(&before, "PATCH", "/graphs/{name}"),
            ),
            total_patches,
        ),
        (
            "GET /graphs/{name}/backbone",
            route_request_count(&after, "/graphs/{name}/backbone")
                .saturating_sub(route_request_count(&before, "/graphs/{name}/backbone")),
            // Every reader request plus the settled-state confirmation read.
            reads + 1,
        ),
    ];
    for (what, got, want) in checks {
        if got != want {
            return Err(format!(
                "churn /metrics cross-check: {what} moved by {got}, clients did {want}"
            ));
        }
    }

    // Leave the server as we found it.
    let (status, _) = http_request(config.addr, "DELETE", &upload_path, b"", "text/plain")?;
    if status != 200 {
        return Err(format!("churn cleanup DELETE returned {status}"));
    }

    let states_observed = observed.into_inner().unwrap().len();
    Ok(ChurnReport {
        reads,
        patches: total_patches,
        states_observed,
        reachable_states: (CHURN_BATCHES + 1) * (CHURN_BATCHES + 1),
        final_generation,
        wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_parsers_extract_counts_and_quantiles() {
        let body = concat!(
            "{\n",
            "  \"counters\": [\n",
            "    { \"name\": \"http_requests_total\", \"labels\": { \"method\": \"GET\", ",
            "\"route\": \"/health\", \"status\": \"200\" }, \"value\": 7 },\n",
            "    { \"name\": \"http_requests_total\", \"labels\": { \"method\": \"GET\", ",
            "\"route\": \"/health\", \"status\": \"400\" }, \"value\": 2 },\n",
            "    { \"name\": \"http_requests_total\", \"labels\": { \"method\": \"POST\", ",
            "\"route\": \"/health\", \"status\": \"200\" }, \"value\": 9 }\n",
            "  ],\n",
            "  \"histograms\": [\n",
            "    { \"name\": \"http_request_duration_seconds\", \"labels\": ",
            "{ \"method\": \"GET\", \"route\": \"/health\" }, \"count\": 9, ",
            "\"sum_seconds\": 0.01, \"p50_seconds\": 0.001024, \"p90_seconds\": 0.002048, ",
            "\"p99_seconds\": 0.004096, \"max_seconds\": 0.005 }\n",
            "  ]\n",
            "}\n"
        );
        // GET statuses sum; the POST line is excluded.
        assert_eq!(route_request_count(body, "/health"), 9);
        assert_eq!(route_request_count(body, "/graphs"), 0);
        assert_eq!(
            route_quantiles_seconds(body, "/health"),
            Some((0.001024, 0.002048, 0.004096))
        );
        assert_eq!(route_quantiles_seconds(body, "/graphs"), None);
        assert_eq!(route_duration_seconds(body, "/health"), Some((9, 0.01)));
    }

    #[test]
    fn method_aware_parsers_split_patch_from_get_traffic() {
        let body = concat!(
            "{\n",
            "    { \"name\": \"http_requests_total\", \"labels\": { \"method\": \"GET\", ",
            "\"route\": \"/graphs/{name}\", \"status\": \"200\" }, \"value\": 4 },\n",
            "    { \"name\": \"http_requests_total\", \"labels\": { \"method\": \"PATCH\", ",
            "\"route\": \"/graphs/{name}\", \"status\": \"200\" }, \"value\": 12 },\n",
            "    { \"name\": \"graph_patches_total\", \"labels\": {}, \"value\": 12 },\n",
            "    { \"name\": \"graph_patch_ops_total\", \"labels\": {}, \"value\": 36 }\n",
            "}\n"
        );
        assert_eq!(
            route_request_count_by_method(body, "PATCH", "/graphs/{name}"),
            12
        );
        assert_eq!(route_request_count(body, "/graphs/{name}"), 4);
        assert_eq!(counter_total(body, "graph_patches_total"), 12);
        assert_eq!(counter_total(body, "graph_patch_ops_total"), 36);
        assert_eq!(counter_total(body, "graph_compactions_total"), 0);
        assert_eq!(
            response_body(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap(),
            b"ok"
        );
    }

    #[test]
    fn every_reachable_churn_state_has_a_distinct_body() {
        // 49 distinct bodies means a reader can always tell exactly which
        // writer-progress state answered it — the soak's membership check
        // is as sharp as the enumeration.
        let bodies = churn_expected_bodies().unwrap();
        assert_eq!(bodies.len(), (CHURN_BATCHES + 1) * (CHURN_BATCHES + 1));
        // The batch generator and the substrate agree at batch 0: applying
        // "batch 0" weights must reproduce the base body.
        let base = read_edge_list_csr_str(
            churn_base_edges(),
            &EdgeListOptions {
                direction: Direction::Undirected,
                ..Default::default()
            },
        )
        .unwrap();
        let run = Pipeline::new(Method::parse("naive").unwrap(), ThresholdPolicy::TopK(9))
            .run(&base)
            .unwrap();
        let mut body = Vec::new();
        run.write_backbone(&base, &mut body).unwrap();
        assert_eq!(bodies.get(&body), Some(&(0, 0)));
    }

    #[test]
    fn empty_configurations_are_rejected() {
        let config = LoadtestConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            clients: 0,
            requests_per_client: 10,
            targets: vec![LoadTarget {
                path: "/health".to_string(),
                route: "/health".to_string(),
                expect_identical: false,
            }],
        };
        assert!(run_loadtest(&config).is_err());
        assert!(run_churn_soak(&ChurnConfig {
            addr: "127.0.0.1:1".parse().unwrap(),
            readers: 0,
            reads_per_reader: 10,
        })
        .is_err());
    }
}
