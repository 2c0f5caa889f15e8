//! Route dispatch: one parsed [`Request`] in, one [`Response`] out.
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /health` | liveness, graph count, worker count, cache hit/miss/eviction counters |
//! | `GET /metrics` | Prometheus text exposition (or `?format=json`) of all request/cache metrics |
//! | `GET /graphs` | list registered graphs |
//! | `GET /graphs/{name}` | one graph's size, direction and cached methods |
//! | `POST /graphs/{name}` | upload an edge list body, register it as `{name}` |
//! | `PATCH /graphs/{name}` | apply a batched delta (TSV or JSON body), publish generation + 1 |
//! | `DELETE /graphs/{name}` | unregister a graph |
//! | `GET /graphs/{name}/backbone` | run the pipeline (cache-backed) and return backbone / scores / summary |
//! | `GET /graphs/{name}/compare` | matched-coverage method comparison (cache-backed), stable JSON |
//! | `POST /shutdown` | stop accepting and drain the worker pool |
//!
//! Each route reads a fixed set of query parameters (none, for most): any
//! other name, or a name given twice, is a 400 that names it and lists
//! what the route accepts, before the route does anything.
//!
//! The backbone route takes `method=` (required; any CLI method name) and
//! exactly one threshold-policy parameter (`threshold=`, `top_k=`,
//! `top_share=`, `coverage=`). `hss_roots=` / `hss_seed=` tune the sampled
//! `hss-approx` estimator (rejected alongside any other method). Plus
//! `output=backbone|scores|summary` and
//! `format=tsv|json` (default: TSV for backbone/scores, JSON for summary;
//! an `Accept: application/json` header also selects JSON). Responses are
//! produced by the same writers as the `backbone` CLI, so the two surfaces
//! emit identical bytes — and because scored edges are cached and wall time
//! is excluded from the served summary, a cache-hit response is
//! byte-identical to the cold one.
//!
//! The compare route takes `methods=` (comma-separated CLI names or `all`;
//! default `nc,df,hss`), `top_share=`, `noise=`, `resamples=`, `seed=` and
//! the `hss_roots=` / `hss_seed=` sampling parameters, mirroring the
//! defaults of `backbone compare` — the body is the stable report of
//! `backbone compare … -o json` on the same graph, minus the CLI's
//! per-method `score_wall_ms` timing field (a cached body must be
//! byte-identical to a cold one). Base scoring
//! goes through the scored-edge cache ([`Registry::scored`]), so an
//! N-method comparison costs at most N scoring passes ever, and the
//! finished report — a pure function of `(graph, config)` — is cached per
//! graph, so only the *first* request for a configuration pays the noise
//! Monte Carlo. See `docs/API.md` for the full reference.

use std::borrow::Cow;
use std::sync::Arc;

use backboning::json::{self, JsonArray, JsonObject};
use backboning::{Method, Pipeline, PipelineRun, ThresholdPolicy};
use backboning_eval::comparison;
use backboning_graph::io::read_edge_list_csr_named;
use backboning_graph::{CsrGraph, Direction, GraphError, NodeId};

use crate::http::{Request, Response};
use crate::metrics::{metrics_response, ServerMetrics};
use crate::patch::parse_delta_body;
use crate::registry::{valid_graph_name, GraphEntry, Registry};
use crate::server::ServerControl;

/// Dispatch one request against the registry, possibly signalling shutdown.
pub fn handle(
    registry: &Registry,
    control: &ServerControl,
    metrics: &ServerMetrics,
    request: &Request,
) -> Response {
    let segments = request.path_segments();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["health"]) => route(request, &[], || health(registry, control)),
        ("GET", ["metrics"]) => route(request, &["format"], || {
            metrics_response(metrics, registry, control.workers(), request)
        }),
        ("GET", ["graphs"]) => route(request, &[], || list_graphs(registry)),
        ("GET", ["graphs", name]) => route(request, &[], || graph_info(registry, name)),
        ("POST", ["graphs", name]) => route(request, &UPLOAD_PARAMS, || {
            upload_graph(registry, name, request)
        }),
        ("PATCH", ["graphs", name]) => route(request, &[], || {
            patch_graph(registry, metrics, name, request)
        }),
        ("DELETE", ["graphs", name]) => route(request, &[], || delete_graph(registry, name)),
        ("GET", ["graphs", name, "backbone"]) => route(request, &BACKBONE_PARAMS, || {
            backbone(registry, name, request)
        }),
        ("GET", ["graphs", name, "compare"]) => route(request, &COMPARE_PARAMS, || {
            compare(registry, name, request)
        }),
        ("POST", ["shutdown"]) => route(request, &[], || {
            control.request_shutdown();
            let mut body = JsonObject::pretty();
            body.string("status", "shutting down");
            Response::json(200, finish_line(&mut body))
        }),
        // Known paths hit with the wrong verb get a 405 rather than a 404.
        (
            _,
            ["health"]
            | ["metrics"]
            | ["graphs"]
            | ["graphs", _]
            | ["graphs", _, "backbone"]
            | ["graphs", _, "compare"]
            | ["shutdown"],
        ) => Response::error(405, &format!("method {} not allowed here", request.method)),
        _ => Response::error(404, &format!("no route for {}", request.path)),
    }
}

/// The query parameters the upload route reads.
const UPLOAD_PARAMS: [&str; 3] = ["direction", "header", "separator"];

/// The query parameters the backbone route reads.
const BACKBONE_PARAMS: [&str; 9] = [
    "method",
    "threshold",
    "top_k",
    "top_share",
    "coverage",
    "output",
    "format",
    "hss_roots",
    "hss_seed",
];

/// The query parameters the compare route reads.
const COMPARE_PARAMS: [&str; 7] = [
    "methods",
    "top_share",
    "noise",
    "resamples",
    "seed",
    "hss_roots",
    "hss_seed",
];

/// Answer a routed request with `answer` if every query parameter names
/// one of the `accepted` parameters, each given once. Any other name, or a
/// name given twice, is a 400 naming it and listing what the route
/// accepts: a misspelt name would otherwise be dropped silently, and of a
/// repeated one only the last value would count.
fn route(request: &Request, accepted: &[&str], answer: impl FnOnce() -> Response) -> Response {
    let accepts = || match accepted {
        [] => "this route accepts no query parameters".to_string(),
        _ => format!("this route accepts {}", accepted.join(", ")),
    };
    for (index, (name, _)) in request.query.iter().enumerate() {
        if !accepted.contains(&name.as_str()) {
            let message = format!("unknown query parameter `{name}` ({})", accepts());
            return Response::error(400, &message);
        }
        if request.query[..index]
            .iter()
            .any(|(earlier, _)| earlier == name)
        {
            let message = format!(
                "query parameter `{name}` is given more than once ({}, each once)",
                accepts()
            );
            return Response::error(400, &message);
        }
    }
    answer()
}

/// Finish a pretty JSON object with a trailing newline (curl-friendly).
fn finish_line(object: &mut JsonObject) -> String {
    let mut body = object.finish();
    body.push('\n');
    body
}

fn health(registry: &Registry, control: &ServerControl) -> Response {
    let counters = registry.cache_counters();
    let mut scored = JsonObject::inline();
    scored
        .u64("hits", counters.scored_hits)
        .u64("misses", counters.scored_misses)
        .u64("evictions", counters.scored_evictions);
    let mut compare = JsonObject::inline();
    compare
        .u64("hits", counters.compare_hits)
        .u64("misses", counters.compare_misses)
        .u64("evictions", counters.compare_evictions);
    let mut cache = JsonObject::inline();
    cache
        .raw("scored", &scored.finish())
        .raw("compare", &compare.finish());
    let mut body = JsonObject::pretty();
    body.string("status", "ok")
        .usize("graphs", registry.graph_count())
        .usize("workers", control.workers())
        .raw("cache", &cache.finish());
    Response::json(200, finish_line(&mut body))
}

fn graph_json(entry: &GraphEntry) -> String {
    // One snapshot for the whole document: size, generation and cached
    // methods always describe the same published state.
    let state = entry.snapshot();
    let mut methods = JsonArray::new();
    for name in state.cached_methods() {
        methods.string(&name);
    }
    let mut object = JsonObject::inline();
    object
        .string("name", entry.name())
        .usize("nodes", state.graph().node_count())
        .usize("edges", state.graph().edge_count())
        .string("direction", direction_name(state.graph().direction()))
        .u64("generation", state.generation())
        .raw("cached_methods", &methods.finish());
    object.finish()
}

fn direction_name(direction: Direction) -> &'static str {
    match direction {
        Direction::Directed => "directed",
        Direction::Undirected => "undirected",
    }
}

fn list_graphs(registry: &Registry) -> Response {
    let mut graphs = JsonArray::new();
    for entry in registry.list() {
        graphs.raw(&graph_json(&entry));
    }
    let mut body = JsonObject::pretty();
    body.usize("count", registry.graph_count())
        .raw("graphs", &graphs.finish());
    Response::json(200, finish_line(&mut body))
}

fn graph_info(registry: &Registry, name: &str) -> Response {
    match registry.get(name) {
        Some(entry) => Response::json(200, format!("{}\n", graph_json(&entry))),
        None => Response::error(404, &format!("no graph named `{name}`")),
    }
}

fn upload_graph(registry: &Registry, name: &str, request: &Request) -> Response {
    if !valid_graph_name(name) {
        return Response::error(
            400,
            &format!("invalid graph name `{name}` (use [A-Za-z0-9._-])"),
        );
    }
    let options = match registry_upload_options(request) {
        Ok(options) => options,
        Err(message) => return Response::error(400, &message),
    };
    let source_name = format!("<upload {name}>");
    // Uploads stream straight into the CSR builder; oversized inputs (past
    // the u32 node/offset range) surface as a structured 400, not a panic.
    let graph = match read_edge_list_csr_named(request.body.as_slice(), &options, &source_name) {
        Ok(graph) => graph,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    match registry.insert(name, graph) {
        Ok(entry) => Response::json(201, format!("{}\n", graph_json(&entry))),
        Err(message) => Response::error(400, &message),
    }
}

/// Upload parsing options from query parameters: `direction=directed|
/// undirected` (default undirected — the common case for backboning),
/// `header=1|true|0|false` (default off) and `separator=C`. Any other value
/// is refused with a message naming the parameter and what it accepts.
fn registry_upload_options(
    request: &Request,
) -> Result<backboning_graph::io::EdgeListOptions, String> {
    let direction = match request.query_param("direction") {
        None | Some("undirected") => Direction::Undirected,
        Some("directed") => Direction::Directed,
        Some(other) => {
            return Err(format!(
                "direction: expected directed or undirected, got `{other}`"
            ))
        }
    };
    let has_header = match request.query_param("header") {
        None | Some("0" | "false") => false,
        Some("1" | "true") => true,
        Some(other) => {
            return Err(format!(
                "header: expected 1, true, 0 or false, got `{other}`"
            ))
        }
    };
    let separator = match request.query_param("separator") {
        None => None,
        Some(value) => {
            let mut chars = value.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Some(c),
                _ => {
                    return Err(format!(
                        "separator: expected a single character, got `{value}`"
                    ))
                }
            }
        }
    };
    Ok(backboning_graph::io::EdgeListOptions {
        direction,
        separator,
        has_header,
        ..Default::default()
    })
}

/// `PATCH /graphs/{name}`: apply a batched delta and publish the next
/// generation. The body is TSV (`add SRC TGT W` / `remove SRC TGT` /
/// `reweight SRC TGT W`, one per line) or JSON (`{"ops": […]}` with
/// `Content-Type: application/json`). Validation is transactional — any bad
/// op rejects the whole batch with a line- or op-numbered 400 and the graph
/// stays at its current generation. A delta that would push the graph past
/// the compact core's `u32` capacity is a structured 400
/// (`"kind": "capacity_exceeded"`), never a panic.
fn patch_graph(
    registry: &Registry,
    metrics: &ServerMetrics,
    name: &str,
    request: &Request,
) -> Response {
    let Some(entry) = registry.get(name) else {
        return Response::error(404, &format!("no graph named `{name}`"));
    };
    let batch = match parse_delta_body(request) {
        Ok(batch) => batch,
        Err(message) => return Response::error(400, &message),
    };
    if batch.is_empty() {
        return Response::error(400, "delta batch is empty (nothing to apply)");
    }
    match registry.patch(&entry, &batch) {
        Ok(outcome) => {
            metrics.record_patch(&outcome);
            let mut applied = JsonObject::inline();
            applied
                .usize("added", outcome.effect.added)
                .usize("removed", outcome.effect.removed)
                .usize("reweighted", outcome.effect.reweighted);
            let mut methods = JsonArray::new();
            for key in &outcome.rescored_methods {
                methods.string(key);
            }
            let mut body = JsonObject::pretty();
            body.string("name", entry.name())
                .usize("nodes", outcome.nodes)
                .usize("edges", outcome.edges)
                .string("direction", direction_name(entry.graph().direction()))
                .u64("generation", outcome.generation)
                .raw("applied", &applied.finish())
                .bool("compacted", outcome.compacted)
                .raw("rescored_methods", &methods.finish());
            Response::json(200, finish_line(&mut body))
        }
        Err(GraphError::CapacityExceeded {
            what,
            requested,
            limit,
        }) => {
            // Structured so clients can distinguish "your delta is too big
            // for the compact core" from a malformed batch.
            let mut body = JsonObject::pretty();
            body.usize("status", 400)
                .string(
                    "error",
                    &format!(
                        "delta exceeds the compact core's capacity: {requested} {what} (limit {limit})"
                    ),
                )
                .string("kind", "capacity_exceeded")
                .string("what", what)
                .u64("requested", requested)
                .u64("limit", limit);
            Response::json(400, finish_line(&mut body))
        }
        Err(err) => Response::error(400, &err.to_string()),
    }
}

fn delete_graph(registry: &Registry, name: &str) -> Response {
    if registry.remove(name) {
        let mut body = JsonObject::pretty();
        body.string("deleted", name);
        Response::json(200, finish_line(&mut body))
    } else {
        Response::error(404, &format!("no graph named `{name}`"))
    }
}

/// What the backbone route returns: mirrors the CLI's `-o` kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    Backbone,
    Scores,
    Summary,
}

fn parse_policy(request: &Request) -> Result<ThresholdPolicy, String> {
    let number = |key: &str, value: &str| {
        value
            .parse::<f64>()
            .map_err(|_| format!("{key}: cannot parse `{value}` as a number"))
    };
    // A name given twice never reaches this point (see `route`); two
    // different policy names are refused like two CLI policy flags.
    let mut policies = Vec::new();
    for (key, value) in &request.query {
        policies.push(match key.as_str() {
            "threshold" => ThresholdPolicy::Score(number(key, value)?),
            "top_k" => ThresholdPolicy::TopK(
                value
                    .parse()
                    .map_err(|_| format!("top_k: cannot parse `{value}` as an integer"))?,
            ),
            "top_share" => ThresholdPolicy::TopShare(number(key, value)?),
            "coverage" => ThresholdPolicy::Coverage(number(key, value)?),
            _ => continue,
        });
    }
    match policies.as_slice() {
        [policy] => {
            policy.validate().map_err(|e| e.to_string())?;
            Ok(*policy)
        }
        [] => Err(
            "exactly one policy parameter (threshold, top_k, top_share, coverage) is required"
                .to_string(),
        ),
        _ => Err("exactly one policy parameter may be given".to_string()),
    }
}

fn parse_output(request: &Request) -> Result<Output, String> {
    match request.query_param("output") {
        None | Some("backbone") => Ok(Output::Backbone),
        Some("scores") => Ok(Output::Scores),
        Some("summary") => Ok(Output::Summary),
        Some(other) => Err(format!(
            "unknown output kind `{other}` (expected backbone, scores or summary)"
        )),
    }
}

/// Whether to render the selected output as JSON (`format=json`, or an
/// `Accept: application/json` header; summaries are always JSON).
fn wants_json(request: &Request, output: Output) -> Result<bool, String> {
    match request.query_param("format") {
        Some("json") => Ok(true),
        Some("tsv") => Ok(false),
        Some(other) => Err(format!("unknown format `{other}` (expected tsv or json)")),
        None => Ok(output == Output::Summary || request.accepts_json()),
    }
}

/// Apply the `hss_roots`/`hss_seed` query parameters to a parsed method.
/// They are only meaningful for `hss-approx`: giving either alongside any
/// other method is an error, matching the CLI's flag scoping (a silently
/// ignored sampling parameter would mislabel the response).
fn apply_hss_params(method: Method, request: &Request) -> Result<Method, String> {
    let roots = request
        .query_param("hss_roots")
        .map(|value| {
            value
                .parse::<usize>()
                .map_err(|_| format!("hss_roots: cannot parse `{value}` as an integer"))
        })
        .transpose()?;
    let seed = request
        .query_param("hss_seed")
        .map(|value| {
            value
                .parse::<u64>()
                .map_err(|_| format!("hss_seed: cannot parse `{value}` as an integer"))
        })
        .transpose()?;
    match method {
        Method::HssApprox {
            roots: default_roots,
            seed: default_seed,
        } => Ok(Method::HssApprox {
            roots: roots.unwrap_or(default_roots),
            seed: seed.unwrap_or(default_seed),
        }),
        _ if roots.is_some() || seed.is_some() => {
            Err("hss_roots/hss_seed apply only to the hss-approx method".to_string())
        }
        _ => Ok(method),
    }
}

fn backbone(registry: &Registry, name: &str, request: &Request) -> Response {
    let Some(entry) = registry.get(name) else {
        return Response::error(404, &format!("no graph named `{name}`"));
    };
    let Some(method_name) = request.query_param("method") else {
        return Response::error(400, "the `method` parameter is required");
    };
    let Some(method) = Method::parse(method_name) else {
        return Response::error(
            400,
            &format!(
                "unknown method `{method_name}` (expected one of: {})",
                Method::NAMES
            ),
        );
    };
    let method = match apply_hss_params(method, request) {
        Ok(method) => method,
        Err(message) => return Response::error(400, &message),
    };
    if let Err(err) = method.validate() {
        return Response::error(400, &err.to_string());
    }
    let policy = match parse_policy(request) {
        Ok(policy) => policy,
        Err(message) => return Response::error(400, &message),
    };
    let output = match parse_output(request) {
        Ok(output) => output,
        Err(message) => return Response::error(400, &message),
    };
    let as_json = match wants_json(request, output) {
        Ok(as_json) => as_json,
        Err(message) => return Response::error(400, &message),
    };

    // One snapshot for the whole request: graph and scores come from the
    // same generation even if a PATCH lands mid-flight. The cache-backed
    // hot path scores at most once per (generation, method); every policy
    // re-selects over the borrowed scores.
    let state = entry.snapshot();
    let scored = match registry.scored_state(&state, method) {
        Ok(scored) => scored,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    let run = match Pipeline::new(method, policy)
        .with_threads(registry.threads())
        .run_with_scores(state.graph().as_ref(), scored)
    {
        Ok(run) => run,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    render(&entry, state.graph(), &run, output, as_json)
}

/// Parse the comparison configuration from the request's query parameters,
/// starting from the `backbone compare` defaults so the two surfaces agree.
fn parse_compare_config(
    request: &Request,
    threads: usize,
) -> Result<comparison::ComparisonConfig, String> {
    let mut config = comparison::ComparisonConfig {
        threads,
        ..comparison::ComparisonConfig::default()
    };
    if let Some(spec) = request.query_param("methods") {
        config.methods = comparison::parse_method_list(spec)?;
    }
    let number = |name: &'static str| -> Result<Option<f64>, String> {
        request
            .query_param(name)
            .map(|value| {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("{name}: cannot parse `{value}` as a number"))
            })
            .transpose()
    };
    if let Some(value) = number("top_share")? {
        config.top_share = value;
    }
    if let Some(value) = number("noise")? {
        config.noise_level = value;
    }
    if let Some(value) = request.query_param("resamples") {
        config.noise_resamples = value
            .parse()
            .map_err(|_| format!("resamples: cannot parse `{value}` as an integer"))?;
    }
    if let Some(value) = request.query_param("seed") {
        config.seed = value
            .parse()
            .map_err(|_| format!("seed: cannot parse `{value}` as an integer"))?;
    }
    // Sampling parameters patch every hss-approx entry of the method list;
    // without one in the list they are rejected, mirroring the CLI.
    let has_hss_approx = config
        .methods
        .iter()
        .any(|method| matches!(method, Method::HssApprox { .. }));
    if !has_hss_approx
        && (request.query_param("hss_roots").is_some() || request.query_param("hss_seed").is_some())
    {
        return Err("hss_roots/hss_seed apply only when `methods` includes hss-approx".to_string());
    }
    for method in &mut config.methods {
        if matches!(method, Method::HssApprox { .. }) {
            *method = apply_hss_params(*method, request)?;
        }
    }
    Ok(config)
}

/// The canonical cache key of a comparison configuration: every field the
/// report depends on, in a fixed order. Thread count is deliberately
/// excluded — results are bit-identical at any worker count.
fn compare_cache_key(config: &comparison::ComparisonConfig) -> String {
    // cache_key, not cli_name: two hss-approx configurations are different
    // comparisons and must never share a cached report.
    let methods: Vec<String> = config.methods.iter().map(Method::cache_key).collect();
    format!(
        "{}|{}|{}|{}|{}",
        methods.join(","),
        json::number(config.top_share),
        json::number(config.noise_level),
        config.noise_resamples,
        config.seed
    )
}

fn compare(registry: &Registry, name: &str, request: &Request) -> Response {
    let Some(entry) = registry.get(name) else {
        return Response::error(404, &format!("no graph named `{name}`"));
    };
    let config = match parse_compare_config(request, registry.threads()) {
        Ok(config) => config,
        Err(message) => return Response::error(400, &message),
    };
    let comparison = match comparison::Comparison::new(config) {
        Ok(comparison) => comparison,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    // One snapshot for the whole request: the report and its cache entry
    // belong to a single generation, so a PATCH landing mid-Monte-Carlo
    // can never store a stale report on the successor state.
    let state = entry.snapshot();
    // The finished report is a pure function of (graph, config) — no wall
    // times — so repeated requests are answered from the per-generation
    // report cache without re-running the noise Monte Carlo.
    let key = compare_cache_key(comparison.config());
    if let Some(body) = state.cached_compare(&key) {
        return Response::json(200, body.to_string());
    }
    // Base scoring goes through the (generation, method) scored-edge cache;
    // only the noise resamples are scored fresh (they are perturbed copies).
    let report = match comparison.run_with_scores(state.graph().as_ref(), |method| {
        registry.scored_state(&state, method)
    }) {
        Ok(report) => report,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    // The stable rendering (no wall times): a cache-hit body must be
    // byte-identical to the cold one.
    let mut body = report.to_json_stable();
    body.push('\n');
    state.store_compare(key, Arc::from(body.as_str()));
    Response::json(200, body)
}

/// Render one backbone query's answer. Labels, endpoints and weights come
/// from `graph`, the snapshot the run was made on; no backbone subgraph is
/// built.
fn render(
    entry: &GraphEntry,
    graph: &CsrGraph,
    run: &PipelineRun,
    output: Output,
    as_json: bool,
) -> Response {
    match (output, as_json) {
        (Output::Summary, _) => {
            let mut body = JsonObject::pretty();
            body.string("graph", entry.name())
                .raw("summary", &run.summary_json_stable());
            Response::json(200, finish_line(&mut body))
        }
        (Output::Backbone, false) => {
            let mut body = Vec::new();
            if let Err(err) = run.write_backbone(graph, &mut body) {
                return Response::error(500, &err.to_string());
            }
            Response::tsv(200, body)
        }
        (Output::Scores, false) => {
            let mut body = Vec::new();
            if let Err(err) = run.write_scores(graph, &mut body) {
                return Response::error(500, &err.to_string());
            }
            Response::tsv(200, body)
        }
        (Output::Backbone, true) => {
            let mut edges = JsonArray::new();
            for &index in &run.kept {
                let edge = graph
                    .edge(index)
                    .expect("kept ids are edge ids of the run's graph");
                let mut object = JsonObject::inline();
                object
                    .string("source", &node_label(graph, edge.source))
                    .string("target", &node_label(graph, edge.target))
                    .f64("weight", edge.weight);
                edges.raw(&object.finish());
            }
            let mut body = JsonObject::pretty();
            body.string("graph", entry.name())
                .string("method", run.method.cli_name())
                .usize("edges_kept", run.kept.len())
                .raw("edges", &edges.finish());
            Response::json(200, finish_line(&mut body))
        }
        (Output::Scores, true) => {
            let kept = run.kept_mask();
            let mut rows = JsonArray::new();
            for edge in run.scored.iter() {
                let mut object = JsonObject::inline();
                object
                    .string("source", &node_label(graph, edge.source))
                    .string("target", &node_label(graph, edge.target))
                    .f64("weight", edge.weight)
                    .f64("score", edge.score)
                    .raw("p_value", &optional_number(edge.p_value))
                    .bool("kept", kept[edge.edge_index]);
                rows.raw(&object.finish());
            }
            let mut body = JsonObject::pretty();
            body.string("graph", entry.name())
                .string("method", run.method.cli_name())
                .raw("scores", &rows.finish());
            Response::json(200, finish_line(&mut body))
        }
    }
}

fn optional_number(value: Option<f64>) -> String {
    match value {
        Some(v) => json::number(v),
        None => "null".to_string(),
    }
}

/// A node's label, or its numeric id when unlabeled.
fn node_label(graph: &CsrGraph, node: NodeId) -> Cow<'_, str> {
    graph
        .label(node)
        .map_or_else(|| Cow::Owned(node.to_string()), Cow::Borrowed)
}
