//! End-to-end integration tests of the backboning HTTP server: each test
//! binds a real server on an ephemeral port and talks to it over plain TCP
//! sockets — no in-process shortcuts. Covered: the 404/400 error paths,
//! upload-then-query, all 7 methods × 4 threshold policies, the
//! cache-hit-equals-cold byte-identity contract (sequentially, under
//! concurrent load, and across worker counts), and the `POST /shutdown`
//! control path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use backboning::Method;
use backboning_graph::io::{read_edge_list_csr_file, EdgeListOptions};
use backboning_graph::{CsrGraph, Direction};
use backboning_server::{Server, ServerConfig};

/// The bundled example network from `docs/GUIDE.md` (8 nodes, 28 edges),
/// streamed into the compact CSR form the registry stores.
fn trade_graph() -> CsrGraph {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/examples/trade.tsv");
    let options = EdgeListOptions::with_direction(Direction::Undirected);
    read_edge_list_csr_file(&path, &options).expect("bundled example edge list parses")
}

/// Bind a fresh server on an ephemeral port with the trade graph loaded.
fn trade_server(threads: usize) -> Server {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    server
        .registry()
        .insert("trade", trade_graph())
        .expect("register the fixture graph");
    server
}

/// One HTTP exchange over a fresh TCP connection; returns (status, body).
fn request(server: &Server, request_text: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the server");
    stream
        .write_all(request_text.as_bytes())
        .expect("send the request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read the response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = std::str::from_utf8(&raw[..head_end]).expect("headers are UTF-8");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code parses");
    let content_length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("response declares a length")
        .parse()
        .expect("length parses");
    let body = raw[head_end + 4..].to_vec();
    assert_eq!(body.len(), content_length, "body length matches the header");
    (status, body)
}

fn get(server: &Server, path_and_query: &str) -> (u16, Vec<u8>) {
    request(
        server,
        &format!("GET {path_and_query} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(server: &Server, path_and_query: &str, body: &str) -> (u16, Vec<u8>) {
    request(
        server,
        &format!(
            "POST {path_and_query} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// A PATCH exchange; `content_type: None` sends the TSV default.
fn patch(
    server: &Server,
    path_and_query: &str,
    body: &str,
    content_type: Option<&str>,
) -> (u16, Vec<u8>) {
    let type_header = content_type
        .map(|value| format!("Content-Type: {value}\r\n"))
        .unwrap_or_default();
    request(
        server,
        &format!(
            "PATCH {path_and_query} HTTP/1.1\r\nHost: test\r\n{type_header}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn text(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("body is UTF-8")
}

#[test]
fn health_and_graph_listing() {
    let server = trade_server(1);
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200);
    let health = text(&body);
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    assert!(health.contains("\"graphs\": 1"), "{health}");
    assert!(health.contains("\"cache\""), "{health}");

    let (status, body) = get(&server, "/graphs");
    assert_eq!(status, 200);
    let listing = text(&body);
    assert!(listing.contains("\"name\": \"trade\""), "{listing}");
    assert!(listing.contains("\"nodes\": 8"), "{listing}");
    assert!(listing.contains("\"edges\": 28"), "{listing}");

    let (status, body) = get(&server, "/graphs/trade");
    assert_eq!(status, 200);
    assert!(text(&body).contains("\"direction\": \"undirected\""));
    server.shutdown();
}

#[test]
fn all_methods_and_policies_answer() {
    let server = trade_server(1);
    for method in ["nc", "ncb", "df", "hss", "ds", "mst", "naive"] {
        for policy in ["threshold=0.0", "top_k=10", "top_share=0.3", "coverage=0.9"] {
            let (status, body) = get(
                &server,
                &format!("/graphs/trade/backbone?method={method}&{policy}"),
            );
            let body = text(&body);
            assert_eq!(status, 200, "{method} {policy}: {body}");
            assert!(
                body.starts_with("# source\ttarget\tweight"),
                "{method} {policy}: unexpected body `{}`",
                body.lines().next().unwrap_or_default()
            );
            assert!(
                body.lines().count() > 1,
                "{method} {policy}: empty backbone"
            );
        }
    }
    // 7 methods scored once each; 7 × 4 = 28 queries → 21 cache hits.
    let (hits, misses) = server.registry().cache_stats();
    assert_eq!(misses, 7);
    assert_eq!(hits, 21);
    server.shutdown();
}

#[test]
fn output_kinds_and_formats() {
    let server = trade_server(1);
    // Scores table: same shape as the CLI's `-o scores`.
    let (status, body) = get(
        &server,
        "/graphs/trade/backbone?method=nc&top_k=5&output=scores",
    );
    assert_eq!(status, 200);
    let table = text(&body);
    assert!(table.starts_with("# source\ttarget\tweight\tscore\traw_score\tstd_dev\tp_value\tkept"));
    assert_eq!(table.lines().count(), 29);

    // Summary: JSON, stable (no wall time), wrapped with the graph name.
    let (status, body) = get(
        &server,
        "/graphs/trade/backbone?method=nc&top_share=0.3&output=summary",
    );
    assert_eq!(status, 200);
    let summary = text(&body);
    assert!(summary.contains("\"graph\": \"trade\""), "{summary}");
    assert!(summary.contains("\"method\": \"nc\""), "{summary}");
    assert!(summary.contains("\"kind\": \"top_share\""), "{summary}");
    assert!(!summary.contains("wall_ms"), "{summary}");

    // JSON backbone via format=.
    let (status, body) = get(
        &server,
        "/graphs/trade/backbone?method=nc&top_k=3&format=json",
    );
    assert_eq!(status, 200);
    let json = text(&body);
    assert!(json.contains("\"edges_kept\": 3"), "{json}");
    assert!(json.contains("\"source\":"), "{json}");

    // JSON scores via the Accept header.
    let (status, body) = request(
        &server,
        "GET /graphs/trade/backbone?method=df&top_k=3&output=scores HTTP/1.1\r\nHost: t\r\nAccept: application/json\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let json = text(&body);
    assert!(json.contains("\"scores\": ["), "{json}");
    assert!(json.contains("\"kept\": true"), "{json}");
    server.shutdown();
}

#[test]
fn upload_then_query() {
    let server = trade_server(1);
    let edge_list = "a b 5\nb c 4\nc d 1\nd a 3\n";
    let (status, body) = post(&server, "/graphs/uploaded?direction=undirected", edge_list);
    assert_eq!(status, 201, "{}", text(&body));
    let info = text(&body);
    assert!(info.contains("\"name\": \"uploaded\""), "{info}");
    assert!(info.contains("\"nodes\": 4"), "{info}");
    assert!(info.contains("\"edges\": 4"), "{info}");

    let (status, body) = get(&server, "/graphs/uploaded/backbone?method=naive&top_k=2");
    assert_eq!(status, 200);
    let backbone = text(&body);
    assert!(backbone.contains("a\tb\t5"), "{backbone}");
    assert!(backbone.contains("b\tc\t4"), "{backbone}");
    assert!(!backbone.contains("c\td"), "{backbone}");

    // Uploading under the same name replaces the graph (and its cache).
    let (status, _) = post(&server, "/graphs/uploaded?direction=undirected", "x y 1\n");
    assert_eq!(status, 201);
    let (status, body) = get(&server, "/graphs/uploaded");
    assert_eq!(status, 200);
    assert!(text(&body).contains("\"edges\": 1"));

    // A leading byte-order mark is not part of the first node's name.
    let (status, body) = post(
        &server,
        "/graphs/marked?separator=,",
        "\u{feff}a,b,1\na,c,2\n",
    );
    assert_eq!(status, 201, "{}", text(&body));
    assert!(text(&body).contains("\"nodes\": 3"), "{}", text(&body));

    // DELETE unregisters.
    let (status, _) = request(
        &server,
        "DELETE /graphs/uploaded HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let (status, _) = get(&server, "/graphs/uploaded");
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn not_found_and_bad_request_paths() {
    let server = trade_server(1);
    for (path, expected) in [
        ("/nope", 404),
        ("/graphs/absent", 404),
        ("/graphs/absent/backbone?method=nc&top_k=3", 404),
        ("/graphs/trade/backbone?method=wat&top_k=3", 400),
        ("/graphs/trade/backbone?top_k=3", 400),
        ("/graphs/trade/backbone?method=nc", 400),
        (
            "/graphs/trade/backbone?method=nc&top_k=3&top_share=0.5",
            400,
        ),
        ("/graphs/trade/backbone?method=nc&top_share=1.5", 400),
        // Policy values are checked for every method, the fixed-set ones
        // included, and a repeated policy parameter is refused.
        ("/graphs/trade/backbone?method=mst&top_share=7", 400),
        ("/graphs/trade/backbone?method=ds&coverage=-3", 400),
        ("/graphs/trade/backbone?method=nc&threshold=nan", 400),
        ("/graphs/trade/backbone?method=nc&top_k=5&top_k=6", 400),
        ("/graphs/trade/backbone?method=nc&top_k=x", 400),
        ("/graphs/trade/backbone?method=nc&top_k=3&output=wat", 400),
        ("/graphs/trade/backbone?method=nc&top_k=3&format=xml", 400),
        // Misspelt names are refused, not dropped, and so is a repeated one
        // (of which only the last value used to count).
        (
            "/graphs/trade/backbone?method=nc&top_k=1&hss_root=4&outptu=summary",
            400,
        ),
        ("/graphs/trade/backbone?method=nc&method=df&top_k=1", 400),
    ] {
        let (status, body) = get(&server, path);
        assert_eq!(status, expected, "{path}: {}", text(&body));
        assert!(text(&body).contains("\"error\":"), "{path}");
    }

    // Upload parameters take only the values they document; anything else
    // is a 400 naming the parameter, and nothing is registered.
    for (query, needle) in [
        (
            "direction=Directed",
            "direction: expected directed or undirected, got `Directed`",
        ),
        (
            "header=yes",
            "header: expected 1, true, 0 or false, got `yes`",
        ),
        ("separator=ab", "separator: expected a single character"),
        // A misspelt name is refused too: it used to register an
        // undirected graph.
        (
            "directon=directed",
            "unknown query parameter `directon` (this route accepts direction, header, separator)",
        ),
    ] {
        let (status, body) = post(
            &server,
            &format!("/graphs/params?{query}"),
            "x y
a b 2
",
        );
        assert_eq!(status, 400, "{query}: {}", text(&body));
        assert!(text(&body).contains(needle), "{query}: {}", text(&body));
        assert_eq!(get(&server, "/graphs/params").0, 404);
    }
    for query in ["direction=undirected", "header=1", "header=false"] {
        let (status, body) = post(
            &server,
            &format!("/graphs/params?{query}"),
            "a b 2
",
        );
        assert_eq!(status, 201, "{query}: {}", text(&body));
    }

    // Wrong verbs → 405.
    let (status, _) = post(&server, "/health", "");
    assert_eq!(status, 405);
    let (status, _) = get(&server, "/shutdown");
    assert_eq!(status, 405);

    // Malformed upload bodies → 400 naming the upload and the line.
    let (status, body) = post(&server, "/graphs/broken", "a b heavy\n");
    assert_eq!(status, 400);
    let err = text(&body);
    assert!(err.contains("upload broken"), "{err}");
    assert!(err.contains("line 1"), "{err}");
    // An empty node name is refused with the readers' message.
    let (status, body) = post(&server, "/graphs/broken?separator=,", "a,b,1\na,,3\n");
    assert_eq!(status, 400);
    let err = text(&body);
    assert!(
        err.contains("<upload broken>: line 2: empty target node name in `a,,3`"),
        "{err}"
    );

    // So is a name holding a tab or a carriage return, which the TSV
    // responses could not carry, and nothing is registered.
    for (body, line) in [("x\t2,3,1\n3,4,5\n", 1), ("a,b,1\na,b\rc,2\n", 2)] {
        let (status, response) = post(&server, "/graphs/tabbed?separator=,", body);
        assert_eq!(status, 400, "{body:?}");
        let err = text(&response);
        assert!(
            err.contains(&format!("<upload tabbed>: line {line}: node name")),
            "{err}"
        );
        assert!(
            err.contains("contains a tab or line break, which an edge list cannot carry"),
            "{err}"
        );
        assert_eq!(get(&server, "/graphs/tabbed").0, 404);
    }

    // A line with a fourth field is refused in either separator mode, not
    // registered as an edge that drops it.
    for (query, body) in [
        ("", "a b 1\na b 3 extra\n"),
        ("?separator=,", "a,b,1\na,b,3,x\n"),
    ] {
        let (status, response) = post(&server, &format!("/graphs/four{query}"), body);
        assert_eq!(status, 400, "{body:?}");
        let err = text(&response);
        assert!(
            err.contains("<upload four>: line 2: expected at most `source target weight`"),
            "{err}"
        );
        assert_eq!(get(&server, "/graphs/four").0, 404);
    }

    // Invalid graph names are rejected before parsing.
    let (status, _) = post(&server, "/graphs/..", "a b 1\n");
    assert_eq!(status, 400);

    // A garbage request line → 400 without killing the worker.
    let (status, _) = request(&server, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    let (status, _) = get(&server, "/health");
    assert_eq!(status, 200);
    server.shutdown();
}

/// The tentpole contract: a cache-hit response is byte-identical to the
/// cold response, for every output kind.
#[test]
fn cached_responses_are_byte_identical_to_cold() {
    let server = trade_server(1);
    for query in [
        "/graphs/trade/backbone?method=nc&top_share=0.3",
        "/graphs/trade/backbone?method=nc&top_share=0.3&output=scores",
        "/graphs/trade/backbone?method=nc&top_share=0.3&output=summary",
        "/graphs/trade/backbone?method=hss&coverage=0.9&format=json",
    ] {
        let (status, cold) = get(&server, query);
        assert_eq!(status, 200, "{query}");
        for _ in 0..3 {
            let (status, warm) = get(&server, query);
            assert_eq!(status, 200, "{query}");
            assert_eq!(warm, cold, "{query}: cached bytes differ from cold");
        }
    }
    server.shutdown();
}

/// The scored-edge cache is LRU-bounded (4 methods per graph): sweeping
/// more methods than the bound evicts the oldest slot, and re-querying the
/// evicted method re-scores to byte-identical bytes — eviction is lossless.
#[test]
fn evicted_scores_recompute_byte_identically() {
    let server = trade_server(1);
    let query = "/graphs/trade/backbone?method=nc&top_share=0.3&output=scores";
    let (status, cold) = get(&server, query);
    assert_eq!(status, 200);

    // Score four other methods: nc is now the least recently used of five
    // candidates and must have been evicted.
    for method in ["df", "hss", "mst", "naive"] {
        let (status, _) = get(
            &server,
            &format!("/graphs/trade/backbone?method={method}&top_k=5"),
        );
        assert_eq!(status, 200, "{method}");
    }
    let entry = server.registry().get("trade").expect("registered graph");
    assert!(
        !entry.cached_methods().iter().any(|key| key == "nc"),
        "nc evicted after sweeping past the cache bound, got {:?}",
        entry.cached_methods()
    );

    // The re-score pays a cache miss but serves the same bytes.
    let (_, misses_before) = server.registry().cache_stats();
    let (status, warm) = get(&server, query);
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "re-scored response differs from the cold bytes");
    let (_, misses_after) = server.registry().cache_stats();
    assert_eq!(
        misses_after,
        misses_before + 1,
        "eviction forced a re-score"
    );
    server.shutdown();
}

/// Worker-count invariance over HTTP: servers running the scoring engine at
/// 1 thread and at 4 threads serve byte-identical responses — the
/// `BACKBONING_THREADS` contract of the parallel engine, end to end.
#[test]
fn responses_are_identical_across_worker_counts() {
    let single = trade_server(1);
    let multi = trade_server(4);
    // Summaries are excluded here: they report the *configured* thread
    // count, which legitimately differs between the two servers. Backbones
    // and score tables carry only scoring results, which must not.
    for query in [
        "/graphs/trade/backbone?method=nc&top_share=0.3",
        "/graphs/trade/backbone?method=hss&top_k=10",
        "/graphs/trade/backbone?method=df&threshold=0.6&output=scores",
        "/graphs/trade/backbone?method=ds&coverage=0.9&output=scores",
    ] {
        let (_, at_one) = get(&single, query);
        let (_, at_four) = get(&multi, query);
        assert_eq!(at_one, at_four, "{query}: thread count changed the bytes");
    }
    single.shutdown();
    multi.shutdown();
}

/// Concurrent stress: many client threads hammer the same and different
/// `(method, policy)` queries; every response must equal the cold bytes.
#[test]
fn concurrent_requests_serve_identical_bytes() {
    let server = trade_server(2);
    let queries = [
        "/graphs/trade/backbone?method=nc&top_share=0.3",
        "/graphs/trade/backbone?method=nc&top_k=10&output=scores",
        "/graphs/trade/backbone?method=df&top_share=0.3",
        "/graphs/trade/backbone?method=hss&coverage=0.9&output=summary",
    ];
    // Cold reference bytes, gathered sequentially first.
    let cold: Vec<Vec<u8>> = queries
        .iter()
        .map(|query| {
            let (status, body) = get(&server, query);
            assert_eq!(status, 200, "{query}");
            body
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..8 {
            let server = &server;
            let queries = &queries;
            let cold = &cold;
            scope.spawn(move || {
                for round in 0..5 {
                    let index = (worker + round) % queries.len();
                    let (status, body) = get(server, queries[index]);
                    assert_eq!(status, 200, "{}", queries[index]);
                    assert_eq!(
                        body, cold[index],
                        "{}: concurrent response differs from cold",
                        queries[index]
                    );
                }
            });
        }
    });

    let (hits, misses) = server.registry().cache_stats();
    assert_eq!(misses, 3, "nc, df, hss each scored exactly once");
    assert_eq!(hits + misses, 44, "4 cold + 40 concurrent lookups");
    server.shutdown();
}

/// The compare route: stable JSON that is byte-identical across calls
/// (cold and cache-hit), equal to the in-process `Comparison` engine on the
/// same graph, invariant across worker counts, and answered from the
/// scored-edge cache.
#[test]
fn compare_route_serves_stable_cache_backed_json() {
    let server = trade_server(1);
    let query = "/graphs/trade/compare?methods=nc,df,hss&top_share=0.1";
    let (status, cold) = get(&server, query);
    assert_eq!(status, 200, "{}", text(&cold));
    let body = text(&cold);
    assert!(body.contains("\"matched_edges\": 3"), "{body}");
    assert!(body.contains("\"noise_stability\""), "{body}");
    assert!(body.contains("\"jaccard\""), "{body}");

    // The default parameters are exactly `?methods=nc,df,hss&top_share=0.1`
    // (plus the default noise Monte Carlo), so the bare route answers the
    // same bytes.
    let (status, bare) = get(&server, "/graphs/trade/compare");
    assert_eq!(status, 200);
    assert_eq!(bare, cold);

    // Cache hits are byte-identical to the cold response.
    for _ in 0..2 {
        let (status, warm) = get(&server, query);
        assert_eq!(status, 200);
        assert_eq!(warm, cold, "cached compare differs from cold");
    }

    // The cold request scored nc, df and hss exactly once; every follow-up
    // (bare default and both warm repeats) was answered from the per-graph
    // comparison report cache without touching the scored-edge cache at
    // all — no re-scoring, no noise Monte Carlo.
    let (hits, misses) = server.registry().cache_stats();
    assert_eq!(misses, 3, "nc, df, hss each scored once");
    assert_eq!(hits, 0, "follow-ups served from the report cache");

    // The served bytes are exactly the in-process engine's stable report
    // (+ \n) — the timing-free core of what `backbone compare -o json`
    // renders.
    let report = backboning_eval::Comparison::new(backboning_eval::ComparisonConfig::default())
        .expect("default config is valid")
        .run(&trade_graph())
        .expect("comparison runs");
    assert_eq!(text(&cold), format!("{}\n", report.to_json_stable()));
    assert!(
        !text(&cold).contains("score_wall_ms"),
        "served compare bodies carry no wall times"
    );

    // Worker-count invariance of the noise Monte Carlo, end to end.
    let multi = trade_server(4);
    let (_, at_four) = get(&multi, query);
    assert_eq!(at_four, cold, "thread count changed the compare bytes");

    // Non-default parameters change the report but stay deterministic.
    let custom = "/graphs/trade/compare?methods=all&top_share=0.3&noise=0.2&resamples=4&seed=7";
    let (status, first) = get(&server, custom);
    assert_eq!(status, 200, "{}", text(&first));
    assert!(text(&first).contains("\"method\": \"mst\""));
    let (_, second) = get(&server, custom);
    assert_eq!(first, second);

    server.shutdown();
    multi.shutdown();
}

/// The sampled hss-approx estimator over HTTP: `hss_roots`/`hss_seed` are
/// part of the cache identity, responses are deterministic for a fixed
/// `(roots, seed)`, and the parameters are rejected alongside exact methods
/// — on both the backbone and the compare route.
#[test]
fn hss_approx_route_keys_its_cache_by_sampling_parameters() {
    let server = trade_server(1);
    let query = "/graphs/trade/backbone?method=hss-approx&hss_roots=4&hss_seed=7&top_k=5";
    let (status, cold) = get(&server, query);
    assert_eq!(status, 200, "{}", text(&cold));
    let (status, warm) = get(&server, query);
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "fixed (roots, seed) is deterministic");

    // A different seed is a different scoring pass with its own cache slot.
    let (status, body) = get(
        &server,
        "/graphs/trade/backbone?method=hss-approx&hss_roots=4&hss_seed=8&top_k=5",
    );
    assert_eq!(status, 200, "{}", text(&body));
    let (_, misses) = server.registry().cache_stats();
    assert_eq!(misses, 2, "each (roots, seed) scored exactly once");
    let (status, info) = get(&server, "/graphs/trade");
    assert_eq!(status, 200);
    let info = text(&info);
    assert!(info.contains("hss-approx:roots=4:seed=7"), "{info}");
    assert!(info.contains("hss-approx:roots=4:seed=8"), "{info}");

    // Omitted parameters fall back to the method's defaults.
    let (status, _) = get(&server, "/graphs/trade/backbone?method=hss-approx&top_k=5");
    assert_eq!(status, 200);

    // Sampling parameters alongside an exact method — or unparsable ones —
    // are a 400, on both routes.
    for bad in [
        "/graphs/trade/backbone?method=nc&hss_roots=4&top_k=5",
        "/graphs/trade/backbone?method=hss&hss_seed=7&top_k=5",
        "/graphs/trade/backbone?method=hss-approx&hss_roots=x&top_k=5",
        "/graphs/trade/backbone?method=hss-approx&hss_roots=0&top_k=5",
        "/graphs/trade/compare?methods=nc,df&hss_roots=4",
    ] {
        let (status, body) = get(&server, bad);
        assert_eq!(status, 400, "{bad}: {}", text(&body));
        assert!(text(&body).contains("\"error\":"), "{bad}");
    }

    // The compare route accepts the parameters when hss-approx is in the
    // method list and keys its report cache by them.
    let first_query =
        "/graphs/trade/compare?methods=nc,hss-approx&hss_roots=4&hss_seed=7&resamples=0";
    let (status, first) = get(&server, first_query);
    assert_eq!(status, 200, "{}", text(&first));
    assert!(text(&first).contains("\"method\": \"hss-approx\""));
    let (status, _) = get(
        &server,
        "/graphs/trade/compare?methods=nc,hss-approx&hss_roots=4&hss_seed=8&resamples=0",
    );
    assert_eq!(status, 200);
    let (_, repeat) = get(&server, first_query);
    assert_eq!(repeat, first, "report cache keyed by sampling parameters");
    server.shutdown();
}

/// Compare-route error paths: missing graphs 404, bad parameters 400.
#[test]
fn compare_route_rejects_bad_requests() {
    let server = trade_server(1);
    for (path, expected) in [
        ("/graphs/absent/compare", 404),
        ("/graphs/trade/compare?methods=wat", 400),
        ("/graphs/trade/compare?methods=nc,nc", 400),
        ("/graphs/trade/compare?methods=", 400),
        ("/graphs/trade/compare?top_share=1.5", 400),
        ("/graphs/trade/compare?top_share=x", 400),
        ("/graphs/trade/compare?noise=1.0", 400),
        ("/graphs/trade/compare?resamples=x", 400),
        ("/graphs/trade/compare?seed=-1", 400),
        // Above the resample cap: refused before the Monte Carlo would
        // allocate its 8 TB trial list and abort the process.
        ("/graphs/trade/compare?resamples=1000000000000", 400),
        (
            "/graphs/trade/compare?methods=nc,hss-approx&hss_roots=0",
            400,
        ),
    ] {
        let (status, body) = get(&server, path);
        assert_eq!(status, expected, "{path}: {}", text(&body));
        assert!(text(&body).contains("\"error\":"), "{path}");
    }
    let (_, body) = get(&server, "/graphs/trade/compare?resamples=1000000000000");
    assert!(text(&body).contains("at most 1000"), "{}", text(&body));
    // The server is still up.
    let (status, _) = get(&server, "/health");
    assert_eq!(status, 200);
    // Wrong verb → 405.
    let (status, _) = post(&server, "/graphs/trade/compare", "");
    assert_eq!(status, 405);
    server.shutdown();
}

/// One raw HTTP exchange returning the response head (status line +
/// headers) for header-level assertions.
fn response_head(server: &Server, path: &str) -> String {
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the server");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send the request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read the response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    String::from_utf8(raw[..head_end].to_vec()).expect("headers are UTF-8")
}

/// `/metrics` serves Prometheus text exposition by default and JSON on
/// request, with exact per-route request counts: every answered request is
/// recorded *before* its response is written, so a scrape that follows a
/// completed request always counts it.
#[test]
fn metrics_route_counts_requests_exactly() {
    let server = trade_server(1);
    let (status, _) = get(&server, "/health");
    assert_eq!(status, 200);
    for _ in 0..3 {
        let (status, _) = get(
            &server,
            "/graphs/trade/backbone?method=nc&top_share=0.3&output=summary",
        );
        assert_eq!(status, 200);
    }
    let (status, _) = get(&server, "/graphs/trade/backbone?method=wat&top_k=3");
    assert_eq!(status, 400);

    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    let metrics = text(&body);
    assert!(
        metrics.contains("# TYPE http_requests_total counter\n"),
        "{metrics}"
    );
    assert!(
        metrics
            .contains("http_requests_total{method=\"GET\",route=\"/health\",status=\"200\"} 1\n"),
        "{metrics}"
    );
    // Routes are labelled by pattern — the graph name never appears.
    assert!(
        metrics.contains(
            "http_requests_total{method=\"GET\",route=\"/graphs/{name}/backbone\",status=\"200\"} 3\n"
        ),
        "{metrics}"
    );
    assert!(
        metrics.contains(
            "http_requests_total{method=\"GET\",route=\"/graphs/{name}/backbone\",status=\"400\"} 1\n"
        ),
        "{metrics}"
    );
    // The first scrape does not count itself (it is recorded only after its
    // body was rendered) …
    assert!(!metrics.contains("route=\"/metrics\""), "{metrics}");
    // … and per-route latency summaries carry quantiles, sum, count and max.
    assert!(
        metrics.contains("# TYPE http_request_duration_seconds summary\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains(
            "http_request_duration_seconds{method=\"GET\",route=\"/health\",quantile=\"0.5\"} "
        ),
        "{metrics}"
    );
    assert!(
        metrics
            .contains("http_request_duration_seconds_count{method=\"GET\",route=\"/health\"} 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE http_request_duration_seconds_max gauge\n"),
        "{metrics}"
    );
    // Scrape-time samples: registry, worker pool, and cache counters.
    assert!(metrics.contains("graphs_registered 1\n"), "{metrics}");
    assert!(metrics.contains("worker_threads 4\n"), "{metrics}");
    assert!(metrics.contains("score_cache_hits_total 2\n"), "{metrics}");
    assert!(
        metrics.contains("score_cache_misses_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("score_cache_evictions_total 0\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("compare_cache_misses_total 0\n"),
        "{metrics}"
    );
    // Traffic counters move with real byte counts.
    assert!(metrics.contains("http_request_bytes_total "), "{metrics}");
    assert!(
        !metrics.contains("http_request_bytes_total 0\n"),
        "{metrics}"
    );

    // The JSON format reports the same counts; by now the previous scrape
    // itself has been recorded.
    let (status, body) = get(&server, "/metrics?format=json");
    assert_eq!(status, 200);
    let json = text(&body);
    assert!(json.contains("\"counters\": ["), "{json}");
    assert!(json.contains("\"histograms\": ["), "{json}");
    assert!(
        json.contains(
            "{ \"name\": \"http_requests_total\", \"labels\": { \"method\": \"GET\", \"route\": \"/metrics\", \"status\": \"200\" }, \"value\": 1 }"
        ),
        "{json}"
    );
    assert!(json.contains("\"p99_seconds\": "), "{json}");

    // An unknown format is a 400; wrong verbs are a 405.
    let (status, _) = get(&server, "/metrics?format=xml");
    assert_eq!(status, 400);
    let (status, _) = post(&server, "/metrics", "");
    assert_eq!(status, 405);

    // The exposition content type is the Prometheus text format.
    let head = response_head(&server, "/metrics");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    server.shutdown();
}

/// `/metrics` reports the bytes held by the registered graphs and by their
/// cached score sets: nothing is cached before the first backbone query,
/// and afterwards the cache holds exactly the nc score set.
#[test]
fn metrics_report_graph_and_score_cache_memory() {
    let server = trade_server(1);
    let gauge = |name: &str| -> usize {
        let (status, body) = get(&server, "/metrics");
        assert_eq!(status, 200);
        let metrics = text(&body);
        let prefix = format!("{name} ");
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("no `{name}` gauge in {metrics}"))
            .parse()
            .expect("gauge value parses")
    };
    let graph = trade_graph();
    assert_eq!(gauge("graph_memory_bytes"), graph.memory_bytes());
    assert_eq!(gauge("score_cache_bytes"), 0);

    let (status, _) = get(&server, "/graphs/trade/backbone?method=nc&top_k=5");
    assert_eq!(status, 200);
    let nc = Method::NoiseCorrected.score(&graph).unwrap();
    let columns = nc.memory_bytes();
    assert_eq!(columns, 40 * graph.edge_count());
    // A top-k read of cached scores ranks them: the kept order adds one
    // u32 edge id per edge.
    nc.ranked();
    assert_eq!(nc.memory_bytes(), columns + 4 * graph.edge_count());
    assert_eq!(gauge("score_cache_bytes"), nc.memory_bytes());
    assert_eq!(gauge("graph_memory_bytes"), graph.memory_bytes());

    // A PATCH rescores the cached set without ranking it: the gauge reads
    // the rescored columns alone, through a threshold read too, until the
    // next rank-based read builds the order again.
    let (status, body) = patch(&server, "/graphs/trade", "reweight usa deu 90\n", None);
    assert_eq!(status, 200, "{}", text(&body));
    assert!(
        text(&body).contains("\"rescored_methods\": [\"nc\"]"),
        "{}",
        text(&body)
    );
    assert_eq!(gauge("score_cache_bytes"), columns);
    let (status, _) = get(&server, "/graphs/trade/backbone?method=nc&threshold=1.0");
    assert_eq!(status, 200);
    assert_eq!(gauge("score_cache_bytes"), columns);
    let (status, _) = get(&server, "/graphs/trade/backbone?method=nc&top_share=0.2");
    assert_eq!(status, 200);
    assert_eq!(gauge("score_cache_bytes"), columns + 4 * graph.edge_count());
    server.shutdown();
}

/// A PATCH with nc and df cached adds one sample to the apply series and
/// one to each carried method's rescore series, and to no other.
#[test]
fn patch_stage_latencies_reach_metrics() {
    let server = trade_server(1);
    for method in ["nc", "df"] {
        let (status, _) = get(
            &server,
            &format!("/graphs/trade/backbone?method={method}&top_k=5"),
        );
        assert_eq!(status, 200);
    }
    let (_, body) = get(&server, "/metrics");
    for series in [
        "patch_apply_duration_seconds",
        "patch_rescore_duration_seconds",
    ] {
        assert!(!text(&body).contains(series), "{}", text(&body));
    }

    let (status, body) = patch(&server, "/graphs/trade", "reweight usa deu 90\n", None);
    assert_eq!(status, 200, "{}", text(&body));
    assert!(
        text(&body).contains("\"rescored_methods\": [\"df\", \"nc\"]"),
        "{}",
        text(&body)
    );
    let (_, body) = get(&server, "/metrics");
    let metrics = text(&body);
    let counts: Vec<&str> = metrics
        .lines()
        .filter(|line| line.starts_with("patch_") && line.contains("_count"))
        .collect();
    assert_eq!(
        counts,
        [
            "patch_apply_duration_seconds_count 1",
            "patch_rescore_duration_seconds_count{method=\"df\"} 1",
            "patch_rescore_duration_seconds_count{method=\"nc\"} 1",
        ],
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE patch_rescore_duration_seconds summary\n"),
        "{metrics}"
    );
    let (_, body) = get(&server, "/metrics?format=json");
    assert!(
        text(&body).contains("\"name\": \"patch_apply_duration_seconds\""),
        "{}",
        text(&body)
    );
    server.shutdown();
}

/// Every route reads a fixed set of query parameters: any other name, or
/// a name given twice, is a 400 naming it and the names the route accepts,
/// and the request does nothing.
#[test]
fn unknown_and_repeated_query_parameters_are_refused() {
    let server = trade_server(1);
    let none = "(this route accepts no query parameters)";
    let backbone = "(this route accepts method, threshold, top_k, top_share, coverage, output, \
                    format, hss_roots, hss_seed)";
    let compare = "(this route accepts methods, top_share, noise, resamples, seed, hss_roots, \
                   hss_seed)";
    for (path, needle) in [
        (
            "/health?verbose=1",
            format!("unknown query parameter `verbose` {none}"),
        ),
        ("/graphs?x=1", format!("unknown query parameter `x` {none}")),
        (
            "/graphs/trade?x=1",
            format!("unknown query parameter `x` {none}"),
        ),
        (
            "/metrics?fromat=json",
            "unknown query parameter `fromat` (this route accepts format)".to_string(),
        ),
        (
            "/metrics?format=json&format=json",
            "query parameter `format` is given more than once (this route accepts format, \
             each once)"
                .to_string(),
        ),
        (
            "/graphs/trade/backbone?method=nc&top_k=1&hss_root=4&outptu=summary",
            format!("unknown query parameter `hss_root` {backbone}"),
        ),
        (
            "/graphs/trade/backbone?method=nc&method=df&top_k=1",
            "query parameter `method` is given more than once".to_string(),
        ),
        (
            "/graphs/trade/compare?methods=nc,df&top_k=3",
            format!("unknown query parameter `top_k` {compare}"),
        ),
        (
            "/graphs/trade/compare?seed=1&seed=2",
            "query parameter `seed` is given more than once".to_string(),
        ),
    ] {
        let (status, body) = get(&server, path);
        assert_eq!(status, 400, "{path}: {}", text(&body));
        assert!(text(&body).contains(&needle), "{path}: {}", text(&body));
    }

    // The misspelt upload registers nothing; spelt right, the same body is
    // a directed graph with both arcs.
    let edges = "a b 2\nb a 3\n";
    for query in [
        "directon=directed",
        "direction=directed&direction=undirected",
    ] {
        let (status, body) = post(&server, &format!("/graphs/d?{query}"), edges);
        assert_eq!(status, 400, "{query}: {}", text(&body));
        assert_eq!(get(&server, "/graphs/d").0, 404);
    }
    let (status, body) = post(&server, "/graphs/d?direction=directed", edges);
    assert_eq!(status, 201, "{}", text(&body));
    assert!(text(&body).contains("\"edges\": 2"), "{}", text(&body));

    // PATCH, DELETE and shutdown take no parameters: refused, they change
    // nothing.
    let (status, body) = patch(&server, "/graphs/d?dry_run=1", "reweight a b 5\n", None);
    assert_eq!(status, 400, "{}", text(&body));
    assert!(text(&body).contains(none), "{}", text(&body));
    let (status, _) = request(
        &server,
        "DELETE /graphs/d?force=1 HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 400);
    let (status, body) = get(&server, "/graphs/d");
    assert_eq!(status, 200);
    assert!(text(&body).contains("\"generation\": 0"), "{}", text(&body));
    let (status, _) = post(&server, "/shutdown?now=1", "");
    assert_eq!(status, 400);
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200);
    assert!(
        text(&body).contains("\"scored\": { \"hits\": 0, \"misses\": 0, \"evictions\": 0 }"),
        "{}",
        text(&body)
    );
    server.shutdown();
}

/// `process_resident_memory_bytes` reads the whole process in bytes, so
/// after loading and scoring a 60k-edge graph it is at least the two
/// memory gauges' sum (a kB reading would fall far short of it).
#[test]
fn resident_memory_covers_the_memory_gauges() {
    if !cfg!(target_os = "linux") {
        return;
    }
    let server = trade_server(1);
    let graph = backboning_graph::generators::barabasi_albert_csr(20_000, 3, 7).unwrap();
    server.registry().insert("ba", graph).unwrap();
    let (status, _) = get(&server, "/graphs/ba/backbone?method=nc&top_share=0.1");
    assert_eq!(status, 200);
    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    let metrics = text(&body);
    let gauge = |name: &str| -> u64 {
        let prefix = format!("{name} ");
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("no `{name}` gauge in {metrics}"))
            .parse()
            .expect("gauge value parses")
    };
    let counted = gauge("graph_memory_bytes") + gauge("score_cache_bytes");
    assert!(counted > 2_000_000, "{counted}");
    let resident = gauge("process_resident_memory_bytes");
    assert!(resident >= counted, "{resident} < {counted}");
    server.shutdown();
}

/// A refused policy costs no scoring pass: the value is checked before
/// the scored-edge cache is consulted, so nothing is scored or cached.
#[test]
fn invalid_policies_are_refused_before_scoring() {
    let server = trade_server(1);
    let (status, body) = get(&server, "/graphs/trade/backbone?method=hss&top_share=7");
    assert_eq!(status, 400);
    assert!(
        text(&body).contains("invalid parameter `top_share`: must lie in [0, 1], got 7"),
        "{}",
        text(&body)
    );
    // So is a sampled HSS without roots.
    let (status, body) = get(
        &server,
        "/graphs/trade/backbone?method=hss-approx&hss_roots=0&top_k=5",
    );
    assert_eq!(status, 400);
    assert!(text(&body).contains("at least one root"), "{}", text(&body));
    let (_, body) = get(&server, "/health");
    let health = text(&body);
    assert!(
        health.contains("\"scored\": { \"hits\": 0, \"misses\": 0, \"evictions\": 0 }"),
        "{health}"
    );
    let (_, body) = get(&server, "/graphs/trade");
    assert!(!text(&body).contains("hss"), "{}", text(&body));
    let (_, body) = get(&server, "/graphs/trade/backbone?method=nc&top_k=5&top_k=6");
    assert!(
        text(&body).contains("query parameter `top_k` is given more than once"),
        "{}",
        text(&body)
    );
    let (_, body) = get(
        &server,
        "/graphs/trade/backbone?method=nc&top_k=5&top_share=0.5",
    );
    assert!(
        text(&body).contains("exactly one policy parameter may be given"),
        "{}",
        text(&body)
    );
    // Unknown names are answered with every name `method=` and `methods=`
    // accept.
    for path in [
        "/graphs/trade/backbone?method=zz&top_k=1",
        "/graphs/trade/compare?methods=zz",
    ] {
        let (status, body) = get(&server, path);
        assert_eq!(status, 400, "{path}");
        assert!(
            text(&body).contains("(expected one of: nc, ncb, df, hss, hss-approx, ds, mst, naive"),
            "{path}: {}",
            text(&body)
        );
    }
    server.shutdown();
}

/// `/health` exposes the resolved worker-thread count and the full
/// hit/miss/eviction cache counters for both per-graph caches.
#[test]
fn health_reports_workers_and_cache_counters() {
    let server = trade_server(1);
    let (status, _) = get(&server, "/graphs/trade/backbone?method=nc&top_k=5");
    assert_eq!(status, 200);
    let (status, body) = get(&server, "/health");
    assert_eq!(status, 200);
    let health = text(&body);
    // threads=1 still floors the pool at MIN_WORKERS.
    assert!(health.contains("\"workers\": 4"), "{health}");
    assert!(
        health.contains(
            "\"cache\": { \"scored\": { \"hits\": 0, \"misses\": 1, \"evictions\": 0 }, \
             \"compare\": { \"hits\": 0, \"misses\": 0, \"evictions\": 0 } }"
        ),
        "{health}"
    );
    server.shutdown();
}

/// The PATCH tentpole over HTTP: a reweight batch bumps the generation,
/// changes the *cached* backbone, and the post-patch response is
/// byte-identical to a fresh server that ingested the patched edge list
/// from scratch — generation-keyed invalidation plus exact incremental
/// rescoring, end to end.
#[test]
fn patch_route_rescores_exactly_and_bumps_the_generation() {
    let server = trade_server(1);
    let edge_list = "a b 5\nb c 4\nc d 1\nd a 3\n";
    let (status, body) = post(&server, "/graphs/delta?direction=undirected", edge_list);
    assert_eq!(status, 201, "{}", text(&body));
    assert!(text(&body).contains("\"generation\": 0"), "{}", text(&body));

    // Warm the cache, pinning the pre-patch backbone.
    let query = "/graphs/delta/backbone?method=naive&top_k=2";
    let (status, before) = get(&server, query);
    assert_eq!(status, 200);
    assert!(text(&before).contains("a\tb\t5"), "{}", text(&before));
    assert!(!text(&before).contains("c\td"), "{}", text(&before));

    // Reweight c–d to the top: the cached response must change.
    let (status, body) = patch(&server, "/graphs/delta", "reweight c d 9\n", None);
    assert_eq!(status, 200, "{}", text(&body));
    let outcome = text(&body);
    assert!(outcome.contains("\"generation\": 1"), "{outcome}");
    assert!(
        outcome.contains("\"applied\": { \"added\": 0, \"removed\": 0, \"reweighted\": 1 }"),
        "{outcome}"
    );
    assert!(outcome.contains("\"compacted\": false"), "{outcome}");
    // The cached naive scores were carried over by incremental rescoring.
    assert!(
        outcome.contains("\"rescored_methods\": [\"naive\"]"),
        "{outcome}"
    );

    let (status, after) = get(&server, query);
    assert_eq!(status, 200);
    assert_ne!(after, before, "patch must invalidate the cached backbone");
    assert!(text(&after).contains("c\td\t9"), "{}", text(&after));

    // Ground truth: a server that ingested the patched list from scratch
    // serves byte-identical bytes (the seeded cache is exact, not stale).
    let fresh = trade_server(1);
    let patched_list = "a b 5\nb c 4\nc d 9\nd a 3\n";
    let (status, _) = post(&fresh, "/graphs/delta?direction=undirected", patched_list);
    assert_eq!(status, 201);
    let (_, from_scratch) = get(&fresh, query);
    assert_eq!(
        after, from_scratch,
        "incrementally rescored response differs from a from-scratch server"
    );

    // The seeded slot answers as a cache *hit* — no re-scoring happened.
    let (hits_before, misses_before) = server.registry().cache_stats();
    let (status, _) = get(&server, query);
    assert_eq!(status, 200);
    assert_eq!(
        server.registry().cache_stats(),
        (hits_before + 1, misses_before)
    );

    // Structural JSON batch: add + remove compacts and invalidates.
    let json_body = r#"{"ops": [
        {"op": "add", "source": "a", "target": "e", "weight": 7},
        {"op": "remove", "source": "c", "target": "d"}
    ]}"#;
    let (status, body) = patch(
        &server,
        "/graphs/delta",
        json_body,
        Some("application/json"),
    );
    assert_eq!(status, 200, "{}", text(&body));
    let outcome = text(&body);
    assert!(outcome.contains("\"generation\": 2"), "{outcome}");
    assert!(outcome.contains("\"nodes\": 5"), "{outcome}");
    assert!(outcome.contains("\"edges\": 4"), "{outcome}");
    assert!(
        outcome.contains("\"applied\": { \"added\": 1, \"removed\": 1, \"reweighted\": 0 }"),
        "{outcome}"
    );
    assert!(outcome.contains("\"compacted\": true"), "{outcome}");
    let (status, info) = get(&server, "/graphs/delta");
    assert_eq!(status, 200);
    assert!(text(&info).contains("\"generation\": 2"), "{}", text(&info));

    // The patch counters surface on /metrics, and PATCH keeps its verb label.
    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    let metrics = text(&body);
    assert!(metrics.contains("graph_patches_total 2\n"), "{metrics}");
    assert!(metrics.contains("graph_patch_ops_total 3\n"), "{metrics}");
    assert!(metrics.contains("graph_compactions_total 1\n"), "{metrics}");
    assert!(
        metrics.contains(
            "http_requests_total{method=\"PATCH\",route=\"/graphs/{name}\",status=\"200\"} 2\n"
        ),
        "{metrics}"
    );
    server.shutdown();
}

/// PATCH negative paths: unknown graphs 404, malformed or inapplicable
/// deltas 400 with the offending line, oversized deltas a structured
/// `capacity_exceeded` — never a panic, and never a generation bump.
#[test]
fn patch_route_rejects_bad_deltas() {
    let server = trade_server(1);
    let (status, body) = patch(&server, "/graphs/absent", "reweight a b 1\n", None);
    assert_eq!(status, 404, "{}", text(&body));

    let edge_list = "a b 5\nb c 4\n";
    let (status, _) = post(&server, "/graphs/delta?direction=undirected", edge_list);
    assert_eq!(status, 201);

    // Malformed / inapplicable TSV deltas: 400 naming the line, nothing
    // applied (the whole batch is transactional).
    for (delta, fragment) in [
        ("add a b heavy\n", "line 1"),
        ("reweight a b 1\nremove a z\n", "line 2"),
        ("reweight a b 1\nremove b c\nadd a b 2\n", "line 3"),
        ("upsert a b 2\n", "unknown op `upsert`"),
        ("add a c -1\n", "line 1"),
    ] {
        let (status, body) = patch(&server, "/graphs/delta", delta, None);
        assert_eq!(status, 400, "`{delta}`: {}", text(&body));
        assert!(text(&body).contains(fragment), "`{delta}`: {}", text(&body));
    }
    // Malformed JSON deltas: 400 naming the op.
    let bad_json = r#"{"ops": [{"op": "add", "source": "a", "target": "c"}]}"#;
    let (status, body) = patch(&server, "/graphs/delta", bad_json, Some("application/json"));
    assert_eq!(status, 400);
    assert!(text(&body).contains("op 1"), "{}", text(&body));
    // Empty batches are rejected, not silently committed.
    let (status, body) = patch(&server, "/graphs/delta", "# nothing\n", None);
    assert_eq!(status, 400);
    assert!(text(&body).contains("empty"), "{}", text(&body));

    // Nothing above moved the generation.
    let (_, info) = get(&server, "/graphs/delta");
    assert!(text(&info).contains("\"generation\": 0"), "{}", text(&info));
    assert_eq!(server.registry().cache_counters().patches, 0);

    // A delta pushing an unlabeled graph past the u32 node range is a
    // structured 400 the client can match on — the server stays up.
    let plain = {
        let mut graph = backboning_graph::WeightedGraph::with_nodes(Direction::Undirected, 3);
        graph.add_edge(0, 1, 2.0).unwrap();
        graph.add_edge(1, 2, 1.0).unwrap();
        CsrGraph::from_graph(&graph).unwrap()
    };
    server.registry().insert("plain", plain).unwrap();
    let (status, body) = patch(&server, "/graphs/plain", "add 0 4294967295 1\n", None);
    assert_eq!(status, 400);
    let error = text(&body);
    assert!(error.contains("\"kind\": \"capacity_exceeded\""), "{error}");
    assert!(error.contains("\"what\": \"nodes\""), "{error}");
    assert!(error.contains("\"requested\": 4294967296"), "{error}");
    let (status, _) = get(&server, "/health");
    assert_eq!(status, 200, "server survives capacity rejections");
    server.shutdown();
}

/// A PATCH may not create a node name that the served edge list cannot
/// carry: an empty name, one padded with whitespace, or one holding a tab
/// or a line break. The whole batch is refused with a 400 naming the op,
/// and the generation and the served bytes stay as they were.
#[test]
fn patch_route_refuses_node_names_an_edge_list_cannot_carry() {
    let server = trade_server(1);
    let (status, _) = post(
        &server,
        "/graphs/names?direction=undirected",
        "a b 5\nb c 4\n",
    );
    assert_eq!(status, 201);
    let query = "/graphs/names/backbone?method=naive&top_k=5";
    let (status, before) = get(&server, query);
    assert_eq!(status, 200);

    for (source, problem) in [
        (r#""""#, "is empty"),
        (r#""x\ty""#, "contains a tab or line break"),
        (r#""x\ny""#, "contains a tab or line break"),
        (r#"" x""#, "has leading or trailing whitespace"),
        (r#""x ""#, "has leading or trailing whitespace"),
    ] {
        let body = format!(
            r#"{{"ops": [{{"op": "add", "source": {source}, "target": "b", "weight": 5}}]}}"#
        );
        let (status, response) = patch(&server, "/graphs/names", &body, Some("application/json"));
        let error = text(&response);
        assert_eq!(status, 400, "{source}: {error}");
        assert!(error.contains("line 1: new node name"), "{source}: {error}");
        assert!(error.contains(problem), "{source}: {error}");
    }
    // A valid op ahead of the bad one is not applied either.
    let mixed = r#"{"ops": [
        {"op": "reweight", "source": "a", "target": "b", "weight": 9},
        {"op": "add", "source": "c", "target": "", "weight": 1}
    ]}"#;
    let (status, response) = patch(&server, "/graphs/names", mixed, Some("application/json"));
    assert_eq!(status, 400, "{}", text(&response));
    assert!(
        text(&response).contains("line 2: new node name"),
        "{}",
        text(&response)
    );

    let (_, info) = get(&server, "/graphs/names");
    assert!(text(&info).contains("\"generation\": 0"), "{}", text(&info));
    let (status, after) = get(&server, query);
    assert_eq!(status, 200);
    assert_eq!(
        after, before,
        "a refused batch leaves the served bytes unchanged"
    );

    // Existing names still resolve, and a name with an inner space is new
    // but valid.
    let good = r#"{"ops": [{"op": "add", "source": "x y", "target": "c", "weight": 2}]}"#;
    let (status, response) = patch(&server, "/graphs/names", good, Some("application/json"));
    assert_eq!(status, 200, "{}", text(&response));
    assert!(
        text(&response).contains("\"generation\": 1"),
        "{}",
        text(&response)
    );
    let (_, after) = get(&server, query);
    assert!(text(&after).contains("c\tx y\t2"), "{}", text(&after));
    server.shutdown();
}

/// A PATCH on an upload without edges resolves its tokens as names, as an
/// upload of the same lines would: a large numeric token is one new node,
/// not an id that sizes per-node arrays for four billion nodes.
#[test]
fn patch_on_an_edgeless_graph_takes_names() {
    let server = trade_server(1);
    let (status, _) = post(&server, "/graphs/e", "# nothing\n");
    assert_eq!(status, 201);
    let (status, response) = patch(&server, "/graphs/e", "add 0 4000000000 1\n", None);
    assert_eq!(status, 200, "{}", text(&response));
    assert!(
        text(&response).contains("\"nodes\": 2"),
        "{}",
        text(&response)
    );
    assert_eq!(get(&server, "/health").0, 200);
    let (status, body) = get(&server, "/graphs/e/backbone?method=naive&threshold=0");
    assert_eq!(status, 200);
    assert!(
        text(&body).ends_with("0\t4000000000\t1\n"),
        "{}",
        text(&body)
    );
    server.shutdown();
}

/// The clean-shutdown control path: POST /shutdown answers, the server
/// drains, `wait` returns, and the port stops accepting.
#[test]
fn shutdown_route_stops_the_server() {
    let server = trade_server(1);
    let addr = server.addr();
    let (status, body) = post(&server, "/shutdown", "");
    assert_eq!(status, 200);
    assert!(text(&body).contains("shutting down"));
    server.wait(); // returns only once every thread has drained

    // The listener is gone: a fresh connection must fail.
    assert!(TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(500)).is_err());
}
