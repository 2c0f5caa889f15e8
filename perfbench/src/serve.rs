//! The serve_rw workload: one `backbone serve` process under a closed loop
//! of two clients. Each client repeats nine backbone reads, then one PATCH
//! of 16 reweights drawn from its own half of the edges, so the final graph
//! does not depend on how the clients interleave.
//!
//! The timed phase runs in stretches of one second. Before, between and
//! after the stretches both clients stop and the reference workload is
//! timed while the server is idle, so that the scale it gives measures the
//! host and not the load the program under test puts on it. The run's
//! timings are scaled by all those reference timings together.
//!
//! A traced run also builds client-side spans (connect, time to first byte,
//! receive) and, after the server has stopped, replays the first requests
//! of each client single-threaded through the server's own functions
//! (`http::read_request`, `Registry::scored_state`, `Registry::patch`) with
//! a span around each layer call.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use backboning::pipeline::matched_edge_count;
use backboning::{delta_rescore, Method, Pipeline, ThresholdPolicy};
use backboning_bench::loadtest::{
    counter_total, route_duration_seconds, route_request_count_by_method, scrape_metrics_json,
};
use backboning_graph::io::{read_edge_list_csr_file, write_edge_list, EdgeListOptions};
use backboning_graph::{DeltaBatch, DeltaGraph, Direction};
use backboning_server::http::read_request;
use backboning_server::Registry;

use crate::calibrate::{scale, Reference, SplitMix64, NOMINAL_MS};
use crate::trace::{now_ns, Span, Trace};
use crate::{digest, gen_traced, gen_with_cli, json_list, median_or_zero, mib_per_s, span_metrics};
use crate::{stats, sys, Outcome, RunConfig, SETUP_REPS};

/// The served graph, without its seed.
const SPEC: &str = "ba:n=20000,m=3,w=powerlaw(2.5),noise=0.1";
const CLIENTS: usize = 2;
const READS_PER_WRITE: usize = 9;
const BATCH_EDGES: usize = 16;
/// The reads each client cycles through, in order: method and top share.
const READS: [(&str, f64); 6] = [
    ("nc", 0.05),
    ("nc", 0.1),
    ("nc", 0.2),
    ("df", 0.05),
    ("df", 0.1),
    ("df", 0.2),
];
/// Length of one stretch of the closed loop.
const STRETCH_S: f64 = 1.0;
/// The server's glibc mmap threshold: 32 MiB, the largest glibc accepts.
const MMAP_THRESHOLD: usize = 32 << 20;
/// The server's glibc trim threshold: 1 GiB, so freed memory stays mapped.
const TRIM_THRESHOLD: usize = 1 << 30;
/// Requests per client the traced run replays in process.
const REPLAY_PER_CLIENT: usize = 100;
const BACKBONE_ROUTE: &str = "/graphs/{name}/backbone";
const PATCH_ROUTE: &str = "/graphs/{name}";

/// A `backbone serve` child process; dropping it kills and reaps it.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProcess {
    /// Start the server on an ephemeral port and wait for the line with its
    /// address, which it prints once the graph directory is loaded.
    ///
    /// The server's glibc allocator gets fixed thresholds. By default it
    /// raises its mmap threshold as large blocks are freed and gives memory
    /// back to the system past a trim threshold that follows it, and which
    /// way that goes depends on how the worker threads happened to
    /// interleave. Runs then settled either retaining the memory a PATCH
    /// reuses or faulting it in afresh on every PATCH: `write_ms_p50` moved
    /// by a fifth from run to run, opposite to `peak_rss_mib`. Fixed
    /// thresholds take that choice out of the run.
    fn start(backbone: &Path, graphs: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(backbone)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .args(["--undirected", "--graphs"])
            .arg(graphs)
            .env("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD.to_string())
            .env("MALLOC_TRIM_THRESHOLD_", TRIM_THRESHOLD.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", backbone.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: stdout,
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("backbone serve: {e}"))?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("backbone serve printed `{}`", line.trim()))?;
        Ok(server)
    }

    /// `POST /shutdown` and wait for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let shutdown = b"POST /shutdown HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n";
        Client::new(self.addr)
            .send(shutdown, false)
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("backbone serve exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        Err("backbone serve did not stop after POST /shutdown".to_string())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One reply and when it came.
struct Reply {
    status: u16,
    body: Vec<u8>,
    times: ReplyTimes,
}

/// Client-side timestamps of a traced request (zero when untraced).
#[derive(Clone, Copy)]
struct ReplyTimes {
    /// Start and end of `connect`, when the request opened a connection.
    connect: Option<(u64, u64)>,
    sent_ns: u64,
    first_byte_ns: u64,
}

/// An HTTP/1.1 client that reuses its connection until the server closes it.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    fn send(&mut self, request: &[u8], traced: bool) -> io::Result<Reply> {
        let clock = || if traced { now_ns() } else { 0 };
        let mut retried = false;
        loop {
            let connect = if self.conn.is_none() {
                let start = clock();
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(20)))?;
                self.connects += 1;
                self.conn = Some(BufReader::new(stream));
                Some((start, clock()))
            } else {
                None
            };
            let conn = self.conn.as_mut().expect("connected above");
            let sent_ns = clock();
            let replied = conn
                .get_mut()
                .write_all(request)
                .and_then(|()| conn.fill_buf().map(|buf| !buf.is_empty()));
            match replied {
                Ok(true) => {
                    let first_byte_ns = clock();
                    let response = read_response(conn);
                    if !matches!(response, Ok((_, _, false))) {
                        self.conn = None;
                    }
                    let (status, body, _) = response?;
                    return Ok(Reply {
                        status,
                        body,
                        times: ReplyTimes {
                            connect,
                            sent_ns,
                            first_byte_ns,
                        },
                    });
                }
                // A kept connection the server had closed meanwhile: retry
                // once on a new one.
                _ if connect.is_none() && !retried => {
                    self.conn = None;
                    retried = true;
                }
                Ok(false) => {
                    self.conn = None;
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed without a reply",
                    ));
                }
                Err(error) => {
                    self.conn = None;
                    return Err(error);
                }
            }
        }
    }
}

/// Status, body (by `Content-Length`) and whether the server closes.
fn read_response(conn: &mut impl BufRead) -> io::Result<(u16, Vec<u8>, bool)> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let mut line = String::new();
    conn.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line `{}`", line.trim_end())))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(invalid("reply ends inside its head".to_string()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| invalid("reply without Content-Length".to_string()))?;
    let mut body = vec![0; length];
    conn.read_exact(&mut body)?;
    Ok((status, body, close))
}

fn get_request(method: &str, share: f64) -> Vec<u8> {
    format!(
        "GET /graphs/g/backbone?method={method}&top_share={share}&format=tsv HTTP/1.1\r\n\
         Host: perfbench\r\n\r\n"
    )
    .into_bytes()
}

fn patch_request(body: &str) -> Vec<u8> {
    format!(
        "PATCH /graphs/g HTTP/1.1\r\nHost: perfbench\r\n\
         Content-Type: text/tab-separated-values\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The first number after `"key": ` in `text`.
fn json_field(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `(count, sum_seconds)` of the PATCH route's duration histogram in a
/// `/metrics?format=json` body (`loadtest::route_duration_seconds` reads
/// GET routes only). The server renders one entry per line.
fn patch_duration_seconds(metrics: &str) -> Option<(u64, f64)> {
    let line = metrics.lines().find(|line| {
        line.contains("\"name\": \"http_request_duration_seconds\"")
            && line.contains("\"method\": \"PATCH\"")
            && line.contains(&format!("\"route\": \"{PATCH_ROUTE}\""))
    })?;
    Some((
        json_field(line, "count")? as u64,
        json_field(line, "sum_seconds")?,
    ))
}

/// A read must return 200 with a header line and `edges` backbone edges.
fn check_read_reply(status: u16, body: &[u8], edges: usize) -> Result<(), String> {
    if status != 200 {
        return Err(format!("read returned {status}"));
    }
    let lines = body.iter().filter(|&&byte| byte == b'\n').count();
    if lines != 1 + edges {
        return Err(format!(
            "read returned {lines} lines, expected {}",
            1 + edges
        ));
    }
    Ok(())
}

/// A PATCH must return 200, reweight the whole batch and publish a
/// generation above `previous`, which it returns.
fn check_patch_reply(status: u16, body: &[u8], previous: u64) -> Result<u64, String> {
    if status != 200 {
        return Err(format!("PATCH returned {status}"));
    }
    let body = std::str::from_utf8(body).map_err(|_| "PATCH reply is not UTF-8")?;
    if json_field(body, "reweighted") != Some(BATCH_EDGES as f64) {
        return Err(format!(
            "PATCH did not reweight {BATCH_EDGES} edges: {body}"
        ));
    }
    let generation = json_field(body, "generation").ok_or("PATCH reply has no generation")?;
    if generation <= previous as f64 {
        return Err(format!(
            "PATCH published generation {generation}, not above {previous}"
        ));
    }
    Ok(generation as u64)
}

/// One input edge: source and target label.
type Edge = (String, String);

/// 16 distinct reweights of edges `client`, `client + 2`, … of the file:
/// the PATCH body and the new weight text of each edge index.
fn batch(rng: &mut SplitMix64, edges: &[Edge], client: usize) -> (String, Vec<(usize, String)>) {
    let owned = (edges.len() + CLIENTS - 1 - client) / CLIENTS;
    let mut updates: Vec<(usize, String)> = Vec::with_capacity(BATCH_EDGES);
    while updates.len() < BATCH_EDGES {
        let index = client + CLIENTS * rng.below(owned);
        if updates.iter().all(|(picked, _)| *picked != index) {
            let weight = format!("{:.3}", 0.5 + (rng.below(9500) as f64) / 1000.0);
            updates.push((index, weight));
        }
    }
    let body = updates
        .iter()
        .map(|(index, weight)| {
            let (source, target) = &edges[*index];
            format!("reweight\t{source}\t{target}\t{weight}\n")
        })
        .collect();
    (body, updates)
}

/// One request of the timed phase.
struct Sample {
    write: bool,
    ok: bool,
    traced: bool,
    ms: f64,
    start_ns: u64,
    end_ns: u64,
    /// `None` when no reply came.
    reply: Option<ReplyTimes>,
}

/// One client of the closed loop.
struct ClientRun {
    client: usize,
    http: Client,
    rng: SplitMix64,
    generation: u64,
    samples: Vec<Sample>,
    /// Last weight text this client sent for each edge index.
    weights: HashMap<usize, String>,
    /// The first requests, for the traced replay.
    requests: Vec<Vec<u8>>,
    errors: Vec<String>,
}

impl ClientRun {
    fn new(client: usize, addr: SocketAddr, seed: u64) -> ClientRun {
        ClientRun {
            client,
            http: Client::new(addr),
            rng: SplitMix64(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            generation: 0,
            samples: Vec::new(),
            weights: HashMap::new(),
            requests: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Send, wait for the reply, check it, repeat until `deadline`. Each call
    /// starts both cycles afresh, that of nine reads and a write and that of
    /// the read kinds, client 1 half a cycle after client 0. Every stretch
    /// thus interleaves the clients the same way, and the two clients'
    /// PATCHes, which the server serialises, seldom meet.
    fn run_until(&mut self, deadline: Instant, edges: &[Edge], trace: bool) {
        let cycle = READS_PER_WRITE + 1;
        let mut position = self.client * cycle / CLIENTS;
        let mut read = self.client * READS.len() / CLIENTS;
        while Instant::now() < deadline {
            let n = self.samples.len();
            let write = position % cycle == READS_PER_WRITE;
            position += 1;
            let traced = trace && n % 2 == 1;
            let (request, updates, expected_edges) = if write {
                let (body, updates) = batch(&mut self.rng, edges, self.client);
                (patch_request(&body), updates, 0)
            } else {
                let (method, share) = READS[read % READS.len()];
                read += 1;
                let kept = matched_edge_count(edges.len(), share).expect("shares lie in [0, 1]");
                (get_request(method, share), Vec::new(), kept)
            };
            if self.requests.len() < REPLAY_PER_CLIENT {
                self.requests.push(request.clone());
            }
            let start = Instant::now();
            let start_ns = if traced { now_ns() } else { 0 };
            let reply = self.http.send(&request, traced);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let end_ns = if traced { now_ns() } else { 0 };
            let checked = match &reply {
                Ok(reply) if write => {
                    if reply.status == 200 {
                        self.weights.extend(updates);
                    }
                    check_patch_reply(reply.status, &reply.body, self.generation)
                        .map(|published| self.generation = published)
                }
                Ok(reply) => check_read_reply(reply.status, &reply.body, expected_edges),
                Err(error) => Err(error.to_string()),
            };
            if let Err(error) = &checked {
                if self.errors.len() < 5 {
                    self.errors.push(format!("client {}: {error}", self.client));
                }
            }
            self.samples.push(Sample {
                write,
                ok: checked.is_ok(),
                traced,
                ms,
                start_ns,
                end_ns,
                reply: reply.ok().map(|reply| reply.times),
            });
        }
    }
}

/// The input text with the weight of every patched edge replaced.
fn patched_input(input: &str, weights: &HashMap<usize, String>) -> String {
    let mut text = String::with_capacity(input.len());
    let mut index = 0;
    for line in input.lines() {
        if line.starts_with('#') {
            text.push_str(line);
        } else {
            let mut fields = line.split_whitespace();
            match (fields.next(), fields.next(), weights.get(&index)) {
                (Some(source), Some(target), Some(weight)) => {
                    text.push_str(&format!("{source}\t{target}\t{weight}"));
                }
                _ => text.push_str(line),
            }
            index += 1;
        }
        text.push('\n');
    }
    text
}

fn parse_edges(input: &str) -> Vec<Edge> {
    input
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            Some((fields.next()?.to_string(), fields.next()?.to_string()))
        })
        .collect()
}

/// Start a server on the generated graph and make it score nc and df once.
fn start_warm(backbone: &Path, graphs: &Path) -> Result<ServerProcess, String> {
    let server = ServerProcess::start(backbone, graphs)?;
    for method in ["nc", "df"] {
        let reply = Client::new(server.addr)
            .send(&get_request(method, 0.1), false)
            .map_err(|e| format!("first {method} read: {e}"))?;
        if reply.status != 200 {
            return Err(format!("first {method} read returned {}", reply.status));
        }
    }
    Ok(server)
}

/// Run the serve_rw workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let spec = format!("{SPEC},seed={}", config.seed);
    let mut trace = Trace::default();
    let mut next_op = 0u64;

    // Set-up: generate, start, load and score nc and df — several times,
    // each into a new directory, keeping the last server.
    let reference = Reference::new();
    let mut setup_s = Vec::new();
    let mut setup_reference_ms = Vec::new();
    let mut inputs = Vec::new();
    let mut server = None;
    let mut graphs = PathBuf::new();
    for rep in 0..SETUP_REPS {
        graphs = config.work.join(format!("graphs{rep}"));
        std::fs::create_dir_all(&graphs).map_err(|e| format!("{}: {e}", graphs.display()))?;
        let input = graphs.join("g.tsv");
        if config.trace {
            gen_traced(&spec, &input, &mut trace, next_op)?;
            next_op += 1;
        } else {
            let start = Instant::now();
            gen_with_cli(&config.backbone, &spec, &input)?;
            let warm = start_warm(&config.backbone, &graphs)?;
            setup_s.push(start.elapsed().as_secs_f64());
            setup_reference_ms.extend([reference.time_ms(), reference.time_ms()]);
            if rep + 1 < SETUP_REPS {
                warm.stop()?;
            } else {
                server = Some(warm);
            }
        }
        let bytes = std::fs::read(&input).map_err(|e| format!("{}: {e}", input.display()))?;
        inputs.push(digest(&bytes));
    }
    let server = match server {
        Some(server) => server,
        None => start_warm(&config.backbone, &graphs)?,
    };
    let input = graphs.join("g.tsv");
    let input_text =
        std::fs::read_to_string(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    let edges = parse_edges(&input_text);

    // Timed phase: the clients in stretches, with the reference workload
    // timed in the pauses before, between and after them.
    let before = scrape_metrics_json(server.addr)?;
    let cpu_before = sys::cpu_jiffies();
    let mut clients: Vec<ClientRun> = (0..CLIENTS)
        .map(|client| ClientRun::new(client, server.addr, config.seed))
        .collect();
    // The two clients keep both vCPUs busy, so each pause times the
    // reference on two threads at once: the host's speed under that load.
    let pause = || -> Vec<f64> {
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|_| scope.spawn(|| reference.time_ms()))
                .collect();
            threads
                .into_iter()
                .map(|thread| thread.join().expect("reference thread panicked"))
                .collect()
        })
    };
    let mut reference_ms = pause();
    let mut timed_s = 0.0;
    while timed_s < config.seconds {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64((config.seconds - timed_s).min(STRETCH_S));
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                let edges = &edges;
                scope.spawn(move || client.run_until(deadline, edges, config.trace));
            }
        });
        timed_s += start.elapsed().as_secs_f64();
        reference_ms.extend(pause());
    }
    let steal = sys::steal_share(cpu_before, sys::cpu_jiffies());
    let hwm_kib = sys::vm_hwm_kib(server.child.id()).ok_or("cannot read the server's VmHWM")?;
    let after = scrape_metrics_json(server.addr)?;

    // Checks.
    let mut problems: Vec<String> = clients.iter().flat_map(|c| c.errors.clone()).collect();
    if inputs.windows(2).any(|pair| pair[0] != pair[1]) {
        problems.push(format!("generating {spec} twice gave different files"));
    }
    let samples: Vec<&Sample> = clients.iter().flat_map(|c| &c.samples).collect();
    for (method, route, write) in [("GET", BACKBONE_ROUTE, false), ("PATCH", PATCH_ROUTE, true)] {
        let client = samples
            .iter()
            .filter(|s| s.write == write && s.reply.is_some())
            .count() as u64;
        let server_count = route_request_count_by_method(&after, method, route)
            - route_request_count_by_method(&before, method, route);
        if server_count != client {
            problems.push(format!(
                "/metrics counts {server_count} {method} requests, the clients {client}"
            ));
        }
    }
    let mut weights = HashMap::new();
    for client in &clients {
        weights.extend(client.weights.iter().map(|(k, v)| (*k, v.clone())));
    }
    let patched = config.work.join("patched.tsv");
    std::fs::write(&patched, patched_input(&input_text, &weights))
        .map_err(|e| format!("{}: {e}", patched.display()))?;
    let served = Client::new(server.addr)
        .send(&get_request("nc", 0.1), false)
        .map_err(|e| format!("final nc read: {e}"))?;
    let scratch = Command::new(&config.backbone)
        .args([
            "-m",
            "nc",
            "--top-share",
            "0.1",
            "--undirected",
            "--threads",
            "1",
        ])
        .arg(&patched)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", config.backbone.display()))?;
    if served.status != 200 || !scratch.status.success() || served.body != scratch.stdout {
        problems.push(
            "the served nc backbone differs from a from-scratch run on the patched input"
                .to_string(),
        );
    }
    server.stop()?;

    let options = EdgeListOptions::with_direction(Direction::Undirected);
    let graph = read_edge_list_csr_file(&input, &options).map_err(|e| e.to_string())?;
    if graph.edge_count() != edges.len() {
        problems.push(format!(
            "the server's graph has {} edges, the file {}",
            graph.edge_count(),
            edges.len()
        ));
    }
    let ms = |write: bool, traced: Option<bool>| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.write == write && traced.is_none_or(|t| s.traced == t))
            .map(|s| s.ms)
            .collect()
    };
    let mut record = backboning::json::JsonObject::inline();
    record
        .usize("threads", 1)
        .usize("clients", CLIENTS)
        .usize("nodes", graph.node_count())
        .usize("edges", graph.edge_count())
        .usize("input_bytes", input_text.len())
        .f64("timed_s", timed_s)
        .f64("cpu_steal_share", steal)
        .raw("setup_s", &json_list(&setup_s))
        .raw("setup_reference_ms", &json_list(&setup_reference_ms))
        .f64("reference_ms", NOMINAL_MS / scale(&reference_ms))
        .usize("writes", ms(true, None).len())
        .f64("raw_ops_per_s", samples.len() as f64 / timed_s)
        .f64("raw_op_ms_p50", median_or_zero(&ms(false, None)))
        .f64("raw_write_ms_p50", median_or_zero(&ms(true, None)));

    let mut metrics = std::collections::BTreeMap::new();
    if config.trace {
        for client in &clients {
            for sample in client.samples.iter().filter(|s| s.traced) {
                add_request_spans(&mut trace, sample, next_op);
                next_op += 1;
            }
        }
        let replay_log = replay(&input, &clients, &mut trace, &mut next_op)?;
        metrics = span_metrics(&trace);
        let read_ms = metrics.get("graph.io.read_ms").copied().unwrap_or(0.0);
        metrics.insert(
            "graph.io.read_mib_per_s",
            mib_per_s(input_text.len() as u64, read_ms),
        );
        metrics.insert("core.select.kept_edges", median_or_zero(&replay_log.kept));
        metrics.insert("graph.io.write_bytes", median_or_zero(&replay_log.bytes));
        let connects: u64 = clients.iter().map(|c| c.http.connects).sum();
        metrics.insert(
            "server.http.conns_per_req",
            connects as f64 / samples.len() as f64,
        );
        let backbone_ms = per_request_ms(
            route_duration_seconds(&before, BACKBONE_ROUTE),
            route_duration_seconds(&after, BACKBONE_ROUTE),
        );
        metrics.insert("server.route.backbone_ms", backbone_ms);
        metrics.insert(
            "server.route.patch_ms",
            per_request_ms(
                patch_duration_seconds(&before),
                patch_duration_seconds(&after),
            ),
        );
        let reads = ms(false, None);
        let read_mean = reads.iter().sum::<f64>() / reads.len().max(1) as f64;
        metrics.insert("server.wait_ms", read_mean - backbone_ms);
        let delta =
            |name: &str| (counter_total(&after, name) - counter_total(&before, name)) as f64;
        let hits = delta("score_cache_hits_total");
        let misses = delta("score_cache_misses_total");
        if hits + misses > 0.0 {
            metrics.insert("server.registry.hit_ratio", hits / (hits + misses));
        }
        metrics.insert(
            "server.registry.compactions",
            delta("graph_compactions_total"),
        );
        metrics.insert(
            "trace.overhead_ms",
            median_or_zero(&ms(false, Some(true))) - median_or_zero(&ms(false, Some(false))),
        );
        metrics.insert(
            "trace.layer_coverage",
            median_or_zero(&trace.child_coverage("server.request")),
        );
    } else {
        // Times on the nominal host, from the reference timed in the pauses.
        let run_scale = scale(&reference_ms);
        let scaled =
            |write: bool| -> Vec<f64> { ms(write, None).iter().map(|ms| ms * run_scale).collect() };
        let (reads, writes) = (scaled(false), scaled(true));
        metrics.insert(
            "setup_s",
            median_or_zero(&setup_s) * scale(&setup_reference_ms),
        );
        metrics.insert("ops_per_s", samples.len() as f64 / (timed_s * run_scale));
        metrics.insert("op_ms_p50", median_or_zero(&reads));
        metrics.insert("op_ms_p90", stats::p90(&reads)?);
        metrics.insert("write_ms_p50", median_or_zero(&writes));
        metrics.insert("write_ms_p90", stats::p90(&writes)?);
        metrics.insert("peak_rss_mib", hwm_kib as f64 / 1024.0);
    }
    Ok(Outcome {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        problems,
        metrics,
        record,
        trace,
    })
}

/// Mean milliseconds per request between two `(count, sum_seconds)`
/// readings of a route's duration histogram; a route the server had not yet
/// seen at the first reading starts from zero.
fn per_request_ms(before: Option<(u64, f64)>, after: Option<(u64, f64)>) -> f64 {
    let (count0, sum0) = before.unwrap_or((0, 0.0));
    match after {
        Some((count1, sum1)) if count1 > count0 => (sum1 - sum0) / (count1 - count0) as f64 * 1e3,
        _ => 0.0,
    }
}

/// The client-side spans of one traced request: connect (when it opened a
/// connection), time to first byte, and receive.
fn add_request_spans(trace: &mut Trace, sample: &Sample, op: u64) {
    let parent = trace.push(Span {
        name: "server.request".to_string(),
        start_ns: sample.start_ns,
        end_ns: sample.end_ns,
        parent: None,
        op,
    });
    let Some(times) = sample.reply else {
        return;
    };
    let mut child = |name: &str, start_ns, end_ns| {
        trace.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            op,
        });
    };
    if let Some((start, end)) = times.connect {
        child("server.http.connect", start, end);
    }
    child("server.http.ttfb", times.sent_ns, times.first_byte_ns);
    child("server.http.recv", times.first_byte_ns, sample.end_ns);
}

/// Per-read counts of the traced replay.
struct ReplayLog {
    kept: Vec<f64>,
    bytes: Vec<f64>,
}

/// Replay the first requests of both clients, alternating, through the
/// server's request parser and registry in this process.
fn replay(
    input: &Path,
    clients: &[ClientRun],
    trace: &mut Trace,
    next_op: &mut u64,
) -> Result<ReplayLog, String> {
    let mut op = |trace: &mut Trace, name: &str| {
        *next_op += 1;
        trace.open(name, None, *next_op)
    };
    let registry = Registry::new(1);
    let load = op(trace, "server.replay.load");
    let options = EdgeListOptions::with_direction(Direction::Undirected);
    let graph = trace
        .time("graph.io.read", load, || {
            read_edge_list_csr_file(input, &options)
        })
        .map_err(|e| e.to_string())?;
    let entry = registry.insert("g", graph)?;
    trace.close(load);
    let (nc, df) = (Method::NoiseCorrected, Method::DisparityFilter);
    for method in [nc, df] {
        let warm = op(trace, "server.replay.score");
        trace
            .time("core.score", warm, || registry.scored(&entry, method))
            .map_err(|e| e.to_string())?;
        trace.close(warm);
    }

    let mut log = ReplayLog {
        kept: Vec::new(),
        bytes: Vec::new(),
    };
    let longest = clients.iter().map(|c| c.requests.len()).max().unwrap_or(0);
    let requests = (0..longest).flat_map(|i| clients.iter().filter_map(move |c| c.requests.get(i)));
    for bytes in requests {
        let request_op = op(trace, "server.replay.request");
        let request = trace
            .time("server.http.read_request", request_op, || {
                read_request(&mut bytes.as_slice())
            })
            .map_err(|e| e.to_string())?
            .ok_or("replayed request is empty")?;
        let state = entry.snapshot();
        let graph = state.graph().as_ref();
        if request.method == "PATCH" {
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let batch = DeltaBatch::parse_tsv(text).map_err(|e| e.to_string())?;
            // The parts of `Registry::patch`, timed one by one on a copy.
            let mut overlay = DeltaGraph::from_csr(graph);
            let effect = overlay.apply(&batch).map_err(|e| e.to_string())?;
            let updates: Vec<(usize, f64)> = effect
                .changed_edges
                .iter()
                .filter_map(|&id| Some((id, overlay.edge_weight(id)?)))
                .collect();
            let reweighted = trace
                .time("graph.csr.reweight", request_op, || {
                    graph.with_reweighted_edges(&updates)
                })
                .map_err(|e| e.to_string())?;
            for (method, name) in [(nc, "core.delta.rescore_nc"), (df, "core.delta.rescore_df")] {
                let previous = registry
                    .scored_state(&state, method)
                    .map_err(|e| e.to_string())?;
                trace
                    .time(name, request_op, || {
                        delta_rescore(method, &reweighted, &previous, &effect, 1)
                    })
                    .map_err(|e| e.to_string())?;
            }
            trace
                .time("server.registry.patch", request_op, || {
                    registry.patch(&entry, &batch)
                })
                .map_err(|e| e.to_string())?;
        } else {
            let method = request
                .query_param("method")
                .and_then(Method::parse)
                .ok_or("replayed read has no method")?;
            let share: f64 = request
                .query_param("top_share")
                .and_then(|share| share.parse().ok())
                .ok_or("replayed read has no top_share")?;
            let scored = trace
                .time("server.registry.scored_state", request_op, || {
                    registry.scored_state(&state, method)
                })
                .map_err(|e| e.to_string())?;
            let pipeline = Pipeline::new(method, ThresholdPolicy::TopShare(share)).with_threads(1);
            let kept = trace
                .time("core.select", request_op, || {
                    pipeline.select(graph, &scored)
                })
                .map_err(|e| e.to_string())?;
            let backbone = trace
                .time("graph.csr.subgraph", request_op, || {
                    graph.subgraph_with_edges(&kept)
                })
                .map_err(|e| e.to_string())?;
            let mut body = Vec::new();
            trace
                .time("graph.io.write", request_op, || {
                    write_edge_list(&backbone, &mut body)
                })
                .map_err(|e| e.to_string())?;
            log.kept.push(kept.len() as f64);
            log.bytes.push(body.len() as f64);
        }
        trace.close(request_op);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLY: &str = "{\n  \"name\": \"g\",\n  \"nodes\": 4,\n  \"edges\": 5,\n  \
        \"generation\": 3,\n  \"applied\": { \"added\": 0, \"removed\": 0, \"reweighted\": 16 },\n  \
        \"compacted\": false\n}\n";

    #[test]
    fn a_wrong_patch_reply_counts_as_failed() {
        assert_eq!(check_patch_reply(200, REPLY.as_bytes(), 2), Ok(3));
        // Not a newer generation than this client already saw.
        assert!(check_patch_reply(200, REPLY.as_bytes(), 3).is_err());
        // Fewer edges reweighted than sent.
        let short = REPLY.replace("\"reweighted\": 16", "\"reweighted\": 15");
        assert!(check_patch_reply(200, short.as_bytes(), 2).is_err());
        // An error status, and a body that is not a PATCH reply.
        assert!(check_patch_reply(400, REPLY.as_bytes(), 2).is_err());
        assert!(check_patch_reply(200, b"{}", 2).is_err());
    }

    #[test]
    fn a_read_must_hold_one_header_and_the_kept_edges() {
        let body = b"# source\ttarget\tweight\na\tb\t1\nb\tc\t2\n";
        assert!(check_read_reply(200, body, 2).is_ok());
        assert!(check_read_reply(200, body, 3).is_err());
        assert!(check_read_reply(500, body, 2).is_err());
    }

    #[test]
    fn batches_stay_on_the_clients_own_edges_and_are_seeded() {
        let edges: Vec<Edge> = (0..101)
            .map(|i| (format!("s{i}"), format!("t{i}")))
            .collect();
        for client in 0..CLIENTS {
            let (body, updates) = batch(&mut SplitMix64(7), &edges, client);
            assert_eq!(updates.len(), BATCH_EDGES);
            assert!(updates.iter().all(|(index, _)| index % CLIENTS == client));
            assert_eq!(DeltaBatch::parse_tsv(&body).unwrap().len(), BATCH_EDGES);
            assert_eq!(batch(&mut SplitMix64(7), &edges, client).0, body);
        }
    }

    #[test]
    fn patched_input_replaces_only_the_patched_weights() {
        let input = "# source\ttarget\tweight\na\tb\t1\nb\tc\t2\n";
        let weights = HashMap::from([(1, "7.5".to_string())]);
        assert_eq!(
            patched_input(input, &weights),
            "# source\ttarget\tweight\na\tb\t1\nb\tc\t7.5\n"
        );
    }

    #[test]
    fn route_times_come_from_histogram_deltas() {
        let histogram = |method: &str, route: &str, count: u64, sum: f64| {
            format!(
                "{{ \"name\": \"http_request_duration_seconds\", \"labels\": {{ \"method\": \
                 \"{method}\", \"route\": \"{route}\" }}, \"count\": {count}, \"sum_seconds\": \
                 {sum}, \"p50_seconds\": 0.001 }}\n"
            )
        };
        let before = histogram("GET", BACKBONE_ROUTE, 2, 0.05);
        let after =
            histogram("GET", BACKBONE_ROUTE, 6, 0.13) + &histogram("PATCH", PATCH_ROUTE, 4, 0.1);
        assert_eq!(patch_duration_seconds(&before), None);
        assert_eq!(patch_duration_seconds(&after), Some((4, 0.1)));
        // A route first seen after the first scrape starts from zero.
        let patch_ms = per_request_ms(
            patch_duration_seconds(&before),
            patch_duration_seconds(&after),
        );
        assert!((patch_ms - 25.0).abs() < 1e-9);
        let backbone_ms = per_request_ms(
            route_duration_seconds(&before, BACKBONE_ROUTE),
            route_duration_seconds(&after, BACKBONE_ROUTE),
        );
        assert!((backbone_ms - 20.0).abs() < 1e-9);
        assert_eq!(per_request_ms(Some((4, 0.1)), Some((4, 0.1))), 0.0);
    }
}
