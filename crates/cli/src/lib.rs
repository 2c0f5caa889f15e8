//! # backboning-cli
//!
//! The library behind the `backbone` binary: argument parsing and execution
//! for the production-facing backboning pipeline. Given any weighted edge
//! list — a file or stdin, whitespace/CSV/TSV separated — it selects one of
//! the seven backboning methods, applies one of the four threshold policies,
//! and emits the backbone edge list, the full scored-edge table, or a JSON
//! run summary.
//!
//! All of the actual work happens in [`backboning::Pipeline`]; this crate
//! only translates command-line flags into a [`CliConfig`] (or, for
//! `backbone serve`, a [`backboning_server::ServerConfig`]) and streams the
//! input. The parser is hand-rolled (the build environment vendors no
//! argument-parsing crate) but follows GNU conventions: long flags with
//! values as separate arguments, `-` for stdin, `--` unsupported-flag errors
//! with a usage hint.
//!
//! ```
//! use backboning_cli::{parse_args, Command};
//!
//! let command = parse_args(["--method", "nc", "--top-k", "10", "edges.tsv"]
//!     .map(String::from))
//!     .unwrap();
//! let Command::Run(config) = command else { panic!("expected a run") };
//! assert_eq!(config.method, backboning::Method::NoiseCorrected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{BufReader, Write};
use std::path::PathBuf;

use backboning::{apply_batch, delta_rescore, Method, Pipeline, ThresholdPolicy};
use backboning_bench::matrix;
use backboning_eval::comparison::{parse_method_list, Comparison, ComparisonConfig};
use backboning_gen::ScenarioSpec;
use backboning_graph::io::{read_edge_list_csr_named, EdgeListOptions};
use backboning_graph::DeltaBatch;
use backboning_graph::Direction;

/// The usage text printed by `backbone --help` and on usage errors.
pub const USAGE: &str = "\
backbone — extract the statistically significant backbone of a weighted network
(Coscia & Neffke, \"Network Backboning with Noisy Data\", ICDE 2017)

USAGE:
    backbone --method <METHOD> <POLICY> [OPTIONS] [INPUT]

INPUT:
    Path to a weighted edge list (`source target [weight]`, one edge per
    line), or `-` for stdin (the default). Input is streamed line by line.

METHOD (-m, --method):
    nc          Noise-Corrected backbone (the paper's contribution)
    ncb         Noise-Corrected, direct binomial p-values
    df          Disparity Filter (Serrano et al. 2009)
    hss         High Salience Skeleton (Grady et al. 2012)
    hss-approx  HSS estimated from K sampled roots (see --hss-roots); scales
                to networks where exact hss is infeasible
    ds          Doubly Stochastic (Slater 2009; parameter-free)
    mst         Maximum Spanning Tree (parameter-free)
    naive       Naive weight threshold

HSS-APPROX OPTIONS (with --method hss-approx, or compare --methods lists
containing it; rejected otherwise):
    --hss-roots <K>        sampled shortest-path-tree roots (default 256);
                           per-edge salience error ≤ sqrt(ln(2/α)/(2K)) with
                           probability 1−α, and K ≥ |V| is exactly hss
    --hss-seed <N>         root-sampling seed (default 4242); a fixed
                           (roots, seed) pair is fully deterministic

POLICY (exactly one):
    --threshold <SCORE>    keep edges with score ≥ SCORE (the method's natural
                           parameter, e.g. the NC δ: 1.28/1.64/2.32 for
                           p ≈ .10/.05/.01)
    --top-k <N>            keep the N highest scoring edges
    --top-share <F>        keep the top share F ∈ [0,1] of edges
    --coverage <F>         keep the smallest score-ranked prefix of edges
                           covering a share F ∈ [0,1] of the non-isolated nodes

INPUT FORMAT:
    --undirected           merge edge orientations (default: directed)
    --csv                  comma-separated fields
    --tsv                  tab-separated fields
    --separator <CHAR>     custom single-character separator
                           (default: any whitespace)
    --header               skip the first non-comment line
    --comment <CHAR>       comment-line prefix (default: '#')
    --no-comment           treat no line as a comment

OUTPUT:
    -o, --output <KIND>    backbone  the backbone as a TSV edge list (default)
                           scores    the full scored-edge table as TSV
                           summary   a JSON run summary
    --threads <N>          worker threads (default: auto; also honours the
                           BACKBONING_THREADS environment variable)
    --timings              print a per-stage wall-time breakdown (ingest /
                           score / select / build / write) to stderr after
                           the run

COMPARE MODE:
    backbone compare [--methods LIST] [--top-share F] [OPTIONS] [INPUT]

    Run several methods on the same graph and report which backbone to
    trust: every method is selected at matched edge coverage (the paper's
    Section V methodology) and compared on node/edge/weight coverage,
    connectivity, pairwise Jaccard agreement, and stability under
    multiplicative noise. See docs/GUIDE.md § Which method should I use?

    --methods <LIST>       comma-separated method names, or `all`
                           (default: nc,df,hss — the tunable methods)
    --top-share <F>        matched edge coverage: every method keeps
                           round(F × E) edges (default 0.1)
    --noise <F>            multiplicative noise level in [0, 1): weights are
                           scaled by U(1-F, 1+F) per resample (default 0.1)
    --resamples <N>        noise Monte Carlo resamples, at most 1000; 0
                           skips the stability metric (default 8)
    --seed <N>             base seed of the noise resamples (default 4242)
    -o, --output <KIND>    table  human-readable comparison tables (default)
                           json   the JSON report: the stable report of the
                                  server's /graphs/NAME/compare route plus a
                                  per-method score_wall_ms timing field
    --threads <N>          worker threads (default: auto)
    The INPUT FORMAT and HSS-APPROX flags above apply; INPUT defaults to
    stdin.

SERVE MODE:
    backbone serve [--addr HOST:PORT] [--graphs DIR] [OPTIONS]

    Run a long-lived HTTP server with a scored-graph cache: graphs are
    loaded from DIR at startup (and can be uploaded via POST /graphs/NAME),
    each (graph, method) pair is scored at most once, and every threshold
    query after the first is answered from the cached scores.

    --addr <HOST:PORT>     bind address (default 127.0.0.1:4817; port 0
                           picks an ephemeral port)
    --graphs <DIR>         directory of edge lists (*.tsv, *.csv, *.txt,
                           *.edges) to register at startup, named by file
                           stem
    --threads <N>          scoring worker threads, and the worker-pool floor
    --access-log           log one line per request to stderr
                           (method, path, status, bytes, milliseconds)
    The INPUT FORMAT flags above apply to the startup graph directory.

    Routes: GET /health · GET /metrics[?format=json] · GET /graphs ·
    GET|POST|DELETE /graphs/NAME ·
    GET /graphs/NAME/backbone?method=nc&top_share=0.2[&output=...][&format=...]
    · GET /graphs/NAME/compare[?methods=...&top_share=...] · POST /shutdown
    (clean stop). Full reference: docs/API.md.

GEN MODE:
    backbone gen <SPEC> [--out PATH]

    Generate a synthetic scenario deterministically from a spec string and
    write it as a TSV edge list to stdout (or PATH). The same spec always
    produces byte-identical output. Spec grammar (see docs/GUIDE.md
    § Generating scenarios):

        <family>:n=<NODES>[,<key>=<value>...]

    Families: ba (m = attachment edges), er (e = edge count), geo
    (r = connection radius), sb (b = blocks, pin/pout = within/between edge
    probability). Shared keys: w = unit | uniform(MAX) | powerlaw(ALPHA) |
    lognormal(MU,SIGMA); noise = F in [0,1) (the paper's multiplicative
    noise model); seed = N (default 4242). Example:

        backbone gen \"sb:n=5000,b=8,pin=0.02,pout=0.0008,w=lognormal(0,1)\"

PATCH MODE:
    backbone patch <DELTA> [--out PATH] [--verify] [OPTIONS] [INPUT]

    Apply a batched delta to an edge list and write the patched edge list
    to stdout (or PATH). DELTA is a file of one op per line — the same
    wire format as the server's PATCH /graphs/NAME route:

        add SOURCE TARGET WEIGHT
        remove SOURCE TARGET
        reweight SOURCE TARGET WEIGHT

    The batch is transactional: any invalid line (unknown node, duplicate
    add, bad weight) rejects the whole delta, naming the line. With
    --verify, every method with an incremental delta path is additionally
    rescored both incrementally and from scratch on the patched graph and
    the run fails unless the two agree bit-for-bit — the churn-parity
    contract, runnable offline on real data.

    --out <PATH>           write the patched edge list to PATH (then stdout
                           gets a one-line summary instead)
    --verify               cross-check incremental vs from-scratch scores
    --threads <N>          worker threads for --verify scoring
    The INPUT FORMAT flags above apply; INPUT defaults to stdin.

BENCH-MATRIX MODE:
    backbone bench-matrix [OPTIONS]

    Sweep generated scenarios × methods × a top-share policy and upsert one
    structured row per cell into the \"matrix\" section of
    BENCH_backbones.json — the regression-tracked perf grid. Rows are keyed
    by spec × method × policy × threads and are deterministic apart from
    the median_ms / edges_per_sec timing fields.

    --specs <LIST>         semicolon-separated scenario specs (default: the
                           committed 4-family × 2-size grid)
    --methods <LIST>       comma-separated method names (default:
                           naive,mst,df,nc,hss-approx — the scalable set)
    --top-share <F>        matched edge coverage per backbone (default 0.1)
    --runs <N>             timed repetitions per cell, median recorded
                           (default 3)
    --threads <N>          worker threads (default 1, for comparable rows)
    --out <PATH>           snapshot file to upsert
                           (default BENCH_backbones.json)

    -h, --help             print this help
";

/// What kind of output the run writes to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// The backbone as a TSV edge list.
    Backbone,
    /// The full scored-edge table as TSV.
    Scores,
    /// A JSON run summary.
    Summary,
}

/// A fully parsed `backbone` invocation.
#[derive(Debug, Clone)]
pub struct CliConfig {
    /// Input path; `None` reads stdin.
    pub input: Option<PathBuf>,
    /// The backboning method.
    pub method: Method,
    /// The threshold policy.
    pub policy: ThresholdPolicy,
    /// Edge-list parsing options (direction, separator, header, comments).
    pub options: EdgeListOptions,
    /// What to write to stdout.
    pub output: OutputKind,
    /// Worker threads (`0` = automatic).
    pub threads: usize,
    /// Print a per-stage wall-time breakdown to stderr after the run.
    pub timings: bool,
}

/// What a `backbone compare` run writes to stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOutputKind {
    /// Human-readable comparison tables.
    Table,
    /// The stable JSON report ([`backboning_eval::ComparisonReport::to_json`]).
    Json,
}

/// A fully parsed `backbone compare` invocation.
#[derive(Debug, Clone)]
pub struct CompareCliConfig {
    /// Input path; `None` reads stdin.
    pub input: Option<PathBuf>,
    /// Edge-list parsing options (direction, separator, header, comments).
    pub options: EdgeListOptions,
    /// The comparison engine configuration (methods, matched share, noise
    /// Monte Carlo).
    pub comparison: ComparisonConfig,
    /// What to write to stdout.
    pub output: CompareOutputKind,
}

/// A fully parsed `backbone gen` invocation.
#[derive(Debug, Clone)]
pub struct GenCliConfig {
    /// The scenario to generate.
    pub spec: ScenarioSpec,
    /// Output path; `None` writes the edge list to stdout.
    pub out: Option<PathBuf>,
}

/// A fully parsed `backbone patch` invocation.
#[derive(Debug, Clone)]
pub struct PatchCliConfig {
    /// Graph input path; `None` reads stdin.
    pub input: Option<PathBuf>,
    /// The delta file (add/remove/reweight lines).
    pub delta: PathBuf,
    /// Output path for the patched edge list; `None` writes to stdout.
    pub out: Option<PathBuf>,
    /// Edge-list parsing options (direction, separator, header, comments).
    pub options: EdgeListOptions,
    /// Cross-check incremental against from-scratch rescoring.
    pub verify: bool,
    /// Worker threads for `--verify` scoring (`0` = automatic).
    pub threads: usize,
}

/// A fully parsed `backbone bench-matrix` invocation.
#[derive(Debug, Clone)]
pub struct MatrixCliConfig {
    /// The sweep configuration (specs, methods, policy, runs, threads).
    pub matrix: matrix::MatrixConfig,
    /// The snapshot file whose `"matrix"` section is upserted.
    pub out: PathBuf,
}

/// The parsed command: run the pipeline, compare methods, serve over HTTP,
/// generate a scenario, sweep the bench matrix, or print help.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run the pipeline with this configuration.
    Run(CliConfig),
    /// Run the method comparison (`backbone compare`).
    Compare(CompareCliConfig),
    /// Start the HTTP serving subsystem (`backbone serve`).
    Serve(backboning_server::ServerConfig),
    /// Generate a scenario edge list (`backbone gen`).
    Gen(GenCliConfig),
    /// Sweep the scenario × method bench matrix (`backbone bench-matrix`).
    BenchMatrix(MatrixCliConfig),
    /// Apply a batched delta to an edge list (`backbone patch`).
    Patch(PatchCliConfig),
    /// Print the usage text and exit successfully.
    Help,
}

/// A usage error: the message to print alongside the usage hint (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

fn usage_error(message: impl Into<String>) -> UsageError {
    UsageError(message.into())
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
    value
        .parse::<T>()
        .map_err(|_| usage_error(format!("{flag}: cannot parse `{value}` as a number")))
}

fn parse_separator(flag: &str, value: &str) -> Result<char, UsageError> {
    let mut chars = value.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(usage_error(format!(
            "{flag}: expected a single character, got `{value}`"
        ))),
    }
}

/// Apply one of the shared edge-list format flags (`--undirected`, `--csv`,
/// `--separator`, …) to `options`, consuming its value from `args` when the
/// flag takes one. Returns `false` when `flag` is not a format flag.
fn apply_format_flag(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    options: &mut EdgeListOptions,
) -> Result<bool, UsageError> {
    let mut value_for = |flag: &str| {
        args.next()
            .ok_or_else(|| usage_error(format!("{flag}: missing value")))
    };
    match flag {
        "--undirected" => options.direction = Direction::Undirected,
        "--directed" => options.direction = Direction::Directed,
        "--csv" => options.separator = Some(','),
        "--tsv" => options.separator = Some('\t'),
        "--separator" => {
            options.separator = Some(parse_separator(flag, &value_for(flag)?)?);
        }
        "--header" => options.has_header = true,
        "--comment" => {
            options.comment_prefix = Some(parse_separator(flag, &value_for(flag)?)?);
        }
        "--no-comment" => options.comment_prefix = None,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Patch `--hss-roots` / `--hss-seed` overrides onto an `hss-approx` method.
///
/// The flags are rejected for any other method instead of being silently
/// ignored.
fn apply_hss_params(
    method: Method,
    hss_roots: Option<usize>,
    hss_seed: Option<u64>,
) -> Result<Method, UsageError> {
    match method {
        Method::HssApprox { roots, seed } => Ok(Method::HssApprox {
            roots: hss_roots.unwrap_or(roots),
            seed: hss_seed.unwrap_or(seed),
        }),
        _ if hss_roots.is_some() || hss_seed.is_some() => Err(usage_error(
            "--hss-roots/--hss-seed apply only to the hss-approx method",
        )),
        _ => Ok(method),
    }
}

/// Parse the flags of `backbone serve …` (after the `serve` word).
fn parse_serve_args(mut args: impl Iterator<Item = String>) -> Result<Command, UsageError> {
    let mut config = backboning_server::ServerConfig::default();
    while let Some(arg) = args.next() {
        if matches!(arg.as_str(), "-h" | "--help") {
            return Ok(Command::Help);
        }
        if apply_format_flag(&arg, &mut args, &mut config.options)? {
            continue;
        }
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value_for(&arg)?,
            "--graphs" => config.graphs_dir = Some(PathBuf::from(value_for(&arg)?)),
            "--threads" => config.threads = parse_number(&arg, &value_for(&arg)?)?,
            "--access-log" => config.access_log = true,
            flag if flag.starts_with('-') => {
                return Err(usage_error(format!("unknown serve flag `{flag}`")));
            }
            other => {
                return Err(usage_error(format!(
                    "serve takes no positional arguments, got `{other}`"
                )));
            }
        }
    }
    Ok(Command::Serve(config))
}

/// Parse the flags of `backbone compare …` (after the `compare` word).
fn parse_compare_args(mut args: impl Iterator<Item = String>) -> Result<Command, UsageError> {
    let mut config = CompareCliConfig {
        input: None,
        options: EdgeListOptions::default(),
        comparison: ComparisonConfig::default(),
        output: CompareOutputKind::Table,
    };
    let mut explicit_stdin = false;
    let mut hss_roots: Option<usize> = None;
    let mut hss_seed: Option<u64> = None;
    while let Some(arg) = args.next() {
        if matches!(arg.as_str(), "-h" | "--help") {
            return Ok(Command::Help);
        }
        if apply_format_flag(&arg, &mut args, &mut config.options)? {
            continue;
        }
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "--methods" => {
                config.comparison.methods =
                    parse_method_list(&value_for(&arg)?).map_err(usage_error)?;
            }
            "--top-share" => config.comparison.top_share = parse_number(&arg, &value_for(&arg)?)?,
            "--noise" => config.comparison.noise_level = parse_number(&arg, &value_for(&arg)?)?,
            "--resamples" => {
                config.comparison.noise_resamples = parse_number(&arg, &value_for(&arg)?)?;
            }
            "--seed" => config.comparison.seed = parse_number(&arg, &value_for(&arg)?)?,
            "--hss-roots" => hss_roots = Some(parse_number(&arg, &value_for(&arg)?)?),
            "--hss-seed" => hss_seed = Some(parse_number(&arg, &value_for(&arg)?)?),
            "--threads" => config.comparison.threads = parse_number(&arg, &value_for(&arg)?)?,
            "-o" | "--output" => {
                let kind = value_for(&arg)?;
                config.output = match kind.as_str() {
                    "table" => CompareOutputKind::Table,
                    "json" => CompareOutputKind::Json,
                    other => {
                        return Err(usage_error(format!(
                            "unknown compare output kind `{other}` (expected table or json)"
                        )))
                    }
                };
            }
            "-" => {
                if config.input.is_some() || explicit_stdin {
                    return Err(usage_error(
                        "unexpected extra input `-` (one edge list per run)",
                    ));
                }
                explicit_stdin = true;
            }
            flag if flag.starts_with('-') => {
                return Err(usage_error(format!("unknown compare flag `{flag}`")));
            }
            path => {
                if config.input.is_some() || explicit_stdin {
                    return Err(usage_error(format!(
                        "unexpected extra input `{path}` (one edge list per run)"
                    )));
                }
                config.input = Some(PathBuf::from(path));
            }
        }
    }
    if hss_roots.is_some() || hss_seed.is_some() {
        if !config
            .comparison
            .methods
            .iter()
            .any(|m| matches!(m, Method::HssApprox { .. }))
        {
            return Err(usage_error(
                "--hss-roots/--hss-seed apply only when --methods includes hss-approx",
            ));
        }
        for method in &mut config.comparison.methods {
            if matches!(method, Method::HssApprox { .. }) {
                *method = apply_hss_params(*method, hss_roots, hss_seed)?;
            }
        }
    }
    Ok(Command::Compare(config))
}

/// Parse the flags of `backbone gen …` (after the `gen` word).
fn parse_gen_args(mut args: impl Iterator<Item = String>) -> Result<Command, UsageError> {
    let mut spec: Option<ScenarioSpec> = None;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--out" => out = Some(PathBuf::from(value_for(&arg)?)),
            flag if flag.starts_with("--") => {
                return Err(usage_error(format!("unknown gen flag `{flag}`")));
            }
            text => {
                if spec.is_some() {
                    return Err(usage_error(format!(
                        "unexpected extra spec `{text}` (one scenario per run)"
                    )));
                }
                spec = Some(
                    ScenarioSpec::parse(text).map_err(|error| usage_error(error.to_string()))?,
                );
            }
        }
    }
    let spec = spec.ok_or_else(|| usage_error("gen requires a scenario spec argument"))?;
    Ok(Command::Gen(GenCliConfig { spec, out }))
}

/// Parse the flags of `backbone bench-matrix …` (after the `bench-matrix`
/// word).
fn parse_matrix_args(mut args: impl Iterator<Item = String>) -> Result<Command, UsageError> {
    let mut config = matrix::MatrixConfig::default();
    let mut out = PathBuf::from("BENCH_backbones.json");
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--specs" => {
                config.specs = value_for(&arg)?
                    .split(';')
                    .filter(|text| !text.is_empty())
                    .map(|text| {
                        ScenarioSpec::parse(text).map_err(|error| usage_error(error.to_string()))
                    })
                    .collect::<Result<Vec<ScenarioSpec>, UsageError>>()?;
            }
            "--methods" => {
                config.methods = parse_method_list(&value_for(&arg)?).map_err(usage_error)?;
            }
            "--top-share" => config.top_share = parse_number(&arg, &value_for(&arg)?)?,
            "--runs" => config.runs = parse_number(&arg, &value_for(&arg)?)?,
            "--threads" => config.threads = parse_number(&arg, &value_for(&arg)?)?,
            "--out" => out = PathBuf::from(value_for(&arg)?),
            flag if flag.starts_with('-') => {
                return Err(usage_error(format!("unknown bench-matrix flag `{flag}`")));
            }
            other => {
                return Err(usage_error(format!(
                    "bench-matrix takes no positional arguments, got `{other}`"
                )));
            }
        }
    }
    Ok(Command::BenchMatrix(MatrixCliConfig {
        matrix: config,
        out,
    }))
}

/// Parse the flags of `backbone patch …` (after the `patch` word).
fn parse_patch_args(mut args: impl Iterator<Item = String>) -> Result<Command, UsageError> {
    let mut delta: Option<PathBuf> = None;
    let mut input: Option<PathBuf> = None;
    let mut explicit_stdin = false;
    let mut out: Option<PathBuf> = None;
    let mut options = EdgeListOptions::default();
    let mut verify = false;
    let mut threads = 0usize;
    while let Some(arg) = args.next() {
        if apply_format_flag(&arg, &mut args, &mut options)? {
            continue;
        }
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--out" => out = Some(PathBuf::from(value_for(&arg)?)),
            "--verify" => verify = true,
            "--threads" => threads = parse_number(&arg, &value_for(&arg)?)?,
            flag if flag.starts_with("--") => {
                return Err(usage_error(format!("unknown patch flag `{flag}`")));
            }
            "-" => {
                if delta.is_none() {
                    return Err(usage_error("the delta argument cannot be stdin"));
                }
                explicit_stdin = true;
            }
            path => {
                if delta.is_none() {
                    delta = Some(PathBuf::from(path));
                } else if input.is_none() && !explicit_stdin {
                    input = Some(PathBuf::from(path));
                } else {
                    return Err(usage_error(format!(
                        "unexpected extra argument `{path}` (patch takes a delta file and one input)"
                    )));
                }
            }
        }
    }
    let delta = delta.ok_or_else(|| usage_error("patch requires a delta file argument"))?;
    Ok(Command::Patch(PatchCliConfig {
        input,
        delta,
        out,
        options,
        verify,
        threads,
    }))
}

/// Parse a `backbone` command line (without the program name).
pub fn parse_args<I>(args: I) -> Result<Command, UsageError>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter().peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return parse_serve_args(args);
    }
    if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        return parse_compare_args(args);
    }
    if args.peek().map(String::as_str) == Some("gen") {
        args.next();
        return parse_gen_args(args);
    }
    if args.peek().map(String::as_str) == Some("bench-matrix") {
        args.next();
        return parse_matrix_args(args);
    }
    if args.peek().map(String::as_str) == Some("patch") {
        args.next();
        return parse_patch_args(args);
    }
    let mut method: Option<Method> = None;
    let mut policy: Option<ThresholdPolicy> = None;
    let mut input: Option<PathBuf> = None;
    let mut explicit_stdin = false;
    let mut options = EdgeListOptions::default();
    let mut output = OutputKind::Backbone;
    let mut threads = 0usize;
    let mut timings = false;
    let mut hss_roots: Option<usize> = None;
    let mut hss_seed: Option<u64> = None;

    let set_policy = |new: ThresholdPolicy, existing: &mut Option<ThresholdPolicy>| {
        if existing.is_some() {
            return Err(usage_error(
                "exactly one policy flag (--threshold, --top-k, --top-share, --coverage) may be given",
            ));
        }
        *existing = Some(new);
        Ok(())
    };

    while let Some(arg) = args.next() {
        if apply_format_flag(&arg, &mut args, &mut options)? {
            continue;
        }
        let mut value_for = |flag: &str| {
            args.next()
                .ok_or_else(|| usage_error(format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "-m" | "--method" => {
                let name = value_for(&arg)?;
                method = Some(Method::parse(&name).ok_or_else(|| {
                    usage_error(format!(
                        "unknown method `{name}` (expected one of: {})",
                        Method::NAMES
                    ))
                })?);
            }
            "--hss-roots" => hss_roots = Some(parse_number(&arg, &value_for(&arg)?)?),
            "--hss-seed" => hss_seed = Some(parse_number(&arg, &value_for(&arg)?)?),
            "--threshold" => {
                let v: f64 = parse_number(&arg, &value_for(&arg)?)?;
                set_policy(ThresholdPolicy::Score(v), &mut policy)?;
            }
            "--top-k" => {
                let v: usize = parse_number(&arg, &value_for(&arg)?)?;
                set_policy(ThresholdPolicy::TopK(v), &mut policy)?;
            }
            "--top-share" => {
                let v: f64 = parse_number(&arg, &value_for(&arg)?)?;
                set_policy(ThresholdPolicy::TopShare(v), &mut policy)?;
            }
            "--coverage" => {
                let v: f64 = parse_number(&arg, &value_for(&arg)?)?;
                set_policy(ThresholdPolicy::Coverage(v), &mut policy)?;
            }
            "-o" | "--output" => {
                let kind = value_for(&arg)?;
                output = match kind.as_str() {
                    "backbone" => OutputKind::Backbone,
                    "scores" => OutputKind::Scores,
                    "summary" => OutputKind::Summary,
                    other => {
                        return Err(usage_error(format!(
                            "unknown output kind `{other}` (expected backbone, scores or summary)"
                        )))
                    }
                };
            }
            "--threads" => threads = parse_number(&arg, &value_for(&arg)?)?,
            "--timings" => timings = true,
            "-" => {
                if input.is_some() || explicit_stdin {
                    return Err(usage_error(
                        "unexpected extra input `-` (one edge list per run)",
                    ));
                }
                // Stdin is the default; an explicit `-` documents it.
                explicit_stdin = true;
            }
            flag if flag.starts_with('-') => {
                return Err(usage_error(format!("unknown flag `{flag}`")));
            }
            path => {
                if input.is_some() || explicit_stdin {
                    return Err(usage_error(format!(
                        "unexpected extra input `{path}` (one edge list per run)"
                    )));
                }
                input = Some(PathBuf::from(path));
            }
        }
    }

    let method = method.ok_or_else(|| usage_error("--method is required"))?;
    let method = apply_hss_params(method, hss_roots, hss_seed)?;
    let policy = policy.ok_or_else(|| {
        usage_error("a policy flag (--threshold, --top-k, --top-share or --coverage) is required")
    })?;
    Ok(Command::Run(CliConfig {
        input,
        method,
        policy,
        options,
        output,
        threads,
        timings,
    }))
}

/// Execute a parsed configuration, writing the requested output to `out`.
///
/// The input is streamed line by line — from the named file, or from stdin
/// when no path was given — so the full edge list is never buffered.
pub fn execute(config: &CliConfig, out: &mut dyn Write) -> Result<(), String> {
    // Refuse an invalid policy before reading any input.
    config.policy.validate().map_err(|e| e.to_string())?;
    // Parse straight into the compact u32/CSR core: the pipeline is generic
    // over both representations with bit-identical output, and the CSR form
    // is what keeps million-edge runs inside a laptop's memory.
    let ingest_start = std::time::Instant::now();
    let graph = match &config.input {
        Some(path) => backboning_graph::io::read_edge_list_csr_file(path, &config.options),
        None => {
            let stdin = std::io::stdin();
            read_edge_list_csr_named(BufReader::new(stdin.lock()), &config.options, "<stdin>")
        }
    }
    .map_err(|e| e.to_string())?;
    let ingest = ingest_start.elapsed();

    let run = Pipeline::new(config.method, config.policy)
        .with_threads(config.threads)
        .run(&graph)
        .map_err(|e| e.to_string())?;

    let write_start = std::time::Instant::now();
    match config.output {
        OutputKind::Backbone => run
            .write_backbone(&graph, &mut *out)
            .map_err(|e| e.to_string())?,
        OutputKind::Scores => run
            .write_scores(&graph, &mut *out)
            .map_err(|e| e.to_string())?,
        OutputKind::Summary => {
            writeln!(out, "{}", run.summary_json()).map_err(|e| e.to_string())?
        }
    }
    let write = write_start.elapsed();
    if config.timings {
        eprint!("{}", render_timings_table(ingest, &run.stages, write));
    }
    Ok(())
}

/// The `--timings` stderr table: one row per pipeline stage (ingest, then
/// the [`backboning::StageTimings`] stages, then writing the output) plus a
/// total.
fn render_timings_table(
    ingest: std::time::Duration,
    stages: &backboning::StageTimings,
    write: std::time::Duration,
) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut rows = vec![("ingest", ms(ingest))];
    if let Some(score) = stages.score {
        rows.push(("score", ms(score)));
    }
    rows.push(("select", ms(stages.select)));
    rows.push(("build", ms(stages.build)));
    rows.push(("write", ms(write)));
    let total: f64 = rows.iter().map(|(_, v)| v).sum();
    rows.push(("total", total));
    let mut table = String::from("stage         ms\n------  --------\n");
    for (stage, value) in rows {
        table.push_str(&format!("{stage:<6}  {value:>8.3}\n"));
    }
    table
}

/// Execute a parsed `backbone compare` configuration, writing the report to
/// `out`.
pub fn execute_compare(config: &CompareCliConfig, out: &mut dyn Write) -> Result<(), String> {
    // Validate (including the resample cap) before reading any input.
    let comparison = Comparison::new(config.comparison.clone()).map_err(|e| e.to_string())?;
    let graph = match &config.input {
        Some(path) => backboning_graph::io::read_edge_list_csr_file(path, &config.options),
        None => {
            let stdin = std::io::stdin();
            read_edge_list_csr_named(BufReader::new(stdin.lock()), &config.options, "<stdin>")
        }
    }
    .map_err(|e| e.to_string())?;

    let report = comparison.run(&graph).map_err(|e| e.to_string())?;

    let rendered = match config.output {
        CompareOutputKind::Table => report.render_table(),
        CompareOutputKind::Json => {
            let mut json = report.to_json();
            json.push('\n');
            json
        }
    };
    out.write_all(rendered.as_bytes())
        .map_err(|e| e.to_string())
}

/// Execute a parsed `backbone gen` configuration: generate the scenario and
/// write its edge list to stdout, or to `--out PATH` (then `out` gets a
/// one-line summary instead).
pub fn execute_gen(config: &GenCliConfig, out: &mut dyn Write) -> Result<(), String> {
    let graph = config.spec.generate().map_err(|e| e.to_string())?;
    match &config.out {
        Some(path) => {
            backboning_graph::io::write_edge_list_file(&graph, path).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{}: {} nodes, {} edges -> {}",
                config.spec.render(),
                graph.node_count(),
                graph.edge_count(),
                path.display()
            )
            .map_err(|e| e.to_string())
        }
        None => backboning_graph::io::write_edge_list(&graph, &mut *out).map_err(|e| e.to_string()),
    }
}

/// Execute a parsed `backbone patch` configuration: apply the delta batch
/// (transactionally — any bad line rejects the whole file with its line
/// number) and write the patched edge list. With `--verify`, every local
/// method is rescored through the incremental [`backboning::delta`] path
/// *and* from scratch on the patched graph, and the run fails unless the
/// two agree bit-for-bit.
pub fn execute_patch(config: &PatchCliConfig, out: &mut dyn Write) -> Result<(), String> {
    let graph = match &config.input {
        Some(path) => backboning_graph::io::read_edge_list_csr_file(path, &config.options),
        None => {
            let stdin = std::io::stdin();
            read_edge_list_csr_named(BufReader::new(stdin.lock()), &config.options, "<stdin>")
        }
    }
    .map_err(|e| e.to_string())?;

    let delta_text = std::fs::read_to_string(&config.delta)
        .map_err(|e| format!("{}: {e}", config.delta.display()))?;
    let batch = DeltaBatch::parse_tsv(&delta_text)
        .map_err(|e| format!("{}: {e}", config.delta.display()))?;
    if batch.is_empty() {
        return Err(format!(
            "{}: delta contains no operations",
            config.delta.display()
        ));
    }
    let (patched, effect) =
        apply_batch(&graph, &batch).map_err(|e| format!("{}: {e}", config.delta.display()))?;

    if config.verify {
        // The churn-parity cross-check, offline: chain the incremental path
        // off the pre-patch scores and compare against from-scratch scoring
        // of the patched graph. Methods that legitimately fail (e.g. a
        // doubly-stochastic scaling that stops converging) must fail on
        // *both* paths to count as parity.
        let methods = [
            Method::NaiveThreshold,
            Method::DisparityFilter,
            Method::NoiseCorrected,
            Method::DoublyStochastic,
        ];
        let mut verified = Vec::new();
        for method in methods {
            let incremental = match method.score_with_threads(&graph, config.threads) {
                Ok(previous) => {
                    delta_rescore(method, &patched, &previous, &effect, config.threads).ok()
                }
                // No pre-patch scores to chain from — the incremental path
                // would itself fall back to a full pass.
                Err(_) => method.score_with_threads(&patched, config.threads).ok(),
            };
            let fresh = method.score_with_threads(&patched, config.threads).ok();
            let agree = match (&incremental, &fresh) {
                (Some(incremental), Some(fresh)) => incremental == fresh,
                (None, None) => true,
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "--verify: {} incremental scores differ from from-scratch scoring",
                    method.cli_name()
                ));
            }
            verified.push(method.cli_name());
        }
        eprintln!(
            "backbone patch --verify: incremental == from-scratch for {}",
            verified.join(", ")
        );
    }

    match &config.out {
        Some(path) => {
            backboning_graph::io::write_edge_list_file(&patched, path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(
                out,
                "patched: {} nodes, {} edges ({} added, {} removed, {} reweighted) -> {}",
                patched.node_count(),
                patched.edge_count(),
                effect.added,
                effect.removed,
                effect.reweighted,
                path.display()
            )
            .map_err(|e| e.to_string())
        }
        None => {
            backboning_graph::io::write_edge_list(&patched, &mut *out).map_err(|e| e.to_string())
        }
    }
}

/// Execute a parsed `backbone bench-matrix` configuration: run the sweep,
/// upsert the rows into the snapshot file's `"matrix"` section, and echo
/// the rows (plus a summary line) to `out`.
pub fn execute_bench_matrix(config: &MatrixCliConfig, out: &mut dyn Write) -> Result<(), String> {
    let rows = matrix::run_matrix(&config.matrix)?;
    // Missing file and empty file (e.g. a fresh mktemp target) both start a
    // new snapshot document.
    let existing = std::fs::read_to_string(&config.out)
        .ok()
        .filter(|text| !text.trim().is_empty())
        .unwrap_or_else(|| "{\n}\n".to_string());
    if !existing.trim_end().ends_with('}') {
        return Err(format!(
            "{}: existing file is not a snapshot JSON document",
            config.out.display()
        ));
    }
    let merged = matrix::merge_rows(matrix::extract_rows(&existing), rows.clone());
    let updated = matrix::with_matrix_section(&existing, &merged);
    // Self-check before writing: every merged row must survive a re-parse of
    // the rendered section, or the upsert would silently drop cells. Timing
    // floats are compared after rendering (parse-back sees rounded values).
    let rendered: Vec<String> = merged.iter().map(matrix::render_row).collect();
    let reparsed: Vec<String> = matrix::extract_rows(&updated)
        .iter()
        .map(matrix::render_row)
        .collect();
    if reparsed != rendered {
        return Err(format!(
            "bench-matrix self-check failed: {} rows rendered, {} parsed back",
            rendered.len(),
            reparsed.len()
        ));
    }
    std::fs::write(&config.out, &updated).map_err(|e| format!("{}: {e}", config.out.display()))?;
    for row in &rows {
        writeln!(out, "{}", matrix::render_row(row)).map_err(|e| e.to_string())?;
    }
    writeln!(
        out,
        "bench-matrix: {} cell(s) swept, {} total in {}",
        rows.len(),
        merged.len(),
        config.out.display()
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, UsageError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    fn config(args: &[&str]) -> CliConfig {
        match parse(args).unwrap() {
            Command::Run(config) => config,
            _ => panic!("expected a run command"),
        }
    }

    fn compare_config(args: &[&str]) -> CompareCliConfig {
        match parse(args).unwrap() {
            Command::Compare(config) => config,
            _ => panic!("expected a compare command"),
        }
    }

    #[test]
    fn minimal_invocation_reads_stdin() {
        let config = config(&["--method", "nc", "--top-k", "5"]);
        assert_eq!(config.method, Method::NoiseCorrected);
        assert_eq!(config.policy, ThresholdPolicy::TopK(5));
        assert!(config.input.is_none());
        assert_eq!(config.output, OutputKind::Backbone);
        assert_eq!(config.threads, 0);
        assert!(!config.timings);
    }

    #[test]
    fn timings_flag_parses_and_renders_a_stage_table() {
        assert!(config(&["-m", "nc", "--top-k", "5", "--timings"]).timings);

        let stages = backboning::StageTimings {
            score: Some(std::time::Duration::from_micros(1500)),
            select: std::time::Duration::from_micros(250),
            build: std::time::Duration::from_micros(250),
        };
        let table = render_timings_table(
            std::time::Duration::from_millis(2),
            &stages,
            std::time::Duration::from_micros(1250),
        );
        assert_eq!(
            table,
            "stage         ms\n\
             ------  --------\n\
             ingest     2.000\n\
             score      1.500\n\
             select     0.250\n\
             build      0.250\n\
             write      1.250\n\
             total      5.250\n"
        );
        // Without a score stage the row disappears instead of reading 0;
        // the write row stays, and the total includes it.
        let cached = backboning::StageTimings {
            score: None,
            ..stages
        };
        let table = render_timings_table(
            std::time::Duration::ZERO,
            &cached,
            std::time::Duration::from_micros(500),
        );
        assert!(!table.contains("score"));
        assert!(table.contains("write      0.500\n"), "{table}");
        assert!(table.contains("total      1.000\n"), "{table}");
    }

    #[test]
    fn full_invocation_parses_every_flag() {
        let config = config(&[
            "-m",
            "df",
            "--threshold",
            "0.95",
            "--undirected",
            "--csv",
            "--header",
            "--comment",
            "%",
            "-o",
            "summary",
            "--threads",
            "3",
            "edges.csv",
        ]);
        assert_eq!(config.method, Method::DisparityFilter);
        assert_eq!(config.policy, ThresholdPolicy::Score(0.95));
        assert_eq!(config.options.direction, Direction::Undirected);
        assert_eq!(config.options.separator, Some(','));
        assert!(config.options.has_header);
        assert_eq!(config.options.comment_prefix, Some('%'));
        assert_eq!(config.output, OutputKind::Summary);
        assert_eq!(config.threads, 3);
        assert_eq!(
            config.input.as_deref(),
            Some(std::path::Path::new("edges.csv"))
        );
    }

    #[test]
    fn every_method_name_is_accepted() {
        for method in Method::every() {
            let parsed = config(&["--method", method.cli_name(), "--top-k", "1"]);
            assert_eq!(parsed.method, method);
        }
    }

    #[test]
    fn hss_approx_flags_parse_and_are_scoped() {
        // Defaults without overrides.
        let parsed = config(&["--method", "hss-approx", "--top-k", "5"]);
        assert_eq!(parsed.method, Method::hss_approx_default());
        // Explicit overrides.
        let parsed = config(&[
            "--method",
            "hss-approx",
            "--hss-roots",
            "128",
            "--hss-seed",
            "9",
            "--top-k",
            "5",
        ]);
        assert_eq!(
            parsed.method,
            Method::HssApprox {
                roots: 128,
                seed: 9
            }
        );
        // Flag order does not matter: overrides before --method still apply.
        let parsed = config(&["--hss-roots", "64", "-m", "hss-approx", "--top-k", "1"]);
        assert_eq!(
            parsed.method,
            Method::HssApprox {
                roots: 64,
                seed: 4242
            }
        );
        // The flags are rejected for other methods instead of being ignored.
        let err = parse(&["-m", "nc", "--hss-roots", "64", "--top-k", "1"]).unwrap_err();
        assert!(err.0.contains("hss-approx"), "{}", err.0);

        // Compare mode: overrides patch every hss-approx in the list…
        let compare =
            compare_config(&["compare", "--methods", "nc,hss-approx", "--hss-roots", "32"]);
        assert!(compare.comparison.methods.contains(&Method::HssApprox {
            roots: 32,
            seed: 4242
        }));
        // …and error when the list has none.
        let err = parse(&["compare", "--methods", "nc,df", "--hss-seed", "1"]).unwrap_err();
        assert!(err.0.contains("hss-approx"), "{}", err.0);
    }

    #[test]
    fn each_policy_flag_maps_to_its_policy() {
        assert_eq!(
            config(&["-m", "nc", "--threshold", "1.64"]).policy,
            ThresholdPolicy::Score(1.64)
        );
        assert_eq!(
            config(&["-m", "nc", "--top-share", "0.25"]).policy,
            ThresholdPolicy::TopShare(0.25)
        );
        assert_eq!(
            config(&["-m", "nc", "--coverage", "0.9"]).policy,
            ThresholdPolicy::Coverage(0.9)
        );
    }

    #[test]
    fn help_flag_wins() {
        assert!(matches!(parse(&["--help"]), Ok(Command::Help)));
        assert!(matches!(parse(&["-m", "nc", "-h"]), Ok(Command::Help)));
        assert!(matches!(parse(&["serve", "--help"]), Ok(Command::Help)));
        assert!(matches!(parse(&["compare", "-h"]), Ok(Command::Help)));
    }

    #[test]
    fn compare_defaults_need_no_flags() {
        let config = compare_config(&["compare"]);
        assert!(config.input.is_none());
        assert_eq!(config.output, CompareOutputKind::Table);
        assert_eq!(
            config.comparison.methods,
            backboning_eval::comparison::DEFAULT_METHODS.to_vec()
        );
        assert_eq!(config.comparison.top_share, 0.1);
        assert_eq!(config.comparison.noise_level, 0.1);
        assert_eq!(config.comparison.noise_resamples, 8);
        assert_eq!(config.comparison.seed, 4242);
        assert_eq!(config.comparison.threads, 0);
    }

    #[test]
    fn compare_subcommand_parses_its_flags() {
        let config = compare_config(&[
            "compare",
            "--methods",
            "nc,mst,naive",
            "--top-share",
            "0.25",
            "--noise",
            "0.2",
            "--resamples",
            "16",
            "--seed",
            "7",
            "--threads",
            "2",
            "--undirected",
            "--header",
            "-o",
            "json",
            "edges.tsv",
        ]);
        assert_eq!(
            config.comparison.methods,
            vec![
                Method::NoiseCorrected,
                Method::MaximumSpanningTree,
                Method::NaiveThreshold
            ]
        );
        assert_eq!(config.comparison.top_share, 0.25);
        assert_eq!(config.comparison.noise_level, 0.2);
        assert_eq!(config.comparison.noise_resamples, 16);
        assert_eq!(config.comparison.seed, 7);
        assert_eq!(config.comparison.threads, 2);
        assert_eq!(config.options.direction, Direction::Undirected);
        assert!(config.options.has_header);
        assert_eq!(config.output, CompareOutputKind::Json);
        assert_eq!(
            config.input.as_deref(),
            Some(std::path::Path::new("edges.tsv"))
        );
        // `all` expands to the full registry.
        let all = compare_config(&["compare", "--methods", "all"]);
        assert_eq!(all.comparison.methods, Method::every().to_vec());
    }

    #[test]
    fn compare_usage_errors_are_reported() {
        for (args, needle) in [
            (&["compare", "--wat"][..], "unknown compare flag"),
            (&["compare", "--methods", "nc,zz"][..], "unknown method"),
            (&["compare", "--methods", "nc,nc"][..], "duplicate method"),
            (&["compare", "--methods"][..], "missing value"),
            (&["compare", "--top-share", "x"][..], "cannot parse"),
            (&["compare", "-o", "summary"][..], "unknown compare output"),
            (&["compare", "a.tsv", "b.tsv"][..], "extra input"),
            (&["compare", "-", "a.tsv"][..], "extra input"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{args:?}: expected `{needle}` in `{}`",
                err.0
            );
        }
    }

    #[test]
    fn compare_help_states_the_resample_cap() {
        let cap = backboning_eval::comparison::MAX_NOISE_RESAMPLES;
        assert!(USAGE.contains(&format!("resamples, at most {cap};")));
    }

    #[test]
    fn execute_compare_runs_a_file_end_to_end() {
        let dir = std::env::temp_dir().join("backboning_cli_compare_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.tsv");
        std::fs::write(&path, "a b 5\nb c 4\nc d 3\nd a 2\na c 1\n").unwrap();

        let mut config = compare_config(&[
            "compare",
            "--methods",
            "naive,mst",
            "--top-share",
            "0.4",
            "--resamples",
            "2",
            "--undirected",
            "-o",
            "json",
        ]);
        config.input = Some(path.clone());
        let mut out = Vec::new();
        execute_compare(&config, &mut out).unwrap();
        let json = String::from_utf8(out).unwrap();
        assert!(json.contains("\"matched_edges\": 2"), "{json}");
        assert!(json.contains("\"method\": \"naive\""));
        assert!(json.contains("\"jaccard\""));
        // The CLI's JSON is the timed rendering: one score_wall_ms per method.
        assert_eq!(json.matches("\"score_wall_ms\"").count(), 2, "{json}");
        assert!(json.ends_with('\n'));

        let mut table_config = config.clone();
        table_config.output = CompareOutputKind::Table;
        let mut table_out = Vec::new();
        execute_compare(&table_config, &mut table_out).unwrap();
        let table = String::from_utf8(table_out).unwrap();
        assert!(table.contains("Pairwise Jaccard agreement"), "{table}");
        assert!(table.contains("score ms"), "{table}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serve_subcommand_parses_its_flags() {
        let Command::Serve(config) = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--graphs",
            "data/graphs",
            "--threads",
            "2",
            "--undirected",
            "--header",
            "--access-log",
        ])
        .unwrap() else {
            panic!("expected a serve command")
        };
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(
            config.graphs_dir.as_deref(),
            Some(std::path::Path::new("data/graphs"))
        );
        assert_eq!(config.threads, 2);
        assert_eq!(config.options.direction, Direction::Undirected);
        assert!(config.options.has_header);
        assert!(config.access_log);
    }

    #[test]
    fn serve_defaults_need_no_flags() {
        let Command::Serve(config) = parse(&["serve"]).unwrap() else {
            panic!("expected a serve command")
        };
        assert_eq!(config.addr, "127.0.0.1:4817");
        assert!(config.graphs_dir.is_none());
        assert_eq!(config.threads, 0);
        assert!(!config.access_log);
    }

    #[test]
    fn serve_usage_errors_are_reported() {
        for (args, needle) in [
            (&["serve", "--wat"][..], "unknown serve flag"),
            (&["serve", "edges.tsv"][..], "no positional arguments"),
            (&["serve", "--addr"][..], "missing value"),
            (&["serve", "--threads", "x"][..], "cannot parse"),
            (&["serve", "--separator", "ab"][..], "single character"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{args:?}: expected `{needle}` in `{}`",
                err.0
            );
        }
    }

    #[test]
    fn usage_errors_are_reported() {
        for (args, needle) in [
            (&["--top-k", "5"][..], "--method is required"),
            (&["-m", "nc"][..], "policy flag"),
            (&["-m", "zz", "--top-k", "1"][..], "unknown method"),
            (&["-m", "nc", "--top-k", "x"][..], "cannot parse"),
            (
                &["-m", "nc", "--top-k", "1", "--coverage", "0.5"][..],
                "exactly one policy",
            ),
            (&["-m", "nc", "--top-k", "1", "--wat"][..], "unknown flag"),
            (&["-m", "nc", "--top-k", "1", "a", "b"][..], "extra input"),
            (&["-m", "nc", "--top-k"][..], "missing value"),
            (
                &["-m", "nc", "--top-k", "1", "--separator", "ab"][..],
                "single character",
            ),
            (
                &["-m", "nc", "--top-k", "1", "-o", "wat"][..],
                "unknown output kind",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{args:?}: expected `{needle}` in `{}`",
                err.0
            );
        }
    }

    #[test]
    fn explicit_stdin_dash_conflicts_with_a_path() {
        // `-` alone is fine (stdin, the default).
        assert!(config(&["-m", "nc", "--top-k", "1", "-"]).input.is_none());
        // But mixing `-` with a path (in either order) is a usage error, not a
        // silent override.
        for args in [
            &["-m", "nc", "--top-k", "1", "edges.tsv", "-"][..],
            &["-m", "nc", "--top-k", "1", "-", "edges.tsv"][..],
            &["-m", "nc", "--top-k", "1", "-", "-"][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.0.contains("extra input"), "{args:?}: `{}`", err.0);
        }
    }

    #[test]
    fn no_comment_disables_comment_handling() {
        let config = config(&["-m", "nc", "--top-k", "1", "--no-comment"]);
        assert_eq!(config.options.comment_prefix, None);
    }

    #[test]
    fn execute_runs_a_file_end_to_end() {
        let dir = std::env::temp_dir().join("backboning_cli_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.tsv");
        std::fs::write(&path, "a b 5\nb c 4\nc d 1\n").unwrap();

        let mut config = config(&["-m", "naive", "--top-k", "2", "--undirected"]);
        config.input = Some(path.clone());
        let mut out = Vec::new();
        execute(&config, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("a\tb\t5"));
        assert!(text.contains("b\tc\t4"));
        assert!(!text.contains("c\td"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gen_subcommand_parses_spec_and_out() {
        let Command::Gen(config) = parse(&["gen", "ba:n=100,m=2"]).unwrap() else {
            panic!("expected a gen command");
        };
        assert_eq!(config.spec.nodes, 100);
        assert!(config.out.is_none());

        let Command::Gen(config) =
            parse(&["gen", "geo:n=50,r=0.2", "--out", "scenario.tsv"]).unwrap()
        else {
            panic!("expected a gen command");
        };
        assert_eq!(config.spec.family.tag(), "geo");
        assert_eq!(
            config.out.as_deref(),
            Some(std::path::Path::new("scenario.tsv"))
        );
    }

    #[test]
    fn gen_usage_errors_are_reported() {
        for (args, needle) in [
            (&["gen"][..], "requires a scenario spec"),
            (&["gen", "zz:n=10"][..], "unknown family"),
            (&["gen", "ba:n=10", "er:n=10"][..], "extra spec"),
            (&["gen", "ba:n=10", "--wat"][..], "unknown gen flag"),
            (&["gen", "ba:n=10", "--out"][..], "missing value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{args:?}: `{needle}` not in `{}`",
                err.0
            );
        }
        assert!(matches!(parse(&["gen", "--help"]), Ok(Command::Help)));
    }

    #[test]
    fn bench_matrix_subcommand_parses_defaults_and_overrides() {
        let Command::BenchMatrix(config) = parse(&["bench-matrix"]).unwrap() else {
            panic!("expected a bench-matrix command");
        };
        assert_eq!(config.matrix.specs.len(), 8);
        assert_eq!(config.matrix.methods.len(), 5);
        assert_eq!(config.matrix.top_share, 0.1);
        assert_eq!(config.matrix.runs, 3);
        assert_eq!(config.matrix.threads, 1);
        assert_eq!(config.out, std::path::PathBuf::from("BENCH_backbones.json"));

        let Command::BenchMatrix(config) = parse(&[
            "bench-matrix",
            "--specs",
            "ba:n=100,m=2;sb:n=120,b=3,w=lognormal(0,1)",
            "--methods",
            "nc,df",
            "--top-share",
            "0.2",
            "--runs",
            "1",
            "--threads",
            "2",
            "--out",
            "grid.json",
        ])
        .unwrap() else {
            panic!("expected a bench-matrix command");
        };
        assert_eq!(config.matrix.specs.len(), 2);
        assert_eq!(config.matrix.specs[1].family.tag(), "sb");
        assert_eq!(
            config.matrix.methods,
            vec![Method::NoiseCorrected, Method::DisparityFilter]
        );
        assert_eq!(config.matrix.top_share, 0.2);
        assert_eq!(config.matrix.runs, 1);
        assert_eq!(config.matrix.threads, 2);
        assert_eq!(config.out, std::path::PathBuf::from("grid.json"));
    }

    #[test]
    fn bench_matrix_usage_errors_are_reported() {
        for (args, needle) in [
            (&["bench-matrix", "--specs", "zz:n=1"][..], "unknown family"),
            (&["bench-matrix", "--methods", "wat"][..], "wat"),
            (&["bench-matrix", "--wat"][..], "unknown bench-matrix flag"),
            (&["bench-matrix", "positional"][..], "no positional"),
            (&["bench-matrix", "--runs"][..], "missing value"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{args:?}: `{needle}` not in `{}`",
                err.0
            );
        }
    }

    #[test]
    fn execute_gen_writes_deterministic_edge_list() {
        let Command::Gen(config) = parse(&["gen", "sb:n=60,b=3,pin=0.3,pout=0.05,seed=5"]).unwrap()
        else {
            panic!("expected a gen command");
        };
        let mut first = Vec::new();
        execute_gen(&config, &mut first).unwrap();
        let mut second = Vec::new();
        execute_gen(&config, &mut second).unwrap();
        assert_eq!(first, second);
        let text = String::from_utf8(first).unwrap();
        assert!(text.starts_with("# source\ttarget\tweight\n"));
        assert!(text.lines().count() > 10);
    }

    #[test]
    fn execute_bench_matrix_upserts_rows_into_fresh_file() {
        let dir =
            std::env::temp_dir().join(format!("backboning_cli_matrix_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("grid.json");
        let Command::BenchMatrix(mut config) = parse(&[
            "bench-matrix",
            "--specs",
            "ba:n=120,m=2,seed=5",
            "--methods",
            "nc,mst",
            "--runs",
            "1",
        ])
        .unwrap() else {
            panic!("expected a bench-matrix command");
        };
        config.out = out.clone();

        let mut echoed = Vec::new();
        execute_bench_matrix(&config, &mut echoed).unwrap();
        let first = std::fs::read_to_string(&out).unwrap();
        assert_eq!(matrix::extract_rows(&first).len(), 2);

        // A second identical run must upsert in place, not duplicate rows,
        // and keep the deterministic fields byte-identical.
        execute_bench_matrix(&config, &mut Vec::new()).unwrap();
        let second = std::fs::read_to_string(&out).unwrap();
        assert_eq!(matrix::extract_rows(&second).len(), 2);
        let strip = |text: &str| -> Vec<String> {
            matrix::extract_rows(text)
                .into_iter()
                .map(|mut row| {
                    row.median_ms = 0.0;
                    row.edges_per_sec = 0.0;
                    matrix::render_row(&row)
                })
                .collect()
        };
        assert_eq!(strip(&first), strip(&second));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn execute_bench_matrix_accepts_empty_file_and_rejects_non_json() {
        let dir = std::env::temp_dir().join(format!(
            "backboning_cli_matrix_empty_test_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let Command::BenchMatrix(mut config) = parse(&[
            "bench-matrix",
            "--specs",
            "ba:n=120,m=2,seed=5",
            "--methods",
            "nc",
            "--runs",
            "1",
        ])
        .unwrap() else {
            panic!("expected a bench-matrix command");
        };

        // An existing zero-byte file (the mktemp idiom) starts a fresh
        // snapshot document instead of failing.
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "").unwrap();
        config.out = empty.clone();
        execute_bench_matrix(&config, &mut Vec::new()).unwrap();
        let written = std::fs::read_to_string(&empty).unwrap();
        assert_eq!(matrix::extract_rows(&written).len(), 1);

        // A non-JSON file is refused, not clobbered.
        let bogus = dir.join("notes.txt");
        std::fs::write(&bogus, "not a snapshot\n").unwrap();
        config.out = bogus.clone();
        let err = execute_bench_matrix(&config, &mut Vec::new()).unwrap_err();
        assert!(err.contains("not a snapshot"), "unexpected error: {err}");
        assert_eq!(std::fs::read_to_string(&bogus).unwrap(), "not a snapshot\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn execute_surfaces_named_parse_errors() {
        let dir = std::env::temp_dir().join("backboning_cli_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.tsv");
        std::fs::write(&path, "a b heavy\n").unwrap();

        let mut config = config(&["-m", "nc", "--top-k", "2"]);
        config.input = Some(path.clone());
        let err = execute(&config, &mut Vec::new()).unwrap_err();
        assert!(err.contains("broken.tsv"), "missing path in `{err}`");
        assert!(err.contains("line 1"), "missing line in `{err}`");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn patch_arguments_parse() {
        let Command::Patch(config) = parse(&[
            "patch",
            "delta.tsv",
            "--undirected",
            "--verify",
            "--threads",
            "2",
            "--out",
            "patched.tsv",
            "graph.tsv",
        ])
        .unwrap() else {
            panic!("expected a patch command");
        };
        assert_eq!(config.delta, PathBuf::from("delta.tsv"));
        assert_eq!(config.input, Some(PathBuf::from("graph.tsv")));
        assert_eq!(config.out, Some(PathBuf::from("patched.tsv")));
        assert_eq!(config.options.direction, Direction::Undirected);
        assert!(config.verify);
        assert_eq!(config.threads, 2);

        // Stdin input, no flags.
        let Command::Patch(config) = parse(&["patch", "delta.tsv"]).unwrap() else {
            panic!("expected a patch command");
        };
        assert!(config.input.is_none());
        assert!(!config.verify);

        assert!(matches!(parse(&["patch", "-h"]), Ok(Command::Help)));
        assert!(parse(&["patch"]).is_err(), "delta file is required");
        assert!(parse(&["patch", "-", "g.tsv"]).is_err(), "delta from stdin");
        assert!(parse(&["patch", "d.tsv", "--wat"]).is_err());
        assert!(parse(&["patch", "d.tsv", "a", "b"]).is_err());
    }

    #[test]
    fn execute_patch_applies_and_verifies_end_to_end() {
        let dir =
            std::env::temp_dir().join(format!("backboning_cli_patch_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.tsv");
        std::fs::write(&graph_path, "a b 5\nb c 4\nc d 1\nd a 3\n").unwrap();
        let delta_path = dir.join("delta.tsv");
        std::fs::write(&delta_path, "reweight c d 9\nadd a c 2\nremove d a\n").unwrap();

        let Command::Patch(mut config) =
            parse(&["patch", "placeholder.tsv", "--undirected", "--verify"]).unwrap()
        else {
            panic!("expected a patch command");
        };
        config.delta = delta_path.clone();
        config.input = Some(graph_path.clone());

        // Stdout mode: the patched edge list itself.
        let mut out = Vec::new();
        execute_patch(&config, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "# source\ttarget\tweight\na\tb\t5\nb\tc\t4\nc\td\t9\na\tc\t2\n"
        );

        // --out mode: the file gets the same bytes, stdout a summary line.
        let out_path = dir.join("patched.tsv");
        config.out = Some(out_path.clone());
        let mut summary = Vec::new();
        execute_patch(&config, &mut summary).unwrap();
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), text);
        let summary = String::from_utf8(summary).unwrap();
        assert!(
            summary.contains("4 nodes, 4 edges (1 added, 1 removed, 1 reweighted)"),
            "{summary}"
        );

        // A bad delta line fails transactionally, naming file and line.
        std::fs::write(&delta_path, "reweight a b 2\nremove a z\n").unwrap();
        config.out = None;
        let err = execute_patch(&config, &mut Vec::new()).unwrap_err();
        assert!(err.contains("delta.tsv"), "{err}");
        assert!(err.contains("line 2"), "{err}");

        // An empty delta is refused rather than silently writing the input.
        std::fs::write(&delta_path, "# nothing here\n").unwrap();
        let err = execute_patch(&config, &mut Vec::new()).unwrap_err();
        assert!(err.contains("no operations"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
