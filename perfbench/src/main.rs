//! End-to-end and per-layer benchmark of the `backbone` CLI and server.
//!
//! ```text
//! perfbench --workload <cli_nc|cli_hssa|serve_rw> --seed <n> --seconds <s>
//!           --trace <0|1> --backbone <path to the backbone binary> --work <dir>
//! perfbench trace-op <backbone run flags>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around each layer call and prints the
//! per-layer metrics. Either way the last line of stdout is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. `trace-op`
//! is one traced CLI op: the `backbone` run pipeline called layer by layer.
//! `perfbench/run.py` builds both binaries and calls the first form.

mod calibrate;
mod cli_ops;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use backboning::json::JsonObject;
use backboning_gen::ScenarioSpec;

use trace::Trace;

/// The end-to-end metrics of an untraced run: name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("write_ms_p50", "ms"),
    ("write_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of a traced run: name and unit. A layer the
/// workload never calls reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("gen.generate_ms", "ms"),
    ("graph.io.read_ms", "ms"),
    ("graph.io.read_mib_per_s", "MiB/s"),
    ("core.score_ms", "ms"),
    ("core.high_salience.root_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.select.kept_edges", "count"),
    ("graph.csr.subgraph_ms", "ms"),
    ("graph.io.write_ms", "ms"),
    ("graph.io.write_bytes", "bytes"),
    ("cli.other_ms", "ms"),
    ("server.http.connect_ms", "ms"),
    ("server.http.ttfb_ms", "ms"),
    ("server.http.recv_ms", "ms"),
    ("server.http.conns_per_req", "ratio"),
    ("server.route.backbone_ms", "ms"),
    ("server.route.patch_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.registry.hit_ratio", "ratio"),
    ("server.registry.compactions", "count"),
    ("server.http.read_request_ms", "ms"),
    ("server.registry.scored_state_ms", "ms"),
    ("server.registry.patch_ms", "ms"),
    ("graph.csr.reweight_ms", "ms"),
    ("core.delta.rescore_nc_ms", "ms"),
    ("core.delta.rescore_df_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layer_coverage", "share"),
];

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 7;

/// One run's parameters.
pub struct RunConfig {
    /// Seed of every generated input and PATCH batch.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// The `backbone` binary under test.
    pub backbone: PathBuf,
    /// Scratch directory for this run's inputs.
    pub work: PathBuf,
}

/// What a workload measured.
pub struct Outcome {
    /// Ops started in the timed phase.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// Post-run checks that did not hold.
    pub problems: Vec<String>,
    /// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// The run record: nodes, edges, input bytes and the like.
    pub record: JsonObject,
    /// Every span the run recorded.
    pub trace: Trace,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trace-op") => cli_ops::trace_op(&args[1..]),
        _ => run(&args),
    };
    if let Err(message) = result {
        eprintln!("perfbench: {message}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(&flag[2..], value);
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let flag = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = flag("workload")?;
    let config = RunConfig {
        seed: flag("seed")?
            .parse()
            .map_err(|_| "--seed: not a whole number")?,
        seconds: flag("seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds: not a positive number")?,
        trace: match flag("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
        },
        backbone: PathBuf::from(flag("backbone")?),
        work: PathBuf::from(flag("work")?),
    };
    let _ = std::fs::remove_dir_all(&config.work);
    std::fs::create_dir_all(&config.work).map_err(|e| format!("{}: {e}", config.work.display()))?;

    let outcome = match workload {
        "cli_nc" => cli_ops::run(&cli_ops::CLI_NC, &config),
        "cli_hssa" => cli_ops::run(&cli_ops::CLI_HSSA, &config),
        "serve_rw" => serve::run(&config),
        other => Err(format!(
            "unknown workload `{other}` (expected cli_nc, cli_hssa or serve_rw)"
        )),
    }?;
    // The generated inputs are large; the record and spans stay.
    let _ = std::fs::remove_dir_all(&config.work);
    report(workload, &config, outcome)
}

/// Print the metric table, the run record and the result line; write the
/// record and the spans next to the run's scratch directory.
fn report(workload: &str, config: &RunConfig, mut outcome: Outcome) -> Result<(), String> {
    let names: &[(&str, &str)] = if config.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = JsonObject::inline();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(value) => *value,
            None if config.trace => 0.0,
            None => return Err(format!("{workload} did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{workload}: {name} is not a finite number"));
        }
        println!("{name:<34} {value:>14.4} {unit}");
        let mut entry = JsonObject::inline();
        entry.f64("value", value).string("unit", unit);
        metrics.raw(name, &entry.finish());
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }

    let mut record = std::mem::replace(&mut outcome.record, JsonObject::inline());
    record
        .string("workload", workload)
        .u64("seed", config.seed)
        .bool("trace", config.trace)
        .usize("nproc", sys::nproc())
        .u64("ops_attempted", outcome.attempted)
        .u64("ops_failed", outcome.failed);
    let record = record.finish();
    println!("record {record}");
    let write = |suffix: &str, text: &str| {
        let path = PathBuf::from(format!("{}.{suffix}", config.work.display()));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("record.json", &format!("{record}\n"))?;
    if config.trace {
        write("spans.tsv", &outcome.trace.to_tsv())?;
    }

    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let mut result = JsonObject::inline();
    result
        .bool("correct", correct)
        .u64("attempted", outcome.attempted)
        .u64("failed", outcome.failed)
        .raw("metrics", &metrics.finish());
    println!("{}", result.finish());
    Ok(())
}

/// Length and hash of a byte string: enough to tell two outputs apart.
pub fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut hasher);
    (bytes.len(), hasher.finish())
}

/// The median of `values`, or 0 when there are none.
pub fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Generate `spec` into `path` the way a user does: one `backbone gen`
/// process. Returns its wall time in seconds.
pub fn gen_with_cli(backbone: &Path, spec: &str, path: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(backbone)
        .arg("gen")
        .arg(spec)
        .arg("--out")
        .arg(path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", backbone.display()))?;
    let seconds = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("backbone gen {spec} failed: {status}"));
    }
    Ok(seconds)
}

/// Generate `spec` into `path` in process, with the generator call inside a
/// `gen.generate` span of its own op.
pub fn gen_traced(spec: &str, path: &Path, trace: &mut Trace, op: u64) -> Result<(), String> {
    let spec = ScenarioSpec::parse(spec).map_err(|e| e.to_string())?;
    let setup = trace.open("setup", None, op);
    let graph = trace
        .time("gen.generate", setup, || spec.generate())
        .map_err(|e| e.to_string())?;
    trace
        .time("graph.io.write_file", setup, || {
            backboning_graph::io::write_edge_list_file(&graph, path)
        })
        .map_err(|e| e.to_string())?;
    trace.close(setup);
    Ok(())
}

/// The per-layer metrics named `<span>_ms`: the median per-op self time of
/// each such span the trace holds.
pub fn span_metrics(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let per_op = trace.self_ms_per_op();
    PER_LAYER
        .iter()
        .filter_map(|(name, _)| {
            let values = per_op.get(name.strip_suffix("_ms")?)?;
            Some((*name, median_or_zero(values)))
        })
        .collect()
}

/// Read throughput from a file size and a median read time.
pub fn mib_per_s(bytes: u64, millis: f64) -> f64 {
    if millis > 0.0 {
        bytes as f64 / (1 << 20) as f64 / (millis / 1e3)
    } else {
        0.0
    }
}

/// `values` as a JSON array (for the run record).
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|&v| backboning::json::number(v))
        .collect();
    format!("[{}]", items.join(", "))
}
