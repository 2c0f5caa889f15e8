//! The CLI workloads: each op is one fresh `backbone` process on a generated
//! edge list, its stdout drained and checked by the harness.
//!
//! A traced run alternates `backbone` ops with `perfbench trace-op` ops. The
//! latter run the same pipeline through the library's public functions in a
//! fresh process of their own, with a span around each layer call, and print
//! the spans to stderr. The difference between the two kinds' median op
//! times is the tracing overhead.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use backboning::pipeline::matched_edge_count;
use backboning::Pipeline;
use backboning_cli::{parse_args, Command as CliCommand};
use backboning_graph::io::{read_edge_list_csr_file, write_edge_list, EdgeListOptions};
use backboning_graph::Direction;

use crate::calibrate::{rolling_scales, scale, Reference, NOMINAL_MS};
use crate::trace::{now_ns, Span, Trace};
use crate::{digest, gen_traced, gen_with_cli, json_list, median_or_zero, mib_per_s, span_metrics};
use crate::{stats, sys, Outcome, RunConfig, SETUP_REPS};

/// One CLI workload: what to generate and which `backbone` run to time.
pub struct CliWorkload {
    /// Scenario spec without its seed.
    spec: &'static str,
    /// `backbone` flags before the input path.
    flags: &'static [&'static str],
    /// Shortest-path roots of an `hss-approx` run (0 for other methods).
    roots: usize,
}

/// The paper's method run the way users run it.
pub const CLI_NC: CliWorkload = CliWorkload {
    spec: "ba:n=30000,m=3,w=powerlaw(2.5),noise=0.1",
    flags: &["-m", "nc", "--top-share", "0.1", "--threads", "1"],
    roots: 0,
};

/// The only workload on the shortest-path engine.
pub const CLI_HSSA: CliWorkload = CliWorkload {
    spec: "er:n=16000,e=48000,w=uniform(10),noise=0.1",
    flags: &[
        "-m",
        "hss-approx",
        "--hss-roots",
        "16",
        "--top-share",
        "0.1",
        "--undirected",
        "--threads",
        "1",
    ],
    roots: 16,
};

/// Share of edges every op keeps.
const TOP_SHARE: f64 = 0.1;

impl CliWorkload {
    fn undirected(&self) -> bool {
        self.flags.contains(&"--undirected")
    }

    fn args(&self, input: &Path) -> Vec<String> {
        let mut args: Vec<String> = self.flags.iter().map(|s| s.to_string()).collect();
        args.push(input.display().to_string());
        args
    }
}

/// One finished op as the harness saw it.
struct Op {
    traced: bool,
    /// Spawn to reaped exit.
    ms: f64,
    /// First stdout byte to reaped exit: the write stage as the user sees it.
    write_ms: f64,
    success: bool,
    output: (usize, u64),
    max_rss_kib: u64,
    /// Spawn and reap, in [`now_ns`] nanoseconds.
    start_ns: u64,
    end_ns: u64,
}

/// Run `program args` once: drain stdout (noting when its first byte came),
/// collect stderr when `keep_stderr`, and reap the process with its
/// resource usage. Returns the op, its stdout and its stderr.
fn spawn_op(
    program: &Path,
    args: &[String],
    keep_stderr: bool,
) -> Result<(Op, Vec<u8>, String), String> {
    let start_ns = now_ns();
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(if keep_stderr {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .spawn()
        .map_err(|e| format!("{}: {e}", program.display()))?;
    let drained = drain(&mut child);
    if drained.is_err() {
        let _ = child.kill();
    }
    let exit = sys::wait_with_rusage(&child).map_err(|e| format!("wait: {e}"))?;
    let end = Instant::now();
    let end_ns = now_ns();
    let (output, first_byte, stderr) = drained?;
    let ms = (end - start).as_secs_f64() * 1e3;
    let write_ms = first_byte.map_or(0.0, |at| (end - at).as_secs_f64() * 1e3);
    let op = Op {
        traced: keep_stderr,
        ms,
        write_ms,
        success: exit.success,
        output: digest(&output),
        max_rss_kib: exit.max_rss_kib,
        start_ns,
        end_ns,
    };
    Ok((op, output, stderr))
}

fn drain(child: &mut Child) -> Result<(Vec<u8>, Option<Instant>, String), String> {
    let mut stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let mut output = Vec::new();
    let mut first_byte = None;
    let mut buffer = vec![0u8; 1 << 16];
    loop {
        let n = stdout.read(&mut buffer).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        output.extend_from_slice(&buffer[..n]);
    }
    let mut stderr = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        pipe.read_to_string(&mut stderr)
            .map_err(|e| format!("read: {e}"))?;
    }
    Ok((output, first_byte, stderr))
}

/// Run one CLI workload.
pub fn run(workload: &CliWorkload, config: &RunConfig) -> Result<Outcome, String> {
    let spec = format!("{},seed={}", workload.spec, config.seed);
    let mut trace = Trace::default();
    let mut next_op = 0u64;
    let reference = Reference::new();

    // Set-up: generate the input several times, each into a new file (an
    // overwrite would also time the freeing of the old file's pages). Every
    // copy must be the same; the ops read the last one.
    let mut setup_s = Vec::new();
    let mut setup_reference_ms = Vec::new();
    let mut inputs = Vec::new();
    let mut input = PathBuf::new();
    for rep in 0..SETUP_REPS {
        input = config.work.join(format!("input{rep}.tsv"));
        if config.trace {
            gen_traced(&spec, &input, &mut trace, next_op)?;
            next_op += 1;
        } else {
            setup_s.push(gen_with_cli(&config.backbone, &spec, &input)?);
            setup_reference_ms.extend([reference.time_ms(), reference.time_ms()]);
        }
        let bytes = std::fs::read(&input).map_err(|e| format!("{}: {e}", input.display()))?;
        inputs.push(digest(&bytes));
    }

    let perfbench = std::env::current_exe().map_err(|e| e.to_string())?;
    let args = workload.args(&input);
    let mut trace_args = vec!["trace-op".to_string()];
    trace_args.extend(args.iter().cloned());

    // The reference is timed before every op. The clock of the timed phase
    // stops while it runs, so it costs the run no ops.
    let cpu_before = sys::cpu_jiffies();
    let deadline = Duration::from_secs_f64(config.seconds);
    let mut timed = Duration::ZERO;
    let mut ops = Vec::new();
    let mut reference_ms = Vec::new();
    let mut counts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    while timed < deadline {
        reference_ms.push(reference.time_ms());
        let started = Instant::now();
        let traced = config.trace && ops.len() % 2 == 1;
        let (op, _, stderr) = if traced {
            spawn_op(&perfbench, &trace_args, true)?
        } else {
            spawn_op(&config.backbone, &args, false)?
        };
        if traced {
            let parent = trace.push(Span {
                name: "cli.op".to_string(),
                start_ns: op.start_ns,
                end_ns: op.end_ns,
                parent: None,
                op: next_op,
            });
            for (name, value) in parse_child_spans(&stderr, &mut trace, parent) {
                counts.entry(name).or_default().push(value);
            }
            next_op += 1;
        }
        ops.push(op);
        timed += started.elapsed();
    }
    let timed_s = timed.as_secs_f64();
    let steal = sys::steal_share(cpu_before, sys::cpu_jiffies());

    // Checks: the layer-by-layer path is the reference output; it must keep
    // round(0.1·E) input edges with their input weights, and every op must
    // have printed exactly it.
    let mut problems = Vec::new();
    if inputs.windows(2).any(|pair| pair[0] != pair[1]) {
        problems.push(format!("generating {spec} twice gave different files"));
    }
    let (reference_op, reference, _) = spawn_op(&perfbench, &trace_args, true)?;
    if !reference_op.success {
        problems.push("the layer-by-layer reference op failed".to_string());
    }
    let input_text =
        std::fs::read_to_string(&input).map_err(|e| format!("{}: {e}", input.display()))?;
    let options = EdgeListOptions::with_direction(if workload.undirected() {
        Direction::Undirected
    } else {
        Direction::Directed
    });
    let graph = read_edge_list_csr_file(&input, &options).map_err(|e| e.to_string())?;
    let kept = matched_edge_count(graph.edge_count(), TOP_SHARE).map_err(|e| e.to_string())?;
    if let Err(problem) = check_backbone(&reference, &input_text, workload.undirected(), kept) {
        problems.push(problem);
    }
    let failed = count_failed(&ops, reference_op.output);

    let mut record = backboning::json::JsonObject::inline();
    record
        .usize("threads", 1)
        .usize("nodes", graph.node_count())
        .usize("edges", graph.edge_count())
        .usize("input_bytes", input_text.len())
        .f64("timed_s", timed_s)
        .f64("cpu_steal_share", steal)
        .raw("setup_s", &json_list(&setup_s))
        .f64("reference_ms", NOMINAL_MS / scale(&reference_ms))
        .f64(
            "raw_op_ms_p50",
            median_or_zero(&ops.iter().map(|op| op.ms).collect::<Vec<_>>()),
        );

    let mut metrics = BTreeMap::new();
    if config.trace {
        metrics = span_metrics(&trace);
        let read_ms = metrics.get("graph.io.read_ms").copied().unwrap_or(0.0);
        metrics.insert(
            "graph.io.read_mib_per_s",
            mib_per_s(input_text.len() as u64, read_ms),
        );
        if workload.roots > 0 {
            let score_ms = metrics.get("core.score_ms").copied().unwrap_or(0.0);
            metrics.insert(
                "core.high_salience.root_ms",
                score_ms / workload.roots as f64,
            );
        }
        for name in ["core.select.kept_edges", "graph.io.write_bytes"] {
            metrics.insert(name, median_or_zero(counts.get(name).map_or(&[], |v| v)));
        }
        let op_self_ms = trace.self_ms_per_op().remove("cli.op").unwrap_or_default();
        metrics.insert("cli.other_ms", median_or_zero(&op_self_ms));
        let op_ms = |traced: bool| {
            let ms: Vec<f64> = ops
                .iter()
                .filter(|op| op.traced == traced)
                .map(|op| op.ms)
                .collect();
            median_or_zero(&ms)
        };
        metrics.insert("trace.overhead_ms", op_ms(true) - op_ms(false));
        metrics.insert(
            "trace.layer_coverage",
            median_or_zero(&trace.child_coverage("cli.op")),
        );
    } else {
        // Each op's times on the nominal host, from the reference timings
        // nearest it.
        let scales = rolling_scales(&reference_ms);
        let ms: Vec<f64> = ops.iter().zip(&scales).map(|(op, s)| op.ms * s).collect();
        let write_ms: Vec<f64> = ops
            .iter()
            .zip(&scales)
            .map(|(op, s)| op.write_ms * s)
            .collect();
        let peak_kib = ops.iter().map(|op| op.max_rss_kib).max().unwrap_or(0);
        metrics.insert(
            "setup_s",
            median_or_zero(&setup_s) * scale(&setup_reference_ms),
        );
        metrics.insert(
            "ops_per_s",
            ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        );
        metrics.insert("op_ms_p50", median_or_zero(&ms));
        metrics.insert("op_ms_p90", stats::p90(&ms)?);
        metrics.insert("write_ms_p50", median_or_zero(&write_ms));
        metrics.insert("write_ms_p90", stats::p90(&write_ms)?);
        metrics.insert("peak_rss_mib", peak_kib as f64 / 1024.0);
    }
    Ok(Outcome {
        attempted: ops.len() as u64,
        failed,
        problems,
        metrics,
        record,
        trace,
    })
}

/// Ops that exited non-zero or printed anything but the reference output.
fn count_failed(ops: &[Op], reference: (usize, u64)) -> u64 {
    ops.iter()
        .filter(|op| !op.success || op.output != reference)
        .count() as u64
}

/// A backbone is a header line and `kept` edges, each an input edge with its
/// input weight.
fn check_backbone(output: &[u8], input: &str, undirected: bool, kept: usize) -> Result<(), String> {
    let output = std::str::from_utf8(output).map_err(|_| "backbone is not UTF-8")?;
    let mut lines = output.lines();
    if lines.next() != Some("# source\ttarget\tweight") {
        return Err("backbone lacks its header line".to_string());
    }
    let mut weights: HashMap<(&str, &str), f64> = HashMap::new();
    for line in input.lines().filter(|line| !line.starts_with('#')) {
        let (source, target, weight) = split_edge(line)?;
        weights.insert((source, target), weight);
        if undirected {
            weights.insert((target, source), weight);
        }
    }
    let mut edges = 0;
    for line in lines {
        let (source, target, weight) = split_edge(line)?;
        if weights.get(&(source, target)) != Some(&weight) {
            return Err(format!("backbone edge `{line}` is not an input edge"));
        }
        edges += 1;
    }
    if edges != kept {
        return Err(format!("backbone holds {edges} edges, expected {kept}"));
    }
    Ok(())
}

fn split_edge(line: &str) -> Result<(&str, &str, f64), String> {
    let mut fields = line.split_whitespace();
    match (fields.next(), fields.next(), fields.next().map(str::parse)) {
        (Some(source), Some(target), Some(Ok(weight))) => Ok((source, target, weight)),
        _ => Err(format!("malformed edge line `{line}`")),
    }
}

/// Add the `span` lines a traced op printed as children of `parent`; return
/// its `count` lines.
fn parse_child_spans(stderr: &str, trace: &mut Trace, parent: usize) -> Vec<(String, f64)> {
    let op = trace.spans()[parent].op;
    let mut counts = Vec::new();
    for line in stderr.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.as_slice() {
            ["span", name, start, end] => {
                if let (Ok(start_ns), Ok(end_ns)) = (start.parse(), end.parse()) {
                    trace.push(Span {
                        name: name.to_string(),
                        start_ns,
                        end_ns,
                        parent: Some(parent),
                        op,
                    });
                }
            }
            ["count", name, value] => {
                if let Ok(value) = value.parse() {
                    counts.push((name.to_string(), value));
                }
            }
            _ => {}
        }
    }
    counts
}

/// Counts the bytes written through it.
struct CountingWriter<W> {
    inner: W,
    bytes: usize,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Run `f` and note its span as `(name, start, end)`.
fn timed<T>(
    spans: &mut Vec<(&'static str, u64, u64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = now_ns();
    let value = f();
    spans.push((name, start, now_ns()));
    value
}

/// `perfbench trace-op <backbone run flags>`: the `backbone` run pipeline
/// (read, score, select, subgraph, write) called layer by layer, with the
/// backbone on stdout and one `span` line per layer call on stderr.
pub fn trace_op(args: &[String]) -> Result<(), String> {
    let Ok(CliCommand::Run(config)) = parse_args(args.iter().cloned()) else {
        return Err(format!(
            "trace-op takes the flags of a backbone run, got {args:?}"
        ));
    };
    let input = config
        .input
        .as_ref()
        .ok_or("trace-op needs an input file")?;
    let mut spans = Vec::new();
    let graph = timed(&mut spans, "graph.io.read", || {
        read_edge_list_csr_file(input, &config.options)
    })
    .map_err(|e| e.to_string())?;
    let pipeline = Pipeline::new(config.method, config.policy).with_threads(config.threads);
    let scored =
        timed(&mut spans, "core.score", || pipeline.score(&graph)).map_err(|e| e.to_string())?;
    let kept = timed(&mut spans, "core.select", || {
        pipeline.select(&graph, &scored)
    })
    .map_err(|e| e.to_string())?;
    let backbone = timed(&mut spans, "graph.csr.subgraph", || {
        graph.subgraph_with_edges(&kept)
    })
    .map_err(|e| e.to_string())?;
    // The coverage figures `Pipeline::run` computes for every CLI run.
    std::hint::black_box((
        graph.non_isolated_node_count(),
        backbone.non_isolated_node_count(),
    ));
    let mut out = CountingWriter {
        inner: std::io::stdout().lock(),
        bytes: 0,
    };
    timed(&mut spans, "graph.io.write", || {
        write_edge_list(&backbone, &mut out)
    })
    .map_err(|e| e.to_string())?;

    let mut report = String::new();
    for (name, start, end) in &spans {
        report.push_str(&format!("span\t{name}\t{start}\t{end}\n"));
    }
    report.push_str(&format!("count\tcore.select.kept_edges\t{}\n", kept.len()));
    report.push_str(&format!("count\tgraph.io.write_bytes\t{}\n", out.bytes));
    std::io::stderr()
        .write_all(report.as_bytes())
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(success: bool, output: &[u8]) -> Op {
        Op {
            traced: false,
            ms: 1.0,
            write_ms: 0.5,
            success,
            output: digest(output),
            max_rss_kib: 1,
            start_ns: 0,
            end_ns: 1,
        }
    }

    #[test]
    fn a_corrupted_or_failed_cli_op_counts_as_failed() {
        let good = b"# source\ttarget\tweight\na\tb\t2\n";
        let ops = [
            op(true, good),
            op(true, b"# source\ttarget\tweight\na\tb\t3\n"),
            op(true, &good[..good.len() - 1]),
            op(false, good),
            op(true, good),
        ];
        assert_eq!(count_failed(&ops, digest(good)), 3);
    }

    #[test]
    fn the_backbone_check_wants_input_edges_with_input_weights() {
        let input = "# source\ttarget\tweight\na\tb\t2\nb\tc\t1.5\nc\ta\t4\n";
        let header = "# source\ttarget\tweight\n";
        let ok = format!("{header}c\ta\t4\n");
        assert!(check_backbone(ok.as_bytes(), input, false, 1).is_ok());
        // Reversed orientation is the same edge only when undirected.
        let reversed = format!("{header}a\tc\t4\n");
        assert!(check_backbone(reversed.as_bytes(), input, true, 1).is_ok());
        assert!(check_backbone(reversed.as_bytes(), input, false, 1).is_err());
        let wrong_weight = format!("{header}c\ta\t4.5\n");
        assert!(check_backbone(wrong_weight.as_bytes(), input, false, 1).is_err());
        assert!(check_backbone(ok.as_bytes(), input, false, 2).is_err());
        assert!(check_backbone(b"c\ta\t4\n", input, false, 1).is_err());
    }

    #[test]
    fn child_spans_nest_under_the_op_span() {
        let mut trace = Trace::default();
        let parent = trace.push(Span {
            name: "cli.op".to_string(),
            start_ns: 0,
            end_ns: 100,
            parent: None,
            op: 7,
        });
        let stderr = "span\tgraph.io.read\t5\t60\nspan\tgraph.io.write\t60\t90\n\
                      count\tgraph.io.write_bytes\t1234\nnoise\n";
        let counts = parse_child_spans(stderr, &mut trace, parent);
        assert_eq!(counts, vec![("graph.io.write_bytes".to_string(), 1234.0)]);
        assert_eq!(trace.self_times_ns(), vec![15, 55, 30]);
        assert!(trace.spans()[1..].iter().all(|s| s.op == 7));
        let coverage = trace.child_coverage("cli.op");
        assert!(coverage.len() == 1 && (coverage[0] - 0.85).abs() < 1e-12);
    }
}
