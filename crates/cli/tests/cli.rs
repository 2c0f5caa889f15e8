//! End-to-end tests of the `backbone` binary: every method × policy on a
//! user-supplied edge list, from a file and from stdin, plus the three output
//! kinds and the error paths.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const BACKBONE: &str = env!("CARGO_BIN_EXE_backbone");

/// The bundled example network from `docs/GUIDE.md`.
fn trade_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/examples/trade.tsv")
}

fn run_with_stdin(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(BACKBONE)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn backbone");
    if let Some(text) = stdin {
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
    }
    drop(child.stdin.take());
    child.wait_with_output().expect("wait for backbone")
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "backbone failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).unwrap()
}

#[test]
fn every_method_and_policy_runs_on_a_file() {
    let path = trade_path();
    let path = path.to_str().unwrap();
    for method in ["nc", "ncb", "df", "hss", "ds", "mst", "naive"] {
        for policy in [
            &["--threshold", "0.0"][..],
            &["--top-k", "10"][..],
            &["--top-share", "0.3"][..],
            &["--coverage", "0.9"][..],
        ] {
            let mut args = vec!["--method", method, "--undirected"];
            args.extend_from_slice(policy);
            args.push(path);
            let output = run_with_stdin(&args, None);
            let text = stdout_of(&output);
            assert!(
                text.starts_with("# source\ttarget\tweight"),
                "{method} {policy:?}: unexpected output `{}`",
                text.lines().next().unwrap_or_default()
            );
            assert!(
                text.lines().count() > 1,
                "{method} {policy:?}: empty backbone"
            );
        }
    }
}

#[test]
fn stdin_and_file_inputs_agree() {
    let path = trade_path();
    let text = std::fs::read_to_string(&path).unwrap();
    let args = ["--method", "nc", "--top-k", "12", "--undirected"];

    let mut file_args = args.to_vec();
    let path_str = path.to_str().unwrap();
    file_args.push(path_str);
    let from_file = stdout_of(&run_with_stdin(&file_args, None));
    let from_stdin = stdout_of(&run_with_stdin(&args, Some(&text)));
    assert_eq!(from_file, from_stdin);
    // 12 kept edges + header.
    assert_eq!(from_file.lines().count(), 13);
}

#[test]
fn scores_output_lists_every_edge() {
    let path = trade_path();
    let output = run_with_stdin(
        &[
            "--method",
            "nc",
            "--top-k",
            "5",
            "--undirected",
            "-o",
            "scores",
            path.to_str().unwrap(),
        ],
        None,
    );
    let text = stdout_of(&output);
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "# source\ttarget\tweight\tscore\traw_score\tstd_dev\tp_value\tkept"
    );
    // 28 edges in the bundled network, each with a kept flag; exactly 5 kept.
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 28);
    let kept = rows.iter().filter(|row| row.ends_with("\t1")).count();
    assert_eq!(kept, 5);
}

#[test]
fn summary_output_is_json_with_run_statistics() {
    let path = trade_path();
    let output = run_with_stdin(
        &[
            "--method",
            "df",
            "--top-share",
            "0.5",
            "--undirected",
            "--threads",
            "2",
            "-o",
            "summary",
            path.to_str().unwrap(),
        ],
        None,
    );
    let text = stdout_of(&output);
    for needle in [
        "\"method\": \"df\"",
        "\"kind\": \"top_share\"",
        "\"threads\": 2",
        "\"nodes\": 8",
        "\"edges\": 28",
        "\"coverage\":",
        "\"wall_ms\":",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in `{text}`");
    }
}

#[test]
fn csv_separator_and_header_flags_work() {
    let csv = "src,dst,w\na,b,5\nb,c,4\nc,a,3\n";
    let output = run_with_stdin(
        &[
            "--method",
            "naive",
            "--top-k",
            "2",
            "--csv",
            "--header",
            "--undirected",
        ],
        Some(csv),
    );
    let text = stdout_of(&output);
    assert!(text.contains("a\tb\t5"));
    assert!(text.contains("b\tc\t4"));
    assert!(!text.contains("\tsrc"));
}

#[test]
fn malformed_input_fails_with_named_source_and_exit_1() {
    let output = run_with_stdin(
        &["--method", "nc", "--top-k", "2"],
        Some("a b 1.0\nb c heavy\n"),
    );
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("<stdin>"), "missing source in `{err}`");
    assert!(err.contains("line 2"), "missing line in `{err}`");
}

#[test]
fn empty_node_names_fail_with_exit_1() {
    for (flag, text) in [("--csv", "a,b,1\na,,3\n"), ("--tsv", "a\tb\t1\na\t\t3\n")] {
        let output = run_with_stdin(&["--method", "nc", "--top-k", "2", flag], Some(text));
        assert_eq!(output.status.code(), Some(1), "{flag}");
        assert!(output.stdout.is_empty(), "{flag}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("<stdin>: line 2: empty target node name"),
            "{flag}: `{err}`"
        );
    }
}

#[test]
fn a_fourth_field_fails_with_exit_1() {
    // A CSV node name holding a space comes out of a TSV writer as `x\t5 6\t3`;
    // read back on whitespace that line has four fields, not the edge `x 5`.
    let tsv = stdout_of(&run_with_stdin(
        &["--csv", "--method", "naive", "--threshold", "0"],
        Some("x,5 6,3\n"),
    ));
    for (flags, text) in [
        (&[][..], "a b 1\na b 3 extra\n"),
        (&["--csv"][..], "a,b,1\na,b,3,extra\n"),
        (&[][..], tsv.as_str()),
    ] {
        let mut args = vec!["--method", "naive", "--threshold", "0"];
        args.extend_from_slice(flags);
        let output = run_with_stdin(&args, Some(text));
        assert_eq!(output.status.code(), Some(1), "{text:?}");
        assert!(output.stdout.is_empty(), "{text:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains(": expected at most `source target weight`"),
            "{text:?}: `{err}`"
        );
    }
}

#[test]
fn overflowing_weight_sums_fail_with_exit_1() {
    let output = run_with_stdin(
        &["--method", "nc", "--top-k", "1", "-o", "scores"],
        Some("a b 1e308\nb c 1e308\nc d 1\n"),
    );
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty());
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(
        err.contains("noise_corrected cannot process this graph: edge weights sum to inf"),
        "`{err}`"
    );
}

#[test]
fn underflowing_nc_strengths_fail_with_exit_1() {
    for weight in ["1e-200", "1e-100"] {
        let output = run_with_stdin(
            &["--method", "nc", "--top-k", "1", "-o", "scores"],
            Some(&format!("a b {weight}\nc d 5\n")),
        );
        assert_eq!(output.status.code(), Some(1), "{weight}");
        assert!(output.stdout.is_empty(), "{weight}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("noise_corrected cannot process this graph: node strengths"),
            "{weight}: `{err}`"
        );
    }
}

#[test]
fn missing_file_fails_with_named_path_and_exit_1() {
    let output = run_with_stdin(
        &["--method", "nc", "--top-k", "2", "/no/such/file.tsv"],
        None,
    );
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("/no/such/file.tsv"), "missing path in `{err}`");
}

#[test]
fn invalid_policy_values_exit_1_for_every_method_before_reading_input() {
    // The input file does not exist: the policy is refused first.
    for (args, needle) in [
        (
            &["-m", "mst", "--top-share", "7", "--undirected"][..],
            "`top_share`",
        ),
        (&["-m", "nc", "--top-share", "7"][..], "`top_share`"),
        (&["-m", "ds", "--coverage", "-3"][..], "`coverage`"),
        (&["-m", "naive", "--threshold", "nan"][..], "`threshold`"),
    ] {
        let mut args = args.to_vec();
        args.push("/no/such/file.tsv");
        let output = run_with_stdin(&args, None);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("/no/such/file.tsv"), "{args:?}: {err}");
    }
}

#[test]
fn zero_hss_roots_exit_1_before_reading_input() {
    for args in [
        &["-m", "hss-approx", "--hss-roots", "0", "--top-k", "1"][..],
        &["compare", "--methods", "nc,hss-approx", "--hss-roots", "0"][..],
    ] {
        let mut args = args.to_vec();
        args.push("/no/such/file.tsv");
        let output = run_with_stdin(&args, None);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains("at least one root"), "{args:?}: {err}");
        assert!(!err.contains("/no/such/file.tsv"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_methods_are_answered_with_every_name() {
    for args in [
        &["-m", "zz", "--top-k", "1"][..],
        &["compare", "--methods", "zz"][..],
    ] {
        let output = run_with_stdin(args, Some(""));
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("(expected one of: nc, ncb, df, hss, hss-approx, ds, mst, naive"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn usage_errors_exit_2_and_hint_at_help() {
    for args in [
        &["--top-k", "2"][..],
        &["--method", "nc"][..],
        &["--method", "nc", "--top-k", "1", "--unknown-flag"][..],
        // The perf grid moved to the bench crate's `bench_matrix` binary.
        &["bench-matrix"][..],
    ] {
        let output = run_with_stdin(args, Some(""));
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains("--help"), "{args:?}: no help hint in `{err}`");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let output = run_with_stdin(&["--help"], None);
    let text = stdout_of(&output);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--coverage"));
    assert!(text.contains("compare"));
}

#[test]
fn compare_emits_tables_and_stable_json() {
    let path = trade_path();
    let path = path.to_str().unwrap();
    let table = stdout_of(&run_with_stdin(&["compare", "--undirected", path], None));
    assert!(table.contains("Backbone comparison"), "{table}");
    assert!(table.contains("Pairwise Jaccard agreement"), "{table}");
    for method in ["NC", "DF", "HSS"] {
        assert!(table.contains(method), "missing {method} in\n{table}");
    }

    let json_args = [
        "compare",
        "--methods",
        "nc,df,hss",
        "--top-share",
        "0.1",
        "--undirected",
        "-o",
        "json",
        path,
    ];
    let first = stdout_of(&run_with_stdin(&json_args, None));
    assert!(first.contains("\"matched_edges\": 3"), "{first}");
    assert!(first.contains("\"noise_stability\""), "{first}");
    assert!(first.contains("\"score_wall_ms\""), "{first}");
    // Everything except the per-method score_wall_ms timing is a pure
    // function of graph and config: re-running produces identical bytes
    // once the timings are stripped.
    let second = stdout_of(&run_with_stdin(&json_args, None));
    assert_eq!(strip_score_wall_ms(&first), strip_score_wall_ms(&second));

    // Stdin and file inputs agree for compare too.
    let text = std::fs::read_to_string(trade_path()).unwrap();
    let stdin_args: Vec<&str> = json_args[..json_args.len() - 1].to_vec();
    let from_stdin = stdout_of(&run_with_stdin(&stdin_args, Some(&text)));
    assert_eq!(
        strip_score_wall_ms(&first),
        strip_score_wall_ms(&from_stdin)
    );
}

/// Remove every `, "score_wall_ms": <number>` fragment — the one
/// run-dependent field of the compare JSON.
fn strip_score_wall_ms(json: &str) -> String {
    const MARKER: &str = ", \"score_wall_ms\": ";
    let mut out = String::new();
    let mut rest = json;
    while let Some(position) = rest.find(MARKER) {
        out.push_str(&rest[..position]);
        let after = &rest[position + MARKER.len()..];
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(after.len());
        rest = &after[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn compare_usage_errors_exit_2() {
    let output = run_with_stdin(&["compare", "--methods", "nc,bogus"], Some(""));
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown method"), "{err}");
}

#[test]
fn compare_invalid_share_exits_1() {
    let path = trade_path();
    let output = run_with_stdin(
        &[
            "compare",
            "--top-share",
            "1.5",
            "--undirected",
            path.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("top_share"), "{err}");
}

#[test]
fn compare_resamples_above_the_cap_exit_1() {
    // Refused before the Monte Carlo allocates a trial list of this size.
    let path = trade_path();
    let output = run_with_stdin(
        &[
            "compare",
            "--resamples",
            "1000000000000",
            "--undirected",
            path.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("noise_resamples"), "{err}");
    assert!(err.contains("at most 1000"), "{err}");
}

#[test]
fn gen_pipes_into_the_pipeline() {
    // `backbone gen` to stdout, then feed the edge list back through a
    // backbone run — the full scenario → backbone loop, via real processes.
    let spec = "sb:n=300,b=4,pin=0.1,pout=0.01,w=lognormal(0,1),noise=0.1,seed=7";
    let generated = stdout_of(&run_with_stdin(&["gen", spec], None));
    assert!(generated.starts_with("# source\ttarget\tweight\n"));

    // Deterministic: a second run emits identical bytes.
    let again = stdout_of(&run_with_stdin(&["gen", spec], None));
    assert_eq!(generated, again);

    let output = run_with_stdin(
        &[
            "--method",
            "nc",
            "--top-share",
            "0.1",
            "--undirected",
            "-o",
            "summary",
        ],
        Some(&generated),
    );
    let summary = stdout_of(&output);
    assert!(summary.contains("\"method\": \"nc\""), "{summary}");
}

#[test]
fn gen_writes_a_file_with_out_flag() {
    let dir = std::env::temp_dir().join(format!("backbone_gen_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.tsv");
    let output = run_with_stdin(
        &[
            "gen",
            "ba:n=200,m=2,seed=3",
            "--out",
            path.to_str().unwrap(),
        ],
        None,
    );
    let summary = stdout_of(&output);
    assert!(summary.contains("200 nodes"), "{summary}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("# source\ttarget\tweight\n"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_usage_errors_exit_2() {
    let output = run_with_stdin(&["gen", "zz:n=10"], None);
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown family"), "{err}");
}
