//! Sweep generated scenarios × methods × a top-share policy and upsert one
//! row per cell into the `"matrix"` section of `BENCH_backbones.json`.
//!
//! ```text
//! cargo run --release -p backboning_bench --bin bench_matrix -- [OPTIONS]
//! ```
//!
//! [`backboning_bench::matrix`] runs the sweep and defines the rows; the
//! section is upserted where it stands through [`backboning_bench::section`],
//! so a sweep changes only the lines of the cells it measured.

use std::io::Write;
use std::path::PathBuf;

use backboning_bench::matrix::{run_matrix, MatrixConfig};
use backboning_bench::section::{self, SectionRow};
use backboning_eval::comparison::parse_method_list;
use backboning_gen::ScenarioSpec;

const USAGE: &str = "\
bench_matrix — the scenario × method perf grid of BENCH_backbones.json

USAGE:
    bench_matrix [OPTIONS]

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

/// A parsed command line: the sweep and the snapshot file it upserts.
#[derive(Debug)]
struct Args {
    matrix: MatrixConfig,
    out: PathBuf,
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}` as a number"))
}

/// Parse the flags; `Ok(None)` asks for the help text.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut matrix = MatrixConfig::default();
    let mut out = PathBuf::from("BENCH_backbones.json");
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| args.next().ok_or(format!("{flag}: missing value"));
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--specs" => {
                matrix.specs = value_for(&arg)?
                    .split(';')
                    .filter(|text| !text.is_empty())
                    .map(|text| ScenarioSpec::parse(text).map_err(|error| error.to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "--methods" => matrix.methods = parse_method_list(&value_for(&arg)?)?,
            "--top-share" => matrix.top_share = parse_number(&arg, &value_for(&arg)?)?,
            "--runs" => matrix.runs = parse_number(&arg, &value_for(&arg)?)?,
            "--threads" => matrix.threads = parse_number(&arg, &value_for(&arg)?)?,
            "--out" => out = PathBuf::from(value_for(&arg)?),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown bench-matrix flag `{flag}`"));
            }
            other => {
                return Err(format!(
                    "bench-matrix takes no positional arguments, got `{other}`"
                ));
            }
        }
    }
    Ok(Some(Args { matrix, out }))
}

/// Run the sweep, upsert its rows into the snapshot file, and echo the rows
/// plus a summary line to `out`.
fn run(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let rows = run_matrix(&args.matrix)?;
    let total = section::upsert_file(&args.out, &rows)?;
    for row in &rows {
        writeln!(out, "{}", row.render()).map_err(|e| e.to_string())?;
    }
    writeln!(
        out,
        "bench-matrix: {} cell(s) swept, {total} total in {}",
        rows.len(),
        args.out.display()
    )
    .map_err(|e| e.to_string())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("bench_matrix: {message}");
            eprintln!("Run `bench_matrix --help` for usage.");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    if let Err(message) = run(&args, &mut stdout.lock()) {
        eprintln!("bench_matrix: {message}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_bench::matrix::MatrixRow;
    use backboning_eval::Method;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    /// A snapshot's matrix rows without their two timing fields, which
    /// close every row.
    fn stable_rows(path: &std::path::Path) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap();
        section::rows(&text, MatrixRow::SECTION)
            .into_iter()
            .map(|line| line[..line.find(", \"median_ms\": ").unwrap()].to_string())
            .collect()
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args.matrix.specs.len(), 8);
        assert_eq!(args.matrix.methods.len(), 5);
        assert_eq!(args.matrix.top_share, 0.1);
        assert_eq!(args.matrix.runs, 3);
        assert_eq!(args.matrix.threads, 1);
        assert_eq!(args.out, PathBuf::from("BENCH_backbones.json"));

        let args = parse(&[
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
        .unwrap()
        .unwrap();
        assert_eq!(args.matrix.specs.len(), 2);
        assert_eq!(args.matrix.specs[1].family.tag(), "sb");
        assert_eq!(
            args.matrix.methods,
            vec![Method::NoiseCorrected, Method::DisparityFilter]
        );
        assert_eq!(args.matrix.top_share, 0.2);
        assert_eq!(args.matrix.runs, 1);
        assert_eq!(args.matrix.threads, 2);
        assert_eq!(args.out, PathBuf::from("grid.json"));
        assert!(parse(&["--help"]).unwrap().is_none());
    }

    #[test]
    fn usage_errors_are_reported() {
        for (args, needle) in [
            (&["--specs", "zz:n=1"][..], "unknown family"),
            (&["--methods", "wat"][..], "wat"),
            (&["--wat"][..], "unknown bench-matrix flag"),
            (&["positional"][..], "no positional"),
            (&["--runs"][..], "missing value"),
            (&["--runs", "x"][..], "--runs: cannot parse `x` as a number"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: `{needle}` not in `{err}`");
        }
    }

    #[test]
    fn upserts_rows_into_a_fresh_file() {
        let dir = std::env::temp_dir().join(format!("bench_matrix_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut args = parse(&["--specs", "ba:n=120,m=2,seed=5", "--methods", "nc,mst"])
            .unwrap()
            .unwrap();
        args.matrix.runs = 1;
        args.out = dir.join("grid.json");

        let mut echoed = Vec::new();
        run(&args, &mut echoed).unwrap();
        let echoed = String::from_utf8(echoed).unwrap();
        assert!(echoed.ends_with(&format!(
            "bench-matrix: 2 cell(s) swept, 2 total in {}\n",
            args.out.display()
        )));
        let first = stable_rows(&args.out);
        assert_eq!(first.len(), 2);

        // A second identical run must upsert in place, not duplicate rows,
        // and keep the deterministic fields byte-identical.
        run(&args, &mut Vec::new()).unwrap();
        assert_eq!(stable_rows(&args.out), first);
        std::fs::remove_dir_all(&dir).ok();
    }
}
