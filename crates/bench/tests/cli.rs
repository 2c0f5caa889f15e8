//! End-to-end tests of the bench crate's command-line tools.

use std::process::Command;

/// Run `bench_matrix` with `args` and return its stdout.
fn bench_matrix(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_matrix"))
        .args(args)
        .output()
        .expect("spawn bench_matrix");
    assert!(
        output.status.success(),
        "bench_matrix failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn bench_matrix_rows_are_stable_across_runs() {
    let dir = std::env::temp_dir().join(format!("bench_matrix_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("grid.json");
    let args = [
        "--specs",
        "ba:n=200,m=2,seed=5;er:n=200,e=600,w=uniform(10),seed=5",
        "--methods",
        "nc,df",
        "--runs",
        "1",
        "--out",
        out.to_str().unwrap(),
    ];
    let first_echo = bench_matrix(&args);
    assert!(first_echo.contains("4 cell(s) swept"), "{first_echo}");
    let first = std::fs::read_to_string(&out).unwrap();

    bench_matrix(&args);
    let second = std::fs::read_to_string(&out).unwrap();

    // The deterministic fields must be byte-identical across the two runs
    // (the same sed idiom ci.sh uses strips the timing fields).
    let strip = |text: &str| -> String {
        text.lines()
            .map(|line| match line.find(", \"median_ms\": ") {
                Some(start) => &line[..start],
                None => line,
            })
            .collect::<Vec<&str>>()
            .join("\n")
    };
    assert_eq!(strip(&first), strip(&second));
    assert_eq!(first.matches("\"spec\": ").count(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_matrix_usage_errors_exit_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_matrix"))
        .args(["--specs", "zz:n=10"])
        .output()
        .expect("spawn bench_matrix");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown family"), "{err}");
}
