//! Byte identity of the generated bench substrates: `backbone gen` on the
//! ba/er specs that `ci.sh` and the GUIDE use writes exactly what the
//! original direct generator calls emitted for the committed bench seeds,
//! and on any spec exactly what library-level generation writes.

use std::process::Command;

use backboning_gen::ScenarioSpec;
use backboning_graph::generators::{barabasi_albert_csr, erdos_renyi_csr};
use backboning_graph::io::write_edge_list_string;
use backboning_graph::Direction;

/// Runs `backbone gen SPEC --out PATH` and returns the file it wrote.
fn run_gen(spec: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "gen_substrate_identity_{}_{}",
        std::process::id(),
        spec.replace(['/', ':', ',', '=', '(', ')'], "-"),
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("substrate.tsv");
    let output = Command::new(env!("CARGO_BIN_EXE_backbone"))
        .args(["gen", spec, "--out"])
        .arg(&out)
        .output()
        .expect("backbone gen runs");
    assert!(
        output.status.success(),
        "backbone gen {spec} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// The ba template reproduces the pre-rewrite `barabasi_albert_csr` bytes
/// for the committed bench seed.
#[test]
fn ba_form_matches_legacy_generator_bytes() {
    let legacy = write_edge_list_string(&barabasi_albert_csr(2000, 3, 4242).unwrap()).unwrap();
    assert_eq!(run_gen("ba:n=2000,m=3,w=unit,noise=0,seed=4242"), legacy);
}

/// The er template reproduces the pre-rewrite `erdos_renyi_csr` bytes
/// (inline uniform weights in (0, 10], same stream) for the committed seed.
#[test]
fn er_form_matches_legacy_generator_bytes() {
    let legacy = write_edge_list_string(
        &erdos_renyi_csr(2000, 6000, 10.0, Direction::Undirected, 99).unwrap(),
    )
    .unwrap();
    assert_eq!(
        run_gen("er:n=2000,e=6000,w=uniform(10),noise=0,seed=99"),
        legacy
    );
}

/// Any spec's `--out` file is exactly what library-level generation writes.
#[test]
fn spec_form_matches_library_generation() {
    let text = "sb:n=500,b=4,pin=0.05,pout=0.002,w=lognormal(0,1),noise=0.1,seed=7";
    let expected =
        write_edge_list_string(&ScenarioSpec::parse(text).unwrap().generate().unwrap()).unwrap();
    assert_eq!(run_gen(text), expected);
}
