#!/usr/bin/env python3
"""Build the `backbone` CLI and the benchmark harness from source, then make
one benchmark run.

    python3 perfbench/run.py --workload <cli_nc|cli_hssa|serve_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); each run's generated inputs, run record and spans go to
`.perfbench/`. The last line of stdout is the run's JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["-p", "backboning_cli", "--bin", "backbone"],
        cargo + ["--manifest-path", "perfbench/Cargo.toml"],
    ]
    for command in builds:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(command), file=sys.stderr)
            return 1

    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))
    run_name = "{}-seed{}-trace{}".format(
        flags.get("--workload", "none"),
        flags.get("--seed", "none"),
        flags.get("--trace", "none"),
    )
    command = [
        str(target / "release" / "perfbench"),
        *args,
        "--backbone",
        str(target / "release" / "backbone"),
        "--work",
        str(root / ".perfbench" / run_name),
    ]
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
