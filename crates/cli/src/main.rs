//! The `backbone` binary: parse the command line, stream the edge list,
//! run the shared [`backboning::Pipeline`], and write the result to stdout —
//! or, as `backbone compare`, run the matched-coverage method comparison
//! (`backboning_eval::Comparison`) — or, as `backbone serve`, start the
//! long-lived HTTP serving subsystem (`backboning_server`) with its
//! scored-graph cache — or, as `backbone gen`, generate a deterministic
//! synthetic scenario (`backboning_gen`) — or, as `backbone patch`, apply a
//! batched add/remove/reweight delta to an edge list (optionally
//! `--verify`-ing the incremental rescoring path). The scenario × method
//! perf grid of `BENCH_backbones.json` is swept by the bench crate's
//! `bench_matrix` binary, so this one links no benchmark code.
//!
//! Exit codes: `0` success, `1` runtime failure (unreadable input, malformed
//! edge list, method error, bind failure), `2` usage error.

use std::io::Write;

use backboning_cli::{
    execute, execute_compare, execute_gen, execute_patch, parse_args, Command, USAGE,
};

fn main() {
    let args = std::env::args().skip(1);
    let command = match parse_args(args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("backbone: {err}");
            eprintln!("Run `backbone --help` for usage.");
            std::process::exit(2);
        }
    };
    match command {
        Command::Help => {
            print!("{USAGE}");
        }
        Command::Serve(config) => match backboning_server::Server::bind(config) {
            Ok(server) => {
                println!(
                    "backbone: serving on http://{} ({} graph(s) loaded, POST /shutdown to stop)",
                    server.addr(),
                    server.registry().graph_count()
                );
                let _ = std::io::stdout().flush();
                server.wait();
            }
            Err(err) => {
                eprintln!("backbone: serve: {err}");
                std::process::exit(1);
            }
        },
        Command::Run(config) => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            if let Err(err) = execute(&config, &mut out) {
                eprintln!("backbone: {err}");
                std::process::exit(1);
            }
            let _ = out.flush();
        }
        Command::Compare(config) => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            if let Err(err) = execute_compare(&config, &mut out) {
                eprintln!("backbone: {err}");
                std::process::exit(1);
            }
            let _ = out.flush();
        }
        Command::Gen(config) => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            if let Err(err) = execute_gen(&config, &mut out) {
                eprintln!("backbone: {err}");
                std::process::exit(1);
            }
            let _ = out.flush();
        }
        Command::Patch(config) => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            if let Err(err) = execute_patch(&config, &mut out) {
                eprintln!("backbone: {err}");
                std::process::exit(1);
            }
            let _ = out.flush();
        }
    }
}
