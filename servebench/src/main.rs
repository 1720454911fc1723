//! `servebench`: the serving benchmark of record for `bnb-serve`.
//!
//! A run spawns the server as a child process (this same executable,
//! `servebench serve ...`), drives one workload at it from a single
//! client thread over two loopback connections, verifies every reply
//! against its permutation, and prints one JSON result line last on
//! stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! the same traffic with request spans recorded on every other slice of
//! the window (the untraced slices give the tracing overhead), reads the
//! server's stage telemetry, times each layer's public entry points
//! in-process, writes a Chrome trace next to the executable, and reports
//! the per-layer metrics instead. Exit codes: 0 measured, 1 a reply or ledger was
//! wrong, 2 the run could not be carried out, 3 a validity guard failed.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload small-pipelined --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Linux only: server CPU and memory come from `/proc/<pid>`.

mod client;
mod layers;
mod run;
mod server;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((mode, rest)) if mode == "serve" => server::child_main(rest),
        _ => run::main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        ExitCode::from(2)
    })
}
