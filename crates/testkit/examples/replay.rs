//! Replay any `.trace` file against any serving topology:
//!
//! ```text
//! cargo run -p topk-testkit --example replay -- traces/epst_full_cache_carry.trace
//! cargo run -p topk-testkit --example replay -- target/repro/bug.trace sharded-4
//! ```
//!
//! With no topology argument the trace replays against all three
//! (`sharded-1`, `sharded-4`, `sharded-16`).
//! Exit code 0 means every replay agreed with the sequential spec; 1 means
//! a divergence (printed) or a bad invocation.

use std::path::Path;
use std::process::ExitCode;

use topk_testkit::{replay, Topology, Trace};

fn usage() -> ExitCode {
    eprintln!("usage: replay <file.trace> [sharded-<n>|all]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(file) = args.first() else {
        return usage();
    };
    let trace = match Trace::load(Path::new(file)) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let topologies: Vec<Topology> = match args.get(1).map(String::as_str) {
        None | Some("all") => Topology::ALL.to_vec(),
        Some(name) => match name.parse() {
            Ok(topology) => vec![topology],
            Err(e) => {
                eprintln!("{e}");
                return usage();
            }
        },
    };
    let mut failed = false;
    for topology in topologies {
        match replay(&trace, topology) {
            Ok(stats) => println!(
                "{file}: OK on {topology} ({} ops applied, {} skipped, {} answers checked)",
                stats.applied, stats.skipped, stats.checked_answers
            ),
            Err(divergence) => {
                eprintln!("{file}: FAILED — {divergence}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
