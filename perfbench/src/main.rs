//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mix|write_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics; either way one line per metric, then one JSON object
//! as the last line. See README.md for the workloads and the metric map.

mod check;
mod gen;
mod inproc;
mod layers;
mod report;
mod served;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metric, Tally};
use workloads::Workload;

/// The end-to-end metrics, reported on every workload by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("small_k_p50_us", "us"),
    ("small_k_p99_us", "us"),
    ("large_k_p50_us", "us"),
    ("large_k_p99_us", "us"),
    ("cursor_page_p50_us", "us"),
    ("cursor_page_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("space_ratio", "ratio"),
];

/// The per-layer metrics of traced runs. A metric that does not apply to a
/// workload (the served probe's on `read_mix`, say) is reported as 0 and
/// marked n/a.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.codec_ns", "ns"),
    ("server.overhead_us", "us"),
    ("queue.batch_mean", "ops"),
    ("queue.rejected", "count"),
    ("topology.query_overhead_us", "us"),
    ("topology.write_overhead_us", "us"),
    ("index.small_k_us", "us"),
    ("index.large_k_us", "us"),
    ("cursor.page_us", "us"),
    ("index.insert_us", "us"),
    ("index.delete_us", "us"),
    ("pilot.pull_us", "us"),
    ("pilot.pull_ios", "ios"),
    ("pilot.update_us", "us"),
    ("pilot.update_ios", "ios"),
    ("reporter.query_us", "us"),
    ("reporter.query_ios", "ios"),
    ("reporter.update_us", "us"),
    ("reporter.update_ios", "ios"),
    ("kselect.select_us", "us"),
    ("kselect.select_ios", "ios"),
    ("kselect.update_us", "us"),
    ("kselect.update_ios", "ios"),
    ("space.pilot", "ratio"),
    ("space.reporter", "ratio"),
    ("space.kselect", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.logical_per_op", "count"),
    ("pool.index_blocks", "blocks"),
    ("pool.frames", "frames"),
    ("ios_per_small_k", "ios"),
    ("ios_per_large_k", "ios"),
    ("ios_per_cursor", "ios"),
    ("ios_per_write", "ios"),
    ("wal.bytes_per_write", "bytes"),
    ("wal.commits_per_write", "ratio"),
    ("wal.pwrites_per_commit", "count"),
    ("wal.checkpoints", "count"),
    ("persist.insert_us", "us"),
    ("fs.fsync_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Longest measured window of a traced run: its replays cost a multiple of
/// the window, and per-layer metrics carry no bound.
pub const TRACE_SECONDS: u64 = 10;
/// Traced load of the served probe in `write_churn`'s traced run.
pub const SERVED_SECONDS: u64 = 5;

/// What a workload run returns: its operation counts, every metric it
/// measured, and a line on its sizes.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub info: String,
}

/// Where runs write their spans and temporary data directories, under the
/// directory the benchmark is run from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// Order `found` by `spec`, filling what a workload does not measure.
fn assemble(spec: &[(&str, &'static str)], found: &[Metric]) -> Vec<Metric> {
    spec.iter()
        .map(
            |&(name, unit)| match found.iter().find(|m| m.name == name) {
                Some(m) => {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m.clone()
                }
                None => Metric::new(name, 0.0, unit).note("n/a on this workload"),
            },
        )
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <read_mix|write_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seconds = if args.trace {
        args.seconds.min(TRACE_SECONDS)
    } else {
        args.seconds
    };
    let mut result = inproc::run(w, args.seed, seconds, args.trace);
    // The layers only a server has are measured in write_churn's traced
    // run, by a probe with its own durable server.
    if let (Ok(outcome), true) = (&mut result, args.trace && w == Workload::WriteChurn) {
        match served::probe(args.seed, SERVED_SECONDS) {
            Ok((metrics, tally)) => {
                outcome.metrics.extend(metrics);
                outcome.tally.add(tally);
            }
            Err(e) => result = Err(format!("served probe: {e}")),
        }
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} n 2^{} trace {} cores {} | {}",
        w.name(),
        args.seed,
        Workload::LOG2_N,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        outcome.info
    );
    let correct = outcome.tally.failed == 0;
    report::print(correct, outcome.tally, &assemble(spec, &outcome.metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect("field present");
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = open + rest[open..].find('"').unwrap();
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = spec
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&json, key), want, "{key}");
        }
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn assemble_fills_every_metric_in_order() {
        let found = vec![
            Metric::new("space_ratio", 2.5, "ratio"),
            Metric::new("setup_s", 0.2, "s"),
        ];
        let out = assemble(END_TO_END, &found);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!((out[0].name.as_str(), out[0].value), ("setup_s", 0.2));
        assert_eq!(out[1].note, "n/a on this workload");
        assert_eq!(out.last().unwrap().value, 2.5);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload read_mix --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ReadMix, 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload read_mix --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload read_mix --seed x --seconds 10 --trace 1")).is_err());
    }
}
