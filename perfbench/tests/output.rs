//! The benchmark binary end to end on short runs: it exits 0 and its last
//! line is the JSON object with every metric BENCHMARK.json lists.

use std::process::Command;

/// Metric names of one list (`end_to_end` or `per_layer`) in BENCHMARK.json.
fn listed_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("some output").to_string()
}

fn check(last: &str, key: &str) {
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains(",\"failed\":0,\"metrics\":{"), "{last}");
    let names = listed_names(key);
    assert_eq!(last.matches("\"unit\":").count(), names.len(), "{last}");
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing: {last}"
        );
    }
    assert!(!last.contains("NaN") && !last.contains("inf"), "{last}");
}

/// Both workloads in both modes, at the benchmark's own sizes;
/// `write_churn`'s traced run includes the served probe.
#[test]
fn runs_print_every_metric() {
    for w in ["read_mix", "write_churn"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let last = run(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            check(&last, key);
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
