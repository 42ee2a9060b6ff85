//! Checked-in regression traces, replayed across every serving topology.
//!
//! Every `.trace` file under `traces/` is a once-failing (or
//! bug-class-targeted) operation sequence, re-encoded in the
//! `topk_testkit` trace DSL so it replays forever: the two latent
//! `ThreeSidedPst` seed bugs PR 3's stress harness caught, and the
//! `PilotPst::pull_up_if_needed` ordering bug this harness caught when it
//! was built, plus a long cursor pagination (k far above the node cache,
//! tiny pages, writes interleaved) pinning the stamp-gated frontier-carry
//! read plane. No serving topology holds a `ThreeSidedPst` any more, so
//! the two `epst_*` traces no longer reach the reporter: they replay as
//! workloads and pass with their fixes reverted (DESIGN.md §7.4). Each trace replays against all four topologies
//! ([`Topology::ALL`]) under full differential checking; a failure shrinks
//! to `target/repro/<trace>-<topology>.trace` and panics with the one-line
//! replay command.
//!
//! To add a regression trace: reproduce the failure as a `.trace` (the
//! shrinker writes one for you), drop it into `traces/`, and this test
//! picks it up — no code changes (see DESIGN.md §7).

use std::path::PathBuf;

use topk_testkit::{replay_or_shrink, Topology, Trace};

fn trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

fn checked_in_traces() -> Vec<(String, Trace)> {
    let mut traces: Vec<(String, Trace)> = std::fs::read_dir(trace_dir())
        .expect("traces/ exists at the workspace root")
        .filter_map(|entry| {
            let path = entry.expect("readable traces/ entry").path();
            if path.extension().is_some_and(|e| e == "trace") {
                let name = path
                    .file_stem()
                    .expect("trace files have a stem")
                    .to_string_lossy()
                    .into_owned();
                let trace =
                    Trace::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                Some((name, trace))
            } else {
                None
            }
        })
        .collect();
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        traces.len() >= 3,
        "expected the checked-in regression traces, found {}",
        traces.len()
    );
    traces
}

#[test]
fn the_expected_regression_traces_are_checked_in() {
    let names: Vec<String> = checked_in_traces().into_iter().map(|(n, _)| n).collect();
    for expected in [
        "cursor_frontier_carry_churn",
        "epst_full_cache_carry",
        "epst_refill_stale_summary",
        "pilot_pull_up_ordering",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing regression trace {expected}; present: {names:?}"
        );
    }
}

#[test]
fn regression_traces_replay_green_on_every_topology() {
    for (name, trace) in checked_in_traces() {
        for topology in Topology::ALL {
            replay_or_shrink(
                &trace,
                topology,
                &format!("{name}-{topology}"),
                &format!("regression trace {name} on {topology}"),
            );
        }
    }
}
