//! Mutation-testing the checker and the shrinker: a deliberately injected
//! ordering bug (`topk_testkit::fault`, which transposes the answers the
//! harness receives) must be **caught** by the differential replayer and
//! the history checker, and **shrunk** to a replayable `.trace` of at most
//! 20 ops. A checker that cannot catch a planted bug verifies nothing.
//!
//! The injection flag is process-global, so all phases run inside one
//! `#[test]` in its own integration-test binary — no parallel test can
//! observe the mutated answers.

use topk_testkit::fault;
use topk_testkit::{
    check, generate, replay, shrink_to_file, Recorder, Seed, Topology, Trace, TraceSpec,
};
use workload::PointDistribution;

/// Keeps the global flag from leaking if an assertion fails mid-test.
struct InjectionGuard;

impl Drop for InjectionGuard {
    fn drop(&mut self) {
        fault::inject_ordering_bug(false);
    }
}

#[test]
fn injected_ordering_bug_is_caught_and_shrunk() {
    let _guard = InjectionGuard;
    replayer_catches_and_shrinks_the_bug();
    history_checker_catches_the_bug();
}

fn replayer_catches_and_shrinks_the_bug() {
    let seed = Seed::from_env(0xB06);
    let spec = TraceSpec {
        preload: 64,
        ops: 48,
        ..TraceSpec::new(PointDistribution::Uniform, seed.derive(1))
    };
    let trace = generate(&spec);
    let context = seed.repro("mutation");

    // Sanity: the healthy engine replays the trace clean.
    fault::inject_ordering_bug(false);
    for topology in [Topology(1), Topology(4)] {
        replay(&trace, topology)
            .unwrap_or_else(|d| panic!("healthy engine diverged: {d}; {context}"));
    }

    fault::inject_ordering_bug(true);
    for topology in [Topology(1), Topology(4)] {
        // Caught: the differential replayer must notice the transposition.
        assert!(
            replay(&trace, topology).is_err(),
            "{topology}: the checker missed the injected ordering bug; {context}"
        );

        // Shrunk: to a replayable minimal trace of ≤ 20 ops.
        let name = format!("mutation-{topology}");
        let report = shrink_to_file(&trace, topology, &name)
            .unwrap_or_else(|| panic!("{topology}: failure vanished while shrinking; {context}"));
        assert!(
            report.trace.len() <= 20,
            "{topology}: shrunk trace still has {} ops; {context}",
            report.trace.len()
        );
        assert!(report.path.exists(), "{topology}: repro file not written");
        assert!(report.repro.contains("--example replay"));

        // Replayable: the written file parses back and still fails under
        // the mutation, then passes once the bug is lifted.
        let minimal = Trace::load(&report.path)
            .unwrap_or_else(|e| panic!("{topology}: repro file unreadable: {e}"));
        assert_eq!(minimal, report.trace, "{topology}: repro file round trip");
        assert!(
            replay(&minimal, topology).is_err(),
            "{topology}: minimal trace no longer reproduces; {context}"
        );
        fault::inject_ordering_bug(false);
        replay(&minimal, topology)
            .unwrap_or_else(|d| panic!("{topology}: healthy engine fails the repro: {d}"));
        fault::inject_ordering_bug(true);
    }
    fault::inject_ordering_bug(false);
}

fn history_checker_catches_the_bug() {
    let preload: Vec<_> = (0..64u64)
        .map(|i| epst::Point::new(i * 3 + 1, i * 7 + 5))
        .collect();
    let (_device, handle) = Topology(1).build(128);
    let recorder = Recorder::new(handle, &preload).unwrap();
    fault::inject_ordering_bug(true);
    recorder.query(0, u64::MAX, 5).unwrap();
    recorder.insert(epst::Point::new(9_000, 90_000)).unwrap();
    recorder.query(0, u64::MAX, 5).unwrap();
    fault::inject_ordering_bug(false);
    let history = recorder.into_history();
    let violation = check(&history).expect_err("the history checker missed the ordering bug");
    assert!(violation.detail.contains("matches no committed version"));
}
