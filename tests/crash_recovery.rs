//! The crash-recovery matrix: seeded write streams against a durable index
//! on the testkit's `CrashFs`, a crash at every boundary between two file
//! calls under all four policies for the unsynced ones, and a differential
//! check of every recovery (`topk_testkit::crash`). Plus the conversion of
//! the checked-in page-image directories under the same enumeration, and a
//! medium that dies under cache maintenance.

use std::sync::Arc;

use emsim::{Device, EmConfig};
use topk_core::{Point, TopKConfig, TopKError, TopKIndex};
use topk_testkit::{
    conversion_crash_check, crash_recovery_check, open_on, CrashFs, CrashReport, CrashSpec, Files,
    Policy, Seed, DISTRIBUTIONS,
};

/// Every boundary was tried under every policy, and the run crossed both
/// kinds of commit point: journal frames and snapshot compactions.
fn assert_covered(report: &CrashReport, spec: &CrashSpec) {
    eprintln!(
        "{spec:?}: {} calls, {} crash states, {} distinct, final stamp {}",
        report.syscalls,
        report.outcomes.len(),
        report.states,
        report.final_stamp
    );
    assert_eq!(
        report.outcomes.len(),
        (report.syscalls + 1) * Policy::ALL.len()
    );
    for policy in Policy::ALL {
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.policy == policy && o.in_flight.is_some() && o.recovered > o.last_ok),
            "{policy:?} never kept an in-flight op ({spec:?})"
        );
    }
    assert!(report
        .outcomes
        .iter()
        .any(|o| o.batch && !o.past_commit_point && o.in_flight.is_some()));
}

#[test]
fn kill_matrix_seeds_by_phases() {
    for seed in [101u64, 202, 303] {
        let spec = CrashSpec::new(seed);
        let report = crash_recovery_check(&spec);
        assert_covered(&report, &spec);
    }
}

/// The CI matrix hook: `TOPK_SEED` (one seed per matrix leg) drives the
/// enumeration over every distribution, so each CI run covers fresh op
/// streams while any failure reproduces from the printed seed line.
#[test]
fn kill_matrix_env_seeded_phase_sweep() {
    let seed = Seed::from_env(77);
    eprintln!("{}", seed.repro("crash_recovery"));
    for (salt, distribution) in DISTRIBUTIONS.into_iter().enumerate() {
        let spec = CrashSpec {
            distribution,
            ..CrashSpec::new(seed.derive(salt as u64))
        };
        let report = crash_recovery_check(&spec);
        assert_covered(&report, &spec);
    }
}

#[test]
fn mid_apply_kills_recover_the_full_batch() {
    for seed in [404u64, 505, 606] {
        let spec = CrashSpec::new(seed);
        let report = crash_recovery_check(&spec);
        // A batch whose frame or snapshot is durable recovers whole under
        // every policy: the commit point lands exactly on the wedged stamp.
        let past: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.batch && o.past_commit_point)
            .collect();
        assert!(!past.is_empty(), "{spec:?}");
        assert!(past.iter().all(|o| o.recovered == o.wedged), "{spec:?}");
    }
}

#[test]
fn flush_and_drop_cache_interleave_safely_under_faults() {
    let fs = CrashFs::default();
    let device = Device::new(EmConfig::new(64, 64 * 64));
    let index =
        TopKIndex::open_durable(Arc::new(fs.clone()), &device, TopKConfig::for_tests()).unwrap();
    // Cache maintenance is the simulator's business alone: interleaving it
    // with committed writes neither loses nor reorders a journal frame.
    for i in 1..=40u64 {
        index.insert(Point::new(i, i * 3)).unwrap();
        if i % 10 == 0 {
            device.drop_cache();
        }
        if i % 16 == 0 {
            device.flush();
        }
    }
    let committed = fs.log_len();
    let committed_len = index.len();

    // The medium dies: the next write fails, and so does every later one
    // with the same error, while reads keep serving from the pool.
    fs.sever();
    device.drop_cache();
    device.flush();
    let Err(TopKError::Storage { what }) = index.insert(Point::new(1000, 1000)) else {
        panic!("a write on a dead medium must fail with Storage");
    };
    assert!(matches!(
        index.delete(Point::new(1, 3)),
        Err(TopKError::Storage { what: again }) if again == what
    ));
    assert_eq!(index.query(0, 100, 1).unwrap(), vec![Point::new(40, 120)]);
    drop(index);

    for policy in Policy::ALL {
        let state = fs.crash_state(committed, policy, 7);
        let recovered = open_on(&CrashFs::new(state)).unwrap();
        assert_eq!(
            recovered.len(),
            committed_len,
            "{policy:?}: committed ops were lost"
        );
        for i in 1..=40u64 {
            assert_eq!(recovered.get(i), Some(Point::new(i, i * 3)));
        }
        assert_eq!(
            recovered.get(1000),
            None,
            "{policy:?}: failed insert resurrected"
        );
    }
}

fn fixture(name: &str) -> Files {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

#[test]
fn page_image_conversions_recover_at_every_boundary() {
    // The two checked-in page-image directories (see `tests/backends.rs`
    // for how each was written): whatever call of its conversion a crash
    // hits, reopening recovers the recorded contents and stamp.
    let wal_tail: Vec<Point> = (0..34u64)
        .filter(|i| ![0, 1, 2, 5, 6, 11, 16, 21, 26].contains(i))
        .map(|i| Point::new((i * 613) % 1_009 + 1, (i * 7_727) % 10_007 + 1))
        .collect();
    let states = conversion_crash_check(fixture("durable_wal_25"), &wal_tail, 40);
    assert!(states > 4, "{states} distinct crash states");
    let durable_240: Vec<Point> = (0..300u64)
        .filter(|i| i % 5 != 0)
        .map(|i| Point::new((i * 7_919) % 3_001 + 1, (i * 104_729) % 100_003 + 1))
        .collect();
    let states = conversion_crash_check(fixture("durable_240"), &durable_240, 361);
    assert!(states > 4, "{states} distinct crash states");
}
