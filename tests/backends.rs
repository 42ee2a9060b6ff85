//! Contract tests of the durable plane.
//!
//! Durability sits beside the cost model: an identical logical operation
//! sequence must produce identical answers on a RAM-only and a durable
//! index, the simulated I/O counters must stay within a constant factor of
//! each other, and during serving the directory is write-only — files are
//! read at recovery only. Plus the snapshot/restore round-trip across all
//! five workload distributions, a steady churn whose directory must stay
//! proportional to its live set, and the reopen of the page-image
//! directories checked in under `tests/fixtures/`.

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::{Point, TopK, TopKIndex};
use topk_testkit::{
    generate, replay, replay_durable, scratch_dir, Topology, TraceSpec, DISTRIBUTIONS,
};
use workload::{PointDistribution, PointGen};

fn build_ram(device: &Device, expected_n: usize) -> TopKIndex {
    TopKIndex::builder()
        .device(device)
        .expected_n(expected_n)
        .build()
        .unwrap()
}

fn build_file(dir: &std::path::Path, expected_n: usize) -> TopKIndex {
    TopKIndex::builder()
        .durable(dir)
        .expected_n(expected_n)
        .build()
        .unwrap()
}

#[test]
fn ram_and_file_backends_agree_on_every_answer() {
    let ram_device = Device::new(EmConfig::new(256, 256 * 64));
    let ram = build_ram(&ram_device, 600);
    let dir = scratch_dir("contract");
    let file = build_file(&dir, 600);

    let points = PointGen {
        distribution: PointDistribution::Uniform,
        seed: 0xBACC_0001,
    }
    .generate(600);
    for (i, p) in points.iter().enumerate() {
        ram.insert(*p).unwrap();
        file.insert(*p).unwrap();
        if i % 3 == 2 {
            let victim = points[i - 2];
            assert!(ram.delete(victim).unwrap());
            assert!(file.delete(victim).unwrap());
        }
    }
    assert_eq!(ram.len(), file.len());

    let x_max = points.iter().map(|p| p.x).max().unwrap() + 2;
    let mut rng = StdRng::seed_from_u64(0xBACC_0002);
    for _ in 0..32 {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        let k = [1usize, 4, 17, 64, 300][rng.gen_range(0usize..5)];
        assert_eq!(
            ram.query(a, b, k).unwrap(),
            file.query(a, b, k).unwrap(),
            "top-{k} over [{a}, {b}] depends on the backend"
        );
    }

    // The cost model must not drift across media: the journal adds pool
    // traffic but stays within a constant factor.
    let sim_ram = ram_device.stats();
    let sim_file = file.device().stats();
    assert!(
        sim_file.reads <= 4 * sim_ram.reads + 64,
        "file-backend simulated reads blew past the RAM baseline: {} vs {}",
        sim_file.reads,
        sim_ram.reads
    );
    // During serving the directory is write-only — every read is served
    // from the typed pool above it.
    let ds = file.device().durable_stats();
    assert_eq!(ds.preads, 0, "serving must not read the directory");
    assert!(ds.commits > 0 && ds.pwrites > 0);
    drop(file);

    // Recovery reads the snapshot and the journal once each, never more
    // than a constant per recovered record.
    let reopened = build_file(&dir, 600);
    let ds = reopened.device().durable_stats();
    assert!(ds.preads > 0, "recovery must read the data file");
    assert!(
        ds.preads <= 2 * ds.recovered_pages + 16,
        "unbounded physical reads at recovery: {} preads for {} pages",
        ds.preads,
        ds.recovered_pages
    );
    assert_eq!(reopened.len(), ram.len());
    for _ in 0..8 {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        assert_eq!(
            ram.query(a, b, 25).unwrap(),
            reopened.query(a, b, 25).unwrap()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generated_traces_replay_clean_over_the_file_backend() {
    // The same spec-checked differential replay CI runs on the RAM
    // topologies, over a journaling index: every answer (queries, cursor
    // pages, batch commits) checked against the sequential spec.
    let spec = TraceSpec {
        preload: 256,
        ops: 160,
        ..TraceSpec::new(PointDistribution::Clustered, 29)
    };
    let trace = generate(&spec);
    let ram = replay(&trace, Topology(1)).unwrap_or_else(|d| panic!("{d}"));
    let dir = scratch_dir("replay");
    let file = replay_durable(&trace, &dir).unwrap_or_else(|d| panic!("{d}"));
    // Identical logical sequence: both replays apply and check the same ops.
    assert_eq!(ram.applied, file.applied);
    assert_eq!(ram.skipped, file.skipped);
    assert_eq!(ram.checked_answers, file.checked_answers);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_restore_round_trips_across_every_distribution() {
    for (i, distribution) in DISTRIBUTIONS.into_iter().enumerate() {
        let source = TopK::builder().expected_n(300).build_auto().unwrap();
        let points = PointGen {
            distribution,
            seed: 0x5AAB + i as u64,
        }
        .generate(240);
        for p in &points {
            source.insert(*p).unwrap();
        }
        // Age the set a little so the snapshot is not just the insert log.
        for p in points.iter().step_by(4) {
            assert!(source.delete(*p).unwrap());
        }

        let dir = scratch_dir(&format!("snap-{i}"));
        let snapped = source.snapshot_to(&dir).unwrap();
        assert_eq!(snapped, source.len());

        let restored = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        assert_eq!(restored.len(), source.len(), "{distribution:?}");
        let mut got = restored.all_points();
        got.sort_by_key(|p| p.x);
        let mut want = source.all_points();
        want.sort_by_key(|p| p.x);
        assert_eq!(got, want, "{distribution:?} point set mutated in transit");

        let x_max = points.iter().map(|p| p.x).max().unwrap() + 2;
        let mut rng = StdRng::seed_from_u64(0x5AAB ^ i as u64);
        for _ in 0..12 {
            let a = rng.gen_range(0..x_max);
            let b = rng.gen_range(a..=x_max);
            let k = [1usize, 8, 40, 240][rng.gen_range(0usize..4)];
            assert_eq!(
                source.query(a, b, k).unwrap(),
                restored.query(a, b, k).unwrap(),
                "{distribution:?}: top-{k} over [{a}, {b}] diverges after restore"
            );
        }
        // A restored index keeps journaling: one more durable write survives
        // another reopen.
        let extra = Point::new(x_max + 10, u64::MAX - 3);
        restored.insert(extra).unwrap();
        drop(restored);
        let again = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        assert_eq!(again.len(), source.len() + 1, "{distribution:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn snapshot_stamp_never_goes_backwards() {
    // A directory that already lived through many commits holds a high
    // version stamp; snapshotting a young index into it must not rewind the
    // stamp (strict-cursor and crash-window comparisons rely on monotony).
    let dir = scratch_dir("snap-stamp");
    {
        let old = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        for i in 0..60u64 {
            old.insert(Point::new(i, i + 1)).unwrap();
        }
    }
    let prior = {
        let reopened = TopK::builder()
            .durable(&dir)
            .expected_n(300)
            .build_auto()
            .unwrap();
        reopened.recovered_stamp().unwrap()
    };
    assert!(prior >= 60, "60 committed inserts must stamp at least 60");

    let young = TopK::builder().expected_n(64).build_auto().unwrap();
    for i in 0..3u64 {
        young.insert(Point::new(1000 + i, i + 1)).unwrap();
    }
    assert_eq!(young.snapshot_to(&dir).unwrap(), 3);

    let restored = TopK::builder()
        .durable(&dir)
        .expected_n(300)
        .build_auto()
        .unwrap();
    assert_eq!(restored.len(), 3, "the snapshot replaces the old contents");
    assert!(
        restored.recovered_stamp().unwrap() >= prior,
        "snapshot rewound the version stamp: {} < {prior}",
        restored.recovered_stamp().unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_into_own_directory_is_refused() {
    // The index's own directory is locked while the handle is alive, so the
    // self-snapshot footgun (recovery + WAL truncation racing the live
    // backend) fails fast instead of corrupting committed state.
    let dir = scratch_dir("snap-self");
    let index = TopK::builder()
        .durable(&dir)
        .expected_n(64)
        .build_auto()
        .unwrap();
    index.insert(Point::new(7, 7)).unwrap();
    let err = index.snapshot_to(&dir).unwrap_err();
    assert!(
        err.to_string().contains("lock.topk"),
        "self-snapshot must trip the directory lock, got: {err}"
    );
    // The live handle is unharmed.
    index.insert(Point::new(8, 8)).unwrap();
    assert_eq!(index.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_build_auto_is_one_shard_that_resumes_its_stamp() {
    // A durable device has one journal, so `build_auto` serves it as a
    // one-shard `ShardedTopK` whatever the expected size; reopening reports
    // the recovered stamp and resumes the commit stamp from it, so stamps
    // never go backwards across a restart.
    let dir = scratch_dir("one-shard");
    let open = || {
        TopK::builder()
            .durable(&dir)
            .expected_n(1 << 20)
            .build_auto()
            .unwrap()
    };
    let last_stamp = {
        let handle = open();
        assert_eq!(handle.shard_count(), 1);
        assert_eq!(handle.recovered_stamp(), Some(0));
        for i in 0..40u64 {
            handle.insert(Point::new(i * 5 + 1, i * 11 + 3)).unwrap();
        }
        assert!(handle.delete(Point::new(1, 3)).unwrap());
        let stamp = handle.read().version();
        stamp
    };
    let handle = open();
    assert_eq!(handle.shard_count(), 1);
    let recovered = handle.recovered_stamp().unwrap();
    assert!(
        recovered >= 41,
        "41 committed writes, recovered stamp {recovered}"
    );
    assert!(handle.read().version() >= recovered.max(last_stamp));
    assert_eq!(handle.len(), 39);
    assert_eq!(
        handle.query(0, u64::MAX, 1).unwrap(),
        vec![Point::new(196, 432)]
    );
    // The recovered contents seed the shard's bookkeeping: a duplicate score
    // from before the restart is still rejected.
    assert!(handle.insert(Point::new(10_000, 14)).is_err());
    handle.check_invariants();
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_one_shard_rebuild_batches_survive_reopen() {
    // A batch of at least n/16 ops commits as one shard rebuild; on a
    // durable handle that rebuild must reach the journal like a point-wise
    // commit does, and both must survive a drop and reopen intact.
    let dir = scratch_dir("one-shard-batch");
    let open = || {
        TopK::builder()
            .durable(&dir)
            .expected_n(512)
            .build_auto()
            .unwrap()
    };
    let points = PointGen {
        distribution: PointDistribution::Uniform,
        seed: 0xB47C,
    }
    .generate(400);
    let (preload, fresh) = points.split_at(200);
    let mut want: Vec<Point> = {
        let handle = open();
        handle.bulk_build(preload).unwrap();
        // 96 ops against 200 live points: well past the n/16 crossover.
        let mut big = topk_core::UpdateBatch::new();
        for (victim, p) in preload.iter().zip(fresh).take(48) {
            big = big.delete(*victim).insert(*p);
        }
        let summary = handle.apply(&big).unwrap();
        assert_eq!((summary.inserted, summary.deleted), (48, 48));
        // And a small point-wise batch on top.
        let small = topk_core::UpdateBatch::new()
            .delete(preload[100])
            .insert(fresh[100]);
        handle.apply(&small).unwrap();
        let mut live = handle.all_points();
        live.sort_by_key(|p| p.x);
        live
    };
    want.sort_by_key(|p| p.x);
    let handle = open();
    let mut got = handle.all_points();
    got.sort_by_key(|p| p.x);
    assert_eq!(got, want, "a committed batch did not survive the reopen");
    assert_eq!(handle.len(), 200);
    handle.check_invariants();
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn steady_churn_keeps_the_directory_within_a_multiple_of_the_live_set() {
    // 200 live points and 3,000 delete+insert writes at steady n: the size
    // drift never triggers a global rebuild, so only the journal's own
    // compaction keeps the directory bounded. Each record is 32 bytes and a
    // compaction runs past max(4 n, 256) records, so the directory stays
    // within about 13 snapshots of the live set (16 bytes a point).
    let dir = scratch_dir("churn");
    let handle = TopK::builder()
        .durable(&dir)
        .expected_n(256)
        .build_auto()
        .unwrap();
    let point = |i: u64| Point::new(i * 7 + 1, i * 13 + 5);
    for i in 0..200u64 {
        handle.insert(point(i)).unwrap();
    }
    let dir_bytes = || -> u64 {
        std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum()
    };
    let snapshot_bytes = 8 * (5 + 2 * 200);
    let mut peak = 0;
    for i in 200..3_200u64 {
        assert!(handle.delete(point(i - 200)).unwrap());
        handle.insert(point(i)).unwrap();
        peak = peak.max(dir_bytes());
    }
    assert_eq!(handle.len(), 200);
    assert!(
        peak <= 16 * snapshot_bytes,
        "the directory grew to {peak} bytes over a {snapshot_bytes}-byte live set"
    );
    assert!(handle.device().durable_stats().checkpoints >= 5);
    drop(handle);
    let reopened = TopK::builder().durable(&dir).build_auto().unwrap();
    assert_eq!(reopened.len(), 200);
    let last = point(3_199);
    assert_eq!(reopened.query(last.x, last.x, 1).unwrap(), vec![last]);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// Copy the checked-in directory `tests/fixtures/<name>/` to a scratch
/// directory (opening converts it) and return the copy.
fn fixture_copy(name: &str) -> std::path::PathBuf {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let dir = scratch_dir(name);
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

/// The points of the checked-in directory `tests/fixtures/durable_wal_25/`.
fn wal_fixture_point(i: u64) -> Point {
    Point::new((i * 613) % 1_009 + 1, (i * 7_727) % 10_007 + 1)
}

#[test]
fn a_directory_left_with_committed_log_batches_converts_unchanged() {
    // `tests/fixtures/durable_wal_25/` was written by the page-image format
    // (`meta.topk`, `data.topk`, `wal.topk`) and dropped without a reopen,
    // the state every server of that format left behind: its log still
    // holds the 40 committed batches since the directory was created.
    // `TopK::builder().durable(dir).build_auto()`, then inserts of
    // `wal_fixture_point(i)` for i in 0..30, each fifth followed by the
    // delete of `wal_fixture_point(i - 3)`; the batch {delete 0, insert 30,
    // insert 31} (a rebuild), insert 32, delete 2, and the batch {insert
    // 33, delete 5} (a rebuild). Contents, stamp and answers below are what
    // that index reported before it was dropped.
    let dir = fixture_copy("durable_wal_25");
    let open = || TopK::builder().durable(&dir).build_auto().unwrap();
    let handle = open();
    assert_eq!(handle.len(), 25);
    assert_eq!(handle.recovered_stamp(), Some(40));
    let mut got = handle.all_points();
    got.sort_unstable_by_key(|p| p.x);
    let mut want: Vec<Point> = (0..34u64)
        .filter(|i| ![0, 1, 2, 5, 6, 11, 16, 21, 26].contains(i))
        .map(wal_fixture_point)
        .collect();
    want.sort_unstable_by_key(|p| p.x);
    assert_eq!(got, want);
    let points = |v: &[(u64, u64)]| -> Vec<Point> {
        v.iter().map(|&(x, score)| Point::new(x, score)).collect()
    };
    let recorded = [
        (
            (0, u64::MAX, 5),
            points(&[
                (370, 9883),
                (473, 9502),
                (842, 9377),
                (945, 8996),
                (408, 8490),
            ]),
        ),
        (
            (100, 600, 4),
            points(&[(370, 9883), (473, 9502), (408, 8490), (511, 8109)]),
        ),
        (
            (500, 1_009, 3),
            points(&[(842, 9377), (945, 8996), (511, 8109)]),
        ),
        ((0, 50, 2), points(&[(12, 6210), (50, 4817)])),
    ];
    for ((x1, x2, k), answer) in &recorded {
        assert_eq!(
            handle.query(*x1, *x2, *k).unwrap(),
            *answer,
            "top-{k} over [{x1}, {x2}]"
        );
    }
    assert_eq!(handle.count_in_range(100, 600).unwrap(), 15);
    // The conversion replaced the page-image files by the journal's.
    for old in ["meta.topk", "data.topk", "wal.topk"] {
        assert!(!dir.join(old).exists(), "{old} survived the conversion");
    }
    assert!(dir.join("snapshot.topk").exists());
    handle.insert(Point::new(2_000, 20_000)).unwrap();
    drop(handle);
    let handle = open();
    assert_eq!(handle.len(), 26);
    assert_eq!(handle.recovered_stamp(), Some(41));
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The points of the checked-in directory `tests/fixtures/durable_240/`.
fn fixture_point(i: u64) -> Point {
    Point::new((i * 7_919) % 3_001 + 1, (i * 104_729) % 100_003 + 1)
}

#[test]
fn a_directory_written_before_the_pilot_only_index_reopens_unchanged() {
    // `tests/fixtures/durable_240/` was written by the index that still kept
    // a 3-sided reporter beside the pilot structure on every write:
    // `TopK::builder().durable(dir).build_auto()`, 300 inserts of
    // `fixture_point(i)`, each fifth followed by the delete of
    // `fixture_point(i - 4)`, then one reopen, which checkpointed the
    // write-ahead log into `data.topk`. The journal records points, so the
    // pilot-only index must recover the same contents, stamp and answers
    // that version recorded on reopening it.
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable_240");
    // Opening may compact the journal: work on a copy.
    let dir = scratch_dir("fixture");
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let open = || TopK::builder().durable(&dir).build_auto().unwrap();
    let handle = open();
    assert_eq!(handle.len(), 240);
    assert_eq!(handle.recovered_stamp(), Some(361));
    let mut got = handle.all_points();
    got.sort_unstable_by_key(|p| p.x);
    let mut want: Vec<Point> = (0..300u64)
        .filter(|i| i % 5 != 0)
        .map(fixture_point)
        .collect();
    want.sort_unstable_by_key(|p| p.x);
    assert_eq!(got, want);
    let points = |v: &[(u64, u64)]| -> Vec<Point> {
        v.iter().map(|&(x, score)| Point::new(x, score)).collect()
    };
    let recorded = [
        (
            (0, u64::MAX, 5),
            points(&[
                (1623, 99431),
                (1245, 99247),
                (244, 98858),
                (2867, 98674),
                (2489, 98490),
            ]),
        ),
        (
            (500, 2_000, 10),
            points(&[
                (1623, 99431),
                (1245, 99247),
                (732, 97733),
                (1976, 96976),
                (597, 96403),
                (1841, 95646),
                (1463, 95462),
                (950, 93948),
                (572, 93764),
                (1816, 93007),
            ]),
        ),
        (
            (1_000, 1_100, 3),
            points(&[(1008, 86194), (1041, 75801), (1099, 68047)]),
        ),
        ((2_990, 3_001, 4), points(&[(2991, 70134), (2994, 13033)])),
    ];
    for ((x1, x2, k), answer) in &recorded {
        assert_eq!(
            handle.query(*x1, *x2, *k).unwrap(),
            *answer,
            "top-{k} over [{x1}, {x2}]"
        );
    }
    assert_eq!(handle.count_in_range(500, 2_000).unwrap(), 120);
    // The reopened index keeps journalling on top of the old records.
    handle.insert(Point::new(3_500, 100_500)).unwrap();
    assert!(handle.delete(fixture_point(1)).unwrap());
    drop(handle);
    let handle = open();
    assert_eq!(handle.len(), 240);
    assert_eq!(handle.recovered_stamp(), Some(363));
    assert_eq!(
        handle.query(3_000, u64::MAX, 2).unwrap(),
        vec![Point::new(3_500, 100_500)]
    );
    handle.check_invariants();
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}
