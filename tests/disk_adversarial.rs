//! On-disk adversarial suite: hostile bytes in a durable directory, as
//! `crates/server/tests/adversarial.rs` sends hostile bytes over a socket.
//!
//! A small directory is written through the builder, its files are read
//! back, and every variant below is opened in memory on the testkit's
//! `CrashFs` (the recovery code is the one `StdFs` runs): every bit of
//! `snapshot.topk` and `journal.topk` flipped, each file cut at every
//! byte, and frames with valid checksums that no commit could have
//! written. Each open must return a typed `Storage` error or recover
//! exactly the state the index had at the stamp it reports — never panic,
//! never a silently different answer.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use topk_core::{Point, TopKError, TopKIndex, UpdateBatch};
use topk_testkit::{open_on, scratch_dir, CrashFs, Files};

/// The directory's history: the point set after every stamp it reached.
type History = BTreeMap<u64, Vec<Point>>;

fn sorted(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_unstable_by_key(|p| p.x);
    points
}

/// Write the directory: 36 inserts, a rebuild batch (a snapshot), then
/// point writes and a two-op batch (journal frames, one multi-record).
fn write_dir() -> (Files, History) {
    let dir = scratch_dir("adversarial");
    let index = TopKIndex::builder()
        .durable(&dir)
        .expected_n(64)
        .build()
        .unwrap();
    let point = |i: u64| Point::new(i * 11 + 3, i * 17 + 1);
    let mut history = History::from([(0, Vec::new())]);
    let mut record = |index: &TopKIndex| {
        history.insert(index.version(), sorted(index.all_points()));
    };
    for i in 0..36 {
        index.insert(point(i)).unwrap();
        record(&index);
    }
    let rebuild = UpdateBatch::new()
        .delete(point(0))
        .delete(point(1))
        .insert(point(36))
        .insert(point(37));
    index.apply(&rebuild).unwrap();
    record(&index);
    for i in 38..42 {
        index.insert(point(i)).unwrap();
        record(&index);
    }
    assert!(index.delete(point(2)).unwrap());
    record(&index);
    index
        .apply(&UpdateBatch::new().delete(point(3)).insert(point(42)))
        .unwrap();
    record(&index);
    drop(index);
    let files: Files = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        files["journal.topk"].len() > 4 * 48,
        "the journal holds frames"
    );
    (files, history)
}

/// Open `files`; on success the recovered state must be the one the
/// history recorded at the recovered stamp. Returns whether it opened.
fn open_checked(files: Files, history: &History, what: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        open_on(&CrashFs::new(files)).map(|index| {
            let stamp = index.recovered_stamp().expect("durable");
            (stamp, sorted(index.all_points()))
        })
    }));
    match outcome {
        Err(_) => panic!("opening {what} panicked"),
        Ok(Err(TopKError::Storage { .. })) => false,
        Ok(Err(other)) => panic!("opening {what} failed untyped: {other}"),
        Ok(Ok((stamp, points))) => {
            let Some(want) = history.get(&stamp) else {
                panic!("{what} recovered stamp {stamp}, which the directory never reached");
            };
            assert_eq!(&points, want, "{what} recovered a state it never had");
            true
        }
    }
}

fn with(files: &Files, name: &str, bytes: Vec<u8>) -> Files {
    let mut files = files.clone();
    files.insert(name.to_string(), bytes);
    files
}

#[test]
fn every_flipped_bit_is_a_storage_error_or_a_past_state() {
    let (files, history) = write_dir();
    assert!(open_checked(
        files.clone(),
        &history,
        "the intact directory"
    ));
    for name in ["snapshot.topk", "journal.topk"] {
        let bytes = &files[name];
        let mut opened = 0;
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            opened += usize::from(open_checked(
                with(&files, name, flipped),
                &history,
                &format!("{name} with bit {bit} flipped"),
            ));
        }
        // Every snapshot bit is covered by its checksum; a journal flip
        // loses its frame and the ones after it, no more.
        match name {
            "snapshot.topk" => assert_eq!(opened, 0),
            _ => assert_eq!(opened, 8 * bytes.len()),
        }
    }
}

#[test]
fn every_truncation_is_a_storage_error_or_a_past_state() {
    let (files, history) = write_dir();
    for name in ["snapshot.topk", "journal.topk"] {
        let bytes = &files[name];
        for len in 0..bytes.len() {
            open_checked(
                with(&files, name, bytes[..len].to_vec()),
                &history,
                &format!("{name} cut to {len} bytes"),
            );
        }
    }
    // A missing journal is an empty one: the snapshot's state.
    let mut no_journal = files.clone();
    no_journal.remove("journal.topk");
    assert!(open_checked(
        no_journal,
        &history,
        "the directory without its journal"
    ));
}

/// A frame with a valid checksum: `[n, (op, x, score, stamp) × n, fnv]`.
fn frame(records: &[[u64; 4]]) -> Vec<u8> {
    let mut words = vec![records.len() as u64];
    words.extend(records.iter().flatten());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    words.push(h);
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn crafted_frames_no_commit_could_write_are_storage_errors() {
    let (files, history) = write_dir();
    let last = *history.keys().last().unwrap();
    let live = history[&last][0];
    let fresh = 1 << 40;
    for (what, record) in [
        ("an unknown op code", [7, fresh, fresh, last + 1]),
        ("a duplicate score", [1, fresh, live.score, last + 1]),
        ("a duplicate coordinate", [1, live.x, fresh, last + 1]),
        (
            "a delete of a point never stored",
            [2, fresh, fresh, last + 1],
        ),
        ("a stamp that goes backwards", [1, fresh, fresh, 1]),
    ] {
        let mut journal = files["journal.topk"].clone();
        journal.extend(frame(&[record]));
        assert!(
            !open_checked(with(&files, "journal.topk", journal), &history, what),
            "a frame with {what} was accepted"
        );
    }
    // The same frame format with a legal record is accepted.
    let mut journal = files["journal.topk"].clone();
    journal.extend(frame(&[[1, fresh, fresh, last + 1]]));
    let index = open_on(&CrashFs::new(with(&files, "journal.topk", journal))).unwrap();
    assert_eq!(index.recovered_stamp(), Some(last + 1));
    assert_eq!(index.get(fresh), Some(Point::new(fresh, fresh)));
}
