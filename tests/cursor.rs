//! Acceptance tests for the owned cursor read plane: resume equivalence
//! against the `NaiveTopK` oracle across every cursor source (a bare
//! `Arc<TopKIndex>`, and `TopK` handles at 1, 4 and 16 shards) and every
//! `workload::PointGen` distribution, plus the strict-mode invalidation
//! contract with an interleaved writer.
//!
//! The core property under test is the paper's threshold-set guarantee made
//! operational: a cursor position is fully described by `(emitted count,
//! low-water mark)`, so dropping a cursor mid-stream and rebuilding it from
//! its serialized `ResumeToken` — even "in another process", i.e. through
//! the token's string form — must concatenate to exactly the one-shot
//! answer on a quiescent index.

use std::sync::Arc;

use baselines::NaiveTopK;
use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk::{
    Consistency, Point, QueryCursor, QueryRequest, RankedIndex, ResumeToken, ShardedTopK, TopK,
    TopKError, TopKIndex,
};
use topk_testkit::Seed;
use workload::{PointDistribution, PointGen};

const N: usize = 1500;

fn device() -> Device {
    Device::new(EmConfig::new(256, 256 * 256))
}

/// A cursor source under test: a bare index, whose cursors come from
/// `TopKIndex::cursor`, or a `TopK` handle. Both answer the rest of the
/// API through `RankedIndex`.
enum Source {
    Bare(Arc<TopKIndex>),
    Handle(TopK),
}

impl Source {
    fn cursor(&self, request: QueryRequest) -> Result<QueryCursor, TopKError> {
        match self {
            Source::Bare(index) => Arc::clone(index).cursor(request),
            Source::Handle(handle) => handle.cursor(request),
        }
    }
}

impl std::ops::Deref for Source {
    type Target = dyn RankedIndex;

    fn deref(&self) -> &Self::Target {
        match self {
            Source::Bare(index) => &**index,
            Source::Handle(handle) => handle,
        }
    }
}

/// Every cursor source, on its own device: a bare index, the `build_auto`
/// default for this size (one shard), and handles at 1, 4 and 16 shards.
fn topologies() -> Vec<(String, Device, Source)> {
    let mut out = Vec::new();
    let dev = device();
    let index = TopKIndex::builder()
        .device(&dev)
        .expected_n(N)
        .build()
        .unwrap();
    out.push(("bare".to_string(), dev, Source::Bare(Arc::new(index))));
    let dev = device();
    let handle = TopK::builder()
        .device(&dev)
        .expected_n(N)
        .build_auto()
        .unwrap();
    out.push(("auto".to_string(), dev, Source::Handle(handle)));
    for shards in [1usize, 4, 16] {
        let dev = device();
        let handle = TopK::builder()
            .device(&dev)
            .expected_n(N)
            .shards(shards)
            .build_auto()
            .unwrap();
        out.push((format!("sharded-{shards}"), dev, Source::Handle(handle)));
    }
    out
}

/// Consume `pages` batches, cut a token, drop the cursor, resume through the
/// token's *string* form (the process boundary), and return the
/// concatenation of everything emitted before and after the resume.
fn paginate_with_resume(
    handle: &Source,
    request: QueryRequest,
    pages: usize,
) -> Result<Vec<Point>, TopKError> {
    let mut cursor = handle.cursor(request)?;
    let mut got = Vec::new();
    for _ in 0..pages {
        let batch = cursor.next_batch()?;
        if batch.is_empty() {
            break;
        }
        got.extend(batch);
    }
    let wire = cursor.token().to_string();
    drop(cursor);
    let token: ResumeToken = wire.parse()?;
    assert_eq!(token.emitted(), got.len());
    let resumed = handle.cursor(QueryRequest::after(&token))?;
    for point in resumed {
        got.push(point?);
    }
    Ok(got)
}

#[test]
fn resumed_cursors_concatenate_to_the_one_shot_answer() {
    let distributions = [
        PointDistribution::Uniform,
        PointDistribution::Correlated,
        PointDistribution::AntiCorrelated,
        PointDistribution::SortedInsertions,
        PointDistribution::Clustered,
    ];
    for (d, distribution) in distributions.into_iter().enumerate() {
        let pts = PointGen {
            distribution,
            seed: 0xC0FFEE ^ d as u64,
        }
        .generate(N);
        let x_max = pts.iter().map(|p| p.x).max().unwrap();
        // The NaiveTopK oracle on its own device (the acceptance baseline).
        let oracle_dev = device();
        let oracle = NaiveTopK::new(&oracle_dev, "oracle");
        oracle.bulk_build(&pts).unwrap();
        for (name, _dev, handle) in topologies() {
            handle.bulk_build(&pts).unwrap();
            for (x1, x2, k, page, pages) in [
                (0u64, x_max, 300usize, 32usize, 3usize),
                (x_max / 4, x_max / 2, 50, 7, 2),
                (0, x_max / 3, 2000, 128, 1),
                (x_max / 2, x_max / 2 + 100, 10, 3, 1),
            ] {
                let request = QueryRequest::range(x1, x2).top(k).page_size(page);
                let got = paginate_with_resume(&handle, request, pages).unwrap();
                let expect = oracle.query(x1, x2, k).unwrap();
                assert_eq!(got, expect, "{distribution:?}/{name} [{x1},{x2}] k={k}");
            }
        }
    }
}

#[test]
fn resume_tokens_cut_before_any_batch_or_at_exhaustion_behave() {
    let pts = PointGen::uniform(11).generate(400);
    for (name, _dev, handle) in topologies() {
        handle.bulk_build(&pts).unwrap();
        // Token cut before the first batch resumes from the top.
        let cursor = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(25))
            .unwrap();
        let token = cursor.token();
        drop(cursor);
        let got: Vec<Point> = handle
            .cursor(QueryRequest::after(&token))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, handle.query(0, u64::MAX, 25).unwrap(), "{name}");
        // Token cut at exhaustion resumes to an immediately-done cursor.
        let mut cursor = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(25))
            .unwrap();
        while !cursor.next_batch().unwrap().is_empty() {}
        let token = cursor.token();
        assert_eq!(token.emitted(), 25);
        let mut resumed = handle.cursor(QueryRequest::after(&token)).unwrap();
        assert!(resumed.next_batch().unwrap().is_empty(), "{name}");
        assert!(resumed.is_done());
    }
}

#[test]
fn strict_cursors_fail_over_an_interleaved_writer_and_per_round_continues() {
    let pts = PointGen::uniform(23).generate(N);
    let writer_stream: Vec<Point> = (0..64u64)
        .map(|i| Point::new(20_000_000 + i * 3, 20_000_000 + i * 7))
        .collect();
    for (name, _dev, handle) in topologies() {
        handle.bulk_build(&pts).unwrap();
        let strict = QueryRequest::range(0, u64::MAX)
            .top(200)
            .page_size(20)
            .consistency(Consistency::Strict);

        // Quiescent: strict pagination (with a token round-trip) succeeds.
        let got = paginate_with_resume(&handle, strict.clone(), 2).unwrap();
        assert_eq!(got, handle.query(0, u64::MAX, 200).unwrap(), "{name}");

        // Interleaved writer: the very next strict round must surface
        // SnapshotInvalidated, and a PerRound cursor resumed from the fused
        // cursor's token must finish against the new state.
        let mut cursor = handle.cursor(strict.clone()).unwrap();
        let first = cursor.next_batch().unwrap();
        assert_eq!(first.len(), 20);
        handle.insert(writer_stream[0]).unwrap();
        let err = cursor.next_batch().unwrap_err();
        assert!(
            matches!(err, TopKError::SnapshotInvalidated { .. }),
            "{name}: {err:?}"
        );
        let token = cursor.token();
        let rest: Vec<Point> = handle
            .cursor(QueryRequest::after(&token).consistency(Consistency::PerRound))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(first.len() + rest.len(), 200, "{name}");
        let mut all = first.clone();
        all.extend(&rest);
        assert!(
            all.windows(2).all(|w| w[0].score > w[1].score),
            "{name}: concatenation must stay strictly descending"
        );
        handle.delete(writer_stream[0]).unwrap();
    }
}

#[test]
fn per_round_cursors_see_writes_below_the_mark_and_skip_above() {
    // Deterministic interleaving on a one-shard index: after one page
    // [100, 99, 98, ...], an insert *above* the low-water mark is skipped
    // and an insert *below* it is picked up by a later round.
    let device = device();
    let index = TopK::builder()
        .device(&device)
        .expected_n(256)
        .build_auto()
        .unwrap();
    let pts: Vec<Point> = (1..=100u64).map(|i| Point::new(i * 10, i * 100)).collect();
    index.bulk_build(&pts).unwrap();
    let mut cursor = index
        .cursor(QueryRequest::range(0, u64::MAX).top(100).page_size(10))
        .unwrap();
    let first = cursor.next_batch().unwrap();
    assert_eq!(first[0].score, 10_000);
    assert_eq!(first[9].score, 9_100);
    // Above the mark: never emitted (the round skips it as "already passed").
    index.insert(Point::new(5, 50_000)).unwrap();
    // Below the mark: a later round reports it in its score position.
    index.insert(Point::new(7, 9_050)).unwrap();
    let second = cursor.next_batch().unwrap();
    assert_eq!(second[0], Point::new(7, 9_050));
    assert_eq!(second[1].score, 9_000);
    let rest: Vec<Point> = cursor.map(Result::unwrap).collect();
    assert!(rest.iter().all(|p| p.score < 9_050));
    assert!(!rest.iter().any(|p| p.score == 50_000));
}

#[test]
fn cursors_come_from_arcs_and_the_ranked_index_extension() {
    // The acceptance shape: an owned cursor straight from an
    // Arc<TopKIndex>, and from handles at one and four shards.
    let device = device();
    let bare = Arc::new(TopKIndex::new(&device, topk::TopKConfig::for_tests()));
    let pts = PointGen::uniform(3).generate(300);
    bare.bulk_build(&pts).unwrap();
    let got: Vec<Point> = Arc::clone(&bare)
        .cursor(QueryRequest::range(0, u64::MAX).top(40))
        .unwrap()
        .map(Result::unwrap)
        .collect();
    assert_eq!(got, bare.query(0, u64::MAX, 40).unwrap());

    for shards in [1, 4] {
        let handle = TopK::from(ShardedTopK::new(
            &device,
            topk::TopKConfig::for_tests(),
            shards,
        ));
        handle.bulk_build(&pts).unwrap();
        let got: Vec<Point> = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(40))
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, handle.query(0, u64::MAX, 40).unwrap(), "{shards}");
    }

    // Through the trait: TopK serves cursors, bare engines direct callers to
    // the handle instead of panicking.
    let facade: Box<dyn RankedIndex> = Box::new(TopK::from(ShardedTopK::new(
        &device,
        topk::TopKConfig::for_tests(),
        2,
    )));
    facade.bulk_build(&pts).unwrap();
    let mut cursor = facade
        .cursor(QueryRequest::range(0, u64::MAX).top(5))
        .unwrap();
    assert_eq!(cursor.next_batch().unwrap().len(), 5);
    let naive: Box<dyn RankedIndex> = Box::new(NaiveTopK::new(&device, "naive-cursorless"));
    assert!(matches!(
        naive.cursor(QueryRequest::range(0, 10).top(1)),
        Err(TopKError::InvalidConfig { .. })
    ));
}

#[test]
fn per_round_cursors_never_resurrect_deleted_points() {
    // Delete-under-open-cursor, the PerRound contract: a point emitted and
    // then deleted must never be yielded again (no stale score twice), a
    // not-yet-emitted point deleted between rounds must never appear, and
    // the concatenation must stay strictly descending.
    for (name, _dev, handle) in topologies() {
        let pts: Vec<Point> = (1..=100u64).map(|i| Point::new(i * 10, i * 100)).collect();
        handle.bulk_build(&pts).unwrap();
        let mut cursor = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(100).page_size(10))
            .unwrap();
        let first = cursor.next_batch().unwrap();
        assert_eq!(first.len(), 10);
        let emitted_victim = first[3]; // already yielded: must not reappear
        let pending_victim = Point::new(50 * 10, 50 * 100); // below the mark
        assert!(handle.delete(emitted_victim).unwrap(), "{name}");
        assert!(handle.delete(pending_victim).unwrap(), "{name}");
        let mut rest = Vec::new();
        loop {
            let batch = cursor.next_batch().unwrap();
            if batch.is_empty() {
                break;
            }
            rest.extend(batch);
        }
        assert!(
            !rest.contains(&emitted_victim) && !rest.contains(&pending_victim),
            "{name}: a deleted point was yielded after its delete"
        );
        let mut all = first.clone();
        all.extend(&rest);
        assert!(
            all.windows(2).all(|w| w[0].score > w[1].score),
            "{name}: concatenation must stay strictly descending"
        );
        // 100 live at the first round, minus the pending victim; the
        // emitted victim was yielded once (before its delete), never twice.
        assert_eq!(all.len(), 99, "{name}");
        assert_eq!(all.iter().filter(|p| **p == emitted_victim).count(), 1);
        handle.insert(emitted_victim).unwrap();
        handle.insert(pending_victim).unwrap();
    }
}

#[test]
fn delete_heavy_pagination_matches_the_oracle_exactly() {
    // Delete-heavy paging: between every pair of rounds a batch of random
    // live points disappears. Each PerRound page must equal the oracle's
    // strictly-below-the-mark prefix of the *current* state.
    let seed = Seed::from_env(0xDE1C);
    let repro = seed.repro("cursor");
    for (name, _dev, handle) in topologies() {
        let mut rng = StdRng::seed_from_u64(seed.derive(0xD0));
        let pts = PointGen::uniform(seed.derive(0xD1)).generate(600);
        handle.bulk_build(&pts).unwrap();
        let oracle_dev = device();
        let oracle = NaiveTopK::new(&oracle_dev, "oracle");
        oracle.bulk_build(&pts).unwrap();
        let mut live = pts.clone();
        let mut cursor = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(400).page_size(16))
            .unwrap();
        let mut low_water: Option<u64> = None;
        let mut emitted = 0usize;
        while emitted < 400 {
            let batch = cursor.next_batch().unwrap();
            let total = oracle.count_in_range(0, u64::MAX).unwrap() as usize;
            let expect: Vec<Point> = oracle
                .query(0, u64::MAX, total.max(1))
                .unwrap()
                .into_iter()
                .filter(|p| low_water.is_none_or(|mark| p.score < mark))
                .take(16.min(400 - emitted))
                .collect();
            assert_eq!(batch, expect, "{name}: page after deletes; {repro}");
            if batch.is_empty() {
                break;
            }
            emitted += batch.len();
            low_water = batch.last().map(|p| p.score);
            // Delete a handful of random live points before the next round.
            for _ in 0..8.min(live.len()) {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(handle.delete(victim).unwrap(), "{name}; {repro}");
                assert!(oracle.delete(victim).unwrap(), "{name}; {repro}");
            }
        }
    }
}

#[test]
fn strict_cursors_surface_invalidation_on_deletes() {
    // The Strict half of the delete-under-open-cursor contract: any delete
    // between rounds — even of a point the cursor already emitted — must
    // surface SnapshotInvalidated, on every topology.
    for (name, _dev, handle) in topologies() {
        let pts = PointGen::uniform(77).generate(400);
        handle.bulk_build(&pts).unwrap();
        let mut cursor = handle
            .cursor(
                QueryRequest::range(0, u64::MAX)
                    .top(100)
                    .page_size(10)
                    .consistency(Consistency::Strict),
            )
            .unwrap();
        let first = cursor.next_batch().unwrap();
        assert_eq!(first.len(), 10, "{name}");
        assert!(handle.delete(first[0]).unwrap(), "{name}");
        let err = cursor.next_batch().unwrap_err();
        assert!(
            matches!(err, TopKError::SnapshotInvalidated { .. }),
            "{name}: delete must invalidate a strict cursor, got {err:?}"
        );
        handle.insert(first[0]).unwrap();
    }
}

#[test]
fn adversarial_resume_tokens_error_and_never_panic() {
    // Truncated / bit-flipped / field-swapped `topkcur1;…` strings must
    // return a parse error, never panic — and a mutant that still parses
    // must behave as a well-formed token: resuming from it yields at most
    // k strictly-descending results, all below its low-water mark.
    let (_, _dev, handle) = topologies().remove(0);
    let pts = PointGen::uniform(5).generate(300);
    handle.bulk_build(&pts).unwrap();
    let mut cursor = handle
        .cursor(QueryRequest::range(0, u64::MAX).top(60).page_size(20))
        .unwrap();
    cursor.next_batch().unwrap();
    let wire = cursor.token().to_string();
    drop(cursor);

    let mut mutants: Vec<String> = Vec::new();
    // Every truncation.
    for cut in 0..wire.len() {
        mutants.push(wire[..cut].to_string());
    }
    // Single-character substitutions ("bit flips" in the printable space).
    for idx in 0..wire.len() {
        for sub in ['0', '9', ';', '=', '-', ':', 'x', '\u{0}'] {
            let mut bytes = wire.clone().into_bytes();
            bytes[idx] = sub as u8;
            if let Ok(s) = String::from_utf8(bytes) {
                mutants.push(s);
            }
        }
    }
    // Field swaps, drops and duplications.
    let fields: Vec<&str> = wire.split(';').collect();
    for i in 1..fields.len() {
        for j in 1..fields.len() {
            if i != j {
                let mut swapped = fields.clone();
                swapped.swap(i, j);
                mutants.push(swapped.join(";"));
            }
        }
        let mut dropped = fields.clone();
        dropped.remove(i);
        mutants.push(dropped.join(";"));
        let mut duplicated = fields.clone();
        duplicated.push(fields[i]);
        mutants.push(duplicated.join(";"));
    }
    // Inconsistent positions a tamperer could hand-build.
    mutants.push("topkcur1;r=0-100;k=10;f=0;c=p;g=-;e=5;w=-;v=-".into());
    mutants.push("topkcur1;r=0-100;k=10;f=0;c=p;g=-;e=0;w=9:9;v=-".into());

    let mut parsed_ok = 0usize;
    for mutant in &mutants {
        match mutant.parse::<ResumeToken>() {
            Err(_) => {} // the expected outcome for malformed strings
            Ok(token) => {
                parsed_ok += 1;
                // A parseable mutant is a well-formed token (e.g. swapped
                // field order): resuming must honour its own contract — at
                // most its own k results, strictly descending (no point
                // yielded twice), and nothing at or above its low-water
                // mark re-emitted.
                let mark = mutant
                    .split(';')
                    .find_map(|f| f.strip_prefix("w="))
                    .and_then(|v| v.split_once(':'))
                    .and_then(|(score, _)| score.parse::<u64>().ok());
                if let Ok(resumed) = handle.cursor(QueryRequest::after(&token)) {
                    let got: Vec<Point> = resumed.map(Result::unwrap).collect();
                    assert!(got.len() <= 300, "runaway cursor from {mutant:?}");
                    assert!(
                        got.windows(2).all(|w| w[0].score > w[1].score),
                        "duplicated/unordered results from {mutant:?}"
                    );
                    if let Some(mark) = mark {
                        assert!(
                            got.iter().all(|p| p.score < mark),
                            "{mutant:?} re-emitted at/above its low-water mark"
                        );
                    }
                }
            }
        }
    }
    // Sanity on the harness itself: the unmutated wire parses, and field
    // order is genuinely immaterial (so some swaps parse too).
    assert!(wire.parse::<ResumeToken>().is_ok());
    assert!(parsed_ok > 0, "no mutant parsed — the swap cases regressed");
}

#[test]
fn multi_range_pagination_resumes_across_ranges() {
    let pts = PointGen::uniform(31).generate(N);
    let x_max = pts.iter().map(|p| p.x).max().unwrap();
    let spans = [(0u64, x_max / 5), (x_max / 2, x_max)];
    for (name, _dev, handle) in topologies() {
        handle.bulk_build(&pts).unwrap();
        let mut expect: Vec<Point> = pts
            .iter()
            .filter(|p| spans.iter().any(|&(a, b)| p.x >= a && p.x <= b))
            .copied()
            .collect();
        expect.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        expect.truncate(120);
        let request = QueryRequest::ranges(&spans).top(120).page_size(17);
        let got = paginate_with_resume(&handle, request, 3).unwrap();
        assert_eq!(got, expect, "{name}");
    }
}

#[test]
fn one_point_pages_continue_below_a_top_scored_mark_across_writes() {
    // Page size 1 with a write between every pair of pages, so every round
    // rebuilds its drains below the low-water mark. The first mark scores
    // `u64::MAX` and the last scores 0, the two ends of the inclusive
    // drain ceiling `mark − 1`: each page must be the oracle's next point
    // strictly below the previous page, never the mark again and never a
    // short page while points remain.
    let topologies = || {
        let dev = device();
        let bare = TopKIndex::builder().device(&dev).expected_n(64).build();
        let dev = device();
        let sharded = TopK::builder()
            .device(&dev)
            .expected_n(64)
            .shards(4)
            .build_auto();
        [
            ("bare", Source::Bare(Arc::new(bare.unwrap()))),
            ("sharded-4", Source::Handle(sharded.unwrap())),
        ]
    };
    for (name, handle) in topologies() {
        let mut pts: Vec<Point> = (0..40u64).map(|i| Point::new(i * 5 + 1, i * 11)).collect();
        pts.push(Point::new(2, u64::MAX));
        handle.bulk_build(&pts).unwrap();
        let oracle_dev = device();
        let oracle = NaiveTopK::new(&oracle_dev, "oracle");
        oracle.bulk_build(&pts).unwrap();
        let next_below = |mark: Option<u64>| -> Vec<Point> {
            let total = oracle.count_in_range(0, u64::MAX).unwrap() as usize;
            oracle
                .query(0, u64::MAX, total.max(1))
                .unwrap()
                .into_iter()
                .filter(|p| mark.is_none_or(|m| p.score < m))
                .take(1)
                .collect()
        };
        let mut cursor = handle
            .cursor(QueryRequest::range(0, u64::MAX).top(1000).page_size(1))
            .unwrap();
        let mut mark = None;
        for page in 0u64.. {
            let batch = cursor.next_batch().unwrap();
            assert_eq!(batch, next_below(mark), "{name}: page {page}");
            let Some(&emitted) = batch.first() else {
                break;
            };
            mark = Some(emitted.score);
            // The write: early on, a point just below the mark (the next
            // page's answer) or the deletion of the next point; later the
            // deletion of the point just emitted, down to the score-0 mark.
            let write = if page < 10 && page % 2 == 0 {
                (Point::new(1_000 + page, emitted.score - 1), true)
            } else if page < 10 {
                (next_below(mark)[0], false)
            } else {
                (emitted, false)
            };
            match write {
                (p, true) => {
                    handle.insert(p).unwrap();
                    oracle.insert(p).unwrap();
                }
                (p, false) => {
                    assert!(handle.delete(p).unwrap(), "{name}: page {page}");
                    assert!(oracle.delete(p).unwrap(), "{name}: page {page}");
                }
            }
        }
        assert_eq!(mark, Some(0), "{name}: the last page emits score 0");
        assert!(cursor.is_done(), "{name}");
    }
}
