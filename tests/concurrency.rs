//! The concurrency acceptance tests: ≥ 4 threads issue queries against one
//! shared index, interleaved with locked updates, and every answer must match
//! the oracle exactly — not just "look plausible".
//!
//! Exact matching under interleaving works via version stamping. On a
//! one-shard [`ShardedTopK`] every committed batch bumps the index's commit
//! stamp *while still holding the shard's write lock*, and the workload is
//! deterministic, so the oracle snapshot after each batch is precomputed; a
//! reader that takes the read guard observes one stable stamp for as long as
//! it holds it, and compares its answers against the snapshot for exactly
//! that stamp.
//!
//! For the sharded index the stamp scheme is extended per writer: each
//! writer's batches touch one disjoint coordinate territory, its post-batch
//! states are precomputed (the workload is deterministic), and a reader's
//! answer over that territory must equal exactly one snapshot inside the
//! window of batch counters it observed around its query — which proves
//! both batch atomicity (no torn mid-batch view matches any snapshot) and
//! freshness. Spanning readers additionally pin every stable territory's
//! point count while a growth writer forces shard rebalances, so a torn
//! migration (a point observed twice or not at all) fails immediately.
//!
//! PR 5 generalized the stamp-window trick into
//! `topk_testkit::history::check`: the recorder test at the bottom runs
//! generated multi-writer schedules against the engines' commit-stamped
//! hooks and validates the *whole recorded history* — every query must
//! match the `NaiveTopK` spec at some version inside its stamp window —
//! instead of precomputing per-territory snapshots by hand. Seeds unify
//! through `topk_testkit::Seed` (`TOPK_SEED=<n>` pins a run).

use std::sync::atomic::{AtomicU64, Ordering};

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::{Oracle, Point, ShardedTopK, TopK, TopKConfig, TopKError, UpdateBatch, UpdateOp};
use topk_testkit::Seed;

fn points(seed: u64, lo: u64, n: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<u64> = (lo..lo + n).map(|i| i * 3 + 1).collect();
    let mut scores: Vec<u64> = (lo..lo + n).map(|i| i * 13 + 7).collect();
    use rand::seq::SliceRandom;
    xs.shuffle(&mut rng);
    scores.shuffle(&mut rng);
    xs.into_iter()
        .zip(scores)
        .map(|(x, score)| Point { x, score })
        .collect()
}

#[test]
fn concurrent_queries_interleaved_with_locked_updates_match_oracle() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 120;
    const BATCHES: u64 = 24;
    const BATCH: usize = 40;

    let seed = Seed::from_env(1);
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = ShardedTopK::new(&device, TopKConfig::for_tests(), 1);
    let initial = points(seed.value(), 0, 4_000);
    index.bulk_build(&initial).unwrap();

    // Points the updater will insert (disjoint coordinates/scores) and delete.
    let incoming = points(
        seed.derive(2),
        10_000,
        (BATCHES as usize * BATCH) as u64 / 2,
    );
    let x_max = 50_000u64;

    // The updater's batches and the oracle after each: `snapshots[b]` is the
    // state once `b` batches committed.
    let mut batches = Vec::new();
    let mut oracle = Oracle::from_points(&initial);
    let mut snapshots = vec![oracle.clone()];
    let (mut insert_cursor, mut delete_cursor) = (0usize, 0usize);
    for batch in 0..BATCHES {
        let mut ops = UpdateBatch::new();
        for i in 0..BATCH {
            if (batch as usize + i).is_multiple_of(2) && insert_cursor < incoming.len() {
                let p = incoming[insert_cursor];
                insert_cursor += 1;
                ops.push(UpdateOp::Insert(p));
                oracle.insert(p);
            } else if delete_cursor < initial.len() {
                let p = initial[delete_cursor];
                delete_cursor += 1;
                ops.push(UpdateOp::Delete(p));
                oracle.delete(p);
            }
        }
        batches.push(ops);
        snapshots.push(oracle.clone());
    }
    let base = index.read().version();

    std::thread::scope(|scope| {
        // The updater: locked batches, each bumping the commit stamp once
        // before its write lock is released.
        {
            let index = &index;
            let batches = &batches;
            scope.spawn(move || {
                for batch in batches {
                    let summary = index.apply(batch).unwrap();
                    assert_eq!(summary.missing_deletes, 0);
                    // A breather so readers actually interleave between batches.
                    std::thread::yield_now();
                }
            });
        }

        // The readers: each answer is compared against the snapshot of the
        // stamp observed while the read guard was held.
        for reader in 0..READERS {
            let index = &index;
            let snapshots = &snapshots;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + reader as u64);
                for _ in 0..QUERIES_PER_READER {
                    let a = rng.gen_range(0..x_max);
                    let b = rng.gen_range(a..=x_max);
                    let k = rng.gen_range(1usize..200);
                    let guard = index.read();
                    let v = guard.version() - base;
                    let got = guard.query(a, b, k).unwrap();
                    let count = guard.count_in_range(a, b).unwrap();
                    drop(guard);
                    let oracle = snapshots.get(v as usize).expect("one stamp per batch");
                    assert_eq!(
                        got,
                        oracle.query(a, b, k),
                        "reader {reader} [{a},{b}] k={k} v={v}"
                    );
                    assert_eq!(
                        count,
                        oracle.count(a, b) as u64,
                        "reader {reader} count v={v}"
                    );
                }
            });
        }
    });

    // Final state matches the last snapshot, and the device's concurrent
    // counter updates were not lost: allocation accounting must balance.
    assert_eq!(index.read().version() - base, BATCHES);
    let last = snapshots.last().unwrap();
    assert_eq!(index.len(), last.len() as u64);
    assert_eq!(
        index.query(0, u64::MAX, 50).unwrap(),
        last.query(0, u64::MAX, 50)
    );
    let stats = device.stats();
    assert_eq!(
        stats.allocs - stats.frees,
        device.space_blocks(),
        "alloc/free counters drifted from live-page accounting under concurrency"
    );
    assert!(stats.logical > 0 && stats.reads > 0);
}

#[test]
fn sharded_multi_writer_batches_are_atomic_and_rebalance_is_never_torn() {
    // Per-writer extension of the version-stamp scheme above: WRITERS
    // threads each own one disjoint coordinate territory (hence disjoint
    // shards under the range router) and commit deterministic batches of 16
    // deletes + 16 inserts, so every committed state of a territory is one
    // of BATCHES + 1 precomputed oracle snapshots and its point count is
    // *constant*. Readers assert that each territory answer matches exactly
    // one snapshot inside the observed commit-counter window (atomicity +
    // freshness), while a growth writer floods a fifth territory and forces
    // shard rebalances mid-flight — under which the stable territories'
    // counts and rankings must not waver (no torn migration).
    const WRITERS: usize = 4;
    const BATCHES: usize = 12;
    const STEP: usize = 16; // deletes and inserts per batch
    const PRELOAD: usize = 400;
    const GROWTH_INSERTS: usize = 400;

    let (span, mut terr) = workload::territories(41, WRITERS + 1, 2 * PRELOAD);
    let growth = terr.pop().unwrap();
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = TopK::builder()
        .device(&device)
        .shards(WRITERS)
        .expected_n((WRITERS + 1) * 2 * PRELOAD)
        .build_auto()
        .unwrap();
    let preload: Vec<Point> = terr
        .iter()
        .flat_map(|t| t[..PRELOAD].to_vec())
        .chain(growth[..PRELOAD].to_vec())
        .collect();
    index.bulk_build(&preload).unwrap();

    // Precompute each stable writer's batch sequence and post-state oracles.
    let batches: Vec<Vec<UpdateBatch>> = (0..WRITERS)
        .map(|w| {
            (0..BATCHES)
                .map(|b| {
                    let mut batch = UpdateBatch::new();
                    for i in b * STEP..(b + 1) * STEP {
                        batch.push(UpdateOp::Delete(terr[w][i]));
                        batch.push(UpdateOp::Insert(terr[w][PRELOAD + i]));
                    }
                    batch
                })
                .collect()
        })
        .collect();
    let snapshots: Vec<Vec<Oracle>> = (0..WRITERS)
        .map(|w| {
            (0..=BATCHES)
                .map(|v| {
                    let pts: Vec<Point> = terr[w][v * STEP..PRELOAD]
                        .iter()
                        .chain(&terr[w][PRELOAD..PRELOAD + v * STEP])
                        .copied()
                        .collect();
                    Oracle::from_points(&pts)
                })
                .collect()
        })
        .collect();
    let committed: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        let index = &index;
        let committed = &committed;
        let batches = &batches;
        let snapshots = &snapshots;
        let growth = &growth;
        // Stable writers: disjoint-territory batches, counter bumped after
        // each atomic commit.
        for w in 0..WRITERS {
            scope.spawn(move || {
                for batch in &batches[w] {
                    let summary = index.apply(batch).expect("disjoint batches are valid");
                    assert_eq!((summary.inserted, summary.deleted), (STEP, STEP));
                    committed[w].fetch_add(1, Ordering::Release);
                    std::thread::yield_now();
                }
            });
        }
        // The growth writer: insert-only flood of the fifth territory plus
        // explicit repartitions, so rebalance provably runs while readers
        // and stable writers are mid-flight.
        scope.spawn(move || {
            for (i, &p) in growth[PRELOAD..PRELOAD + GROWTH_INSERTS].iter().enumerate() {
                index.insert(p).expect("growth stream is collision-free");
                if i % 100 == 99 {
                    index.rebalance_now().unwrap();
                }
            }
        });
        // Stamp readers: per-territory answers must equal exactly one
        // snapshot inside the observed commit window.
        for reader in 0..WRITERS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + reader as u64);
                for i in 0..60 {
                    let w = (reader + i) % WRITERS;
                    let lo = w as u64 * span;
                    let hi = lo + span - 1;
                    let k = rng.gen_range(1usize..64);
                    let v_lo = committed[w].load(Ordering::Acquire) as usize;
                    let got = index.query(lo, hi, k).unwrap();
                    let count = index.count_in_range(lo, hi).unwrap();
                    let v_hi = (committed[w].load(Ordering::Acquire) as usize + 1).min(BATCHES);
                    assert_eq!(
                        count, PRELOAD as u64,
                        "reader {reader}: territory {w} count wavered (torn batch or rebalance)"
                    );
                    assert!(
                        (v_lo..=v_hi).any(|v| snapshots[w][v].query(lo, hi, k) == got),
                        "reader {reader}: territory {w} answer (k={k}) matches no \
                         committed state in versions {v_lo}..={v_hi}"
                    );
                }
            });
        }
        // Spanning reader: cross-territory invariants under rebalance. The
        // global top-k must stay duplicate-free and sorted even while
        // points migrate between shards.
        scope.spawn(move || {
            for _ in 0..60 {
                for w in 0..WRITERS {
                    let lo = w as u64 * span;
                    assert_eq!(
                        index.count_in_range(lo, lo + span - 1).unwrap(),
                        PRELOAD as u64
                    );
                }
                let total = index.count_in_range(0, u64::MAX).unwrap();
                assert!(
                    (WRITERS + 1) as u64 * PRELOAD as u64 <= total
                        && total <= ((WRITERS + 1) * PRELOAD + GROWTH_INSERTS) as u64,
                    "global count {total} outside any committed state"
                );
                let top = index.query(0, u64::MAX, 200).unwrap();
                assert!(top.windows(2).all(|p| p[0].score > p[1].score));
                let mut xs: Vec<u64> = top.iter().map(|p| p.x).collect();
                xs.sort_unstable();
                xs.dedup();
                assert_eq!(
                    xs.len(),
                    top.len(),
                    "duplicate coordinate in fan-out answer"
                );
            }
        });
    });

    // Quiescent end state: every writer fully committed, the index agrees
    // with the final snapshots, and the device's allocation accounting
    // balanced through all the parallel commits and rebalances.
    for w in 0..WRITERS {
        assert_eq!(committed[w].load(Ordering::Acquire) as usize, BATCHES);
        let lo = w as u64 * span;
        let hi = lo + span - 1;
        assert_eq!(
            index.query(lo, hi, 64).unwrap(),
            snapshots[w][BATCHES].query(lo, hi, 64)
        );
    }
    assert_eq!(
        index.len(),
        ((WRITERS + 1) * PRELOAD + GROWTH_INSERTS) as u64
    );
    index.check_invariants();
    let stats = device.stats();
    assert_eq!(
        stats.allocs - stats.frees,
        device.space_blocks(),
        "alloc/free counters drifted under parallel writers"
    );
}

#[test]
fn recorded_histories_admit_witness_orderings_under_rebalance() {
    // The generalized stamp-window check: generated disjoint-territory
    // writer schedules race spanning readers against the sharded topology,
    // with a dedicated thread forcing repartitions mid-flight. Every op is
    // recorded with its commit stamps (testkit hooks), and the checker
    // must explain every recorded answer by a committed version inside its
    // window — rebalances consume stamps but move no points, so the
    // witness search must see straight through them.
    use topk_testkit::{check, generate_concurrent, BatchItem, Recorder, Topology, TraceOp};

    const WRITERS: usize = 4;
    const READERS: usize = 3;
    let seed = Seed::from_env(0x5EC0);
    let context = format!("seed={seed}; {}", seed.repro("concurrency"));
    let plan = generate_concurrent(seed.derive(9), WRITERS, 150, 100, READERS, 80);
    let (_device, handle) = Topology(WRITERS).build(plan.preload.len() * 2);
    let recorder = Recorder::new(handle, &plan.preload).unwrap();

    std::thread::scope(|scope| {
        let recorder = &recorder;
        for ops in &plan.writer_ops {
            scope.spawn(move || {
                for op in ops {
                    match op {
                        TraceOp::Insert(p) => recorder
                            .insert(*p)
                            .expect("territory inserts are collision-free"),
                        TraceOp::Delete(p) => {
                            assert!(recorder.delete(*p).expect("delete is infallible"));
                        }
                        TraceOp::Batch(items) => {
                            let batch = UpdateBatch::from_ops(items.iter().map(|i| match i {
                                BatchItem::Insert(p) => UpdateOp::Insert(*p),
                                BatchItem::Delete(p) => UpdateOp::Delete(*p),
                            }));
                            recorder.apply(&batch).expect("territory batches are valid");
                        }
                        other => unreachable!("writer schedules only update: {other}"),
                    }
                    std::thread::yield_now();
                }
            });
        }
        for queries in &plan.reader_queries {
            scope.spawn(move || {
                for &(x1, x2, k) in queries {
                    recorder.query(x1, x2, k).expect("reader queries are valid");
                }
            });
        }
        // The repartition thread: rebalances consume commit stamps while
        // writers and readers are mid-flight.
        scope.spawn(move || {
            for _ in 0..8 {
                recorder.handle().rebalance_now().unwrap();
                std::thread::yield_now();
            }
        });
    });

    let history = recorder.into_history();
    let report = check(&history).unwrap_or_else(|v| panic!("{v}; {context}"));
    assert_eq!(report.queries, READERS * 80, "{context}");
    assert!(report.writes > 0, "{context}");
}

#[test]
fn writers_on_different_shards_racing_for_one_score_admit_one_winner() {
    // Every shard validates scores against the one registry its handle
    // shares, so writers on different shards racing for one score — a
    // point insert per shard plus a batch — must leave exactly one winner,
    // and every loser must get `DuplicateScore` for its own point.
    const SHARDS: u64 = 4;
    const ROUNDS: u64 = 40;
    let seed = Seed::from_env(0x5C0E);
    let context = format!("seed={seed}; {}", seed.repro("concurrency"));
    let mut rng = StdRng::seed_from_u64(seed.derive(13));
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = ShardedTopK::new(&device, TopKConfig::for_tests(), SHARDS as usize);
    // An index that was never bulk-built keeps its even splits, and the few
    // winners stay far below the rebalance floor: shard i owns the
    // coordinates from i · step on.
    let step = u64::MAX / SHARDS;
    let base = rng.gen_range(0..1u64 << 40) * 2 * ROUNDS;
    let mut expected_len = 0;
    for round in 0..ROUNDS {
        let score = base + 2 * round;
        let contenders: Vec<Point> = (0..SHARDS)
            .map(|i| Point::new(i * step + 4 * round + 1, score))
            .collect();
        for pair in contenders.windows(2) {
            assert_eq!(
                index.overlapping_shards(pair[0].x, pair[1].x),
                2,
                "{context}"
            );
        }
        // The batch carries the contested score on a random shard, plus a
        // point with a free score on another, so it commits across shards
        // when it wins.
        let contested = Point::new(rng.gen_range(0..SHARDS) * step + 4 * round + 2, score);
        let filler = Point::new(rng.gen_range(0..SHARDS) * step + 4 * round + 3, score + 1);
        let batch = UpdateBatch::new().insert(contested).insert(filler);
        let start = std::sync::Barrier::new(contenders.len() + 1);
        let (inserts, applied) = std::thread::scope(|scope| {
            let inserts: Vec<_> = contenders
                .iter()
                .map(|&p| {
                    let (index, start) = (&index, &start);
                    scope.spawn(move || {
                        start.wait();
                        index.insert(p)
                    })
                })
                .collect();
            let applied = scope.spawn(|| {
                start.wait();
                index.apply(&batch)
            });
            let inserts: Vec<_> = inserts.into_iter().map(|h| h.join().unwrap()).collect();
            (inserts, applied.join().unwrap())
        });
        let mut winners = Vec::new();
        for (p, outcome) in contenders.iter().zip(inserts) {
            match outcome {
                Ok(()) => winners.push(*p),
                Err(e) => assert_eq!(
                    e,
                    TopKError::DuplicateScore {
                        score,
                        rejected: *p
                    },
                    "round {round}; {context}"
                ),
            }
        }
        match applied {
            Ok(summary) => {
                assert_eq!(summary.inserted, 2, "round {round}; {context}");
                winners.push(contested);
                expected_len += 1;
            }
            Err(e) => assert_eq!(
                e,
                TopKError::DuplicateScore {
                    score,
                    rejected: contested
                },
                "round {round}; {context}"
            ),
        }
        assert_eq!(winners.len(), 1, "round {round}: {winners:?}; {context}");
        expected_len += 1;
        assert_eq!(index.len(), expected_len, "round {round}; {context}");
        assert_eq!(index.get(winners[0].x), Some(winners[0]), "{context}");
        index.check_invariants();
    }
}

#[test]
fn read_side_runs_concurrently_and_exactly_matches() {
    // Pure read concurrency: 8 threads hammer the same frozen one-shard
    // index, each on its own read stripe; every answer must equal the
    // oracle's, and the logical-access counter must not lose a single
    // increment (each query's accesses are all recorded).
    const THREADS: usize = 8;
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = ShardedTopK::new(&device, TopKConfig::for_tests(), 1);
    let pts = points(7, 0, 6_000);
    index.bulk_build(&pts).unwrap();
    let oracle = Oracle::from_points(&pts);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let index = &index;
            let oracle = &oracle;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                for _ in 0..150 {
                    let a = rng.gen_range(0u64..20_000);
                    let b = rng.gen_range(a..=20_000);
                    let k = rng.gen_range(1usize..500);
                    assert_eq!(index.query(a, b, k).unwrap(), oracle.query(a, b, k));
                }
            });
        }
    });
    let stats = device.stats();
    assert_eq!(stats.allocs - stats.frees, device.space_blocks());
}
