//! Batched-update acceptance tests: [`UpdateBatch`] applied through
//! `apply()` — on a bare index and across the shards of a
//! four-shard [`ShardedTopK`] — must be *observation-equivalent* to the same operations
//! applied point-wise — same answers, same counts, same misses —
//! cross-checked against the oracle under seeded randomized workloads; and
//! under a one-shard [`ShardedTopK`], concurrent readers must only ever
//! observe pre-batch or post-batch states, never a torn middle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk::{
    BatchSummary, Oracle, Point, ShardedTopK, TopKConfig, TopKIndex, UpdateBatch, UpdateOp,
};

fn device() -> Device {
    Device::new(EmConfig::new(256, 256 * 128))
}

/// Distinct points: coordinates ≡ 1 and scores ≡ 2 (mod 3), indexed by `id`.
fn point(id: u64) -> Point {
    Point::new(id * 3 + 1, id * 3 + 2)
}

/// A random op stream over a live-set, with ~10% deliberately missing
/// deletes. Returns the ops plus the expected summary.
fn random_batch(
    rng: &mut StdRng,
    live: &mut Vec<u64>,
    next_fresh: &mut u64,
    ops: usize,
) -> (UpdateBatch, BatchSummary) {
    let mut batch = UpdateBatch::new();
    let mut expect = BatchSummary::default();
    for _ in 0..ops {
        let roll: f64 = rng.gen();
        if roll < 0.1 {
            // A delete that cannot match anything (fresh id never inserted).
            *next_fresh += 1;
            batch.push(UpdateOp::Delete(point(*next_fresh)));
            expect.missing_deletes += 1;
        } else if roll < 0.5 && !live.is_empty() {
            let idx = rng.gen_range(0..live.len());
            let id = live.swap_remove(idx);
            batch.push(UpdateOp::Delete(point(id)));
            expect.deleted += 1;
        } else {
            *next_fresh += 1;
            batch.push(UpdateOp::Insert(point(*next_fresh)));
            live.push(*next_fresh);
            expect.inserted += 1;
        }
    }
    (batch, expect)
}

#[test]
fn batched_apply_is_observation_equivalent_to_pointwise() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ seed);
        let initial: Vec<Point> = (0..1_500u64).map(point).collect();
        let pointwise = TopKIndex::new(&device(), TopKConfig::for_tests());
        let batched = TopKIndex::new(&device(), TopKConfig::for_tests());
        // Random deletes fall in every shard, so the sharded batches cross
        // shards and commit their sub-batches in parallel.
        let sharded = ShardedTopK::new(&device(), TopKConfig::for_tests(), 4);
        pointwise.bulk_build(&initial).unwrap();
        batched.bulk_build(&initial).unwrap();
        sharded.bulk_build(&initial).unwrap();
        let mut oracle = Oracle::from_points(&initial);

        let mut live: Vec<u64> = (0..1_500).collect();
        let mut next_fresh = 1_500u64;
        for round in 0..8 {
            let ops = rng.gen_range(1usize..200);
            let (batch, expect) = random_batch(&mut rng, &mut live, &mut next_fresh, ops);
            // Point-wise application (and the oracle) …
            let mut pointwise_summary = BatchSummary::default();
            for op in batch.ops() {
                match *op {
                    UpdateOp::Insert(p) => {
                        pointwise.insert(p).unwrap();
                        oracle.insert(p);
                        pointwise_summary.inserted += 1;
                    }
                    UpdateOp::Delete(p) => {
                        if pointwise.delete(p).unwrap() {
                            oracle.delete(p);
                            pointwise_summary.deleted += 1;
                        } else {
                            pointwise_summary.missing_deletes += 1;
                        }
                    }
                }
            }
            // … versus one atomic batch.
            let batched_summary = batched.apply(&batch).unwrap();
            assert_eq!(
                batched_summary, pointwise_summary,
                "seed {seed} round {round}"
            );
            assert_eq!(batched_summary, expect, "seed {seed} round {round}");
            assert_eq!(batched.len(), pointwise.len(), "seed {seed} round {round}");
            assert_eq!(batched.len(), oracle.len() as u64);
            let sharded_summary = sharded.apply(&batch).unwrap();
            assert_eq!(
                sharded_summary, expect,
                "sharded: seed {seed} round {round}"
            );
            assert_eq!(
                sharded.len(),
                oracle.len() as u64,
                "seed {seed} round {round}"
            );

            // Observation equivalence: random queries agree across all three.
            for _ in 0..12 {
                let a = rng.gen_range(0..12_000u64);
                let b = rng.gen_range(a..=12_000u64);
                let k = rng.gen_range(1usize..300);
                let expect = oracle.query(a, b, k);
                assert_eq!(
                    batched.query(a, b, k).unwrap(),
                    expect,
                    "batched: seed {seed} round {round} [{a},{b}] k={k}"
                );
                assert_eq!(
                    pointwise.query(a, b, k).unwrap(),
                    expect,
                    "pointwise: seed {seed} round {round} [{a},{b}] k={k}"
                );
                assert_eq!(
                    sharded.query(a, b, k).unwrap(),
                    expect,
                    "sharded: seed {seed} round {round} [{a},{b}] k={k}"
                );
                assert_eq!(
                    batched.count_in_range(a, b).unwrap(),
                    oracle.count(a, b) as u64,
                    "seed {seed} round {round}"
                );
                assert_eq!(
                    sharded.count_in_range(a, b).unwrap(),
                    oracle.count(a, b) as u64,
                    "sharded: seed {seed} round {round}"
                );
            }
        }
        batched.check_invariants();
        pointwise.check_invariants();
        sharded.check_invariants();
    }
}

#[test]
fn mid_batch_readers_see_only_pre_or_post_states() {
    const BATCHES: usize = 24;
    const OPS_PER_BATCH: usize = 64;

    let index = ShardedTopK::new(&device(), TopKConfig::for_tests(), 1);
    let initial: Vec<Point> = (0..2_000u64).map(point).collect();
    index.bulk_build(&initial).unwrap();

    // Precompute the batches and the full sorted state after each commit;
    // `state_ids` maps a full query answer to the batch index it follows.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut live: Vec<u64> = (0..2_000).collect();
    let mut next_fresh = 2_000u64;
    let mut oracle = Oracle::from_points(&initial);
    let max_k = 8_192usize;
    let mut batches = Vec::new();
    let mut state_ids: HashMap<Vec<Point>, usize> = HashMap::new();
    state_ids.insert(oracle.query(0, u64::MAX, max_k), 0);
    for i in 0..BATCHES {
        let (batch, _) = random_batch(&mut rng, &mut live, &mut next_fresh, OPS_PER_BATCH);
        for op in batch.ops() {
            match *op {
                UpdateOp::Insert(p) => {
                    oracle.insert(p);
                }
                UpdateOp::Delete(p) => {
                    oracle.delete(p);
                }
            }
        }
        // Each batch changes the live set, so every state is distinct.
        let prev = state_ids.insert(oracle.query(0, u64::MAX, max_k), i + 1);
        assert!(prev.is_none(), "batch {i} produced a duplicate state");
        batches.push(batch);
    }

    let writer_done = AtomicBool::new(false);
    let committed_states = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let index = &index;
        let writer_done = &writer_done;
        let batches = &batches;
        scope.spawn(move || {
            for batch in batches {
                index.apply(batch).unwrap();
                std::thread::yield_now();
            }
            writer_done.store(true, Ordering::Release);
        });
        for reader in 0..4usize {
            let state_ids = &state_ids;
            let committed_states = &committed_states;
            scope.spawn(move || {
                let mut last_seen = 0usize;
                let mut observations = 0usize;
                loop {
                    let done = writer_done.load(Ordering::Acquire);
                    let state = index.query(0, u64::MAX, max_k).unwrap();
                    // Atomicity: a full snapshot must be exactly one of the
                    // BATCHES + 1 committed states — never a torn middle.
                    let id = *state_ids.get(&state).unwrap_or_else(|| {
                        panic!("reader {reader} observed a state matching no committed batch")
                    });
                    // Monotonicity: states can only move forward.
                    assert!(
                        id >= last_seen,
                        "reader {reader} went back in time: {id} after {last_seen}"
                    );
                    last_seen = id;
                    observations += 1;
                    if done {
                        break;
                    }
                }
                assert!(observations > 0);
                committed_states.fetch_max(last_seen, Ordering::Relaxed);
            });
        }
    });
    // The readers' final observations reached the final committed state.
    assert_eq!(committed_states.load(Ordering::Relaxed), BATCHES);
    assert_eq!(index.len(), oracle.len() as u64);
}

#[test]
fn concurrent_apply_validation_failures_leave_no_trace() {
    let index = ShardedTopK::new(&device(), TopKConfig::for_tests(), 1);
    index
        .bulk_build(&(0..100u64).map(point).collect::<Vec<_>>())
        .unwrap();
    let before = index.query(0, u64::MAX, 200).unwrap();
    // Mid-batch collision with a live point: rejected as a whole.
    let bad = UpdateBatch::new()
        .insert(point(500))
        .delete(point(3))
        .insert(point(7)); // duplicate of a live point
    assert!(index.apply(&bad).is_err());
    assert_eq!(index.query(0, u64::MAX, 200).unwrap(), before);
    assert_eq!(index.len(), 100);
}
