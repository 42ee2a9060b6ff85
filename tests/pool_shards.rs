//! Regression guards on the PR-8 sharded buffer pool.
//!
//! The pool ships two replacement policies: the serving default (address-
//! sharded CLOCK, no global lock on the hit path) and `exact_lru` (one
//! stamp-ordered LRU, the deterministic policy the I/O-cost bound constants
//! in `tests/io_cost.rs` were tuned against). These tests pin down the two
//! contracts that let the fast policy substitute for the analytical one:
//!
//! 1. Replacement policy is invisible to the engine: the *logical* access
//!    sequence of an identical workload is bit-identical under both
//!    policies — only physical reads (misses) may differ.
//! 2. The CLOCK approximation stays close to exact LRU: across the five
//!    workload distributions, its physical reads are bounded by a small
//!    constant factor of exact-LRU's plus one pool of slack.
//!
//! A third test proves the PR-8 concurrency changes (COW shard router,
//! striped read locks, sharded pool) did not bend the stamp-window history
//! contract: recorded single-threaded histories check green on every
//! serving topology, and the checked-in generator traces replay green on
//! every topology under all five point distributions.

use emsim::{Device, EmConfig, IoStats};
use topk_core::{Point, TopKConfig, TopKIndex, UpdateBatch, UpdateOp};
use topk_testkit::{
    check, generate, generate_concurrent, BatchItem, Recorder, Seed, Topology, TraceOp, TraceSpec,
};
use workload::{PointDistribution, PointGen, QueryGen};

const DISTRIBUTIONS: [PointDistribution; 5] = [
    PointDistribution::Uniform,
    PointDistribution::Correlated,
    PointDistribution::AntiCorrelated,
    PointDistribution::SortedInsertions,
    PointDistribution::Clustered,
];

/// 64-frame pool: small enough that the serving phase actually evicts, so
/// the replacement policies diverge where it matters.
fn pool_config() -> EmConfig {
    EmConfig::new(256, 256 * 64)
}

/// Replay the same build + query + insert + query workload on a fresh
/// device under the given config; return the serving-phase counters
/// (build-phase I/O excluded — both policies pay the same cold build).
fn serving_stats(config: EmConfig, distribution: PointDistribution, seed: u64) -> IoStats {
    let points = PointGen { distribution, seed }.generate(4_400);
    let (preload, fresh) = points.split_at(4_000);
    let device = Device::new(config);
    let index = TopKIndex::new(&device, TopKConfig::default());
    index
        .bulk_build(preload)
        .expect("generated points are distinct");

    device.reset_stats();
    let queries = QueryGen::new(0.1, 16, seed ^ 0xC10C).generate(preload, 300);
    for q in &queries {
        index
            .query(q.x1, q.x2, q.k)
            .expect("generated query is valid");
    }
    for &p in fresh {
        index.insert(p).expect("fresh points are collision-free");
    }
    for q in &queries {
        index
            .query(q.x1, q.x2, q.k)
            .expect("generated query is valid");
    }
    device.stats()
}

#[test]
fn sharded_clock_misses_stay_near_exact_lru_on_every_distribution() {
    for distribution in DISTRIBUTIONS {
        let clock = serving_stats(pool_config(), distribution, 0xBEEF);
        let lru = serving_stats(pool_config().exact_lru(), distribution, 0xBEEF);

        // Contract 1: the policy only decides what to evict — the engine's
        // access pattern (and so the logical counters and the space
        // accounting) must be identical to the last access.
        assert_eq!(
            clock.logical, lru.logical,
            "{distribution:?}: replacement policy leaked into the logical access sequence"
        );
        assert_eq!(clock.allocs, lru.allocs, "{distribution:?}");
        assert_eq!(clock.frees, lru.frees, "{distribution:?}");
        assert_eq!(clock.capacity_violations, 0, "{distribution:?}");

        // Contract 2: sharding the pool costs misses two ways — CLOCK
        // second-chance is only an LRU approximation, and each shard evicts
        // against its own 1/S-sized frame budget. Measured overhead across
        // the five distributions is ≤ ~1.07×; 1.5× plus one pool of slack
        // (64 frames) fails on a real regression (a shard that stops
        // recycling frames, a hash that pins everything to one shard)
        // without tripping on policy noise.
        let frames = pool_config().frames() as u64;
        let bound = (lru.reads as f64 * 1.5).ceil() as u64 + frames;
        assert!(
            clock.reads <= bound,
            "{distribution:?}: sharded CLOCK took {} physical reads, exact LRU {} \
             (bound {bound})",
            clock.reads,
            lru.reads,
        );
    }
}

#[test]
fn recorded_histories_check_green_on_every_topology() {
    // The stamp-window history checker must accept a straight-line recorded
    // schedule on all four topologies: with PR 8's snapshot-pinned reads,
    // every query's stamp window is still populated by the hooks, and every
    // answer must be explained by a committed version inside that window.
    let seed = Seed::from_env(0x5A4D);
    let context = format!("seed={seed}; {}", seed.repro("pool_shards"));
    let plan = generate_concurrent(seed.derive(3), 2, 120, 80, 1, 60);
    for topology in Topology::ALL {
        let (_device, handle) = topology.build(plan.preload.len() * 2);
        let recorder =
            Recorder::new(handle, &plan.preload).expect("generated preload points are distinct");
        let mut queries = plan.reader_queries[0].iter();
        for op in plan.writer_ops.iter().flatten() {
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
            if let Some(&(x1, x2, k)) = queries.next() {
                recorder.query(x1, x2, k).expect("reader queries are valid");
            }
        }
        let history = recorder.into_history();
        let report =
            check(&history).unwrap_or_else(|v| panic!("{v}; topology={topology}; {context}"));
        assert!(report.queries > 0, "topology={topology}; {context}");
        assert!(report.writes > 0, "topology={topology}; {context}");
    }
}

#[test]
fn generated_traces_replay_green_on_every_topology_and_distribution() {
    // The full matrix: a serving-mix trace per distribution, replayed (with
    // divergence shrinking) on all four topologies. This is the same
    // harness the checked-in regression traces use; here it sweeps the
    // distributions the pool-shard bound above is tuned on, so a policy
    // change that corrupts results (not just miss counts) fails loudly.
    let seed = Seed::from_env(0x9001);
    for distribution in DISTRIBUTIONS {
        let trace = generate(&TraceSpec::new(
            distribution,
            seed.derive(distribution as u64),
        ));
        let context = format!(
            "distribution={distribution:?}; seed={seed}; {}",
            seed.repro("pool_shards")
        );
        for topology in Topology::ALL {
            topk_testkit::replay_or_shrink(
                &trace,
                topology,
                &format!("pool-shards-{distribution:?}-{topology}"),
                &context,
            );
        }
    }
}

/// The workload points must be distinct in `x` for `bulk_build`; pin that
/// assumption so a generator change surfaces here and not as a mysterious
/// duplicate-coordinate error inside the bound test.
#[test]
fn point_generators_emit_distinct_coordinates() {
    for distribution in DISTRIBUTIONS {
        let points = PointGen {
            distribution,
            seed: 7,
        }
        .generate(4_400);
        let mut xs: Vec<u64> = points.iter().map(|p: &Point| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        assert_eq!(xs.len(), points.len(), "{distribution:?}");
    }
}
