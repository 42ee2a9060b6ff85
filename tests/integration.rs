//! Cross-crate integration tests: the combined index against the oracle under
//! larger randomized workloads, across machine configurations and engines.

use emsim::{Device, EmConfig};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use topk_core::{Oracle, Point, RankedIndex, SmallKEngine, TheoremOne, TopKConfig, TopKIndex};

fn random_points(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
    let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 13 + 7).collect();
    xs.shuffle(&mut rng);
    scores.shuffle(&mut rng);
    xs.into_iter()
        .zip(scores)
        .map(|(x, score)| Point { x, score })
        .collect()
}

fn check_many_queries(
    index: &dyn RankedIndex,
    oracle: &Oracle,
    seed: u64,
    rounds: usize,
    x_max: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let a = rng.gen_range(0..x_max);
        let b = rng.gen_range(a..=x_max);
        let k = *[1usize, 3, 7, 17, 64, 257, 1024, 5000]
            .choose(&mut rng)
            .unwrap();
        assert_eq!(
            index.query(a, b, k).unwrap(),
            oracle.query(a, b, k),
            "mismatch for range [{a},{b}], k={k}"
        );
    }
}

#[test]
fn large_build_then_queries_across_k_regimes() {
    let device = Device::new(EmConfig::new(512, 512 * 512));
    let index = TopKIndex::new(&device, TopKConfig::default());
    let pts = random_points(42, 20_000);
    index.bulk_build(&pts).unwrap();
    let oracle = Oracle::from_points(&pts);
    assert_eq!(index.len(), 20_000);
    index.check_invariants();
    check_many_queries(&index, &oracle, 1, 60, 60_000);
}

#[test]
fn long_mixed_workload_small_blocks() {
    // Small blocks force deep trees and frequent splits, stressing the
    // secondary-structure maintenance of every component.
    let device = Device::new(EmConfig::new(128, 128 * 128));
    let index = TopKIndex::new(&device, TopKConfig::for_tests());
    let mut oracle = Oracle::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mut live: Vec<Point> = Vec::new();
    let mut next = 1u64;
    for step in 0..6_000 {
        if !live.is_empty() && rng.gen_bool(0.4) {
            let idx = rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            assert!(index.delete(victim).unwrap());
            oracle.delete(victim);
        } else {
            let p = Point {
                x: (next * 104_729) % 2_000_003,
                score: next * 17 + 3,
            };
            next += 1;
            live.push(p);
            index.insert(p).unwrap();
            oracle.insert(p);
        }
        if step % 1500 == 0 {
            index.check_invariants();
        }
    }
    index.check_invariants();
    check_many_queries(&index, &oracle, 2, 40, 2_000_003);
}

#[test]
fn st12_engine_end_to_end() {
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = TheoremOne::new(&device, TopKConfig::for_tests(), SmallKEngine::St12);
    let pts = random_points(11, 8_000);
    for &p in &pts {
        index.insert(p).unwrap();
    }
    let oracle = Oracle::from_points(&pts);
    check_many_queries(&index, &oracle, 3, 30, 24_000);
}

#[test]
fn query_costs_stay_logarithmic_plus_output() {
    let device = Device::new(EmConfig::new(512, 64 * 512));
    let index = TopKIndex::new(&device, TopKConfig::default());
    let pts = random_points(5, 50_000);
    index.bulk_build(&pts).unwrap();
    // Small-k queries: cost should be a few dozen blocks, far below a range
    // scan of ~10k points (which would be hundreds of blocks at 256/block).
    let mut worst = 0;
    for i in 0..20u64 {
        device.drop_cache();
        let (res, d) = device.measure(|| index.query(i * 1000, i * 1000 + 30_000, 10).unwrap());
        assert!(!res.is_empty());
        worst = worst.max(d.total());
    }
    assert!(
        worst <= 120,
        "small-k query took {worst} I/Os; expected O(log_B n + k/B)"
    );
    // The naive structure must scan the range: build it and compare.
    let naive_dev = Device::new(EmConfig::new(512, 64 * 512));
    let naive = baselines::NaiveTopK::new(&naive_dev, "naive");
    naive.bulk_build(&pts).unwrap();
    naive_dev.drop_cache();
    let (_, naive_cost) = naive_dev.measure(|| naive.query(0, 90_000, 10).unwrap());
    assert!(
        naive_cost.total() > worst,
        "index ({worst} I/Os) should beat the naive scan ({} I/Os)",
        naive_cost.total()
    );
}

#[test]
fn global_rebuild_keeps_answers_correct_as_n_doubles() {
    let device = Device::new(EmConfig::new(256, 256 * 256));
    let index = TopKIndex::new(&device, TopKConfig::for_tests());
    let mut oracle = Oracle::new();
    // Grow from empty to 6000 points (several doublings → several rebuilds).
    let pts = random_points(13, 6_000);
    for (i, &p) in pts.iter().enumerate() {
        index.insert(p).unwrap();
        oracle.insert(p);
        if i % 2000 == 1999 {
            check_many_queries(&index, &oracle, i as u64, 10, 18_000);
        }
    }
    // Shrink back below a quarter (another rebuild).
    for &p in pts.iter().take(5_000) {
        assert!(index.delete(p).unwrap());
        oracle.delete(p);
    }
    check_many_queries(&index, &oracle, 99, 20, 18_000);
}
