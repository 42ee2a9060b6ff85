//! Wall-clock bench backing experiments E1/E2: latency and throughput of
//! top-k queries as `n` and `k` grow (the I/O counts themselves are
//! produced by the `exp_query_vs_n` / `exp_query_vs_k` binaries).
//!
//! Timed explicitly (a handful of samples, mean reported) so every number
//! also lands in `BENCH_query_scaling.json` when `--save-json` is passed —
//! see README "Benchmark JSON export".

use std::time::Instant;

use emsim::Device;
use topk_bench::json::JsonRow;
use topk_bench::{build_index, build_serving, small_machine, uniform_points};
use topk_core::{RankedIndex, ShardedTopK, SmallKEngine};
use workload::{Query, QueryGen};

const SAMPLES: usize = 10;

/// Mean queries/sec over `SAMPLES` timed passes of the whole query list
/// (one warm-up pass first, as the criterion shim does).
fn queries_per_sec(index: &dyn RankedIndex, queries: &[Query]) -> f64 {
    let run = || {
        for q in queries {
            std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
        }
    };
    run();
    let start = Instant::now();
    for _ in 0..SAMPLES {
        run();
    }
    (SAMPLES * queries.len()) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let mut rows: Vec<JsonRow> = Vec::new();

    println!("query_scaling/topk_k10 — n sweep at k = 10, 10% selectivity");
    println!("{:>12} {:>16} {:>16}", "n", "queries/sec", "us/query");
    for &n in &[1usize << 13, 1 << 15, 1 << 17] {
        let pts = uniform_points(7, n);
        let index = build_index(small_machine(), SmallKEngine::Polylog, 64, &pts);
        let queries = QueryGen::new(0.1, 10, 3).generate(&pts, 8);
        let qps = queries_per_sec(&index, &queries);
        println!("{n:>12} {qps:>16.0} {:>16.1}", 1e6 / qps);
        rows.push(
            JsonRow::new("topk_k10", "queries_per_sec", qps)
                .topology("single")
                .threads(1)
                .param(format!("n={n}")),
        );
    }

    // Dense k sweep at fixed n (every power of two through Theorem 1's
    // small-k → large-k crossover at l = 128): adjacent steps make a
    // residual k-cliff visible as a throughput drop between neighbours,
    // which is what the CI perf-sanity gate checks. `topk_by_k` is
    // `TheoremOne` (the E2 reproduction), `serving_by_k` the same sweep on
    // the serving index, whose pilot drain serves every k, and
    // `sharded_by_k` the same points on a 4-shard `ShardedTopK`, timed on
    // the ranges that cross a shard boundary: one merged pull over the
    // overlapping shards' drains per query.
    let pts = uniform_points(11, 1 << 15);
    let theorem_one = build_index(small_machine(), SmallKEngine::Polylog, 128, &pts);
    let serving = build_serving(small_machine(), &pts);
    let sharded = ShardedTopK::builder()
        .device(&Device::new(small_machine()))
        .expected_n(pts.len())
        .shards(4)
        .build_sharded()
        .expect("bench index parameters are valid");
    sharded.bulk_build(&pts).expect("distinct points");
    let builds: [(&str, &str, &dyn RankedIndex); 3] = [
        ("topk_by_k", "single", &theorem_one),
        ("serving_by_k", "single", &serving),
        ("sharded_by_k", "sharded-4", &sharded),
    ];
    for (scenario, topology, index) in builds {
        println!("\nquery_scaling/{scenario} — k sweep at n = 32768, 25% selectivity");
        println!("{:>12} {:>16} {:>16}", "k", "queries/sec", "us/query");
        for &k in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let mut queries = QueryGen::new(0.25, k, 5).generate(&pts, 8);
            if topology != "single" {
                queries.retain(|q| sharded.overlapping_shards(q.x1, q.x2) > 1);
            }
            let qps = queries_per_sec(index, &queries);
            println!("{k:>12} {qps:>16.0} {:>16.1}", 1e6 / qps);
            rows.push(
                JsonRow::new(scenario, "queries_per_sec", qps)
                    .topology(topology)
                    .threads(1)
                    .param(format!("k={k}")),
            );
        }
    }

    topk_bench::json::save_if_requested("query_scaling", &rows);
}
