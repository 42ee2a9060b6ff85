//! Wall-clock bench backing experiments E1/E2: throughput of top-k queries
//! as `n` and `k` grow (the I/O counts themselves are produced by the
//! `exp_query` binary).
//!
//! Every (build, parameter) cell is the best of [`PASSES`] timed windows of
//! at least [`MIN_WINDOW`] each, taken in [`PASSES`] interleaved passes that
//! each visit every cell once: a shared host's speed phases last seconds,
//! so they land on every cell of a pass instead of on single rows. With
//! `--save-json` every number also lands in `BENCH_query_scaling.json` —
//! see README "Benchmark JSON export".

use std::time::{Duration, Instant};

use emsim::Device;
use topk_bench::json::JsonRow;
use topk_bench::{build_index, build_serving, small_machine, uniform_points};
use topk_core::{RankedIndex, SmallKEngine, TopK};
use workload::{Query, QueryGen};

const PASSES: usize = 5;
const MIN_WINDOW: Duration = Duration::from_millis(60);

/// One row of the output: a build answering one query list.
struct Cell<'a> {
    scenario: &'static str,
    topology: &'static str,
    param: String,
    index: &'a dyn RankedIndex,
    queries: Vec<Query>,
    best_qps: f64,
}

/// Queries/sec over one window of whole passes over `queries`, at least
/// [`MIN_WINDOW`] long.
fn window_qps(index: &dyn RankedIndex, queries: &[Query]) -> f64 {
    let start = Instant::now();
    let mut passes = 0usize;
    while start.elapsed() < MIN_WINDOW {
        for q in queries {
            std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
        }
        passes += 1;
    }
    (passes * queries.len()) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // n sweep at k = 10, 10% selectivity, on `TheoremOne`.
    let n_sweep: Vec<_> = [1usize << 13, 1 << 15, 1 << 17]
        .into_iter()
        .map(|n| {
            let pts = uniform_points(7, n);
            let index = build_index(small_machine(), SmallKEngine::Polylog, 64, &pts);
            (n, index, QueryGen::new(0.1, 10, 3).generate(&pts, 8))
        })
        .collect();

    // Dense k sweep at fixed n, 25% selectivity (every power of two through
    // Theorem 1's small-k → large-k crossover at l = 128): adjacent steps
    // make a residual k-cliff visible as a throughput drop between
    // neighbours, which is what the CI perf-sanity gate checks. `topk_by_k`
    // is `TheoremOne` (the E2 reproduction), `serving_by_k` the same sweep
    // on the serving index, whose pilot drain serves every k, and
    // `sharded_by_k` the same points on a 4-shard `TopK` handle, timed on
    // the ranges that cross a shard boundary: one merged pull over the
    // overlapping shards' drains per query.
    let pts = uniform_points(11, 1 << 15);
    let theorem_one = build_index(small_machine(), SmallKEngine::Polylog, 128, &pts);
    let serving = build_serving(small_machine(), &pts);
    let sharded = TopK::builder()
        .device(&Device::new(small_machine()))
        .expected_n(pts.len())
        .shards(4)
        .build_auto()
        .expect("bench index parameters are valid");
    sharded.bulk_build(&pts).expect("distinct points");

    let mut cells: Vec<Cell<'_>> = n_sweep
        .iter()
        .map(|(n, index, queries)| Cell {
            scenario: "topk_k10",
            topology: "bare",
            param: format!("n={n}"),
            index,
            queries: queries.clone(),
            best_qps: 0.0,
        })
        .collect();
    let builds: [(&str, &str, &dyn RankedIndex); 3] = [
        ("topk_by_k", "bare", &theorem_one),
        ("serving_by_k", "bare", &serving),
        ("sharded_by_k", "sharded-4", &sharded),
    ];
    for (scenario, topology, index) in builds {
        for k in (0..=12).map(|e| 1usize << e) {
            let mut queries = QueryGen::new(0.25, k, 5).generate(&pts, 8);
            if topology == "sharded-4" {
                queries.retain(|q| sharded.overlapping_shards(q.x1, q.x2) > 1);
            }
            cells.push(Cell {
                scenario,
                topology,
                param: format!("k={k}"),
                index,
                queries,
                best_qps: 0.0,
            });
        }
    }

    for _ in 0..PASSES {
        for cell in &mut cells {
            cell.best_qps = cell.best_qps.max(window_qps(cell.index, &cell.queries));
        }
    }

    let mut rows: Vec<JsonRow> = Vec::new();
    let mut scenario = "";
    for cell in &cells {
        if cell.scenario != scenario {
            scenario = cell.scenario;
            println!("\nquery_scaling/{scenario} ({})", cell.topology);
            println!("{:>12} {:>16} {:>16}", "param", "queries/sec", "us/query");
        }
        let qps = cell.best_qps;
        println!("{:>12} {qps:>16.0} {:>16.1}", cell.param, 1e6 / qps);
        rows.push(
            JsonRow::new(cell.scenario, "queries_per_sec", qps)
                .topology(cell.topology)
                .threads(1)
                .param(&cell.param),
        );
    }

    topk_bench::json::save_if_requested("query_scaling", &rows);
}
