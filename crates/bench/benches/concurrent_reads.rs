//! Multi-threaded smoke benchmark: read-side scaling of the concurrent index,
//! the lock-amortization win of batched writers, and the multi-writer
//! goodput win of range sharding.
//!
//! Part 1 spawns 1, 2, 4 and 8 query threads against one shared one-shard
//! [`TopK`] handle and reports wall-clock throughput: queries take their own
//! stripe of the shard's striped read lock and only contend on the device's
//! pool shards, so throughput should grow with the thread count.
//!
//! Part 2 measures the *mixed* workload: a fixed job of queries plus an
//! update stream, committed first point-wise (one write-lock acquisition and
//! one rebuild check per op), then as [`UpdateBatch`]es of 64 and 1024 ops
//! through [`ShardedTopK::apply`](topk_core::ShardedTopK::apply) — one acquisition per batch, batch-wide
//! validation (one `O(n/B)` scan instead of per-op descents), and, for
//! batches that rewrite a sizable fraction of the set, the paper's global
//! rebuild in place of per-op maintenance. The whole-workload queries/sec is
//! the amortization number the API redesign claims — measured here, not
//! asserted.
//!
//! Part 3 is the sharded multi-writer scenario: a fixed job of batched
//! updates over disjoint coordinate territories, committed by 1, 2, 4 and 8
//! writer threads against (a) a one-shard [`TopK`] handle, where every
//! batch serialises on one write lock, and (b) a handle with one
//! shard per territory, where disjoint-territory batches take disjoint
//! shard locks and commit in parallel. The updates/sec ratio at ≥ 4 threads
//! is the write-scaling number the sharding tentpole claims.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use topk_bench::json::JsonRow;
use topk_bench::{small_machine, uniform_points};
use topk_core::{Point, QueryRequest, RankedIndex, TopK, UpdateBatch, UpdateOp};
use workload::QueryGen;

/// Build a one-shard index preloaded with the first `n` of `n + extra`
/// generated points; returns (index, preloaded, fresh) where `fresh` is the
/// collision-free update stream. Query sets are generated per reader thread
/// by the harnesses below — a shared set would measure stride overlap and
/// harness serialization, not the index.
fn build(n: usize, extra: usize) -> (TopK, Vec<Point>, Vec<Point>) {
    let device = emsim::Device::new(small_machine());
    let index = TopK::builder()
        .device(&device)
        .expected_n(n + extra)
        .shards(1)
        .build_auto()
        .expect("bench parameters are valid");
    let all = uniform_points(17, n + extra);
    index.bulk_build(&all[..n]).expect("distinct points");
    let (preloaded, fresh) = all.split_at(n);
    (index, preloaded.to_vec(), fresh.to_vec())
}

/// The query set reader thread `t` owns: same distribution for every
/// thread, a distinct seed per thread so threads neither share the backing
/// allocation nor walk the same coordinate sequence in lockstep.
fn reader_queries(points: &[Point], t: usize) -> Vec<workload::Query> {
    QueryGen::new(0.05, 10, 23 + 1000 * t as u64).generate(points, 256)
}

/// Read-side scaling measurement, fixed-window style: every thread owns its
/// seeded query set, a barrier aligns the start (thread spawn cost stays
/// outside the window), and each thread loops its queries until the window
/// elapses — the job grows with the thread count instead of splitting a
/// fixed 256-query job into ever-smaller slivers (the previous harness — at
/// 8 threads it timed 32 queries per thread, mostly measuring spawn
/// overhead). Shared with the `perf_sanity` CI gate via
/// [`topk_bench::read_qps`].
fn run_readers(index: &TopK, points: &[Point], threads: usize) -> f64 {
    topk_bench::read_qps(index, points, threads, Duration::from_millis(300))
}

/// A fixed mixed workload: 4 readers each serve a fixed quota of queries
/// while one writer commits the same `updates`-op stream (alternating
/// insert/delete) in batches of `batch_size`. Returns queries/sec over the
/// time to finish *everything* — the system-goodput number, where the cost
/// of taking the write lock once per point (4096 contended acquisitions,
/// each draining in-flight readers) shows up directly.
fn run_mixed(n: usize, updates: usize, queries_per_reader: usize, batch_size: usize) -> f64 {
    let (index, preloaded, fresh) = build(n, updates);
    // Alternate inserting a fresh point and deleting a preloaded one, so the
    // stream exercises both update paths and the index size stays stable.
    let ops: Vec<UpdateOp> = (0..updates)
        .map(|i| {
            if i % 2 == 0 {
                UpdateOp::Insert(fresh[i])
            } else {
                UpdateOp::Delete(preloaded[i])
            }
        })
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let index = &index;
        let ops = &ops;
        scope.spawn(move || {
            for chunk in ops.chunks(batch_size) {
                let batch = UpdateBatch::from_ops(chunk.iter().copied());
                index.apply(&batch).expect("collision-free update stream");
            }
        });
        for t in 0..4usize {
            let queries = reader_queries(&preloaded, t);
            scope.spawn(move || {
                for i in 0..queries_per_reader {
                    let q = &queries[i % queries.len()];
                    std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
                }
            });
        }
    });
    (4 * queries_per_reader) as f64 / start.elapsed().as_secs_f64()
}

/// Part 3 workload: `writers` threads each commit their own territories'
/// batched update streams (alternating fresh inserts and preload deletes,
/// batches of 256) against `index`. All territories are always processed —
/// the thread count only changes how much parallelism is available — so the
/// job is fixed and updates/sec is comparable across rows. Returns
/// updates/sec over the time to drain everything.
fn run_multi_writer(
    index: &dyn RankedIndex,
    territory_ops: &[Vec<UpdateOp>],
    writers: usize,
) -> f64 {
    const BATCH: usize = 256;
    let total_ops: usize = territory_ops.iter().map(Vec::len).sum();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            scope.spawn(move || {
                for ops in territory_ops.iter().skip(w).step_by(writers) {
                    for chunk in ops.chunks(BATCH) {
                        let batch = UpdateBatch::from_ops(chunk.iter().copied());
                        index.apply(&batch).expect("territory streams are disjoint");
                    }
                }
            });
        }
    });
    total_ops as f64 / start.elapsed().as_secs_f64()
}

/// Build the part 3 fixture: `territories` disjoint coordinate territories,
/// half of each preloaded, plus the per-territory alternating
/// insert/delete op streams over the other half.
fn multi_writer_fixture(territories: usize, per: usize) -> (Vec<Point>, Vec<Vec<UpdateOp>>) {
    let (_span, terr) = workload::territories(83, territories, 2 * per);
    let preload: Vec<Point> = terr.iter().flat_map(|t| t[..per].to_vec()).collect();
    let ops = terr
        .iter()
        .map(|t| {
            (0..per)
                .map(|i| {
                    if i % 2 == 0 {
                        UpdateOp::Insert(t[per + i])
                    } else {
                        UpdateOp::Delete(t[i])
                    }
                })
                .collect()
        })
        .collect();
    (preload, ops)
}

/// How the part 4 slow paginating reader consumes its pages.
#[derive(Clone, Copy, PartialEq)]
enum SlowReader {
    /// No reader at all: the writer-goodput baseline.
    None,
    /// The pre-cursor style: hold the read guard for the whole pagination
    /// and page out of one eager answer, sleeping between pages *with the
    /// guard held* — every writer blocks until the last page is consumed.
    GuardHeld,
    /// The cursor read plane: one read-lock acquisition per page, the
    /// between-page idle time costs writers nothing.
    Cursor,
}

/// Part 4 workload: one writer commits a fixed job of batched updates while
/// a slow dashboard-style reader paginates `pages × page` results, idling
/// `pause` between pages. Returns the writer's updates/sec — the goodput
/// number the cursor redesign claims back from the guard-held reader.
fn run_slow_reader_goodput(
    n: usize,
    updates: usize,
    batch: usize,
    pages: usize,
    page: usize,
    pause: Duration,
    style: SlowReader,
) -> f64 {
    let (index, preloaded, fresh) = build(n, updates);
    let ops: Vec<UpdateOp> = (0..updates)
        .map(|i| {
            if i % 2 == 0 {
                UpdateOp::Insert(fresh[i])
            } else {
                UpdateOp::Delete(preloaded[i])
            }
        })
        .collect();
    let k = pages * page;
    // The writer starts once the reader has taken its guard or opened its
    // cursor, so which thread wins the first lock cannot decide the row.
    let readers = usize::from(style != SlowReader::None);
    let started = &Barrier::new(1 + readers);
    std::thread::scope(|scope| {
        let writer = {
            let index = index.clone();
            let ops = &ops;
            scope.spawn(move || {
                started.wait();
                let start = Instant::now();
                for chunk in ops.chunks(batch) {
                    let batch = UpdateBatch::from_ops(chunk.iter().copied());
                    index.apply(&batch).expect("collision-free update stream");
                }
                start.elapsed()
            })
        };
        match style {
            SlowReader::None => {}
            SlowReader::GuardHeld => {
                let index = index.clone();
                scope.spawn(move || {
                    let guard = index.read();
                    started.wait();
                    let answer = guard.query(0, u64::MAX, k).expect("valid query");
                    for page in answer.chunks(page) {
                        std::hint::black_box(page);
                        // The dashboard renders… with the guard still held.
                        std::thread::sleep(pause);
                    }
                });
            }
            SlowReader::Cursor => {
                let index = index.clone();
                scope.spawn(move || {
                    let mut cursor = index
                        .cursor(QueryRequest::range(0, u64::MAX).top(k).page_size(page))
                        .expect("valid request");
                    started.wait();
                    for _ in 0..pages {
                        let page = cursor.next_batch().expect("per-round cursor");
                        std::hint::black_box(&page);
                        if page.is_empty() {
                            break;
                        }
                        // Idle with no lock held: writers proceed.
                        std::thread::sleep(pause);
                    }
                });
            }
        }
        let elapsed = writer.join().expect("writer thread");
        updates as f64 / elapsed.as_secs_f64()
    })
}

fn main() {
    // `--save-json` collects every measured number into
    // BENCH_concurrent_reads.json (README "Benchmark JSON export").
    let mut rows: Vec<JsonRow> = Vec::new();
    let n = 1 << 15;
    let (index, preloaded, _) = build(n, 0);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "read-side scaling, n = {n}, 256 owned queries per thread looped for a \
         300 ms window, {cores} core(s) available"
    );
    println!("(speedup is capped by the core count: expect ~1.0x on a 1-core host)\n");
    println!("{:>8} {:>16}", "threads", "queries/sec");
    let mut base = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let qps = run_readers(&index, &preloaded, threads);
        if threads == 1 {
            base = qps;
        }
        println!("{threads:>8} {qps:>16.0}   ({:.2}x)", qps / base);
        rows.push(
            JsonRow::new("read_scaling", "queries_per_sec", qps)
                .topology("sharded-1")
                .threads(threads)
                .param(format!("n={n}")),
        );
    }

    // Mixed batched-writer scenario: the same fixed workload committed with
    // different batch sizes. Larger batches amortize the write lock, the
    // validation descents and — once a batch rewrites ≥ 1/16 of the set —
    // the structure maintenance itself (one global rebuild instead of
    // per-op descents), so the whole mixed workload finishes faster
    // (batch = 1 is the seed's per-point locking, via apply).
    let hot_n = 8192;
    let updates = 8192;
    let queries_per_reader = 4096;
    println!(
        "\nmixed goodput: 4 readers × {queries_per_reader} queries + 1 writer × {updates} updates"
    );
    println!("{:>10} {:>24}", "batch", "queries/sec (workload)");
    let mut qps_batch1 = 0.0;
    for batch_size in [1usize, 64, 1024] {
        let qps = run_mixed(hot_n, updates, queries_per_reader, batch_size);
        if batch_size == 1 {
            qps_batch1 = qps;
        }
        println!(
            "{batch_size:>10} {qps:>24.0}   ({:.2}x vs batch=1)",
            qps / qps_batch1
        );
        rows.push(
            JsonRow::new("mixed_goodput", "queries_per_sec", qps)
                .topology("sharded-1")
                .threads(5)
                .param(format!("batch={batch_size}")),
        );
    }

    // Sharded multi-writer scenario: the same fixed job of disjoint
    // territory batches, drained by 1–8 writers, against one shard and
    // against one-shard-per-territory range sharding. One shard serialises
    // every batch regardless of thread count; the sharded index
    // commits disjoint-shard batches in parallel, so its goodput should
    // rise with writers until the core count or the device's pool mutex
    // saturates (expect ~1.0x on a 1-core host).
    const TERRITORIES: usize = 8;
    const PER_TERRITORY: usize = 4096;
    let (preload, territory_ops) = multi_writer_fixture(TERRITORIES, PER_TERRITORY);
    println!(
        "\nmulti-writer batch goodput: {TERRITORIES} territories × {PER_TERRITORY} updates, \
         batches of 256"
    );
    println!(
        "{:>8} {:>20} {:>20} {:>10}",
        "writers", "1 shard (upd/s)", "sharded (upd/s)", "ratio"
    );
    for writers in [1usize, 2, 4, 8] {
        let device = emsim::Device::new(small_machine());
        let one_shard = TopK::builder()
            .device(&device)
            .expected_n(preload.len() * 2)
            .shards(1)
            .build_auto()
            .expect("bench parameters are valid");
        one_shard.bulk_build(&preload).expect("distinct points");
        let one_shard_ups = run_multi_writer(&one_shard, &territory_ops, writers);

        let device = emsim::Device::new(small_machine());
        let sharded = TopK::builder()
            .device(&device)
            .expected_n(preload.len() * 2)
            .shards(TERRITORIES)
            .build_auto()
            .expect("bench parameters are valid");
        sharded.bulk_build(&preload).expect("distinct points");
        let sharded_ups = run_multi_writer(&sharded, &territory_ops, writers);

        println!(
            "{writers:>8} {one_shard_ups:>20.0} {sharded_ups:>20.0} {:>9.2}x",
            sharded_ups / one_shard_ups
        );
        rows.push(
            JsonRow::new("multi_writer", "updates_per_sec", one_shard_ups)
                .topology("sharded-1")
                .threads(writers)
                .param("batch=256"),
        );
        rows.push(
            JsonRow::new("multi_writer", "updates_per_sec", sharded_ups)
                .topology(&format!("sharded-{TERRITORIES}"))
                .threads(writers)
                .param("batch=256"),
        );
    }

    // Slow-paginating-reader scenario: one writer's fixed batched job racing
    // a dashboard that consumes 40 pages of 16 results with a 10 ms render
    // pause between pages. Holding the read guard across the pauses (the
    // only option before the cursor read plane) blocks the writer for the
    // dashboard's whole lifetime; the owned cursor re-acquires the lock per
    // page, so the writer's goodput should sit within ~10% of the no-reader
    // baseline.
    let slow_n = 8192;
    let slow_updates = 8192;
    let (pages, page, pause) = (40usize, 16usize, Duration::from_millis(10));
    println!(
        "\nwriter goodput vs a slow paginating reader: 1 writer × {slow_updates} updates \
         (batches of 64), reader = {pages} pages × {page} results, {pause:?} idle per page"
    );
    println!(
        "{:>22} {:>16} {:>16}",
        "reader", "writer upd/s", "vs baseline"
    );
    let mut baseline = 0.0;
    for (label, style) in [
        ("none (baseline)", SlowReader::None),
        ("guard-held reader", SlowReader::GuardHeld),
        ("per-round cursor", SlowReader::Cursor),
    ] {
        let ups = run_slow_reader_goodput(slow_n, slow_updates, 64, pages, page, pause, style);
        if style == SlowReader::None {
            baseline = ups;
        }
        println!("{label:>22} {ups:>16.0} {:>15.2}x", ups / baseline);
        rows.push(
            JsonRow::new("slow_reader_goodput", "updates_per_sec", ups)
                .topology("sharded-1")
                .threads(2)
                .param(format!(
                    "reader={}",
                    label.split(' ').next().unwrap_or(label)
                )),
        );
    }

    topk_bench::json::save_if_requested("concurrent_reads", &rows);
}
