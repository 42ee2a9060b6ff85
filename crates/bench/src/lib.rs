//! # topk-bench — the experiment harness
//!
//! Shared plumbing for the experiment binaries (`exp_*`) and the Criterion
//! benches: structure construction, per-operation I/O measurement, and
//! markdown/CSV table output. Every table and figure of EXPERIMENTS.md is
//! regenerated by one of the binaries in `src/bin/`.
//!
//! The measurement helpers are generic over [`RankedIndex`], so the same
//! code paths measure the paper's structure and the `baselines` engines.

use emsim::{Device, EmConfig};
use epst::Point;
use topk_core::{Oracle, RankedIndex, SmallKEngine, TopKIndex};
use workload::{PointGen, Query};

/// Default machine used by the experiments: 4 KiB blocks (512 words), 16 MiB
/// of memory.
pub fn default_machine() -> EmConfig {
    EmConfig::new(512, 2 * 1024 * 1024)
}

/// A smaller machine for quick runs and CI.
pub fn small_machine() -> EmConfig {
    EmConfig::new(256, 256 * 256)
}

/// Build a fresh index over `points` on a new device with `em` parameters.
pub fn build_index(em: EmConfig, engine: SmallKEngine, l: usize, points: &[Point]) -> TopKIndex {
    let device = Device::new(em);
    let index = TopKIndex::builder()
        .device(&device)
        .small_k(engine)
        .crossover_l(l)
        .expected_n(points.len().max(1))
        .build()
        .expect("bench index parameters are valid");
    index
        .bulk_build(points)
        .expect("workload points are distinct by construction");
    index
}

/// Average physical I/Os per query over `queries`, measured cold-ish (the
/// buffer pool is dropped before each query so the first touches are
/// charged). `device` must be the device `index` lives on.
pub fn avg_query_ios(device: &Device, index: &dyn RankedIndex, queries: &[Query]) -> f64 {
    device.drop_cache();
    let mut total = 0u64;
    let mut logical = 0u64;
    for q in queries {
        device.drop_cache();
        let (res, d) = device.measure(|| index.query(q.x1, q.x2, q.k));
        res.expect("bench queries are well-formed");
        total += d.total();
        logical += d.logical;
    }
    // A device-priced engine always performs logical accesses on its own
    // device; zero means the caller paired the wrong device with `index`.
    assert!(
        queries.is_empty() || logical > 0,
        "no logical accesses recorded: `device` is not the device `index` lives on"
    );
    total as f64 / queries.len().max(1) as f64
}

/// Average physical I/Os per update while inserting `points` one by one.
/// `device` must be the device `index` lives on.
pub fn avg_insert_ios(device: &Device, index: &dyn RankedIndex, points: &[Point]) -> f64 {
    let before = device.snapshot();
    for &p in points {
        index
            .insert(p)
            .expect("bench insert streams are collision-free");
    }
    let d = device.since(&before);
    assert!(
        points.is_empty() || d.logical > 0,
        "no logical accesses recorded: `device` is not the device `index` lives on"
    );
    d.total() as f64 / points.len().max(1) as f64
}

/// Verify a batch of query answers against the in-memory oracle; returns the
/// number of mismatches (must be zero — used as the E8 gate inside other
/// experiments).
pub fn verify_queries(index: &dyn RankedIndex, oracle: &Oracle, queries: &[Query]) -> usize {
    queries
        .iter()
        .filter(|q| {
            index.query(q.x1, q.x2, q.k).expect("well-formed") != oracle.query(q.x1, q.x2, q.k)
        })
        .count()
}

/// Uniform points helper shared by the experiment binaries.
pub fn uniform_points(seed: u64, n: usize) -> Vec<Point> {
    PointGen::uniform(seed).generate(n)
}

/// Aggregate queries/sec of `threads` concurrent readers over a fixed
/// wall-clock `window` — the read-scaling measurement shared by the
/// `concurrent_reads` bench and the `perf_sanity` CI gate.
///
/// Harness discipline (each clause closes a serialization bug the flat
/// pre-PR-8 `read_scaling` curve partly hid behind):
/// * every thread owns its *own* seeded query set — no shared vector, no
///   striding over one allocation;
/// * a barrier aligns the start, so thread spawn cost never lands inside
///   the timed window;
/// * each thread loops its set until the window elapses — the job grows
///   with the thread count instead of splitting a fixed quota into slivers;
/// * per-thread counts are summed and divided by the *longest* thread's
///   elapsed time (never the spawning thread's clock).
pub fn read_qps<I>(index: &I, points: &[Point], threads: usize, window: std::time::Duration) -> f64
where
    I: RankedIndex + Sync,
{
    use std::sync::Barrier;
    use std::time::Instant;
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let queries =
                    workload::QueryGen::new(0.05, 10, 23 + 1000 * t as u64).generate(points, 256);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut done = 0u64;
                    'window: loop {
                        for q in &queries {
                            std::hint::black_box(index.query(q.x1, q.x2, q.k).unwrap());
                            done += 1;
                            if start.elapsed() >= window {
                                break 'window;
                            }
                        }
                    }
                    (done, start.elapsed())
                })
            })
            .collect();
        barrier.wait();
        let mut total = 0u64;
        let mut longest = std::time::Duration::ZERO;
        for handle in handles {
            let (done, elapsed) = handle.join().expect("reader thread");
            total += done;
            longest = longest.max(elapsed);
        }
        total as f64 / longest.as_secs_f64()
    })
}

/// Machine-readable bench export: `BENCH_<name>.json` files that populate
/// the perf trajectory (one JSON object per bench run; see README
/// "Benchmark JSON export" for the format). Dependency-free by design —
/// the workspace builds offline — so the writer emits the JSON by hand.
pub mod json {
    use std::io::Write;
    use std::path::PathBuf;

    /// One measured data point of a bench run.
    #[derive(Debug, Clone)]
    pub struct JsonRow {
        /// Which scenario of the bench produced it (e.g. `read_scaling`).
        pub scenario: String,
        /// What was measured (e.g. `queries_per_sec`, `updates_per_sec`).
        pub metric: String,
        /// The measured value (op/s unless the metric says otherwise).
        pub value: f64,
        /// Serving topology under test, when one is (e.g. `sharded-8`).
        pub topology: Option<String>,
        /// Thread count of the scenario, when one applies.
        pub threads: Option<usize>,
        /// Free-form sweep parameter (e.g. `n=32768`, `batch=1024`).
        pub param: Option<String>,
    }

    impl JsonRow {
        /// A row with the mandatory fields; chain the setters for the rest.
        pub fn new(scenario: &str, metric: &str, value: f64) -> Self {
            Self {
                scenario: scenario.to_string(),
                metric: metric.to_string(),
                value,
                topology: None,
                threads: None,
                param: None,
            }
        }

        /// Tag the serving topology.
        pub fn topology(mut self, topology: &str) -> Self {
            self.topology = Some(topology.to_string());
            self
        }

        /// Tag the thread count.
        pub fn threads(mut self, threads: usize) -> Self {
            self.threads = Some(threads);
            self
        }

        /// Tag the sweep parameter.
        pub fn param(mut self, param: impl std::fmt::Display) -> Self {
            self.param = Some(param.to_string());
            self
        }
    }

    /// Whether the bench was invoked with `--save-json` (criterion-style
    /// flags pass through `cargo bench -- --save-json` since the bench
    /// targets set `harness = false`).
    pub fn save_json_requested() -> bool {
        std::env::args().any(|a| a == "--save-json")
    }

    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                '\n' => "\\n".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    }

    fn field_str(out: &mut String, key: &str, value: &Option<String>) {
        match value {
            Some(v) => out.push_str(&format!(", \"{key}\": \"{}\"", escape(v))),
            None => out.push_str(&format!(", \"{key}\": null")),
        }
    }

    /// Render the `BENCH_<name>.json` document (exposed for tests).
    pub fn render(name: &str, rows: &[JsonRow]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"bench\": \"{}\",\n  \"rows\": [\n",
            escape(name)
        ));
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scenario\": \"{}\", \"metric\": \"{}\", \"value\": {}",
                escape(&row.scenario),
                escape(&row.metric),
                if row.value.is_finite() {
                    format!("{:.3}", row.value)
                } else {
                    "null".to_string()
                }
            ));
            match row.threads {
                Some(t) => out.push_str(&format!(", \"threads\": {t}")),
                None => out.push_str(", \"threads\": null"),
            }
            field_str(&mut out, "topology", &row.topology);
            field_str(&mut out, "param", &row.param);
            out.push('}');
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` at the workspace root (found by walking up
    /// from the current directory to the first `Cargo.lock` — `cargo bench`
    /// runs bench binaries from the package directory) and return its path.
    pub fn write_bench_json(name: &str, rows: &[JsonRow]) -> std::io::Result<PathBuf> {
        let mut root = std::env::current_dir()?;
        while !root.join("Cargo.lock").exists() && root.pop() {}
        let path = root.join(format!("BENCH_{name}.json"));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(render(name, rows).as_bytes())?;
        Ok(path)
    }

    /// The bench-side epilogue: no-op unless `--save-json` was passed, in
    /// which case the rows are written and the path printed.
    pub fn save_if_requested(name: &str, rows: &[JsonRow]) {
        if !save_json_requested() {
            return;
        }
        match write_bench_json(name, rows) {
            Ok(path) => println!("\nsaved {} rows to {}", rows.len(), path.display()),
            Err(e) => eprintln!("\nfailed to write BENCH_{name}.json: {e}"),
        }
    }
}

/// Render a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str(&format!("| {} |\n", headers.join(" | ")));
    s.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        s.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::QueryGen;

    #[test]
    fn harness_builds_and_measures() {
        let pts = uniform_points(1, 3000);
        let index = build_index(small_machine(), SmallKEngine::Polylog, 64, &pts);
        let queries = QueryGen::new(0.2, 10, 3).generate(&pts, 5);
        let device = index.device().clone();
        let ios = avg_query_ios(&device, &index, &queries);
        assert!(ios > 0.0 && ios < 10_000.0);
        let oracle = Oracle::from_points(&pts);
        assert_eq!(verify_queries(&index, &oracle, &queries), 0);
        let table = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(table.contains("| a | b |"));
    }

    #[test]
    fn bench_json_renders_all_field_shapes() {
        let rows = vec![
            json::JsonRow::new("read_scaling", "queries_per_sec", 1234.5)
                .topology("sharded-1")
                .threads(4),
            json::JsonRow::new("multi_writer", "updates_per_sec", 88.0)
                .topology("sharded-8")
                .threads(8)
                .param("batch=256"),
            json::JsonRow::new("by_k", "queries_per_sec", f64::NAN).param("k=16"),
        ];
        let doc = json::render("concurrent_reads", &rows);
        assert!(doc.starts_with("{\n  \"bench\": \"concurrent_reads\""));
        assert!(doc.contains("\"scenario\": \"read_scaling\""));
        assert!(doc.contains("\"value\": 1234.500"));
        assert!(doc.contains("\"threads\": 8"));
        assert!(doc.contains("\"topology\": \"sharded-8\""));
        assert!(doc.contains("\"param\": \"batch=256\""));
        // Optional fields are explicit nulls; NaN degrades to null.
        assert!(doc.contains("\"topology\": null"));
        assert!(doc.contains("\"value\": null"));
        // Balanced braces/brackets (a cheap well-formedness check without a
        // JSON dependency).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn harness_is_generic_over_engines() {
        let pts = uniform_points(2, 1000);
        let em = small_machine();
        let device = Device::new(em);
        let naive = baselines::NaiveTopK::new(&device, "naive");
        naive.bulk_build(&pts).unwrap();
        let queries = QueryGen::new(0.2, 5, 7).generate(&pts, 4);
        let oracle = Oracle::from_points(&pts);
        assert_eq!(verify_queries(&naive, &oracle, &queries), 0);
        assert!(avg_query_ios(&device, &naive, &queries) > 0.0);
    }
}
