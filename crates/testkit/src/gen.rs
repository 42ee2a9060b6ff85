//! Seeded trace and schedule generators.
//!
//! One seed determines everything: the point distribution, the operation
//! mix, cursor session shapes and (for concurrent runs) the per-writer
//! schedules. Harnesses sweep `workload::PointDistribution` ×
//! [`Topology`](crate::Topology) × seed and replay the generated traces, so
//! a failing case is fully described by `(distribution, topology, seed)` —
//! and by the shrunk `.trace` file the shrinker leaves behind.

use epst::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::{PointDistribution, PointGen};

use crate::trace::{BatchItem, Trace, TraceOp};

/// The `k` palette the generators draw queries from: both sides of 64, the
/// pilot drain's bulk-pull threshold, which one-shot queries and fan-outs
/// cross at `k`.
const K_PALETTE: [usize; 9] = [1, 2, 7, 31, 63, 64, 65, 200, 1000];

/// Relative weights of the operation classes in a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Eager queries (answer + count checked against the spec).
    pub query: f64,
    /// Point inserts of fresh, collision-free points.
    pub insert: f64,
    /// Point deletes of random live points.
    pub delete: f64,
    /// Atomic batches mixing deletes and fresh inserts.
    pub batch: f64,
    /// Cursor traffic (open / next / token-round-trip resume).
    pub cursor: f64,
    /// Rebalance hints (sharded topologies repartition; others skip).
    pub rebalance: f64,
}

impl OpMix {
    /// The default serving mix: query-heavy with all update paths hot.
    pub fn serving() -> Self {
        Self {
            query: 0.34,
            insert: 0.20,
            delete: 0.14,
            batch: 0.12,
            cursor: 0.17,
            rebalance: 0.03,
        }
    }

    /// Delete-heavy: exercises refill/carry paths and cursor reads over a
    /// shrinking set (the regime that exposed both PR 3 ePST seed bugs).
    pub fn delete_heavy() -> Self {
        Self {
            query: 0.25,
            insert: 0.10,
            delete: 0.35,
            batch: 0.10,
            cursor: 0.18,
            rebalance: 0.02,
        }
    }

    /// Cursor-heavy: long paginations with writes interleaved between
    /// rounds (the §6 consistency contract under stress).
    pub fn cursor_heavy() -> Self {
        Self {
            query: 0.15,
            insert: 0.15,
            delete: 0.15,
            batch: 0.05,
            cursor: 0.48,
            rebalance: 0.02,
        }
    }

    fn total(&self) -> f64 {
        self.query + self.insert + self.delete + self.batch + self.cursor + self.rebalance
    }
}

/// Everything that determines a generated trace.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Coordinate/score distribution of the point universe.
    pub distribution: PointDistribution,
    /// Points loaded (as batches) before the mixed phase.
    pub preload: usize,
    /// Mixed operations after the preload.
    pub ops: usize,
    /// The seed (derive it from a [`crate::Seed`] so repro lines work).
    pub seed: u64,
    /// The operation mix.
    pub mix: OpMix,
}

impl TraceSpec {
    /// The harness default: `preload` points, then `ops` serving-mix
    /// operations, under the given distribution and seed.
    pub fn new(distribution: PointDistribution, seed: u64) -> Self {
        Self {
            distribution,
            preload: 600,
            ops: 400,
            seed,
            mix: OpMix::serving(),
        }
    }
}

/// Generate the deterministic trace `spec` describes. The preload phase
/// arrives as atomic batches of 128 (exercising the batch commit path on
/// every topology); the mixed phase draws from the op mix. All generated
/// operations are valid at their point in the trace — inserts are fresh,
/// deletes target live points — so the replayer applies everything.
pub fn generate(spec: &TraceSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let universe = PointGen {
        distribution: spec.distribution,
        seed: spec.seed ^ 0x9E37_79B9,
    }
    .generate(spec.preload + spec.ops);
    let (preload, fresh) = universe.split_at(spec.preload);
    let x_max = universe.iter().map(|p| p.x).max().unwrap_or(1) + 2;

    let mut ops: Vec<TraceOp> = Vec::with_capacity(spec.preload / 128 + spec.ops + 2);
    for chunk in preload.chunks(128) {
        ops.push(TraceOp::Batch(
            chunk.iter().map(|&p| BatchItem::Insert(p)).collect(),
        ));
    }

    let mut live: Vec<Point> = preload.to_vec();
    let mut fresh_cursor = 0usize;
    let mut next_cursor_id = 0u32;
    // Cursor ids with fetches plausibly remaining (sessions interleave).
    let mut open_cursors: Vec<u32> = Vec::new();
    let total = spec.mix.total();
    for _ in 0..spec.ops {
        let mut roll: f64 = rng.gen::<f64>() * total;
        roll -= spec.mix.query;
        if roll < 0.0 {
            let a = rng.gen_range(0..x_max);
            let b = rng.gen_range(a..=x_max);
            let k = K_PALETTE[rng.gen_range(0..K_PALETTE.len())];
            ops.push(TraceOp::Query { x1: a, x2: b, k });
            continue;
        }
        roll -= spec.mix.insert;
        if roll < 0.0 {
            if fresh_cursor < fresh.len() {
                let p = fresh[fresh_cursor];
                fresh_cursor += 1;
                live.push(p);
                ops.push(TraceOp::Insert(p));
            }
            continue;
        }
        roll -= spec.mix.delete;
        if roll < 0.0 {
            if !live.is_empty() {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(TraceOp::Delete(victim));
            }
            continue;
        }
        roll -= spec.mix.batch;
        if roll < 0.0 {
            let mut items = Vec::new();
            let dels = rng.gen_range(0..=8usize.min(live.len()));
            for _ in 0..dels {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                items.push(BatchItem::Delete(victim));
            }
            for _ in 0..rng.gen_range(1..=12usize) {
                if fresh_cursor >= fresh.len() {
                    break;
                }
                let p = fresh[fresh_cursor];
                fresh_cursor += 1;
                live.push(p);
                items.push(BatchItem::Insert(p));
            }
            if !items.is_empty() {
                ops.push(TraceOp::Batch(items));
            }
            continue;
        }
        roll -= spec.mix.cursor;
        if roll < 0.0 {
            if open_cursors.len() < 2 && (open_cursors.is_empty() || rng.gen_bool(0.4)) {
                let id = next_cursor_id;
                next_cursor_id += 1;
                let a = rng.gen_range(0..x_max / 2);
                let b = rng.gen_range(a..=x_max);
                ops.push(TraceOp::CursorOpen {
                    id,
                    x1: a,
                    x2: b,
                    k: rng.gen_range(10..=200),
                    page: [3usize, 7, 16, 32][rng.gen_range(0usize..4)],
                    strict: rng.gen_bool(0.25),
                });
                open_cursors.push(id);
            } else {
                let slot = rng.gen_range(0..open_cursors.len());
                let id = open_cursors[slot];
                if rng.gen_bool(0.15) {
                    ops.push(TraceOp::CursorResume { id });
                } else {
                    ops.push(TraceOp::CursorNext { id });
                    // Retire long sessions so ids rotate.
                    if rng.gen_bool(0.2) {
                        open_cursors.swap_remove(slot);
                    }
                }
            }
            continue;
        }
        ops.push(TraceOp::RebalanceHint);
    }
    Trace::new(ops)
}

/// A deterministic multi-writer schedule for recorded-history runs: each
/// writer owns one disjoint coordinate territory (so schedules commute and
/// every interleaving is valid), readers query anywhere.
#[derive(Debug, Clone)]
pub struct ConcurrentPlan {
    /// Points bulk-built before the threads start.
    pub preload: Vec<Point>,
    /// Per-writer operation sequences (inserts, deletes and batches confined
    /// to the writer's territory).
    pub writer_ops: Vec<Vec<TraceOp>>,
    /// Per-reader `(x1, x2, k)` query sequences.
    pub reader_queries: Vec<Vec<(u64, u64, usize)>>,
}

/// Generate a [`ConcurrentPlan`]: `writers` disjoint territories of
/// `per_writer` preloaded points each, `ops_per_writer` mixed update ops per
/// writer, and `readers` × `queries_per_reader` spanning queries.
pub fn generate_concurrent(
    seed: u64,
    writers: usize,
    per_writer: usize,
    ops_per_writer: usize,
    readers: usize,
    queries_per_reader: usize,
) -> ConcurrentPlan {
    let (span, territories) = workload::territories(seed, writers, 2 * per_writer);
    let preload: Vec<Point> = territories
        .iter()
        .flat_map(|t| t[..per_writer].to_vec())
        .collect();
    let x_max = span * writers as u64;
    let writer_ops = territories
        .iter()
        .enumerate()
        .map(|(w, points)| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x77 + w as u64 * 0x9E37));
            let mut live: Vec<Point> = points[..per_writer].to_vec();
            let mut fresh: Vec<Point> = points[per_writer..].to_vec();
            let mut ops = Vec::with_capacity(ops_per_writer);
            for _ in 0..ops_per_writer {
                let roll: f64 = rng.gen();
                if roll < 0.4 && !fresh.is_empty() {
                    let p = fresh.pop().unwrap();
                    live.push(p);
                    ops.push(TraceOp::Insert(p));
                } else if roll < 0.7 && !live.is_empty() {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    ops.push(TraceOp::Delete(victim));
                } else {
                    let mut items = Vec::new();
                    for _ in 0..rng.gen_range(1..=6usize) {
                        if rng.gen_bool(0.5) && !live.is_empty() {
                            let victim = live.swap_remove(rng.gen_range(0..live.len()));
                            items.push(BatchItem::Delete(victim));
                        } else if let Some(p) = fresh.pop() {
                            live.push(p);
                            items.push(BatchItem::Insert(p));
                        }
                    }
                    if items.is_empty() {
                        continue;
                    }
                    ops.push(TraceOp::Batch(items));
                }
            }
            ops
        })
        .collect();
    let reader_queries = (0..readers)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x4EAD + r as u64 * 0x51));
            (0..queries_per_reader)
                .map(|_| {
                    let a = rng.gen_range(0..x_max);
                    let b = rng.gen_range(a..=x_max);
                    (a, b, rng.gen_range(1usize..128))
                })
                .collect()
        })
        .collect();
    ConcurrentPlan {
        preload,
        writer_ops,
        reader_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use crate::topology::Topology;

    #[test]
    fn generation_is_deterministic() {
        let spec = TraceSpec::new(PointDistribution::Uniform, 7);
        assert_eq!(generate(&spec), generate(&spec));
        let other = TraceSpec {
            seed: 8,
            ..spec.clone()
        };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn generated_traces_round_trip_and_replay_clean() {
        let spec = TraceSpec {
            preload: 200,
            ops: 120,
            ..TraceSpec::new(PointDistribution::Clustered, 11)
        };
        let trace = generate(&spec);
        let back: Trace = trace.to_string().parse().unwrap();
        assert_eq!(back, trace);
        let stats = replay(&trace, Topology(4)).unwrap_or_else(|d| panic!("{d}"));
        // Everything the generator emits is valid at its point in the trace
        // except cursor fetches whose session already drained (harmless).
        assert!(stats.applied * 10 >= trace.len() * 9, "{stats:?}");
    }

    #[test]
    fn concurrent_plans_have_disjoint_writer_ops() {
        let plan = generate_concurrent(3, 4, 50, 30, 2, 10);
        assert_eq!(plan.writer_ops.len(), 4);
        assert_eq!(plan.reader_queries.len(), 2);
        let mut seen = std::collections::HashSet::new();
        for ops in &plan.writer_ops {
            for op in ops {
                let pts: Vec<Point> = match op {
                    TraceOp::Insert(p) | TraceOp::Delete(p) => vec![*p],
                    TraceOp::Batch(items) => items
                        .iter()
                        .map(|i| match i {
                            BatchItem::Insert(p) | BatchItem::Delete(p) => *p,
                        })
                        .collect(),
                    _ => vec![],
                };
                for p in pts {
                    seen.insert(p.score);
                }
            }
        }
        assert!(!seen.is_empty());
    }
}
