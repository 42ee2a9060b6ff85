//! # workload — deterministic workload generators for the experiments
//!
//! Everything takes an explicit seed so that every row the experiment
//! binaries print to stdout can be regenerated exactly.

use epst::Point;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};

/// Distribution of the coordinates and scores of generated points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointDistribution {
    /// Coordinates and scores are independent random permutations (the
    /// default workload of every experiment).
    Uniform,
    /// Scores increase with the coordinate (correlated; the top-k of any range
    /// clusters at its right end).
    Correlated,
    /// Scores decrease with the coordinate (anti-correlated).
    AntiCorrelated,
    /// Points arrive in coordinate order (adversarial for rebalancing: every
    /// insert hits the rightmost leaf).
    SortedInsertions,
    /// Coordinates concentrate in a few clusters (skewed ranges).
    Clustered,
}

/// Generator of point sets with distinct coordinates and distinct scores.
#[derive(Debug, Clone)]
pub struct PointGen {
    /// Distribution to draw from.
    pub distribution: PointDistribution,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl PointGen {
    /// A uniform generator with the given seed.
    pub fn uniform(seed: u64) -> Self {
        Self {
            distribution: PointDistribution::Uniform,
            seed,
        }
    }

    /// Generate `n` points. Coordinates are a permutation of
    /// `{1·3+1, …, n·3+1}` (so range endpoints always fall between points) and
    /// scores are a permutation of `{1·7+5, …}` — both distinct by
    /// construction.
    pub fn generate(&self, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 7 + 5).collect();
        match self.distribution {
            PointDistribution::Uniform => {
                xs.shuffle(&mut rng);
                scores.shuffle(&mut rng);
            }
            PointDistribution::Correlated => {
                // Mild noise on top of a monotone relation.
                xs.shuffle(&mut rng);
                xs.sort_unstable();
                for i in 1..scores.len() {
                    if rng.gen_bool(0.1) {
                        scores.swap(i, i - 1);
                    }
                }
            }
            PointDistribution::AntiCorrelated => {
                xs.sort_unstable();
                scores.reverse();
            }
            PointDistribution::SortedInsertions => {
                scores.shuffle(&mut rng);
            }
            PointDistribution::Clustered => {
                let clusters = 8u64;
                xs = (0..n as u64)
                    .map(|i| {
                        let c = i % clusters;
                        c * 1_000_000 + (i / clusters) * 3 + 1
                    })
                    .collect();
                xs.shuffle(&mut rng);
                scores.shuffle(&mut rng);
            }
        }
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }
}

/// Disjoint coordinate territories for multi-writer workloads: territory
/// `t` owns `x ∈ [t·span, (t+1)·span)`, so writers assigned distinct
/// territories never collide on coordinates — and, under a range-sharded
/// index, land on distinct shards. Returns `(span, territories)`; each
/// territory holds `per` points, coordinates shuffled within the territory,
/// scores globally distinct across all territories.
pub fn territories(seed: u64, count: usize, per: usize) -> (u64, Vec<Vec<Point>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Twice the room the points need, so fresh inserts fit inside the span.
    let span = (per as u64) * 6 + 8;
    let territories = (0..count as u64)
        .map(|t| {
            let mut xs: Vec<u64> = (0..per as u64).map(|i| t * span + i * 3 + 1).collect();
            let mut scores: Vec<u64> = (0..per as u64)
                .map(|i| (t + i * count as u64) * 7 + 5)
                .collect();
            xs.shuffle(&mut rng);
            scores.shuffle(&mut rng);
            xs.into_iter()
                .zip(scores)
                .map(|(x, score)| Point { x, score })
                .collect()
        })
        .collect();
    (span, territories)
}

/// A top-k range query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Lower end of the range.
    pub x1: u64,
    /// Upper end of the range.
    pub x2: u64,
    /// Number of results requested.
    pub k: usize,
}

/// Generator of queries with controlled selectivity and `k`.
#[derive(Debug, Clone)]
pub struct QueryGen {
    /// Fraction of the key domain each range covers, in `(0, 1]`.
    pub selectivity: f64,
    /// The `k` to request.
    pub k: usize,
    /// Seed.
    pub seed: u64,
}

impl QueryGen {
    /// Create a generator.
    pub fn new(selectivity: f64, k: usize, seed: u64) -> Self {
        Self {
            selectivity: selectivity.clamp(1e-6, 1.0),
            k,
            seed,
        }
    }

    /// Generate `count` queries over the coordinate domain of `points`.
    pub fn generate(&self, points: &[Point], count: usize) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let min = points.iter().map(|p| p.x).min().unwrap_or(0);
        let max = points.iter().map(|p| p.x).max().unwrap_or(1);
        let span = (max - min).max(1);
        let width = ((span as f64) * self.selectivity).max(1.0) as u64;
        (0..count)
            .map(|_| {
                let x1 = rng.gen_range(min..=max.saturating_sub(width).max(min));
                Query {
                    x1,
                    x2: x1 + width,
                    k: self.k,
                }
            })
            .collect()
    }
}

/// One operation of a mixed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert this point.
    Insert(Point),
    /// Delete this (previously inserted) point.
    Delete(Point),
    /// Run this query.
    Query(Query),
}

/// Generator of mixed update/query traces.
#[derive(Debug, Clone)]
pub struct TraceGen {
    /// Fraction of operations that are inserts.
    pub insert_frac: f64,
    /// Fraction of operations that are deletes.
    pub delete_frac: f64,
    /// `k` used by the queries in the trace.
    pub k: usize,
    /// Selectivity of the queries in the trace.
    pub selectivity: f64,
    /// Seed.
    pub seed: u64,
}

impl TraceGen {
    /// Create a generator; the remaining fraction of operations are queries.
    pub fn new(insert_frac: f64, delete_frac: f64, k: usize, selectivity: f64, seed: u64) -> Self {
        assert!(insert_frac + delete_frac <= 1.0);
        Self {
            insert_frac,
            delete_frac,
            k,
            selectivity,
            seed,
        }
    }

    /// Generate a trace of `ops` operations, starting from the preloaded
    /// `initial` points (which are assumed to already be in the structure).
    pub fn generate(&self, initial: &[Point], ops: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut live: Vec<Point> = initial.to_vec();
        let mut next_key: u64 = initial
            .iter()
            .map(|p| p.x)
            .max()
            .unwrap_or(0)
            .max(initial.iter().map(|p| p.score).max().unwrap_or(0))
            + 1;
        let domain_max = live.iter().map(|p| p.x).max().unwrap_or(1_000);
        let width = ((domain_max as f64) * self.selectivity).max(1.0) as u64;
        let mut out = Vec::with_capacity(ops);
        for _ in 0..ops {
            let r: f64 = rng.gen();
            if r < self.insert_frac || live.is_empty() {
                let p = Point {
                    x: next_key * 3 + 2,
                    score: next_key * 7 + 6,
                };
                next_key += 1;
                live.push(p);
                out.push(Op::Insert(p));
            } else if r < self.insert_frac + self.delete_frac {
                let idx = rng.gen_range(0..live.len());
                let p = live.swap_remove(idx);
                out.push(Op::Delete(p));
            } else {
                let x1 = rng.gen_range(0..=domain_max);
                out.push(Op::Query(Query {
                    x1,
                    x2: x1 + width,
                    k: self.k,
                }));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn points_are_distinct_and_reproducible() {
        for dist in [
            PointDistribution::Uniform,
            PointDistribution::Correlated,
            PointDistribution::AntiCorrelated,
            PointDistribution::SortedInsertions,
            PointDistribution::Clustered,
        ] {
            let g = PointGen {
                distribution: dist,
                seed: 7,
            };
            let a = g.generate(500);
            let b = g.generate(500);
            assert_eq!(a, b, "same seed must reproduce the same points");
            let xs: HashSet<u64> = a.iter().map(|p| p.x).collect();
            let scores: HashSet<u64> = a.iter().map(|p| p.score).collect();
            assert_eq!(xs.len(), 500, "{dist:?}: coordinates must be distinct");
            assert_eq!(scores.len(), 500, "{dist:?}: scores must be distinct");
        }
    }

    #[test]
    fn territories_are_disjoint_and_globally_distinct() {
        let (span, terr) = territories(9, 4, 300);
        assert_eq!(terr.len(), 4);
        let mut xs = HashSet::new();
        let mut scores = HashSet::new();
        for (t, points) in terr.iter().enumerate() {
            assert_eq!(points.len(), 300);
            for p in points {
                let lo = t as u64 * span;
                assert!(p.x >= lo && p.x < lo + span, "territory {t} leaked {p:?}");
                assert!(xs.insert(p.x), "duplicate coordinate {}", p.x);
                assert!(scores.insert(p.score), "duplicate score {}", p.score);
            }
        }
        // Reproducible from the seed alone.
        assert_eq!(territories(9, 4, 300).1, terr);
    }

    #[test]
    fn queries_respect_selectivity() {
        let pts = PointGen::uniform(1).generate(1000);
        let qs = QueryGen::new(0.1, 10, 2).generate(&pts, 50);
        assert_eq!(qs.len(), 50);
        let span = pts.iter().map(|p| p.x).max().unwrap() - pts.iter().map(|p| p.x).min().unwrap();
        for q in qs {
            assert!(q.x2 > q.x1);
            assert!(
                q.x2 - q.x1 <= span / 5,
                "range too wide for 10% selectivity"
            );
            assert_eq!(q.k, 10);
        }
    }

    #[test]
    fn traces_balance_inserts_and_deletes() {
        let pts = PointGen::uniform(3).generate(200);
        let trace = TraceGen::new(0.4, 0.3, 5, 0.2, 9).generate(&pts, 1000);
        let inserts = trace.iter().filter(|o| matches!(o, Op::Insert(_))).count();
        let deletes = trace.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        let queries = trace.iter().filter(|o| matches!(o, Op::Query(_))).count();
        assert_eq!(inserts + deletes + queries, 1000);
        assert!(inserts > 300 && deletes > 200 && queries > 200);
        // Deletes only target live points: replaying them must never delete
        // the same point twice.
        let mut live: HashSet<Point> = pts.iter().copied().collect();
        for op in &trace {
            match op {
                Op::Insert(p) => assert!(live.insert(*p)),
                Op::Delete(p) => assert!(live.remove(p)),
                Op::Query(_) => {}
            }
        }
    }
}
