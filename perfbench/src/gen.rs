//! Seeded input generation. Every point and operation the program under
//! test receives comes from here, as a pure function of the `--seed`
//! argument: the generators keep their own model of the live set (to pick
//! delete victims and fresh keys) and never look at the program's answers.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::Point;
use workload::PointGen;

/// The operation classes every workload draws from; each has its own
/// latency metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    SmallK,
    LargeK,
    Cursor,
    Write,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An eager top-`k` query; `class` is [`Class::SmallK`] or
    /// [`Class::LargeK`].
    Query {
        x1: u64,
        x2: u64,
        k: usize,
        class: Class,
    },
    /// A cursor session: open with `page`-point pages, fetch `pages` pages.
    Cursor {
        x1: u64,
        x2: u64,
        k: usize,
        page: usize,
        pages: usize,
    },
    Insert(Point),
    Delete(Point),
}

impl Op {
    pub fn class(&self) -> Class {
        match *self {
            Op::Query { class, .. } => class,
            Op::Cursor { .. } => Class::Cursor,
            Op::Insert(_) | Op::Delete(_) => Class::Write,
        }
    }
}

/// How a query range is drawn. Widths are fractions of the coordinate
/// domain `[0, 12n)` of the preload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeKind {
    /// A uniformly placed range covering this fraction of the domain.
    Uniform(f64),
    /// A 0.01% range centred on a dyadic quantile `(2i+1)/2^d` of the
    /// domain: narrow ranges straddling high base-tree boundaries, the
    /// pilot path's adversarial case.
    Dyadic,
}

/// The shape of one query class: the `k` values and range kinds it draws
/// from, uniformly.
#[derive(Debug, Clone, Copy)]
pub struct QueryShape {
    pub ks: &'static [usize],
    pub ranges: &'static [RangeKind],
}

/// How writes are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Insert a fresh point or delete a uniformly chosen live point (preload
    /// included), with equal probability: `n` random-walks around its start.
    Churn,
    /// Alternate an insert of one of this client's fresh points with the
    /// delete of that same point, so a client owns at most one live point.
    OwnAlternating,
}

/// A workload's operation mix, in percent, and the shape of each class.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub small_k: u32,
    pub large_k: u32,
    pub cursor: u32,
    pub write: u32,
    pub small: QueryShape,
    pub large: QueryShape,
    pub cursor_ranges: &'static [RangeKind],
    pub write_mode: WriteMode,
}

/// Points per cursor page and pages per cursor session.
pub const CURSOR_PAGE: usize = 100;
pub const CURSOR_PAGES: usize = 10;
/// The score offset of the served preload: every preload score lies above
/// every fresh score, so a served answer over a range holding at least `k`
/// preload points is fixed by the preload alone, however the clients'
/// writes interleave.
pub const SERVED_SCORE_OFFSET: u64 = 1 << 40;
/// One operation in this many is checked against the oracle.
pub const CHECK_ONE_IN: u64 = 16;
/// The preload's coordinates are `X_SCALE·(3i+1)`: the gaps leave room for
/// `3·X_SCALE·n` fresh coordinates, so however long a run churns, fresh
/// points never run out of free coordinates.
const X_SCALE: u64 = 4;

/// The preload: `n` uniform points from [`PointGen::uniform`], coordinates a
/// permutation of `{3i+1}` times [`X_SCALE`] (so `≡ 1 mod 3`) and scores a
/// permutation of `{7i+5}` plus `score_offset`.
pub fn preload(seed: u64, n: usize, score_offset: u64) -> Vec<Point> {
    PointGen::uniform(seed ^ 0x5eed_0001)
        .generate(n)
        .into_iter()
        .map(|p| Point::new(X_SCALE * p.x, p.score + score_offset))
        .collect()
}

/// The generator's model of the live set: a vector for uniform choice plus
/// coordinate and score indexes for distinctness.
#[derive(Debug, Default)]
struct LiveSet {
    points: Vec<Point>,
    by_x: HashMap<u64, usize>,
    scores: HashMap<u64, u64>,
}

impl LiveSet {
    fn from_points(points: &[Point]) -> Self {
        let mut set = LiveSet::default();
        for &p in points {
            set.add(p);
        }
        set
    }

    fn add(&mut self, p: Point) {
        self.by_x.insert(p.x, self.points.len());
        self.scores.insert(p.score, p.x);
        self.points.push(p);
    }

    fn remove_at(&mut self, i: usize) -> Point {
        let p = self.points.swap_remove(i);
        self.by_x.remove(&p.x);
        self.scores.remove(&p.score);
        if let Some(moved) = self.points.get(i) {
            self.by_x.insert(moved.x, i);
        }
        p
    }
}

/// A seeded operation stream for one caller.
pub struct OpGen {
    rng: StdRng,
    mix: Mix,
    domain: u64,
    n0: u64,
    live: LiveSet,
    client: u64,
    fresh_count: u64,
    own: Option<Point>,
}

impl OpGen {
    /// The stream of caller `client` over a preload of `preload.len()`
    /// points (coordinate domain `[0, 12n)`).
    pub fn new(seed: u64, client: u64, mix: Mix, preload: &[Point]) -> Self {
        assert_eq!(
            mix.small_k + mix.large_k + mix.cursor + mix.write,
            100,
            "a mix is in percent"
        );
        let n0 = preload.len() as u64;
        let live = match mix.write_mode {
            WriteMode::Churn => LiveSet::from_points(preload),
            WriteMode::OwnAlternating => LiveSet::default(),
        };
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x0b5e_0000 ^ (client << 32)),
            mix,
            domain: 3 * X_SCALE * n0,
            n0,
            live,
            client,
            fresh_count: 0,
            own: None,
        }
    }

    /// The next operation and whether its answer is checked.
    pub fn next_op(&mut self) -> (Op, bool) {
        let check = self.rng.gen_range(0..CHECK_ONE_IN) == 0;
        let m = self.mix;
        let roll = self.rng.gen_range(0..100u32);
        let op = if roll < m.small_k {
            self.query(m.small, Class::SmallK)
        } else if roll < m.small_k + m.large_k {
            self.query(m.large, Class::LargeK)
        } else if roll < m.small_k + m.large_k + m.cursor {
            let kind = pick(&mut self.rng, m.cursor_ranges);
            let (x1, x2) = self.range(kind);
            Op::Cursor {
                x1,
                x2,
                k: CURSOR_PAGE * CURSOR_PAGES,
                page: CURSOR_PAGE,
                pages: CURSOR_PAGES,
            }
        } else {
            self.write()
        };
        (op, check)
    }

    fn query(&mut self, shape: QueryShape, class: Class) -> Op {
        let k = pick(&mut self.rng, shape.ks);
        let kind = pick(&mut self.rng, shape.ranges);
        let (x1, x2) = self.range(kind);
        Op::Query { x1, x2, k, class }
    }

    fn range(&mut self, kind: RangeKind) -> (u64, u64) {
        match kind {
            RangeKind::Uniform(frac) => {
                let w = ((self.domain as f64 * frac) as u64).max(1);
                let x1 = self.rng.gen_range(0..=self.domain - w);
                (x1, x1 + w - 1)
            }
            RangeKind::Dyadic => {
                let w = ((self.domain as f64 * 1e-4) as u64).max(2);
                let depth = self.rng.gen_range(1..=12u32);
                let i = self.rng.gen_range(0..(1u64 << (depth - 1)));
                let centre =
                    ((2 * i + 1) as f64 / (1u64 << depth) as f64 * self.domain as f64) as u64;
                (centre.saturating_sub(w / 2), centre + w / 2)
            }
        }
    }

    fn write(&mut self) -> Op {
        match self.mix.write_mode {
            WriteMode::Churn => {
                if self.rng.gen_bool(0.5) && !self.live.points.is_empty() {
                    let i = self.rng.gen_range(0..self.live.points.len());
                    Op::Delete(self.live.remove_at(i))
                } else {
                    let p = self.fresh_churn();
                    self.live.add(p);
                    Op::Insert(p)
                }
            }
            WriteMode::OwnAlternating => match self.own.take() {
                Some(p) => Op::Delete(p),
                None => {
                    let p = fresh_served(self.client, self.fresh_count, &mut self.rng, self.n0);
                    self.fresh_count += 1;
                    self.own = Some(p);
                    Op::Insert(p)
                }
            },
        }
    }

    /// A fresh in-process point: coordinate `3j+2` and score `7m+6`, so both
    /// are disjoint from the preload's (`≡ 1 mod 3`, `7i+5`); redrawn until
    /// distinct from the live set. Each space has at least `4n` values, and
    /// churn keeps about `n` points live, so a draw is free at least 3 times
    /// in 4.
    fn fresh_churn(&mut self) -> Point {
        loop {
            let x = 3 * self.rng.gen_range(0..X_SCALE * self.n0) + 2;
            let score = 7 * self.rng.gen_range(0..4 * self.n0) + 6;
            if !self.live.by_x.contains_key(&x) && !self.live.scores.contains_key(&score) {
                return Point::new(x, score);
            }
        }
    }

    /// The live points of the generator's model (the preload plus this
    /// stream's writes); empty for [`WriteMode::OwnAlternating`].
    #[cfg(test)]
    pub fn live_points(&self) -> &[Point] {
        &self.live.points
    }

    /// The point this client currently owns ([`WriteMode::OwnAlternating`]).
    pub fn own_live(&self) -> Option<Point> {
        self.own
    }
}

/// The `m`-th fresh point of served client `client`: coordinate `6j + 3c`
/// (a multiple of 3, so never a preload coordinate, and distinct between
/// the two clients by residue mod 6) and score `2m + c + 1`, below
/// [`SERVED_SCORE_OFFSET`] and distinct between clients by parity.
pub fn fresh_served(client: u64, m: u64, rng: &mut StdRng, n0: u64) -> Point {
    let j = rng.gen_range(0..X_SCALE * n0 / 2);
    Point::new(6 * j + 3 * client, 2 * m + client + 1)
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::HashSet;

    fn stream(w: Workload, seed: u64, client: u64, pre: &[Point], n: usize) -> Vec<Op> {
        let mut g = OpGen::new(seed, client, w.mix(), pre);
        (0..n).map(|_| g.next_op().0).collect()
    }

    #[test]
    fn the_seed_reproduces_preload_and_stream() {
        for w in Workload::ALL {
            let a = preload(7, 1 << 10, 0);
            assert_eq!(a, preload(7, 1 << 10, 0));
            assert_ne!(a, preload(8, 1 << 10, 0));
            assert_eq!(stream(w, 7, 0, &a, 3000), stream(w, 7, 0, &a, 3000));
            assert_ne!(stream(w, 7, 0, &a, 3000), stream(w, 8, 0, &a, 3000));
        }
    }

    #[test]
    fn churn_keys_stay_disjoint_from_the_preload_and_distinct() {
        let pre = preload(3, 1 << 10, 0);
        let pre_x: HashSet<u64> = pre.iter().map(|p| p.x).collect();
        let pre_s: HashSet<u64> = pre.iter().map(|p| p.score).collect();
        let mut g = OpGen::new(3, 0, Workload::WriteChurn.mix(), &pre);
        for _ in 0..20_000 {
            if let (Op::Insert(p), _) = g.next_op() {
                assert!(!pre_x.contains(&p.x) && !pre_s.contains(&p.score), "{p:?}");
            }
        }
        let live = g.live_points();
        let xs: HashSet<u64> = live.iter().map(|p| p.x).collect();
        let ss: HashSet<u64> = live.iter().map(|p| p.score).collect();
        assert_eq!(xs.len(), live.len());
        assert_eq!(ss.len(), live.len());
    }

    #[test]
    fn served_clients_write_disjoint_keys_below_the_preload() {
        let pre = preload(5, 1 << 12, SERVED_SCORE_OFFSET);
        let min_pre = pre.iter().map(|p| p.score).min().unwrap();
        let pre_x: HashSet<u64> = pre.iter().map(|p| p.x).collect();
        let mut seen: [HashSet<u64>; 2] = Default::default();
        let mut scores: [HashSet<u64>; 2] = Default::default();
        for c in 0..2u64 {
            let mut expect_delete = None;
            let mut g = OpGen::new(5, c, crate::served::mix(), &pre);
            for op in (0..20_000).map(|_| g.next_op().0) {
                match op {
                    Op::Insert(p) => {
                        assert!(expect_delete.is_none(), "two live points for one client");
                        assert!(p.score < min_pre && !pre_x.contains(&p.x));
                        assert_eq!(p.x % 6, 3 * c);
                        assert!(scores[c as usize].insert(p.score));
                        seen[c as usize].insert(p.x);
                        expect_delete = Some(p);
                    }
                    Op::Delete(p) => assert_eq!(Some(p), expect_delete.take()),
                    _ => {}
                }
            }
        }
        assert!(seen[0].is_disjoint(&seen[1]));
        assert!(scores[0].is_disjoint(&scores[1]));
    }
}
