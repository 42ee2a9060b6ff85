//! Answer checking. A [`Mirror`] follows the write stream; a checked answer
//! is compared with [`Oracle`] over the mirror's points in the queried
//! range at the moment the query ran.

use std::collections::BTreeMap;

use topk_core::{Oracle, Point};

use crate::gen::Op;

/// The reference live set, keyed by coordinate.
#[derive(Debug, Default)]
pub struct Mirror {
    by_x: BTreeMap<u64, u64>,
}

impl Mirror {
    pub fn new(points: &[Point]) -> Mirror {
        Mirror {
            by_x: points.iter().map(|p| (p.x, p.score)).collect(),
        }
    }

    /// Apply a write; queries leave the mirror unchanged.
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Insert(p) => {
                self.by_x.insert(p.x, p.score);
            }
            Op::Delete(p) => {
                self.by_x.remove(&p.x);
            }
            Op::Query { .. } | Op::Cursor { .. } => {}
        }
    }

    /// The oracle's answer to a top-`k` query over `[x1, x2]`, given only
    /// the live points in range scoring at least `floor`.
    fn expect_above(&self, x1: u64, x2: u64, k: usize, floor: u64) -> Vec<Point> {
        let candidates: Vec<Point> = self
            .by_x
            .range(x1..=x2)
            .filter(|(_, &score)| score >= floor)
            .map(|(&x, &score)| Point::new(x, score))
            .collect();
        Oracle::from_points(&candidates).query(x1, x2, k)
    }

    /// The exact answer to a top-`k` query over `[x1, x2]`.
    #[cfg(test)]
    pub fn expect(&self, x1: u64, x2: u64, k: usize) -> Vec<Point> {
        self.expect_above(x1, x2, k, 0)
    }

    pub fn len(&self) -> u64 {
        self.by_x.len() as u64
    }

    /// Every live point, by coordinate.
    pub fn points(&self) -> Vec<Point> {
        self.by_x.iter().map(|(&x, &s)| Point::new(x, s)).collect()
    }

    /// Whether `got` is the right answer to `op` (a query or a cursor
    /// session's concatenated pages) against the current state.
    ///
    /// When `got` holds `k` points, the oracle is given only the points in
    /// range scoring at least `got`'s lowest score. That loses nothing: a
    /// point `got` wrongly left out scores above its lowest one and is a
    /// candidate, and a point `got` wrongly holds is not live, so either
    /// way the oracle's answer differs from `got`.
    pub fn verify(&self, op: &Op, got: &[Point]) -> bool {
        match *op {
            Op::Query { x1, x2, k, .. } | Op::Cursor { x1, x2, k, .. } => {
                let floor = if got.len() >= k { got[k - 1].score } else { 0 };
                self.expect_above(x1, x2, k, floor) == got
            }
            Op::Insert(_) | Op::Delete(_) => true,
        }
    }
}

/// Sort a point set by coordinate, for comparing full contents.
pub fn by_x(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by_key(|p| p.x);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Class;

    #[test]
    fn mirror_follows_writes_and_answers_like_the_oracle() {
        let pts: Vec<Point> = (0..100u64)
            .map(|i| Point::new(3 * i + 1, (i * 37) % 101))
            .collect();
        let mut m = Mirror::new(&pts);
        let q = Op::Query {
            x1: 10,
            x2: 200,
            k: 5,
            class: Class::SmallK,
        };
        assert!(m.verify(&q, &Oracle::from_points(&pts).query(10, 200, 5)));
        m.apply(&Op::Insert(Point::new(101, 1000)));
        assert_eq!(m.expect(10, 200, 1), vec![Point::new(101, 1000)]);
        assert!(!m.verify(&q, &Oracle::from_points(&pts).query(10, 200, 5)));
        // A wrong answer is caught whichever way it is wrong.
        let right = m.expect(10, 200, 5);
        let mut missing_best = right[1..].to_vec();
        missing_best.push(m.expect(10, 200, 6)[5]);
        assert!(!m.verify(&q, &missing_best));
        let mut not_live = right.clone();
        not_live[4] = Point::new(102, right[4].score);
        assert!(!m.verify(&q, &not_live));
        assert!(m.verify(&q, &right));
        m.apply(&Op::Delete(Point::new(101, 1000)));
        assert_eq!(m.len(), 100);
        assert_eq!(by_x(pts), m.points());
    }
}
