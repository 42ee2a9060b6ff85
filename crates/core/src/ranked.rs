//! A common interface over every top-k range reporting engine in the
//! workspace, so benches, examples and oracle cross-checks can be written
//! once and run against the paper's structure and the baselines alike.

use epst::Point;

use crate::batch::{BatchSummary, UpdateBatch, UpdateOp};
use crate::cursor::QueryCursor;
use crate::error::{Result, TopKError};
use crate::index::TopKIndex;
use crate::query::QueryRequest;

/// A dynamic set of `(x, score)` points answering top-k range queries.
///
/// Implemented by [`TopKIndex`], the [`TopK`](crate::TopK) handle,
/// [`TheoremOne`](crate::TheoremOne) and the comparison structures in the
/// `baselines` crate. All methods take `&self` — every
/// engine in the workspace is internally synchronized — and all mutating or
/// querying methods are fallible with the same contract as [`TopKIndex`].
/// The trait is object-safe: experiment harnesses typically iterate over
/// `Vec<Box<dyn RankedIndex>>`.
pub trait RankedIndex: Send + Sync {
    /// A short engine label for reports and bench output.
    fn engine_name(&self) -> &'static str;

    /// Number of stored points.
    fn len(&self) -> u64;

    /// Whether no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied on the simulated device, in blocks (0 for RAM-resident
    /// baselines, which are priced in node accesses instead).
    fn space_blocks(&self) -> u64;

    /// Insert a point; duplicate coordinates or scores are rejected.
    fn insert(&self, p: Point) -> Result<()>;

    /// Delete a point (exact match); `Ok(false)` if absent.
    fn delete(&self, p: Point) -> Result<bool>;

    /// Replace the contents with `points`.
    fn bulk_build(&self, points: &[Point]) -> Result<()>;

    /// The `k` highest-scoring points with `x ∈ [x1, x2]`, descending.
    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>>;

    /// Number of points with `x ∈ [x1, x2]`.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2` — the same validation as
    /// [`RankedIndex::query`] (this used to silently answer 0, while `query`
    /// rejected the identical misuse).
    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64>;

    /// Open an owned, snapshot-consistent cursor
    /// ([`QueryCursor`]): supported by engines that can hand out
    /// lock-per-round snapshots, which is the [`TopK`](crate::TopK) handle.
    /// Bare engines report [`TopKError::InvalidConfig`]; serve cursors from
    /// a [`TopK`](crate::TopK) instead.
    fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
        let _ = request;
        Err(TopKError::InvalidConfig {
            what: "this engine serves owned cursors only through the TopK handle",
        })
    }

    /// Apply a batch of updates. The default implementation is point-wise
    /// (no atomicity beyond each operation); engines with a cheaper native
    /// batch path override it.
    fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        let mut summary = BatchSummary::default();
        for op in batch.ops() {
            match *op {
                UpdateOp::Insert(p) => {
                    self.insert(p)?;
                    summary.inserted += 1;
                }
                UpdateOp::Delete(p) => {
                    if self.delete(p)? {
                        summary.deleted += 1;
                    } else {
                        summary.missing_deletes += 1;
                    }
                }
            }
        }
        Ok(summary)
    }
}

impl RankedIndex for TopKIndex {
    fn engine_name(&self) -> &'static str {
        "pilot"
    }

    fn len(&self) -> u64 {
        TopKIndex::len(self)
    }

    fn space_blocks(&self) -> u64 {
        TopKIndex::space_blocks(self)
    }

    fn insert(&self, p: Point) -> Result<()> {
        TopKIndex::insert(self, p)
    }

    fn delete(&self, p: Point) -> Result<bool> {
        TopKIndex::delete(self, p)
    }

    fn bulk_build(&self, points: &[Point]) -> Result<()> {
        TopKIndex::bulk_build(self, points)
    }

    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        TopKIndex::query(self, x1, x2, k)
    }

    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        TopKIndex::count_in_range(self, x1, x2)
    }

    fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        TopKIndex::apply(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, ShardedTopK, TopK, TopKConfig};
    use emsim::{Device, EmConfig};

    #[test]
    fn trait_objects_answer_like_the_inherent_api() {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        let engines: Vec<Box<dyn RankedIndex>> = vec![
            Box::new(TopKIndex::new(&device, TopKConfig::for_tests())),
            Box::new(TopK::from(ShardedTopK::new(
                &device,
                TopKConfig::for_tests(),
                1,
            ))),
            Box::new(TopK::from(ShardedTopK::new(
                &device,
                TopKConfig::for_tests(),
                4,
            ))),
        ];
        let pts: Vec<Point> = (0..300u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        let oracle = Oracle::from_points(&pts);
        for engine in &engines {
            engine.bulk_build(&pts).unwrap();
            assert_eq!(engine.len(), 300);
            assert!(!engine.is_empty());
            assert_eq!(engine.query(10, 500, 9).unwrap(), oracle.query(10, 500, 9));
            assert_eq!(
                engine.count_in_range(10, 500).unwrap(),
                oracle.count(10, 500) as u64
            );
            assert_eq!(
                engine.count_in_range(500, 10).unwrap_err(),
                crate::TopKError::InvertedRange { x1: 500, x2: 10 }
            );
            let summary = engine
                .apply(
                    &UpdateBatch::new()
                        .delete(pts[0])
                        .insert(Point::new(5_000, 50_000)),
                )
                .unwrap();
            assert_eq!((summary.inserted, summary.deleted), (1, 1));
            assert_eq!(engine.len(), 300);
            assert!(!engine.engine_name().is_empty());
        }
    }
}
