//! The serving handle.
//!
//! [`TopK`] is a cheaply-cloneable handle over one range-sharded
//! [`ShardedTopK`] (`S ≥ 1` shards), and it derefs to it, so every method of
//! the index is a method of the handle. [`IndexBuilder::build_auto`] builds
//! it, resolving the shard count from the workload shape.
//!
//! The handle is an [`Arc`], which is what makes the owned
//! [`QueryCursor`](crate::QueryCursor) read plane possible: a cursor clones
//! the handle and re-acquires the overlapping shards' read locks once per
//! fetch round, so no lock is held while the cursor's consumer is slow or
//! idle.

use std::ops::Deref;
use std::sync::Arc;

use epst::Point;

use crate::batch::{BatchSummary, UpdateBatch};
use crate::builder::IndexBuilder;
use crate::cursor::{QueryCursor, Source};
use crate::error::Result;
use crate::query::QueryRequest;
use crate::ranked::RankedIndex;
use crate::sharded::ShardedTopK;

/// The concurrent serving handle: a shared [`ShardedTopK`].
///
/// Obtained from [`IndexBuilder::build_auto`] (the shard count resolved
/// from the workload shape) or from a [`ShardedTopK`] with `From`. Cloning
/// is cheap — every clone shares the index through an [`Arc`] — and every
/// clone can open independent [`QueryCursor`]s.
///
/// ```
/// use topk_core::{Point, QueryRequest, TopK};
///
/// let index = TopK::builder().expected_n(1 << 20).build_auto()?;
/// index.insert(Point::new(7, 42))?;
/// let mut cursor = index.cursor(QueryRequest::range(0, 100).top(10))?;
/// assert_eq!(cursor.next_batch()?, vec![Point::new(7, 42)]);
/// # Ok::<(), topk_core::TopKError>(())
/// ```
#[derive(Clone)]
pub struct TopK(Arc<ShardedTopK>);

impl TopK {
    /// Start building: `TopK::builder().expected_n(n).build_auto()?`.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// The topology this handle serves from: always `"sharded"`.
    pub fn topology(&self) -> &'static str {
        "sharded"
    }

    /// Open an owned, snapshot-consistent cursor over this handle: see
    /// [`QueryCursor`]. The cursor clones the handle, so it holds **no**
    /// lock between fetch rounds and outlives this particular reference.
    pub fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
        QueryCursor::new(Source::Handle(self.clone()), request)
    }
}

impl Deref for TopK {
    type Target = ShardedTopK;

    fn deref(&self) -> &ShardedTopK {
        &self.0
    }
}

impl From<ShardedTopK> for TopK {
    fn from(index: ShardedTopK) -> Self {
        TopK(Arc::new(index))
    }
}

impl std::fmt::Debug for TopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TopK").field(&*self.0).finish()
    }
}

impl RankedIndex for TopK {
    fn engine_name(&self) -> &'static str {
        "topk-sharded"
    }

    fn len(&self) -> u64 {
        ShardedTopK::len(self)
    }

    fn space_blocks(&self) -> u64 {
        ShardedTopK::space_blocks(self)
    }

    fn insert(&self, p: Point) -> Result<()> {
        ShardedTopK::insert(self, p)
    }

    fn delete(&self, p: Point) -> Result<bool> {
        ShardedTopK::delete(self, p)
    }

    fn bulk_build(&self, points: &[Point]) -> Result<()> {
        ShardedTopK::bulk_build(self, points)
    }

    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        ShardedTopK::query(self, x1, x2, k)
    }

    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        ShardedTopK::count_in_range(self, x1, x2)
    }

    fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        ShardedTopK::apply(self, batch)
    }

    fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
        TopK::cursor(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, TopKConfig};
    use emsim::{Device, EmConfig};

    #[test]
    fn facade_delegates_to_every_topology() {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        let handles = vec![
            TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 1)),
            TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 4)),
        ];
        let pts: Vec<Point> = (0..300u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        let oracle = Oracle::from_points(&pts);
        for handle in &handles {
            handle.bulk_build(&pts).unwrap();
            assert_eq!(handle.len(), 300);
            assert!(!handle.is_empty());
            assert!(handle.space_blocks() > 0);
            assert_eq!(handle.query(10, 500, 9).unwrap(), oracle.query(10, 500, 9));
            assert_eq!(
                handle.count_in_range(10, 500).unwrap(),
                oracle.count(10, 500) as u64
            );
            handle.delete(pts[0]).unwrap();
            handle.insert(pts[0]).unwrap();
            let summary = handle
                .apply(&UpdateBatch::new().delete(pts[1]).insert(Point::new(5, 9)))
                .unwrap();
            assert_eq!((summary.inserted, summary.deleted), (1, 1));
            assert_eq!(handle.len(), 300);
            // A clone shares the same underlying index.
            let clone = handle.clone();
            clone.delete(Point::new(5, 9)).unwrap();
            assert_eq!(handle.len(), 299);
            assert_eq!(clone.topology(), "sharded");
            assert!(format!("{handle:?}").contains("shards"));
        }
    }

    #[test]
    fn build_auto_picks_topology_from_the_workload_shape() {
        let shards = |handle: TopK| handle.shard_count();
        // Small indexes and an explicit single shard are one shard: no
        // fan-out, the same striped lock and one-shot query plan.
        let small = TopK::builder().expected_n(1000).build_auto().unwrap();
        assert_eq!(shards(small), 1);
        let one = TopK::builder().shards(1).build_auto().unwrap();
        assert_eq!(shards(one), 1);
        let large = TopK::builder().expected_n(1 << 20).build_auto().unwrap();
        assert_eq!(shards(large), 16);
        let pinned = TopK::builder()
            .expected_n(1000)
            .shards(4)
            .build_auto()
            .unwrap();
        assert_eq!(shards(pinned), 4);
        assert!(TopK::builder().shards(0).build_auto().is_err());
        assert!(TopK::builder().shards(4096).build_auto().is_err());
    }
}
