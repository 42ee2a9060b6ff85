//! The unified, topology-agnostic index handle.
//!
//! [`TopK`] wraps the two serving topologies of the workspace — the bare
//! [`TopKIndex`] and the range-sharded [`ShardedTopK`] with `S ≥ 1` shards —
//! behind one cheaply-cloneable enum, so benches, examples, oracle
//! cross-checks and user code pick a topology at **runtime** through one
//! surface instead of being generic (or duplicated) over both types.
//! [`IndexBuilder::build_auto`] builds the concurrent one, resolving the
//! shard count from the workload shape.
//!
//! Every variant holds an [`Arc`], which is what makes the owned
//! [`QueryCursor`](crate::QueryCursor) read plane possible: a cursor clones
//! the handle and re-acquires the topology's read lock once per fetch round,
//! so no lock is held while the cursor's consumer is slow or idle.

use std::sync::Arc;

use emsim::Device;
use epst::Point;

use crate::batch::{BatchSummary, UpdateBatch};
use crate::builder::IndexBuilder;
use crate::cursor::QueryCursor;
use crate::error::Result;
use crate::index::TopKIndex;
use crate::query::QueryRequest;
use crate::ranked::RankedIndex;
use crate::sharded::ShardedTopK;

/// One handle over every serving topology: a single-threaded [`TopKIndex`]
/// or a range-sharded [`ShardedTopK`].
///
/// Obtained from [`IndexBuilder::build_auto`] (always `Sharded`, with the
/// shard count resolved from the workload shape) or by wrapping an engine
/// explicitly ([`TopK::single`] / [`TopK::sharded`], or the `From` impls).
/// Cloning is cheap — all variants share the underlying index through an
/// [`Arc`] — and every clone can open independent [`QueryCursor`]s.
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
pub enum TopK {
    /// A bare index with no logical-atomicity lock: the right embedding for
    /// single-threaded use (no locking overhead), but concurrent writers
    /// must not mutate it while queries run. Never chosen by
    /// [`IndexBuilder::build_auto`].
    Single(Arc<TopKIndex>),
    /// Range-sharded behind striped per-shard locks: parallel queries,
    /// parallel writers on disjoint shards, fan-out across shards.
    Sharded(Arc<ShardedTopK>),
}

impl TopK {
    /// Start building: `TopK::builder().expected_n(n).build_auto()?`.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// Wrap a bare index for single-threaded embedding.
    pub fn single(index: TopKIndex) -> Self {
        TopK::Single(Arc::new(index))
    }

    /// Wrap a range-sharded index.
    pub fn sharded(index: ShardedTopK) -> Self {
        TopK::Sharded(Arc::new(index))
    }

    /// The topology this handle serves from.
    pub fn topology(&self) -> &'static str {
        match self {
            TopK::Single(_) => "single",
            TopK::Sharded(_) => "sharded",
        }
    }

    /// Open an owned, snapshot-consistent cursor over this handle: see
    /// [`QueryCursor`]. The cursor clones the handle, so it holds **no**
    /// lock between fetch rounds and outlives this particular reference.
    pub fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
        QueryCursor::new(self.clone(), request)
    }

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, descending
    /// (the topology's eager one-shot query).
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        match self {
            TopK::Single(i) => i.query(x1, x2, k),
            TopK::Sharded(i) => i.query(x1, x2, k),
        }
    }

    /// Number of points with `x ∈ [x1, x2]`.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`](crate::TopKError::InvertedRange) if
    /// `x1 > x2`.
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        match self {
            TopK::Single(i) => i.count_in_range(x1, x2),
            TopK::Sharded(i) => i.count_in_range(x1, x2),
        }
    }

    /// Insert a point; duplicate coordinates or scores are rejected.
    pub fn insert(&self, p: Point) -> Result<()> {
        match self {
            TopK::Single(i) => i.insert(p),
            TopK::Sharded(i) => i.insert(p),
        }
    }

    /// Delete a point (exact match); `Ok(false)` if absent.
    pub fn delete(&self, p: Point) -> Result<bool> {
        match self {
            TopK::Single(i) => i.delete(p),
            TopK::Sharded(i) => i.delete(p),
        }
    }

    /// Replace the contents with `points`.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        match self {
            TopK::Single(i) => i.bulk_build(points),
            TopK::Sharded(i) => i.bulk_build(points),
        }
    }

    /// Apply a batch atomically (under the topology's write-side locking).
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        match self {
            TopK::Single(i) => i.apply(batch),
            TopK::Sharded(i) => i.apply(batch),
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        match self {
            TopK::Single(i) => i.len(),
            TopK::Sharded(i) => i.len(),
        }
    }

    /// Whether no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied on the simulated device, in blocks.
    pub fn space_blocks(&self) -> u64 {
        match self {
            TopK::Single(i) => i.space_blocks(),
            TopK::Sharded(i) => i.space_blocks(),
        }
    }

    /// The device the index lives on (for I/O statistics).
    pub fn device(&self) -> Device {
        match self {
            TopK::Single(i) => i.device().clone(),
            TopK::Sharded(i) => i.device(),
        }
    }

    /// Every stored point (an `O(n/B)` scan, in no particular order on a
    /// single index, by descending score on a sharded one). For an exact
    /// snapshot, call it while no writer is active.
    pub fn all_points(&self) -> Vec<Point> {
        match self {
            TopK::Single(i) => i.all_points(),
            TopK::Sharded(i) => {
                let n = i.len() as usize;
                if n == 0 {
                    return Vec::new();
                }
                // The full-range top-n query is the sharded scan: every
                // shard reports everything and the merge keeps all of it.
                i.query(0, u64::MAX, n).unwrap_or_default()
            }
        }
    }

    /// The version stamp recovered from the journal when this handle was
    /// opened durably (`TopK::builder().durable(dir)…`); `None` for plain
    /// in-RAM indexes.
    pub fn recovered_stamp(&self) -> Option<u64> {
        match self {
            TopK::Single(i) => i.recovered_stamp(),
            TopK::Sharded(i) => i.recovered_stamp(),
        }
    }

    /// Snapshot the current contents into a durable index directory: after
    /// this returns, `dir` holds a synced snapshot and an empty journal that
    /// `TopK::builder().durable(dir).build_auto()` reopens — from *any*
    /// topology, including sharded and RAM-only handles. An existing index
    /// in `dir` is replaced wholesale. Returns the number of points
    /// captured.
    ///
    /// The snapshot is taken with [`TopK::all_points`]; run it while no
    /// writer is active to capture one exact state. The image is stamped
    /// with `max(self's current version, the stamp already in dir)`, so
    /// reopening never observes the version stamp going backwards — even
    /// when overwriting an older, higher-stamped image.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`](crate::TopKError::Storage) if the directory
    /// cannot be opened — including a durable index's *own* directory,
    /// whose `lock.topk` this handle already holds — or what it holds fails
    /// validation, or a file call fails.
    pub fn snapshot_to(&self, dir: &std::path::Path) -> Result<u64> {
        let points = self.all_points();
        let fs = crate::StdFs::open(dir).map_err(|e| crate::TopKError::Storage {
            what: format!("open {}: {e}", dir.display()),
        })?;
        let (store, _existing, prior_stamp) =
            crate::persist::DurableStore::open(std::sync::Arc::new(fs), &self.device())?;
        let current = match self {
            TopK::Single(i) => i.version(),
            TopK::Sharded(i) => i.read().version(),
        };
        store.compact(&points, current.max(prior_stamp));
        store.commit()?;
        Ok(points.len() as u64)
    }
}

/// Topology-agnostic commit-stamped operations for the `topk-testkit`
/// history recorder: one dispatch surface over the per-engine hooks. See
/// the engine impls for the exact stamp semantics of each topology.
#[cfg(feature = "testkit-hooks")]
impl TopK {
    /// The current commit stamp of the underlying topology (the write
    /// counter strict cursors compare).
    pub fn commit_stamp(&self) -> u64 {
        match self {
            TopK::Single(i) => i.version(),
            TopK::Sharded(i) => i.commit_stamp(),
        }
    }

    /// Insert `p`, returning the commit's stamp.
    pub fn insert_stamped(&self, p: Point) -> Result<u64> {
        match self {
            TopK::Single(i) => i.insert_stamped(p),
            TopK::Sharded(i) => i.insert_stamped(p),
        }
    }

    /// Delete `p`; `Some(stamp)` if it was present.
    pub fn delete_stamped(&self, p: Point) -> Result<Option<u64>> {
        match self {
            TopK::Single(i) => i.delete_stamped(p),
            TopK::Sharded(i) => i.delete_stamped(p),
        }
    }

    /// Apply `batch` atomically; the stamp is `None` when the batch mutated
    /// nothing (all-missing deletes).
    pub fn apply_stamped(&self, batch: &UpdateBatch) -> Result<(BatchSummary, Option<u64>)> {
        match self {
            TopK::Single(i) => i.apply_stamped(batch).map(|(s, v)| (s, Some(v))),
            TopK::Sharded(i) => i.apply_stamped(batch),
        }
    }

    /// The eager query answer plus the stamp window it was computed under.
    pub fn query_stamped(&self, x1: u64, x2: u64, k: usize) -> Result<(Vec<Point>, u64, u64)> {
        match self {
            TopK::Single(i) => i.query_stamped(x1, x2, k),
            TopK::Sharded(i) => i.query_stamped(x1, x2, k),
        }
    }
}

impl std::fmt::Debug for TopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopK")
            .field("topology", &self.topology())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl From<TopKIndex> for TopK {
    fn from(index: TopKIndex) -> Self {
        TopK::single(index)
    }
}

impl From<ShardedTopK> for TopK {
    fn from(index: ShardedTopK) -> Self {
        TopK::sharded(index)
    }
}

impl From<Arc<ShardedTopK>> for TopK {
    fn from(index: Arc<ShardedTopK>) -> Self {
        TopK::Sharded(index)
    }
}

impl From<Arc<TopKIndex>> for TopK {
    fn from(index: Arc<TopKIndex>) -> Self {
        TopK::Single(index)
    }
}

impl RankedIndex for TopK {
    fn engine_name(&self) -> &'static str {
        match self {
            TopK::Single(_) => "topk-single",
            TopK::Sharded(_) => "topk-sharded",
        }
    }

    fn len(&self) -> u64 {
        TopK::len(self)
    }

    fn space_blocks(&self) -> u64 {
        TopK::space_blocks(self)
    }

    fn insert(&self, p: Point) -> Result<()> {
        TopK::insert(self, p)
    }

    fn delete(&self, p: Point) -> Result<bool> {
        TopK::delete(self, p)
    }

    fn bulk_build(&self, points: &[Point]) -> Result<()> {
        TopK::bulk_build(self, points)
    }

    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        TopK::query(self, x1, x2, k)
    }

    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        TopK::count_in_range(self, x1, x2)
    }

    fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        TopK::apply(self, batch)
    }

    fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
        TopK::cursor(self, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, TopKConfig};
    use emsim::EmConfig;

    #[test]
    fn facade_delegates_to_every_topology() {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        let handles = vec![
            TopK::single(TopKIndex::new(&device, TopKConfig::for_tests())),
            TopK::sharded(ShardedTopK::new(&device, TopKConfig::for_tests(), 1)),
            TopK::sharded(ShardedTopK::new(&device, TopKConfig::for_tests(), 4)),
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
            assert_eq!(clone.len(), 300);
            assert_eq!(clone.topology(), handle.topology());
            assert!(format!("{handle:?}").contains(handle.topology()));
        }
    }

    #[test]
    fn build_auto_picks_topology_from_the_workload_shape() {
        let shards = |handle: TopK| match handle {
            TopK::Sharded(i) => i.shard_count(),
            other => panic!("build_auto must build sharded, got {other:?}"),
        };
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
