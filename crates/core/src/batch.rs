//! Atomic update batches.
//!
//! An [`UpdateBatch`] names a sequence of inserts and deletes that is applied
//! as one unit: the whole batch is validated up front (against the index and
//! against earlier operations in the same batch), so either every operation
//! lands or none does, and the global-rebuild policy runs once at commit
//! instead of once per operation. Batching also amortizes real work, not
//! just bookkeeping: a large batch validates against one `O(n/B)` scan
//! instead of one `O(log_B n)` descent per op, and a batch that rewrites a
//! sizable fraction of the set commits as a single global rebuild — the
//! paper's own batched-maintenance tool. [`TopKIndex::apply`] and
//! [`ShardedTopK::apply`](crate::ShardedTopK::apply) run this module's one
//! validation pass (`validate`) and one commit (`SubBatch::commit`); on the
//! sharded index the batch additionally costs exactly one write-lock
//! acquisition per affected shard. The `concurrent_reads` bench measures the
//! combined effect.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use epst::Point;

use crate::error::{Result, TopKError};
use crate::index::TopKIndex;

/// One operation of an [`UpdateBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the point.
    Insert(Point),
    /// Delete the point (exact coordinate and score).
    Delete(Point),
}

impl UpdateOp {
    /// The point the operation touches (what
    /// [`ShardedTopK`](crate::ShardedTopK) routes on).
    pub fn point(&self) -> Point {
        match *self {
            UpdateOp::Insert(p) | UpdateOp::Delete(p) => p,
        }
    }
}

/// A sequence of updates applied atomically, built fluently:
/// `UpdateBatch::new().insert(p).delete(q)`.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch holding `ops` in order.
    pub fn from_ops(ops: impl IntoIterator<Item = UpdateOp>) -> Self {
        Self {
            ops: ops.into_iter().collect(),
        }
    }

    /// Append an insertion (builder style).
    pub fn insert(mut self, p: Point) -> Self {
        self.ops.push(UpdateOp::Insert(p));
        self
    }

    /// Append a deletion (builder style).
    pub fn delete(mut self, p: Point) -> Self {
        self.ops.push(UpdateOp::Delete(p));
        self
    }

    /// Append an operation in place (loop style).
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }
}

/// What an applied batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Points inserted.
    pub inserted: usize,
    /// Points deleted.
    pub deleted: usize,
    /// Deletions that found no matching point (a no-op, mirroring the
    /// `Ok(false)` of a point-wise [`TopKIndex::delete`]).
    pub missing_deletes: usize,
}

/// A sub-batch whose resolved ops times this factor reach its shard's
/// post-commit point count commits as one rebuild of the shard instead of
/// point-wise descents. [`SubBatch::commit`] is the only reader, so the
/// crossover cannot diverge between [`TopKIndex::apply`] and
/// [`ShardedTopK::apply`](crate::ShardedTopK::apply).
pub(crate) const REBUILD_CROSSOVER: u64 = 16;

/// How batch validation looks up the pre-batch state of one shard (a bare
/// index is one shard).
pub(crate) enum LiveView {
    /// Probe the index per operation, as point writes do: an insert asks
    /// the pilot's base tree (one `O(log_B n)` descent), and only a delete
    /// or a colliding insert walks the `O(lg n)` script path for the point.
    /// Right for small batches.
    Probe,
    /// One `O(n/B)` scan up front, then every membership question is a free
    /// (CPU-side) hash lookup. Right once the batch is large enough that
    /// per-op descents would cost more than reading the whole set — this is
    /// where batching beats point-wise updates on *work*, not just on lock
    /// traffic.
    Scan(HashMap<u64, Point>),
}

impl LiveView {
    fn for_batch(index: &TopKIndex, ops: usize) -> Self {
        let block_words = index.device().block_words() as u64;
        let n = index.len();
        let scan_blocks = (n * Point::WORDS as u64) / block_words.max(1) + 1;
        let descent_blocks =
            emsim::log_b(block_words as usize, n.max(2) as usize).ceil() as u64 + 1;
        if (ops as u64) * descent_blocks >= scan_blocks {
            LiveView::Scan(index.all_points().into_iter().map(|p| (p.x, p)).collect())
        } else {
            LiveView::Probe
        }
    }

    fn get(&self, index: &TopKIndex, x: u64) -> Option<Point> {
        match self {
            LiveView::Probe => index.get(x),
            LiveView::Scan(live) => live.get(&x).copied(),
        }
    }

    fn contains(&self, index: &TopKIndex, x: u64) -> bool {
        match self {
            LiveView::Probe => index.contains(x),
            LiveView::Scan(live) => live.contains_key(&x),
        }
    }
}

/// One shard's share of a validated batch: the shard, the validation pass's
/// view of its pre-batch contents, and the ops that resolved against it, in
/// batch order (missing deletes dropped).
pub(crate) struct SubBatch<'a> {
    index: &'a TopKIndex,
    view: LiveView,
    ops: Vec<UpdateOp>,
}

/// The validation pass of every batch: simulate `batch` in op order over
/// `shards` (`route` gives the position of a point's shard), looking
/// coordinates up in that shard's [`LiveView`] and scores in the registry
/// `scores`, locked for the whole pass so racing writers cannot slip a
/// duplicate in. Overlays carry the batch's own earlier ops ("insert after
/// in-batch delete of the same x" is legal). Once every op has validated,
/// the score delta is applied and the resolved ops return per shard.
pub(crate) fn validate<'a>(
    batch: &UpdateBatch,
    scores: &Mutex<HashSet<u64>>,
    shards: &[&'a TopKIndex],
    route: impl Fn(Point) -> usize,
) -> Result<(Vec<SubBatch<'a>>, BatchSummary)> {
    let routes: Vec<usize> = batch.ops().iter().map(|op| route(op.point())).collect();
    // Large batches validate against one O(n/B) scan of a shard instead of
    // one O(log_B n) descent per op (see [`LiveView`]).
    let mut subs: Vec<SubBatch<'a>> = shards
        .iter()
        .enumerate()
        .map(|(j, &index)| SubBatch {
            index,
            view: LiveView::for_batch(index, routes.iter().filter(|&&r| r == j).count()),
            ops: Vec::new(),
        })
        .collect();
    let mut registry = scores.lock().unwrap();
    let mut x_overlay: HashMap<u64, Option<Point>> = HashMap::new();
    let mut score_overlay: HashMap<u64, bool> = HashMap::new();
    let mut summary = BatchSummary::default();
    for (op, &j) in batch.ops().iter().zip(&routes) {
        let sub = subs.get_mut(j).expect("route names one of the shards");
        let x = op.point().x;
        let overlay = x_overlay.get(&x).copied();
        match *op {
            UpdateOp::Insert(p) => {
                let taken = match overlay {
                    Some(slot) => slot.is_some(),
                    None => sub.view.contains(sub.index, x),
                };
                if taken {
                    return Err(
                        match overlay.flatten().or_else(|| sub.view.get(sub.index, x)) {
                            Some(existing) => TopKError::DuplicateX {
                                existing,
                                rejected: p,
                            },
                            None => TopKError::Inconsistent {
                                point: p,
                                component: "pilot",
                            },
                        },
                    );
                }
                if *score_overlay
                    .get(&p.score)
                    .unwrap_or(&registry.contains(&p.score))
                {
                    return Err(TopKError::DuplicateScore {
                        score: p.score,
                        rejected: p,
                    });
                }
                x_overlay.insert(p.x, Some(p));
                score_overlay.insert(p.score, true);
                summary.inserted += 1;
            }
            UpdateOp::Delete(p) => {
                // A non-matching delete is a runtime no-op, not a validation
                // error; it is counted as a miss, exactly like the
                // `Ok(false)` of a point-wise delete.
                let live = overlay.unwrap_or_else(|| sub.view.get(sub.index, x));
                if live != Some(p) {
                    summary.missing_deletes += 1;
                    continue;
                }
                x_overlay.insert(p.x, None);
                score_overlay.insert(p.score, false);
                summary.deleted += 1;
            }
        }
        sub.ops.push(*op);
    }
    for (score, live) in score_overlay {
        if live {
            registry.insert(score);
        } else {
            registry.remove(&score);
        }
    }
    Ok((subs, summary))
}

impl SubBatch<'_> {
    /// The commit of every batch, run under the shard's write lock, ending
    /// with the shard's journal commit. A sub-batch that rewrites a sizable
    /// fraction of its shard (resolved ops ≥ n/16) commits as one rebuild —
    /// the paper's own batched-maintenance tool, `O((n/B)·log_B n)` I/Os
    /// instead of one `O(log_B n)` descent per op, and from a `Scan` view
    /// without re-scanning the shard. Smaller ones apply point-wise with one
    /// deferred rebuild check. A resolved delete that misses means the
    /// validation view and the pilot disagree: [`TopKError::Inconsistent`].
    pub(crate) fn commit(self) -> Result<()> {
        let SubBatch { index, view, ops } = self;
        if ops.is_empty() {
            return Ok(());
        }
        let inserted = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::Insert(_)))
            .count() as u64;
        let n_after = (index.len() + inserted).max(1);
        if (ops.len() as u64) * REBUILD_CROSSOVER >= n_after {
            let mut live = match view {
                LiveView::Scan(live) => live,
                LiveView::Probe => index.all_points().into_iter().map(|p| (p.x, p)).collect(),
            };
            for op in &ops {
                match *op {
                    UpdateOp::Insert(p) => live.insert(p.x, p),
                    UpdateOp::Delete(p) => live.remove(&p.x),
                };
            }
            let points: Vec<Point> = live.into_values().collect();
            index.rebuild_unvalidated(&points);
        } else {
            for op in &ops {
                match *op {
                    UpdateOp::Insert(p) => index.insert_validated(p),
                    UpdateOp::Delete(p) => {
                        if !index.delete_validated(p) {
                            return Err(TopKError::Inconsistent {
                                point: p,
                                component: "batch-commit",
                            });
                        }
                    }
                }
            }
            index.maybe_rebuild();
        }
        index.maybe_compact_journal();
        index.durable_commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopKConfig, TopKIndex};
    use emsim::{Device, EmConfig};

    fn index_with(points: &[Point]) -> TopKIndex {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        let index = TopKIndex::new(&device, TopKConfig::for_tests());
        index.bulk_build(points).unwrap();
        index
    }

    #[test]
    fn builder_accumulates_ops_in_order() {
        let mut batch = UpdateBatch::new()
            .insert(Point::new(1, 10))
            .delete(Point::new(2, 20));
        batch.push(UpdateOp::Insert(Point::new(3, 30)));
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.ops()[1], UpdateOp::Delete(Point::new(2, 20)));
        assert!(UpdateBatch::new().is_empty());
    }

    #[test]
    fn apply_mixes_inserts_deletes_and_missing_deletes() {
        let index = index_with(&[Point::new(1, 10), Point::new(2, 20)]);
        let batch = UpdateBatch::new()
            .insert(Point::new(3, 30))
            .delete(Point::new(1, 10))
            .delete(Point::new(9, 99)) // absent
            .delete(Point::new(2, 21)); // score mismatch: also a miss
        let summary = index.apply(&batch).unwrap();
        assert_eq!(
            summary,
            BatchSummary {
                inserted: 1,
                deleted: 1,
                missing_deletes: 2,
            }
        );
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.query(0, 100, 10).unwrap(),
            vec![Point::new(3, 30), Point::new(2, 20)]
        );
    }

    #[test]
    fn batch_local_delete_frees_coordinate_and_score_for_reinsert() {
        let index = index_with(&[Point::new(5, 50)]);
        // Without the preceding delete this insert must be rejected…
        let err = index
            .apply(&UpdateBatch::new().insert(Point::new(5, 51)))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        // …with it, the batch is legal, including reusing the old score.
        let batch = UpdateBatch::new()
            .delete(Point::new(5, 50))
            .insert(Point::new(5, 51))
            .insert(Point::new(6, 50));
        let summary = index.apply(&batch).unwrap();
        assert_eq!(summary.inserted, 2);
        assert_eq!(summary.deleted, 1);
        assert_eq!(index.get(5), Some(Point::new(5, 51)));
        assert_eq!(index.get(6), Some(Point::new(6, 50)));
    }

    #[test]
    fn in_batch_collisions_are_rejected() {
        let index = index_with(&[]);
        let err = index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(1, 10))
                    .insert(Point::new(1, 11)),
            )
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(1, 10))
                    .insert(Point::new(2, 10)),
            )
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
    }

    #[test]
    fn probe_validation_of_an_insert_reads_no_more_than_reserve() {
        let device = Device::new(EmConfig::new(64, 64 * 16).exact_lru());
        let index = TopKIndex::new(&device, TopKConfig::for_tests());
        let points: Vec<Point> = (0..4_000u64)
            .map(|i| Point::new(2 * i, 3 * i + 1))
            .collect();
        index.bulk_build(&points).unwrap();
        let fresh = Point::new(4_001, 2);
        let batch = UpdateBatch::new().insert(fresh);
        device.drop_cache();
        let (validated, batch_reads) = device.measure(|| {
            let (subs, _) = validate(&batch, &index.scores, &[&index], |_| 0)?;
            Ok::<_, TopKError>(matches!(
                subs.first().map(|s| &s.view),
                Some(LiveView::Probe)
            ))
        });
        assert!(validated.unwrap(), "a one-op batch on 4,000 points probes");
        index.scores.lock().unwrap().remove(&fresh.score);
        device.drop_cache();
        let (reserved, reserve_reads) = device.measure(|| index.reserve(fresh));
        reserved.unwrap();
        assert!(
            batch_reads.reads <= reserve_reads.reads,
            "batch validation read {} blocks, reserve {}",
            batch_reads.reads,
            reserve_reads.reads
        );
    }

    #[test]
    fn failed_validation_applies_nothing() {
        let index = index_with(&[Point::new(1, 10), Point::new(2, 20)]);
        let before = index.query(0, u64::MAX, 10).unwrap();
        let batch = UpdateBatch::new()
            .insert(Point::new(3, 30)) // valid…
            .delete(Point::new(1, 10)) // valid…
            .insert(Point::new(2, 99)); // …but this collides: all-or-nothing
        let err = index.apply(&batch).unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        assert_eq!(index.len(), 2);
        assert_eq!(index.query(0, u64::MAX, 10).unwrap(), before);
    }
}
