//! The serving index: one structure, the §2 pilot PST. Its drain answers
//! every `k`, and its weight-balanced base tree over the coordinates is the
//! coordinate index (the insert probe and counts); `get` walks its script
//! path.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use emsim::Device;
use epst::{PilotPst, Point};

use crate::backend::Medium;
use crate::batch::{self, BatchSummary, SubBatch, UpdateBatch};
use crate::builder::IndexBuilder;
use crate::config::TopKConfig;
use crate::error::{Result, TopKError};
use crate::persist::{DurableStore, OP_DELETE, OP_INSERT};
use crate::query::QueryRequest;

/// The paper's global rebuilding: rebuild once the live size has grown or
/// shrunk by this factor since the last rebuild.
const REBUILD_FACTOR: u64 = 2;

/// The set of live scores, kept RAM-side purely to validate the model's
/// distinct-scores precondition (DESIGN.md §5: validation metadata outside
/// the EM space accounting). One per handle: a bare index owns its own, the
/// shards of a [`ShardedTopK`](crate::ShardedTopK) share their handle's.
pub(crate) type ScoreRegistry = Arc<Mutex<HashSet<u64>>>;

/// The dynamic top-k range reporting index. See the crate docs for the
/// guarantees and an example.
///
/// Constructed with [`TopKIndex::builder`]; all operations return
/// [`Result`], rejecting misuse (duplicate coordinates or scores, inverted
/// ranges, `k == 0`) instead of panicking or silently corrupting state.
pub struct TopKIndex {
    device: Device,
    config: TopKConfig,
    /// §2 structure, the only one every write maintains: its drain serves
    /// every `k`, its base tree answers the insert probe and counts, its
    /// script path answers `get`, and its delete is the membership test.
    pilot: PilotPst,
    /// Live size at the last global rebuild, for the rebuild policy.
    size_at_rebuild: AtomicU64,
    len: AtomicU64,
    /// Monotone write-version stamp, bumped by every committed mutation
    /// (insert, delete, rebuild). [`Consistency::Strict`](crate::Consistency)
    /// cursors compare it across fetch rounds to detect interleaved writes.
    version: AtomicU64,
    /// The registry this index validates scores against; coordinates are
    /// validated structurally through the pilot's base tree. Only
    /// validation writes it: inserts reserve, deletes release, a validated
    /// batch applies its delta, a bulk build replaces it. Rebuilds leave it
    /// alone.
    pub(crate) scores: ScoreRegistry,
    /// The operation journal of a durable index
    /// ([`TopKIndex::open_durable`]); `None` for a RAM-only one.
    durable: Option<DurableStore>,
    /// The version stamp recovered from the journal at open time (`None`
    /// unless this handle came from [`TopKIndex::open_durable`]).
    recovered: Option<u64>,
}

impl TopKIndex {
    /// Start building an index: `TopKIndex::builder().expected_n(n).build()?`.
    /// See [`IndexBuilder`] for all the knobs.
    pub fn builder() -> IndexBuilder {
        IndexBuilder::new()
    }

    /// Create an empty index on `device`.
    pub fn new(device: &Device, config: TopKConfig) -> Self {
        Self::with_registry(device, config, ScoreRegistry::default())
    }

    /// Create an empty index that validates scores against `scores`, a
    /// registry shared with the other shards of one handle.
    pub(crate) fn with_registry(
        device: &Device,
        config: TopKConfig,
        scores: ScoreRegistry,
    ) -> Self {
        Self {
            device: device.clone(),
            config,
            pilot: PilotPst::new(device, "topk.pilot"),
            size_at_rebuild: AtomicU64::new(0),
            len: AtomicU64::new(0),
            version: AtomicU64::new(0),
            scores,
            durable: None,
            recovered: None,
        }
    }

    /// Open (or create) a **durable** index on `device` whose files live on
    /// `medium`: recover the snapshot and journal, rebuild the in-RAM
    /// structures from the recovered point set, and resume stamping from the
    /// recovered version. From then on every committing mutation appends one
    /// synced journal frame (DESIGN.md §10): after a crash, reopening
    /// recovers every operation whose call returned `Ok`.
    ///
    /// Prefer the builder: `TopK::builder().durable(dir).build_auto()?`,
    /// which opens a [`StdFs`](crate::StdFs) on `dir`.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if the directory cannot be read or fails
    /// validation.
    pub fn open_durable(
        medium: Arc<dyn Medium>,
        device: &Device,
        config: TopKConfig,
    ) -> Result<Self> {
        let (store, points, stamp) = DurableStore::open(medium, device)?;
        let index = TopKIndex::new(device, config);
        if !points.is_empty() {
            // `durable` is still `None` here, so the rebuild does not
            // re-journal what the journal just told us.
            index.rebuild_unvalidated(&points);
        }
        *index.scores.lock().unwrap() = points.iter().map(|p| p.score).collect();
        index.version.store(stamp, Ordering::Release);
        let index = TopKIndex {
            durable: Some(store),
            recovered: Some(stamp),
            ..index
        };
        // Reopen cost stays O(n/B): a journal that outgrew its live set is
        // compacted now instead of being replayed again next time.
        if let Some(d) = &index.durable {
            if d.needs_compact(index.len()) {
                d.compact(&points, stamp);
                d.commit()?;
            }
        }
        Ok(index)
    }

    /// The monotone write-version stamp: strictly increases with every
    /// committed mutation (including internal rebuilds, which relocate
    /// points without changing the answer set). Two equal stamps therefore
    /// guarantee that no write committed in between; the converse does not
    /// hold. Strict cursors use it to detect interleaved writers.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The version stamp recovered from the operation journal when this
    /// handle was created by [`TopKIndex::open_durable`]; `None` for plain
    /// in-RAM indexes. Every operation committed before a crash has a stamp
    /// `≤` this value on reopen; nothing uncommitted survives.
    pub fn recovered_stamp(&self) -> Option<u64> {
        self.recovered
    }

    /// Whether this index journals its operations to a durable directory.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The device the index lives on (useful for reading I/O statistics).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The configuration in use.
    pub fn config(&self) -> TopKConfig {
        self.config
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied by the pilot structure, in blocks.
    pub fn space_blocks(&self) -> u64 {
        self.pilot.space_blocks() as u64
    }

    /// The point stored at coordinate `x`, if any: a walk down the pilot's
    /// script path, `O(lg n)` I/Os. At `n = 2^18` with 512-word blocks it
    /// read 11.7 blocks on average (14 at most) from a cold pool
    /// (DESIGN.md §3.6).
    pub fn get(&self, x: u64) -> Option<Point> {
        self.pilot.get(x)
    }

    /// Whether a point is stored at coordinate `x`: one descent of the
    /// pilot's base tree, the probe a point insert runs first.
    pub(crate) fn contains(&self, x: u64) -> bool {
        self.pilot.contains(x)
    }

    // ----- updates -----

    /// Insert a point. `O(log_B n)` amortized I/Os: the duplicate-coordinate
    /// check is one descent of the pilot's base tree, the path the insert
    /// itself descends next.
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`] if the
    /// model's distinctness preconditions would be violated; the index is
    /// unchanged in that case.
    pub fn insert(&self, p: Point) -> Result<()> {
        self.reserve(p)?;
        self.insert_validated(p);
        self.maybe_rebuild();
        self.maybe_compact_journal();
        self.durable_commit()
    }

    /// Delete a point (exact coordinate and score). Returns `Ok(false)` if it
    /// was not present. `O(log_B n)` amortized I/Os.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if a durable index's journal commit fails.
    pub fn delete(&self, p: Point) -> Result<bool> {
        let deleted = self.delete_validated(p);
        if deleted {
            self.scores.lock().unwrap().remove(&p.score);
            self.maybe_rebuild();
            self.maybe_compact_journal();
            self.durable_commit()?;
        }
        Ok(deleted)
    }

    /// Build the index from scratch out of `points` (`O((n/B)·log_B n)`
    /// I/Os), replacing the current contents.
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`] if `points`
    /// repeats a coordinate or a score; the index is unchanged in that case.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        let (_, scores) = check_distinct(points)?;
        self.rebuild_unvalidated(points);
        *self.scores.lock().unwrap() = scores;
        self.durable_commit()
    }

    /// Apply a batch of updates: the whole batch is validated up front
    /// (against the index *and* against earlier operations in the batch), so
    /// either every operation is applied or none is. The global-rebuild check
    /// runs once at commit instead of once per operation.
    ///
    /// Under concurrency, [`ShardedTopK::apply`](crate::ShardedTopK::apply)
    /// runs the same validation pass and commit over the affected shards,
    /// with one write-lock acquisition per shard.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        let (subs, summary) = batch::validate(batch, &self.scores, &[self], |_| 0)?;
        subs.into_iter().try_for_each(SubBatch::commit)?;
        Ok(summary)
    }

    // ----- internal update plumbing (shared with batches and `TheoremOne`) -----

    /// A point insert's validation: the duplicate-coordinate probe, then
    /// the score reservation. On `Err` nothing was reserved. Only a
    /// duplicate pays for looking up the point it collides with.
    pub(crate) fn reserve(&self, p: Point) -> Result<()> {
        if self.contains(p.x) {
            return Err(match self.pilot.get(p.x) {
                Some(existing) => TopKError::DuplicateX {
                    existing,
                    rejected: p,
                },
                None => TopKError::Inconsistent {
                    point: p,
                    component: "pilot",
                },
            });
        }
        // Reserved only after the coordinate probe, so a point that repeats
        // both reports its coordinate, as batches and bulk builds do.
        if !self.scores.lock().unwrap().insert(p.score) {
            return Err(TopKError::DuplicateScore {
                score: p.score,
                rejected: p,
            });
        }
        Ok(())
    }

    /// Insert without validating or checking the rebuild policy. The caller
    /// has already validated distinctness and reserved the score.
    pub(crate) fn insert_validated(&self, p: Point) {
        self.pilot.insert(p);
        self.len.fetch_add(1, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            d.append(OP_INSERT, p, stamp);
        }
    }

    /// Delete without checking the rebuild policy or releasing the score
    /// (the caller's validation owns the registry); `false` if `p` was not
    /// stored.
    pub(crate) fn delete_validated(&self, p: Point) -> bool {
        if !self.pilot.delete(p) {
            return false;
        }
        self.len.fetch_sub(1, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            d.append(OP_DELETE, p, stamp);
        }
        true
    }

    /// Rebuild the pilot structure from `points` without re-validating
    /// distinctness (used by the global-rebuild path, whose points come out
    /// of the structure itself, and by `bulk_build` after validation). The
    /// score registry is left alone: a rebuild never changes the score set,
    /// and bulk builds and recovery set the registry themselves.
    pub(crate) fn rebuild_unvalidated(&self, points: &[Point]) {
        self.pilot.rebuild_all(points);
        self.len.store(points.len() as u64, Ordering::Relaxed);
        self.size_at_rebuild
            .store(points.len() as u64, Ordering::Relaxed);
        let stamp = self.version.fetch_add(1, Ordering::Release) + 1;
        if let Some(d) = &self.durable {
            // A rebuild's content *is* the live set: journal it as a
            // snapshot, which also truncates the accumulated stream.
            d.compact(points, stamp);
        }
    }

    /// The paper's global rebuilding: once the live size has doubled or halved
    /// relative to the last rebuild, rebuild the pilot structure. Amortized
    /// over the `Ω(n)` updates in between this costs `O(log_B n)` per update.
    /// Returns the points a rebuild ran on, so [`TheoremOne`](crate::TheoremOne)
    /// can rebuild its reporter and k-selector from the same set.
    pub(crate) fn maybe_rebuild(&self) -> Option<Vec<Point>> {
        let n0 = self.size_at_rebuild.load(Ordering::Relaxed).max(64);
        let n = self.len();
        if n > REBUILD_FACTOR * n0 || (n0 >= 128 && n < n0 / REBUILD_FACTOR) {
            let pts = self.pilot.all_points();
            self.rebuild_unvalidated(&pts);
            return Some(pts);
        }
        None
    }

    /// Compact the journal once it outgrows the live set. Workloads that
    /// churn around a constant size never trigger the size-drift rebuild, so
    /// this is what keeps their journal at `O(n/B)` blocks.
    pub(crate) fn maybe_compact_journal(&self) {
        if let Some(d) = &self.durable {
            if d.needs_compact(self.len()) {
                let pts = self.pilot.all_points();
                d.compact(&pts, self.version());
            }
        }
    }

    /// Commit the journal records of the operation that just ran as one
    /// synced frame. No-op on non-durable indexes.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if this or an earlier journal call failed — the
    /// in-RAM index may then be ahead of the durable state: treat the handle
    /// as lost and reopen from the directory.
    pub(crate) fn durable_commit(&self) -> Result<()> {
        match &self.durable {
            Some(d) => d.commit(),
            None => Ok(()),
        }
    }

    // ----- queries -----

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, sorted by
    /// descending score (fewer if the range holds fewer points).
    ///
    /// Cost: `O(lg n + k/B)` I/Os from the §2 pilot drain, for every `k`.
    /// To consume the answer incrementally — paying only for the prefix
    /// actually taken — open a [`cursor`](TopKIndex::cursor).
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`, [`TopKError::ZeroK`] if
    /// `k == 0` (the seed code answered both with a silent empty vector).
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        Ok(self.query_unvalidated(x1, x2, k))
    }

    /// Open an owned [`QueryCursor`](crate::QueryCursor) over this bare
    /// index (consumes an `Arc` clone: `index.clone().cursor(req)?`). The
    /// bare index has no logical-atomicity lock, so the cursor is only
    /// meaningful without concurrent writers — under concurrency, take the
    /// cursor from a [`TopK`](crate::TopK::cursor) handle instead.
    pub fn cursor(self: Arc<Self>, request: QueryRequest) -> Result<crate::cursor::QueryCursor> {
        crate::cursor::QueryCursor::new(crate::cursor::Source::Index(self), request)
    }

    /// The eager query path: one pull of `k` points from a fresh §2 pilot
    /// drain, `O(lg n + k/B)`, so its I/O profile is the seed's single-shot
    /// plan; a cursor instead pulls its drains one page per round. The
    /// best-first drain replaced Figure 2's fixed-size heap selection and
    /// sibling expansion (since deleted), whose `Θ(φ·lg n)` constant made
    /// every query pay the `k = Θ(B·lg n)` worst case (the "k-cliff" in
    /// BENCH_query_scaling.json).
    pub(crate) fn query_unvalidated(&self, x1: u64, x2: u64, k: usize) -> Vec<Point> {
        if k == 0 || x1 > x2 || self.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(k.min(self.len() as usize));
        self.pilot.drain(x1, x2).pull(&self.pilot, k, &mut out);
        out
    }

    /// Number of points with `x ∈ [x1, x2]` (`O(log_B n)` I/Os, from the
    /// weights of the pilot's base tree).
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2` — the same validation as
    /// [`TopKIndex::query`] (this used to silently answer 0).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        Ok(self.pilot.count_in_range(x1, x2))
    }

    /// The unvalidated count, for internal callers that have already
    /// validated (or canonicalized) the range.
    pub(crate) fn count_unvalidated(&self, x1: u64, x2: u64) -> u64 {
        self.pilot.count_in_range(x1, x2)
    }

    /// All stored points (an `O(n/B)` scan; used by rebuilds and tests).
    pub fn all_points(&self) -> Vec<Point> {
        self.pilot.all_points()
    }

    // ----- structure access for the cursor's lanes and `TheoremOne` -----

    pub(crate) fn pilot(&self) -> &PilotPst {
        &self.pilot
    }

    /// Run the pilot structure's consistency checks, and check that the
    /// score registry holds exactly the stored points' scores (test
    /// support).
    pub fn check_invariants(&self) {
        self.check_components();
        let stored: HashSet<u64> = self.all_points().iter().map(|p| p.score).collect();
        assert_eq!(
            stored.len() as u64,
            self.len(),
            "two stored points share a score"
        );
        assert_eq!(
            *self.scores.lock().unwrap(),
            stored,
            "score registry drifted from the stored points"
        );
    }

    /// The structure checks alone: a shard's registry is its handle's, so
    /// [`ShardedTopK`](crate::ShardedTopK) checks it against every shard.
    pub(crate) fn check_components(&self) {
        self.pilot.check_invariants();
        assert_eq!(self.pilot.len(), self.len());
    }
}

impl std::fmt::Debug for TopKIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKIndex")
            .field("len", &self.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// The distinctness check of both bulk builds; returns `points` sorted by
/// coordinate (the sharded build splits on that order) and their scores.
/// Repeats are detected on the sorted copy and the score set, so a valid
/// input costs no coordinate hashing; only an invalid one is rescanned, to
/// report its first violation in input order, coordinate first within a
/// point, as point inserts and batches report theirs.
pub(crate) fn check_distinct(points: &[Point]) -> Result<(Vec<Point>, HashSet<u64>)> {
    let mut sorted = points.to_vec();
    sorted.sort_unstable_by_key(|p| p.x);
    let scores: HashSet<u64> = points.iter().map(|p| p.score).collect();
    let x_repeats = sorted
        .iter()
        .zip(sorted.iter().skip(1))
        .any(|(a, b)| a.x == b.x);
    if x_repeats || scores.len() < points.len() {
        let mut xs: HashMap<u64, Point> = HashMap::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for &p in points {
            if let Some(&existing) = xs.get(&p.x) {
                return Err(TopKError::DuplicateX {
                    existing,
                    rejected: p,
                });
            }
            xs.insert(p.x, p);
            if !seen.insert(p.score) {
                return Err(TopKError::DuplicateScore {
                    score: p.score,
                    rejected: p,
                });
            }
        }
    }
    Ok((sorted, scores))
}

/// Shared argument validation of the eager query paths.
pub(crate) fn validate_query(x1: u64, x2: u64, k: usize) -> Result<()> {
    if x1 > x2 {
        return Err(TopKError::InvertedRange { x1, x2 });
    }
    if k == 0 {
        return Err(TopKError::ZeroK);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

    #[test]
    fn insert_rejects_duplicates_and_leaves_index_unchanged() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::for_tests());
        index.insert(Point::new(10, 100)).unwrap();
        let err = index.insert(Point::new(10, 200)).unwrap_err();
        assert_eq!(
            err,
            TopKError::DuplicateX {
                existing: Point::new(10, 100),
                rejected: Point::new(10, 200),
            }
        );
        let err = index.insert(Point::new(20, 100)).unwrap_err();
        assert_eq!(
            err,
            TopKError::DuplicateScore {
                score: 100,
                rejected: Point::new(20, 100),
            }
        );
        assert_eq!(index.len(), 1);
        index.check_invariants();
        // Deleting frees both the coordinate and the score for reuse.
        assert!(index.delete(Point::new(10, 100)).unwrap());
        index.insert(Point::new(10, 100)).unwrap();
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn bulk_build_rejects_duplicates_atomically() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::for_tests());
        index
            .bulk_build(&[Point::new(1, 10), Point::new(2, 20)])
            .unwrap();
        let err = index
            .bulk_build(&[Point::new(5, 50), Point::new(6, 60), Point::new(5, 70)])
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .bulk_build(&[Point::new(5, 50), Point::new(6, 50)])
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
        // The failed builds left the previous contents intact.
        assert_eq!(index.len(), 2);
        assert_eq!(
            index.query(0, 100, 10).unwrap(),
            vec![Point::new(2, 20), Point::new(1, 10)]
        );
    }

    #[test]
    fn query_validation_reports_misuse() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::for_tests());
        index.insert(Point::new(10, 7)).unwrap();
        assert_eq!(
            index.query(30, 20, 3).unwrap_err(),
            TopKError::InvertedRange { x1: 30, x2: 20 }
        );
        assert_eq!(index.query(0, 100, 0).unwrap_err(), TopKError::ZeroK);
        // An empty (but not inverted) range is a legitimate empty answer.
        assert!(index.query(20, 30, 3).unwrap().is_empty());
    }

    #[test]
    fn serving_default_builds_and_maintains_no_k_selector() {
        let pts: Vec<Point> = (1..=3_000u64).map(|i| Point::new(i * 5, i * 7)).collect();
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::default());
        index.bulk_build(&pts).unwrap();
        for i in 1..=40u64 {
            index.insert(Point::new(i * 5 + 1, 100_000 + i)).unwrap();
            assert!(index.delete(Point::new(i * 10, i * 14)).unwrap());
        }
        index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(3, 1))
                    .delete(pts[2_000]),
            )
            .unwrap();
        index.check_invariants();
        let pages_of = |prefix: &str| -> u64 {
            dev.space_breakdown()
                .into_iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, pages)| pages)
                .sum()
        };
        let kselect_pages = pages_of("topk.polylog") + pages_of("topk.st12");
        assert_eq!(kselect_pages, 0, "the serving default built a k-selector");
        assert_eq!(
            pages_of("topk.reporter"),
            0,
            "the serving default built a reporter"
        );
        assert_eq!(index.space_blocks(), pages_of("topk.pilot"));
        assert_eq!(crate::RankedIndex::engine_name(&index), "pilot");
    }

    #[test]
    fn get_finds_points_by_coordinate() {
        let dev = device();
        let index = TopKIndex::new(&dev, TopKConfig::for_tests());
        assert_eq!(index.get(5), None);
        index.insert(Point::new(5, 50)).unwrap();
        assert_eq!(index.get(5), Some(Point::new(5, 50)));
        assert_eq!(index.get(6), None);
    }
}
