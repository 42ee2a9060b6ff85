//! The concurrent serving index behind the [`TopK`](crate::TopK) handle:
//! range shards, parallel writers.
//!
//! [`ShardedTopK`] range-partitions the coordinate space into `S ≥ 1`
//! shards — each an independent [`TopKIndex`] behind its own striped
//! reader–writer lock — with a router keeping the split points. One shard is
//! the right shape for small indexes and for every durable one; more shards
//! let writers scale with cores:
//!
//! * **updates** route to exactly one shard, take only that shard's write
//!   lock and run [`TopKIndex::insert`] / [`TopKIndex::delete`] there, so
//!   writers on different shards proceed in parallel;
//! * **batches** ([`ShardedTopK::apply`]) run the validation pass and commit
//!   of [`TopKIndex::apply`] over the affected shards: one pass in op order,
//!   then the per-shard sub-batches commit *in parallel*, each with its own
//!   deferred rebuild check — readers observe either the pre-batch or the
//!   post-batch state of every affected shard, never anything in between;
//! * **queries** lock only the shards overlapping `[x1, x2]`. A range inside
//!   one shard runs that shard's one-shot [`TopKIndex`] plan; a fan-out runs
//!   one cursor round: one pilot drain per overlapping shard and one merged
//!   pull of `k` points over all of them — a single best-first search under
//!   one threshold, so each shard is read about as far as its share of the
//!   answer needs (`tests/io_cost.rs` pins a two-shard fan-out to its
//!   shares' one-shard reads plus one page per shard, and every fan-out to
//!   `overlapping_shards × O(log_B(n/S) + k/B)` page reads);
//! * **rebalancing** migrates points once a shard exceeds twice the mean
//!   occupancy: the writer that trips the threshold repartitions *after* its
//!   own commit has released every per-operation lock, so the check runs off
//!   the reader path, and the repartition itself holds the router plus all
//!   shard write locks so no reader ever observes a torn migration.
//!
//! Each shard lock is **striped** (BRAVO-style, Dice & Kogan, USENIX ATC
//! 2019): a bank of cache-line-padded `RwLock<()>` stripes guards the shard's
//! index. A reader takes the read side of *its own thread's* stripe only, so
//! concurrent readers of one shard touch disjoint cache lines and scale with
//! cores instead of all CAS-ing one lock word; a writer takes the write side
//! of every stripe in ascending order, which still excludes all readers.
//!
//! Routing is read **lock-free**: the split points live in a copy-on-write
//! [`Router`] snapshot (an `Arc` behind a striped cell, [`RouterCell`]), so
//! neither queries nor point updates ever serialise on a router lock. An
//! operation loads the snapshot, acquires its shard locks, then validates
//! that the router `epoch` is unchanged — a repartition publishes a new
//! snapshot and bumps the epoch while holding **every** shard write lock, so
//! an operation that holds any shard lock and sees its snapshot's epoch knows
//! the routing cannot have moved under it (and retries on the rare miss).
//!
//! The global distinct-scores precondition, which no single shard can check
//! alone, needs no code of its own here: every shard validates against one
//! RAM-side score registry that the handle hands to all of them
//! (DESIGN.md §5), so a shard's own insert, delete and batch validation
//! check the whole index. The registry is only ever locked by a path that
//! already holds its shard locks, and is released before they are. Lock
//! order is therefore global and acyclic — shards in ascending id order
//! (within a shard, stripes in ascending order), then the score registry,
//! then the router cell's stripes (written only by the repartition paths) —
//! so the fan-out, the parallel commit and the rebalance cannot deadlock.
//!
//! A durable index is one shard opened with [`TopKIndex::open_durable`]: the
//! directory has one journal, so every path that mutates a shard ends by
//! committing that shard's journal (a no-op without a directory).

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use emsim::Device;
use epst::Point;

use crate::backend::Medium;
use crate::batch::{self, BatchSummary, UpdateBatch};
use crate::config::TopKConfig;
use crate::cursor::{self, Lane};
use crate::error::{Result, TopKError};
use crate::index::{check_distinct, validate_query, ScoreRegistry, TopKIndex};
use crate::stripe::{thread_stripe, STRIPES};

/// Rebalance only once the index holds this many points per shard on
/// average; below it, imbalance is noise and repartitioning would thrash.
const REBALANCE_MIN_PER_SHARD: u64 = 64;

/// The range router: `splits[i]` is the smallest coordinate routed to shard
/// `i + 1` (shard `i` covers `[splits[i-1], splits[i])`). Immutable once
/// published — a repartition builds a fresh `Router` with a bumped `epoch`
/// and swaps it into the [`RouterCell`] while holding every shard write
/// lock, so in-flight operations validate their snapshot instead of locking.
#[derive(Debug)]
struct Router {
    splits: Vec<u64>,
    /// Which repartition published this snapshot. An operation that holds a
    /// shard lock and observes [`ShardedTopK::epoch`] equal to this value
    /// knows its routing is current (the module docs give the argument).
    epoch: u64,
}

impl Router {
    /// Even splits over the whole `u64` domain (the empty-index default; the
    /// first bulk build or rebalance replaces them with data quantiles).
    fn even(shards: usize, epoch: u64) -> Self {
        let step = u64::MAX / shards as u64;
        Self {
            splits: (1..shards as u64).map(|i| i * step).collect(),
            epoch,
        }
    }

    /// Equal-count quantile splits over `points`, which must be sorted by
    /// coordinate. Duplicate splits (fewer points than shards) leave some
    /// shards empty, which routing handles fine.
    fn from_sorted(points: &[Point], shards: usize, epoch: u64) -> Self {
        if points.is_empty() {
            return Self::even(shards, epoch);
        }
        let n = points.len();
        Self {
            splits: (1..shards)
                .map(|i| {
                    points
                        .get((i * n / shards).min(n - 1))
                        .expect("index clamped to n-1 of a non-empty slice")
                        .x
                })
                .collect(),
            epoch,
        }
    }

    fn shard_of(&self, x: u64) -> usize {
        self.splits.partition_point(|&s| s <= x)
    }

    /// Inclusive shard-id range overlapping `[x1, x2]` (requires `x1 ≤ x2`).
    fn overlap(&self, x1: u64, x2: u64) -> (usize, usize) {
        (self.shard_of(x1), self.shard_of(x2))
    }
}

/// One stripe of the router cell: a cache-line-padded slot holding the
/// current snapshot. Padding keeps a snapshot load (a read lock plus an
/// `Arc` clone) on the loading thread's own line.
#[derive(Debug)]
#[repr(align(64))]
struct RouterStripe {
    router_stripe: RwLock<Arc<Router>>,
}

/// The copy-on-write cell the current [`Router`] snapshot is published
/// through. Striped like the shard locks ([`ShardLock`]): a snapshot load
/// touches only the calling thread's stripe, while a publish (repartition
/// only — rare) rewrites every stripe in order. Loads
/// are instantaneous (clone an `Arc` under a read lock held for two
/// instructions), so the cell never becomes the serialisation point the old
/// `RwLock<Router>` was.
struct RouterCell {
    stripes: Box<[RouterStripe]>,
}

impl RouterCell {
    fn new(router: Router) -> Self {
        let router = Arc::new(router);
        Self {
            stripes: (0..STRIPES)
                .map(|_| RouterStripe {
                    router_stripe: RwLock::new(Arc::clone(&router)),
                })
                .collect(),
        }
    }

    /// The current routing snapshot (own-stripe read lock, `Arc` clone).
    fn snapshot(&self) -> Arc<Router> {
        let stripe = self
            .stripes
            .get(thread_stripe(self.stripes.len()))
            .expect("thread_stripe is reduced modulo the stripe count");
        let guard = stripe.router_stripe.read().unwrap();
        Arc::clone(&guard)
    }

    /// Publish a new snapshot to every stripe. Callers must hold every shard
    /// write lock (repartition paths only) so no reader can have validated a
    /// now-stale snapshot against a shard it still holds.
    fn publish(&self, router: &Arc<Router>) {
        for stripe in self.stripes.iter() {
            *stripe.router_stripe.write().unwrap() = Arc::clone(router);
        }
    }
}

/// One read stripe on its own cache line (readers on different stripes never
/// share a line). The field is named `inner` so acquisitions audit under the
/// `shard` lock class of DESIGN.md §8 — same-class nesting is sanctioned
/// there under the ascending-order convention the writers follow.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ReadStripe {
    inner: RwLock<()>,
}

/// One shard: a [`TopKIndex`] behind a striped reader–writer lock (module
/// docs). [`ShardLock::read`] holds the calling thread's stripe,
/// [`ShardLock::write`] every stripe in ascending order. `TopKIndex`'s
/// mutating operations take `&self` (interior mutability), so both guards
/// just deref to the index, and its lock-free `len` feeds the rebalance
/// policy and [`ShardedTopK::len`] without taking the lock.
struct ShardLock {
    index: TopKIndex,
    stripes: Box<[ReadStripe]>,
}

impl ShardLock {
    fn new(index: TopKIndex) -> Self {
        Self {
            index,
            stripes: (0..STRIPES).map(|_| ReadStripe::default()).collect(),
        }
    }

    /// Shared access: read-lock only the calling thread's stripe.
    fn read(&self) -> ShardRead<'_> {
        let stripe = self
            .stripes
            .get(thread_stripe(self.stripes.len()))
            .expect("thread_stripe is reduced modulo the stripe count");
        ShardRead {
            index: &self.index,
            _stripe: stripe.inner.read().unwrap(),
        }
    }

    /// Exclusive access: write-lock every stripe in ascending order, so
    /// racing writers cannot deadlock and every reader is excluded before
    /// the guard is handed out.
    fn write(&self) -> ShardWrite<'_> {
        ShardWrite {
            index: &self.index,
            _stripes: self
                .stripes
                .iter()
                .map(|stripe| stripe.inner.write().unwrap())
                .collect(),
        }
    }
}

/// The read side of one shard: derefs to its index, excludes its writers.
struct ShardRead<'a> {
    index: &'a TopKIndex,
    _stripe: RwLockReadGuard<'a, ()>,
}

impl Deref for ShardRead<'_> {
    type Target = TopKIndex;

    fn deref(&self) -> &TopKIndex {
        self.index
    }
}

/// The write side of one shard: derefs to its index, excludes everyone else.
struct ShardWrite<'a> {
    index: &'a TopKIndex,
    _stripes: Vec<RwLockWriteGuard<'a, ()>>,
}

impl Deref for ShardWrite<'_> {
    type Target = TopKIndex;

    fn deref(&self) -> &TopKIndex {
        self.index
    }
}

/// A range-sharded [`TopKIndex`] for concurrent serving: updates lock only
/// the shard owning their coordinate, queries lock the overlapping shards and
/// merge lazily across them. The module-level docs describe the architecture
/// and locking discipline.
///
/// Served through a [`TopK`](crate::TopK) handle, which derefs to it:
/// built with [`TopK::builder`](crate::TopK::builder)
/// (`…​.shards(s).build_auto()?`; the default shard count is derived from
/// [`expected_n`](crate::IndexBuilder::expected_n), and a durable index is
/// one shard). Shared across threads as a `TopK` clone or, with scoped
/// threads, as `&ShardedTopK`.
///
/// ```
/// use topk_core::{Point, TopK};
///
/// let index = TopK::builder()
///     .expected_n(1 << 20)
///     .shards(4)
///     .build_auto()?;
/// std::thread::scope(|s| {
///     // Writers on different coordinate ranges lock different shards.
///     s.spawn(|| index.insert(Point::new(1, 10)));
///     s.spawn(|| index.insert(Point::new(u64::MAX / 2, 20)));
/// });
/// assert_eq!(index.len(), 2);
/// # Ok::<(), topk_core::TopKError>(())
/// ```
pub struct ShardedTopK {
    /// Kept outside every lock so monitoring reads never block on updates.
    device: Device,
    config: TopKConfig,
    router: RouterCell,
    /// Epoch of the currently published routing snapshot; bumped (with the
    /// publish) under every shard write lock. Operations validate their
    /// snapshot against it after acquiring shard locks — see module docs.
    epoch: AtomicU64,
    /// The shards, in coordinate order. All of them validate against one
    /// shared score registry (module docs).
    shards: Box<[ShardLock]>,
    /// Collapses concurrent rebalance attempts into one.
    rebalancing: AtomicBool,
    /// Global commit stamp: bumped once per committed write (point op,
    /// batch, bulk build or rebalance) *before* the write's locks are
    /// released. A [`Consistency::Strict`](crate::Consistency) cursor that
    /// observes the same stamp across rounds is therefore guaranteed that no
    /// write committed to its covered shards in between (shard-local stamps
    /// cannot witness that: a rebalance moves points across shard
    /// boundaries, so strictness on a sharded index means "no write
    /// anywhere").
    commits: AtomicU64,
}

impl ShardedTopK {
    /// Create an empty sharded index on `device` with `shards` range
    /// partitions (callers normally go through the builder, which validates
    /// and supplies defaults). All shards share one score registry.
    pub fn new(device: &Device, config: TopKConfig, shards: usize) -> Self {
        let scores = ScoreRegistry::default();
        let indexes = (0..shards.max(1))
            .map(|_| TopKIndex::with_registry(device, config, Arc::clone(&scores)))
            .collect();
        Self::from_shards(device, config, indexes)
    }

    /// Open (or create) the durable index on `medium` as one shard: the
    /// directory has a single journal, which [`TopKIndex::open_durable`]
    /// recovers into the shard. The shard's registry, seeded from the
    /// recovered points, is the handle's.
    pub(crate) fn open_durable(
        medium: Arc<dyn Medium>,
        device: &Device,
        config: TopKConfig,
    ) -> Result<Self> {
        let index = TopKIndex::open_durable(medium, device, config)?;
        Ok(Self::from_shards(device, config, vec![index]))
    }

    /// Assemble the index over `indexes`, one per shard, which already share
    /// one score registry. A recovered shard resumes the commit stamp at its
    /// recovered stamp, so stamps never go backwards across a restart.
    fn from_shards(device: &Device, config: TopKConfig, indexes: Vec<TopKIndex>) -> Self {
        let stamp = indexes
            .iter()
            .filter_map(TopKIndex::recovered_stamp)
            .max()
            .unwrap_or(0);
        Self {
            device: device.clone(),
            config,
            router: RouterCell::new(Router::even(indexes.len(), 0)),
            epoch: AtomicU64::new(0),
            shards: indexes.into_iter().map(ShardLock::new).collect(),
            rebalancing: AtomicBool::new(false),
            commits: AtomicU64::new(stamp),
        }
    }

    /// The device the index lives on (a handle held outside every lock, so
    /// I/O statistics never block on in-flight updates).
    pub fn device(&self) -> Device {
        self.device.clone()
    }

    /// The configuration shards were derived from.
    pub fn config(&self) -> TopKConfig {
        self.config
    }

    /// Number of shards the coordinate space is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The version stamp recovered from the journal when this index was
    /// opened durably; `None` for in-RAM indexes.
    pub fn recovered_stamp(&self) -> Option<u64> {
        self.shards
            .first()
            .and_then(|index| index.read().recovered_stamp())
    }

    /// Current per-shard occupancy (lock-free; feeds the rebalance policy).
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.index.len()).collect()
    }

    /// How many shards a query over `[x1, x2]` fans out to (0 for an
    /// inverted range). The I/O cost of a fan-out query is bounded by this
    /// factor times a single shard's query bound.
    pub fn overlapping_shards(&self, x1: u64, x2: u64) -> usize {
        if x1 > x2 {
            return 0;
        }
        let router = self.router.snapshot();
        let (lo, hi) = router.overlap(x1, x2);
        hi - lo + 1
    }

    /// Number of stored points (sum of the shards' lock-free lengths).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space occupied by all shards, in blocks (read-locks each shard in
    /// turn).
    pub fn space_blocks(&self) -> u64 {
        self.shards
            .iter()
            .map(|index| index.read().space_blocks())
            .sum()
    }

    // ----- queries -----

    /// Acquire the read side of *every* shard, pinning one consistent
    /// version of the whole index — for callers that want several queries
    /// against an unmoving state. Targeted one-shot queries should prefer
    /// [`ShardedTopK::query`], which locks only the overlapping shards. No
    /// router lock is taken: the guard carries the routing snapshot,
    /// epoch-validated after the shard locks are held.
    pub fn read(&self) -> ShardedReadGuard<'_> {
        loop {
            let router = self.router.snapshot();
            let guards: Vec<_> = self.shards.iter().map(|index| index.read()).collect();
            // With every shard read-held, a repartition cannot commit; an
            // unchanged epoch therefore proves the snapshot is current.
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue;
            }
            return ShardedReadGuard {
                router,
                base: 0,
                guards,
                // Loaded after every lock is held: commits to the covered
                // shards are ordered before the stamp, so equal stamps
                // witness an unmoved snapshot of them.
                stamp: self.commits.load(Ordering::Acquire),
            };
        }
    }

    /// Read locks for the shards overlapping `[x1, x2]` only (`x1 ≤ x2`).
    /// Used by the eager query paths and by the cursor read plane, which
    /// re-acquires it once per fetch round. Lock-free routing: snapshot,
    /// acquire, validate the epoch, retry on the (rare) repartition race.
    pub(crate) fn read_span(&self, x1: u64, x2: u64) -> ShardedReadGuard<'_> {
        loop {
            let router = self.router.snapshot();
            let (lo, hi) = router.overlap(x1, x2);
            let guards: Vec<_> = self
                .shards
                .get(lo..=hi)
                .expect("router overlap yields in-range shard ids")
                .iter()
                .map(|index| index.read())
                .collect();
            // A repartition publishes under *all* shard write locks; holding
            // any covered shard read lock with an unchanged epoch proves the
            // span still matches the live routing.
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue;
            }
            return ShardedReadGuard {
                router,
                base: lo,
                guards,
                stamp: self.commits.load(Ordering::Acquire),
            };
        }
    }

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, descending:
    /// read-lock the overlapping shards and answer as
    /// [`ShardedReadGuard::query`] does — one shard's one-shot plan, or one
    /// merged pull over the overlapping shards on a fan-out. Shards outside
    /// the range are neither locked nor touched.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] / [`TopKError::ZeroK`], as on
    /// [`TopKIndex::query`].
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        self.read_span(x1, x2).query(x1, x2, k)
    }

    /// Number of points with `x ∈ [x1, x2]`, summed over the overlapping
    /// shards under one consistent set of read locks.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`, the same validation as
    /// [`ShardedTopK::query`] (this used to silently answer 0).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        let guard = self.read_span(x1, x2);
        Ok(guard
            .guards
            .iter()
            .map(|g| g.count_unvalidated(x1, x2))
            .sum())
    }

    /// The point stored at coordinate `x`, if any (one shard's read lock).
    pub fn get(&self, x: u64) -> Option<Point> {
        let guard = self.read_span(x, x);
        guard.guards.first().and_then(|g| g.get(x))
    }

    /// Every stored point by descending score: the full-range top-`n`
    /// query, an `O(n/B)` scan. For an exact snapshot, call it while no
    /// writer is active.
    pub fn all_points(&self) -> Vec<Point> {
        match self.len() {
            0 => Vec::new(),
            n => self.query(0, u64::MAX, n as usize).unwrap_or_default(),
        }
    }

    /// Snapshot the current contents into a durable index directory: after
    /// this returns, `dir` holds a synced snapshot and an empty journal that
    /// `TopK::builder().durable(dir).build_auto()` reopens, whatever the
    /// shard count of this index and whether or not it is durable. An
    /// existing index in `dir` is replaced wholesale. Returns the number of
    /// points captured.
    ///
    /// The snapshot is taken with [`ShardedTopK::all_points`]; run it while
    /// no writer is active to capture one exact state. The image is stamped
    /// with `max(self's commit stamp, the stamp already in dir)`, so
    /// reopening never observes the version stamp going backwards — even
    /// when overwriting an older, higher-stamped image.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if the directory cannot be opened — including
    /// a durable index's *own* directory, whose `lock.topk` this index
    /// already holds — or what it holds fails validation, or a file call
    /// fails.
    pub fn snapshot_to(&self, dir: &std::path::Path) -> Result<u64> {
        let points = self.all_points();
        let fs = crate::StdFs::open(dir).map_err(|e| TopKError::Storage {
            what: format!("open {}: {e}", dir.display()),
        })?;
        let (store, _existing, prior_stamp) =
            crate::persist::DurableStore::open(Arc::new(fs), &self.device)?;
        let current = self.commits.load(Ordering::Acquire);
        store.compact(&points, current.max(prior_stamp));
        store.commit()?;
        Ok(points.len() as u64)
    }

    // ----- updates -----

    /// Insert a point: take only the owning shard's write lock and run
    /// [`TopKIndex::insert`] there, which checks the score against the
    /// registry every shard shares. Writers for different shards proceed in
    /// parallel; a bulk build or rebalance (every shard's write lock)
    /// serialises before or after the whole insert.
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`], exactly as
    /// on [`TopKIndex::insert`]; the index is unchanged in that case.
    pub fn insert(&self, p: Point) -> Result<()> {
        self.insert_inner(p).map(|_| ())
    }

    /// The insert path, reporting the exact global commit stamp the write
    /// received (assigned while the shard write lock is held, so stamps
    /// order commits).
    fn insert_inner(&self, p: Point) -> Result<u64> {
        let stamp = self.write_point(p.x, |index| index.insert(p))?;
        Ok(stamp.expect("a successful insert moves its shard's version"))
    }

    /// Delete a point (exact coordinate and score); `Ok(false)` if absent.
    /// Runs [`TopKIndex::delete`] under the owning shard's write lock.
    ///
    /// # Errors
    ///
    /// As on [`TopKIndex::delete`].
    pub fn delete(&self, p: Point) -> Result<bool> {
        self.delete_inner(p).map(|stamp| stamp.is_some())
    }

    /// The delete path, reporting the global commit stamp when the point
    /// was present (no stamp is burned for a miss).
    fn delete_inner(&self, p: Point) -> Result<Option<u64>> {
        self.write_point(p.x, |index| index.delete(p).map(drop))
    }

    /// Run `write` on the shard owning coordinate `x` under its write lock,
    /// the routing epoch validated, and return the write's global commit
    /// stamp: a write that moved the shard's version is stamped before the
    /// lock drops, even when its journal commit then failed; a rejected
    /// insert or a missing delete is not. A successful, stamped write then
    /// runs the rebalance check with the lock released.
    fn write_point(&self, x: u64, write: impl Fn(&TopKIndex) -> Result<()>) -> Result<Option<u64>> {
        loop {
            let router = self.router.snapshot();
            let index = self
                .shards
                .get(router.shard_of(x))
                .expect("router routes to an existing shard");
            let guard = index.write();
            if self.epoch.load(Ordering::Acquire) != router.epoch {
                continue; // routing moved under us: drop the guard, re-route
            }
            let version = guard.version();
            let outcome = write(&guard);
            let stamp = (guard.version() != version)
                .then(|| self.commits.fetch_add(1, Ordering::Release) + 1);
            drop(guard);
            outcome?;
            if stamp.is_some() {
                self.maybe_rebalance()?;
            }
            return Ok(stamp);
        }
    }

    /// Replace the contents with `points`: validate global distinctness,
    /// compute equal-count splits, and rebuild every shard **in parallel**
    /// under the full write-side lock set (readers see the old or the new
    /// contents, nothing in between).
    ///
    /// # Errors
    ///
    /// [`TopKError::DuplicateX`] / [`TopKError::DuplicateScore`], the first
    /// violation in input order exactly as on [`TopKIndex::bulk_build`];
    /// the index is unchanged in that case.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        let (sorted, scores) = check_distinct(points)?;
        // Every shard write lock, ascending: excludes all readers, writers
        // and any concurrent repartition for the whole replace-and-publish.
        let guards: Vec<_> = self.shards.iter().map(|index| index.write()).collect();
        let first = guards.first().expect("an index has at least one shard");
        *first.scores.lock().unwrap() = scores;
        self.repartition(&guards, &sorted)
    }

    /// Apply a whole [`UpdateBatch`] atomically across shards: the batch is
    /// routed, the affected shards are write-locked, and the validation pass
    /// and per-shard commit of [`TopKIndex::apply`] run over them, the
    /// sub-commits **in parallel**. All affected shards stay write-locked
    /// until every sub-commit is done, so readers observe either the
    /// pre-batch or the post-batch state.
    ///
    /// # Errors
    ///
    /// Validation errors ([`TopKError::DuplicateX`] /
    /// [`TopKError::DuplicateScore`]) leave the index unchanged.
    /// [`TopKError::Inconsistent`] from a sub-commit is fatal, exactly as on
    /// [`TopKIndex::apply`].
    pub fn apply(&self, batch: &UpdateBatch) -> Result<BatchSummary> {
        self.apply_inner(batch).map(|(summary, _)| summary)
    }

    /// The batch path, reporting the global commit stamp when the batch
    /// mutated anything (a batch of nothing but missing deletes commits no
    /// data and burns no stamp).
    fn apply_inner(&self, batch: &UpdateBatch) -> Result<(BatchSummary, Option<u64>)> {
        if batch.is_empty() {
            return Ok((BatchSummary::default(), None));
        }
        let (router, affected, guards) = loop {
            let router = self.router.snapshot();
            let mut affected: Vec<usize> = batch
                .ops()
                .iter()
                .map(|op| router.shard_of(op.point().x))
                .collect();
            affected.sort_unstable();
            affected.dedup();
            // Ascending acquisition keeps the global lock order acyclic.
            let guards: Vec<_> = affected
                .iter()
                .map(|&i| self.shards.get(i).expect("the router names shards"))
                .map(|index| index.write())
                .collect();
            // Routing validated under the shard write locks, as on the
            // point-wise paths: retry if a repartition moved the splits
            // between the snapshot and the lock acquisition.
            if self.epoch.load(Ordering::Acquire) == router.epoch {
                break (router, affected, guards);
            }
        };
        let indexes: Vec<&TopKIndex> = guards.iter().map(|guard| &**guard).collect();
        let first = indexes.first().expect("a non-empty batch affects a shard");
        let (subs, summary) = batch::validate(batch, &first.scores, &indexes, |p| {
            affected.partition_point(|&i| i < router.shard_of(p.x))
        })?;

        // Commit each shard's sub-batch, in parallel when the batch spans
        // shards.
        match <[_; 1]>::try_from(subs) {
            Ok([sub]) => sub.commit()?,
            Err(subs) => std::thread::scope(|scope| {
                let commits: Vec<_> = subs
                    .into_iter()
                    .map(|sub| scope.spawn(move || sub.commit()))
                    .collect();
                commits.into_iter().try_for_each(|commit| {
                    commit
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
            })?,
        }
        // A batch of nothing but missing deletes changed no data: bumping
        // the stamp would spuriously invalidate strict cursors for a no-op
        // (the point-wise paths only bump on actual mutations).
        let stamp = (summary.inserted + summary.deleted > 0)
            .then(|| self.commits.fetch_add(1, Ordering::Release) + 1);
        drop(guards);
        self.maybe_rebalance()?;
        Ok((summary, stamp))
    }

    // ----- rebalancing -----

    /// The rebalance trigger, run by the committing writer *after* its
    /// per-operation locks are released (so the check — and the repartition
    /// it may start — never extends an update's critical section). At most
    /// one rebalance runs at a time.
    fn maybe_rebalance(&self) -> Result<()> {
        let shards = self.shards.len() as u64;
        if shards <= 1 {
            return Ok(());
        }
        let lens = self.shard_lens();
        let total: u64 = lens.iter().sum();
        if total < REBALANCE_MIN_PER_SHARD * shards {
            return Ok(());
        }
        let mean = total / shards;
        if lens.iter().max().copied().unwrap_or(0) <= 2 * mean.max(1) {
            return Ok(());
        }
        if self.rebalancing.swap(true, Ordering::Acquire) {
            return Ok(());
        }
        let outcome = self.rebalance_now();
        self.rebalancing.store(false, Ordering::Release);
        outcome
    }

    /// Repartition immediately: recompute equal-count splits from the live
    /// contents and migrate points to their new shards, rebuilding every
    /// shard in parallel. Holds every shard's write lock for the duration
    /// (the new router snapshot and its epoch are published before any lock
    /// is released), so concurrent readers observe the old or the new
    /// partitioning — never a point twice or not at all.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if a durable shard's journal commit fails.
    pub fn rebalance_now(&self) -> Result<()> {
        let guards: Vec<_> = self.shards.iter().map(|index| index.write()).collect();
        let mut all: Vec<Point> = guards.iter().flat_map(|g| g.all_points()).collect();
        all.sort_unstable_by_key(|p| p.x);
        self.repartition(&guards, &all)
    }

    /// Rebuild every shard from `sorted` (ascending by coordinate) under the
    /// full write-lock set `guards`, with fresh equal-count splits, and
    /// publish the new routing — the shared tail of bulk builds and
    /// rebalances.
    fn repartition(&self, guards: &[ShardWrite<'_>], sorted: &[Point]) -> Result<()> {
        let next_epoch = self.epoch.load(Ordering::Acquire) + 1;
        let new_router = Arc::new(Router::from_sorted(sorted, self.shards.len(), next_epoch));
        let slices = partition_sorted(sorted, &new_router);
        let mut work = guards.iter().zip(&slices);
        let (first, first_slice) = work.next().expect("an index has at least one shard");
        std::thread::scope(|scope| {
            for (guard, slice) in work {
                let index: &TopKIndex = guard;
                scope.spawn(move || index.rebuild_unvalidated(slice));
            }
            // The calling thread rebuilds one shard itself instead of idling.
            // A one-shard index thus spawns no thread, and its structures
            // are allocated by the thread that goes on to update them.
            first.rebuild_unvalidated(first_slice);
        });
        // Publish before the epoch bump: a snapshot loaded in between
        // carries the *new* epoch and validates once the bump lands.
        self.router.publish(&new_router);
        self.epoch.store(next_epoch, Ordering::Release);
        self.commits.fetch_add(1, Ordering::Release);
        for guard in guards {
            guard.maybe_compact_journal();
            guard.durable_commit()?;
        }
        Ok(())
    }

    /// Run every shard's internal consistency checks and verify the routing
    /// and the score registry: every shard shares one registry, and it
    /// holds exactly the scores stored across the shards (test support).
    pub fn check_invariants(&self) {
        let pinned = self.read();
        let first = pinned
            .guards
            .first()
            .expect("an index has at least one shard");
        let mut stored = HashSet::new();
        let mut total = 0u64;
        for (i, index) in pinned.guards.iter().enumerate() {
            index.check_components();
            assert!(
                Arc::ptr_eq(&index.scores, &first.scores),
                "shard {i} validates against a registry of its own"
            );
            for p in index.all_points() {
                assert_eq!(
                    pinned.router.shard_of(p.x),
                    i,
                    "point ({}, {}) misrouted",
                    p.x,
                    p.score
                );
                stored.insert(p.score);
            }
            total += index.len();
        }
        assert_eq!(
            stored.len() as u64,
            total,
            "two stored points share a score"
        );
        assert_eq!(
            *first.scores.lock().unwrap(),
            stored,
            "score registry drifted from the shards' stored points"
        );
    }
}

/// Commit-stamped operations for the `topk-testkit` history recorder.
/// Writes report the exact stamp their commit received (assigned under the
/// shard write locks, so stamps totally order commits); queries report the
/// `[before, after]` window of the global stamp around their shard-locked
/// read, inside which a witness version for the answer must exist.
#[cfg(feature = "testkit-hooks")]
impl ShardedTopK {
    /// The current global commit stamp.
    pub fn commit_stamp(&self) -> u64 {
        self.commits.load(Ordering::Acquire)
    }

    /// Insert `p` and return the exact global commit stamp of the write.
    pub fn insert_stamped(&self, p: Point) -> Result<u64> {
        self.insert_inner(p)
    }

    /// Delete `p`; `Some(stamp)` if it was present (a miss burns no stamp).
    pub fn delete_stamped(&self, p: Point) -> Result<Option<u64>> {
        self.delete_inner(p)
    }

    /// Apply `batch` atomically; the stamp is `Some` when the batch mutated
    /// anything.
    pub fn apply_stamped(&self, batch: &UpdateBatch) -> Result<(BatchSummary, Option<u64>)> {
        self.apply_inner(batch)
    }

    /// The eager fan-out answer plus the global-stamp window around the
    /// shard-locked read. Writes to shards outside the span may widen the
    /// window without affecting the answer; writes to covered shards are
    /// either entirely before the read (stamp within or below the window)
    /// or entirely after it (stamp above the window's low end), so a
    /// witness version always exists inside `[lo, hi]`.
    pub fn query_stamped(&self, x1: u64, x2: u64, k: usize) -> Result<(Vec<Point>, u64, u64)> {
        let lo = self.commits.load(Ordering::Acquire);
        let out = self.query(x1, x2, k)?;
        let hi = self.commits.load(Ordering::Acquire);
        Ok((out, lo, hi))
    }
}

impl std::fmt::Debug for ShardedTopK {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTopK")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("shard_lens", &self.shard_lens())
            .finish_non_exhaustive()
    }
}

/// Split `sorted` (ascending by coordinate) into per-shard slices according
/// to `router`'s split points.
fn partition_sorted<'a>(sorted: &'a [Point], router: &Router) -> Vec<&'a [Point]> {
    let mut slices = Vec::with_capacity(router.splits.len() + 1);
    let mut rest = sorted;
    for &split in &router.splits {
        let (head, tail) = rest.split_at(rest.partition_point(|p| p.x < split));
        slices.push(head);
        rest = tail;
    }
    slices.push(rest);
    slices
}

/// The read side of every held shard plus an epoch-validated routing
/// snapshot, pinning one consistent version of a [`ShardedTopK`]. Obtained
/// from [`ShardedTopK::read`]; writers to a held shard block until it is
/// dropped.
pub struct ShardedReadGuard<'a> {
    /// The routing snapshot the guard's shard locks were validated against
    /// (no router lock is held — the snapshot is immutable).
    router: Arc<Router>,
    /// Shard id of `guards[0]` (0 for a full [`ShardedTopK::read`] guard).
    base: usize,
    guards: Vec<ShardRead<'a>>,
    /// The index's commit stamp, loaded after every lock above was acquired.
    stamp: u64,
}

impl ShardedReadGuard<'_> {
    /// The commit stamp of the pinned view: equal stamps across two guards
    /// witness that no write committed to the index in between (see the
    /// `commits` field docs). Strict cursors compare it across fetch rounds.
    pub fn version(&self) -> u64 {
        self.stamp
    }

    /// The eager query against this pinned version. A range inside one
    /// shard runs that shard's one-shot [`TopKIndex::query`] plan; a
    /// fan-out runs one uncached cursor round, one merged pull over a drain
    /// per overlapping shard.
    ///
    /// # Errors
    ///
    /// The same validation as [`TopKIndex::query`].
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        let (lo, hi) = self.overlap_held(x1, x2);
        // A one-lane round pulls the same drain over the same pages; the
        // shard's own plan skips the round's lane, drain and pull lists,
        // which made one-shard k = 1 queries about 15% slower.
        if lo == hi {
            return Ok(self.shard(lo).query_unvalidated(x1, x2, k));
        }
        let lanes: Vec<Lane<'_>> = (lo..=hi)
            .map(|id| Lane {
                x1,
                x2,
                index: self.shard(id),
            })
            .collect();
        Ok(cursor::round(&mut None, &lanes, self.stamp, k, 0, None).0)
    }

    /// Global ids of the shards overlapping `[x1, x2]`, clamped to the
    /// shards this guard actually holds. Used by the cursor read plane to
    /// lay out one lane per `(range, shard)` pair.
    pub(crate) fn overlap_held(&self, x1: u64, x2: u64) -> (usize, usize) {
        let (lo, hi) = self.router.overlap(x1, x2);
        (
            lo.max(self.base),
            hi.min(self.base + self.guards.len().saturating_sub(1)),
        )
    }

    /// The pinned index of global shard `id` (must lie within the span
    /// returned by [`ShardedReadGuard::overlap_held`]).
    pub(crate) fn shard(&self, id: usize) -> &TopKIndex {
        self.guards
            .get(id - self.base)
            .expect("caller stays within the overlap_held span")
    }

    /// Number of points with `x ∈ [x1, x2]` in this pinned version.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvertedRange`] if `x1 > x2`.
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        if x1 > x2 {
            return Err(TopKError::InvertedRange { x1, x2 });
        }
        let (lo, hi) = self.overlap_held(x1, x2);
        Ok((lo..=hi)
            .map(|i| self.shard(i).count_unvalidated(x1, x2))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, UpdateOp};
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

    fn points(seed: u64, n: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<u64> = (0..n).map(|i| i * 3 + 1).collect();
        let mut scores: Vec<u64> = (0..n).map(|i| i * 13 + 7).collect();
        xs.shuffle(&mut rng);
        scores.shuffle(&mut rng);
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn sharded_is_send_sync() {
        assert_send_sync::<ShardedTopK>();
    }

    #[test]
    fn index_and_one_shard_handle_are_send_sync() {
        // A one-shard ShardedTopK is the shared handle over a single
        // TopKIndex, so both the index and the handle must cross threads.
        assert_send_sync::<TopKIndex>();
        assert_send_sync::<ShardedTopK>();
    }

    #[test]
    fn sequential_smoke_through_one_shard() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 1);
        assert!(index.is_empty());
        let pts: Vec<Point> = (0..500u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        index.bulk_build(&pts).unwrap();
        assert_eq!(index.len(), 500);
        let oracle = Oracle::from_points(&pts);
        assert_eq!(index.query(10, 900, 7).unwrap(), oracle.query(10, 900, 7));
        assert_eq!(
            index.count_in_range(10, 900).unwrap(),
            oracle.count(10, 900) as u64
        );
        assert!(index.delete(pts[0]).unwrap());
        assert!(!index.delete(pts[0]).unwrap());
        index.insert(pts[0]).unwrap();
        assert_eq!(index.len(), 500);
        assert!(index.space_blocks() > 0);
        // A read guard pins one version of the index for several reads.
        let guard = index.read();
        assert_eq!(guard.query(10, 900, 7).unwrap(), oracle.query(10, 900, 7));
        assert_eq!(guard.count_in_range(0, u64::MAX).unwrap(), 500);
        drop(guard);
        index.check_invariants();
    }

    #[test]
    fn one_shard_apply_commits_batches_atomically() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 1);
        let pts: Vec<Point> = (0..200u64)
            .map(|i| Point::new(i * 3 + 1, i * 7 + 2))
            .collect();
        index.bulk_build(&pts).unwrap();
        let before = index.read().version();
        let mut batch = UpdateBatch::new();
        for i in 0..50u64 {
            batch.push(UpdateOp::Delete(pts[i as usize]));
            batch.push(UpdateOp::Insert(Point::new(10_000 + i, 20_000 + i)));
        }
        let summary = index.apply(&batch).unwrap();
        assert_eq!((summary.inserted, summary.deleted), (50, 50));
        assert_eq!(index.len(), 200);
        // One batch, one commit stamp, however many ops it carried.
        assert_eq!(index.read().version(), before + 1);
        index.check_invariants();
    }

    #[test]
    fn routing_covers_the_domain_and_splits_sort() {
        let router = Router::even(4, 0);
        assert_eq!(router.shard_of(0), 0);
        assert_eq!(router.shard_of(u64::MAX), 3);
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i * 10, i + 1)).collect();
        let router = Router::from_sorted(&pts, 4, 1);
        assert!(router.splits.windows(2).all(|w| w[0] <= w[1]));
        let slices = partition_sorted(&pts, &router);
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), 100);
        for (i, slice) in slices.iter().enumerate() {
            for p in *slice {
                assert_eq!(router.shard_of(p.x), i);
            }
        }
    }

    #[test]
    fn fan_out_query_matches_oracle_across_shard_counts() {
        let pts = points(11, 3000);
        let oracle = Oracle::from_points(&pts);
        for shards in [1usize, 3, 8] {
            let dev = device();
            let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), shards);
            index.bulk_build(&pts).unwrap();
            assert_eq!(index.len(), 3000);
            assert_eq!(index.shard_count(), shards);
            index.check_invariants();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..30 {
                let a = rng.gen_range(0..12_000u64);
                let b = rng.gen_range(a..=12_000u64);
                let k = *[1usize, 3, 17, 80, 500].choose(&mut rng).unwrap();
                assert_eq!(
                    index.query(a, b, k).unwrap(),
                    oracle.query(a, b, k),
                    "shards={shards} [{a},{b}] k={k}"
                );
                assert_eq!(
                    index.count_in_range(a, b).unwrap(),
                    oracle.count(a, b) as u64
                );
            }
            // Every shard: the merged pull crosses the bulk threshold (64)
            // around these k; the last k allocates only for the points the
            // shards hold.
            for k in [63usize, 64, 65, 4096, usize::MAX] {
                assert_eq!(
                    index.query(0, u64::MAX, k).unwrap(),
                    oracle.query(0, u64::MAX, k),
                    "shards={shards} all-shard k={k}"
                );
            }
        }
    }

    #[test]
    fn point_updates_route_and_validate_globally() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 4);
        let pts = points(17, 1200);
        index.bulk_build(&pts).unwrap();
        // Duplicate coordinate and duplicate score are rejected even when
        // the duplicate would land in a different shard than the original.
        let someone = pts[700];
        let err = index
            .insert(Point::new(someone.x, 999_999_999))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateX { .. }));
        let err = index
            .insert(Point::new(999_999_999, someone.score))
            .unwrap_err();
        assert!(matches!(err, TopKError::DuplicateScore { .. }));
        // Neither rejected insert reserved anything: the first one's score
        // and the second one's coordinate are still free.
        let fresh = Point::new(999_999_999, 999_999_999);
        index.insert(fresh).unwrap();
        assert!(index.delete(fresh).unwrap());
        assert!(!index.delete(fresh).unwrap());
        assert_eq!(index.len(), 1200);
        index.check_invariants();
    }

    #[test]
    fn batches_commit_atomically_across_shards() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 4);
        let pts = points(19, 1000);
        index.bulk_build(&pts).unwrap();
        let mut oracle = Oracle::from_points(&pts);
        // A batch spanning all shards: delete spread-out points, insert
        // fresh ones, including an in-batch coordinate reuse.
        let mut batch = UpdateBatch::new();
        for i in 0..200usize {
            let victim = pts[i * 5];
            batch.push(UpdateOp::Delete(victim));
            oracle.delete(victim);
            let fresh = Point::new(victim.x, 1_000_000 + i as u64);
            batch.push(UpdateOp::Insert(fresh));
            oracle.insert(fresh);
        }
        batch.push(UpdateOp::Delete(Point::new(123_456_789, 1))); // miss
        let summary = index.apply(&batch).unwrap();
        assert_eq!(
            (summary.inserted, summary.deleted, summary.missing_deletes),
            (200, 200, 1)
        );
        assert_eq!(index.len(), 1000);
        index.check_invariants();
        assert_eq!(
            index.query(0, u64::MAX, 50).unwrap(),
            oracle.query(0, u64::MAX, 50)
        );
        // A failing batch changes nothing.
        let before = index.query(0, u64::MAX, 20).unwrap();
        let bad = UpdateBatch::new()
            .insert(Point::new(5_000_000, 5_000_000))
            .insert(Point::new(5_000_001, 5_000_000));
        assert!(matches!(
            index.apply(&bad).unwrap_err(),
            TopKError::DuplicateScore { .. }
        ));
        assert_eq!(index.len(), 1000);
        assert_eq!(index.query(0, u64::MAX, 20).unwrap(), before);
        index.check_invariants();
    }

    #[test]
    fn skewed_growth_triggers_rebalance_and_preserves_answers() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 4);
        let pts = points(23, 800);
        index.bulk_build(&pts).unwrap();
        let mut oracle = Oracle::from_points(&pts);
        // Hammer one end of the domain so a single shard fills up.
        for i in 0..1200u64 {
            let p = Point::new(100_000 + i * 3, 500_000 + i * 7);
            index.insert(p).unwrap();
            oracle.insert(p);
        }
        let lens = index.shard_lens();
        let mean = index.len() / 4;
        assert!(
            lens.iter()
                .all(|&l| l <= 2 * mean + REBALANCE_MIN_PER_SHARD),
            "rebalance never fired: {lens:?} (mean {mean})"
        );
        index.check_invariants();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = rng.gen_range(0..110_000u64);
            let b = rng.gen_range(a..=110_000u64);
            assert_eq!(index.query(a, b, 25).unwrap(), oracle.query(a, b, 25));
        }
    }

    #[test]
    fn reads_and_writes_stay_exact_across_concurrent_repartitions() {
        // Hammers the epoch-validated routing: a thread republishes the
        // router in a loop while readers fan out and a writer inserts into
        // a fresh coordinate region, so snapshots repeatedly go stale
        // between load and lock acquisition and the retry path must route
        // every operation to the current partitioning.
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 4);
        let pts = points(29, 2000);
        index.bulk_build(&pts).unwrap();
        let oracle = Oracle::from_points(&pts);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..40 {
                    index.rebalance_now().unwrap();
                }
            });
            s.spawn(|| {
                for i in 0..400u64 {
                    index
                        .insert(Point::new(10_000_000 + i, 10_000_000 + i))
                        .unwrap();
                }
            });
            for t in 0..3u64 {
                let index = &index;
                let oracle = &oracle;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(31 + t);
                    for _ in 0..200 {
                        // Stay below the writer's region so the oracle
                        // answer is stable regardless of interleaving.
                        let a = rng.gen_range(0..6_000u64);
                        let b = rng.gen_range(a..=6_000u64);
                        assert_eq!(index.query(a, b, 20).unwrap(), oracle.query(a, b, 20));
                    }
                });
            }
        });
        assert_eq!(index.len(), 2400);
        index.check_invariants();
    }

    #[test]
    fn query_validation_matches_the_unsharded_contract() {
        let dev = device();
        let index = ShardedTopK::new(&dev, TopKConfig::for_tests(), 4);
        assert_eq!(
            index.query(9, 3, 5).unwrap_err(),
            TopKError::InvertedRange { x1: 9, x2: 3 }
        );
        assert_eq!(index.query(3, 9, 0).unwrap_err(), TopKError::ZeroK);
        assert!(index.query(3, 9, 5).unwrap().is_empty());
        assert_eq!(
            index.count_in_range(9, 3).unwrap_err(),
            TopKError::InvertedRange { x1: 9, x2: 3 }
        );
        assert_eq!(index.overlapping_shards(9, 3), 0);
        assert!(index.overlapping_shards(0, u64::MAX) == 4);
        assert!(index.is_empty());
        assert_eq!(index.get(7), None);
    }
}
