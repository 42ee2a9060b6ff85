//! The owned, snapshot-consistent cursor read plane, and the one merge of
//! the crate.
//!
//! [`QueryCursor`] owns a cheap clone of the [`TopK`] handle (or of a bare
//! [`TopKIndex`]'s `Arc`) and acquires the overlapping shards' read side
//! only **per fetch round**, releasing it before the batch is handed to the
//! caller. A reader that sleeps between pages
//! therefore costs writers nothing (the `concurrent_reads` bench measures
//! exactly this). Its fetch round ([`round`]) is also what an eager
//! [`ShardedReadGuard::query`](crate::ShardedReadGuard::query) fan-out runs,
//! once and uncached.
//!
//! # The per-round threshold-set contract
//!
//! The paper's central guarantee makes this sound: every batch a pilot drain
//! produces is a *score-threshold set* — all live points in range with score
//! at least some `τ` — and such a set is always a prefix of the descending
//! score order. A cursor position is therefore fully described by `(emitted
//! count, low-water mark)` where the mark is the `(score, x)` of the last
//! emitted point: the next round re-derives "everything strictly below the
//! mark" against the index state *at that round* and keeps the next page.
//! Two consequences, selected by [`Consistency`]:
//!
//! * [`Consistency::PerRound`] (default): each round is a threshold-set of
//!   the index state at that round. Writes interleaved between rounds are
//!   visible from the next round on (if they land below the mark) or not at
//!   all (above it) — but a round is never torn.
//! * [`Consistency::Strict`]: the first round pins the index's version
//!   stamp; a later round that observes a different stamp fails with
//!   [`TopKError::SnapshotInvalidated`] instead of silently continuing
//!   against a moved snapshot.
//!
//! # Incremental rounds
//!
//! The cursor does not re-run a top-`cap` query per round. It keeps a
//! stamp-gated [`FrontierCache`]: one resumable [`PilotDrain`] per canonical
//! range — per overlapping `(range, shard)` pair on a [`TopK`] handle.
//! A round is one [`PilotDrain::pull_merged`] of the page's points over
//! every lane's drain: one best-first search under one threshold, whose next
//! page read is the best pending bound of any lane, so each lane is read
//! about as far as its share of the page needs.
//! A round re-acquires the index's read side, and if the observed version
//! stamp equals the cached one (no write committed in between, so every
//! saved frontier still describes the live trees) it resumes the drains
//! exactly where the previous round stopped: only pages *below* the previous
//! low-water mark are touched, so paginating `k` points in `r` rounds costs
//! one query's I/Os total, not per round. When the stamp moved,
//! [`Consistency::PerRound`] rebuilds the drains with the inclusive ceiling
//! `mark − 1` (the next round is a fresh threshold-set of the *current*
//! state below the mark; a mark at score 0 leaves nothing), and
//! [`Consistency::Strict`] surfaces the invalidation instead.
//!
//! # Resume tokens
//!
//! Because the position is just `(request, emitted, low-water mark,
//! version)`, it serializes: [`QueryCursor::token`] cuts a [`ResumeToken`]
//! (a small `Display`/`FromStr` string), and
//! [`QueryRequest::after`] rebuilds the request on any index holding the
//! same data — across threads, processes, or machines. One caveat: the
//! version stamp a [`Consistency::Strict`] cursor pins counts *this index
//! instance's* writes, so a strict token is only meaningful against the
//! instance it was cut from — resuming it on a different instance compares
//! unrelated write histories and will usually (but not reliably) surface a
//! spurious [`TopKError::SnapshotInvalidated`]. Tokens that cross a process
//! boundary should resume with [`Consistency::PerRound`]
//! (`QueryRequest::after(&token).consistency(Consistency::PerRound)`),
//! which ignores the stamp.

use std::str::FromStr;
use std::sync::Arc;

use epst::{PilotDrain, Point};

use crate::error::{Result, TopKError};
use crate::facade::TopK;
use crate::index::TopKIndex;
use crate::query::{Consistency, QueryRequest, ResumeState};

/// First fetch-round size when [`QueryRequest::page_size`] is not pinned;
/// later rounds double.
const INITIAL_ROUND: usize = 64;

/// An owned cursor over a [`TopK`] handle: no lifetime parameter, no lock
/// held between fetch rounds. Obtained from [`TopK::cursor`] (or from
/// [`TopKIndex::cursor`] on a bare `Arc<TopKIndex>`).
///
/// Consume it per round with [`QueryCursor::next_batch`] — one round, one
/// read-lock acquisition — or point-wise through the `Iterator` impl, which
/// buffers rounds internally. The module docs state the exact semantics when
/// writes interleave between rounds.
///
/// ```
/// use topk_core::{Consistency, Point, QueryRequest, TopK};
///
/// let index = TopK::builder().expected_n(10_000).build_auto()?;
/// for i in 0..1000u64 {
///     index.insert(Point::new(i, (i * 2654435761) % 1_000_003))?;
/// }
/// let mut cursor = index.cursor(
///     QueryRequest::range(0, 500).top(100).page_size(30),
/// )?;
/// let first = cursor.next_batch()?; // one lock acquisition, 30 points
/// assert_eq!(first.len(), 30);
/// let token = cursor.token();       // survives process boundaries
/// drop(cursor);
/// let rest: Vec<Point> = index
///     .cursor(QueryRequest::after(&token))?
///     .collect::<topk_core::Result<Vec<_>>>()?;
/// assert_eq!(first.len() + rest.len(), 100);
/// # Ok::<(), topk_core::TopKError>(())
/// ```
pub struct QueryCursor {
    source: Source,
    /// Canonicalized (sorted, disjoint) coordinate ranges.
    ranges: Vec<(u64, u64)>,
    k: usize,
    min_score: u64,
    consistency: Consistency,
    page: Option<usize>,
    /// Points handed out so far (across resumes).
    emitted: usize,
    /// `(score, x)` of the last emitted point: the next round reports
    /// strictly below this score.
    low_water: Option<(u64, u64)>,
    /// The version stamp observed at the last round (pinned at the first
    /// round under [`Consistency::Strict`]).
    version: Option<u64>,
    /// Next round size when no page size is pinned.
    next_size: usize,
    /// The resumable per-lane drains of the previous round, valid while the
    /// index's version stamp has not moved (module docs, *Incremental
    /// rounds*).
    frontier: Option<FrontierCache>,
    done: bool,
    /// Buffer feeding the point-wise `Iterator` impl.
    buf: std::vec::IntoIter<Point>,
}

/// What a cursor reads: a bare index, which has no lock (the cursor is only
/// meaningful without concurrent writers), or a handle, whose overlapping
/// shards each round read-locks.
#[derive(Clone)]
pub(crate) enum Source {
    Index(Arc<TopKIndex>),
    Handle(TopK),
}

impl QueryCursor {
    pub(crate) fn new(source: Source, request: QueryRequest) -> Result<Self> {
        request.validate()?;
        let ranges = request.canonical_ranges();
        let (emitted, low_water, version) = match request.resume {
            Some(ResumeState {
                emitted,
                low_water,
                version,
            }) => (emitted, low_water, version),
            None => (0, None, None),
        };
        Ok(Self {
            source,
            ranges,
            k: request.k(),
            min_score: request.score_floor(),
            consistency: request.consistency_mode(),
            page: request.page(),
            emitted,
            low_water,
            version,
            next_size: INITIAL_ROUND,
            frontier: None,
            done: emitted >= request.k(),
            buf: Vec::new().into_iter(),
        })
    }

    /// Points handed out so far, counting the rounds before a resume.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Whether the cursor is exhausted (all `k` points emitted, the ranges
    /// drained, the score floor reached, or a strict snapshot invalidated).
    /// A round that filled its page exactly may leave the drain's end
    /// unseen; the next round then returns the empty batch that says so.
    pub fn is_done(&self) -> bool {
        self.done && self.buf.len() == 0
    }

    /// Cut a serializable resume position: everything needed to continue
    /// this pagination on any index holding the same data, via
    /// [`QueryRequest::after`]. Points already buffered for the point-wise
    /// `Iterator` but not yet returned by it count as emitted — cut tokens
    /// at batch boundaries.
    pub fn token(&self) -> ResumeToken {
        ResumeToken {
            ranges: self.ranges.clone(),
            k: self.k,
            min_score: self.min_score,
            consistency: self.consistency,
            page: self.page,
            emitted: self.emitted,
            low_water: self.low_water,
            version: self.version,
        }
    }

    /// Fetch the next batch under **one** read-side acquisition of the
    /// underlying index, released before this returns. An empty batch
    /// means the cursor is exhausted. Each batch continues strictly below
    /// the previous one in score order; the concatenation of all batches on
    /// a quiescent index equals the one-shot answer.
    ///
    /// # Errors
    ///
    /// [`TopKError::SnapshotInvalidated`] under [`Consistency::Strict`] when
    /// a write committed since the first round; the cursor is fused
    /// afterwards ([`QueryCursor::token`] still works, so the position is
    /// not lost).
    pub fn next_batch(&mut self) -> Result<Vec<Point>> {
        if self.done || self.emitted >= self.k {
            self.done = true;
            return Ok(Vec::new());
        }
        let need = self
            .page
            .unwrap_or(self.next_size)
            .min(self.k - self.emitted)
            .max(1);
        let source = self.source.clone();
        let (points, exhausted) = match &source {
            Source::Index(index) => {
                let stamp = index.version();
                self.observe_version(stamp)?;
                let lanes: Vec<Lane<'_>> = self
                    .ranges
                    .iter()
                    .map(|&(x1, x2)| Lane { x1, x2, index })
                    .collect();
                round(
                    &mut self.frontier,
                    &lanes,
                    stamp,
                    need,
                    self.min_score,
                    self.low_water,
                )
            }
            Source::Handle(index) => {
                let span = (
                    self.ranges.first().expect("validated: ranges non-empty").0,
                    self.ranges.last().expect("validated: ranges non-empty").1,
                );
                let guard = index.read_span(span.0, span.1);
                let stamp = guard.version();
                self.observe_version(stamp)?;
                // One lane per overlapping (range, shard) pair: each shard
                // resumes its own saved frontier, and the round's one merged
                // pull reads each about as far as its share of the page.
                let mut lanes = Vec::new();
                for &(x1, x2) in &self.ranges {
                    let (lo, hi) = guard.overlap_held(x1, x2);
                    for id in lo..=hi {
                        lanes.push(Lane {
                            x1,
                            x2,
                            index: guard.shard(id),
                        });
                    }
                }
                round(
                    &mut self.frontier,
                    &lanes,
                    stamp,
                    need,
                    self.min_score,
                    self.low_water,
                )
            }
        };
        self.emitted += points.len();
        if let Some(last) = points.last() {
            self.low_water = Some((last.score, last.x));
        }
        if exhausted || self.emitted >= self.k {
            self.done = true;
        }
        if self.page.is_none() {
            self.next_size = self.next_size.saturating_mul(2);
        }
        Ok(points)
    }

    /// Record the version stamp observed by the round that is about to run;
    /// under [`Consistency::Strict`] a moved stamp fuses the cursor and
    /// surfaces [`TopKError::SnapshotInvalidated`].
    fn observe_version(&mut self, current: u64) -> Result<()> {
        if self.consistency == Consistency::Strict {
            if let Some(pinned) = self.version {
                if pinned != current {
                    self.done = true;
                    return Err(TopKError::SnapshotInvalidated {
                        expected: pinned,
                        observed: current,
                    });
                }
            }
        }
        self.version = Some(current);
        Ok(())
    }
}

impl std::fmt::Debug for QueryCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCursor")
            .field("ranges", &self.ranges)
            .field("k", &self.k)
            .field("emitted", &self.emitted)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

/// Point-wise consumption: rounds are fetched lazily into an internal
/// buffer, so `cursor.collect::<Result<Vec<_>>>()` equals the one-shot
/// answer on a quiescent index. After an `Err` (strict invalidation) the
/// iterator is fused.
impl Iterator for QueryCursor {
    type Item = Result<Point>;

    fn next(&mut self) -> Option<Result<Point>> {
        loop {
            if let Some(p) = self.buf.next() {
                return Some(Ok(p));
            }
            if self.done {
                return None;
            }
            match self.next_batch() {
                Ok(batch) if batch.is_empty() => return None,
                Ok(batch) => self.buf = batch.into_iter(),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl std::iter::FusedIterator for QueryCursor {}

/// One lane of a fetch round: a canonical subrange against the index (or,
/// behind a handle, the one shard) that answers it. Lanes are derived
/// fresh from each round's guard; the *drains* over them persist in the
/// [`FrontierCache`] across rounds.
pub(crate) struct Lane<'g> {
    pub(crate) x1: u64,
    pub(crate) x2: u64,
    pub(crate) index: &'g TopKIndex,
}

/// The cursor's saved position *inside* the pilot structures: one
/// resumable drain per lane, valid exactly while the index's version stamp
/// equals `stamp` — equal stamps witness that no write committed, so the
/// saved frontiers still describe the live trees. A round that observes
/// the same stamp resumes here and touches only pages below the previous
/// low-water mark.
pub(crate) struct FrontierCache {
    stamp: u64,
    drains: Vec<PilotDrain>,
}

/// One fetch round against one consistent view of the index (the caller
/// holds whatever guard the lanes borrow from): one merged pull of `need`
/// points over every lane's drain. Reuses the cached drains when `stamp`
/// matches; otherwise rebuilds every lane's drain over the score window
/// `[min_score, mark − 1]` below the low-water mark — the round is then a
/// fresh threshold-set of the current state below the mark. Returns up to
/// `need` points in descending score order plus whether the ranges are
/// exhausted below the mark/floor. An eager fan-out runs one round on an
/// empty cache.
pub(crate) fn round(
    cache: &mut Option<FrontierCache>,
    lanes: &[Lane<'_>],
    stamp: u64,
    need: usize,
    min_score: u64,
    low_water: Option<(u64, u64)>,
) -> (Vec<Point>, bool) {
    let reuse = matches!(cache, Some(c) if c.stamp == stamp && c.drains.len() == lanes.len());
    if !reuse {
        // Nothing scores below a mark at score 0.
        let Some(hi) = low_water.map_or(Some(u64::MAX), |(score, _)| score.checked_sub(1)) else {
            return (Vec::new(), true);
        };
        *cache = Some(FrontierCache {
            stamp,
            drains: lanes
                .iter()
                .map(|lane| {
                    lane.index
                        .pilot()
                        .drain_window(lane.x1, lane.x2, min_score, hi)
                })
                .collect(),
        });
    }
    let cache = cache.as_mut().expect("frontier cache was just ensured");
    let mut pulls: Vec<_> = lanes
        .iter()
        .map(|lane| lane.index.pilot())
        .zip(cache.drains.iter_mut())
        .collect();
    // `need` comes from the caller's `k` or page size; the lanes hold at
    // most `stored` points.
    let stored: u64 = lanes.iter().map(|lane| lane.index.len()).sum();
    let mut out = Vec::with_capacity(need.min(usize::try_from(stored).unwrap_or(usize::MAX)));
    PilotDrain::pull_merged(&mut pulls, need, &mut out);
    let exhausted = cache.drains.iter().all(PilotDrain::is_exhausted);
    (out, exhausted)
}

/// A serializable cursor position: the request plus `(emitted, low-water
/// mark, version stamp)`. Cut with [`QueryCursor::token`], rebuilt with
/// [`QueryRequest::after`]; the `Display` / `FromStr` pair is the stable
/// wire format (`topkcur1;…`), so pagination survives process boundaries
/// without any serialization dependency. The version stamp is only
/// meaningful to the index instance that minted it — resume a token from
/// another process with [`Consistency::PerRound`] (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeToken {
    pub(crate) ranges: Vec<(u64, u64)>,
    pub(crate) k: usize,
    pub(crate) min_score: u64,
    pub(crate) consistency: Consistency,
    pub(crate) page: Option<usize>,
    pub(crate) emitted: usize,
    pub(crate) low_water: Option<(u64, u64)>,
    pub(crate) version: Option<u64>,
}

impl ResumeToken {
    /// Points the cursor had emitted when the token was cut.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Rebuild the request this token was cut from, positioned just past
    /// the last emitted point (what [`QueryRequest::after`] calls).
    pub(crate) fn request(&self) -> QueryRequest {
        let mut request = QueryRequest::ranges(&self.ranges)
            .top(self.k)
            .min_score(self.min_score)
            .consistency(self.consistency);
        if let Some(page) = self.page {
            request = request.page_size(page);
        }
        request.resume = Some(ResumeState {
            emitted: self.emitted,
            low_water: self.low_water,
            version: self.version,
        });
        request
    }
}

impl std::fmt::Display for ResumeToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "topkcur1;r=")?;
        for (i, (x1, x2)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x1}-{x2}")?;
        }
        write!(f, ";k={};f={}", self.k, self.min_score)?;
        write!(
            f,
            ";c={}",
            match self.consistency {
                Consistency::PerRound => "p",
                Consistency::Strict => "s",
            }
        )?;
        match self.page {
            Some(p) => write!(f, ";g={p}")?,
            None => write!(f, ";g=-")?,
        }
        write!(f, ";e={}", self.emitted)?;
        match self.low_water {
            Some((score, x)) => write!(f, ";w={score}:{x}")?,
            None => write!(f, ";w=-")?,
        }
        match self.version {
            Some(v) => write!(f, ";v={v}"),
            None => write!(f, ";v=-"),
        }
    }
}

impl FromStr for ResumeToken {
    type Err = TopKError;

    fn from_str(s: &str) -> Result<Self> {
        const BAD: TopKError = TopKError::InvalidConfig {
            what: "malformed resume token",
        };
        let mut fields = s.split(';');
        if fields.next() != Some("topkcur1") {
            return Err(TopKError::InvalidConfig {
                what: "resume token does not start with the topkcur1 magic",
            });
        }
        let mut ranges: Option<Vec<(u64, u64)>> = None;
        let mut k: Option<usize> = None;
        let mut min_score: Option<u64> = None;
        let mut consistency: Option<Consistency> = None;
        let mut page: Option<Option<usize>> = None;
        let mut emitted: Option<usize> = None;
        let mut low_water: Option<Option<(u64, u64)>> = None;
        let mut version: Option<Option<u64>> = None;
        for field in fields {
            let (key, value) = field.split_once('=').ok_or(BAD)?;
            match key {
                "r" => {
                    let mut rs = Vec::new();
                    for part in value.split(',') {
                        let (a, b) = part.split_once('-').ok_or(BAD)?;
                        rs.push((
                            a.parse::<u64>().map_err(|_| BAD)?,
                            b.parse::<u64>().map_err(|_| BAD)?,
                        ));
                    }
                    ranges = Some(rs);
                }
                "k" => k = Some(value.parse().map_err(|_| BAD)?),
                "f" => min_score = Some(value.parse().map_err(|_| BAD)?),
                "c" => {
                    consistency = Some(match value {
                        "p" => Consistency::PerRound,
                        "s" => Consistency::Strict,
                        _ => return Err(BAD),
                    })
                }
                "g" => {
                    page = Some(match value {
                        "-" => None,
                        v => Some(v.parse().map_err(|_| BAD)?),
                    })
                }
                "e" => emitted = Some(value.parse().map_err(|_| BAD)?),
                "w" => {
                    low_water = Some(match value {
                        "-" => None,
                        v => {
                            let (score, x) = v.split_once(':').ok_or(BAD)?;
                            Some((
                                score.parse::<u64>().map_err(|_| BAD)?,
                                x.parse::<u64>().map_err(|_| BAD)?,
                            ))
                        }
                    })
                }
                "v" => {
                    version = Some(match value {
                        "-" => None,
                        v => Some(v.parse().map_err(|_| BAD)?),
                    })
                }
                _ => return Err(BAD),
            }
        }
        let token = ResumeToken {
            ranges: ranges.ok_or(BAD)?,
            k: k.ok_or(BAD)?,
            min_score: min_score.ok_or(BAD)?,
            consistency: consistency.ok_or(BAD)?,
            page: page.ok_or(BAD)?,
            emitted: emitted.ok_or(BAD)?,
            low_water: low_water.ok_or(BAD)?,
            version: version.ok_or(BAD)?,
        };
        // The position only makes sense as a pair: a non-zero emitted count
        // without a low-water mark (or vice versa) would silently re-emit
        // the top of the range — reject tampered or hand-built tokens with
        // an inconsistent position instead.
        if (token.emitted > 0) != token.low_water.is_some() {
            return Err(TopKError::InvalidConfig {
                what: "resume token position is inconsistent (emitted count \
                       and low-water mark must be cut together)",
            });
        }
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, ShardedTopK, TopKConfig};
    use emsim::{Device, EmConfig};

    fn points(n: u64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i * 7919) % (8 * n.max(1)) + 1, i * 13 + 1))
            .collect()
    }

    /// Every cursor source: a bare index, and handles over one and four
    /// shards.
    fn handles(device: &Device) -> Vec<Source> {
        vec![
            Source::Index(Arc::new(TopKIndex::new(device, TopKConfig::for_tests()))),
            Source::Handle(ShardedTopK::new(device, TopKConfig::for_tests(), 1).into()),
            Source::Handle(ShardedTopK::new(device, TopKConfig::for_tests(), 4).into()),
        ]
    }

    impl Source {
        fn bulk_build(&self, points: &[Point]) -> Result<()> {
            match self {
                Source::Index(index) => index.bulk_build(points),
                Source::Handle(handle) => handle.bulk_build(points),
            }
        }

        fn cursor(&self, request: QueryRequest) -> Result<QueryCursor> {
            QueryCursor::new(self.clone(), request)
        }

        fn label(&self) -> String {
            match self {
                Source::Index(_) => "bare".to_string(),
                Source::Handle(handle) => format!("sharded-{}", handle.shard_count()),
            }
        }
    }

    #[test]
    fn cursor_batches_concatenate_to_the_one_shot_answer() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let pts = points(3000);
        let oracle = Oracle::from_points(&pts);
        for handle in handles(&device) {
            handle.bulk_build(&pts).unwrap();
            for &k in &[1usize, 5, 64, 200, 1000, 5000] {
                let mut cursor = handle
                    .cursor(QueryRequest::range(0, u64::MAX).top(k))
                    .unwrap();
                let mut got = Vec::new();
                loop {
                    let batch = cursor.next_batch().unwrap();
                    if batch.is_empty() {
                        break;
                    }
                    got.extend(batch);
                }
                assert!(cursor.is_done());
                assert_eq!(cursor.emitted(), got.len());
                assert_eq!(
                    got,
                    oracle.query(0, u64::MAX, k),
                    "{} k={k}",
                    handle.label()
                );
            }
        }
    }

    #[test]
    fn short_cursor_prefix_of_large_k_costs_fewer_ios_than_materializing() {
        // Bare index, cold pool: five points of k = 16,384 read under half
        // the pages of the eager answer.
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = Arc::new(TopKIndex::new(&device, TopKConfig::for_tests()));
        let pts = points(40_000);
        index.bulk_build(&pts).unwrap();
        let k = 16_384;
        device.drop_cache();
        let (full, full_cost) = device.measure(|| index.query(0, u64::MAX, k).unwrap());
        device.drop_cache();
        let (prefix, prefix_cost) = device.measure(|| {
            Arc::clone(&index)
                .cursor(QueryRequest::range(0, u64::MAX).top(k).page_size(5))
                .unwrap()
                .next_batch()
                .unwrap()
        });
        assert_eq!(prefix[..], full[..5]);
        assert!(
            prefix_cost.reads < full_cost.reads / 2,
            "5 of {k} should be far cheaper: {} vs {} reads",
            prefix_cost.reads,
            full_cost.reads
        );
    }

    #[test]
    fn short_cursor_prefix_over_a_fan_out_is_lazy_and_exact() {
        // Four shards, every one overlapping: the lanes pull only about
        // the prefix the round emits. Counted in logical accesses — the
        // pool holds every page at this size, so physical reads cannot
        // tell the two apart.
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 4));
        let pts = points(2000);
        index.bulk_build(&pts).unwrap();
        let k = 1500;
        device.drop_cache();
        let (full, full_cost) = device.measure(|| index.query(0, u64::MAX, k).unwrap());
        assert_eq!(full, Oracle::from_points(&pts).query(0, u64::MAX, k));
        device.drop_cache();
        let (prefix, prefix_cost) = device.measure(|| {
            index
                .cursor(QueryRequest::range(0, u64::MAX).top(k).page_size(5))
                .unwrap()
                .next_batch()
                .unwrap()
        });
        assert_eq!(prefix[..], full[..5]);
        assert!(
            prefix_cost.logical < full_cost.logical / 2,
            "prefix {} logical accesses vs full {}",
            prefix_cost.logical,
            full_cost.logical
        );
    }

    #[test]
    fn cursor_holds_no_lock_between_rounds() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 1));
        let pts = points(500);
        index.bulk_build(&pts).unwrap();
        let mut cursor = index
            .cursor(QueryRequest::range(0, u64::MAX).top(100).page_size(10))
            .unwrap();
        let first = cursor.next_batch().unwrap();
        assert_eq!(first.len(), 10);
        // A writer gets the exclusive lock while the cursor is idle — this
        // would deadlock with a read guard held across the pages.
        index.insert(Point::new(999_999, 999_999)).unwrap();
        let second = cursor.next_batch().unwrap();
        assert_eq!(second.len(), 10);
        assert!(first.last().unwrap().score > second[0].score);
    }

    #[test]
    fn multi_range_and_min_score_cursors_match_the_oracle() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let pts = points(2000);
        let oracle = Oracle::from_points(&pts);
        let floor = 9_000u64;
        let spans = [(100u64, 4_000u64), (6_000, 9_000), (3_900, 5_000)];
        // The oracle answer over the union of the (overlapping) spans.
        let mut expect: Vec<Point> = pts
            .iter()
            .filter(|p| spans.iter().any(|&(a, b)| p.x >= a && p.x <= b))
            .filter(|p| p.score >= floor)
            .copied()
            .collect();
        expect.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        expect.truncate(400);
        for handle in handles(&device) {
            handle.bulk_build(&pts).unwrap();
            let got: Vec<Point> = handle
                .cursor(QueryRequest::ranges(&spans).top(400).min_score(floor))
                .unwrap()
                .collect::<Result<Vec<_>>>()
                .unwrap();
            assert_eq!(got, expect, "{}", handle.label());
        }
        // Sanity for the single-range floor as well.
        let got: Vec<Point> = handles(&device)
            .pop()
            .map(|h| {
                h.bulk_build(&pts).unwrap();
                h.cursor(QueryRequest::range(0, u64::MAX).top(50).min_score(20_000))
                    .unwrap()
                    .collect::<Result<Vec<_>>>()
                    .unwrap()
            })
            .unwrap();
        let expect: Vec<Point> = oracle
            .query(0, u64::MAX, 50)
            .into_iter()
            .filter(|p| p.score >= 20_000)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn no_op_batches_do_not_invalidate_strict_sharded_cursors() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 4));
        index.bulk_build(&points(400)).unwrap();
        let mut cursor = index
            .cursor(
                QueryRequest::range(0, u64::MAX)
                    .top(40)
                    .page_size(10)
                    .consistency(Consistency::Strict),
            )
            .unwrap();
        assert_eq!(cursor.next_batch().unwrap().len(), 10);
        // A batch that only misses (deletes of absent points) changes no
        // data, so the strict snapshot survives it…
        let summary = index
            .apply(&crate::UpdateBatch::new().delete(Point::new(999_999_999, 1)))
            .unwrap();
        assert_eq!((summary.deleted, summary.missing_deletes), (0, 1));
        assert_eq!(cursor.next_batch().unwrap().len(), 10);
        // …while a batch that does mutate invalidates it.
        index
            .apply(&crate::UpdateBatch::new().insert(Point::new(999_999_999, 999_999_999)))
            .unwrap();
        assert!(matches!(
            cursor.next_batch().unwrap_err(),
            TopKError::SnapshotInvalidated { .. }
        ));
    }

    #[test]
    fn strict_cursor_detects_interleaved_writes() {
        let device = Device::new(EmConfig::new(256, 256 * 256));
        let index = TopK::from(ShardedTopK::new(&device, TopKConfig::for_tests(), 1));
        index.bulk_build(&points(800)).unwrap();
        let mut cursor = index
            .cursor(
                QueryRequest::range(0, u64::MAX)
                    .top(100)
                    .page_size(10)
                    .consistency(Consistency::Strict),
            )
            .unwrap();
        assert_eq!(cursor.next_batch().unwrap().len(), 10);
        index.insert(Point::new(777_777, 777_777)).unwrap();
        let err = cursor.next_batch().unwrap_err();
        assert!(matches!(err, TopKError::SnapshotInvalidated { .. }));
        // Fused afterwards, but the position survives in the token.
        assert!(cursor.is_done());
        let token = cursor.token();
        assert_eq!(token.emitted(), 10);
        // A per-round resume from the strict token continues cleanly.
        let resumed = QueryRequest::after(&token).consistency(Consistency::PerRound);
        let rest: Vec<Point> = index
            .cursor(resumed)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rest.len(), 90);
    }

    #[test]
    fn tokens_round_trip_through_their_wire_format() {
        let token = ResumeToken {
            ranges: vec![(1, 100), (200, 300)],
            k: 50,
            min_score: 7,
            consistency: Consistency::Strict,
            page: Some(16),
            emitted: 12,
            low_water: Some((99_999, 42)),
            version: Some(17),
        };
        let wire = token.to_string();
        assert_eq!(wire.parse::<ResumeToken>().unwrap(), token);
        let token = ResumeToken {
            ranges: vec![(0, u64::MAX)],
            k: 1,
            min_score: 0,
            consistency: Consistency::PerRound,
            page: None,
            emitted: 0,
            low_water: None,
            version: None,
        };
        let wire = token.to_string();
        assert_eq!(wire.parse::<ResumeToken>().unwrap(), token);
        assert!("garbage".parse::<ResumeToken>().is_err());
        assert!("topkcur1;r=9".parse::<ResumeToken>().is_err());
        assert!("topkcur1;r=1-2;k=x".parse::<ResumeToken>().is_err());
        // A tampered position — emitted without a mark, or a mark without
        // emissions — is rejected instead of silently re-paginating.
        assert!("topkcur1;r=0-100;k=200;f=0;c=p;g=-;e=190;w=-;v=-"
            .parse::<ResumeToken>()
            .is_err());
        assert!("topkcur1;r=0-100;k=200;f=0;c=p;g=-;e=0;w=5:5;v=-"
            .parse::<ResumeToken>()
            .is_err());
    }

    #[test]
    fn invalid_requests_surface_the_setter_error() {
        let device = Device::new(EmConfig::new(128, 128 * 64));
        for handle in handles(&device) {
            assert_eq!(
                handle.cursor(QueryRequest::range(9, 3).top(5)).unwrap_err(),
                TopKError::InvertedRange { x1: 9, x2: 3 },
                "{}",
                handle.label()
            );
            assert_eq!(
                handle.cursor(QueryRequest::range(3, 9).top(0)).unwrap_err(),
                TopKError::ZeroK
            );
            assert!(handle.cursor(QueryRequest::ranges(&[]).top(3)).is_err());
            assert!(handle
                .cursor(QueryRequest::range(3, 9).top(5).page_size(0))
                .is_err());
        }
    }
}
