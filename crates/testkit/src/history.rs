//! Concurrent history recording and checking.
//!
//! A [`Recorder`] wraps a [`TopK`] handle and records every operation as an
//! [`Event`] carrying the **commit stamps** the engine's `testkit-hooks`
//! expose: each write knows the exact version stamp its commit received
//! (read while the write-side locks were held, so stamps totally order
//! commits), and each query knows the `[lo, hi]` stamp window it executed
//! inside. Threads share the recorder; the event log is the recorded
//! history.
//!
//! The [`check`] pass then validates a recorded history against the
//! sequential spec ([`baselines::NaiveTopK`]): writes are replayed in stamp
//! order, and every query answer must equal the spec's answer at **some
//! version inside the query's stamp window** — the bounded witness search
//! of the version-stamp-window technique `tests/concurrency.rs` introduced,
//! generalized from per-territory snapshots to arbitrary recorded
//! histories. A history that admits no witness ordering is returned as a
//! [`HistoryViolation`] naming the query and the window that failed.
//!
//! Sequential histories are the degenerate case: every window is a single
//! stamp, so "admits a witness" collapses to "matches exactly".

use std::sync::Mutex;

use baselines::NaiveTopK;
use emsim::{Device, EmConfig};
use epst::Point;
use topk_core::{BatchSummary, Result as TopKResult, TopK, UpdateBatch, UpdateOp};

/// One recorded event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A committed write: the state delta and the exact commit stamp.
    Write {
        /// The committed items (one entry for a point op; the resolved ops
        /// of a batch, which committed atomically at this stamp).
        items: Vec<UpdateOp>,
        /// The stamp the commit received.
        stamp: u64,
    },
    /// A completed query and the stamp window it may have observed.
    Query {
        /// Lower end of the range.
        x1: u64,
        /// Upper end of the range.
        x2: u64,
        /// Number of results requested.
        k: usize,
        /// The answer the engine returned.
        answer: Vec<Point>,
        /// Stamp window: the commit stamp before the query acquired its
        /// read side, and after it released it.
        lo: u64,
        /// Upper end of the window.
        hi: u64,
    },
}

/// A recorded concurrent run: the preload, its base stamp, and the events.
#[derive(Debug, Default)]
pub struct History {
    /// Points bulk-built before the threads started.
    pub preload: Vec<Point>,
    /// The commit stamp right after the preload was built.
    pub base_stamp: u64,
    /// Everything the threads did, in recording order (the checker orders
    /// writes by stamp, not by log position).
    pub events: Vec<Event>,
}

/// Records timestamped operations against a shared [`TopK`] handle. All
/// methods take `&self`; share the recorder across scoped threads.
pub struct Recorder {
    handle: TopK,
    events: Mutex<Vec<Event>>,
    preload: Vec<Point>,
    base_stamp: u64,
}

impl Recorder {
    /// Wrap `handle`, bulk-building `preload` first and recording the base
    /// stamp the history starts from.
    pub fn new(handle: TopK, preload: &[Point]) -> TopKResult<Self> {
        handle.bulk_build(preload)?;
        let base_stamp = handle.commit_stamp();
        Ok(Self {
            handle,
            events: Mutex::new(Vec::new()),
            preload: preload.to_vec(),
            base_stamp,
        })
    }

    /// The wrapped handle (for operations that need no recording).
    pub fn handle(&self) -> &TopK {
        &self.handle
    }

    fn push(&self, event: Event) {
        self.events.lock().unwrap().push(event);
    }

    /// Insert `p`, recording the commit stamp.
    pub fn insert(&self, p: Point) -> TopKResult<()> {
        let stamp = self.handle.insert_stamped(p)?;
        self.push(Event::Write {
            items: vec![UpdateOp::Insert(p)],
            stamp,
        });
        Ok(())
    }

    /// Delete `p`, recording the commit stamp when it was present.
    pub fn delete(&self, p: Point) -> TopKResult<bool> {
        match self.handle.delete_stamped(p)? {
            Some(stamp) => {
                self.push(Event::Write {
                    items: vec![UpdateOp::Delete(p)],
                    stamp,
                });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Apply `batch` atomically, recording its single commit stamp (a batch
    /// that mutated nothing records no event).
    pub fn apply(&self, batch: &UpdateBatch) -> TopKResult<BatchSummary> {
        let (summary, stamp) = self.handle.apply_stamped(batch)?;
        if let Some(stamp) = stamp {
            self.push(Event::Write {
                items: batch.ops().to_vec(),
                stamp,
            });
        }
        Ok(summary)
    }

    /// Query, recording the answer and its stamp window.
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> TopKResult<Vec<Point>> {
        let (mut answer, lo, hi) = self.handle.query_stamped(x1, x2, k)?;
        crate::fault::transpose_if_injected(&mut answer);
        self.push(Event::Query {
            x1,
            x2,
            k,
            answer: answer.clone(),
            lo,
            hi,
        });
        Ok(answer)
    }

    /// Finish recording and hand the history to [`check`].
    pub fn into_history(self) -> History {
        History {
            preload: self.preload,
            base_stamp: self.base_stamp,
            events: self.events.into_inner().unwrap(),
        }
    }
}

/// A recorded history the sequential spec cannot explain.
#[derive(Debug, Clone)]
pub struct HistoryViolation {
    /// What failed and why, with the query and window spelled out.
    pub detail: String,
}

impl std::fmt::Display for HistoryViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "history violation: {}", self.detail)
    }
}

impl std::error::Error for HistoryViolation {}

/// Counters summarizing a checked history.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistoryReport {
    /// Committed writes replayed in stamp order.
    pub writes: usize,
    /// Queries that found a witness version.
    pub queries: usize,
    /// The widest query window (in stamps) the search had to cover.
    pub max_window: u64,
}

struct PendingQuery {
    x1: u64,
    x2: u64,
    k: usize,
    answer: Vec<Point>,
    lo: u64,
    hi: u64,
    witnessed: bool,
}

/// Validate `history` against the sequential spec: replay the writes in
/// commit-stamp order on a fresh [`NaiveTopK`] and require every query to
/// match the spec at some version inside its stamp window.
pub fn check(history: &History) -> Result<HistoryReport, HistoryViolation> {
    let mut writes: Vec<(u64, &[UpdateOp])> = Vec::new();
    let mut queries: Vec<PendingQuery> = Vec::new();
    for event in &history.events {
        match event {
            Event::Write { items, stamp } => writes.push((*stamp, items)),
            Event::Query {
                x1,
                x2,
                k,
                answer,
                lo,
                hi,
            } => queries.push(PendingQuery {
                x1: *x1,
                x2: *x2,
                k: *k,
                answer: answer.clone(),
                lo: *lo,
                hi: *hi,
                witnessed: false,
            }),
        }
    }
    writes.sort_by_key(|(stamp, _)| *stamp);
    for pair in writes.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(HistoryViolation {
                detail: format!(
                    "two writes share commit stamp {} — stamps must totally order commits",
                    pair[0].0
                ),
            });
        }
    }
    for q in &queries {
        if q.lo > q.hi {
            return Err(HistoryViolation {
                detail: format!(
                    "query [{}, {}] k={} recorded an inverted stamp window [{}, {}]",
                    q.x1, q.x2, q.k, q.lo, q.hi
                ),
            });
        }
    }

    let device = Device::new(EmConfig::new(256, 256 * 128));
    let spec = NaiveTopK::new(&device, "history-spec");
    spec.bulk_build(&history.preload)
        .expect("preload points are distinct");

    let mut report = HistoryReport {
        writes: writes.len(),
        queries: 0,
        max_window: queries.iter().map(|q| q.hi - q.lo).max().unwrap_or(0),
    };

    // Sweep the versions in stamp order. The spec state after applying all
    // writes with stamp ≤ s is "version s"; that state covers every stamp
    // value from s up to (but excluding) the next write's stamp, so a query
    // may witness it iff its window intersects that interval.
    let mut write_iter = writes.iter().peekable();
    let mut interval_lo = history.base_stamp;
    loop {
        let interval_hi = match write_iter.peek() {
            Some((stamp, _)) => stamp.saturating_sub(1),
            None => u64::MAX,
        };
        for q in queries.iter_mut().filter(|q| !q.witnessed) {
            if q.lo <= interval_hi && q.hi >= interval_lo {
                let expect = spec
                    .query(q.x1, q.x2, q.k)
                    .expect("recorded queries are valid");
                if expect == q.answer {
                    q.witnessed = true;
                }
            }
        }
        let Some((stamp, items)) = write_iter.next() else {
            break;
        };
        for op in items.iter() {
            match *op {
                UpdateOp::Insert(p) => {
                    spec.insert(p)
                        .expect("recorded inserts committed, so they are valid");
                }
                UpdateOp::Delete(p) => {
                    // A recorded batch may carry misses; the spec ignores
                    // them the same way the engine counted them.
                    let _ = spec.delete(p).expect("spec delete is infallible");
                }
            }
        }
        interval_lo = *stamp;
    }

    if let Some(q) = queries.iter().find(|q| !q.witnessed) {
        return Err(HistoryViolation {
            detail: format!(
                "query [{}, {}] k={} with window [{}, {}] matches no committed version: \
                 answer {:?}",
                q.x1, q.x2, q.k, q.lo, q.hi, q.answer
            ),
        });
    }
    report.queries = queries.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn preload(n: u64) -> Vec<Point> {
        (0..n).map(|i| Point::new(i * 3 + 1, i * 7 + 5)).collect()
    }

    #[test]
    fn sequential_histories_check_exactly() {
        for topology in Topology::ALL {
            let (_device, handle) = topology.build(256);
            let recorder = Recorder::new(handle, &preload(100)).unwrap();
            recorder.query(0, u64::MAX, 10).unwrap();
            recorder.insert(Point::new(5_000, 50_000)).unwrap();
            recorder.query(0, u64::MAX, 3).unwrap();
            assert!(recorder.delete(Point::new(1, 5)).unwrap());
            recorder
                .apply(
                    &UpdateBatch::new()
                        .insert(Point::new(6_000, 60_000))
                        .delete(Point::new(4, 12)),
                )
                .unwrap();
            recorder.query(0, u64::MAX, 5).unwrap();
            let history = recorder.into_history();
            let report = check(&history).unwrap_or_else(|v| panic!("{topology}: {v}"));
            assert_eq!(report.writes, 3);
            assert_eq!(report.queries, 3);
        }
    }

    #[test]
    fn a_forged_answer_is_rejected() {
        let (_device, handle) = Topology(1).build(256);
        let recorder = Recorder::new(handle, &preload(50)).unwrap();
        recorder.insert(Point::new(9_000, 90_000)).unwrap();
        recorder.query(0, u64::MAX, 2).unwrap();
        let mut history = recorder.into_history();
        // Tamper with the recorded answer: swap the top two points.
        for event in &mut history.events {
            if let Event::Query { answer, .. } = event {
                answer.swap(0, 1);
            }
        }
        let violation = check(&history).unwrap_err();
        assert!(violation.detail.contains("matches no committed version"));
    }

    #[test]
    fn a_stale_answer_outside_the_window_is_rejected() {
        let (_device, handle) = Topology(1).build(256);
        let recorder = Recorder::new(handle, &preload(50)).unwrap();
        let before = recorder.query(0, u64::MAX, 1).unwrap();
        recorder.insert(Point::new(9_000, 90_000)).unwrap();
        recorder.query(0, u64::MAX, 1).unwrap();
        let mut history = recorder.into_history();
        // Replace the post-insert answer with the pre-insert one: the
        // window says the insert already committed, so no witness exists.
        if let Some(Event::Query { answer, .. }) = history.events.last_mut() {
            *answer = before;
        }
        assert!(check(&history).is_err());
    }

    #[test]
    fn duplicate_stamps_are_rejected() {
        let history = History {
            preload: vec![],
            base_stamp: 0,
            events: vec![
                Event::Write {
                    items: vec![UpdateOp::Insert(Point::new(1, 1))],
                    stamp: 3,
                },
                Event::Write {
                    items: vec![UpdateOp::Insert(Point::new(2, 2))],
                    stamp: 3,
                },
            ],
        };
        assert!(check(&history).unwrap_err().detail.contains("stamp 3"));
    }
}
