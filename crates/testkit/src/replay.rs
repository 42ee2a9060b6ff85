//! Sequential trace replay with spec checking.
//!
//! [`replay`] runs a [`Trace`] against one [`Topology`] and, op by op,
//! against the sequential spec — [`baselines::NaiveTopK`], the scan oracle
//! — reporting the first [`Divergence`] between the two. The replayer is
//! **total over arbitrary traces**: operations that the model preconditions
//! make invalid at their point in the trace (duplicate coordinates or
//! scores, inverted ranges, `k = 0`, cursor verbs without an open cursor)
//! are skipped deterministically rather than failed, so *every subsequence
//! of a valid trace is itself a valid trace* — the property the shrinker
//! ([`mod@crate::shrink`]) relies on to bisect failures down to minimal repro
//! files.
//!
//! Cursor semantics are replayed against an explicit model of the
//! per-round contract (DESIGN.md §6): a cursor position is `(emitted,
//! low-water mark)`, each fetched page must equal the spec's
//! strictly-below-the-mark prefix of the *current* state, and a
//! [`Consistency::Strict`] cursor must surface `SnapshotInvalidated`
//! exactly when the topology's commit stamp moved between rounds.
//! [`TraceOp::CursorResume`] additionally round-trips the position through
//! the token's wire string, so token serialization is exercised on every
//! replay.

use std::collections::{HashMap, HashSet};

use baselines::NaiveTopK;
use emsim::{Device, EmConfig};
use epst::Point;
use topk_core::{
    Consistency, QueryCursor, QueryRequest, ResumeToken, TopK, TopKError, UpdateBatch, UpdateOp,
};

use crate::topology::Topology;
use crate::trace::{BatchItem, Trace, TraceOp};

/// How often the replayer runs the deep checks (length agreement, the
/// full-range ranking, sharded routing invariants).
const DEEP_CHECK_EVERY: usize = 64;

/// The first disagreement between the engine under test and the sequential
/// spec, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 0-based index of the offending op in the trace.
    pub step: usize,
    /// The op that diverged.
    pub op: TraceOp,
    /// The topology under test.
    pub topology: Topology,
    /// What the engine did vs what the spec requires.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence on {} at step {} ({}): {}",
            self.topology, self.step, self.op, self.detail
        )
    }
}

impl std::error::Error for Divergence {}

/// Counters summarizing a successful replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Ops applied to both engine and spec.
    pub applied: usize,
    /// Ops skipped as invalid at their point in the trace.
    pub skipped: usize,
    /// Query / cursor-fetch answers compared against the spec.
    pub checked_answers: usize,
}

/// The spec-side model of one open cursor.
struct SpecCursor {
    x1: u64,
    x2: u64,
    k: usize,
    page: usize,
    strict: bool,
    emitted: usize,
    /// Score of the last emitted point (scores are distinct by the model
    /// precondition, so the score alone identifies the mark).
    low_water: Option<u64>,
    /// Commit stamp observed at the last fetch round (`None` before the
    /// first round — strict cursors pin at the first fetch).
    last_stamp: Option<u64>,
    /// Exhausted, completed, or fused by a strict invalidation.
    done: bool,
}

struct OpenCursor {
    engine: QueryCursor,
    spec: SpecCursor,
}

/// The replayer: engine under test + scan spec + validity model + cursors.
struct Replayer {
    topology: Topology,
    handle: TopK,
    _engine_device: Device,
    spec: NaiveTopK,
    _spec_device: Device,
    /// Live points by coordinate (the validity pre-filter's view).
    live: HashMap<u64, Point>,
    scores: HashSet<u64>,
    cursors: HashMap<u32, OpenCursor>,
    stats: ReplayStats,
}

/// Replay `trace` against `topology`, checking every observable answer
/// against the sequential spec. Returns the first [`Divergence`], or the
/// replay counters when engine and spec agree throughout.
pub fn replay(trace: &Trace, topology: Topology) -> Result<ReplayStats, Divergence> {
    let (engine_device, handle) = topology.build(expected_inserts(trace));
    replay_on(trace, topology, engine_device, handle)
}

/// Replay `trace` against a durable index in the directory `dir`: the
/// engine is a one-shard handle (`Topology(1)`) appending one synced
/// journal frame per commit (a directory has one journal, so a durable
/// index is one shard). `dir` must be fresh — the sequential spec starts empty, so a
/// directory with recovered state diverges at step 0 by construction.
pub fn replay_durable(trace: &Trace, dir: &std::path::Path) -> Result<ReplayStats, Divergence> {
    let handle = TopK::builder()
        .expected_n(expected_inserts(trace).max(64))
        .durable(dir)
        .build_auto()
        .expect("durable replay build parameters are valid");
    let engine_device = handle.device();
    replay_on(trace, Topology(1), engine_device, handle)
}

/// Total inserts a trace can perform — the builder's `expected_n` sizing.
fn expected_inserts(trace: &Trace) -> usize {
    trace
        .ops
        .iter()
        .map(|op| match op {
            TraceOp::Insert(_) => 1,
            TraceOp::Batch(items) => items
                .iter()
                .filter(|i| matches!(i, BatchItem::Insert(_)))
                .count(),
            _ => 0,
        })
        .sum::<usize>()
}

/// Replay `trace` against an already-built `handle` on `engine_device` —
/// the backend-agnostic core of [`replay`]. `topology` labels divergences;
/// the handle must be empty (the spec starts empty).
pub fn replay_on(
    trace: &Trace,
    topology: Topology,
    engine_device: Device,
    handle: TopK,
) -> Result<ReplayStats, Divergence> {
    let spec_device = Device::new(EmConfig::new(256, 256 * 128));
    let spec = NaiveTopK::new(&spec_device, "trace-spec");
    let mut replayer = Replayer {
        topology,
        handle,
        _engine_device: engine_device,
        spec,
        _spec_device: spec_device,
        live: HashMap::new(),
        scores: HashSet::new(),
        cursors: HashMap::new(),
        stats: ReplayStats::default(),
    };
    // Engine panics (a tripped invariant checker, a poisoned lock, an
    // internal assertion) are divergences too: catch them so the shrinker
    // can minimize panicking traces the same way it minimizes wrong
    // answers. The replayer aborts at the first panic, so the possibly
    // inconsistent engine state is never used again.
    let at = std::sync::atomic::AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for (step, op) in trace.ops.iter().enumerate() {
            at.store(step, std::sync::atomic::Ordering::Relaxed);
            replayer.step(step, op)?;
            if step % DEEP_CHECK_EVERY == DEEP_CHECK_EVERY - 1 {
                replayer.deep_check(step, op)?;
            }
        }
        replayer.deep_check(trace.ops.len().saturating_sub(1), &TraceOp::RebalanceHint)?;
        Ok(replayer.stats)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied())
                .unwrap_or("non-string panic payload");
            let step = at.load(std::sync::atomic::Ordering::Relaxed);
            Err(Divergence {
                step,
                op: trace.ops[step.min(trace.ops.len().saturating_sub(1))].clone(),
                topology,
                detail: format!("engine panicked during replay: {message}"),
            })
        }
    }
}

impl Replayer {
    fn diverge(&self, step: usize, op: &TraceOp, detail: String) -> Divergence {
        Divergence {
            step,
            op: op.clone(),
            topology: self.topology,
            detail,
        }
    }

    fn step(&mut self, step: usize, op: &TraceOp) -> Result<(), Divergence> {
        match op {
            TraceOp::Insert(p) => self.do_insert(step, op, *p),
            TraceOp::Delete(p) => self.do_delete(step, op, *p),
            TraceOp::Batch(items) => self.do_batch(step, op, items),
            TraceOp::Query { x1, x2, k } => self.do_query(step, op, *x1, *x2, *k),
            TraceOp::CursorOpen {
                id,
                x1,
                x2,
                k,
                page,
                strict,
            } => self.do_cursor_open(step, op, *id, *x1, *x2, *k, *page, *strict),
            TraceOp::CursorNext { id } => self.do_cursor_next(step, op, *id),
            TraceOp::CursorResume { id } => self.do_cursor_resume(step, op, *id),
            TraceOp::RebalanceHint => {
                if let Err(e) = self.handle.rebalance_now() {
                    return Err(self.diverge(step, op, format!("rebalance failed: {e}")));
                }
                self.stats.applied += 1;
                Ok(())
            }
        }
    }

    fn do_insert(&mut self, step: usize, op: &TraceOp, p: Point) -> Result<(), Divergence> {
        if self.live.contains_key(&p.x) || self.scores.contains(&p.score) {
            self.stats.skipped += 1;
            return Ok(());
        }
        if let Err(e) = self.handle.insert(p) {
            return Err(self.diverge(step, op, format!("engine rejected a valid insert: {e}")));
        }
        self.spec.insert(p).expect("spec accepts valid inserts");
        self.live.insert(p.x, p);
        self.scores.insert(p.score);
        self.stats.applied += 1;
        Ok(())
    }

    fn do_delete(&mut self, step: usize, op: &TraceOp, p: Point) -> Result<(), Divergence> {
        let expect_hit = self.live.get(&p.x) == Some(&p);
        let engine_hit = self
            .handle
            .delete(p)
            .map_err(|e| self.diverge(step, op, format!("engine delete failed: {e}")))?;
        if engine_hit != expect_hit {
            return Err(self.diverge(
                step,
                op,
                format!("engine delete returned {engine_hit}, spec says {expect_hit}"),
            ));
        }
        let spec_hit = self.spec.delete(p).expect("spec delete is infallible");
        debug_assert_eq!(spec_hit, expect_hit, "spec model drifted from NaiveTopK");
        if expect_hit {
            self.live.remove(&p.x);
            self.scores.remove(&p.score);
            self.stats.applied += 1;
        } else {
            self.stats.skipped += 1;
        }
        Ok(())
    }

    fn do_batch(
        &mut self,
        step: usize,
        op: &TraceOp,
        items: &[BatchItem],
    ) -> Result<(), Divergence> {
        // Resolve the batch the way the engine's validator does: in order,
        // against the live state *overlaid with the batch's own earlier
        // items*. Inserts that would violate distinctness are dropped (the
        // engine would reject the whole batch; the replayer keeps traces
        // total instead); deletes are kept — a miss is legal and must be
        // counted, not applied.
        let mut x_overlay: HashMap<u64, Option<Point>> = HashMap::new();
        let mut score_overlay: HashMap<u64, bool> = HashMap::new();
        let live_x = |ov: &HashMap<u64, Option<Point>>, live: &HashMap<u64, Point>, x: u64| match ov
            .get(&x)
        {
            Some(&slot) => slot,
            None => live.get(&x).copied(),
        };
        let mut kept: Vec<UpdateOp> = Vec::with_capacity(items.len());
        let (mut expect_ins, mut expect_del, mut expect_miss) = (0usize, 0usize, 0usize);
        for item in items {
            match *item {
                BatchItem::Insert(p) => {
                    let x_taken = live_x(&x_overlay, &self.live, p.x).is_some();
                    let score_taken = *score_overlay
                        .get(&p.score)
                        .unwrap_or(&self.scores.contains(&p.score));
                    if x_taken || score_taken {
                        continue;
                    }
                    x_overlay.insert(p.x, Some(p));
                    score_overlay.insert(p.score, true);
                    kept.push(UpdateOp::Insert(p));
                    expect_ins += 1;
                }
                BatchItem::Delete(p) => {
                    if live_x(&x_overlay, &self.live, p.x) == Some(p) {
                        x_overlay.insert(p.x, None);
                        score_overlay.insert(p.score, false);
                        expect_del += 1;
                    } else {
                        expect_miss += 1;
                    }
                    kept.push(UpdateOp::Delete(p));
                }
            }
        }
        if kept.is_empty() {
            self.stats.skipped += 1;
            return Ok(());
        }
        let batch = UpdateBatch::from_ops(kept.iter().copied());
        let summary = self
            .handle
            .apply(&batch)
            .map_err(|e| self.diverge(step, op, format!("engine rejected a valid batch: {e}")))?;
        if (summary.inserted, summary.deleted, summary.missing_deletes)
            != (expect_ins, expect_del, expect_miss)
        {
            return Err(self.diverge(
                step,
                op,
                format!(
                    "batch summary (ins, del, miss) = ({}, {}, {}), spec says ({expect_ins}, \
                     {expect_del}, {expect_miss})",
                    summary.inserted, summary.deleted, summary.missing_deletes
                ),
            ));
        }
        for kept_op in &kept {
            match *kept_op {
                UpdateOp::Insert(p) => {
                    self.spec
                        .insert(p)
                        .expect("resolved batch inserts are valid");
                    self.live.insert(p.x, p);
                    self.scores.insert(p.score);
                }
                UpdateOp::Delete(p) => {
                    if self.spec.delete(p).expect("spec delete is infallible") {
                        self.live.remove(&p.x);
                        self.scores.remove(&p.score);
                    }
                }
            }
        }
        self.stats.applied += 1;
        Ok(())
    }

    fn do_query(
        &mut self,
        step: usize,
        op: &TraceOp,
        x1: u64,
        x2: u64,
        k: usize,
    ) -> Result<(), Divergence> {
        if x1 > x2 || k == 0 {
            self.stats.skipped += 1;
            return Ok(());
        }
        let mut got = self
            .handle
            .query(x1, x2, k)
            .map_err(|e| self.diverge(step, op, format!("engine rejected a valid query: {e}")))?;
        crate::fault::transpose_if_injected(&mut got);
        let expect = self.spec.query(x1, x2, k).expect("spec query is valid");
        if got != expect {
            return Err(self.diverge(
                step,
                op,
                format!("query answer diverged:\n  engine: {got:?}\n  spec:   {expect:?}"),
            ));
        }
        let got_count = self
            .handle
            .count_in_range(x1, x2)
            .map_err(|e| self.diverge(step, op, format!("engine count failed: {e}")))?;
        let expect_count = self
            .spec
            .count_in_range(x1, x2)
            .expect("spec count is valid");
        if got_count != expect_count {
            return Err(self.diverge(
                step,
                op,
                format!("count_in_range diverged: engine {got_count}, spec {expect_count}"),
            ));
        }
        self.stats.applied += 1;
        self.stats.checked_answers += 1;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn do_cursor_open(
        &mut self,
        step: usize,
        op: &TraceOp,
        id: u32,
        x1: u64,
        x2: u64,
        k: usize,
        page: usize,
        strict: bool,
    ) -> Result<(), Divergence> {
        if x1 > x2 || k == 0 || page == 0 {
            self.stats.skipped += 1;
            return Ok(());
        }
        let request = QueryRequest::range(x1, x2)
            .top(k)
            .page_size(page)
            .consistency(if strict {
                Consistency::Strict
            } else {
                Consistency::PerRound
            });
        let engine = self
            .handle
            .cursor(request)
            .map_err(|e| self.diverge(step, op, format!("engine rejected a valid cursor: {e}")))?;
        self.cursors.insert(
            id,
            OpenCursor {
                engine,
                spec: SpecCursor {
                    x1,
                    x2,
                    k,
                    page,
                    strict,
                    emitted: 0,
                    low_water: None,
                    last_stamp: None,
                    done: false,
                },
            },
        );
        self.stats.applied += 1;
        Ok(())
    }

    /// The spec's next page: everything live in `[x1, x2]` strictly below
    /// the low-water mark, descending, capped at `min(page, k - emitted)`.
    fn spec_next_page(&self, cur: &SpecCursor) -> Vec<Point> {
        let need = cur.page.min(cur.k - cur.emitted);
        let total = self
            .spec
            .count_in_range(cur.x1, cur.x2)
            .expect("spec count is valid") as usize;
        if total == 0 || need == 0 {
            return Vec::new();
        }
        let all = self
            .spec
            .query(cur.x1, cur.x2, total)
            .expect("spec query is valid");
        all.into_iter()
            .filter(|p| match cur.low_water {
                None => true,
                Some(mark) => p.score < mark,
            })
            .take(need)
            .collect()
    }

    fn do_cursor_next(&mut self, step: usize, op: &TraceOp, id: u32) -> Result<(), Divergence> {
        let Some(mut cur) = self.cursors.remove(&id) else {
            self.stats.skipped += 1;
            return Ok(());
        };
        let current_stamp = self.handle.commit_stamp();
        // What must happen, per the §6 contract: a finished or fused cursor
        // yields an empty page; a strict cursor whose pinned stamp moved
        // fails with SnapshotInvalidated; otherwise the next
        // strictly-below-the-mark page of the current state.
        enum Expectation {
            Empty,
            Invalidated,
            Page,
        }
        let expectation = if cur.spec.done || cur.spec.emitted >= cur.spec.k {
            Expectation::Empty
        } else if cur.spec.strict && cur.spec.last_stamp.is_some_and(|s| s != current_stamp) {
            Expectation::Invalidated
        } else {
            Expectation::Page
        };
        match expectation {
            Expectation::Empty => {
                cur.spec.done = true;
                match cur.engine.next_batch() {
                    Ok(batch) if batch.is_empty() => {}
                    Ok(batch) => {
                        return Err(self.diverge(
                            step,
                            op,
                            format!(
                                "cursor {id}: engine emitted {} points past exhaustion",
                                batch.len()
                            ),
                        ));
                    }
                    Err(e) => {
                        return Err(self.diverge(
                            step,
                            op,
                            format!("cursor {id}: engine failed a finished cursor's fetch: {e}"),
                        ));
                    }
                }
            }
            Expectation::Invalidated => {
                cur.spec.done = true;
                match cur.engine.next_batch() {
                    Err(TopKError::SnapshotInvalidated { .. }) => {}
                    other => {
                        return Err(self.diverge(
                            step,
                            op,
                            format!(
                                "cursor {id}: strict cursor over a moved stamp must surface \
                                 SnapshotInvalidated, got {other:?}"
                            ),
                        ));
                    }
                }
            }
            Expectation::Page => {
                let expect = self.spec_next_page(&cur.spec);
                let need = cur.spec.page.min(cur.spec.k - cur.spec.emitted);
                let got = match cur.engine.next_batch() {
                    Ok(batch) => batch,
                    Err(e) => {
                        return Err(self.diverge(
                            step,
                            op,
                            format!("cursor {id}: engine fetch failed: {e}"),
                        ));
                    }
                };
                if got != expect {
                    return Err(self.diverge(
                        step,
                        op,
                        format!(
                            "cursor {id} page diverged:\n  engine: {got:?}\n  spec:   {expect:?}"
                        ),
                    ));
                }
                cur.spec.emitted += expect.len();
                if let Some(last) = expect.last() {
                    cur.spec.low_water = Some(last.score);
                }
                if expect.len() < need || cur.spec.emitted >= cur.spec.k {
                    cur.spec.done = true;
                }
                cur.spec.last_stamp = Some(current_stamp);
                self.stats.checked_answers += 1;
            }
        }
        self.cursors.insert(id, cur);
        self.stats.applied += 1;
        Ok(())
    }

    fn do_cursor_resume(&mut self, step: usize, op: &TraceOp, id: u32) -> Result<(), Divergence> {
        let Some(mut cur) = self.cursors.remove(&id) else {
            self.stats.skipped += 1;
            return Ok(());
        };
        // Cut the token, cross the "process boundary" through the wire
        // string, and verify the round trip before reopening from it.
        let token = cur.engine.token();
        let wire = token.to_string();
        let parsed: ResumeToken = match wire.parse() {
            Ok(t) => t,
            Err(e) => {
                return Err(self.diverge(
                    step,
                    op,
                    format!("cursor {id}: token wire form {wire:?} failed to parse back: {e}"),
                ))
            }
        };
        if parsed != token {
            return Err(self.diverge(
                step,
                op,
                format!("cursor {id}: token did not round-trip through {wire:?}"),
            ));
        }
        if token.emitted() != cur.spec.emitted {
            return Err(self.diverge(
                step,
                op,
                format!(
                    "cursor {id}: token says {} emitted, spec counted {}",
                    token.emitted(),
                    cur.spec.emitted
                ),
            ));
        }
        let engine = self
            .handle
            .cursor(QueryRequest::after(&parsed))
            .map_err(|e| self.diverge(step, op, format!("cursor {id}: resume rejected: {e}")))?;
        // A resumed cursor is live again unless its budget is spent: an
        // exhaustion mark does not survive the token (deeper points inserted
        // since may now be in range), a strict pin does.
        cur.engine = engine;
        cur.spec.done = cur.spec.emitted >= cur.spec.k;
        self.cursors.insert(id, cur);
        self.stats.applied += 1;
        Ok(())
    }

    /// Length agreement, the full-range ranking and (sharded) routing
    /// invariants — the deep checks the differential stress harness runs
    /// periodically.
    fn deep_check(&mut self, step: usize, op: &TraceOp) -> Result<(), Divergence> {
        if self.handle.len() != self.live.len() as u64 {
            return Err(self.diverge(
                step,
                op,
                format!(
                    "deep check: engine len {} != spec len {}",
                    self.handle.len(),
                    self.live.len()
                ),
            ));
        }
        if !self.live.is_empty() {
            let k = self.live.len();
            let got = self
                .handle
                .query(0, u64::MAX, k)
                .map_err(|e| self.diverge(step, op, format!("deep check query failed: {e}")))?;
            let expect = self
                .spec
                .query(0, u64::MAX, k)
                .expect("spec query is valid");
            if got != expect {
                return Err(self.diverge(
                    step,
                    op,
                    format!(
                        "deep check: full ranking diverged (engine {} points, spec {})",
                        got.len(),
                        expect.len()
                    ),
                ));
            }
            self.stats.checked_answers += 1;
        }
        self.handle.check_invariants();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(pairs: &[(u64, u64)]) -> Vec<TraceOp> {
        pairs
            .iter()
            .map(|&(x, s)| TraceOp::Insert(Point::new(x, s)))
            .collect()
    }

    #[test]
    fn a_handwritten_trace_replays_on_every_topology() {
        let mut ops = pts(&[(1, 10), (5, 50), (9, 90), (13, 30), (17, 70)]);
        ops.push(TraceOp::Query {
            x1: 0,
            x2: 20,
            k: 3,
        });
        ops.push(TraceOp::Batch(vec![
            BatchItem::Delete(Point::new(5, 50)),
            BatchItem::Insert(Point::new(21, 55)),
        ]));
        ops.push(TraceOp::Query {
            x1: 0,
            x2: u64::MAX,
            k: 10,
        });
        ops.push(TraceOp::CursorOpen {
            id: 0,
            x1: 0,
            x2: u64::MAX,
            k: 5,
            page: 2,
            strict: false,
        });
        ops.push(TraceOp::CursorNext { id: 0 });
        ops.push(TraceOp::CursorResume { id: 0 });
        ops.push(TraceOp::CursorNext { id: 0 });
        ops.push(TraceOp::RebalanceHint);
        ops.push(TraceOp::CursorNext { id: 0 });
        let trace = Trace::new(ops);
        for topology in Topology::ALL {
            let stats = replay(&trace, topology).unwrap_or_else(|d| panic!("{d}"));
            assert!(stats.checked_answers >= 4, "{topology}: too few checks");
        }
    }

    #[test]
    fn invalid_ops_are_skipped_not_failed() {
        let trace = Trace::new(vec![
            TraceOp::Insert(Point::new(1, 10)),
            TraceOp::Insert(Point::new(1, 20)),    // dup x
            TraceOp::Insert(Point::new(2, 10)),    // dup score
            TraceOp::Delete(Point::new(9, 9)),     // miss
            TraceOp::Query { x1: 5, x2: 1, k: 3 }, // inverted
            TraceOp::Query { x1: 0, x2: 9, k: 0 }, // k = 0
            TraceOp::CursorNext { id: 7 },         // no such cursor
            TraceOp::CursorResume { id: 7 },
            TraceOp::Query { x1: 0, x2: 9, k: 3 },
        ]);
        let stats = replay(&trace, Topology(1)).unwrap();
        assert_eq!(stats.skipped, 7); // dup x, dup score, miss, 2 bad queries, 2 orphan cursor verbs
        assert_eq!(stats.applied, 2); // the one valid insert and the one valid query
    }

    #[test]
    fn strict_cursor_invalidation_is_modelled() {
        let mut ops = pts(&[(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
        ops.push(TraceOp::CursorOpen {
            id: 0,
            x1: 0,
            x2: u64::MAX,
            k: 5,
            page: 2,
            strict: true,
        });
        ops.push(TraceOp::CursorNext { id: 0 }); // pins the stamp
        ops.push(TraceOp::Insert(Point::new(9, 90))); // moves it
        ops.push(TraceOp::CursorNext { id: 0 }); // must invalidate
        ops.push(TraceOp::CursorNext { id: 0 }); // fused: empty
        let trace = Trace::new(ops);
        for topology in Topology::ALL {
            replay(&trace, topology).unwrap_or_else(|d| panic!("{d}"));
        }
    }

    #[test]
    fn deletes_under_an_open_cursor_follow_the_per_round_contract() {
        // Page 1 emits the two top scorers; deleting the next-best between
        // rounds means page 2 starts below it — the spec model enforces
        // exactly that, on every topology.
        let mut ops = pts(&[(1, 100), (2, 90), (3, 80), (4, 70), (5, 60)]);
        ops.push(TraceOp::CursorOpen {
            id: 0,
            x1: 0,
            x2: u64::MAX,
            k: 5,
            page: 2,
            strict: false,
        });
        ops.push(TraceOp::CursorNext { id: 0 }); // 100, 90
        ops.push(TraceOp::Delete(Point::new(3, 80)));
        ops.push(TraceOp::CursorNext { id: 0 }); // 70, 60
        ops.push(TraceOp::CursorNext { id: 0 }); // exhausted
        let trace = Trace::new(ops);
        for topology in Topology::ALL {
            replay(&trace, topology).unwrap_or_else(|d| panic!("{d}"));
        }
    }
}
