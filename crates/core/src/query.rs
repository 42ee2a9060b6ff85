//! Query requests.
//!
//! [`QueryRequest`] names the query parameters once; an owned
//! [`QueryCursor`](crate::QueryCursor) answers it lazily in descending
//! score order, fetching per round only what the caller demands, so a short
//! prefix of a large `k` never pays for the rest.

use crate::cursor::ResumeToken;
use crate::error::{Result, TopKError};

/// How an owned [`QueryCursor`](crate::QueryCursor) behaves when writes
/// commit between its fetch rounds. Irrelevant to one-shot queries, which
/// run under one read of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Every fetch round is a *score-threshold set* of the index state at
    /// that round: the next points strictly below the cursor's low-water
    /// mark, computed against whatever the index holds when the round runs.
    /// Writes interleaved between rounds are therefore visible from the next
    /// round on (below the mark) or invisible (above it) — never torn. This
    /// is the default.
    #[default]
    PerRound,
    /// Every fetch round must observe the exact index version the cursor
    /// pinned at its first round; an interleaved write surfaces as
    /// [`TopKError::SnapshotInvalidated`] instead of a silently moved
    /// snapshot.
    Strict,
}

/// Where a resumed request picks up: everything the cursor had emitted so
/// far is summarized by a count and a low-water mark (the threshold-set
/// property makes that pair a complete position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResumeState {
    /// Points handed out before the token was cut.
    pub(crate) emitted: usize,
    /// `(score, x)` of the last emitted point; `None` if nothing was.
    pub(crate) low_water: Option<(u64, u64)>,
    /// The version stamp a strict cursor pinned, carried across the resume.
    pub(crate) version: Option<u64>,
}

/// A top-k range query, built with a fluent API:
/// `QueryRequest::range(x1, x2).top(k)`, optionally widened to several
/// coordinate ranges ([`QueryRequest::ranges`]), floored at a minimum score
/// ([`QueryRequest::min_score`]) and given cursor semantics
/// ([`QueryRequest::consistency`], [`QueryRequest::page_size`]).
///
/// Misuse (`k = 0`, an inverted range, an empty range list) is recorded by
/// the setter that introduced it and surfaces as a typed error when the
/// request is used — so the error names the first bad call, not a downstream
/// symptom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    ranges: Vec<(u64, u64)>,
    k: usize,
    min_score: u64,
    consistency: Consistency,
    page: Option<usize>,
    pub(crate) resume: Option<ResumeState>,
    /// First validation error captured by a builder-style setter.
    poison: Option<TopKError>,
}

impl QueryRequest {
    /// A request for points with `x ∈ [x1, x2]`, initially asking for the
    /// single best point (`k = 1`); chain [`QueryRequest::top`] to widen it.
    pub fn range(x1: u64, x2: u64) -> Self {
        Self {
            ranges: vec![(x1, x2)],
            k: 1,
            min_score: 0,
            consistency: Consistency::default(),
            page: None,
            resume: None,
            poison: (x1 > x2).then_some(TopKError::InvertedRange { x1, x2 }),
        }
    }

    /// A request over several coordinate ranges, answered in globally
    /// descending score order as if the ranges were one set. Overlapping or
    /// adjacent ranges are coalesced, so each matching point is reported
    /// once. Only owned cursors serve multi-range requests; each inverted
    /// range is rejected eagerly with the same error as [`range`].
    ///
    /// [`range`]: QueryRequest::range
    pub fn ranges(ranges: &[(u64, u64)]) -> Self {
        let poison = if ranges.is_empty() {
            Some(TopKError::InvalidConfig {
                what: "a query needs at least one coordinate range",
            })
        } else {
            ranges
                .iter()
                .find(|&&(x1, x2)| x1 > x2)
                .map(|&(x1, x2)| TopKError::InvertedRange { x1, x2 })
        };
        Self {
            ranges: ranges.to_vec(),
            k: 1,
            min_score: 0,
            consistency: Consistency::default(),
            page: None,
            resume: None,
            poison,
        }
    }

    /// Ask for the `k` highest-scoring points. `k = 0` is captured here —
    /// the request is poisoned eagerly and any use reports
    /// [`TopKError::ZeroK`]. Re-calling with a valid `k` clears that
    /// poison: the request reflects its final state.
    pub fn top(mut self, k: usize) -> Self {
        if k == 0 {
            self.poison.get_or_insert(TopKError::ZeroK);
        } else if self.poison == Some(TopKError::ZeroK) {
            self.poison = None;
        }
        self.k = k;
        self
    }

    /// Only report points with score ≥ `floor`; a cursor that reaches the
    /// floor is exhausted even if fewer than `k` points were emitted.
    pub fn min_score(mut self, floor: u64) -> Self {
        self.min_score = floor;
        self
    }

    /// Select the write-interleaving contract of cursors built from this
    /// request (one-shot queries ignore it).
    pub fn consistency(mut self, mode: Consistency) -> Self {
        self.consistency = mode;
        self
    }

    /// Pin the cursor's fetch-round size to exactly `points` per round
    /// (pagination). Without it, rounds start at 64 points and double. `0`
    /// poisons the request like `top(0)` does; re-calling with a valid size
    /// clears that poison.
    pub fn page_size(mut self, points: usize) -> Self {
        const ZERO_PAGE: TopKError = TopKError::InvalidConfig {
            what: "page_size must be at least 1",
        };
        if points == 0 {
            self.poison.get_or_insert(ZERO_PAGE);
        } else if self.poison == Some(ZERO_PAGE) {
            self.poison = None;
        }
        self.page = Some(points);
        self
    }

    /// Rebuild the request a [`ResumeToken`] was cut from, positioned just
    /// past the last point that cursor emitted. Feed it to any index holding
    /// the same data ([`TopK::cursor`](crate::TopK::cursor) or
    /// [`TopKIndex::cursor`](crate::TopKIndex::cursor)) to continue the
    /// pagination — across threads or process boundaries.
    pub fn after(token: &ResumeToken) -> Self {
        token.request()
    }

    /// Number of points requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The score floor ([`QueryRequest::min_score`]; 0 = no floor).
    pub fn score_floor(&self) -> u64 {
        self.min_score
    }

    /// The cursor write-interleaving contract.
    pub fn consistency_mode(&self) -> Consistency {
        self.consistency
    }

    /// The pinned fetch-round size, if any.
    pub(crate) fn page(&self) -> Option<usize> {
        self.page
    }

    /// Surface the first setter-captured error, if any, plus anything only
    /// checkable on the assembled request.
    pub(crate) fn validate(&self) -> Result<()> {
        if let Some(e) = &self.poison {
            return Err(e.clone());
        }
        for &(x1, x2) in &self.ranges {
            if x1 > x2 {
                return Err(TopKError::InvertedRange { x1, x2 });
            }
        }
        if self.k == 0 {
            return Err(TopKError::ZeroK);
        }
        Ok(())
    }

    /// The ranges sorted by lower end with overlapping/adjacent ones
    /// coalesced: disjoint by construction, so per-range answers merge
    /// without duplicates.
    pub(crate) fn canonical_ranges(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.ranges.clone();
        sorted.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for (x1, x2) in sorted {
            match out.last_mut() {
                // Coalesce overlap and adjacency ([1,5] + [6,9] = [1,9]).
                Some(prev) if x1 <= prev.1.saturating_add(1) => prev.1 = prev.1.max(x2),
                _ => out.push((x1, x2)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_carries_parameters() {
        let req = QueryRequest::range(3, 9).top(17);
        assert_eq!((req.canonical_ranges(), req.k()), (vec![(3, 9)], 17));
        assert_eq!(QueryRequest::range(3, 9).k(), 1);
    }

    #[test]
    fn setter_poison_clears_when_the_offending_setter_is_corrected() {
        // The final state decides: a corrected k or page size un-poisons.
        let req = QueryRequest::range(3, 9).top(0).top(5);
        assert!(req.validate().is_ok());
        assert_eq!(req.k(), 5);
        let req = QueryRequest::range(3, 9).page_size(0).page_size(10);
        assert!(req.validate().is_ok());
        // …but a different poison is not clobbered by an unrelated setter.
        let req = QueryRequest::range(9, 3).top(0).top(5);
        assert_eq!(
            req.validate().unwrap_err(),
            crate::TopKError::InvertedRange { x1: 9, x2: 3 }
        );
    }
}
