//! The error type of the public API.
//!
//! Every mutating or querying operation on [`TopKIndex`](crate::TopKIndex)
//! and [`ShardedTopK`](crate::ShardedTopK) returns
//! [`Result`](crate::Result): misuse that the seed code answered with panics,
//! `debug_assert!`s or silent empty vectors (duplicate coordinates, duplicate
//! scores, inverted ranges, `k == 0`, component-membership disagreement) is
//! reported as a typed [`TopKError`] the caller can match on.

use epst::Point;

/// Everything that can go wrong when building, updating or querying an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKError {
    /// An insert would introduce a second point with the same coordinate.
    /// The paper's model requires all `x` values to be distinct.
    DuplicateX {
        /// The offending coordinate, and the point already stored there.
        existing: Point,
        /// The point whose insertion was rejected.
        rejected: Point,
    },
    /// An insert would introduce a second point with the same score. The
    /// paper's model requires all scores to be distinct (ties are broken by
    /// pre-perturbing the input, not inside the structure).
    DuplicateScore {
        /// The score two points would share.
        score: u64,
        /// The point whose insertion was rejected.
        rejected: Point,
    },
    /// A query was issued with `x1 > x2`.
    InvertedRange {
        /// Lower end of the range as given.
        x1: u64,
        /// Upper end of the range as given.
        x2: u64,
    },
    /// A query was issued with `k == 0`.
    ZeroK,
    /// A builder parameter was out of range (the message names it).
    InvalidConfig {
        /// Which parameter, and what was wrong with it.
        what: &'static str,
    },
    /// A [`Consistency::Strict`](crate::Consistency::Strict) cursor observed
    /// a version stamp different from the one recorded when its snapshot was
    /// established: a write committed to (an overlapping shard of) the index
    /// between two fetch rounds, so the strict contract — every batch comes
    /// from the same index state — can no longer be honoured. The cursor is
    /// fused afterwards; re-issue the query (or resume with
    /// [`Consistency::PerRound`](crate::Consistency::PerRound)) to continue
    /// against the new state.
    SnapshotInvalidated {
        /// The version stamp the cursor pinned at its first round.
        expected: u64,
        /// The version stamp observed at the failing round.
        observed: u64,
    },
    /// The component structures disagree about membership of a point: one of
    /// them deleted it, another claims it was never stored. This is the
    /// release-mode promotion of what the seed code only `debug_assert!`ed;
    /// it indicates a corrupted index and should be treated as fatal.
    Inconsistent {
        /// The point the components disagree about.
        point: Point,
        /// Which component disagreed.
        component: &'static str,
    },
    /// The durable journal failed: a medium call returned an error, or the
    /// directory failed validation at open. After a failed call the journal
    /// is dead and every later write returns the same error. The in-RAM index
    /// may be *ahead* of the durable state: treat the handle as lost and
    /// reopen the index from its directory, which recovers to the last
    /// committed stamp.
    Storage {
        /// What failed: the medium call and file, or the validation.
        what: String,
    },
}

impl TopKError {
    /// The stable numeric code of this variant — the wire-protocol error
    /// contract (`topkwire v1`, DESIGN.md §9). Codes are **append-only**:
    /// a published code is never renumbered or reused, new variants take the
    /// next free code, and the server-side transport codes live in a
    /// disjoint namespace (`>= 100`, `topk_server::wire::status`), so a
    /// client built against an older enum can still classify every index
    /// error it receives.
    pub fn code(&self) -> u16 {
        match self {
            TopKError::DuplicateX { .. } => 1,
            TopKError::DuplicateScore { .. } => 2,
            TopKError::InvertedRange { .. } => 3,
            TopKError::ZeroK => 4,
            TopKError::InvalidConfig { .. } => 5,
            TopKError::SnapshotInvalidated { .. } => 6,
            TopKError::Inconsistent { .. } => 7,
            TopKError::Storage { .. } => 8,
        }
    }

    /// Decode a wire code back to the variant's stable name, or `None` for
    /// codes this build does not know (a newer peer — treat as an opaque
    /// index error rather than a decode failure, which is what keeps the
    /// contract `#[non_exhaustive]`-safe in both directions).
    pub fn code_name(code: u16) -> Option<&'static str> {
        match code {
            1 => Some("DuplicateX"),
            2 => Some("DuplicateScore"),
            3 => Some("InvertedRange"),
            4 => Some("ZeroK"),
            5 => Some("InvalidConfig"),
            6 => Some("SnapshotInvalidated"),
            7 => Some("Inconsistent"),
            8 => Some("Storage"),
            _ => None,
        }
    }

    /// Whether an operation failing with this error may be retried verbatim
    /// with a chance of success (today: only a strict-snapshot invalidation,
    /// which a re-issued query resolves against the new state). Transport
    /// codes have their own retryability table in `topk_server::wire`.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TopKError::SnapshotInvalidated { .. })
    }
}

impl std::fmt::Display for TopKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKError::DuplicateX { existing, rejected } => write!(
                f,
                "duplicate coordinate x = {}: ({}, {}) is already stored, ({}, {}) rejected",
                rejected.x, existing.x, existing.score, rejected.x, rejected.score
            ),
            TopKError::DuplicateScore { score, rejected } => write!(
                f,
                "duplicate score {score}: insertion of ({}, {}) rejected",
                rejected.x, rejected.score
            ),
            TopKError::InvertedRange { x1, x2 } => {
                write!(f, "inverted query range [{x1}, {x2}] (x1 > x2)")
            }
            TopKError::ZeroK => write!(f, "query issued with k = 0"),
            TopKError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            TopKError::SnapshotInvalidated { expected, observed } => write!(
                f,
                "strict cursor snapshot invalidated: index version moved from \
                 {expected} to {observed} between fetch rounds"
            ),
            TopKError::Inconsistent { point, component } => write!(
                f,
                "component '{component}' disagrees about membership of ({}, {}): index corrupted",
                point.x, point.score
            ),
            TopKError::Storage { what } => write!(
                f,
                "durable storage failed: {what} — reopen the index from its directory"
            ),
        }
    }
}

impl std::error::Error for TopKError {}

/// The `Result` alias used across the public API.
pub type Result<T> = std::result::Result<T, TopKError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = TopKError::DuplicateX {
            existing: Point::new(5, 9),
            rejected: Point::new(5, 11),
        };
        assert!(e.to_string().contains("x = 5"));
        let e = TopKError::DuplicateScore {
            score: 7,
            rejected: Point::new(1, 7),
        };
        assert!(e.to_string().contains("score 7"));
        assert!(TopKError::InvertedRange { x1: 9, x2: 3 }
            .to_string()
            .contains("[9, 3]"));
        assert!(TopKError::ZeroK.to_string().contains("k = 0"));
        let e = TopKError::SnapshotInvalidated {
            expected: 3,
            observed: 5,
        };
        assert!(e.to_string().contains("3") && e.to_string().contains("5"));
        let e = TopKError::Inconsistent {
            point: Point::new(2, 3),
            component: "pilot",
        };
        assert!(e.to_string().contains("pilot"));
        // The std Error impl is object-safe.
        let _: Box<dyn std::error::Error> = Box::new(TopKError::ZeroK);
    }

    #[test]
    fn wire_codes_are_stable_distinct_and_round_trip() {
        // One representative value per variant. Adding a variant without
        // extending this list fails the exhaustiveness check below.
        let all = [
            TopKError::DuplicateX {
                existing: Point::new(5, 9),
                rejected: Point::new(5, 11),
            },
            TopKError::DuplicateScore {
                score: 7,
                rejected: Point::new(1, 7),
            },
            TopKError::InvertedRange { x1: 9, x2: 3 },
            TopKError::ZeroK,
            TopKError::InvalidConfig { what: "shards" },
            TopKError::SnapshotInvalidated {
                expected: 3,
                observed: 5,
            },
            TopKError::Inconsistent {
                point: Point::new(2, 3),
                component: "pilot",
            },
            TopKError::Storage {
                what: "wal append failed".to_string(),
            },
        ];
        // The published contract: these exact pairs, frozen. Renumbering any
        // of them is a wire-protocol break and must fail here.
        let published: &[(u16, &str)] = &[
            (1, "DuplicateX"),
            (2, "DuplicateScore"),
            (3, "InvertedRange"),
            (4, "ZeroK"),
            (5, "InvalidConfig"),
            (6, "SnapshotInvalidated"),
            (7, "Inconsistent"),
            (8, "Storage"),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &all {
            let code = e.code();
            assert!(seen.insert(code), "duplicate wire code {code} for {e:?}");
            let name = TopKError::code_name(code).expect("every live variant decodes");
            assert!(
                published.contains(&(code, name)),
                "({code}, {name}) is not in the published table"
            );
            // The decoded name matches the Debug variant name.
            assert!(
                format!("{e:?}").starts_with(name),
                "code_name({code}) = {name} does not match {e:?}"
            );
        }
        assert_eq!(seen.len(), published.len(), "a variant is missing a code");
        // Unknown codes decode to None, never panic: a newer peer's codes
        // pass through as opaque errors.
        assert_eq!(TopKError::code_name(0), None);
        assert_eq!(TopKError::code_name(99), None);
        assert_eq!(TopKError::code_name(100), None); // transport namespace
        assert_eq!(TopKError::code_name(u16::MAX), None);
        // Retryability: only the snapshot invalidation.
        assert!(TopKError::SnapshotInvalidated {
            expected: 1,
            observed: 2
        }
        .is_retryable());
        assert!(!TopKError::ZeroK.is_retryable());
    }
}
