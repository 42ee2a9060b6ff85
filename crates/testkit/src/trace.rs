//! The serializable operation-trace DSL.
//!
//! A [`Trace`] is a sequence of [`TraceOp`]s — the full observable surface
//! of a serving topology: point updates, atomic batches, eager queries,
//! cursor sessions (open / fetch / token-round-trip resume) and rebalance
//! hints. Traces round-trip through a line-oriented text format (`.trace`
//! files) via `Display` / `FromStr`, so every failure the harnesses find is
//! a file that replays with one command and diffs like source code.
//!
//! # The `.trace` format
//!
//! ```text
//! topktrace v1
//! # comments and blank lines are ignored
//! ins 17 4200            # insert point (x = 17, score = 4200)
//! del 17 4200            # delete that exact point
//! batch ins 1 10 ; ins 2 20 ; del 1 10
//! query 0 1000 5         # top-5 over x ∈ [0, 1000]
//! open 0 0 1000 50 10 perround   # cursor 0: k = 50, pages of 10
//! next 0                 # fetch cursor 0's next page
//! resume 0               # cut cursor 0's token, round-trip it, reopen
//! open 1 0 1000 20 5 strict      # strict cursors pin a snapshot
//! rebalance              # repartition hint (sharded topologies)
//! ```
//!
//! Every line is one op; the header line pins the format version. The
//! parser reports the 1-based line number of the first offending line, so
//! hand-edited traces fail loudly instead of replaying something else.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use epst::Point;

/// The header line every `.trace` file starts with.
pub const TRACE_HEADER: &str = "topktrace v1";

/// One entry of a [`TraceOp::Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchItem {
    /// Insert this point as part of the batch.
    Insert(Point),
    /// Delete this point as part of the batch (a miss is legal and counted,
    /// exactly as in [`topk_core::UpdateBatch`]).
    Delete(Point),
}

/// One operation of a trace: the serializable union of everything a serving
/// topology can be asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Insert a point.
    Insert(Point),
    /// Delete a point (exact match).
    Delete(Point),
    /// Apply these items as one atomic [`topk_core::UpdateBatch`].
    Batch(Vec<BatchItem>),
    /// Eager top-`k` query over `[x1, x2]`.
    Query {
        /// Lower end of the range.
        x1: u64,
        /// Upper end of the range.
        x2: u64,
        /// Number of results requested.
        k: usize,
    },
    /// Open (or replace) cursor `id` over `[x1, x2]` with pages of `page`
    /// points; `strict` selects [`topk_core::Consistency::Strict`].
    CursorOpen {
        /// Cursor slot this session occupies (reused slots replace).
        id: u32,
        /// Lower end of the range.
        x1: u64,
        /// Upper end of the range.
        x2: u64,
        /// Total number of results the cursor may emit.
        k: usize,
        /// Page size of each fetch round.
        page: usize,
        /// Whether the cursor pins a strict snapshot.
        strict: bool,
    },
    /// Fetch the next page of cursor `id`.
    CursorNext {
        /// The cursor slot.
        id: u32,
    },
    /// Cut cursor `id`'s resume token, round-trip it through its wire
    /// string, drop the cursor, and reopen it from the parsed token.
    CursorResume {
        /// The cursor slot.
        id: u32,
    },
    /// Ask the topology to repartition now
    /// ([`topk_core::ShardedTopK::rebalance_now`]).
    RebalanceHint,
}

impl fmt::Display for BatchItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchItem::Insert(p) => write!(f, "ins {} {}", p.x, p.score),
            BatchItem::Delete(p) => write!(f, "del {} {}", p.x, p.score),
        }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::Insert(p) => write!(f, "ins {} {}", p.x, p.score),
            TraceOp::Delete(p) => write!(f, "del {} {}", p.x, p.score),
            TraceOp::Batch(items) => {
                write!(f, "batch ")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ; ")?;
                    }
                    write!(f, "{item}")?;
                }
                Ok(())
            }
            TraceOp::Query { x1, x2, k } => write!(f, "query {x1} {x2} {k}"),
            TraceOp::CursorOpen {
                id,
                x1,
                x2,
                k,
                page,
                strict,
            } => write!(
                f,
                "open {id} {x1} {x2} {k} {page} {}",
                if *strict { "strict" } else { "perround" }
            ),
            TraceOp::CursorNext { id } => write!(f, "next {id}"),
            TraceOp::CursorResume { id } => write!(f, "resume {id}"),
            TraceOp::RebalanceHint => write!(f, "rebalance"),
        }
    }
}

/// Why a trace (or one of its lines) failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace parse error: {}", self.message)
        } else {
            write!(
                f,
                "trace parse error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for TraceParseError {}

fn parse_point(words: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<Point, String> {
    let x = words
        .next()
        .ok_or_else(|| format!("{what}: missing x"))?
        .parse::<u64>()
        .map_err(|e| format!("{what}: bad x ({e})"))?;
    let score = words
        .next()
        .ok_or_else(|| format!("{what}: missing score"))?
        .parse::<u64>()
        .map_err(|e| format!("{what}: bad score ({e})"))?;
    Ok(Point::new(x, score))
}

fn parse_num<T: FromStr>(words: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    words
        .next()
        .ok_or_else(|| format!("missing {what}"))?
        .parse::<T>()
        .map_err(|e| format!("bad {what} ({e})"))
}

fn expect_end(words: &mut std::str::SplitWhitespace<'_>) -> Result<(), String> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected trailing token '{extra}'")),
    }
}

impl FromStr for TraceOp {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, String> {
        let mut words = line.split_whitespace();
        let verb = words.next().ok_or("empty op line")?;
        let op = match verb {
            "ins" => TraceOp::Insert(parse_point(&mut words, "ins")?),
            "del" => TraceOp::Delete(parse_point(&mut words, "del")?),
            "batch" => {
                let rest = line.trim_start().strip_prefix("batch").unwrap_or("");
                let mut items = Vec::new();
                for part in rest.split(';') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let mut iw = part.split_whitespace();
                    let item = match iw.next() {
                        Some("ins") => BatchItem::Insert(parse_point(&mut iw, "batch ins")?),
                        Some("del") => BatchItem::Delete(parse_point(&mut iw, "batch del")?),
                        other => return Err(format!("batch item must be ins/del, got {other:?}")),
                    };
                    expect_end(&mut iw)?;
                    items.push(item);
                }
                if items.is_empty() {
                    return Err("batch with no items".to_string());
                }
                return Ok(TraceOp::Batch(items));
            }
            "query" => TraceOp::Query {
                x1: parse_num(&mut words, "x1")?,
                x2: parse_num(&mut words, "x2")?,
                k: parse_num(&mut words, "k")?,
            },
            "open" => TraceOp::CursorOpen {
                id: parse_num(&mut words, "cursor id")?,
                x1: parse_num(&mut words, "x1")?,
                x2: parse_num(&mut words, "x2")?,
                k: parse_num(&mut words, "k")?,
                page: parse_num(&mut words, "page")?,
                strict: match words.next() {
                    Some("strict") => true,
                    Some("perround") | None => false,
                    Some(other) => {
                        return Err(format!(
                            "consistency must be strict/perround, got '{other}'"
                        ))
                    }
                },
            },
            "next" => TraceOp::CursorNext {
                id: parse_num(&mut words, "cursor id")?,
            },
            "resume" => TraceOp::CursorResume {
                id: parse_num(&mut words, "cursor id")?,
            },
            "rebalance" => TraceOp::RebalanceHint,
            other => return Err(format!("unknown op '{other}'")),
        };
        expect_end(&mut words)?;
        Ok(op)
    }
}

/// A replayable operation sequence. See the module docs for the text
/// format; [`mod@crate::replay`] for the execution semantics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The operations, replayed in order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// A trace over the given operations.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        Self { ops }
    }

    /// Number of operations (batch contents count as one op).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parse a `.trace` file from disk.
    pub fn load(path: &Path) -> Result<Self, TraceParseError> {
        let text = std::fs::read_to_string(path).map_err(|e| TraceParseError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        text.parse()
    }

    /// Write the trace to disk in its text format (creating parent
    /// directories as needed).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_string())
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{TRACE_HEADER}")?;
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

impl FromStr for Trace {
    type Err = TraceParseError;

    fn from_str(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let header = loop {
            match lines.next() {
                None => {
                    return Err(TraceParseError {
                        line: 0,
                        message: "empty file (expected a 'topktrace v1' header)".into(),
                    })
                }
                Some((_, l)) if l.trim().is_empty() || l.trim_start().starts_with('#') => continue,
                Some((n, l)) => break (n + 1, l.trim()),
            }
        };
        if header.1 != TRACE_HEADER {
            return Err(TraceParseError {
                line: header.0,
                message: format!("bad header '{}' (expected '{TRACE_HEADER}')", header.1),
            });
        }
        let mut ops = Vec::new();
        for (n, raw) in lines {
            // Strip trailing comments, then whole-line comments and blanks.
            let line = match raw.split_once('#') {
                Some((before, _)) => before,
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            ops.push(line.parse::<TraceOp>().map_err(|message| TraceParseError {
                line: n + 1,
                message,
            })?);
        }
        Ok(Trace { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            TraceOp::Insert(Point::new(17, 4200)),
            TraceOp::Batch(vec![
                BatchItem::Insert(Point::new(1, 10)),
                BatchItem::Insert(Point::new(2, 20)),
                BatchItem::Delete(Point::new(1, 10)),
            ]),
            TraceOp::Query {
                x1: 0,
                x2: 1000,
                k: 5,
            },
            TraceOp::CursorOpen {
                id: 0,
                x1: 0,
                x2: u64::MAX,
                k: 50,
                page: 10,
                strict: false,
            },
            TraceOp::CursorNext { id: 0 },
            TraceOp::CursorResume { id: 0 },
            TraceOp::CursorOpen {
                id: 1,
                x1: 5,
                x2: 6,
                k: 3,
                page: 1,
                strict: true,
            },
            TraceOp::RebalanceHint,
            TraceOp::Delete(Point::new(17, 4200)),
        ])
    }

    #[test]
    fn traces_round_trip_through_their_text_format() {
        let trace = sample();
        let text = trace.to_string();
        assert!(text.starts_with(TRACE_HEADER));
        let back: Trace = text.parse().unwrap();
        assert_eq!(back, trace);
        // And a second round trip is byte-identical (the format is canonical).
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn comments_blanks_and_trailing_comments_are_ignored() {
        let text = "\n# leading comment\ntopktrace v1\n\nins 1 2  # trailing\n# whole line\n  query 0 9 3\n";
        let trace: Trace = text.parse().unwrap();
        assert_eq!(
            trace.ops,
            vec![
                TraceOp::Insert(Point::new(1, 2)),
                TraceOp::Query { x1: 0, x2: 9, k: 3 },
            ]
        );
    }

    #[test]
    fn parse_errors_carry_the_line_number() {
        let err = "topktrace v1\nins 1 2\nwat 3\n"
            .parse::<Trace>()
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("wat"));
        let err = "topktrace v2\n".parse::<Trace>().unwrap_err();
        assert!(err.message.contains("header"));
        let err = "topktrace v1\nins 1\n".parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 2);
        let err = "topktrace v1\nbatch\n".parse::<Trace>().unwrap_err();
        assert!(err.message.contains("no items"));
        let err = "topktrace v1\nquery 1 2 3 4\n"
            .parse::<Trace>()
            .unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = "topktrace v1\nopen 0 1 2 3 4 sloppy\n"
            .parse::<Trace>()
            .unwrap_err();
        assert!(err.message.contains("consistency"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("topk-testkit-trace-test");
        let path = dir.join("sample.trace");
        let trace = sample();
        trace.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }
}
