//! Automatic trace shrinking: from a failing replay to a minimal `.trace`.
//!
//! [`shrink`] is delta debugging (ddmin) over the op list, plus an
//! item-level pass over batch contents: it repeatedly deletes chunks of the
//! trace and keeps any candidate that still diverges, until no single op
//! (or batch item) can be removed. Because the replayer skips invalid ops
//! deterministically, **every subsequence of a trace is a valid trace**, so
//! the search needs no repair step.
//!
//! [`replay_or_shrink`] is the harness entry point: replay, and on
//! divergence shrink, write the minimal trace to `target/repro/<name>.trace`,
//! and panic with the divergence plus the one-line replay command — the
//! same ergonomics as a `TOPK_SEED` repro line, but pointing at a file that
//! is already minimal.

use std::path::{Path, PathBuf};

use crate::replay::{replay, Divergence};
use crate::topology::Topology;
use crate::trace::{Trace, TraceOp};

/// Upper bound on replays one shrink is allowed (a backstop; generated
/// traces shrink in far fewer).
const MAX_SHRINK_REPLAYS: usize = 4000;

/// The result of shrinking a failing trace.
#[derive(Debug)]
pub struct ShrinkReport {
    /// The minimal failing trace.
    pub trace: Trace,
    /// The divergence the minimal trace still produces.
    pub divergence: Divergence,
    /// Where the minimal trace was written (under `target/repro/`).
    pub path: PathBuf,
    /// The one-line replay command.
    pub repro: String,
    /// Replays the search spent.
    pub replays: usize,
}

fn fails(trace: &Trace, topology: Topology, budget: &mut usize) -> Option<Divergence> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    replay(trace, topology).err()
}

fn without_ops(trace: &Trace, start: usize, len: usize) -> Trace {
    let mut ops = Vec::with_capacity(trace.ops.len().saturating_sub(len));
    ops.extend_from_slice(&trace.ops[..start]);
    ops.extend_from_slice(&trace.ops[(start + len).min(trace.ops.len())..]);
    Trace::new(ops)
}

/// ddmin over the op list: returns the smallest failing trace found and the
/// divergence it produces. `budget` caps total replays.
fn ddmin_ops(
    mut current: Trace,
    mut divergence: Divergence,
    topology: Topology,
    budget: &mut usize,
) -> (Trace, Divergence) {
    let mut chunk = current.ops.len().div_ceil(2).max(1);
    while !current.ops.is_empty() {
        let mut progress = false;
        let mut start = 0;
        while start < current.ops.len() {
            let len = chunk.min(current.ops.len() - start);
            let candidate = without_ops(&current, start, len);
            if let Some(d) = fails(&candidate, topology, budget) {
                current = candidate;
                divergence = d;
                progress = true;
                // Retry the same start: the next chunk slid into place.
            } else {
                start += len;
            }
            if *budget == 0 {
                return (current, divergence);
            }
        }
        if !progress {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    (current, divergence)
}

/// One pass of batch-item minimization: try dropping each item of each
/// remaining batch.
fn shrink_batch_items(
    mut current: Trace,
    mut divergence: Divergence,
    topology: Topology,
    budget: &mut usize,
) -> (Trace, Divergence) {
    let mut op_idx = 0;
    while op_idx < current.ops.len() {
        if let TraceOp::Batch(items) = &current.ops[op_idx] {
            let mut items = items.clone();
            let mut item_idx = 0;
            while item_idx < items.len() {
                let mut fewer = items.clone();
                fewer.remove(item_idx);
                let mut candidate = current.clone();
                if fewer.is_empty() {
                    candidate.ops.remove(op_idx);
                } else {
                    candidate.ops[op_idx] = TraceOp::Batch(fewer.clone());
                }
                if let Some(d) = fails(&candidate, topology, budget) {
                    divergence = d;
                    if fewer.is_empty() {
                        current = candidate;
                        items.clear();
                        break;
                    }
                    current = candidate;
                    items = fewer;
                } else {
                    item_idx += 1;
                }
                if *budget == 0 {
                    return (current, divergence);
                }
            }
        }
        op_idx += 1;
    }
    (current, divergence)
}

thread_local! {
    /// Whether this thread is inside a shrink search (candidate-replay
    /// panics are expected and should not print).
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install — once per process — a panic hook that delegates to the
/// previous hook except on threads currently inside a shrink search.
/// Thread-scoped by design: parallel tests in the same binary keep their
/// panic messages (a process-global silent hook would swallow them).
fn install_filtering_panic_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|quiet| quiet.get()) {
                previous(info);
            }
        }));
    });
}

/// Resets the quiet flag even when an assertion unwinds out of the search.
struct QuietGuard;

impl QuietGuard {
    fn engage() -> Self {
        install_filtering_panic_hook();
        QUIET_PANICS.with(|quiet| quiet.set(true));
        QuietGuard
    }
}

impl Drop for QuietGuard {
    fn drop(&mut self) {
        QUIET_PANICS.with(|quiet| quiet.set(false));
    }
}

/// Shrink `trace` (which must diverge on `topology`) to a locally minimal
/// failing trace. Returns `None` if the trace does not actually fail.
///
/// Panicking replays are divergences too (the replayer catches them), so
/// the search silences panic output *on this thread* for its duration —
/// thousands of expected candidate panics would otherwise bury the real
/// report, while unrelated tests on other threads keep theirs.
pub fn shrink(trace: &Trace, topology: Topology) -> Option<(Trace, Divergence, usize)> {
    let mut budget = MAX_SHRINK_REPLAYS;
    let _quiet = QuietGuard::engage();
    let divergence = fails(trace, topology, &mut budget)?;
    let (current, divergence) = ddmin_ops(trace.clone(), divergence, topology, &mut budget);
    let (current, divergence) = shrink_batch_items(current, divergence, topology, &mut budget);
    // ddmin once more at single-op granularity in case item removal opened
    // further op removals.
    let (current, divergence) = ddmin_ops(current, divergence, topology, &mut budget);
    Some((current, divergence, MAX_SHRINK_REPLAYS - budget))
}

/// The directory shrunk repro traces are written to: `target/repro/` under
/// the workspace root (found by walking up from the current directory to
/// the first `Cargo.lock`; falls back to `./target/repro`).
pub fn repro_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("repro");
        }
        if !dir.pop() {
            return Path::new("target").join("repro");
        }
    }
}

/// Shrink a failing trace and persist the minimal repro:
/// `target/repro/<name>.trace`, plus the one-line replay command.
pub fn shrink_to_file(trace: &Trace, topology: Topology, name: &str) -> Option<ShrinkReport> {
    let (minimal, divergence, replays) = shrink(trace, topology)?;
    let path = repro_dir().join(format!("{name}.trace"));
    minimal
        .save(&path)
        .unwrap_or_else(|e| panic!("cannot write repro trace {}: {e}", path.display()));
    let repro = format!(
        "repro: cargo run -p topk-testkit --example replay -- {} {topology}",
        path.display()
    );
    Some(ShrinkReport {
        trace: minimal,
        divergence,
        path,
        repro,
        replays,
    })
}

/// The harness entry point: replay `trace` against `topology`; on
/// divergence, shrink to `target/repro/<name>.trace` and panic with the
/// minimal divergence, the repro command and the caller's `context` (seed,
/// distribution, repro line — whatever identifies the case).
pub fn replay_or_shrink(trace: &Trace, topology: Topology, name: &str, context: &str) {
    if replay(trace, topology).is_ok() {
        return;
    }
    match shrink_to_file(trace, topology, name) {
        Some(report) => panic!(
            "{}\n  minimal trace: {} ops at {}\n  {}\n  {context}",
            report.divergence,
            report.trace.len(),
            report.path.display(),
            report.repro,
        ),
        None => {
            // The failure did not reproduce on the second replay — a flaky
            // divergence is itself a bug worth failing loudly on.
            panic!("replay diverged once but not when shrinking; {context}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BatchItem;
    use epst::Point;

    /// A trace that "fails" iff it still contains the poison query — stand
    /// in for a real divergence so the ddmin mechanics are testable without
    /// a buggy engine.
    fn poisoned(n_ops: usize) -> Trace {
        let mut ops: Vec<TraceOp> = (0..n_ops as u64)
            .map(|i| TraceOp::Insert(Point::new(i * 3 + 1, i * 7 + 5)))
            .collect();
        ops.insert(
            n_ops / 2,
            TraceOp::Batch(vec![
                BatchItem::Insert(Point::new(900_001, 900_001)),
                BatchItem::Insert(Point::new(900_004, 900_004)),
            ]),
        );
        Trace::new(ops)
    }

    #[test]
    fn ddmin_reduces_to_the_poison() {
        // Use a synthetic failure predicate by driving ddmin directly.
        let trace = poisoned(40);
        let poison = TraceOp::Batch(vec![
            BatchItem::Insert(Point::new(900_001, 900_001)),
            BatchItem::Insert(Point::new(900_004, 900_004)),
        ]);
        // Emulate the search loop with the same chunk scheduling as
        // ddmin_ops but a synthetic predicate.
        let mut current = trace;
        let mut chunk = current.ops.len().div_ceil(2).max(1);
        let still_fails = |t: &Trace| t.ops.contains(&poison);
        while !current.ops.is_empty() {
            let mut progress = false;
            let mut start = 0;
            while start < current.ops.len() {
                let len = chunk.min(current.ops.len() - start);
                let candidate = without_ops(&current, start, len);
                if still_fails(&candidate) {
                    current = candidate;
                    progress = true;
                } else {
                    start += len;
                }
            }
            if !progress {
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
        }
        assert_eq!(current.ops, vec![poison]);
    }

    #[test]
    fn shrink_returns_none_for_a_passing_trace() {
        let trace = Trace::new(vec![
            TraceOp::Insert(Point::new(1, 10)),
            TraceOp::Query { x1: 0, x2: 5, k: 1 },
        ]);
        assert!(shrink(&trace, Topology(1)).is_none());
    }

    #[test]
    fn repro_dir_is_under_a_target_directory() {
        let dir = repro_dir();
        assert!(dir.ends_with(Path::new("target").join("repro")), "{dir:?}");
    }
}
