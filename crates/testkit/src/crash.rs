//! Crash-recovery topology: a seeded write stream against a durable index
//! on a [`CrashFs`], then a crash at every boundary between two logged
//! calls under every [`Policy`], a reopen of each crash state, and a
//! differential check of what it recovered.
//!
//! The check is the guarantee of DESIGN.md §10 made executable. Reopening a
//! crash state must recover a stamp `S_rec` with
//!
//! ```text
//! S_lastOk  <=  S_rec  <=  S_wedged
//! ```
//!
//! where `S_lastOk` is the stamp of the last operation whose call returned
//! before the crash and `S_wedged` the stamp the operation in flight would
//! have reached: **no acknowledged operation lost, no operation resurrected
//! that never started**. Two more rules pin the commit point: once the
//! operation in flight passed it (its frame's `fdatasync`, or the directory
//! sync after its snapshot's rename) recovery lands on `S_wedged`; before
//! it, a crash that loses every unsynced call lands on `S_lastOk`. The
//! recovered index is then compared with [`baselines::NaiveTopK`] replayed
//! to `S_rec`: point set, length and a few queries.
//!
//! A failing case is fully described by its [`CrashSpec`], boundary and
//! policy, which the panic message prints.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use baselines::NaiveTopK;
use emsim::{Device, EmConfig};
use epst::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::{TopKConfig, TopKError, TopKIndex, UpdateBatch, UpdateOp};
use workload::{PointDistribution, PointGen};

use crate::crashfs::{CrashFs, Files, Policy, Syscall};
use crate::trace::{BatchItem, TraceOp};

/// Everything that determines one crash-recovery run.
#[derive(Debug, Clone, Copy)]
pub struct CrashSpec {
    /// Coordinate/score distribution of the point universe.
    pub distribution: PointDistribution,
    /// The seed (op mix, point universe and seeded policies derive from it).
    pub seed: u64,
    /// Write operations generated for the run, the preload batch included.
    pub ops: usize,
}

impl CrashSpec {
    /// The harness default: 96 uniform write operations.
    pub fn new(seed: u64) -> Self {
        Self {
            distribution: PointDistribution::Uniform,
            seed,
            ops: 96,
        }
    }
}

/// What reopening one crash state recovered, and the window it was held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Logged calls before the crash.
    pub boundary: usize,
    /// What the crash kept of the unsynced calls.
    pub policy: Policy,
    /// The operation in flight (index into the op stream), if any.
    pub in_flight: Option<usize>,
    /// Whether that operation is a batch.
    pub batch: bool,
    /// Whether it had passed its commit point.
    pub past_commit_point: bool,
    /// `S_lastOk`.
    pub last_ok: u64,
    /// `S_wedged`.
    pub wedged: u64,
    /// `S_rec`.
    pub recovered: u64,
}

/// What one [`crash_recovery_check`] run observed. Every outcome already
/// passed the checks; the fields let tests assert the run's shape.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Calls the run logged, opening the index included.
    pub syscalls: usize,
    /// One entry per boundary and policy.
    pub outcomes: Vec<Outcome>,
    /// Distinct crash states reopened.
    pub states: usize,
    /// Stamp after the last operation.
    pub final_stamp: u64,
}

/// A fresh scratch directory under the system temp dir, unique per process
/// and per call. The caller owns cleanup.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("topk-crash-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Points the stream's first operation, one batch, inserts.
const PRELOAD: usize = 40;

/// The deterministic write stream of `spec`: one batch of 40 inserts,
/// then inserts of fresh points, deletes of live points and, one
/// op in four, a batch of two to four of them. A batch of at least a
/// sixteenth of the live set commits as a rebuild, which compacts the
/// journal; a smaller one is one multi-record frame.
pub fn write_ops(spec: &CrashSpec) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut fresh = PointGen {
        distribution: spec.distribution,
        seed: spec.seed ^ 0x9E37_79B9,
    }
    .generate(PRELOAD + 3 * spec.ops)
    .into_iter();
    let mut live: Vec<Point> = fresh.by_ref().take(PRELOAD).collect();
    let mut ops = vec![TraceOp::Batch(
        live.iter().map(|&p| BatchItem::Insert(p)).collect(),
    )];
    let mut one = |rng: &mut StdRng, live: &mut Vec<Point>| match fresh.next() {
        Some(p) if live.len() < 2 || rng.gen_bool(0.65) => {
            live.push(p);
            BatchItem::Insert(p)
        }
        _ => BatchItem::Delete(live.swap_remove(rng.gen_range(0..live.len()))),
    };
    while ops.len() < spec.ops {
        ops.push(if live.len() > 4 && rng.gen_bool(0.25) {
            let n = rng.gen_range(2..=4);
            TraceOp::Batch((0..n).map(|_| one(&mut rng, &mut live)).collect())
        } else {
            match one(&mut rng, &mut live) {
                BatchItem::Insert(p) => TraceOp::Insert(p),
                BatchItem::Delete(p) => TraceOp::Delete(p),
            }
        });
    }
    ops
}

/// Open a durable index over `fs`, as recovery after a crash does.
pub fn open_on(fs: &CrashFs) -> Result<TopKIndex, TopKError> {
    let device = Device::new(EmConfig::new(64, 64 * 64));
    TopKIndex::open_durable(Arc::new(fs.clone()), &device, TopKConfig::for_tests())
}

fn apply(index: &TopKIndex, op: &TraceOp) -> Result<(), TopKError> {
    match op {
        TraceOp::Insert(p) => index.insert(*p),
        TraceOp::Delete(p) => index.delete(*p).map(|_| ()),
        TraceOp::Batch(items) => {
            let batch = UpdateBatch::from_ops(items.iter().map(|item| match *item {
                BatchItem::Insert(p) => UpdateOp::Insert(p),
                BatchItem::Delete(p) => UpdateOp::Delete(p),
            }));
            index.apply(&batch).map(|_| ())
        }
        other => panic!("the crash stream holds writes only, got {other}"),
    }
}

/// Call `visit` with every crash state of `fs`'s log: each boundary
/// `0..=log_len` under each [`Policy`], seeded by `seed`.
fn for_each_crash_state(fs: &CrashFs, seed: u64, mut visit: impl FnMut(usize, Policy, Files)) {
    for boundary in 0..=fs.log_len() {
        for policy in Policy::ALL {
            visit(boundary, policy, fs.crash_state(boundary, policy, seed));
        }
    }
}

/// The index of the call after which an operation spanning `calls` is
/// durable under every policy: its frame's `fdatasync`, or the directory
/// sync after its snapshot's rename.
fn commit_point(calls: &[Syscall]) -> Option<usize> {
    let (mut wrote, mut renamed) = (false, false);
    calls.iter().position(|call| match call {
        Syscall::Write { name, .. } if name == "journal.topk" => {
            wrote = true;
            false
        }
        Syscall::Rename { to, .. } if to == "snapshot.topk" => {
            renamed = true;
            false
        }
        Syscall::Fdatasync { name, .. } => wrote && name == "journal.topk",
        Syscall::SyncDir => renamed,
        _ => false,
    })
}

/// What reopening one crash state gave: the stamp, the sorted points and
/// the answers to the run's probe queries.
type Recovery = (u64, Vec<Point>, Vec<Vec<Point>>);

/// Run `spec`'s stream on a [`CrashFs`], then reopen the state of a crash
/// at every boundary under every policy and check each recovery (module
/// docs). Panics with the spec, boundary and policy on any violation.
pub fn crash_recovery_check(spec: &CrashSpec) -> CrashReport {
    let ops = write_ops(spec);
    let fs = CrashFs::default();
    let index = open_on(&fs).expect("a fresh medium opens");
    // Per op: the calls it logged (`start..end`) and its post-op stamp.
    let mut spans = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let start = fs.log_len();
        apply(&index, op).unwrap_or_else(|e| panic!("op {i} ({op}) failed on a live medium: {e}"));
        spans.push((start, fs.log_len(), index.version()));
    }
    let final_stamp = index.version();
    drop(index);
    let log = fs.log();

    let x_max = ops
        .iter()
        .flat_map(|op| match op {
            TraceOp::Batch(items) => items
                .iter()
                .map(|i| match *i {
                    BatchItem::Insert(p) | BatchItem::Delete(p) => p.x,
                })
                .max(),
            TraceOp::Insert(p) | TraceOp::Delete(p) => Some(p.x),
            _ => None,
        })
        .max()
        .unwrap_or(1)
        + 2;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xC4A5_C4A5);
    let probes: Vec<(u64, u64, usize)> = (0..4)
        .map(|_| {
            let a = rng.gen_range(0..x_max);
            (
                a,
                rng.gen_range(a..=x_max),
                [1usize, 3, 16, 64][rng.gen_range(0usize..4)],
            )
        })
        .collect();

    let mut recoveries: HashMap<Files, Recovery> = HashMap::new();
    let mut specs: HashMap<u64, Recovery> = HashMap::new();
    let mut outcomes = Vec::new();
    for_each_crash_state(&fs, spec.seed, |boundary, policy, state| {
        let acked = spans
            .iter()
            .take_while(|&&(_, end, _)| end <= boundary)
            .count();
        let last_ok = acked.checked_sub(1).map_or(0, |j| spans[j].2);
        let in_flight = spans
            .get(acked)
            .filter(|&&(start, _, _)| start < boundary)
            .map(|_| acked);
        let (wedged, past_commit_point) = match in_flight {
            Some(j) => {
                let (start, end, stamp) = spans[j];
                let cp = commit_point(&log[start..end]).map(|k| start + k);
                (stamp, cp.is_some_and(|cp| cp < boundary))
            }
            None => (last_ok, false),
        };
        let here = format!("{spec:?}, crash after {boundary} calls, {policy:?}");
        let (recovered, got, answers) = recoveries
            .entry(state)
            .or_insert_with_key(|state| {
                let index = open_on(&CrashFs::new(state.clone()))
                    .unwrap_or_else(|e| panic!("recovery failed: {e} ({here})"));
                let mut points = index.all_points();
                points.sort_unstable_by_key(|p| p.x);
                let answers = probes
                    .iter()
                    .map(|&(a, b, k)| index.query(a, b, k).expect("recovered query"))
                    .collect();
                (index.recovered_stamp().expect("durable"), points, answers)
            })
            .clone();
        assert!(
            last_ok <= recovered,
            "lost an acknowledged op: recovered stamp {recovered} < {last_ok} ({here})"
        );
        assert!(
            recovered <= wedged,
            "resurrected state: recovered stamp {recovered} > {wedged} ({here})"
        );
        if past_commit_point {
            assert_eq!(recovered, wedged, "lost a committed op ({here})");
        } else if in_flight.is_some() && policy == Policy::DropUnsynced {
            assert_eq!(recovered, last_ok, "kept an unsynced op ({here})");
        }
        let (_, want, want_answers) = specs.entry(recovered).or_insert_with(|| {
            let naive = NaiveTopK::new(&Device::new(EmConfig::new(256, 256 * 128)), "crash-spec");
            for (op, &(_, _, stamp)) in ops.iter().zip(&spans) {
                if stamp > recovered {
                    break;
                }
                let items = match op {
                    TraceOp::Batch(items) => items.clone(),
                    TraceOp::Insert(p) => vec![BatchItem::Insert(*p)],
                    TraceOp::Delete(p) => vec![BatchItem::Delete(*p)],
                    _ => Vec::new(),
                };
                for item in items {
                    match item {
                        BatchItem::Insert(p) => naive.insert(p).expect("spec insert"),
                        BatchItem::Delete(p) => {
                            naive.delete(p).expect("spec delete");
                        }
                    }
                }
            }
            let mut points = naive
                .query(0, u64::MAX, naive.len().max(1) as usize)
                .expect("scan");
            points.sort_unstable_by_key(|p| p.x);
            let answers = probes
                .iter()
                .map(|&(a, b, k)| naive.query(a, b, k).expect("spec query"))
                .collect();
            (recovered, points, answers)
        });
        assert_eq!(
            &got, want,
            "recovered points diverge from the spec at {recovered} ({here})"
        );
        assert_eq!(
            &answers, want_answers,
            "a query diverges after recovery ({here})"
        );
        outcomes.push(Outcome {
            boundary,
            policy,
            in_flight,
            batch: in_flight.is_some_and(|j| matches!(ops[j], TraceOp::Batch(_))),
            past_commit_point,
            last_ok,
            wedged,
            recovered,
        });
    });
    CrashReport {
        syscalls: log.len(),
        outcomes,
        states: recoveries.len(),
        final_stamp,
    }
}

/// Open a directory of the page-image format held in `files`, which
/// converts it, then reopen the state of a crash at every boundary of that
/// conversion under every policy: each must recover `want` at `stamp`.
/// Returns the number of crash states checked.
pub fn conversion_crash_check(files: Files, want: &[Point], stamp: u64) -> usize {
    let mut want = want.to_vec();
    want.sort_unstable_by_key(|p| p.x);
    let check = |fs: &CrashFs, here: &str| {
        let index = open_on(fs).unwrap_or_else(|e| panic!("conversion failed: {e} ({here})"));
        let mut got = index.all_points();
        got.sort_unstable_by_key(|p| p.x);
        assert_eq!(got, want, "converted points ({here})");
        assert_eq!(
            index.recovered_stamp(),
            Some(stamp),
            "converted stamp ({here})"
        );
    };
    let fs = CrashFs::new(files);
    check(&fs, "the conversion itself");
    let converted = fs.files();
    assert!(
        converted.contains_key("snapshot.topk") && !converted.contains_key("meta.topk"),
        "the conversion leaves a snapshot and no page-image files: {:?}",
        converted.keys().collect::<Vec<_>>()
    );
    let mut seen = std::collections::HashSet::new();
    for_each_crash_state(&fs, 0xC0DE, |boundary, policy, state| {
        if seen.insert(state.clone()) {
            check(
                &CrashFs::new(state),
                &format!("crash after {boundary} calls, {policy:?}"),
            );
        }
    });
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_before_wal_fsync_recovers_the_acked_prefix_exactly() {
        let report = crash_recovery_check(&CrashSpec::new(11));
        // A crash that loses every unsynced call, inside an op that has not
        // reached its commit point, recovers the acknowledged prefix.
        let before: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.policy == Policy::DropUnsynced && o.in_flight.is_some())
            .filter(|o| !o.past_commit_point)
            .collect();
        assert!(before.iter().any(|o| o.last_ok < o.wedged));
        assert!(before.iter().all(|o| o.recovered == o.last_ok));
    }

    #[test]
    fn kill_after_wal_fsync_recovers_the_doomed_op_too() {
        let report = crash_recovery_check(&CrashSpec::new(12));
        // An unsynced frame that did reach the disk replays.
        assert!(report
            .outcomes
            .iter()
            .any(|o| o.policy == Policy::KeepUnsynced
                && o.in_flight.is_some()
                && !o.past_commit_point
                && o.recovered == o.wedged
                && o.last_ok < o.wedged));
    }

    #[test]
    fn kill_mid_apply_completes_the_batch_from_the_wal() {
        let report = crash_recovery_check(&CrashSpec::new(13));
        // A batch whose snapshot is durable but whose journal is not yet
        // truncated recovers in full, under every policy.
        let mid: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.batch && o.past_commit_point)
            .collect();
        assert!(
            !mid.is_empty(),
            "no crash landed inside a batch past its commit point"
        );
        assert!(mid.iter().all(|o| o.recovered == o.wedged));
    }

    #[test]
    fn no_kill_means_clean_recovery_of_everything() {
        let mut spec = CrashSpec::new(14);
        spec.ops = 24;
        let report = crash_recovery_check(&spec);
        let last: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.boundary == report.syscalls)
            .collect();
        assert_eq!(last.len(), Policy::ALL.len());
        assert!(last.iter().all(|o| o.recovered == report.final_stamp));
    }

    #[test]
    fn op_streams_are_deterministic_per_seed() {
        let spec = CrashSpec::new(7);
        assert_eq!(write_ops(&spec), write_ops(&spec));
        let other = CrashSpec { seed: 8, ..spec };
        assert_ne!(write_ops(&spec), write_ops(&other));
        assert!(write_ops(&spec)
            .iter()
            .any(|op| matches!(op, TraceOp::Batch(_))));
    }
}
