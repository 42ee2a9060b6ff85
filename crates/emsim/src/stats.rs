//! I/O accounting.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One counter on its own cache line. Packed `AtomicU64`s would share lines,
/// so two threads bumping logically unrelated counters would ping-pong the
/// same line between cores (false sharing). 64 bytes covers the
/// destructive-interference granularity of x86-64 and most aarch64 cores.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedCounter(AtomicU64);

impl std::ops::Deref for PaddedCounter {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// Number of counter stripes. A power of two so the thread-stripe assignment
/// can mask; 16 stripes keep collisions rare at the core counts the simulator
/// is benchmarked on, while a fold over them stays trivially cheap.
const STAT_STRIPES: usize = 16;

/// One stripe's worth of counters. All six live on the *same* cache line on
/// purpose: a stripe is written by (essentially) one thread, and an access
/// that misses bumps `logical`, `reads` and possibly `writes` back to back —
/// keeping them on one private line turns that into one line acquisition
/// instead of three. Padding to 64 bytes keeps adjacent stripes (written by
/// *different* threads) off each other's lines.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StatStripe {
    reads: AtomicU64,
    writes: AtomicU64,
    logical: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
    capacity_violations: AtomicU64,
}

/// Round-robin stripe assignment: each thread picks a stripe once, the first
/// time it touches any device's stats, and keeps it for life. Round-robin
/// (rather than hashing the thread id) guarantees that up to `STAT_STRIPES`
/// concurrent threads never share a stripe.
fn stripe_index() -> usize {
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STAT_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// The device-internal, thread-safe form of the counters, striped per thread.
///
/// Increments are `Relaxed` read-modify-writes on the calling thread's own
/// cache-line-padded [`StatStripe`], so they are never lost (the exactness
/// property the concurrent tests assert) and — unlike the PR 6 layout of one
/// shared padded atomic per counter — hot counters are not a single line that
/// every reader thread's RMW must bounce through. [`AtomicIoStats::snapshot`]
/// folds the stripes; snapshots taken while other threads are mid-operation
/// may mix adjacent operations, which is inherent to any monitoring read and
/// harmless for the EM cost accounting.
#[derive(Debug)]
pub(crate) struct AtomicIoStats {
    stripes: [StatStripe; STAT_STRIPES],
}

impl Default for AtomicIoStats {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| StatStripe::default()),
        }
    }
}

impl AtomicIoStats {
    fn stripe(&self) -> &StatStripe {
        self.stripes
            .get(stripe_index())
            .expect("stripe_index is reduced modulo the stripe count")
    }

    /// Account one logical access and its physical consequences.
    pub(crate) fn record_access(&self, miss: bool, wrote_back: bool) {
        let stripe = self.stripe();
        stripe.logical.fetch_add(1, Ordering::Relaxed);
        if miss {
            stripe.reads.fetch_add(1, Ordering::Relaxed);
        }
        if wrote_back {
            stripe.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account `n` physical writes (flushes, cache drops).
    pub(crate) fn add_writes(&self, n: u64) {
        if n > 0 {
            self.stripe().writes.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_alloc(&self) {
        self.stripe().allocs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_free(&self) {
        self.stripe().frees.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_capacity_violation(&self) {
        self.stripe()
            .capacity_violations
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> IoStats {
        let mut out = IoStats::default();
        for stripe in &self.stripes {
            out.reads += stripe.reads.load(Ordering::Relaxed);
            out.writes += stripe.writes.load(Ordering::Relaxed);
            out.logical += stripe.logical.load(Ordering::Relaxed);
            out.allocs += stripe.allocs.load(Ordering::Relaxed);
            out.frees += stripe.frees.load(Ordering::Relaxed);
            out.capacity_violations += stripe.capacity_violations.load(Ordering::Relaxed);
        }
        out
    }

    pub(crate) fn reset(&self) {
        for stripe in &self.stripes {
            stripe.reads.store(0, Ordering::Relaxed);
            stripe.writes.store(0, Ordering::Relaxed);
            stripe.logical.store(0, Ordering::Relaxed);
            stripe.allocs.store(0, Ordering::Relaxed);
            stripe.frees.store(0, Ordering::Relaxed);
            stripe.capacity_violations.store(0, Ordering::Relaxed);
        }
    }
}

/// Running I/O counters of a [`Device`](crate::Device).
///
/// `reads` and `writes` are *physical* block transfers (buffer-pool misses and
/// dirty evictions / flushes). `logical` counts every page access regardless of
/// whether it hit the pool; it is useful to sanity-check that the pool is in fact
/// absorbing repeated accesses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Physical block reads (pool misses).
    pub reads: u64,
    /// Physical block writes (dirty evictions and explicit flushes).
    pub writes: u64,
    /// Logical page accesses (hits + misses).
    pub logical: u64,
    /// Pages allocated over the device lifetime.
    pub allocs: u64,
    /// Pages freed over the device lifetime.
    pub frees: u64,
    /// Number of times a page exceeded the block capacity `B` when written.
    /// Any non-zero value indicates a layout bug in a data structure.
    pub capacity_violations: u64,
}

impl IoStats {
    /// Total physical I/Os (`reads + writes`).
    pub fn total_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of logical accesses served from the buffer pool, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.logical == 0 {
            return 1.0;
        }
        1.0 - (self.reads as f64 / self.logical as f64)
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} total={} logical={} hit_rate={:.3}",
            self.reads,
            self.writes,
            self.total_ios(),
            self.logical,
            self.hit_rate()
        )
    }
}

/// Counters of a durable index's journal (`topk-core`'s `persist.rs`),
/// kept on the device it serves from so that callers holding only the
/// device can read them; all zero when nothing durable runs on the device.
/// The simulator never touches them: the journal adds its own work with
/// [`Device::add_durable`](crate::Device::add_durable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Bytes appended to `journal.topk` (commit frames; snapshots are not
    /// counted).
    pub wal_bytes: u64,
    /// Commit frames appended and synced, one per committing operation.
    pub commits: u64,
    /// Compactions: snapshots written and renamed into place, each followed
    /// by a journal truncation.
    pub checkpoints: u64,
    /// Whole-file reads of the snapshot and the journal, at open only.
    pub preads: u64,
    /// Positioned writes: one per commit frame, one per snapshot.
    pub pwrites: u64,
    /// Records recovered at open: snapshot points plus replayed journal
    /// records.
    pub recovered_pages: u64,
}

impl DurableStats {
    pub(crate) fn add(&mut self, d: &DurableStats) {
        self.wal_bytes += d.wal_bytes;
        self.commits += d.commits;
        self.checkpoints += d.checkpoints;
        self.preads += d.preads;
        self.pwrites += d.pwrites;
        self.recovered_pages += d.recovered_pages;
    }
}

/// A point-in-time copy of the counters, used to measure a single operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot(pub IoStats);

/// The difference between two snapshots: the I/O cost of the work done in
/// between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoDelta {
    /// Physical reads performed.
    pub reads: u64,
    /// Physical writes performed.
    pub writes: u64,
    /// Logical accesses performed.
    pub logical: u64,
}

impl IoDelta {
    /// Total physical I/Os in the interval.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Element-wise sum, useful when aggregating per-operation costs.
    pub fn add(&self, other: &IoDelta) -> IoDelta {
        IoDelta {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            logical: self.logical + other.logical,
        }
    }
}

impl IoSnapshot {
    /// I/Os performed since this snapshot was taken, given the current stats.
    pub fn delta(&self, now: &IoStats) -> IoDelta {
        IoDelta {
            reads: now.reads.saturating_sub(self.0.reads),
            writes: now.writes.saturating_sub(self.0.writes),
            logical: now.logical.saturating_sub(self.0.logical),
        }
    }
}

impl fmt::Display for IoDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} total={}",
            self.reads,
            self.writes,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_occupy_disjoint_cache_lines() {
        assert!(std::mem::align_of::<PaddedCounter>() >= 64);
        assert!(std::mem::size_of::<PaddedCounter>() >= 64);
        // Each stripe is written by one thread and sits on its own line.
        assert!(std::mem::align_of::<StatStripe>() >= 64);
        assert!(std::mem::size_of::<StatStripe>() >= 64);
        assert!(std::mem::size_of::<AtomicIoStats>() >= STAT_STRIPES * 64);
    }

    #[test]
    fn striped_increments_fold_exactly() {
        let stats = AtomicIoStats::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let stats = &stats;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        stats.record_access(i % 4 == 0, i % 16 == 0);
                        if i % 10 == 0 {
                            stats.add_alloc();
                        }
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.logical, 8_000);
        assert_eq!(s.reads, 8 * 250);
        assert_eq!(s.writes, 8 * 63); // i % 16 == 0 for 63 of 0..1000
        assert_eq!(s.allocs, 8 * 100);
        stats.reset();
        assert_eq!(stats.snapshot(), IoStats::default());
    }

    #[test]
    fn delta_subtracts() {
        let before = IoSnapshot(IoStats {
            reads: 10,
            writes: 5,
            logical: 100,
            ..Default::default()
        });
        let now = IoStats {
            reads: 14,
            writes: 6,
            logical: 120,
            ..Default::default()
        };
        let d = before.delta(&now);
        assert_eq!(d.reads, 4);
        assert_eq!(d.writes, 1);
        assert_eq!(d.logical, 20);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut s = IoStats::default();
        assert_eq!(s.hit_rate(), 1.0);
        s.logical = 10;
        s.reads = 10;
        assert_eq!(s.hit_rate(), 0.0);
        s.reads = 5;
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_add() {
        let a = IoDelta {
            reads: 1,
            writes: 2,
            logical: 3,
        };
        let b = IoDelta {
            reads: 10,
            writes: 20,
            logical: 30,
        };
        let c = a.add(&b);
        assert_eq!(c.reads, 11);
        assert_eq!(c.writes, 22);
        assert_eq!(c.logical, 33);
    }
}
