//! # emsim — an external-memory model simulator
//!
//! This crate implements the cost model of Aggarwal & Vitter's external-memory
//! (EM) model, which is the model every bound in Tao's *"A Dynamic I/O-Efficient
//! Structure for One-Dimensional Top-k Range Reporting"* (PODS 2014) is stated in:
//!
//! * a machine has `M` words of memory and an unbounded disk formatted into blocks
//!   of `B` words;
//! * an I/O transfers one block between disk and memory;
//! * the cost of an algorithm is the number of I/Os it performs — CPU work is free;
//! * the space of a structure is the number of blocks it occupies.
//!
//! Data structures built on top of this crate store their nodes as typed *pages*
//! inside [`BlockFile`]s attached to a shared [`Device`]. Every page access goes
//! through the device's buffer pool of `M/B` frames: an access
//! that misses the pool costs one read I/O, and evicting a dirty frame costs one
//! write I/O. The pool's replacement policy is a [`PoolPolicy`]: address-hashed
//! CLOCK shards by default (so concurrent readers don't serialise on one pool
//! mutex), or a deterministic exact LRU for I/O-cost bound tests. The resulting
//! counters ([`IoStats`]) are exactly the quantity the
//! paper's theorems bound, so experiments can check the claimed `O(log_B n + k/B)`
//! query and `O(log_B n)` amortized update costs directly.
//!
//! Pages are plain Rust values that report their size in words via the [`Page`]
//! trait; a page larger than a block is a bug in the data structure layout and is
//! recorded in [`IoStats::capacity_violations`] (and panics in debug builds).
//!
//! The simulator is a cost model and nothing more: pages live in RAM and
//! nothing survives the process. A durable index keeps its own snapshot and
//! journal beside the device (`topk-core`, DESIGN.md §10) and adds its
//! counters to the device's [`DurableStats`] so callers holding the device
//! can read them.
//!
//! ```
//! use emsim::{Device, EmConfig, Page, BlockFile};
//!
//! struct Node { keys: Vec<u64> }
//! impl Page for Node {
//!     fn words(&self) -> usize { 1 + self.keys.len() }
//! }
//!
//! let dev = Device::new(EmConfig::new(64, 4 * 64));
//! let file: BlockFile<Node> = dev.open_file("btree-nodes");
//! let id = file.alloc(Node { keys: vec![1, 2, 3] });
//! let sum: u64 = file.with(id, |n| n.keys.iter().sum());
//! assert_eq!(sum, 6);
//! assert!(dev.stats().total_ios() >= 1);
//! ```

mod config;
mod device;
mod file;
mod page;
mod pool;
mod stats;

pub use config::{EmConfig, PoolPolicy};
pub use device::{Device, FileId, PageAddr};
pub use file::{BlockFile, PageId};
pub use page::{entries_per_block, entries_words, Page};
pub use stats::{DurableStats, IoDelta, IoSnapshot, IoStats};

/// Number of bytes in a machine word of the EM model as used throughout this
/// reproduction (one word = one `u64`).
pub const WORD_BYTES: usize = 8;

/// Double-checked lookup in a lock-protected directory map: return the value
/// for `key`, creating it with `make` under the write lock if absent.
///
/// The structure crates keep directories (`base node → page id`) behind
/// `RwLock<HashMap<…>>`; this is the one place their get-or-create protocol
/// lives, so racing callers always agree on a single value instead of leaking
/// whatever `make` allocated. `make` runs while the write lock is held.
pub fn dir_get_or_insert<K, V, F>(
    map: &std::sync::RwLock<std::collections::HashMap<K, V>>,
    key: K,
    make: F,
) -> V
where
    K: std::hash::Hash + Eq + Copy,
    V: Copy,
    F: FnOnce() -> V,
{
    if let Some(&v) = map.read().unwrap().get(&key) {
        return v;
    }
    let mut m = map.write().unwrap();
    if let Some(&v) = m.get(&key) {
        return v;
    }
    let v = make();
    m.insert(key, v);
    v
}

/// `ceil(a / b)` for block/word arithmetic; `b` must be non-zero.
#[inline]
pub fn div_ceil(a: usize, b: usize) -> usize {
    debug_assert!(b > 0, "div_ceil by zero");
    a.div_ceil(b)
}

/// `max(1, floor(log_b(x)))` as used by the paper's `lg_b` convention
/// (`lg_b x := max{1, log_b x}`).
pub fn log_b(b: usize, x: usize) -> f64 {
    if b < 2 || x < 2 {
        return 1.0;
    }
    let v = (x as f64).ln() / (b as f64).ln();
    if v < 1.0 {
        1.0
    } else {
        v
    }
}

/// `max(1, floor(log2(x)))`, the paper's `lg x` convention.
pub fn lg(x: usize) -> u32 {
    if x < 2 {
        1
    } else {
        usize::BITS - 1 - x.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_ceil_basics() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
        assert_eq!(div_ceil(8, 4), 2);
    }

    #[test]
    fn lg_follows_paper_convention() {
        // lg x = max{1, log2 x}
        assert_eq!(lg(0), 1);
        assert_eq!(lg(1), 1);
        assert_eq!(lg(2), 1);
        assert_eq!(lg(3), 1);
        assert_eq!(lg(4), 2);
        assert_eq!(lg(1024), 10);
        assert_eq!(lg(1 << 20), 20);
    }

    #[test]
    fn log_b_is_at_least_one() {
        assert!(log_b(1024, 4) >= 1.0);
        assert!((log_b(2, 1024) - 10.0).abs() < 1e-9);
        assert!((log_b(32, 32 * 32) - 2.0).abs() < 1e-9);
    }
}
