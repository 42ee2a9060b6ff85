//! Known-good lock-discipline snippets: declared order, early drops,
//! temporaries, and sanctioned same-class shard nesting. The lock_order
//! pass must stay quiet on all of them.

use std::sync::{Mutex, RwLock};

struct Dev {
    pool: Mutex<u8>,
}

struct Shard {
    index: RwLock<u8>,
}

struct Reg {
    scores: Mutex<u8>,
}

struct R {
    router: RwLock<u8>,
}

struct BlockFile;

impl BlockFile {
    fn alloc(&self, _n: u8) {}
}

// Descending through the table in declared order is fine.
fn in_order(r: &R, s: &Shard, g: &Reg, d: &Dev) {
    let router = r.router.read().unwrap();
    let shard = s.index.write().unwrap();
    let scores = g.scores.lock().unwrap();
    drop(scores);
    drop(shard);
    drop(router);
    let pool = d.pool.lock().unwrap();
    drop(pool);
}

// drop() releases the guard, so the later lower-rank acquisition is clean.
fn drop_releases(d: &Dev, s: &Shard) {
    let pool = d.pool.lock().unwrap();
    drop(pool);
    let _shard = s.index.write().unwrap();
}

// A dereferencing copy is a temporary: the guard dies at the semicolon.
fn temporary_is_released(d: &Dev, s: &Shard) {
    let n = *d.pool.lock().unwrap();
    let _shard = s.index.write().unwrap();
    let _ = n;
}

// Same-class shard nesting is sanctioned (ascending shard-id convention).
fn shard_nesting_ok(a: &Shard, b: &Shard) {
    let first = a.index.write().unwrap();
    let _second = b.index.write().unwrap();
    drop(first);
}

// I/O with no emsim-internal guard held is fine.
fn io_unheld(d: &Dev, file: &BlockFile) {
    let n = *d.pool.lock().unwrap();
    file.alloc(n);
}

// A block scope releases its guards at the closing brace.
fn scoped_release(d: &Dev, s: &Shard) {
    {
        let _pool = d.pool.lock().unwrap();
    }
    let _shard = s.index.write().unwrap();
}

struct PoolShardCell {
    pool_shard: Mutex<u8>,
}

struct RouterStripe {
    router_stripe: RwLock<u8>,
}

// A pool-shard guard under the structure locks follows the declared order.
fn pool_shard_in_order(s: &Shard, cell: &PoolShardCell) {
    let shard = s.index.write().unwrap();
    let pool_shard = cell.pool_shard.lock().unwrap();
    drop(pool_shard);
    drop(shard);
}

// The router publish cell is rewritten stripe-by-stripe (temporaries) while
// the shard write locks are held — routercell ranks below shard.
fn router_publish_in_order(s: &Shard, stripe: &RouterStripe) {
    let shard = s.index.write().unwrap();
    *stripe.router_stripe.write().unwrap() = 7;
    drop(shard);
}

struct ConnReg {
    conns: Mutex<u8>,
}

struct WriteSlot {
    queue: Mutex<u8>,
}

// The connection registry outranks everything: a handler may hold it and
// then descend into the index locks in declared order.
fn connreg_in_order(reg: &ConnReg, s: &Shard) {
    let conns = reg.conns.lock().unwrap();
    let _shard = s.index.write().unwrap();
    drop(conns);
}

// A completion-slot handoff is a temporary — the guard dies at the
// semicolon, so the later shard acquisition is clean.
fn completion_slot_temporary(slot: &WriteSlot, s: &Shard) {
    *slot.queue.lock().unwrap() = 1;
    let _shard = s.index.write().unwrap();
}

trait Medium {
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> std::io::Result<()>;
    fn fdatasync(&self, name: &str) -> std::io::Result<()>;
}

struct Journal {
    wal: Mutex<Vec<u8>>,
}

// The journal's commit: encode under the WAL guard, call the medium after
// the guard is gone.
fn append_after_release(j: &Journal, m: &dyn Medium) {
    let frame = {
        let wal = j.wal.lock().unwrap();
        wal.clone()
    };
    m.write_at("journal.topk", 0, &frame).ok();
    m.fdatasync("journal.topk").ok();
}
