//! Known-bad lock-discipline snippets. Never compiled — lexed by the
//! fixture tests to prove the lock_order pass fires.

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

struct BlockFile;

impl BlockFile {
    fn alloc(&self, _n: u8) {}
}

// Rule A: the pool mutex (rank 8) is held while a shard lock (rank 3) is
// acquired — the reverse of the declared order.
fn out_of_order(dev: &Dev, shard: &Shard) {
    let pool = dev.pool.lock().unwrap();
    let _shard = shard.index.write().unwrap();
    drop(pool);
}

// Rule A: same-class nesting of the registry, which does not permit it.
fn nested_registry(a: &Reg, b: &Reg) {
    let scores = a.scores.lock().unwrap();
    let _again = b.scores.lock().unwrap();
    drop(scores);
}

// Rule B: a device I/O entry point invoked while the pool guard is live.
fn io_while_held(dev: &Dev, file: &BlockFile) {
    let pool = dev.pool.lock().unwrap();
    file.alloc(7);
    drop(pool);
}

// Rule B: a rebuild entry point invoked while a page guard is live.
fn rebuild_while_held(slot: &RwLock<u8>, file: &BlockFile) {
    let s = slot.write().unwrap();
    file.rebuild_everything();
    drop(s);
}

struct PoolShardCell {
    pool_shard: Mutex<u8>,
}

// Rule A: a pool-shard mutex (rank 7) is held while the registry (rank 4)
// is acquired — emsim-internal locks sit below every structure lock.
fn pool_shard_out_of_order(cell: &PoolShardCell, g: &Reg) {
    let pool_shard = cell.pool_shard.lock().unwrap();
    let _scores = g.scores.lock().unwrap();
    drop(pool_shard);
}

// Rule B: a device I/O entry point invoked while a pool-shard guard is live.
fn pool_shard_io_while_held(cell: &PoolShardCell, file: &BlockFile) {
    let pool_shard = cell.pool_shard.lock().unwrap();
    file.alloc(3);
    drop(pool_shard);
}

trait Medium {
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> std::io::Result<()>;
    fn fdatasync(&self, name: &str) -> std::io::Result<()>;
}

struct Journal {
    wal: Mutex<u8>,
}

// Rule A: the WAL mutex (rank 6) is held while the registry (rank 4) is
// acquired — the journal sits below every structure lock.
fn wal_out_of_order(j: &Journal, g: &Reg) {
    let wal = j.wal.lock().unwrap();
    let _scores = g.scores.lock().unwrap();
    drop(wal);
}

// Rule B: a raw file verb invoked while the WAL mutex is held — no file
// call runs under it.
fn io_under_wal(j: &Journal, f: &std::fs::File) {
    let wal = j.wal.lock().unwrap();
    f.sync_all().ok();
    drop(wal);
}

// Rule B: a medium verb invoked while the WAL mutex is held — the journal
// encodes its frame under the guard and appends it with the guard released.
fn medium_call_under_wal(j: &Journal, m: &dyn Medium) {
    let wal = j.wal.lock().unwrap();
    m.write_at("journal.topk", 0, &[]).ok();
    drop(wal);
}

struct ConnReg {
    conns: Mutex<u8>,
}

struct WriteSlot {
    queue: Mutex<u8>,
}

// Rule A: the serving-plane connection registry (rank 1) sits above every
// index-structure lock — acquiring it while a shard guard is live means the
// index reached back up into the serving plane.
fn connreg_out_of_order(s: &Shard, reg: &ConnReg) {
    let shard = s.index.write().unwrap();
    let _conns = reg.conns.lock().unwrap();
    drop(shard);
}

// Rule A: same-class nesting of the serving-plane mutexes (connection
// registry, then a write-completion slot) is not sanctioned.
fn connreg_nested(reg: &ConnReg, slot: &WriteSlot) {
    let conns = reg.conns.lock().unwrap();
    let _slot = slot.queue.lock().unwrap();
    drop(conns);
}
