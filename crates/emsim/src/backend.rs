//! Storage backends: where pages *actually* live.
//!
//! The simulator's cost model (buffer pool, I/O counters) is independent of
//! the medium behind it. A [`StorageBackend`] is that medium:
//!
//! * [`RamBackend`] — the historical behaviour: pages live only in the typed
//!   [`BlockFile`](crate::BlockFile) slots, nothing is durable. Every method
//!   is a no-op, so `Device::new` is exactly as cheap as before.
//! * [`FileBackend`] — real block I/O. Durable files write every page image
//!   through a page-granular write-ahead log (`wal.topk`), commit batches
//!   with *log → fsync → apply → (checkpoint)*, and keep committed images in
//!   fixed-size checksummed slots of `data.topk`. Reopening a directory
//!   recovers: scan slots, replay committed WAL batches, discard the torn /
//!   uncommitted tail, checkpoint.
//!
//! ## On-disk format (all integers little-endian `u64` words)
//!
//! `meta.topk` (text, atomically replaced via `meta.tmp` + rename):
//!
//! ```text
//! topkmeta v1
//! block_words <B>
//! lsn <last checkpointed commit>
//! file <name>          # stable file id = position of this line
//! ```
//!
//! `data.topk` — fixed slots of `5 + B` words:
//! `[state, key, len, lsn, crc, payload…]` where `state` is 1 for live,
//! `key = stable_file << 32 | page`, and `crc` is FNV-1a-64 over the other
//! header words plus `payload[..len]`. A torn slot fails its checksum and is
//! treated as free; the WAL replays the image that was meant to be there.
//!
//! `wal.topk` — a sequence of records, each ending in a FNV-1a-64 word over
//! the record's preceding words:
//!
//! ```text
//! [1, key, len, payload…, crc]   page image
//! [2, key, crc]                  page free
//! [3, lsn, crc]                  commit: everything since the previous
//!                                commit becomes batch `lsn`
//! [4, stable, name_bytes, name…, crc]   file-name binding
//! ```
//!
//! `lock.topk` — an empty file held under an exclusive advisory lock
//! (`File::try_lock`) for the backend's lifetime: a second open of a live
//! directory fails instead of corrupting it. The kernel drops the lock when
//! the holder dies, so a crash never bricks the directory.
//!
//! ## Locking
//!
//! All backend state sits behind the single `wal` mutex — the auditor's
//! `wal` lock class (DESIGN.md §8): device I/O while it is held is forbidden
//! by Rule B except the log writer itself, the one pragma-sanctioned
//! `write_all_at` in [`FileBackend::put_page`]. Every other file operation
//! lives in a `WalState` helper.
//!
//! ## Fault injection
//!
//! [`FaultPlan`] kills the backend at a chosen [`KillPhase`] of the N-th
//! commit (or tears the WAL tail after N appends). A killed backend stays
//! dead — every later call returns the same error — which models a crashed
//! process without actually exiting: the crash-recovery testkit topology
//! reopens the directory and checks the recovered state.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::config::EmConfig;
use crate::device::{FileId, PageAddr};

/// Error from a storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The underlying medium failed (or the backend is dead after a failure).
    Io(String),
    /// On-disk state failed validation while opening or reading.
    Corrupt(String),
    /// An armed [`FaultPlan`] fired; the backend is now dead.
    Injected(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Io(m) => write!(f, "backend I/O error: {m}"),
            BackendError::Corrupt(m) => write!(f, "backend corruption: {m}"),
            BackendError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Result alias for backend operations.
pub type BackendResult<T> = Result<T, BackendError>;

/// Where in the commit protocol an armed fault kills the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPhase {
    /// Die before the commit record reaches the log: the whole batch must
    /// vanish on recovery.
    BeforeWalFsync,
    /// Die after the commit record is durable but before any slot is
    /// written: recovery must replay the whole batch.
    AfterWalFsync,
    /// Die halfway through applying slots: recovery must complete the batch
    /// over the torn data file.
    MidApply,
}

/// A scripted crash: kill the backend at `phase` of the commit numbered
/// `fail_after_commits` (0-based), or tear the WAL tail after
/// `fail_after_appends` page records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill the commit whose 0-based ordinal equals this value.
    pub fail_after_commits: Option<u64>,
    /// After this many successful WAL appends, write half a record and die.
    pub fail_after_appends: Option<u64>,
    /// Which phase of the doomed commit dies.
    pub phase: KillPhase,
}

impl FaultPlan {
    /// Kill the `n`-th commit (0-based) at `phase`.
    pub fn kill_at_commit(n: u64, phase: KillPhase) -> Self {
        Self {
            fail_after_commits: Some(n),
            fail_after_appends: None,
            phase,
        }
    }

    /// Tear the WAL after `n` successful page-record appends.
    pub fn tear_wal_after(n: u64) -> Self {
        Self {
            fail_after_commits: None,
            fail_after_appends: Some(n),
            phase: KillPhase::BeforeWalFsync,
        }
    }
}

/// Counters of the durable plane (all zero for [`RamBackend`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// WAL records appended (page + free + bind + commit).
    pub wal_appends: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Commit batches made durable.
    pub commits: u64,
    /// Checkpoints (WAL truncations).
    pub checkpoints: u64,
    /// Physical slot reads from the data file.
    pub preads: u64,
    /// Physical slot writes to the data file.
    pub pwrites: u64,
    /// Live page images found in the data file at open.
    pub recovered_pages: u64,
    /// Committed WAL batches replayed at open.
    pub recovered_commits: u64,
}

/// The medium behind a [`Device`](crate::Device).
///
/// Method names deliberately avoid the auditor's I/O-entry-point vocabulary
/// (`with`, `alloc`, `free`, …) so backend calls sites are classified by the
/// lock they hold, not mistaken for buffer-pool traffic.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Short diagnostic name ("ram", "file").
    fn name(&self) -> &'static str;

    /// Whether pages written through this backend survive reopen.
    fn is_durable(&self) -> bool;

    /// Associate a runtime [`FileId`] with a stable file name, so page
    /// addresses survive reopen even though runtime ids are minted in open
    /// order.
    fn bind_file(&self, id: FileId, name: &str) -> BackendResult<()>;

    /// All committed `(page, image)` pairs of a bound file, in page order.
    fn pages_of(&self, id: FileId) -> BackendResult<Vec<(u32, Vec<u64>)>>;

    /// Stage a page image; durable after the next [`commit`](Self::commit).
    fn put_page(&self, addr: PageAddr, words: &[u64]) -> BackendResult<()>;

    /// The current image of a page (staged overlay wins), or `None`.
    fn get_page(&self, addr: PageAddr) -> BackendResult<Option<Vec<u64>>>;

    /// Stage a page drop; durable after the next commit.
    fn drop_page(&self, addr: PageAddr) -> BackendResult<()>;

    /// Make every staged change durable: append the commit record, fsync the
    /// log, apply slot images. Returns the new log sequence number.
    fn commit(&self) -> BackendResult<u64>;

    /// Commit if needed, fsync the data file, rewrite the meta file and
    /// truncate the WAL.
    fn checkpoint(&self) -> BackendResult<()>;

    /// Arm a scripted crash (no-op on non-durable backends).
    fn arm_fault(&self, _plan: FaultPlan) {}

    /// Counters of the durable plane.
    fn durable_stats(&self) -> DurableStats {
        DurableStats::default()
    }
}

// ---------------------------------------------------------------------------
// RamBackend
// ---------------------------------------------------------------------------

/// The historical in-RAM medium: nothing is durable, every method is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct RamBackend;

impl StorageBackend for RamBackend {
    fn name(&self) -> &'static str {
        "ram"
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn bind_file(&self, _id: FileId, _name: &str) -> BackendResult<()> {
        Ok(())
    }

    fn pages_of(&self, _id: FileId) -> BackendResult<Vec<(u32, Vec<u64>)>> {
        Ok(Vec::new())
    }

    fn put_page(&self, _addr: PageAddr, _words: &[u64]) -> BackendResult<()> {
        Ok(())
    }

    fn get_page(&self, _addr: PageAddr) -> BackendResult<Option<Vec<u64>>> {
        Ok(None)
    }

    fn drop_page(&self, _addr: PageAddr) -> BackendResult<()> {
        Ok(())
    }

    fn commit(&self) -> BackendResult<u64> {
        Ok(0)
    }

    fn checkpoint(&self) -> BackendResult<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Word/byte plumbing
// ---------------------------------------------------------------------------

const META_HEADER: &str = "topkmeta v1";
const SLOT_HEADER_WORDS: usize = 5;
const TAG_PAGE: u64 = 1;
const TAG_FREE: u64 = 2;
const TAG_COMMIT: u64 = 3;
const TAG_BIND: u64 = 4;
const SLOT_LIVE: u64 = 1;
const SLOT_FREE: u64 = 0;

/// Streaming FNV-1a-64 over machine words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn push_all(&mut self, ws: &[u64]) {
        for &w in ws {
            self.push(w);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Bytes → words, dropping any trailing partial word (a torn tail).
fn bytes_to_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .filter_map(|c| c.try_into().ok().map(u64::from_le_bytes))
        .collect()
}

fn pack_key(stable: u32, page: u32) -> u64 {
    (u64::from(stable) << 32) | u64::from(page)
}

fn unpack_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Forward-only reader over a word slice; `None` means the input ended.
struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    fn next(&mut self) -> Option<u64> {
        let v = self.words.get(self.pos).copied();
        if v.is_some() {
            self.pos += 1;
        }
        v
    }

    fn take(&mut self, n: usize) -> Option<&'a [u64]> {
        let s = self.words.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.words.len()
    }
}

fn rec_page(stable: u32, page: u32, payload: &[u64]) -> Vec<u64> {
    let mut rec = Vec::with_capacity(4 + payload.len());
    rec.push(TAG_PAGE);
    rec.push(pack_key(stable, page));
    rec.push(payload.len() as u64);
    rec.extend_from_slice(payload);
    seal(rec)
}

fn rec_free(stable: u32, page: u32) -> Vec<u64> {
    seal(vec![TAG_FREE, pack_key(stable, page)])
}

fn rec_commit(lsn: u64) -> Vec<u64> {
    seal(vec![TAG_COMMIT, lsn])
}

fn rec_bind(stable: u32, name: &str) -> Vec<u64> {
    let bytes = name.as_bytes();
    let mut rec = Vec::with_capacity(3 + bytes.len() / 8 + 1);
    rec.push(TAG_BIND);
    rec.push(u64::from(stable));
    rec.push(bytes.len() as u64);
    for c in bytes.chunks(8) {
        let mut w = [0u8; 8];
        for (d, s) in w.iter_mut().zip(c) {
            *d = *s;
        }
        rec.push(u64::from_le_bytes(w));
    }
    seal(rec)
}

/// Append the checksum word that closes a record.
fn seal(mut rec: Vec<u64>) -> Vec<u64> {
    let mut h = Fnv::new();
    h.push_all(&rec);
    rec.push(h.finish());
    rec
}

/// One parsed WAL record.
enum WalItem {
    Page { key: u64, payload: Vec<u64> },
    Free { key: u64 },
    Commit { lsn: u64 },
    Bind { stable: u32, name: String },
}

/// Parse the next record; `None` means end-of-log or a torn/corrupt tail
/// (recovery stops and truncates in either case).
fn next_wal_item(c: &mut Cursor<'_>, block_words: usize) -> Option<WalItem> {
    let start = c.pos;
    let tag = c.next()?;
    let mut h = Fnv::new();
    h.push(tag);
    let item = match tag {
        TAG_PAGE => {
            let key = c.next()?;
            let len = c.next()?;
            if len as usize > block_words {
                return None;
            }
            let payload = c.take(len as usize)?.to_vec();
            h.push(key);
            h.push(len);
            h.push_all(&payload);
            WalItem::Page { key, payload }
        }
        TAG_FREE => {
            let key = c.next()?;
            h.push(key);
            WalItem::Free { key }
        }
        TAG_COMMIT => {
            let lsn = c.next()?;
            h.push(lsn);
            WalItem::Commit { lsn }
        }
        TAG_BIND => {
            let stable = c.next()?;
            let nbytes = c.next()?;
            if nbytes > 4096 {
                return None;
            }
            let nwords = (nbytes as usize).div_ceil(8);
            let name_words = c.take(nwords)?;
            h.push(stable);
            h.push(nbytes);
            h.push_all(name_words);
            let mut bytes = words_to_bytes(name_words);
            bytes.truncate(nbytes as usize);
            let name = String::from_utf8(bytes).ok()?;
            WalItem::Bind {
                stable: stable as u32,
                name,
            }
        }
        _ => return None,
    };
    let crc = c.next()?;
    if crc != h.finish() {
        c.pos = start;
        return None;
    }
    Some(item)
}

// ---------------------------------------------------------------------------
// FileBackend
// ---------------------------------------------------------------------------

/// Location of a committed page image in the data file.
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    slot: u32,
    lsn: u64,
}

#[derive(Debug)]
struct WalState {
    dir: PathBuf,
    /// Held (flock-style, via `File::try_lock`) for the backend's lifetime:
    /// one directory, one live device. Released when the state drops.
    _lock: File,
    wal_file: File,
    data_file: File,
    block_words: usize,
    /// Stable file names; stable id = index.
    names: Vec<String>,
    /// Runtime [`FileId`] → stable id, rebuilt every open via `bind_file`.
    bindings: HashMap<FileId, u32>,
    /// Logged-but-uncommitted images (`None` = freed); last write wins.
    staged: HashMap<u64, Option<Vec<u64>>>,
    /// Committed images by key.
    committed: HashMap<u64, SlotInfo>,
    free_slots: Vec<u32>,
    slot_count: u32,
    /// Last durable commit.
    lsn: u64,
    /// Last *checkpointed* commit: every batch `≤ ckpt_lsn` has been fsynced
    /// into `data.topk`. This — never the live `lsn` — is what `meta.topk`
    /// records, because recovery skips WAL batches `≤` the meta lsn: writing
    /// the live lsn there would skip replaying batches whose slot writes were
    /// applied but never fsynced.
    ckpt_lsn: u64,
    /// Append offset into the WAL file.
    wal_len: u64,
    stats: DurableStats,
    fault: Option<FaultPlan>,
    /// Once set, every operation fails with this error (a crashed process).
    dead: Option<BackendError>,
}

impl WalState {
    fn slot_bytes(&self) -> u64 {
        ((SLOT_HEADER_WORDS + self.block_words) * 8) as u64
    }

    fn check_dead(&self) -> BackendResult<()> {
        match &self.dead {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Kill the backend with an I/O error; later calls repeat it.
    fn die_io(&mut self, msg: String) -> BackendError {
        let e = BackendError::Io(msg);
        self.dead = Some(e.clone());
        e
    }

    /// Kill the backend with an injected fault; later calls repeat it.
    fn die_injected(&mut self, msg: &str) -> BackendError {
        let e = BackendError::Injected(msg.to_string());
        self.dead = Some(e.clone());
        e
    }

    fn stable_of(&self, file: FileId) -> BackendResult<u32> {
        self.bindings
            .get(&file)
            .copied()
            .ok_or_else(|| BackendError::Io(format!("file {file} was not bound to a durable name")))
    }

    fn note_append(&mut self, bytes: usize) {
        self.wal_len += bytes as u64;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes as u64;
    }

    /// Append a whole record (the non-hot-path writer; the page-image append
    /// in `put_page` stays inline as the sanctioned log writer).
    fn append_record(&mut self, rec: &[u64]) -> BackendResult<()> {
        let bytes = words_to_bytes(rec);
        if let Err(e) = self.wal_file.write_all_at(&bytes, self.wal_len) {
            return Err(self.die_io(format!("wal append failed: {e}")));
        }
        self.note_append(bytes.len());
        Ok(())
    }

    /// Deliberately write half a record: the torn-tail fault.
    fn tear_tail(&mut self, rec: &[u64]) {
        let bytes = words_to_bytes(rec);
        let half = bytes.len() / 2;
        if let Some(prefix) = bytes.get(..half) {
            let _ = self.wal_file.write_all_at(prefix, self.wal_len);
            let _ = self.wal_file.sync_data();
        }
    }

    fn sync_wal(&mut self) -> BackendResult<()> {
        if let Err(e) = self.wal_file.sync_data() {
            return Err(self.die_io(format!("wal fsync failed: {e}")));
        }
        Ok(())
    }

    /// Write one full slot (header + zero-padded payload).
    fn store_slot(
        &mut self,
        slot: u32,
        state: u64,
        key: u64,
        lsn: u64,
        payload: &[u64],
    ) -> BackendResult<()> {
        let mut words = Vec::with_capacity(SLOT_HEADER_WORDS + self.block_words);
        words.push(state);
        words.push(key);
        words.push(payload.len() as u64);
        words.push(lsn);
        let mut h = Fnv::new();
        h.push_all(&words);
        h.push_all(payload);
        words.push(h.finish());
        words.extend_from_slice(payload);
        words.resize(SLOT_HEADER_WORDS + self.block_words, 0);
        let off = u64::from(slot) * self.slot_bytes();
        if let Err(e) = self.data_file.write_all_at(&words_to_bytes(&words), off) {
            return Err(self.die_io(format!("data pwrite of slot {slot} failed: {e}")));
        }
        self.stats.pwrites += 1;
        Ok(())
    }

    /// Read and validate one slot; `None` for free, torn, or unreadable.
    fn load_slot(&mut self, slot: u32) -> Option<(u64, u64, Vec<u64>)> {
        let mut buf = vec![0u8; self.slot_bytes() as usize];
        self.data_file
            .read_exact_at(&mut buf, u64::from(slot) * self.slot_bytes())
            .ok()?;
        self.stats.preads += 1;
        let words = bytes_to_words(&buf);
        let mut c = Cursor::new(&words);
        let state = c.next()?;
        let key = c.next()?;
        let len = c.next()?;
        let lsn = c.next()?;
        let crc = c.next()?;
        if state != SLOT_LIVE || len as usize > self.block_words {
            return None;
        }
        let payload = c.take(len as usize)?;
        let mut h = Fnv::new();
        h.push_all(&[state, key, len, lsn]);
        h.push_all(payload);
        if h.finish() != crc {
            return None;
        }
        Some((key, lsn, payload.to_vec()))
    }

    fn claim_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let s = self.slot_count;
                self.slot_count += 1;
                s
            }
        }
    }

    /// Materialize one staged change into the data file at `lsn`.
    fn apply_one(&mut self, key: u64, image: &Option<Vec<u64>>, lsn: u64) -> BackendResult<()> {
        match image {
            Some(payload) => {
                let slot = match self.committed.get(&key) {
                    Some(si) => si.slot,
                    None => self.claim_slot(),
                };
                self.store_slot(slot, SLOT_LIVE, key, lsn, payload)?;
                self.committed.insert(key, SlotInfo { slot, lsn });
            }
            None => {
                if let Some(si) = self.committed.remove(&key) {
                    self.store_slot(si.slot, SLOT_FREE, 0, lsn, &[])?;
                    self.free_slots.push(si.slot);
                }
            }
        }
        Ok(())
    }

    /// Rewrite `meta.topk` atomically (tmp + rename).
    fn persist_meta(&mut self) -> BackendResult<()> {
        let mut text = String::new();
        text.push_str(META_HEADER);
        text.push('\n');
        text.push_str(&format!("block_words {}\n", self.block_words));
        text.push_str(&format!("lsn {}\n", self.ckpt_lsn));
        for name in &self.names {
            text.push_str(&format!("file {name}\n"));
        }
        let tmp = self.dir.join("meta.tmp");
        let fin = self.dir.join("meta.topk");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_data()?;
            std::fs::rename(&tmp, &fin)
        };
        if let Err(e) = write() {
            return Err(self.die_io(format!("meta rewrite failed: {e}")));
        }
        Ok(())
    }

    /// Commit if staged, fsync data, rewrite meta, truncate the WAL.
    fn checkpoint_locked(&mut self) -> BackendResult<()> {
        if let Err(e) = self.data_file.sync_data() {
            return Err(self.die_io(format!("data fsync failed: {e}")));
        }
        // Only after the data fsync may the meta lsn advance: everything up
        // to `lsn` is now durably applied, so recovery may skip it.
        self.ckpt_lsn = self.lsn;
        self.persist_meta()?;
        let truncate = || -> std::io::Result<()> {
            self.wal_file.set_len(0)?;
            self.wal_file.sync_data()
        };
        if let Err(e) = truncate() {
            return Err(self.die_io(format!("wal truncate failed: {e}")));
        }
        self.wal_len = 0;
        self.stats.checkpoints += 1;
        Ok(())
    }
}

/// Real file-backed block storage with a page-granular write-ahead log.
///
/// One directory holds one device: `meta.topk` + `data.topk` + `wal.topk`
/// (format in the module docs). Geometry (`block_words`) is fixed at
/// creation; reopening with a different [`EmConfig`] geometry is corruption.
#[derive(Debug)]
pub struct FileBackend {
    wal: Mutex<WalState>,
}

impl FileBackend {
    /// Open (or create) the durable device rooted at `dir` and run recovery.
    pub fn open(dir: &Path, config: EmConfig) -> BackendResult<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| BackendError::Io(format!("create {}: {e}", dir.display())))?;
        let open_rw = |name: &str| -> BackendResult<File> {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(name))
                .map_err(|e| BackendError::Io(format!("open {name}: {e}")))
        };
        // One directory, one live device: an advisory exclusive lock held
        // for the backend's lifetime. Two devices recovering, truncating and
        // appending to the same WAL would silently corrupt committed state —
        // this turns that into an open error (and is what makes
        // `snapshot_to` fail fast on an index's own directory). The lock is
        // per open-file-description, so it also rejects a second open from
        // within the same process, and the kernel releases it when the
        // process dies — a crashed process never bricks its directory.
        let lock = open_rw("lock.topk")?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(BackendError::Io(format!(
                    "directory {} is already open as a durable device \
                     (lock.topk is held)",
                    dir.display()
                )));
            }
            Err(std::fs::TryLockError::Error(e)) => {
                return Err(BackendError::Io(format!("lock lock.topk: {e}")));
            }
        }
        let meta_path = dir.join("meta.topk");
        let mut block_words = config.block_words;
        let mut lsn = 0;
        let mut names = Vec::new();
        if meta_path.exists() {
            let text = std::fs::read_to_string(&meta_path)
                .map_err(|e| BackendError::Io(format!("read meta.topk: {e}")))?;
            (block_words, lsn, names) = parse_meta(&text)?;
            if block_words != config.block_words {
                return Err(BackendError::Corrupt(format!(
                    "geometry mismatch: directory has block_words={block_words}, \
                     config wants {}",
                    config.block_words
                )));
            }
        }
        let mut st = WalState {
            dir: dir.to_path_buf(),
            _lock: lock,
            wal_file: open_rw("wal.topk")?,
            data_file: open_rw("data.topk")?,
            block_words,
            names,
            bindings: HashMap::new(),
            staged: HashMap::new(),
            committed: HashMap::new(),
            free_slots: Vec::new(),
            slot_count: 0,
            lsn,
            ckpt_lsn: lsn,
            wal_len: 0,
            stats: DurableStats::default(),
            fault: None,
            dead: None,
        };
        recover(&mut st)?;
        Ok(Self {
            wal: Mutex::new(st),
        })
    }
}

fn parse_meta(text: &str) -> BackendResult<(usize, u64, Vec<String>)> {
    let corrupt = |what: &str| BackendError::Corrupt(format!("meta.topk: {what}"));
    let mut lines = text.lines();
    if lines.next() != Some(META_HEADER) {
        return Err(corrupt("bad header"));
    }
    let mut block_words = None;
    let mut lsn = 0;
    let mut names = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut it = line.splitn(2, ' ');
        match (it.next(), it.next()) {
            (Some("block_words"), Some(v)) => {
                block_words = Some(v.trim().parse().map_err(|_| corrupt("bad block_words"))?);
            }
            (Some("lsn"), Some(v)) => {
                lsn = v.trim().parse().map_err(|_| corrupt("bad lsn"))?;
            }
            (Some("file"), Some(name)) => names.push(name.to_string()),
            _ => return Err(corrupt("unrecognized line")),
        }
    }
    let block_words = block_words.ok_or_else(|| corrupt("missing block_words"))?;
    Ok((block_words, lsn, names))
}

/// Recovery: scan slots, replay committed WAL batches (idempotent), discard
/// the torn/uncommitted tail, then checkpoint into a clean state.
fn recover(st: &mut WalState) -> BackendResult<()> {
    // 1. Data-file scan: every checksum-valid live slot is a candidate; the
    //    highest lsn per key wins, losers and torn slots become free.
    let data_len = st
        .data_file
        .metadata()
        .map_err(|e| BackendError::Io(format!("stat data.topk: {e}")))?
        .len();
    let nslots = (data_len / st.slot_bytes()) as u32;
    st.slot_count = nslots;
    let mut used = vec![false; nslots as usize];
    for s in 0..nslots {
        let Some((key, lsn, _payload)) = st.load_slot(s) else {
            continue;
        };
        let replace = match st.committed.get(&key) {
            Some(prev) => prev.lsn < lsn,
            None => true,
        };
        if replace {
            if let Some(prev) = st.committed.insert(key, SlotInfo { slot: s, lsn }) {
                if let Some(u) = used.get_mut(prev.slot as usize) {
                    *u = false;
                }
            }
            if let Some(u) = used.get_mut(s as usize) {
                *u = true;
            }
        }
    }
    st.free_slots = used
        .iter()
        .enumerate()
        .filter(|(_, &u)| !u)
        .map(|(i, _)| i as u32)
        .collect();
    st.stats.recovered_pages = st.committed.len() as u64;

    // 2. WAL replay: apply each batch that is closed by a valid commit
    //    record; anything after the last valid commit (torn or uncommitted)
    //    is discarded by the checkpoint's truncation.
    let wal_size = st
        .wal_file
        .metadata()
        .map_err(|e| BackendError::Io(format!("stat wal.topk: {e}")))?
        .len();
    let mut buf = vec![0u8; wal_size as usize];
    st.wal_file
        .read_exact_at(&mut buf, 0)
        .map_err(|e| BackendError::Io(format!("read wal.topk: {e}")))?;
    let words = bytes_to_words(&buf);
    let mut c = Cursor::new(&words);
    let mut pending: Vec<(u64, Option<Vec<u64>>)> = Vec::new();
    while !c.at_end() {
        let Some(item) = next_wal_item(&mut c, st.block_words) else {
            break;
        };
        match item {
            WalItem::Page { key, payload } => pending.push((key, Some(payload))),
            WalItem::Free { key } => pending.push((key, None)),
            WalItem::Bind { stable, name } => {
                let i = stable as usize;
                match st.names.get(i) {
                    Some(existing) if *existing == name => {}
                    None if i == st.names.len() => st.names.push(name),
                    _ => {
                        return Err(BackendError::Corrupt(format!(
                            "wal bind of '{name}' to stable id {stable} conflicts with meta"
                        )))
                    }
                }
            }
            WalItem::Commit { lsn } => {
                if lsn > st.lsn {
                    for (key, image) in &pending {
                        st.apply_one(*key, image, lsn)?;
                    }
                    st.lsn = lsn;
                    st.stats.recovered_commits += 1;
                }
                pending.clear();
            }
        }
    }

    // 3. Collapse into a checkpoint: meta reflects the replayed lsn, the WAL
    //    is truncated (dropping the uncommitted tail), data is fsynced.
    st.checkpoint_locked()
}

impl StorageBackend for FileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn bind_file(&self, id: FileId, name: &str) -> BackendResult<()> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        let stable = match st.names.iter().position(|n| n == name) {
            Some(p) => p as u32,
            None => {
                let p = st.names.len() as u32;
                st.names.push(name.to_string());
                st.append_record(&rec_bind(p, name))?;
                st.sync_wal()?;
                st.persist_meta()?;
                p
            }
        };
        st.bindings.insert(id, stable);
        Ok(())
    }

    fn pages_of(&self, id: FileId) -> BackendResult<Vec<(u32, Vec<u64>)>> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        let stable = st.stable_of(id)?;
        let keys: Vec<u64> = st
            .committed
            .keys()
            .copied()
            .filter(|&k| unpack_key(k).0 == stable)
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let si = match st.committed.get(&key) {
                Some(si) => *si,
                None => continue,
            };
            let (_, page) = unpack_key(key);
            match st.load_slot(si.slot) {
                Some((k, _, payload)) if k == key => out.push((page, payload)),
                _ => {
                    return Err(BackendError::Corrupt(format!(
                        "committed slot {} for page {page} failed validation",
                        si.slot
                    )))
                }
            }
        }
        // Staged overlay (normally empty right after open).
        for (&key, image) in &st.staged {
            let (f, page) = unpack_key(key);
            if f != stable {
                continue;
            }
            out.retain(|(p, _)| *p != page);
            if let Some(payload) = image {
                out.push((page, payload.clone()));
            }
        }
        out.sort_by_key(|(p, _)| *p);
        Ok(out)
    }

    fn put_page(&self, addr: PageAddr, words: &[u64]) -> BackendResult<()> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        let stable = st.stable_of(addr.file)?;
        if words.len() > st.block_words {
            let msg = format!(
                "page image of {} words exceeds block capacity {}",
                words.len(),
                st.block_words
            );
            return Err(st.die_io(msg));
        }
        let rec = rec_page(stable, addr.page, words);
        if let Some(plan) = st.fault {
            if let Some(n) = plan.fail_after_appends {
                if st.stats.wal_appends >= n {
                    st.tear_tail(&rec);
                    return Err(st.die_injected("fault: WAL tail torn mid-append"));
                }
            }
        }
        let bytes = words_to_bytes(&rec);
        let off = st.wal_len;
        // audit: allow(lock_order, reason = "the WAL log writer itself: appending the page record is the one sanctioned device write under the wal mutex (DESIGN.md section 10)")
        let wrote = st.wal_file.write_all_at(&bytes, off);
        if let Err(e) = wrote {
            return Err(st.die_io(format!("wal append failed: {e}")));
        }
        st.note_append(bytes.len());
        st.staged
            .insert(pack_key(stable, addr.page), Some(words.to_vec()));
        Ok(())
    }

    fn get_page(&self, addr: PageAddr) -> BackendResult<Option<Vec<u64>>> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        let stable = st.stable_of(addr.file)?;
        let key = pack_key(stable, addr.page);
        if let Some(image) = st.staged.get(&key) {
            return Ok(image.clone());
        }
        let si = match st.committed.get(&key) {
            Some(si) => *si,
            None => return Ok(None),
        };
        match st.load_slot(si.slot) {
            Some((k, _, payload)) if k == key => Ok(Some(payload)),
            _ => Err(BackendError::Corrupt(format!(
                "committed slot {} for {addr:?} failed validation",
                si.slot
            ))),
        }
    }

    fn drop_page(&self, addr: PageAddr) -> BackendResult<()> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        let stable = st.stable_of(addr.file)?;
        let key = pack_key(stable, addr.page);
        st.append_record(&rec_free(stable, addr.page))?;
        st.staged.insert(key, None);
        Ok(())
    }

    fn commit(&self) -> BackendResult<u64> {
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        if st.staged.is_empty() {
            return Ok(st.lsn);
        }
        let next = st.lsn + 1;
        let doomed = st
            .fault
            .and_then(|p| p.fail_after_commits)
            .is_some_and(|n| st.stats.commits >= n);
        let phase = st.fault.map(|p| p.phase);
        if doomed && phase == Some(KillPhase::BeforeWalFsync) {
            return Err(st.die_injected("fault: killed before the commit record reached the WAL"));
        }
        st.append_record(&rec_commit(next))?;
        st.sync_wal()?;
        if doomed && phase == Some(KillPhase::AfterWalFsync) {
            return Err(st.die_injected("fault: killed after WAL fsync, before apply"));
        }
        let staged = std::mem::take(&mut st.staged);
        if doomed && phase == Some(KillPhase::MidApply) {
            for (key, image) in staged.iter().take(staged.len() / 2) {
                st.apply_one(*key, image, next)?;
            }
            return Err(st.die_injected("fault: killed halfway through applying the batch"));
        }
        for (key, image) in &staged {
            st.apply_one(*key, image, next)?;
        }
        st.lsn = next;
        st.stats.commits += 1;
        Ok(next)
    }

    fn checkpoint(&self) -> BackendResult<()> {
        self.commit()?;
        let mut st = self.wal.lock().unwrap();
        st.check_dead()?;
        st.checkpoint_locked()
    }

    fn arm_fault(&self, plan: FaultPlan) {
        self.wal.lock().unwrap().fault = Some(plan);
    }

    fn durable_stats(&self) -> DurableStats {
        self.wal.lock().unwrap().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("emsim-backend-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn cfg() -> EmConfig {
        EmConfig::small()
    }

    fn addr(page: u32) -> PageAddr {
        PageAddr { file: 0, page }
    }

    #[test]
    fn file_backend_commit_survives_reopen() {
        let dir = scratch("roundtrip");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1, 2, 3]).unwrap();
            b.put_page(addr(7), &[9]).unwrap();
            assert_eq!(b.commit().unwrap(), 1);
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(b.get_page(addr(7)).unwrap(), Some(vec![9]));
        assert_eq!(b.get_page(addr(3)).unwrap(), None);
        assert_eq!(
            b.pages_of(0).unwrap(),
            vec![(0, vec![1, 2, 3]), (7, vec![9])]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_pages_vanish_on_reopen() {
        let dir = scratch("uncommitted");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1]).unwrap();
            b.commit().unwrap();
            b.put_page(addr(1), &[2]).unwrap();
            // No commit: page 1 must not survive.
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), Some(vec![1]));
        assert_eq!(b.get_page(addr(1)).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_and_overwrite_commit_correctly() {
        let dir = scratch("dropwrite");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1]).unwrap();
            b.put_page(addr(1), &[2]).unwrap();
            b.commit().unwrap();
            b.drop_page(addr(0)).unwrap();
            b.put_page(addr(1), &[2, 2]).unwrap();
            b.commit().unwrap();
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), None);
        assert_eq!(b.get_page(addr(1)).unwrap(), Some(vec![2, 2]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_before_wal_fsync_loses_only_the_doomed_batch() {
        let dir = scratch("killbefore");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1]).unwrap();
            b.commit().unwrap();
            b.arm_fault(FaultPlan::kill_at_commit(1, KillPhase::BeforeWalFsync));
            b.put_page(addr(1), &[2]).unwrap();
            assert!(matches!(b.commit(), Err(BackendError::Injected(_))));
            // Dead: everything after the kill fails the same way.
            assert!(matches!(
                b.put_page(addr(2), &[3]),
                Err(BackendError::Injected(_))
            ));
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), Some(vec![1]));
        assert_eq!(
            b.get_page(addr(1)).unwrap(),
            None,
            "doomed batch resurrected"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_after_wal_fsync_replays_the_batch() {
        for phase in [KillPhase::AfterWalFsync, KillPhase::MidApply] {
            let dir = scratch("killafter");
            {
                let b = FileBackend::open(&dir, cfg()).unwrap();
                b.bind_file(0, "nodes").unwrap();
                b.arm_fault(FaultPlan::kill_at_commit(0, phase));
                for p in 0..6 {
                    b.put_page(addr(p), &[u64::from(p) + 10]).unwrap();
                }
                assert!(matches!(b.commit(), Err(BackendError::Injected(_))));
            }
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            for p in 0..6 {
                assert_eq!(
                    b.get_page(addr(p)).unwrap(),
                    Some(vec![u64::from(p) + 10]),
                    "{phase:?}: committed page {p} lost"
                );
            }
            assert!(b.durable_stats().recovered_commits >= 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_wal_tail_is_discarded() {
        let dir = scratch("torn");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1]).unwrap();
            b.commit().unwrap();
            // bind(1) + page(1) + commit(1) = 3 appends so far.
            b.arm_fault(FaultPlan::tear_wal_after(3));
            assert!(matches!(
                b.put_page(addr(1), &[2]),
                Err(BackendError::Injected(_))
            ));
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), Some(vec![1]));
        assert_eq!(b.get_page(addr(1)).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let dir = scratch("lock");
        let first = FileBackend::open(&dir, cfg()).unwrap();
        // Held lock: a concurrent device (same process or another — the
        // advisory lock is per open-file-description) must be turned away.
        match FileBackend::open(&dir, cfg()) {
            Err(BackendError::Io(msg)) => assert!(msg.contains("lock.topk"), "{msg}"),
            other => panic!("second open must fail with Io, got {other:?}"),
        }
        drop(first);
        // Released on drop: reopening afterwards works.
        let again = FileBackend::open(&dir, cfg()).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_lsn_stays_at_the_checkpoint_across_binds() {
        let dir = scratch("bindlsn");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "nodes").unwrap();
            b.put_page(addr(0), &[1, 2]).unwrap();
            assert_eq!(b.commit().unwrap(), 1);
            // Binding a new name rewrites meta.topk; the recorded lsn must be
            // the last *checkpointed* commit (0 — only recovery's checkpoint
            // ran), not the live commit lsn (1): otherwise recovery would
            // skip replaying batch 1, whose slot writes were never fsynced.
            b.bind_file(1, "extra").unwrap();
            let meta = std::fs::read_to_string(dir.join("meta.topk")).unwrap();
            assert!(
                meta.lines().any(|l| l == "lsn 0"),
                "meta must hold the checkpointed lsn, got:\n{meta}"
            );
            // Crash here (no checkpoint).
        }
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(0, "nodes").unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), Some(vec![1, 2]));
        assert!(
            b.durable_stats().recovered_commits >= 1,
            "batch 1 must be replayed from the WAL on reopen"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_mismatch_is_corruption() {
        let dir = scratch("geom");
        {
            let b = FileBackend::open(&dir, EmConfig::new(64, 16 * 64)).unwrap();
            b.checkpoint().unwrap();
        }
        let err = FileBackend::open(&dir, EmConfig::new(128, 16 * 128));
        assert!(matches!(err, Err(BackendError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stable_ids_survive_reopen_under_different_open_order() {
        let dir = scratch("stable");
        {
            let b = FileBackend::open(&dir, cfg()).unwrap();
            b.bind_file(0, "alpha").unwrap();
            b.bind_file(1, "beta").unwrap();
            b.put_page(PageAddr { file: 0, page: 0 }, &[11]).unwrap();
            b.put_page(PageAddr { file: 1, page: 0 }, &[22]).unwrap();
            b.commit().unwrap();
        }
        // Reopen with the runtime ids swapped: names must still resolve.
        let b = FileBackend::open(&dir, cfg()).unwrap();
        b.bind_file(5, "beta").unwrap();
        b.bind_file(9, "alpha").unwrap();
        assert_eq!(
            b.get_page(PageAddr { file: 5, page: 0 }).unwrap(),
            Some(vec![22])
        );
        assert_eq!(
            b.get_page(PageAddr { file: 9, page: 0 }).unwrap(),
            Some(vec![11])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ram_backend_is_a_noop() {
        let b = RamBackend;
        assert!(!b.is_durable());
        b.put_page(addr(0), &[1]).unwrap();
        assert_eq!(b.get_page(addr(0)).unwrap(), None);
        assert_eq!(b.commit().unwrap(), 0);
    }
}
