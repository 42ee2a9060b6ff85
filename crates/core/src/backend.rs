//! The storage medium under a durable index, and the reader of the
//! directory format that came before the journal.
//!
//! Every file call of the journal ([`persist`](crate::persist)) goes through
//! [`Medium`], whose verbs are the calls a crash can fall between: a
//! whole-file read, a positioned write, `fdatasync`, truncate, rename,
//! remove and a directory sync. [`StdFs`] is the production medium over one
//! directory; `topk-testkit`'s `CrashFs` is an in-memory one that records
//! the calls and rebuilds the state a crash between any two of them leaves
//! (DESIGN.md §10).
//!
//! [`read_page_image_dir`] reads a directory in the page-image format that
//! preceded the journal (`meta.topk`, `data.topk`, `wal.topk`), so that
//! opening one converts it once: its points become the first snapshot.

use epst::Point;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::persist::{to_words, Fnv, OP_DELETE, OP_INSERT};

/// The file verbs of a durable index. Names avoid `read`/`write`, which are
/// lock calls to the auditor (DESIGN.md §8 lists these verbs in Rule B).
pub trait Medium: Send + Sync + std::fmt::Debug {
    /// The whole contents of `name`, or `None` if it does not exist.
    fn read_file(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Write `bytes` at byte `offset` of `name`, creating the file if absent.
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()>;
    /// Make the contents and length of `name` durable.
    fn fdatasync(&self, name: &str) -> io::Result<()>;
    /// Set the length of `name`, creating the file if absent.
    fn truncate_file(&self, name: &str, len: u64) -> io::Result<()>;
    /// Atomically replace `to` with `from`.
    fn rename_file(&self, from: &str, to: &str) -> io::Result<()>;
    /// Remove `name`; a missing file is not an error.
    fn remove_file(&self, name: &str) -> io::Result<()>;
    /// Make the directory's names durable: files created, renamed, removed.
    fn sync_dir(&self) -> io::Result<()>;
}

/// The lock file [`StdFs`] holds for its lifetime.
const LOCK: &str = "lock.topk";

/// The production [`Medium`]: the files of one directory, which it holds
/// under an exclusive advisory lock on `lock.topk` for its lifetime. A
/// second open of a live directory (another process, a second handle, or
/// `snapshot_to` aimed at an index's own directory) fails instead of
/// racing the live journal. The kernel drops the lock when the holder dies,
/// so a crash never bricks the directory.
#[derive(Debug)]
pub struct StdFs {
    dir: PathBuf,
    _lock: File,
}

fn open_rw(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
}

impl StdFs {
    /// Open (or create) the directory `dir` and take its lock.
    ///
    /// # Errors
    ///
    /// The directory cannot be created, or another handle holds `lock.topk`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let lock = open_rw(&dir.join(LOCK))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "directory {} is already open as a durable index ({LOCK} is held)",
                        dir.display()
                    ),
                ));
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e),
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            _lock: lock,
        })
    }

    /// `name` opened for reading and writing, created if absent. `fsync`
    /// and `fdatasync` act on the file, whatever descriptor calls them.
    fn file(&self, name: &str) -> io::Result<File> {
        open_rw(&self.dir.join(name))
    }
}

impl Medium for StdFs {
    fn read_file(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file(name)?.write_all_at(bytes, offset)
    }

    fn fdatasync(&self, name: &str) -> io::Result<()> {
        self.file(name)?.sync_data()
    }

    fn truncate_file(&self, name: &str, len: u64) -> io::Result<()> {
        self.file(name)?.set_len(len)
    }

    fn rename_file(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.dir.join(from), self.dir.join(to))
    }

    fn remove_file(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.dir.join(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }
}

/// The files of the page-image format, removed once converted.
pub(crate) const PAGE_IMAGE_FILES: [&str; 3] = ["meta.topk", "data.topk", "wal.topk"];

/// The name the page-image format bound the operation journal to.
const JOURNAL_FILE: &str = "topk.journal";

/// Read a directory in the page-image format: `meta.topk` (a text
/// manifest: block size, last checkpointed commit, file names),
/// `data.topk` (checksummed page slots), `wal.topk` (page images and frees
/// closed by commit records) and, inside them, the journal's chain of
/// directory and record pages. Returns the live points and the last stamp,
/// or `None` if the directory holds no `meta.topk`. Read-only: recovery
/// replays committed log batches in memory and ignores a torn or
/// uncommitted log tail, as the page-image format's own recovery did.
pub(crate) fn read_page_image_dir(
    medium: &dyn Medium,
) -> std::result::Result<Option<(Vec<Point>, u64)>, String> {
    let read = |name: &str| -> std::result::Result<Vec<u8>, String> {
        Ok(medium
            .read_file(name)
            .map_err(|e| format!("read {name}: {e}"))?
            .unwrap_or_default())
    };
    let Some(meta) = medium
        .read_file("meta.topk")
        .map_err(|e| format!("read meta.topk: {e}"))?
    else {
        return Ok(None);
    };
    let bad = |what: &str| format!("page-image directory: {what}");
    let meta = String::from_utf8(meta).map_err(|_| bad("meta.topk is not text"))?;
    let mut lines = meta.lines().filter(|l| !l.trim().is_empty());
    if lines.next() != Some("topkmeta v1") {
        return Err(bad("meta.topk has a bad header"));
    }
    let (mut block_words, mut lsn, mut names) = (None, 0u64, Vec::new());
    for line in lines {
        match line.split_once(' ') {
            Some(("block_words", v)) => block_words = v.trim().parse::<usize>().ok(),
            Some(("lsn", v)) => lsn = v.trim().parse().map_err(|_| bad("bad lsn"))?,
            Some(("file", name)) => names.push(name.to_string()),
            _ => return Err(bad("meta.topk has an unrecognized line")),
        }
    }
    let (block_words, slot_words) = block_words
        .and_then(|b| Some((b, b.checked_add(5)?)))
        .filter(|&(b, _)| b > 0)
        .ok_or_else(|| bad("meta.topk has no usable block size"))?;

    // Committed page images by key (`stable file id << 32 | page`): the
    // checksummed slot with the highest commit number wins, then every
    // committed log batch past the checkpoint applies in order.
    let mut pages: HashMap<u64, (u64, Vec<u64>)> = HashMap::new();
    for slot in to_words(&read("data.topk")?).chunks_exact(slot_words) {
        let (&[state, key, len, slot_lsn, crc], payload) = slot.split_at(5) else {
            continue;
        };
        let Some(payload) = payload.get(..len as usize).filter(|_| state == 1) else {
            continue;
        };
        if Fnv::of_words(&[&[state, key, len, slot_lsn], payload]) != crc {
            continue;
        }
        if pages.get(&key).is_none_or(|(l, _)| *l < slot_lsn) {
            pages.insert(key, (slot_lsn, payload.to_vec()));
        }
    }
    let wal = to_words(&read("wal.topk")?);
    let mut rest = wal.as_slice();
    let mut batch: Vec<(u64, Option<Vec<u64>>)> = Vec::new();
    while let Some((item, tail)) = wal_item(rest, block_words) {
        rest = tail;
        match item {
            WalItem::Page(key, image) => batch.push((key, Some(image))),
            WalItem::Free(key) => batch.push((key, None)),
            WalItem::Bind(name) => {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            WalItem::Commit(commit) => {
                if commit > lsn {
                    for (key, image) in batch.drain(..) {
                        match image {
                            Some(image) => pages.insert(key, (commit, image)),
                            None => pages.remove(&key),
                        };
                    }
                    lsn = commit;
                }
                batch.clear();
            }
        }
    }

    // The journal's pages: one head directory page, continuation pages
    // chained from it, and record pages in the order the chain lists them.
    let Some(file) = names.iter().position(|n| n == JOURNAL_FILE) else {
        return Ok(Some((Vec::new(), 0)));
    };
    let journal: HashMap<u32, &[u64]> = pages
        .iter()
        .filter(|(key, _)| *key >> 32 == file as u64)
        .map(|(key, (_, image))| (*key as u32, image.as_slice()))
        .collect();
    let mut heads = journal.values().filter(|w| w.first() == Some(&1));
    let (Some(head), None) = (heads.next(), heads.next()) else {
        return Err(bad("the journal has no single head page"));
    };
    let (mut stamp, mut next, mut listed) = match **head {
        [1, stamp, next, n, ref ids @ ..] if ids.len() as u64 == n => (stamp, next, ids.to_vec()),
        _ => return Err(bad("malformed journal head page")),
    };
    let mut hops = 0;
    while next != u64::MAX {
        hops += 1;
        match journal.get(&(next as u32)).copied() {
            Some([3, more, n, ids @ ..]) if ids.len() as u64 == *n && hops <= journal.len() => {
                listed.extend_from_slice(ids);
                next = *more;
            }
            _ => return Err(bad("broken journal directory chain")),
        }
    }
    let mut live: HashMap<u64, Point> = HashMap::new();
    for id in listed {
        let Some([2, n, records @ ..]) = journal.get(&(id as u32)).copied() else {
            return Err(bad("the journal lists a missing record page"));
        };
        if n.checked_mul(4) != Some(records.len() as u64) {
            return Err(bad("malformed journal record page"));
        }
        for r in records.chunks_exact(4) {
            let &[op, x, score, s] = r else { continue };
            stamp = stamp.max(s);
            match op {
                OP_INSERT => live.insert(x, Point::new(x, score)),
                OP_DELETE => live.remove(&x),
                _ => return Err(bad("unknown journal op code")),
            };
        }
    }
    Ok(Some((live.into_values().collect(), stamp)))
}

/// One record of the page-image log.
enum WalItem {
    Page(u64, Vec<u64>),
    Free(u64),
    Commit(u64),
    Bind(String),
}

/// Parse the log record at the head of `words`: the record and the rest,
/// or `None` at the end of the log or at a torn or corrupt record.
fn wal_item(words: &[u64], block_words: usize) -> Option<(WalItem, &[u64])> {
    let (body_len, item) = match *words {
        [1, key, len, ref rest @ ..] if len as usize <= block_words => (
            3 + len as usize,
            WalItem::Page(key, rest.get(..len as usize)?.to_vec()),
        ),
        [2, key, ..] => (2, WalItem::Free(key)),
        [3, lsn, ..] => (2, WalItem::Commit(lsn)),
        [4, _, nbytes, ref rest @ ..] if nbytes <= 4096 => {
            let name_words = rest.get(..(nbytes as usize).div_ceil(8))?;
            let mut bytes: Vec<u8> = name_words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(nbytes as usize);
            (
                3 + name_words.len(),
                WalItem::Bind(String::from_utf8(bytes).ok()?),
            )
        }
        _ => return None,
    };
    let (body, rest) = words.split_at_checked(body_len)?;
    let (&crc, rest) = rest.split_first()?;
    (Fnv::of_words(&[body]) == crc).then_some((item, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("topk-backend-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    const B: usize = 16;

    fn seal(mut rec: Vec<u64>) -> Vec<u64> {
        rec.push(Fnv::of_words(&[&rec]));
        rec
    }

    fn bytes(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// A page-image directory written word by word: the journal (stable
    /// file 0) has a head page 0 listing record page 1.
    struct PageImageDir {
        lsn: u64,
        slots: Vec<u64>,
        wal: Vec<u64>,
    }

    impl PageImageDir {
        fn new(lsn: u64) -> Self {
            Self {
                lsn,
                slots: Vec::new(),
                wal: Vec::new(),
            }
        }

        fn head(stamp: u64) -> Vec<u64> {
            vec![1, stamp, u64::MAX, 1, 1]
        }

        fn records(recs: &[(u64, u64, u64, u64)]) -> Vec<u64> {
            let mut w = vec![2, recs.len() as u64];
            for &(op, x, score, stamp) in recs {
                w.extend([op, x, score, stamp]);
            }
            w
        }

        fn slot(mut self, page: u64, lsn: u64, image: &[u64]) -> Self {
            let head = [1, page, image.len() as u64, lsn];
            let mut slot = head.to_vec();
            slot.push(Fnv::of_words(&[&head, image]));
            slot.extend_from_slice(image);
            slot.resize(5 + B, 0);
            self.slots.extend(slot);
            self
        }

        fn log_page(mut self, page: u64, image: &[u64]) -> Self {
            let mut rec = vec![1, page, image.len() as u64];
            rec.extend_from_slice(image);
            self.wal.extend(seal(rec));
            self
        }

        fn log_commit(mut self, lsn: u64) -> Self {
            self.wal.extend(seal(vec![3, lsn]));
            self
        }

        fn read(self, tag: &str) -> (Vec<Point>, u64) {
            let dir = scratch(tag);
            let fs = StdFs::open(&dir).unwrap();
            let meta = format!(
                "topkmeta v1\nblock_words {B}\nlsn {}\nfile {JOURNAL_FILE}\n",
                self.lsn
            );
            fs.write_at("meta.topk", 0, meta.as_bytes()).unwrap();
            fs.write_at("data.topk", 0, &bytes(&self.slots)).unwrap();
            let mut wal = bytes(&self.wal);
            wal.extend_from_slice(&[7, 7, 7]);
            fs.write_at("wal.topk", 0, &wal).unwrap();
            let (mut points, stamp) = read_page_image_dir(&fs).unwrap().unwrap();
            points.sort_unstable_by_key(|p| p.x);
            std::fs::remove_dir_all(&dir).unwrap();
            (points, stamp)
        }
    }

    #[test]
    fn file_backend_commit_survives_reopen() {
        let dir = scratch("roundtrip");
        {
            let fs = StdFs::open(&dir).unwrap();
            fs.write_at("a.tmp", 0, b"abc").unwrap();
            fs.write_at("a.tmp", 3, b"de").unwrap();
            fs.fdatasync("a.tmp").unwrap();
            fs.rename_file("a.tmp", "a").unwrap();
            fs.truncate_file("b", 0).unwrap();
            fs.sync_dir().unwrap();
            fs.write_at("a", 5, b"f").unwrap();
            fs.fdatasync("a").unwrap();
        }
        let fs = StdFs::open(&dir).unwrap();
        assert_eq!(fs.read_file("a").unwrap().as_deref(), Some(&b"abcdef"[..]));
        assert_eq!(fs.read_file("a.tmp").unwrap(), None);
        assert_eq!(fs.read_file("b").unwrap(), Some(Vec::new()));
        fs.remove_file("b").unwrap();
        fs.remove_file("b").unwrap();
        assert_eq!(fs.read_file("b").unwrap(), None);
        drop(fs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_of_a_live_directory_is_refused() {
        let dir = scratch("lock");
        let first = StdFs::open(&dir).unwrap();
        // The advisory lock is per open file description: a second handle in
        // the same process is turned away like another process would be.
        let err = StdFs::open(&dir).unwrap_err();
        assert!(err.to_string().contains("lock.topk"), "{err}");
        drop(first);
        let again = StdFs::open(&dir).unwrap();
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_pages_vanish_on_reopen() {
        // Batch 1 is committed in the log; the record page logged after it
        // never got its commit record.
        let (points, stamp) = PageImageDir::new(0)
            .log_page(0, &PageImageDir::head(1))
            .log_page(1, &PageImageDir::records(&[(OP_INSERT, 5, 50, 1)]))
            .log_commit(1)
            .log_page(
                1,
                &PageImageDir::records(&[(OP_INSERT, 5, 50, 1), (OP_INSERT, 6, 60, 2)]),
            )
            .read("uncommitted");
        assert_eq!(points, vec![Point::new(5, 50)]);
        assert_eq!(stamp, 1);
    }

    #[test]
    fn kill_before_wal_fsync_loses_only_the_doomed_batch() {
        // Batch 1 was checkpointed into the slots; batch 2 was logged but
        // died before its commit record.
        let recs = [(OP_INSERT, 5, 50, 1), (OP_INSERT, 6, 60, 2)];
        let (points, stamp) = PageImageDir::new(1)
            .slot(0, 1, &PageImageDir::head(2))
            .slot(1, 1, &PageImageDir::records(&recs))
            .log_page(
                1,
                &PageImageDir::records(&[recs[0], recs[1], (OP_DELETE, 5, 50, 3)]),
            )
            .read("doomed");
        assert_eq!(points, vec![Point::new(5, 50), Point::new(6, 60)]);
        assert_eq!(stamp, 2);
    }

    #[test]
    fn kill_after_wal_fsync_replays_the_batch() {
        // The commit record of batch 2 is in the log but its pages never
        // reached the slots, which still hold batch 1.
        let recs = [
            (OP_INSERT, 5, 50, 1),
            (OP_INSERT, 6, 60, 2),
            (OP_DELETE, 5, 50, 3),
        ];
        let (points, stamp) = PageImageDir::new(1)
            .slot(0, 1, &PageImageDir::head(1))
            .slot(1, 1, &PageImageDir::records(&recs[..1]))
            .log_page(1, &PageImageDir::records(&recs))
            .log_page(0, &PageImageDir::head(3))
            .log_commit(2)
            .read("replay");
        assert_eq!(points, vec![Point::new(6, 60)]);
        assert_eq!(stamp, 3);
    }

    #[test]
    fn torn_wal_tail_is_discarded() {
        let whole = PageImageDir::new(0)
            .log_page(0, &PageImageDir::head(1))
            .log_page(1, &PageImageDir::records(&[(OP_INSERT, 5, 50, 1)]))
            .log_commit(1);
        // Half of a second batch's page record, then its commit record.
        let mut torn = seal(vec![1, 1, 6, 2, 1, OP_INSERT, 7, 70, 2]);
        torn.truncate(4);
        let mut dir = whole;
        dir.wal.extend(torn);
        dir.wal.extend(seal(vec![3, 2]));
        let (points, stamp) = dir.read("torn");
        assert_eq!(points, vec![Point::new(5, 50)]);
        assert_eq!(stamp, 1);
    }
}
