//! Logical durability: a snapshot plus a per-commit journal.
//!
//! The EM structures keep their nodes as plain Rust values in simulated
//! `BlockFile`s, so durability is *logical*: a [`DurableStore`] records the
//! validated operations of a durable index, each with the version stamp its
//! commit received, and recovery rebuilds the structures from the recovered
//! point set (DESIGN.md §10). A durable directory holds:
//!
//! * `snapshot.topk` — the live points at a stamp:
//!   `[magic, version, stamp, n, (x, score) × n, checksum]`;
//! * `journal.topk` — one frame per commit:
//!   `[n, (op, x, score, stamp) × n, checksum]`, so a batch is all or
//!   nothing;
//! * `lock.topk` — held by [`StdFs`](crate::StdFs) while the index lives.
//!
//! Every integer is a little-endian `u64` word and every checksum is
//! FNV-1a-64 over the bytes before it. Nothing stores the block size.
//!
//! A **commit** appends one frame and runs one `fdatasync`. A
//! **compaction** (the journal outgrew its live set, a global rebuild, a
//! bulk build, `snapshot_to`) writes and syncs `snapshot.topk.tmp`, renames
//! it over `snapshot.topk`, syncs the directory, then truncates and syncs
//! the journal. **Recovery** removes a stale tmp, loads the snapshot,
//! replays the frames whose stamps exceed the snapshot's, stops at the
//! first short or bad-checksum frame and truncates there before any append.
//! The stamp does the job of a generation number: every record of a
//! journal that outlived its compaction has a stamp at most the new
//! snapshot's. Every file call goes through a [`Medium`].
//!
//! Locking: the `wal` mutex guards only the in-RAM journal state (DESIGN.md
//! §8, class `wal`: no I/O while held); every medium call happens with it
//! released. Writers are serialized by their caller: a bare index's
//! single-writer contract, or the write lock of a durable handle's one shard.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use emsim::{Device, DurableStats};
use epst::Point;

use crate::backend::{read_page_image_dir, Medium, PAGE_IMAGE_FILES};
use crate::error::{Result, TopKError};
use crate::index::check_distinct;

/// Journal record op code: the point was inserted.
pub(crate) const OP_INSERT: u64 = 1;
/// Journal record op code: the point was deleted.
pub(crate) const OP_DELETE: u64 = 2;

const SNAPSHOT: &str = "snapshot.topk";
const SNAPSHOT_TMP: &str = "snapshot.topk.tmp";
const JOURNAL: &str = "journal.topk";
const MAGIC: u64 = u64::from_le_bytes(*b"topksnap");
const VERSION: u64 = 1;

/// Streaming FNV-1a-64 over the little-endian bytes of words.
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The checksum of the concatenation of `parts`.
    pub(crate) fn of_words(parts: &[&[u64]]) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for b in parts
            .iter()
            .flat_map(|p| p.iter())
            .flat_map(|w| w.to_le_bytes())
        {
            h.0 = (h.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h.0
    }
}

/// Bytes as little-endian words, dropping a trailing partial word.
pub(crate) fn to_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .filter_map(|c| c.try_into().ok().map(u64::from_le_bytes))
        .collect()
}

/// `words` plus their checksum, as bytes.
fn sealed(mut words: Vec<u64>) -> Vec<u8> {
    words.push(Fnv::of_words(&[&words]));
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// One journalled operation: `op` ([`OP_INSERT`] / [`OP_DELETE`]) applied to
/// `(x, score)` by the commit that received version stamp `stamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub op: u64,
    pub x: u64,
    pub score: u64,
    pub stamp: u64,
}

/// The frame of one commit.
pub(crate) fn encode_frame(records: &[Record]) -> Vec<u8> {
    let mut words = Vec::with_capacity(2 + 4 * records.len());
    words.push(records.len() as u64);
    for r in records {
        words.extend([r.op, r.x, r.score, r.stamp]);
    }
    sealed(words)
}

/// The records of the journal's intact frames, in order, and the byte length
/// of that intact prefix: parsing stops at the first short frame, empty
/// frame or bad checksum.
pub(crate) fn decode_frames(bytes: &[u8]) -> (Vec<Record>, u64) {
    let words = to_words(bytes);
    let mut rest = words.as_slice();
    let mut records = Vec::new();
    let mut intact = 0u64;
    while let Some((&n, body)) = rest.split_first() {
        let Some(len) = usize::try_from(n)
            .ok()
            .filter(|&n| n > 0 && n <= body.len() / 4)
        else {
            break;
        };
        let (recs, tail) = body.split_at(4 * len);
        let Some((&crc, tail)) = tail.split_first() else {
            break;
        };
        if Fnv::of_words(&[&[n], recs]) != crc {
            break;
        }
        records.extend(recs.chunks_exact(4).filter_map(|r| match *r {
            [op, x, score, stamp] => Some(Record {
                op,
                x,
                score,
                stamp,
            }),
            _ => None,
        }));
        intact += 8 * (2 + 4 * len as u64);
        rest = tail;
    }
    (records, intact)
}

/// The snapshot of `points` at `stamp`.
pub(crate) fn encode_snapshot(points: &[Point], stamp: u64) -> Vec<u8> {
    let mut words = Vec::with_capacity(5 + 2 * points.len());
    words.extend([MAGIC, VERSION, stamp, points.len() as u64]);
    for p in points {
        words.extend([p.x, p.score]);
    }
    sealed(words)
}

/// The points and stamp of a snapshot; any damage is an error.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> std::result::Result<(Vec<Point>, u64), String> {
    let words = to_words(bytes);
    let corrupt = |what: &str| format!("{SNAPSHOT}: {what}");
    let Some((&crc, body)) = words.split_last().filter(|_| bytes.len().is_multiple_of(8)) else {
        return Err(corrupt("truncated"));
    };
    if Fnv::of_words(&[body]) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    match *body {
        [MAGIC, VERSION, stamp, n, ref pairs @ ..]
            if n.checked_mul(2) == Some(pairs.len() as u64) =>
        {
            let points = pairs
                .chunks_exact(2)
                .filter_map(|c| match *c {
                    [x, score] => Some(Point::new(x, score)),
                    _ => None,
                })
                .collect();
            Ok((points, stamp))
        }
        _ => Err(corrupt("bad header")),
    }
}

/// Wrap a medium failure with the call and the file it hit.
fn failed(call: &'static str, name: &'static str) -> impl FnOnce(std::io::Error) -> String {
    move |e| format!("{call} {name}: {e}")
}

fn storage(what: String) -> TopKError {
    TopKError::Storage { what }
}

/// Steps 1–3 of a compaction, also the last step of converting a
/// page-image directory: write and sync the tmp, rename it over the
/// snapshot, sync the directory.
fn install_snapshot(
    medium: &dyn Medium,
    points: &[Point],
    stamp: u64,
) -> std::result::Result<(), String> {
    let bytes = encode_snapshot(points, stamp);
    medium
        .write_at(SNAPSHOT_TMP, 0, &bytes)
        .map_err(failed("write", SNAPSHOT_TMP))?;
    medium
        .fdatasync(SNAPSHOT_TMP)
        .map_err(failed("fdatasync", SNAPSHOT_TMP))?;
    medium
        .rename_file(SNAPSHOT_TMP, SNAPSHOT)
        .map_err(failed("rename", SNAPSHOT_TMP))?;
    medium.sync_dir().map_err(failed("sync", "the directory"))
}

/// In-RAM journal state, guarded by the `wal` mutex. Pure bookkeeping: no
/// medium call happens while it is locked.
#[derive(Debug, Default)]
struct Journal {
    /// Records of the operation in progress, written by the next commit.
    pending: Vec<Record>,
    /// Byte length of `journal.topk`: where the next frame goes.
    len: u64,
    /// Records in `journal.topk`.
    records: u64,
    /// The failure that killed the journal; every later commit returns it.
    dead: Option<String>,
}

/// The journal of a durable [`TopKIndex`](crate::TopKIndex): buffers the
/// records of each operation, commits them as one synced frame, replays
/// snapshot and journal at open, and compacts the journal into a snapshot
/// when it outgrows the live set.
#[derive(Debug)]
pub(crate) struct DurableStore {
    medium: Arc<dyn Medium>,
    /// Where the journal's [`DurableStats`] are counted.
    device: Device,
    wal: Mutex<Journal>,
}

impl DurableStore {
    /// Open (or create) the store on `medium` and recover it: returns the
    /// store, the live points and the recovered version stamp. A directory
    /// in the page-image format converts once, here.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if a medium call fails, the snapshot is
    /// damaged, or the journal holds a record no commit could have written.
    pub(crate) fn open(
        medium: Arc<dyn Medium>,
        device: &Device,
    ) -> Result<(Self, Vec<Point>, u64)> {
        let m = medium.as_ref();
        let mut stats = DurableStats::default();
        m.remove_file(SNAPSHOT_TMP)
            .map_err(failed("remove", SNAPSHOT_TMP))
            .map_err(storage)?;
        let (points, snap_stamp) = match m
            .read_file(SNAPSHOT)
            .map_err(failed("read", SNAPSHOT))
            .map_err(storage)?
        {
            Some(bytes) => {
                stats.preads += 1;
                decode_snapshot(&bytes).map_err(storage)?
            }
            None => match read_page_image_dir(m).map_err(storage)? {
                Some((points, stamp)) => {
                    install_snapshot(m, &points, stamp).map_err(storage)?;
                    (points, stamp)
                }
                None => (Vec::new(), 0),
            },
        };
        for old in PAGE_IMAGE_FILES {
            m.remove_file(old)
                .map_err(failed("remove", old))
                .map_err(storage)?;
        }
        let journal = m
            .read_file(JOURNAL)
            .map_err(failed("read", JOURNAL))
            .map_err(storage)?;
        stats.preads += u64::from(journal.is_some());
        let bytes = journal.as_deref().unwrap_or_default();
        let (records, intact) = decode_frames(bytes);

        check_distinct(&points).map_err(|e| storage(format!("{SNAPSHOT}: {e}")))?;
        stats.recovered_pages = points.len() as u64;
        let mut live: HashMap<u64, Point> = points.into_iter().map(|p| (p.x, p)).collect();
        let mut stamp = snap_stamp;
        let mut prev = 0;
        for r in &records {
            let bad = |what: &str| storage(format!("{JOURNAL}: record {r:?} {what}"));
            if r.stamp <= prev {
                return Err(bad("does not advance the stamp"));
            }
            prev = r.stamp;
            if r.stamp <= snap_stamp {
                continue;
            }
            let p = Point::new(r.x, r.score);
            let applied = match r.op {
                OP_INSERT => live.insert(r.x, p).is_none(),
                OP_DELETE => live.remove(&r.x) == Some(p),
                _ => return Err(bad("has an unknown op code")),
            };
            if !applied {
                return Err(bad("does not apply to the live set"));
            }
            stamp = r.stamp;
            stats.recovered_pages += 1;
        }
        let points: Vec<Point> = live.into_values().collect();
        check_distinct(&points).map_err(|e| storage(format!("{JOURNAL}: {e}")))?;

        if journal.is_none() {
            m.write_at(JOURNAL, 0, &[])
                .map_err(failed("create", JOURNAL))
                .map_err(storage)?;
        } else if intact < bytes.len() as u64 {
            m.truncate_file(JOURNAL, intact)
                .map_err(failed("truncate", JOURNAL))
                .and_then(|()| m.fdatasync(JOURNAL).map_err(failed("fdatasync", JOURNAL)))
                .map_err(storage)?;
        }
        m.sync_dir()
            .map_err(failed("sync", "the directory"))
            .map_err(storage)?;
        device.add_durable(stats);
        let store = Self {
            medium,
            device: device.clone(),
            wal: Mutex::new(Journal {
                len: intact,
                records: records.len() as u64,
                ..Journal::default()
            }),
        };
        Ok((store, points, stamp))
    }

    /// Buffer one operation record for the next [`commit`](Self::commit).
    /// Callers are serialized by the topology's write-side locking.
    pub(crate) fn append(&self, op: u64, p: Point, stamp: u64) {
        self.wal.lock().unwrap().pending.push(Record {
            op,
            x: p.x,
            score: p.score,
            stamp,
        });
    }

    /// Make the buffered records durable: append them as one frame and sync
    /// the journal. A no-op when nothing is buffered.
    ///
    /// # Errors
    ///
    /// [`TopKError::Storage`] if this or any earlier medium call failed.
    pub(crate) fn commit(&self) -> Result<()> {
        let (frame, offset, count) = {
            let j = self.wal.lock().unwrap();
            if let Some(e) = &j.dead {
                return Err(storage(e.clone()));
            }
            if j.pending.is_empty() {
                return Ok(());
            }
            (encode_frame(&j.pending), j.len, j.pending.len() as u64)
        };
        let m = self.medium.as_ref();
        let result = m
            .write_at(JOURNAL, offset, &frame)
            .map_err(failed("append to", JOURNAL))
            .and_then(|()| m.fdatasync(JOURNAL).map_err(failed("fdatasync", JOURNAL)));
        let mut j = self.wal.lock().unwrap();
        if let Err(e) = result {
            j.dead = Some(e.clone());
            return Err(storage(e));
        }
        j.pending.clear();
        j.len += frame.len() as u64;
        j.records += count;
        drop(j);
        self.device.add_durable(DurableStats {
            wal_bytes: frame.len() as u64,
            commits: 1,
            pwrites: 1,
            ..DurableStats::default()
        });
        Ok(())
    }

    /// Whether the journal (buffered records included) has outgrown the
    /// live set it describes and should be compacted.
    pub(crate) fn needs_compact(&self, live: u64) -> bool {
        let j = self.wal.lock().unwrap();
        j.records + j.pending.len() as u64 > (4 * live).max(256)
    }

    /// Replace snapshot and journal by a snapshot of `points` at `stamp`.
    /// Buffered records are dropped: their effects are part of `points`.
    /// A failure kills the journal, and the next commit reports it.
    pub(crate) fn compact(&self, points: &[Point], stamp: u64) {
        {
            let mut j = self.wal.lock().unwrap();
            if j.dead.is_some() {
                return;
            }
            j.pending.clear();
        }
        let m = self.medium.as_ref();
        let result = install_snapshot(m, points, stamp).and_then(|()| {
            m.truncate_file(JOURNAL, 0)
                .map_err(failed("truncate", JOURNAL))?;
            m.fdatasync(JOURNAL).map_err(failed("fdatasync", JOURNAL))
        });
        let mut j = self.wal.lock().unwrap();
        match result {
            Ok(()) => {
                j.len = 0;
                j.records = 0;
                drop(j);
                self.device.add_durable(DurableStats {
                    checkpoints: 1,
                    pwrites: 1,
                    ..DurableStats::default()
                });
            }
            Err(e) => j.dead = Some(e),
        }
    }

    /// Journal size in records, buffered records included (test support).
    #[cfg(test)]
    pub(crate) fn record_count(&self) -> u64 {
        let j = self.wal.lock().unwrap();
        j.records + j.pending.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StdFs;
    use emsim::EmConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("topk-persist-{tag}-{}-{n}", std::process::id()))
    }

    fn open(dir: &std::path::Path) -> (DurableStore, Vec<Point>, u64, Device) {
        let device = Device::new(EmConfig::new(128, 128 * 32));
        let fs = Arc::new(StdFs::open(dir).unwrap());
        let (store, mut points, stamp) = DurableStore::open(fs, &device).unwrap();
        points.sort_by_key(|p| p.x);
        (store, points, stamp, device)
    }

    #[test]
    fn frames_and_snapshots_round_trip() {
        let recs = [
            Record {
                op: OP_INSERT,
                x: 7,
                score: 42,
                stamp: 1,
            },
            Record {
                op: OP_DELETE,
                x: 7,
                score: 42,
                stamp: 2,
            },
        ];
        let mut journal = encode_frame(&recs[..1]);
        journal.extend(encode_frame(&recs[1..]));
        assert_eq!(
            decode_frames(&journal),
            (recs.to_vec(), journal.len() as u64)
        );
        // A short frame, a bad checksum and an empty frame all end the log.
        let first = encode_frame(&recs[..1]).len() as u64;
        let short = &journal[..journal.len() - 1];
        assert_eq!(decode_frames(short), (recs[..1].to_vec(), first));
        let mut flipped = journal.clone();
        flipped[journal.len() - 3] ^= 1;
        assert_eq!(decode_frames(&flipped), (recs[..1].to_vec(), first));
        assert_eq!(decode_frames(&sealed(vec![0])), (Vec::new(), 0));
        // A corrupt count cannot ask for more records than the file holds.
        assert_eq!(decode_frames(&sealed(vec![u64::MAX, 1])), (Vec::new(), 0));

        let points = vec![Point::new(3, 30), Point::new(1, 10)];
        let snap = encode_snapshot(&points, 9);
        assert_eq!(decode_snapshot(&snap), Ok((points, 9)));
        assert_eq!(
            decode_snapshot(&encode_snapshot(&[], 0)),
            Ok((Vec::new(), 0))
        );
        assert!(decode_snapshot(&snap[..snap.len() - 8]).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }

    #[test]
    fn journal_replays_its_operation_stream_across_reopen() {
        let dir = scratch_dir("replay");
        {
            let (store, points, stamp, _) = open(&dir);
            assert!(points.is_empty());
            assert_eq!(stamp, 0);
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.append(OP_INSERT, Point::new(2, 20), 2);
            store.commit().unwrap();
            store.append(OP_INSERT, Point::new(3, 30), 3);
            store.append(OP_DELETE, Point::new(2, 20), 4);
            store.commit().unwrap();
        }
        let (_store, points, stamp, device) = open(&dir);
        assert_eq!(points, vec![Point::new(1, 10), Point::new(3, 30)]);
        assert_eq!(stamp, 4);
        assert_eq!(device.durable_stats().recovered_pages, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_appends_do_not_survive_reopen() {
        let dir = scratch_dir("uncommitted");
        {
            let (store, _, _, _) = open(&dir);
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.commit().unwrap();
            // Buffered but never committed: must vanish.
            store.append(OP_INSERT, Point::new(2, 20), 2);
        }
        let (_store, points, stamp, _) = open(&dir);
        assert_eq!(points, vec![Point::new(1, 10)]);
        assert_eq!(stamp, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_appends_stay_buffered() {
        let dir = scratch_dir("buffered");
        let (store, _, _, device) = open(&dir);
        store.append(OP_INSERT, Point::new(1, 10), 1);
        store.append(OP_INSERT, Point::new(2, 20), 2);
        assert_eq!(store.record_count(), 2, "buffered records are counted");
        let stats = device.durable_stats();
        assert_eq!(
            (stats.commits, stats.wal_bytes),
            (0, 0),
            "append alone writes nothing"
        );
        store.commit().unwrap();
        let stats = device.durable_stats();
        // One frame: a count word, two 4-word records and a checksum.
        assert_eq!(
            (stats.commits, stats.pwrites, stats.wal_bytes),
            (1, 1, 8 * 10)
        );
        assert_eq!(store.record_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_rewrites_the_stream_as_a_snapshot() {
        let dir = scratch_dir("compact");
        let points: Vec<Point> = (0..200u64).map(|i| Point::new(i, i + 1000)).collect();
        {
            let (store, _, _, device) = open(&dir);
            // Churn: insert everything, then delete and reinsert it.
            let mut stamp = 0;
            for p in &points {
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
            }
            store.commit().unwrap();
            for p in &points {
                stamp += 1;
                store.append(OP_DELETE, *p, stamp);
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
                store.commit().unwrap();
            }
            assert_eq!(store.record_count(), 600);
            assert!(store.needs_compact(100));
            store.compact(&points, stamp);
            assert_eq!(store.record_count(), 0);
            assert_eq!(device.durable_stats().checkpoints, 1);
            store.commit().unwrap();
        }
        let journal = std::fs::metadata(dir.join(JOURNAL)).unwrap().len();
        assert_eq!(journal, 0, "compaction truncates the journal");
        let (store, got, stamp, _) = open(&dir);
        assert_eq!(got, points);
        assert_eq!(stamp, 600);
        assert!(!store.needs_compact(points.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
