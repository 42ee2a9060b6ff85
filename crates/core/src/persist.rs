//! Logical durability: the operation journal behind a durable device.
//!
//! The EM structures of this workspace keep their nodes as plain Rust values
//! in simulated [`BlockFile`]s — persisting every PST node image would couple
//! the on-disk format to three evolving component layouts. Durability is
//! therefore *logical*: a [`DurableStore`] records the validated operation
//! stream (insert/delete, each with the version stamp its commit received)
//! in one journal file whose pages have a real wire form ([`PersistPage`]),
//! and recovery replays that stream into an empty index. The journal rides
//! the device's [`StorageBackend`](emsim::StorageBackend) write-ahead log,
//! so a crash leaves exactly the operations of the last committed batch —
//! nothing torn, nothing resurrected (DESIGN.md §10).
//!
//! Layout: a **meta chain** (the directory of data pages, in append order,
//! plus the last durable stamp) and a chain of **data pages** holding
//! fixed-width operation records. The directory starts in the single head
//! meta page and spills into linked continuation pages once it outgrows one
//! block, so the durable index size is bounded by the device, not by one
//! block's worth of directory entries. `compact` rewrites the whole journal
//! as a snapshot of the live point set (one insert record per point), which
//! bounds the journal at `O(n/B)` blocks plus the operations since the last
//! compaction.
//!
//! Appends are buffered: [`DurableStore::append`] only pushes the record
//! into an in-RAM pending list, and [`DurableStore::flush`] — run once per
//! durable commit, just before the backend commit — writes the records into
//! data pages. A commit therefore logs one tail-page image (plus whole new
//! pages) instead of re-logging the tail page once per operation, keeping
//! the backend's WAL volume per commit at `O(pages touched)` page images.
//!
//! Locking: the `wal` mutex guards only the in-RAM directory state
//! (DESIGN.md §8, class `wal` — I/O while holding it is forbidden); every
//! [`BlockFile`] access happens outside the guard. Writers are serialized by
//! the serving topology (`Single`'s single-writer contract or the write lock
//! of a durable index's one shard — the builder rejects more shards), so the
//! copy-out/update protocol below never interleaves.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use emsim::{entries_per_block, BackendError, BackendResult, BlockFile, Device, PageId};
use emsim::{Page, PersistPage};
use epst::Point;

/// Journal record op code: the point was inserted.
pub(crate) const OP_INSERT: u8 = 1;
/// Journal record op code: the point was deleted.
pub(crate) const OP_DELETE: u8 = 2;

const TAG_META: u64 = 1;
const TAG_DATA: u64 = 2;
const TAG_META_CONT: u64 = 3;
/// On-disk sentinel for "no continuation page follows".
const NO_NEXT: u64 = u64::MAX;

fn encode_next(next: Option<u32>) -> u64 {
    next.map_or(NO_NEXT, u64::from)
}

fn decode_next(word: u64) -> Option<Option<u32>> {
    if word == NO_NEXT {
        Some(None)
    } else {
        u32::try_from(word).ok().map(Some)
    }
}

/// One journalled operation: `op` ([`OP_INSERT`] / [`OP_DELETE`]) applied to
/// the point `(x, score)` by the commit that received version stamp `stamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JRecord {
    pub op: u8,
    pub x: u64,
    pub score: u64,
    pub stamp: u64,
}

impl JRecord {
    /// On-disk width of one record, in words.
    pub(crate) const WORDS: usize = 4;
}

/// A page of the journal file: the head meta page (start of the directory of
/// data pages, plus the last durable stamp), a continuation of the directory
/// chain, or a data page of operation records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JPage {
    /// The head of the journal directory: data-page ids in append order,
    /// continued in `next` when the directory outgrows one block.
    Meta {
        pages: Vec<u32>,
        last_stamp: u64,
        next: Option<u32>,
    },
    /// A continuation of the directory chain.
    MetaCont { pages: Vec<u32>, next: Option<u32> },
    /// A chunk of the operation stream.
    Data { records: Vec<JRecord> },
}

impl Page for JPage {
    fn words(&self) -> usize {
        match self {
            JPage::Meta { pages, .. } => 4 + pages.len(),
            JPage::MetaCont { pages, .. } => 3 + pages.len(),
            JPage::Data { records } => 2 + records.len() * JRecord::WORDS,
        }
    }
}

impl PersistPage for JPage {
    fn encode(&self, out: &mut Vec<u64>) {
        match self {
            JPage::Meta {
                pages,
                last_stamp,
                next,
            } => {
                out.push(TAG_META);
                out.push(*last_stamp);
                out.push(encode_next(*next));
                out.push(pages.len() as u64);
                out.extend(pages.iter().map(|p| u64::from(*p)));
            }
            JPage::MetaCont { pages, next } => {
                out.push(TAG_META_CONT);
                out.push(encode_next(*next));
                out.push(pages.len() as u64);
                out.extend(pages.iter().map(|p| u64::from(*p)));
            }
            JPage::Data { records } => {
                out.push(TAG_DATA);
                out.push(records.len() as u64);
                for r in records {
                    out.push(u64::from(r.op));
                    out.push(r.x);
                    out.push(r.score);
                    out.push(r.stamp);
                }
            }
        }
    }

    fn decode(words: &[u64]) -> Option<Self> {
        let mut it = words.iter().copied();
        match it.next()? {
            TAG_META => {
                let last_stamp = it.next()?;
                let next = decode_next(it.next()?)?;
                let n = it.next()? as usize;
                // A corrupt count cannot ask for more entries than the image
                // holds (guards the `with_capacity` below, too).
                if n > words.len() {
                    return None;
                }
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(u32::try_from(it.next()?).ok()?);
                }
                Some(JPage::Meta {
                    pages,
                    last_stamp,
                    next,
                })
            }
            TAG_META_CONT => {
                let next = decode_next(it.next()?)?;
                let n = it.next()? as usize;
                if n > words.len() {
                    return None;
                }
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(u32::try_from(it.next()?).ok()?);
                }
                Some(JPage::MetaCont { pages, next })
            }
            TAG_DATA => {
                let n = it.next()? as usize;
                if n > words.len() {
                    return None;
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let op = u8::try_from(it.next()?).ok()?;
                    let x = it.next()?;
                    let score = it.next()?;
                    let stamp = it.next()?;
                    records.push(JRecord {
                        op,
                        x,
                        score,
                        stamp,
                    });
                }
                Some(JPage::Data { records })
            }
            _ => None,
        }
    }
}

/// In-RAM directory state of the journal, guarded by the `wal` mutex. Pure
/// bookkeeping — no device I/O happens while this is locked.
#[derive(Debug)]
struct JournalSlate {
    /// The directory chain in order: the head meta page first, then its
    /// continuations. Never empty (a fresh store allocates the head).
    metas: Vec<PageId>,
    /// Directory entries in the chain's last page.
    dir_tail_len: usize,
    /// Data pages in append order (mirrors the durable directory chain).
    pages: Vec<PageId>,
    /// Records in the last data page.
    tail_len: usize,
    /// Records per data page.
    cap: usize,
    /// Data-page ids the head meta page can list before filling its block.
    head_cap: usize,
    /// Data-page ids a continuation page can list before filling its block.
    cont_cap: usize,
    /// Highest stamp appended so far.
    last_stamp: u64,
    /// Records across all data pages (excluding `pending`).
    total_records: u64,
    /// Appended records not yet written into data pages; drained by
    /// [`DurableStore::flush`] once per durable commit.
    pending: Vec<JRecord>,
}

/// The operation journal of a durable [`TopKIndex`](crate::TopKIndex):
/// appends validated operations, replays them at open, and compacts to a
/// live-set snapshot when the stream outgrows the set it describes.
///
/// Durability granularity is the device's backend commit: appends are
/// buffered in RAM, [`flush`](DurableStore::flush)ed into journal pages (and
/// thereby into the backend's WAL) and become durable only when
/// [`TopKIndex::durable_commit`](crate::TopKIndex) runs at the end of the
/// public operation (one commit per insert/delete/batch).
#[derive(Debug)]
pub(crate) struct DurableStore {
    journal: BlockFile<JPage>,
    wal: Mutex<JournalSlate>,
}

impl DurableStore {
    /// Open (or create) the journal on `device` and replay it: returns the
    /// store, the recovered live point set, and the recovered version stamp.
    pub(crate) fn open(device: &Device) -> BackendResult<(Self, Vec<Point>, u64)> {
        let journal: BlockFile<JPage> = device.open_durable_file("topk.journal")?;
        let block_words = device.block_words();
        let cap = entries_per_block(block_words, 2, JRecord::WORDS, 4);
        let head_cap = block_words.saturating_sub(4).max(4);
        let cont_cap = block_words.saturating_sub(3).max(4);

        // Classify the recovered pages: exactly one head meta (a fresh store
        // has none and allocates one), any number of continuations, and the
        // data pages.
        enum Kind {
            Head(Vec<u32>, u64, Option<u32>),
            Cont(Vec<u32>, Option<u32>),
            Data,
        }
        let mut head: Option<(PageId, Vec<u32>, u64, Option<u32>)> = None;
        let mut conts: HashMap<PageId, (Vec<u32>, Option<u32>)> = HashMap::new();
        let mut data_live: HashSet<PageId> = HashSet::new();
        for id in journal.live_ids() {
            let kind = journal.with(id, |p| match p {
                JPage::Meta {
                    pages,
                    last_stamp,
                    next,
                } => Kind::Head(pages.clone(), *last_stamp, *next),
                JPage::MetaCont { pages, next } => Kind::Cont(pages.clone(), *next),
                JPage::Data { .. } => Kind::Data,
            });
            match kind {
                Kind::Head(pages, stamp, next) => {
                    if head.is_some() {
                        return Err(BackendError::Corrupt(
                            "journal holds more than one head meta page".to_string(),
                        ));
                    }
                    head = Some((id, pages, stamp, next));
                }
                Kind::Cont(pages, next) => {
                    conts.insert(id, (pages, next));
                }
                Kind::Data => {
                    data_live.insert(id);
                }
            }
        }
        let (meta, listed_head, mut stamp, head_next) = match head {
            Some(h) => h,
            None => {
                let id = journal.alloc(JPage::Meta {
                    pages: Vec::new(),
                    last_stamp: 0,
                    next: None,
                });
                (id, Vec::new(), 0, None)
            }
        };

        // Walk the directory chain, concatenating its listings. Visited
        // continuations leave `conts`; whatever remains is unreachable and
        // cannot hold committed directory state — drop it below.
        let mut metas = vec![meta];
        let mut dir_tail_len = listed_head.len();
        let mut listed = listed_head;
        let mut next = head_next;
        while let Some(n) = next {
            let pid = PageId(n);
            let Some((pgs, nx)) = conts.remove(&pid) else {
                return Err(BackendError::Corrupt(format!(
                    "journal meta chain names page {n}, which is not a live \
                     continuation page"
                )));
            };
            dir_tail_len = pgs.len();
            listed.extend(pgs);
            metas.push(pid);
            next = nx;
        }
        for orphan in conts.into_keys() {
            journal.free(orphan);
        }

        // Replay the operation stream in directory order.
        let mut map: HashMap<u64, Point> = HashMap::new();
        let mut pages: Vec<PageId> = Vec::with_capacity(listed.len());
        let mut tail_len = 0usize;
        let mut total_records = 0u64;
        for raw in &listed {
            let pid = PageId(*raw);
            if !data_live.remove(&pid) {
                return Err(BackendError::Corrupt(format!(
                    "journal meta lists page {raw}, which did not survive recovery"
                )));
            }
            let recs = journal.with(pid, |p| match p {
                JPage::Data { records } => Some(records.clone()),
                JPage::Meta { .. } | JPage::MetaCont { .. } => None,
            });
            let Some(recs) = recs else {
                return Err(BackendError::Corrupt(format!(
                    "journal meta lists page {raw}, which is not a data page"
                )));
            };
            tail_len = recs.len();
            total_records += recs.len() as u64;
            for r in &recs {
                stamp = stamp.max(r.stamp);
                match r.op {
                    OP_INSERT => {
                        map.insert(r.x, Point::new(r.x, r.score));
                    }
                    OP_DELETE => {
                        map.remove(&r.x);
                    }
                    other => {
                        return Err(BackendError::Corrupt(format!(
                            "unknown journal op code {other}"
                        )))
                    }
                }
            }
            pages.push(pid);
        }
        // Pages the backend recovered but the committed directory does not
        // list cannot hold committed operations — drop them.
        for orphan in data_live {
            journal.free(orphan);
        }

        let store = Self {
            journal,
            wal: Mutex::new(JournalSlate {
                metas,
                dir_tail_len,
                pages,
                tail_len,
                cap,
                head_cap,
                cont_cap,
                last_stamp: stamp,
                total_records,
                pending: Vec::new(),
            }),
        };
        Ok((store, map.into_values().collect(), stamp))
    }

    /// Buffer one operation record. Written to journal pages by the next
    /// [`flush`](Self::flush) and durable at the next device commit. Callers
    /// are serialized by the topology's write-side locking. Costs no I/O.
    pub(crate) fn append(&self, op: u8, p: Point, stamp: u64) {
        let mut st = self.wal.lock().unwrap();
        st.pending.push(JRecord {
            op,
            x: p.x,
            score: p.score,
            stamp,
        });
        st.last_stamp = stamp;
    }

    /// Drain the buffered records into journal data pages: top up the tail
    /// page (one page image into the backend WAL regardless of how many
    /// records arrived) and append whole new pages for the remainder,
    /// growing the directory chain as needed. Run once per durable commit,
    /// just before the backend commit.
    pub(crate) fn flush(&self) {
        // Copy the plan out, then do all file I/O with the guard released.
        let (pending, tail, cap) = {
            let mut st = self.wal.lock().unwrap();
            if st.pending.is_empty() {
                return;
            }
            let pending = std::mem::take(&mut st.pending);
            let tail = st
                .pages
                .last()
                .copied()
                .map(|p| (p, st.tail_len))
                .filter(|(_, len)| *len < st.cap);
            (pending, tail, st.cap)
        };
        let mut recs = pending.as_slice();
        if let Some((pid, tail_len)) = tail {
            let take = (cap - tail_len).min(recs.len());
            let (chunk, rest) = recs.split_at(take);
            let chunk = chunk.to_vec();
            self.journal.with_mut(pid, |page| {
                if let JPage::Data { records } = page {
                    records.extend_from_slice(&chunk);
                }
            });
            let mut st = self.wal.lock().unwrap();
            st.tail_len += take;
            st.total_records += take as u64;
            recs = rest;
        }
        for chunk in recs.chunks(cap) {
            let pid = self.journal.alloc(JPage::Data {
                records: chunk.to_vec(),
            });
            {
                let mut st = self.wal.lock().unwrap();
                st.pages.push(pid);
                st.tail_len = chunk.len();
                st.total_records += chunk.len() as u64;
            }
            self.link_page(pid);
        }
    }

    /// Record a freshly allocated data page in the directory chain: append
    /// its id to the chain's tail page, growing the chain with a linked
    /// continuation page when the tail is full.
    fn link_page(&self, pid: PageId) {
        enum Plan {
            /// Room in the chain's tail page: push the id there.
            Tail { meta: PageId, stamp: u64 },
            /// Tail full: allocate a continuation and link it from `prev`.
            Grow { prev: PageId },
        }
        let plan = {
            let mut st = self.wal.lock().unwrap();
            let meta = *st
                .metas
                .last()
                .expect("directory chain holds at least the head meta page");
            let cap = if st.metas.len() == 1 {
                st.head_cap
            } else {
                st.cont_cap
            };
            if st.dir_tail_len < cap {
                st.dir_tail_len += 1;
                Plan::Tail {
                    meta,
                    stamp: st.last_stamp,
                }
            } else {
                Plan::Grow { prev: meta }
            }
        };
        match plan {
            Plan::Tail { meta, stamp } => {
                self.journal.with_mut(meta, |page| match page {
                    JPage::Meta {
                        pages, last_stamp, ..
                    } => {
                        pages.push(pid.0);
                        *last_stamp = stamp;
                    }
                    JPage::MetaCont { pages, .. } => pages.push(pid.0),
                    JPage::Data { .. } => {}
                });
            }
            Plan::Grow { prev } => {
                let cont = self.journal.alloc(JPage::MetaCont {
                    pages: vec![pid.0],
                    next: None,
                });
                {
                    let mut st = self.wal.lock().unwrap();
                    st.metas.push(cont);
                    st.dir_tail_len = 1;
                }
                self.journal.with_mut(prev, |page| match page {
                    JPage::Meta { next, .. } | JPage::MetaCont { next, .. } => {
                        *next = Some(cont.0);
                    }
                    JPage::Data { .. } => {}
                });
            }
        }
    }

    /// Whether the journal (including still-buffered appends) has outgrown
    /// the live set it describes and should be compacted.
    pub(crate) fn needs_compact(&self, live: u64) -> bool {
        let st = self.wal.lock().unwrap();
        st.total_records + st.pending.len() as u64 > (4 * live).max(256)
    }

    /// Rewrite the journal as a snapshot of `points` at `stamp`: every old
    /// data page and directory continuation is freed and the live set is
    /// re-journalled as insert records. Buffered appends are dropped — their
    /// effects are part of `points`. Staged like flushes; durable at the
    /// next device commit.
    pub(crate) fn compact(&self, points: &[Point], stamp: u64) {
        let (head, cap, head_cap, cont_cap, old_data, old_conts) = {
            let mut st = self.wal.lock().unwrap();
            let old_data = std::mem::take(&mut st.pages);
            let old_conts = st.metas.split_off(1);
            let head = *st
                .metas
                .first()
                .expect("directory chain holds at least the head meta page");
            st.pending.clear();
            st.tail_len = 0;
            st.dir_tail_len = 0;
            st.total_records = 0;
            st.last_stamp = stamp;
            (head, st.cap, st.head_cap, st.cont_cap, old_data, old_conts)
        };
        for pid in old_data {
            self.journal.free(pid);
        }
        for pid in old_conts {
            self.journal.free(pid);
        }
        let mut new_pages = Vec::new();
        for chunk in points.chunks(cap) {
            let records = chunk
                .iter()
                .map(|p| JRecord {
                    op: OP_INSERT,
                    x: p.x,
                    score: p.score,
                    stamp,
                })
                .collect();
            new_pages.push(self.journal.alloc(JPage::Data { records }));
        }
        let ids: Vec<u32> = new_pages.iter().map(|p| p.0).collect();
        // Rebuild the directory chain: the head lists the first `head_cap`
        // ids, the remainder spills into continuations — allocated last to
        // first so each page already knows its successor.
        let head_take = ids.len().min(head_cap);
        let (head_ids, spill) = ids.split_at(head_take);
        let dir_tail_len = spill
            .chunks(cont_cap)
            .last()
            .map_or(head_take, <[u32]>::len);
        let mut next: Option<u32> = None;
        let mut conts: Vec<PageId> = Vec::new();
        for chunk in spill.chunks(cont_cap).rev() {
            let cont = self.journal.alloc(JPage::MetaCont {
                pages: chunk.to_vec(),
                next,
            });
            next = Some(cont.0);
            conts.push(cont);
        }
        conts.reverse();
        let head_pages = head_ids.to_vec();
        {
            let mut st = self.wal.lock().unwrap();
            st.tail_len = points.len() - new_pages.len().saturating_sub(1) * cap;
            st.dir_tail_len = dir_tail_len;
            st.total_records = points.len() as u64;
            st.pages = new_pages;
            st.metas.extend(conts);
        }
        self.journal.with_mut(head, move |page| {
            *page = JPage::Meta {
                pages: head_pages,
                last_stamp: stamp,
                next,
            };
        });
    }

    /// Journal size in records, buffered appends included (test support).
    #[cfg(test)]
    pub(crate) fn record_count(&self) -> u64 {
        let st = self.wal.lock().unwrap();
        st.total_records + st.pending.len() as u64
    }

    /// Length of the directory chain in meta pages (test support).
    #[cfg(test)]
    pub(crate) fn meta_chain_len(&self) -> usize {
        self.wal.lock().unwrap().metas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("topk-persist-{tag}-{}-{n}", std::process::id()))
    }

    fn file_device(dir: &std::path::Path) -> Device {
        Device::open(EmConfig::new(128, 128 * 32), dir).unwrap()
    }

    #[test]
    fn jpage_images_round_trip() {
        let pages = [
            JPage::Meta {
                pages: vec![3, 1, 4, 1, 5],
                last_stamp: 99,
                next: Some(12),
            },
            JPage::Meta {
                pages: vec![],
                last_stamp: 0,
                next: None,
            },
            JPage::MetaCont {
                pages: vec![9, 2, 6],
                next: Some(5),
            },
            JPage::MetaCont {
                pages: vec![],
                next: None,
            },
            JPage::Data {
                records: vec![
                    JRecord {
                        op: OP_INSERT,
                        x: 7,
                        score: 42,
                        stamp: 1,
                    },
                    JRecord {
                        op: OP_DELETE,
                        x: 7,
                        score: 42,
                        stamp: 2,
                    },
                ],
            },
            JPage::Data { records: vec![] },
        ];
        for p in &pages {
            let mut words = Vec::new();
            p.encode(&mut words);
            assert_eq!(words.len(), p.words(), "encode emits exactly words()");
            assert_eq!(JPage::decode(&words).as_ref(), Some(p));
        }
        assert_eq!(JPage::decode(&[]), None);
        assert_eq!(JPage::decode(&[77]), None);
        // A corrupt count must not decode (nor allocate absurdly).
        assert_eq!(JPage::decode(&[TAG_DATA, u64::MAX]), None);
        assert_eq!(JPage::decode(&[TAG_META, 1, NO_NEXT, u64::MAX]), None);
        assert_eq!(JPage::decode(&[TAG_META_CONT, NO_NEXT, u64::MAX]), None);
    }

    #[test]
    fn journal_replays_its_operation_stream_across_reopen() {
        let dir = scratch_dir("replay");
        {
            let device = file_device(&dir);
            let (store, points, stamp) = DurableStore::open(&device).unwrap();
            assert!(points.is_empty());
            assert_eq!(stamp, 0);
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.append(OP_INSERT, Point::new(2, 20), 2);
            store.append(OP_INSERT, Point::new(3, 30), 3);
            store.append(OP_DELETE, Point::new(2, 20), 4);
            store.flush();
            device.commit_backend().unwrap();
        }
        {
            let device = file_device(&dir);
            let (_store, mut points, stamp) = DurableStore::open(&device).unwrap();
            points.sort_by_key(|p| p.x);
            assert_eq!(points, vec![Point::new(1, 10), Point::new(3, 30)]);
            assert_eq!(stamp, 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_appends_do_not_survive_reopen() {
        let dir = scratch_dir("uncommitted");
        {
            let device = file_device(&dir);
            let (store, _, _) = DurableStore::open(&device).unwrap();
            store.append(OP_INSERT, Point::new(1, 10), 1);
            store.flush();
            device.commit_backend().unwrap();
            // Flushed into the backend WAL but never committed: must vanish.
            store.append(OP_INSERT, Point::new(2, 20), 2);
            store.flush();
        }
        {
            let device = file_device(&dir);
            let (_store, points, stamp) = DurableStore::open(&device).unwrap();
            assert_eq!(points, vec![Point::new(1, 10)]);
            assert_eq!(stamp, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_appends_stay_buffered() {
        let dir = scratch_dir("buffered");
        let device = file_device(&dir);
        let (store, _, _) = DurableStore::open(&device).unwrap();
        let before = device.durable_stats().wal_appends;
        store.append(OP_INSERT, Point::new(1, 10), 1);
        store.append(OP_INSERT, Point::new(2, 20), 2);
        assert_eq!(store.record_count(), 2, "pending records are counted");
        assert_eq!(
            device.durable_stats().wal_appends,
            before,
            "append alone must not touch the backend WAL"
        );
        store.flush();
        assert!(device.durable_stats().wal_appends > before);
        assert_eq!(store.record_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_rewrites_the_stream_as_a_snapshot() {
        let dir = scratch_dir("compact");
        let points: Vec<Point> = (0..200u64).map(|i| Point::new(i, i + 1000)).collect();
        {
            let device = file_device(&dir);
            let (store, _, _) = DurableStore::open(&device).unwrap();
            // Churn: insert everything twice via delete+reinsert.
            let mut stamp = 0;
            for p in &points {
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
            }
            store.flush();
            for p in &points {
                stamp += 1;
                store.append(OP_DELETE, *p, stamp);
                stamp += 1;
                store.append(OP_INSERT, *p, stamp);
            }
            store.flush();
            assert_eq!(store.record_count(), 600);
            assert!(store.needs_compact(100));
            store.compact(&points, stamp);
            assert_eq!(store.record_count(), points.len() as u64);
            device.commit_backend().unwrap();
        }
        {
            let device = file_device(&dir);
            let (store, mut got, stamp) = DurableStore::open(&device).unwrap();
            got.sort_by_key(|p| p.x);
            assert_eq!(got, points);
            assert_eq!(stamp, 600);
            assert!(!store.needs_compact(points.len() as u64));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Tiny blocks so a few thousand records overflow a single meta page's
    /// directory capacity: with `B = 32`, a data page holds 7 records and
    /// the head meta lists 28 data pages, so the journal below *must* chain.
    /// This is the regression test for the ~64k-point cap of the single
    /// meta-page layout (which used to brick the store permanently).
    #[test]
    fn journal_directory_chains_past_one_meta_page() {
        let dir = scratch_dir("chain");
        let cfg = EmConfig::new(32, 32 * 64);
        let points: Vec<Point> = (0..2000u64).map(|i| Point::new(i, i + 10_000)).collect();
        {
            let device = Device::open(cfg, &dir).unwrap();
            let (store, _, _) = DurableStore::open(&device).unwrap();
            for (i, p) in points.iter().enumerate() {
                store.append(OP_INSERT, *p, i as u64 + 1);
            }
            store.flush();
            assert!(
                store.meta_chain_len() > 1,
                "2000 records on 32-word blocks must spill the directory \
                 into a chain (got {} meta pages)",
                store.meta_chain_len()
            );
            device.commit_backend().unwrap();
        }
        {
            let device = Device::open(cfg, &dir).unwrap();
            let (store, mut got, stamp) = DurableStore::open(&device).unwrap();
            got.sort_by_key(|p| p.x);
            assert_eq!(got, points);
            assert_eq!(stamp, 2000);
            // Compaction of a chained directory must also survive reopen
            // (the old single-page layout died here on an oversized image).
            store.compact(&points, 2000);
            assert!(store.meta_chain_len() > 1);
            device.checkpoint_backend().unwrap();
        }
        {
            let device = Device::open(cfg, &dir).unwrap();
            let (store, mut got, stamp) = DurableStore::open(&device).unwrap();
            got.sort_by_key(|p| p.x);
            assert_eq!(got, points);
            assert_eq!(stamp, 2000);
            assert_eq!(store.record_count(), points.len() as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
