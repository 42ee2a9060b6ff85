//! `CrashFs`: an in-memory [`Medium`] that logs every call that changes a
//! file or a name, and rebuilds the directory a crash after any prefix of
//! that log leaves behind.
//!
//! The model follows ALICE (Pillai et al., OSDI'14) and CrashMonkey (Mohan
//! et al., OSDI'18): a write or truncate is durable once a later
//! `fdatasync` of the same file (inode) ran, and a created, renamed or
//! removed name once a later directory sync ran. A crash keeps everything
//! durable; of the rest, a [`Policy`] decides what reached the disk. Data
//! calls name their inode, so they follow a file across renames, and a
//! file whose creation was lost is gone with its contents.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk_core::Medium;

/// A directory's state: file name → contents.
pub type Files = BTreeMap<String, Vec<u8>>;

/// One logged medium call. Reads and syncs of nothing are not logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// The first write or truncate of a missing `name` created inode `ino`.
    Create { name: String, ino: usize },
    /// `bytes` written at `offset` of the file `name` (inode `ino`).
    Write {
        name: String,
        ino: usize,
        offset: u64,
        bytes: Vec<u8>,
    },
    /// The file `name` (inode `ino`) cut or extended to `len` bytes.
    Truncate { name: String, ino: usize, len: u64 },
    /// `fdatasync` of the file `name` (inode `ino`).
    Fdatasync { name: String, ino: usize },
    /// `from` renamed over `to`.
    Rename { from: String, to: String },
    /// `name` removed.
    Remove { name: String },
    /// The directory synced.
    SyncDir,
}

/// What a crash keeps of the calls no sync covered yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// None of them reached the disk.
    DropUnsynced,
    /// All of them did.
    KeepUnsynced,
    /// The calls before the last unsynced write did, and that write only in
    /// part: a seeded prefix of its bytes, the rest read back as zeros.
    TornPrefix,
    /// A seeded subset of them did, in any order.
    SeededSubset,
}

impl Policy {
    /// Every policy, in the order the crash topology tries them.
    pub const ALL: [Policy; 4] = [
        Policy::DropUnsynced,
        Policy::KeepUnsynced,
        Policy::TornPrefix,
        Policy::SeededSubset,
    ];
}

#[derive(Debug, Default)]
struct FsState {
    /// The durable state the log starts from.
    base: Files,
    /// Contents of every inode the run has seen, as the process sees them.
    inodes: Vec<Vec<u8>>,
    /// The namespace as the process sees it.
    names: BTreeMap<String, usize>,
    log: Vec<Syscall>,
    /// Set by [`CrashFs::sever`]: every later call fails.
    severed: bool,
}

/// Apply a data call to an inode table, growing it as needed.
fn apply_data(inodes: &mut Vec<Vec<u8>>, ino: usize, offset: u64, bytes: &[u8], len: Option<u64>) {
    if inodes.len() <= ino {
        inodes.resize(ino + 1, Vec::new());
    }
    let file = &mut inodes[ino];
    match len {
        Some(len) => file.resize(len as usize, 0),
        None => {
            let end = offset as usize + bytes.len();
            if file.len() < end {
                file.resize(end, 0);
            }
            file[offset as usize..end].copy_from_slice(bytes);
        }
    }
}

/// The in-memory crash-testing [`Medium`]. Clones share one state, so a
/// test keeps a clone to read the log after handing one to an index.
#[derive(Debug, Clone, Default)]
pub struct CrashFs {
    state: Arc<Mutex<FsState>>,
}

impl CrashFs {
    /// A medium whose durable state is `files`, with an empty log.
    pub fn new(files: Files) -> Self {
        let fs = Self::default();
        {
            let mut st = fs.state.lock().unwrap();
            for (ino, (name, bytes)) in files.iter().enumerate() {
                st.names.insert(name.clone(), ino);
                st.inodes.push(bytes.clone());
            }
            st.base = files;
        }
        fs
    }

    /// The calls logged so far.
    pub fn log(&self) -> Vec<Syscall> {
        self.state.lock().unwrap().log.clone()
    }

    /// Number of calls logged so far: the crash boundaries are `0..=len`.
    pub fn log_len(&self) -> usize {
        self.state.lock().unwrap().log.len()
    }

    /// The directory as the running process sees it.
    pub fn files(&self) -> Files {
        let st = self.state.lock().unwrap();
        st.names
            .iter()
            .map(|(name, &ino)| (name.clone(), st.inodes[ino].clone()))
            .collect()
    }

    /// Fail every later call, as a medium that died would.
    pub fn sever(&self) {
        self.state.lock().unwrap().severed = true;
    }

    /// The directory a crash after the first `boundary` logged calls leaves
    /// under `policy`; `seed` drives the seeded policies.
    pub fn crash_state(&self, boundary: usize, policy: Policy, seed: u64) -> Files {
        let st = self.state.lock().unwrap();
        let log = &st.log[..boundary.min(st.log.len())];
        // A call is durable if a later sync covers it.
        let mut durable = vec![false; log.len()];
        let mut synced: HashSet<usize> = HashSet::new();
        let mut dir_synced = false;
        for (k, call) in log.iter().enumerate().rev() {
            durable[k] = match call {
                Syscall::Fdatasync { ino, .. } => {
                    synced.insert(*ino);
                    true
                }
                Syscall::SyncDir => {
                    dir_synced = true;
                    true
                }
                Syscall::Write { ino, .. } | Syscall::Truncate { ino, .. } => synced.contains(ino),
                Syscall::Create { .. } | Syscall::Rename { .. } | Syscall::Remove { .. } => {
                    dir_synced
                }
            };
        }
        let pending: Vec<usize> = (0..log.len()).filter(|&k| !durable[k]).collect();
        let mut rng =
            StdRng::seed_from_u64(seed ^ (boundary as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut torn = None;
        let kept: HashSet<usize> = match policy {
            Policy::DropUnsynced => HashSet::new(),
            Policy::KeepUnsynced => pending.iter().copied().collect(),
            Policy::TornPrefix => {
                let last_write = pending
                    .iter()
                    .rposition(|&k| matches!(log[k], Syscall::Write { .. }));
                match last_write {
                    Some(t) => {
                        if let Syscall::Write { bytes, .. } = &log[pending[t]] {
                            torn = Some((pending[t], rng.gen_range(0..bytes.len().max(1))));
                        }
                        pending[..t].iter().copied().collect()
                    }
                    None => pending.iter().copied().collect(),
                }
            }
            Policy::SeededSubset => pending
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect(),
        };

        let mut inodes: Vec<Vec<u8>> = st.base.values().cloned().collect();
        let mut names: BTreeMap<String, usize> = st
            .base
            .keys()
            .enumerate()
            .map(|(ino, n)| (n.clone(), ino))
            .collect();
        for (k, call) in log.iter().enumerate() {
            let cut = torn.filter(|&(t, _)| t == k).map(|(_, cut)| cut);
            if !(durable[k] || kept.contains(&k) || cut.is_some()) {
                continue;
            }
            match call {
                Syscall::Create { name, ino } => {
                    apply_data(&mut inodes, *ino, 0, &[], None);
                    names.insert(name.clone(), *ino);
                }
                Syscall::Write {
                    ino, offset, bytes, ..
                } => {
                    let mut bytes = bytes.clone();
                    if let Some(cut) = cut {
                        bytes[cut..].fill(0);
                    }
                    apply_data(&mut inodes, *ino, *offset, &bytes, None);
                }
                Syscall::Truncate { ino, len, .. } => {
                    apply_data(&mut inodes, *ino, 0, &[], Some(*len))
                }
                Syscall::Rename { from, to } => {
                    if let Some(ino) = names.remove(from) {
                        names.insert(to.clone(), ino);
                    }
                }
                Syscall::Remove { name } => {
                    names.remove(name);
                }
                Syscall::Fdatasync { .. } | Syscall::SyncDir => {}
            }
        }
        names
            .into_iter()
            .map(|(name, ino)| (name, inodes.get(ino).cloned().unwrap_or_default()))
            .collect()
    }

    /// Run `f` on the state unless the medium was severed.
    fn call<T>(&self, f: impl FnOnce(&mut FsState) -> io::Result<T>) -> io::Result<T> {
        let mut st = self.state.lock().unwrap();
        if st.severed {
            return Err(io::Error::other("medium severed"));
        }
        f(&mut st)
    }
}

impl FsState {
    fn ino_or_create(&mut self, name: &str) -> usize {
        if let Some(&ino) = self.names.get(name) {
            return ino;
        }
        let ino = self.inodes.len();
        self.inodes.push(Vec::new());
        self.names.insert(name.to_string(), ino);
        self.log.push(Syscall::Create {
            name: name.to_string(),
            ino,
        });
        ino
    }

    fn ino(&self, name: &str) -> io::Result<usize> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }
}

impl Medium for CrashFs {
    fn read_file(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.call(|st| Ok(st.names.get(name).map(|&ino| st.inodes[ino].clone())))
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.call(|st| {
            let ino = st.ino_or_create(name);
            if !bytes.is_empty() {
                apply_data(&mut st.inodes, ino, offset, bytes, None);
                st.log.push(Syscall::Write {
                    name: name.to_string(),
                    ino,
                    offset,
                    bytes: bytes.to_vec(),
                });
            }
            Ok(())
        })
    }

    fn fdatasync(&self, name: &str) -> io::Result<()> {
        self.call(|st| {
            let ino = st.ino(name)?;
            st.log.push(Syscall::Fdatasync {
                name: name.to_string(),
                ino,
            });
            Ok(())
        })
    }

    fn truncate_file(&self, name: &str, len: u64) -> io::Result<()> {
        self.call(|st| {
            let ino = st.ino_or_create(name);
            apply_data(&mut st.inodes, ino, 0, &[], Some(len));
            st.log.push(Syscall::Truncate {
                name: name.to_string(),
                ino,
                len,
            });
            Ok(())
        })
    }

    fn rename_file(&self, from: &str, to: &str) -> io::Result<()> {
        self.call(|st| {
            let ino = st.ino(from)?;
            st.names.remove(from);
            st.names.insert(to.to_string(), ino);
            st.log.push(Syscall::Rename {
                from: from.to_string(),
                to: to.to_string(),
            });
            Ok(())
        })
    }

    fn remove_file(&self, name: &str) -> io::Result<()> {
        self.call(|st| {
            if st.names.remove(name).is_some() {
                st.log.push(Syscall::Remove {
                    name: name.to_string(),
                });
            }
            Ok(())
        })
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.call(|st| {
            st.log.push(Syscall::SyncDir);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(files: &Files, name: &str) -> Option<Vec<u8>> {
        files.get(name).cloned()
    }

    #[test]
    fn names_wait_for_the_directory_sync_and_data_for_fdatasync() {
        let fs = CrashFs::new(Files::from([("old".to_string(), b"v1".to_vec())]));
        fs.write_at("tmp", 0, b"v2").unwrap(); // create + write
        fs.fdatasync("tmp").unwrap();
        fs.rename_file("tmp", "old").unwrap();
        let before_sync = fs.log_len();
        fs.sync_dir().unwrap();
        fs.write_at("old", 2, b"!").unwrap();

        let drop = |b| fs.crash_state(b, Policy::DropUnsynced, 1);
        // Before the directory sync the rename may be lost: the old file.
        assert_eq!(file(&drop(before_sync), "old"), Some(b"v1".to_vec()));
        assert_eq!(file(&drop(before_sync), "tmp"), None);
        let keep = fs.crash_state(before_sync, Policy::KeepUnsynced, 1);
        assert_eq!(file(&keep, "old"), Some(b"v2".to_vec()));
        // After it the new file is durable; the unsynced append is not.
        let end = fs.log_len();
        assert_eq!(file(&drop(end), "old"), Some(b"v2".to_vec()));
        assert_eq!(
            file(&fs.crash_state(end, Policy::KeepUnsynced, 1), "old"),
            Some(b"v2!".to_vec())
        );
        let torn = fs.crash_state(end, Policy::TornPrefix, 1);
        assert_eq!(file(&torn, "old"), Some(b"v2\0".to_vec()));
        assert_eq!(fs.files(), keep_all(&fs));
    }

    fn keep_all(fs: &CrashFs) -> Files {
        fs.crash_state(fs.log_len(), Policy::KeepUnsynced, 0)
    }

    #[test]
    fn a_severed_medium_fails_every_call() {
        let fs = CrashFs::default();
        fs.write_at("a", 0, b"x").unwrap();
        fs.sever();
        assert!(fs.write_at("a", 1, b"y").is_err());
        assert!(fs.read_file("a").is_err());
        assert!(fs.sync_dir().is_err());
        assert_eq!(fs.log_len(), 2);
    }
}
