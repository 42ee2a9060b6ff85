//! Fluent construction of indexes.
//!
//! The seed API made every caller perform a two-step dance — build an
//! [`emsim::Device`], then pair it with a [`TopKConfig`]. [`IndexBuilder`]
//! owns both steps: machine shape (`block_words`, `pool_bytes`) and workload
//! shape (`expected_n`, `shards`), with validation at `build()` time instead
//! of panics later.

use std::path::PathBuf;
use std::sync::Arc;

use emsim::{Device, EmConfig};

use crate::backend::{Medium, StdFs};
use crate::config::TopKConfig;
use crate::error::{Result, TopKError};
use crate::facade::TopK;
use crate::index::TopKIndex;
use crate::sharded::ShardedTopK;

/// What [`IndexBuilder::resolve`] hands the builds.
type Resolved = (Device, TopKConfig, Option<Arc<dyn Medium>>);

/// Builder for a bare [`TopKIndex`] or a [`TopK`] serving handle, obtained
/// from [`TopKIndex::builder`] or [`TopK::builder`].
///
/// ```
/// use topk_core::{Point, TopKIndex};
///
/// let index = TopKIndex::builder()
///     .block_words(512)
///     .pool_bytes(8 << 20)
///     .expected_n(100_000)
///     .build()?;
/// index.insert(Point::new(7, 42))?;
/// # Ok::<(), topk_core::TopKError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    device: Option<Device>,
    block_words: usize,
    pool_bytes: usize,
    shards: Option<usize>,
    durable_dir: Option<PathBuf>,
    config: TopKConfig,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexBuilder {
    /// A builder with the default machine (4 KiB blocks, 16 MiB pool) and
    /// the default [`TopKConfig`].
    pub fn new() -> Self {
        Self {
            device: None,
            block_words: 512,
            pool_bytes: 16 << 20,
            shards: None,
            durable_dir: None,
            config: TopKConfig::default(),
        }
    }

    /// Block size `B` of the simulated machine, in 8-byte words.
    pub fn block_words(mut self, words: usize) -> Self {
        self.block_words = words;
        self
    }

    /// Buffer-pool size `M` of the simulated machine, in bytes.
    pub fn pool_bytes(mut self, bytes: usize) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Place the index on an existing device instead of constructing one
    /// (several structures sharing one machine, as the experiments do).
    /// Overrides [`IndexBuilder::block_words`] / [`IndexBuilder::pool_bytes`].
    pub fn device(mut self, device: &Device) -> Self {
        self.device = Some(device.clone());
        self
    }

    /// Make the index **durable** in the directory `dir`: every committing
    /// operation appends one synced frame to its journal, and `build*()`
    /// recovers the snapshot and journal already there, so reopening the
    /// same directory recovers the index to its last committed stamp
    /// (DESIGN.md §10). Mutually exclusive with [`IndexBuilder::device`].
    /// The directory has one journal, so a durable [`ShardedTopK`] is one
    /// shard and `shards > 1` is rejected.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// The anticipated number of stored points. It sizes the default shard
    /// count of [`IndexBuilder::build_auto`].
    pub fn expected_n(mut self, n: usize) -> Self {
        self.config.expected_n = n;
        self
    }

    /// Number of range shards for [`IndexBuilder::build_auto`]. Without
    /// an explicit count, one shard per ~64 Ki expected points is used
    /// (rounded to a power of two, capped at 16) so small indexes pay no
    /// fan-out and large ones scale their writers; a durable index is one
    /// shard.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Validate the parameters and construct the index.
    ///
    /// # Errors
    ///
    /// [`TopKError::InvalidConfig`] naming the offending parameter.
    pub fn build(self) -> Result<TopKIndex> {
        if self.shards.is_some() {
            return Err(TopKError::InvalidConfig {
                what: "shards is set: use build_auto() (build() is unsharded)",
            });
        }
        match self.resolve()? {
            (device, config, Some(medium)) => TopKIndex::open_durable(medium, &device, config),
            (device, config, None) => Ok(TopKIndex::new(&device, config)),
        }
    }

    /// Build a [`TopK`] handle for concurrent serving over a range-sharded
    /// [`ShardedTopK`]: the shard count is [`IndexBuilder::shards`] if set,
    /// otherwise derived from [`IndexBuilder::expected_n`] — or one shard
    /// for a durable directory, whose journal the shard opens with
    /// [`TopKIndex::open_durable`].
    ///
    /// # Errors
    ///
    /// [`TopKError::InvalidConfig`] naming the offending parameter (including
    /// `shards > 1` on a durable index); [`TopKError::Storage`] if a durable
    /// directory cannot be opened or recovered.
    pub fn build_auto(mut self) -> Result<TopK> {
        let durable = self.durable_dir.is_some();
        let shards = match self.shards.take() {
            Some(0) => {
                return Err(TopKError::InvalidConfig {
                    what: "shards must be at least 1",
                })
            }
            Some(s) if s > 1024 => {
                return Err(TopKError::InvalidConfig {
                    what: "shards above 1024 would out-shard any realistic machine",
                })
            }
            Some(s) if s > 1 && durable => {
                return Err(TopKError::InvalidConfig {
                    what: "a durable index writes one journal per directory: \
                           it is one shard (drop durable() or shards)",
                })
            }
            Some(s) => s,
            None if durable => 1,
            None => default_shards(self.config.expected_n),
        };
        let index = match self.resolve()? {
            (device, config, Some(medium)) => ShardedTopK::open_durable(medium, &device, config)?,
            (device, config, None) => ShardedTopK::new(&device, config, shards),
        };
        Ok(index.into())
    }

    /// The validated device and config, plus the medium of a durable
    /// directory.
    fn resolve(self) -> Result<Resolved> {
        if self.config.expected_n == 0 {
            return Err(TopKError::InvalidConfig {
                what: "expected_n must be at least 1",
            });
        }
        let (device, medium) = match (self.device, self.durable_dir) {
            (Some(_), Some(_)) => {
                return Err(TopKError::InvalidConfig {
                    what: "device and durable are mutually exclusive: a durable \
                           index builds its own device",
                });
            }
            (Some(device), None) => (device, None),
            (None, dir) => {
                if self.block_words < EmConfig::MIN_BLOCK_WORDS {
                    return Err(TopKError::InvalidConfig {
                        what: "block_words below the model minimum of 8",
                    });
                }
                let mem_words = self.pool_bytes / 8;
                if mem_words < 2 * self.block_words {
                    return Err(TopKError::InvalidConfig {
                        what: "pool_bytes must hold at least two blocks",
                    });
                }
                let medium = match dir {
                    Some(dir) => {
                        let fs = StdFs::open(&dir).map_err(|e| TopKError::Storage {
                            what: format!("open {}: {e}", dir.display()),
                        })?;
                        Some(Arc::new(fs) as Arc<dyn Medium>)
                    }
                    None => None,
                };
                (
                    Device::new(EmConfig::new(self.block_words, mem_words)),
                    medium,
                )
            }
        };
        Ok((device, self.config, medium))
    }
}

/// The default shard count: one shard per ~64 Ki expected points, rounded to
/// a power of two, capped at 16 (beyond that, the device's shared buffer
/// pool — not the shard locks — bounds throughput; see DESIGN.md §4).
fn default_shards(expected_n: usize) -> usize {
    (expected_n >> 16).next_power_of_two().clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epst::Point;

    #[test]
    fn builder_constructs_a_working_index() {
        let index = TopKIndex::builder()
            .block_words(128)
            .pool_bytes(1 << 20)
            .expected_n(1000)
            .build()
            .unwrap();
        assert_eq!(index.device().block_words(), 128);
        assert_eq!(index.config().expected_n, 1000);
        for i in 1..=100u64 {
            index.insert(Point::new(i, i * 7)).unwrap();
        }
        assert_eq!(index.query(1, 50, 3).unwrap().len(), 3);
    }

    #[test]
    fn invalid_parameters_are_rejected_by_name() {
        for (builder, needle) in [
            (TopKIndex::builder().expected_n(0), "expected_n"),
            (TopKIndex::builder().block_words(2), "block_words"),
            (
                TopKIndex::builder().block_words(512).pool_bytes(64),
                "pool_bytes",
            ),
        ] {
            let err = builder.build().unwrap_err();
            let TopKError::InvalidConfig { what } = err else {
                panic!("expected InvalidConfig, got {err:?}");
            };
            assert!(what.contains(needle), "{what} vs {needle}");
        }
    }

    #[test]
    fn sharded_build_defaults_scale_with_expected_n() {
        let small = TopK::builder().expected_n(1000).build_auto().unwrap();
        assert_eq!(small.shard_count(), 1);
        let large = TopK::builder().expected_n(1 << 20).build_auto().unwrap();
        assert_eq!(large.shard_count(), 16);
        let explicit = TopK::builder()
            .expected_n(1000)
            .shards(6)
            .build_auto()
            .unwrap();
        assert_eq!(explicit.shard_count(), 6);
        explicit.insert(Point::new(1, 2)).unwrap();
        assert_eq!(explicit.len(), 1);
    }

    #[test]
    fn sharded_parameters_are_validated() {
        for (builder, needle) in [
            (TopKIndex::builder().shards(0), "shards"),
            (TopKIndex::builder().shards(4096), "shards"),
        ] {
            let TopKError::InvalidConfig { what } = builder.build_auto().unwrap_err() else {
                panic!("expected InvalidConfig");
            };
            assert!(what.contains(needle), "{what}");
        }
        // A builder with shards set must go through build_auto().
        let err = TopKIndex::builder().shards(4).build().unwrap_err();
        assert!(matches!(err, TopKError::InvalidConfig { .. }));
    }

    #[test]
    fn shared_device_and_concurrent_build() {
        let device = Device::new(EmConfig::new(256, 256 * 64));
        let index = TopK::builder()
            .device(&device)
            .expected_n(500)
            .build_auto()
            .unwrap();
        assert_eq!(index.shard_count(), 1);
        index.insert(Point::new(1, 2)).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.device().block_words(), 256);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("topk-builder-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_build_recovers_across_reopen() {
        let dir = scratch("reopen");
        {
            let index = TopKIndex::builder()
                .durable(&dir)
                .expected_n(200)
                .build()
                .unwrap();
            assert!(index.is_durable());
            assert_eq!(index.recovered_stamp(), Some(0));
            for i in 1..=50u64 {
                index.insert(Point::new(i, i * 7)).unwrap();
            }
            for i in (1..=50u64).step_by(5) {
                assert!(index.delete(Point::new(i, i * 7)).unwrap());
            }
        }
        let index = TopKIndex::builder()
            .durable(&dir)
            .expected_n(200)
            .build()
            .unwrap();
        assert_eq!(index.len(), 40);
        let stamp = index.recovered_stamp().unwrap();
        assert!(stamp >= 60, "60 committed write ops, got stamp {stamp}");
        assert_eq!(index.get(2), Some(Point::new(2, 14)));
        assert_eq!(index.get(1), None);
        assert_eq!(
            index.query(0, u64::MAX, 1).unwrap(),
            vec![Point::new(50, 350)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_misconfigurations_are_rejected() {
        let dir = scratch("misconfig");
        let device = Device::new(EmConfig::new(256, 256 * 64));
        let cases: Vec<(TopKError, &str)> = vec![
            // More than one shard and the directory's single journal don't
            // compose.
            (
                TopK::builder()
                    .durable(&dir)
                    .shards(2)
                    .build_auto()
                    .unwrap_err(),
                "journal",
            ),
            // An externally-built device and a managed directory conflict.
            (
                TopKIndex::builder()
                    .device(&device)
                    .durable(&dir)
                    .build()
                    .unwrap_err(),
                "exclusive",
            ),
        ];
        for (err, needle) in cases {
            let TopKError::InvalidConfig { what } = err else {
                panic!("expected InvalidConfig, got {err}");
            };
            assert!(what.contains(needle), "{what:?} missing {needle:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_auto_serves_durable_indexes_concurrently() {
        let dir = scratch("auto");
        // A size that would normally auto-shard must still build one shard
        // when durability is on: the device has one journal.
        let handle = TopK::builder()
            .durable(&dir)
            .expected_n(1 << 20)
            .build_auto()
            .unwrap();
        assert_eq!(handle.shard_count(), 1);
        handle.insert(Point::new(9, 4)).unwrap();
        assert_eq!(handle.recovered_stamp(), Some(0));
        assert_eq!(handle.query(0, 10, 1).unwrap(), vec![Point::new(9, 4)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
