//! Theorem 1 as a bare index, for the experiments and the differential
//! suites.
//!
//! [`TheoremOne`] pairs a serving [`TopKIndex`] — the §2 pilot structure —
//! with the two structures of the §3.3 reduction, a 3-sided reporter and an
//! approximate range k-selection structure, and runs Theorem 1's dispatch:
//! `k ≥ l` from the pilot drain (`O(lg n + k/B)` I/Os), and `k < l` through
//! the reduction over the reporter (`O(log_B n + k/B)`). Every update
//! maintains all three structures. It measures slower than the serving index
//! at every size tried (DESIGN.md §3.6) and exists to reproduce the paper;
//! it is the only index that builds the reporter, and no serving path
//! builds it, so it has no cursor, batch commit, sharding or durability.

use emsim::Device;
use epst::{top_k_by_score, Point, ThreeSidedPst};
use kselect::{PolylogConfig, PolylogKSelect, RangeKSelect, St12Config, St12KSelect};

use crate::config::{SmallKEngine, TopKConfig};
use crate::error::{Result, TopKError};
use crate::index::{validate_query, TopKIndex};
use crate::ranked::RankedIndex;

/// Theorem 1's full build: a bare index with eager queries and point
/// updates. See the module docs.
///
/// ```
/// use emsim::{Device, EmConfig};
/// use topk_core::{Point, SmallKEngine, TheoremOne, TopKConfig};
///
/// let device = Device::new(EmConfig::new(512, 512 * 512));
/// let index = TheoremOne::new(&device, TopKConfig::default(), SmallKEngine::Auto);
/// for i in 0..1000u64 {
///     index.insert(Point::new(i, (i * 2654435761) % 1_000_003))?;
/// }
/// // k = 5 < l = 256 runs the §3.3 reduction, k = 500 the pilot drain.
/// assert_eq!(index.query(100, 900, 5)?.len(), 5);
/// assert_eq!(index.query(0, 999, 500)?.len(), 500);
/// # Ok::<(), topk_core::TopKError>(())
/// ```
pub struct TheoremOne {
    /// The approximate range k-selection structure that serves `k < l`.
    /// The `Send + Sync` bounds are what make the index shareable across
    /// threads.
    selector: Box<dyn RangeKSelect + Send + Sync>,
    /// The pilot structure (`k ≥ l`), with the serving index's validation,
    /// score registry and rebuild policy.
    index: TopKIndex,
    /// The 3-sided reporting structure the reduction reports from.
    reporter: ThreeSidedPst,
}

impl TheoremOne {
    /// Create an empty index on `device`. `config.l` is the crossover, and
    /// [`SmallKEngine::Auto`] resolves against `config.expected_n`.
    pub fn new(device: &Device, config: TopKConfig, engine: SmallKEngine) -> Self {
        // Files are created in the order k-selector, pilot, reporter: the
        // device numbers files in creation order, the pool's page placement
        // follows those numbers, and the experiment tables in
        // crates/bench/expected/ were recorded in that order.
        let selector: Box<dyn RangeKSelect + Send + Sync> =
            match engine.resolve(device.block_words(), config.expected_n) {
                SmallKEngine::Polylog | SmallKEngine::Auto => Box::new(PolylogKSelect::new(
                    device,
                    "topk.polylog",
                    PolylogConfig::for_device(device, config.l),
                )),
                SmallKEngine::St12 => Box::new(St12KSelect::new(
                    device,
                    "topk.st12",
                    St12Config::for_device(device),
                )),
            };
        let index = TopKIndex::new(device, config);
        let reporter = ThreeSidedPst::new(device, "topk.reporter");
        Self {
            selector,
            index,
            reporter,
        }
    }

    /// The device the index lives on (useful for reading I/O statistics).
    pub fn device(&self) -> &Device {
        self.index.device()
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Space occupied by all three structures, in blocks.
    pub fn space_blocks(&self) -> u64 {
        self.index.space_blocks()
            + self.reporter.space_blocks() as u64
            + self.selector.space_blocks() as u64
    }

    /// Insert a point into all three structures. `O(log_B n)` amortized
    /// I/Os.
    ///
    /// # Errors
    ///
    /// As [`TopKIndex::insert`]; the index is unchanged in that case.
    pub fn insert(&self, p: Point) -> Result<()> {
        self.index.reserve(p)?;
        self.index.insert_validated(p);
        self.reporter.insert(p);
        self.selector.insert(p);
        self.maybe_rebuild();
        Ok(())
    }

    /// Delete a point (exact coordinate and score). Returns `Ok(false)` if
    /// it was not present. `O(log_B n)` amortized I/Os.
    ///
    /// # Errors
    ///
    /// [`TopKError::Inconsistent`] if the structures disagree about
    /// membership; the index must be considered corrupted afterwards.
    pub fn delete(&self, p: Point) -> Result<bool> {
        if !self.reporter.delete(p) {
            return Ok(false);
        }
        if !self.index.delete_validated(p) {
            return Err(TopKError::Inconsistent {
                point: p,
                component: "pilot",
            });
        }
        if !self.selector.delete(p) {
            return Err(TopKError::Inconsistent {
                point: p,
                component: "small-k",
            });
        }
        self.index
            .scores
            .lock()
            .expect("a writer panicked while holding the score registry")
            .remove(&p.score);
        self.maybe_rebuild();
        Ok(true)
    }

    /// Build the index from scratch out of `points`, replacing the current
    /// contents.
    ///
    /// # Errors
    ///
    /// As [`TopKIndex::bulk_build`]; the index is unchanged in that case.
    pub fn bulk_build(&self, points: &[Point]) -> Result<()> {
        self.index.bulk_build(points)?;
        self.reporter.rebuild_from_points(points);
        self.selector.rebuild(points);
        Ok(())
    }

    /// The serving index's global rebuild, followed by the reporter's and
    /// the k-selector's over the same points.
    fn maybe_rebuild(&self) {
        if let Some(points) = self.index.maybe_rebuild() {
            self.reporter.rebuild_from_points(&points);
            self.selector.rebuild(&points);
        }
    }

    /// Report the `k` highest-scoring points with `x ∈ [x1, x2]`, sorted by
    /// descending score: `O(log_B n + k/B)` I/Os for `k < l` and
    /// `O(lg n + k/B)` beyond (Theorem 1's dispatch).
    ///
    /// # Errors
    ///
    /// As [`TopKIndex::query`].
    pub fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        validate_query(x1, x2, k)?;
        if k >= self.index.config().l {
            return Ok(self.index.query_unvalidated(x1, x2, k));
        }
        let total = self.reporter.count_in_range(x1, x2);
        if total == 0 {
            return Ok(Vec::new());
        }
        let want = (k as u64).min(total) as usize;
        if total <= k as u64 {
            // Small output: report the whole range.
            let pts = self.reporter.query(x1, x2, 0);
            return Ok(top_k_by_score(pts, k));
        }
        // The reduction of §3.3: get an approximate rank-k threshold, report
        // everything above it, keep the exact top k. If the approximation
        // under-delivers (possible when the AURS preconditions are violated,
        // see DESIGN.md §3), double the target rank and retry; the final
        // fallback reports the whole range.
        let mut target = k as u64;
        for _ in 0..8 {
            let tau = self.selector.select(x1, x2, target);
            let tau = tau.unwrap_or_default();
            let pts = self.reporter.query(x1, x2, tau);
            if pts.len() >= want || tau == 0 {
                return Ok(top_k_by_score(pts, k));
            }
            target = target.saturating_mul(2);
        }
        let pts = self.reporter.query(x1, x2, 0);
        Ok(top_k_by_score(pts, k))
    }

    /// Number of points with `x ∈ [x1, x2]` (`O(log_B n)` I/Os).
    ///
    /// # Errors
    ///
    /// As [`TopKIndex::count_in_range`].
    pub fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        self.index.count_in_range(x1, x2)
    }

    /// Run the serving index's and the reporter's checks, and check that
    /// the reporter and the k-selector hold the same number of points (test
    /// support).
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        self.reporter.check_invariants();
        assert_eq!(self.reporter.len(), self.index.len());
        assert_eq!(self.selector.len(), self.index.len());
    }
}

impl RankedIndex for TheoremOne {
    fn engine_name(&self) -> &'static str {
        self.selector.name()
    }

    fn len(&self) -> u64 {
        TheoremOne::len(self)
    }

    fn space_blocks(&self) -> u64 {
        TheoremOne::space_blocks(self)
    }

    fn insert(&self, p: Point) -> Result<()> {
        TheoremOne::insert(self, p)
    }

    fn delete(&self, p: Point) -> Result<bool> {
        TheoremOne::delete(self, p)
    }

    fn bulk_build(&self, points: &[Point]) -> Result<()> {
        TheoremOne::bulk_build(self, points)
    }

    fn query(&self, x1: u64, x2: u64, k: usize) -> Result<Vec<Point>> {
        TheoremOne::query(self, x1, x2, k)
    }

    fn count_in_range(&self, x1: u64, x2: u64) -> Result<u64> {
        TheoremOne::count_in_range(self, x1, x2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oracle, UpdateBatch};
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ENGINES: [SmallKEngine; 2] = [SmallKEngine::Polylog, SmallKEngine::St12];

    fn device() -> Device {
        Device::new(EmConfig::new(256, 256 * 256))
    }

    #[test]
    fn expected_n_drives_auto_engine_resolution() {
        // Huge blocks relative to a tiny expected n → lg n ≤ B^(1/6) → ST12.
        let huge_blocks = EmConfig::new(1 << 20, 1 << 23);
        let st12 = TheoremOne::new(
            &Device::new(huge_blocks),
            TopKConfig {
                expected_n: 8,
                ..TopKConfig::default()
            },
            SmallKEngine::Auto,
        );
        assert!(st12.engine_name().contains("st12"));
        // The default expected n on the same machine stays in the paper's
        // main regime → the §3.3 polylog structure.
        let polylog = TheoremOne::new(
            &Device::new(huge_blocks),
            TopKConfig {
                expected_n: 1 << 20,
                ..TopKConfig::default()
            },
            SmallKEngine::Auto,
        );
        assert!(polylog.engine_name().contains("polylog"));
    }

    #[test]
    fn component_disagreement_is_a_real_error_in_release_builds() {
        for engine in ENGINES {
            let index = TheoremOne::new(&device(), TopKConfig::for_tests(), engine);
            for i in 1..=50u64 {
                index.insert(Point::new(i, i * 3)).unwrap();
            }
            // Corrupt the index: remove a point from the pilot structure
            // behind the combined index's back. The reporter still holds it.
            let victim = Point::new(7, 21);
            assert!(index.index.pilot().delete(victim));
            assert_eq!(
                index.delete(victim).unwrap_err(),
                TopKError::Inconsistent {
                    point: victim,
                    component: "pilot",
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn k_selector_disagreement_is_a_real_error() {
        for engine in ENGINES {
            let index = TheoremOne::new(&device(), TopKConfig::for_tests(), engine);
            for i in 1..=50u64 {
                index.insert(Point::new(i, i * 3)).unwrap();
            }
            // Corrupt the index: remove a point from the k-selector behind
            // the combined index's back.
            let victim = Point::new(7, 21);
            assert!(index.selector.delete(victim));
            assert_eq!(
                index.delete(victim).unwrap_err(),
                TopKError::Inconsistent {
                    point: victim,
                    component: "small-k",
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn updates_across_global_rebuilds_match_the_oracle() {
        // 3,000 inserts from empty cross five size-doubling rebuilds (at
        // 129, 259, 519, 1,039 and 2,079 points); then a third is deleted.
        let pts: Vec<Point> = (0..3_000u64)
            .map(|i| Point::new((i * 7919) % 24_000 + 1, i * 13 + 1))
            .collect();
        for engine in ENGINES {
            let index = TheoremOne::new(&device(), TopKConfig::for_tests(), engine);
            let mut oracle = Oracle::new();
            for &p in &pts {
                index.insert(p).unwrap();
                oracle.insert(p);
            }
            for &p in pts.iter().step_by(3) {
                assert!(index.delete(p).unwrap(), "{engine:?}");
                oracle.delete(p);
            }
            assert_eq!(index.len(), oracle.len() as u64);
            index.check_invariants();
            let mut rng = StdRng::seed_from_u64(17);
            // k on both sides of the crossover l = 64.
            for &k in &[1usize, 10, 63, 64, 65, 500] {
                for _ in 0..5 {
                    let a = rng.gen_range(0..24_000u64);
                    let b = rng.gen_range(a..=24_000u64);
                    assert_eq!(
                        index.query(a, b, k).unwrap(),
                        oracle.query(a, b, k),
                        "{engine:?} [{a},{b}] k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_k_selector_is_built_maintained_and_counted() {
        let pts: Vec<Point> = (1..=3_000u64).map(|i| Point::new(i * 5, i * 7)).collect();
        let dev = device();
        let index = TheoremOne::new(&dev, TopKConfig::default(), SmallKEngine::Auto);
        index.bulk_build(&pts).unwrap();
        for i in 1..=40u64 {
            index.insert(Point::new(i * 5 + 1, 100_000 + i)).unwrap();
            assert!(index.delete(Point::new(i * 10, i * 14)).unwrap());
        }
        index
            .apply(
                &UpdateBatch::new()
                    .insert(Point::new(3, 1))
                    .delete(pts[2_000]),
            )
            .unwrap();
        index.check_invariants();
        let kselect_pages: u64 = dev
            .space_breakdown()
            .into_iter()
            .filter(|(name, _)| name.starts_with("topk.polylog"))
            .map(|(_, pages)| pages)
            .sum();
        assert!(kselect_pages > 0, "Theorem 1 builds the k-selector");
        assert!(
            index.space_blocks()
                > index.index.space_blocks() + index.reporter.space_blocks() as u64
        );
        assert!(index.engine_name().contains("polylog"));
    }
}
