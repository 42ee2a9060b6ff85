//! A Sheng–Tao PODS'12-style approximate range k-selection baseline with
//! `O(log_B n)` queries and `O(log_B² n)` amortized updates — the state of the
//! art the paper improves on. See DESIGN.md §3 for how this stand-in relates
//! to the original structure (whose internals the paper does not reproduce).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use embtree::BTree;
use emsim::{BlockFile, Device, Page, PageId};
use emsketch::{lemma7, Sketch};
use epst::Point;
use wbbtree::{CanonicalPiece, NodeId, WbbConfig, WbbTree};

use crate::RangeKSelect;

/// Parameters of a [`St12KSelect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct St12Config {
    /// Base-tree branching parameter.
    pub branching: usize,
    /// Points per base-tree leaf.
    pub leaf_target: usize,
}

impl St12Config {
    /// Derive a configuration from the device's block size.
    pub fn for_device(device: &Device) -> Self {
        let b = device.block_words();
        Self {
            branching: ((b as f64).sqrt() as usize).clamp(2, 32),
            leaf_target: ((b.saturating_sub(8)) / (2 * Point::WORDS)).max(4),
        }
    }
}

/// A leaf's point page.
#[derive(Debug, Clone, Default)]
struct LeafPage {
    pts: Vec<Point>,
}

impl Page for LeafPage {
    fn words(&self) -> usize {
        2 + self.pts.len() * Point::WORDS
    }
}

/// One chunk of a node's per-child sketches. A node's sketches occupy `O(1)`
/// blocks; chunks never split a child's sketch across pages.
#[derive(Debug, Clone, Default)]
struct SketchChunk {
    /// `(child, pivots)` where each pivot is `(score, local rank)`.
    children: Vec<(NodeId, Vec<(u64, u64)>)>,
}

impl Page for SketchChunk {
    fn words(&self) -> usize {
        2 + self
            .children
            .iter()
            .map(|(_, p)| 2 + p.len() * 2)
            .sum::<usize>()
    }
}

/// The baseline structure.
pub struct St12KSelect {
    device: Device,
    name: String,
    base: WbbTree<u64>,
    leaves: BlockFile<LeafPage>,
    leaf_of: RwLock<HashMap<NodeId, PageId>>,
    chunks: BlockFile<SketchChunk>,
    /// Per internal node: the chunk pages holding its per-child sketches.
    sketch_of: RwLock<HashMap<NodeId, Vec<PageId>>>,
    /// Per `(node, child)`: a B-tree over **all** scores of the child's
    /// subtree (this is what makes updates cost `O(log_B² n)` and space
    /// `O((n/B)·log_B n)`).
    scores_of: RwLock<HashMap<(NodeId, NodeId), BTree<u64>>>,
    len: AtomicU64,
}

impl St12KSelect {
    /// Create an empty structure.
    pub fn new(device: &Device, name: &str, config: St12Config) -> Self {
        let base = WbbTree::new(
            device,
            &format!("{name}.base"),
            WbbConfig::new(config.branching, config.leaf_target, 1),
        );
        let leaves = device.open_file::<LeafPage>(&format!("{name}.leaves"));
        let chunks = device.open_file::<SketchChunk>(&format!("{name}.sketches"));
        let s = Self {
            device: device.clone(),
            name: name.to_string(),
            base,
            leaves,
            leaf_of: RwLock::new(HashMap::new()),
            chunks,
            sketch_of: RwLock::new(HashMap::new()),
            scores_of: RwLock::new(HashMap::new()),
            len: AtomicU64::new(0),
        };
        s.ensure_leaf_page(s.base.root());
        s
    }

    /// Rebuild everything from `points`.
    pub fn rebuild_from_points(&self, points: &[Point]) {
        for (_, p) in self.leaf_of.write().unwrap().drain() {
            self.leaves.free(p);
        }
        for (_, pages) in self.sketch_of.write().unwrap().drain() {
            for p in pages {
                self.chunks.free(p);
            }
        }
        for (_, t) in self.scores_of.write().unwrap().drain() {
            t.clear();
        }
        let mut xs: Vec<u64> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        self.base.bulk_load(&xs);
        self.len.store(points.len() as u64, Ordering::Relaxed);
        let mut sorted: Vec<Point> = points.to_vec();
        sorted.sort_unstable();
        let mut cursor = 0usize;
        for leaf in self.base.leaves() {
            let take = self.base.leaf_keys(leaf).len();
            let page = self.leaves.alloc(LeafPage {
                pts: sorted[cursor..cursor + take].to_vec(),
            });
            self.leaf_of.write().unwrap().insert(leaf, page);
            cursor += take;
        }
        self.rebuild_secondary_under(self.base.root());
    }

    fn ensure_leaf_page(&self, leaf: NodeId) -> PageId {
        emsim::dir_get_or_insert(&self.leaf_of, leaf, || {
            self.leaves.alloc(LeafPage::default())
        })
    }

    fn leaf_points(&self, leaf: NodeId) -> Vec<Point> {
        let page = self.ensure_leaf_page(leaf);
        self.leaves.with(page, |p| p.pts.clone())
    }

    fn subtree_scores(&self, node: NodeId, out: &mut Vec<u64>) {
        if self.base.is_leaf(node) {
            out.extend(self.leaf_points(node).iter().map(|p| p.score));
        } else {
            for c in self.base.children(node) {
                self.subtree_scores(c.id, out);
            }
        }
    }

    /// Load the full per-child sketch table of `node`.
    fn load_sketches(&self, node: NodeId) -> Vec<(NodeId, Vec<(u64, u64)>)> {
        let pages = self
            .sketch_of
            .read()
            .unwrap()
            .get(&node)
            .cloned()
            .unwrap_or_default();
        let mut out = Vec::new();
        for p in pages {
            self.chunks.with(p, |c| out.extend(c.children.clone()));
        }
        out
    }

    /// Store the per-child sketch table of `node`, re-chunking to fit blocks.
    fn store_sketches(&self, node: NodeId, table: Vec<(NodeId, Vec<(u64, u64)>)>) {
        let old = self
            .sketch_of
            .write()
            .unwrap()
            .remove(&node)
            .unwrap_or_default();
        for p in old {
            self.chunks.free(p);
        }
        let budget = self.device.config().block_words.saturating_sub(4);
        let mut pages = Vec::new();
        let mut current = SketchChunk::default();
        for entry in table {
            let entry_words = 2 + entry.1.len() * 2;
            if current.words() + entry_words > budget && !current.children.is_empty() {
                pages.push(self.chunks.alloc(std::mem::take(&mut current)));
            }
            current.children.push(entry);
        }
        if !current.children.is_empty() || pages.is_empty() {
            pages.push(self.chunks.alloc(current));
        }
        self.sketch_of.write().unwrap().insert(node, pages);
    }

    /// Rebuild the sketches and score B-trees of internal node `u` from its
    /// children's subtrees.
    fn rebuild_node_secondary(&self, u: NodeId) {
        // Drop the score B-trees of children that are no longer ours.
        self.scores_of.write().unwrap().retain(|(n, _), t| {
            if *n == u {
                t.clear();
                false
            } else {
                true
            }
        });
        let children = self.base.children(u);
        let mut table = Vec::new();
        for c in &children {
            let mut scores = Vec::new();
            self.subtree_scores(c.id, &mut scores);
            scores.sort_unstable();
            let tree = BTree::new(&self.device, &format!("{}.scores", self.name));
            tree.bulk_load(&scores);
            scores.reverse();
            let sketch = Sketch::from_sorted_desc(&scores);
            let pivots: Vec<(u64, u64)> = sketch
                .pivots()
                .iter()
                .enumerate()
                .map(|(j, &score)| (score, Sketch::target_rank(j + 1, scores.len())))
                .collect();
            if let Some(old) = self.scores_of.write().unwrap().insert((u, c.id), tree) {
                old.clear();
            }
            table.push((c.id, pivots));
        }
        self.store_sketches(u, table);
    }

    fn rebuild_secondary_under(&self, node: NodeId) {
        for n in self.base.subtree_nodes_bottom_up(node) {
            if self.base.is_leaf(n) {
                self.ensure_leaf_page(n);
            } else {
                self.rebuild_node_secondary(n);
            }
        }
    }

    fn handle_splits(&self, report: &wbbtree::InsertReport) {
        if report.splits.is_empty() {
            return;
        }
        for ev in &report.splits {
            if ev.level != 0 {
                continue;
            }
            let boundary = self.base.max_key(ev.node).expect("split leaf non-empty");
            let old_page = self.ensure_leaf_page(ev.node);
            let moved: Vec<Point> = self.leaves.with_mut(old_page, |p| {
                let moved = p.pts.iter().copied().filter(|q| q.x > boundary).collect();
                p.pts.retain(|q| q.x <= boundary);
                moved
            });
            let new_page = self.ensure_leaf_page(ev.new_sibling);
            self.leaves.with_mut(new_page, |p| p.pts.extend(moved));
        }
        let top = report.splits.last().unwrap();
        self.rebuild_secondary_under(top.parent);
    }

    /// Maintain the sketch of `(node, child)` across one score insertion: the
    /// score B-tree update plus the rank bookkeeping cost `Θ(log_B n)` I/Os at
    /// this one ancestor — summed over the `O(log_B n)` ancestors this is the
    /// baseline's `O(log_B² n)` amortized update cost.
    fn sketch_insert(&self, node: NodeId, child: NodeId, score: u64) {
        let trees = self.scores_of.read().unwrap();
        let Some(tree) = trees.get(&(node, child)) else {
            return;
        };
        let rank_new = tree.count_ge(score) + 1;
        tree.insert(score);
        let size = tree.len() as usize;
        let mut table = self.load_sketches(node);
        if let Some((_, pivots)) = table.iter_mut().find(|(c, _)| *c == child) {
            for p in pivots.iter_mut() {
                if p.1 >= rank_new {
                    p.1 += 1;
                }
            }
            if size.is_power_of_two() {
                if let Some(min) = tree.min() {
                    pivots.push((min, size as u64));
                }
            }
            Self::repair_pivots(tree, pivots, size);
        }
        drop(trees);
        self.store_sketches(node, table);
    }

    /// Maintain the sketch of `(node, child)` across one score deletion.
    fn sketch_delete(&self, node: NodeId, child: NodeId, score: u64) {
        let trees = self.scores_of.read().unwrap();
        let Some(tree) = trees.get(&(node, child)) else {
            return;
        };
        let rank_old = tree.count_ge(score);
        let was_power = tree.len().is_power_of_two();
        tree.remove(score);
        let size = tree.len() as usize;
        let mut table = self.load_sketches(node);
        if let Some((_, pivots)) = table.iter_mut().find(|(c, _)| *c == child) {
            // The deleted score may itself be a pivot; invalidate it.
            for p in pivots.iter_mut() {
                if p.0 == score {
                    *p = (0, 0);
                }
            }
            if was_power && !pivots.is_empty() {
                pivots.pop();
            }
            for p in pivots.iter_mut() {
                if p.1 > rank_old {
                    p.1 -= 1;
                }
            }
            Self::repair_pivots(tree, pivots, size);
        }
        drop(trees);
        self.store_sketches(node, table);
    }

    /// Bring the pivot list to the right length and recompute any pivot whose
    /// local rank drifted out of its window (amortized `O(1)` repairs, each a
    /// `Θ(log_B n)` rank selection on the score B-tree).
    fn repair_pivots(tree: &BTree<u64>, pivots: &mut Vec<(u64, u64)>, size: usize) {
        let want = Sketch::pivot_count(size);
        pivots.truncate(want);
        while pivots.len() < want {
            pivots.push((0, 0));
        }
        for (j, pivot) in pivots.iter_mut().enumerate() {
            let lo = 1u64 << j;
            let hi = 1u64 << (j + 1);
            if pivot.1 < lo || pivot.1 >= hi {
                let target = Sketch::target_rank(j + 1, size);
                if let Some(score) = tree.select_desc(target) {
                    *pivot = (score, target);
                }
            }
        }
    }
}

impl RangeKSelect for St12KSelect {
    fn insert(&self, pt: Point) {
        let report = self.base.insert(pt.x);
        debug_assert!(report.inserted, "coordinates must be distinct");
        self.handle_splits(&report);
        let path = self.base.descend(pt.x);
        let leaf = *path.last().unwrap();
        let page = self.ensure_leaf_page(leaf);
        self.leaves.with_mut(page, |p| p.pts.push(pt));
        self.len.fetch_add(1, Ordering::Relaxed);
        // O(log_B n) work at each ancestor: score B-tree insert + sketch repair.
        for w in path.windows(2).rev() {
            self.sketch_insert(w[0], w[1], pt.score);
        }
    }

    fn delete(&self, pt: Point) -> bool {
        let path = self.base.descend(pt.x);
        let leaf = *path.last().unwrap();
        let page = self.ensure_leaf_page(leaf);
        let present = self.leaves.with(page, |p| {
            p.pts.iter().any(|q| q.x == pt.x && q.score == pt.score)
        });
        if !present {
            return false;
        }
        self.leaves.with_mut(page, |p| {
            p.pts.retain(|q| !(q.x == pt.x && q.score == pt.score))
        });
        self.base.delete(pt.x);
        self.len.fetch_sub(1, Ordering::Relaxed);
        for w in path.windows(2).rev() {
            self.sketch_delete(w[0], w[1], pt.score);
        }
        true
    }

    fn select(&self, x1: u64, x2: u64, k: u64) -> Option<u64> {
        if x1 > x2 || self.is_empty() || k == 0 {
            return None;
        }
        let pieces = self.base.canonical_decompose(x1, x2);
        // Exact size of S ∩ q from the decomposition (child weights plus the
        // boundary leaves): when the whole range is only O(k) points the
        // reduction is better off reporting everything, so signal that.
        let mut range_count = 0u64;
        for piece in &pieces {
            match piece {
                CanonicalPiece::Leaf(leaf) => {
                    range_count += self
                        .leaf_points(*leaf)
                        .iter()
                        .filter(|p| p.x >= x1 && p.x <= x2)
                        .count() as u64;
                }
                CanonicalPiece::MultiSlab {
                    node,
                    child_lo,
                    child_hi,
                } => {
                    let children = self.base.children(*node);
                    range_count += children[*child_lo..=*child_hi]
                        .iter()
                        .map(|c| c.weight)
                        .sum::<u64>();
                }
            }
        }
        if range_count <= 4 * k {
            return None;
        }
        let mut leaf_candidates: Vec<u64> = Vec::new();
        let mut sketches: Vec<Vec<u64>> = Vec::new();
        for piece in pieces {
            match piece {
                CanonicalPiece::Leaf(leaf) => {
                    let mut scores: Vec<u64> = self
                        .leaf_points(leaf)
                        .into_iter()
                        .filter(|p| p.x >= x1 && p.x <= x2)
                        .map(|p| p.score)
                        .collect();
                    scores.sort_unstable_by(|a, b| b.cmp(a));
                    if scores.len() >= k as usize {
                        leaf_candidates.push(scores[k as usize - 1]);
                    }
                }
                CanonicalPiece::MultiSlab {
                    node,
                    child_lo,
                    child_hi,
                } => {
                    let table = self.load_sketches(node);
                    let children = self.base.children(node);
                    for c in &children[child_lo..=child_hi] {
                        if let Some((_, pivots)) = table.iter().find(|(id, _)| *id == c.id) {
                            sketches.push(pivots.iter().map(|&(score, _)| score).collect());
                        }
                    }
                }
            }
        }
        let views: Vec<&[u64]> = sketches.iter().map(|v| v.as_slice()).collect();
        let merged = if views.is_empty() {
            None
        } else {
            lemma7::approx_rank_select(&views, k)
        };
        merged.into_iter().chain(leaf_candidates).max()
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    fn rebuild(&self, points: &[Point]) {
        self.rebuild_from_points(points);
    }

    fn space_blocks(&self) -> usize {
        let trees = self.scores_of.read().unwrap();
        self.base.space_blocks()
            + self.leaves.live_pages()
            + self.chunks.live_pages()
            + trees.values().map(|t| t.space_blocks()).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        "st12-kselect (Sheng & Tao 2012 baseline)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 7 + 2).collect();
        xs.shuffle(&mut rng);
        scores.shuffle(&mut rng);
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }

    const QUALITY: u64 = 64;

    /// Same contract as the polylog structure's test: never over-deliver by
    /// more than O(k); under-delivery must be fixable by doubling the target.
    fn check_select(s: &St12KSelect, pts: &[Point], x1: u64, x2: u64, k: u64) {
        let total = pts.iter().filter(|p| p.x >= x1 && p.x <= x2).count() as u64;
        let mut target = k;
        for _ in 0..8 {
            match s.select(x1, x2, target) {
                Some(tau) => {
                    let r = pts
                        .iter()
                        .filter(|p| p.x >= x1 && p.x <= x2 && p.score >= tau)
                        .count() as u64;
                    assert!(r <= QUALITY * target, "rank {r} > {QUALITY}·target");
                    if r >= k.min(total) {
                        return;
                    }
                }
                None => {
                    assert!(total <= QUALITY * target);
                    return;
                }
            }
            target *= 2;
        }
        panic!("select never reached rank k={k} in range [{x1},{x2}] (total={total})");
    }

    #[test]
    fn select_quality_under_updates() {
        let dev = Device::new(EmConfig::new(128, 128 * 128));
        let s = St12KSelect::new(&dev, "st12", St12Config::for_device(&dev));
        let mut pts = random_points(3, 1200);
        for &p in &pts {
            s.insert(p);
        }
        let mut rng = StdRng::seed_from_u64(9);
        // Mixed updates.
        let mut next = 50_000u64;
        for _ in 0..300 {
            if rng.gen_bool(0.4) && !pts.is_empty() {
                let idx = rng.gen_range(0..pts.len());
                let victim = pts.swap_remove(idx);
                assert!(s.delete(victim));
            } else {
                let p = Point {
                    x: next * 3 + 2,
                    score: next * 7 + 5,
                };
                next += 1;
                pts.push(p);
                s.insert(p);
            }
        }
        assert_eq!(s.len(), pts.len() as u64);
        for _ in 0..30 {
            let a = rng.gen_range(0..200_000u64);
            let b = rng.gen_range(a..=200_000u64);
            let k = rng.gen_range(1..=24u64);
            check_select(&s, &pts, a, b, k);
        }
    }

    #[test]
    fn bulk_build_matches_quality() {
        let dev = Device::new(EmConfig::new(128, 128 * 128));
        let s = St12KSelect::new(&dev, "st12", St12Config::for_device(&dev));
        let pts = random_points(11, 2000);
        s.rebuild_from_points(&pts);
        assert_eq!(s.len(), 2000);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let a = rng.gen_range(0..6000u64);
            let b = rng.gen_range(a..=6000u64);
            let k = rng.gen_range(1..=32u64);
            check_select(&s, &pts, a, b, k);
        }
    }
}
