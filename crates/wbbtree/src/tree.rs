//! The weight-balanced base tree.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use emsim::{BlockFile, Device};

use crate::node::{NodeId, WbbChild, WbbConfig, WbbNode, WbbNodeKind};

/// A node split performed during an insertion, reported bottom-up so the owner
/// can rebuild the secondary structures of the affected region.
///
/// Fields reflect the tree state *at the time of the split*: if a later split
/// in the same cascade splits `parent` itself, the sibling may have been moved
/// under a different node by the time the insert returns. Owners that rebuild
/// the subtree of the highest split's parent (the paper's policy) can rely on
/// the last event of [`InsertReport::splits`] being current.
#[derive(Debug, Clone, Copy)]
pub struct SplitEvent {
    /// The node that split (it kept the lower half of its contents).
    pub node: NodeId,
    /// The newly created right sibling (upper half).
    pub new_sibling: NodeId,
    /// Parent of both immediately after the split.
    pub parent: NodeId,
    /// Level of the split node.
    pub level: u32,
}

/// Outcome of [`WbbTree::insert`].
#[derive(Debug, Clone)]
pub struct InsertReport {
    /// Whether the key was actually inserted (`false` for duplicates).
    pub inserted: bool,
    /// Leaf that received the key.
    pub leaf: NodeId,
    /// Root-to-leaf path taken (before any splits).
    pub path: Vec<NodeId>,
    /// Splits performed, bottom-up.
    pub splits: Vec<SplitEvent>,
    /// New root, if the old root split.
    pub new_root: Option<NodeId>,
}

/// Outcome of [`WbbTree::delete`].
#[derive(Debug, Clone)]
pub struct DeleteReport {
    /// Leaf the key was removed from.
    pub leaf: NodeId,
    /// Root-to-leaf path taken.
    pub path: Vec<NodeId>,
}

/// One piece of a canonical decomposition of a query range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonicalPiece {
    /// A boundary leaf; its keys must still be filtered against the range.
    Leaf(NodeId),
    /// A run of children `child_lo ..= child_hi` of `node` whose slabs are
    /// fully covered by the query range (a *multi-slab* in the paper's terms).
    MultiSlab {
        /// The internal node owning the children.
        node: NodeId,
        /// First fully covered child index.
        child_lo: usize,
        /// Last fully covered child index.
        child_hi: usize,
    },
}

/// A weight-balanced B-tree over keys of type `K`. See the crate docs.
pub struct WbbTree<K> {
    file: BlockFile<WbbNode<K>>,
    root: RwLock<NodeId>,
    len: AtomicU64,
    config: WbbConfig,
}

impl<K: Ord + Copy + Debug> WbbTree<K> {
    /// Create an empty tree.
    pub fn new(device: &Device, name: &str, config: WbbConfig) -> Self {
        let file = device.open_file::<WbbNode<K>>(name);
        let root = file.alloc(WbbNode {
            parent: NodeId::NULL,
            level: 0,
            kind: WbbNodeKind::Leaf { keys: Vec::new() },
        });
        Self {
            file,
            root: RwLock::new(root),
            len: AtomicU64::new(0),
            config,
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        *self.root.read().unwrap()
    }

    fn set_root(&self, id: NodeId) {
        *self.root.write().unwrap() = id;
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }

    /// The configuration in use.
    pub fn config(&self) -> WbbConfig {
        self.config
    }

    /// Height of the tree (number of levels; a lone leaf has height 1).
    pub fn height(&self) -> u32 {
        self.level(self.root()) + 1
    }

    /// Number of live node pages.
    pub fn space_blocks(&self) -> usize {
        self.file.live_pages()
    }

    // ----- node accessors -----

    /// Whether `id` is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.file.with(id, |n| n.is_leaf())
    }

    /// Level of `id` (leaves are 0).
    pub fn level(&self, id: NodeId) -> u32 {
        self.file.with(id, |n| n.level)
    }

    /// Subtree weight of `id`.
    pub fn weight(&self, id: NodeId) -> u64 {
        self.file.with(id, |n| n.weight())
    }

    /// Parent of `id`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.file.with(id, |n| n.parent);
        if p.is_null() {
            None
        } else {
            Some(p)
        }
    }

    /// Child slots of an internal node (empty for a leaf).
    pub fn children(&self, id: NodeId) -> Vec<WbbChild<K>> {
        self.file.with(id, |n| match &n.kind {
            WbbNodeKind::Leaf { .. } => Vec::new(),
            WbbNodeKind::Internal { children } => children.clone(),
        })
    }

    /// Keys of a leaf node (empty for an internal node).
    pub fn leaf_keys(&self, id: NodeId) -> Vec<K> {
        self.file.with(id, |n| match &n.kind {
            WbbNodeKind::Leaf { keys } => keys.clone(),
            WbbNodeKind::Internal { .. } => Vec::new(),
        })
    }

    /// Largest key routed into `id`'s subtree (may be stale-high after weak
    /// deletes).
    pub fn max_key(&self, id: NodeId) -> Option<K> {
        self.file.with(id, |n| n.max_key())
    }

    // ----- descent -----

    /// Root-to-leaf path to the leaf whose slab covers `key`.
    pub fn descend(&self, key: K) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = self.root();
        loop {
            path.push(cur);
            let next = self.file.with(cur, |n| match &n.kind {
                WbbNodeKind::Leaf { .. } => None,
                WbbNodeKind::Internal { children } => {
                    let idx = children.partition_point(|c| c.max_key < key);
                    let idx = idx.min(children.len() - 1);
                    Some(children[idx].id)
                }
            });
            match next {
                Some(child) => cur = child,
                None => return path,
            }
        }
    }

    // ----- updates -----

    /// Insert `key`. Duplicate keys are ignored (`inserted = false`).
    pub fn insert(&self, key: K) -> InsertReport {
        let path = self.descend(key);
        let leaf = *path.last().expect("path is never empty");

        let inserted = self.file.with_mut(leaf, |n| match &mut n.kind {
            WbbNodeKind::Leaf { keys } => {
                let pos = keys.partition_point(|k| *k < key);
                if pos < keys.len() && keys[pos] == key {
                    false
                } else {
                    keys.insert(pos, key);
                    true
                }
            }
            // audit: allow(panic_path, reason = "descend always terminates at a leaf; an internal node here means a corrupted tree")
            WbbNodeKind::Internal { .. } => unreachable!("descend ends at a leaf"),
        });

        let mut report = InsertReport {
            inserted,
            leaf,
            path: path.clone(),
            splits: Vec::new(),
            new_root: None,
        };
        if !inserted {
            return report;
        }
        self.len.fetch_add(1, Ordering::Relaxed);

        // Update cached weights and routers along the path, bottom-up.
        for window in path.windows(2).rev() {
            let (node, child) = (window[0], window[1]);
            self.refresh_child_entry(node, child);
        }

        // Split overweight nodes bottom-up.
        let mut cur = Some(leaf);
        while let Some(node) = cur {
            let parent = self.parent(node);
            if self.needs_split(node) {
                let event = self.split_node(node);
                if event.parent == self.root() && self.level(event.parent) > self.level(node) {
                    // The root may have just been created by this split.
                }
                if self.parent(event.node) == Some(event.parent)
                    && self.file.with(event.parent, |n| n.parent.is_null())
                    && Some(event.parent) != parent
                {
                    report.new_root = Some(event.parent);
                }
                report.splits.push(event);
                cur = Some(event.parent);
            } else {
                cur = parent;
            }
        }
        if let Some(new_root) = report.new_root {
            debug_assert_eq!(self.root(), new_root);
        }
        report
    }

    /// Weak-delete `key`: remove it from its leaf and decrement weights. No
    /// rebalancing is performed (the paper relies on periodic global
    /// rebuilding instead). Returns `None` if the key is absent.
    pub fn delete(&self, key: K) -> Option<DeleteReport> {
        let path = self.descend(key);
        let leaf = *path.last().expect("path is never empty");
        let removed = self.file.with_mut(leaf, |n| match &mut n.kind {
            WbbNodeKind::Leaf { keys } => {
                let pos = keys.partition_point(|k| *k < key);
                if pos < keys.len() && keys[pos] == key {
                    keys.remove(pos);
                    true
                } else {
                    false
                }
            }
            // audit: allow(panic_path, reason = "descend always terminates at a leaf; an internal node here means a corrupted tree")
            WbbNodeKind::Internal { .. } => unreachable!("descend ends at a leaf"),
        });
        if !removed {
            return None;
        }
        self.len.fetch_sub(1, Ordering::Relaxed);
        for window in path.windows(2).rev() {
            let (node, child) = (window[0], window[1]);
            self.refresh_child_weight_only(node, child);
        }
        Some(DeleteReport { leaf, path })
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: K) -> bool {
        let path = self.descend(key);
        let leaf = *path.last().expect("path is never empty");
        self.file.with(leaf, |n| match &n.kind {
            WbbNodeKind::Leaf { keys } => keys.binary_search(&key).is_ok(),
            WbbNodeKind::Internal { .. } => false,
        })
    }

    fn refresh_child_entry(&self, node: NodeId, child: NodeId) {
        let (weight, max_key) = self.file.with(child, |c| (c.weight(), c.max_key()));
        self.file.with_mut(node, |n| {
            if let WbbNodeKind::Internal { children } = &mut n.kind {
                if let Some(slot) = children.iter_mut().find(|c| c.id == child) {
                    slot.weight = weight;
                    if let Some(mk) = max_key {
                        if mk > slot.max_key {
                            slot.max_key = mk;
                        }
                    }
                }
            }
        });
    }

    fn refresh_child_weight_only(&self, node: NodeId, child: NodeId) {
        let weight = self.file.with(child, |c| c.weight());
        self.file.with_mut(node, |n| {
            if let WbbNodeKind::Internal { children } = &mut n.kind {
                if let Some(slot) = children.iter_mut().find(|c| c.id == child) {
                    slot.weight = weight;
                }
            }
        });
    }

    fn needs_split(&self, node: NodeId) -> bool {
        self.file.with(node, |n| {
            let budget = 2 * self.config.level_budget(n.level);
            let over_weight = n.weight() > budget;
            let over_fanout = match &n.kind {
                WbbNodeKind::Leaf { .. } => false,
                WbbNodeKind::Internal { children } => children.len() > self.config.max_children(),
            };
            over_weight || over_fanout
        })
    }

    /// Split `node` into itself (lower half) and a new right sibling (upper
    /// half); creates a new root if `node` was the root.
    fn split_node(&self, node: NodeId) -> SplitEvent {
        let level = self.level(node);
        // Ensure the node has a parent to attach the sibling to.
        let parent = match self.parent(node) {
            Some(p) => p,
            None => {
                let old_root_max = self.max_key(node).expect("splitting an empty root");
                let old_root_weight = self.weight(node);
                let new_root = self.file.alloc(WbbNode {
                    parent: NodeId::NULL,
                    level: level + 1,
                    kind: WbbNodeKind::Internal {
                        children: vec![WbbChild {
                            max_key: old_root_max,
                            id: node,
                            weight: old_root_weight,
                        }],
                    },
                });
                self.file.with_mut(node, |n| n.parent = new_root);
                self.set_root(new_root);
                new_root
            }
        };

        // Carve off the upper half.
        let sibling_kind: WbbNodeKind<K> = self.file.with_mut(node, |n| match &mut n.kind {
            WbbNodeKind::Leaf { keys } => {
                let mid = keys.len() / 2;
                WbbNodeKind::Leaf {
                    keys: keys.split_off(mid),
                }
            }
            WbbNodeKind::Internal { children } => {
                // Split by accumulated weight so both halves respect the
                // weight-balance invariant.
                let total: u64 = children.iter().map(|c| c.weight).sum();
                let mut acc = 0u64;
                let mut mid = children.len() / 2;
                for (i, c) in children.iter().enumerate() {
                    acc += c.weight;
                    if acc * 2 >= total {
                        mid = (i + 1).min(children.len() - 1).max(1);
                        break;
                    }
                }
                WbbNodeKind::Internal {
                    children: children.split_off(mid),
                }
            }
        });
        let sibling = self.file.alloc(WbbNode {
            parent,
            level,
            kind: sibling_kind,
        });
        // Re-parent children moved to the sibling.
        let moved: Vec<NodeId> = self.file.with(sibling, |n| match &n.kind {
            WbbNodeKind::Internal { children } => children.iter().map(|c| c.id).collect(),
            WbbNodeKind::Leaf { .. } => Vec::new(),
        });
        for child in moved {
            self.file.with_mut(child, |c| c.parent = sibling);
        }

        // Fix the parent's child list: refresh `node`, insert `sibling` after it.
        let node_summary = self
            .file
            .with(node, |n| (n.weight(), n.max_key().expect("non-empty")));
        let sib_summary = self
            .file
            .with(sibling, |n| (n.weight(), n.max_key().expect("non-empty")));
        self.file.with_mut(parent, |p| {
            if let WbbNodeKind::Internal { children } = &mut p.kind {
                let idx = children
                    .iter()
                    .position(|c| c.id == node)
                    .expect("split node must be a child of its parent");
                children[idx].weight = node_summary.0;
                children[idx].max_key = node_summary.1;
                children.insert(
                    idx + 1,
                    WbbChild {
                        max_key: sib_summary.1,
                        id: sibling,
                        weight: sib_summary.0,
                    },
                );
            }
        });

        SplitEvent {
            node,
            new_sibling: sibling,
            parent,
            level,
        }
    }

    // ----- bulk operations -----

    /// Drop everything and rebuild from `keys` (sorted, duplicate-free).
    pub fn bulk_load(&self, keys: &[K]) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        self.free_subtree(self.root());
        if keys.is_empty() {
            let root = self.file.alloc(WbbNode {
                parent: NodeId::NULL,
                level: 0,
                kind: WbbNodeKind::Leaf { keys: Vec::new() },
            });
            self.set_root(root);
            self.len.store(0, Ordering::Relaxed);
            return;
        }
        let leaf_fill = self.config.leaf_target.max(1);
        let mut level_nodes: Vec<NodeId> = Vec::new();
        for chunk in keys.chunks(leaf_fill) {
            let id = self.file.alloc(WbbNode {
                parent: NodeId::NULL,
                level: 0,
                kind: WbbNodeKind::Leaf {
                    keys: chunk.to_vec(),
                },
            });
            level_nodes.push(id);
        }
        let mut level = 0u32;
        while level_nodes.len() > 1 {
            level += 1;
            let mut next: Vec<NodeId> = Vec::new();
            for chunk in level_nodes.chunks(self.config.branching) {
                let children: Vec<WbbChild<K>> = chunk
                    .iter()
                    .map(|&id| {
                        let (w, mk) = self.file.with(id, |n| {
                            (
                                n.weight(),
                                n.max_key().expect("bulk-load nodes are non-empty"),
                            )
                        });
                        WbbChild {
                            max_key: mk,
                            id,
                            weight: w,
                        }
                    })
                    .collect();
                let parent = self.file.alloc(WbbNode {
                    parent: NodeId::NULL,
                    level,
                    kind: WbbNodeKind::Internal { children },
                });
                for &id in chunk {
                    self.file.with_mut(id, |n| n.parent = parent);
                }
                next.push(parent);
            }
            level_nodes = next;
        }
        self.set_root(level_nodes[0]);
        self.len.store(keys.len() as u64, Ordering::Relaxed);
    }

    fn free_subtree(&self, node: NodeId) {
        let children: Vec<NodeId> = self.file.with(node, |n| match &n.kind {
            WbbNodeKind::Leaf { .. } => Vec::new(),
            WbbNodeKind::Internal { children } => children.iter().map(|c| c.id).collect(),
        });
        for c in children {
            self.free_subtree(c);
        }
        self.file.free(node);
    }

    /// All leaves in key order.
    pub fn leaves(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_leaves(self.root(), &mut out);
        out
    }

    fn collect_leaves(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let children: Vec<NodeId> = self.file.with(node, |n| match &n.kind {
            WbbNodeKind::Leaf { .. } => Vec::new(),
            WbbNodeKind::Internal { children } => children.iter().map(|c| c.id).collect(),
        });
        if children.is_empty() {
            out.push(node);
        } else {
            for c in children {
                self.collect_leaves(c, out);
            }
        }
    }

    /// All nodes of the subtree rooted at `node`, children before parents
    /// (bottom-up), left to right within a level of the recursion.
    pub fn subtree_nodes_bottom_up(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_bottom_up(node, &mut out);
        out
    }

    fn collect_bottom_up(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let children: Vec<NodeId> = self.file.with(node, |n| match &n.kind {
            WbbNodeKind::Leaf { .. } => Vec::new(),
            WbbNodeKind::Internal { children } => children.iter().map(|c| c.id).collect(),
        });
        for c in children {
            self.collect_bottom_up(c, out);
        }
        out.push(node);
    }

    /// All keys stored in the subtree of `node`, ascending.
    pub fn subtree_keys(&self, node: NodeId) -> Vec<K> {
        let mut out = Vec::new();
        for leaf in {
            let mut leaves = Vec::new();
            self.collect_leaves(node, &mut leaves);
            leaves
        } {
            out.extend(self.leaf_keys(leaf));
        }
        out
    }

    // ----- canonical decomposition -----

    /// Decompose the range `[lo, hi]` into `O(branching-ary log)` canonical
    /// pieces: at most two boundary leaves plus, per level, at most two runs
    /// of fully covered children (multi-slabs).
    pub fn canonical_decompose(&self, lo: K, hi: K) -> Vec<CanonicalPiece> {
        let mut out = Vec::new();
        if lo > hi || self.is_empty() {
            return out;
        }
        self.decompose_rec(self.root(), lo, hi, true, true, &mut out);
        out
    }

    /// `lo_cut` / `hi_cut` record whether the respective range boundary falls
    /// strictly inside this node's slab; when both are false the whole subtree
    /// is covered and can be reported as one piece.
    fn decompose_rec(
        &self,
        node: NodeId,
        lo: K,
        hi: K,
        lo_cut: bool,
        hi_cut: bool,
        out: &mut Vec<CanonicalPiece>,
    ) {
        let children = self.children(node);
        if children.is_empty() {
            out.push(CanonicalPiece::Leaf(node));
            return;
        }
        if !lo_cut && !hi_cut {
            out.push(CanonicalPiece::MultiSlab {
                node,
                child_lo: 0,
                child_hi: children.len() - 1,
            });
            return;
        }
        let il = if lo_cut {
            children.partition_point(|c| c.max_key < lo)
        } else {
            0
        };
        if il == children.len() {
            // No keys ≥ lo under this node.
            return;
        }
        let ih = if hi_cut {
            children
                .partition_point(|c| c.max_key < hi)
                .min(children.len() - 1)
        } else {
            children.len() - 1
        };
        if il > ih {
            return;
        }
        if il == ih {
            // At least one boundary cuts into this child (the both-uncut case
            // returned above), so descend.
            self.decompose_rec(children[il].id, lo, hi, lo_cut, hi_cut, out);
            return;
        }
        // il < ih: the children strictly between the boundary children are
        // fully covered; a boundary child that is not cut is fully covered too
        // and joins the multi-slab instead of being descended into.
        let slab_lo = if lo_cut { il + 1 } else { il };
        let slab_hi = if hi_cut { ih - 1 } else { ih };
        if lo_cut {
            self.decompose_rec(children[il].id, lo, hi, true, false, out);
        }
        if slab_lo <= slab_hi {
            out.push(CanonicalPiece::MultiSlab {
                node,
                child_lo: slab_lo,
                child_hi: slab_hi,
            });
        }
        if hi_cut {
            self.decompose_rec(children[ih].id, lo, hi, false, true, out);
        }
    }

    /// Number of stored keys in `[lo, hi]`, in `O(log_B n)` node reads: each
    /// multi-slab of the canonical decomposition is counted from its cached
    /// child weights, and only the boundary leaves are read key by key.
    pub fn count_in_range(&self, lo: K, hi: K) -> u64 {
        let mut total = 0u64;
        for piece in self.canonical_decompose(lo, hi) {
            match piece {
                CanonicalPiece::Leaf(leaf) => {
                    total += self
                        .leaf_keys(leaf)
                        .into_iter()
                        .filter(|k| *k >= lo && *k <= hi)
                        .count() as u64;
                }
                CanonicalPiece::MultiSlab {
                    node,
                    child_lo,
                    child_hi,
                } => {
                    total += self
                        .children(node)
                        .get(child_lo..=child_hi)
                        .expect("a multi-slab names a run of its node's children")
                        .iter()
                        .map(|c| c.weight)
                        .sum::<u64>();
                }
            }
        }
        total
    }

    /// Test helper: the keys covered by the canonical decomposition of
    /// `[lo, hi]` (boundary leaves filtered), ascending. Must equal the set of
    /// stored keys in the range.
    pub fn keys_covered_by_decomposition(&self, lo: K, hi: K) -> Vec<K> {
        let mut out = Vec::new();
        for piece in self.canonical_decompose(lo, hi) {
            match piece {
                CanonicalPiece::Leaf(leaf) => {
                    out.extend(
                        self.leaf_keys(leaf)
                            .into_iter()
                            .filter(|k| *k >= lo && *k <= hi),
                    );
                }
                CanonicalPiece::MultiSlab {
                    node,
                    child_lo,
                    child_hi,
                } => {
                    let children = self.children(node);
                    for c in &children[child_lo..=child_hi] {
                        out.extend(self.subtree_keys(c.id));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    // ----- invariants -----

    /// Check structural invariants; panics on violation (test support).
    pub fn check_invariants(&self) {
        let root = self.root();
        assert!(self.parent(root).is_none(), "root must have no parent");
        let total = self.check_rec(root);
        assert_eq!(total, self.len(), "tree weight disagrees with len()");
    }

    fn check_rec(&self, node: NodeId) -> u64 {
        let snapshot = self.file.get(node);
        match &snapshot.kind {
            WbbNodeKind::Leaf { keys } => {
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "leaf keys out of order"
                );
                assert!(
                    keys.len() as u64 <= 2 * self.config.level_budget(0) + 1,
                    "leaf overflows its budget"
                );
                keys.len() as u64
            }
            WbbNodeKind::Internal { children } => {
                assert!(!children.is_empty(), "internal node with no children");
                assert!(
                    children.len() <= self.config.max_children() + 1,
                    "fan-out exceeds the block budget"
                );
                assert!(
                    children.windows(2).all(|w| w[0].max_key < w[1].max_key),
                    "children out of order"
                );
                let mut total = 0;
                for c in children {
                    assert_eq!(
                        self.file.with(c.id, |n| n.parent),
                        node,
                        "child parent pointer is stale"
                    );
                    assert_eq!(
                        self.file.with(c.id, |n| n.level) + 1,
                        snapshot.level,
                        "child level mismatch"
                    );
                    let w = self.check_rec(c.id);
                    assert_eq!(w, c.weight, "cached child weight is stale");
                    if let Some(mk) = self.file.with(c.id, |n| n.max_key()) {
                        assert!(mk <= c.max_key, "router key smaller than subtree maximum");
                    }
                    total += w;
                }
                total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emsim::EmConfig;

    fn tree() -> (Device, WbbTree<u64>) {
        let dev = Device::new(EmConfig::new(64, 64 * 64));
        let t = WbbTree::new(&dev, "base", WbbConfig::new(4, 8, 1));
        (dev, t)
    }

    #[test]
    fn insert_builds_multiple_levels() {
        let (_dev, t) = tree();
        for i in 0..500u64 {
            let r = t.insert(i * 2 + 1);
            assert!(r.inserted);
        }
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 3, "height = {}", t.height());
        t.check_invariants();
        for i in 0..500u64 {
            assert!(t.contains(i * 2 + 1));
            assert!(!t.contains(i * 2));
        }
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let (_dev, t) = tree();
        assert!(t.insert(7).inserted);
        assert!(!t.insert(7).inserted);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn split_events_report_new_root() {
        let (_dev, t) = tree();
        let mut saw_new_root = false;
        for i in 0..200u64 {
            let r = t.insert(i);
            if let Some(new_root) = r.new_root {
                saw_new_root = true;
                assert_eq!(new_root, t.root());
            }
            for s in &r.splits {
                assert_eq!(t.level(s.node), s.level);
                assert_eq!(t.level(s.new_sibling), s.level);
            }
            // The highest split's parent cannot itself have split afterwards,
            // so its parent pointer must still be current.
            if let Some(top) = r.splits.last() {
                assert_eq!(t.parent(top.new_sibling), Some(top.parent));
                assert_eq!(t.parent(top.node), Some(top.parent));
            }
        }
        assert!(saw_new_root, "growing the tree must create a new root");
        t.check_invariants();
    }

    #[test]
    fn weak_delete_keeps_structure() {
        let (_dev, t) = tree();
        for i in 0..300u64 {
            t.insert(i);
        }
        for i in (0..300u64).step_by(3) {
            assert!(t.delete(i).is_some());
        }
        assert!(t.delete(0).is_none());
        assert_eq!(t.len(), 200);
        t.check_invariants();
        for i in 0..300u64 {
            assert_eq!(t.contains(i), i % 3 != 0);
        }
    }

    #[test]
    fn bulk_load_matches_incremental_contents() {
        let (_dev, t) = tree();
        let keys: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        t.bulk_load(&keys);
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        let mut collected = Vec::new();
        for leaf in t.leaves() {
            collected.extend(t.leaf_keys(leaf));
        }
        assert_eq!(collected, keys);
    }

    #[test]
    fn canonical_decomposition_covers_range_exactly() {
        let (_dev, t) = tree();
        let mut keys: Vec<u64> = (0..2000).map(|i| i * 5).collect();
        t.bulk_load(&keys);
        let ranges = [
            (0, 9995),
            (12, 8848),
            (500, 505),
            (4000, 4000),
            (9990, 20000),
            (7, 3),
        ];
        // The second pass runs after weak deletes, which leave routers and
        // empty leaves behind but keep every cached weight exact.
        for pass in 0..2 {
            if pass == 1 {
                for k in (0..2000u64).filter(|i| i % 3 == 0 || (600..900).contains(i)) {
                    assert!(t.delete(k * 5).is_some());
                }
                keys.retain(|k| (k / 5) % 3 != 0 && !(600..900).contains(&(k / 5)));
            }
            for (lo, hi) in ranges {
                let covered = t.keys_covered_by_decomposition(lo, hi);
                let expected: Vec<u64> = keys
                    .iter()
                    .copied()
                    .filter(|&k| k >= lo && k <= hi)
                    .collect();
                assert_eq!(covered, expected, "pass {pass}: range [{lo},{hi}]");
                assert_eq!(
                    t.count_in_range(lo, hi),
                    covered.len() as u64,
                    "pass {pass}: count of [{lo},{hi}]"
                );
            }
        }
    }

    #[test]
    fn decomposition_has_logarithmically_many_pieces() {
        let (_dev, t) = tree();
        let keys: Vec<u64> = (0..4096).collect();
        t.bulk_load(&keys);
        let pieces = t.canonical_decompose(1, 4094);
        // At most two boundary leaves plus two multi-slabs per level.
        let bound = 2 + 2 * t.height() as usize;
        assert!(
            pieces.len() <= bound,
            "{} pieces exceeds bound {}",
            pieces.len(),
            bound
        );
    }

    #[test]
    fn descend_reaches_covering_leaf() {
        let (_dev, t) = tree();
        for i in 0..512u64 {
            t.insert(i * 4);
        }
        for probe in [0u64, 3, 100, 1000, 2047, 5000] {
            let path = t.descend(probe);
            assert_eq!(path[0], t.root());
            let leaf = *path.last().unwrap();
            assert!(t.is_leaf(leaf));
        }
    }

    #[test]
    fn subtree_helpers_are_consistent() {
        let (_dev, t) = tree();
        let keys: Vec<u64> = (0..700).collect();
        t.bulk_load(&keys);
        let root = t.root();
        let all = t.subtree_nodes_bottom_up(root);
        assert_eq!(*all.last().unwrap(), root, "root must come last");
        assert_eq!(t.subtree_keys(root), keys);
        // Children appear before their parent.
        for child in t.children(root) {
            let child_pos = all.iter().position(|&n| n == child.id).unwrap();
            assert!(child_pos < all.len() - 1);
        }
    }
}
