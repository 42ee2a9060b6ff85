//! The pilot-set external priority search tree of §2 (Lemma 1).
//!
//! The base tree `T` is a weight-balanced B-tree over the x-coordinates with
//! branching parameter `Θ(B)`. Every internal base node `u` carries a balanced
//! binary *secondary tree* `T(u)` whose leaves are the slabs of `u`'s
//! children; concatenating all secondary trees (the leaf for child `u'`
//! adopting the root of `T(u')` as its only child) yields the *script tree*
//! 𝒯 of height `O(lg n)`. Every script node `v` owns a *pilot set*: the
//! highest points of its slab that are not stored at a script ancestor, capped
//! at `Θ(B)` points (one block). The lowest pilot point is the node's
//! *representative*; each internal base node keeps a *representative block*
//! listing the representatives of all script nodes of its secondary tree, so
//! that updates can descend one base level per I/O.
//!
//! * Queries (`top-k`): a resumable best-first drain over the script tree
//!   ([`PilotPst::drain`], its frontier in `drain.rs`), which reads the
//!   two boundary paths (`O(lg n)` I/Os) and then pages in descending
//!   representative order, so `k` points cost `O(lg n + k/B)` I/Os. It
//!   stands in for Figure 2's heap selection of `φ·(lg n + k/B)`
//!   representatives, which no served query runs (DESIGN.md §2).
//! * Insertions descend via representative blocks (`O(log_B n)` I/Os) and
//!   resolve pilot overflow with *push-downs*; deletions locate the holder via
//!   representative blocks and resolve underflow with *pull-ups*; base-tree
//!   splits rebuild the secondary structures of the split region, and a global
//!   rebuild runs after `n/2` deletions — `O(log_B n)` amortized I/Os per
//!   update (Lemma 3's token argument).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use emsim::{BlockFile, Device, Page, PageId};
use wbbtree::{NodeId, WbbConfig, WbbTree};

use crate::drain::{self, Frontier, Lane};
use crate::point::Point;

/// Parameters of a [`PilotPst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PilotConfig {
    /// Base-tree branching parameter (`Θ(B)`).
    pub branching: usize,
    /// Base-tree leaf target (keys per leaf).
    pub leaf_target: usize,
    /// Maximum pilot-set size (one block of points).
    pub pilot_max: usize,
}

impl PilotConfig {
    /// Derive a configuration from the device's block size.
    pub fn for_device(device: &Device) -> Self {
        let b = device.block_words();
        let branching = (b / 32).clamp(2, 32);
        let pilot_max = ((b.saturating_sub(16)) / Point::WORDS).max(8);
        let leaf_target = (pilot_max / 2).max(4);
        Self {
            branching,
            leaf_target,
            pilot_max,
        }
    }

    fn pilot_target(&self) -> usize {
        (self.pilot_max / 2).max(1)
    }

    fn pilot_min(&self) -> usize {
        (self.pilot_max / 8).max(1)
    }
}

/// A script-tree node page: routing information plus the pilot set.
#[derive(Debug, Clone)]
struct ScriptNode {
    /// Base node whose secondary tree this script node belongs to.
    owner: NodeId,
    /// Script parent (NULL for the global script root).
    parent: PageId,
    /// Script children as `(max x routed into the child, child page)`.
    children: Vec<(u64, PageId)>,
    /// The pilot set.
    pilot: Vec<Point>,
}

impl Page for ScriptNode {
    fn words(&self) -> usize {
        8 + self.children.len() * 2 + self.pilot.len() * Point::WORDS
    }
}

impl ScriptNode {
    fn rep(&self) -> Option<u64> {
        self.pilot.iter().map(|p| p.score).min()
    }
}

/// The slot of the script child that coordinate `x` routes into: the first
/// whose max key is at least `x`, else the last (max keys can lag behind
/// inserts past them). Every placement of a point and every lookup routes
/// through here, so a point always lies on the script path toward its `x`.
fn route(children: &[(u64, PageId)], x: u64) -> usize {
    children
        .iter()
        .position(|&(mk, _)| x <= mk)
        .unwrap_or(children.len().saturating_sub(1))
}

/// Representative-block entry for one script node of a secondary tree.
#[derive(Debug, Clone, Copy)]
struct RepEntry {
    script: PageId,
    rep: u64,
    len: u32,
    below: u64,
}

/// Representative block of one internal base node.
#[derive(Debug, Clone, Default)]
struct RepBlock {
    entries: Vec<RepEntry>,
}

impl Page for RepBlock {
    fn words(&self) -> usize {
        2 + self.entries.len() * 4
    }
}

/// The §2 structure. See the module docs.
pub struct PilotPst {
    config: PilotConfig,
    base: WbbTree<u64>,
    scripts: BlockFile<ScriptNode>,
    reps: BlockFile<RepBlock>,
    /// Root of the whole script tree.
    script_root: RwLock<PageId>,
    /// Directory: internal base node → its representative block.
    rep_of: RwLock<HashMap<NodeId, PageId>>,
    /// Directory: base node → the script node that represents its slab
    /// (the root of `T(u)` for internal `u`, the slab leaf for a base leaf).
    slab_of: RwLock<HashMap<NodeId, PageId>>,
    len: AtomicU64,
    deletes: AtomicU64,
}

impl PilotPst {
    /// Create an empty structure.
    pub fn new(device: &Device, name: &str) -> Self {
        let config = PilotConfig::for_device(device);
        Self::with_config(device, name, config)
    }

    /// Create an empty structure with explicit parameters.
    pub fn with_config(device: &Device, name: &str, config: PilotConfig) -> Self {
        let base = WbbTree::new(
            device,
            &format!("{name}.base"),
            WbbConfig::new(config.branching, config.leaf_target, 1),
        );
        let scripts = device.open_file::<ScriptNode>(&format!("{name}.script"));
        let reps = device.open_file::<RepBlock>(&format!("{name}.reps"));
        let s = Self {
            config,
            base,
            scripts,
            reps,
            script_root: RwLock::new(PageId::NULL),
            rep_of: RwLock::new(HashMap::new()),
            slab_of: RwLock::new(HashMap::new()),
            len: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
        };
        s.rebuild_all(&[]);
        s
    }

    /// Number of stored points.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn script_root(&self) -> PageId {
        *self.script_root.read().unwrap()
    }

    fn set_script_root(&self, id: PageId) {
        *self.script_root.write().unwrap() = id;
    }

    /// Space in blocks.
    pub fn space_blocks(&self) -> usize {
        self.base.space_blocks() + self.scripts.live_pages() + self.reps.live_pages()
    }

    /// The configuration in use.
    pub fn config(&self) -> PilotConfig {
        self.config
    }

    // ----- script tree construction -----

    /// Rebuild everything from scratch from `points`.
    pub fn rebuild_all(&self, points: &[Point]) {
        // Drop old secondary pages.
        for id in self.scripts.live_ids() {
            self.scripts.free(id);
        }
        for id in self.reps.live_ids() {
            self.reps.free(id);
        }
        self.rep_of.write().unwrap().clear();
        self.slab_of.write().unwrap().clear();

        let mut xs: Vec<u64> = points.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        self.base.bulk_load(&xs);
        self.len.store(points.len() as u64, Ordering::Relaxed);
        self.deletes.store(0, Ordering::Relaxed);

        let root = self.base.root();
        let script_root = self.build_script(root, PageId::NULL);
        self.set_script_root(script_root);
        let mut sorted: Vec<Point> = points.to_vec();
        sorted.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        self.assign_pilots(script_root, sorted);
        self.rebuild_rep_blocks_under(root);
    }

    /// Build the secondary/script structure for the base subtree rooted at
    /// `base_node`; returns the script node representing `base_node`'s slab.
    fn build_script(&self, base_node: NodeId, script_parent: PageId) -> PageId {
        let children = self.base.children(base_node);
        if children.is_empty() {
            // Base leaf: a single slab-leaf script node.
            let page = self.scripts.alloc(ScriptNode {
                owner: base_node,
                parent: script_parent,
                children: Vec::new(),
                pilot: Vec::new(),
            });
            self.slab_of.write().unwrap().insert(base_node, page);
            return page;
        }
        // Balanced binary tree over the child slabs.
        let leaves: Vec<(u64, NodeId)> = children.iter().map(|c| (c.max_key, c.id)).collect();
        let root = self.build_binary(base_node, script_parent, &leaves);
        self.slab_of.write().unwrap().insert(base_node, root);
        root
    }

    /// Build a balanced binary script tree over `slabs` (child max-key, child
    /// base node); returns its root. Slab leaves adopt the recursively built
    /// script of their base child.
    fn build_binary(
        &self,
        owner: NodeId,
        script_parent: PageId,
        slabs: &[(u64, NodeId)],
    ) -> PageId {
        if slabs.len() == 1 {
            let (max_key, base_child) = slabs[0];
            let page = self.scripts.alloc(ScriptNode {
                owner,
                parent: script_parent,
                children: Vec::new(),
                pilot: Vec::new(),
            });
            // Concatenation: the slab leaf adopts the child's script root as
            // its only child (unless the child is a base leaf, which gets its
            // own slab-leaf node directly).
            if !self.base.is_leaf(base_child) {
                let child_root = self.build_script(base_child, page);
                self.scripts
                    .with_mut(page, |n| n.children.push((max_key, child_root)));
            } else {
                let child_leaf = self.build_script(base_child, page);
                self.scripts
                    .with_mut(page, |n| n.children.push((max_key, child_leaf)));
            }
            return page;
        }
        let mid = slabs.len() / 2;
        let page = self.scripts.alloc(ScriptNode {
            owner,
            parent: script_parent,
            children: Vec::new(),
            pilot: Vec::new(),
        });
        let left = self.build_binary(owner, page, &slabs[..mid]);
        let right = self.build_binary(owner, page, &slabs[mid..]);
        let left_max = slabs[mid - 1].0;
        let right_max = slabs[slabs.len() - 1].0;
        self.scripts.with_mut(page, |n| {
            n.children.push((left_max, left));
            n.children.push((right_max, right));
        });
        page
    }

    /// Assign `pts` (sorted by descending score) to the pilot sets of the
    /// script subtree rooted at `script`: the top `pilot_target` stay here,
    /// the rest are routed by x to the children.
    fn assign_pilots(&self, script: PageId, pts: Vec<Point>) {
        let children: Vec<(u64, PageId)> = self.scripts.with(script, |n| n.children.clone());
        let keep = if children.is_empty() {
            pts.len()
        } else {
            pts.len().min(self.config.pilot_target())
        };
        let (here, rest) = pts.split_at(keep);
        self.scripts.with_mut(script, |n| n.pilot = here.to_vec());
        if children.is_empty() {
            debug_assert!(rest.is_empty(), "a slab leaf must absorb its points");
            return;
        }
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); children.len()];
        for &p in rest {
            buckets[route(&children, p.x)].push(p);
        }
        for ((_, child), bucket) in children.iter().zip(buckets) {
            self.assign_pilots(*child, bucket);
        }
    }

    /// Recompute the representative blocks of every internal base node in the
    /// subtree of `base_node`.
    fn rebuild_rep_blocks_under(&self, base_node: NodeId) {
        for node in self.base.subtree_nodes_bottom_up(base_node) {
            if !self.base.is_leaf(node) {
                self.rebuild_rep_block(node);
            }
        }
    }

    /// Script nodes belonging to `T(u)` (the secondary tree of base node `u`),
    /// found by walking down from its root without crossing into other
    /// owners.
    fn secondary_nodes(&self, u: NodeId) -> Vec<PageId> {
        let root = *self
            .slab_of
            .read()
            .unwrap()
            .get(&u)
            .expect("script root exists");
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            let (owner, children) = self.scripts.with(s, |n| (n.owner, n.children.clone()));
            if owner != u {
                continue;
            }
            out.push(s);
            for (_, c) in children {
                let child_owner = self.scripts.with(c, |n| n.owner);
                if child_owner == u {
                    stack.push(c);
                }
            }
        }
        out
    }

    fn rebuild_rep_block(&self, u: NodeId) {
        let mut entries = Vec::new();
        for s in self.secondary_nodes(u) {
            let (rep, len) = self
                .scripts
                .with(s, |n| (n.rep().unwrap_or(0), n.pilot.len() as u32));
            let below = self.count_points_below_script(s);
            entries.push(RepEntry {
                script: s,
                rep,
                len,
                below,
            });
        }
        let page = {
            let mut map = self.rep_of.write().unwrap();
            match map.get(&u) {
                Some(&p) => p,
                None => {
                    let p = self.reps.alloc(RepBlock::default());
                    map.insert(u, p);
                    p
                }
            }
        };
        self.reps.with_mut(page, |b| b.entries = entries);
    }

    fn count_points_below_script(&self, script: PageId) -> u64 {
        let children: Vec<(u64, PageId)> = self.scripts.with(script, |n| n.children.clone());
        let mut total = 0;
        for (_, c) in children {
            total += self.scripts.with(c, |n| n.pilot.len() as u64);
            total += self.count_points_below_script(c);
        }
        total
    }

    // ----- representative-block bookkeeping -----

    fn rep_block_of(&self, u: NodeId) -> PageId {
        *self
            .rep_of
            .read()
            .unwrap()
            .get(&u)
            // audit: allow(panic_path, reason = "fail-fast on a corrupted rep_of map; the node id in the message is the diagnostic")
            .unwrap_or_else(|| panic!("no representative block for base node {u:?}"))
    }

    /// Refresh the rep/len entry of `script` (owned by `owner`), adjusting the
    /// `below` counter by `below_delta`.
    fn refresh_rep_entry(&self, owner: NodeId, script: PageId, below_delta: i64) {
        if self.base.is_leaf(owner) {
            return; // base leaves have no representative block
        }
        let (rep, len) = self
            .scripts
            .with(script, |n| (n.rep().unwrap_or(0), n.pilot.len() as u32));
        let page = self.rep_block_of(owner);
        self.reps.with_mut(page, |b| {
            if let Some(e) = b.entries.iter_mut().find(|e| e.script == script) {
                e.rep = rep;
                e.len = len;
                e.below = (e.below as i64 + below_delta).max(0) as u64;
            }
        });
    }

    // ----- updates -----

    /// Insert a point (distinct x and score). `O(log_B n)` amortized I/Os.
    pub fn insert(&self, pt: Point) {
        let report = self.base.insert(pt.x);
        debug_assert!(report.inserted, "coordinates must be distinct");
        if !report.splits.is_empty() {
            // Rebuild the secondary structures of the subtree of the highest
            // split's parent, exactly as the paper rebuilds the subtree of the
            // parent of the highest unbalanced node.
            let top = report.splits.last().expect("checked non-empty above");
            self.rebuild_subtree_secondary(top.parent);
        }

        // Descend by representative blocks to the script node that should
        // incorporate the point.
        let mut passed: Vec<(NodeId, PageId)> = Vec::new();
        let mut cur = self.script_root();
        let target = loop {
            let (owner, children, len, rep, below) = self.scripts.with(cur, |n| {
                (
                    n.owner,
                    n.children.clone(),
                    n.pilot.len(),
                    n.rep().unwrap_or(0),
                    0u64,
                )
            });
            let below = if self.base.is_leaf(owner) {
                below
            } else {
                let page = self.rep_block_of(owner);
                self.reps.with(page, |b| {
                    b.entries
                        .iter()
                        .find(|e| e.script == cur)
                        .map(|e| e.below)
                        .unwrap_or(0)
                })
            };
            if children.is_empty() {
                break cur; // slab leaf: the point must live here
            }
            if below == 0 || (len > 0 && pt.score > rep) || len < self.config.pilot_min() {
                break cur;
            }
            passed.push((owner, cur));
            cur = children[route(&children, pt.x)].1;
        };

        for (owner, script) in &passed {
            self.refresh_rep_entry(*owner, *script, 1);
        }
        self.push_points_down(target, vec![pt]);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Delete a point (exact x and score). Returns `false` if absent.
    pub fn delete(&self, pt: Point) -> bool {
        // Locate the holder: the first script node on the x-path whose
        // representative is ≤ the point's score must hold it if it exists.
        let mut passed: Vec<(NodeId, PageId)> = Vec::new();
        let mut cur = self.script_root();
        let holder = loop {
            let (owner, children, pilot) = self
                .scripts
                .with(cur, |n| (n.owner, n.children.clone(), n.pilot.clone()));
            if pilot.iter().any(|q| q.x == pt.x && q.score == pt.score) {
                break Some((owner, cur));
            }
            let rep = pilot.iter().map(|p| p.score).min();
            if let Some(rep) = rep {
                if pt.score >= rep {
                    // Everything below is strictly smaller than the rep.
                    break None;
                }
            }
            if children.is_empty() {
                break None;
            }
            passed.push((owner, cur));
            cur = children[route(&children, pt.x)].1;
        };
        let Some((owner, holder)) = holder else {
            return false;
        };
        self.scripts.with_mut(holder, |n| {
            n.pilot.retain(|q| !(q.x == pt.x && q.score == pt.score));
        });
        self.refresh_rep_entry(owner, holder, 0);
        for (o, s) in &passed {
            self.refresh_rep_entry(*o, *s, -1);
        }
        self.base.delete(pt.x);
        self.pull_up_if_needed(holder);
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.deletes.fetch_add(1, Ordering::Relaxed);
        if self.deletes.load(Ordering::Relaxed) > self.len() / 2 + 16 {
            let pts = self.all_points();
            self.rebuild_all(&pts);
        }
        true
    }

    /// Merge `incoming` into `script`'s pilot set; on overflow keep the
    /// highest `pilot_target` points here and cascade the rest downwards (the
    /// push-down of the paper). Pages are never written above their capacity.
    fn push_points_down(&self, script: PageId, incoming: Vec<Point>) {
        if incoming.is_empty() {
            return;
        }
        let (owner, children, mut pilot) = self
            .scripts
            .with(script, |n| (n.owner, n.children.clone(), n.pilot.clone()));
        pilot.extend(incoming);
        if pilot.len() <= self.config.pilot_max || children.is_empty() {
            // A slab leaf may exceed `pilot_max` by the couple of keys its base
            // leaf can hold beyond the split threshold; the sizing in
            // `PilotConfig::for_device` keeps that within one block.
            self.scripts.with_mut(script, |n| n.pilot = pilot);
            self.refresh_rep_entry(owner, script, 0);
            return;
        }
        pilot.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        let moved: Vec<Point> = pilot.split_off(self.config.pilot_target());
        self.scripts.with_mut(script, |n| n.pilot = pilot);
        self.refresh_rep_entry(owner, script, moved.len() as i64);
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); children.len()];
        for p in moved {
            buckets[route(&children, p.x)].push(p);
        }
        for ((_, child), bucket) in children.iter().zip(buckets) {
            self.push_points_down(*child, bucket);
        }
    }

    fn pull_up_if_needed(&self, script: PageId) {
        let (owner, children, pilot_len) = self
            .scripts
            .with(script, |n| (n.owner, n.children.clone(), n.pilot.len()));
        if children.is_empty() || pilot_len >= self.config.pilot_min() {
            return;
        }
        // Pull the subtree's best points up **one at a time**, refilling the
        // source child before the next selection. A one-shot multi-pull over
        // the children's *current* pilots is wrong: once it drains a child,
        // the child's own refill hoists grandchild points that can score
        // above this node's post-pull minimum — breaking the pilot ordering
        // that delete's holder search and the representative pruning rely
        // on (caught by the trace harness; see
        // traces/pilot_pull_up_ordering.trace).
        let want = self.config.pilot_target().saturating_sub(pilot_len);
        let mut pulled = 0usize;
        for _ in 0..want {
            // The best candidate is the max over the direct children's
            // pilots: each child maintains "empty pilot ⇒ empty subtree",
            // so the direct maxima cover everything below.
            let mut best: Option<(PageId, Point)> = None;
            for (_, c) in &children {
                let cmax = self
                    .scripts
                    .with(*c, |n| n.pilot.iter().copied().max_by_key(|p| p.score));
                if let Some(p) = cmax {
                    if best.map(|(_, b)| p.score > b.score).unwrap_or(true) {
                        best = Some((*c, p));
                    }
                }
            }
            let Some((child, p)) = best else { break };
            self.scripts.with_mut(child, |n| {
                n.pilot.retain(|q| !(q.x == p.x && q.score == p.score))
            });
            self.scripts.with_mut(script, |n| n.pilot.push(p));
            pulled += 1;
            let child_owner = self.scripts.with(child, |n| n.owner);
            self.refresh_rep_entry(child_owner, child, 0);
            self.pull_up_if_needed(child);
        }
        if pulled > 0 {
            self.refresh_rep_entry(owner, script, -(pulled as i64));
        }
    }

    /// Rebuild the secondary structures (script trees, pilot sets,
    /// representative blocks) of the base subtree rooted at `base_node` — the
    /// paper's pilot grounding + bottom-up refill, implemented as a collect
    /// and top-down redistribution.
    fn rebuild_subtree_secondary(&self, base_node: NodeId) {
        // A freshly created base root has no script node yet; the region it
        // covers is the whole old script tree.
        let slab = self.slab_of.read().unwrap().get(&base_node).copied().or({
            if self.base.root() == base_node && !self.script_root().is_null() {
                Some(self.script_root())
            } else {
                None
            }
        });
        let (script_parent, old_root) = match slab {
            Some(root) => (self.scripts.with(root, |n| n.parent), Some(root)),
            None => (PageId::NULL, None),
        };
        // Collect all pilot points stored in the region's script nodes.
        let mut pts = Vec::new();
        if let Some(root) = old_root {
            self.collect_and_free_script(root, &mut pts);
        }
        // Drop stale directory entries and representative blocks.
        for node in self.base.subtree_nodes_bottom_up(base_node) {
            self.slab_of.write().unwrap().remove(&node);
            if let Some(p) = self.rep_of.write().unwrap().remove(&node) {
                self.reps.free(p);
            }
        }
        let new_root = self.build_script(base_node, script_parent);
        let mut sorted = pts;
        sorted.sort_unstable_by_key(|p| std::cmp::Reverse(p.score));
        self.assign_pilots(new_root, sorted);
        self.rebuild_rep_blocks_under(base_node);
        // Reattach to the script parent (or install as the global root).
        if script_parent.is_null() {
            self.set_script_root(new_root);
        } else {
            self.scripts.with_mut(script_parent, |n| {
                for slot in n.children.iter_mut() {
                    if Some(slot.1) == old_root {
                        slot.1 = new_root;
                    }
                }
            });
            // The ancestors' below counters may have drifted; refresh the
            // owning base node's representative block entirely.
            let parent_owner = self.scripts.with(script_parent, |n| n.owner);
            if !self.base.is_leaf(parent_owner) {
                self.rebuild_rep_block(parent_owner);
            }
        }
    }

    fn collect_and_free_script(&self, script: PageId, out: &mut Vec<Point>) {
        let (children, pilot) = self
            .scripts
            .with(script, |n| (n.children.clone(), n.pilot.clone()));
        out.extend(pilot);
        for (_, c) in children {
            self.collect_and_free_script(c, out);
        }
        self.scripts.free(script);
    }

    // ----- resumable drain -----

    /// Open a resumable best-first drain over `x ∈ [x1, x2]`: repeated
    /// [`PilotDrain::pull`] calls emit the range's points in descending score
    /// order, resuming from the saved frontier instead of re-running the
    /// boundary-path / heap-selection machinery per batch. Emitting `m`
    /// points costs `O(lg n + m/B)` I/Os **in total across all pulls**
    /// (pilot sets hold `Θ(B)` points and are heap-ordered along the script
    /// tree, so the search reads one page per `Θ(B)` emitted points plus the
    /// boundary fringe). Construction costs no I/Os.
    pub fn drain(&self, x1: u64, x2: u64) -> PilotDrain {
        self.drain_window(x1, x2, 0, u64::MAX)
    }

    /// A drain restricted to the score window `lo ≤ score ≤ hi` — the resume
    /// form used when a saved frontier was invalidated by a write and must
    /// be rebuilt below a low-water mark. A window with `lo > hi` is empty.
    pub fn drain_window(&self, x1: u64, x2: u64, lo: u64, hi: u64) -> PilotDrain {
        PilotDrain {
            x1,
            x2,
            lo,
            hi,
            frontier: Frontier::new(),
        }
    }

    /// Read `script`'s page once: its in-window pilot points become one
    /// sorted run entry, its overlapping children become node entries bounded
    /// by the representative (every descendant scores strictly below it).
    fn drain_expand(&self, d: &mut PilotDrain, script: PageId) {
        self.scripts.with(script, |n| {
            let survivors = n
                .pilot
                .iter()
                .copied()
                .filter(|q| q.x >= d.x1 && q.x <= d.x2 && q.score >= d.lo && q.score <= d.hi);
            if d.frontier.is_bulk() {
                d.frontier.extend_bulk(survivors);
            } else {
                d.frontier.push_run(survivors.collect());
            }
            // An empty pilot set means an empty subtree; a representative at
            // or below the floor bounds every descendant under it too.
            let Some(rep) = n.rep() else { return };
            if n.children.is_empty() || rep <= d.lo {
                return;
            }
            // Script child max-keys can lag behind a freshly inserted
            // maximum (inserts route overflow to the last child), so clamp
            // both cuts instead of bailing out past the last key.
            let il = n
                .children
                .partition_point(|&(mk, _)| mk < d.x1)
                .min(n.children.len() - 1);
            let ih = n
                .children
                .partition_point(|&(mk, _)| mk < d.x2)
                .min(n.children.len() - 1);
            for &(_, c) in &n.children[il..=ih] {
                d.frontier.push_node(rep, c);
            }
        });
    }

    // ----- coordinate lookups -----

    /// Whether a point with coordinate `x` is stored: one base-tree descent,
    /// `O(log_B n)` I/Os.
    pub fn contains(&self, x: u64) -> bool {
        self.base.contains(x)
    }

    /// The point stored at coordinate `x`, if any. Every point lives in a
    /// pilot set on the script path toward its coordinate (the path its
    /// insert, push-downs and pull-ups followed), so this walks that path:
    /// `O(lg n)` I/Os.
    pub fn get(&self, x: u64) -> Option<Point> {
        let mut cur = self.script_root();
        loop {
            let (hit, next) = self.scripts.with(cur, |n| {
                let hit = n.pilot.iter().find(|p| p.x == x).copied();
                let next = n.children.get(route(&n.children, x)).map(|&(_, c)| c);
                (hit, next)
            });
            if hit.is_some() {
                return hit;
            }
            cur = next?;
        }
    }

    /// Number of stored points with `x ∈ [x1, x2]`, in `O(log_B n)` I/Os
    /// (the base tree's weights, see [`WbbTree::count_in_range`]).
    pub fn count_in_range(&self, x1: u64, x2: u64) -> u64 {
        self.base.count_in_range(x1, x2)
    }

    /// All stored points (testing / rebuild support).
    pub fn all_points(&self) -> Vec<Point> {
        let mut out = Vec::new();
        let mut stack = vec![self.script_root()];
        while let Some(s) = stack.pop() {
            let (children, pilot) = self
                .scripts
                .with(s, |n| (n.children.clone(), n.pilot.clone()));
            out.extend(pilot);
            stack.extend(children.into_iter().map(|(_, c)| c));
        }
        out
    }

    /// Verify structural invariants (test support): the heap property of pilot
    /// sets along the script tree, the pilot-capacity bounds, and a base tree
    /// that holds exactly the stored coordinates (counts and
    /// [`PilotPst::contains`] read it).
    pub fn check_invariants(&self) {
        let total = self.check_rec(self.script_root(), u64::MAX);
        assert_eq!(total, self.len(), "stored point count disagrees");
        self.base.check_invariants();
        assert_eq!(self.base.len(), self.len(), "base tree size disagrees");
        let mut xs: Vec<u64> = self.all_points().iter().map(|p| p.x).collect();
        xs.sort_unstable();
        assert_eq!(
            self.base.subtree_keys(self.base.root()),
            xs,
            "base tree keys differ from the stored coordinates"
        );
    }

    fn check_rec(&self, script: PageId, ancestor_min: u64) -> u64 {
        let (children, pilot) = self
            .scripts
            .with(script, |n| (n.children.clone(), n.pilot.clone()));
        assert!(
            pilot.len() <= self.config.pilot_max + 1,
            "pilot set exceeds its capacity"
        );
        for p in &pilot {
            assert!(
                p.score < ancestor_min || ancestor_min == u64::MAX,
                "pilot point {:?} violates the ancestor ordering",
                p
            );
        }
        let my_min = pilot.iter().map(|p| p.score).min().unwrap_or(ancestor_min);
        if pilot.is_empty() && !children.is_empty() {
            // An empty pilot set must mean an empty subtree below.
            for (_, c) in &children {
                assert_eq!(
                    self.count_points_below_script(*c)
                        + self.scripts.with(*c, |n| n.pilot.len() as u64),
                    0,
                    "empty pilot set above a non-empty subtree"
                );
            }
        }
        let mut total = pilot.len() as u64;
        for (_, c) in children {
            total += self.check_rec(c, my_min);
        }
        total
    }
}

/// A resumable best-first drain over a [`PilotPst`] range, created by
/// [`PilotPst::drain`]. The drain owns its whole descent state (no borrows
/// into the tree), so it can be suspended between pulls and resumed
/// arbitrarily later — **as long as the tree has not been mutated** in
/// between. After any insert, delete, or rebuild the saved frontier is
/// meaningless and the drain must be discarded; the index layers gate reuse
/// on a version stamp.
#[derive(Debug)]
pub struct PilotDrain {
    x1: u64,
    x2: u64,
    /// Inclusive score floor.
    lo: u64,
    /// Inclusive score ceiling.
    hi: u64,
    frontier: Frontier<PageId>,
}

impl PilotDrain {
    /// Emit up to `n` further points into `out`, in descending score order,
    /// resuming from the saved frontier. Returns how many were emitted; fewer
    /// than `n` means the drain is exhausted. `pst` must be the structure the
    /// drain was created on, unmutated since. The one-drain case of
    /// [`PilotDrain::pull_merged`].
    pub fn pull(&mut self, pst: &PilotPst, n: usize, out: &mut Vec<Point>) -> usize {
        Self::pull_merged(&mut [(pst, self)], n, out)
    }

    /// Emit up to `n` further points of the union of several drains into
    /// `out`, in descending score order — one best-first search over every
    /// drain's pending pages under one threshold, not a merge of per-drain
    /// pulls. Each `(pst, drain)` pair must name the structure the drain was
    /// created on, unmutated since; the drains should cover disjoint point
    /// sets (a point two drains both hold is emitted twice). Pulls of at
    /// least 64 points pool the drains' candidates under one cut and select
    /// the winners once; smaller pulls step whichever drain's next point or
    /// page ranks highest. Every drain keeps its own unemitted remainder, so
    /// each stays resumable. Returns how many points were emitted; fewer
    /// than `n` means every drain is exhausted.
    pub fn pull_merged(
        drains: &mut [(&PilotPst, &mut PilotDrain)],
        n: usize,
        out: &mut Vec<Point>,
    ) -> usize {
        for (pst, drain) in drains.iter_mut() {
            drain.prime(pst);
        }
        drain::pull(drains, n, out)
    }

    /// Push the root on the first pull, so constructing a drain costs no
    /// I/Os.
    fn prime(&mut self, pst: &PilotPst) {
        if !self.frontier.primed() {
            self.frontier.set_primed();
            if self.x1 <= self.x2 && self.lo <= self.hi && !pst.is_empty() {
                self.frontier.push_node(u64::MAX, pst.script_root());
            }
        }
    }

    /// Whether the drain has emitted everything in its range and window.
    pub fn is_exhausted(&self) -> bool {
        self.frontier.primed() && self.frontier.is_empty()
    }
}

impl Lane for (&PilotPst, &mut PilotDrain) {
    type Id = PageId;

    fn frontier(&mut self) -> &mut Frontier<PageId> {
        &mut self.1.frontier
    }

    fn expand(&mut self, id: PageId) {
        self.0.drain_expand(self.1, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top_k_by_score;
    use emsim::EmConfig;
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    fn device() -> Device {
        Device::new(EmConfig::new(128, 64 * 128))
    }

    /// The top `k` of `[x1, x2]`: one pull of a fresh drain.
    fn drain_top_k(pst: &PilotPst, x1: u64, x2: u64, k: usize) -> Vec<Point> {
        let mut out = Vec::new();
        pst.drain(x1, x2).pull(pst, k, &mut out);
        out
    }

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs: Vec<u64> = (0..n as u64).map(|i| i * 5 + 1).collect();
        let mut scores: Vec<u64> = (0..n as u64).map(|i| i * 11 + 3).collect();
        xs.shuffle(&mut rng);
        scores.shuffle(&mut rng);
        xs.into_iter()
            .zip(scores)
            .map(|(x, score)| Point { x, score })
            .collect()
    }

    fn oracle_top_k(pts: &[Point], x1: u64, x2: u64, k: usize) -> Vec<Point> {
        let in_range: Vec<Point> = pts
            .iter()
            .filter(|p| p.x >= x1 && p.x <= x2)
            .copied()
            .collect();
        top_k_by_score(in_range, k)
    }

    #[test]
    fn incremental_inserts_answer_top_k() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(1, 1200);
        for (i, &p) in pts.iter().enumerate() {
            pst.insert(p);
            if i % 400 == 0 {
                pst.check_invariants();
            }
        }
        pst.check_invariants();
        assert_eq!(pst.len(), 1200);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let a = rng.gen_range(0..6000u64);
            let b = rng.gen_range(a..=6000u64);
            let k = rng.gen_range(1..200usize);
            let got = drain_top_k(&pst, a, b, k);
            let expect = oracle_top_k(&pts, a, b, k);
            assert_eq!(got, expect, "range [{a},{b}] k={k}");
        }
    }

    #[test]
    fn bulk_build_and_full_range_query() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(9, 3000);
        pst.rebuild_all(&pts);
        pst.check_invariants();
        let got = drain_top_k(&pst, 0, u64::MAX, 10);
        let expect = oracle_top_k(&pts, 0, u64::MAX, 10);
        assert_eq!(got, expect);
        // Large k: the whole range.
        let got = drain_top_k(&pst, 0, u64::MAX, 3000);
        assert_eq!(got.len(), 3000);
    }

    /// `get` and `contains` for every live coordinate and for each of
    /// `absent`.
    fn check_lookups(pst: &PilotPst, live: &[Point], absent: &[u64]) {
        for &p in live {
            assert_eq!(pst.get(p.x), Some(p), "live x = {}", p.x);
            assert!(pst.contains(p.x), "live x = {}", p.x);
        }
        for &x in absent {
            assert!(live.iter().all(|p| p.x != x), "x = {x} is live");
            assert_eq!(pst.get(x), None, "absent x = {x}");
            assert!(!pst.contains(x), "absent x = {x}");
        }
    }

    fn count_in(pts: &[Point], x1: u64, x2: u64) -> u64 {
        pts.iter().filter(|p| p.x >= x1 && p.x <= x2).count() as u64
    }

    #[test]
    fn deletions_preserve_correctness() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(5, 900);
        pst.rebuild_all(&pts);
        let mut rng = StdRng::seed_from_u64(6);
        let mut live = pts.clone();
        let mut absent = vec![0, 2, 4_497, 10_000_000];
        for _ in 0..500 {
            let idx = rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            assert!(pst.delete(victim), "deleting {victim:?}");
            absent.push(victim.x);
        }
        assert!(!pst.delete(Point {
            x: 10_000_000,
            score: 1
        }));
        pst.check_invariants();
        assert_eq!(pst.len(), live.len() as u64);
        // 10,000,000 lies above every script child's max key, so its walk
        // clamps to the last child at every level.
        check_lookups(&pst, &live, &absent);
        for _ in 0..20 {
            let a = rng.gen_range(0..4500u64);
            let b = rng.gen_range(a..=4500u64);
            let k = rng.gen_range(1..100usize);
            assert_eq!(drain_top_k(&pst, a, b, k), oracle_top_k(&live, a, b, k));
            assert_eq!(pst.count_in_range(a, b), count_in(&live, a, b), "[{a},{b}]");
        }
    }

    #[test]
    fn drain_matches_query_top_k_and_oracle() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(17, 2000);
        pst.rebuild_all(&pts);
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..25 {
            let a = rng.gen_range(0..10_000u64);
            let b = rng.gen_range(a..=10_000u64);
            let k = rng.gen_range(1..400usize);
            let mut drained = Vec::new();
            let mut drain = pst.drain(a, b);
            // Pull in uneven chunks to exercise the saved frontier.
            while drained.len() < k {
                let chunk = rng.gen_range(1..64usize).min(k - drained.len());
                if drain.pull(&pst, chunk, &mut drained) < chunk {
                    break;
                }
            }
            assert_eq!(drained, drain_top_k(&pst, a, b, k), "range [{a},{b}] k={k}");
            assert_eq!(drained, oracle_top_k(&pts, a, b, k));
        }
    }

    #[test]
    fn drain_stays_exact_after_incremental_updates() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(19, 900);
        for &p in &pts {
            pst.insert(p);
        }
        let mut rng = StdRng::seed_from_u64(20);
        let mut live = pts.clone();
        for _ in 0..300 {
            let idx = rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            assert!(pst.delete(victim));
        }
        for _ in 0..15 {
            let a = rng.gen_range(0..4500u64);
            let b = rng.gen_range(a..=4500u64);
            let k = rng.gen_range(1..250usize);
            let mut drained = Vec::new();
            pst.drain(a, b).pull(&pst, k, &mut drained);
            assert_eq!(drained, oracle_top_k(&live, a, b, k));
        }
    }

    #[test]
    fn drain_window_excludes_scores_at_or_above_the_mark() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(23, 1000);
        pst.rebuild_all(&pts);
        let full = oracle_top_k(&pts, 0, u64::MAX, 1000);
        let mark = full[99].score; // resume below the 100th point
        let mut rest = Vec::new();
        pst.drain_window(0, u64::MAX, 0, mark - 1)
            .pull(&pst, usize::MAX, &mut rest);
        assert_eq!(rest, full[100..].to_vec());
        // The ceiling is inclusive: the top score itself, and nothing when
        // the window is inverted.
        let mut top = Vec::new();
        let best = full[0].score;
        pst.drain_window(0, u64::MAX, best, best)
            .pull(&pst, 5, &mut top);
        assert_eq!(top, full[..1].to_vec());
        let mut none = Vec::new();
        let mut inverted = pst.drain_window(0, u64::MAX, best, best - 1);
        assert_eq!(inverted.pull(&pst, 5, &mut none), 0);
        assert!(inverted.is_exhausted());
    }

    #[test]
    fn merged_pulls_emit_the_union_in_order_and_stay_resumable() {
        // Three structures over an x-partition of one point set (the
        // sharded shape) plus two disjoint ranges of one structure (the
        // multi-range shape): one merged pull sequence must equal the
        // oracle over the union, through step-sized and bulk-sized pulls.
        let dev = device();
        let pts = random_points(31, 3000);
        let parts: Vec<Vec<Point>> = (0..3u64)
            .map(|i| pts.iter().filter(|p| p.x / 5000 == i).copied().collect())
            .collect();
        let psts: Vec<PilotPst> = parts
            .iter()
            .enumerate()
            .map(|(i, part)| {
                let pst = PilotPst::new(&dev, &format!("pilot{i}"));
                pst.rebuild_all(part);
                pst
            })
            .collect();
        let windows = [
            (0usize, 0u64, 4_999u64),
            (1, 5_000, 7_000),
            (1, 8_000, 9_999),
            (2, 10_000, u64::MAX),
        ];
        let in_union = |p: &Point| {
            windows
                .iter()
                .any(|&(i, a, b)| p.x / 5000 == i as u64 && p.x >= a && p.x <= b)
        };
        let expect = oracle_top_k(
            &pts.iter().copied().filter(in_union).collect::<Vec<_>>(),
            0,
            u64::MAX,
            usize::MAX,
        );
        let mut rng = StdRng::seed_from_u64(32);
        for trial in 0..8 {
            let mut drains: Vec<PilotDrain> = windows
                .iter()
                .map(|&(i, a, b)| psts[i].drain(a, b))
                .collect();
            // The first trial pulls to exhaustion; the others stop early.
            let pulls = if trial == 0 { usize::MAX } else { trial };
            let mut got = Vec::new();
            for _ in 0..pulls {
                let chunk = *[1usize, 7, 63, 64, 100, 500].choose(&mut rng).unwrap();
                let mut lanes: Vec<(&PilotPst, &mut PilotDrain)> = windows
                    .iter()
                    .zip(drains.iter_mut())
                    .map(|(&(i, _, _), d)| (&psts[i], d))
                    .collect();
                let before = got.len();
                let pulled = PilotDrain::pull_merged(&mut lanes, chunk, &mut got);
                assert_eq!(pulled, got.len() - before);
                assert_eq!(got[..], expect[..got.len()], "after a pull of {chunk}");
                if pulled < chunk {
                    break;
                }
            }
            // Each drain kept its own remainder: pulled alone, it continues
            // with exactly its part of the union below the merged prefix.
            for (&(i, a, b), drain) in windows.iter().zip(drains.iter_mut()) {
                let mut rest = Vec::new();
                drain.pull(&psts[i], usize::MAX, &mut rest);
                let own: Vec<Point> = expect[got.len()..]
                    .iter()
                    .filter(|p| p.x / 5000 == i as u64 && p.x >= a && p.x <= b)
                    .copied()
                    .collect();
                assert_eq!(rest, own, "trial {trial}, window [{a},{b}]");
                assert!(drain.is_exhausted());
            }
        }
    }

    #[test]
    fn drain_io_is_incremental_not_per_round() {
        // Pulling k points in many small batches must cost about the same
        // I/O as one bulk pull — the whole point of the saved frontier.
        let dev = Device::new(EmConfig::new(256, 8 * 256));
        let pst = PilotPst::new(&dev, "pilot");
        let pts = random_points(29, 20_000);
        pst.rebuild_all(&pts);
        let k = 4096usize;

        dev.drop_cache();
        let (_, bulk) = dev.measure(|| {
            let mut out = Vec::new();
            pst.drain(0, u64::MAX).pull(&pst, k, &mut out);
            out
        });
        dev.drop_cache();
        let (_, batched) = dev.measure(|| {
            let mut out = Vec::new();
            let mut drain = pst.drain(0, u64::MAX);
            for _ in 0..k / 64 {
                drain.pull(&pst, 64, &mut out);
            }
            out
        });
        assert!(
            batched.reads <= bulk.reads + 8,
            "batched pulls re-paid descent I/O: {} batched vs {} bulk reads",
            batched.reads,
            bulk.reads
        );
    }

    #[test]
    fn mixed_workload_against_oracle() {
        let dev = device();
        let pst = PilotPst::new(&dev, "pilot");
        let mut rng = StdRng::seed_from_u64(12);
        let mut live: Vec<Point> = Vec::new();
        let mut absent: Vec<u64> = Vec::new();
        let mut next = 1u64;
        for step in 0..2500 {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let idx = rng.gen_range(0..live.len());
                let victim = live.swap_remove(idx);
                assert!(pst.delete(victim));
                absent.push(victim.x);
            } else {
                let p = Point {
                    x: next * 23 % 1_000_003,
                    score: next * 13,
                };
                next += 1;
                live.push(p);
                pst.insert(p);
            }
            if step % 600 == 0 {
                pst.check_invariants();
            }
        }
        // Above every other coordinate: it routes to the last child at every
        // level, clamped wherever the max keys lag behind it. 3,000,000 is
        // absent and above every max key, so its walk clamps all the way.
        let top = Point {
            x: 2_000_000,
            score: next * 13,
        };
        pst.insert(top);
        live.push(top);
        pst.check_invariants();
        absent.extend([0, 1_999_999, 3_000_000]);
        check_lookups(&pst, &live, &absent);
        for _ in 0..25 {
            let a = rng.gen_range(0..1_000_003u64);
            let b = rng.gen_range(a..=1_000_003u64);
            let k = rng.gen_range(1..150usize);
            assert_eq!(drain_top_k(&pst, a, b, k), oracle_top_k(&live, a, b, k));
            assert_eq!(pst.count_in_range(a, b), count_in(&live, a, b), "[{a},{b}]");
        }
        assert_eq!(pst.count_in_range(0, u64::MAX), live.len() as u64);
        assert_eq!(pst.count_in_range(1_000_003, u64::MAX), 1);
    }
}
