//! Frontier machinery for the pilot drain's resumable best-first extraction.
//!
//! The pilot PST is a heap-ordered tree of pages: everything stored at a node
//! scores at least as high as everything stored strictly below it. That makes
//! "give me the next `n` points in descending score order" a best-first
//! search whose entire state is one priority queue — the *frontier* — over
//! two kinds of entries:
//!
//! * **runs** — a visited page's surviving points, sorted and consumed
//!   head-first, keyed by the current head's exact score;
//! * **unvisited nodes**, keyed by an upper bound on every score in their
//!   subtree (a pilot representative).
//!
//! Emitting the maximum is therefore always safe: a run head above every
//! node bound beats every unseen point. A node entry at the top is expanded
//! — its page is read once, its in-window points become one run entry, its
//! overlapping children become node entries — and the search continues.
//! Because the frontier owns all of its state (no borrows into the tree), a
//! drain can be **suspended between pulls and resumed later**, which is what
//! makes the query plane's escalation rounds incremental: a later round
//! picks up exactly where the previous one stopped instead of re-descending
//! from the root and re-materializing the emitted prefix.
//!
//! The steady-state cost per emitted point is kept small by two layout
//! choices. Runs and nodes live in *separate* heaps: a point emission only
//! sifts the run heap (`O(live pages)` entries), never the much larger pool
//! of pending node bounds, which is touched once per page instead of once
//! per point. And every heap entry carries its rank key inline, so
//! comparisons never chase into a run's spill vector.
//!
//! Large pulls skip the per-point merge entirely (*bulk mode*): pages are
//! expanded best-first into one flat unordered pool, a quickselect finds the
//! `n`-th score, only the winning prefix is sorted, and the remainder is
//! stashed loose — re-sorted into a run lazily, and only if a later
//! per-point pull actually needs it. Selection touches each pooled point
//! `O(1)` times instead of paying a heap sift per emission, which is what
//! keeps deep pulls (`k ≫ B`) CPU-cheap on top of being I/O-cheap.
//!
//! [`pull`] runs one pull over *several* frontiers (one per [`Lane`]: a
//! range of one tree) as one best-first search: the next event is the best
//! run head or node bound across every lane, and a bulk pull expands the
//! best pending node of any lane under one shared threshold, so the lanes'
//! pools together yield exactly the `n` best points of their union. Each
//! lane's unemitted remainder stays in its own frontier, so every lane stays
//! resumable; one lane is the plain drain.
//!
//! A drain is only meaningful against the tree state it was primed on;
//! callers that interleave updates must discard and rebuild it (the cursor
//! layer gates reuse on the index's version stamp).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::point::Point;

/// A run-heap entry: the head's rank key inline, the rest of the run parked
/// in the frontier's spill slab (`slot` indexes it). Keeping the entry a
/// 24-byte `Copy` means heap sifts move small flat data and comparisons
/// never leave the heap's backing array. Ordered by `(score, x)` — scores
/// are distinct system-wide, the coordinate is a deterministic tiebreak for
/// defence in depth.
#[derive(Debug, Clone, Copy)]
struct RunEntry {
    score: u64,
    x: u64,
    slot: u32,
}

impl PartialEq for RunEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.score, self.x) == (other.score, other.x)
    }
}
impl Eq for RunEntry {}
impl PartialOrd for RunEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RunEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.score, self.x).cmp(&(other.score, other.x))
    }
}

/// A node-heap entry: an unvisited node and the inclusive upper bound on
/// every score in its subtree.
#[derive(Debug, Clone, Copy)]
struct NodeEntry<I> {
    bound: u64,
    id: I,
}

impl<I> PartialEq for NodeEntry<I> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl<I> Eq for NodeEntry<I> {}
impl<I> PartialOrd for NodeEntry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<I> Ord for NodeEntry<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound.cmp(&other.bound)
    }
}

/// The owned descent frontier of a resumable drain.
#[derive(Debug)]
pub(crate) struct Frontier<I> {
    /// Pending runs, keyed by head score. One entry per visited page that
    /// still has unemitted points — point emissions sift only this heap.
    runs: BinaryHeap<RunEntry>,
    /// Each run's remaining points, sorted ascending by score and consumed
    /// from the back (the head — the highest remaining score — is `last()`).
    /// Indexed by [`RunEntry::slot`]; spent slots are recycled via `free`.
    spill: Vec<Vec<Point>>,
    free: Vec<u32>,
    /// Pending subtrees, keyed by score upper bound. Touched once per
    /// expansion, not once per point.
    nodes: BinaryHeap<NodeEntry<I>>,
    /// Unordered pending points: the unemitted remainder a bulk pull stashed
    /// without sorting (it may never be needed again). A per-point pull
    /// folds them back into a proper run lazily; bulk pulls reclaim them
    /// as-is.
    loose: Vec<Point>,
    /// Candidate buffer of an in-progress bulk pull: every point seen that
    /// is not yet provably outside the requested top `n`. Emptied into the
    /// pull's output, or back into `loose`, when the pull ends.
    bulk_buf: Vec<Point>,
    /// Bulk routing threshold: the running `n`-th best score of the pull,
    /// shared by every lane it pulls. Points at or below it go straight to
    /// `loose` (kept for resumption, out of this pull); points above it are
    /// candidates.
    cut: Option<u64>,
    /// While set, [`push_run`](Self::push_run) routes points through
    /// `bulk_buf`/`loose` instead of building a heap run — expansion during
    /// a bulk pull, where order is recovered once by selection at the end.
    bulk: bool,
    primed: bool,
}

/// Descending score — the emission order. Scores are distinct system-wide;
/// the heap path's `(score, x)` tiebreak exists for defence in depth only,
/// so ordering bulk output by score alone emits the same sequence while
/// keeping comparisons a single `u64`.
fn desc(a: &Point, b: &Point) -> Ordering {
    b.score.cmp(&a.score)
}

const RADIX_BITS: u32 = 11;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// Sort descending by score. Score universes are often dense (identifiers,
/// counters), so when the observed range fits two radix digits an LSD radix
/// sort does it branchlessly in two scatter passes — ~3× faster than the
/// comparison sort at the few-thousand-point sizes bulk pulls emit. Wide
/// ranges fall back to the comparison sort.
fn sort_desc(pts: &mut [Point]) {
    let len = pts.len();
    if len < 128 {
        pts.sort_unstable_by(desc);
        return;
    }
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for p in pts.iter() {
        lo = lo.min(p.score);
        hi = hi.max(p.score);
    }
    let range = hi - lo;
    let bits = 64 - range.leading_zeros();
    if bits == 0 {
        return; // all scores equal
    }
    let passes = bits.div_ceil(RADIX_BITS);
    if passes > 2 {
        pts.sort_unstable_by(desc);
        return;
    }
    // Ascending radix on the reflected key `range - (score - lo)` sorts
    // descending by score. One pass lands in scratch and is copied back;
    // two passes ping-pong and land in place.
    let mut scratch = pts.to_vec();
    if passes == 1 {
        radix_pass(&scratch, pts, lo, range, 0);
    } else {
        radix_pass(pts, &mut scratch, lo, range, 0);
        radix_pass(&scratch, pts, lo, range, RADIX_BITS);
    }
}

fn radix_pass(from: &[Point], to: &mut [Point], lo: u64, range: u64, shift: u32) {
    let digit = |p: &Point| (((range - (p.score - lo)) >> shift) as usize) & (RADIX_BUCKETS - 1);
    let mut counts = [0u32; RADIX_BUCKETS];
    for p in from {
        counts[digit(p)] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let start = sum;
        sum += *c;
        *c = start;
    }
    for p in from {
        let d = digit(p);
        to[counts[d] as usize] = *p;
        counts[d] += 1;
    }
}

impl<I> Frontier<I> {
    pub fn new() -> Self {
        Self {
            runs: BinaryHeap::new(),
            spill: Vec::new(),
            free: Vec::new(),
            nodes: BinaryHeap::new(),
            loose: Vec::new(),
            bulk_buf: Vec::new(),
            cut: None,
            bulk: false,
            primed: false,
        }
    }

    /// Whether the root has been pushed yet (done lazily on the first pull so
    /// constructing a drain costs no I/Os).
    pub fn primed(&self) -> bool {
        self.primed
    }

    pub fn set_primed(&mut self) {
        self.primed = true;
    }

    /// Push a visited page's surviving points as one run (sorted here;
    /// callers pass them in page order). No-op when empty. During a bulk
    /// pull the points go to the loose pool instead — no per-page sort.
    pub fn push_run(&mut self, mut pts: Vec<Point>) {
        if pts.is_empty() {
            return;
        }
        if self.bulk {
            self.extend_bulk(pts.into_iter());
            return;
        }
        pts.sort_unstable_by_key(|p| p.score);
        let head = *pts.last().expect("non-empty run");
        let slot = match self.free.pop() {
            Some(s) => {
                self.spill[s as usize] = pts;
                s
            }
            None => {
                self.spill.push(pts);
                (self.spill.len() - 1) as u32
            }
        };
        self.runs.push(RunEntry {
            score: head.score,
            x: head.x,
            slot,
        });
    }

    pub fn push_node(&mut self, bound: u64, id: I) {
        self.nodes.push(NodeEntry { bound, id });
    }

    // ----- bulk-pull support -----

    /// Whether a bulk pull is in progress.
    pub fn is_bulk(&self) -> bool {
        self.bulk
    }

    /// Start a bulk pull: every pending point — run heads, spilled tails,
    /// loose stash — becomes a candidate, and expansion routes new points
    /// by the running threshold instead of building sorted runs.
    fn begin_bulk(&mut self) {
        self.bulk = true;
        self.cut = None;
        self.runs.clear();
        for run in &mut self.spill {
            self.bulk_buf.append(run);
        }
        self.spill.clear();
        self.free.clear();
        self.bulk_buf.append(&mut self.loose);
    }

    /// Route freshly expanded points: candidates to the bulk buffer, points
    /// at or below the threshold straight to the resumption stash.
    pub fn extend_bulk(&mut self, pts: impl Iterator<Item = Point>) {
        match self.cut {
            None => self.bulk_buf.extend(pts),
            Some(c) => {
                for p in pts {
                    if p.score > c {
                        self.bulk_buf.push(p);
                    } else {
                        self.loose.push(p);
                    }
                }
            }
        }
    }

    /// The rank of the next event in emission order: the best run head's
    /// score or the largest node bound, a node ranking above a run head of
    /// equal score (expanding it first is only reachable with non-distinct
    /// scores, but cheap insurance). Ignores the loose stash, which
    /// [`fold_loose`](Self::fold_loose) must have emptied.
    fn next_rank(&self) -> Option<(u64, bool)> {
        let head = self.runs.peek().map(|r| (r.score, false));
        head.max(self.nodes.peek().map(|n| (n.bound, true)))
    }

    /// Emit the best run's head, re-keying its entry under
    /// [`std::collections::binary_heap::PeekMut`], so an emission costs one
    /// sift of the run heap (and none at all while the same run stays on
    /// top). `None` when no run is pending.
    fn pop_head(&mut self) -> Option<Point> {
        let mut top = self.runs.peek_mut()?;
        let slot = top.slot;
        let pts = &mut self.spill[slot as usize];
        let head = pts.pop().expect("runs are never empty");
        match pts.last().copied() {
            Some(next) => {
                top.score = next.score;
                top.x = next.x;
                // Dropping the guard sifts the re-keyed entry down.
            }
            None => {
                pts.shrink_to_fit(); // return the spent buffer now
                self.free.push(slot);
                std::collections::binary_heap::PeekMut::pop(top);
            }
        }
        Some(head)
    }

    /// Sort a bulk pull's unemitted stash into a run before per-point
    /// pulls need it.
    fn fold_loose(&mut self) {
        if !self.loose.is_empty() {
            let stash = std::mem::take(&mut self.loose);
            self.push_run(stash);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
            && self.loose.is_empty()
            && self.bulk_buf.is_empty()
            && self.nodes.is_empty()
    }
}

/// Pulls of at least this many points take the bulk path instead of the
/// per-point merge. Small enough that every `k ≥ l` query qualifies, large
/// enough that a selection pass over the pool amortizes.
const BULK_PULL_MIN: usize = 64;

/// One lane of a merged [`pull`]: a primed frontier over one range of one
/// tree, and the tree read that expands one of its pending nodes.
pub(crate) trait Lane {
    type Id;
    fn frontier(&mut self) -> &mut Frontier<Self::Id>;
    /// Read node `id`'s page into the frontier: its in-window points and
    /// its overlapping children.
    fn expand(&mut self, id: Self::Id);
}

/// Emit up to `n` further points of the lanes' union into `out`, in
/// descending score order, resuming every lane's frontier. Returns how many
/// were emitted; fewer than `n` means every lane is exhausted.
pub(crate) fn pull<L: Lane>(lanes: &mut [L], n: usize, out: &mut Vec<Point>) -> usize {
    if n >= BULK_PULL_MIN {
        pull_bulk(lanes, n, out)
    } else {
        pull_steps(lanes, n, out)
    }
}

/// Per-point pull: emit or expand whichever lane's next event ranks
/// highest. Each event ranks every lane once, from its two heap tops, and
/// acts on that ranking without looking again.
fn pull_steps<L: Lane>(lanes: &mut [L], n: usize, out: &mut Vec<Point>) -> usize {
    // Per-point pulls stash nothing loose, so each stash is folded once.
    for lane in lanes.iter_mut() {
        lane.frontier().fold_loose();
    }
    let mut taken = 0;
    while taken < n {
        let best = lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, lane)| lane.frontier().next_rank().map(|rank| (rank, i)))
            .max();
        let Some(((_, is_node), i)) = best else {
            break;
        };
        let Some(lane) = lanes.get_mut(i) else {
            break;
        };
        let frontier = lane.frontier();
        if is_node {
            let node = frontier.nodes.pop().expect("a node bound was ranked");
            lane.expand(node.id);
        } else {
            out.push(frontier.pop_head().expect("a run head was ranked"));
            taken += 1;
        }
    }
    taken
}

/// Bulk extraction: expand pages best-first across every lane into the
/// lanes' flat pools until the pools' `n`-th best score provably beats
/// every pending subtree of every lane, then select and sort just the
/// winning prefix. Each lane's unemitted remainder goes back to its own
/// frontier unsorted (sorted lazily if ever needed), so every lane stays
/// resumable.
///
/// The stopping rule is exact even with a stale threshold: nodes pop in
/// descending bound order across the lanes, and a point can only score
/// below its node's bound, so when the next bound is `b` *every* point
/// scoring ≥ `b` is already pooled. If the pools' `n`-th best is ≥ `b`,
/// nothing unexpanded can displace the current top `n`. The threshold is
/// re-selected only after the pools grow by half, keeping selection work
/// `O(1)` amortized per pooled point; staleness can only cost a few extra
/// page reads, never correctness.
fn pull_bulk<L: Lane>(lanes: &mut [L], n: usize, out: &mut Vec<Point>) -> usize {
    for lane in lanes.iter_mut() {
        lane.frontier().begin_bulk();
    }
    let mut scores = Vec::new();
    let mut cut = None;
    loop {
        // Tighten the shared threshold once the pools outgrow `1.5n`; from
        // then on expansion sends weaker points straight to the stashes.
        if pooled(lanes) >= n.saturating_add(n / 2) {
            let c = split_pools(lanes, n, &mut scores);
            for lane in lanes.iter_mut() {
                lane.frontier().cut = Some(c);
            }
            cut = Some(c);
        }
        let next = lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, lane)| lane.frontier().nodes.peek().map(|node| (node.bound, i)))
            .max();
        // Exact stop: nodes pop in descending bound order and a point
        // scores below its node's bound, so every point ≥ bound is already
        // pooled; a threshold ≥ bound proves the top n are in hand.
        let Some((_, i)) = next.filter(|&(bound, _)| cut.is_none_or(|c| bound > c)) else {
            break;
        };
        let Some(lane) = lanes.get_mut(i) else {
            break;
        };
        let node = lane.frontier().nodes.pop().expect("bound was just peeked");
        lane.expand(node.id);
    }
    // The winners are the pools once cut to `n`: one sort orders them.
    if pooled(lanes) > n {
        split_pools(lanes, n, &mut scores);
    }
    let start = out.len();
    for lane in lanes.iter_mut() {
        let frontier = lane.frontier();
        out.append(&mut frontier.bulk_buf);
        frontier.bulk = false;
        frontier.cut = None;
    }
    sort_desc(&mut out[start..]);
    out.len() - start
}

/// Points pooled by the lanes' bulk buffers.
fn pooled<L: Lane>(lanes: &mut [L]) -> usize {
    lanes
        .iter_mut()
        .map(|lane| lane.frontier().bulk_buf.len())
        .sum()
}

/// Cut the lanes' pools to their `rank` best points — the tightest
/// threshold any strategy could have at this moment — moving every other
/// pooled point to its own lane's stash, and return the `rank`-th best
/// score. Several pools select over a copy of their scores and then split
/// each pool at that score. One pool selects in place instead: that skips
/// the copy and the split pass, and made one-drain pulls of 256 to 4,096
/// points 9–20% faster. `rank` must be at least 1 and at most the number
/// of pooled points.
fn split_pools<L: Lane>(lanes: &mut [L], rank: usize, scores: &mut Vec<u64>) -> u64 {
    if let [lane] = lanes {
        let frontier = lane.frontier();
        frontier.bulk_buf.select_nth_unstable_by(rank - 1, desc);
        frontier.loose.extend_from_slice(&frontier.bulk_buf[rank..]);
        frontier.bulk_buf.truncate(rank);
        return frontier.bulk_buf[rank - 1].score;
    }
    scores.clear();
    for lane in lanes.iter_mut() {
        scores.extend(lane.frontier().bulk_buf.iter().map(|p| p.score));
    }
    let cut = *scores.select_nth_unstable_by(rank - 1, |a, b| b.cmp(a)).1;
    // Scores are distinct system-wide; should several tie at the cut, only
    // as many stay as fill the `rank` places.
    let mut ties = rank - scores.iter().filter(|&&s| s > cut).count();
    for lane in lanes.iter_mut() {
        let frontier = lane.frontier();
        frontier.bulk_buf.retain(|p| {
            let keep = p.score > cut || (p.score == cut && ties > 0);
            if p.score == cut && keep {
                ties -= 1;
            }
            if !keep {
                frontier.loose.push(*p);
            }
            keep
        });
    }
    cut
}
