//! The BlockTree: an arena-indexed directed rooted tree of blocks.
//!
//! The BlockTree `bt = (V_bt, E_bt)` is the abstract state of the BT-ADT
//! (Definition 3.1): `append(b)` grafts a valid block onto the chain
//! selected by `f`, `read()` returns `{b0}⌢f(bt)`.  Each vertex is a
//! block, every edge points backward towards the root (the genesis block
//! `b0`).
//!
//! ## Representation
//!
//! Blocks live in a dense slab (`Vec<BlockNode>`) addressed by [`NodeIdx`];
//! a `BlockId → NodeIdx` map (with a pass-through hasher — identifiers are
//! already structural hashes) interns identifiers with one probe at
//! insertion.  Each node caches its parent link, its children as an
//! intrusive sibling list (first child, last child, next sibling, count —
//! plain slots, so a node owns no heap memory and linking allocates
//! nothing) and its cumulative work.  The tree incrementally maintains a
//! leaf count and the best tips, so the hot read-path queries are cheap:
//!
//! * [`height`](BlockTree::height),
//!   [`leaf_count`](BlockTree::leaf_count),
//!   [`max_fork_degree`](BlockTree::max_fork_degree),
//!   [`best_leaf_by_height`](BlockTree::best_leaf_by_height) and
//!   [`best_leaf_by_work`](BlockTree::best_leaf_by_work) — the
//!   longest-chain and heaviest-chain tips under either tie-break — are
//!   O(1);
//! * [`leaves`](BlockTree::leaves) and [`all_chains`](BlockTree::all_chains)
//!   scan the slab and sort: O(n + L log L) for L leaves, for tests,
//!   audits and reports, never a hot path;
//! * [`chain_to`](BlockTree::chain_to) walks dense parent indices without
//!   re-hashing block identifiers;
//! * [`delta_above`](BlockTree::delta_above) walks per-height lists (each
//!   height keeps its newest node, each node the previous one at its
//!   height; linking is O(1)), so a capped delta-sync reply costs the
//!   heights it spans, not the tree.
//!
//! ## One link step
//!
//! Every block enters through a [`BatchInsert`] session
//! ([`begin_batch`](BlockTree::begin_batch) → `push` → `finish`): `push`
//! resolves and verifies the parent, interns the id, labels the node's
//! reachability interval, and links it into the slab; the leaf count and
//! the four best tips are reconciled once when the session ends —
//! including when a panic unwinds through it.
//! [`insert`](BlockTree::insert) is a run of one,
//! [`insert_batch`](BlockTree::insert_batch) a loop over `push`.
//!
//! A key slab invariant — parents are always inserted before their children,
//! so `parent.idx < child.idx` — makes whole-tree aggregation a single
//! reverse pass ([`subtree_work_table`](BlockTree::subtree_work_table),
//! used by GHOST) and makes [`blocks_since`](BlockTree::blocks_since) a
//! natural delta-extraction primitive for gossip.
//!
//! The observable semantics (insert errors, leaves, heights, fork degrees,
//! chains, merges) are unchanged from the naive map-based implementation,
//! which survives as [`crate::reference::NaiveBlockTree`] — the executable
//! specification the property tests compare against.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::block::{Block, BlockId};
use crate::chain::Blockchain;
use crate::reachability::{Interval, ReachabilityIndex, Topology};

/// A pass-through hasher for [`BlockId`] keys: block identifiers already
/// *are* structural hashes, so the interning map only needs a cheap avalanche
/// (Fibonacci multiply) instead of SipHash.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockIdHasher(u64);

impl Hasher for BlockIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; this path exists for completeness.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type BlockIdMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockIdHasher>>;

/// Dense index of a block inside the tree's arena.
///
/// Indices are assigned in insertion order, never reused, and satisfy
/// `parent.idx < child.idx`.  They are only meaningful for the tree that
/// issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index of the genesis block in every tree.
    pub const GENESIS: NodeIdx = NodeIdx(0);

    #[inline]
    fn at(self) -> usize {
        self.0 as usize
    }
}

/// One slab entry: a block plus its cached tree metadata.
///
/// The links are plain slots, not `Option`s, so that the parent and
/// previous-at-height links take the 8 bytes one `Option<NodeIdx>` would:
/// growing the node from 120 to 128 bytes cost two-client appends ≈ 10 %
/// of their throughput (`adt_append`, 2-vCPU host).  The root is never a
/// child and never in a height list, so [`NodeIdx::GENESIS`] is "none" in
/// every link but `parent`.
#[derive(Clone, Debug)]
struct BlockNode {
    block: Block,
    /// The parent's slot.  The root has none and holds its own slot, so
    /// read it through [`BlockTree::parent_idx`] unless the node is known
    /// not to be the root.
    parent: NodeIdx,
    /// The node linked before this one at the same height: the next link
    /// of that height's list.
    prev_at_height: NodeIdx,
    /// The oldest and newest child: children are appended at `last_child`,
    /// so a walk from `first_child` along `next_sibling` visits them in
    /// insertion (arena) order.
    first_child: NodeIdx,
    last_child: NodeIdx,
    /// The next-younger child of this node's parent.
    next_sibling: NodeIdx,
    child_count: u32,
    /// Cached cumulative work of the path from genesis to this block
    /// (inclusive).
    cumulative_work: u64,
}

/// Error returned when a block cannot be inserted into the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertError {
    /// The block's parent is not present in the tree.
    UnknownParent(BlockId),
    /// A block with the same identifier is already present.
    Duplicate(BlockId),
    /// The block has no parent pointer but is not the genesis block.
    MissingParent(BlockId),
    /// The block's recorded height does not match its parent's height + 1.
    HeightMismatch {
        /// Offending block.
        block: BlockId,
        /// Height recorded in the block.
        recorded: u64,
        /// Height expected from the parent.
        expected: u64,
    },
    /// The block's work would push its chain's cumulative work past
    /// `u64::MAX` — no honest chain gets there, so the block is hostile.
    WorkOverflow {
        /// Offending block.
        block: BlockId,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::UnknownParent(id) => write!(f, "unknown parent {id}"),
            InsertError::Duplicate(id) => write!(f, "duplicate block {id}"),
            InsertError::MissingParent(id) => write!(f, "block {id} has no parent pointer"),
            InsertError::HeightMismatch {
                block,
                recorded,
                expected,
            } => write!(
                f,
                "block {block} records height {recorded}, expected {expected}"
            ),
            InsertError::WorkOverflow { block } => {
                write!(f, "block {block} overflows its chain's cumulative work")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// The BlockTree: a slab of interned blocks with an incrementally
/// maintained leaf count and tip indices.
#[derive(Clone, Debug)]
pub struct BlockTree {
    nodes: Vec<BlockNode>,
    index: BlockIdMap<NodeIdx>,
    /// How many nodes have no child.
    leaf_count: usize,
    /// Longest-chain tips under the two tie-break rules, maintained in O(1):
    /// a child strictly out-heights its parent, so the incumbent can never
    /// silently stop being a leaf — whenever it gains a child, that child
    /// replaces it within the same insert.
    best_height_largest: (u64, BlockId),
    best_height_smallest: (u64, BlockId),
    /// Heaviest-chain tips under the two tie-break rules.  Same incumbent
    /// scheme; the one case where an incumbent can go stale — a work-0 child
    /// that merely *ties* its parent, leaving the true best ambiguous — falls
    /// back to an O(n) rescan of the leaves.  Block work is ≥ 1 everywhere
    /// blocks are built, so the fallback is a correctness backstop, not a
    /// hot path.
    best_work_largest: (u64, BlockId),
    best_work_smallest: (u64, BlockId),
    max_fork_degree: usize,
    /// Head of each height's list of nodes: `levels[i]` is the newest node
    /// at height `root.height + 1 + i`, and the list continues through
    /// `prev_at_height`.  Empty (unallocated) until the first non-root link.
    levels: Vec<NodeIdx>,
    /// Interval-labeled reachability over the slab: every node's `[start,
    /// end)` interval nests inside its parent's, making ancestor queries a
    /// containment check (see [`crate::reachability`]).
    reach: ReachabilityIndex,
}

/// The slab view the reachability index walks during (re)labeling.
struct SlabTopology<'a>(&'a [BlockNode]);

impl Topology for SlabTopology<'_> {
    fn parent_of(&self, idx: NodeIdx) -> Option<NodeIdx> {
        (idx != NodeIdx::GENESIS).then(|| self.0[idx.at()].parent)
    }

    fn children_of(&self, idx: NodeIdx) -> Children<'_> {
        Children::of(self.0, idx)
    }
}

/// The children of one node, oldest first: a walk along the node's
/// intrusive sibling list ([`BlockTree::children_idx`]).
#[derive(Clone)]
pub struct Children<'a> {
    nodes: &'a [BlockNode],
    /// The next child to yield; [`NodeIdx::GENESIS`] once the walk is done.
    next: NodeIdx,
}

impl<'a> Children<'a> {
    fn of(nodes: &'a [BlockNode], idx: NodeIdx) -> Self {
        Children {
            nodes,
            next: nodes[idx.at()].first_child,
        }
    }

    /// `true` iff the walk yields nothing more.
    pub(crate) fn is_empty(&self) -> bool {
        self.next == NodeIdx::GENESIS
    }
}

/// Lists the children still to be walked (not the whole slab).
impl std::fmt::Debug for Children<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl Iterator for Children<'_> {
    type Item = NodeIdx;

    #[inline]
    fn next(&mut self) -> Option<NodeIdx> {
        if self.is_empty() {
            return None;
        }
        let child = self.next;
        self.next = self.nodes[child.at()].next_sibling;
        Some(child)
    }
}

impl BlockTree {
    /// Creates a tree containing only the genesis block.
    pub fn new() -> Self {
        Self::rerooted(Block::genesis())
    }

    /// Creates a tree rooted at an arbitrary block — the representation of
    /// a **pruned hot window**: `root` is a pruning point, its ancestors
    /// live in cold storage, and the tree accepts only descendants of the
    /// root.
    ///
    /// The stored root is a *boundary copy*: its parent pointer is cleared
    /// (the parent is pruned away), so the "exactly one parentless block"
    /// invariant keeps holding with the root in the genesis slot.  Heights
    /// stay absolute — children of the root must record `root.height + 1` —
    /// and cumulative work restarts at `root.work`, which preserves every
    /// comparison *within* the window (all paths share the pruned prefix).
    ///
    /// `rerooted(Block::genesis())` is [`BlockTree::new`].
    pub fn rerooted(root: Block) -> Self {
        let mut root = root;
        root.parent = None;
        let root_id = root.id;
        let root_height = root.height;
        let root_work = root.work;
        let mut index = BlockIdMap::default();
        index.insert(root_id, NodeIdx::GENESIS);
        BlockTree {
            nodes: vec![BlockNode {
                block: root,
                parent: NodeIdx::GENESIS,
                prev_at_height: NodeIdx::GENESIS,
                first_child: NodeIdx::GENESIS,
                last_child: NodeIdx::GENESIS,
                next_sibling: NodeIdx::GENESIS,
                child_count: 0,
                cumulative_work: root_work,
            }],
            index,
            leaf_count: 1,
            best_height_largest: (root_height, root_id),
            best_height_smallest: (root_height, root_id),
            best_work_largest: (root_work, root_id),
            best_work_smallest: (root_work, root_id),
            max_fork_degree: 0,
            levels: Vec::new(),
            reach: ReachabilityIndex::with_root(),
        }
    }

    /// Number of blocks in the tree (including the genesis block).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` iff the tree contains only the genesis block.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Returns `true` iff the tree contains a block with the given id.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.contains_key(&id)
    }

    /// Looks up a block by id.
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.idx_of(id).map(|idx| self.block_at(idx))
    }

    /// The arena index of a block, if present.
    pub fn idx_of(&self, id: BlockId) -> Option<NodeIdx> {
        self.index.get(&id).copied()
    }

    /// The block stored at an arena index.
    ///
    /// Panics if the index was not issued by this tree.
    pub fn block_at(&self, idx: NodeIdx) -> &Block {
        &self.nodes[idx.at()].block
    }

    /// The parent index of a node (`None` only for the genesis block).
    pub fn parent_idx(&self, idx: NodeIdx) -> Option<NodeIdx> {
        SlabTopology(&self.nodes).parent_of(idx)
    }

    /// The children indices of a node, in insertion (arena) order.
    pub fn children_idx(&self, idx: NodeIdx) -> Children<'_> {
        Children::of(&self.nodes, idx)
    }

    /// Cached cumulative work of the node at `idx`.
    pub fn cumulative_work_at(&self, idx: NodeIdx) -> u64 {
        self.nodes[idx.at()].cumulative_work
    }

    /// The reachability labeling interval of the node at `idx`.
    pub fn interval_at(&self, idx: NodeIdx) -> Interval {
        self.reach.interval(idx)
    }

    /// The child-allocation cursor of the node at `idx` (exposed for
    /// invariant checks: the cursor never passes `interval.end - 1`).
    pub fn interval_cursor_at(&self, idx: NodeIdx) -> u64 {
        self.reach.cursor(idx)
    }

    /// How many interval reindex passes this tree has run — an amortization
    /// telemetry counter for stress tests and benches.
    pub fn reachability_reindexes(&self) -> u64 {
        self.reach.reindexes()
    }

    /// Is the node at `a` an ancestor of (or equal to) the node at `b`?
    ///
    /// O(1): one interval containment check, no parent walking.
    #[inline]
    pub fn is_ancestor_idx(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.reach.is_ancestor(a, b)
    }

    /// Is block `a` an ancestor of (or equal to) block `b`?  `None` when
    /// either block is not in the tree.
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> Option<bool> {
        Some(self.is_ancestor_idx(self.idx_of(a)?, self.idx_of(b)?))
    }

    /// The maximal common prefix point (lowest common ancestor) of the
    /// nodes at `a` and `b`.
    ///
    /// Walks up from `a` with O(1) containment checks per step, so the cost
    /// is the distance from `a` to the answer — not to the root — and zero
    /// when one argument is an ancestor of the other.
    pub fn mcp_idx(&self, a: NodeIdx, b: NodeIdx) -> NodeIdx {
        // The root is an ancestor of every node, so the walk stops before
        // it would read the root's self-link.
        let mut cursor = a;
        while !self.is_ancestor_idx(cursor, b) {
            cursor = self.nodes[cursor.at()].parent;
        }
        cursor
    }

    /// The genesis block.
    pub fn genesis(&self) -> &Block {
        &self.nodes[NodeIdx::GENESIS.at()].block
    }

    /// Inserts a block under its parent.
    ///
    /// Returns an error if the parent is unknown, the block is a duplicate,
    /// or the recorded height is inconsistent.  Inserting a second child
    /// under the same parent creates a fork; the tree itself never forbids
    /// forks — fork control is the role of the token oracle.
    ///
    /// A [`BatchInsert`] run of one: one interning probe and, outside the
    /// amortized reachability reindex, no allocation beyond the arena's
    /// and the map's amortized growth.
    pub fn insert(&mut self, block: Block) -> Result<(), InsertError> {
        let mut batch = self.begin_batch(0);
        let result = batch.push(block, None).map(drop);
        batch.finish();
        result
    }

    /// Inserts a topologically-sorted batch of blocks in one pass,
    /// returning one result per input block (in input order) with the same
    /// per-block semantics as [`insert`](Self::insert): a block that fails
    /// is skipped, every other block still lands.
    ///
    /// Blocks must arrive parents-first (any topological order works —
    /// [`delta_above`](Self::delta_above) and the pipeline's stage-2 both
    /// produce one); a child that precedes its in-batch parent is
    /// reported as `UnknownParent`, exactly as the equivalent sequence of
    /// single inserts would.
    pub fn insert_batch(&mut self, blocks: &[Block]) -> Vec<Result<(), InsertError>> {
        let mut batch = self.begin_batch(blocks.len());
        let results = blocks
            .iter()
            .map(|block| batch.push(block.clone(), None).map(drop))
            .collect();
        batch.finish();
        results
    }

    /// Opens a batch session — the tree's one link step, shared by
    /// [`insert`](Self::insert) (a run of one), [`insert_batch`](Self::insert_batch)
    /// and the ingest pipeline's tip stage.  `additional` sizes the arena
    /// and interning reservations (0 when unknown).
    pub fn begin_batch(&mut self, additional: usize) -> BatchInsert<'_> {
        self.nodes.reserve(additional);
        self.index.reserve(additional);
        BatchInsert {
            start: self.nodes.len(),
            last: None,
            tree: self,
        }
    }

    /// The one link step: resolve and verify the parent (hint → `last`
    /// memo → interning map), intern, label, link, push.  Every rejection
    /// happens before the first mutation.  Leaves the leaf count and best
    /// tips to [`reconcile`](Self::reconcile).
    ///
    /// The id is interned with one probe (`index.entry`), taken after the
    /// block is validated; a rejection for any other reason re-asks the map
    /// first, so a known id is always refused as `Duplicate` — the
    /// precedence of [`NaiveBlockTree::insert`](crate::reference::NaiveBlockTree::insert).
    fn link(
        &mut self,
        block: Block,
        parent_hint: Option<NodeIdx>,
        last: Option<(BlockId, NodeIdx)>,
    ) -> Result<NodeIdx, InsertError> {
        let (parent_idx, level, cumulative_work) =
            self.validate(&block, parent_hint, last).map_err(|err| {
                if self.index.contains_key(&block.id) {
                    InsertError::Duplicate(block.id)
                } else {
                    err
                }
            })?;
        let idx = NodeIdx(u32::try_from(self.nodes.len()).expect("arena capacity exceeded"));
        match self.index.entry(block.id) {
            Entry::Occupied(_) => return Err(InsertError::Duplicate(block.id)),
            Entry::Vacant(slot) => {
                slot.insert(idx);
            }
        }

        // Label the new node before linking it, so a reindex pass walks the
        // consistent pre-insertion topology.
        self.reach.attach(parent_idx, &SlabTopology(&self.nodes));

        let parent = &mut self.nodes[parent_idx.at()];
        let older = std::mem::replace(&mut parent.last_child, idx);
        parent.child_count += 1;
        let degree = parent.child_count as usize;
        if degree == 1 {
            parent.first_child = idx;
        } else {
            self.nodes[older.at()].next_sibling = idx;
        }
        self.max_fork_degree = self.max_fork_degree.max(degree);
        let prev_at_height = match self.levels.get_mut(level) {
            Some(head) => std::mem::replace(head, idx),
            None => {
                self.levels.push(idx);
                NodeIdx::GENESIS
            }
        };
        self.nodes.push(BlockNode {
            block,
            parent: parent_idx,
            prev_at_height,
            first_child: NodeIdx::GENESIS,
            last_child: NodeIdx::GENESIS,
            next_sibling: NodeIdx::GENESIS,
            child_count: 0,
            cumulative_work,
        });
        Ok(idx)
    }

    /// [`link`](Self::link)'s read-only half: resolves and verifies the
    /// parent, and returns its slot, the child's height list and the
    /// child's cumulative work.  Does not look at the block's own id.
    fn validate(
        &self,
        block: &Block,
        parent_hint: Option<NodeIdx>,
        last: Option<(BlockId, NodeIdx)>,
    ) -> Result<(NodeIdx, usize, u64), InsertError> {
        let parent_id = block.parent.ok_or(InsertError::MissingParent(block.id))?;
        let parent_idx = match (parent_hint, last) {
            (Some(idx), _) => idx,
            (None, Some((id, idx))) if id == parent_id => idx,
            _ => self
                .idx_of(parent_id)
                .ok_or(InsertError::UnknownParent(parent_id))?,
        };
        // One bounds-checked read verifies a hint and fetches the parent's
        // height and work.
        let parent = self
            .nodes
            .get(parent_idx.at())
            .filter(|n| n.block.id == parent_id)
            .ok_or(InsertError::UnknownParent(parent_id))?;
        let expected = parent.block.height + 1;
        if block.height != expected {
            return Err(InsertError::HeightMismatch {
                block: block.id,
                recorded: block.height,
                expected,
            });
        }
        let cumulative_work = parent
            .cumulative_work
            .checked_add(block.work)
            .ok_or(InsertError::WorkOverflow { block: block.id })?;
        // The parent sits `level` heights above the root, so the child's
        // list is `levels[level]`: an existing one, or the next to open.
        let level = (parent.block.height - self.genesis().height) as usize;
        Ok((parent_idx, level, cumulative_work))
    }

    /// Reconciles the leaf count and the four best-tip incumbents for
    /// everything linked since `start`.
    ///
    /// Only new *leaves* need comparing — a linked interior node is
    /// strictly out-heighted by some linked descendant leaf, and for work
    /// the leaf dominates or ties.  The tie is the one case an incumbent
    /// can go stale: a pre-batch heaviest leaf that gained only work-0
    /// descendants survives the comparisons while no longer being a leaf,
    /// so the leaves are rescanned.  (Block work is ≥ 1 everywhere blocks
    /// are built; the rescan is a correctness backstop, not a hot path.)
    fn reconcile(&mut self, start: usize) {
        // A work incumbent that stopped being a leaf and has not (yet)
        // been displaced by a new leaf.
        let (mut stale_largest, mut stale_smallest) = (false, false);
        // `start` is past the root (a session opens on a rooted tree), so
        // every node visited has a real parent.
        for i in start..self.nodes.len() {
            let node = &self.nodes[i];
            let parent_idx = node.parent;
            let parent = &self.nodes[parent_idx.at()];
            // The first child of a pre-batch leaf retires that leaf.
            if parent_idx.at() < start && parent.first_child.at() == i {
                let parent_id = parent.block.id;
                self.leaf_count -= 1;
                stale_largest |= parent_id == self.best_work_largest.1;
                stale_smallest |= parent_id == self.best_work_smallest.1;
            }
            if node.child_count != 0 {
                continue;
            }
            let (h, w, id) = (node.block.height, node.cumulative_work, node.block.id);
            self.leaf_count += 1;
            let (best_h, best_id) = self.best_height_largest;
            if h > best_h || (h == best_h && id > best_id) {
                self.best_height_largest = (h, id);
            }
            let (best_h, best_id) = self.best_height_smallest;
            if h > best_h || (h == best_h && id < best_id) {
                self.best_height_smallest = (h, id);
            }
            let (best_w, best_id) = self.best_work_largest;
            if w > best_w || (w == best_w && id > best_id) {
                self.best_work_largest = (w, id);
                stale_largest = false;
            }
            let (best_w, best_id) = self.best_work_smallest;
            if w > best_w || (w == best_w && id < best_id) {
                self.best_work_smallest = (w, id);
                stale_smallest = false;
            }
        }
        if stale_largest || stale_smallest {
            self.rescan_best_work();
        }
    }

    /// The childless nodes, in arena order.
    fn leaf_nodes(&self) -> impl Iterator<Item = &BlockNode> {
        self.nodes.iter().filter(|n| n.child_count == 0)
    }

    /// Recomputes the heaviest-work incumbents from a scan of the leaves.
    /// Only reached through the work-0 tie backstop in
    /// [`reconcile`](Self::reconcile).
    fn rescan_best_work(&mut self) {
        let mut largest: Option<(u64, BlockId)> = None;
        let mut smallest: Option<(u64, BlockId)> = None;
        for node in self.leaf_nodes() {
            let (work, leaf) = (node.cumulative_work, node.block.id);
            largest = Some(match largest {
                None => (work, leaf),
                Some((bw, bid)) if work > bw || (work == bw && leaf > bid) => (work, leaf),
                Some(best) => best,
            });
            smallest = Some(match smallest {
                None => (work, leaf),
                Some((bw, bid)) if work > bw || (work == bw && leaf < bid) => (work, leaf),
                Some(best) => best,
            });
        }
        self.best_work_largest = largest.expect("a tree always has a leaf");
        self.best_work_smallest = smallest.expect("a tree always has a leaf");
    }

    /// Children of a block (empty for leaves and unknown blocks).
    pub fn children(&self, id: BlockId) -> Vec<BlockId> {
        match self.idx_of(id) {
            Some(idx) => self
                .children_idx(idx)
                .map(|c| self.nodes[c.at()].block.id)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of children of a block — the number of forks from that block.
    pub fn fork_degree(&self, id: BlockId) -> usize {
        self.idx_of(id)
            .map(|idx| self.nodes[idx.at()].child_count as usize)
            .unwrap_or(0)
    }

    /// The maximum fork degree over all blocks of the tree.  O(1): the value
    /// is maintained incrementally (insert-only trees make it monotone).
    pub fn max_fork_degree(&self) -> usize {
        self.max_fork_degree
    }

    /// All leaves of the tree (blocks without children), sorted by id.  The
    /// genesis block is a leaf iff the tree is empty.  O(n + L log L): a
    /// scan of the slab for childless nodes, then one sort — for tests,
    /// audits and reports, not a hot path.
    pub fn leaves(&self) -> Vec<BlockId> {
        let mut leaves: Vec<BlockId> = self.leaf_nodes().map(|n| n.block.id).collect();
        leaves.sort_unstable();
        leaves
    }

    /// Number of leaves, without materialising them.  O(1): the count is
    /// maintained on insert.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Height of the tree: the maximum block height.  O(1).
    pub fn height(&self) -> u64 {
        self.best_height_largest.0
    }

    /// The leaf selected by the longest-chain rule: maximum height, ties
    /// broken towards the largest (or smallest) identifier.  O(1): both
    /// incumbents are maintained on insert.
    pub fn best_leaf_by_height(&self, prefer_largest_id: bool) -> BlockId {
        if prefer_largest_id {
            self.best_height_largest.1
        } else {
            self.best_height_smallest.1
        }
    }

    /// The leaf selected by the heaviest-chain rule: maximum cumulative
    /// work, ties broken towards the largest (or smallest) identifier.
    /// O(1): both incumbents are maintained on insert.
    pub fn best_leaf_by_work(&self, prefer_largest_id: bool) -> BlockId {
        if prefer_largest_id {
            self.best_work_largest.1
        } else {
            self.best_work_smallest.1
        }
    }

    /// Cumulative work of the path from the genesis block to `id`.
    pub fn cumulative_work(&self, id: BlockId) -> Option<u64> {
        self.idx_of(id).map(|idx| self.cumulative_work_at(idx))
    }

    /// Total work of the subtree rooted at `id` (GHOST weight).
    ///
    /// Saturates at `u64::MAX`: each *chain's* cumulative work is checked
    /// on insert, but sibling chains can still sum past it, and hostile
    /// weights must not panic or wrap.  Saturated subtrees tie, and ties
    /// fall to the selection's id tie-break.
    pub fn subtree_work(&self, id: BlockId) -> u64 {
        let Some(root) = self.idx_of(id) else {
            return 0;
        };
        let mut total = 0u64;
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx.at()];
            total = total.saturating_add(node.block.work);
            stack.extend(self.children_idx(idx));
        }
        total
    }

    /// Number of blocks in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: BlockId) -> usize {
        let Some(root) = self.idx_of(id) else {
            return 0;
        };
        let mut total = 0;
        let mut stack = vec![root];
        while let Some(idx) = stack.pop() {
            total += 1;
            stack.extend(self.children_idx(idx));
        }
        total
    }

    /// Subtree work of **every** node, indexed by [`NodeIdx`], in one O(n)
    /// reverse pass over the slab (children always follow their parents).
    /// This is what makes a full GHOST descent linear instead of quadratic.
    /// Sums saturate like [`subtree_work`](Self::subtree_work).
    pub fn subtree_work_table(&self) -> Vec<u64> {
        let mut weights: Vec<u64> = self.nodes.iter().map(|n| n.block.work).collect();
        for i in (1..self.nodes.len()).rev() {
            let parent = self.nodes[i].parent;
            weights[parent.at()] = weights[parent.at()].saturating_add(weights[i]);
        }
        weights
    }

    /// The blockchain (path from the genesis block) ending at the node at
    /// `idx`.  Walks dense parent indices; no identifier hashing.
    pub fn chain_to_idx(&self, idx: NodeIdx) -> Blockchain {
        let depth = self.nodes[idx.at()].block.height as usize + 1;
        let mut rev: Vec<Block> = Vec::with_capacity(depth);
        let mut cursor = Some(idx);
        while let Some(at) = cursor {
            rev.push(self.nodes[at.at()].block.clone());
            cursor = self.parent_idx(at);
        }
        rev.reverse();
        Blockchain::from_vec_trusted(rev)
    }

    /// The blockchain (path from the genesis block) ending at `id`.
    pub fn chain_to(&self, id: BlockId) -> Option<Blockchain> {
        self.idx_of(id).map(|idx| self.chain_to_idx(idx))
    }

    /// All maximal chains of the tree (one per leaf), sorted by leaf id.
    /// O(n + L log L) on top of the chains themselves: see
    /// [`leaves`](Self::leaves).
    pub fn all_chains(&self) -> Vec<Blockchain> {
        // LINT-ALLOW: this is the scan the rule points callers at
        self.leaves()
            .into_iter()
            .filter_map(|leaf| self.chain_to(leaf))
            .collect()
    }

    /// Iterator over all blocks of the tree in insertion (arena) order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.nodes.iter().map(|n| &n.block)
    }

    /// All block ids, sorted (deterministic iteration for reports/tests).
    pub fn sorted_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.index.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The blocks appended at or after the given arena watermark, in
    /// insertion order (parents before children).
    ///
    /// `blocks_since(tree.len())` is empty; `blocks_since(mark)` after more
    /// inserts yields exactly the delta — the primitive replicas use to
    /// announce new blocks instead of gossiping whole trees.
    pub fn blocks_since(&self, mark: usize) -> impl Iterator<Item = &Block> {
        self.nodes[mark.min(self.nodes.len())..]
            .iter()
            .map(|n| &n.block)
    }

    /// The non-root blocks strictly above the given height, lazily, in
    /// `(height, id)` order so that receivers can insert them parents-first.
    /// Used by delta-sync responses: a replica that fell behind asks for
    /// the blocks above a floor, and the responder takes a capped prefix.
    ///
    /// Walks the per-height lists upward and sorts one height's list at a
    /// time, so taking `k` blocks costs the heights those `k` span, never
    /// the whole tree.  [`NaiveBlockTree::delta_above`] is the executable
    /// specification.
    ///
    /// [`NaiveBlockTree::delta_above`]: crate::reference::NaiveBlockTree::delta_above
    pub fn delta_above(&self, height: u64) -> impl Iterator<Item = &Block> + '_ {
        let skipped = height.saturating_sub(self.genesis().height);
        DeltaAbove {
            tree: self,
            next_level: usize::try_from(skipped).unwrap_or(usize::MAX),
            level: Vec::new(),
            pos: 0,
        }
    }

    /// Merges another tree into this one, inserting every block of `other`
    /// that is not yet present.  `other`'s arena order already lists parents
    /// before children, so no sorting is needed.  Returns the number of
    /// blocks actually inserted.
    pub fn merge(&mut self, other: &BlockTree) -> usize {
        let mut inserted = 0;
        for node in other.nodes.iter().skip(1) {
            if !self.contains(node.block.id) && self.insert(node.block.clone()).is_ok() {
                inserted += 1;
            }
        }
        inserted
    }
}

impl Default for BlockTree {
    fn default() -> Self {
        BlockTree::new()
    }
}

/// The iterator [`BlockTree::delta_above`] returns: one height's blocks,
/// sorted by id, are loaded into a reused buffer when the previous
/// height's run out.
struct DeltaAbove<'a> {
    tree: &'a BlockTree,
    /// Index into `tree.levels` of the next height to load.
    next_level: usize,
    /// The loaded height's blocks and the read position in them.
    level: Vec<&'a Block>,
    pos: usize,
}

impl<'a> Iterator for DeltaAbove<'a> {
    type Item = &'a Block;

    fn next(&mut self) -> Option<&'a Block> {
        while self.pos == self.level.len() {
            let nodes = &self.tree.nodes;
            let mut idx = *self.tree.levels.get(self.next_level)?;
            self.next_level += 1;
            self.level.clear();
            self.pos = 0;
            while idx != NodeIdx::GENESIS {
                let node = &nodes[idx.at()];
                self.level.push(&node.block);
                idx = node.prev_at_height;
            }
            self.level.sort_unstable_by_key(|b| b.id);
        }
        self.pos += 1;
        Some(self.level[self.pos - 1])
    }
}

/// An open batch of inserts: every block entering a [`BlockTree`] is linked
/// by [`push`](BatchInsert::push), and the leaf count and best tips are
/// reconciled once when the session ends — at [`finish`](BatchInsert::finish),
/// or on drop if a panic unwinds through the caller mid-batch, so the tree's
/// indices always describe exactly the blocks that were linked.
///
/// Dereferences to the tree for lookups between pushes; until the session
/// ends the leaf count and best tips still describe the pre-batch tree.
pub struct BatchInsert<'a> {
    tree: &'a mut BlockTree,
    start: usize,
    /// One-entry memo of the previous link: chain-shaped batches resolve
    /// every parent after the first from it.
    last: Option<(BlockId, NodeIdx)>,
}

impl BatchInsert<'_> {
    /// Links one block under its parent and returns its arena slot.
    ///
    /// `parent_hint`, when `Some`, names the parent's arena slot (the
    /// ingest pipeline's tip stage knows it, so the interning map is never
    /// probed for it).  A hint is *verified* against the slot's id — a
    /// stale or wrong hint degrades to `UnknownParent`, never a mislinked
    /// block — and `None` falls back to the memo, then the interning map.
    pub fn push(
        &mut self,
        block: Block,
        parent_hint: Option<NodeIdx>,
    ) -> Result<NodeIdx, InsertError> {
        let id = block.id;
        let idx = self.tree.link(block, parent_hint, self.last)?;
        self.last = Some((id, idx));
        Ok(idx)
    }

    /// Ends the session, reconciling the leaf count and best tips.
    pub fn finish(self) {}
}

impl std::ops::Deref for BatchInsert<'_> {
    type Target = BlockTree;

    fn deref(&self) -> &BlockTree {
        self.tree
    }
}

impl Drop for BatchInsert<'_> {
    fn drop(&mut self) {
        self.tree.reconcile(self.start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockBuilder, GENESIS_ID};

    /// Builds genesis -> a -> b and a fork genesis -> a -> c.
    fn forked_tree() -> (BlockTree, Block, Block, Block) {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        tree.insert(a.clone()).unwrap();
        let b = BlockBuilder::new(&a).nonce(2).build();
        tree.insert(b.clone()).unwrap();
        let c = BlockBuilder::new(&a).nonce(3).build();
        tree.insert(c.clone()).unwrap();
        (tree, a, b, c)
    }

    #[test]
    fn new_tree_contains_only_genesis() {
        let tree = BlockTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.leaves(), vec![GENESIS_ID]);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.best_leaf_by_height(true), GENESIS_ID);
        assert_eq!(tree.best_leaf_by_work(true), GENESIS_ID);
    }

    #[test]
    fn rerooted_tree_accepts_descendants_at_absolute_heights() {
        let (full, a, b, _c) = forked_tree();
        // Re-root at `a` (height 1): its subtree re-inserts cleanly.
        let mut window = BlockTree::rerooted(a.clone());
        assert_eq!(window.genesis().id, a.id);
        assert_eq!(window.genesis().parent, None, "boundary copy");
        assert_eq!(window.height(), 1);
        window.insert(b.clone()).unwrap();
        assert_eq!(window.height(), 2);
        assert_eq!(window.best_leaf_by_height(true), b.id);
        let chain = window.chain_to(b.id).unwrap();
        assert_eq!(chain.len(), 2, "the pruned prefix is not in the window");
        // A wrong-height child is still rejected.
        let mut bad = BlockBuilder::new(&b).nonce(9).build();
        bad.height = 99;
        assert!(window.insert(bad).is_err());
        // Blocks below the root cannot enter the window.
        let below = BlockBuilder::new(full.genesis()).nonce(77).build();
        assert!(matches!(
            window.insert(below),
            Err(InsertError::UnknownParent(_))
        ));
    }

    #[test]
    fn rerooted_at_genesis_is_a_fresh_tree() {
        let tree = BlockTree::rerooted(Block::genesis());
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.genesis().id, GENESIS_ID);
        assert_eq!(tree.leaves(), vec![GENESIS_ID]);
    }

    #[test]
    fn insert_builds_parent_child_links() {
        let (tree, a, b, c) = forked_tree();
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.children(GENESIS_ID), &[a.id]);
        let mut kids = tree.children(a.id).to_vec();
        kids.sort_unstable();
        let mut expected = vec![b.id, c.id];
        expected.sort_unstable();
        assert_eq!(kids, expected);
        assert_eq!(tree.fork_degree(a.id), 2);
        assert_eq!(tree.max_fork_degree(), 2);
    }

    #[test]
    fn arena_indices_are_dense_and_parent_precedes_child() {
        let (tree, a, b, c) = forked_tree();
        assert_eq!(tree.idx_of(GENESIS_ID), Some(NodeIdx::GENESIS));
        for (child, parent) in [(a.id, GENESIS_ID), (b.id, a.id), (c.id, a.id)] {
            let child_idx = tree.idx_of(child).unwrap();
            let parent_idx = tree.idx_of(parent).unwrap();
            assert!(parent_idx < child_idx, "parents precede children");
            assert_eq!(tree.parent_idx(child_idx), Some(parent_idx));
            assert_eq!(tree.block_at(child_idx).id, child);
        }
        assert_eq!(tree.idx_of(BlockId(0xdead)), None);
    }

    #[test]
    fn insert_rejects_duplicates_unknown_parent_and_bad_height() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        tree.insert(a.clone()).unwrap();
        assert_eq!(tree.insert(a.clone()), Err(InsertError::Duplicate(a.id)));

        let stray = BlockBuilder::child_of(BlockId(0xbad), 3).build();
        assert_eq!(
            tree.insert(stray),
            Err(InsertError::UnknownParent(BlockId(0xbad)))
        );

        let mut wrong_height = BlockBuilder::new(&a).nonce(9).build();
        wrong_height.height = 7;
        let id = wrong_height.id;
        assert_eq!(
            tree.insert(wrong_height),
            Err(InsertError::HeightMismatch {
                block: id,
                recorded: 7,
                expected: 2
            })
        );

        let mut orphan = BlockBuilder::new(&a).nonce(10).build();
        orphan.parent = None;
        let id = orphan.id;
        assert_eq!(tree.insert(orphan), Err(InsertError::MissingParent(id)));
    }

    #[test]
    fn failed_inserts_leave_the_indices_untouched() {
        let (mut tree, a, _b, _c) = forked_tree();
        let before_leaves = tree.leaves();
        let before_len = tree.len();
        assert!(tree.insert(a.clone()).is_err());
        let mut wrong_height = BlockBuilder::new(&a).nonce(99).build();
        wrong_height.height = 9;
        assert!(tree.insert(wrong_height).is_err());
        assert_eq!(tree.leaves(), before_leaves);
        assert_eq!(tree.len(), before_len);
    }

    #[test]
    fn leaves_and_chains_follow_forks() {
        let (tree, _a, b, c) = forked_tree();
        let mut leaves = tree.leaves();
        leaves.sort_unstable();
        let mut expected = vec![b.id, c.id];
        expected.sort_unstable();
        assert_eq!(leaves, expected);

        let chains = tree.all_chains();
        assert_eq!(chains.len(), 2);
        for chain in &chains {
            assert_eq!(chain.len(), 3);
            assert!(chain.tip().id == b.id || chain.tip().id == c.id);
        }
    }

    #[test]
    fn chain_to_returns_path_from_genesis() {
        let (tree, a, b, _c) = forked_tree();
        let chain = tree.chain_to(b.id).unwrap();
        let ids: Vec<_> = chain.ids().collect();
        assert_eq!(ids, vec![GENESIS_ID, a.id, b.id]);
        assert!(tree.chain_to(BlockId(0xdead)).is_none());
    }

    #[test]
    fn cumulative_and_subtree_work() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).work(2).build();
        tree.insert(a.clone()).unwrap();
        let b = BlockBuilder::new(&a).nonce(2).work(3).build();
        tree.insert(b.clone()).unwrap();
        let c = BlockBuilder::new(&a).nonce(3).work(10).build();
        tree.insert(c.clone()).unwrap();

        assert_eq!(tree.cumulative_work(GENESIS_ID), Some(1));
        assert_eq!(tree.cumulative_work(a.id), Some(3));
        assert_eq!(tree.cumulative_work(b.id), Some(6));
        assert_eq!(tree.cumulative_work(c.id), Some(13));

        // subtree at a contains a, b, c
        assert_eq!(tree.subtree_work(a.id), 2 + 3 + 10);
        assert_eq!(tree.subtree_size(a.id), 3);
        assert_eq!(tree.subtree_work(GENESIS_ID), 1 + 2 + 3 + 10);
        assert_eq!(tree.subtree_work(BlockId(0xdead)), 0);
        assert_eq!(tree.subtree_size(BlockId(0xdead)), 0);

        // The one-pass table agrees with the per-node traversal.
        let table = tree.subtree_work_table();
        for id in tree.sorted_ids() {
            let idx = tree.idx_of(id).unwrap();
            assert_eq!(table[idx.0 as usize], tree.subtree_work(id));
        }
    }

    #[test]
    fn best_leaf_queries_respect_ties() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        let b = BlockBuilder::new(tree.genesis()).nonce(2).build();
        tree.insert(a.clone()).unwrap();
        tree.insert(b.clone()).unwrap();
        let hi = a.id.max(b.id);
        let lo = a.id.min(b.id);
        assert_eq!(tree.best_leaf_by_height(true), hi);
        assert_eq!(tree.best_leaf_by_height(false), lo);
        assert_eq!(tree.best_leaf_by_work(true), hi);
        assert_eq!(tree.best_leaf_by_work(false), lo);
    }

    #[test]
    fn work_zero_tie_backstop_matches_the_naive_reference() {
        // A work-0 child ties its parent's cumulative work; if that parent
        // was the heaviest incumbent the tree must rescan instead of keeping
        // a stale (non-leaf) tip.  Exercise both fork sides and both
        // tie-breaks against the naive reference.
        use crate::reference::NaiveBlockTree;
        use crate::selection::TieBreak;

        let mut tree = BlockTree::new();
        let mut naive = NaiveBlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).work(5).build();
        let b = BlockBuilder::new(tree.genesis()).nonce(2).work(5).build();
        for blk in [&a, &b] {
            tree.insert(blk.clone()).unwrap();
            naive.insert(blk.clone()).unwrap();
        }
        for (parent, nonce) in [(&a, 10u64), (&b, 11u64)] {
            let mut child = BlockBuilder::new(parent).nonce(nonce).build();
            child.work = 0; // bypasses the builder's work ≥ 1 clamp
            tree.insert(child.clone()).unwrap();
            naive.insert(child).unwrap();
            for tie in [TieBreak::LargestId, TieBreak::SmallestId] {
                assert_eq!(
                    tree.best_leaf_by_work(tie.prefers_largest()),
                    naive.select_heaviest(tie).tip().id,
                    "work-0 tie under {tie:?}"
                );
            }
            assert_eq!(tree.leaves(), naive.leaves());
        }
    }

    #[test]
    fn merge_imports_missing_blocks_in_arena_order() {
        let (tree_full, _a, _b, _c) = forked_tree();
        let mut tree = BlockTree::new();
        let inserted = tree.merge(&tree_full);
        assert_eq!(inserted, 3);
        assert_eq!(tree.len(), tree_full.len());
        assert_eq!(tree.sorted_ids(), tree_full.sorted_ids());
        // Merging again is a no-op.
        assert_eq!(tree.merge(&tree_full), 0);
    }

    #[test]
    fn height_tracks_longest_branch() {
        let (mut tree, _a, b, _c) = forked_tree();
        assert_eq!(tree.height(), 2);
        let d = BlockBuilder::new(&b).nonce(77).build();
        tree.insert(d).unwrap();
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn blocks_since_yields_the_delta_in_insertion_order() {
        let (mut tree, _a, b, _c) = forked_tree();
        let mark = tree.len();
        assert_eq!(tree.blocks_since(mark).count(), 0);
        let d = BlockBuilder::new(&b).nonce(7).build();
        let e = BlockBuilder::new(&d).nonce(8).build();
        tree.insert(d.clone()).unwrap();
        tree.insert(e.clone()).unwrap();
        let delta: Vec<BlockId> = tree.blocks_since(mark).map(|blk| blk.id).collect();
        assert_eq!(delta, vec![d.id, e.id]);
        assert_eq!(tree.blocks_since(tree.len() + 10).count(), 0);
    }

    /// Asserts every observable of `batch` equals `seq` (used by the
    /// insert_batch equivalence tests; the cross-implementation and
    /// shuffled-batch properties live in the pipeline crate).
    fn assert_same_observables(batch: &BlockTree, seq: &BlockTree) {
        assert_eq!(batch.sorted_ids(), seq.sorted_ids());
        assert_eq!(batch.leaves(), seq.leaves());
        assert_eq!(batch.height(), seq.height());
        assert_eq!(batch.max_fork_degree(), seq.max_fork_degree());
        for largest in [true, false] {
            assert_eq!(
                batch.best_leaf_by_height(largest),
                seq.best_leaf_by_height(largest)
            );
            assert_eq!(
                batch.best_leaf_by_work(largest),
                seq.best_leaf_by_work(largest)
            );
        }
        for id in seq.sorted_ids() {
            assert_eq!(batch.cumulative_work(id), seq.cumulative_work(id));
            let b_idx = batch.idx_of(id).unwrap();
            let s_idx = seq.idx_of(id).unwrap();
            assert_eq!(batch.interval_at(b_idx), seq.interval_at(s_idx));
        }
    }

    #[test]
    fn insert_batch_results_match_sequential_inserts() {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).work(3).build();
        let b = BlockBuilder::new(&a).nonce(2).work(2).build();
        let c = BlockBuilder::new(&a).nonce(3).work(7).build();
        let stray = BlockBuilder::child_of(BlockId(0xbad), 5).build();
        let mut wrong_height = BlockBuilder::new(&b).nonce(9).build();
        wrong_height.height = 42;
        // A mixed batch: good chain, fork, duplicate, orphan, bad height.
        let batch = vec![a.clone(), b.clone(), a.clone(), stray, wrong_height, c];

        let mut batched = BlockTree::new();
        let results = batched.insert_batch(&batch);

        let mut sequential = BlockTree::new();
        let expected: Vec<Result<(), InsertError>> = batch
            .iter()
            .map(|blk| sequential.insert(blk.clone()))
            .collect();

        assert_eq!(results, expected);
        assert_same_observables(&batched, &sequential);
    }

    #[test]
    fn insert_batch_work_zero_ties_rescan_like_single_inserts() {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).work(5).build();
        let b = BlockBuilder::new(&genesis).nonce(2).work(5).build();
        let mut zero_a = BlockBuilder::new(&a).nonce(10).build();
        zero_a.work = 0;
        let mut zero_b = BlockBuilder::new(&b).nonce(11).build();
        zero_b.work = 0;
        let batch = vec![a, b, zero_a, zero_b];

        let mut batched = BlockTree::new();
        assert!(batched.insert_batch(&batch).iter().all(Result::is_ok));
        let mut sequential = BlockTree::new();
        for blk in &batch {
            sequential.insert(blk.clone()).unwrap();
        }
        assert_same_observables(&batched, &sequential);
    }

    #[test]
    fn work_zero_ties_match_the_naive_reference_at_every_run_split() {
        // The work-0 backstop through both run lengths: a prefix of the
        // stream goes in as runs of one, the rest as one batch, so for
        // every split the ties land either in a single insert or mid-run.
        use crate::reference::NaiveBlockTree;
        use crate::selection::TieBreak;

        let zero_child = |parent: &Block, nonce: u64| {
            let mut child = BlockBuilder::new(parent).nonce(nonce).build();
            child.work = 0; // bypasses the builder's work ≥ 1 clamp
            child
        };
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).work(5).build();
        let b = BlockBuilder::new(&genesis).nonce(2).work(5).build();
        let light = BlockBuilder::new(&genesis).nonce(3).work(1).build();
        let zero_a = zero_child(&a, 10);
        let filler = BlockBuilder::new(&light).nonce(4).work(1).build();
        let zero_b = zero_child(&b, 11);
        let zero_zero_a = zero_child(&zero_a, 12);
        let stream = [a, b, light, zero_a, filler, zero_b, zero_zero_a];

        let assert_matches = |tree: &BlockTree, naive: &NaiveBlockTree, what: &str| {
            assert_eq!(tree.leaves(), naive.leaves(), "{what}");
            for tie in [TieBreak::LargestId, TieBreak::SmallestId] {
                assert_eq!(
                    tree.best_leaf_by_work(tie.prefers_largest()),
                    naive.select_heaviest(tie).tip().id,
                    "{what}: heaviest under {tie:?}"
                );
                assert_eq!(
                    tree.best_leaf_by_height(tie.prefers_largest()),
                    naive.select_longest(tie).tip().id,
                    "{what}: longest under {tie:?}"
                );
            }
        };
        for split in 0..=stream.len() {
            let mut tree = BlockTree::new();
            let mut naive = NaiveBlockTree::new();
            for blk in &stream[..split] {
                tree.insert(blk.clone()).unwrap();
                naive.insert(blk.clone()).unwrap();
                assert_matches(&tree, &naive, &format!("run of one, split {split}"));
            }
            assert!(tree
                .insert_batch(&stream[split..])
                .iter()
                .all(Result::is_ok));
            for blk in &stream[split..] {
                naive.insert(blk.clone()).unwrap();
            }
            assert_matches(&tree, &naive, &format!("batch, split {split}"));
        }
    }

    #[test]
    fn a_dropped_batch_session_reconciles_the_linked_prefix() {
        // A panic unwinding through an open session must leave the leaf
        // count and best tips describing exactly the blocks linked so far.
        let (base, _a, b, c) = forked_tree();
        let d = BlockBuilder::new(&b).nonce(7).build();
        let e = BlockBuilder::new(&d).nonce(8).build();
        let f = BlockBuilder::new(&c).nonce(9).build();
        let mut unwound = base.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut batch = unwound.begin_batch(3);
            batch.push(d.clone(), None).unwrap();
            batch.push(e.clone(), None).unwrap();
            panic!("writer dies mid-batch");
        }));
        assert!(caught.is_err());
        let mut sequential = base;
        sequential.insert(d).unwrap();
        sequential.insert(e).unwrap();
        assert_same_observables(&unwound, &sequential);
        // The tree keeps working after the unwind.
        unwound.insert(f.clone()).unwrap();
        sequential.insert(f).unwrap();
        assert_same_observables(&unwound, &sequential);
    }

    #[test]
    fn a_wrong_parent_hint_degrades_to_unknown_parent() {
        let (mut tree, a, b, _c) = forked_tree();
        let before = tree.clone();
        let d = BlockBuilder::new(&b).nonce(7).build();
        let a_idx = tree.idx_of(a.id).unwrap();
        let mut batch = tree.begin_batch(1);
        assert_eq!(
            batch.push(d.clone(), Some(a_idx)),
            Err(InsertError::UnknownParent(b.id)),
            "a hint naming the wrong slot never mislinks"
        );
        assert_eq!(
            batch.push(d.clone(), Some(NodeIdx(99))),
            Err(InsertError::UnknownParent(b.id)),
            "nor does an out-of-range one"
        );
        batch.finish();
        assert_same_observables(&tree, &before);
        let b_idx = tree.idx_of(b.id).unwrap();
        let mut batch = tree.begin_batch(1);
        assert_eq!(batch.push(d.clone(), Some(b_idx)), Ok(NodeIdx(4)));
        assert_eq!(batch.len(), 5, "lookups see the linked block mid-session");
        batch.finish();
        assert_eq!(tree.leaves().len(), 2);
        assert_eq!(tree.best_leaf_by_height(true), d.id);
    }

    #[test]
    fn insert_batch_extends_an_existing_tree() {
        let (mut batched, _a, b, c) = forked_tree();
        let sequential = batched.clone();
        let mut sequential = sequential;
        let d = BlockBuilder::new(&b).nonce(7).build();
        let e = BlockBuilder::new(&d).nonce(8).build();
        let f = BlockBuilder::new(&c).nonce(9).build();
        let delta = vec![d, e, f];
        assert!(batched.insert_batch(&delta).iter().all(Result::is_ok));
        for blk in &delta {
            sequential.insert(blk.clone()).unwrap();
        }
        assert_same_observables(&batched, &sequential);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (mut tree, ..) = forked_tree();
        let before = tree.clone();
        assert!(tree.insert_batch(&[]).is_empty());
        assert_same_observables(&tree, &before);
    }

    #[test]
    fn the_two_node_links_share_eight_bytes() {
        // Block, parent + previous-at-height slots, the four child-list
        // slots, work: no `Vec`, so a node owns no heap memory.
        let expected = std::mem::size_of::<Block>() + 8 + 16 + 8;
        assert_eq!(std::mem::size_of::<BlockNode>(), expected);
    }

    #[test]
    fn delta_above_returns_sorted_insertable_blocks() {
        let (tree, _a, _b, _c) = forked_tree();
        let delta: Vec<&Block> = tree.delta_above(1).collect();
        assert_eq!(delta.len(), 2, "only the height-2 fork blocks");
        assert!(delta
            .windows(2)
            .all(|w| (w[0].height, w[0].id) < (w[1].height, w[1].id)));
        assert_eq!(tree.delta_above(1).take(1).count(), 1, "a capped prefix");
        assert_eq!(tree.delta_above(2).count(), 0, "nothing above the top");

        let everything: Vec<Block> = tree.delta_above(0).cloned().collect();
        assert_eq!(everything.len(), 3);
        let mut fresh = BlockTree::new();
        for blk in everything {
            fresh.insert(blk).unwrap();
        }
        assert_eq!(fresh.sorted_ids(), tree.sorted_ids());

        // A window rooted at `a` (height 1) lists only what is above it.
        let (_, a, b, c) = forked_tree();
        let mut window = BlockTree::rerooted(a);
        window.insert(c.clone()).unwrap();
        window.insert(b.clone()).unwrap();
        let ids: Vec<BlockId> = window.delta_above(0).map(|blk| blk.id).collect();
        assert_eq!(ids, vec![b.id.min(c.id), b.id.max(c.id)]);
    }
}
