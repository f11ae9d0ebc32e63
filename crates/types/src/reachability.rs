//! Interval-labeled reachability over the arena [`BlockTree`](crate::BlockTree).
//!
//! Every node carries a half-open interval `[start, end)` nested strictly
//! inside its parent's interval, with sibling intervals pairwise disjoint
//! (the *future covering set* labeling of rusty-kaspa's reachability
//! store).  Under that invariant
//!
//! > `a` is an ancestor of `b` (or `a == b`)  ⟺  `interval(b) ⊆ interval(a)`
//!
//! so ancestor queries are two comparisons — no parent walking — and the
//! maximal common prefix of two chains becomes a binary search over one of
//! them guided by interval containment.
//!
//! ## Incremental maintenance
//!
//! Children are packed left-to-right inside the parent's interval minus a
//! reserved top unit (`[start, end-1)`), tracked by a per-node allocation
//! cursor.  A new **first** child receives everything except a
//! `SLACK`-unit (4096) reserve — a *subtractive* grant, so a chain of depth
//! `d` only consumes `d · SLACK` of the root's `2^64` width and deep-chain
//! growth (the dominant workload) never exhausts.  Later siblings split the
//! remaining free space in half (*exponential splitting*), so a parent
//! absorbs ~`log₂ SLACK` forks before running out.
//!
//! ## Amortized reindexing
//!
//! When an insertion finds no free width, the index climbs to the nearest
//! ancestor `v` whose usable width is at least `2 · (subtree(v) + 1)` — the
//! root always qualifies, its width being `2^64 − 1` against a `u32` arena —
//! and reassigns the intervals of `v`'s whole subtree: each child receives
//! its subtree size plus a share of the surplus proportional to that size,
//! with one unit held back per node.  Proportional shares mean a dominant
//! branch (a long chain) keeps essentially the full surplus to its tip,
//! while the hold-back guarantees *every* node in the reindexed subtree
//! ends with at least one free unit, so the pending insertion always
//! succeeds (an escalation loop toward the root backstops the guarantee).
//! Reindex cost is bounded by the reindex root's subtree and is amortized
//! across the insertions that consumed the space.
//!
//! The interval store is rebuilt from scratch by
//! [`BlockTree::rerooted`](crate::BlockTree::rerooted): pruning *rebases*
//! the labels onto the new root rather than invalidating ancestor queries
//! inside the surviving window.

use crate::tree::{Children, NodeIdx};

/// Reserved width a parent keeps for future siblings when granting its
/// first child, and the per-node reserve target during reindexing.
pub(crate) const SLACK: u64 = 4096;

/// A half-open labeling interval `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub start: u64,
    /// Exclusive upper bound.
    pub end: u64,
}

impl Interval {
    /// Width of the interval.
    pub fn width(&self) -> u64 {
        self.end - self.start
    }

    /// Containment: `other ⊆ self`.
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// The per-tree interval store, maintained alongside the node slab.
#[derive(Clone, Debug)]
pub(crate) struct ReachabilityIndex {
    /// Interval per node, parallel to the arena slab.
    intervals: Vec<Interval>,
    /// Next free child-allocation position per node.  Children are packed
    /// left-to-right, so child intervals are ordered by `start` in
    /// insertion order.
    cursors: Vec<u64>,
    /// How many reindex passes ran (stress-test / telemetry metric).
    reindexes: u64,
}

/// The tree topology the index maintenance needs: parent links, children
/// lists and subtree sizes.  Implemented by the [`BlockTree`](crate::BlockTree)
/// slab; the indirection keeps borrow scopes disjoint (`&mut` index, `&`
/// topology).
pub(crate) trait Topology {
    fn parent_of(&self, idx: NodeIdx) -> Option<NodeIdx>;
    fn children_of(&self, idx: NodeIdx) -> Children<'_>;
}

impl ReachabilityIndex {
    /// An index holding only the root node, labeled with the full width.
    pub(crate) fn with_root() -> Self {
        ReachabilityIndex {
            intervals: vec![Interval {
                start: 0,
                end: u64::MAX,
            }],
            cursors: vec![0],
            reindexes: 0,
        }
    }

    /// The interval of a node.
    #[inline]
    pub(crate) fn interval(&self, idx: NodeIdx) -> Interval {
        self.intervals[idx.0 as usize]
    }

    /// The child-allocation cursor of a node.
    pub(crate) fn cursor(&self, idx: NodeIdx) -> u64 {
        self.cursors[idx.0 as usize]
    }

    /// Number of reindex passes since the tree was created.
    pub(crate) fn reindexes(&self) -> u64 {
        self.reindexes
    }

    /// Ancestor-or-self in two comparisons.
    #[inline]
    pub(crate) fn is_ancestor(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.intervals[a.0 as usize].contains(&self.intervals[b.0 as usize])
    }

    /// Allocates an interval for a new child of `parent` and appends it to
    /// the store as the node at index `len()`.  Must be called *before* the
    /// new node is linked into the topology (reindexing walks the existing
    /// subtree only).
    pub(crate) fn attach(&mut self, parent: NodeIdx, topo: &impl Topology) {
        let mut floor = None;
        loop {
            let iv = self.intervals[parent.0 as usize];
            let cursor = self.cursors[parent.0 as usize];
            let limit = iv.end - 1;
            let free = limit.saturating_sub(cursor);
            if free >= 1 {
                let grant = if cursor == iv.start {
                    // First child: everything minus the sibling reserve
                    // (subtractive — deep chains never exhaust).
                    (free - (free / 2).min(SLACK)).max(1)
                } else {
                    // Later siblings: exponential splitting of what's left.
                    (free / 2).max(1)
                };
                self.intervals.push(Interval {
                    start: cursor,
                    end: cursor + grant,
                });
                self.cursors[parent.0 as usize] = cursor + grant;
                self.cursors.push(cursor);
                return;
            }
            // Exhausted: reindex, escalating the reindex root strictly
            // upward on every retry (the root-level pass provably frees a
            // unit at every node, so this terminates).
            floor = Some(self.reindex(parent, floor, topo));
        }
    }

    /// Reassigns the intervals of the subtree under the nearest ancestor of
    /// `from` with enough usable width (strictly above `above` when given),
    /// and returns the chosen reindex root.
    fn reindex(&mut self, from: NodeIdx, above: Option<NodeIdx>, topo: &impl Topology) -> NodeIdx {
        self.reindexes += 1;
        // Subtree sizes below `from`'s root path are not needed; compute
        // sizes lazily per candidate via one DFS.
        let mut v = match above {
            Some(prev) => topo
                .parent_of(prev)
                .expect("reindex escalation ran past the root"),
            None => from,
        };
        let (root_size, sizes) = loop {
            let (size, sizes) = self.subtree_sizes(v, topo);
            let usable = self.intervals[v.0 as usize].width() - 1;
            if usable >= 2 * (size + 1) {
                break (size, sizes);
            }
            v = topo
                .parent_of(v)
                .expect("the root's width always admits a reindex");
        };
        debug_assert!(root_size >= 1);

        // Reassign depth-first.  Children get `size + share` where `share`
        // splits the surplus (minus a per-node hold-back) proportionally to
        // subtree size; leaves keep their full width free.
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            let iv = self.intervals[u.0 as usize];
            let children = topo.children_of(u);
            if children.is_empty() {
                self.cursors[u.0 as usize] = iv.start;
                continue;
            }
            let usable = (iv.end - 1) - iv.start;
            let total: u64 = children.clone().map(|c| sizes[c.0 as usize]).sum();
            debug_assert!(usable >= total, "reindex root admits its subtree");
            let surplus = usable - total;
            // Hold back one unit plus (up to) the slack reserve so the node
            // can keep absorbing new children without re-triggering.
            let hold = 1 + ((surplus.saturating_sub(1)) / 2).min(SLACK);
            let pool = surplus.saturating_sub(hold);
            let mut cursor = iv.start;
            for c in children {
                let w = sizes[c.0 as usize];
                let share = if total > 0 {
                    ((pool as u128 * w as u128) / total as u128) as u64
                } else {
                    0
                };
                let width = w + share;
                self.intervals[c.0 as usize] = Interval {
                    start: cursor,
                    end: cursor + width,
                };
                cursor += width;
                stack.push(c);
            }
            self.cursors[u.0 as usize] = cursor;
        }
        v
    }

    /// Subtree size of `v` plus a size table for every node below it
    /// (indexed by arena slot; untouched slots stay 0).
    fn subtree_sizes(&self, v: NodeIdx, topo: &impl Topology) -> (u64, Vec<u64>) {
        let mut sizes = vec![0u64; self.intervals.len()];
        // Collect the subtree in DFS order, then fold sizes bottom-up in
        // reverse order (children are always collected after parents).
        let mut order = vec![v];
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            order.extend(topo.children_of(u));
        }
        for &u in order.iter().rev() {
            let below: u64 = topo.children_of(u).map(|c| sizes[c.0 as usize]).sum();
            sizes[u.0 as usize] = below + 1;
        }
        (sizes[v.0 as usize], sizes)
    }
}
