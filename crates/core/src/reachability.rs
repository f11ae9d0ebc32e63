//! Reachability over the chains of a history: one union tree with an
//! Euler-tour numbering.
//!
//! Some offline judges quantify over pairs of read chains — pairwise
//! `prefix_compatible` for Strong Prefix, pairwise divergence depth for the
//! scenario metrics.  Walking and zipping the chains makes every pair
//! O(chain length); instead, [`ReachForest`] interns all chains of a
//! history into one [`BlockTree`] and then numbers that tree once, by a
//! single iterative depth-first walk over its child lists: each node gets
//! its **pre-order position** and the **end** of its subtree's positions
//! (exclusive).  A node is an ancestor of (or equal to) another ⟺ the
//! other's position falls in its `[pre, end)` span, so:
//!
//! * two chains are prefix-compatible ⟺ one tip's span holds the other's
//!   position — **two comparisons per pair** instead of a zip;
//! * the maximal common prefix length of two chains is found by a
//!   span-guided **binary ascent** over one chain: `partition_point` over
//!   its blocks with the O(1) containment predicate;
//! * how many *later* chains diverge from each chain
//!   ([`ReachForest::diverging_later`]) is one reverse sweep over the
//!   chains with two Fenwick trees over pre-order positions — O(R log n)
//!   for R chains over n blocks, never the R² pairs.
//!
//! The numbering belongs to the forest: the tree's own online interval
//! index (`btadt_types::reachability`) still labels every insert, but no
//! query here reads it.
//!
//! Ingestion is incremental per chain: walk backward from the tip to the
//! first block the tree already holds, verify the boundary block is
//! *identical* to the resident copy, and insert only the missing suffix.
//! Structurally inconsistent inputs — chains that disagree on their root,
//! boundary blocks whose content differs from the resident copy under the
//! same id, or suffixes the tree rejects — make construction return `None`,
//! and callers fall back to the walk-based spec checkers.  (Block ids are
//! structural hashes, so distinct blocks colliding on an id is already
//! excluded by the repo-wide interning assumption; the boundary equality
//! check is a cheap tripwire on top.)

use btadt_types::{BlockTree, Blockchain, NodeIdx};

/// A node's place in the forest's pre-order: its own position and the end
/// (exclusive) of its subtree's positions.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    pre: u32,
    end: u32,
}

impl Span {
    /// Is the node numbered `self` an ancestor of (or equal to) the node
    /// numbered `other`?
    #[inline]
    fn holds(self, other: Span) -> bool {
        self.pre <= other.pre && other.pre < self.end
    }
}

/// All read chains of a history interned into one union tree, numbered
/// once in pre-order, with one tip per input chain (in input order).
pub struct ReachForest {
    tree: BlockTree,
    tips: Vec<NodeIdx>,
    /// The pre-order span of every node, indexed by `NodeIdx`.
    spans: Vec<Span>,
}

impl ReachForest {
    /// Builds the union tree of the given chains.  Returns `None` when the
    /// chains are not mutually consistent tree paths (disjoint roots,
    /// boundary mismatches, rejected inserts) or when there are no chains —
    /// callers then fall back to chain-walking checkers.
    pub fn from_chains<'a, I>(chains: I) -> Option<ReachForest>
    where
        I: IntoIterator<Item = &'a Blockchain>,
    {
        let chains: Vec<&Blockchain> = chains.into_iter().collect();
        let root = chains.first()?.blocks().first()?;
        // The rerooted boundary copy clears the parent pointer, so chains
        // over pruned windows intern exactly like genesis-rooted ones.
        // LINT-ALLOW: a fresh tree interned from recorded chains, not a
        // replica's window.
        let mut tree = BlockTree::rerooted(root.clone());
        let mut tips = Vec::with_capacity(chains.len());

        for chain in &chains {
            let blocks = chain.blocks();
            let head = &blocks[0];
            if head.id != tree.genesis().id {
                return None; // disjoint roots: not one tree
            }
            {
                let mut normalized = head.clone();
                normalized.parent = None;
                if normalized != *tree.genesis() {
                    return None;
                }
            }
            // Deepest block already interned; position 0 always is.
            let mut k = blocks.len() - 1;
            while !tree.contains(blocks[k].id) {
                k -= 1;
            }
            if k > 0 && tree.get(blocks[k].id) != Some(&blocks[k]) {
                return None; // boundary content diverges from the resident copy
            }
            for block in &blocks[k + 1..] {
                if tree.insert(block.clone()).is_err() {
                    return None;
                }
            }
            tips.push(tree.idx_of(chain.tip().id).expect("tip was interned"));
        }
        let spans = euler_spans(&tree);
        Some(ReachForest { tree, tips, spans })
    }

    /// The underlying union tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The interned tip of the `i`-th input chain.
    pub fn tip(&self, i: usize) -> NodeIdx {
        self.tips[i]
    }

    /// Is the node at `a` an ancestor of (or equal to) the node at `b`?
    /// One span containment check.
    #[inline]
    fn holds(&self, a: NodeIdx, b: NodeIdx) -> bool {
        self.spans[a.0 as usize].holds(self.spans[b.0 as usize])
    }

    /// Are the `i`-th and `j`-th input chains prefix-compatible (one a
    /// prefix of the other)?  Two O(1) span containment checks.
    #[inline]
    pub fn compatible(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.tips[i], self.tips[j]);
        self.holds(a, b) || self.holds(b, a)
    }

    /// Maximal common prefix length (`Blockchain::mcp_len`) of a chain with
    /// the subtree position `other_tip`, by span-guided binary ascent: the
    /// predicate "this block is an ancestor of `other_tip`" is monotone
    /// along the chain, so `partition_point` finds the divergence point in
    /// O(log n) containment checks.  The chain must have been interned into
    /// this forest.
    pub fn mcp_len(&self, chain: &Blockchain, other_tip: NodeIdx) -> u64 {
        let blocks = chain.blocks();
        let shared = blocks.partition_point(|block| {
            let idx = self.tree.idx_of(block.id).expect("chain was interned");
            self.holds(idx, other_tip)
        });
        debug_assert!(shared > 0, "interned chains share at least the root");
        (shared - 1) as u64
    }

    /// For every input chain `i`, how many later chains `j > i` diverge
    /// from it (neither a prefix of the other): `count[i] = |{j > i :
    /// !compatible(i, j)}|`.
    ///
    /// One reverse sweep over the chains keeps the tips of the chains after
    /// `i` in two Fenwick trees over pre-order positions — one point count
    /// per tip (the later tips inside `i`'s span are its descendants) and
    /// one range addition over each tip's span (the later spans holding
    /// `i`'s position are its ancestors).  A later tip equal to `i`'s is in
    /// both, so descendants are counted strictly inside the span.
    /// O(R log n).
    pub fn diverging_later(&self) -> Vec<usize> {
        let n = self.spans.len();
        let mut tips_at = Fenwick::new(n);
        let mut spans_over = Fenwick::new(n + 1);
        let mut counts = vec![0; self.tips.len()];
        for (i, &tip) in self.tips.iter().enumerate().rev() {
            let Span { pre, end } = self.spans[tip.0 as usize];
            let descendants = tips_at.prefix(end) - tips_at.prefix(pre + 1);
            let ancestors_or_equal = spans_over.prefix(pre + 1);
            counts[i] = self.tips.len() - 1 - i - descendants - ancestors_or_equal;
            tips_at.add(pre, 1);
            spans_over.add(pre, 1);
            spans_over.add(end, -1);
        }
        counts
    }
}

/// Numbers `tree` in pre-order by one iterative depth-first walk over its
/// child lists (no recursion: a chain-shaped tree is as deep as it is
/// large).
fn euler_spans(tree: &BlockTree) -> Vec<Span> {
    let mut spans = vec![Span::default(); tree.len()];
    let mut next = 1u32; // the root holds position 0
    let mut stack = vec![(NodeIdx::GENESIS, tree.children_idx(NodeIdx::GENESIS))];
    while let Some((node, children)) = stack.last_mut() {
        match children.next() {
            Some(child) => {
                spans[child.0 as usize].pre = next;
                next += 1;
                stack.push((child, tree.children_idx(child)));
            }
            None => {
                spans[node.0 as usize].end = next;
                stack.pop();
            }
        }
    }
    spans
}

/// A Fenwick (binary indexed) tree over positions `0..len`: point updates
/// and prefix sums in O(log len).
struct Fenwick(Vec<i64>);

impl Fenwick {
    fn new(len: usize) -> Self {
        Fenwick(vec![0; len + 1])
    }

    /// Adds `delta` at position `at`.
    fn add(&mut self, at: u32, delta: i64) {
        let mut k = at as usize + 1;
        while k < self.0.len() {
            self.0[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// The sum over positions `0..end`.
    fn prefix(&self, end: u32) -> usize {
        let mut sum = 0;
        let mut k = end as usize;
        while k > 0 {
            sum += self.0[k];
            k &= k - 1;
        }
        sum as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::workload::Workload;
    use btadt_types::{Block, BlockTree};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Every maximal chain of a random tree, its half-height prefix and
    /// the genesis chain, each twice, shuffled — repeated tips and nested
    /// prefixes — interned and compared against the positional chain
    /// operations.
    #[test]
    fn forest_agrees_with_positional_chain_operations() {
        for seed in [2u64, 19, 64] {
            let tree = Workload::new(seed).random_tree(80, 0.5, 0);
            let mut chains: Vec<Blockchain> = Vec::new();
            for chain in tree.all_chains() {
                for len in [0, chain.height() as usize / 2, chain.height() as usize] {
                    chains.push(chain.truncated(len));
                    chains.push(chain.truncated(len));
                }
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for k in (1..chains.len()).rev() {
                chains.swap(k, rng.gen_range(0..=k));
            }
            let forest = ReachForest::from_chains(chains.iter()).expect("consistent chains");
            for i in 0..chains.len() {
                for j in 0..chains.len() {
                    assert_eq!(
                        forest.compatible(i, j),
                        chains[i].prefix_compatible(&chains[j]),
                        "seed {seed}: compatibility of chains {i},{j}"
                    );
                    assert_eq!(
                        forest.mcp_len(&chains[i], forest.tip(j)),
                        chains[i].mcp_len(&chains[j]),
                        "seed {seed}: mcp_len of chains {i},{j}"
                    );
                }
            }
            let positional: Vec<usize> = (0..chains.len())
                .map(|i| {
                    chains[i + 1..]
                        .iter()
                        .filter(|later| !chains[i].prefix_compatible(later))
                        .count()
                })
                .collect();
            assert_eq!(
                forest.diverging_later(),
                positional,
                "seed {seed}: diverging-later counts"
            );
        }
    }

    /// The pre-order spans agree with a parent walk on every node pair.
    fn assert_spans_match_parent_walks(forest: &ReachForest) {
        let tree = forest.tree();
        let walk = |a: NodeIdx, b: NodeIdx| {
            let mut cursor = Some(b);
            while let Some(node) = cursor {
                if node == a {
                    return true;
                }
                cursor = tree.parent_idx(node);
            }
            false
        };
        for a in 0..tree.len() as u32 {
            for b in 0..tree.len() as u32 {
                let (a, b) = (NodeIdx(a), NodeIdx(b));
                assert_eq!(
                    forest.holds(a, b),
                    walk(a, b),
                    "ancestry of {a:?} over {b:?}"
                );
            }
        }
    }

    #[test]
    fn euler_spans_agree_with_parent_walks() {
        for seed in [3u64, 12, 51] {
            let tree = Workload::new(seed).random_tree(60, 0.5, 0);
            let chains = tree.all_chains();
            assert_spans_match_parent_walks(&ReachForest::from_chains(chains.iter()).unwrap());
        }
        // A rerooted window: the forest's root is a non-genesis block.
        let tree = Workload::new(5).random_tree(60, 0.5, 0);
        let pivot = tree
            .chain_to(tree.best_leaf_by_height(true))
            .unwrap()
            .blocks()[3]
            .clone();
        let mut window = BlockTree::rerooted(pivot.clone());
        for block in tree.blocks() {
            let path = tree.chain_to(block.id).unwrap();
            if block.height > pivot.height && path.blocks()[pivot.height as usize] == pivot {
                window.insert(block.clone()).unwrap();
            }
        }
        assert!(window.len() > 1);
        let chains = window.all_chains();
        let forest = ReachForest::from_chains(chains.iter()).unwrap();
        assert_eq!(forest.tree().len(), window.len());
        assert_spans_match_parent_walks(&forest);
        // A genesis-only forest: one node, its own ancestor.
        let g = Blockchain::genesis_only();
        assert_spans_match_parent_walks(&ReachForest::from_chains([&g]).unwrap());
    }

    #[test]
    fn duplicate_and_nested_chains_intern_once() {
        let mut w = Workload::new(4);
        let chain = w.linear_chain(10, 0);
        let prefix = chain.truncated(4);
        let forest =
            ReachForest::from_chains([&chain, &prefix, &chain]).expect("consistent chains");
        assert_eq!(forest.tree().len(), chain.len());
        assert!(forest.compatible(0, 1));
        assert!(forest.compatible(1, 2));
        assert_eq!(forest.tip(0), forest.tip(2));
        assert_eq!(forest.mcp_len(&prefix, forest.tip(0)), 4);
    }

    #[test]
    fn disjoint_roots_refuse_to_build() {
        let mut w = Workload::new(6);
        let genesis_chain = w.linear_chain(3, 0);
        // A chain over a pruned window: rooted at a non-genesis block.
        let mut full = BlockTree::new();
        let a = w.block_on(full.genesis(), 0, 0, 1);
        full.insert(a.clone()).unwrap();
        let mut window = BlockTree::rerooted(a.clone());
        let b = w.block_on(&a, 0, 0, 1);
        window.insert(b.clone()).unwrap();
        let window_chain = window.chain_to(b.id).unwrap();
        assert!(ReachForest::from_chains([&genesis_chain, &window_chain]).is_none());
        // Alone, the window chain interns fine (rebased root).
        assert!(ReachForest::from_chains([&window_chain]).is_some());
    }

    #[test]
    fn forged_boundary_content_refuses_to_build() {
        // Two "chains" that agree on an id but not on the block content at
        // the boundary: construction must bail rather than mislabel.
        let chain = Workload::new(8).linear_chain(4, 0);
        let mut forged_blocks: Vec<Block> = chain.blocks().to_vec();
        let tampered = forged_blocks.last_mut().unwrap();
        tampered.work += 1; // same id field only if we keep it — force it:
        let kept_id = chain.tip().id;
        tampered.id = kept_id;
        let forged = Blockchain::from_blocks_trusted(forged_blocks);
        assert!(ReachForest::from_chains([&chain, &forged]).is_none());
    }

    #[test]
    fn no_chains_yields_none() {
        assert!(ReachForest::from_chains(std::iter::empty::<&Blockchain>()).is_none());
    }

    #[test]
    fn genesis_only_chains_build_a_trivial_forest() {
        let g = Blockchain::genesis_only();
        let forest = ReachForest::from_chains([&g, &g]).unwrap();
        assert!(forest.compatible(0, 1));
        assert_eq!(forest.mcp_len(&g, forest.tip(1)), 0);
    }
}
