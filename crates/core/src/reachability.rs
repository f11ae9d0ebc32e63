//! Reachability over the chains of a history: a shared interval-labeled
//! union tree.
//!
//! Some offline judges quantify over pairs of read chains — pairwise
//! `prefix_compatible` for Strong Prefix, pairwise divergence depth for the
//! scenario metrics.  Walking and zipping the chains makes every pair
//! O(chain length); instead,
//! [`ReachForest`] interns all chains of a history into one
//! [`BlockTree`], whose interval-labeled reachability index (see
//! `btadt_types::reachability`) answers ancestor queries in O(1):
//!
//! * two chains are prefix-compatible ⟺ one tip is an interval-ancestor of
//!   the other — **two comparisons per pair** instead of a zip;
//! * the maximal common prefix length of two chains is found by an
//!   interval-guided **binary ascent** over one chain: `partition_point`
//!   over its blocks with the O(1) containment predicate.
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

/// All read chains of a history interned into one reachability-indexed
/// tree, with one tip per input chain (in input order).
pub struct ReachForest {
    tree: BlockTree,
    tips: Vec<NodeIdx>,
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
        Some(ReachForest { tree, tips })
    }

    /// The underlying interval-indexed union tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The interned tip of the `i`-th input chain.
    pub fn tip(&self, i: usize) -> NodeIdx {
        self.tips[i]
    }

    /// Are the `i`-th and `j`-th input chains prefix-compatible (one a
    /// prefix of the other)?  Two O(1) containment checks.
    #[inline]
    pub fn compatible(&self, i: usize, j: usize) -> bool {
        let (a, b) = (self.tips[i], self.tips[j]);
        self.tree.is_ancestor_idx(a, b) || self.tree.is_ancestor_idx(b, a)
    }

    /// Maximal common prefix length (`Blockchain::mcp_len`) of a chain with
    /// the subtree position `other_tip`, by interval-guided binary ascent:
    /// the predicate "this block is an ancestor of `other_tip`" is monotone
    /// along the chain, so `partition_point` finds the divergence point in
    /// O(log n) containment checks.  The chain must have been interned into
    /// this forest.
    pub fn mcp_len(&self, chain: &Blockchain, other_tip: NodeIdx) -> u64 {
        let blocks = chain.blocks();
        let shared = blocks.partition_point(|block| {
            let idx = self.tree.idx_of(block.id).expect("chain was interned");
            self.tree.is_ancestor_idx(idx, other_tip)
        });
        debug_assert!(shared > 0, "interned chains share at least the root");
        (shared - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::workload::Workload;
    use btadt_types::{Block, BlockTree};

    /// Every maximal chain of a random tree, interned and compared against
    /// the positional chain operations.
    #[test]
    fn forest_agrees_with_positional_chain_operations() {
        for seed in [2u64, 19, 64] {
            let tree = Workload::new(seed).random_tree(80, 0.5, 0);
            let chains = tree.all_chains();
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
        }
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
