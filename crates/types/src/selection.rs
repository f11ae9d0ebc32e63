//! Selection functions `f ∈ F : BT → BC`.
//!
//! A selection function maps a BlockTree to one of its blockchains; the
//! `read()` operation of the BT-ADT returns `{b0}⌢f(bt)`.  A blockchain of
//! a tree is fully determined by its last block, so here **`f` chooses a
//! tip and the chain is the path to it**: implementations provide
//! [`select_tip`](SelectionFunction::select_tip), and
//! [`select`](SelectionFunction::select) materialises the path.  Code that
//! only needs the block to build on, or a height to compare, asks for the
//! tip and never pays for the chain.  The paper leaves `f` generic to cover
//! the different blockchain implementations; we provide the three used by
//! the systems classified in Section 5:
//!
//! * [`LongestChain`] — the chain of maximal length (Bitcoin's original rule
//!   and the one used in the paper's worked examples);
//! * [`HeaviestChain`] — the chain of maximal cumulative work ("the most
//!   computational work", Bitcoin/Ethereum per Section 5);
//! * [`GhostSelection`] — greedy heaviest-observed-subtree walk (Ethereum's
//!   GHOST rule, Section 5.2).
//!
//! Ties are broken deterministically via [`TieBreak`]; the paper's examples
//! use the lexicographically largest chain, which corresponds to
//! [`TieBreak::LargestId`].

use crate::block::BlockId;
use crate::chain::Blockchain;
use crate::tree::{BlockTree, NodeIdx};

/// Deterministic tie-breaking rule applied when several chains have the same
/// score under a selection function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Prefer the chain whose tip has the numerically smallest id.
    SmallestId,
    /// Prefer the chain whose tip has the numerically largest id (the
    /// "largest based on the lexicographical order" rule of Figure 2).
    #[default]
    LargestId,
}

impl TieBreak {
    /// Returns `true` iff `candidate` beats `incumbent` under this rule.
    pub fn prefers(self, candidate: BlockId, incumbent: BlockId) -> bool {
        match self {
            TieBreak::SmallestId => candidate < incumbent,
            TieBreak::LargestId => candidate > incumbent,
        }
    }

    /// Returns `true` iff this rule prefers the numerically largest id.
    pub fn prefers_largest(self) -> bool {
        matches!(self, TieBreak::LargestId)
    }
}

/// A selection function `f : BT → BC`: `f` = choose a tip; the chain is the
/// path from the root to it.
///
/// Implementations must be deterministic: for equal trees they must choose
/// the same tip.  For the tree containing only `b0` the tip is the genesis
/// block, so `select` returns the genesis-only chain (the paper's
/// `f(b0) = b0` convention).
pub trait SelectionFunction: Send + Sync {
    /// The last block of `f(bt)`, as an arena slot of `tree` — all a caller
    /// needs to chain a new block or to compare heights, at the cost of the
    /// choice alone (O(1) for the incrementally maintained rules).
    fn select_tip(&self, tree: &BlockTree) -> NodeIdx;

    /// `f(bt)` as a chain value: the path from the root to
    /// [`select_tip`](SelectionFunction::select_tip), O(height).
    fn select(&self, tree: &BlockTree) -> Blockchain {
        tree.chain_to_idx(self.select_tip(tree))
    }

    /// A short human-readable name used by reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// Selects the longest chain, breaking ties with a [`TieBreak`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LongestChain {
    /// Tie-breaking rule among equally long chains.
    pub tie_break: TieBreak,
}

impl LongestChain {
    /// Longest chain with the paper's default (lexicographically largest)
    /// tie-break.
    pub fn new() -> Self {
        LongestChain::default()
    }

    /// Longest chain with an explicit tie-break.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        LongestChain { tie_break }
    }
}

impl SelectionFunction for LongestChain {
    fn select_tip(&self, tree: &BlockTree) -> NodeIdx {
        // The tree maintains the longest-chain tip incumbents on insert.
        let tip = tree.best_leaf_by_height(self.tie_break.prefers_largest());
        tree.idx_of(tip).expect("the best leaf is in the tree")
    }

    fn name(&self) -> &'static str {
        "longest-chain"
    }
}

/// Selects the chain with the greatest cumulative work, breaking ties with a
/// [`TieBreak`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeaviestChain {
    /// Tie-breaking rule among equally heavy chains.
    pub tie_break: TieBreak,
}

impl HeaviestChain {
    /// Heaviest chain with the default tie-break.
    pub fn new() -> Self {
        HeaviestChain::default()
    }

    /// Heaviest chain with an explicit tie-break.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        HeaviestChain { tie_break }
    }
}

impl SelectionFunction for HeaviestChain {
    fn select_tip(&self, tree: &BlockTree) -> NodeIdx {
        // Cumulative work is cached per node and the heaviest-tip
        // incumbents are maintained on insert.
        let tip = tree.best_leaf_by_work(self.tie_break.prefers_largest());
        tree.idx_of(tip).expect("the best leaf is in the tree")
    }

    fn name(&self) -> &'static str {
        "heaviest-chain"
    }
}

/// GHOST selection: starting from the genesis block, repeatedly descend into
/// the child whose *subtree* carries the greatest total work, until a leaf
/// is reached.
///
/// Unlike [`HeaviestChain`], GHOST takes blocks off the selected chain into
/// account: a fork whose siblings carry a lot of work still attracts the
/// selection.  This is the rule used by Ethereum (Section 5.2 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostSelection {
    /// Tie-breaking rule among equally heavy subtrees.
    pub tie_break: TieBreak,
}

impl GhostSelection {
    /// GHOST with the default tie-break.
    pub fn new() -> Self {
        GhostSelection::default()
    }

    /// GHOST with an explicit tie-break.
    pub fn with_tie_break(tie_break: TieBreak) -> Self {
        GhostSelection { tie_break }
    }
}

impl SelectionFunction for GhostSelection {
    fn select_tip(&self, tree: &BlockTree) -> NodeIdx {
        // One O(n) reverse pass computes every subtree weight (the arena
        // guarantees parents precede children), making the whole greedy
        // descent linear — the per-child re-traversals of the naive
        // implementation made it quadratic on deep trees.
        let weights = tree.subtree_work_table();
        let mut cursor = NodeIdx::GENESIS;
        loop {
            // Ties fall to the id tie-break, so the order the children are
            // walked in cannot change the choice.
            let mut best: Option<(u64, BlockId, NodeIdx)> = None;
            for child in tree.children_idx(cursor) {
                let weight = weights[child.0 as usize];
                let child_id = tree.block_at(child).id;
                let replace = match best {
                    None => true,
                    Some((best_w, best_id, _)) => {
                        weight > best_w
                            || (weight == best_w && self.tie_break.prefers(child_id, best_id))
                    }
                };
                if replace {
                    best = Some((weight, child_id, child));
                }
            }
            match best {
                Some((_, _, child)) => cursor = child,
                None => return cursor,
            }
        }
    }

    fn name(&self) -> &'static str {
        "ghost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockBuilder};
    use crate::tree::BlockTree;

    /// genesis -> a -> b -> c  (long, light branch, work 1 each)
    /// genesis -> x            (short, heavy branch, work 10)
    fn mixed_tree() -> (BlockTree, Block, Block, Block, Block) {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).work(1).build();
        tree.insert(a.clone()).unwrap();
        let b = BlockBuilder::new(&a).nonce(2).work(1).build();
        tree.insert(b.clone()).unwrap();
        let c = BlockBuilder::new(&b).nonce(3).work(1).build();
        tree.insert(c.clone()).unwrap();
        let x = BlockBuilder::new(tree.genesis()).nonce(4).work(10).build();
        tree.insert(x.clone()).unwrap();
        (tree, a, b, c, x)
    }

    #[test]
    fn empty_tree_selects_genesis_only_chain() {
        let tree = BlockTree::new();
        for f in [
            &LongestChain::new() as &dyn SelectionFunction,
            &HeaviestChain::new(),
            &GhostSelection::new(),
        ] {
            let chain = f.select(&tree);
            assert!(chain.is_empty(), "{} on empty tree", f.name());
            assert!(chain.tip().is_genesis());
        }
    }

    #[test]
    fn longest_chain_prefers_length_over_weight() {
        let (tree, _a, _b, c, _x) = mixed_tree();
        let chain = LongestChain::new().select(&tree);
        assert_eq!(chain.tip().id, c.id);
        assert_eq!(chain.height(), 3);
    }

    #[test]
    fn heaviest_chain_prefers_weight_over_length() {
        let (tree, _a, _b, _c, x) = mixed_tree();
        let chain = HeaviestChain::new().select(&tree);
        assert_eq!(chain.tip().id, x.id);
        assert_eq!(chain.total_work(), 11);
    }

    #[test]
    fn ghost_follows_heaviest_subtree() {
        // genesis -> h (work 1) with two children each of work 3 (subtree 7)
        // genesis -> l (work 5) leaf                      (subtree 5)
        // GHOST picks h's branch even though l is the heaviest single chain
        // prefix at depth 1? cumulative: genesis->l = 6, genesis->h->child = 5.
        let mut tree = BlockTree::new();
        let h = BlockBuilder::new(tree.genesis()).nonce(1).work(1).build();
        tree.insert(h.clone()).unwrap();
        let h1 = BlockBuilder::new(&h).nonce(2).work(3).build();
        tree.insert(h1.clone()).unwrap();
        let h2 = BlockBuilder::new(&h).nonce(3).work(3).build();
        tree.insert(h2.clone()).unwrap();
        let l = BlockBuilder::new(tree.genesis()).nonce(4).work(5).build();
        tree.insert(l.clone()).unwrap();

        let ghost = GhostSelection::new().select(&tree);
        assert_eq!(ghost[1].id, h.id, "GHOST descends into the heavier subtree");
        assert!(ghost.tip().id == h1.id || ghost.tip().id == h2.id);

        let heaviest = HeaviestChain::new().select(&tree);
        assert_eq!(
            heaviest.tip().id,
            l.id,
            "heaviest single chain differs from GHOST here"
        );
    }

    #[test]
    fn tie_break_is_deterministic_and_respected() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        let b = BlockBuilder::new(tree.genesis()).nonce(2).build();
        tree.insert(a.clone()).unwrap();
        tree.insert(b.clone()).unwrap();
        let hi = a.id.max(b.id);
        let lo = a.id.min(b.id);

        let largest = LongestChain::with_tie_break(TieBreak::LargestId).select(&tree);
        assert_eq!(largest.tip().id, hi);
        let smallest = LongestChain::with_tie_break(TieBreak::SmallestId).select(&tree);
        assert_eq!(smallest.tip().id, lo);

        // Selection is a pure function of the tree.
        assert_eq!(
            LongestChain::new().select(&tree),
            LongestChain::new().select(&tree)
        );
    }

    #[test]
    fn selection_always_returns_chain_rooted_at_genesis() {
        let (tree, ..) = mixed_tree();
        for f in [
            &LongestChain::new() as &dyn SelectionFunction,
            &HeaviestChain::new(),
            &GhostSelection::new(),
        ] {
            let chain = f.select(&tree);
            assert!(chain[0].is_genesis(), "{}", f.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            LongestChain::new().name(),
            HeaviestChain::new().name(),
            GhostSelection::new().name(),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
