//! A naive map-based BlockTree: the executable specification.
//!
//! [`NaiveBlockTree`] is the straightforward `HashMap`-based implementation
//! the arena tree replaced: every query recomputes its answer by full
//! traversals (leaves by scanning all blocks, heights by maximising over
//! the block set, chains by hash-chasing parent pointers).  It exists for
//! two purposes:
//!
//! 1. **Specification** — the property tests assert that the arena
//!    [`BlockTree`](crate::tree::BlockTree) is observationally equivalent
//!    to this implementation under arbitrary insert/merge sequences;
//! 2. **Baseline** — `benchmark/` times inserts into this implementation
//!    (`types.naive_insert_ns_per_block`) and reports the arena's speedup
//!    over it (`types.insert_vs_naive`).
//!
//! Keep it boring: clarity over speed, no caching beyond cumulative work
//! (which the original also cached).

use std::collections::HashMap;

use crate::block::{Block, BlockId, GENESIS_ID};
use crate::chain::Blockchain;
use crate::selection::TieBreak;
use crate::tree::InsertError;

/// The naive BlockTree: blocks and children adjacency in hash maps, every
/// aggregate recomputed on demand.
#[derive(Clone, Debug, Default)]
pub struct NaiveBlockTree {
    blocks: HashMap<BlockId, Block>,
    children: HashMap<BlockId, Vec<BlockId>>,
    cumulative_work: HashMap<BlockId, u64>,
}

impl NaiveBlockTree {
    /// Creates a tree containing only the genesis block.
    pub fn new() -> Self {
        let genesis = Block::genesis();
        let mut blocks = HashMap::new();
        let mut cumulative_work = HashMap::new();
        cumulative_work.insert(genesis.id, genesis.work);
        blocks.insert(genesis.id, genesis);
        NaiveBlockTree {
            blocks,
            children: HashMap::new(),
            cumulative_work,
        }
    }

    /// Number of blocks in the tree (including the genesis block).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` iff the tree contains only the genesis block.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Returns `true` iff the tree contains a block with the given id.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks.contains_key(&id)
    }

    /// Looks up a block by id.
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(&id)
    }

    /// The genesis block.
    pub fn genesis(&self) -> &Block {
        self.blocks
            .get(&GENESIS_ID)
            .expect("genesis always present")
    }

    /// Inserts a block under its parent, with the same error cases as the
    /// arena tree.
    pub fn insert(&mut self, block: Block) -> Result<(), InsertError> {
        if self.blocks.contains_key(&block.id) {
            return Err(InsertError::Duplicate(block.id));
        }
        let parent = block.parent.ok_or(InsertError::MissingParent(block.id))?;
        let parent_block = self
            .blocks
            .get(&parent)
            .ok_or(InsertError::UnknownParent(parent))?;
        let expected = parent_block.height + 1;
        if block.height != expected {
            return Err(InsertError::HeightMismatch {
                block: block.id,
                recorded: block.height,
                expected,
            });
        }
        let work = self.cumulative_work[&parent]
            .checked_add(block.work)
            .ok_or(InsertError::WorkOverflow { block: block.id })?;
        self.cumulative_work.insert(block.id, work);
        self.children.entry(parent).or_default().push(block.id);
        self.blocks.insert(block.id, block);
        Ok(())
    }

    /// Children of a block (empty for leaves and unknown blocks).
    pub fn children(&self, id: BlockId) -> Vec<BlockId> {
        self.children.get(&id).cloned().unwrap_or_default()
    }

    /// Number of children of a block.
    pub fn fork_degree(&self, id: BlockId) -> usize {
        self.children.get(&id).map(Vec::len).unwrap_or(0)
    }

    /// The maximum fork degree, by scanning every block.
    pub fn max_fork_degree(&self) -> usize {
        self.blocks
            .keys()
            .map(|id| self.fork_degree(*id))
            .max()
            .unwrap_or(0)
    }

    /// All leaves, by scanning every block, sorted by id.
    pub fn leaves(&self) -> Vec<BlockId> {
        let mut leaves: Vec<BlockId> = self
            .blocks
            .keys()
            .copied()
            .filter(|id| self.fork_degree(*id) == 0)
            .collect();
        leaves.sort_unstable();
        leaves
    }

    /// Height of the tree, by maximising over every block.
    pub fn height(&self) -> u64 {
        self.blocks.values().map(|b| b.height).max().unwrap_or(0)
    }

    /// Cumulative work of the path from the genesis block to `id`.
    pub fn cumulative_work(&self, id: BlockId) -> Option<u64> {
        self.cumulative_work.get(&id).copied()
    }

    /// Total work of the subtree rooted at `id`, by hash-chasing traversal
    /// (saturating, like the arena tree's).
    pub fn subtree_work(&self, id: BlockId) -> u64 {
        let mut total = match self.blocks.get(&id) {
            Some(b) => b.work,
            None => return 0,
        };
        let mut stack: Vec<BlockId> = self.children(id);
        while let Some(next) = stack.pop() {
            if let Some(b) = self.blocks.get(&next) {
                total = total.saturating_add(b.work);
            }
            stack.extend(self.children(next));
        }
        total
    }

    /// Number of blocks in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: BlockId) -> usize {
        if !self.blocks.contains_key(&id) {
            return 0;
        }
        let mut total = 1;
        let mut stack: Vec<BlockId> = self.children(id);
        while let Some(next) = stack.pop() {
            total += 1;
            stack.extend(self.children(next));
        }
        total
    }

    /// The blockchain ending at `id`, by hash-chasing parent pointers.
    pub fn chain_to(&self, id: BlockId) -> Option<Blockchain> {
        let mut rev = Vec::new();
        let mut cursor = self.blocks.get(&id)?;
        loop {
            rev.push(cursor.clone());
            match cursor.parent {
                None => break,
                Some(p) => cursor = self.blocks.get(&p)?,
            }
        }
        rev.reverse();
        Blockchain::from_blocks(rev)
    }

    /// All maximal chains of the tree (one per leaf), sorted by leaf id.
    pub fn all_chains(&self) -> Vec<Blockchain> {
        // LINT-ALLOW: the spec enumerates by scanning, on purpose
        self.leaves()
            .into_iter()
            .filter_map(|leaf| self.chain_to(leaf))
            .collect()
    }

    /// All block ids, sorted.
    pub fn sorted_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.blocks.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Every block strictly above `height`, sorted by `(height, id)`:
    /// collect, filter, sort.  The executable specification of
    /// [`BlockTree::delta_above`](crate::tree::BlockTree::delta_above).
    /// The genesis block (height 0) is never strictly above a floor.
    pub fn delta_above(&self, height: u64) -> Vec<Block> {
        let mut delta: Vec<Block> = self
            .blocks
            .values()
            .filter(|b| b.height > height)
            .cloned()
            .collect();
        delta.sort_unstable_by_key(|b| (b.height, b.id));
        delta
    }

    /// Merges another naive tree into this one in height order.
    pub fn merge(&mut self, other: &NaiveBlockTree) -> usize {
        let mut incoming: Vec<&Block> = other
            .blocks
            .values()
            .filter(|b| !b.is_genesis() && !self.contains(b.id))
            .collect();
        incoming.sort_by_key(|b| (b.height, b.id));
        let mut inserted = 0;
        for block in incoming {
            if self.insert(block.clone()).is_ok() {
                inserted += 1;
            }
        }
        inserted
    }

    /// Longest-chain selection: scan all leaves, maximise height under the
    /// tie-break, and extract the chain.
    pub fn select_longest(&self, tie_break: TieBreak) -> Blockchain {
        let mut best: Option<(u64, BlockId)> = None;
        // LINT-ALLOW: the spec selects by scanning, on purpose
        for leaf in self.leaves() {
            let height = self.get(leaf).map(|b| b.height).unwrap_or(0);
            best = Some(match best {
                None => (height, leaf),
                Some((bh, bid)) => {
                    if height > bh || (height == bh && tie_break.prefers(leaf, bid)) {
                        (height, leaf)
                    } else {
                        (bh, bid)
                    }
                }
            });
        }
        best.and_then(|(_, leaf)| self.chain_to(leaf))
            .unwrap_or_else(Blockchain::genesis_only)
    }

    /// Heaviest-chain selection: scan all leaves, maximise cumulative work
    /// under the tie-break, and extract the chain.
    pub fn select_heaviest(&self, tie_break: TieBreak) -> Blockchain {
        let mut best: Option<(u64, BlockId)> = None;
        // LINT-ALLOW: the spec selects by scanning, on purpose
        for leaf in self.leaves() {
            let work = self.cumulative_work(leaf).unwrap_or(0);
            best = Some(match best {
                None => (work, leaf),
                Some((bw, bid)) => {
                    if work > bw || (work == bw && tie_break.prefers(leaf, bid)) {
                        (work, leaf)
                    } else {
                        (bw, bid)
                    }
                }
            });
        }
        best.and_then(|(_, leaf)| self.chain_to(leaf))
            .unwrap_or_else(Blockchain::genesis_only)
    }

    /// GHOST selection: greedy heaviest-subtree descent, recomputing every
    /// subtree weight by traversal.
    pub fn select_ghost(&self, tie_break: TieBreak) -> Blockchain {
        let mut cursor = GENESIS_ID;
        loop {
            let children = self.children(cursor);
            if children.is_empty() {
                break;
            }
            let mut best: Option<(u64, BlockId)> = None;
            for child in children {
                let weight = self.subtree_work(child);
                best = Some(match best {
                    None => (weight, child),
                    Some((bw, bid)) => {
                        if weight > bw || (weight == bw && tie_break.prefers(child, bid)) {
                            (weight, child)
                        } else {
                            (bw, bid)
                        }
                    }
                });
            }
            cursor = best.expect("children is non-empty").1;
        }
        self.chain_to(cursor)
            .unwrap_or_else(Blockchain::genesis_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    #[test]
    fn naive_tree_basic_shape() {
        let mut tree = NaiveBlockTree::new();
        assert!(tree.is_empty());
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        tree.insert(a.clone()).unwrap();
        tree.insert(b.clone()).unwrap();
        assert_eq!(tree.insert(a.clone()), Err(InsertError::Duplicate(a.id)));
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.leaves(), vec![b.id]);
        assert_eq!(tree.select_longest(TieBreak::LargestId).tip().id, b.id);
        assert_eq!(tree.select_heaviest(TieBreak::LargestId).tip().id, b.id);
        assert_eq!(tree.select_ghost(TieBreak::LargestId).tip().id, b.id);
    }
}
