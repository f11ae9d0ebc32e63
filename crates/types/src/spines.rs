//! Recorded `read()` responses as prefix views of a few shared spines.
//!
//! The paper judges a history by its reads' responses `{b0}⌢f(bt)`, and a
//! recorder that copies the root-to-tip path on every read pays the
//! chain's height per read although consecutive reads of one process
//! mostly differ by a few blocks at the tip.  [`ReadSpines`] keeps each
//! *run* of reads as prefix views of one [`Blockchain`] — the run's spine —
//! and records a read as a `(run, len)` pair.

use crate::chain::Blockchain;
use crate::tree::{BlockTree, NodeIdx};

/// One reader's recorded chains, as runs over shared spines.
///
/// A run's spine is one chain the recorder owns alone, and each read of
/// the run is a length — the read's chain is the spine's prefix of that
/// length.  A read that extends the spine pushes the new blocks onto it,
/// a read of a prefix records a length only, and only a branch switch
/// copies: it opens a new run from the kept prefix.  So recording costs
/// the blocks that changed, not the chain's height.
///
/// Build the [`view`](ReadSpines::view)s only once recording is over: a
/// view shares the last spine, and the next extension of a shared spine
/// must copy it.
#[derive(Clone, Debug, Default)]
pub struct ReadSpines {
    /// The runs' spines, oldest first; only the last one still grows.
    spines: Vec<Blockchain>,
}

impl ReadSpines {
    /// An empty recorder.
    pub fn new() -> Self {
        ReadSpines::default()
    }

    /// Records a read of `tree`'s chain ending at `tip` — the value
    /// `tree.chain_to_idx(tip)` — and returns its `(run, len)`.
    ///
    /// It walks down from `tip` to the first block equal, in full, to the
    /// spine's block at that height, paying for the blocks that differ; a
    /// tree whose root is not the spine's first block (a rerooted window)
    /// shares nothing and opens a new run.
    pub fn record(&mut self, tree: &BlockTree, tip: NodeIdx) -> (usize, usize) {
        let spine = self.spines.last().filter(|s| &s[0] == tree.genesis());
        let mut path = Vec::new();
        let mut cursor = Some(tip);
        let keep = loop {
            let Some(idx) = cursor else { break 0 };
            let block = tree.block_at(idx);
            if let Some(spine) = spine {
                let i = (block.height - spine[0].height) as usize;
                if spine.blocks().get(i) == Some(block) {
                    break i + 1;
                }
            }
            path.push(idx);
            cursor = tree.parent_idx(idx);
        };
        let len = keep + path.len();
        let blocks = path.iter().rev().map(|&idx| tree.block_at(idx).clone());
        match self.spines.pop() {
            // The tip is on the spine: a length is the whole record.
            Some(spine) if path.is_empty() => self.spines.push(spine),
            // The read extends the spine: push the new blocks in place.
            Some(spine) if keep == spine.len() => {
                self.spines.push(Blockchain::spliced(spine, keep, blocks).0);
            }
            // A branch switch: a new run copies the kept prefix.
            Some(spine) if keep > 0 => {
                let fresh = Blockchain::spliced(spine.clone(), keep, blocks).0;
                self.spines.extend([spine, fresh]);
            }
            old => {
                self.spines.extend(old);
                self.spines
                    .push(Blockchain::from_blocks_trusted(blocks.collect()));
            }
        }
        (self.spines.len() - 1, len)
    }

    /// The chain a read recorded as `(run, len)`: an O(1) prefix view of
    /// the run's spine.
    pub fn view(&self, run: usize, len: usize) -> Blockchain {
        self.spines[run].truncated(len - 1)
    }

    /// Blocks the recorded reads materialised: the summed length of the
    /// runs' spines (each read on its own would cost its whole length).
    pub fn spine_blocks(&self) -> usize {
        self.spines.iter().map(Blockchain::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockBuilder};

    /// A tree with two branches of `n` blocks over the genesis block.
    fn forked(n: u64) -> (BlockTree, Vec<NodeIdx>, Vec<NodeIdx>) {
        let mut tree = BlockTree::new();
        let mut branches = [Vec::new(), Vec::new()];
        for (side, branch) in branches.iter_mut().enumerate() {
            let mut parent = Block::genesis();
            for i in 0..n {
                let b = BlockBuilder::new(&parent)
                    .nonce(100 * side as u64 + i)
                    .build();
                tree.insert(b.clone()).unwrap();
                branch.push(tree.idx_of(b.id).unwrap());
                parent = b;
            }
        }
        let [a, b] = branches;
        (tree, a, b)
    }

    #[test]
    fn extensions_and_prefixes_share_one_spine() {
        let (tree, a, _) = forked(6);
        let mut spines = ReadSpines::new();
        let reads = [a[1], a[3], a[2], a[5], a[5]];
        let recorded: Vec<_> = reads.iter().map(|&t| spines.record(&tree, t)).collect();
        assert!(recorded.iter().all(|&(run, _)| run == 0));
        assert_eq!(spines.spine_blocks(), 7, "the longest read, once");
        for (&tip, &(run, len)) in reads.iter().zip(&recorded) {
            assert_eq!(spines.view(run, len), tree.chain_to_idx(tip));
        }
    }

    #[test]
    fn a_branch_switch_opens_a_run_that_copies_the_kept_prefix() {
        let (tree, a, b) = forked(4);
        let mut spines = ReadSpines::new();
        let first = spines.record(&tree, a[3]);
        let second = spines.record(&tree, b[2]);
        let third = spines.record(&tree, b[3]);
        assert_eq!((first, second, third), ((0, 5), (1, 4), (1, 5)));
        // Only the genesis block is kept across the switch.
        assert_eq!(spines.spine_blocks(), 5 + 5);
        assert_eq!(spines.view(0, 5), tree.chain_to_idx(a[3]));
        assert_eq!(spines.view(1, 4), tree.chain_to_idx(b[2]));
    }

    #[test]
    fn a_tree_with_another_root_starts_a_fresh_run() {
        let (tree, a, _) = forked(4);
        let mut spines = ReadSpines::new();
        spines.record(&tree, a[3]);
        let window = BlockTree::rerooted(tree.block_at(a[1]).clone());
        let root = window.idx_of(tree.block_at(a[1]).id).unwrap();
        let (run, len) = spines.record(&window, root);
        assert_eq!((run, len), (1, 1));
        assert_eq!(spines.view(run, len), window.chain_to_idx(root));
        assert_eq!(spines.spine_blocks(), 5 + 1);
    }
}
