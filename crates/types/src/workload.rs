//! Deterministic workload generators.
//!
//! The benchmarks and property tests need realistic yet reproducible inputs:
//! linear chains, trees with controlled fork degree, transaction streams and
//! merit distributions.  All generators are seeded so that every figure and
//! table in EXPERIMENTS.md can be regenerated bit-for-bit.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::block::{Block, BlockBuilder, BlockId};
use crate::chain::Blockchain;
use crate::transaction::Transaction;
use crate::tree::BlockTree;

/// A seeded workload generator.
#[derive(Clone, Debug)]
pub struct Workload {
    rng: ChaCha8Rng,
    next_tx_id: u64,
    next_nonce: u64,
}

impl Workload {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Workload {
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_tx_id: 1,
            next_nonce: 1,
        }
    }

    /// Produces the next unique transaction with random endpoints.
    pub fn next_transaction(&mut self) -> Transaction {
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        let from = self.rng.gen_range(0..64);
        let to = self.rng.gen_range(0..64);
        let amount = self.rng.gen_range(1..1_000);
        Transaction::transfer(id, from, to, amount)
    }

    /// Produces a batch of unique transactions.
    pub fn transactions(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_transaction()).collect()
    }

    /// Produces a block extending `parent`, produced by `producer`, carrying
    /// `txs` fresh transactions and random work in `1..=max_work`.
    pub fn block_on(&mut self, parent: &Block, producer: u32, txs: usize, max_work: u64) -> Block {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let work = if max_work <= 1 {
            1
        } else {
            self.rng.gen_range(1..=max_work)
        };
        BlockBuilder::new(parent)
            .producer(producer)
            .nonce(nonce)
            .work(work)
            .payload(self.transactions(txs))
            .build()
    }

    /// Generates a linear chain of `n` blocks on top of the genesis block.
    ///
    /// O(n): the blocks go into one vector, wrapped once.
    pub fn linear_chain(&mut self, n: usize, txs_per_block: usize) -> Blockchain {
        let mut blocks = Vec::with_capacity(n + 1);
        blocks.push(Block::genesis());
        for i in 0..n {
            let producer = (i % 8) as u32;
            let block = self.block_on(&blocks[i], producer, txs_per_block, 4);
            blocks.push(block);
        }
        Blockchain::from_blocks_trusted(blocks)
    }

    /// Generates a BlockTree with `n` non-genesis blocks where each new block
    /// attaches to a random existing block, biased towards the deepest leaf
    /// with probability `chain_bias` (in [0, 1]).  Lower bias produces bushier
    /// trees (more forks).
    pub fn random_tree(&mut self, n: usize, chain_bias: f64, txs_per_block: usize) -> BlockTree {
        let mut tree = BlockTree::new();
        // Track ids incrementally: re-enumerating the tree per insertion
        // made generation quadratic, which the 100k-block benches cannot
        // afford.
        let mut ids: Vec<BlockId> = vec![crate::block::GENESIS_ID];
        for i in 0..n {
            let parent_id = if self.rng.gen_bool(chain_bias.clamp(0.0, 1.0)) {
                // Attach to the tip of the current longest chain.
                deepest_leaf(&tree)
            } else {
                // Attach to a uniformly random existing block.
                ids[self.rng.gen_range(0..ids.len())]
            };
            let parent = tree.get(parent_id).expect("parent exists").clone();
            let block = self.block_on(&parent, (i % 8) as u32, txs_per_block, 4);
            ids.push(block.id);
            tree.insert(block).expect("generator produces valid blocks");
        }
        tree
    }

    /// Generates a tree with exactly `forks` branches of length `branch_len`
    /// all rooted at the same fork point placed after a common prefix of
    /// `prefix_len` blocks.  Useful for exercising Strong/Eventual Prefix.
    pub fn forked_tree(&mut self, prefix_len: usize, forks: usize, branch_len: usize) -> BlockTree {
        let mut tree = BlockTree::new();
        let mut tip = tree.genesis().clone();
        for _ in 0..prefix_len {
            let b = self.block_on(&tip, 0, 1, 1);
            tree.insert(b.clone())
                .expect("the parent is already in the tree");
            tip = b;
        }
        for f in 0..forks {
            let mut branch_tip = tip.clone();
            for _ in 0..branch_len {
                let b = self.block_on(&branch_tip, f as u32, 1, 1);
                tree.insert(b.clone())
                    .expect("the parent is already in the tree");
                branch_tip = b;
            }
        }
        tree
    }

    /// Generates a merit distribution for `n` processes: uniform, or skewed
    /// (process 0 holds `skew` of the total merit, remainder split evenly).
    pub fn merit_distribution(n: usize, skew: Option<f64>) -> Vec<f64> {
        assert!(n > 0, "need at least one process");
        match skew {
            None => vec![1.0 / n as f64; n],
            Some(s) => {
                let s = s.clamp(0.0, 1.0);
                if n == 1 {
                    return vec![1.0];
                }
                let rest = (1.0 - s) / (n - 1) as f64;
                let mut v = vec![rest; n];
                v[0] = s;
                v
            }
        }
    }
}

/// The deepest leaf of a tree (smallest id on ties, for determinism).
pub fn deepest_leaf(tree: &BlockTree) -> BlockId {
    tree.best_leaf_by_height(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_given_seed() {
        let mut a = Workload::new(42);
        let mut b = Workload::new(42);
        assert_eq!(a.linear_chain(10, 2), b.linear_chain(10, 2));
        let ta = a.random_tree(30, 0.7, 1);
        let tb = b.random_tree(30, 0.7, 1);
        assert_eq!(ta.sorted_ids(), tb.sorted_ids());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Workload::new(1);
        let mut b = Workload::new(2);
        assert_ne!(a.linear_chain(10, 1), b.linear_chain(10, 1));
    }

    #[test]
    fn linear_chain_has_requested_length_and_unique_txs() {
        let mut w = Workload::new(7);
        let chain = w.linear_chain(25, 3);
        assert_eq!(chain.len(), 26);
        assert_eq!(chain.total_transactions(), 75);
        let mut ids = std::collections::HashSet::new();
        for b in chain.blocks() {
            for tx in &b.payload {
                assert!(ids.insert(tx.id), "transaction ids are unique");
            }
        }
    }

    /// FNV-1a over every field the generator draws: block ids (which hash
    /// parent, producer, nonce, work and tx ids), heights and transactions.
    fn chain_digest(chain: &Blockchain) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        chain.blocks().iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            let h = mix(mix(h, b.id.0), b.height);
            b.payload.iter().fold(h, |h, tx| {
                let h = mix(mix(h, tx.id.0), tx.amount);
                mix(h, u64::from(tx.from) << 32 | u64::from(tx.to))
            })
        })
    }

    #[test]
    fn linear_chain_output_is_pinned() {
        // Digests taken from the generator that extended a chain value one
        // block at a time: building one vector must not change a single id.
        let pinned = [
            (1u64, 200usize, 0usize, 0xa4fb_e126_277e_b4fdu64),
            (9, 64, 3, 0x82eb_5d23_301a_4b91),
            (1234, 500, 1, 0x2040_3d32_bac5_ee57),
        ];
        for (seed, n, txs, digest) in pinned {
            let chain = Workload::new(seed).linear_chain(n, txs);
            assert_eq!(chain.len(), n + 1);
            assert_eq!(chain_digest(&chain), digest, "seed {seed}");
        }
    }

    #[test]
    fn linear_chain_builds_fifty_thousand_blocks() {
        // Quadratic generation (a copy of the chain per block) took seconds
        // at 20 000 blocks; this must stay linear.
        let chain = Workload::new(5).linear_chain(50_000, 0);
        assert_eq!(chain.len(), 50_001);
        assert_eq!(chain.height(), 50_000);
        assert!(Blockchain::from_blocks(chain.blocks().to_vec()).is_some());
    }

    #[test]
    fn random_tree_has_requested_size() {
        let mut w = Workload::new(11);
        let tree = w.random_tree(50, 0.5, 1);
        assert_eq!(tree.len(), 51);
        assert!(tree.height() >= 1);
    }

    #[test]
    fn chain_bias_one_yields_a_single_chain() {
        let mut w = Workload::new(3);
        let tree = w.random_tree(40, 1.0, 0);
        assert_eq!(tree.max_fork_degree(), 1);
        assert_eq!(tree.height(), 40);
        assert_eq!(tree.leaves().len(), 1);
    }

    #[test]
    fn low_chain_bias_yields_forks() {
        let mut w = Workload::new(3);
        let tree = w.random_tree(60, 0.0, 0);
        assert!(tree.max_fork_degree() > 1, "expected forks in a bushy tree");
    }

    #[test]
    fn forked_tree_shape() {
        let mut w = Workload::new(5);
        let tree = w.forked_tree(3, 4, 2);
        // 3 prefix + 4 branches of 2 blocks
        assert_eq!(tree.len(), 1 + 3 + 8);
        assert_eq!(tree.leaves().len(), 4);
        assert_eq!(tree.height(), 5);
        // The fork point has degree 4.
        assert_eq!(tree.max_fork_degree(), 4);
    }

    #[test]
    fn forked_tree_with_no_prefix_forks_at_genesis() {
        let mut w = Workload::new(5);
        let tree = w.forked_tree(0, 3, 1);
        assert_eq!(tree.fork_degree(crate::block::GENESIS_ID), 3);
    }

    #[test]
    fn merit_distribution_sums_to_one() {
        for n in [1usize, 2, 5, 10] {
            let uniform = Workload::merit_distribution(n, None);
            assert!((uniform.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let skewed = Workload::merit_distribution(n, Some(0.6));
            assert!((skewed.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(uniform.len(), n);
            assert_eq!(skewed.len(), n);
        }
        let skewed = Workload::merit_distribution(4, Some(0.7));
        assert!(skewed[0] > skewed[1]);
    }

    #[test]
    fn deepest_leaf_of_empty_tree_is_genesis() {
        let tree = BlockTree::new();
        assert_eq!(deepest_leaf(&tree), crate::block::GENESIS_ID);
    }
}
