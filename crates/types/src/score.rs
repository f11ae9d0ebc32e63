//! Score functions over blockchains.
//!
//! The consistency criteria are parameterised by a *monotonic increasing
//! deterministic* function `score : BC → N` (Section 3.1.2): appending a
//! block strictly increases the score, and by convention the genesis-only
//! chain has score `s0`.  The paper mentions two natural scores — the height
//! (length) of the chain and its weight (cumulative work).  Both are
//! provided here, plus the `mcps` helper (score of the maximal common
//! prefix) used by Eventual Prefix.

use crate::chain::Blockchain;

/// A monotonic increasing deterministic score over blockchains.
///
/// Implementations must guarantee `score(bc⌢{b}) > score(bc)` for every
/// chain `bc` and block `b` — this is verified by property tests in
/// `crates/types/tests/props.rs`.
pub trait Score: Send + Sync {
    /// Score of the given blockchain.
    fn score(&self, chain: &Blockchain) -> u64;

    /// Score of the genesis-only chain, `s0`.
    fn genesis_score(&self) -> u64 {
        self.score(&Blockchain::genesis_only())
    }

    /// `mcps(bc, bc')`: score of the maximal common prefix of the two chains.
    fn mcps(&self, a: &Blockchain, b: &Blockchain) -> u64 {
        self.score(&a.common_prefix(b))
    }

    /// A short human-readable name used by reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// Score = number of non-genesis blocks in the chain (the chain *length* /
/// height used in the paper's worked examples, Figures 2–4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LengthScore;

impl Score for LengthScore {
    fn score(&self, chain: &Blockchain) -> u64 {
        (chain.len() - 1) as u64
    }

    /// Counted by zipping the two chains, never materialised.
    fn mcps(&self, a: &Blockchain, b: &Blockchain) -> u64 {
        a.mcp_len(b)
    }

    fn name(&self) -> &'static str {
        "length"
    }
}

/// Score = cumulative work of the chain (the "most computational work"
/// measure used by Bitcoin's selection function, Section 5.1).
///
/// The genesis block carries work 1, so the genesis score is 1 and appending
/// any block (work ≥ 1) strictly increases the score.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkScore;

impl Score for WorkScore {
    fn score(&self, chain: &Blockchain) -> u64 {
        chain.total_work()
    }

    /// The saturating work sum of `a`'s blocks over the shared prefix —
    /// what `total_work` of the common prefix is, without copying it.
    fn mcps(&self, a: &Blockchain, b: &Blockchain) -> u64 {
        a.blocks()
            .iter()
            .zip(b.blocks())
            .take_while(|(x, y)| x.id == y.id)
            .fold(0u64, |sum, (x, _)| sum.saturating_add(x.work))
    }

    fn name(&self) -> &'static str {
        "work"
    }
}

/// A score captured together with the chain it was computed from; the pair
/// `(score, chain)` is what a `read()` response event carries into the
/// consistency checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainScore {
    /// The score value.
    pub value: u64,
    /// Length of the chain the score was computed from (for diagnostics).
    pub chain_len: usize,
}

impl ChainScore {
    /// Computes the score of a chain under the given score function.
    pub fn of(score: &dyn Score, chain: &Blockchain) -> Self {
        ChainScore {
            value: score.score(chain),
            chain_len: chain.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::workload::Workload;

    fn chain_of(n: usize, work: u64) -> Blockchain {
        let mut chain = Blockchain::genesis_only();
        for i in 0..n {
            let b = BlockBuilder::new(chain.tip())
                .nonce(i as u64)
                .work(work)
                .build();
            chain = chain.extended_with(b).unwrap();
        }
        chain
    }

    #[test]
    fn length_score_counts_non_genesis_blocks() {
        let s = LengthScore;
        assert_eq!(s.genesis_score(), 0);
        assert_eq!(s.score(&chain_of(4, 1)), 4);
        assert_eq!(s.name(), "length");
    }

    #[test]
    fn work_score_sums_work() {
        let s = WorkScore;
        assert_eq!(s.genesis_score(), 1);
        assert_eq!(s.score(&chain_of(3, 5)), 1 + 15);
        assert_eq!(s.name(), "work");
    }

    #[test]
    fn scores_are_strictly_monotonic_on_append() {
        let scores: Vec<Box<dyn Score>> = vec![Box::new(LengthScore), Box::new(WorkScore)];
        for s in &scores {
            let mut chain = Blockchain::genesis_only();
            let mut prev = s.score(&chain);
            for i in 0..10 {
                let b = BlockBuilder::new(chain.tip())
                    .nonce(i)
                    .work(1 + i % 3)
                    .build();
                chain = chain.extended_with(b).unwrap();
                let cur = s.score(&chain);
                assert!(cur > prev, "{} must be strictly monotonic", s.name());
                prev = cur;
            }
        }
    }

    #[test]
    fn mcps_is_score_of_common_prefix() {
        let base = chain_of(2, 1);
        let a = base
            .extended_with(BlockBuilder::new(base.tip()).nonce(50).build())
            .unwrap();
        let b = base
            .extended_with(BlockBuilder::new(base.tip()).nonce(51).build())
            .unwrap();
        let s = LengthScore;
        assert_eq!(s.mcps(&a, &b), 2);
        assert_eq!(s.mcps(&a, &a), 3);
    }

    #[test]
    fn mcps_overrides_equal_the_score_of_the_common_prefix() {
        // Random trees (work drawn from 1..=4) give every relation a pair
        // of chains can have: equal, nested, forked at any depth.
        for (seed, bias) in [(3u64, 0.0), (17, 0.5), (40, 0.9)] {
            let chains = Workload::new(seed).random_tree(60, bias, 1).all_chains();
            for a in &chains {
                for b in &chains {
                    let common = a.common_prefix(b);
                    assert_eq!(LengthScore.mcps(a, b), LengthScore.score(&common));
                    assert_eq!(WorkScore.mcps(a, b), WorkScore.score(&common));
                }
            }
        }
    }

    #[test]
    fn chain_score_of_records_value_and_length() {
        let c = chain_of(3, 2);
        let cs = ChainScore::of(&WorkScore, &c);
        assert_eq!(cs.value, 7);
        assert_eq!(cs.chain_len, 4);
    }
}
