//! A simulated hash-puzzle proof-of-work backend.
//!
//! The paper abstracts proof-of-work into the oracle's pseudo-random tapes.
//! To show that the abstraction faithfully stands in for an actual hash
//! puzzle (DESIGN.md substitution table), [`SimulatedPow`] implements the
//! same [`TokenOracle`] interface by *solving* a puzzle: a `getToken` call
//! draws a nonce, hashes `(parent, candidate, nonce)` with the same
//! structural FNV hash used for block ids, and grants a token iff the hash
//! falls below a per-merit target.  The success probability per call is
//! `target/2^64 ≈ p_{α_i}`, i.e. the tape's Bernoulli parameter — the two
//! backends are interchangeable, which the `ablation_oracle_backend` bench
//! demonstrates.

use btadt_types::rng::ChaCha8;
use btadt_types::{Block, BlockId};

use crate::merit::MeritTable;
use crate::oracle::{
    ConsumeOutcome, OracleConfig, OracleStats, SlotArena, TokenGrant, TokenOracle,
};

/// Proof-of-work flavoured token oracle: `getToken` succeeds iff a freshly
/// drawn nonce solves a difficulty puzzle calibrated to the requester's
/// merit.
#[derive(Debug)]
pub struct SimulatedPow {
    config: OracleConfig,
    merits: MeritTable,
    k: Option<usize>,
    rng: ChaCha8,
    slots: SlotArena,
    stats: OracleStats,
}

impl SimulatedPow {
    /// Creates a PoW oracle with an optional fork bound (`None` = prodigal
    /// behaviour, `Some(k)` = frugal behaviour).
    pub fn new(k: Option<usize>, merits: MeritTable, config: OracleConfig) -> Self {
        if let Some(k) = k {
            assert!(k >= 1, "the fork bound must be at least 1");
        }
        SimulatedPow {
            rng: ChaCha8::new(config.seed ^ 0x9e37_79b9_7f4a_7c15),
            config,
            merits,
            k,
            slots: SlotArena::default(),
            stats: OracleStats::default(),
        }
    }

    /// The puzzle target for a given merit: a hash below this value solves
    /// the puzzle.
    fn target_for(&self, merit: f64) -> u64 {
        let p = self.config.probability_for(merit);
        if p >= 1.0 {
            u64::MAX
        } else {
            (p * u64::MAX as f64) as u64
        }
    }

    /// One puzzle attempt: hash (parent, candidate id, nonce) and compare to
    /// the target.
    fn attempt(&mut self, parent: BlockId, candidate: &Block, merit: f64) -> Option<u64> {
        let nonce = self.rng.next_u64();
        let digest = Block::compute_id(
            parent,
            candidate.producer,
            nonce,
            candidate.work,
            &candidate.payload,
        );
        if digest.0 <= self.target_for(merit) {
            Some(nonce)
        } else {
            None
        }
    }
}

impl TokenOracle for SimulatedPow {
    fn get_token(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant> {
        self.stats.get_token_calls += 1;
        let merit = self.merits.merit(requester).0;
        if merit <= 0.0 {
            return None;
        }
        self.attempt(parent.id, &candidate, merit).map(|_nonce| {
            self.stats.tokens_granted += 1;
            self.slots.grant(parent.id, candidate)
        })
    }

    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome {
        self.slots.consume_token(grant, self.k, &mut self.stats)
    }

    fn consume_token_head(&mut self, grant: &TokenGrant) -> (bool, Option<Block>) {
        self.slots
            .consume_token_head(grant, self.k, &mut self.stats)
    }

    fn fork_bound(&self) -> Option<usize> {
        self.k
    }

    fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.slots.slot(parent)
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "simulated-pow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn config(scale: f64) -> OracleConfig {
        OracleConfig {
            seed: 17,
            probability_scale: scale,
            min_probability: 1e-6,
        }
    }

    #[test]
    fn pow_success_rate_tracks_merit() {
        let merits = MeritTable::from_weights(&[0.8, 0.2]);
        let mut oracle = SimulatedPow::new(None, merits, config(0.5));
        let genesis = Block::genesis();
        let candidate = BlockBuilder::new(&genesis).nonce(1).build();
        let trials = 4_000;
        let mut wins = [0u32; 2];
        for _ in 0..trials {
            for (p, win) in wins.iter_mut().enumerate() {
                if oracle.get_token(p, &genesis, candidate.clone()).is_some() {
                    *win += 1;
                }
            }
        }
        let f0 = f64::from(wins[0]) / trials as f64;
        let f1 = f64::from(wins[1]) / trials as f64;
        assert!((f0 - 0.4).abs() < 0.04, "p0 frequency {f0} ≉ 0.4");
        assert!((f1 - 0.1).abs() < 0.03, "p1 frequency {f1} ≉ 0.1");
        assert!(f0 > f1, "higher merit wins the puzzle more often");
    }

    #[test]
    fn zero_merit_never_solves_the_puzzle() {
        let merits = MeritTable::consortium(2, &[0]);
        let mut oracle = SimulatedPow::new(Some(1), merits, config(1.0));
        let genesis = Block::genesis();
        let candidate = BlockBuilder::new(&genesis).nonce(1).build();
        for _ in 0..200 {
            assert!(oracle.get_token(1, &genesis, candidate.clone()).is_none());
        }
    }

    #[test]
    fn pow_respects_fork_bound_like_frugal() {
        let merits = MeritTable::uniform(1);
        let mut oracle = SimulatedPow::new(
            Some(1),
            merits,
            OracleConfig {
                seed: 1,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        );
        let genesis = Block::genesis();
        let b1 = BlockBuilder::new(&genesis).nonce(1).build();
        let b2 = BlockBuilder::new(&genesis).nonce(2).build();
        let g1 = oracle.get_token_until_granted(0, &genesis, b1).0;
        let g2 = oracle.get_token_until_granted(0, &genesis, b2).0;
        assert!(oracle.consume_token(&g1).accepted);
        assert!(!oracle.consume_token(&g2).accepted);
        assert_eq!(oracle.slot(genesis.id).len(), 1);
        assert_eq!(oracle.name(), "simulated-pow");
    }

    #[test]
    fn pow_is_deterministic_given_seed() {
        let run = |seed: u64| {
            let merits = MeritTable::uniform(1);
            let pow_config = OracleConfig {
                seed,
                probability_scale: 0.4,
                min_probability: 1e-6,
            };
            let mut oracle = SimulatedPow::new(None, merits, pow_config);
            let genesis = Block::genesis();
            let candidate = BlockBuilder::new(&genesis).nonce(1).build();
            (0..100)
                .map(|_| oracle.get_token(0, &genesis, candidate.clone()).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
