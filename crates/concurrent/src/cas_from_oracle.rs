//! Compare&Swap from `consumeToken` of Θ_F,k=1 (Figure 10, Theorem 4.1).
//!
//! With `k = 1`, `consumeToken(b^{tkn_h})` behaves exactly like a CAS whose
//! register is `K[h]`, whose implicit expected value is the empty set and
//! whose new value is `{b^{tkn_h}}`: the first consume wins, every later
//! consume (for the same parent) returns the winner.  [`OracleCas`] wraps a
//! shared frugal-k=1 oracle and exposes the CAS interface of Figure 10 —
//! `compare_and_swap` returns `{}` (i.e. `None`) to the winner and the
//! already-stored block to every loser.

use btadt_oracle::{SharedOracle, TokenGrant};
use btadt_types::{Block, BlockId};

/// The Compare&Swap object of Figure 10, built on a shared Θ_F,k=1 oracle.
///
/// One `OracleCas` instance corresponds to one parent block `b_h` — i.e. to
/// one register `K[h]`.
pub struct OracleCas {
    oracle: SharedOracle,
    parent: BlockId,
}

impl OracleCas {
    /// Creates the CAS over the register `K[parent]` of the given oracle.
    ///
    /// The oracle must be frugal with `k = 1`; this is asserted because a
    /// larger bound would break the CAS semantics (Theorem 4.1's hypothesis).
    pub fn new(oracle: SharedOracle, parent: BlockId) -> Self {
        assert_eq!(
            oracle.fork_bound(),
            Some(1),
            "the CAS reduction requires the frugal oracle with k = 1"
        );
        OracleCas { oracle, parent }
    }

    /// `compare&swap(K[h], {}, b^{tkn_h})` per Figure 10: consume the token;
    /// if the returned set contains exactly our block we won and the old
    /// value was `{}` (returned as `None`); otherwise the previously stored
    /// block is returned.
    pub fn compare_and_swap(&self, grant: &TokenGrant) -> Option<Block> {
        assert_eq!(
            grant.parent, self.parent,
            "the grant must target this CAS's parent block"
        );
        Self::swap_on(&self.oracle, grant)
    }

    /// [`compare_and_swap`](OracleCas::compare_and_swap) on the register
    /// `K[grant.parent]` of a borrowed Θ_F,k=1 oracle, for callers that
    /// already hold one (a strong replica's commit): no handle is cloned,
    /// and the consume answers with `K[h]`'s first block only.
    pub fn swap_on(oracle: &SharedOracle, grant: &TokenGrant) -> Option<Block> {
        let (accepted, head) = oracle.consume_token_head(grant);
        let returned = head.expect("after a consume the slot holds at least one block");
        if accepted && returned.id == grant.block.id {
            None // the register was empty: we won
        } else {
            Some(returned)
        }
    }

    /// Reads the current content of the register `K[h]` (empty before any
    /// successful consume).
    pub fn load(&self) -> Option<Block> {
        self.oracle.slot(self.parent).first().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_oracle::{
        FrugalOracle, MeritTable, OracleConfig, SharedOracle, WeakenedFrugalOracle,
    };
    use btadt_types::{Block, BlockBuilder};
    use std::collections::HashSet;
    use std::thread;

    fn shared_oracle(n: usize, k: usize) -> SharedOracle {
        SharedOracle::new(FrugalOracle::new(
            k,
            MeritTable::uniform(n),
            OracleConfig {
                seed: 1,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        ))
    }

    #[test]
    fn first_cas_wins_and_later_cas_returns_the_winner() {
        let oracle = shared_oracle(2, 1);
        let genesis = Block::genesis();
        let cas = OracleCas::new(oracle.clone(), genesis.id);
        assert!(cas.load().is_none());

        let b1 = BlockBuilder::new(&genesis).nonce(1).build();
        let b2 = BlockBuilder::new(&genesis).nonce(2).build();
        let g1 = oracle.get_token_until_granted(0, &genesis, b1.clone()).0;
        let g2 = oracle.get_token_until_granted(1, &genesis, b2).0;

        assert_eq!(cas.compare_and_swap(&g1), None, "first CAS sees {{}}");
        assert_eq!(
            cas.compare_and_swap(&g2),
            Some(b1.clone()),
            "loser sees the winner"
        );
        assert_eq!(cas.load(), Some(b1));
    }

    #[test]
    fn concurrent_cas_has_exactly_one_winner_and_all_losers_agree() {
        let threads = 8;
        let oracle = shared_oracle(threads, 1);
        let genesis = Block::genesis();

        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let oracle = oracle.clone();
                let genesis = genesis.clone();
                thread::spawn(move || {
                    let cas = OracleCas::new(oracle.clone(), genesis.id);
                    let mine = BlockBuilder::new(&genesis)
                        .producer(i as u32)
                        .nonce(i as u64)
                        .build();
                    let grant = oracle.get_token_until_granted(i, &genesis, mine.clone()).0;
                    match cas.compare_and_swap(&grant) {
                        None => (true, mine.id),
                        Some(winner) => (false, winner.id),
                    }
                })
            })
            .collect();

        let results: Vec<(bool, btadt_types::BlockId)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let winners: Vec<_> = results.iter().filter(|(won, _)| *won).collect();
        assert_eq!(winners.len(), 1, "exactly one CAS wins");
        let winning_id = winners[0].1;
        let observed: HashSet<_> = results.iter().map(|(_, id)| *id).collect();
        assert_eq!(
            observed.len(),
            1,
            "every participant observes the same block"
        );
        assert!(observed.contains(&winning_id));
    }

    #[test]
    fn a_weakened_oracles_lie_reaches_the_borrowed_cas() {
        let honest = FrugalOracle::new(
            1,
            MeritTable::uniform(4),
            OracleConfig {
                seed: 1,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        );
        let oracle = SharedOracle::new(WeakenedFrugalOracle::new(honest, 2));
        let genesis = Block::genesis();
        let mut observed = Vec::new();
        for i in 0..4 {
            let mine = BlockBuilder::new(&genesis).nonce(i).build();
            let grant = oracle.get_token_until_granted(i as usize, &genesis, mine).0;
            observed.push(OracleCas::swap_on(&oracle, &grant).is_none());
        }
        // Both lied-to consumers believe they won; the lies leave `K[h]`
        // empty, so the third wins for real and the fourth sees it.
        assert_eq!(observed, [true, true, true, false]);
    }

    #[test]
    #[should_panic(expected = "k = 1")]
    fn reduction_rejects_oracles_with_larger_bounds() {
        let oracle = shared_oracle(2, 3);
        OracleCas::new(oracle, Block::genesis().id);
    }

    #[test]
    #[should_panic(expected = "target this CAS's parent")]
    fn grants_for_other_parents_are_rejected() {
        let oracle = shared_oracle(1, 1);
        let genesis = Block::genesis();
        let other = BlockBuilder::new(&genesis).nonce(42).build();
        let cas = OracleCas::new(oracle.clone(), other.id);
        let b = BlockBuilder::new(&genesis).nonce(1).build();
        let grant = oracle.get_token_until_granted(0, &genesis, b).0;
        cas.compare_and_swap(&grant);
    }
}
