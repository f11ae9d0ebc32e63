//! Thread-safe shared oracle.
//!
//! The shared-memory implementability results (Section 4.1) are exercised by
//! real multi-threaded executions in `btadt-concurrent`: several threads
//! race on `getToken` / `consumeToken` of the *same* oracle instance.
//! [`SharedOracle`] wraps any [`TokenOracle`] behind an `Arc<Mutex<…>>` so
//! the whole Θ-ADT operation (tape pop, `K[h]` update) is atomic, exactly as
//! the ADT's transition function requires.

use std::sync::Arc;

use btadt_types::{Block, BlockId};
use parking_lot::Mutex;

use crate::oracle::{ConsumeOutcome, OracleStats, TokenGrant, TokenOracle};

/// A cloneable, thread-safe handle to a token oracle.
#[derive(Clone)]
pub struct SharedOracle {
    inner: Arc<Mutex<Box<dyn TokenOracle + Send>>>,
    /// `k` never changes, so it is read once and checked without the lock.
    fork_bound: Option<usize>,
}

impl SharedOracle {
    /// Wraps an oracle.
    pub fn new(oracle: impl TokenOracle + 'static) -> Self {
        SharedOracle {
            fork_bound: oracle.fork_bound(),
            inner: Arc::new(Mutex::new(Box::new(oracle))),
        }
    }

    /// Atomic `getToken`.
    pub fn get_token(
        &self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant> {
        self.inner.lock().get_token(requester, parent, candidate)
    }

    /// Atomic `consumeToken`.
    pub fn consume_token(&self, grant: &TokenGrant) -> ConsumeOutcome {
        self.inner.lock().consume_token(grant)
    }

    /// Atomic `getToken` loop until a grant is produced.
    pub fn get_token_until_granted(
        &self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> (TokenGrant, u64) {
        // Locking per attempt (rather than for the whole loop) lets other
        // threads interleave their own attempts, which is the realistic
        // contention pattern for the consensus experiments.
        let mut attempts = 0;
        loop {
            attempts += 1;
            if let Some(grant) = self
                .inner
                .lock()
                .get_token(requester, parent, candidate.clone())
            {
                return (grant, attempts);
            }
        }
    }

    /// Current contents of `K[h]`.
    pub fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.inner.lock().slot(parent)
    }

    /// Fork bound of the wrapped oracle, read without taking its lock.
    pub fn fork_bound(&self) -> Option<usize> {
        self.fork_bound
    }

    /// Usage statistics of the wrapped oracle.
    pub fn stats(&self) -> OracleStats {
        self.inner.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merit::MeritTable;
    use crate::oracle::{FrugalOracle, OracleConfig};
    use btadt_types::BlockBuilder;
    use std::thread;

    fn always() -> OracleConfig {
        OracleConfig {
            seed: 1,
            probability_scale: 1e9,
            min_probability: 1.0,
        }
    }

    #[test]
    fn shared_oracle_is_cloneable_and_consistent() {
        let oracle = SharedOracle::new(FrugalOracle::new(1, MeritTable::uniform(4), always()));
        let clone = oracle.clone();
        let genesis = Block::genesis();
        let b = BlockBuilder::new(&genesis).nonce(1).build();
        let grant = oracle.get_token(0, &genesis, b).unwrap();
        assert!(clone.consume_token(&grant).accepted);
        assert_eq!(oracle.slot(genesis.id).len(), 1);
        assert_eq!(clone.fork_bound(), Some(1));
    }

    #[test]
    fn concurrent_threads_respect_the_fork_bound() {
        let k = 1;
        let threads = 8;
        let oracle =
            SharedOracle::new(FrugalOracle::new(k, MeritTable::uniform(threads), always()));
        let genesis = Block::genesis();

        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let oracle = oracle.clone();
                let genesis = genesis.clone();
                thread::spawn(move || {
                    let candidate = BlockBuilder::new(&genesis)
                        .nonce(i as u64)
                        .producer(i as u32)
                        .build();
                    let (grant, _) = oracle.get_token_until_granted(i, &genesis, candidate);
                    oracle.consume_token(&grant).accepted
                })
            })
            .collect();

        let accepted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&a| a)
            .count();
        assert_eq!(accepted, k, "exactly k appends win under contention");
        assert_eq!(oracle.slot(genesis.id).len(), k);
    }

    #[test]
    fn stats_accumulate_across_handles() {
        let oracle = SharedOracle::new(FrugalOracle::new(2, MeritTable::uniform(2), always()));
        let genesis = Block::genesis();
        for i in 0..4u64 {
            let b = BlockBuilder::new(&genesis).nonce(i).build();
            let g = oracle.clone().get_token(0, &genesis, b).unwrap();
            oracle.consume_token(&g);
        }
        let stats = oracle.stats();
        assert_eq!(stats.get_token_calls, 4);
        assert_eq!(stats.consume_calls, 4);
        assert_eq!(stats.tokens_consumed, 2);
    }
}
