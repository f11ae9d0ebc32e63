//! The prodigal oracle's `consumeToken` from Atomic Snapshot (Figure 12,
//! Theorem 4.3).
//!
//! With `k = ∞` every `consumeToken_h(tkn_m)` simply writes the token into
//! its own register `R_{h,m}` and returns a scan of all registers — which is
//! exactly `update` followed by `scan` on an atomic snapshot object.  Since
//! the atomic snapshot has consensus number 1, so does the prodigal oracle:
//! unlike the frugal k=1 oracle, the set returned by two different
//! processes can differ in *which other tokens* they contain, so no process
//! can use it to decide a single winner.

use btadt_types::Block;

use crate::snapshot::AtomicSnapshot;

/// Figure 12's implementation of the prodigal `consumeToken` for one parent
/// block `b_h`: register `R_{h,m}` belongs to token/process `m`.
pub struct SnapshotConsumeToken {
    snapshot: AtomicSnapshot<Option<Block>>,
}

impl SnapshotConsumeToken {
    /// Creates the object for up to `n` distinct tokens (one register per
    /// token holder).
    pub fn new(n: usize) -> Self {
        SnapshotConsumeToken {
            snapshot: AtomicSnapshot::new(n),
        }
    }

    /// `consumeToken_h(tkn_m)`: update register `m` with the block, then
    /// return a scan of all registers (the current contents of `K[h]`).
    pub fn consume_token(&self, m: usize, block: Block) -> Vec<Block> {
        self.snapshot.update(m, Some(block));
        self.scan()
    }

    /// Reads the current contents of `K[h]`.
    pub fn scan(&self) -> Vec<Block> {
        self.snapshot.scan().into_iter().flatten().collect()
    }

    /// Number of token registers.
    pub fn capacity(&self) -> usize {
        self.snapshot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    fn block(i: usize) -> Block {
        BlockBuilder::new(&Block::genesis())
            .producer(i as u32)
            .nonce(i as u64)
            .build()
    }

    #[test]
    fn consume_returns_a_set_containing_the_written_token() {
        let ct = SnapshotConsumeToken::new(3);
        assert_eq!(ct.capacity(), 3);
        let b = block(0);
        let set = ct.consume_token(0, b.clone());
        assert_eq!(set, vec![b.clone()]);
        let b1 = block(1);
        let set = ct.consume_token(1, b1.clone());
        assert_eq!(set.len(), 2);
        assert!(set.contains(&b) && set.contains(&b1));
    }

    #[test]
    fn every_consumed_token_is_retained_no_bound_applies() {
        let n = 16;
        let ct = SnapshotConsumeToken::new(n);
        for i in 0..n {
            ct.consume_token(i, block(i));
        }
        assert_eq!(
            ct.scan().len(),
            n,
            "the prodigal oracle never rejects a token"
        );
    }

    #[test]
    fn concurrent_consumes_all_land_and_every_scan_contains_the_caller() {
        for n in [4, 8] {
            let ct = Arc::new(SnapshotConsumeToken::new(n));
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let ct = Arc::clone(&ct);
                    thread::spawn(move || {
                        let mine = block(i);
                        let set = ct.consume_token(i, mine.clone());
                        set.contains(&mine)
                    })
                })
                .collect();
            assert!(handles.into_iter().all(|h| h.join().unwrap()));
            assert_eq!(ct.scan().len(), n);
        }
    }

    #[test]
    fn returned_sets_differ_across_processes_unlike_the_frugal_k1_oracle() {
        // The essence of Theorem 4.3: concurrent consumers may observe
        // different sets, so the object cannot be used to decide a unique
        // winner (no wait-free consensus from it).  Sequentially this shows
        // up as strictly growing sets.
        let ct = SnapshotConsumeToken::new(4);
        let s1: HashSet<_> = ct
            .consume_token(0, block(0))
            .into_iter()
            .map(|b| b.id)
            .collect();
        let s2: HashSet<_> = ct
            .consume_token(1, block(1))
            .into_iter()
            .map(|b| b.id)
            .collect();
        assert_ne!(
            s1, s2,
            "different consumers observe different K[h] contents"
        );
        assert!(s1.is_subset(&s2));
    }
}
