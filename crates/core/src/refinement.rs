//! The refinement `R(BT-ADT, Θ)` (Definitions 3.7/3.8, Figure 7).
//!
//! The refinement replaces the plain `append(b)` of the BT-ADT with the
//! oracle-mediated sequence
//!
//! ```text
//! getToken(b_h ← last_block(f(bt)), b_ℓ)   repeated until a token is granted
//! consumeToken(b_ℓ^{tkn_h})                 consume the token
//! {b0}⌢f(bt)|⌢_h {b_ℓ}                      concatenate if the consume succeeded
//! ```
//!
//! executed **atomically**.  With a frugal oracle of bound `k`, at most `k`
//! append operations can succeed on the same parent block, which is the
//! k-Fork-Coherence property (Theorem 3.2).  With the prodigal oracle the
//! refinement only validates blocks and any number of forks may appear.
//!
//! [`RefinedBlockTree`] drives the refinement against a local tree, records
//! the resulting BT history (for the consistency checkers) and the oracle
//! log (for the fork-coherence checker), and is the generator used by the
//! hierarchy experiments of Figures 8 and 14.

use std::sync::Arc;

use btadt_history::ProcessId;
use btadt_oracle::{OracleLog, TokenOracle};
use btadt_types::{Block, BlockBuilder, BlockTree, Blockchain, SelectionFunction, Transaction};

use crate::ops::{BtOperation, BtRecorder, BtResponse};

/// Outcome of one refined `append` operation.
#[derive(Clone, Debug, PartialEq)]
pub struct RefinementOutcome {
    /// `true` iff the block was appended (the `evaluate` function of
    /// Definition 3.7).
    pub appended: bool,
    /// The block that was stamped by the oracle (present even when the
    /// consume was rejected, for diagnostics).
    pub block: Block,
    /// Number of `getToken` invocations needed before a token was granted.
    pub get_token_attempts: u64,
}

/// A BlockTree driven through the oracle refinement.
pub struct RefinedBlockTree {
    tree: BlockTree,
    selection: Arc<dyn SelectionFunction>,
    oracle: Box<dyn TokenOracle>,
    log: OracleLog,
    recorder: BtRecorder,
}

impl RefinedBlockTree {
    /// Creates a refined BlockTree over the given selection function and
    /// oracle.
    pub fn new(selection: Arc<dyn SelectionFunction>, oracle: Box<dyn TokenOracle>) -> Self {
        RefinedBlockTree {
            tree: BlockTree::new(),
            selection,
            oracle,
            log: OracleLog::new(),
            recorder: BtRecorder::new(),
        }
    }

    /// The refined `append`: requester `requester` proposes a block carrying
    /// `payload`; the block is chained to the last block of the currently
    /// selected chain if the oracle grants and lets it consume a token.
    ///
    /// The whole sequence (token acquisition, consumption, concatenation) is
    /// executed without interleaving, as the paper requires.
    pub fn append(&mut self, requester: usize, payload: Vec<Transaction>) -> RefinementOutcome {
        // b_h ← last_block(f(bt))
        let parent = self
            .tree
            .block_at(self.selection.select_tip(&self.tree))
            .clone();
        let candidate = BlockBuilder::new(&parent)
            .producer(requester as u32)
            .nonce(self.recorder.now().0 + 1)
            .payload(payload)
            .build();

        let op_id = self.recorder.invoke(
            ProcessId(requester as u32),
            BtOperation::Append(candidate.clone()),
        );

        // getToken* until granted, then consumeToken.
        let (grant, attempts) =
            self.oracle
                .get_token_until_granted(requester, &parent, candidate.clone());
        let outcome = self.oracle.consume_token(&grant);
        self.log.record(&grant, &outcome);

        let appended = outcome.accepted;
        if appended {
            self.tree
                .insert(grant.block.clone())
                .expect("the parent of a granted block is in the tree");
        }
        self.recorder.respond(op_id, BtResponse::Appended(appended));

        RefinementOutcome {
            appended,
            block: grant.block,
            get_token_attempts: attempts,
        }
    }

    /// The `read()` operation: `{b0}⌢f(bt)`.
    pub fn read(&mut self, requester: usize) -> Blockchain {
        let chain = self.selection.select(&self.tree);
        self.recorder.instantaneous(
            ProcessId(requester as u32),
            BtOperation::Read,
            BtResponse::Chain(chain.clone()),
        );
        chain
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The fork bound of the oracle driving the refinement.
    pub fn fork_bound(&self) -> Option<usize> {
        self.oracle.fork_bound()
    }

    /// The oracle usage log collected so far.
    pub fn oracle_log(&self) -> &OracleLog {
        &self.log
    }

    /// The concurrent history recorded so far.
    pub fn history(&self) -> &crate::ops::BtHistory {
        self.recorder.history()
    }

    /// Consumes the refined tree and returns the recorded history and oracle
    /// log.
    pub fn into_parts(self) -> (crate::ops::BtHistory, OracleLog, BlockTree) {
        (self.recorder.into_history(), self.log, self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_oracle::{
        ForkCoherenceChecker, FrugalOracle, MeritTable, OracleConfig, ProdigalOracle,
    };
    use btadt_types::LongestChain;

    use crate::ops::BtHistoryExt;

    fn always() -> OracleConfig {
        OracleConfig {
            seed: 1,
            probability_scale: 1e9,
            min_probability: 1.0,
        }
    }

    fn frugal(k: usize, n: usize) -> RefinedBlockTree {
        RefinedBlockTree::new(
            Arc::new(LongestChain::new()),
            Box::new(FrugalOracle::new(k, MeritTable::uniform(n), always())),
        )
    }

    fn prodigal(n: usize) -> RefinedBlockTree {
        RefinedBlockTree::new(
            Arc::new(LongestChain::new()),
            Box::new(ProdigalOracle::new(MeritTable::uniform(n), always())),
        )
    }

    #[test]
    fn refined_append_extends_the_selected_chain() {
        let mut rbt = frugal(1, 1);
        let out = rbt.append(0, vec![]);
        assert!(out.appended);
        assert_eq!(rbt.tree().len(), 2);
        let chain = rbt.read(0);
        assert_eq!(chain.tip().id, out.block.id);
        assert_eq!(out.get_token_attempts, 1);
    }

    #[test]
    fn frugal_k1_refinement_produces_a_single_chain() {
        let mut rbt = frugal(1, 4);
        for round in 0..20 {
            rbt.append(round % 4, vec![]);
        }
        assert_eq!(rbt.tree().max_fork_degree(), 1);
        assert_eq!(rbt.tree().height(), 20);
        assert!(ForkCoherenceChecker::frugal(1).holds(rbt.oracle_log()));
    }

    #[test]
    fn sequential_refinement_appends_always_succeed_on_fresh_parents() {
        // Sequentially, each append chains to the current tip, so even k=1
        // never rejects: each parent is used exactly once.
        let mut rbt = frugal(1, 2);
        let successes = (0..10)
            .filter(|i| rbt.append(i % 2, vec![]).appended)
            .count();
        assert_eq!(successes, 10);
    }

    #[test]
    fn forced_contention_on_one_parent_is_bounded_by_k() {
        // Force contention by replaying appends whose selected parent stays
        // the genesis block: use a selection function view where the tree is
        // not updated — simplest is to use the oracle directly; here we
        // emulate contention by resetting the tree between appends.
        let k = 2;
        let oracle = FrugalOracle::new(k, MeritTable::uniform(1), always());
        let mut oracle: Box<dyn TokenOracle> = Box::new(oracle);
        let genesis = Block::genesis();
        let mut accepted = 0;
        let mut log = OracleLog::new();
        for nonce in 0..10u64 {
            let candidate = BlockBuilder::new(&genesis).nonce(nonce).build();
            let (grant, _) = oracle.get_token_until_granted(0, &genesis, candidate);
            let outcome = oracle.consume_token(&grant);
            log.record(&grant, &outcome);
            if outcome.accepted {
                accepted += 1;
            }
        }
        assert_eq!(accepted, k);
        assert!(ForkCoherenceChecker::frugal(k).holds(&log));
        assert!(!ForkCoherenceChecker::frugal(k - 1).holds(&log));
    }

    #[test]
    fn refinement_records_history_with_appends_and_reads() {
        let mut rbt = prodigal(2);
        rbt.append(0, vec![]);
        rbt.read(1);
        rbt.append(1, vec![]);
        rbt.read(0);
        let (history, log, tree) = rbt.into_parts();
        assert_eq!(history.appends().len(), 2);
        assert_eq!(history.reads().len(), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn prodigal_refinement_allows_unbounded_sequential_growth() {
        let mut rbt = prodigal(1);
        for _ in 0..30 {
            assert!(rbt.append(0, vec![]).appended);
        }
        assert_eq!(rbt.tree().height(), 30);
        assert_eq!(rbt.fork_bound(), None);
    }
}
