//! Sequential specification of the BlockTree ADT (Definition 3.1, Figure 1).
//!
//! The BT-ADT is the 6-tuple
//! `⟨A = {append(b), read()}, B = BC ∪ {true,false}, Z = BT × F × P, ξ0, τ, δ⟩`
//! with
//!
//! * `τ((bt,f,P), append(b)) = bt ∪ {b}` if `b ∈ B'`, unchanged otherwise;
//! * `τ((bt,f,P), read()) = (bt,f,P)`;
//! * `δ((bt,f,P), append(b)) = true` iff `b ∈ B'`;
//! * `δ((bt,f,P), read()) = {b0}⌢f(bt)`.
//!
//! Modelling note.  Definition 3.1 writes the post-append state as
//! `{b0}⌢f(bt)⌢{b}`; taken literally over a *sequential* execution this
//! would never create a branch, yet the paper immediately observes that "the
//! BlockTree allows at any time to create a new branch in the tree" and the
//! transition diagram of Figure 1 shows `b1` and `b2` both attached under
//! `b0`.  We therefore let `append(b)` attach `b` to the parent named inside
//! the block provided that parent is already in the tree — when the parent
//! is the tip of `f(bt)` this coincides with the literal reading, and when
//! it is not, a fork is created exactly as in the figure.  Validity is
//! checked with the predicate `P` against the chain leading to the parent.
//! The selection function `f` and the predicate `P` are parameters of the
//! ADT, fixed for the whole computation, as in the paper.

use std::sync::Arc;

use btadt_history::AbstractDataType;
use btadt_types::{
    AlwaysValid, Block, BlockTree, Blockchain, LongestChain, SelectionFunction, ValidityPredicate,
};

use crate::ops::{BtOperation, BtResponse};

/// The abstract state `(bt, f, P)` of the BT-ADT.  Since `f` and `P` never
/// change during a computation they are kept in the ADT itself; the mutable
/// part of the state is the tree.
#[derive(Clone, Debug)]
pub struct BtState {
    /// The BlockTree.
    pub tree: BlockTree,
}

impl Default for BtState {
    fn default() -> Self {
        BtState {
            tree: BlockTree::new(),
        }
    }
}

/// The BlockTree abstract data type, parameterised by a selection function
/// `f ∈ F` and a validity predicate `P`.
#[derive(Clone)]
pub struct BlockTreeAdt {
    selection: Arc<dyn SelectionFunction>,
    validity: Arc<dyn ValidityPredicate>,
}

impl BlockTreeAdt {
    /// Creates a BT-ADT with the given parameters.
    pub fn new(
        selection: impl SelectionFunction + 'static,
        validity: impl ValidityPredicate + 'static,
    ) -> Self {
        BlockTreeAdt {
            selection: Arc::new(selection),
            validity: Arc::new(validity),
        }
    }

    /// The paper's running example: longest-chain selection, every block
    /// valid.
    pub fn longest_chain() -> Self {
        BlockTreeAdt::new(LongestChain::new(), AlwaysValid)
    }

    /// The selection function `f`.
    pub fn selection(&self) -> &dyn SelectionFunction {
        self.selection.as_ref()
    }

    /// The validity predicate `P`.
    pub fn validity(&self) -> &dyn ValidityPredicate {
        self.validity.as_ref()
    }

    /// Decides `b ∈ B'` in the given state: the block's parent must be in
    /// the tree and the predicate must accept the block in the context of
    /// the chain leading to its parent.
    pub fn is_valid_in(&self, state: &BtState, block: &Block) -> bool {
        if block.is_genesis() {
            return false; // the genesis block is never re-appended
        }
        let Some(parent) = block.parent else {
            return false;
        };
        // LINT-ALLOW: the spec's validity predicate judges a block in the
        // context of the whole chain to its parent; no read is recorded.
        let Some(context) = state.tree.chain_to(parent) else {
            return false;
        };
        if block.height != context.height() + 1 {
            return false;
        }
        self.validity.is_valid(block, context.blocks())
    }

    /// `read()` in the given state: `{b0}⌢f(bt)`.
    pub fn read(&self, state: &BtState) -> Blockchain {
        self.selection.select(&state.tree)
    }
}

impl AbstractDataType for BlockTreeAdt {
    type Input = BtOperation;
    type Output = BtResponse;
    type State = BtState;

    fn initial_state(&self) -> BtState {
        BtState::default()
    }

    fn transition(&self, state: &BtState, input: &BtOperation) -> BtState {
        match input {
            BtOperation::Read => state.clone(),
            BtOperation::Append(block) => {
                if self.is_valid_in(state, block) {
                    let mut next = state.clone();
                    next.tree
                        .insert(block.clone())
                        .expect("validity check guarantees insertability");
                    next
                } else {
                    state.clone()
                }
            }
        }
    }

    fn output(&self, state: &BtState, input: &BtOperation) -> BtResponse {
        match input {
            BtOperation::Read => BtResponse::Chain(self.read(state)),
            BtOperation::Append(block) => BtResponse::Appended(self.is_valid_in(state, block)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::SequentialChecker;
    use btadt_types::{BlockBuilder, MaxPayload, NeverValid, TieBreak, Transaction};

    fn child(parent: &Block, nonce: u64) -> Block {
        BlockBuilder::new(parent).nonce(nonce).build()
    }

    #[test]
    fn initial_state_is_genesis_only_and_read_returns_b0() {
        let adt = BlockTreeAdt::longest_chain();
        let s0 = adt.initial_state();
        assert!(s0.tree.is_empty());
        assert_eq!(adt.read(&s0), Blockchain::genesis_only());
        assert_eq!(
            adt.output(&s0, &BtOperation::Read),
            BtResponse::Chain(Blockchain::genesis_only())
        );
    }

    #[test]
    fn append_of_valid_block_returns_true_and_extends_the_tree() {
        let adt = BlockTreeAdt::longest_chain();
        let s0 = adt.initial_state();
        let b1 = child(&Block::genesis(), 1);
        let (out, s1) = adt.step(&s0, &BtOperation::Append(b1.clone()));
        assert_eq!(out, BtResponse::Appended(true));
        assert_eq!(s1.tree.len(), 2);
        assert!(s1.tree.contains(b1.id));
        // read() now returns b0⌢b1
        let chain = adt.read(&s1);
        assert_eq!(chain.tip().id, b1.id);
    }

    #[test]
    fn append_of_invalid_block_returns_false_and_leaves_state_unchanged() {
        let adt = BlockTreeAdt::new(LongestChain::new(), NeverValid);
        let s0 = adt.initial_state();
        let b = child(&Block::genesis(), 1);
        let (out, s1) = adt.step(&s0, &BtOperation::Append(b));
        assert_eq!(out, BtResponse::Appended(false));
        assert_eq!(s1.tree.len(), 1);
    }

    #[test]
    fn append_with_unknown_parent_is_invalid() {
        let adt = BlockTreeAdt::longest_chain();
        let s0 = adt.initial_state();
        let orphan_parent = child(&Block::genesis(), 9);
        let orphan = child(&orphan_parent, 10); // parent not in tree
        assert_eq!(
            adt.output(&s0, &BtOperation::Append(orphan)),
            BtResponse::Appended(false)
        );
    }

    #[test]
    fn appending_genesis_again_is_invalid() {
        let adt = BlockTreeAdt::longest_chain();
        let s0 = adt.initial_state();
        assert_eq!(
            adt.output(&s0, &BtOperation::Append(Block::genesis())),
            BtResponse::Appended(false)
        );
    }

    #[test]
    fn figure_1_path_is_a_sequential_history() {
        // Figure 1: append(b1)/true, read()/b0⌢b1, append(b2)/true (fork under
        // b0), read()/b0⌢b2 with the lexicographically-largest tie-break,
        // append(b3)/false for an invalid block at every state.
        let adt = BlockTreeAdt::new(
            LongestChain::with_tie_break(TieBreak::LargestId),
            MaxPayload::new(0), // b3 carries a transaction, making it invalid
        );
        let genesis = Block::genesis();
        let b1 = child(&genesis, 1);
        let b2 = child(&genesis, 2);
        let b3 = BlockBuilder::new(&genesis)
            .nonce(3)
            .push_tx(Transaction::transfer(1, 1, 2, 1))
            .build();

        // Expected read after both appends: the tie-break picks the larger id.
        let expected_tip = if b1.id > b2.id {
            b1.clone()
        } else {
            b2.clone()
        };
        let expected_chain = Blockchain::genesis_only()
            .extended_with(expected_tip)
            .unwrap();
        let first_chain = Blockchain::genesis_only()
            .extended_with(b1.clone())
            .unwrap();

        let checker = SequentialChecker::new(adt);
        let word = vec![
            (BtOperation::Append(b3.clone()), BtResponse::Appended(false)),
            (BtOperation::Append(b1.clone()), BtResponse::Appended(true)),
            (BtOperation::Read, BtResponse::Chain(first_chain)),
            (BtOperation::Append(b2.clone()), BtResponse::Appended(true)),
            (BtOperation::Append(b3), BtResponse::Appended(false)),
            (BtOperation::Read, BtResponse::Chain(expected_chain)),
        ];
        let states = checker.check_word(&word).expect("Figure 1 path is legal");
        assert_eq!(states.last().unwrap().tree.len(), 3);
    }

    #[test]
    fn illegal_word_is_rejected_by_the_sequential_checker() {
        let adt = BlockTreeAdt::longest_chain();
        let b1 = child(&Block::genesis(), 1);
        let checker = SequentialChecker::new(adt);
        // Claiming the read returns b0⌢b1 *before* b1 is appended is illegal.
        let chain = Blockchain::genesis_only()
            .extended_with(b1.clone())
            .unwrap();
        let word = vec![
            (BtOperation::Read, BtResponse::Chain(chain)),
            (BtOperation::Append(b1), BtResponse::Appended(true)),
        ];
        let err = checker.check_word(&word).unwrap_err();
        assert_eq!(err.position, 0);
    }

    #[test]
    fn forks_are_allowed_in_the_tree() {
        let adt = BlockTreeAdt::longest_chain();
        let genesis = Block::genesis();
        let b1 = child(&genesis, 1);
        let b2 = child(&genesis, 2);
        let checker = SequentialChecker::new(adt);
        let state = checker.final_state(&[
            BtOperation::Append(b1.clone()),
            BtOperation::Append(b2.clone()),
        ]);
        assert_eq!(state.tree.fork_degree(genesis.id), 2);
    }

    #[test]
    fn read_never_changes_the_state() {
        let adt = BlockTreeAdt::longest_chain();
        let s0 = adt.initial_state();
        let s1 = adt.transition(&s0, &BtOperation::Read);
        assert_eq!(s1.tree.len(), s0.tree.len());
    }

    #[test]
    fn validity_is_checked_against_the_parent_chain_context() {
        // No-double-spend across the chain: a transaction present in the
        // parent chain invalidates a re-spending child.
        let adt = BlockTreeAdt::new(LongestChain::new(), btadt_types::NoDoubleSpend);
        let genesis = Block::genesis();
        let tx = Transaction::transfer(7, 1, 2, 10);
        let b1 = BlockBuilder::new(&genesis).nonce(1).push_tx(tx).build();
        let s1 = adt.transition(&adt.initial_state(), &BtOperation::Append(b1.clone()));
        let replay = BlockBuilder::new(&b1).nonce(2).push_tx(tx).build();
        assert_eq!(
            adt.output(&s1, &BtOperation::Append(replay)),
            BtResponse::Appended(false)
        );
        let fresh = BlockBuilder::new(&b1)
            .nonce(3)
            .push_tx(Transaction::transfer(8, 1, 2, 10))
            .build();
        assert_eq!(
            adt.output(&s1, &BtOperation::Append(fresh)),
            BtResponse::Appended(true)
        );
    }
}
