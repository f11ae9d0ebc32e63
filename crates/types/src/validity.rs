//! Validity predicates `P : B → {true, false}`.
//!
//! Blocks are said valid if they satisfy an application-dependent predicate
//! `P`; only valid blocks (the set `B'`) may be appended to the BlockTree.
//! The paper's example is Bitcoin's rule: a block is valid if it connects to
//! the current blockchain and does not double spend.  The predicates here
//! are *contextual*: they may inspect the chain the block is being appended
//! to (which is how "no double spend" is naturally expressed).

use std::collections::HashSet;

use crate::block::Block;
/// A validity predicate over blocks.
///
/// `is_valid(block, context)` decides whether `block` may extend the chain
/// whose blocks are `context` (the chain selected by `f` at append time).
/// The genesis block is valid by assumption and is never passed to the
/// predicate.
pub trait ValidityPredicate: Send + Sync {
    /// Returns `true` iff the block is valid in the given chain context.
    ///
    /// `context` is the prefix the block extends, root first: for a chain
    /// `bc` and its block at position `k`, the slice `&bc.blocks()[..k]`
    /// (the genesis block first, or the boundary root of a pruned window).
    /// A slice rather than a [`Blockchain`](crate::Blockchain), so a checker
    /// validates every block of a read chain in place instead of
    /// materialising one prefix chain per block.
    fn is_valid(&self, block: &Block, context: &[Block]) -> bool;

    /// A short human-readable name used by reports and diagnostics.
    fn name(&self) -> &'static str;
}

/// Accepts every block (the weakest predicate; histories generated with it
/// exercise the pure tree semantics).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysValid;

impl ValidityPredicate for AlwaysValid {
    fn is_valid(&self, _block: &Block, _context: &[Block]) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "always-valid"
    }
}

/// Rejects every block; used to test the `append(b)/false` branch of the
/// BT-ADT transition system (Figure 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverValid;

impl ValidityPredicate for NeverValid {
    fn is_valid(&self, _block: &Block, _context: &[Block]) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "never-valid"
    }
}

/// Structural validity: the block must carry at least one unit of work, its
/// height must be positive, and it must have a parent pointer.
#[derive(Clone, Copy, Debug, Default)]
pub struct StructuralValidity;

impl ValidityPredicate for StructuralValidity {
    fn is_valid(&self, block: &Block, _context: &[Block]) -> bool {
        block.parent.is_some() && block.height > 0 && block.work >= 1
    }

    fn name(&self) -> &'static str {
        "structural"
    }
}

/// Rejects blocks whose payload exceeds a maximum number of transactions.
#[derive(Clone, Copy, Debug)]
pub struct MaxPayload {
    /// Maximum number of transactions allowed per block.
    pub max_txs: usize,
}

impl MaxPayload {
    /// Creates the predicate with the given limit.
    pub fn new(max_txs: usize) -> Self {
        MaxPayload { max_txs }
    }
}

impl ValidityPredicate for MaxPayload {
    fn is_valid(&self, block: &Block, _context: &[Block]) -> bool {
        block.payload.len() <= self.max_txs
    }

    fn name(&self) -> &'static str {
        "max-payload"
    }
}

/// Bitcoin-style "no double spend": a block is invalid if any of its
/// transaction ids already appears in the context chain, or appears twice in
/// the block itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDoubleSpend;

impl ValidityPredicate for NoDoubleSpend {
    fn is_valid(&self, block: &Block, context: &[Block]) -> bool {
        let mut seen: HashSet<_> = context
            .iter()
            .flat_map(|b| b.payload.iter().map(|tx| tx.id))
            .collect();
        block.payload.iter().all(|tx| seen.insert(tx.id))
    }

    fn name(&self) -> &'static str {
        "no-double-spend"
    }
}

/// Conjunction of several predicates: a block is valid iff every component
/// accepts it.
pub struct CompositeValidity {
    parts: Vec<Box<dyn ValidityPredicate>>,
}

impl CompositeValidity {
    /// Creates an empty conjunction (which accepts everything).
    pub fn new() -> Self {
        CompositeValidity { parts: Vec::new() }
    }

    /// Adds a predicate to the conjunction.
    pub fn and(mut self, p: impl ValidityPredicate + 'static) -> Self {
        self.parts.push(Box::new(p));
        self
    }

    /// The standard "realistic" predicate used by the protocol models:
    /// structural validity ∧ no double spend.
    pub fn standard() -> Self {
        CompositeValidity::new()
            .and(StructuralValidity)
            .and(NoDoubleSpend)
    }

    /// Number of component predicates.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns `true` iff the conjunction has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl Default for CompositeValidity {
    fn default() -> Self {
        CompositeValidity::new()
    }
}

impl ValidityPredicate for CompositeValidity {
    fn is_valid(&self, block: &Block, context: &[Block]) -> bool {
        self.parts.iter().all(|p| p.is_valid(block, context))
    }

    fn name(&self) -> &'static str {
        "composite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::chain::Blockchain;
    use crate::transaction::Transaction;

    fn ctx() -> Vec<Block> {
        vec![Block::genesis()]
    }

    #[test]
    fn always_and_never_valid() {
        let b = BlockBuilder::new(&Block::genesis()).build();
        assert!(AlwaysValid.is_valid(&b, &ctx()));
        assert!(!NeverValid.is_valid(&b, &ctx()));
    }

    #[test]
    fn structural_validity_checks_parent_height_and_work() {
        let good = BlockBuilder::new(&Block::genesis()).build();
        assert!(StructuralValidity.is_valid(&good, &ctx()));

        let mut orphan = good.clone();
        orphan.parent = None;
        assert!(!StructuralValidity.is_valid(&orphan, &ctx()));

        let mut flat = good.clone();
        flat.height = 0;
        assert!(!StructuralValidity.is_valid(&flat, &ctx()));

        let mut lazy = good;
        lazy.work = 0;
        assert!(!StructuralValidity.is_valid(&lazy, &ctx()));
    }

    #[test]
    fn max_payload_limits_transactions() {
        let p = MaxPayload::new(2);
        let small = BlockBuilder::new(&Block::genesis())
            .push_tx(Transaction::transfer(1, 1, 2, 5))
            .build();
        assert!(p.is_valid(&small, &ctx()));
        let big = BlockBuilder::new(&Block::genesis())
            .push_tx(Transaction::transfer(1, 1, 2, 5))
            .push_tx(Transaction::transfer(2, 1, 2, 5))
            .push_tx(Transaction::transfer(3, 1, 2, 5))
            .build();
        assert!(!p.is_valid(&big, &ctx()));
    }

    #[test]
    fn no_double_spend_rejects_replayed_transaction() {
        let tx = Transaction::transfer(7, 1, 2, 5);
        let genesis = Block::genesis();
        let first = BlockBuilder::new(&genesis).push_tx(tx).build();
        let context = Blockchain::genesis_only()
            .extended_with(first.clone())
            .unwrap();

        let replay = BlockBuilder::new(&first).push_tx(tx).build();
        assert!(!NoDoubleSpend.is_valid(&replay, context.blocks()));

        let fresh = BlockBuilder::new(&first)
            .push_tx(Transaction::transfer(8, 1, 2, 5))
            .build();
        assert!(NoDoubleSpend.is_valid(&fresh, context.blocks()));
    }

    #[test]
    fn no_double_spend_rejects_duplicate_within_block() {
        let tx = Transaction::transfer(7, 1, 2, 5);
        let b = BlockBuilder::new(&Block::genesis())
            .push_tx(tx)
            .push_tx(tx)
            .build();
        assert!(!NoDoubleSpend.is_valid(&b, &ctx()));
    }

    #[test]
    fn composite_is_conjunction() {
        let p = CompositeValidity::new()
            .and(StructuralValidity)
            .and(MaxPayload::new(1));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());

        let ok = BlockBuilder::new(&Block::genesis())
            .push_tx(Transaction::transfer(1, 1, 2, 5))
            .build();
        assert!(p.is_valid(&ok, &ctx()));

        let too_big = BlockBuilder::new(&Block::genesis())
            .push_tx(Transaction::transfer(1, 1, 2, 5))
            .push_tx(Transaction::transfer(2, 1, 2, 5))
            .build();
        assert!(!p.is_valid(&too_big, &ctx()));
    }

    #[test]
    fn empty_composite_accepts_everything() {
        let p = CompositeValidity::new();
        assert!(p.is_empty());
        let b = BlockBuilder::new(&Block::genesis()).build();
        assert!(p.is_valid(&b, &ctx()));
    }

    #[test]
    fn standard_composite_contains_two_predicates() {
        assert_eq!(CompositeValidity::standard().len(), 2);
    }
}
