//! BT consistency criteria (Section 3.1.2).
//!
//! The paper defines two criteria as conjunctions of properties over
//! concurrent histories of the BT-ADT:
//!
//! * **BT Strong Consistency** (Definition 3.2) =
//!   Block Validity ∧ Local Monotonic Read ∧ Strong Prefix ∧ Ever-Growing Tree;
//! * **BT Eventual Consistency** (Definition 3.4) =
//!   Block Validity ∧ Local Monotonic Read ∧ Ever-Growing Tree ∧ Eventual Prefix.
//!
//! Theorem 3.1 (SC ⊂ EC) is exercised by the hierarchy experiments and by
//! the property tests in `crates/core/tests/`.
//!
//! ## Finite-history interpretation
//!
//! Ever-Growing Tree and Eventual Prefix quantify over *infinite* histories
//! ("the set of reads that … is finite").  Recorded executions are finite,
//! so the checkers implement the standard finite-trace reading, documented
//! on each property: growth/convergence must be *witnessed by the end of
//! the trace*, with a configurable grace window for operations too close to
//! the end of the recording to have had a chance to observe it.  The
//! protocol simulations always end with a quiescent round so that the grace
//! window can be zero.
//!
//! ## Two implementations, one verdict
//!
//! Every property but Local Monotonic Read has two bodies: the default one,
//! which answers each read's quantifier from indexes built once per history
//! (`index.rs`, Block Validity's path aggregates, the `ReachForest`'s
//! pre-order numbering for Strong Prefix, which counts its diverging pairs
//! instead of enumerating them), and `::reference()`, which rescans the
//! history per read and is kept as the executable spec.  The default body
//! is exact on any history — ties, inverted or pending records, seq order
//! disagreeing with time order — with no well-formedness gate;
//! `tests/equivalence.rs` holds the two to byte-identical verdicts.

mod block_validity;
mod eventual_prefix;
mod ever_growing;
mod index;
mod local_monotonic;
mod strong_prefix;

pub use block_validity::{appended_block_ids, BlockValidity};
pub use eventual_prefix::EventualPrefix;
pub use ever_growing::EverGrowingTree;
pub use local_monotonic::LocalMonotonicRead;
pub use strong_prefix::StrongPrefix;

use std::sync::Arc;

use btadt_history::{Conjunction, OpId, Violation};
use btadt_types::{Score, ValidityPredicate};

use crate::ops::{BtOperation, BtResponse};

/// How many fully-formatted violations a property reports before it folds
/// the remainder into one summary entry.
///
/// Contended histories can produce thousands of pairwise violations, and
/// eagerly `format!`-ing two whole chains per pair dominated the old SC
/// checker's cost (~80% of its 1.9 ms on the bench history).  Capping keeps
/// verdicts actionable — the first violations carry full detail, the
/// summary carries the count — without changing `is_admitted` (a capped
/// verdict is non-empty iff the uncapped one is).  The walk-based reference
/// checkers apply the same cap, so index and reference verdicts stay
/// byte-identical.
pub(crate) const DETAIL_CAP: usize = 16;

/// Accumulates violations under [`DETAIL_CAP`]: the first `DETAIL_CAP`
/// entries are materialized (details formatted lazily, so suppressed
/// entries never pay the formatting cost), the rest are counted and folded
/// into one summary violation by [`finish`](CappedViolations::finish).
pub(crate) struct CappedViolations {
    property: &'static str,
    violations: Vec<Violation>,
    suppressed: usize,
}

impl CappedViolations {
    pub(crate) fn new(property: &'static str) -> Self {
        CappedViolations {
            property,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Records one violation; `detail` is only rendered below the cap.
    pub(crate) fn push_with(&mut self, witnesses: Vec<OpId>, detail: impl FnOnce() -> String) {
        if self.violations.len() < DETAIL_CAP {
            self.violations.push(Violation {
                property: self.property,
                witnesses,
                detail: detail(),
            });
        } else {
            self.suppressed += 1;
        }
    }

    /// How many violations are materialized so far (at most [`DETAIL_CAP`]).
    pub(crate) fn len(&self) -> usize {
        self.violations.len()
    }

    /// Counts `count` further violations past the cap without materializing
    /// them, for a property that knows how many it did not enumerate.
    pub(crate) fn suppress(&mut self, count: usize) {
        self.suppressed += count;
    }

    pub(crate) fn finish(mut self) -> Vec<Violation> {
        if self.suppressed > 0 {
            self.violations.push(Violation {
                property: self.property,
                witnesses: Vec::new(),
                detail: format!(
                    "{} further {} violations suppressed (showing the first {DETAIL_CAP})",
                    self.suppressed, self.property
                ),
            });
        }
        self.violations
    }
}

/// A consistency criterion over BT histories.
pub type BtCriterion = Conjunction<BtOperation, BtResponse>;

/// Builds the **BT Strong Consistency** criterion (Definition 3.2) for the
/// given score function and validity predicate.
pub fn strong_consistency(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    Conjunction::named("BT Strong Consistency")
        .and(BlockValidity::new(validity))
        .and(LocalMonotonicRead::new(score.clone()))
        .and(StrongPrefix::new())
        .and(EverGrowingTree::new(score))
}

/// Builds the **BT Eventual Consistency** criterion (Definition 3.4) for the
/// given score function and validity predicate.
pub fn eventual_consistency(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    Conjunction::named("BT Eventual Consistency")
        .and(BlockValidity::new(validity))
        .and(LocalMonotonicRead::new(score.clone()))
        .and(EverGrowingTree::new(score.clone()))
        .and(EventualPrefix::new(score))
}

/// [`strong_consistency`] with every property in **reference mode**: the
/// rescanning, chain-walking implementations kept as the executable spec.
/// The equivalence tests assert this conjunction and the default (indexed)
/// one produce byte-identical verdicts on recorded and hostile histories.
pub fn strong_consistency_reference(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    Conjunction::named("BT Strong Consistency")
        .and(BlockValidity::reference(validity))
        .and(LocalMonotonicRead::new(score.clone()))
        .and(StrongPrefix::reference())
        .and(EverGrowingTree::reference(score))
}

/// [`eventual_consistency`] with every property in **reference mode** (see
/// [`strong_consistency_reference`]).
pub fn eventual_consistency_reference(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    Conjunction::named("BT Eventual Consistency")
        .and(BlockValidity::reference(validity))
        .and(LocalMonotonicRead::new(score.clone()))
        .and(EverGrowingTree::reference(score.clone()))
        .and(EventualPrefix::reference(score))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::{AlwaysValid, LengthScore};

    #[test]
    fn strong_consistency_has_four_properties() {
        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert_eq!(sc.len(), 4);
        assert_eq!(
            sc.part_names(),
            vec![
                "block-validity",
                "local-monotonic-read",
                "strong-prefix",
                "ever-growing-tree"
            ]
        );
    }

    #[test]
    fn eventual_consistency_has_four_properties() {
        let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert_eq!(ec.len(), 4);
        assert_eq!(
            ec.part_names(),
            vec![
                "block-validity",
                "local-monotonic-read",
                "ever-growing-tree",
                "eventual-prefix"
            ]
        );
    }
}
