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
//! ## One index per check
//!
//! A criterion is one [`BtCriterion`]: its `check` builds one
//! `JudgeIndex` (`index.rs`) holding what its parts read — the
//! complete reads in response order, their scores and per-process suffix
//! maxima, the first-append time per block id, Ever-Growing Tree's append
//! lists, and the `ReachForest` only when Strong Prefix is a part — and
//! every part answers from it.  A property checked on its own builds its
//! own index through the same constructor, asking only for its parts.
//!
//! ## Two implementations, one verdict
//!
//! Every property has two bodies: the default one, which answers each
//! read's quantifier from the index (Block Validity's path aggregates, the
//! `ReachForest`'s pre-order numbering for Strong Prefix, which counts its
//! diverging pairs instead of enumerating them), and `::reference()`,
//! which rescans the history per read and is kept as the executable spec.
//! The default body is exact on any history — ties, inverted or pending
//! records, seq order disagreeing with time order — with no
//! well-formedness gate; `tests/equivalence.rs` holds the two to
//! byte-identical verdicts.

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

use btadt_history::{ConsistencyCriterion, OpId, Verdict, Violation};
use btadt_types::{Score, ValidityPredicate};

use crate::criteria::index::{JudgeIndex, Needs};
use crate::ops::{BtHistory, BtOperation, BtResponse};

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

/// A property the criteria are conjunctions of: it names the parts of
/// the index it reads and answers from an index built elsewhere.
pub(crate) trait Property: ConsistencyCriterion<BtOperation, BtResponse> {
    /// The parts of a [`JudgeIndex`] [`check_with`](Property::check_with)
    /// reads (none in reference mode).
    fn needs(&self) -> Needs<'_>;

    /// Checks `history` from `index`, built over `history` with at least
    /// [`needs`](Property::needs).
    fn check_with(&self, history: &BtHistory, index: &JudgeIndex<'_>) -> Verdict;
}

/// [`ConsistencyCriterion::check`] for a property on its own: it builds
/// the index it needs and answers from it.
pub(crate) fn check_alone(property: &impl Property, history: &BtHistory) -> Verdict {
    property.check_with(history, &JudgeIndex::new(history, property.needs()))
}

/// A consistency criterion over BT histories: a conjunction of properties
/// judged from one shared index.
///
/// A history is admitted iff every part admits it; the verdict holds every
/// part's violations, in part order (not short-circuited), so reports show
/// the full picture.
pub struct BtCriterion {
    name: &'static str,
    parts: Vec<Box<dyn Property>>,
}

impl BtCriterion {
    /// Number of component properties.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Returns `true` iff the criterion has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Names of the component properties, in check order.
    pub fn part_names(&self) -> Vec<&'static str> {
        self.parts.iter().map(|p| p.name()).collect()
    }
}

impl ConsistencyCriterion<BtOperation, BtResponse> for BtCriterion {
    fn check(&self, history: &BtHistory) -> Verdict {
        let needs = self.parts.iter().map(|p| p.needs());
        let index = JudgeIndex::new(history, needs.fold(Needs::default(), Needs::union));
        let mut verdict = Verdict::admitted();
        for part in &self.parts {
            verdict.merge(part.check_with(history, &index));
        }
        verdict
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Builds the **BT Strong Consistency** criterion (Definition 3.2) for the
/// given score function and validity predicate.
pub fn strong_consistency(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    BtCriterion {
        name: "BT Strong Consistency",
        parts: vec![
            Box::new(BlockValidity::new(validity)),
            Box::new(LocalMonotonicRead::new(score.clone())),
            Box::new(StrongPrefix::new()),
            Box::new(EverGrowingTree::new(score)),
        ],
    }
}

/// Builds the **BT Eventual Consistency** criterion (Definition 3.4) for the
/// given score function and validity predicate.
pub fn eventual_consistency(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    BtCriterion {
        name: "BT Eventual Consistency",
        parts: vec![
            Box::new(BlockValidity::new(validity)),
            Box::new(LocalMonotonicRead::new(score.clone())),
            Box::new(EverGrowingTree::new(score.clone())),
            Box::new(EventualPrefix::new(score)),
        ],
    }
}

/// [`strong_consistency`] with every property in **reference mode**: the
/// rescanning, chain-walking implementations kept as the executable spec,
/// reading no index.  The equivalence tests assert this criterion and the
/// default (indexed) one produce byte-identical verdicts on recorded and
/// hostile histories.
pub fn strong_consistency_reference(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    BtCriterion {
        name: "BT Strong Consistency",
        parts: vec![
            Box::new(BlockValidity::reference(validity)),
            Box::new(LocalMonotonicRead::reference(score.clone())),
            Box::new(StrongPrefix::reference()),
            Box::new(EverGrowingTree::reference(score)),
        ],
    }
}

/// [`eventual_consistency`] with every property in **reference mode** (see
/// [`strong_consistency_reference`]).
pub fn eventual_consistency_reference(
    score: Arc<dyn Score>,
    validity: Arc<dyn ValidityPredicate>,
) -> BtCriterion {
    BtCriterion {
        name: "BT Eventual Consistency",
        parts: vec![
            Box::new(BlockValidity::reference(validity)),
            Box::new(LocalMonotonicRead::reference(score.clone())),
            Box::new(EverGrowingTree::reference(score.clone())),
            Box::new(EventualPrefix::reference(score)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::{AlwaysValid, LengthScore};

    #[test]
    fn strong_consistency_has_four_properties() {
        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert_eq!(sc.name(), "BT Strong Consistency");
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
        assert_eq!(ec.name(), "BT Eventual Consistency");
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
