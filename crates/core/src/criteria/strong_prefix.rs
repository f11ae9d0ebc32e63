//! The Strong Prefix property (Definition 3.2, third bullet).
//!
//! For every pair of `read()` operations in the history, one of the two
//! returned blockchains must be a prefix of the other — reads may lag but
//! their prefixes never diverge.  This is the property that separates
//! Consensus-based blockchains from proof-of-work ones (Theorem 4.8 shows
//! it cannot be guaranteed as soon as the oracle allows forks).
//!
//! ## Two implementations, one verdict
//!
//! The default path interns every read chain into a [`ReachForest`] and
//! asks it, in one O(R log n) sweep, how many later reads diverge from
//! each read ([`ReachForest::diverging_later`]).  A total of zero admits.
//! Otherwise only rows with a non-zero count are scanned, in the same
//! `(i, j)` order as the spec and with two O(1) span checks per pair,
//! until [`DETAIL_CAP`] details exist — at most `DETAIL_CAP` rows of R
//! probes — and the rest of the total is folded into the summary without
//! being enumerated.  The reference path ([`StrongPrefix::reference`]) zips
//! every pair positionally via [`Blockchain::prefix_compatible`] and is
//! kept as the executable spec; both apply the same violation-detail cap,
//! so the equivalence tests can require byte-identical verdicts.
//! Histories whose chains do not form one consistent tree (never produced
//! by the BT-ADT, but checkers accept arbitrary histories) make the forest
//! construction bail and the default path falls back to the reference
//! walk.
//!
//! [`DETAIL_CAP`]: crate::criteria::DETAIL_CAP
//! [`Blockchain::prefix_compatible`]: btadt_types::Blockchain::prefix_compatible

use btadt_history::{ConsistencyCriterion, Verdict};
use btadt_types::Blockchain;

use crate::criteria::{CappedViolations, DETAIL_CAP};
use crate::ops::{BtHistory, BtHistoryExt, BtOperation, BtResponse};
use crate::reachability::ReachForest;

/// Checks the Strong Prefix property.
pub struct StrongPrefix {
    use_index: bool,
}

impl Default for StrongPrefix {
    fn default() -> Self {
        StrongPrefix::new()
    }
}

impl StrongPrefix {
    /// Creates the property (reachability-indexed pair checks).
    pub fn new() -> Self {
        StrongPrefix { use_index: true }
    }

    /// Creates the property in reference mode: positional chain zipping,
    /// the executable spec the indexed path is tested against.
    pub fn reference() -> Self {
        StrongPrefix { use_index: false }
    }

    /// The chain-walking spec: pairwise [`prefix_compatible`] zips.
    ///
    /// [`prefix_compatible`]: btadt_types::Blockchain::prefix_compatible
    fn check_walk(&self, history: &BtHistory) -> Verdict {
        let reads = history.reads();
        let mut violations = CappedViolations::new("strong-prefix");
        for i in 0..reads.len() {
            // LINT-ALLOW: the spec itself enumerates every pair
            for j in (i + 1)..reads.len() {
                let (ri, ci) = reads[i];
                let (rj, cj) = reads[j];
                if !ci.prefix_compatible(cj) {
                    violations.push_with(vec![ri.id, rj.id], || divergence(ci, cj));
                }
            }
        }
        Verdict::from_violations(violations.finish())
    }
}

fn divergence(a: &Blockchain, b: &Blockchain) -> String {
    format!("reads returned diverging chains {a:?} and {b:?} (neither prefixes the other)")
}

impl ConsistencyCriterion<BtOperation, BtResponse> for StrongPrefix {
    fn check(&self, history: &BtHistory) -> Verdict {
        if !self.use_index {
            return self.check_walk(history);
        }
        let reads = history.reads();
        let Some(forest) = ReachForest::from_chains(reads.iter().map(|(_, c)| *c)) else {
            return self.check_walk(history);
        };
        let counts = forest.diverging_later();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Verdict::admitted();
        }
        // Details for the first DETAIL_CAP diverging pairs in (i, j) order;
        // a scanned row holds at least one, so at most DETAIL_CAP rows are.
        let mut violations = CappedViolations::new("strong-prefix");
        'rows: for i in (0..reads.len()).filter(|&i| counts[i] > 0) {
            // LINT-ALLOW: only rows holding a violation, at most DETAIL_CAP of them
            for j in (i + 1)..reads.len() {
                if !forest.compatible(i, j) {
                    let (ri, ci) = reads[i];
                    let (rj, cj) = reads[j];
                    violations.push_with(vec![ri.id, rj.id], || divergence(ci, cj));
                    if violations.len() == DETAIL_CAP {
                        break 'rows;
                    }
                }
            }
        }
        violations.suppress(total - violations.len());
        Verdict::from_violations(violations.finish())
    }

    fn name(&self) -> &'static str {
        "strong-prefix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::workload::Workload;
    use btadt_types::{LongestChain, SelectionFunction};

    use crate::ops::BtRecorder;

    fn read(rec: &mut BtRecorder, p: u32, chain: Blockchain) {
        rec.instantaneous(ProcessId(p), BtOperation::Read, BtResponse::Chain(chain));
    }

    #[test]
    fn prefix_compatible_reads_are_admitted() {
        let mut w = Workload::new(2);
        let chain = w.linear_chain(6, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(2));
        read(&mut rec, 1, chain.truncated(4));
        read(&mut rec, 0, chain.truncated(6));
        assert!(StrongPrefix::new().admits(&rec.into_history()));
    }

    #[test]
    fn diverging_reads_are_rejected_with_both_witnesses() {
        let mut w = Workload::new(2);
        let tree = w.forked_tree(1, 2, 2);
        let chains = tree.all_chains();
        assert_eq!(chains.len(), 2);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chains[0].clone());
        read(&mut rec, 1, chains[1].clone());
        let verdict = StrongPrefix::new().check(&rec.into_history());
        assert!(!verdict.is_admitted());
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].witnesses.len(), 2);
    }

    #[test]
    fn divergence_within_a_single_process_is_also_rejected() {
        // Strong Prefix quantifies over all pairs of reads, not only reads at
        // different processes.
        let mut w = Workload::new(3);
        let tree = w.forked_tree(0, 2, 1);
        let chains = tree.all_chains();
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chains[0].clone());
        read(&mut rec, 0, chains[1].clone());
        assert!(!StrongPrefix::new().admits(&rec.into_history()));
    }

    #[test]
    fn reads_of_a_selected_chain_from_a_growing_tree_are_admitted() {
        // A single sequential writer: every read returns the chain selected
        // from a monotonically growing tree, hence prefixes never diverge
        // along a single branch.
        let mut w = Workload::new(4);
        let chain = w.linear_chain(8, 0);
        let mut tree = btadt_types::BlockTree::new();
        let f = LongestChain::new();
        let mut rec = BtRecorder::new();
        for b in chain.blocks().iter().skip(1) {
            tree.insert(b.clone()).unwrap();
            read(&mut rec, 0, f.select(&tree));
        }
        assert!(StrongPrefix::new().admits(&rec.into_history()));
    }

    #[test]
    fn history_without_reads_is_trivially_admitted() {
        let rec = BtRecorder::new();
        assert!(StrongPrefix::new().admits(&rec.into_history()));
    }
}
