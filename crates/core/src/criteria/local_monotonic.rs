//! The Local Monotonic Read property (Definition 3.2, second bullet).
//!
//! For every two `read()` operations `r ↦ r'` issued by the *same* process
//! (process order), the score of the blockchain returned by `r` must not
//! exceed the score of the blockchain returned by `r'`.

use std::sync::Arc;

use btadt_history::{ConsistencyCriterion, Verdict};
use btadt_types::Score;

use crate::criteria::CappedViolations;
use crate::ops::{BtHistory, BtOperation, BtResponse};

/// Checks the Local Monotonic Read property under a given score function.
pub struct LocalMonotonicRead {
    score: Arc<dyn Score>,
}

impl LocalMonotonicRead {
    /// Creates the property for the given score function.
    pub fn new(score: Arc<dyn Score>) -> Self {
        LocalMonotonicRead { score }
    }
}

impl ConsistencyCriterion<BtOperation, BtResponse> for LocalMonotonicRead {
    fn check(&self, history: &BtHistory) -> Verdict {
        let mut violations = CappedViolations::new("local-monotonic-read");
        for (process, ops) in history.by_process() {
            let reads: Vec<_> = ops
                .iter()
                .filter_map(|r| match (&r.op, r.response.as_ref()) {
                    (BtOperation::Read, Some(BtResponse::Chain(c))) => Some((*r, c)),
                    _ => None,
                })
                .collect();
            for w in reads.windows(2) {
                let (first, first_chain) = w[0];
                let (second, second_chain) = w[1];
                let s1 = self.score.score(first_chain);
                let s2 = self.score.score(second_chain);
                if s2 < s1 {
                    violations.push_with(vec![first.id, second.id], || {
                        format!(
                            "process {process} read score {s1} then score {s2} (score must not decrease locally)"
                        )
                    });
                }
            }
        }
        Verdict::from_violations(violations.finish())
    }

    fn name(&self) -> &'static str {
        "local-monotonic-read"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::{Blockchain, LengthScore};

    use crate::ops::BtRecorder;
    use btadt_types::workload::Workload;

    fn prop() -> LocalMonotonicRead {
        LocalMonotonicRead::new(Arc::new(LengthScore))
    }

    fn read(rec: &mut BtRecorder, p: u32, chain: Blockchain) {
        rec.instantaneous(ProcessId(p), BtOperation::Read, BtResponse::Chain(chain));
    }

    #[test]
    fn non_decreasing_reads_are_admitted() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(5, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(1));
        read(&mut rec, 0, chain.truncated(3));
        read(&mut rec, 0, chain.truncated(3));
        read(&mut rec, 0, chain.truncated(5));
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn decreasing_reads_at_the_same_process_are_rejected() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(5, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(4));
        read(&mut rec, 0, chain.truncated(2));
        let verdict = prop().check(&rec.into_history());
        assert!(!verdict.is_admitted());
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].witnesses.len(), 2);
    }

    #[test]
    fn decreasing_scores_across_different_processes_are_allowed() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(5, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(4));
        read(&mut rec, 1, chain.truncated(2));
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn appends_between_reads_are_ignored() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(3, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(1));
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Append(chain.blocks()[2].clone()),
            BtResponse::Appended(true),
        );
        read(&mut rec, 0, chain.truncated(2));
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn empty_history_is_admitted() {
        assert!(prop().admits(&BtRecorder::new().into_history()));
    }
}
