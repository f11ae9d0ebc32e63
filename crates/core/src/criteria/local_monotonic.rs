//! The Local Monotonic Read property (Definition 3.2, second bullet).
//!
//! For every two `read()` operations `r ↦ r'` issued by the *same* process
//! (process order), the score of the blockchain returned by `r` must not
//! exceed the score of the blockchain returned by `r'`.

use std::sync::Arc;

use btadt_history::{ConsistencyCriterion, OpId, ProcessId, Verdict};
use btadt_types::Score;

use crate::criteria::index::{JudgeIndex, Needs};
use crate::criteria::{check_alone, CappedViolations, Property};
use crate::ops::{BtHistory, BtOperation, BtResponse};

/// Checks the Local Monotonic Read property under a given score function.
pub struct LocalMonotonicRead {
    score: Arc<dyn Score>,
    use_index: bool,
}

impl LocalMonotonicRead {
    /// Creates the property for the given score function.
    pub fn new(score: Arc<dyn Score>) -> Self {
        LocalMonotonicRead {
            score,
            use_index: true,
        }
    }

    /// Creates the property in reference mode: every process's operations
    /// regrouped and every read rescored — the executable spec the indexed
    /// path is tested against.
    pub fn reference(score: Arc<dyn Score>) -> Self {
        LocalMonotonicRead {
            score,
            use_index: false,
        }
    }

    /// The fast body: each process's reads in process order, with the
    /// scores the index computed once.
    fn check_indexed(&self, index: &JudgeIndex<'_>) -> Verdict {
        let mut violations = CappedViolations::new("local-monotonic-read");
        for p in &index.by_process.processes {
            for w in p.in_process_order.windows(2) {
                let (first, second) = (index.reads[w[0]].0, index.reads[w[1]].0);
                let (s1, s2) = (index.scores[w[0]], index.scores[w[1]]);
                push_if_decreasing(&mut violations, p.process, (first.id, s1), (second.id, s2));
            }
        }
        Verdict::from_violations(violations.finish())
    }

    /// The spec: every process's complete operations in process order,
    /// filtered to reads, each scored.
    fn check_reference(&self, history: &BtHistory) -> Verdict {
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
                push_if_decreasing(&mut violations, process, (first.id, s1), (second.id, s2));
            }
        }
        Verdict::from_violations(violations.finish())
    }
}

/// Records a violation when the later of two consecutive reads of
/// `process` scores below the earlier.
fn push_if_decreasing(
    violations: &mut CappedViolations,
    process: ProcessId,
    (first, s1): (OpId, u64),
    (second, s2): (OpId, u64),
) {
    if s2 < s1 {
        violations.push_with(vec![first, second], || {
            format!(
                "process {process} read score {s1} then score {s2} (score must not decrease locally)"
            )
        });
    }
}

impl Property for LocalMonotonicRead {
    fn needs(&self) -> Needs<'_> {
        Needs {
            scores: self.use_index.then_some(self.score.as_ref()),
            ..Needs::default()
        }
    }

    fn check_with(&self, history: &BtHistory, index: &JudgeIndex<'_>) -> Verdict {
        if self.use_index {
            self.check_indexed(index)
        } else {
            self.check_reference(history)
        }
    }
}

impl ConsistencyCriterion<BtOperation, BtResponse> for LocalMonotonicRead {
    fn check(&self, history: &BtHistory) -> Verdict {
        check_alone(self, history)
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
