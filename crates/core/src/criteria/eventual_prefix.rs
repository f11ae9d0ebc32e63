//! The Eventual Prefix property (Definition 3.3).
//!
//! For every read `r` returning a chain of score `s`, among the reads that
//! respond after `r` only finitely many *pairs* may disagree below `s`
//! (maximal common prefix score `< s`).  Intuitively: forks may coexist for
//! a finite interval, but for every cut of the history (the score of some
//! returned chain) all participants eventually adopt a common branch at
//! least up to that score.
//!
//! ## Finite-trace interpretation
//!
//! Over a recorded execution the checker verifies that divergence below `s`
//! has been *resolved by the end of the trace*: for every read `r` with
//! score `s`, the **last** read of every process that still reads after `r`
//! must pairwise share a common prefix of score at least `s`.  Reads whose
//! score cannot yet have stabilised (those among the last
//! [`EventualPrefix::ignore_last`] reads of the trace) may be excluded as
//! reference points; the protocol simulations end with a quiescent round so
//! the default of `0` is sound there.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use btadt_history::{ConsistencyCriterion, ProcessId, Verdict};
use btadt_types::{BlockIdHasher, Blockchain, Score};

use crate::criteria::index::{JudgeIndex, Needs};
use crate::criteria::{check_alone, CappedViolations, Property};
use crate::ops::{BtHistory, BtHistoryExt, BtOperation, BtRecord, BtResponse};

/// Checks the Eventual Prefix property under a given score function.
pub struct EventualPrefix {
    score: Arc<dyn Score>,
    ignore_last: usize,
    use_index: bool,
}

/// Every pair of one tuple of final reads with its `mcps`, in the checker's
/// pair order, and the minimum `mcps`.
struct FinalPairs {
    pairs: Vec<(usize, usize, u64)>,
    min: u64,
}

impl EventualPrefix {
    /// Creates the property; every read is used as a reference point.
    pub fn new(score: Arc<dyn Score>) -> Self {
        EventualPrefix {
            score,
            ignore_last: 0,
            use_index: true,
        }
    }

    /// Creates the property ignoring the last `ignore_last` reads of the
    /// trace as reference points (they are still used as evidence of later
    /// convergence).
    pub fn ignoring_last(score: Arc<dyn Score>, ignore_last: usize) -> Self {
        EventualPrefix {
            score,
            ignore_last,
            use_index: true,
        }
    }

    /// Creates the property in reference mode: every reference read
    /// rescans the history for each process's final read and re-zips every
    /// pair — the executable spec the indexed path is tested against.
    pub fn reference(score: Arc<dyn Score>) -> Self {
        EventualPrefix {
            score,
            ignore_last: 0,
            use_index: false,
        }
    }

    /// The fast body, O(R·P·log R) plus one `mcps` per pair of each
    /// distinct tuple of final reads.
    ///
    /// Each process's final read after `r` comes from
    /// [`JudgeIndex::last_after`] (two suffix-max searches, one per half of
    /// program order).  The tuple of finals changes rarely — in a recorded
    /// run it is almost always "every process's last read" — so it is
    /// first compared with the previous read's tuple, and the pairwise
    /// `mcps` are memoised per tuple (under the pass-through hasher) with
    /// their minimum.  The pairwise loop (and its `format!`) runs only for
    /// a reference score above that minimum: exactly the reads the
    /// reference reports, in the same pair order.
    fn check_indexed(&self, index: &JudgeIndex<'_>) -> Verdict {
        let reads = &index.reads;
        let processes = &index.by_process.processes;
        let mut violations = CappedViolations::new("eventual-prefix");
        let reference_count = reads.len().saturating_sub(self.ignore_last);
        let mut memo: HashMap<Vec<usize>, usize, BuildHasherDefault<BlockIdHasher>> =
            HashMap::default();
        let mut tuples: Vec<FinalPairs> = Vec::new();
        let mut finals = Vec::with_capacity(processes.len());
        // The last tuple looked up (never empty once set) and its slot.
        let (mut previous, mut current) = (Vec::new(), 0);
        for i in 0..reference_count {
            finals.clear();
            finals.extend(processes.iter().filter_map(|p| index.last_after(p, i)));
            if finals.len() < 2 {
                continue;
            }
            if finals != previous {
                let next = tuples.len();
                current = *memo.entry(finals.clone()).or_insert(next);
                if current == next {
                    tuples.push(self.final_pairs(index, &finals));
                }
                std::mem::swap(&mut previous, &mut finals);
            }
            let tuple = &tuples[current];
            let s = index.scores[i];
            if s <= tuple.min {
                continue;
            }
            let r = reads[i].0;
            for &(ja, jb, m) in tuple.pairs.iter().filter(|&&(_, _, m)| m < s) {
                let (ra, rb) = (reads[ja].0, reads[jb].0);
                violations.push_with(vec![r.id, ra.id, rb.id], || {
                    violation_detail(s, ra.process, rb.process, m)
                });
            }
        }
        Verdict::from_violations(violations.finish())
    }

    /// Every pair of one tuple of final reads with its `mcps`.
    fn final_pairs(&self, index: &JudgeIndex<'_>, finals: &[usize]) -> FinalPairs {
        let reads = &index.reads;
        let mut pairs = Vec::with_capacity(finals.len() * (finals.len() - 1) / 2);
        for (a, &ja) in finals.iter().enumerate() {
            for &jb in &finals[a + 1..] {
                pairs.push((ja, jb, self.score.mcps(reads[ja].1, reads[jb].1)));
            }
        }
        let min = pairs.iter().map(|&(_, _, m)| m).min().unwrap_or(u64::MAX);
        FinalPairs { pairs, min }
    }

    /// The spec: for every reference read, filter the whole history for
    /// each process's last later read, then zip every pair.
    fn check_reference(&self, history: &BtHistory) -> Verdict {
        let reads = history.reads();
        let mut violations = CappedViolations::new("eventual-prefix");
        let reference_count = reads.len().saturating_sub(self.ignore_last);

        for (i, (r, chain)) in reads.iter().enumerate().take(reference_count) {
            let s = self.score.score(chain);
            // For each process, its last read that responds after r.
            let mut finals: Vec<(&BtRecord, &Blockchain)> = Vec::new();
            for p in history.processes() {
                let last_after = reads
                    .iter()
                    .enumerate()
                    .filter(|(j, (other, _))| {
                        *j != i && other.process == p && history.program_order(r, other)
                    })
                    .map(|(_, (rec, c))| (*rec, *c))
                    .next_back();
                if let Some(found) = last_after {
                    finals.push(found);
                }
            }
            // Every pair of final reads must share a prefix of score ≥ s.
            for a in 0..finals.len() {
                // LINT-ALLOW: pairs of final reads, one per process (≤ P²)
                for b in (a + 1)..finals.len() {
                    let (ra, ca) = finals[a];
                    let (rb, cb) = finals[b];
                    let m = self.score.mcps(ca, cb);
                    if m < s {
                        violations.push_with(vec![r.id, ra.id, rb.id], || {
                            violation_detail(s, ra.process, rb.process, m)
                        });
                    }
                }
            }
        }
        Verdict::from_violations(violations.finish())
    }
}

fn violation_detail(s: u64, a: ProcessId, b: ProcessId, m: u64) -> String {
    format!(
        "reference read has score {s} but the final reads of {a} and {b} \
         only share a prefix of score {m}"
    )
}

impl Property for EventualPrefix {
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

impl ConsistencyCriterion<BtOperation, BtResponse> for EventualPrefix {
    fn check(&self, history: &BtHistory) -> Verdict {
        check_alone(self, history)
    }

    fn name(&self) -> &'static str {
        "eventual-prefix"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::workload::Workload;
    use btadt_types::{Blockchain, LengthScore};

    use crate::ops::BtRecorder;

    fn prop() -> EventualPrefix {
        EventualPrefix::new(Arc::new(LengthScore))
    }

    fn read(rec: &mut BtRecorder, p: u32, chain: Blockchain) {
        rec.instantaneous(ProcessId(p), BtOperation::Read, BtResponse::Chain(chain));
    }

    /// Two branches of length 2 over a common prefix of length 1, plus a
    /// longer continuation of branch 0 used as the convergence target.
    fn forked_chains() -> (Blockchain, Blockchain, Blockchain) {
        let mut w = Workload::new(9);
        let tree = w.forked_tree(1, 2, 2);
        let chains = tree.all_chains();
        let a = chains[0].clone();
        let b = chains[1].clone();
        // Convergence target: extend branch a by two more blocks.
        let mut target = a.clone();
        for n in 0..2 {
            let blk = btadt_types::BlockBuilder::new(target.tip())
                .nonce(1_000 + n)
                .build();
            target = target.extended_with(blk).unwrap();
        }
        (a, b, target)
    }

    #[test]
    fn temporary_divergence_that_converges_is_admitted() {
        let (a, b, target) = forked_chains();
        let mut rec = BtRecorder::new();
        // i and j first observe diverging branches (scores 3 and 3, mcps 1)...
        read(&mut rec, 0, a);
        read(&mut rec, 1, b);
        // ...but both finally adopt the same longer branch.
        read(&mut rec, 0, target.clone());
        read(&mut rec, 1, target);
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn persistent_divergence_is_rejected() {
        let (a, b, _) = forked_chains();
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, a.clone());
        read(&mut rec, 1, b.clone());
        // They never converge: final reads still diverge below score 3.
        read(&mut rec, 0, a);
        read(&mut rec, 1, b);
        let verdict = prop().check(&rec.into_history());
        assert!(!verdict.is_admitted());
        assert!(verdict.violations[0].detail.contains("share a prefix"));
        assert_eq!(verdict.violations[0].witnesses.len(), 3);
    }

    #[test]
    fn divergence_above_the_reference_score_is_allowed() {
        // The reference read has score 1 (the common prefix); later reads
        // may diverge in their suffixes as long as they agree up to score 1.
        let (a, b, _) = forked_chains();
        let common = a.common_prefix(&b);
        assert_eq!(common.len() - 1, 1);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, common);
        read(&mut rec, 0, a);
        read(&mut rec, 1, b);
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn single_process_histories_are_trivially_admitted() {
        let (a, b, _) = forked_chains();
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, a);
        read(&mut rec, 0, b);
        // Only one process: there is never a *pair* of diverging final reads.
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn ignoring_last_reads_relaxes_the_reference_set() {
        let (a, b, _) = forked_chains();
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, a.clone());
        read(&mut rec, 1, b.clone());
        read(&mut rec, 0, a);
        read(&mut rec, 1, b);
        let h = rec.into_history();
        assert!(!prop().admits(&h));
        // Ignoring all four reads as reference points admits the history.
        assert!(EventualPrefix::ignoring_last(Arc::new(LengthScore), 4).admits(&h));
    }

    #[test]
    fn strong_prefix_compatible_history_is_also_eventual_prefix() {
        // Sanity check for Theorem 3.1's direction SC ⊆ EC on a concrete
        // history: prefix-compatible reads trivially converge.
        let mut w = Workload::new(10);
        let chain = w.linear_chain(6, 0);
        let mut rec = BtRecorder::new();
        for k in 1..=6 {
            read(&mut rec, (k % 3) as u32, chain.truncated(k));
        }
        assert!(prop().admits(&rec.into_history()));
    }
}
