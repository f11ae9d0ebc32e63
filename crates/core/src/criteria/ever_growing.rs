//! The Ever-Growing Tree property (Definition 3.2, fourth bullet).
//!
//! In an infinite history with infinitely many appends and reads
//! (`E(a*, r*)`), for every read `r` returning a chain of score `s` the set
//! of later reads (program order) returning a score `≤ s` must be finite —
//! i.e. scores eventually grow past every value that was ever read.
//!
//! ## Finite-trace interpretation
//!
//! The property quantifies over histories with *infinitely many appends*
//! (`E(a*, r*)`): scores must outgrow every value ever read **as long as
//! appends keep coming**.  Over a recorded (finite) execution the checker
//! therefore verifies the witnessable form: for every read `r` with score
//! `s`, if at least [`EverGrowingTree::min_later_appends`] append operations
//! are invoked after `r` in program order (i.e. growth still had material to
//! come from), then at least one read after `r` must return a score strictly
//! greater than `s`.  Reads issued once appends have (almost) ceased — the
//! quiescent tail of a simulation — are exempt, exactly as histories with
//! finitely many appends are outside the property's scope.  The window
//! defaults to `2 × number of processes`.

use std::sync::Arc;

use btadt_history::{ConsistencyCriterion, Verdict};
use btadt_types::Score;

use crate::criteria::index::{Above, JudgeIndex, Needs};
use crate::criteria::{check_alone, CappedViolations, Property};
use crate::ops::{BtHistory, BtHistoryExt, BtOperation, BtResponse};

/// Checks the Ever-Growing Tree property under a given score function.
pub struct EverGrowingTree {
    score: Arc<dyn Score>,
    min_later_appends: Option<usize>,
    use_index: bool,
}

impl EverGrowingTree {
    /// Creates the property with the default window
    /// (`2 × number of processes`, computed per history).
    pub fn new(score: Arc<dyn Score>) -> Self {
        EverGrowingTree {
            score,
            min_later_appends: None,
            use_index: true,
        }
    }

    /// Creates the property with an explicit window: a read is only required
    /// to observe growth if at least `window` append operations follow it.
    pub fn with_window(score: Arc<dyn Score>, window: usize) -> Self {
        EverGrowingTree {
            score,
            min_later_appends: Some(window),
            use_index: true,
        }
    }

    /// Creates the property (default window) in reference mode: every read
    /// filters every append and every read of the history with
    /// `program_order` — the executable spec the indexed path is tested
    /// against.
    pub fn reference(score: Arc<dyn Score>) -> Self {
        EverGrowingTree {
            score,
            min_later_appends: None,
            use_index: false,
        }
    }

    /// The window for a history that names `processes` processes.
    fn window(&self, processes: usize) -> usize {
        self.min_later_appends
            .unwrap_or_else(|| 2 * processes.max(1))
    }

    /// The fast body, O((R + A)·log(R + A)).
    ///
    /// "At least `window` appends follow `r`" is decided from the two
    /// halves of program order: `A_op` appends invoked after `r` responded
    /// (one search over sorted invocation times) and `A_proc` appends of
    /// `r`'s process with a later seq (one search over its seqs).  The
    /// exact count `|A_op ∪ A_proc|` lies in `[max, sum]` of the two; only
    /// when `window` falls inside that band is the same-process suffix
    /// scanned, and then `A_proc < window`, so the scan is O(window).
    /// "Some later read scores above `s`" is the larger of two suffix
    /// maxima of scores: over reads sorted by invocation, and over `r`'s
    /// process's reads sorted by seq.  (Read `r` itself may fall in the
    /// first set on an inverted record, but its score is `s`, not `> s`.)
    fn check_indexed(&self, index: &JudgeIndex<'_>) -> Verdict {
        let window = self.window(index.appends.processes);
        let appends_by_time = &index.appends.by_time;
        let by_process = &index.by_process;
        let reads_by_time = Above::new(
            index
                .reads
                .iter()
                .zip(&index.scores)
                .map(|((r, _), &s)| (r.invoked_at, s))
                .collect(),
        );
        let reads_by_seq: Vec<Above<u64>> = by_process
            .processes
            .iter()
            .map(|p| {
                let pairs = p.positions.iter();
                let pairs = pairs.map(|&j| (index.reads[j].0.seq, index.scores[j]));
                Above::new(pairs.collect())
            })
            .collect();

        let mut violations = CappedViolations::new("ever-growing-tree");
        for (i, ((r, _), &s)) in index.reads.iter().zip(&index.scores).enumerate() {
            let responded = r.responded_at.expect("reads are complete");
            let by_time =
                appends_by_time.len() - appends_by_time.partition_point(|&t| t <= responded);
            let own = &index.appends.by_seq[by_process.slot[i]];
            let own = &own[own.partition_point(|&(seq, _)| seq <= r.seq)..];
            // |A_op ∪ A_proc| = A_op + the same-process later appends
            // invoked no later than r's response.
            let later_appends = || by_time + own.iter().filter(|&&(_, t)| t <= responded).count();
            if by_time.max(own.len()) < window
                && (by_time + own.len() < window || later_appends() < window)
            {
                continue; // quiescent tail: finitely many appends remain
            }
            let best_later = reads_by_time
                .max_value_above(responded)
                .max(reads_by_seq[by_process.slot[i]].max_value_above(r.seq));
            if best_later.is_some_and(|best| best > s) {
                continue;
            }
            violations.push_with(vec![r.id], || violation_detail(s, later_appends()));
        }
        Verdict::from_violations(violations.finish())
    }

    /// The spec: for every read, filter every append and every read of the
    /// history with `program_order`.
    fn check_reference(&self, history: &BtHistory) -> Verdict {
        let reads = history.reads();
        let appends = history.appends();
        let window = self.window(history.processes().len());
        let mut violations = CappedViolations::new("ever-growing-tree");

        for (i, (r, chain)) in reads.iter().enumerate() {
            let s = self.score.score(chain);
            // Appends invoked after r: the history still "has material" for
            // growth, so growth must be observed by some later read.
            let later_appends = appends
                .iter()
                .filter(|(a, _, _)| history.program_order(r, a))
                .count();
            if later_appends < window {
                continue; // quiescent tail: finitely many appends remain
            }
            let later_reads: Vec<_> = reads
                .iter()
                .enumerate()
                .filter(|(j, (other, _))| *j != i && history.program_order(r, other))
                .map(|(_, pair)| pair)
                .collect();
            let grew = later_reads
                .iter()
                .any(|(_, later_chain)| self.score.score(later_chain) > s);
            if !grew {
                violations.push_with(vec![r.id], || violation_detail(s, later_appends));
            }
        }
        Verdict::from_violations(violations.finish())
    }
}

fn violation_detail(s: u64, later_appends: usize) -> String {
    format!(
        "read returned score {s}; {later_appends} appends followed but no later \
         read exceeds that score"
    )
}

impl Property for EverGrowingTree {
    fn needs(&self) -> Needs<'_> {
        Needs {
            scores: self.use_index.then_some(self.score.as_ref()),
            append_lists: self.use_index,
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

impl ConsistencyCriterion<BtOperation, BtResponse> for EverGrowingTree {
    fn check(&self, history: &BtHistory) -> Verdict {
        check_alone(self, history)
    }

    fn name(&self) -> &'static str {
        "ever-growing-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::workload::Workload;
    use btadt_types::{Blockchain, LengthScore};

    use crate::ops::BtRecorder;

    fn prop(window: usize) -> EverGrowingTree {
        EverGrowingTree::with_window(Arc::new(LengthScore), window)
    }

    fn read(rec: &mut BtRecorder, p: u32, chain: Blockchain) {
        rec.instantaneous(ProcessId(p), BtOperation::Read, BtResponse::Chain(chain));
    }

    fn append(rec: &mut BtRecorder, p: u32, chain: &Blockchain, k: usize) {
        rec.instantaneous(
            ProcessId(p),
            BtOperation::Append(chain.blocks()[k].clone()),
            BtResponse::Appended(true),
        );
    }

    #[test]
    fn growing_scores_are_admitted() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(10, 0);
        let mut rec = BtRecorder::new();
        for k in 1..=10 {
            append(&mut rec, (k % 2) as u32, &chain, k);
            read(&mut rec, (k % 2) as u32, chain.truncated(k));
        }
        assert!(prop(2).admits(&rec.into_history()));
    }

    #[test]
    fn stagnating_scores_with_ongoing_appends_are_rejected() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(10, 0);
        let mut rec = BtRecorder::new();
        // The tree keeps receiving appends, yet every read keeps returning
        // the same score-3 chain: the early reads must be flagged.
        for k in 1..=8 {
            append(&mut rec, 0, &chain, k);
            read(&mut rec, 0, chain.truncated(3));
        }
        let verdict = prop(3).check(&rec.into_history());
        assert!(!verdict.is_admitted());
    }

    #[test]
    fn quiescent_tail_reads_are_exempt() {
        // Once appends stop, reads stuck at the final score are fine: the
        // history has only finitely many appends after them.
        let mut w = Workload::new(1);
        let chain = w.linear_chain(5, 0);
        let mut rec = BtRecorder::new();
        for k in 1..=5 {
            append(&mut rec, 0, &chain, k);
            read(&mut rec, 0, chain.truncated(k));
        }
        for _ in 0..10 {
            read(&mut rec, 1, chain.clone());
        }
        assert!(prop(2).admits(&rec.into_history()));
    }

    #[test]
    fn default_window_scales_with_processes() {
        let p = EverGrowingTree::new(Arc::new(LengthScore));
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, Blockchain::genesis_only());
        read(&mut rec, 1, Blockchain::genesis_only());
        let h = rec.into_history();
        assert_eq!(p.window(h.processes().len()), 4);
        // No appends at all: nothing is required.
        assert!(p.admits(&h));
    }

    #[test]
    fn growth_observed_by_any_later_read_suffices() {
        let mut w = Workload::new(1);
        let chain = w.linear_chain(6, 0);
        let mut rec = BtRecorder::new();
        read(&mut rec, 0, chain.truncated(2));
        // several appends and stagnant reads ...
        for k in 1..=4 {
            append(&mut rec, 1, &chain, k);
            read(&mut rec, 1, chain.truncated(2));
        }
        // ... and finally a read that grows past the reference score.
        read(&mut rec, 0, chain.truncated(4));
        assert!(prop(3).admits(&rec.into_history()));
    }
}
