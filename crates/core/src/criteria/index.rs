//! The per-history read index the Eventual Prefix, Ever-Growing Tree and
//! Block Validity checkers answer their quantifiers from.
//!
//! Each of those properties says "for every read `r`, some / all / how many
//! operations `x` with `e_rsp(r) ↗ e_inv(x)` …".  Program order is the union
//! of two halves, and each half is a threshold on one field of `x`:
//!
//! ```text
//! program_order(r, x) = [x.process = r.process ∧ x.seq > r.seq]  ∨  x.invoked_at > r.responded_at
//! ```
//!
//! so "the last / the best-scored / how many `x` after `r`" is a binary
//! search per half over keys sorted once, or over suffix maxima of keys
//! kept in another order.  Nothing here assumes a well-formed history:
//! timestamps may tie (`build_histories` stamps every op of one simulation
//! tick alike), seq order may disagree with time order, a record may be
//! invoked at or after its response.  Each search is exact on such input.

use btadt_history::{ProcessId, Timestamp};
use btadt_types::{Block, Blockchain, Score};

use crate::ops::{BtHistory, BtHistoryExt, BtOperation, BtRecord, BtResponse};

/// Suffix maxima of a key sequence: `max[k] = max(key[k..])`.
///
/// The maxima do not increase with `k`, so the *last* position whose key
/// exceeds a threshold `t` is one `partition_point`: the largest `k` with
/// `max[k] > t` has `max[k + 1] ≤ t`, hence `key[k] > t` itself.
pub(crate) struct SuffixMax<T> {
    max: Vec<T>,
}

impl<T: Ord + Copy> SuffixMax<T> {
    pub(crate) fn new(keys: impl DoubleEndedIterator<Item = T> + ExactSizeIterator) -> Self {
        let mut max = Vec::with_capacity(keys.len());
        for key in keys.rev() {
            let m = max.last().map_or(key, |&m: &T| m.max(key));
            max.push(m);
        }
        max.reverse();
        SuffixMax { max }
    }

    /// The last position whose key is `> t`.
    pub(crate) fn last_above(&self, t: T) -> Option<usize> {
        self.max.partition_point(|&m| m > t).checked_sub(1)
    }
}

/// Values keyed by a threshold field, sorted by key, with suffix maxima of
/// the values: "the largest value among keys `> t`" is one binary search.
pub(crate) struct Above<K> {
    keys: Vec<K>,
    max_value: Vec<u64>,
}

impl<K: Ord + Copy> Above<K> {
    pub(crate) fn new(mut pairs: Vec<(K, u64)>) -> Self {
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let keys = pairs.iter().map(|&(k, _)| k).collect();
        let max_value = SuffixMax::new(pairs.iter().map(|&(_, v)| v)).max;
        Above { keys, max_value }
    }

    /// The largest value among entries whose key is `> t`.
    pub(crate) fn max_value_above(&self, t: K) -> Option<u64> {
        let first = self.keys.partition_point(|&k| k <= t);
        self.max_value.get(first).copied()
    }
}

/// One process's reads: their positions in response order, with suffix
/// maxima of `invoked_at` and of `seq` over those positions.
pub(crate) struct ProcessReads {
    pub(crate) process: ProcessId,
    pub(crate) positions: Vec<usize>,
    invoked: SuffixMax<Timestamp>,
    seq: SuffixMax<u64>,
}

/// The complete reads of a history in response order
/// ([`BtHistoryExt::reads`]), each scored once, grouped per process.
pub(crate) struct ReadIndex<'h> {
    pub(crate) reads: Vec<(&'h BtRecord, &'h Blockchain)>,
    pub(crate) scores: Vec<u64>,
    /// Every process with at least one read, sorted by id.
    pub(crate) processes: Vec<ProcessReads>,
    /// For each read, the position of its process in `processes`.
    pub(crate) slot: Vec<usize>,
}

impl<'h> ReadIndex<'h> {
    pub(crate) fn new(history: &'h BtHistory, score: &dyn Score) -> Self {
        let reads = history.reads();
        let scores = reads.iter().map(|(_, chain)| score.score(chain)).collect();
        let mut order: Vec<usize> = (0..reads.len()).collect();
        // Stable: within a process the positions stay in response order.
        order.sort_by_key(|&i| reads[i].0.process);
        let mut slot = vec![0; reads.len()];
        let processes = order
            .chunk_by(|&a, &b| reads[a].0.process == reads[b].0.process)
            .enumerate()
            .map(|(k, positions)| {
                for &j in positions {
                    slot[j] = k;
                }
                ProcessReads {
                    process: reads[positions[0]].0.process,
                    positions: positions.to_vec(),
                    invoked: SuffixMax::new(positions.iter().map(|&j| reads[j].0.invoked_at)),
                    seq: SuffixMax::new(positions.iter().map(|&j| reads[j].0.seq)),
                }
            })
            .collect();
        ReadIndex {
            reads,
            scores,
            processes,
            slot,
        }
    }

    /// The position in `processes` of process `p`, if it has a read.
    pub(crate) fn slot_of(&self, p: ProcessId) -> Option<usize> {
        self.processes
            .binary_search_by_key(&p, |pr| pr.process)
            .ok()
    }

    /// The last read of `p` (in response order) other than read `i` that
    /// follows read `i` in program order — what the reference finds by
    /// filtering every read of the history with `program_order`.
    pub(crate) fn last_after(&self, p: &ProcessReads, i: usize) -> Option<usize> {
        let r = self.reads[i].0;
        let responded = r.responded_at.expect("reads are complete");
        // Operation order: invoked strictly after r responded.  Read `i`
        // itself qualifies only when it was invoked after its own response;
        // then the answer is the last such read before it.
        let by_time = p.invoked.last_above(responded).and_then(|k| {
            if p.positions[k] != i {
                return Some(k);
            }
            (0..k)
                .rev()
                .find(|&earlier| self.reads[p.positions[earlier]].0.invoked_at > responded)
        });
        // Process order: a later seq of the same process (never read `i`).
        let by_seq = (p.process == r.process)
            .then(|| p.seq.last_above(r.seq))
            .flatten();
        by_time.max(by_seq).map(|k| p.positions[k])
    }
}

/// The records [`BtHistoryExt::appends`] returns, in record order: the
/// quantifiers over appends count them or take a minimum, so they need
/// no response-time sort.
pub(crate) fn appends_unordered(history: &BtHistory) -> impl Iterator<Item = (&BtRecord, &Block)> {
    history
        .complete()
        .filter_map(|r| match (&r.op, r.response.as_ref()) {
            (BtOperation::Append(b), Some(BtResponse::Appended(_))) => Some((r, b)),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_max_finds_the_last_key_above_a_threshold() {
        let keys = [3u64, 9, 1, 7, 2, 7, 0];
        let sm = SuffixMax::new(keys.iter().copied());
        for t in 0..11 {
            let expected = keys.iter().rposition(|&k| k > t);
            assert_eq!(sm.last_above(t), expected, "threshold {t}");
        }
        assert_eq!(
            SuffixMax::new(std::iter::empty::<u64>()).last_above(0),
            None
        );
    }

    #[test]
    fn above_maximises_over_keys_past_a_threshold() {
        let pairs = vec![(5u64, 1), (2, 8), (5, 4), (9, 2), (7, 6)];
        let above = Above::new(pairs.clone());
        for t in 0..11 {
            let past: Vec<u64> = pairs.iter().filter(|p| p.0 > t).map(|p| p.1).collect();
            assert_eq!(
                above.max_value_above(t),
                past.iter().max().copied(),
                "threshold {t}"
            );
        }
    }
}
