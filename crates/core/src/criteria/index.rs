//! The one index a criterion check builds and every property answers from.
//!
//! A [`JudgeIndex`] is built once per `check` call, from one pass over the
//! history's records, and holds only what the checked properties ask for
//! ([`Needs`]): the complete reads in response order (always), their
//! scores and per-process suffix maxima ([`ReadIndex`]), the first-append
//! time of every block id, the append lists Ever-Growing Tree counts, and
//! the [`ReachForest`] of the read chains.  It lives for that one call:
//! nothing is kept on the history between calls.
//!
//! Eventual Prefix, Ever-Growing Tree and Block Validity say "for every
//! read `r`, some / all / how many operations `x` with `e_rsp(r) ↗
//! e_inv(x)` …".  Program order is the union of two halves, and each half
//! is a threshold on one field of `x`:
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
use btadt_types::{Block, BlockIdMap, Blockchain, Score};

use crate::ops::{BtHistory, BtOperation, BtRecord, BtResponse};
use crate::reachability::ReachForest;

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

/// One process's reads: their positions in response order and in process
/// order, with suffix maxima of `invoked_at` and of `seq` over the former.
pub(crate) struct ProcessReads {
    pub(crate) process: ProcessId,
    pub(crate) positions: Vec<usize>,
    /// The same positions by `seq`, ties in record order: the order of
    /// [`ConcurrentHistory::process_sequence`](btadt_history::ConcurrentHistory::process_sequence).
    pub(crate) in_process_order: Vec<usize>,
    invoked: SuffixMax<Timestamp>,
    seq: SuffixMax<u64>,
}

/// The reads of a history grouped per process.
#[derive(Default)]
pub(crate) struct ReadIndex {
    /// Every process with at least one read, sorted by id.
    pub(crate) processes: Vec<ProcessReads>,
    /// For each read, the position of its process in `processes`.
    pub(crate) slot: Vec<usize>,
}

impl ReadIndex {
    /// Groups `reads` (in response order; `record_at[i]` is read `i`'s
    /// position among the history's records) per process.
    fn new(reads: &[(&BtRecord, &Blockchain)], record_at: &[usize]) -> Self {
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
                let mut in_process_order = positions.to_vec();
                in_process_order.sort_unstable_by_key(|&j| (reads[j].0.seq, record_at[j]));
                ProcessReads {
                    process: reads[positions[0]].0.process,
                    positions: positions.to_vec(),
                    in_process_order,
                    invoked: SuffixMax::new(positions.iter().map(|&j| reads[j].0.invoked_at)),
                    seq: SuffixMax::new(positions.iter().map(|&j| reads[j].0.seq)),
                }
            })
            .collect();
        ReadIndex { processes, slot }
    }

    /// The position in `processes` of process `p`, if it has a read.
    pub(crate) fn slot_of(&self, p: ProcessId) -> Option<usize> {
        self.processes
            .binary_search_by_key(&p, |pr| pr.process)
            .ok()
    }
}

/// The appends Ever-Growing Tree counts after each read.
#[derive(Default)]
pub(crate) struct AppendLists {
    /// Every append's invocation time, sorted.
    pub(crate) by_time: Vec<Timestamp>,
    /// Per process with a read (aligned with [`ReadIndex::processes`]): its
    /// appends as (seq, invocation), sorted.
    pub(crate) by_seq: Vec<Vec<(u64, Timestamp)>>,
    /// How many processes the history names, over every record.
    pub(crate) processes: usize,
}

/// Which parts of a [`JudgeIndex`] a check reads.
#[derive(Clone, Copy, Default)]
pub(crate) struct Needs<'s> {
    /// Score every read with this function and group the reads per process.
    pub(crate) scores: Option<&'s dyn Score>,
    /// The first-append invocation of every block id.
    pub(crate) first_append: bool,
    /// The [`AppendLists`].
    pub(crate) append_lists: bool,
    /// The [`ReachForest`] of the read chains.
    pub(crate) forest: bool,
}

impl<'s> Needs<'s> {
    /// What either of two checks reads.  The parts of one criterion share
    /// one score function, so either's is the one.
    pub(crate) fn union(self, other: Needs<'s>) -> Needs<'s> {
        Needs {
            scores: self.scores.or(other.scores),
            first_append: self.first_append || other.first_append,
            append_lists: self.append_lists || other.append_lists,
            forest: self.forest || other.forest,
        }
    }
}

/// Everything the checked properties answer their quantifiers from,
/// built once per check.
pub(crate) struct JudgeIndex<'h> {
    /// The complete reads in response order ([`BtHistoryExt::reads`]).
    ///
    /// [`BtHistoryExt::reads`]: crate::ops::BtHistoryExt::reads
    pub(crate) reads: Vec<(&'h BtRecord, &'h Blockchain)>,
    /// The score of every read (empty unless [`Needs::scores`]).
    pub(crate) scores: Vec<u64>,
    /// The reads per process (empty unless [`Needs::scores`] or
    /// [`Needs::append_lists`]).
    pub(crate) by_process: ReadIndex,
    /// The earliest append invocation of every appended block id, over
    /// every complete append, refused ones included.
    pub(crate) first_append: BlockIdMap<Timestamp>,
    pub(crate) appends: AppendLists,
    /// `None` when not asked for, or when the read chains do not form one
    /// tree (see [`ReachForest::from_chains`]).
    pub(crate) forest: Option<ReachForest>,
}

impl<'h> JudgeIndex<'h> {
    /// One pass over the records, then the parts `needs` names.
    pub(crate) fn new(history: &'h BtHistory, needs: Needs<'_>) -> Self {
        let mut reads = Vec::new();
        let mut first_append = BlockIdMap::default();
        let mut appends_by_time = Vec::new();
        let mut own_appends = Vec::new();
        let mut named = Vec::new();
        for (at, r) in history.records().iter().enumerate() {
            if needs.append_lists && named.last() != Some(&r.process) {
                named.push(r.process);
            }
            if !r.is_complete() {
                continue;
            }
            match (&r.op, r.response.as_ref()) {
                (BtOperation::Read, Some(BtResponse::Chain(chain))) => reads.push((at, r, chain)),
                (BtOperation::Append(block), Some(BtResponse::Appended(_))) => {
                    if needs.first_append {
                        first_append
                            .entry(block.id)
                            .and_modify(|t: &mut Timestamp| *t = (*t).min(r.invoked_at))
                            .or_insert(r.invoked_at);
                    }
                    if needs.append_lists {
                        appends_by_time.push(r.invoked_at);
                        own_appends.push((r.process, r.seq, r.invoked_at));
                    }
                }
                _ => {}
            }
        }
        // `by_response_time`'s order: a stable sort by (response, id) of
        // the records in record order.
        reads.sort_unstable_by_key(|&(at, r, _)| (r.responded_at, r.id, at));
        let record_at: Vec<usize> = reads.iter().map(|&(at, _, _)| at).collect();
        let reads: Vec<(&BtRecord, &Blockchain)> =
            reads.into_iter().map(|(_, r, c)| (r, c)).collect();

        let scores = needs.scores.map_or_else(Vec::new, |score| {
            reads.iter().map(|(_, chain)| score.score(chain)).collect()
        });
        let by_process = if needs.scores.is_some() || needs.append_lists {
            ReadIndex::new(&reads, &record_at)
        } else {
            ReadIndex::default()
        };
        let mut appends = AppendLists::default();
        if needs.append_lists {
            appends_by_time.sort_unstable();
            let mut by_seq = vec![Vec::new(); by_process.processes.len()];
            for (p, seq, invoked) in own_appends {
                if let Some(k) = by_process.slot_of(p) {
                    by_seq[k].push((seq, invoked));
                }
            }
            for list in &mut by_seq {
                list.sort_unstable();
            }
            named.sort_unstable();
            named.dedup();
            appends = AppendLists {
                by_time: appends_by_time,
                by_seq,
                processes: named.len(),
            };
        }
        let forest = needs
            .forest
            .then(|| ReachForest::from_chains(reads.iter().map(|(_, chain)| *chain)))
            .flatten();
        JudgeIndex {
            reads,
            scores,
            by_process,
            first_append,
            appends,
            forest,
        }
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
