//! The Block Validity property (Definition 3.2, first bullet).
//!
//! Every block `b` of every blockchain returned by a `read()` must (i) be
//! valid (`b ∈ B'`, checked with the predicate `P` against the prefix of
//! the chain preceding `b`) and (ii) have been inserted with an `append(b)`
//! operation whose invocation precedes the read's response in program order.

use std::collections::HashMap;
use std::sync::Arc;

use btadt_history::{ConsistencyCriterion, Timestamp, Verdict};
use btadt_types::{Block, BlockId, ValidityPredicate};

use crate::criteria::index::appends_unordered;
use crate::criteria::CappedViolations;
use crate::ops::{BtHistory, BtHistoryExt, BtOperation, BtRecord, BtResponse};

/// Checks the Block Validity property.
pub struct BlockValidity {
    validity: Arc<dyn ValidityPredicate>,
    use_index: bool,
}

/// What the path from a chain's root to one block (inclusive) needs to be
/// admitted without a walk.
#[derive(Clone, Copy)]
struct PathAggregate {
    /// `P` accepts this block in its chain context (genesis: by assumption).
    valid: bool,
    /// `P` accepts every block on the path.
    path_valid: bool,
    /// The latest, over the non-genesis blocks of the path, of each block's
    /// earliest append invocation (`Timestamp(u64::MAX)` for a block never
    /// appended).
    path_appended_by: Timestamp,
}

impl PathAggregate {
    /// Before the root: nothing to reject yet.
    const EMPTY: PathAggregate = PathAggregate {
        valid: true,
        path_valid: true,
        path_appended_by: Timestamp::ZERO,
    };
}

impl BlockValidity {
    /// Creates the property for the given validity predicate `P`.
    pub fn new(validity: Arc<dyn ValidityPredicate>) -> Self {
        BlockValidity {
            validity,
            use_index: true,
        }
    }

    /// Creates the property in reference mode: no memoization, every block
    /// occurrence re-evaluates the predicate against its prefix and scans
    /// every append.  The executable spec the indexed path is tested against.
    pub fn reference(validity: Arc<dyn ValidityPredicate>) -> Self {
        BlockValidity {
            validity,
            use_index: false,
        }
    }

    /// The fast body: O(Δ) per read for the blocks no earlier read
    /// returned, then O(1).
    ///
    /// A block's chain context is its ancestor path, which its structural
    /// id determines below a given root (the same interning assumption the
    /// tree relies on), and the predicate is deterministic — so each
    /// (root id, block id) gets one [`PathAggregate`], filled from the
    /// deepest ancestor that already has one.  The root is part of the key
    /// because a pruned window's boundary root keeps its id but not its
    /// ancestors.  A read whose tip aggregate says "every block valid, every
    /// block's first append invoked before this read responded" cannot
    /// violate either clause and costs one lookup.  Any other read takes
    /// the reference walk (memoised verdicts, appends grouped by id, both
    /// halves of program order), so its violations come out in the same
    /// order as the reference's.
    fn check_indexed(&self, history: &BtHistory) -> Verdict {
        let mut violations = CappedViolations::new("block-validity");
        let mut appends_by_id: HashMap<BlockId, Vec<&BtRecord>> = HashMap::new();
        for (a, b) in appends_unordered(history) {
            appends_by_id.entry(b.id).or_default().push(a);
        }
        let first_append: HashMap<BlockId, Timestamp> = appends_by_id
            .iter()
            .map(|(&id, records)| {
                let first = records.iter().map(|a| a.invoked_at).min();
                (id, first.expect("grouped ids have an append"))
            })
            .collect();
        let mut paths: HashMap<(BlockId, BlockId), PathAggregate> = HashMap::new();

        for (read, chain) in history.reads() {
            let blocks = chain.blocks();
            let root = blocks[0].id;
            // The deepest block with an aggregate; extend from there.
            let mut known = blocks.len();
            while known > 0 && !paths.contains_key(&(root, blocks[known - 1].id)) {
                known -= 1;
            }
            let mut path = match known {
                0 => PathAggregate::EMPTY,
                k => paths[&(root, blocks[k - 1].id)],
            };
            for (idx, block) in blocks.iter().enumerate().skip(known) {
                if !block.is_genesis() {
                    let valid = self.validity.is_valid(block, &blocks[..idx]);
                    let appended = first_append
                        .get(&block.id)
                        .copied()
                        .unwrap_or(Timestamp(u64::MAX));
                    path = PathAggregate {
                        valid,
                        path_valid: path.path_valid && valid,
                        path_appended_by: path.path_appended_by.max(appended),
                    };
                } else {
                    path.valid = true;
                }
                paths.insert((root, block.id), path);
            }
            let responded = read.responded_at.expect("reads are complete");
            if path.path_valid && path.path_appended_by < responded {
                continue;
            }
            for block in blocks.iter().filter(|b| !b.is_genesis()) {
                if !paths[&(root, block.id)].valid {
                    violations.push_with(vec![read.id], || invalid_detail(block));
                }
                let appended_before = first_append
                    .get(&block.id)
                    .is_some_and(|&first| first < responded)
                    || appends_by_id.get(&block.id).is_some_and(|records| {
                        records
                            .iter()
                            .any(|a| a.process == read.process && a.seq < read.seq)
                    });
                if !appended_before {
                    violations.push_with(vec![read.id], || unappended_detail(block));
                }
            }
        }
        Verdict::from_violations(violations.finish())
    }

    /// The spec: every block of every read, its predicate against its
    /// prefix, and every append of the history.
    fn check_reference(&self, history: &BtHistory) -> Verdict {
        let mut violations = CappedViolations::new("block-validity");
        let appends = history.appends();
        for (read, chain) in history.reads() {
            let blocks = chain.blocks();
            for (idx, block) in blocks.iter().enumerate() {
                if block.is_genesis() {
                    continue;
                }
                // (i) validity against the prefix preceding the block.
                if !self.validity.is_valid(block, &blocks[..idx]) {
                    violations.push_with(vec![read.id], || invalid_detail(block));
                }
                // (ii) the block was appended, and the append's invocation
                // precedes this read's response (e_inv(append) ↗ e_rsp(read)).
                let precedes = |a: &BtRecord| {
                    a.invoked_at < read.responded_at.unwrap_or(a.invoked_at)
                        || (a.process == read.process && a.seq < read.seq)
                };
                let appended_before = appends
                    .iter()
                    .any(|(a, b, _ok)| b.id == block.id && precedes(a));
                if !appended_before {
                    violations.push_with(vec![read.id], || unappended_detail(block));
                }
            }
        }
        Verdict::from_violations(violations.finish())
    }
}

fn invalid_detail(block: &Block) -> String {
    format!(
        "read returned block {} which is invalid in its chain context",
        block.id
    )
}

fn unappended_detail(block: &Block) -> String {
    format!(
        "read returned block {} with no preceding append({}) invocation",
        block.id, block.id
    )
}

impl ConsistencyCriterion<BtOperation, BtResponse> for BlockValidity {
    fn check(&self, history: &BtHistory) -> Verdict {
        if self.use_index {
            self.check_indexed(history)
        } else {
            self.check_reference(history)
        }
    }

    fn name(&self) -> &'static str {
        "block-validity"
    }
}

/// Convenience used by tests and the protocol classifier: the set of block
/// ids ever appended successfully in a history.
pub fn appended_block_ids(history: &BtHistory) -> Vec<BlockId> {
    let mut ids: Vec<BlockId> = history
        .appends()
        .into_iter()
        .filter(|(_, _, ok)| *ok)
        .map(|(_, b, _)| b.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::{AlwaysValid, Block, BlockBuilder, Blockchain, MaxPayload, Transaction};

    use crate::ops::BtRecorder;

    fn prop() -> BlockValidity {
        BlockValidity::new(Arc::new(AlwaysValid))
    }

    #[test]
    fn read_of_appended_valid_block_is_admitted() {
        let mut rec = BtRecorder::new();
        let b1 = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let chain = Blockchain::genesis_only()
            .extended_with(b1.clone())
            .unwrap();
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Append(b1),
            BtResponse::Appended(true),
        );
        rec.instantaneous(ProcessId(1), BtOperation::Read, BtResponse::Chain(chain));
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn read_of_never_appended_block_is_rejected() {
        let mut rec = BtRecorder::new();
        let b1 = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let chain = Blockchain::genesis_only().extended_with(b1).unwrap();
        rec.instantaneous(ProcessId(0), BtOperation::Read, BtResponse::Chain(chain));
        let verdict = prop().check(&rec.into_history());
        assert!(!verdict.is_admitted());
        assert!(verdict.violations[0].detail.contains("no preceding append"));
    }

    #[test]
    fn read_of_block_appended_later_is_rejected() {
        let mut rec = BtRecorder::new();
        let b1 = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let chain = Blockchain::genesis_only()
            .extended_with(b1.clone())
            .unwrap();
        // read at p0 happens strictly before the append at p1
        rec.instantaneous(ProcessId(0), BtOperation::Read, BtResponse::Chain(chain));
        rec.instantaneous(
            ProcessId(1),
            BtOperation::Append(b1),
            BtResponse::Appended(true),
        );
        assert!(!prop().admits(&rec.into_history()));
    }

    #[test]
    fn read_of_invalid_block_is_rejected_even_if_appended() {
        let prop = BlockValidity::new(Arc::new(MaxPayload::new(0)));
        let mut rec = BtRecorder::new();
        let fat = BlockBuilder::new(&Block::genesis())
            .nonce(1)
            .push_tx(Transaction::transfer(1, 1, 2, 3))
            .build();
        let chain = Blockchain::genesis_only()
            .extended_with(fat.clone())
            .unwrap();
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Append(fat),
            BtResponse::Appended(true),
        );
        rec.instantaneous(ProcessId(0), BtOperation::Read, BtResponse::Chain(chain));
        let verdict = prop.check(&rec.into_history());
        assert!(!verdict.is_admitted());
        assert!(verdict.violations[0].detail.contains("invalid"));
    }

    #[test]
    fn genesis_only_reads_are_always_admitted() {
        let mut rec = BtRecorder::new();
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Read,
            BtResponse::Chain(Blockchain::genesis_only()),
        );
        assert!(prop().admits(&rec.into_history()));
    }

    #[test]
    fn appended_block_ids_lists_successful_appends_only() {
        let mut rec = BtRecorder::new();
        let b1 = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let b2 = BlockBuilder::new(&Block::genesis()).nonce(2).build();
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Append(b1.clone()),
            BtResponse::Appended(true),
        );
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Append(b2),
            BtResponse::Appended(false),
        );
        let ids = appended_block_ids(&rec.into_history());
        assert_eq!(ids, vec![b1.id]);
    }
}
