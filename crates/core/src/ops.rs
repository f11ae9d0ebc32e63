//! The BT-ADT operation alphabet and its history types.
//!
//! The input alphabet of the BlockTree ADT is
//! `A = {append(b), read() : b ∈ B}` and the output alphabet is
//! `B = BC ∪ {true, false}` (Definition 3.1).  Concurrent histories over
//! these operations are the objects the consistency criteria judge.

use btadt_history::{ConcurrentHistory, HistoryRecorder, OperationRecord};
use btadt_types::{Block, Blockchain};

/// An input symbol of the BT-ADT.
#[derive(Clone, Debug, PartialEq)]
pub enum BtOperation {
    /// `append(b)`: request to append block `b`.
    Append(Block),
    /// `read()`: request the currently selected blockchain.
    Read,
}

impl BtOperation {
    /// Returns the block carried by an `append`, if any.
    pub fn block(&self) -> Option<&Block> {
        match self {
            BtOperation::Append(b) => Some(b),
            BtOperation::Read => None,
        }
    }

    /// Returns `true` iff this is a `read()`.
    pub fn is_read(&self) -> bool {
        matches!(self, BtOperation::Read)
    }

    /// Returns `true` iff this is an `append(b)`.
    pub fn is_append(&self) -> bool {
        matches!(self, BtOperation::Append(_))
    }
}

/// An output symbol of the BT-ADT.
#[derive(Clone, Debug, PartialEq)]
pub enum BtResponse {
    /// Outcome of an `append(b)` (`true` iff the block was appended).
    Appended(bool),
    /// The blockchain returned by a `read()`.
    Chain(Blockchain),
}

impl BtResponse {
    /// Returns the chain carried by a `read()` response, if any.
    pub fn chain(&self) -> Option<&Blockchain> {
        match self {
            BtResponse::Chain(c) => Some(c),
            BtResponse::Appended(_) => None,
        }
    }

    /// Returns the boolean outcome of an `append`, if any.
    pub fn appended(&self) -> Option<bool> {
        match self {
            BtResponse::Appended(b) => Some(*b),
            BtResponse::Chain(_) => None,
        }
    }
}

/// A concurrent history over BT-ADT operations.
pub type BtHistory = ConcurrentHistory<BtOperation, BtResponse>;

/// A recorder building a [`BtHistory`].
pub type BtRecorder = HistoryRecorder<BtOperation, BtResponse>;

/// One operation record of a [`BtHistory`].
pub type BtRecord = OperationRecord<BtOperation, BtResponse>;

/// Convenience helpers over BT histories used by every criterion.
pub trait BtHistoryExt {
    /// All complete `read()` operations together with the chain they
    /// returned, sorted by response time.
    fn reads(&self) -> Vec<(&BtRecord, &Blockchain)>;

    /// All complete `append(b)` operations together with their block and
    /// boolean outcome.
    fn appends(&self) -> Vec<(&BtRecord, &Block, bool)>;

    /// The history purged of unsuccessful append responses, as Section 3.4
    /// does before comparing history families.
    fn purged_of_failed_appends(&self) -> BtHistory;
}

/// The complete records `keep` maps to `Some`, in the order of
/// [`ConcurrentHistory::by_response_time`](btadt_history::ConcurrentHistory::by_response_time).
/// Filtering before the stable sort yields the same sequence as filtering
/// after it, and sorts only the kept records.
fn in_response_order<'h, T>(
    history: &'h BtHistory,
    keep: impl Fn(&'h BtRecord) -> Option<T>,
) -> Vec<(&'h BtRecord, T)> {
    let mut kept: Vec<(&BtRecord, T)> = history
        .complete()
        .filter_map(|r| keep(r).map(|t| (r, t)))
        .collect();
    kept.sort_by_key(|(r, _)| {
        let responded = r.responded_at;
        (
            responded.expect("complete() yields only responded records"),
            r.id,
        )
    });
    kept
}

impl BtHistoryExt for BtHistory {
    fn reads(&self) -> Vec<(&BtRecord, &Blockchain)> {
        in_response_order(self, |r| match (&r.op, r.response.as_ref()) {
            (BtOperation::Read, Some(BtResponse::Chain(c))) => Some(c),
            _ => None,
        })
    }

    fn appends(&self) -> Vec<(&BtRecord, &Block, bool)> {
        in_response_order(self, |r| match (&r.op, r.response.as_ref()) {
            (BtOperation::Append(b), Some(BtResponse::Appended(ok))) => Some((b, *ok)),
            _ => None,
        })
        .into_iter()
        .map(|(r, (b, ok))| (r, b, ok))
        .collect()
    }

    fn purged_of_failed_appends(&self) -> BtHistory {
        self.filtered(|r| {
            !matches!(
                (&r.op, r.response.as_ref()),
                (BtOperation::Append(_), Some(BtResponse::Appended(false)))
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_history::ProcessId;
    use btadt_types::{Block, BlockBuilder};

    fn block(nonce: u64) -> Block {
        BlockBuilder::new(&Block::genesis()).nonce(nonce).build()
    }

    #[test]
    fn operation_accessors() {
        let b = block(1);
        let append = BtOperation::Append(b.clone());
        assert!(append.is_append());
        assert!(!append.is_read());
        assert_eq!(append.block(), Some(&b));
        assert!(BtOperation::Read.is_read());
        assert_eq!(BtOperation::Read.block(), None);
    }

    #[test]
    fn response_accessors() {
        let chain = Blockchain::genesis_only();
        assert_eq!(BtResponse::Chain(chain.clone()).chain(), Some(&chain));
        assert_eq!(BtResponse::Chain(chain).appended(), None);
        assert_eq!(BtResponse::Appended(true).appended(), Some(true));
        assert_eq!(BtResponse::Appended(true).chain(), None);
    }

    #[test]
    fn history_ext_extracts_reads_and_appends() {
        let mut rec = BtRecorder::new();
        let p = ProcessId(0);
        rec.instantaneous(p, BtOperation::Append(block(1)), BtResponse::Appended(true));
        rec.instantaneous(
            p,
            BtOperation::Read,
            BtResponse::Chain(Blockchain::genesis_only()),
        );
        rec.instantaneous(
            p,
            BtOperation::Append(block(2)),
            BtResponse::Appended(false),
        );
        let h = rec.into_history();

        assert_eq!(h.reads().len(), 1);
        assert_eq!(h.appends().len(), 2);
        let purged = h.purged_of_failed_appends();
        assert_eq!(purged.len(), 2);
        assert_eq!(purged.appends().len(), 1);
        assert!(purged.appends()[0].2);
    }

    #[test]
    fn reads_are_sorted_by_response_time() {
        let mut rec = BtRecorder::new();
        rec.instantaneous(
            ProcessId(1),
            BtOperation::Read,
            BtResponse::Chain(Blockchain::genesis_only()),
        );
        rec.instantaneous(
            ProcessId(0),
            BtOperation::Read,
            BtResponse::Chain(Blockchain::genesis_only()),
        );
        let h = rec.into_history();
        let reads = h.reads();
        assert_eq!(reads.len(), 2);
        assert!(reads[0].0.responded_at < reads[1].0.responded_at);
    }
}
