//! The unified ingest error taxonomy.
//!
//! Before the pipeline, every layer grew its own rejection type: the tree
//! had [`InsertError`], the concurrent facade wrapped it next to a
//! store-exhaustion case, and the durable store surfaced decode failures
//! during recovery.  [`IngestError`] collapses them into one
//! `#[non_exhaustive]` enum so callers match a single taxonomy; the
//! layer-local types survive and convert in via `From`.

use btadt_types::{BlockId, InsertError};

/// Why a block was not ingested.
///
/// The first five variants mirror [`InsertError`] (tree-structural
/// rejections); the remaining ones come from the storage layers.  The
/// enum is `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm so new layers can add causes without a breaking release.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The block's parent is not present in the tip state.
    UnknownParent(BlockId),
    /// A block with the same identifier is already present.
    Duplicate(BlockId),
    /// The block has no parent pointer but is not the genesis block.
    MissingParent(BlockId),
    /// The block's recorded height does not match its parent's height + 1.
    HeightMismatch {
        /// Offending block.
        block: BlockId,
        /// Height recorded in the block.
        recorded: u64,
        /// Height expected from the parent.
        expected: u64,
    },
    /// The block's work would overflow its chain's cumulative work.
    WorkOverflow {
        /// Offending block.
        block: BlockId,
    },
    /// The wait-free snapshot store is full; the append must be retried
    /// against a larger store.
    StoreExhausted {
        /// Fixed capacity of the exhausted store.
        capacity: usize,
    },
    /// A durable-storage record could not be decoded (torn tail or
    /// corrupt checksum surfaced during recovery or replay).
    Storage(String),
}

impl IngestError {
    /// Is this a rejection the sender can repair by supplying ancestry
    /// first?  Orphan pools retain such blocks; true rejections are
    /// dropped.
    pub fn is_orphan_case(&self) -> bool {
        matches!(self, IngestError::UnknownParent(_))
    }
}

impl From<InsertError> for IngestError {
    fn from(e: InsertError) -> Self {
        match e {
            InsertError::UnknownParent(id) => IngestError::UnknownParent(id),
            InsertError::Duplicate(id) => IngestError::Duplicate(id),
            InsertError::MissingParent(id) => IngestError::MissingParent(id),
            InsertError::HeightMismatch {
                block,
                recorded,
                expected,
            } => IngestError::HeightMismatch {
                block,
                recorded,
                expected,
            },
            InsertError::WorkOverflow { block } => IngestError::WorkOverflow { block },
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownParent(id) => write!(f, "block rejected: unknown parent {id}"),
            IngestError::Duplicate(id) => write!(f, "block rejected: duplicate block {id}"),
            IngestError::MissingParent(id) => {
                write!(f, "block rejected: block {id} has no parent pointer")
            }
            IngestError::HeightMismatch {
                block,
                recorded,
                expected,
            } => write!(
                f,
                "block rejected: block {block} records height {recorded}, expected {expected}"
            ),
            IngestError::WorkOverflow { block } => write!(
                f,
                "block rejected: block {block} overflows its chain's cumulative work"
            ),
            IngestError::StoreExhausted { capacity } => {
                write!(f, "snapshot store exhausted (capacity {capacity})")
            }
            IngestError::Storage(why) => write!(f, "storage failure during ingest: {why}"),
        }
    }
}

impl std::error::Error for IngestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_error_variants_convert_one_to_one() {
        let id = BlockId(7);
        assert_eq!(
            IngestError::from(InsertError::UnknownParent(id)),
            IngestError::UnknownParent(id)
        );
        assert_eq!(
            IngestError::from(InsertError::Duplicate(id)),
            IngestError::Duplicate(id)
        );
        assert_eq!(
            IngestError::from(InsertError::MissingParent(id)),
            IngestError::MissingParent(id)
        );
        assert_eq!(
            IngestError::from(InsertError::HeightMismatch {
                block: id,
                recorded: 3,
                expected: 2
            }),
            IngestError::HeightMismatch {
                block: id,
                recorded: 3,
                expected: 2
            }
        );
        assert_eq!(
            IngestError::from(InsertError::WorkOverflow { block: id }),
            IngestError::WorkOverflow { block: id }
        );
    }

    #[test]
    fn tree_rejections_display_as_rejections() {
        for err in [
            IngestError::UnknownParent(BlockId(1)),
            IngestError::Duplicate(BlockId(2)),
            IngestError::MissingParent(BlockId(3)),
            IngestError::HeightMismatch {
                block: BlockId(4),
                recorded: 9,
                expected: 2,
            },
            IngestError::WorkOverflow { block: BlockId(5) },
        ] {
            assert!(err.to_string().contains("rejected"), "{err}");
        }
        assert!(IngestError::StoreExhausted { capacity: 8 }
            .to_string()
            .contains("exhausted"));
    }

    #[test]
    fn only_unknown_parent_is_an_orphan_case() {
        assert!(IngestError::UnknownParent(BlockId(1)).is_orphan_case());
        assert!(!IngestError::Duplicate(BlockId(1)).is_orphan_case());
        assert!(!IngestError::MissingParent(BlockId(1)).is_orphan_case());
        assert!(!IngestError::StoreExhausted { capacity: 1 }.is_orphan_case());
    }
}
