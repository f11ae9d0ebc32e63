//! The unified `Ingest` API.

use btadt_types::{Block, BlockId, BlockTree, NaiveBlockTree};

use crate::pool::{ingest_pooled, OrphanPool};
use crate::stage::{stage_batch, StagedBatch};
use crate::verdict::{BatchReport, IngestVerdict};

/// The one ingest API every tip-state representation implements.
///
/// A single block is a batch of one; a batch runs the staged pipeline:
/// stage 2 ([`stage_batch`]) resolves it against
/// [`knows_block`](Ingest::knows_block), then the topologically-ordered
/// ready set is applied through the tip stage.  Implementors with a
/// batch-aware tip stage (one lock round, amortized index maintenance)
/// override [`ingest_batch`](Ingest::ingest_batch); the default applies
/// the ready set block-by-block, which is the reference semantics every
/// override must preserve.
pub trait Ingest {
    /// Is the block already part of the tip state?  The stage-2
    /// membership test.
    fn knows_block(&self, id: BlockId) -> bool;

    /// Ingests one block, reporting its [`IngestVerdict`].  Never panics
    /// on rejected input.
    fn ingest_block(&mut self, block: Block) -> IngestVerdict;

    /// Ingests a batch through the staged pipeline, returning one
    /// verdict per input block (in input order).
    fn ingest_batch(&mut self, blocks: Vec<Block>) -> BatchReport {
        let staged = stage_batch(blocks, |id| self.knows_block(id));
        let StagedBatch {
            ready,
            mut verdicts,
            ..
        } = staged;
        for (pos, block) in ready {
            verdicts[pos] = Some(self.ingest_block(block));
        }
        finish_report(verdicts)
    }
}

/// Collapses the per-position verdict slots into a [`BatchReport`].
pub(crate) fn finish_report(verdicts: Vec<Option<IngestVerdict>>) -> BatchReport {
    BatchReport::from_verdicts(
        verdicts
            .into_iter()
            .map(|v| v.expect("every input position receives a verdict"))
            .collect(),
    )
}

impl Ingest for BlockTree {
    fn knows_block(&self, id: BlockId) -> bool {
        self.contains(id)
    }

    fn ingest_block(&mut self, block: Block) -> IngestVerdict {
        IngestVerdict::from_result(self.insert(block))
    }

    /// Batch override: the pooled door over a throwaway pool — the ready
    /// run goes through one [`BatchInsert`](btadt_types::BatchInsert)
    /// session with staging's parent resolution forwarded as slot hints,
    /// and the batch's orphans are dropped with the pool (a bare tree
    /// keeps none; nothing waits in a fresh pool, so nothing is released).
    fn ingest_batch(&mut self, blocks: Vec<Block>) -> BatchReport {
        ingest_pooled(self, &mut OrphanPool::default(), blocks, |_| {})
    }
}

impl Ingest for NaiveBlockTree {
    fn knows_block(&self, id: BlockId) -> bool {
        self.contains(id)
    }

    fn ingest_block(&mut self, block: Block) -> IngestVerdict {
        IngestVerdict::from_result(self.insert(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    #[test]
    fn batch_of_one_matches_single_block_ingest() {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let mut via_block = BlockTree::new();
        let mut via_batch = BlockTree::new();
        assert_eq!(via_block.ingest_block(a.clone()), IngestVerdict::Accepted);
        let report = via_batch.ingest_batch(vec![a.clone()]);
        assert_eq!(report.verdicts, vec![IngestVerdict::Accepted]);
        assert_eq!(via_block.sorted_ids(), via_batch.sorted_ids());
        // Re-offering is a duplicate through both doors.
        assert_eq!(via_block.ingest_block(a.clone()), IngestVerdict::Duplicate);
        assert_eq!(
            via_batch.ingest_batch(vec![a]).verdicts,
            vec![IngestVerdict::Duplicate]
        );
    }

    #[test]
    fn default_batch_and_tree_override_agree_on_verdicts() {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let stray = BlockBuilder::child_of(BlockId(0xbad), 7).build();
        let batch = vec![c.clone(), stray, a.clone(), b.clone(), a.clone()];

        let mut tree = BlockTree::new();
        let tree_report = tree.ingest_batch(batch.clone());
        let mut naive = NaiveBlockTree::new();
        let naive_report = naive.ingest_batch(batch);

        assert_eq!(tree_report, naive_report, "override preserves semantics");
        assert_eq!(tree_report.accepted, 3);
        assert_eq!(tree_report.orphaned, 1);
        assert_eq!(tree_report.duplicates, 1);
        assert!(tree_report.is_clean());
        assert_eq!(tree.sorted_ids(), naive.sorted_ids());
    }
}
