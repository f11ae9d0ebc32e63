//! The durable replica core: a tree, its orphan pool and an optional
//! durable log, behind one ingest door and one restart.
//!
//! The paper's replica `R(BT-ADT, Θ)` is a tree plus an update rule that
//! attaches a block once its parent is present.  [`ReplicaCore`] is that
//! construction with durability: the blocks one ingest links are persisted
//! to the [`BlockStore`] (when one is attached) as one run before the
//! ingest returns, blocks that cannot link yet wait in the
//! [`OrphanPool`] *unpersisted*, and a restart is the store's verifying
//! recovery followed by the survivors going back through the same door.
//! `GossipSync` (sync rounds, peer health, the replica log) and
//! [`CheckpointedReplica`](crate::CheckpointedReplica) (cold spine,
//! pruning cadence, rerooting) own a core and keep only what is theirs.
//!
//! The store is the one durable log.  Over a medium that never loses a
//! write it behaves as a write-ahead journal — recovery falls back to
//! per-record checksums for whatever the last checkpoint does not cover —
//! and recovery is idempotent: running it again over its own output, or
//! after a crash in the middle of it, yields the same survivors.

use btadt_pipeline::{ingest_pooled, BatchReport, IngestVerdict, OrphanPool};
use btadt_types::{Block, BlockTree};

use crate::codec::check_fits_record;
use crate::medium::SimMedium;
use crate::store::{BlockStore, RecoveryReport, StoreConfig};

/// A tree, the pool of blocks waiting for it, and an optional durable log.
#[derive(Debug, Default)]
pub struct ReplicaCore {
    tree: BlockTree,
    pool: OrphanPool,
    store: Option<BlockStore>,
}

impl ReplicaCore {
    /// A fresh core (genesis only) persisting to `store`;
    /// [`default`](Self::default) is the volatile one.
    pub fn with_store(store: BlockStore) -> Self {
        ReplicaCore {
            store: Some(store),
            ..ReplicaCore::default()
        }
    }

    /// The tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The blocks waiting for a parent.
    pub fn pool(&self) -> &OrphanPool {
        &self.pool
    }

    /// The durable log, if any.
    pub fn store(&self) -> Option<&BlockStore> {
        self.store.as_ref()
    }

    /// Mutable access to the durable log (checkpoints, pruning, fault
    /// injection).
    pub fn store_mut(&mut self) -> Option<&mut BlockStore> {
        self.store.as_mut()
    }

    /// The one ingest door ([`ingest_pooled`]): stage, link the ready run,
    /// pool the orphans, release the pooled children of whatever linked.
    /// `on_link` sees each block as it links; the blocks that linked — the
    /// arena slots this call added, in link order — are then persisted as
    /// one run ([`BlockStore::append_run`]), except those the store already
    /// holds (recovered survivors).
    ///
    /// With a store attached, a block that does not fit a durable record
    /// is refused before staging ([`check_fits_record`]: a `Rejected`
    /// verdict at its input position), so everything that links persists;
    /// its children then find no parent and pool as orphans.
    pub fn ingest(&mut self, mut blocks: Vec<Block>, on_link: impl FnMut(&Block)) -> BatchReport {
        let mut refused = Vec::new();
        if self.store.is_some() {
            let mut pos = 0;
            blocks.retain(|block| {
                pos += 1;
                let Err(e) = check_fits_record(block) else {
                    return true;
                };
                refused.push((pos - 1, IngestVerdict::Rejected(e)));
                false
            });
        }
        let before = self.tree.len();
        let mut report = ingest_pooled(&mut self.tree, &mut self.pool, blocks, on_link);
        if let Some(store) = &mut self.store {
            let linked = self.tree.blocks_since(before);
            let fresh: Vec<&Block> = linked.filter(|b| !store.contains(b.id)).collect();
            store.append_run(fresh);
        }
        if !refused.is_empty() {
            // Ascending input positions: each lands where it was offered.
            let mut verdicts = std::mem::take(&mut report.verdicts);
            for (pos, verdict) in refused {
                verdicts.insert(pos, verdict);
            }
            report = BatchReport::from_verdicts(verdicts);
        }
        report
    }

    /// Replaces the tree with a window of it rebased on a later root
    /// (pruning).  The pool and the store are untouched.
    pub fn rebase(&mut self, window: BlockTree) {
        self.tree = window;
    }

    /// Simulates a crash: the tree and the pool are lost, the durable log
    /// (if any) is all that survives.
    pub fn into_store(self) -> Option<BlockStore> {
        self.store
    }

    /// The one restart: the store's verifying recovery runs over `medium`
    /// (torn tails truncated, corrupt chunks quarantined), then the
    /// survivors go through the door in record order — the order the
    /// interval labels were allocated in.  Survivors that lost their
    /// ancestry to corruption wait in the pool for a peer to serve the
    /// gap.
    pub fn recover(medium: SimMedium, config: StoreConfig) -> (Self, RecoveryReport) {
        let (store, report, survivors) = BlockStore::recover(medium, config);
        let mut core = ReplicaCore::with_store(store);
        core.ingest(survivors, |_| {});
        (core, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn chain(n: u64) -> Vec<Block> {
        let mut parent = Block::genesis();
        (1..=n)
            .map(|nonce| {
                let b = BlockBuilder::new(&parent).nonce(nonce).build();
                parent = b.clone();
                b
            })
            .collect()
    }

    #[test]
    fn orphans_wait_unpersisted_and_are_persisted_when_they_link() {
        let blocks = chain(4);
        let store = BlockStore::create(SimMedium::new(), StoreConfig::small());
        let mut core = ReplicaCore::with_store(store);
        core.ingest(vec![blocks[2].clone(), blocks[3].clone()], |_| {});
        assert_eq!(core.pool().len(), 2);
        assert!(core.store().unwrap().is_empty(), "nothing linked yet");
        assert_eq!(core.pool().missing_parents(), vec![blocks[1].id]);

        let mut linked = 0;
        core.ingest(vec![blocks[0].clone(), blocks[1].clone()], |_| linked += 1);
        assert_eq!(linked, 4, "the pooled pair followed its parent in");
        assert!(core.pool().is_empty());
        let durable: Vec<_> = core
            .store()
            .unwrap()
            .blocks()
            .iter()
            .map(|b| b.id)
            .collect();
        let order: Vec<_> = blocks.iter().map(|b| b.id).collect();
        assert_eq!(durable, order, "persisted once each, in link order");
    }

    #[test]
    fn restart_relinks_the_survivors_without_persisting_them_again() {
        let blocks = chain(40);
        let store = BlockStore::create(SimMedium::new(), StoreConfig::small());
        let mut core = ReplicaCore::with_store(store);
        core.ingest(blocks.clone(), |_| {});
        let medium = core.into_store().unwrap().into_medium();

        let (core, report) = ReplicaCore::recover(medium, StoreConfig::small());
        assert!(report.is_pristine(), "{report:?}");
        assert_eq!(core.tree().len(), 41);
        assert_eq!(core.store().unwrap().len(), 40);
        // Recovery is idempotent: a second crash right after the first
        // restart finds the same 40 records.
        let medium = core.into_store().unwrap().into_medium();
        let (core, report) = ReplicaCore::recover(medium, StoreConfig::small());
        assert_eq!(report.blocks_recovered, 40);
        assert_eq!(report.duplicates_dropped, 0);
        assert_eq!(core.tree().len(), 41);
    }
}
