//! The orphan pool and the pooled ingest door.
//!
//! A block whose parent is not (yet) in the tree waits in an
//! [`OrphanPool`], filed under the id of the parent it is missing.  When a
//! block links, exactly its waiting children are released — no pass over
//! the rest of the pool — so healing a gap costs one map probe per linked
//! block however many orphans wait elsewhere.  [`ingest_pooled`] is the
//! door built on it: the one place a `BlockTree` replica stages, links,
//! pools and releases.

use std::collections::{HashMap, HashSet};

use btadt_types::{BatchInsert, Block, BlockId, BlockTree, NodeIdx};

use crate::ingest::finish_report;
use crate::stage::{stage_batch, IdHasher, StagedBatch};
use crate::verdict::{BatchReport, IngestVerdict};

/// Blocks waiting for their parent, keyed by the parent id they miss.
///
/// A block is pooled at most once (re-offers are dropped), and siblings
/// waiting on the same parent keep their arrival order.
#[derive(Clone, Debug, Default)]
pub struct OrphanPool {
    /// Missing parent id → the blocks waiting on it, in arrival order.
    waiting: HashMap<BlockId, Vec<Block>, IdHasher>,
    /// Ids of every pooled block.
    pooled: HashSet<BlockId, IdHasher>,
}

impl OrphanPool {
    /// Number of pooled blocks.
    pub fn len(&self) -> usize {
        self.pooled.len()
    }

    /// `true` iff nothing waits.
    pub fn is_empty(&self) -> bool {
        self.pooled.is_empty()
    }

    /// `true` iff the block with this id waits in the pool.
    pub fn contains(&self, id: BlockId) -> bool {
        self.pooled.contains(&id)
    }

    /// Files `block` under its parent.  Returns `false` — and drops the
    /// block — when it is already pooled or names no parent to wait for.
    pub fn insert(&mut self, block: Block) -> bool {
        let Some(parent) = block.parent else {
            return false;
        };
        if !self.pooled.insert(block.id) {
            return false;
        }
        self.waiting.entry(parent).or_default().push(block);
        true
    }

    /// Removes and returns the blocks waiting on `parent`, in arrival
    /// order (empty when none do).
    pub fn release(&mut self, parent: BlockId) -> Vec<Block> {
        let released = self.waiting.remove(&parent).unwrap_or_default();
        for block in &released {
            self.pooled.remove(&block.id);
        }
        released
    }

    /// The pooled blocks, in no particular order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.waiting.values().flatten()
    }

    /// The parent ids that are waited for and not themselves pooled — the
    /// exact gap to request from a peer.  Sorted.
    pub fn missing_parents(&self) -> Vec<BlockId> {
        let mut missing: Vec<BlockId> = self
            .waiting
            .keys()
            .copied()
            .filter(|parent| !self.pooled.contains(parent))
            .collect();
        missing.sort_unstable();
        missing
    }
}

/// The pooled ingest door of a `BlockTree` replica.
///
/// The batch is staged against the tree ([`stage_batch`]); the ready run
/// is linked in staged order through one
/// [`BatchInsert`](btadt_types::BatchInsert) session; the batch's orphans
/// join `pool`; then, for each block that linked, exactly its pooled
/// children are released and linked in arrival order, and theirs in turn.
/// `on_link` sees every block that entered the tree, in link order — the
/// hook for persisting and logging.
///
/// Verdicts describe what staging saw: a block pooled by this call reports
/// [`IngestVerdict::Orphaned`] even if a later block of the same call
/// released it, and re-offering a block that still waits reports
/// `Orphaned` again without pooling a second copy.
pub fn ingest_pooled(
    tree: &mut BlockTree,
    pool: &mut OrphanPool,
    blocks: Vec<Block>,
    mut on_link: impl FnMut(&Block),
) -> BatchReport {
    let StagedBatch {
        ready,
        ready_parents,
        orphans,
        mut verdicts,
    } = stage_batch(blocks, |id| tree.contains(id));
    let mut batch = tree.begin_batch(ready.len());
    // Arena slot of every block offered to the tree by this call (`None`
    // if it was refused): the ready run first, so staging's in-batch
    // parent positions index it, then the released blocks.  It doubles as
    // the release worklist.
    let mut landed: Vec<Option<NodeIdx>> = Vec::with_capacity(ready.len());
    let mut link = |batch: &mut BatchInsert<'_>,
                    landed: &mut Vec<Option<NodeIdx>>,
                    block: Block,
                    parent: Option<NodeIdx>| {
        let result = batch.push(block, parent);
        if let Ok(idx) = result {
            on_link(batch.block_at(idx));
        }
        landed.push(result.as_ref().ok().copied());
        IngestVerdict::from_result(result.map(drop))
    };
    for ((pos, block), parent) in ready.into_iter().zip(ready_parents) {
        let hint = parent.and_then(|j| landed[j]);
        verdicts[pos] = Some(link(&mut batch, &mut landed, block, hint));
    }
    for (_, block) in orphans {
        pool.insert(block);
    }
    let mut next = 0;
    while next < landed.len() && !pool.is_empty() {
        if let Some(parent) = landed[next] {
            for child in pool.release(batch.block_at(parent).id) {
                link(&mut batch, &mut landed, child, Some(parent));
            }
        }
        next += 1;
    }
    batch.finish();
    finish_report(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    /// genesis -> a -> b -> c plus a fork a -> d.
    fn chain() -> [Block; 4] {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let d = BlockBuilder::new(&a).nonce(4).build();
        [a, b, c, d]
    }

    #[test]
    fn the_pool_dedups_and_releases_siblings_in_arrival_order() {
        let [a, b, c, d] = chain();
        let mut pool = OrphanPool::default();
        assert!(pool.insert(d.clone()));
        assert!(pool.insert(c.clone()));
        assert!(pool.insert(b.clone()));
        assert!(!pool.insert(d.clone()), "a re-offer is not pooled twice");
        assert!(!pool.insert(Block::genesis()), "nothing to wait for");
        assert_eq!(pool.len(), 3);
        assert!(pool.contains(c.id) && !pool.contains(a.id));
        // `c` waits on the pooled `b`; only `a` is missing outright.
        assert_eq!(pool.missing_parents(), vec![a.id]);

        assert!(pool.release(c.id).is_empty(), "nothing waits on a leaf");
        let released: Vec<BlockId> = pool.release(a.id).iter().map(|x| x.id).collect();
        assert_eq!(released, vec![d.id, b.id], "children of a, as they arrived");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.missing_parents(), vec![b.id]);
    }

    #[test]
    fn the_door_pools_orphans_and_releases_them_when_the_parent_links() {
        let [a, b, c, d] = chain();
        let mut tree = BlockTree::new();
        let mut pool = OrphanPool::default();
        let mut linked: Vec<BlockId> = Vec::new();

        let report = ingest_pooled(&mut tree, &mut pool, vec![c.clone(), d.clone()], |x| {
            linked.push(x.id)
        });
        assert_eq!(report.orphaned, 2);
        assert!(linked.is_empty() && pool.len() == 2);

        // `b` still cannot link; `c` is re-offered and stays pooled once.
        let report = ingest_pooled(&mut tree, &mut pool, vec![b.clone(), c.clone()], |x| {
            linked.push(x.id)
        });
        assert_eq!(report.orphaned, 2);
        assert_eq!(pool.len(), 3);

        // `a` links and pulls the whole pool in behind it: its waiting
        // children in arrival order, then theirs.
        let report = ingest_pooled(&mut tree, &mut pool, vec![a.clone()], |x| linked.push(x.id));
        assert_eq!(report.verdicts, vec![IngestVerdict::Accepted]);
        assert_eq!(linked, vec![a.id, d.id, b.id, c.id]);
        assert!(pool.is_empty());
        assert_eq!(tree.len(), 5);
    }
}
