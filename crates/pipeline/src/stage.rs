//! Stage 1 (isolated validation) and stage 2 (contextual staging).
//!
//! Stage 1 checks one block with no access to shared state, so it can run
//! on any thread before the batch ever queues for the tip stage.  Stage 2
//! resolves the batch against a snapshot of "which blocks are already
//! known" (a closure, so every tip-state representation — arena tree,
//! naive map, concurrent snapshot, checkpointed window — can supply its
//! own membership test): duplicates are elided, blocks whose ancestry is
//! absent are split off as orphans, and the survivors come out
//! topologically ordered so the tip stage applies them parents-first in
//! one pass, no retries.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use btadt_types::{Block, BlockId, BlockIdHasher};

use crate::error::IngestError;
use crate::verdict::IngestVerdict;

/// Block ids are already structural hashes, so staging's membership map
/// (and the orphan pool) use the same pass-through hasher as the tree's
/// interning map.
pub(crate) type IdHasher = BuildHasherDefault<BlockIdHasher>;
type IdMap<V> = HashMap<BlockId, V, IdHasher>;

/// Stage 1: structural validation in isolation.
///
/// Everything that can be checked without looking at the tree: today that
/// is the parent-pointer invariant (every non-genesis block names a
/// parent); payload and proof-of-work shape checks slot in here as they
/// grow.  Duplicate, ancestry and height checks are contextual and
/// belong to later stages.
pub fn validate_isolated(block: &Block) -> Result<(), IngestError> {
    if block.parent.is_none() && !block.is_genesis() {
        return Err(IngestError::MissingParent(block.id));
    }
    Ok(())
}

/// The outcome of stage 2 for one batch.
///
/// `verdicts` is parallel to the input batch: `Some` for blocks the
/// staging already decided (duplicates, orphans, structural rejects),
/// `None` for the blocks in `ready`, whose verdicts the tip stage fills
/// in.  `ready` and `orphans` carry each block's input position so those
/// verdicts land back in input order.
#[derive(Clone, Debug)]
pub struct StagedBatch {
    /// Blocks whose ancestry is resolved (parent already known, or
    /// earlier in this vector), in a *stable* topological order: parents
    /// always precede children, and an input that is already
    /// parents-first (a chain segment, a peer's arena order) comes out in
    /// input order unchanged.
    pub ready: Vec<(usize, Block)>,
    /// Where each `ready` entry's parent lives, parallel to `ready`:
    /// `None` — already in the tip state at staging time; `Some(j)` — at
    /// `ready[j]` with `j` strictly smaller than this entry's index.  The
    /// tip stage consumes this so the resolution staging already did is
    /// never re-hashed per block.
    pub ready_parents: Vec<Option<usize>>,
    /// Blocks whose parent is neither known nor supplied by the batch —
    /// retriable once their ancestry arrives; callers with an orphan
    /// pool retain them.
    pub orphans: Vec<(usize, Block)>,
    /// Per-input-position verdicts decided so far (`None` ⇔ the block is
    /// in `ready`).
    pub verdicts: Vec<Option<IngestVerdict>>,
}

/// Stage 2: contextual staging of a batch against a membership test.
///
/// `contains` answers "is this block already in the tip state?".  Per
/// block, in input order: already-known ids and repeated in-batch ids
/// become [`IngestVerdict::Duplicate`] (a batch is treated as a set —
/// later copies duplicate the earlier entry), structural failures become
/// [`IngestVerdict::Rejected`].  The survivors are then emitted in a
/// stable topological order — a Kahn walk that always releases the
/// earliest-input-position block whose parent is resolved — and split
/// into `ready` (parent known or earlier in the batch) and `orphans`
/// (ancestry missing, transitively).
///
/// Stability matters for more than determinism: the tip stage installs
/// `ready` verbatim, and the tree's reachability index allocates interval
/// pockets in install order.  A peer streaming its arena order (or a
/// chain segment) must come out unchanged rather than resorted into a
/// height-major (breadth-first) order, which fragments pockets across
/// sibling subtrees and triggers pathological reindexing on large
/// batches.
pub fn stage_batch(blocks: Vec<Block>, contains: impl Fn(BlockId) -> bool) -> StagedBatch {
    // Sentinel slot for ids that stage 1 rejected: they still occupy the
    // map (later copies are duplicates) but resolve no in-batch parents.
    const NO_SLOT: usize = usize::MAX;
    let mut verdicts: Vec<Option<IngestVerdict>> = vec![None; blocks.len()];
    // One map serves both duplicate detection and in-batch parent lookup:
    // each first-seen id maps to its candidate slot.
    let mut slot_of = IdMap::with_capacity_and_hasher(blocks.len(), Default::default());
    let mut candidates: Vec<(usize, Block)> = Vec::with_capacity(blocks.len());
    // Parent resolutions, built inline for as long as the batch stays
    // parents-first — the overwhelmingly common shape, since delta-sync
    // and recovery replay stream arena order.  A one-entry memo of the
    // previous candidate resolves chain-shaped batches on a comparison
    // instead of a map probe.
    let mut ready_parents: Vec<Option<usize>> = Vec::with_capacity(blocks.len());
    let mut in_order = true;
    let mut last: Option<(BlockId, usize)> = None;
    for (pos, block) in blocks.into_iter().enumerate() {
        if contains(block.id) {
            verdicts[pos] = Some(IngestVerdict::Duplicate);
            continue;
        }
        let mut is_candidate = false;
        match slot_of.entry(block.id) {
            std::collections::hash_map::Entry::Occupied(_) => {
                verdicts[pos] = Some(IngestVerdict::Duplicate);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if let Err(e) = validate_isolated(&block) {
                    v.insert(NO_SLOT);
                    verdicts[pos] = Some(IngestVerdict::Rejected(e));
                } else if block.parent.is_none() {
                    // A genesis block offered to a tree that does not
                    // contain it (a pruned window): nothing to chain it to.
                    v.insert(NO_SLOT);
                    verdicts[pos] = Some(IngestVerdict::Rejected(IngestError::MissingParent(
                        block.id,
                    )));
                } else {
                    v.insert(candidates.len());
                    is_candidate = true;
                }
            }
        }
        if is_candidate {
            let slot = candidates.len();
            if in_order {
                let parent = block.parent.expect("stage-1 survivors have parents");
                let resolved = match last {
                    Some((last_id, last_slot)) if last_id == parent => Some(Some(last_slot)),
                    _ => match slot_of.get(&parent) {
                        Some(&p) if p < slot => Some(Some(p)),
                        Some(_) => None,
                        None if contains(parent) => Some(None),
                        None => None,
                    },
                };
                match resolved {
                    Some(parent_at) => ready_parents.push(parent_at),
                    None => in_order = false,
                }
            }
            last = Some((block.id, slot));
            candidates.push((pos, block));
        }
    }
    if in_order {
        return StagedBatch {
            ready: candidates,
            ready_parents,
            orphans: Vec::new(),
            verdicts,
        };
    }

    // Fallback: Kahn's algorithm over the in-batch parent edges.
    // `emittable` holds the candidate slots whose parent is resolved (in
    // the tree, or already emitted); popping the smallest slot keeps the
    // order stable in input position.  Slots never released are orphans:
    // their parent chain bottoms out outside both the tree and the batch.
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); candidates.len()];
    let mut parent_slot: Vec<Option<usize>> = vec![None; candidates.len()];
    let mut emittable: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    for (slot, (_, b)) in candidates.iter().enumerate() {
        let parent = b.parent.expect("stage-1 survivors have parents");
        match slot_of.get(&parent) {
            Some(&p) if p != NO_SLOT => {
                kids[p].push(slot);
                parent_slot[slot] = Some(p);
            }
            _ if contains(parent) => emittable.push(Reverse(slot)),
            _ => {}
        }
    }

    let mut slots: Vec<Option<(usize, Block)>> = candidates.into_iter().map(Some).collect();
    let mut emitted_at: Vec<usize> = vec![usize::MAX; slots.len()];
    let mut ready: Vec<(usize, Block)> = Vec::with_capacity(slots.len());
    let mut ready_parents: Vec<Option<usize>> = Vec::with_capacity(slots.len());
    while let Some(Reverse(slot)) = emittable.pop() {
        let entry = slots[slot].take().expect("each slot is emitted once");
        for &k in &kids[slot] {
            emittable.push(Reverse(k));
        }
        emitted_at[slot] = ready.len();
        ready_parents.push(parent_slot[slot].map(|p| emitted_at[p]));
        ready.push(entry);
    }

    let mut orphans: Vec<(usize, Block)> = slots.into_iter().flatten().collect();
    // Orphans keep a topological order too: the pool files siblings in
    // this order and releases them in it, and link order is behaviour
    // (docs/PIPELINE.md § "Stable topological order").
    orphans.sort_by_key(|(_, b)| (b.height, b.id));
    for (pos, _) in &orphans {
        verdicts[*pos] = Some(IngestVerdict::Orphaned);
    }
    StagedBatch {
        ready,
        ready_parents,
        orphans,
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::{BlockBuilder, BlockTree, GENESIS_ID};

    /// genesis -> a -> b -> c plus a fork a -> d.
    fn chain() -> Vec<Block> {
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let d = BlockBuilder::new(&a).nonce(4).build();
        vec![a, b, c, d]
    }

    #[test]
    fn validate_isolated_only_rejects_parentless_non_genesis() {
        let blocks = chain();
        for b in &blocks {
            assert!(validate_isolated(b).is_ok());
        }
        assert!(validate_isolated(&Block::genesis()).is_ok());
        let mut orphaned = blocks[0].clone();
        orphaned.parent = None;
        assert_eq!(
            validate_isolated(&orphaned),
            Err(IngestError::MissingParent(orphaned.id))
        );
    }

    #[test]
    fn staging_orders_a_shuffled_batch_parents_first() {
        let mut blocks = chain();
        blocks.reverse();
        let tree = BlockTree::new();
        let staged = stage_batch(blocks, |id| tree.contains(id));
        assert_eq!(staged.ready.len(), 4);
        assert!(staged.orphans.is_empty());
        for (i, (_, b)) in staged.ready.iter().enumerate() {
            let parent = b.parent.unwrap();
            assert!(
                parent == GENESIS_ID || staged.ready[..i].iter().any(|(_, p)| p.id == parent),
                "every in-batch parent precedes its child"
            );
        }
        assert!(staged.verdicts.iter().all(Option::is_none));
    }

    #[test]
    fn staging_preserves_an_already_parents_first_input_order() {
        // A parents-first stream (what delta-sync and recovery replay
        // send) must come out verbatim: the tip stage installs `ready`
        // in this order and the reachability index wants it unsorted.
        let blocks = chain(); // a, b, c, d — every parent precedes its child
        let tree = BlockTree::new();
        let staged = stage_batch(blocks.clone(), |id| tree.contains(id));
        let emitted: Vec<_> = staged.ready.iter().map(|(pos, b)| (*pos, b.id)).collect();
        let expected: Vec<_> = blocks.iter().enumerate().map(|(i, b)| (i, b.id)).collect();
        assert_eq!(emitted, expected);
    }

    #[test]
    fn staging_pools_orphans_and_elides_duplicates() {
        let blocks = chain();
        let (a, b, c, d) = (
            blocks[0].clone(),
            blocks[1].clone(),
            blocks[2].clone(),
            blocks[3].clone(),
        );
        let mut tree = BlockTree::new();
        tree.insert(a.clone()).unwrap();
        // Batch: a duplicate of `a`, `c` without its parent `b`, `d`
        // ready, and a second copy of `d`.
        let staged = stage_batch(vec![a.clone(), c.clone(), d.clone(), d.clone()], |id| {
            tree.contains(id)
        });
        assert_eq!(staged.verdicts[0], Some(IngestVerdict::Duplicate));
        assert_eq!(staged.verdicts[1], Some(IngestVerdict::Orphaned));
        assert_eq!(staged.verdicts[2], None);
        assert_eq!(staged.verdicts[3], Some(IngestVerdict::Duplicate));
        assert_eq!(staged.ready.len(), 1);
        assert_eq!(staged.ready[0].1.id, d.id);
        assert_eq!(staged.orphans.len(), 1);
        assert_eq!(staged.orphans[0].1.id, c.id);
        // Supplying the missing parent in the same batch resolves both.
        let staged = stage_batch(vec![c.clone(), b.clone()], |id| tree.contains(id));
        assert_eq!(staged.ready.len(), 2);
        assert_eq!(staged.ready[0].1.id, b.id, "parent first");
        assert!(staged.orphans.is_empty());
    }

    #[test]
    fn orphan_chains_stay_pooled_together() {
        let blocks = chain();
        let (b, c) = (blocks[1].clone(), blocks[2].clone());
        let tree = BlockTree::new();
        // Neither `b` nor its child `c` can resolve without `a`.
        let staged = stage_batch(vec![c, b], |id| tree.contains(id));
        assert!(staged.ready.is_empty());
        assert_eq!(staged.orphans.len(), 2);
        assert_eq!(
            staged.orphans[0].1.height, 2,
            "orphans keep topological order too"
        );
    }

    #[test]
    fn genesis_offered_to_a_fresh_tree_is_a_duplicate() {
        let tree = BlockTree::new();
        let staged = stage_batch(vec![Block::genesis()], |id| tree.contains(id));
        assert_eq!(staged.verdicts[0], Some(IngestVerdict::Duplicate));
        assert!(tree.contains(GENESIS_ID));
    }
}
