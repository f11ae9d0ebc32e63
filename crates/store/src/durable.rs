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
//! `GossipSync` (sync rounds, peer health, the replica log) owns a core
//! and keeps only what is its own.
//!
//! Bounded memory is a policy on the same core: [`ReplicaCore::prune`]
//! moves the tree's root up to `selected tip − depth` (never past the
//! store's last checkpoint), keeps the selected-chain ids it passes as a
//! *cold spine* (their contents stay in the store), garbage-collects the
//! losing subtrees below the new root from the store, and rebuilds the tree
//! as a window over the new root ([`BlockTree::rerooted`]).  A pruning
//! depth is the `k` of the k-deep common prefix the eventual criteria
//! assume: once a block is that far below the selected tip, a selection
//! function with common prefix never picks a chain around it, so the
//! discarded forks can never be re-selected (the argument rusty-kaspa's
//! pruning processor makes).  The caller picks the depth and the cadence.
//!
//! The store is the one durable log.  Over a medium that never loses a
//! write it behaves as a write-ahead journal — recovery falls back to
//! per-record checksums for whatever the last checkpoint does not cover —
//! and recovery is idempotent: running it again over its own output, or
//! after a crash in the middle of it, yields the same survivors.

use std::collections::HashSet;

use btadt_pipeline::{ingest_pooled, BatchReport, IngestVerdict, OrphanPool};
use btadt_types::{Block, BlockId, BlockTree};

use crate::codec::check_fits_record;
use crate::medium::SimMedium;
use crate::store::{BlockStore, PruneOutcome, RecoveryReport, StoreConfig};

/// A tree, the pool of blocks waiting for it, and an optional durable log.
#[derive(Debug, Default)]
pub struct ReplicaCore {
    tree: BlockTree,
    pool: OrphanPool,
    store: Option<BlockStore>,
    /// Selected-chain ids from the first height above the genesis block
    /// up to the tree's root, oldest first: the chain [`prune`](Self::prune)
    /// moved below the window (ids only; the contents live in the store).
    cold_spine: Vec<BlockId>,
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

    /// The selected-chain ids pruning moved below the tree's root, oldest
    /// first.  Empty until this core prunes: a recovered core starts from
    /// the genesis block again.
    pub fn cold_spine(&self) -> &[BlockId] {
        &self.cold_spine
    }

    /// Mutable access to the durable log (checkpoints, fault injection).
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

    /// Moves the tree's root up to the selected tip's height minus
    /// `depth`, clamped to the store's last checkpoint height (the store
    /// refuses to collect unsealed history).  The selected-chain ids from
    /// the new root down to the old one join the cold spine; at or below
    /// the new root's height the store keeps the cold spine only
    /// ([`BlockStore::prune`]); the tree becomes the new root's subtree,
    /// re-linked in arena order under [`BlockTree::rerooted`].  The pool
    /// is untouched.
    ///
    /// `None` when the core has no store or the root cannot move up yet.
    pub fn prune(&mut self, depth: u64) -> Option<PruneOutcome> {
        let store = self.store.as_mut()?;
        let tree = &self.tree;
        let mut root = tree
            .idx_of(tree.best_leaf_by_work(true))
            .expect("the selected tip is in the tree");
        let target = tree
            .block_at(root)
            .height
            .saturating_sub(depth)
            .min(store.checkpoint_height());
        if target <= tree.genesis().height {
            return None;
        }
        while tree.block_at(root).height > target {
            root = tree
                .parent_idx(root)
                .expect("above the root, parents resident");
        }

        // Every block of the new root's subtree but the root sits above
        // `target`, so the cold spine is the whole keep-set below it.
        let mut spine = Vec::new();
        let mut idx = root;
        while let Some(parent) = tree.parent_idx(idx) {
            spine.push(tree.block_at(idx).id);
            idx = parent;
        }
        self.cold_spine.extend(spine.into_iter().rev());
        let keep: HashSet<BlockId> = self.cold_spine.iter().copied().collect();
        let outcome = store.prune(&keep, target);

        // Arena order puts parents first, so a later block is in the new
        // root's subtree iff its parent already is.
        let mut window = BlockTree::rerooted(tree.block_at(root).clone());
        for block in tree.blocks_since(root.0 as usize + 1) {
            if block.parent.is_some_and(|p| window.contains(p)) {
                window
                    .insert(block.clone())
                    .expect("a child of the window links into it");
            }
        }
        self.tree = window;
        Some(outcome)
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

    /// Pruning depth of the cadence tests.
    const DEPTH: u64 = 16;

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

    fn durable_core(config: StoreConfig) -> ReplicaCore {
        ReplicaCore::with_store(BlockStore::create(SimMedium::new(), config))
    }

    fn tip(core: &ReplicaCore) -> BlockId {
        core.tree().best_leaf_by_work(true)
    }

    /// A deterministic mostly-linear workload from the genesis block: 1 in
    /// 8 blocks forks off a recent ancestor.
    fn workload(n: usize, seed: u64) -> Vec<Block> {
        let mut produced = Vec::with_capacity(n);
        let mut tips = vec![Block::genesis()];
        let mut state = seed;
        for i in 0..n {
            state = btadt_types::rng::mix64(state);
            let parent = if state.is_multiple_of(8) && tips.len() > 1 {
                tips[tips.len() - 2].clone()
            } else {
                tips[tips.len() - 1].clone()
            };
            let block = BlockBuilder::new(&parent)
                .producer((state % 5) as u32)
                .nonce(i as u64)
                .work(1 + state % 3)
                .build();
            if block.height > tips.last().unwrap().height {
                tips.push(block.clone());
                if tips.len() > 4 {
                    tips.remove(0);
                }
            }
            produced.push(block);
        }
        produced
    }

    /// Ingests `blocks` one at a time, pruning at [`DEPTH`] every
    /// `prune_every` linked blocks (0: never).  Returns the resident peak
    /// (tree + pool) and the blocks pruning evicted from the tree.
    fn feed(core: &mut ReplicaCore, blocks: &[Block], prune_every: u64) -> (usize, u64) {
        let resident = |core: &ReplicaCore| core.tree().len() + core.pool().len();
        let (mut peak, mut pruned, mut linked) = (resident(core), 0, 0);
        for block in blocks {
            let report = core.ingest(vec![block.clone()], |_| linked += 1);
            assert!(report.verdicts[0].is_accepted(), "parent is hot");
            peak = peak.max(resident(core));
            if prune_every > 0 && linked >= prune_every {
                linked = 0;
                let before = core.tree().len();
                if core.prune(DEPTH).is_some() {
                    pruned += (before - core.tree().len()) as u64;
                }
            }
        }
        (peak, pruned)
    }

    #[test]
    fn orphans_wait_unpersisted_and_are_persisted_when_they_link() {
        let blocks = chain(4);
        let mut core = durable_core(StoreConfig::small());
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
        let mut core = durable_core(StoreConfig::small());
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

    #[test]
    fn a_volatile_core_does_not_prune() {
        let mut core = ReplicaCore::default();
        core.ingest(chain(40), |_| {});
        assert_eq!(core.prune(4), None);
        assert_eq!(core.tree().len(), 41);
    }

    #[test]
    fn pruning_keeps_residency_bounded_and_the_spine_cold() {
        let mut core = durable_core(StoreConfig::small());
        let (peak, pruned) = feed(&mut core, &workload(500, 7), 32);
        assert!(peak <= 128, "peak {peak} over ceiling 128");
        let pruning_height = core.tree().genesis().height;
        assert!(pruning_height > 0, "the point advanced");
        assert!(pruned > 0);
        // The cold spine + hot selected chain reconstruct the full chain.
        assert_eq!(
            core.cold_spine().len() as u64,
            pruning_height,
            "one cold spine id per pruned height"
        );
        // The store holds the spine: every cold id is durable.
        for id in core.cold_spine() {
            assert!(core.store().unwrap().contains(*id));
        }
    }

    #[test]
    fn pruning_never_advances_past_the_last_checkpoint() {
        let mut core = durable_core(StoreConfig {
            auto_checkpoint_every: 0, // manual checkpoints only
            ..StoreConfig::small()
        });
        feed(&mut core, &workload(60, 3), 0);
        // No checkpoint has ever run: pruning cannot advance at all.
        assert_eq!(core.prune(DEPTH), None);
        core.store_mut().unwrap().checkpoint();
        let gc = core.prune(DEPTH);
        assert!(gc.is_some(), "after a checkpoint the point advances");
    }

    #[test]
    fn crash_recover_round_trip_is_lossless_when_clean() {
        let mut core = durable_core(StoreConfig::small());
        feed(&mut core, &workload(200, 11), 32);
        core.store_mut().unwrap().checkpoint();
        let pre_tip = tip(&core);
        let height = core.tree().height();
        let stored = core.store().unwrap().len();
        let medium = core.into_store().unwrap().into_medium();
        let (recovered, report) = ReplicaCore::recover(medium, StoreConfig::small());
        assert!(report.is_pristine(), "{report:?}");
        assert!(recovered.pool().is_empty());
        assert_eq!(recovered.store().unwrap().len(), stored);
        assert_eq!(recovered.tree().height(), height);
        assert_eq!(tip(&recovered), pre_tip);
    }

    #[test]
    fn corruption_gap_is_healed_from_a_peer() {
        let produced = workload(120, 23);
        let mut core = durable_core(StoreConfig::small());
        feed(&mut core, &produced, 0);
        core.store_mut().unwrap().checkpoint();
        // A pristine peer that saw the same history, keeping everything.
        let mut peer = durable_core(StoreConfig::small());
        feed(&mut peer, &produced, 0);

        // Corrupt two chunks: a bit flip and a torn tail.
        let mut medium = core.into_store().unwrap().into_medium();
        let chunks: Vec<String> = medium
            .list()
            .into_iter()
            .filter(|f| f.starts_with("chunk-"))
            .collect();
        assert!(chunks.len() >= 3);
        medium.corrupt_bit(&chunks[1], 130 * 8);
        let tail = medium.len(&chunks[2]);
        medium.truncate(&chunks[2], tail.saturating_sub(9));

        let (mut recovered, report) = ReplicaCore::recover(medium, StoreConfig::small());
        assert!(!report.is_pristine());
        assert!(report.blocks_recovered < produced.len());

        // Heal: serve exactly what the replica asks for until it settles.
        let mut rounds = 0;
        while !recovered.pool().is_empty() {
            rounds += 1;
            assert!(rounds < 64, "healing must converge");
            let missing = recovered.pool().missing_parents();
            assert!(!missing.is_empty(), "unhealed replica names its gap");
            let serve: Vec<Block> = missing
                .iter()
                .filter_map(|id| peer.tree().get(*id).cloned())
                .collect();
            assert!(!serve.is_empty(), "the peer can serve the gap");
            recovered.ingest(serve, |_| {});
        }
        // Converged: same tip, and every surviving + healed block durable.
        assert_eq!(recovered.tree().height(), peer.tree().height());
        assert_eq!(tip(&recovered), tip(&peer));
        assert_eq!(recovered.store().unwrap().len(), recovered.tree().len() - 1);
    }

    #[test]
    fn batch_ingest_matches_sequential_and_pools_orphans() {
        let mut batched = durable_core(StoreConfig::small());
        let genesis = batched.tree().genesis().clone();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let d = BlockBuilder::new(&c).nonce(4).build();

        // Shuffled ready set plus an orphan whose parent (c) is missing.
        let report = batched.ingest(vec![b.clone(), a.clone(), d.clone()], |_| {});
        assert_eq!(
            report.verdicts,
            vec![
                IngestVerdict::Accepted,
                IngestVerdict::Accepted,
                IngestVerdict::Orphaned
            ]
        );
        assert!(!batched.pool().is_empty(), "the orphan waits in the pool");
        assert_eq!(batched.pool().missing_parents(), vec![c.id]);

        // Serving the gap settles the pooled orphan and persists it.
        let heal = batched.ingest(vec![c.clone()], |_| {});
        assert_eq!(heal.accepted, 1);
        assert!(batched.pool().is_empty());
        assert!(batched.tree().contains(d.id));
        assert!(batched.store().unwrap().contains(d.id));

        // Observationally equivalent to one-at-a-time ingest.
        let mut seq = durable_core(StoreConfig::small());
        feed(&mut seq, &[a, b, c, d], 0);
        assert_eq!(batched.tree().height(), seq.tree().height());
        assert_eq!(tip(&batched), tip(&seq));
        assert_eq!(batched.store().unwrap().len(), seq.store().unwrap().len());
    }

    #[test]
    fn batch_reingest_is_all_duplicates() {
        // No pruning: retired history would not re-stage as known.
        let produced = workload(40, 13);
        let mut core = durable_core(StoreConfig::small());
        feed(&mut core, &produced, 0);
        let report = core.ingest(produced.clone(), |_| {});
        assert_eq!(report.duplicates, produced.len());
        assert_eq!(report.accepted, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn recovery_after_prune_race_converges() {
        let mut core = durable_core(StoreConfig::small());
        feed(&mut core, &workload(200, 31), 32);
        core.store_mut().unwrap().checkpoint();
        // The keep-set `prune` would compute: cold spine + the selected
        // chain down from the tip.
        let mut keep: HashSet<BlockId> = core.cold_spine().iter().copied().collect();
        let mut cursor = core.tree().get(tip(&core)).cloned();
        while let Some(block) = cursor {
            keep.insert(block.id);
            cursor = block.parent.and_then(|p| core.tree().get(p).cloned());
        }
        let target = core.tree().height().saturating_sub(8);
        // Rip the store out mid-compaction (the PruneRace seam).
        let store = std::mem::replace(
            core.store_mut().unwrap(),
            BlockStore::create(SimMedium::new(), StoreConfig::small()),
        );
        let medium = store.prune_crashing_before_commit(&keep, target);
        let (mut recovered, report) = ReplicaCore::recover(medium, StoreConfig::small());
        assert!(report.duplicates_dropped > 0, "both layouts were on disk");
        assert_eq!(report.corrupt_records, 0, "the race loses no integrity");
        // Blocks orphaned by straddling forks (if any) heal from the
        // surviving pre-crash tree.
        let mut rounds = 0;
        while !recovered.pool().is_empty() {
            rounds += 1;
            assert!(rounds < 64, "healing must converge");
            let serve: Vec<Block> = recovered
                .pool()
                .missing_parents()
                .iter()
                .filter_map(|id| core.tree().get(*id).cloned())
                .collect();
            assert!(!serve.is_empty(), "the peer can serve the gap");
            recovered.ingest(serve, |_| {});
        }
        assert_eq!(recovered.tree().height(), core.tree().height());
    }

    #[test]
    fn prune_after_restart_keeps_what_the_uncrashed_core_keeps() {
        let store_ids = |core: &ReplicaCore| {
            let mut ids: Vec<BlockId> = core
                .store()
                .unwrap()
                .blocks()
                .iter()
                .map(|b| b.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        for seed in [3, 7, 11, 31] {
            let blocks = workload(300, seed);
            let (before, after) = blocks.split_at(200);
            let mut core = durable_core(StoreConfig::small());
            feed(&mut core, before, 32);
            core.store_mut().unwrap().checkpoint();
            assert!(!core.cold_spine().is_empty(), "seed {seed}: pruned");

            let image = core.store().unwrap().medium().snapshot();
            let (mut recovered, report) = ReplicaCore::recover(image, StoreConfig::small());
            assert!(report.is_pristine(), "seed {seed}: {report:?}");
            assert!(recovered.cold_spine().is_empty());
            assert_eq!(recovered.tree().genesis().id, Block::genesis().id);

            for c in [&mut core, &mut recovered] {
                feed(c, after, 0);
                c.store_mut().unwrap().checkpoint();
                assert!(c.prune(DEPTH).is_some(), "seed {seed}: the point moves");
            }
            assert_eq!(store_ids(&recovered), store_ids(&core), "seed {seed}");
            assert_eq!(tip(&recovered), tip(&core), "seed {seed}");
            assert_eq!(recovered.cold_spine(), core.cold_spine(), "seed {seed}");
        }
    }
}
