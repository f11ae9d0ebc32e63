//! A durable, memory-bounded replica: hot [`BlockTree`] window over a
//! [`BlockStore`].
//!
//! The ROADMAP north-star is million-block scale; an unboundedly growing
//! in-RAM tree is a non-starter.  [`CheckpointedReplica`] keeps only a
//! **hot window** of the tree resident — everything above the pruning
//! point — while the full selected-chain spine lives in cold chunks:
//!
//! * the tree, the pool of blocks still waiting for a parent and the store
//!   are one [`ReplicaCore`]: every batch (a single block is a batch of
//!   one) goes through its door, which links what it can, persists what
//!   linked and pools the rest (checkpoints fire on the store's cadence);
//! * every [`prune_every`](ReplicaConfig::prune_every) appends, the
//!   pruning point advances to `selected tip − prune_depth` (clamped to
//!   the last checkpoint height — the store refuses to GC unsealed
//!   history) and the hot tree is **rebased** onto the new pruning block
//!   via [`BlockTree::rerooted`]; losing subtrees entirely below the point
//!   are garbage-collected from the store.  Safety argument: a selection
//!   function with common-prefix ever picks a chain through the pruning
//!   point once it is `prune_depth` below the selected tip, so discarded
//!   forks can never be re-selected (the same argument rusty-kaspa's
//!   pruning processor makes);
//! * [`crash`](CheckpointedReplica::crash) +
//!   [`recover`](CheckpointedReplica::recover) round-trip through the
//!   store's recovery pipeline; blocks that corruption orphaned are
//!   surfaced via [`missing_parents`](CheckpointedReplica::missing_parents)
//!   and healed with [`admit_blocks`](CheckpointedReplica::admit_blocks) —
//!   the delta a healthy peer serves, through the same door.

use std::collections::HashSet;

use btadt_pipeline::{BatchReport, Ingest, IngestVerdict};
use btadt_types::{Block, BlockId, BlockTree};

use crate::durable::ReplicaCore;
use crate::medium::SimMedium;
use crate::store::{BlockStore, RecoveryReport, StoreConfig};

/// Static configuration of a [`CheckpointedReplica`].
#[derive(Clone, Copy, Debug)]
pub struct ReplicaConfig {
    /// Heights kept hot below the selected tip.
    pub prune_depth: u64,
    /// Appends between pruning attempts (0 = manual pruning only).
    pub prune_every: u64,
    /// Soft ceiling on resident hot blocks; `resident_peak` reports
    /// against it (the bench gate asserts the ceiling held).
    pub memory_ceiling: usize,
    /// Configuration of the underlying chunk store.
    pub store: StoreConfig,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            prune_depth: 64,
            prune_every: 256,
            memory_ceiling: 4096,
            store: StoreConfig::default(),
        }
    }
}

/// A durable replica with a bounded-resident hot window.
#[derive(Debug)]
pub struct CheckpointedReplica {
    config: ReplicaConfig,
    /// The hot window, the blocks waiting for a parent, and the store.
    core: ReplicaCore,
    /// Selected-chain block ids at heights `1..=pruning point`, oldest
    /// first — the cold spine (ids only; contents live in the store).
    cold_spine: Vec<BlockId>,
    appends_since_prune: u64,
    resident_peak: usize,
    pruned_from_hot: u64,
}

impl CheckpointedReplica {
    /// A fresh replica over an empty medium.
    pub fn new(config: ReplicaConfig) -> Self {
        let store = BlockStore::create(SimMedium::new(), config.store);
        Self::over(ReplicaCore::with_store(store), config)
    }

    fn over(core: ReplicaCore, config: ReplicaConfig) -> Self {
        let mut replica = CheckpointedReplica {
            config,
            core,
            cold_spine: Vec::new(),
            appends_since_prune: 0,
            resident_peak: 1,
            pruned_from_hot: 0,
        };
        replica.note_resident();
        replica
    }

    /// The replica's configuration.
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// The hot window.
    pub fn hot(&self) -> &BlockTree {
        self.core.tree()
    }

    /// The underlying store.
    pub fn store(&self) -> &BlockStore {
        self.core.store().expect("built over a store")
    }

    /// Mutable access to the store (fault-injector attachment point).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        self.core.store_mut().expect("built over a store")
    }

    /// Blocks currently resident in RAM (hot window + unhealed pool).
    pub fn resident_blocks(&self) -> usize {
        self.hot().len() + self.core.pool().len()
    }

    /// The high-water mark of [`resident_blocks`](Self::resident_blocks).
    pub fn resident_peak(&self) -> usize {
        self.resident_peak
    }

    /// Blocks evicted from the hot window by rebase pruning so far.
    pub fn pruned_from_hot(&self) -> u64 {
        self.pruned_from_hot
    }

    /// The current pruning point height.
    pub fn pruning_height(&self) -> u64 {
        self.hot().genesis().height
    }

    /// Height of the selected tip.
    pub fn height(&self) -> u64 {
        self.hot().height()
    }

    /// The selected tip (heaviest chain, largest-id tie-break).
    pub fn tip(&self) -> BlockId {
        self.hot().best_leaf_by_work(true)
    }

    /// Total chain length including the cold spine below the window.
    pub fn total_selected_len(&self) -> u64 {
        self.height() + 1
    }

    /// `true` iff the block is known hot, cold, or pooled.
    pub fn knows(&self, id: BlockId) -> bool {
        self.hot().contains(id) || self.store().contains(id) || self.core.pool().contains(id)
    }

    fn note_resident(&mut self) {
        self.resident_peak = self.resident_peak.max(self.resident_blocks());
    }

    /// Advances the pruning point to `selected tip − prune_depth` (clamped
    /// to the last checkpoint height) and rebases the hot window onto it.
    /// Returns the number of blocks GC'd from the store, or `None` when
    /// the point cannot advance yet.
    pub fn prune_now(&mut self) -> Option<usize> {
        self.appends_since_prune = 0;
        let tip = self.tip();
        let tip_height = self.hot().get(tip).expect("tip is resident").height;
        let target = tip_height
            .saturating_sub(self.config.prune_depth)
            .min(self.store().checkpoint_height());
        if target <= self.pruning_height() {
            return None;
        }

        // Walk the selected chain down to the new pruning block.
        let mut cursor = self.hot().get(tip).expect("tip is resident").clone();
        while cursor.height > target {
            let parent = cursor.parent.expect("above the root, parents resident");
            cursor = self
                .hot()
                .get(parent)
                .expect("above the root, parents resident")
                .clone();
        }
        let new_root = cursor;

        // Everything in the new root's subtree stays hot; the spine walk
        // from the new root down to the old root goes cold; the rest of
        // the old window is a losing subtree: GC it from the store.
        let root_idx = self
            .hot()
            .idx_of(new_root.id)
            .expect("new root is resident");
        let mut keep_hot: HashSet<BlockId> = HashSet::new();
        let mut stack = vec![root_idx];
        while let Some(idx) = stack.pop() {
            keep_hot.insert(self.hot().block_at(idx).id);
            stack.extend(self.hot().children_idx(idx));
        }
        let mut new_cold: Vec<BlockId> = Vec::new();
        let mut walk = new_root.clone();
        while walk.height > self.pruning_height() {
            new_cold.push(walk.id);
            let Some(parent) = walk.parent else { break };
            match self.hot().get(parent) {
                Some(block) => walk = block.clone(),
                None => break,
            }
        }
        new_cold.reverse();
        self.cold_spine.extend(new_cold);

        let mut keep_store: HashSet<BlockId> = self.cold_spine.iter().copied().collect();
        keep_store.extend(keep_hot.iter().copied());
        let outcome = self.store_mut().prune(&keep_store, target);

        // Rebase the hot window (arena order keeps parents first).
        let mut window = BlockTree::rerooted(new_root.clone());
        for block in self.hot().blocks() {
            if block.id != new_root.id && keep_hot.contains(&block.id) {
                window
                    .insert(block.clone())
                    .expect("subtree re-inserts in arena order");
            }
        }
        self.pruned_from_hot += (self.hot().len() - window.len()) as u64;
        self.core.rebase(window);
        self.note_resident();
        Some(outcome.dropped)
    }

    /// Forces a checkpoint of the underlying store.
    pub fn checkpoint(&mut self) {
        self.store_mut().checkpoint();
    }

    /// Simulates a crash: volatile state is lost, the medium survives.
    pub fn crash(self) -> SimMedium {
        self.core
            .into_store()
            .expect("built over a store")
            .into_medium()
    }

    /// Rebuilds a replica from a crashed medium ([`ReplicaCore::recover`]).
    /// Surviving blocks relink from the genesis block up; whatever
    /// corruption severed waits in the pool until
    /// [`admit_blocks`](Self::admit_blocks) heals the gap.
    pub fn recover(medium: SimMedium, config: ReplicaConfig) -> (Self, RecoveryReport) {
        let (core, report) = ReplicaCore::recover(medium, config.store);
        (Self::over(core, config), report)
    }

    /// The parent ids the pooled blocks are waiting for — the exact
    /// damaged/missing gap to request from healthy peers.
    pub fn missing_parents(&self) -> Vec<BlockId> {
        self.core.pool().missing_parents()
    }

    /// `true` iff every surviving block is linked into the hot tree.
    pub fn is_healed(&self) -> bool {
        self.core.pool().is_empty()
    }

    /// Admits peer-served blocks through the door (any order settles via
    /// the pool) without running the pruning cadence.  Returns the number
    /// of blocks newly linked into the tree.
    pub fn admit_blocks(&mut self, blocks: &[Block]) -> usize {
        let before = self.hot().len();
        self.core.ingest(blocks.to_vec(), |_| {});
        self.note_resident();
        self.hot().len() - before
    }
}

/// The unified ingest door, then the pruning cadence.  Batches stage
/// against the hot window; a block extending history the replica has
/// retired below the pruning point reports `Orphaned` like any other block
/// whose parent is not resident.
impl Ingest for CheckpointedReplica {
    fn knows_block(&self, id: BlockId) -> bool {
        self.knows(id)
    }

    fn ingest_block(&mut self, block: Block) -> IngestVerdict {
        self.ingest_batch(vec![block]).verdicts.remove(0)
    }

    fn ingest_batch(&mut self, blocks: Vec<Block>) -> BatchReport {
        let mut linked = 0u64;
        let report = self.core.ingest(blocks, |_| linked += 1);
        self.note_resident();
        self.appends_since_prune += linked;
        if self.config.prune_every > 0 && self.appends_since_prune >= self.config.prune_every {
            self.prune_now();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    /// Drives a deterministic mostly-linear workload with occasional forks.
    fn grow(replica: &mut CheckpointedReplica, n: usize, seed: u64) -> Vec<Block> {
        let mut produced = Vec::with_capacity(n);
        let mut tips: Vec<Block> = vec![replica.hot().genesis().clone()];
        let mut state = seed;
        for i in 0..n {
            state = crate::medium::splitmix64(state);
            // 1 in 8 blocks forks off a recent (still-hot) ancestor.
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
            assert!(
                replica.ingest_block(block.clone()).is_accepted(),
                "parent is hot"
            );
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

    fn small_config() -> ReplicaConfig {
        ReplicaConfig {
            prune_depth: 16,
            prune_every: 32,
            memory_ceiling: 128,
            store: StoreConfig::small(),
        }
    }

    #[test]
    fn pruning_keeps_residency_bounded_and_the_spine_cold() {
        let mut replica = CheckpointedReplica::new(small_config());
        grow(&mut replica, 500, 7);
        assert!(
            replica.resident_peak() <= replica.config().memory_ceiling,
            "peak {} over ceiling {}",
            replica.resident_peak(),
            replica.config().memory_ceiling
        );
        assert!(replica.pruning_height() > 0, "the point advanced");
        assert!(replica.pruned_from_hot() > 0);
        // The cold spine + hot selected chain reconstruct the full chain.
        assert_eq!(
            replica.cold_spine.len() as u64,
            replica.pruning_height(),
            "one cold spine id per pruned height"
        );
        // The store holds the spine: every cold id is durable.
        for id in &replica.cold_spine {
            assert!(replica.store().contains(*id));
        }
    }

    #[test]
    fn pruning_never_advances_past_the_last_checkpoint() {
        let mut config = small_config();
        config.store.auto_checkpoint_every = 0; // manual checkpoints only
        config.prune_every = 0;
        let mut replica = CheckpointedReplica::new(config);
        grow(&mut replica, 60, 3);
        // No checkpoint has ever run: pruning cannot advance at all.
        assert_eq!(replica.prune_now(), None);
        replica.checkpoint();
        let gc = replica.prune_now();
        assert!(gc.is_some(), "after a checkpoint the point advances");
    }

    #[test]
    fn crash_recover_round_trip_is_lossless_when_clean() {
        let mut replica = CheckpointedReplica::new(small_config());
        grow(&mut replica, 200, 11);
        replica.checkpoint();
        let tip = replica.tip();
        let height = replica.height();
        let stored = replica.store().len();
        let (recovered, report) = CheckpointedReplica::recover(replica.crash(), small_config());
        assert!(report.is_pristine(), "{report:?}");
        assert!(recovered.is_healed());
        assert_eq!(recovered.store().len(), stored);
        assert_eq!(recovered.height(), height);
        assert_eq!(recovered.tip(), tip);
    }

    #[test]
    fn corruption_gap_is_healed_from_a_peer() {
        let config = ReplicaConfig {
            prune_depth: 64,
            prune_every: 0, // keep everything hot on the peer
            memory_ceiling: 4096,
            store: StoreConfig::small(),
        };
        let mut replica = CheckpointedReplica::new(config);
        let produced = grow(&mut replica, 120, 23);
        replica.checkpoint();
        // A pristine peer that saw the same history.
        let mut peer = CheckpointedReplica::new(config);
        for block in &produced {
            assert!(peer.ingest_block(block.clone()).is_accepted());
        }

        // Corrupt two chunks: a bit flip and a torn tail.
        let mut medium = replica.crash();
        let chunks: Vec<String> = medium
            .list()
            .into_iter()
            .filter(|f| f.starts_with("chunk-"))
            .collect();
        assert!(chunks.len() >= 3);
        medium.corrupt_bit(&chunks[1], 130 * 8);
        let tail = medium.len(&chunks[2]);
        medium.truncate(&chunks[2], tail.saturating_sub(9));

        let (mut recovered, report) = CheckpointedReplica::recover(medium, config);
        assert!(!report.is_pristine());
        assert!(report.blocks_recovered < produced.len());

        // Heal: serve exactly what the replica asks for until it settles.
        let mut rounds = 0;
        while !recovered.is_healed() {
            rounds += 1;
            assert!(rounds < 64, "healing must converge");
            let missing = recovered.missing_parents();
            assert!(!missing.is_empty(), "unhealed replica names its gap");
            let serve: Vec<Block> = missing
                .iter()
                .filter_map(|id| peer.hot().get(*id).cloned())
                .collect();
            assert!(!serve.is_empty(), "the peer can serve the gap");
            recovered.admit_blocks(&serve);
        }
        // Converged: same tip, and every surviving + healed block durable.
        assert_eq!(recovered.height(), peer.height());
        assert_eq!(recovered.tip(), peer.tip());
        assert_eq!(recovered.store().len(), recovered.hot().len() - 1);
    }

    #[test]
    fn batch_ingest_matches_sequential_and_pools_orphans() {
        let config = small_config();
        let mut batched = CheckpointedReplica::new(config);
        let genesis = batched.hot().genesis().clone();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let d = BlockBuilder::new(&c).nonce(4).build();

        // Shuffled ready set plus an orphan whose parent (c) is missing.
        let report = batched.ingest_batch(vec![b.clone(), a.clone(), d.clone()]);
        assert_eq!(
            report.verdicts,
            vec![
                IngestVerdict::Accepted,
                IngestVerdict::Accepted,
                IngestVerdict::Orphaned
            ]
        );
        assert!(!batched.is_healed(), "the orphan waits in the pool");
        assert_eq!(batched.missing_parents(), vec![c.id]);

        // Serving the gap settles the pooled orphan and persists it.
        let heal = batched.ingest_batch(vec![c.clone()]);
        assert_eq!(heal.accepted, 1);
        assert!(batched.is_healed());
        assert!(batched.hot().contains(d.id));
        assert!(batched.store().contains(d.id));

        // Observationally equivalent to one-at-a-time ingest.
        let mut seq = CheckpointedReplica::new(config);
        for block in [&a, &b, &c, &d] {
            assert!(seq.ingest_block(block.clone()).is_accepted());
        }
        assert_eq!(batched.height(), seq.height());
        assert_eq!(batched.tip(), seq.tip());
        assert_eq!(batched.store().len(), seq.store().len());
    }

    #[test]
    fn batch_reingest_is_all_duplicates() {
        let mut config = small_config();
        config.prune_every = 0; // retired history would not re-stage as known
        let mut replica = CheckpointedReplica::new(config);
        let produced = grow(&mut replica, 40, 13);
        let report = replica.ingest_batch(produced.clone());
        assert_eq!(report.duplicates, produced.len());
        assert_eq!(report.accepted, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn recovery_after_prune_race_converges() {
        let config = small_config();
        let mut replica = CheckpointedReplica::new(config);
        let _ = grow(&mut replica, 200, 31);
        replica.checkpoint();
        // The keep-set prune_now would compute: cold spine + the selected
        // chain down from the tip.
        let mut keep: HashSet<BlockId> = replica.cold_spine.iter().copied().collect();
        let mut cursor = replica.hot().get(replica.tip()).cloned();
        while let Some(block) = cursor {
            keep.insert(block.id);
            cursor = block.parent.and_then(|p| replica.hot().get(p).cloned());
        }
        let target = replica.height().saturating_sub(8);
        // Rip the store out mid-compaction (the PruneRace seam).
        let store = std::mem::replace(
            replica.store_mut(),
            BlockStore::create(SimMedium::new(), config.store),
        );
        let medium = store.prune_crashing_before_commit(&keep, target);
        let (mut recovered, report) = CheckpointedReplica::recover(medium, config);
        assert!(report.duplicates_dropped > 0, "both layouts were on disk");
        assert_eq!(report.corrupt_records, 0, "the race loses no integrity");
        // Blocks orphaned by straddling forks (if any) heal from the
        // surviving pre-crash tree.
        let mut rounds = 0;
        while !recovered.is_healed() {
            rounds += 1;
            assert!(rounds < 64, "healing must converge");
            let serve: Vec<Block> = recovered
                .missing_parents()
                .iter()
                .filter_map(|id| replica.hot().get(*id).cloned())
                .collect();
            assert!(!serve.is_empty(), "the peer can serve the gap");
            recovered.admit_blocks(&serve);
        }
        assert_eq!(recovered.height(), replica.height());
    }
}
