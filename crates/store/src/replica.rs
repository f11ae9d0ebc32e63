//! A durable, memory-bounded replica: hot [`BlockTree`] window over a
//! [`BlockStore`].
//!
//! The ROADMAP north-star is million-block scale; an unboundedly growing
//! in-RAM tree is a non-starter.  [`CheckpointedReplica`] keeps only a
//! **hot window** of the tree resident — everything above the pruning
//! point — while the full selected-chain spine lives in cold chunks:
//!
//! * [`ingest`](CheckpointedReplica::ingest) inserts into the hot tree and
//!   appends to the store (checkpoints fire on the store's cadence);
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
//!   the delta a healthy peer serves.

use std::collections::HashSet;

use btadt_pipeline::{stage_batch, BatchReport, Ingest, IngestError, IngestVerdict, StagedBatch};
use btadt_types::{Block, BlockId, BlockTree};

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
    hot: BlockTree,
    store: BlockStore,
    /// Selected-chain block ids at heights `1..=pruning point`, oldest
    /// first — the cold spine (ids only; contents live in the store).
    cold_spine: Vec<BlockId>,
    /// Blocks recovered or received whose parents are not (yet) present.
    pending: Vec<Block>,
    appends_since_prune: u64,
    resident_peak: usize,
    pruned_from_hot: u64,
}

impl CheckpointedReplica {
    /// A fresh replica over an empty medium.
    pub fn new(config: ReplicaConfig) -> Self {
        CheckpointedReplica {
            config,
            hot: BlockTree::new(),
            store: BlockStore::create(SimMedium::new(), config.store),
            cold_spine: Vec::new(),
            pending: Vec::new(),
            appends_since_prune: 0,
            resident_peak: 1,
            pruned_from_hot: 0,
        }
    }

    /// The replica's configuration.
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// The hot window.
    pub fn hot(&self) -> &BlockTree {
        &self.hot
    }

    /// The underlying store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Mutable access to the store (fault-injector attachment point).
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Blocks currently resident in RAM (hot window + unhealed pending).
    pub fn resident_blocks(&self) -> usize {
        self.hot.len() + self.pending.len()
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
        self.hot.genesis().height
    }

    /// Height of the selected tip.
    pub fn height(&self) -> u64 {
        self.hot.height()
    }

    /// The selected tip (heaviest chain, largest-id tie-break).
    pub fn tip(&self) -> BlockId {
        self.hot.best_leaf_by_work(true)
    }

    /// Total chain length including the cold spine below the window.
    pub fn total_selected_len(&self) -> u64 {
        self.height() + 1
    }

    /// `true` iff the block is known hot, cold, or pending.
    pub fn knows(&self, id: BlockId) -> bool {
        self.hot.contains(id) || self.store.contains(id) || self.pending.iter().any(|b| b.id == id)
    }

    fn note_resident(&mut self) {
        self.resident_peak = self.resident_peak.max(self.resident_blocks());
    }

    /// Ingests one block: hot insert + durable append, then the pruning
    /// cadence.  Blocks below the pruning point are rejected as
    /// `UnknownParent` — they extend history the replica has retired.
    pub fn ingest(&mut self, block: Block) -> Result<(), IngestError> {
        self.hot.insert(block.clone())?;
        self.store.append(&block);
        self.note_resident();
        self.appends_since_prune += 1;
        if self.config.prune_every > 0 && self.appends_since_prune >= self.config.prune_every {
            self.prune_now();
        }
        Ok(())
    }

    /// Advances the pruning point to `selected tip − prune_depth` (clamped
    /// to the last checkpoint height) and rebases the hot window onto it.
    /// Returns the number of blocks GC'd from the store, or `None` when
    /// the point cannot advance yet.
    pub fn prune_now(&mut self) -> Option<usize> {
        self.appends_since_prune = 0;
        let tip = self.tip();
        let tip_height = self.hot.get(tip).expect("tip is resident").height;
        let target = tip_height
            .saturating_sub(self.config.prune_depth)
            .min(self.store.checkpoint_height());
        if target <= self.pruning_height() {
            return None;
        }

        // Walk the selected chain down to the new pruning block.
        let mut cursor = self.hot.get(tip).expect("tip is resident").clone();
        while cursor.height > target {
            let parent = cursor.parent.expect("above the root, parents resident");
            cursor = self
                .hot
                .get(parent)
                .expect("above the root, parents resident")
                .clone();
        }
        let new_root = cursor;

        // Everything in the new root's subtree stays hot; the spine walk
        // from the new root down to the old root goes cold; the rest of
        // the old window is a losing subtree: GC it from the store.
        let root_idx = self.hot.idx_of(new_root.id).expect("new root is resident");
        let mut keep_hot: HashSet<BlockId> = HashSet::new();
        let mut stack = vec![root_idx];
        while let Some(idx) = stack.pop() {
            keep_hot.insert(self.hot.block_at(idx).id);
            stack.extend_from_slice(self.hot.children_idx(idx));
        }
        let mut new_cold: Vec<BlockId> = Vec::new();
        let mut walk = new_root.clone();
        while walk.height > self.pruning_height() {
            new_cold.push(walk.id);
            let Some(parent) = walk.parent else { break };
            match self.hot.get(parent) {
                Some(block) => walk = block.clone(),
                None => break,
            }
        }
        new_cold.reverse();
        self.cold_spine.extend(new_cold);

        let mut keep_store: HashSet<BlockId> = self.cold_spine.iter().copied().collect();
        keep_store.extend(keep_hot.iter().copied());
        let outcome = self.store.prune(&keep_store, target);

        // Rebase the hot window (arena order keeps parents first).
        let mut window = BlockTree::rerooted(new_root.clone());
        for block in self.hot.blocks() {
            if block.id != new_root.id && keep_hot.contains(&block.id) {
                window
                    .insert(block.clone())
                    .expect("subtree re-inserts in arena order");
            }
        }
        self.pruned_from_hot += (self.hot.len() - window.len()) as u64;
        self.hot = window;
        self.note_resident();
        Some(outcome.dropped)
    }

    /// Forces a checkpoint of the underlying store.
    pub fn checkpoint(&mut self) {
        self.store.checkpoint();
    }

    /// Simulates a crash: volatile state is lost, the medium survives.
    pub fn crash(self) -> SimMedium {
        self.store.into_medium()
    }

    /// Rebuilds a replica from a crashed medium.  Surviving blocks are
    /// re-inserted orphan-tolerantly from the genesis block up; whatever
    /// corruption severed waits in `pending` until
    /// [`admit_blocks`](Self::admit_blocks) heals the gap.
    pub fn recover(medium: SimMedium, config: ReplicaConfig) -> (Self, RecoveryReport) {
        let (store, report, survivors) = BlockStore::recover(medium, config.store);
        let mut replica = CheckpointedReplica {
            config,
            hot: BlockTree::new(),
            store,
            cold_spine: Vec::new(),
            pending: survivors,
            appends_since_prune: 0,
            resident_peak: 1,
            pruned_from_hot: 0,
        };
        replica.settle_pending();
        replica.note_resident();
        (replica, report)
    }

    /// Re-inserts pending blocks until no progress: each pass admits every
    /// block whose parent became resident.  Quadratic in the worst case
    /// but pending sets are corruption-sized, not history-sized.  Returns
    /// the blocks it linked, in link order.
    fn settle_pending(&mut self) -> Vec<Block> {
        let mut linked = Vec::new();
        loop {
            let before = linked.len();
            let mut still = Vec::with_capacity(self.pending.len());
            for block in std::mem::take(&mut self.pending) {
                if self.hot.contains(block.id) {
                    continue; // duplicate
                }
                match self.hot.insert(block.clone()) {
                    Ok(()) => linked.push(block),
                    Err(_) => still.push(block),
                }
            }
            self.pending = still;
            if linked.len() == before || self.pending.is_empty() {
                return linked;
            }
        }
    }

    /// Settles the pending pool and persists what it linked: a batch's
    /// orphans wait in the pool unpersisted (recovery survivors and
    /// peer-served blocks are already durable).
    fn settle_and_persist(&mut self) {
        for block in self.settle_pending() {
            if !self.store.contains(block.id) {
                self.store.append(&block);
            }
        }
        self.note_resident();
    }

    /// The parent ids the pending blocks are waiting for — the exact
    /// damaged/missing gap to request from healthy peers.
    pub fn missing_parents(&self) -> Vec<BlockId> {
        let mut missing: Vec<BlockId> = self
            .pending
            .iter()
            .filter_map(|b| b.parent)
            .filter(|p| !self.hot.contains(*p) && !self.pending.iter().any(|b| b.id == *p))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        missing
    }

    /// `true` iff every surviving block is linked into the hot tree.
    pub fn is_healed(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits peer-served blocks (parents-first batches work best, but any
    /// order settles via the pending pool).  New blocks are re-persisted.
    /// Returns the number of blocks newly linked into the tree.
    pub fn admit_blocks(&mut self, blocks: &[Block]) -> usize {
        let before = self.hot.len();
        for block in blocks {
            if self.hot.contains(block.id) || self.pending.iter().any(|b| b.id == block.id) {
                continue;
            }
            let was_stored = self.store.contains(block.id);
            if self.hot.insert(block.clone()).is_err() {
                self.pending.push(block.clone());
            }
            if !was_stored {
                self.store.append(block);
            }
        }
        self.settle_and_persist();
        self.hot.len() - before
    }
}

/// The unified ingest door: batches stage against everything the replica
/// knows (hot, cold, pending); orphans wait in the same pending pool that
/// recovery survivors and peer-served deltas settle through.
impl Ingest for CheckpointedReplica {
    fn knows_block(&self, id: BlockId) -> bool {
        self.knows(id)
    }

    fn ingest_block(&mut self, block: Block) -> IngestVerdict {
        IngestVerdict::from_result(self.ingest(block))
    }

    fn ingest_batch(&mut self, blocks: Vec<Block>) -> BatchReport {
        let StagedBatch {
            ready,
            orphans,
            mut verdicts,
            ..
        } = stage_batch(blocks, |id| self.knows(id));
        for (pos, block) in ready {
            verdicts[pos] = Some(IngestVerdict::from_result(self.ingest(block)));
        }
        for (_, block) in orphans {
            self.pending.push(block);
        }
        // A settled orphan still reports `Orphaned` — the verdict describes
        // what staging saw, and pooling (not rejection) is the contract.
        self.settle_and_persist();
        BatchReport::from_verdicts(
            verdicts
                .into_iter()
                .map(|v| v.expect("every input position receives a verdict"))
                .collect(),
        )
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
            replica.ingest(block.clone()).expect("parent is hot");
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
            peer.ingest(block.clone()).unwrap();
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
        assert!(!batched.is_healed(), "the orphan waits in pending");
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
            seq.ingest(block.clone()).unwrap();
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
            &mut replica.store,
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
