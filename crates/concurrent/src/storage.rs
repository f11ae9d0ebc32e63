//! Bridges the chaos grid's fault plans onto the durable medium.
//!
//! The schedule seams of [`crate::fault`] perturb *when* things happen;
//! the storage seams perturb *what survives*.  This module translates an
//! armed storage seam into the write-fault vocabulary of
//! [`btadt_store::SimMedium`] — a [`FaultAction::Corrupt`] at
//! [`Seam::StoreTornWrite`] becomes a torn append, at
//! [`Seam::StoreStaleManifest`] a dropped manifest rename, and so on —
//! and runs the chaos cell's storage epilogue: crash the store, recover
//! it from the (possibly mangled) medium, re-heal the damage gap from the
//! in-memory replica acting as the healthy peer, and judge the result
//! with [`check_store_tree_agreement`].
//!
//! Trigger decisions reuse [`FaultPlan::decide`] under a fixed
//! pseudo-client, so *which write occurrences* are corrupted is a pure
//! function of the plan seed and the store's write sequence — the same
//! determinism contract the schedule seams keep.

use std::collections::HashSet;

use btadt_core::invariant::{check_store_tree_agreement, InvariantViolation};
use btadt_store::{
    BlockStore, FaultInjector, RecoveryReport, SimMedium, WriteFault, WriteKind, WriteOp,
};
use btadt_types::rng::mix64;
use btadt_types::{Block, BlockId, BlockTree, GENESIS_ID};

use crate::fault::{FaultAction, FaultPlan, Seam, SEAM_COUNT};

/// The pseudo-client index under which storage-seam triggers are drawn.
/// There is one durable medium per replica, not one per thread, so its
/// fault stream hangs off the write sequence rather than any client.
pub const STORAGE_CLIENT: usize = 0xD15C;

/// A [`FaultInjector`] driven by a chaos-cell [`FaultPlan`]: each durable
/// operation crosses the storage seam matching its kind, and an armed
/// [`FaultAction::Corrupt`] becomes the seam's write fault.
pub struct PlanInjector {
    plan: FaultPlan,
    hits: [u32; SEAM_COUNT],
    injected: u64,
}

impl PlanInjector {
    /// An injector executing `plan`'s storage arms.
    pub fn new(plan: FaultPlan) -> Self {
        PlanInjector {
            plan,
            hits: [0; SEAM_COUNT],
            injected: 0,
        }
    }

    /// Number of write faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Advances `seam`'s occurrence counter and, when the plan fires,
    /// returns position entropy for the fault (drawn independently of the
    /// trigger so changing a rate does not move every fault's byte).
    fn fires(&mut self, seam: Seam) -> Option<u64> {
        let occurrence = self.hits[seam.index()];
        self.hits[seam.index()] = occurrence.wrapping_add(1);
        match self.plan.decide(STORAGE_CLIENT, seam, occurrence) {
            FaultAction::Proceed => None,
            _ => {
                self.injected += 1;
                Some(mix64(
                    self.plan.seed
                        ^ 0x5704_41BE_u64.wrapping_mul(u64::from(occurrence).wrapping_add(1))
                        ^ ((seam.index() as u64) << 48),
                ))
            }
        }
    }
}

impl FaultInjector for PlanInjector {
    fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
        match op.kind {
            WriteKind::Append => {
                // Both append seams advance on every medium write — one per
                // stretch of a run, not one per record — so each seam's
                // fault set stays a pure function of the write sequence.
                let torn = self.fires(Seam::StoreTornWrite);
                let flip = self.fires(Seam::StoreBitFlip);
                if let Some(entropy) = torn {
                    WriteFault::Torn(entropy as usize % op.len.max(1))
                } else if let Some(entropy) = flip {
                    WriteFault::FlipBit(entropy as usize % (op.len.max(1) * 8))
                } else {
                    WriteFault::None
                }
            }
            WriteKind::Overwrite => match self.fires(Seam::StorePartialCheckpoint) {
                Some(entropy) => WriteFault::Torn(entropy as usize % op.len.max(1)),
                None => WriteFault::None,
            },
            WriteKind::Rename => match self.fires(Seam::StoreStaleManifest) {
                Some(_) => WriteFault::Drop,
                None => WriteFault::None,
            },
        }
    }
}

/// The judged result of a chaos cell's storage epilogue.
#[derive(Clone, Debug)]
pub struct StorageReport {
    /// The recovery pipeline's damage report.
    pub recovery: RecoveryReport,
    /// Blocks the replica handed the store before the crash.
    pub appended: u64,
    /// Medium writes the store had issued by then (record stretches,
    /// manifest overwrites and renames).
    pub medium_writes: u64,
    /// Blocks the medium could prove after recovery.
    pub recovered_blocks: usize,
    /// Blocks re-appended from the in-memory peer to close the damage gap.
    pub healed: usize,
    /// `true` iff the epilogue crashed a pruning compaction before its
    /// commit (the [`Seam::StorePruneRace`] drill).
    pub prune_raced: bool,
    /// Store↔tree agreement violations after recovery *and* healing
    /// (empty means the durable state converged back to the replica).
    pub violations: Vec<InvariantViolation>,
}

impl StorageReport {
    /// `true` iff the healed store agrees with the resident tree.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The storage epilogue of a chaos cell: crash the store (optionally in
/// the middle of a pruning compaction), recover from the surviving bytes,
/// re-heal whatever the corruption cost from `tree` — the in-memory
/// replica standing in for a healthy peer — and check store↔tree
/// agreement.
pub fn crash_recover_heal(tree: &BlockTree, store: BlockStore, plan: &FaultPlan) -> StorageReport {
    let config = store.config();
    let appended = store.stats().appended;
    let medium_writes = store.medium().stats().writes;

    // The PruneRace drill: compact away losing subtrees below the tip,
    // then crash before the manifest swap commits the new layout.
    let prune_raced = plan.arms_seam(Seam::StorePruneRace) && tree.height() > 0;
    let medium = if prune_raced {
        let tip = tree.best_leaf_by_work(true);
        let keep: HashSet<BlockId> = tree
            .chain_to(tip)
            .expect("the best leaf is in the tree")
            .ids()
            .collect();
        let target = tree.height().saturating_sub(2);
        store.prune_crashing_before_commit(&keep, target)
    } else {
        store.into_medium()
    };

    let (mut recovered, recovery, survivors) = BlockStore::recover(medium, config);
    let recovered_blocks = survivors.len();

    // Heal: re-append what the medium lost, parents before children so a
    // later sequential re-ingest sees a well-ordered stream.
    let mut missing: Vec<&Block> = tree
        .blocks()
        .filter(|b| b.id != GENESIS_ID && !recovered.contains(b.id))
        .collect();
    missing.sort_by_key(|b| (b.height, b.id));
    let healed = missing.len();
    recovered.append_run(missing);
    recovered.checkpoint();

    let violations = check_store_tree_agreement(tree, &recovered.blocks());
    StorageReport {
        recovery,
        appended,
        medium_writes,
        recovered_blocks,
        healed,
        prune_raced,
        violations,
    }
}

/// Builds the faulted durable store a storage-arming chaos cell attaches
/// to its replica: a fresh medium with a [`PlanInjector`] for `plan`, and
/// small chunks so a 30-op workload still seals and checkpoints.
pub fn faulted_store(plan: &FaultPlan) -> BlockStore {
    let mut medium = SimMedium::new();
    medium.set_injector(Box::new(PlanInjector::new(plan.clone())));
    BlockStore::create(medium, btadt_store::StoreConfig::small())
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn grown_tree(n: u64) -> BlockTree {
        let mut tree = BlockTree::new();
        let mut parent = tree.genesis().clone();
        for nonce in 0..n {
            let block = BlockBuilder::new(&parent).nonce(nonce).build();
            tree.insert(block.clone()).unwrap();
            parent = block;
        }
        tree
    }

    #[test]
    fn injector_decisions_replay_identically() {
        let plan = FaultPlan::torn_storage(7);
        let trace = || -> Vec<WriteFault> {
            let mut inj = PlanInjector::new(plan.clone());
            (0..128)
                .map(|_| {
                    inj.on_write(&WriteOp {
                        kind: WriteKind::Append,
                        file: "chunk-0000000000",
                        len: 64,
                    })
                })
                .collect()
        };
        assert_eq!(trace(), trace());
        let faults = trace().iter().filter(|f| **f != WriteFault::None).count();
        assert!(faults > 0, "armed torn/flip rates fire within 128 writes");
        assert!(faults < 128, "single-digit rates do not always fire");
    }

    #[test]
    fn quiet_plans_inject_no_write_faults() {
        let mut inj = PlanInjector::new(FaultPlan::stalled_winners(3));
        for kind in [WriteKind::Append, WriteKind::Overwrite, WriteKind::Rename] {
            for _ in 0..32 {
                let fault = inj.on_write(&WriteOp {
                    kind,
                    file: "manifest",
                    len: 40,
                });
                assert_eq!(fault, WriteFault::None);
            }
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn a_corrupted_store_heals_back_to_agreement() {
        let tree = grown_tree(40);
        let plan = FaultPlan::torn_storage(5);
        let mut store = faulted_store(&plan);
        for block in tree.blocks().filter(|b| !b.is_genesis()) {
            store.append(block);
        }
        store.checkpoint();
        let report = crash_recover_heal(&tree, store, &plan);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(!report.prune_raced);
        assert_eq!(
            report.recovered_blocks + report.healed,
            40,
            "recovery plus healing accounts for every block"
        );
    }

    /// Faults the first append, faithfully passes everything else.
    struct FirstAppend(Option<WriteFault>);

    impl FaultInjector for FirstAppend {
        fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
            match op.kind {
                WriteKind::Append => self.0.take().unwrap_or(WriteFault::None),
                _ => WriteFault::None,
            }
        }
    }

    #[test]
    fn a_torn_or_flipped_group_write_costs_only_the_records_it_touched() {
        const RUN: usize = 64;
        let tree = grown_tree(RUN as u64);
        let blocks: Vec<&Block> = tree.blocks().filter(|b| !b.is_genesis()).collect();
        // Offset of each record boundary in the one 64-record group write.
        let mut boundary = vec![0usize];
        for block in &blocks {
            boundary.push(boundary[boundary.len() - 1] + btadt_store::encode_record(block).len());
        }
        let config = btadt_store::StoreConfig::default();
        let run_with = |fault: WriteFault| -> (StorageReport, Vec<BlockId>) {
            let mut medium = SimMedium::new();
            medium.set_injector(Box::new(FirstAppend(Some(fault))));
            let mut store = BlockStore::create(medium, config);
            store.append_run(blocks.iter().copied());
            assert_eq!(store.medium().stats().writes, 1, "the run is one write");
            store.checkpoint();
            // What a restart would find, then the chaos epilogue over the
            // same crashed store.
            let image = store.medium().snapshot();
            let survivors = BlockStore::recover(image, config).2;
            let report = crash_recover_heal(&tree, store, &FaultPlan::quiet(0));
            (report, survivors.iter().map(|b| b.id).collect())
        };
        let ids = |range: &[&Block]| -> Vec<BlockId> { range.iter().map(|b| b.id).collect() };

        // Torn at every record boundary, one byte either side, and
        // mid-record: exactly the whole records before the tear survive.
        for i in 0..RUN {
            let mid = (boundary[i] + boundary[i + 1]) / 2;
            for keep in [
                boundary[i].saturating_sub(1),
                boundary[i],
                boundary[i] + 1,
                mid,
            ] {
                let whole = boundary.iter().skip(1).filter(|&&end| end <= keep).count();
                let (report, survivors) = run_with(WriteFault::Torn(keep));
                let what = format!("torn after {keep} bytes");
                assert_eq!(survivors, ids(&blocks[..whole]), "{what}");
                assert_eq!(report.recovered_blocks, whole, "{what}");
                assert_eq!(report.healed, RUN - whole, "{what}");
                let torn = (keep - boundary[whole]) as u64;
                assert_eq!(report.recovery.torn_tail_bytes, torn, "{what}");
                assert!(report.is_clean(), "{what}: {:?}", report.violations);
            }
        }
        // A bit flipped inside record k (past its length prefix): all but
        // record k survive.
        for k in [0, 1, 31, RUN - 1] {
            for byte in [4, 20, boundary[k + 1] - boundary[k] - 1] {
                let (report, survivors) =
                    run_with(WriteFault::FlipBit((boundary[k] + byte) * 8 + 3));
                let what = format!("flip in record {k}, byte {byte}");
                let mut expected = ids(&blocks);
                expected.remove(k);
                assert_eq!(survivors, expected, "{what}");
                assert_eq!(report.recovery.corrupt_records, 1, "{what}");
                assert_eq!(report.healed, 1, "{what}");
                assert!(report.is_clean(), "{what}: {:?}", report.violations);
            }
        }
    }

    #[test]
    fn a_prune_race_collapses_and_heals() {
        let tree = grown_tree(30);
        let plan = FaultPlan::checkpoint_chaos(9);
        let mut store = faulted_store(&plan);
        for block in tree.blocks().filter(|b| !b.is_genesis()) {
            store.append(block);
        }
        store.checkpoint();
        let report = crash_recover_heal(&tree, store, &plan);
        assert!(report.prune_raced, "checkpoint-chaos arms the prune race");
        assert!(report.is_clean(), "{:?}", report.violations);
    }
}
