//! The durable-store suite behind `BENCH_store.json`.
//!
//! Two sections, both **fully deterministic** (no wall-clock fields, so
//! the committed baseline diffs byte-for-byte across hosts):
//!
//! * **`steady`** — the memory-ceiling drill of ROADMAP item 3: a durable
//!   [`ReplicaCore`] ingests a 10⁵-block workload (5 × 10³ in smoke mode)
//!   one block at a time, calling [`ReplicaCore::prune`] on its scale's
//!   cadence, and the row records the resident high-water mark against
//!   the scale's ceiling.
//!   `under_ceiling` flipping false is the regression CI guards.
//! * **`corruption`** — seeded corruption recovery cells: the steady
//!   replica's crashed disk image is copied once per `(fault, seed)`
//!   cell, damaged deterministically (torn chunk tail, flipped bit,
//!   torn manifest), recovered through the store's verifying pipeline
//!   and healed from a pristine peer serving exactly the missing parents
//!   the core's orphan pool ([`ReplicaCore::pool`]) names.
//!   Every cell must end healed, converged to the pre-crash tip, and
//!   clean under both the tree invariants and the store↔tree agreement
//!   check — with `resync_rounds` recording how many serve rounds the
//!   repair cost.

use std::collections::HashMap;

use btadt_core::{check_block_tree, check_store_tree_agreement};
use btadt_store::{BlockStore, ReplicaCore, SimMedium, StoreConfig, MANIFEST};
use btadt_types::report::Value;
use btadt_types::rng::mix64;
use btadt_types::{json_object, Block, BlockBuilder, BlockId};

/// Workload seed of the steady-state run.
pub const STEADY_SEED: u64 = 9;

/// Corruption seeds of the recovery cells (each seeds *where* the damage
/// lands, over the same crashed disk image).
pub const CORRUPTION_SEEDS: [u64; 2] = [13, 77];

/// The corruption faults drilled per seed.
pub const FAULTS: [&str; 3] = ["torn-tail", "bit-flip", "torn-manifest"];

/// The steady-state row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SteadyOutcome {
    /// `full` (10⁵ blocks) or `smoke` (5 × 10³).
    pub scale: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Blocks ingested.
    pub blocks: usize,
    /// Final selected-tip height.
    pub height: u64,
    /// Resident high-water mark (hot window + orphan pool).
    pub resident_peak: usize,
    /// The configured soft ceiling.
    pub memory_ceiling: usize,
    /// `true` iff the peak stayed at or under the ceiling — the verdict.
    pub under_ceiling: bool,
    /// Final pruning-point height.
    pub pruning_height: u64,
    /// Blocks evicted from the hot window by pruning.
    pub pruned_from_hot: u64,
    /// Blocks durable in the store at the end.
    pub store_blocks: usize,
    /// Chunks sealed over the run.
    pub chunks_sealed: u64,
    /// Checkpoints committed over the run.
    pub checkpoints: u64,
    /// Blocks garbage-collected from the store by pruning.
    pub gc_dropped: u64,
    /// Blocks the store was handed over the run.
    pub appended: u64,
    /// Medium writes over the run (record stretches, manifests, renames,
    /// compactions) — printed, not part of the JSON baseline.
    pub medium_writes: u64,
}

/// One seeded corruption recovery cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptionOutcome {
    /// Fault label (see [`FAULTS`]).
    pub fault: &'static str,
    /// Damage-placement seed.
    pub seed: u64,
    /// Blocks that survived the verifying recovery.
    pub blocks_recovered: usize,
    /// Records dropped for failing their checksum.
    pub corrupt_records: usize,
    /// Chunks quarantined by recovery.
    pub chunks_quarantined: usize,
    /// Bytes truncated from torn chunk tails.
    pub torn_tail_bytes: u64,
    /// `true` iff the manifest was unreadable and recovery fell back to
    /// scanning the chunks directly.
    pub manifest_fallback: bool,
    /// Blocks the peer served to close the gap.
    pub healed_blocks: usize,
    /// Serve rounds the repair cost (each round serves the missing parents
    /// the core's [`pool`](ReplicaCore::pool) currently names).
    pub resync_rounds: u64,
    /// `true` iff every surviving block linked back into the tree.
    pub healed: bool,
    /// `true` iff the healed replica reaches the pre-crash tip and height.
    pub converged: bool,
    /// `true` iff the tree invariants and the store↔tree agreement check
    /// both pass after healing.
    pub clean: bool,
}

/// The full durable-store report.
#[derive(Clone, Debug)]
pub struct StoreReport {
    /// Steady-state rows (one per scale run).
    pub steady: Vec<SteadyOutcome>,
    /// Corruption recovery cells, in `(fault, seed)` order.
    pub corruption: Vec<CorruptionOutcome>,
}

impl StoreReport {
    /// `true` iff the steady run held its ceiling and every corruption
    /// cell healed, converged and stayed clean.
    pub fn all_clean(&self) -> bool {
        self.steady.iter().all(|s| s.under_ceiling)
            && self
                .corruption
                .iter()
                .all(|c| c.healed && c.converged && c.clean)
    }

    /// Mean serve rounds across the corruption cells.
    pub fn mean_resync_rounds(&self) -> f64 {
        if self.corruption.is_empty() {
            return 0.0;
        }
        self.corruption
            .iter()
            .map(|c| c.resync_rounds as f64)
            .sum::<f64>()
            / self.corruption.len() as f64
    }
}

/// The workload size, pruning policy and store shape of one scale.
struct Scale {
    /// Blocks ingested.
    blocks: usize,
    /// Heights kept hot below the selected tip ([`ReplicaCore::prune`]'s
    /// depth).
    prune_depth: u64,
    /// Linked blocks between pruning attempts.
    prune_every: u64,
    /// Soft ceiling on resident blocks (tree + orphan pool) the steady row
    /// is judged against.
    memory_ceiling: usize,
    /// The chunk store's configuration.
    store: StoreConfig,
}

/// The smoke scale CI runs on every push.
const SMOKE: Scale = Scale {
    blocks: 5_000,
    prune_depth: 32,
    prune_every: 64,
    memory_ceiling: 768,
    store: StoreConfig {
        chunk_capacity: 32,
        auto_checkpoint_every: 128,
    },
};

/// The full scale behind `BENCH_store.json`: the acceptance-gate 10⁵
/// blocks.
const FULL: Scale = Scale {
    blocks: 100_000,
    prune_depth: 128,
    prune_every: 512,
    memory_ceiling: 4096,
    store: StoreConfig {
        chunk_capacity: 256,
        auto_checkpoint_every: 1024,
    },
};

/// Drives the deterministic mostly-linear workload with occasional forks
/// (1 in 8 blocks forks off a recent, still-hot ancestor) through `core`
/// one block at a time, pruning on `scale`'s cadence.  Returns every
/// produced block — the pristine peer history the healing loop serves
/// from — the resident high-water mark (tree + pool) and the blocks
/// pruning evicted from the tree.
fn grow(core: &mut ReplicaCore, scale: &Scale, seed: u64) -> (Vec<Block>, usize, u64) {
    let resident = |core: &ReplicaCore| core.tree().len() + core.pool().len();
    let mut produced = Vec::with_capacity(scale.blocks);
    let mut tips: Vec<Block> = vec![core.tree().genesis().clone()];
    let mut state = seed;
    let mut resident_peak = 1;
    let mut linked_since_prune = 0;
    let mut pruned_from_hot = 0;
    for i in 0..scale.blocks {
        state = mix64(state);
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
        let report = core.ingest(vec![block.clone()], |_| linked_since_prune += 1);
        assert!(report.verdicts[0].is_accepted(), "parent is hot");
        resident_peak = resident_peak.max(resident(core));
        if linked_since_prune >= scale.prune_every {
            // The cadence restarts on every attempt, moved or not.
            linked_since_prune = 0;
            let before = core.tree().len();
            if core.prune(scale.prune_depth).is_some() {
                pruned_from_hot += (before - core.tree().len()) as u64;
                resident_peak = resident_peak.max(resident(core));
            }
        }
        if block.height
            > tips
                .last()
                .expect("tips starts with genesis and never empties")
                .height
        {
            tips.push(block.clone());
            if tips.len() > 4 {
                tips.remove(0);
            }
        }
        produced.push(block);
    }
    (produced, resident_peak, pruned_from_hot)
}

/// Applies one seeded fault to a disk image.  Returns `false` when the
/// image had nothing to damage (never the case for the shipped runs).
fn apply_fault(medium: &mut SimMedium, fault: &str, seed: u64) -> bool {
    let chunks: Vec<String> = medium
        .list()
        .into_iter()
        .filter(|f| f.starts_with("chunk-"))
        .collect();
    match fault {
        "torn-tail" => {
            // A crash mid-append tears the end of the newest chunk.
            let Some(last) = chunks.last() else {
                return false;
            };
            let len = medium.len(last);
            let cut = 1 + (mix64(seed) % 32) as usize;
            medium.truncate(last, len.saturating_sub(cut))
        }
        "bit-flip" => {
            if chunks.is_empty() {
                return false;
            }
            let chunk = &chunks[(mix64(seed) % chunks.len() as u64) as usize];
            let bit = (mix64(seed ^ 1) % (medium.len(chunk).max(1) as u64 * 8)) as usize;
            medium.corrupt_bit(chunk, bit)
        }
        "torn-manifest" => {
            // A checkpoint interrupted mid-swap leaves a mangled manifest;
            // recovery must fall back to scanning the chunks themselves.
            let len = medium.len(MANIFEST);
            let cut = 1 + (mix64(seed) % 8) as usize;
            medium.truncate(MANIFEST, len.saturating_sub(cut))
        }
        other => panic!("unknown fault {other}"),
    }
}

/// Runs one corruption cell over a copy of the crashed disk image,
/// healing from the pristine `history` until the core settles.
fn run_corruption_cell(
    image: &SimMedium,
    store: StoreConfig,
    history: &HashMap<BlockId, Block>,
    pre_tip: BlockId,
    pre_height: u64,
    fault: &'static str,
    seed: u64,
) -> CorruptionOutcome {
    let mut medium = image.snapshot();
    assert!(
        apply_fault(&mut medium, fault, seed),
        "{fault} found a target"
    );
    let (mut core, report) = ReplicaCore::recover(medium, store);

    let mut resync_rounds = 0u64;
    let mut healed_blocks = 0usize;
    loop {
        // Pull phase: the core names its missing parents and the peer
        // serves exactly those, one linkage hop per round.
        while !core.pool().is_empty() {
            resync_rounds += 1;
            assert!(resync_rounds < 10_000, "healing must converge");
            let serve: Vec<Block> = core
                .pool()
                .missing_parents()
                .iter()
                .filter_map(|id| history.get(id).cloned())
                .collect();
            if serve.is_empty() {
                break; // the peer cannot close the gap; recorded as unhealed
            }
            healed_blocks += serve.len();
            core.ingest(serve, |_| {});
        }
        // Push phase (delta-sync): a torn tail can lose *leaves*, which no
        // missing-parent request ever names.  The peer walks back from its
        // own tip to the first block the core's store still holds and
        // pushes that suffix; new arrivals may re-open the pull phase.
        let durable = core.store().expect("the drill runs over a store");
        let mut suffix: Vec<Block> = Vec::new();
        let mut cursor = Some(pre_tip);
        while let Some(id) = cursor {
            if durable.contains(id) {
                break;
            }
            let block = history.get(&id).expect("the peer holds its own chain");
            cursor = block.parent;
            suffix.push(block.clone());
        }
        if suffix.is_empty() {
            break; // nothing left to push: healing is done (or stuck)
        }
        suffix.reverse();
        resync_rounds += 1;
        assert!(resync_rounds < 10_000, "healing must converge");
        healed_blocks += suffix.len();
        core.ingest(suffix, |_| {});
    }

    let tree = core.tree();
    let durable = core.store().expect("the drill runs over a store");
    let mut violations = check_block_tree(tree);
    violations.extend(check_store_tree_agreement(tree, &durable.blocks()));
    CorruptionOutcome {
        fault,
        seed,
        blocks_recovered: report.blocks_recovered,
        corrupt_records: report.corrupt_records,
        chunks_quarantined: report.chunks_quarantined,
        torn_tail_bytes: report.torn_tail_bytes,
        manifest_fallback: report.manifest_fallback,
        healed_blocks,
        resync_rounds,
        healed: core.pool().is_empty(),
        converged: tree.best_leaf_by_work(true) == pre_tip && tree.height() == pre_height,
        clean: violations.is_empty(),
    }
}

/// Runs the full (or smoke) suite: one steady-state run, then the
/// corruption cells over its crashed disk image.
pub fn run_all(smoke: bool) -> StoreReport {
    let scale = if smoke { SMOKE } else { FULL };
    let mut core = ReplicaCore::with_store(BlockStore::create(SimMedium::new(), scale.store));
    let (produced, resident_peak, pruned_from_hot) = grow(&mut core, &scale, STEADY_SEED);
    core.store_mut()
        .expect("the drill runs over a store")
        .checkpoint();
    let durable = core.store().expect("the drill runs over a store");

    let stats = durable.stats();
    let tree = core.tree();
    let steady = SteadyOutcome {
        scale: if smoke { "smoke" } else { "full" },
        seed: STEADY_SEED,
        blocks: scale.blocks,
        height: tree.height(),
        resident_peak,
        memory_ceiling: scale.memory_ceiling,
        under_ceiling: resident_peak <= scale.memory_ceiling,
        pruning_height: tree.genesis().height,
        pruned_from_hot,
        store_blocks: durable.len(),
        chunks_sealed: stats.chunks_sealed,
        checkpoints: stats.checkpoints,
        gc_dropped: stats.pruned,
        appended: stats.appended,
        medium_writes: durable.medium().stats().writes,
    };

    let pre_tip = tree.best_leaf_by_work(true);
    let pre_height = tree.height();
    let mut history: HashMap<BlockId, Block> = produced.iter().map(|b| (b.id, b.clone())).collect();
    let genesis = Block::genesis();
    history.insert(genesis.id, genesis);
    let image = core
        .into_store()
        .expect("the drill runs over a store")
        .into_medium();

    let mut corruption = Vec::new();
    for fault in FAULTS {
        for &seed in &CORRUPTION_SEEDS {
            corruption.push(run_corruption_cell(
                &image,
                scale.store,
                &history,
                pre_tip,
                pre_height,
                fault,
                seed,
            ));
        }
    }
    StoreReport {
        steady: vec![steady],
        corruption,
    }
}

/// Prints the human summary.
pub fn print_summary(report: &StoreReport) {
    println!("== steady state ==");
    for s in &report.steady {
        println!(
            "  {} seed {}: {} blocks, height {}, resident peak {}/{} ({}), \
             pruning point {}, {} GC'd, {} chunks, {} checkpoints, \
             {:.2} medium writes / block",
            s.scale,
            s.seed,
            s.blocks,
            s.height,
            s.resident_peak,
            s.memory_ceiling,
            if s.under_ceiling { "ok" } else { "OVER" },
            s.pruning_height,
            s.gc_dropped,
            s.chunks_sealed,
            s.checkpoints,
            s.medium_writes as f64 / s.appended.max(1) as f64,
        );
    }
    println!("== corruption recovery ==");
    for c in &report.corruption {
        println!(
            "  {:>13} seed {}: {} recovered, {} corrupt, {} quarantined, \
             {} torn bytes, {} healed in {} rounds, converged: {}, clean: {}",
            c.fault,
            c.seed,
            c.blocks_recovered,
            c.corrupt_records,
            c.chunks_quarantined,
            c.torn_tail_bytes,
            c.healed_blocks,
            c.resync_rounds,
            c.converged,
            c.clean,
        );
    }
}

/// Renders the report as the `BENCH_store.json` document: deterministic
/// fields only.
pub fn render_json(report: &StoreReport) -> String {
    let steady = report.steady.iter().map(|s| {
        json_object! {
            "scale": s.scale, "seed": s.seed, "blocks": s.blocks, "height": s.height,
            "resident_peak": s.resident_peak, "memory_ceiling": s.memory_ceiling,
            "under_ceiling": s.under_ceiling, "pruning_height": s.pruning_height,
            "pruned_from_hot": s.pruned_from_hot, "store_blocks": s.store_blocks,
            "chunks_sealed": s.chunks_sealed, "checkpoints": s.checkpoints,
            "gc_dropped": s.gc_dropped,
        }
    });
    let corruption = report.corruption.iter().map(|c| {
        json_object! {
            "fault": c.fault, "seed": c.seed, "blocks_recovered": c.blocks_recovered,
            "corrupt_records": c.corrupt_records, "chunks_quarantined": c.chunks_quarantined,
            "torn_tail_bytes": c.torn_tail_bytes, "manifest_fallback": c.manifest_fallback,
            "healed_blocks": c.healed_blocks, "resync_rounds": c.resync_rounds,
            "healed": c.healed, "converged": c.converged, "clean": c.clean,
        }
    });
    let cells_clean = (report.corruption.iter())
        .filter(|c| c.healed && c.converged && c.clean)
        .count();
    json_object! {
        "bench": "store",
        "steady": steady.collect::<Vec<_>>(),
        "corruption": corruption.collect::<Vec<_>>(),
        "metrics": json_object! {
            "steady_under_ceiling": report.steady.iter().all(|s| s.under_ceiling),
            "cells_clean": cells_clean,
            "mean_resync_rounds": Value::fixed(report.mean_resync_rounds(), 1),
        },
    }
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_clean_and_serializes() {
        let report = run_all(true);
        assert!(report.all_clean(), "{report:#?}");
        assert_eq!(report.steady.len(), 1);
        assert_eq!(
            report.corruption.len(),
            FAULTS.len() * CORRUPTION_SEEDS.len()
        );
        // The faults did real damage somewhere: records were lost and the
        // peer actually had to serve blocks.
        assert!(
            report
                .corruption
                .iter()
                .any(|c| c.corrupt_records > 0 || c.torn_tail_bytes > 0),
            "seeded corruption must cost something"
        );
        assert!(
            report.corruption.iter().any(|c| c.healed_blocks > 0),
            "some gap needed peer healing"
        );
        assert!(
            report
                .corruption
                .iter()
                .filter(|c| c.fault == "torn-manifest")
                .all(|c| c.manifest_fallback),
            "a torn manifest must be detected, not trusted"
        );
        let text = render_json(&report);
        assert!(crate::json::parse(&text).is_ok(), "emitted JSON parses");
        assert!(text.contains("\"under_ceiling\": true"));
        assert!(!text.contains("wall"), "no timing fields in the report");
    }

    #[test]
    fn corruption_cells_replay_identically() {
        let a = run_all(true);
        let b = run_all(true);
        assert_eq!(a.corruption, b.corruption);
        assert_eq!(a.steady, b.steady);
    }
}
