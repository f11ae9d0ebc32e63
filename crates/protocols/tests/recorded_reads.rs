//! What a recorded read costs, and that it still records the paper's
//! `read()` value.
//!
//! A `ReplicaLog` keeps each run of reads as prefix views of one spine it
//! owns: a read that extends the spine pushes the new blocks, a prefix
//! re-read records a length, and only a branch switch copies the kept
//! prefix into a new run.  Counted, not timed:
//!
//! * the count twin pins the blocks the recorded reads materialise against
//!   the summed read lengths (what a chain copy per read cost);
//! * a differential over seeded random trees checks every recorded read
//!   against `chain_to_idx(tip)` captured when it was recorded;
//! * two churned PoW cells (`Restart`, `Checkpoint`) check that views give
//!   the verdicts unshared copies give, and pin those verdicts.

use btadt_core::{
    eventual_consistency, strong_consistency, BtHistory, BtResponse, LightReliableCommunication,
    MessageHistory, UpdateAgreement,
};
use btadt_history::ConsistencyCriterion;
use btadt_netsim::{Latency, Scenario, SimTime, Simulator};
use btadt_protocols::{
    build_histories, build_miners, scenario_pow_config, Miner, PowConfig, RecoveryMode, ReplicaLog,
};
use btadt_types::{
    AlwaysValid, Block, BlockBuilder, BlockTree, Blockchain, LengthScore, LongestChain, NodeIdx,
    SelectionFunction,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Runs `scenario` with `recovery`, ends with a quiescent read on every
/// miner, and returns the logs.
fn run(scenario: &Scenario, recovery: RecoveryMode, seed: u64) -> Vec<ReplicaLog> {
    let config = PowConfig {
        recovery,
        ..scenario_pow_config(seed, scenario.duration)
    };
    let miners = build_miners(scenario.nodes, scenario.adversaries, &config, 0);
    let mut sim = Simulator::new(miners, scenario.sim_config(seed), scenario.failure_plan());
    let report = sim.run();
    assert!(report.quiescent, "{}: the run settles", scenario.name);
    let (mut miners, _) = sim.into_parts();
    let end = SimTime(scenario.max_time);
    miners.iter_mut().map(|m| m.force_read(end)).for_each(drop);
    if recovery != RecoveryMode::Retain {
        assert!(
            miners.iter().any(|m| match m {
                Miner::Honest(r) => r.incarnation() > 0,
                Miner::Adversarial(_) => false,
            }),
            "{}: a miner rejoined",
            scenario.name
        );
    }
    miners.iter().map(|m| m.log().clone()).collect()
}

/// The `net_converge` partially synchronous cell: 8 miners, 320 ticks, a
/// 4/4 partition and one churn window.
fn partial_sync_cell() -> Scenario {
    let (nodes, duration) = (8, 320);
    Scenario::new("partial-sync", nodes)
        .with_duration(duration)
        .with_latency(Latency::PartialSync {
            gst: duration / 2,
            pre_gst_delay: 24,
            delta: 3,
        })
        .with_partition((0..nodes / 2).collect(), duration / 8, duration / 2)
        .with_churn(nodes - 1, duration / 4, duration * 3 / 8)
}

#[test]
fn a_recorded_read_materialises_what_changed() {
    let logs = run(&partial_sync_cell(), RecoveryMode::Retain, 1);
    let spine_blocks: usize = logs.iter().map(ReplicaLog::spine_blocks).sum();
    let read_blocks: usize = logs
        .iter()
        .flat_map(|log| log.reads().map(|(_, chain)| chain.len()))
        .sum();
    let reads: usize = logs.iter().map(|log| log.reads().len()).sum();
    // A chain copy per read materialised every read's whole length:
    // 59 864 blocks for 949 reads (63 per read), where the spines hold
    // 20 736 (22 per read).
    assert_eq!((reads, read_blocks, spine_blocks), (949, 59_864, 20_736));
    assert!(
        2 * spine_blocks <= read_blocks,
        "{spine_blocks} spine blocks for {read_blocks} read blocks"
    );
}

/// A seeded generator (SplitMix64): the differential needs no more.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random tree under a replica's read sequence: every step reshapes the
/// tree or picks a tip the way a replica's reads can move.
struct Walk {
    rng: Rng,
    tree: BlockTree,
    /// Every block ever mined, parents first (what a rebuild re-offers).
    mined: Vec<Block>,
    nonce: u64,
    tip: NodeIdx,
}

impl Walk {
    fn new(seed: u64) -> Self {
        let tree = BlockTree::new();
        let tip = tree.idx_of(tree.genesis().id).unwrap();
        Walk {
            rng: Rng(seed),
            tree,
            mined: Vec::new(),
            nonce: 0,
            tip,
        }
    }

    fn random_node(&mut self) -> NodeIdx {
        NodeIdx(self.rng.below(self.tree.len()) as u32)
    }

    /// Grows a branch of `n` blocks on `parent`; returns its tip.
    fn grow(&mut self, mut parent: NodeIdx, n: usize) -> NodeIdx {
        for _ in 0..n {
            self.nonce += 1;
            let block = BlockBuilder::new(self.tree.block_at(parent))
                .nonce(self.nonce)
                .build();
            self.tree.insert(block.clone()).unwrap();
            parent = self.tree.idx_of(block.id).unwrap();
            self.mined.push(block);
        }
        parent
    }

    /// Rebuilds the tree under `root` from the mined blocks it links,
    /// dropping some (a restart that re-synced part of the history) and
    /// forging some childless ones: new content under a resident id, as a
    /// hostile peer could serve it.  An id still names its ancestry (a
    /// forged block's later children are mined on the forgery), which is
    /// all the recorder assumes below the block it compares in full.
    fn rebuild(&mut self, root: Block) {
        let parents: HashSet<_> = self.mined.iter().filter_map(|b| b.parent).collect();
        self.tree = BlockTree::rerooted(root);
        for block in &mut self.mined {
            match self.rng.below(16) {
                0 => continue,
                1 if !parents.contains(&block.id) => block.producer ^= 1,
                _ => {}
            }
            let _ = self.tree.insert(block.clone());
        }
    }

    /// One step; returns the tip to read.
    fn step(&mut self) -> NodeIdx {
        let best = LongestChain::new().select_tip(&self.tree);
        self.tip = match self.rng.below(12) {
            // The selected chain grows.
            0..=3 => {
                let n = 1 + self.rng.below(3);
                self.grow(best, n)
            }
            // A prefix of the last read, or the same tip again.
            4 => {
                let mut at = self.tip;
                for _ in 0..self.rng.below(4) {
                    at = self.tree.parent_idx(at).unwrap_or(at);
                }
                at
            }
            5 => self.tip,
            // A tie: a sibling of the last tip.
            6 => match self.tree.parent_idx(self.tip) {
                Some(parent) => self.grow(parent, 1),
                None => self.grow(self.tip, 1),
            },
            // A deep reorg: a longer branch from anywhere.
            7 => {
                let from = self.random_node();
                let n = 1 + self.rng.below(8);
                self.grow(from, n)
            }
            // Any node at all.
            8 => self.random_node(),
            // Rebuilt from genesis, as `RecoveryMode::Restart` does.
            9 => {
                self.rebuild(Block::genesis());
                LongestChain::new().select_tip(&self.tree)
            }
            // A rerooted window whose root height is above 0.
            10 => {
                let at = self.random_node();
                let root = self.tree.block_at(at).clone();
                self.rebuild(root);
                LongestChain::new().select_tip(&self.tree)
            }
            _ => best,
        };
        self.tip
    }
}

#[test]
fn every_recorded_read_is_the_chain_its_tip_named() {
    let (mut rerooted, mut reads, mut spine_blocks, mut read_blocks) = (0, 0, 0, 0);
    for seed in 1..=40 {
        let mut walk = Walk::new(seed);
        let mut log = ReplicaLog::new();
        let mut expected = Vec::new();
        for t in 0..150 {
            let tip = walk.step();
            let chain = walk.tree.chain_to_idx(tip);
            rerooted += usize::from(chain[0].height > 0);
            expected.push((SimTime(t), chain));
            log.record_read(SimTime(t), &walk.tree, tip);
        }
        let got: Vec<(SimTime, Blockchain)> = log.reads().collect();
        for (i, ((at, chain), (want_at, want))) in got.iter().zip(&expected).enumerate() {
            assert_eq!(at, want_at, "seed {seed}, read {i}");
            assert_eq!(chain.blocks(), want.blocks(), "seed {seed}, read {i}");
        }
        assert_eq!(got.len(), expected.len());
        reads += got.len();
        spine_blocks += log.spine_blocks();
        read_blocks += expected.iter().map(|(_, c)| c.len()).sum::<usize>();
    }
    assert!(rerooted > 0, "some reads start above genesis");
    assert!(
        spine_blocks < read_blocks,
        "{spine_blocks} vs {read_blocks}"
    );
    assert_eq!((reads, spine_blocks, read_blocks), (6_000, 36_096, 86_769));
}

/// `history` with every read's chain replaced by an unshared copy.
fn with_copied_reads(history: &BtHistory) -> BtHistory {
    let records = history.records().iter().cloned().map(|mut record| {
        if let Some(BtResponse::Chain(chain)) = &record.response {
            let copy = Blockchain::from_blocks(chain.blocks().to_vec());
            record.response = Some(BtResponse::Chain(copy.expect("a recorded read is a chain")));
        }
        record
    });
    BtHistory::from_records(records.collect())
}

/// The verdict counts of one cell: SC and EC violations, LRC and Update
/// Agreement violations.  The pinned counts are the ones the cell gave
/// when every read was recorded as its own chain copy.
fn verdicts(history: &BtHistory, messages: &MessageHistory) -> [usize; 4] {
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let copies = with_copied_reads(history);
    for criterion in [&sc, &ec] {
        assert_eq!(criterion.check(history), criterion.check(&copies));
    }
    [
        sc.check(history).violations.len(),
        ec.check(history).violations.len(),
        LightReliableCommunication::all_correct(messages)
            .violations(messages)
            .len(),
        UpdateAgreement::all_correct(messages)
            .violations(messages)
            .len(),
    ]
}

#[test]
fn views_are_judged_like_copies_after_a_restart_or_a_checkpoint() {
    let scenario = Scenario::new("churn", 8)
        .with_duration(200)
        .with_churn(6, 20, 90)
        .with_churn(7, 50, 130);
    for (recovery, pinned) in [
        (RecoveryMode::Restart, [17, 0, 558, 88]),
        (RecoveryMode::Checkpoint, [17, 0, 538, 48]),
    ] {
        let logs = run(&scenario, recovery, 1);
        let (history, messages) = build_histories(&logs);
        assert_eq!(verdicts(&history, &messages), pinned, "{recovery:?}");
    }
}
