//! The reads of a contended run are views into per-process spines.
//!
//! `run_contended` records each process's reads through a `ReadSpines` of
//! its own instead of copying the root-to-tip path on every read.  Two
//! judges:
//!
//! * a differential: for Θ_F,1, Θ_F,2 and Θ_P, 20 seeds and sync
//!   probabilities {0, 0.3, 1}, the history equals, record for record, the
//!   one [`reference_history`] records by calling `chain_to` on every read
//!   (same ids, sequence numbers and timestamps; responses equal by
//!   value);
//! * a count twin: at the sizes of the benchmark's `judge_histories`
//!   histories (8 processes; 1 600 / 800 / 800 rounds; sync probability
//!   0.3; seed 7) the blocks the reads materialise are pinned, and stay a
//!   small share of the summed read lengths that copying costs.

use std::sync::Arc;

use btadt_types::rng::ChaCha8;

use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{BtHistory, BtOperation, BtRecorder, BtResponse};
use btadt_history::ProcessId;
use btadt_types::{Block, BlockBuilder, BlockTree, LongestChain, SelectionFunction};

/// The contended run as specified: every read copies its chain out of the
/// shared tree with `chain_to`, and the final round's reads share one
/// selected chain.
fn reference_history(kind: OracleKind, config: ContendedRunConfig) -> BtHistory {
    let selection: Arc<dyn SelectionFunction> = Arc::new(LongestChain::new());
    let mut oracle = kind.build(config.processes, config.seed);
    let mut rng = ChaCha8::new(config.seed ^ 0xdead_beef);
    let mut tree = BlockTree::new();
    let mut recorder = BtRecorder::new();
    let mut local_tips: Vec<Block> = vec![tree.genesis().clone(); config.processes];
    let mut nonce = 0u64;

    for round in 0..config.rounds {
        let p = round % config.processes;
        if rng.gen_bool(config.sync_probability.clamp(0.0, 1.0)) {
            local_tips[p] = tree.block_at(selection.select_tip(&tree)).clone();
        }
        let parent = local_tips[p].clone();
        nonce += 1;
        let candidate = BlockBuilder::new(&parent)
            .producer(p as u32)
            .nonce(nonce)
            .build();

        let op = recorder.invoke(ProcessId(p as u32), BtOperation::Append(candidate.clone()));
        let (grant, _) = oracle.get_token_until_granted(p, &parent, candidate);
        let outcome = oracle.consume_token(&grant);
        if outcome.accepted {
            tree.insert(grant.block.clone()).unwrap();
            local_tips[p] = grant.block.clone();
        }
        recorder.respond(op, BtResponse::Appended(outcome.accepted));

        let view = tree.chain_to(local_tips[p].id).unwrap();
        recorder.instantaneous(
            ProcessId(p as u32),
            BtOperation::Read,
            BtResponse::Chain(view),
        );
    }

    let final_chain = selection.select(&tree);
    for p in 0..config.processes {
        recorder.instantaneous(
            ProcessId(p as u32),
            BtOperation::Read,
            BtResponse::Chain(final_chain.clone()),
        );
    }
    recorder.into_history()
}

const KINDS: [OracleKind; 3] = [
    OracleKind::Frugal(1),
    OracleKind::Frugal(2),
    OracleKind::Prodigal,
];

/// Summed lengths of the history's read responses: what copying each read
/// materialises.
fn read_blocks(history: &BtHistory) -> usize {
    history
        .records()
        .iter()
        .filter_map(|r| r.response.as_ref()?.chain())
        .map(|chain| chain.len())
        .sum()
}

#[test]
fn contended_histories_equal_the_chain_per_read_recording() {
    for kind in KINDS {
        for sync_probability in [0.0, 0.3, 1.0] {
            for seed in 0..20 {
                let config = ContendedRunConfig {
                    processes: 5,
                    rounds: 90,
                    sync_probability,
                    seed,
                };
                let run = run_contended(kind, config);
                let reference = reference_history(kind, config);
                assert_eq!(
                    run.history.records(),
                    reference.records(),
                    "{} sync {sync_probability} seed {seed}",
                    kind.label()
                );
                assert!(run.spine_blocks <= read_blocks(&reference));
            }
        }
    }
}

#[test]
fn judge_sized_runs_materialise_a_small_share_of_their_reads() {
    // (kind, rounds, read blocks, spine blocks, largest share in percent)
    let pins = [
        (OracleKind::Frugal(1), 1_600, 394_501, 3_992, 2),
        (OracleKind::Frugal(2), 800, 97_380, 22_147, 25),
        (OracleKind::Prodigal, 800, 97_452, 22_173, 25),
    ];
    for (kind, rounds, pinned_reads, pinned_spines, share) in pins {
        let config = ContendedRunConfig {
            processes: 8,
            rounds,
            sync_probability: 0.3,
            seed: 7,
        };
        let run = run_contended(kind, config);
        let reads = read_blocks(&run.history);
        println!(
            "{}: {reads} read blocks, {} spine blocks ({:.1} %)",
            kind.label(),
            run.spine_blocks,
            100.0 * run.spine_blocks as f64 / reads as f64
        );
        assert_eq!(
            (reads, run.spine_blocks),
            (pinned_reads, pinned_spines),
            "{}",
            kind.label()
        );
        assert!(
            100 * run.spine_blocks <= share * reads,
            "{}: {} of {reads} read blocks materialised",
            kind.label(),
            run.spine_blocks
        );
    }
}
