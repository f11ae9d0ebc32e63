//! Checker equivalence: the indexed SC/EC checkers must produce
//! **byte-identical** verdicts to the reference checkers on every history
//! the oracle machinery can produce, and on hostile ones it cannot.
//!
//! The reference conjunctions (`*_consistency_reference`) run the same
//! properties in reference mode — every quantifier a rescan of the history,
//! positional chain zipping, no caches — so any disagreement pins the
//! divergence to the index substitution.

mod battery;

use std::collections::BTreeMap;
use std::sync::Arc;

use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{
    eventual_consistency, eventual_consistency_reference, strong_consistency,
    strong_consistency_reference, BtOperation, BtRecorder, BtResponse, StrongPrefix,
};
use btadt_history::{ConsistencyCriterion, ProcessId};
use btadt_types::rng::ChaCha8;
use btadt_types::workload::Workload;
use btadt_types::{
    AlwaysValid, BlockBuilder, Blockchain, LengthScore, NoDoubleSpend, Score, ValidityPredicate,
    WorkScore,
};

fn config(seed: u64, rounds: usize, sync_probability: f64) -> ContendedRunConfig {
    ContendedRunConfig {
        processes: 4,
        rounds,
        sync_probability,
        seed,
    }
}

#[test]
fn contended_histories_get_identical_sc_and_ec_verdicts() {
    let kinds = [
        OracleKind::Frugal(1),
        OracleKind::Frugal(3),
        OracleKind::Prodigal,
    ];
    for kind in kinds {
        for seed in 0..4u64 {
            for sync in [0.1, 0.5, 1.0] {
                let run = run_contended(kind, config(seed, 24, sync));
                let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
                let sc_ref =
                    strong_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid));
                assert_eq!(
                    sc.check(&run.history),
                    sc_ref.check(&run.history),
                    "{} seed {seed} sync {sync}: SC verdicts diverge",
                    kind.label()
                );
                let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
                let ec_ref =
                    eventual_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid));
                assert_eq!(
                    ec.check(&run.history),
                    ec_ref.check(&run.history),
                    "{} seed {seed} sync {sync}: EC verdicts diverge",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn equivalence_holds_under_work_score_and_real_validity() {
    // A different score function and a non-trivial validity predicate:
    // the caches and the mcps memoization must not change any verdict.
    for seed in [3u64, 11] {
        let run = run_contended(OracleKind::Prodigal, config(seed, 40, 0.3));
        let sc = strong_consistency(Arc::new(WorkScore), Arc::new(NoDoubleSpend));
        let sc_ref = strong_consistency_reference(Arc::new(WorkScore), Arc::new(NoDoubleSpend));
        assert_eq!(sc.check(&run.history), sc_ref.check(&run.history));
        let ec = eventual_consistency(Arc::new(WorkScore), Arc::new(NoDoubleSpend));
        let ec_ref = eventual_consistency_reference(Arc::new(WorkScore), Arc::new(NoDoubleSpend));
        assert_eq!(ec.check(&run.history), ec_ref.check(&run.history));
    }
}

#[test]
fn heavy_contention_verdicts_are_capped_identically() {
    // The bench configuration: thousands of pairwise Strong Prefix
    // violations.  Both paths must fold them into the same capped verdict
    // (first 16 with full detail plus one summary per property).
    let run = run_contended(
        OracleKind::Prodigal,
        ContendedRunConfig {
            processes: 4,
            rounds: 60,
            sync_probability: 0.3,
            seed: 11,
        },
    );
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let verdict = sc.check(&run.history);
    assert!(!verdict.is_admitted(), "the contended run must violate SC");
    let sp: Vec<_> = verdict
        .violations
        .iter()
        .filter(|v| v.property == "strong-prefix")
        .collect();
    assert_eq!(sp.len(), 17, "16 detailed violations plus one summary");
    assert!(sp.last().unwrap().detail.contains("suppressed"));
    assert!(sp.last().unwrap().witnesses.is_empty());
    let sc_ref = strong_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid));
    assert_eq!(verdict, sc_ref.check(&run.history));
}

#[test]
fn stagnating_reads_are_capped_like_every_other_property() {
    // Appends keep coming while 200 reads return the same score-3 chain:
    // every read with a window of appends after it owes growth that no
    // later read shows.
    let chain = Workload::new(1).linear_chain(204, 0);
    let stuck = chain.truncated(3);
    let mut rec = BtRecorder::new();
    let append = |rec: &mut BtRecorder, p: u32, k: usize| {
        let block = chain.blocks()[k].clone();
        rec.instantaneous(
            ProcessId(p),
            BtOperation::Append(block),
            BtResponse::Appended(true),
        );
    };
    for k in 1..=3 {
        append(&mut rec, 0, k);
    }
    for k in 4..=203 {
        append(&mut rec, (k % 2) as u32, k);
        rec.instantaneous(
            ProcessId((k % 2) as u32),
            BtOperation::Read,
            BtResponse::Chain(stuck.clone()),
        );
    }
    let history = rec.into_history();
    let verdict =
        eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid)).check(&history);
    let eg: Vec<_> = verdict
        .violations
        .iter()
        .filter(|v| v.property == "ever-growing-tree")
        .collect();
    assert_eq!(eg.len(), 17, "16 detailed violations plus one summary");
    assert_eq!(
        eg[16].detail,
        "180 further ever-growing-tree violations suppressed (showing the first 16)"
    );
    assert_eq!(
        verdict,
        eventual_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid))
            .check(&history)
    );
}

// ---------------------------------------------------------------------------
// Hostile-history battery (`battery/mod.rs`).
// ---------------------------------------------------------------------------

#[test]
fn hostile_histories_get_identical_verdicts() {
    let scores: [(&str, Arc<dyn Score>); 2] = [
        ("length", Arc::new(LengthScore)),
        ("work", Arc::new(WorkScore)),
    ];
    let validities: [(&str, Arc<dyn ValidityPredicate>); 2] = [
        ("always-valid", Arc::new(AlwaysValid)),
        ("no-double-spend", Arc::new(NoDoubleSpend)),
    ];
    // How often each property rejected: the battery must reach every
    // property's violation path, not only its admitting one.
    let mut rejected: BTreeMap<&str, usize> = BTreeMap::new();
    let mut histories = 0;
    for seed in 0..330u64 {
        let (history, applied) = battery::hostile_history(seed);
        assert!(history.len() <= 60, "seed {seed}: {} ops", history.len());
        histories += 1;
        for (score_name, score) in &scores {
            for (valid_name, validity) in &validities {
                let pairs = [
                    (
                        "SC",
                        strong_consistency(score.clone(), validity.clone()),
                        strong_consistency_reference(score.clone(), validity.clone()),
                    ),
                    (
                        "EC",
                        eventual_consistency(score.clone(), validity.clone()),
                        eventual_consistency_reference(score.clone(), validity.clone()),
                    ),
                ];
                for (name, fast, reference) in &pairs {
                    let verdict = fast.check(&history);
                    assert_eq!(
                        format!("{verdict:?}"),
                        format!("{:?}", reference.check(&history)),
                        "seed {seed} {name} {score_name} {valid_name}, mutations {applied:?}"
                    );
                    let mut seen: Vec<&str> =
                        verdict.violations.iter().map(|v| v.property).collect();
                    seen.dedup();
                    for property in seen {
                        *rejected.entry(property).or_default() += 1;
                    }
                }
            }
        }
    }
    assert_eq!(histories, 330);
    eprintln!("rejecting verdicts per property: {rejected:?}");
    for property in [
        "block-validity",
        "local-monotonic-read",
        "strong-prefix",
        "ever-growing-tree",
        "eventual-prefix",
    ] {
        let n = rejected.get(property).copied().unwrap_or(0);
        assert!(
            n >= 20,
            "{property} rejected only {n} verdicts: {rejected:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Strong Prefix at the edges of its counting sweep: the cap boundary, a
// violation only in the last row, shared tips, nested prefixes, and random
// multi-branch histories.  The indexed verdict must equal the reference
// walk byte for byte.
// ---------------------------------------------------------------------------

/// A base chain of `fork` blocks and `count` branches of `len` blocks off
/// its tip.
fn fork_branches(fork: usize, len: usize, count: u64) -> Vec<Blockchain> {
    let base = Workload::new(40).linear_chain(fork, 0);
    (0..count)
        .map(|nonce| {
            let mut chain = base.clone();
            for _ in 0..len {
                let block = BlockBuilder::new(chain.tip()).nonce(nonce).build();
                chain = chain.extended_with(block).unwrap();
            }
            chain
        })
        .collect()
}

/// Judges the reads (round-robin over three processes) both ways, requires
/// byte-identical verdicts and returns the number of strong-prefix entries
/// and the last one's detail.
fn strong_prefix_both_ways(reads: &[Blockchain]) -> (usize, String) {
    let mut rec = BtRecorder::new();
    for (k, chain) in reads.iter().enumerate() {
        rec.instantaneous(
            ProcessId(k as u32 % 3),
            BtOperation::Read,
            BtResponse::Chain(chain.clone()),
        );
    }
    let history = rec.into_history();
    let verdict = StrongPrefix::new().check(&history);
    assert_eq!(
        format!("{verdict:?}"),
        format!("{:?}", StrongPrefix::reference().check(&history))
    );
    let last = verdict.violations.last().map(|v| v.detail.clone());
    (verdict.violations.len(), last.unwrap_or_default())
}

#[test]
fn strong_prefix_cap_boundary_is_identical() {
    let branches = fork_branches(5, 4, 2);
    let (a, b) = (&branches[0], &branches[1]);
    // 16 A-reads (nested, some repeated) against one B-read: 16 pairs, no
    // summary; one more A-read: 17 pairs, one suppressed.
    let mut reads: Vec<Blockchain> = (0..16).map(|k| a.truncated(6 + k % 3)).collect();
    reads.insert(7, b.clone());
    assert_eq!(strong_prefix_both_ways(&reads).0, 16);
    reads.push(a.clone());
    assert_eq!(
        strong_prefix_both_ways(&reads),
        (
            17,
            "1 further strong-prefix violations suppressed (showing the first 16)".to_string()
        )
    );
    // 4 × 4 and 17 × 1 by rows instead of columns.
    let mut square: Vec<Blockchain> = (0..4).map(|k| a.truncated(6 + k)).collect();
    square.extend((0..4).map(|k| b.truncated(9 - k)));
    assert_eq!(strong_prefix_both_ways(&square).0, 16);
    let mut column = vec![b.truncated(6)];
    column.extend((0..17).map(|k| a.truncated(6 + k % 4)));
    assert_eq!(strong_prefix_both_ways(&column).0, 17);
}

#[test]
fn strong_prefix_violation_in_the_last_row_only_is_identical() {
    let branches = fork_branches(6, 3, 2);
    let mut reads: Vec<Blockchain> = (0..40).map(|k| branches[0].truncated(k % 7)).collect();
    reads.push(branches[0].clone());
    reads.push(branches[1].clone());
    let (entries, detail) = strong_prefix_both_ways(&reads);
    assert_eq!(entries, 1);
    assert!(detail.starts_with("reads returned diverging chains"));
}

#[test]
fn strong_prefix_reads_sharing_one_tip_are_identical() {
    let branches = fork_branches(3, 5, 3);
    let mut reads = Vec::new();
    for k in 0..60 {
        reads.push(match k % 5 {
            0 => branches[1].clone(),
            3 => branches[2].truncated(3),
            _ => branches[0].clone(),
        });
    }
    // 36 reads on A, 12 on B, 12 on the fork point: 36 × 12 pairs.
    assert_eq!(
        strong_prefix_both_ways(&reads),
        (
            17,
            format!(
                "{} further strong-prefix violations suppressed (showing the first 16)",
                36 * 12 - 16
            )
        )
    );
    // Only shared tips, all compatible: admitted both ways.
    assert_eq!(strong_prefix_both_ways(&vec![branches[2].clone(); 30]).0, 0);
}

#[test]
fn strong_prefix_nested_prefix_chains_are_identical() {
    let branches = fork_branches(8, 8, 2);
    let (a, b) = (&branches[0], &branches[1]);
    // Every prefix of A, longest first, then every prefix of B: only the
    // pairs past the fork point at height 8 diverge.
    let mut reads: Vec<Blockchain> = (0..=16).rev().map(|k| a.truncated(k)).collect();
    reads.extend((0..=16).map(|k| b.truncated(k)));
    assert_eq!(
        strong_prefix_both_ways(&reads),
        (
            17,
            format!(
                "{} further strong-prefix violations suppressed (showing the first 16)",
                8 * 8 - 16
            )
        )
    );
    // Nested only: admitted both ways.
    let nested: Vec<Blockchain> = (0..=16).map(|k| a.truncated((k * 7) % 17)).collect();
    assert_eq!(strong_prefix_both_ways(&nested).0, 0);
}

#[test]
fn strong_prefix_random_branching_histories_are_identical() {
    let mut rejected = 0;
    for seed in 0..24u64 {
        let mut rng = ChaCha8::new(seed);
        // A trunk, then 1–2 more branches, each forking off an earlier
        // branch at a random height.
        let mut branches = vec![Workload::new(seed).linear_chain(rng.gen_range(4usize..12), 0)];
        for nonce in 0..rng.gen_range(1u64..=2) {
            let from = &branches[rng.gen_range(0..branches.len())];
            let mut chain = from.truncated(rng.gen_range(0..from.len()));
            for _ in 0..rng.gen_range(1usize..6) {
                let block = BlockBuilder::new(chain.tip()).nonce(nonce + 1).build();
                chain = chain.extended_with(block).unwrap();
            }
            branches.push(chain);
        }
        let reads: Vec<Blockchain> = (0..rng.gen_range(2usize..60))
            .map(|_| {
                let branch = &branches[rng.gen_range(0..branches.len())];
                branch.truncated(rng.gen_range(0..branch.len()))
            })
            .collect();
        if strong_prefix_both_ways(&reads).0 > 0 {
            rejected += 1;
        }
    }
    assert!(rejected >= 12, "only {rejected} of 24 histories diverge");
}
