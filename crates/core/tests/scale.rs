//! Scale guard for the indexed SC/EC checkers, judged by counts, not
//! timings: a history of ≈ 22 500 operations must be judged in a debug
//! build in seconds (the rescanning checkers are O(R²·P) on it), a
//! smaller variant with one forked read must report exactly the violations
//! its construction implies, capped, and 16 000 reads over a two-branch
//! fork — ≈ 1.3·10⁸ read pairs, millions of them diverging — must have
//! their Strong Prefix violations counted, not enumerated.

use std::collections::BTreeMap;
use std::sync::Arc;

use btadt_core::{
    eventual_consistency, strong_consistency, BtHistory, BtOperation, BtResponse, StrongPrefix,
};
use btadt_history::{ConsistencyCriterion, HistoryRecorder, ProcessId, Timestamp, Verdict};
use btadt_types::workload::Workload;
use btadt_types::{AlwaysValid, BlockBuilder, Blockchain, LengthScore};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const PROCESSES: u32 = 8;

/// Reads see the chain in steps of `STEP` blocks, so a history of `R`
/// rounds holds `R / STEP` distinct chain values instead of `R`.  Below
/// the Ever-Growing window (2 × 8): every read followed by a window of
/// appends is followed by a read of a longer chain.
const STEP: usize = 16;

/// `rounds` rounds over one growing chain.  In round `t` process `t % 8`
/// appends block `t + 1` (stamps `10t+4`, `10t+5`), then every process
/// reads (stamps `10t+6`, `10t+7`, tied across processes, as
/// `build_histories` stamps one simulation tick) the chain as it stood at
/// the last multiple of `STEP` blocks.  With `fork`, the last round's read
/// of process `fork` returns that chain with its tip replaced by a sibling
/// block, which the same process appended in that round.
fn growing_history(rounds: usize, fork: Option<u32>) -> (BtHistory, Vec<u64>) {
    let chain = Workload::new(25).linear_chain(rounds, 0);
    let mut visible: BTreeMap<usize, Blockchain> = BTreeMap::new();
    let mut scores = Vec::new();
    let mut rec: HistoryRecorder<BtOperation, BtResponse> = HistoryRecorder::new();
    let stamp = |t: usize, k: u64| Timestamp(10 * t as u64 + k);
    for t in 0..rounds {
        rec.scripted(
            ProcessId((t % PROCESSES as usize) as u32),
            stamp(t, 4),
            stamp(t, 5),
            BtOperation::Append(chain.blocks()[t + 1].clone()),
            BtResponse::Appended(true),
        );
        let len = (t + 1) / STEP * STEP;
        let seen = visible
            .entry(len)
            .or_insert_with(|| chain.truncated(len))
            .clone();
        let last = t + 1 == rounds;
        for p in 0..PROCESSES {
            let mut read = seen.clone();
            if last && fork == Some(p) {
                let sibling = BlockBuilder::new(&read.blocks()[len - 1])
                    .nonce(u64::MAX)
                    .build();
                rec.scripted(
                    ProcessId(p),
                    stamp(t, 4),
                    stamp(t, 5),
                    BtOperation::Append(sibling.clone()),
                    BtResponse::Appended(true),
                );
                read = read.truncated(len - 1).extended_with(sibling).unwrap();
            }
            scores.push(len as u64);
            rec.scripted(
                ProcessId(p),
                stamp(t, 6),
                stamp(t, 7),
                BtOperation::Read,
                BtResponse::Chain(read),
            );
        }
    }
    (rec.into_history(), scores)
}

fn judge(history: &BtHistory) -> (Verdict, Verdict) {
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    (sc.check(history), ec.check(history))
}

#[test]
fn twenty_thousand_reads_over_one_growing_chain_are_admitted() {
    let (history, _) = growing_history(2_500, None);
    assert_eq!(history.len(), 2_500 * (1 + PROCESSES as usize));
    let (sc, ec) = judge(&history);
    assert!(sc.is_admitted(), "{sc}");
    assert!(ec.is_admitted(), "{ec}");
}

#[test]
fn one_forked_read_gives_exact_capped_violation_counts() {
    let rounds = 278;
    let (history, scores) = growing_history(rounds, Some(3));
    assert_eq!(history.len(), rounds * (1 + PROCESSES as usize) + 1);
    let last = *scores.last().unwrap();
    // The fork shares all but its tip with the last visible chain, so it
    // diverges from every read of that chain: the reads of the last
    // `last / STEP` step, less the fork itself.
    let at_last = scores.iter().filter(|&&s| s == last).count();
    let strong = at_last - 1;
    // Every reference read of that chain before the last round sees the
    // fork among the final reads, paired with the seven other processes'
    // finals at a common prefix of `last - 1`.  Last-round reads have no
    // final read after them.
    let eventual = (at_last - PROCESSES as usize) * (PROCESSES as usize - 1);
    assert_eq!((strong, eventual), (55, 336));

    let (sc, ec) = judge(&history);
    let of = |v: &Verdict, property: &str| -> Vec<String> {
        v.violations
            .iter()
            .filter(|x| x.property == property)
            .map(|x| x.detail.clone())
            .collect()
    };
    assert_eq!(sc.violations.len(), 17, "only strong prefix fails SC: {sc}");
    assert_eq!(
        ec.violations.len(),
        17,
        "only eventual prefix fails EC: {ec}"
    );
    let sp = of(&sc, "strong-prefix");
    assert_eq!(sp.len(), 17);
    assert_eq!(
        sp[16],
        format!(
            "{} further strong-prefix violations suppressed (showing the first 16)",
            strong - 16
        )
    );
    let ep = of(&ec, "eventual-prefix");
    assert_eq!(ep.len(), 17);
    assert_eq!(
        ep[0],
        format!(
            "reference read has score {last} but the final reads of p0 and p3 only share a \
             prefix of score {}",
            last - 1
        )
    );
    assert_eq!(
        ep[16],
        format!(
            "{} further eventual-prefix violations suppressed (showing the first 16)",
            eventual - 16
        )
    );
}

/// Count twin of the Strong Prefix sweep.  A base chain of `FORK` blocks
/// forks into branches A and B of `BRANCH` blocks each; 8 processes make
/// 2 000 reads each, every one a base prefix (length ≤ `FORK`), an
/// A-prefix or a B-prefix longer than `FORK`, drawn from a handful of
/// lengths so tips repeat and prefixes nest.  Base reads prefix every
/// read and reads along one branch nest, so the diverging pairs are
/// exactly the A × B pairs, of the R(R−1)/2 ≈ 1.28·10⁸ pairs of reads:
/// the checker must count them, not enumerate them.
#[test]
fn two_branch_fork_counts_its_diverging_reads_without_enumerating_them() {
    const FORK: usize = 24;
    const BRANCH: usize = 24;
    const READS_PER_PROCESS: usize = 2_000;
    let base = Workload::new(34).linear_chain(FORK, 0);
    let branch = |nonce: u64| {
        let mut chain = base.clone();
        for _ in 0..BRANCH {
            let block = BlockBuilder::new(chain.tip()).nonce(nonce).build();
            chain = chain.extended_with(block).unwrap();
        }
        chain
    };
    let (a, b) = (branch(1), branch(2));
    let lengths = [
        0,
        1,
        FORK / 2,
        FORK - 1,
        FORK,
        FORK + 1,
        FORK + 7,
        FORK + BRANCH,
    ];
    // Every distinct read value once; reads share them.
    let base_reads = lengths.map(|len| base.truncated(len.min(FORK)));
    let branch_reads = |chain: &Blockchain| lengths.map(|len| chain.truncated(len.max(FORK + 1)));
    let (a_reads, b_reads) = (branch_reads(&a), branch_reads(&b));

    let mut rng = ChaCha8Rng::seed_from_u64(34);
    let mut rec: HistoryRecorder<BtOperation, BtResponse> = HistoryRecorder::new();
    let (mut on_a, mut on_b) = (0usize, 0usize);
    for t in 0..READS_PER_PROCESS as u64 {
        for p in 0..PROCESSES {
            let k = rng.gen_range(0..lengths.len());
            let read = match rng.gen_range(0..3u32) {
                0 => base_reads[k].clone(),
                1 => {
                    on_a += 1;
                    a_reads[k].clone()
                }
                _ => {
                    on_b += 1;
                    b_reads[k].clone()
                }
            };
            rec.scripted(
                ProcessId(p),
                Timestamp(2 * t + 1),
                Timestamp(2 * t + 2),
                BtOperation::Read,
                BtResponse::Chain(read),
            );
        }
    }
    let history = rec.into_history();
    let reads = READS_PER_PROCESS * PROCESSES as usize;
    assert_eq!(history.len(), reads);
    assert!(reads * (reads - 1) / 2 >= 120_000_000);
    assert!(
        on_a > 5_000 && on_b > 5_000,
        "{on_a} A-reads, {on_b} B-reads"
    );

    let verdict = StrongPrefix::new().check(&history);
    assert_eq!(verdict.violations.len(), 17);
    assert!(verdict.violations[..16]
        .iter()
        .all(|v| v.witnesses.len() == 2 && v.detail.starts_with("reads returned diverging")));
    assert_eq!(
        verdict.violations[16].detail,
        format!(
            "{} further strong-prefix violations suppressed (showing the first 16)",
            on_a * on_b - 16
        )
    );
}
