//! Checker equivalence: the indexed SC/EC checkers must produce
//! **byte-identical** verdicts to the reference checkers on every history
//! the oracle machinery can produce, and on hostile ones it cannot.
//!
//! The reference conjunctions (`*_consistency_reference`) run the same
//! properties in reference mode — every quantifier a rescan of the history,
//! positional chain zipping, no caches — so any disagreement pins the
//! divergence to the index substitution.

use std::collections::BTreeMap;
use std::sync::Arc;

use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{
    eventual_consistency, eventual_consistency_reference, strong_consistency,
    strong_consistency_reference, BtHistory, BtOperation, BtRecorder, BtResponse, StrongPrefix,
};
use btadt_history::{
    ConcurrentHistory, ConsistencyCriterion, OpId, OperationRecord, ProcessId, Timestamp,
};
use btadt_types::workload::Workload;
use btadt_types::{
    AlwaysValid, Block, BlockBuilder, BlockTree, Blockchain, LengthScore, NoDoubleSpend, Score,
    ValidityPredicate, WorkScore,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

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
// Hostile-history battery.
//
// Small seeded histories (≤ 60 operations: the reference checkers are
// cubic) over a random block tree, then a random subset of mutations that
// no recorder produces but a checker must still judge exactly: timestamp
// ties, same-process ops whose seq order disagrees with their time order,
// records invoked at or after their response, pending operations, blocks
// only ever appended by a failed append or appended after the read that
// returns them, a block appended by two processes, a process that stops
// reading, double-spending blocks, appends that keep coming after the last
// read, and chains `ReachForest` refuses (a pruned-window root, a forged
// block under a resident id).
// ---------------------------------------------------------------------------

type Record = OperationRecord<BtOperation, BtResponse>;

/// A history under construction: its records and the tree its blocks and
/// chains come from.
struct Battery {
    rng: ChaCha8Rng,
    tree: BlockTree,
    records: Vec<Record>,
    processes: u32,
    next_seq: Vec<u64>,
}

impl Battery {
    fn push(&mut self, p: u32, times: (u64, u64), op: BtOperation, response: BtResponse) {
        if self.next_seq.len() <= p as usize {
            self.next_seq.resize(p as usize + 1, 0);
        }
        let seq = self.next_seq[p as usize];
        self.next_seq[p as usize] += 1;
        self.records.push(Record {
            id: OpId(self.records.len() as u64),
            process: ProcessId(p),
            seq,
            invoked_at: Timestamp(times.0),
            responded_at: Some(Timestamp(times.1)),
            op,
            response: Some(response),
        });
    }

    fn end_time(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.responded_at)
            .map(|t| t.0)
            .max()
            .unwrap_or(0)
    }

    fn pick(&mut self, len: usize) -> usize {
        self.rng.gen_range(0..len)
    }

    fn indices(&self, f: impl Fn(&Record) -> bool) -> Vec<usize> {
        (0..self.records.len())
            .filter(|&i| f(&self.records[i]))
            .collect()
    }

    fn pick_where(&mut self, f: impl Fn(&Record) -> bool) -> Option<usize> {
        let found = self.indices(f);
        (!found.is_empty()).then(|| found[self.pick(found.len())])
    }
}

fn is_read(r: &Record) -> bool {
    matches!(r.response, Some(BtResponse::Chain(_)))
}

fn is_append(r: &Record) -> bool {
    r.op.is_append()
}

fn chain_of(r: &Record) -> Option<&Blockchain> {
    r.response.as_ref().and_then(BtResponse::chain)
}

/// 2–4 processes, each issuing sequential operations at overlapping
/// times: appends of the tree's blocks in insertion order (one in ten
/// refused), reads of the chain to a block whose path was appended before
/// the read responds (the deepest one most of the time, a stale one
/// otherwise; any appended block now and then).
fn base_history(seed: u64) -> Battery {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let processes = rng.gen_range(2u32..=4);
    let tree = Workload::new(seed).random_tree(14, 0.6, 1);
    let mut b = Battery {
        rng,
        tree,
        records: Vec::new(),
        processes,
        next_seq: Vec::new(),
    };
    let blocks: Vec<Block> = b.tree.blocks().skip(1).cloned().collect();
    let target = b.rng.gen_range(26usize..=44);
    let (mut now, mut free_at) = (0u64, vec![0u64; processes as usize]);
    let mut next_block = 0usize;
    // Appended blocks with the latest append invocation on their path.
    let mut appended = vec![(b.tree.genesis().id, 0u64)];
    while b.records.len() < target {
        now += b.rng.gen_range(0u64..=2);
        let p = b.rng.gen_range(0..processes);
        let start = now.max(free_at[p as usize]);
        let end = start + b.rng.gen_range(1u64..=3);
        free_at[p as usize] = end;
        if next_block < blocks.len() && b.rng.gen_bool(0.4) {
            let block = blocks[next_block].clone();
            next_block += 1;
            let parent = block.parent.unwrap();
            let path_at = appended.iter().find(|(id, _)| *id == parent).unwrap().1;
            appended.push((block.id, path_at.max(start)));
            let ok = b.rng.gen_bool(0.9);
            b.push(
                p,
                (start, end),
                BtOperation::Append(block),
                BtResponse::Appended(ok),
            );
        } else {
            let ready: Vec<_> = if b.rng.gen_bool(0.03) {
                appended.iter().map(|&(id, _)| id).collect()
            } else {
                appended
                    .iter()
                    .filter(|&&(_, at)| at < end)
                    .map(|&(id, _)| id)
                    .collect()
            };
            let id = if b.rng.gen_bool(0.8) {
                *ready
                    .iter()
                    .max_by_key(|&&id| b.tree.get(id).unwrap().height)
                    .unwrap()
            } else {
                ready[b.rng.gen_range(0..ready.len())]
            };
            let chain = b.tree.chain_to(id).unwrap();
            b.push(p, (start, end), BtOperation::Read, BtResponse::Chain(chain));
        }
    }
    b
}

/// Coarse clock: many invocations and responses share a timestamp, within
/// and across processes.
fn tie_timestamps(b: &mut Battery) {
    for r in &mut b.records {
        r.invoked_at = Timestamp(r.invoked_at.0 / 3 * 3);
        r.responded_at = r.responded_at.map(|t| Timestamp(t.0 / 3 * 3));
    }
}

/// Two ops of one process swap their times: seq order ≠ time order.
fn overlap_same_process(b: &mut Battery) {
    for _ in 0..2 {
        let p = ProcessId(b.rng.gen_range(0..b.processes));
        let own = b.indices(|r| r.process == p);
        if own.len() < 2 {
            continue;
        }
        let first = b.pick(own.len() - 1);
        let second = first + 1 + b.pick(own.len() - 1 - first);
        let (x, y) = (own[first], own[second]);
        let (xi, xr) = (b.records[x].invoked_at, b.records[x].responded_at);
        b.records[x].invoked_at = b.records[y].invoked_at;
        b.records[x].responded_at = b.records[y].responded_at;
        b.records[y].invoked_at = xi;
        b.records[y].responded_at = xr;
    }
}

/// A record invoked at or after its own response.
fn invert_record(b: &mut Battery) {
    if let Some(i) = b.pick_where(|r| r.responded_at.is_some()) {
        let lag = b.rng.gen_range(0u64..=3);
        let responded = b.records[i].responded_at.unwrap();
        b.records[i].invoked_at = Timestamp(responded.0 + lag);
    }
}

/// A pending read and a pending append (one without response event, one
/// without response value).
fn pending(b: &mut Battery) {
    if let Some(i) = b.pick_where(is_read) {
        b.records[i].responded_at = None;
        b.records[i].response = None;
    }
    if let Some(i) = b.pick_where(is_append) {
        b.records[i].response = None;
    }
}

/// A read block whose every append failed, and a read block whose every
/// append is invoked after the read responds.
fn unappended_blocks(b: &mut Battery) {
    for late in [false, true] {
        let Some(r) = b.pick_where(|r| chain_of(r).is_some_and(|c| c.len() > 1)) else {
            return;
        };
        let chain = chain_of(&b.records[r]).unwrap().clone();
        let target = chain.blocks()[1 + b.pick(chain.len() - 1)].id;
        let after = b.records[r].responded_at.unwrap().0;
        for rec in &mut b.records {
            if rec.op.block().is_some_and(|blk| blk.id == target) {
                if late {
                    rec.invoked_at = Timestamp(after + 1);
                    rec.responded_at = rec.responded_at.map(|_| Timestamp(after + 2));
                } else if rec.response.is_some() {
                    rec.response = Some(BtResponse::Appended(false));
                }
            }
        }
    }
}

/// One block appended by two processes (the copy possibly earlier).
fn double_append(b: &mut Battery) {
    let Some(i) = b.pick_where(is_append) else {
        return;
    };
    let (op, owner) = (b.records[i].op.clone(), b.records[i].process.0);
    let other = (owner + 1 + b.rng.gen_range(0..b.processes - 1)) % b.processes;
    let at = b.rng.gen_range(0..=b.end_time());
    b.push(other, (at, at + 1), op, BtResponse::Appended(true));
}

/// One process issues no read after some point (it keeps appending).
fn stop_reading(b: &mut Battery) {
    let p = ProcessId(b.rng.gen_range(0..b.processes));
    let cut = b.rng.gen_range(0..=b.end_time());
    b.records
        .retain(|r| !(r.process == p && r.op.is_read() && r.invoked_at.0 > cut));
}

/// A block that re-spends a transaction of its own chain, appended and
/// then read.
fn double_spend(b: &mut Battery) {
    let Some(r) = b.pick_where(|r| chain_of(r).is_some_and(|c| c.len() > 1)) else {
        return;
    };
    let chain = chain_of(&b.records[r]).unwrap().clone();
    let spent = chain.blocks()[1].payload[0];
    let block = BlockBuilder::new(chain.tip())
        .nonce(9_000 + b.records.len() as u64)
        .payload(vec![spent])
        .build();
    let extended = chain.extended_with(block.clone()).unwrap();
    let p = b.rng.gen_range(0..b.processes);
    let at = b.records[r].responded_at.unwrap().0;
    b.push(
        p,
        (at, at + 1),
        BtOperation::Append(block),
        BtResponse::Appended(true),
    );
    b.push(
        p,
        (at + 2, at + 3),
        BtOperation::Read,
        BtResponse::Chain(extended),
    );
}

/// Appends keep coming after the last read: reads that returned the best
/// score now have a growth obligation nobody meets.
fn trailing_appends(b: &mut Battery) {
    let deepest = b.tree.best_leaf_by_height(false);
    let mut tip = b.tree.get(deepest).unwrap().clone();
    let mut at = b.end_time();
    for n in 0..2 * (b.processes as u64 + 2) {
        tip = BlockBuilder::new(&tip).nonce(7_000 + n).build();
        let p = b.rng.gen_range(0..b.processes);
        at += 1;
        b.push(
            p,
            (at, at + 1),
            BtOperation::Append(tip.clone()),
            BtResponse::Appended(true),
        );
    }
}

/// A read, by a process of its own and before everything else, of a chain
/// over a pruned window (rooted at a non-genesis block): `ReachForest`
/// refuses disjoint roots.  Placed where Eventual Prefix never pairs it
/// (its `mcps` against a genesis chain is undefined).
fn disjoint_root(b: &mut Battery) {
    let Some(r) = b.pick_where(|r| chain_of(r).is_some_and(|c| c.len() > 2)) else {
        return;
    };
    let chain = chain_of(&b.records[r]).unwrap().clone();
    let mut window = BlockTree::rerooted(chain.blocks()[1].clone());
    for block in &chain.blocks()[2..] {
        window.insert(block.clone()).unwrap();
    }
    let pruned = window.chain_to(chain.tip().id).unwrap();
    let p = b.processes;
    b.push(p, (0, 0), BtOperation::Read, BtResponse::Chain(pruned));
}

/// A read whose tip carries different content under its resident id.
fn forged_boundary(b: &mut Battery) {
    let Some(r) = b.pick_where(|r| chain_of(r).is_some_and(|c| c.len() > 1)) else {
        return;
    };
    let mut blocks = chain_of(&b.records[r]).unwrap().blocks().to_vec();
    blocks.last_mut().unwrap().work += 1;
    b.records[r].response = Some(BtResponse::Chain(Blockchain::from_blocks_trusted(blocks)));
}

type Mutation = fn(&mut Battery);

const MUTATIONS: [(&str, Mutation); 11] = [
    ("tie-timestamps", tie_timestamps),
    ("overlap-same-process", overlap_same_process),
    ("invert-record", invert_record),
    ("pending", pending),
    ("unappended-blocks", unappended_blocks),
    ("double-append", double_append),
    ("stop-reading", stop_reading),
    ("double-spend", double_spend),
    ("trailing-appends", trailing_appends),
    ("forged-boundary", forged_boundary),
    // Last: no later mutation may move the pruned-window read.
    ("disjoint-root", disjoint_root),
];

/// The seed's history: every mutation alone on its own residue class of
/// seeds, a random subset otherwise.
fn hostile_history(seed: u64) -> (BtHistory, Vec<&'static str>) {
    let mut b = base_history(seed);
    let alone = (seed as usize) % (2 * MUTATIONS.len());
    let mut applied = Vec::new();
    for (k, (name, mutate)) in MUTATIONS.iter().enumerate() {
        let chosen = if alone < MUTATIONS.len() {
            k == alone
        } else {
            b.rng.gen_bool(0.35)
        };
        if chosen {
            mutate(&mut b);
            applied.push(*name);
        }
    }
    (ConcurrentHistory::from_records(b.records), applied)
}

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
        let (history, applied) = hostile_history(seed);
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
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
