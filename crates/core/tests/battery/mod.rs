//! Hostile-history battery.
//!
//! Small seeded histories (≤ 60 operations: the reference checkers are
//! cubic) over a random block tree, then a random subset of mutations that
//! no recorder produces but a checker must still judge exactly: timestamp
//! ties, same-process ops whose seq order disagrees with their time order,
//! records invoked at or after their response, pending operations, blocks
//! only ever appended by a failed append or appended after the read that
//! returns them, a block appended by two processes, a process that stops
//! reading, double-spending blocks, appends that keep coming after the last
//! read, and chains `ReachForest` refuses (a pruned-window root, a forged
//! block under a resident id).
//!
//! Shared by `equivalence.rs` (indexed vs reference verdicts) and
//! `shared_index.rs` (a criterion's parts vs each property alone).

use btadt_core::{BtHistory, BtOperation, BtResponse};
use btadt_history::{ConcurrentHistory, OpId, OperationRecord, ProcessId, Timestamp};
use btadt_types::rng::ChaCha8;
use btadt_types::workload::Workload;
use btadt_types::{Block, BlockBuilder, BlockTree, Blockchain};

type Record = OperationRecord<BtOperation, BtResponse>;

/// A history under construction: its records and the tree its blocks and
/// chains come from.
struct Battery {
    rng: ChaCha8,
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
    let mut rng = ChaCha8::new(seed);
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
pub fn hostile_history(seed: u64) -> (BtHistory, Vec<&'static str>) {
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
