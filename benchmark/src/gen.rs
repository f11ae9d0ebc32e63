//! Seeded input generators.  Every input of every workload is a pure
//! function of `--seed`; the program under test only ever sees the
//! generated blocks, never the seed.

use btadt_core::{BtHistory, BtOperation, BtRecorder, BtResponse};
use btadt_history::ProcessId;
use btadt_types::workload::Workload;
use btadt_types::{Block, BlockBuilder, BlockTree, Transaction};

/// SplitMix64: the benchmark's own stream for shuffles and op mixes (the
/// blocks themselves come from the library's `Workload` generator).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A sub-seed for one purpose (`lane`) of one run seed, so that e.g. the
/// op mix and the payloads never share a stream.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    SplitMix64::new(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// `n` payloads of `txs` fresh transactions each.
pub fn payloads(seed: u64, n: usize, txs: usize) -> Vec<Vec<Transaction>> {
    let mut w = Workload::new(seed);
    (0..n).map(|_| w.transactions(txs)).collect()
}

/// A linear chain of `n` blocks with `txs` transactions each, genesis
/// excluded, parents first.
pub fn chain(seed: u64, n: usize, txs: usize) -> Vec<Block> {
    // Not `Workload::linear_chain`: it re-copies the chain per block.
    let mut w = Workload::new(seed);
    let mut out: Vec<Block> = Vec::with_capacity(n);
    let genesis = Block::genesis();
    for i in 0..n {
        let block = w.block_on(out.last().unwrap_or(&genesis), (i % 8) as u32, txs, 4);
        out.push(block);
    }
    out
}

/// The non-genesis blocks of a tree in generation (arena) order, which is
/// parents-first.
pub fn tree_stream(tree: &BlockTree) -> Vec<Block> {
    tree.blocks().skip(1).cloned().collect()
}

/// The fork-dense "ladder": two sibling blocks at every height, the chain
/// continuing on the *second* sibling — what two Θ_P clients or a handful
/// of PoW miners produce.  The second sibling is the one with the larger
/// id, so sorting by `(height, id)` (as crash recovery does) reproduces
/// generation order and the shape is the same for every seed.
/// `2 * levels` blocks, parents first.
pub fn ladder(seed: u64, levels: usize, txs: usize) -> Vec<Block> {
    let mut w = Workload::new(seed);
    let mut tip = Block::genesis();
    let mut out = Vec::with_capacity(levels * 2);
    for level in 0..levels as u64 {
        let mut sibling = |slot: u64| {
            BlockBuilder::new(&tip)
                .producer(slot as u32)
                .nonce(level * 2 + slot + 1)
                .payload(w.transactions(txs))
                .build()
        };
        let (mut first, mut second) = (sibling(0), sibling(1));
        if first.id > second.id {
            std::mem::swap(&mut first, &mut second);
        }
        out.push(first);
        out.push(second.clone());
        tip = second;
    }
    out
}

/// One batch offered to an ingest door.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The blocks, in offer order.
    pub blocks: Vec<Block>,
    /// `true` iff this batch repeats the previous one (every verdict must
    /// be `Duplicate`).
    pub resent: bool,
}

/// Cuts a parents-first stream into `size`-block batches; one batch in ten
/// is shuffled in place and two in a hundred are followed by a re-send of
/// themselves.
pub fn stream_batches(stream: &[Block], size: usize, seed: u64) -> Vec<Batch> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(stream.len() / size + 8);
    for chunk in stream.chunks(size) {
        let mut blocks = chunk.to_vec();
        if rng.below(10) == 0 {
            rng.shuffle(&mut blocks);
        }
        let resend = rng.below(50) == 0;
        out.push(Batch {
            blocks: blocks.clone(),
            resent: false,
        });
        if resend {
            out.push(Batch {
                blocks,
                resent: true,
            });
        }
    }
    out
}

/// Cuts a parents-first stream into `size`-block batches after reversing
/// every `window`-block window, so most blocks arrive before their parents
/// (orphans, then a drain).
pub fn reversed_windows(stream: &[Block], window: usize, size: usize) -> Vec<Vec<Block>> {
    let mut out = Vec::with_capacity(stream.len() / size + 1);
    for w in stream.chunks(window) {
        let reversed: Vec<Block> = w.iter().rev().cloned().collect();
        out.extend(reversed.chunks(size).map(<[Block]>::to_vec));
    }
    out
}

/// The history clients would have recorded while `stream` was ingested:
/// every block is an `append` by its producer, and after every
/// `read_every` blocks one of `processes` clients reads the longest chain;
/// a final round of reads closes the history.  Gives the workloads that
/// record no history of their own something to judge.
pub fn replay_history(stream: &[Block], processes: u32, read_every: usize) -> BtHistory {
    let mut tree = BlockTree::new();
    let mut rec = BtRecorder::new();
    let read = |rec: &mut BtRecorder, tree: &BlockTree, p: u32| {
        let tip = tree.best_leaf_by_height(true);
        let chain = tree.chain_to(tip).expect("the best leaf is in the tree");
        rec.instantaneous(ProcessId(p), BtOperation::Read, BtResponse::Chain(chain));
    };
    for (i, block) in stream.iter().enumerate() {
        rec.instantaneous(
            ProcessId(block.producer % processes),
            BtOperation::Append(block.clone()),
            BtResponse::Appended(true),
        );
        tree.insert(block.clone()).expect("stream is parents-first");
        if (i + 1) % read_every == 0 {
            read(&mut rec, &tree, (i / read_every) as u32 % processes);
        }
    }
    for p in 0..processes {
        read(&mut rec, &tree, p);
    }
    rec.into_history()
}

/// Order-sensitive FNV-1a digest of a block stream (ids, parents and
/// payload sizes): equal seeds must give equal digests.
pub fn digest<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in blocks {
        mix(b.id.0);
        mix(b.parent.map_or(u64::MAX, |p| p.0));
        mix(b.payload.len() as u64);
    }
    h
}
