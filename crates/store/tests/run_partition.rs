//! Run/partition differential: however a block sequence is cut into runs,
//! [`BlockStore::append_run`] leaves the medium holding the same files with
//! the same bytes as one `append` per block — the run is cut exactly where
//! the record-at-a-time path seals a chunk or fires the checkpoint cadence —
//! and only the number of medium writes goes down.

use std::sync::{Arc, Mutex};

use btadt_store::{
    BlockStore, FaultInjector, SimMedium, StoreConfig, StoreStats, WriteFault, WriteKind, WriteOp,
};
use btadt_types::workload::Workload;
use btadt_types::{Block, BlockBuilder};

const BLOCKS: usize = 1_300;

/// FNV-1a over a byte slice: the test's seeded rolls and image digest.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A chain whose payloads (hence record lengths) vary block to block.
fn chain(seed: u64) -> Vec<Block> {
    let mut w = Workload::new(seed);
    let mut tip = Block::genesis();
    (0..BLOCKS)
        .map(|i| {
            tip = w.block_on(&tip, (i % 8) as u32, i % 5, 4);
            tip.clone()
        })
        .collect()
}

/// A bushy random tree, in generation (arena) order.
fn random_tree(seed: u64) -> Vec<Block> {
    let tree = Workload::new(seed).random_tree(BLOCKS, 0.6, 2);
    tree.blocks().skip(1).cloned().collect()
}

/// Two siblings per level, the next level on the second: the shape two
/// concurrent prodigal appenders produce.
fn ladder(seed: u64) -> Vec<Block> {
    let mut w = Workload::new(seed);
    let mut tip = Block::genesis();
    let mut out = Vec::with_capacity(BLOCKS);
    for level in 0..(BLOCKS / 2) as u64 {
        for slot in 0..2 {
            let sibling = BlockBuilder::new(&tip)
                .producer(slot)
                .nonce(level * 2 + u64::from(slot) + 1)
                .payload(w.transactions(1))
                .build();
            out.push(sibling);
        }
        tip = out[out.len() - 1].clone();
    }
    out
}

fn configs() -> [StoreConfig; 4] {
    let config = |chunk_capacity, auto_checkpoint_every| StoreConfig {
        chunk_capacity,
        auto_checkpoint_every,
    };
    // The last one's cadence is not a multiple of its chunk: a run must be
    // cut at checkpoints as well as at seals.
    [
        StoreConfig::small(),
        config(256, 1024),
        config(3, 0),
        config(5, 7),
    ]
}

/// The run lengths of each partition of `n` blocks.
fn partitions(n: usize, seed: u64) -> Vec<(String, Vec<usize>)> {
    let even = |size: usize| -> Vec<usize> {
        let mut runs = vec![size; n / size];
        runs.extend(Some(n % size).filter(|&rest| rest > 0));
        runs
    };
    let mut random = Vec::new();
    let mut left = n;
    while left > 0 {
        // Mostly short runs, a few long ones, now and then an empty one.
        let roll = fnv64(&(seed + random.len() as u64).to_le_bytes());
        let len = match roll % 8 {
            0 => 0,
            1 => roll as usize / 8 % 300,
            _ => roll as usize / 8 % 20,
        };
        random.push(len.min(left));
        left -= len.min(left);
    }
    vec![
        ("singles".into(), even(1)),
        ("2s".into(), even(2)),
        ("16s".into(), even(16)),
        ("64s".into(), even(64)),
        ("one run".into(), vec![n]),
        ("random cuts".into(), random),
    ]
}

/// One medium write: what, where, how many bytes.
type Op = (WriteKind, String, usize);

/// A faultless injector that logs every medium write, with consecutive
/// appends to one file merged into one: what is left is the order in which
/// bytes and manifests reached the medium, whatever the grouping.
struct WriteLog(Arc<Mutex<Vec<Op>>>);

impl FaultInjector for WriteLog {
    fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
        let mut log = self.0.lock().expect("no writer panics");
        match log.last_mut() {
            Some((WriteKind::Append, file, len))
                if op.kind == WriteKind::Append && file == op.file =>
            {
                *len += op.len
            }
            _ => log.push((op.kind, op.file.to_string(), op.len)),
        }
        WriteFault::None
    }
}

/// Everything about a store that must not depend on the partition.
#[derive(Debug, PartialEq)]
struct Image {
    /// A checkpoint must follow the bytes it covers, not overtake them.
    write_order: Vec<Op>,
    files: Vec<(String, Vec<u8>)>,
    sealed: Vec<btadt_store::ChunkMeta>,
    /// The counters that existed before runs did.
    counters: [u64; 5],
    checkpoint_height: u64,
    bytes_written: u64,
}

/// Every file on `medium`, by name.
fn files(medium: &SimMedium) -> Vec<(String, Vec<u8>)> {
    medium
        .list()
        .into_iter()
        .map(|name| {
            let bytes = medium.read(&name).expect("listed").to_vec();
            (name, bytes)
        })
        .collect()
}

fn image(store: &BlockStore, log: &Mutex<Vec<Op>>) -> Image {
    let medium = store.medium();
    let StoreStats {
        appended,
        chunks_sealed,
        checkpoints,
        pruned,
        prunes,
        ..
    } = store.stats();
    Image {
        write_order: log.lock().expect("no writer panics").clone(),
        files: files(medium),
        sealed: store.sealed_chunks().to_vec(),
        counters: [appended, chunks_sealed, checkpoints, pruned, prunes],
        checkpoint_height: store.checkpoint_height(),
        bytes_written: medium.stats().bytes_written,
    }
}

/// A fresh store over a medium that logs its writes.
fn logged_store(config: StoreConfig) -> (BlockStore, Arc<Mutex<Vec<Op>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut medium = SimMedium::new();
    medium.set_injector(Box::new(WriteLog(Arc::clone(&log))));
    (BlockStore::create(medium, config), log)
}

fn persist(blocks: &[Block], config: StoreConfig, runs: &[usize]) -> (BlockStore, Image) {
    let (mut store, log) = logged_store(config);
    let mut rest = blocks;
    for &len in runs {
        let (run, tail) = rest.split_at(len);
        store.append_run(run);
        rest = tail;
    }
    assert!(rest.is_empty(), "the partition covers the sequence");
    let image = image(&store, &log);
    (store, image)
}

#[test]
fn every_partition_of_a_sequence_writes_the_image_of_one_append_per_block() {
    let shapes = [
        ("chain", chain(11)),
        ("random tree", random_tree(12)),
        ("ladder", ladder(13)),
    ];
    for (shape, blocks) in &shapes {
        for config in configs() {
            let (mut reference, log) = logged_store(config);
            for block in blocks {
                reference.append(block);
            }
            let expected = image(&reference, &log);
            let reference_writes = reference.medium().stats().writes;
            for (partition, runs) in partitions(blocks.len(), 17) {
                let what = format!("{shape}, {config:?}, {partition}");
                let (mut store, image) = persist(blocks, config, &runs);
                assert_eq!(image, expected, "{what}");
                let writes = store.medium().stats().writes;
                assert!(writes <= reference_writes, "{what}: {writes} writes");
                let stats = store.stats();
                let written: Vec<usize> = runs.iter().copied().filter(|&len| len > 0).collect();
                assert_eq!(stats.runs, written.len() as u64, "{what}");
                assert_eq!(
                    stats.largest_run,
                    *written.iter().max().expect("non-empty") as u64,
                    "{what}"
                );

                // A power cut after a final checkpoint: the image recovers
                // to the same survivors, with nothing to repair.
                store.checkpoint();
                let (_, report, survivors) = BlockStore::recover(store.into_medium(), config);
                assert!(report.is_pristine(), "{what}: {report:?}");
                assert_eq!(&survivors, blocks, "{what}");
            }
        }
    }
}

#[test]
fn one_run_is_one_write_per_chunk_and_checkpoint_stretch() {
    // 1 300 records, 256 to a chunk, a checkpoint every 1 024 (a chunk
    // boundary): six chunk stretches, one manifest overwrite, one rename.
    let blocks = chain(19);
    let config = configs()[1];
    let (store, _) = persist(&blocks, config, &[blocks.len()]);
    assert_eq!(store.medium().stats().writes, 6 + 2);
    // {5, 7}: 260 chunk stretches, one more for each of the 185 checkpoints
    // that does not fall on a chunk boundary (every fifth does), and two
    // writes per checkpoint.
    let (store, _) = persist(&blocks, configs()[3], &[blocks.len()]);
    let checkpoints = 1_300 / 7;
    assert_eq!(store.stats().checkpoints, checkpoints);
    let writes = 260 + (checkpoints - checkpoints / 5) + 2 * checkpoints;
    assert_eq!(store.medium().stats().writes, writes);
}

/// One digest of a file set: names, lengths and contents.
fn digest(files: &[(String, Vec<u8>)]) -> u64 {
    let mut bytes = Vec::new();
    for (name, contents) in files {
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&(contents.len() as u64).to_le_bytes());
        bytes.extend_from_slice(contents);
    }
    fnv64(&bytes)
}

/// The record format v2 image of one `append_run` over a random tree: the
/// bytes, sums and manifests the format writes, pinned.  These digests may
/// only change with a new format version.
#[test]
fn the_v2_image_is_pinned() {
    let blocks = random_tree(12);
    let pinned = [PINNED_SMALL, PINNED_5_7];
    for (config, pinned) in [configs()[0], configs()[3]].into_iter().zip(pinned) {
        let (_, image) = persist(&blocks, config, &[blocks.len()]);
        assert_eq!(digest(&image.files), pinned, "{config:?}");
    }
}

const PINNED_SMALL: u64 = 0x1abd_2dc6_583f_a711;
const PINNED_5_7: u64 = 0x5347_03ae_1854_637c;
