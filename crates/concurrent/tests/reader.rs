//! Differential and cost checks of the memoizing read path.
//!
//! [`BtReader::read`] splices the chain it returned last time onto the
//! newly published tip instead of re-walking the store.  Two things must
//! hold for that to be an optimisation and not a behaviour change:
//!
//! * **equality** — after any sequence of tip moves (extensions, reorgs to
//!   deep fork points, reorgs to *shorter* chains) a read equals the chain
//!   to the same tip built from scratch, and every chain a caller still
//!   holds stays block-for-block what it was when it was returned (the
//!   in-place path must never be observable), single-threaded and under a
//!   writer that keeps reorganising;
//! * **cost** — the blocks a read clones are Δ + reorg depth when the
//!   caller dropped the previous result, and the kept prefix on top of
//!   that when it did not.  Counted with [`BtReader::stats`], not timed.
//!
//! The generator drives the deliberately unmediated replica
//! ([`ConcurrentBlockTree::racy`]): it publishes *its own block* as the tip,
//! so a test can move the published tip to any branch of the tree, lower
//! ones included — which the selection-driven replicas never do.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use btadt_concurrent::{BtReader, ConcurrentBlockTree, ReadStats};
use btadt_types::rng::SplitMix64;
use btadt_types::{Block, BlockBuilder, Blockchain};

/// A draw in `0..n`.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Grows a fork-y tree one published block at a time.  Each step picks a
/// parent — mostly the newest blocks (extensions and shallow reorgs),
/// sometimes any block at all (deep reorgs, shorter chains) — and commits a
/// child on the racy path, which publishes that child as the tip.
struct Reorganiser<'a> {
    replica: &'a ConcurrentBlockTree,
    mix: SplitMix64,
    blocks: Vec<Block>,
}

impl<'a> Reorganiser<'a> {
    fn new(replica: &'a ConcurrentBlockTree, seed: u64) -> Self {
        Reorganiser {
            replica,
            mix: SplitMix64::new(seed),
            blocks: vec![Block::genesis()],
        }
    }

    /// Publishes one more tip and returns it.
    fn step(&mut self) -> Block {
        let n = self.blocks.len();
        let parent = match below(&mut self.mix, 10) {
            0..=4 => n - 1,
            5..=7 => n - 1 - below(&mut self.mix, n.min(4)),
            _ => below(&mut self.mix, n),
        };
        let prepared = self
            .replica
            .prepare_on(0, self.blocks[parent].clone(), vec![]);
        let block = self.replica.commit(prepared).block;
        self.blocks.push(block.clone());
        block
    }
}

/// A chain a caller kept, with a copy of its blocks taken when it was
/// returned.
struct Retained {
    chain: Blockchain,
    blocks_then: Vec<Block>,
}

impl Retained {
    fn keep(chain: Blockchain) -> Self {
        let blocks_then = chain.blocks().to_vec();
        Retained { chain, blocks_then }
    }

    fn assert_untouched(&self, what: &str) {
        assert_eq!(
            self.chain.blocks(),
            &self.blocks_then[..],
            "{what}: a retained chain changed under its holder"
        );
    }
}

#[test]
fn reads_equal_a_from_scratch_walk_across_reorgs_and_retained_chains_never_change() {
    for seed in [1u64, 7, 42, 1234] {
        let replica = ConcurrentBlockTree::racy(1);
        let mut writer = Reorganiser::new(&replica, seed);
        let mut choices = SplitMix64::new(seed ^ 0xfeed);
        let mut reader = replica.reader();
        let mut retained: Vec<Retained> = Vec::new();
        let mut shorter = 0;
        let mut last_height = 0;
        for step in 0..400 {
            let tip = writer.step();
            shorter += usize::from(tip.height < last_height);
            last_height = tip.height;
            // Not every publish is read: a reader may skip several moves.
            if below(&mut choices, 3) == 0 {
                continue;
            }
            let what = format!("seed {seed}, step {step}");
            let chain = reader.read();
            assert_eq!(chain.tip().id, tip.id, "{what}");
            assert_eq!(chain, replica.read(), "{what}: spliced vs from scratch");
            assert_eq!(reader.read(), chain, "{what}: the memo hit");
            for r in &retained {
                r.assert_untouched(&what);
            }
            // Per read: keep the chain (the next move must copy) or drop
            // it (the next move may splice in place).
            if below(&mut choices, 2) == 0 {
                retained.push(Retained::keep(chain));
            }
        }
        assert!(shorter > 10, "seed {seed}: the tip moved to shorter chains");
        let stats = reader.stats();
        assert!(
            stats.extended > 10 && stats.rebuilt > 10,
            "seed {seed}: both splice paths ran ({stats:?})"
        );
        // Every retained chain is still the path to its tip.
        let tree = replica.writer_tree_snapshot();
        for r in &retained {
            assert_eq!(
                Some(&r.chain),
                tree.chain_to(r.chain.tip().id).as_ref(),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn concurrent_readers_agree_with_the_tree_while_a_writer_keeps_reorganising() {
    const READERS: usize = 2;
    for seed in [3u64, 99] {
        let replica = ConcurrentBlockTree::racy(1 + READERS);
        let start = Barrier::new(1 + READERS);
        let done = AtomicBool::new(false);
        // Per reader: the chains it kept, and its last read.
        let reads: Vec<(Vec<Retained>, Blockchain)> = thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (replica, start, done) = (&replica, &start, &done);
                    scope.spawn(move || {
                        let mut reader = replica.reader_for(1 + r);
                        let mut choices = SplitMix64::new(seed ^ r as u64);
                        let mut retained: Vec<Retained> = Vec::new();
                        start.wait();
                        loop {
                            // ORDERING: Acquire — pairs with the writer's
                            // Release store, so the read after the flag
                            // flips sees the final tip.
                            let last = done.load(Ordering::Acquire);
                            let chain = reader.read();
                            assert!(
                                Blockchain::from_blocks(chain.blocks().to_vec()).is_some(),
                                "seed {seed}: a read surfaced a torn chain"
                            );
                            if last {
                                return (retained, chain);
                            }
                            if below(&mut choices, 2) == 0 {
                                retained.push(Retained::keep(chain));
                            }
                        }
                    })
                })
                .collect();
            let mut writer = Reorganiser::new(&replica, seed);
            start.wait();
            for _ in 0..600 {
                writer.step();
            }
            // ORDERING: Release — see the readers' Acquire load.
            done.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|r| r.join().expect("reader threads do not panic"))
                .collect()
        });
        let tree = replica.writer_tree_snapshot();
        let final_chain = replica.read();
        for (r, (kept, last)) in reads.iter().enumerate() {
            assert_eq!(last, &final_chain, "seed {seed}, reader {r}: the last read");
            for k in kept {
                k.assert_untouched(&format!("seed {seed}, reader {r}"));
                assert_eq!(
                    Some(&k.chain),
                    tree.chain_to(k.chain.tip().id).as_ref(),
                    "seed {seed}, reader {r}: a read is the path to its tip"
                );
            }
        }
    }
}

/// An eventual replica holding one `height`-block chain, ingested through
/// the batch door.
fn replica_with_chain(height: usize) -> ConcurrentBlockTree {
    let replica = ConcurrentBlockTree::eventual(1);
    let mut parent = Block::genesis();
    let chain: Vec<Block> = (0..height)
        .map(|i| {
            parent = BlockBuilder::new(&parent).nonce(i as u64).build();
            parent.clone()
        })
        .collect();
    assert_eq!(replica.ingest_batch(0, chain).accepted, height);
    replica
}

/// What `f` added to the reader's counters.
fn stats_of(reader: &mut BtReader<'_>, f: impl FnOnce(&mut BtReader<'_>)) -> ReadStats {
    let before = reader.stats();
    f(reader);
    let after = reader.stats();
    ReadStats {
        hits: after.hits - before.hits,
        extended: after.extended - before.extended,
        rebuilt: after.rebuilt - before.rebuilt,
        blocks_cloned: after.blocks_cloned - before.blocks_cloned,
    }
}

#[test]
fn a_read_after_a_tip_move_clones_the_delta_not_the_height() {
    const HEIGHT: usize = 16_384;
    const N: u64 = 48;
    let replica = replica_with_chain(HEIGHT);
    let mut reader = replica.reader();

    // The first read has nothing to reuse but the genesis block.
    let first = stats_of(&mut reader, |r| drop(r.read()));
    let expected = ReadStats {
        extended: 1,
        blocks_cloned: HEIGHT as u64,
        ..ReadStats::default()
    };
    assert_eq!(first, expected);

    // N single-block appends, each followed by a read whose result is
    // dropped: N blocks cloned in total, never a prefix copy.
    let dropped = stats_of(&mut reader, |r| {
        for _ in 0..N {
            assert!(replica.append(0, vec![]).appended);
            drop(r.read());
            drop(r.read());
        }
    });
    let expected = ReadStats {
        hits: N,
        extended: N,
        rebuilt: 0,
        blocks_cloned: N,
    };
    assert_eq!(dropped, expected);

    // A branch switch: a side branch forking DEPTH below the tip and
    // ending DELTA above it becomes the longest chain in one publish.
    const DEPTH: usize = 5;
    const DELTA: usize = 2;
    let chain = reader.read();
    let mut parent = chain[chain.len() - 1 - DEPTH].clone();
    let branch: Vec<Block> = (0..DEPTH + DELTA)
        .map(|i| {
            parent = BlockBuilder::new(&parent).nonce(1 << 32 | i as u64).build();
            parent.clone()
        })
        .collect();
    let branch_tip = parent.id;
    drop(chain);
    assert_eq!(replica.ingest_batch(0, branch).accepted, DEPTH + DELTA);
    let switched = stats_of(&mut reader, |r| {
        let chain = r.read();
        assert_eq!(chain.tip().id, branch_tip);
        assert_eq!(chain, replica.read());
    });
    let expected = ReadStats {
        extended: 1,
        blocks_cloned: (DEPTH + DELTA) as u64,
        ..ReadStats::default()
    };
    assert_eq!(switched, expected, "reorg depth + Δ");

    // The same loop retaining its results: every move copies the prefix
    // the held chain pins, on top of the one new block.
    let mut kept = vec![reader.read()];
    let height_before = kept[0].len() as u64;
    let retaining = stats_of(&mut reader, |r| {
        for _ in 0..N {
            assert!(replica.append(0, vec![]).appended);
            kept.push(r.read());
        }
    });
    let expected = ReadStats {
        hits: 0,
        extended: 0,
        rebuilt: N,
        blocks_cloned: (0..N).map(|i| height_before + i + 1).sum(),
    };
    assert_eq!(retaining, expected);
    for (i, chain) in kept.iter().enumerate() {
        assert_eq!(chain.len() as u64, height_before + i as u64);
    }
}
