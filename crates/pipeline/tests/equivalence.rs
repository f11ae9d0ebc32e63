//! Batched ≡ sequential: the ISSUE 10 equivalence properties.
//!
//! Every batch door must preserve the reference semantics of feeding the
//! same blocks one at a time: identical verdicts, identical tip state
//! (tips, leaves, cumulative work) and identical reachability answers.
//! The arena tree's `insert_batch` override additionally promises
//! byte-identical interval labels, because the batch path runs the same
//! per-block `reach.attach` in the same order as the sequential path.
//!
//! Inputs are deterministic: a seeded workload tree, a seeded
//! Fisher–Yates shuffle, and chunked offers with orphan re-offer loops —
//! the shuffled and orphan-heavy shapes gossip delta-sync actually
//! produces.  The pooled door ([`ingest_pooled`]) takes the same inputs:
//! it must end where the repeated-pass drain it replaced ends, and its
//! pool must hand back exactly the children of what linked.

use std::collections::HashMap;

use btadt_pipeline::{ingest_pooled, BatchReport, Ingest, IngestVerdict, OrphanPool};
use btadt_types::rng::SplitMix64;
use btadt_types::workload::Workload;
use btadt_types::{Block, BlockId, BlockTree, NaiveBlockTree, NodeIdx, GENESIS_ID};

fn shuffled(blocks: &[Block], seed: u64) -> Vec<Block> {
    let mut out = blocks.to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// The non-genesis blocks of a deterministic fork-heavy workload tree.
fn workload_blocks(seed: u64, n: usize) -> Vec<Block> {
    let tree = Workload::new(seed).random_tree(n, 0.5, 0);
    tree.blocks().skip(1).cloned().collect()
}

/// Feeds `blocks` in `chunk`-sized batches, re-offering orphans together
/// with the next chunk and draining the pool at the end.  Returns the
/// total accepted count.
fn feed_batches<T: Ingest>(sink: &mut T, blocks: &[Block], chunk: usize) -> usize {
    let mut accepted = 0;
    let mut pool: Vec<Block> = Vec::new();
    let offer_round = |sink: &mut T, offer: Vec<Block>, pool: &mut Vec<Block>| {
        let report = sink.ingest_batch(offer.clone());
        for (block, verdict) in offer.into_iter().zip(&report.verdicts) {
            if *verdict == IngestVerdict::Orphaned {
                pool.push(block);
            }
        }
        assert!(report.is_clean(), "workload blocks are never rejected");
        report.accepted
    };
    for batch in blocks.chunks(chunk) {
        let mut offer = batch.to_vec();
        offer.append(&mut pool);
        accepted += offer_round(sink, offer, &mut pool);
    }
    while !pool.is_empty() {
        let offer = std::mem::take(&mut pool);
        let n = offer_round(sink, offer, &mut pool);
        assert!(n > 0, "the orphan pool always makes progress");
        accepted += n;
    }
    accepted
}

/// The full equivalence check between the arena tree (batched) and the
/// naive reference: membership, tips, leaves, work and reachability.
fn assert_matches_naive(tree: &BlockTree, naive: &NaiveBlockTree) {
    assert_eq!(tree.len(), naive.len());
    assert_eq!(tree.sorted_ids(), naive.sorted_ids());
    assert_eq!(tree.height(), naive.height());
    let mut tree_leaves = tree.leaves();
    let mut naive_leaves = naive.leaves();
    tree_leaves.sort();
    naive_leaves.sort();
    assert_eq!(tree_leaves, naive_leaves);
    for id in naive.sorted_ids() {
        assert_eq!(tree.cumulative_work(id), naive.cumulative_work(id));
    }
    // Reachability: the interval index must answer exactly like chain
    // containment on the reference, over a deterministic pair sample.
    let ids = naive.sorted_ids();
    let mut rng = SplitMix64::new(0x5eed);
    for _ in 0..256 {
        let a = ids[(rng.next_u64() % ids.len() as u64) as usize];
        let b = ids[(rng.next_u64() % ids.len() as u64) as usize];
        let on_chain = naive
            .chain_to(b)
            .expect("reference contains every id it reported")
            .blocks()
            .iter()
            .any(|blk| blk.id == a);
        assert_eq!(
            tree.is_ancestor(a, b),
            Some(on_chain),
            "interval index disagrees with the chain walk for ({a:?}, {b:?})"
        );
    }
}

#[test]
fn shuffled_batches_match_the_naive_reference() {
    for seed in [1u64, 7, 42] {
        let blocks = workload_blocks(seed, 300);
        for chunk in [1usize, 17, 64] {
            let stream = shuffled(&blocks, seed ^ chunk as u64);
            let mut tree = BlockTree::new();
            let mut naive = NaiveBlockTree::new();
            let tree_accepted = feed_batches(&mut tree, &stream, chunk);
            let naive_accepted = feed_batches(&mut naive, &stream, chunk);
            assert_eq!(tree_accepted, blocks.len());
            assert_eq!(naive_accepted, blocks.len());
            assert_matches_naive(&tree, &naive);
        }
    }
}

#[test]
fn orphan_heavy_reversed_batches_still_converge() {
    // Children strictly before parents: every chunk is almost entirely
    // orphans, so the pool and its re-offer loop carry the whole load.
    let mut blocks = workload_blocks(11, 250);
    blocks.reverse();
    let mut tree = BlockTree::new();
    let mut naive = NaiveBlockTree::new();
    assert_eq!(feed_batches(&mut tree, &blocks, 32), blocks.len());
    assert_eq!(feed_batches(&mut naive, &blocks, 32), blocks.len());
    assert_matches_naive(&tree, &naive);
}

#[test]
fn batch_verdicts_equal_sequential_verdicts_per_round() {
    // One shuffled offer, duplicated tail included: the batched door and
    // a per-block loop over the same staged order must emit identical
    // verdict sequences, not just identical final trees.
    let blocks = workload_blocks(3, 120);
    let mut stream = shuffled(&blocks, 99);
    let dupes: Vec<Block> = stream.iter().take(10).cloned().collect();
    stream.extend(dupes);
    for chunk in [8usize, 40] {
        let mut batched = BlockTree::new();
        let mut sequential = NaiveBlockTree::new();
        let mut pool: Vec<Block> = Vec::new();
        for batch in stream.chunks(chunk) {
            let mut offer = batch.to_vec();
            offer.append(&mut pool);
            let report_a = batched.ingest_batch(offer.clone());
            let report_b = sequential.ingest_batch(offer.clone());
            assert_eq!(report_a, report_b, "chunk of {chunk} diverged");
            for (block, verdict) in offer.into_iter().zip(&report_a.verdicts) {
                if *verdict == IngestVerdict::Orphaned {
                    pool.push(block);
                }
            }
        }
        assert_eq!(batched.sorted_ids(), sequential.sorted_ids());
    }
}

#[test]
fn batch_path_labels_intervals_byte_identically() {
    // Same staged insertion order through both doors: the batch override
    // must leave the arena — indices, intervals, cursors — in exactly
    // the state the per-block path produces.
    let blocks = workload_blocks(21, 200);
    let stream = shuffled(&blocks, 5);

    let mut via_batch = BlockTree::new();
    feed_batches(&mut via_batch, &stream, 48);

    // The per-block mirror replays the blocks in the exact arena order
    // the batched tree settled on, so every insert resolves immediately.
    let mut via_block = BlockTree::new();
    for block in via_batch.blocks().skip(1) {
        assert_eq!(
            via_block.ingest_block(block.clone()),
            IngestVerdict::Accepted
        );
    }

    assert_eq!(via_batch.len(), via_block.len());
    for idx in 0..via_batch.len() as u32 {
        let idx = NodeIdx(idx);
        assert_eq!(via_batch.interval_at(idx), via_block.interval_at(idx));
        assert_eq!(
            via_batch.interval_cursor_at(idx),
            via_block.interval_cursor_at(idx)
        );
        assert_eq!(
            via_batch.cumulative_work_at(idx),
            via_block.cumulative_work_at(idx)
        );
    }
}

/// The door the pool replaced, as the reference: stage and link the batch,
/// keep its orphans in a list, and re-offer the whole list until a pass
/// links nothing.
#[derive(Default)]
struct RepeatedPassDoor {
    tree: BlockTree,
    orphans: Vec<Block>,
}

impl RepeatedPassDoor {
    fn offer(&mut self, blocks: Vec<Block>) -> BatchReport {
        let report = self.pass(blocks);
        loop {
            let waiting = std::mem::take(&mut self.orphans);
            if self.pass(waiting).accepted == 0 {
                return report;
            }
        }
    }

    /// One pass: ingest `blocks`, keep what orphaned.
    fn pass(&mut self, blocks: Vec<Block>) -> BatchReport {
        let report = self.tree.ingest_batch(blocks.clone());
        for (block, verdict) in blocks.into_iter().zip(&report.verdicts) {
            if *verdict == IngestVerdict::Orphaned {
                self.orphans.push(block);
            }
        }
        report
    }

    fn missing_parents(&self) -> Vec<BlockId> {
        let mut missing: Vec<BlockId> = self
            .orphans
            .iter()
            .filter_map(|b| b.parent)
            .filter(|p| !self.orphans.iter().any(|b| b.id == *p))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        missing
    }
}

#[test]
fn the_pooled_door_matches_the_repeated_pass_drain_round_for_round() {
    for seed in [1u64, 7, 42] {
        let blocks = workload_blocks(seed, 300);
        for chunk in [1usize, 17, 64] {
            let mut stream = shuffled(&blocks, seed ^ chunk as u64);
            // A flooding network re-offers: repeat a slice of the stream.
            let again: Vec<Block> = stream.iter().skip(20).take(40).cloned().collect();
            stream.splice(100..100, again);

            let mut reference = RepeatedPassDoor::default();
            let (mut tree, mut pool) = (BlockTree::new(), OrphanPool::default());
            let mut linked: Vec<BlockId> = Vec::new();
            for batch in stream.chunks(chunk) {
                let want = reference.offer(batch.to_vec());
                let got =
                    ingest_pooled(&mut tree, &mut pool, batch.to_vec(), |b| linked.push(b.id));
                assert_eq!(got, want, "verdicts diverged (seed {seed}, chunk {chunk})");
                assert_eq!(tree.sorted_ids(), reference.tree.sorted_ids());
                assert_eq!(pool.missing_parents(), reference.missing_parents());
            }
            assert!(pool.is_empty());
            assert_eq!(linked.len(), blocks.len(), "each block linked once");
            assert_eq!(tree.len(), blocks.len() + 1);
        }
    }
}

#[test]
fn the_pool_releases_only_the_children_of_the_block_that_linked() {
    // Every block of a shuffled forky tree is pooled; walking the tree from
    // genesis, each `release` must hand back exactly the waiting children
    // of that one parent, in arrival order, and touch nothing else.
    let blocks = workload_blocks(13, 400);
    let stream = shuffled(&blocks, 77);
    let mut pool = OrphanPool::default();
    let mut arrivals: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for block in &stream {
        assert!(pool.insert(block.clone()));
        assert!(!pool.insert(block.clone()), "a re-offer is dropped");
        let parent = block.parent.expect("non-genesis");
        arrivals.entry(parent).or_default().push(block.id);
    }
    assert_eq!(pool.len(), stream.len());
    assert_eq!(pool.missing_parents(), vec![GENESIS_ID]);

    let mut frontier = vec![GENESIS_ID];
    let mut released_total = 0;
    while let Some(parent) = frontier.pop() {
        let before = pool.len();
        let released: Vec<BlockId> = pool.release(parent).iter().map(|b| b.id).collect();
        assert_eq!(
            released,
            arrivals.remove(&parent).unwrap_or_default(),
            "exactly the children of {parent:?}, as they arrived"
        );
        assert_eq!(pool.len(), before - released.len(), "nothing else moved");
        released_total += released.len();
        frontier.extend(released);
    }
    assert_eq!(released_total, stream.len());
    assert!(pool.is_empty() && arrivals.is_empty());
}
