//! The generators produce valid, parent-resolvable streams.

use std::collections::HashSet;

use btadt_benchmark::gen::{self, SplitMix64};
use btadt_types::workload::Workload;
use btadt_types::{Block, BlockId, BlockTree, GENESIS_ID};

/// Every block's parent is genesis, an earlier block, or (for a batch) in
/// the same batch.
fn assert_resolvable(batches: &[Vec<Block>]) {
    let mut known: HashSet<BlockId> = HashSet::from([GENESIS_ID]);
    for batch in batches {
        let here: HashSet<BlockId> = batch.iter().map(|b| b.id).collect();
        for b in batch {
            let parent = b.parent.expect("generated blocks name a parent");
            assert!(known.contains(&parent) || here.contains(&parent), "{b:?}");
        }
        known.extend(here);
    }
}

#[test]
fn ladder_has_two_siblings_per_height_and_continues_on_the_larger_id() {
    let ladder = gen::ladder(3, 50, 2);
    assert_eq!(ladder.len(), 100);
    for (level, pair) in ladder.chunks(2).enumerate() {
        assert_eq!(pair[0].parent, pair[1].parent);
        assert_eq!(pair[0].height, level as u64 + 1);
        assert!(pair[0].id < pair[1].id);
        if let Some(next) = ladder.get(level * 2 + 2) {
            assert_eq!(
                next.parent,
                Some(pair[1].id),
                "the chain continues on the second"
            );
        }
    }
    let mut tree = BlockTree::new();
    assert!(tree.insert_batch(&ladder).iter().all(Result::is_ok));
    // Fifty dead-end siblings and the tip.
    assert_eq!((tree.height(), tree.leaf_count()), (50, 51));
    // Crash recovery sorts by (height, id): that must reproduce this order.
    let mut sorted = ladder.clone();
    sorted.sort_by_key(|b| (b.height, b.id));
    assert_eq!(sorted, ladder);
    assert_eq!(gen::digest(&ladder), gen::digest(&gen::ladder(3, 50, 2)));
    assert_ne!(gen::digest(&ladder), gen::digest(&gen::ladder(4, 50, 2)));
}

#[test]
fn shuffled_and_resent_batches_stay_resolvable_and_cover_the_stream() {
    let tree = Workload::new(9).random_tree(20_000, 0.7, 1);
    let stream = gen::tree_stream(&tree);
    let batches = gen::stream_batches(&stream, 64, 5);
    let blocks: Vec<Vec<Block>> = batches.iter().map(|b| b.blocks.clone()).collect();
    assert_resolvable(&blocks);
    let fresh: Vec<&Block> = batches
        .iter()
        .filter(|b| !b.resent)
        .flat_map(|b| &b.blocks)
        .collect();
    assert_eq!(fresh.len(), stream.len());
    let ids: HashSet<BlockId> = fresh.iter().map(|b| b.id).collect();
    assert_eq!(ids.len(), stream.len(), "every block exactly once");
    let resent = batches.iter().filter(|b| b.resent).count();
    let shuffled = batches
        .iter()
        .zip(stream.chunks(64))
        .filter(|(b, c)| !b.resent && b.blocks != *c)
        .count();
    assert!(
        resent > 0 && shuffled > 0,
        "{resent} re-sent, {shuffled} shuffled"
    );
    for (i, b) in batches.iter().enumerate().filter(|(_, b)| b.resent) {
        assert_eq!(
            b.blocks,
            batches[i - 1].blocks,
            "a re-send repeats its predecessor"
        );
    }
}

#[test]
fn reversed_windows_cover_the_stream_and_a_gossip_node_attaches_it_all() {
    let stream = gen::chain(4, 300, 1);
    let batches = gen::reversed_windows(&stream, 64, 16);
    assert!(batches.iter().all(|b| b.len() <= 16));
    let flat: Vec<Block> = batches.iter().flatten().cloned().collect();
    assert_eq!(flat.len(), stream.len());
    assert_eq!(
        flat[0], stream[63],
        "the first window arrives last block first"
    );
    let mut node = btadt_protocols::GossipSync::new(0);
    let mut log = btadt_protocols::ReplicaLog::new();
    for batch in batches {
        node.apply_batch(btadt_netsim::SimTime(0), batch, &mut log);
    }
    assert_eq!(node.tree().len(), stream.len() + 1);
    assert!(node.stats().batch_orphaned > 0);
}

#[test]
fn chain_and_payload_generators_are_seeded() {
    let chain = gen::chain(8, 40, 3);
    assert_eq!(chain.len(), 40);
    assert_eq!(chain[0].parent, Some(GENESIS_ID));
    assert!(chain.windows(2).all(|w| w[1].parent == Some(w[0].id)));
    assert!(chain.iter().all(|b| b.payload.len() == 3));
    assert_eq!(gen::payloads(1, 5, 4), gen::payloads(1, 5, 4));
    assert_ne!(gen::payloads(1, 5, 4), gen::payloads(2, 5, 4));
    assert_ne!(gen::sub_seed(1, 1), gen::sub_seed(1, 2));
    let mut items: Vec<u32> = (0..50).collect();
    SplitMix64::new(3).shuffle(&mut items);
    assert_ne!(items, (0..50).collect::<Vec<_>>());
    items.sort_unstable();
    assert_eq!(items, (0..50).collect::<Vec<_>>());
}

#[test]
fn replayed_history_reads_grow_and_end_with_one_read_per_process() {
    let stream = gen::chain(2, 100, 0);
    let history = gen::replay_history(&stream, 4, 10);
    // 100 appends + 10 periodic reads + 4 closing reads.
    assert_eq!(history.len(), 114);
}
