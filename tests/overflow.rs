//! Hostile-input drill: a Byzantine peer gossips two chained blocks whose
//! work sums past `u64::MAX`.  Every door that ingests blocks must turn the
//! second one into a `WorkOverflow` verdict — no panic in debug builds, no
//! silent wrap to a tiny cumulative work in release builds (run this file
//! under `cargo test` *and* `cargo test --release`), no poisoned writer
//! lock, and a tree whose invariants still hold.  The same goes for two
//! *sibling* blocks of that weight: each chain's cumulative work fits, but
//! the GHOST subtree sums above them do not — they must saturate, so the
//! selection stays total and falls to its id tie-break.

use btadt_concurrent::{ConcurrentBlockTree, Ingest, IngestError, IngestVerdict};
use btadt_core::invariant::check_block_tree;
use btadt_netsim::SimTime;
use btadt_protocols::{GossipSync, ReplicaLog};
use btadt_types::{
    Block, BlockBuilder, BlockTree, GhostSelection, InsertError, NaiveBlockTree, SelectionFunction,
    TieBreak,
};

/// `genesis ← heavy ← overflowing`: the second block's work pushes the
/// chain's cumulative work to `1 + 2^64`.
fn hostile_chain() -> (Block, Block) {
    let heavy = BlockBuilder::new(&Block::genesis())
        .nonce(1)
        .work(1 << 63)
        .build();
    let overflowing = BlockBuilder::new(&heavy).nonce(2).work(1 << 63).build();
    (heavy, overflowing)
}

fn expected_verdicts(overflowing: &Block) -> Vec<IngestVerdict> {
    vec![
        IngestVerdict::Accepted,
        IngestVerdict::Rejected(IngestError::WorkOverflow {
            block: overflowing.id,
        }),
    ]
}

fn assert_kept_only_the_heavy_block(tree: &BlockTree, heavy: &Block, overflowing: &Block) {
    assert_eq!(tree.len(), 2);
    assert!(!tree.contains(overflowing.id));
    assert_eq!(tree.cumulative_work(heavy.id), Some(1 + (1 << 63)));
    assert_eq!(tree.best_leaf_by_work(true), heavy.id);
    assert_eq!(check_block_tree(tree), vec![]);
}

#[test]
fn single_inserts_reject_the_overflowing_block() {
    let (heavy, overflowing) = hostile_chain();
    let mut tree = BlockTree::new();
    let mut naive = NaiveBlockTree::new();
    assert_eq!(tree.insert(heavy.clone()), Ok(()));
    assert_eq!(naive.insert(heavy.clone()), Ok(()));
    let refused = Err(InsertError::WorkOverflow {
        block: overflowing.id,
    });
    assert_eq!(tree.insert(overflowing.clone()), refused);
    assert_eq!(naive.insert(overflowing.clone()), refused);
    assert!(!naive.contains(overflowing.id));
    assert_kept_only_the_heavy_block(&tree, &heavy, &overflowing);
}

#[test]
fn the_tree_batch_door_rejects_the_overflowing_block() {
    let (heavy, overflowing) = hostile_chain();
    let mut tree = BlockTree::new();
    let report = tree.ingest_batch(vec![heavy.clone(), overflowing.clone()]);
    assert_eq!(report.verdicts, expected_verdicts(&overflowing));
    assert_kept_only_the_heavy_block(&tree, &heavy, &overflowing);
}

#[test]
fn the_concurrent_replica_rejects_it_without_poisoning_the_writer() {
    let (heavy, overflowing) = hostile_chain();
    let replica = ConcurrentBlockTree::eventual(1);
    let report = replica.ingest_batch(0, vec![heavy.clone(), overflowing.clone()]);
    assert_eq!(report.verdicts, expected_verdicts(&overflowing));
    assert_eq!(replica.poison_heals(), 0);
    assert_eq!(replica.check_invariants(), vec![]);
    assert_eq!(replica.len(), 2, "the heavy block is published");
    assert_eq!(replica.read().tip().id, heavy.id);
    let tree = replica.writer_tree_snapshot();
    assert_kept_only_the_heavy_block(&tree, &heavy, &overflowing);
    assert_eq!(replica.poison_heals(), 0, "the snapshot found no poison");
    // The door stays open: an honest block still lands on the heavy tip.
    assert!(replica.append(0, vec![]).appended);
}

#[test]
fn the_gossip_door_rejects_the_overflowing_block() {
    let (heavy, overflowing) = hostile_chain();
    let mut sync = GossipSync::new(0);
    let mut log = ReplicaLog::new();
    let report = sync.apply_batch(
        SimTime(1),
        vec![heavy.clone(), overflowing.clone()],
        &mut log,
    );
    assert_eq!(report.verdicts, expected_verdicts(&overflowing));
    assert_eq!(log.applied.len(), 1, "only the heavy block was applied");
    assert_kept_only_the_heavy_block(sync.tree(), &heavy, &overflowing);
}

#[test]
fn ghost_weights_saturate_over_two_overweight_siblings() {
    // genesis ← a ← {s1, s2} and genesis ← b ← {t1, t2}, every leaf of
    // work 2^63: each chain fits in a u64, every subtree sum at `a`, `b`
    // and the genesis block overflows it.
    let stem = |nonce| BlockBuilder::new(&Block::genesis()).nonce(nonce).build();
    let leaf = |parent: &Block, nonce| BlockBuilder::new(parent).nonce(nonce).work(1 << 63).build();
    let (a, b) = (stem(1), stem(2));
    let leaves = [leaf(&a, 3), leaf(&a, 4), leaf(&b, 5), leaf(&b, 6)];
    let mut tree = BlockTree::new();
    let mut naive = NaiveBlockTree::new();
    for block in [&a, &b].into_iter().chain(&leaves) {
        assert_eq!(tree.insert(block.clone()), Ok(()));
        assert_eq!(naive.insert(block.clone()), Ok(()));
    }
    assert_eq!(check_block_tree(&tree), vec![]);

    for id in [a.id, b.id, tree.genesis().id] {
        assert_eq!(tree.subtree_work(id), u64::MAX);
        assert_eq!(naive.subtree_work(id), u64::MAX);
    }
    let table = tree.subtree_work_table();
    for id in tree.sorted_ids() {
        let idx = tree.idx_of(id).expect("listed ids are in the tree");
        assert_eq!(table[idx.0 as usize], tree.subtree_work(id));
    }

    // Saturated subtrees tie, so both levels of the descent are decided
    // by the id tie-break — the same way in the arena tree and the
    // reference.
    for tie_break in [TieBreak::LargestId, TieBreak::SmallestId] {
        let pick = |x: &Block, y: &Block| {
            if tie_break.prefers(x.id, y.id) {
                x.clone()
            } else {
                y.clone()
            }
        };
        let expected = if pick(&a, &b).id == a.id {
            pick(&leaves[0], &leaves[1])
        } else {
            pick(&leaves[2], &leaves[3])
        };
        let ghost = GhostSelection::with_tie_break(tie_break);
        assert_eq!(tree.block_at(ghost.select_tip(&tree)).id, expected.id);
        assert_eq!(naive.select_ghost(tie_break).tip().id, expected.id);
        assert_eq!(ghost.select(&tree), naive.select_ghost(tie_break));
        assert_eq!(ghost.select(&tree).total_work(), 2 + (1 << 63));
    }
}
