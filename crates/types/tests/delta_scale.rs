//! Scale test for the delta-sync walk, the count twin of its speed-up.
//!
//! 100 000 requests at seeded floors, each capped at 16 blocks the way a
//! responder caps its reply, against a 100 000-block forked tree.  Every
//! reply must hold `min(16, blocks above the floor)` blocks, and every
//! 1 000th must equal the prefix of the naive collect-filter-sort spec.
//! The walk sends 1.6·10⁶ blocks in all; a responder that cloned and
//! sorted everything above the floor before truncating would clone about
//! 3.4·10⁹ for the same requests.

use btadt_types::rng::ChaCha8;

use btadt_types::workload::Workload;
use btadt_types::{Block, NaiveBlockTree};

const BLOCKS: usize = 100_000;
const REQUESTS: usize = 100_000;
const CAP: usize = 16;

#[test]
fn capped_requests_on_a_large_forked_tree_cost_what_they_send() {
    let tree = Workload::new(26).random_tree(BLOCKS, 0.5, 0);
    let top = tree.height() as usize;

    // above[h] = blocks strictly above height h, from a height histogram.
    let mut at_height = vec![0usize; top + 2];
    for block in tree.blocks().skip(1) {
        at_height[block.height as usize] += 1;
    }
    let mut above = vec![0usize; top + 2];
    for h in (0..=top).rev() {
        above[h] = above[h + 1] + at_height[h + 1];
    }
    assert_eq!(above[0], BLOCKS);

    // The spec's answer at a floor is its answer at floor 0 without the
    // blocks at or below that floor (filtering a sorted list keeps it
    // sorted), so one spec call covers every sampled request.
    let mut naive = NaiveBlockTree::new();
    for block in tree.blocks().skip(1) {
        naive.insert(block.clone()).unwrap();
    }
    let spec = naive.delta_above(0);

    let mut rng = ChaCha8::new(26);
    let mut sent = 0usize;
    let mut uncapped = 0usize;
    for request in 0..REQUESTS {
        let floor = rng.gen_range(0..=top + 1);
        let reply: Vec<Block> = tree.delta_above(floor as u64).take(CAP).cloned().collect();
        assert_eq!(
            reply.len(),
            CAP.min(above[floor]),
            "request {request} at floor {floor}"
        );
        if request % 1_000 == 0 {
            let start = spec.partition_point(|b| b.height <= floor as u64);
            assert_eq!(
                reply.as_slice(),
                &spec[start..start + reply.len()],
                "request {request} at floor {floor}"
            );
        }
        sent += reply.len();
        uncapped += above[floor];
    }
    // What the walk sends vs what cloning everything above each floor
    // would cost (3 356 329 010 blocks): both are pure functions of the
    // seeded tree.
    assert_eq!(sent, 1_599_672);
    assert!(uncapped / sent > 2_000, "uncapped {uncapped}");
}
