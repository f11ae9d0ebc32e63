//! Allocation count of the link step, the count twin of an insert that
//! allocates nothing.
//!
//! A node is plain slots — its children are an intrusive sibling list, and
//! the tree keeps a leaf *count*, not an ordered leaf set — so linking a
//! block touches no allocator.  What is left is amortized growth (the
//! arena, the interning map, the height lists and the interval store each
//! double O(log n) times) plus the scratch of the rare reachability
//! reindex.  Random trees of 10 000 and 100 000 blocks are pushed through
//! 64-block `begin_batch`/`push` sessions while a counting allocator
//! counts every `alloc` and `realloc` made by this thread.  A per-child
//! `Vec` and a `BTreeSet` leaf index made 8 114 and 80 823 of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use btadt_types::workload::Workload;
use btadt_types::{Block, BlockTree};

thread_local! {
    /// Allocations made by this thread while counting is on (`None`: off).
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, counting this thread's `alloc`s and `realloc`s.
struct Counting;

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones this allocator gives.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made while pushing `blocks` into a fresh tree in 64-block
/// sessions.  The blocks are cloned beforehand; a block clone shares its
/// payload and does not allocate either.
fn allocations_to_insert(blocks: &[Block]) -> usize {
    let mut tree = BlockTree::new();
    COUNT.with(|c| c.set(Some(0)));
    for run in blocks.chunks(64) {
        let mut batch = tree.begin_batch(run.len());
        for block in run {
            batch.push(block.clone(), None).expect("arena order links");
        }
        batch.finish();
    }
    let count = COUNT.with(|c| c.take()).expect("counting was on");
    assert_eq!(tree.len(), blocks.len() + 1, "every block linked");
    count
}

// One test in this file: the count is per thread, and no other test runs
// beside it in this binary.
#[test]
fn linking_a_random_tree_allocates_only_for_amortized_growth() {
    for (blocks, bound) in [(10_000, 100), (100_000, 300)] {
        let tree = Workload::new(1).random_tree(blocks, 0.7, 1);
        let stream: Vec<Block> = tree.blocks().skip(1).cloned().collect();
        let count = allocations_to_insert(&stream);
        assert!(
            count <= bound,
            "{blocks} blocks: {count} allocations, bound {bound}"
        );
    }
}
