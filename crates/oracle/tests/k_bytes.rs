//! Heap bytes the oracle's `K[]` holds per accepted token, the count twin
//! of the flat consumed-token arena.
//!
//! `K[]` is one arena of 80-byte cells in fixed-size chunks, one cell per
//! accepted token, plus one 16-byte `BlockId → head` entry per parent.
//! 100 000 `k = 1` consumes on distinct parents are pushed through
//! `FrugalOracle` and through `SimulatedPow` while a counting allocator
//! tracks the bytes this thread holds; with the map's growth slack that is
//! ≈ 103 bytes per token.  A `Vec<Block>` per parent (4 blocks of
//! capacity at the first push) plus a global `HashSet<u64>` of consumed
//! serials held ≈ 321.  Re-consuming a consumed grant must allocate only
//! the `K[h]` copy it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use btadt_oracle::{FrugalOracle, MeritTable, OracleConfig, SimulatedPow, TokenOracle};
use btadt_types::{Block, BlockBuilder};

/// Tokens consumed per oracle.
const TOKENS: usize = 100_000;
/// Heap bytes `K[]` may hold per accepted token.
const MAX_BYTES_PER_TOKEN: usize = 160;

thread_local! {
    /// `(bytes held, allocations)` by this thread since counting began.
    static COUNT: Cell<(isize, usize)> = const { Cell::new((0, 0)) };
}

/// The system allocator, tracking this thread's net heap bytes and its
/// `alloc`/`realloc` calls.
struct Counting;

fn note(bytes: isize, allocs: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| {
        let (held, n) = c.get();
        c.set((held + bytes, n + allocs));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones this allocator gives.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, 1);
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), 0);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, 1);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn counts() -> (isize, usize) {
    COUNT.with(Cell::get)
}

fn always_granting() -> OracleConfig {
    OracleConfig {
        seed: 1,
        probability_scale: 1e9,
        min_probability: 1.0,
    }
}

/// A chain of `TOKENS + 1` blocks: block `i + 1` is the candidate for
/// parent `i`, so every consume lands on a distinct parent.
fn chain() -> Vec<Block> {
    let mut blocks = vec![Block::genesis()];
    for nonce in 0..TOKENS as u64 {
        let next = BlockBuilder::new(blocks.last().expect("non-empty"))
            .nonce(nonce)
            .build();
        blocks.push(next);
    }
    blocks
}

/// Heap bytes per accepted token the oracle built by `make` holds after
/// `TOKENS` consumes; then checks that a repeated consume allocates only
/// its returned `K[h]` copy.
fn bytes_per_token<O: TokenOracle>(make: impl FnOnce() -> O) -> f64 {
    let blocks = chain();
    let (start, _) = counts();
    let mut oracle = make();
    let mut last = None;
    for pair in blocks.windows(2) {
        let grant = oracle
            .get_token(0, &pair[0], pair[1].clone())
            .expect("probability 1 always grants");
        let outcome = oracle.consume_token(&grant);
        assert!(outcome.accepted && outcome.slot == pair[1..]);
        last = Some(grant);
    }
    let (held, _) = counts();
    let per_token = (held - start) as f64 / TOKENS as f64;

    let grant = last.expect("TOKENS > 0");
    let (bytes_before, allocs_before) = counts();
    let again = oracle.consume_token(&grant);
    let (bytes_after, allocs_after) = counts();
    assert!(!again.accepted, "a consumed token is stale");
    assert_eq!(again.slot, std::slice::from_ref(&grant.block));
    assert_eq!(
        (allocs_after - allocs_before, bytes_after - bytes_before),
        (1, std::mem::size_of::<Block>() as isize),
        "a repeated consume allocates exactly its returned K[h]"
    );
    assert_eq!(oracle.stats().tokens_consumed, TOKENS as u64);
    per_token
}

#[test]
fn frugal_k_costs_at_most_160_bytes_per_token() {
    let per_token =
        bytes_per_token(|| FrugalOracle::new(1, MeritTable::uniform(1), always_granting()));
    println!("FrugalOracle: {per_token:.1} heap bytes per accepted token");
    assert!(
        per_token <= MAX_BYTES_PER_TOKEN as f64,
        "{per_token:.1} B per token"
    );
}

#[test]
fn simulated_pow_k_costs_at_most_160_bytes_per_token() {
    let per_token =
        bytes_per_token(|| SimulatedPow::new(Some(1), MeritTable::uniform(1), always_granting()));
    println!("SimulatedPow: {per_token:.1} heap bytes per accepted token");
    assert!(
        per_token <= MAX_BYTES_PER_TOKEN as f64,
        "{per_token:.1} B per token"
    );
}
