//! Allocation count of judging, the count twin of the benchmark's
//! `judge_histories` workload.
//!
//! One strong- and one eventual-consistency check of the three contended
//! histories that workload judges — Θ_F,1, Θ_F,2 and Θ_P, 8 processes,
//! 1 600 / 800 / 800 rounds, sync probability 0.3, seed 7 — while a
//! counting allocator counts every `alloc` and `realloc` made by this
//! thread.  A check builds one index over the history and its parts answer
//! from it, so the count is amortized vector and map growth, a few vectors
//! per process, and the formatting of at most 16 detailed violations per
//! property; it does not grow with every read or every block.  With an
//! index per property, appends grouped into a `Vec` per block id and the
//! forest interned through a `BlockTree`, the six checks made 1 960 /
//! 1 948, 2 046 / 1 119 and 2 037 / 1 119 allocations (SC / EC).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{eventual_consistency, strong_consistency, BtHistory};
use btadt_history::ConsistencyCriterion;
use btadt_types::{AlwaysValid, LengthScore};

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

/// Allocations made by one check of `history` (the verdict's included).
fn allocations_to_check(
    criterion: &dyn ConsistencyCriterion<btadt_core::BtOperation, btadt_core::BtResponse>,
    history: &BtHistory,
) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    let verdict = criterion.check(history);
    let count = COUNT.with(|c| c.take()).expect("counting was on");
    drop(verdict);
    count
}

// One test in this file: the count is per thread, and no other test runs
// beside it in this binary.
#[test]
fn one_check_allocates_per_index_part_not_per_read() {
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    // (kind, rounds, SC bound, EC bound): 218 / 205, 261 / 192 and
    // 250 / 192 now.
    let pins = [
        (OracleKind::Frugal(1), 1_600, 270, 260),
        (OracleKind::Frugal(2), 800, 320, 240),
        (OracleKind::Prodigal, 800, 310, 240),
    ];
    for (kind, rounds, sc_bound, ec_bound) in pins {
        let run = run_contended(
            kind,
            ContendedRunConfig {
                processes: 8,
                rounds,
                sync_probability: 0.3,
                seed: 7,
            },
        );
        let (sc_count, ec_count) = (
            allocations_to_check(&sc, &run.history),
            allocations_to_check(&ec, &run.history),
        );
        println!(
            "{}: {} ops, SC {sc_count} allocations, EC {ec_count}",
            kind.label(),
            run.history.len()
        );
        assert!(
            sc_count <= sc_bound,
            "{}: SC {sc_count} > {sc_bound}",
            kind.label()
        );
        assert!(
            ec_count <= ec_bound,
            "{}: EC {ec_count} > {ec_bound}",
            kind.label()
        );
    }
}
