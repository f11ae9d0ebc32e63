//! # `btadt-types` — block, blockchain and BlockTree data structures
//!
//! This crate provides the concrete data structures underlying the
//! *Blockchain Abstract Data Type* formalisation of Anceaume et al.
//! (SPAA 2019):
//!
//! * [`Block`] and [`BlockId`] — vertices of the BlockTree.  A block carries
//!   a parent pointer, a payload of [`Transaction`]s, the merit of the
//!   process that produced it and a nonce, and is identified by a structural
//!   hash of its contents.  Its transactions are a shared, immutable
//!   [`Payload`], so cloning a block never copies them.
//! * [`Blockchain`] — a path from the genesis block to some block of the
//!   tree, together with the prefix relation `⊑` and the maximal common
//!   prefix score `mcps` used by the consistency criteria: `read()` on the
//!   BT-ADT (Def. 3.1) returns `{b0}⌢f(bt)`, and Strong/Eventual Prefix
//!   (Defs. 3.2/3.4) are stated in terms of `⊑` and `mcps` over the chains
//!   those reads return.
//! * [`ReadSpines`] — a recorder of those read responses that keeps each
//!   run of reads as prefix views of one spine, so a recorded read costs
//!   the blocks that changed, not the chain's height.
//! * [`BlockTree`] — the directed rooted tree `bt = (V_bt, E_bt)`: a dense
//!   arena slab addressed by [`NodeIdx`] with cached heights, cumulative
//!   work, intrusive child lists and an incrementally maintained leaf
//!   count and tip indices (see
//!   [`tree`] for the representation notes);
//! * [`mod@reference`] — the naive map-based tree kept as the executable
//!   specification for property tests and as the benchmark baseline.
//! * [`score`] — monotonically increasing score functions over blockchains
//!   (length, cumulative work, …).
//! * [`selection`] — selection functions `f ∈ F : BT → BC` (longest chain,
//!   heaviest chain, GHOST) with deterministic tie-breaking.
//! * [`validity`] — validity predicates `P : B → {true, false}` (structural
//!   validity, no double spend, payload limits, …).
//! * [`rng`] — the one seeded randomness source: a ChaCha8 keystream and
//!   SplitMix64, whose streams every report and tape is a function of.
//! * [`report`] — the harness of the verdict-report binaries: one JSON
//!   writer and reader, one ordered worker pool, one flag parser and one
//!   report write path.
//! * [`workload`] — deterministic generators of blocks, chains, forks and
//!   transaction streams used by tests, examples and the benchmark harness.
//!
//! Everything in this crate but [`report::run_ordered`] is purely
//! sequential, and all of it is deterministic; the concurrent semantics
//! (histories, criteria, oracles) live in the other workspace crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod chain;
pub mod reachability;
pub mod reference;
pub mod report;
pub mod rng;
pub mod score;
pub mod selection;
pub mod spines;
pub mod transaction;
pub mod tree;
pub mod validity;
pub mod workload;

pub use block::{Block, BlockBuilder, BlockId, Payload, GENESIS_ID};
pub use chain::Blockchain;
pub use reachability::Interval;
pub use reference::NaiveBlockTree;
pub use score::{ChainScore, LengthScore, Score, WorkScore};
pub use selection::{GhostSelection, HeaviestChain, LongestChain, SelectionFunction, TieBreak};
pub use spines::ReadSpines;
pub use transaction::{Transaction, TxId};
pub use tree::{
    BatchInsert, BlockIdHasher, BlockIdMap, BlockIdSet, BlockTree, Children, InsertError, NodeIdx,
};
pub use validity::{
    AlwaysValid, CompositeValidity, MaxPayload, NeverValid, NoDoubleSpend, StructuralValidity,
    ValidityPredicate,
};

/// Properties of the [`rng`] generators; their known answers are pinned in
/// `tests/rng_streams.rs`.
#[cfg(test)]
mod tests {
    use crate::rng::ChaCha8;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = ChaCha8::new(7);
        for _ in 0..1000 {
            let v: u64 = rng.gen_range(3..10);
            assert!((3..10).contains(&v));
            let w: usize = rng.gen_range(0..=4);
            assert!(w <= 4);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = ChaCha8::new(9);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ChaCha8::new(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.25).abs() < 0.05, "frequency {freq}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ChaCha8::new(42);
        let mut b = ChaCha8::new(42);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8::new(1);
        let mut b = ChaCha8::new(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let mut a = ChaCha8::with_stream(7, 3);
        let mut b = ChaCha8::with_stream(7, 3);
        let mut c = ChaCha8::with_stream(7, 4);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn uniformity_smoke_test() {
        let mut rng = ChaCha8::new(1234);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.5)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.5).abs() < 0.02, "frequency {freq}");
    }
}
