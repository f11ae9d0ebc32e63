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
//! * [`workload`] — deterministic generators of blocks, chains, forks and
//!   transaction streams used by tests, examples and the benchmark harness.
//!
//! Everything in this crate is purely sequential and deterministic; the
//! concurrent semantics (histories, criteria, oracles) live in the other
//! workspace crates.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod chain;
pub mod reachability;
pub mod reference;
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
pub use tree::{BatchInsert, BlockIdHasher, BlockTree, Children, InsertError, NodeIdx};
pub use validity::{
    AlwaysValid, CompositeValidity, MaxPayload, NeverValid, NoDoubleSpend, StructuralValidity,
    ValidityPredicate,
};
