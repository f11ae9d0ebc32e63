//! # `btadt-core` — the BlockTree ADT, its consistency criteria and the
//! oracle refinements
//!
//! This crate is the paper's primary contribution turned into a library:
//!
//! * [`ops`] — the BT-ADT operation alphabet (`append(b)`, `read()`) and the
//!   concurrent-history type specialised to it.
//! * [`blocktree_adt`] — the sequential specification of the BlockTree
//!   (Definition 3.1, Figure 1) as a transducer implementing
//!   `btadt_history::AbstractDataType`.
//! * [`criteria`] — the four BT properties (Block Validity, Local Monotonic
//!   Read, Strong Prefix, Ever-Growing Tree) plus Eventual Prefix, and the
//!   two consistency criteria built from them: **BT Strong Consistency**
//!   (Definition 3.2) and **BT Eventual Consistency** (Definition 3.4).
//! * [`refinement`] — `R(BT-ADT, Θ)` (Definition 3.7, Figure 7): the append
//!   operation refined into `getToken* ; consumeToken`, executed atomically
//!   against a token oracle, with oracle-log capture for k-Fork-Coherence
//!   checking.
//! * [`replica`] — a replicated BlockTree process that issues the
//!   `send` / `receive` / `update` events of Section 4.2; used by the
//!   protocol models and by the Update-Agreement experiments.
//! * [`update_agreement`] — the Update Agreement properties R1–R3
//!   (Definition 4.3, Figure 13) and the Light Reliable Communication
//!   abstraction (Definition 4.4), as executable checks over
//!   message-passing histories.
//! * [`reachability`] — the [`ReachForest`]: all read chains of a history
//!   interned into one [`btadt_types::BlockTree`] and numbered once in
//!   pre-order, turning pairwise prefix tests into O(1) span containment
//!   checks, `mcp` into a span-guided binary ascent, and Strong Prefix's
//!   count of diverging read pairs into one O(R log n) sweep.
//! * [`invariant`] — recompute-and-compare structural checking of
//!   [`btadt_types::BlockTree`] instances (link consistency, leaf-count
//!   agreement, cumulative-work monotonicity) for fault-injection monitors.
//! * [`hierarchy`] — executable versions of the hierarchy results
//!   (Theorems 3.1, 3.3, 3.4, Corollary 3.4.1, Theorem 4.8 / Figure 14):
//!   history-family generation and inclusion experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocktree_adt;
pub mod criteria;
pub mod hierarchy;
pub mod invariant;
pub mod ops;
pub mod reachability;
pub mod refinement;
pub mod replica;
pub mod update_agreement;

pub use blocktree_adt::{BlockTreeAdt, BtState};
pub use criteria::{
    eventual_consistency, eventual_consistency_reference, strong_consistency,
    strong_consistency_reference, BlockValidity, EventualPrefix, EverGrowingTree,
    LocalMonotonicRead, StrongPrefix,
};
pub use invariant::{
    assert_block_tree, check_block_tree, check_store_tree_agreement, InvariantViolation,
};
pub use ops::{BtHistory, BtOperation, BtRecorder, BtResponse};
pub use reachability::ReachForest;
pub use refinement::{RefinedBlockTree, RefinementOutcome};
pub use replica::{BtReplica, ReplicatedRun};
pub use update_agreement::{
    LightReliableCommunication, MessageHistory, ReplicaEvent, ReplicaEventKind, UpdateAgreement,
};
