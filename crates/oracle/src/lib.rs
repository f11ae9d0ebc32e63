//! # `btadt-oracle` — token oracles Θ_P and Θ_F,k
//!
//! Section 3.2 of *Blockchain Abstract Data Type* abstracts the
//! implementation-dependent block-creation process into a *token oracle*:
//! a process obtains the right to chain a new block `b_ℓ` to an existing
//! block `b_h` by gaining a token `tkn_h` from the oracle; the block is then
//! valid by construction.  The oracle keeps, per parent block, a set `K[h]`
//! of consumed tokens whose cardinality is bounded by a parameter `k`:
//!
//! * the **prodigal** oracle Θ_P places no bound (`k = ∞`) — it only
//!   validates blocks and allows unbounded forking (Bitcoin/Ethereum);
//! * the **frugal** oracle Θ_F,k consumes at most `k` tokens per parent,
//!   bounding the number of forks from any block; Θ_F,k=1 forbids forks
//!   entirely and is the oracle required for Strong Consistency.
//!
//! Modules:
//!
//! * [`merit`] — merit parameters `α_i` and normalised merit tables;
//! * [`tape`] — the per-merit infinite pseudo-random tapes of `{tkn, ⊥}`
//!   cells (Figure 5, footnote 3);
//! * [`oracle`] — the Θ-ADT itself: [`oracle::TokenOracle`],
//!   [`oracle::FrugalOracle`] and [`oracle::ProdigalOracle`], with
//!   `get_token` / `consume_token` and the `K[]` array semantics
//!   (Definitions 3.5/3.6, Figure 6) — plus the deliberately broken
//!   [`oracle::WeakenedFrugalOracle`] the model checker must catch;
//! * [`pow`] — a simulated hash-puzzle proof-of-work backend showing that
//!   the tape abstraction faithfully stands in for PoW;
//! * [`fork_coherence`] — the k-Fork-Coherence property (Definition 3.9,
//!   Theorem 3.2) as an executable check over oracle usage logs;
//! * [`shared`] — a thread-safe wrapper used by the shared-memory
//!   implementability experiments in `btadt-concurrent`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fork_coherence;
pub mod merit;
pub mod oracle;
pub mod pow;
pub mod shared;
pub mod tape;

pub use fork_coherence::{ForkCoherenceChecker, OracleLog, OracleLogEntry};
pub use merit::{Merit, MeritTable};
pub use oracle::{
    ConsumeOutcome, FrugalOracle, OracleConfig, OracleStats, ProdigalOracle, SlotArena, TokenGrant,
    TokenOracle, WeakenedFrugalOracle,
};
pub use pow::SimulatedPow;
pub use shared::SharedOracle;
pub use tape::{Cell, Tape};
