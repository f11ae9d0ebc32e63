//! # `btadt-history` — abstract data types, events and concurrent histories
//!
//! This crate implements Section 2 of *Blockchain Abstract Data Type*
//! (Anceaume et al., SPAA 2019): the specification machinery that the
//! BlockTree and Token-Oracle ADTs are instances of.
//!
//! * [`adt`] — the transducer view of an abstract data type
//!   `T = ⟨A, B, Z, ξ0, τ, δ⟩` (Definition 2.1), operations `Σ = A ∪ (A×B)`
//!   (Definition 2.2) and the sequential specification `L(T)`
//!   (Definition 2.3) together with a checker that decides whether a word is
//!   a sequential history of a given ADT.
//! * [`event`] — processes, operations, invocation/response events.
//! * [`history`] — concurrent histories `H = ⟨Σ, E, Λ, ↦, ≺, ↗⟩`
//!   (Definition 2.4) with the process order, the operation (real-time)
//!   order and the program order, plus a recorder that builds histories from
//!   live executions.
//! * [`criterion`] — consistency criteria `C : T → P(H)` (Definition 2.5) as
//!   executable predicates over histories, with verdicts that carry
//!   violation witnesses.
//!
//! The BT-specific criteria (Strong/Eventual consistency) live in
//! `btadt-core`; this crate is deliberately generic so that the token oracle
//! and even non-blockchain ADTs can reuse it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adt;
pub mod criterion;
pub mod event;
pub mod history;

pub use adt::{AbstractDataType, SequentialChecker, SequentialError};
pub use criterion::{ConsistencyCriterion, Verdict, Violation};
pub use event::{EventId, EventKind, OpId, ProcessId, Timestamp};
pub use history::{ConcurrentHistory, HistoryRecorder, OperationRecord};
