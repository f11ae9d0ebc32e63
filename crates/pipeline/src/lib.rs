//! Staged batch-ingest pipeline for the BT-ADT.
//!
//! Every block that enters a replica — mined locally, gossiped by a peer
//! or recovered from the durable store — passes through
//! the same three conceptual stages (the staging discipline of
//! production blockDAG nodes, cf. rusty-kaspa's `header_processor` /
//! `body_processor` / `virtual_processor` split):
//!
//! 1. **Isolated validation** ([`validate_isolated`]): structural checks
//!    that need no tree access (parent pointer present, payload shape).
//!    Embarrassingly parallel; rejects never reach the shared state.
//! 2. **Contextual staging** ([`stage_batch`]): parent resolution against
//!    the current tip state, duplicate elision, orphan pooling and
//!    topological ordering of the survivors, so the tip stage sees a
//!    parents-first batch it can apply without retries.
//! 3. **Tip/virtual state** (the [`Ingest`] implementor): one writer-lock
//!    or CAS round per batch, with the leaf-count / cumulative-work /
//!    reachability bookkeeping amortized across the whole batch
//!    (`BlockTree::insert_batch`).
//!
//! The pipeline is fronted by one API: the [`Ingest`] trait, a unified
//! [`IngestError`] taxonomy and a per-block [`IngestVerdict`]
//! (Accepted / Duplicate / Orphaned / Rejected).  Single-block entry
//! points are batches of one; batch entry points return a
//! [`BatchReport`] with a verdict per input block.
//!
//! Replicas that keep orphans keep them in an [`OrphanPool`] and link
//! through [`ingest_pooled`], the pipeline over a `BlockTree` with the
//! pool behind it: a block that links releases exactly its waiting
//! children.

#![warn(missing_docs)]

mod error;
mod ingest;
mod pool;
mod stage;
mod verdict;

pub use error::IngestError;
pub use ingest::Ingest;
pub use pool::{ingest_pooled, OrphanPool};
pub use stage::{stage_batch, validate_isolated, StagedBatch};
pub use verdict::{BatchReport, IngestVerdict};
