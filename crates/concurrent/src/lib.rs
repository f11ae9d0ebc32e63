//! # `btadt-concurrent` — shared-memory implementability of the oracles
//!
//! Section 4.1 of the paper places the two token oracles in Herlihy's
//! consensus hierarchy:
//!
//! * **Θ_F,k=1 has consensus number ∞** (Theorem 4.2): `consumeToken` with
//!   `k = 1` wait-free implements Compare&Swap (Figure 10 / Theorem 4.1),
//!   and combining it with `getToken` yields a wait-free Consensus protocol
//!   (Figure 11).
//! * **Θ_P has consensus number 1** (Theorem 4.3): the prodigal oracle's
//!   `consumeToken` can be wait-free implemented from an Atomic Snapshot
//!   object (Figure 12), which itself has consensus number 1.
//!
//! This crate builds the substrate (atomic registers, an atomic-snapshot
//! object, a CAS object, a consensus interface) and the two reductions, and
//! exercises them with genuinely multi-threaded stress tests so that the
//! wait-freedom and agreement claims are checked under real interleavings.
//!
//! Modules:
//!
//! * [`register`] — single-writer multi-reader atomic registers;
//! * [`snapshot`] — a wait-free atomic snapshot (unbounded sequence numbers,
//!   double collect with helping);
//! * [`cas`] — a generic Compare&Swap object;
//! * [`cas_from_oracle`] — Figure 10: CAS implemented from `consumeToken`
//!   of Θ_F,k=1;
//! * [`consensus`] — the Consensus interface (Definition 4.1), consensus
//!   from CAS, and Figure 11's consensus from the frugal oracle;
//! * [`prodigal_from_snapshot`] — Figure 12: the prodigal `consumeToken`
//!   from update/scan of an atomic snapshot.
//!
//! On top of the reductions, the crate hosts an actual shared-memory
//! BlockTree replica and the machinery to validate it:
//!
//! * [`store`] — a chunked append-only block arena with a packed
//!   `(length, tip)` head: the **wait-free read path**;
//! * [`blocktree`] — [`ConcurrentBlockTree`]: appends mediated by the
//!   frugal/CAS reduction (strongly consistent) or the prodigal/snapshot
//!   reduction (eventually consistent), plus a deliberately racy
//!   unmediated variant for the checkers to catch;
//! * [`recorder`] — an atomic-clock history recorder whose per-thread
//!   buffers merge into one `ConcurrentHistory` after the run;
//! * [`driver`] — the multi-threaded workload driver feeding real
//!   interleavings to the SC/EC criterion checkers of `btadt-core`;
//! * [`fault`] — deterministic seam-point fault injection (seeded plans
//!   forcing CAS losses, stalled installs, duplicated/dropped consumes,
//!   poisoned writer locks, corrupted durable writes);
//! * [`storage`] — the bridge from fault plans to the durable medium of
//!   `btadt-store`: plans arming the storage seams corrupt the replica's
//!   chunk/checkpoint writes, and the chaos epilogue crashes, recovers
//!   and peer-heals the store back to store↔tree agreement;
//! * [`chaos`] — the chaos driver: a grid of `(seed, plan, threads, path)`
//!   cells, each re-running the workload under injected faults with a
//!   background invariant monitor, asserting the Theorem 4.1–4.3 verdicts
//!   survive every injected schedule;
//! * [`trace`] — opt-in synchronization-event tracing (head loads/stores,
//!   lock acquire/release, CAS wins/losses, token consumes, arena pushes)
//!   feeding the happens-before race detector in `btadt-check`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocktree;
pub mod cas;
pub mod cas_from_oracle;
pub mod chaos;
pub mod consensus;
pub mod driver;
pub mod fault;
pub mod prodigal_from_snapshot;
pub mod recorder;
pub mod register;
pub mod snapshot;
pub mod storage;
pub mod store;
pub mod trace;

pub use blocktree::{
    AppendOutcome, AppendPath, BtReader, ConcurrentBlockTree, PreparedAppend, ReadStats, TipRule,
};
pub use btadt_pipeline::{BatchReport, Ingest, IngestError, IngestVerdict};
pub use cas::CasRegister;
pub use cas_from_oracle::OracleCas;
pub use chaos::{
    chaos_grid, default_plans, reachability_disagreements, run_chaos_cell, ChaosCell, ChaosOutcome,
};
pub use consensus::{CasConsensus, Consensus, OracleConsensus};
pub use driver::{
    build_replica, check_claimed, claimed_criterion, run_workload, run_workload_on,
    run_workload_with, run_workload_with_on, DriverConfig, DriverRun,
};
pub use fault::{FaultAction, FaultPlan, FaultSession, Seam, SeamHook, SEAM_COUNT};
pub use prodigal_from_snapshot::SnapshotConsumeToken;
pub use recorder::{RecorderHub, ThreadRecorder};
pub use register::AtomicRegister;
pub use snapshot::AtomicSnapshot;
pub use storage::{crash_recover_heal, faulted_store, PlanInjector, StorageReport, STORAGE_CLIENT};
pub use store::{SnapshotStore, SnapshotView, SpliceCost, StoreExhausted};
pub use trace::{pack_version, SyncEvent, SyncEventKind, SyncTraceHub};
