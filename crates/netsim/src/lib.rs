//! # `btadt-netsim` — deterministic discrete-event message-passing simulator
//!
//! The implementability results of the paper (Section 4) are stated over
//! message-passing systems with various synchrony assumptions:
//! asynchronous, synchronous (messages sent at `t` delivered by `t + δ`) and
//! weakly/partially synchronous (synchronous after an unknown global
//! stabilisation time), with processes that may crash or behave arbitrarily
//! (Byzantine).  This crate provides that substrate as a deterministic
//! discrete-event simulator:
//!
//! * [`time`] — the fictional global clock (never visible to processes);
//! * [`channel`] — channel models: synchronous, partially synchronous,
//!   asynchronous, lossy and faulty;
//! * [`process`] — the process state-machine trait and its action context;
//! * [`simulator`] — the event loop, failure injection (crash, Byzantine
//!   omission, timed partitions with heal, node churn with rejoin) and
//!   trace collection;
//! * [`trace`] — the network trace (send/deliver/drop records) used to
//!   verify communication-level properties such as LRC;
//! * [`scenario`] — the declarative experiment schema ([`Scenario`]) and
//!   the multi-threaded (scenario × seed) matrix runner
//!   ([`ScenarioMatrix`]) behind the adversarial sweeps in
//!   `BENCH_scenarios.json`.
//!
//! Determinism: the entire simulation is driven by one seeded ChaCha8 RNG,
//! so every run (and therefore every figure/table regenerated by the bench
//! harness) is bit-for-bit reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod process;
pub mod scenario;
pub mod simulator;
pub mod time;
pub mod trace;

pub use channel::{ChannelModel, Delivery, Fate};
pub use process::{Actions, Context, Process};
pub use scenario::{AdversaryMix, AdversaryRole, Latency, MatrixCell, Scenario, ScenarioMatrix};
pub use simulator::{ChurnWindow, FailurePlan, PartitionWindow, SimConfig, SimReport, Simulator};
pub use time::SimTime;
pub use trace::{NetTrace, TraceEvent, TraceEventKind};
