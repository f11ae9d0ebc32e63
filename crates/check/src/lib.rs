//! Offline analysis battery for the BT-ADT oracle reductions: a
//! bounded-schedule model checker that drives the real replica, a
//! vector-clock race detector, and a dependency-free lint pass.
//!
//! | Module | What it does |
//! |---|---|
//! | [`stepper`] | Runs the real `ConcurrentBlockTree` under a baton: each client is an OS thread on the driver's program, parked at every fault seam and operation boundary until the scheduler lets it take one step |
//! | [`scheduler`] | Stateless exhaustive DFS over client interleavings (re-executing choice prefixes on fresh replicas) with sleep-set pruning, enabledness and footprints read off the park points, counterexample capture and replay |
//! | [`vclock`] | Happens-before race detection over the replica's synchronization-event traces (`btadt_concurrent::trace`) |
//! | [`checker`] | Cell grid (mediated, batch-door and poison-heal cells), per-terminal judging of the replica's tree, published view, history and trace, free-running race probes |
//! | [`lint`] | Token-level source lint: `SAFETY`/`ORDERING` justification comments, bare-`unwrap` hygiene and no chain built to read its tip |
//!
//! Binaries: `check` sweeps the cell grid and writes `BENCH_check.json`;
//! `lint` scans the workspace sources.

pub mod checker;
pub mod lint;
pub mod scheduler;
pub mod stepper;
pub mod vclock;

pub use checker::{cells, judge_terminal, run_cell, CellResult, CellSpec, Expectation};
pub use scheduler::{explore, replay, Counterexample, ExploreOptions, ExploreOutcome};
pub use stepper::{Execution, ModelConfig, Op};
pub use vclock::{analyze, RaceFinding, RaceReport};
