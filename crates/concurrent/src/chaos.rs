//! The chaos driver: consistency verdicts under injected schedules.
//!
//! Theorems 4.1–4.3 are scheduler-independent claims: the CAS-mediated
//! replica admits **BT Strong Consistency** and the snapshot-mediated one
//! **BT Eventual Consistency** under *every* interleaving, including the
//! adversarial ones a fair OS scheduler rarely produces.  This module
//! grinds that claim: a **chaos cell** pins `(seed, fault plan, thread
//! count, append path)`, re-runs the workload driver with the plan's seams
//! armed, keeps a **background invariant monitor** recomputing the tree's
//! structural invariants while the clients hammer it, and judges the
//! recorded history with the criterion the path claims.
//!
//! A cell is *clean* when the claimed criterion admits the history and the
//! monitor saw zero invariant violations.  [`chaos_grid`] runs many cells
//! across worker threads (atomic-cursor work stealing, mirroring the
//! scenario matrix in `btadt-bench`); every cell must come back clean for
//! the grid to pass — that is the CI gate in `tests/chaos.rs` and
//! `bench/src/bin/chaos.rs`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::blocktree::{AppendPath, ReadStats};
use crate::driver::{build_replica, check_claimed, run_workload_with_on, DriverConfig};
use crate::fault::FaultPlan;
use crate::storage::{crash_recover_heal, faulted_store, StorageReport};
use btadt_types::{BlockTree, NodeIdx};

/// One cell of the chaos grid: a workload pinned to a seed, a fault plan,
/// a thread count and an append path.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// Seed for the operation mix and the oracle tape.
    pub seed: u64,
    /// The fault plan armed for every client thread.
    pub plan: FaultPlan,
    /// Number of OS-thread clients.
    pub threads: usize,
    /// The mediation under test.
    pub path: AppendPath,
    /// Operations per client (excluding the quiescent read).
    pub ops_per_thread: usize,
    /// Percentage (0–100) of operations that are appends.
    pub append_percent: u8,
}

impl ChaosCell {
    /// A cell with the default workload shape (30 ops/thread, 60% appends).
    pub fn new(seed: u64, plan: FaultPlan, threads: usize, path: AppendPath) -> Self {
        ChaosCell {
            seed,
            plan,
            threads,
            path,
            ops_per_thread: 30,
            append_percent: 60,
        }
    }

    /// Stable cell label, e.g. `strong-cas/stalled-winners/s7/t4`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/s{}/t{}",
            self.path.label(),
            self.plan.name,
            self.seed,
            self.threads
        )
    }
}

/// The judged result of one chaos cell.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The cell's stable label.
    pub label: String,
    /// Append-path label of the cell.
    pub path: &'static str,
    /// Fault-plan name of the cell.
    pub plan: &'static str,
    /// Workload seed of the cell.
    pub seed: u64,
    /// Client thread count of the cell.
    pub threads: usize,
    /// `true` iff the path's claimed criterion admitted the history.
    pub admitted: bool,
    /// The full verdict, rendered.
    pub verdict: String,
    /// Appends that succeeded / lost their CAS.
    pub appends_ok: u64,
    /// Appends that were rejected by the mediator (CAS losses).
    pub appends_failed: u64,
    /// Blocks published at the end (genesis included).
    pub blocks: usize,
    /// Final selected-chain height.
    pub height: u64,
    /// Maximum fork degree of the final tree.
    pub max_fork_degree: usize,
    /// Per-client reader counters ([`DriverRun::read_stats`]); diagnostics
    /// that depend on the observed interleaving, like the storage counts.
    ///
    /// [`DriverRun::read_stats`]: crate::DriverRun::read_stats
    pub read_stats: Vec<ReadStats>,
    /// Invariant violations seen by the monitor or the final sweep.
    pub violations: Vec<String>,
    /// How many times the background monitor completed a full recheck.
    pub monitor_checks: u64,
    /// `true` iff the cell attached a durable store and ran the
    /// crash/recover/heal storage epilogue (plans arming a storage seam).
    pub storage: bool,
    /// The storage epilogue's report, when `storage` is set.  Its
    /// agreement violations are also folded into `violations` (prefixed
    /// `store:`), so [`ChaosOutcome::is_clean`] already judges it; the
    /// counts here are diagnostics and — unlike the verdict — depend on
    /// the observed interleaving.
    pub storage_report: Option<StorageReport>,
}

impl ChaosOutcome {
    /// `true` iff the criterion admitted the run and no invariant broke.
    pub fn is_clean(&self) -> bool {
        self.admitted && self.violations.is_empty()
    }
}

/// The six default plans of the grid, all driven by `seed`: four
/// schedule-perturbing plans (including the batch-installer stalls of
/// crash-mid-batch) plus the two storage plans that grow the grid its
/// durable-state dimension.
pub fn default_plans(seed: u64) -> Vec<FaultPlan> {
    vec![
        FaultPlan::stalled_winners(seed),
        FaultPlan::contention_storm(seed),
        FaultPlan::token_chaos(seed),
        FaultPlan::torn_storage(seed),
        FaultPlan::checkpoint_chaos(seed),
        FaultPlan::crash_mid_batch(seed),
    ]
}

/// Exhaustive reachability-index ↔ topology agreement sweep: every
/// ordered node pair must get the same ancestor verdict from interval
/// containment ([`BlockTree::is_ancestor_idx`]) and from climbing parent
/// pointers.  Chaos trees are small (≤ a few hundred nodes), so the O(n²)
/// sweep is cheap; any disagreement means a fault schedule corrupted the
/// interval labels without tripping the structural invariants.
pub fn reachability_disagreements(tree: &BlockTree) -> Vec<String> {
    let walk_is_ancestor = |a: NodeIdx, b: NodeIdx| {
        let mut cursor = Some(b);
        while let Some(c) = cursor {
            if c == a {
                return true;
            }
            cursor = tree.parent_idx(c);
        }
        false
    };
    let mut out = Vec::new();
    let n = tree.len() as u32;
    for a in 0..n {
        for b in 0..n {
            let (a, b) = (NodeIdx(a), NodeIdx(b));
            let indexed = tree.is_ancestor_idx(a, b);
            if indexed != walk_is_ancestor(a, b) {
                out.push(format!(
                    "reach: index says is_ancestor({a:?}, {b:?}) = {indexed}, \
                     the parent walk disagrees"
                ));
            }
        }
    }
    out
}

/// Runs one chaos cell: workload under the armed plan, background
/// invariant monitor, criterion judgement.
pub fn run_chaos_cell(cell: &ChaosCell) -> ChaosOutcome {
    let config = DriverConfig {
        threads: cell.threads,
        ops_per_thread: cell.ops_per_thread,
        append_percent: cell.append_percent,
        path: cell.path,
        seed: cell.seed,
        record: true,
    };
    let replica = build_replica(&config);
    // Plans arming a storage seam run over a durable store whose medium
    // executes exactly those corruptions; the epilogue below must then
    // recover and re-heal it back to agreement with the tree.
    let storage = cell.plan.arms_storage();
    let replica = if storage {
        replica.with_durable_store(faulted_store(&cell.plan))
    } else {
        replica
    };
    let stop = AtomicBool::new(false);
    let monitor_log: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let checks = AtomicUsize::new(0);

    let run = thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            // The debug-mode invariant monitor: recompute the full
            // invariant set while writers are mid-install.  Taking the
            // writer lock serializes each check against installs, so every
            // observation is of a committed state — what must *always*
            // hold, faults or not.
            // ORDERING: Relaxed — a pure stop flag; no data is passed
            // through it, and monitor.join() is the synchronization point.
            while !stop.load(Ordering::Relaxed) {
                let violations = replica.check_invariants();
                if !violations.is_empty() {
                    let mut log = monitor_log.lock().expect("monitor log lock");
                    log.extend(violations.iter().map(|v| v.to_string()));
                }
                // ORDERING: Relaxed — a statistics counter; read only
                // after join() below.
                checks.fetch_add(1, Ordering::Relaxed);
                thread::yield_now();
            }
        });
        let run = run_workload_with_on(&config, Some(&cell.plan), &replica);
        // ORDERING: Relaxed — pairs with the monitor's Relaxed stop
        // poll; the subsequent join() orders everything that matters.
        stop.store(true, Ordering::Relaxed);
        monitor
            .join()
            .expect("the invariant monitor does not panic");
        run
    });

    let mut violations = monitor_log.into_inner().expect("monitor log lock");
    // Final quiescent sweep, so a cell cannot pass on monitor timing luck.
    violations.extend(
        replica
            .check_invariants()
            .iter()
            .map(|v| format!("final: {v}")),
    );
    violations.dedup();
    // The index must agree with the topology pair-for-pair, not only pass
    // the structural nesting invariants the monitor already rechecks.
    violations.extend(reachability_disagreements(&replica.writer_tree_snapshot()));

    // Storage epilogue: crash the durable store, recover it from whatever
    // the faulted medium kept, heal the gap from the in-memory tree (the
    // healthy peer), and require store↔tree agreement.
    let storage_report = replica.take_durable_store().map(|store| {
        let tree = replica.writer_tree_snapshot();
        let report = crash_recover_heal(&tree, store, &cell.plan);
        violations.extend(report.violations.iter().map(|v| format!("store: {v}")));
        report
    });

    let verdict = check_claimed(&run);
    ChaosOutcome {
        label: cell.label(),
        path: cell.path.label(),
        plan: cell.plan.name,
        seed: cell.seed,
        threads: cell.threads,
        admitted: verdict.is_admitted(),
        verdict: verdict.to_string(),
        appends_ok: run.appends_ok,
        appends_failed: run.appends_failed,
        blocks: run.blocks,
        height: run.height,
        max_fork_degree: run.max_fork_degree,
        read_stats: run.read_stats,
        violations,
        // ORDERING: Relaxed — the monitor thread was joined above, so
        // this reads a quiescent counter.
        monitor_checks: checks.load(Ordering::Relaxed) as u64,
        storage,
        storage_report,
    }
}

/// Runs a grid of cells across `workers` OS threads (each cell itself
/// spawns its client threads, so keep `workers` modest).  Results come
/// back in cell order.
pub fn chaos_grid(cells: &[ChaosCell], workers: usize) -> Vec<ChaosOutcome> {
    let workers = workers.clamp(1, cells.len().max(1));
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<ChaosOutcome>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // ORDERING: Relaxed — a work-ticket cursor; the result
                // slot mutexes publish the outcomes.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let outcome = run_chaos_cell(cell);
                *results[i].lock().expect("result slot lock") = Some(outcome);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every claimed cell completes")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Seam;

    #[test]
    fn a_strong_cell_under_stalls_stays_admitted() {
        let cell = ChaosCell::new(7, FaultPlan::stalled_winners(7), 2, AppendPath::Strong);
        let outcome = run_chaos_cell(&cell);
        assert!(outcome.is_clean(), "{}: {}", outcome.label, outcome.verdict);
        assert_eq!(outcome.max_fork_degree, 1, "CAS mediation forbids forks");
        assert!(outcome.monitor_checks > 0, "the monitor actually ran");
    }

    #[test]
    fn an_eventual_cell_under_token_chaos_stays_admitted() {
        let cell = ChaosCell::new(11, FaultPlan::token_chaos(11), 3, AppendPath::Eventual);
        let outcome = run_chaos_cell(&cell);
        assert!(outcome.is_clean(), "{}: {}", outcome.label, outcome.verdict);
        assert_eq!(
            outcome.appends_failed, 0,
            "the prodigal oracle never rejects"
        );
    }

    #[test]
    fn verdicts_are_schedule_independent_across_reruns() {
        let cell = ChaosCell::new(3, FaultPlan::contention_storm(3), 4, AppendPath::Strong);
        let a = run_chaos_cell(&cell);
        let b = run_chaos_cell(&cell);
        assert!(a.is_clean() && b.is_clean());
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn a_torn_storage_cell_recovers_and_heals_clean() {
        let cell = ChaosCell::new(5, FaultPlan::torn_storage(5), 2, AppendPath::Strong);
        let outcome = run_chaos_cell(&cell);
        assert!(outcome.storage, "torn-storage arms the storage dimension");
        let report = outcome.storage_report.as_ref().expect("epilogue ran");
        assert!(
            outcome.is_clean(),
            "{}: {:?}",
            outcome.label,
            outcome.violations
        );
        assert!(
            report.recovered_blocks + report.healed > 0,
            "the store saw the workload"
        );
    }

    #[test]
    fn a_checkpoint_chaos_cell_survives_stale_manifests_and_prune_races() {
        let cell = ChaosCell::new(13, FaultPlan::checkpoint_chaos(13), 3, AppendPath::Eventual);
        let outcome = run_chaos_cell(&cell);
        assert!(
            outcome.is_clean(),
            "{}: {:?}",
            outcome.label,
            outcome.violations
        );
        let report = outcome.storage_report.as_ref().expect("epilogue ran");
        assert!(report.prune_raced, "the PruneRace drill fired");
    }

    #[test]
    fn schedule_plans_attach_no_store() {
        let cell = ChaosCell::new(2, FaultPlan::token_chaos(2), 2, AppendPath::Eventual);
        let outcome = run_chaos_cell(&cell);
        assert!(!outcome.storage);
        assert!(outcome.storage_report.is_none());
    }

    #[test]
    fn storage_verdicts_are_schedule_independent_across_reruns() {
        let cell = ChaosCell::new(7, FaultPlan::torn_storage(7), 4, AppendPath::Eventual);
        let a = run_chaos_cell(&cell);
        let b = run_chaos_cell(&cell);
        assert!(a.is_clean() && b.is_clean());
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.storage, b.storage);
        assert_eq!(a.label, b.label);
    }

    #[test]
    fn the_monitor_heals_a_poisoned_writer_lock_instead_of_panicking() {
        use crate::blocktree::ConcurrentBlockTree;
        use crate::fault::{FaultAction, FaultSession, Seam};
        use std::sync::atomic::AtomicU64;

        let t = ConcurrentBlockTree::strong(2, 23);
        t.append(0, vec![]);
        // A writer dies between its arena insert and the tip publish,
        // while holding the writer mutex — the mutex is now poisoned.
        let plan = FaultPlan::quiet(1).arm(Seam::WriterPrePublish, FaultAction::Panic, 100);
        let prepared = t.prepare(0, vec![]);
        let doomed_height = prepared.block.height;

        let stop = AtomicBool::new(false);
        let monitor_checks = AtomicU64::new(0);
        thread::scope(|scope| {
            // The same background monitor loop `run_chaos_cell` runs.
            let monitor = scope.spawn(|| {
                // ORDERING: Relaxed — stop flag only; join() below is
                // the synchronization point.
                while !stop.load(Ordering::Relaxed) {
                    let violations = t.check_invariants();
                    assert!(violations.is_empty(), "{violations:?}");
                    // ORDERING: Relaxed — statistics counter read after
                    // join().
                    monitor_checks.fetch_add(1, Ordering::Relaxed);
                    thread::yield_now();
                }
            });
            let crashed = scope
                .spawn(|| {
                    let mut session = FaultSession::new(&plan, 0);
                    t.commit_with_faults(prepared, &mut session)
                })
                .join();
            assert!(crashed.is_err(), "the injected panic reaches join");
            // The monitor keeps polling: its next lock acquisition crosses
            // the poisoned mutex and must heal it rather than panic.
            while t.poison_heals() == 0 {
                thread::yield_now();
            }
            // ORDERING: Relaxed — pairs with the monitor's Relaxed poll;
            // join() orders the rest.
            stop.store(true, Ordering::Relaxed);
            monitor.join().expect("the monitor absorbed the poison");
        });
        // ORDERING: Relaxed — the monitor was joined; quiescent read.
        assert!(monitor_checks.load(Ordering::Relaxed) > 0);
        assert!(t.poison_heals() >= 1, "the heal was counted");
        assert_eq!(t.height(), doomed_height, "healing published the orphan");
        // The replica keeps serving after the heal.
        assert!(t.append(1, vec![]).appended || t.height() > doomed_height);
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn every_seam_is_armed_by_at_least_one_default_plan() {
        // Coverage gate for the fault surface: a seam that no default plan
        // arms is dead chaos — its label still parses, but no grid run ever
        // exercises it, so regressions behind it go unnoticed.
        let plans = default_plans(7);
        for seam in Seam::all() {
            assert!(
                plans.iter().any(|p| p.arms_seam(seam)),
                "seam {:?} ({}) is armed by no default plan",
                seam,
                seam.label()
            );
        }
        // And every label round-trips, so `--seam <label>` can reach each.
        for seam in Seam::all() {
            assert_eq!(Seam::from_label(seam.label()), Some(seam));
        }
    }

    #[test]
    fn grid_preserves_cell_order_under_parallel_workers() {
        let cells: Vec<ChaosCell> = [1u64, 2]
            .iter()
            .flat_map(|&s| {
                [AppendPath::Strong, AppendPath::Eventual]
                    .into_iter()
                    .map(move |p| ChaosCell::new(s, FaultPlan::stalled_winners(s), 2, p))
            })
            .collect();
        let outcomes = chaos_grid(&cells, 2);
        assert_eq!(outcomes.len(), cells.len());
        for (cell, outcome) in cells.iter().zip(&outcomes) {
            assert_eq!(cell.label(), outcome.label);
            assert!(outcome.is_clean(), "{}: {}", outcome.label, outcome.verdict);
        }
    }
}
