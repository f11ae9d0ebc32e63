//! Cell definitions and terminal-state judging for the model checker,
//! plus the free-running race probes.
//!
//! A **cell** is one configuration of the real replica swept exhaustively
//! — `(path, client programs, mutation)` — with a named expectation.
//! [`judge_terminal`] judges every terminal state of every schedule on
//! four structural axes (tree invariants and published view, reachability
//! labels, the rerooted window, the ReachForest) and on the criterion the
//! path claims (Theorems 4.1–4.3: SC for `strong-cas` *and* for
//! `racy-unmediated` — the claim the checker refutes — EC for
//! `eventual-snapshot`); `docs/ANALYSIS.md` §1 spells the axes out.  Each
//! schedule's sync-event trace also runs through the vector-clock race
//! detector, so the race verdicts are exhaustive over the bounded schedule
//! space — and the same detector is pointed at free-running traced runs by
//! [`traced_run_races`] / [`scripted_racy_overlap`].

use btadt_concurrent::trace::SyncTraceHub;
use btadt_concurrent::{
    build_replica, claimed_criterion, reachability_disagreements, run_workload_with_on, AppendPath,
    ConcurrentBlockTree, DriverConfig, TipRule,
};
use btadt_core::invariant::check_block_tree;
use btadt_core::ops::BtHistoryExt;
use btadt_core::reachability::ReachForest;
use btadt_types::{BlockTree, Blockchain, NodeIdx};

use crate::scheduler::{explore, replay, ExploreOptions, ExploreOutcome, TerminalSummary};
use crate::stepper::{Execution, ModelConfig, Op};
use crate::vclock::{self, RaceReport};

/// Judges one terminal state on every axis: the replica's writer tree,
/// published view and poison-heal count, the recorded history and the
/// sync-event trace.  This is the `judge` closure the exploration and
/// replay entry points use.
pub fn judge_terminal(run: &Execution) -> TerminalSummary {
    let path = run.config.path;
    // Read the published view and the heal count *before* taking the
    // writer lock for the tree: a still-poisoned mutex would heal there.
    let view = run.replica.snapshot();
    let heals = run.replica.poison_heals();
    let tree = run.replica.writer_tree_snapshot();
    let mut structural = Vec::new();
    for v in check_block_tree(&tree) {
        structural.push(format!("invariant {}: {}", v.invariant, v.detail));
    }
    let (len, tip) = (view.len, view.tip);
    if len as usize != tree.len() {
        structural.push(format!(
            "published length {len} disagrees with the quiescent tree length {}",
            tree.len()
        ));
    }
    if tip >= len {
        structural.push(format!("published tip {tip} is not committed (len {len})"));
    }
    let panics = run.config.programs.iter().copied().flatten();
    let expected_heals = panics.filter(|&&op| op == Op::BatchPanic).count() as u64;
    if heals != expected_heals {
        structural.push(format!(
            "{heals} poison heals at quiescence, expected {expected_heals}"
        ));
    }
    for d in reachability_disagreements(&tree) {
        structural.push(format!("reachability: {d}"));
    }
    if (tip as usize) < tree.len() {
        let selected = path != AppendPath::Racy;
        structural.extend(rerooted_disagreements(&tree, (len, tip), selected));
    }
    let history = run.history();
    let chains: Vec<Blockchain> = (history.reads().iter().map(|(_, c)| (*c).clone())).collect();
    structural.extend(forest_disagreements(&chains));
    let verdict = claimed_criterion(path, TipRule::default()).check(&history);
    let criterion = verdict.violations.iter().map(|v| v.to_string()).collect();
    let races = vclock::analyze(&run.trace.events()).races.len();
    TerminalSummary {
        structural,
        criterion,
        races,
    }
}

/// Rebases the tree onto the first block of the selected chain (the
/// `rerooted` pruning-window operation) and checks the window agrees with
/// itself and with the published head.  `selected_tip` distinguishes the
/// mediated paths (the published tip must be the window's best leaf) from
/// the racy one (the published tip is only guaranteed to be *in* the
/// window).
fn rerooted_disagreements(tree: &BlockTree, head: (u32, u32), selected_tip: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    let mut cursor = Some(NodeIdx(head.1));
    while let Some(idx) = cursor {
        path.push(idx);
        cursor = tree.parent_idx(idx);
    }
    path.reverse();
    let Some(&root_idx) = path.get(1) else {
        return out; // nothing appended: the window is the whole tree
    };
    // LINT-ALLOW: a throwaway copy that checks rerooted labels against the
    // explored tree; no replica's window or store is touched.
    let mut window = BlockTree::rerooted(tree.block_at(root_idx).clone());
    for (i, block) in tree.blocks().enumerate() {
        let idx = NodeIdx(i as u32);
        if idx != root_idx && tree.is_ancestor_idx(root_idx, idx) {
            if let Err(e) = window.insert(block.clone()) {
                out.push(format!("rerooted window rejected a descendant: {e}"));
            }
        }
    }
    for d in reachability_disagreements(&window) {
        out.push(format!("rerooted reachability: {d}"));
    }
    let tip_id = tree.block_at(NodeIdx(head.1)).id;
    if !window.contains(tip_id) {
        out.push("the published tip fell outside its own rerooted window".to_string());
    } else if selected_tip && window.best_leaf_by_height(true) != tip_id {
        out.push("the rerooted window selects a different tip than the published one".to_string());
    }
    out
}

/// Cross-validates the pre-order-numbered [`ReachForest`] against the
/// positional chain operations on the chains the reads returned: every
/// pair's compatibility and common prefix, and every chain's count of
/// diverging later chains.
fn forest_disagreements(chains: &[Blockchain]) -> Vec<String> {
    if chains.is_empty() {
        return Vec::new();
    }
    let Some(forest) = ReachForest::from_chains(chains.iter()) else {
        return vec!["the reads failed to intern into one ReachForest".to_string()];
    };
    let mut out = Vec::new();
    let pairs = (0..chains.len()).flat_map(|i| (0..chains.len()).map(move |j| (i, j)));
    for (i, j) in pairs.filter(|(i, j)| i != j) {
        let indexed = forest.compatible(i, j);
        let positional = chains[i].prefix_compatible(&chains[j]);
        if indexed != positional {
            out.push(format!(
                "ReachForest::compatible({i},{j}) = {indexed} but the positional check says \
                 {positional}"
            ));
        }
        let m_indexed = forest.mcp_len(&chains[i], forest.tip(j));
        let m_positional = chains[i].mcp_len(&chains[j]);
        if m_indexed != m_positional {
            out.push(format!(
                "ReachForest::mcp_len({i},{j}) = {m_indexed} but the positional mcp_len is \
                 {m_positional}"
            ));
        }
    }
    let counted = forest.diverging_later();
    let positional: Vec<usize> = (0..chains.len())
        .map(|i| {
            chains[i + 1..]
                .iter()
                .filter(|later| !chains[i].prefix_compatible(later))
                .count()
        })
        .collect();
    if counted != positional {
        out.push(format!(
            "ReachForest::diverging_later() = {counted:?} but the positional pairwise counts \
             are {positional:?}"
        ));
    }
    out
}

/// What a cell's sweep is expected to establish — always: exhausted and
/// structurally clean on every schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Every schedule admitted and race-free (the soundness cells).
    AlwaysAdmitted,
    /// At least one schedule rejected by the claimed criterion *and* one
    /// with a detected race; the counterexample must replay (the racy
    /// positive control).
    CaughtViolation,
    /// At least one rejected schedule and **zero** races: the weakened-CAS
    /// fork is a mediation bug, not a head-protocol race, so only the
    /// exhaustive sweep may catch it (the checker's own mutation test).
    CaughtFork,
}

impl Expectation {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Expectation::AlwaysAdmitted => "always-admitted",
            Expectation::CaughtViolation => "caught-violation",
            Expectation::CaughtFork => "caught-fork",
        }
    }
}

/// One model-checking cell: a named configuration plus its expectation.
#[derive(Clone, Copy, Debug)]
pub struct CellSpec {
    /// Stable cell name (report key).
    pub name: &'static str,
    /// The configuration swept.
    pub config: ModelConfig,
    /// What the sweep must establish.
    pub expect: Expectation,
}

/// The judged result of one cell sweep.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The spec that ran.
    pub spec: CellSpec,
    /// The exploration tallies.
    pub outcome: ExploreOutcome,
    /// Whether the stored counterexample replayed to the same rejection
    /// (`None` when the expectation requires no counterexample).
    pub replay_confirmed: Option<bool>,
    /// The cell verdict.
    pub as_expected: bool,
}

/// The shipped cell grid.  `smoke` restricts to the 2-client cells the
/// CI smoke job sweeps; the full grid appends the 3-client cells.
pub fn cells(smoke: bool) -> Vec<CellSpec> {
    use {AppendPath::*, Expectation::*};
    const APPEND: &[Op] = &[Op::Append];
    const APPEND_READ: &[Op] = &[Op::Append, Op::Read];
    const BATCH_READ: &[Op] = &[Op::Batch, Op::Read];
    const PANIC_APPEND: &[Op] = &[Op::BatchPanic, Op::Append];
    let cell = |name, path, programs, expect| CellSpec {
        name,
        config: ModelConfig {
            path,
            weaken_cas: expect == CaughtFork, // the mutation that expectation is for
            programs,
        },
        expect,
    };
    let mut cells = vec![
        cell("strong-2c", Strong, &[APPEND_READ; 2], AlwaysAdmitted),
        cell("eventual-2c", Eventual, &[APPEND_READ; 2], AlwaysAdmitted),
        cell("racy-2c", Racy, &[APPEND_READ; 2], CaughtViolation),
        cell(
            "strong-2c-weakened-cas",
            Strong,
            &[APPEND_READ; 2],
            CaughtFork,
        ),
        // The batch door — the path gossip, recovery and the benchmark
        // ingest through — with every `WriterMidBatch` position explored.
        cell(
            "eventual-2c-batch",
            Eventual,
            &[BATCH_READ; 2],
            AlwaysAdmitted,
        ),
        // A writer dying there: client 0 survives its panic and appends
        // once more while client 1 appends and reads, so every schedule
        // has a lock round — hence a heal — after the poison.
        cell(
            "eventual-2c-batch-panic",
            Eventual,
            &[PANIC_APPEND, APPEND_READ],
            AlwaysAdmitted,
        ),
    ];
    if !smoke {
        cells.extend([
            cell("strong-3c", Strong, &[APPEND; 3], AlwaysAdmitted),
            cell("eventual-3c", Eventual, &[APPEND; 3], AlwaysAdmitted),
            // The racy cell needs the mid-run read: without it every
            // quiescent read lands after all publishes and last-writer-
            // wins still satisfies SC on every schedule.
            cell("racy-3c", Racy, &[APPEND_READ; 3], CaughtViolation),
        ]);
    }
    cells
}

/// Sweeps one cell and judges it against its expectation.
pub fn run_cell(spec: CellSpec) -> CellResult {
    let outcome = explore(spec.config, &ExploreOptions::default(), judge_terminal);
    let replay_confirmed = match spec.expect {
        Expectation::AlwaysAdmitted => None,
        Expectation::CaughtViolation | Expectation::CaughtFork => {
            Some(outcome.counterexample.as_ref().is_some_and(|ce| {
                let (_, summary) = replay(spec.config, &ce.schedule, judge_terminal);
                !summary.clean()
            }))
        }
    };
    let o = &outcome;
    let caught = o.rejected > 0 && replay_confirmed == Some(true);
    let as_expected = o.exhausted
        && o.structural_violations == 0
        && match spec.expect {
            Expectation::AlwaysAdmitted => o.counterexample.is_none() && o.racy_schedules == 0,
            Expectation::CaughtViolation => caught && o.racy_schedules > 0,
            Expectation::CaughtFork => caught && o.racy_schedules == 0,
        };
    CellResult {
        spec,
        outcome,
        replay_confirmed,
        as_expected,
    }
}

/// Runs a real multi-threaded, sync-traced workload on the given path and
/// returns the race analysis.  Clean verdicts (the Strong/Eventual rows)
/// are schedule-independent: every lock-decided store is ordered with
/// every other store and with its own deciding read.
pub fn traced_run_races(path: AppendPath, threads: usize, ops: usize, seed: u64) -> RaceReport {
    let hub = SyncTraceHub::new();
    let config = DriverConfig {
        threads,
        ops_per_thread: ops,
        append_percent: 60,
        path,
        seed,
        record: false,
    };
    let replica = build_replica(&config).with_sync_trace(hub.clone());
    run_workload_with_on(&config, None, &replica);
    vclock::analyze(&hub.take())
}

/// The deterministic scripted positive control: two clients prepare on
/// the same published head, then both publish — single-threaded, so the
/// verdict is byte-stable, unlike a 2-thread racy run that a 1-CPU box
/// may happen to serialize.
pub fn scripted_racy_overlap() -> RaceReport {
    let hub = SyncTraceHub::new();
    let replica = ConcurrentBlockTree::racy(2).with_sync_trace(hub.clone());
    let a = replica.prepare(0, vec![]);
    let b = replica.prepare(1, vec![]);
    replica.commit(a);
    replica.commit(b);
    vclock::analyze(&hub.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::{OP_COMMIT, OP_START};
    use btadt_concurrent::Seam;

    #[test]
    fn strong_smoke_cell_is_always_admitted() {
        let result = run_cell(cells(true)[0]);
        assert!(result.as_expected, "outcome: {:?}", result.outcome);
        assert!(result.outcome.exhausted);
        assert!(result.outcome.schedules > 0);
    }

    #[test]
    fn racy_smoke_cell_is_caught_with_a_replayable_counterexample() {
        let spec = cells(true)[2];
        assert_eq!(spec.name, "racy-2c");
        let result = run_cell(spec);
        assert!(result.as_expected, "outcome: {:?}", result.outcome);
        let ce = result.outcome.counterexample.expect("counterexample");
        assert!(!ce.reasons.is_empty());
        assert!(ce.schedule.len() <= spec.config.max_schedule_len());
        assert_eq!(ce.seams.len(), ce.schedule.len());
        assert_eq!(result.replay_confirmed, Some(true));
        // The trace speaks the replica's own vocabulary: fault-seam labels
        // plus the stepper's two operation-boundary park points.
        for (_, label) in &ce.seams {
            assert!(
                Seam::from_label(label).is_some() || [OP_START, OP_COMMIT].contains(label),
                "{label} is not a park point"
            );
        }
    }

    /// The paths the step-machine model never had: the batch door with
    /// every `WriterMidBatch` position explored, and a writer dying there.
    #[test]
    fn batch_and_poison_heal_cells_are_always_admitted() {
        for name in ["eventual-2c-batch", "eventual-2c-batch-panic"] {
            let spec = *cells(true).iter().find(|c| c.name == name).expect(name);
            assert_eq!(spec.expect, Expectation::AlwaysAdmitted);
            let mut mid_batch_parks = 0;
            let outcome = explore(spec.config, &ExploreOptions::default(), |run| {
                let at_mid_batch = |(_, s): &&(usize, &str)| *s == Seam::WriterMidBatch.label();
                mid_batch_parks += run.baton.seams().iter().filter(at_mid_batch).count();
                judge_terminal(run)
            });
            assert!(outcome.exhausted, "{name}: {:?}", outcome.failure);
            assert!(outcome.schedules > 0 && mid_batch_parks > 0, "{name}");
            assert_eq!(outcome.structural_violations, 0, "{name}: {outcome:?}");
            assert_eq!(outcome.rejected + outcome.racy_schedules, 0, "{name}");
        }
    }

    /// The judge's poison-heal rule bites: a schedule of the panic cell
    /// judged as if no writer had died is a structural violation.
    #[test]
    fn an_unexpected_poison_heal_is_a_structural_violation() {
        let spec = *cells(true).last().expect("the panic cell");
        assert_eq!(spec.name, "eventual-2c-batch-panic");
        let first_only = ExploreOptions {
            max_schedules: 1,
            ..ExploreOptions::default()
        };
        let mut schedule = Vec::new();
        explore(spec.config, &first_only, |run| {
            schedule = run.baton.seams().iter().map(|(c, _)| *c).collect();
            judge_terminal(run)
        });
        let (mut run, summary) = replay(spec.config, &schedule, judge_terminal);
        assert!(summary.clean(), "{:?}", summary.structural);
        assert_eq!(run.replica.poison_heals(), 1);
        run.config = ModelConfig::smoke(AppendPath::Eventual);
        let relabelled = judge_terminal(&run).structural;
        assert!(
            relabelled.iter().any(|v| v.contains("1 poison heals")),
            "{relabelled:?}"
        );
    }

    #[test]
    fn weakened_cas_mutation_is_caught_without_races() {
        let spec = cells(true)[3];
        assert_eq!(spec.name, "strong-2c-weakened-cas");
        let result = run_cell(spec);
        assert!(result.as_expected, "outcome: {:?}", result.outcome);
        assert_eq!(result.outcome.racy_schedules, 0);
        assert!(result.outcome.rejected > 0);
    }

    #[test]
    fn eventual_smoke_cell_is_always_admitted() {
        let result = run_cell(cells(true)[1]);
        assert!(result.as_expected, "outcome: {:?}", result.outcome);
    }

    /// The differential gate for the pruner: sleep sets must not change
    /// any smoke-cell verdict relative to the unpruned sweep.
    #[test]
    fn pruned_and_unpruned_sweeps_agree_on_every_smoke_verdict() {
        for spec in cells(true) {
            let pruned = explore(spec.config, &ExploreOptions::default(), judge_terminal);
            let unpruned = explore(
                spec.config,
                &ExploreOptions {
                    prune: false,
                    max_schedules: u64::MAX,
                },
                judge_terminal,
            );
            assert!(pruned.exhausted && unpruned.exhausted, "{}", spec.name);
            assert_eq!(
                pruned.structural_violations == 0,
                unpruned.structural_violations == 0,
                "{}: structural-violation presence differs",
                spec.name
            );
            assert_eq!(
                pruned.rejected == 0,
                unpruned.rejected == 0,
                "{}: rejection presence differs",
                spec.name
            );
            assert_eq!(
                pruned.racy_schedules == 0,
                unpruned.racy_schedules == 0,
                "{}: race presence differs",
                spec.name
            );
            assert!(
                pruned.schedules <= unpruned.schedules,
                "{}: pruning cannot add schedules",
                spec.name
            );
        }
    }

    #[test]
    fn threaded_strong_and_eventual_runs_are_race_free() {
        for path in [AppendPath::Strong, AppendPath::Eventual] {
            let report = traced_run_races(path, 3, 20, 0xC0FFEE);
            assert!(report.stores > 0, "{path:?}: the run published blocks");
            assert!(
                report.race_free(),
                "{path:?}: unexpected races {:?}",
                report.races
            );
        }
    }

    #[test]
    fn scripted_racy_overlap_is_flagged() {
        let report = scripted_racy_overlap();
        assert_eq!(report.stores, 2);
        assert_eq!(report.races.len(), 1, "races: {:?}", report.races);
        assert_eq!(report.races[0].client, 1);
        assert_eq!(report.races[0].other, 0);
    }
}
