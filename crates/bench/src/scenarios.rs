//! The scenario sweep: running the adversarial experiment matrix and
//! aggregating `BENCH_scenarios.json`.
//!
//! A *cell* is one (scenario, seed) pair.  [`run_cell`] builds the miner
//! population the scenario prescribes (honest flooding replicas plus the
//! selfish/withholding adversaries of `btadt-protocols::adversary`), runs
//! it on its own deterministic simulator, and distils the run into a
//! [`CellOutcome`]: did the honest replicas converge, when did the network
//! settle, how deep did forks get, and do the recorded histories satisfy
//! BT Strong / Eventual Consistency (Definitions 3.2/3.4)?
//!
//! [`sweep`] fans the matrix across OS threads via
//! [`ScenarioMatrix::run`]; because every cell is deterministic in
//! (scenario, seed), the same matrix produces identical outcomes at any
//! thread count (`thread_count_is_invisible_in_outcomes` below locks this
//! in).  [`render_json`] renders the per-cell rows and per-scenario
//! aggregates as `BENCH_scenarios.json` — no timing field, so the document
//! is byte-identical on any host; `docs/SCENARIOS.md` documents the format.

use std::sync::Arc;

use btadt_core::{eventual_consistency, strong_consistency, ReachForest};
use btadt_history::ConsistencyCriterion;
use btadt_netsim::{
    AdversaryMix, Latency, MatrixCell, Scenario, ScenarioMatrix, SimReport, SimTime, Simulator,
};
use btadt_protocols::adversary::{build_miners, scenario_pow_config};
use btadt_protocols::extract::{build_histories, ReplicaLog};
use btadt_protocols::SyncStats;
use btadt_types::report::Value;
use btadt_types::{json_object, AlwaysValid, Blockchain, LengthScore};

/// Release delay of withholding miners in scenario cells, in ticks (a few
/// synchronous δ's: long enough to let honest miners extend a stale tip).
pub const WITHHOLD_DELAY: u64 = 12;

/// What one (scenario, seed) cell measured.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// The simulator's own report (events, final time, quiescence).
    pub report: SimReport,
    /// Whether all surviving honest replicas selected the same tip at the
    /// end of the run.
    pub converged: bool,
    /// Settle time: the last simulated instant at which any honest replica
    /// still updated its tree.  Convergence *time* in the paper's sense —
    /// once the network settles, Eventual Prefix requires agreement.
    pub convergence_time: u64,
    /// Deepest end-of-run divergence between two honest selected chains:
    /// `max(height) − |maximal common prefix|` over honest pairs (0 when
    /// converged).
    pub divergence_depth: u64,
    /// Maximum fork degree across honest trees (1 = chain, ≥ 2 = forks).
    pub max_fork_degree: usize,
    /// Blocks created by all replicas (adversaries included).
    pub blocks_created: usize,
    /// BT Strong Consistency verdict over the recorded history.
    pub strong: bool,
    /// BT Eventual Consistency verdict over the recorded history.
    pub eventual: bool,
    /// Messages delivered by the channel.
    pub delivered: usize,
    /// Messages dropped (loss, partitions, Byzantine omission).
    pub dropped: usize,
    /// Delta-sync requests sent by all replicas.
    pub sync_requests: u64,
    /// Blocks all replicas received in sync replies.
    pub reply_blocks: u64,
    /// Reply blocks that were new to their receiver.
    pub reply_blocks_new: u64,
}

/// Runs one cell: scenario × seed → outcome.
///
/// Honest replicas record growth reads during the run plus a forced read at
/// the horizon; adversaries record none (criterion verdicts measure what
/// honest clients observe under attack).  Replicas crashed by the scenario
/// are excluded from the final read and from the convergence check — the
/// criteria quantify over correct processes.
pub fn run_cell(scenario: &Scenario, seed: u64) -> CellOutcome {
    let config = scenario_pow_config(seed, scenario.duration);
    let miners = build_miners(
        scenario.nodes,
        scenario.adversaries,
        &config,
        WITHHOLD_DELAY,
    );
    let mut sim = Simulator::new(miners, scenario.sim_config(seed), scenario.failure_plan());
    let report = sim.run();
    let (mut miners, trace) = sim.into_parts();

    let crashed: Vec<usize> = scenario.crashes.iter().map(|&(p, _)| p).collect();
    let final_time = SimTime(scenario.max_time);
    for (i, m) in miners.iter_mut().enumerate() {
        if !crashed.contains(&i) {
            m.force_read(final_time);
        }
    }

    let honest_chains: Vec<Blockchain> = miners
        .iter()
        .enumerate()
        .filter(|(i, m)| m.is_honest() && !crashed.contains(i))
        .map(|(_, m)| m.selected())
        .collect();
    let converged = honest_chains
        .windows(2)
        .all(|w| w[0].tip().id == w[1].tip().id);
    // Interval-indexed pairwise divergence: intern the honest chains once
    // and answer each mcp via the reachability index instead of re-zipping
    // every pair.  The positional walk stays as the fallback (and spec) for
    // chain sets the forest refuses; both produce identical depths, so the
    // scenario determinism gates are unaffected.
    let mut divergence_depth = 0u64;
    let forest = ReachForest::from_chains(honest_chains.iter());
    for (i, a) in honest_chains.iter().enumerate() {
        for (j, b) in honest_chains.iter().enumerate().skip(i + 1) {
            let mcp = match &forest {
                Some(forest) => forest.mcp_len(a, forest.tip(j)),
                None => a.mcp_len(b),
            };
            divergence_depth = divergence_depth.max(a.height().max(b.height()) - mcp);
        }
    }
    let max_fork_degree = miners
        .iter()
        .filter(|m| m.is_honest())
        .map(|m| m.tree().max_fork_degree())
        .max()
        .unwrap_or(1);
    let convergence_time = miners
        .iter()
        .enumerate()
        .filter(|(i, m)| m.is_honest() && !crashed.contains(i))
        .filter_map(|(_, m)| m.log().applied.last().map(|(at, _)| at.0))
        .max()
        .unwrap_or(0);

    let sync_total =
        |count: fn(&SyncStats) -> u64| miners.iter().map(|m| count(m.sync_stats())).sum();
    let logs: Vec<ReplicaLog> = miners.iter().map(|m| m.log().clone()).collect();
    let blocks_created = logs.iter().map(|l| l.created.len()).sum();
    let (history, _messages) = build_histories(&logs);
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));

    CellOutcome {
        report,
        converged,
        convergence_time,
        divergence_depth,
        max_fork_degree,
        blocks_created,
        strong: sc.admits(&history),
        eventual: ec.admits(&history),
        delivered: trace.delivered(),
        dropped: trace.dropped(),
        sync_requests: sync_total(|s| s.requests_sent),
        reply_blocks: sync_total(|s| s.reply_blocks),
        reply_blocks_new: sync_total(|s| s.reply_blocks_new),
    }
}

/// The shipped scenario matrix: ten adversarial network regimes spanning
/// the paper's synchrony assumptions (Section 4.2), the failure modes of
/// the necessity results (loss — Theorem 4.7 — partitions, churn, crash,
/// Byzantine omission) and the mining attacks.
pub fn shipped_matrix() -> ScenarioMatrix {
    let n = 8;
    let scenarios = vec![
        Scenario::new("baseline-sync", n),
        Scenario::new("async", n).with_latency(Latency::Async { max_delay: 12 }),
        Scenario::new("partial-sync", n).with_latency(Latency::PartialSync {
            gst: 80,
            pre_gst_delay: 24,
            delta: 3,
        }),
        Scenario::new("lossy-20", n).with_loss(0.2),
        Scenario::new("partition-heal", n).with_partition(vec![0, 1, 2, 3], 10, 120),
        Scenario::new("churn", n)
            .with_churn(6, 10, 120)
            .with_churn(7, 40, 160),
        Scenario::new("crash", n).with_crash(7, 60),
        Scenario::new("byzantine", n)
            .with_byzantine(0)
            .with_byzantine(1),
        Scenario::new("selfish-25", n).with_adversaries(AdversaryMix {
            selfish: 2,
            withholding: 0,
        }),
        Scenario::new("withhold-25", n).with_adversaries(AdversaryMix {
            selfish: 0,
            withholding: 2,
        }),
    ];
    ScenarioMatrix::new(scenarios, vec![1, 2, 3])
}

/// A reduced matrix for CI smoke runs and the quickstart example: three
/// scenarios, short horizons, two seeds.
pub fn smoke_matrix() -> ScenarioMatrix {
    let scenarios = vec![
        Scenario::new("baseline-sync", 5).with_duration(24),
        Scenario::new("partition-heal", 5)
            .with_duration(24)
            .with_partition(vec![0, 1], 8, 60),
        Scenario::new("selfish-20", 5)
            .with_duration(24)
            .with_adversaries(AdversaryMix {
                selfish: 1,
                withholding: 0,
            }),
    ];
    ScenarioMatrix::new(scenarios, vec![1, 2])
}

/// Runs every cell of `matrix` on `workers` threads; the cells come back
/// in matrix order.
pub fn sweep(matrix: &ScenarioMatrix, workers: usize) -> Vec<MatrixCell<CellOutcome>> {
    matrix.run(workers, run_cell)
}

/// Per-scenario aggregate over the seeds the sweep ran.
#[derive(Clone, Debug)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub name: String,
    /// Number of cells (seeds) aggregated.
    pub cells: usize,
    /// Fraction of cells whose history satisfied BT Strong Consistency.
    pub sc_pass_rate: f64,
    /// Fraction of cells whose history satisfied BT Eventual Consistency.
    pub ec_pass_rate: f64,
    /// Fraction of cells whose honest replicas agreed on the tip at the end.
    pub converged_rate: f64,
    /// Mean settle time across cells (ticks).
    pub mean_convergence_time: f64,
    /// Worst end-of-run divergence depth across cells.
    pub max_divergence_depth: u64,
    /// Worst honest fork degree across cells.
    pub max_fork_degree: usize,
}

/// Aggregates a sweep per scenario, preserving matrix order.
pub fn summarize(sweep: &[MatrixCell<CellOutcome>]) -> Vec<ScenarioSummary> {
    let mut order: Vec<&str> = Vec::new();
    for cell in sweep {
        if !order.contains(&cell.scenario.as_str()) {
            order.push(&cell.scenario);
        }
    }
    order
        .into_iter()
        .map(|name| {
            let cells: Vec<&MatrixCell<CellOutcome>> =
                sweep.iter().filter(|c| c.scenario == name).collect();
            let n = cells.len() as f64;
            let rate = |pred: &dyn Fn(&CellOutcome) -> bool| {
                cells.iter().filter(|c| pred(&c.result)).count() as f64 / n
            };
            ScenarioSummary {
                name: name.to_string(),
                cells: cells.len(),
                sc_pass_rate: rate(&|o| o.strong),
                ec_pass_rate: rate(&|o| o.eventual),
                converged_rate: rate(&|o| o.converged),
                mean_convergence_time: cells
                    .iter()
                    .map(|c| c.result.convergence_time as f64)
                    .sum::<f64>()
                    / n,
                max_divergence_depth: cells
                    .iter()
                    .map(|c| c.result.divergence_depth)
                    .max()
                    .unwrap_or(0),
                max_fork_degree: cells
                    .iter()
                    .map(|c| c.result.max_fork_degree)
                    .max()
                    .unwrap_or(1),
            }
        })
        .collect()
}

/// Renders the sweep as the `BENCH_scenarios.json` document (see
/// `docs/SCENARIOS.md` for the schema).  Outcomes are a pure function of
/// (scenario, seed), so two sweeps of the same matrix render
/// byte-identical documents whatever the worker count or machine load.
pub fn render_json(sweep: &[MatrixCell<CellOutcome>]) -> String {
    let cells = sweep.iter().map(|cell| {
        let o = &cell.result;
        json_object! {
            "scenario": cell.scenario.as_str(), "seed": cell.seed,
            "events": o.report.events_processed, "quiescent": o.report.quiescent,
            "converged": o.converged, "convergence_time": o.convergence_time,
            "divergence_depth": o.divergence_depth, "max_fork_degree": o.max_fork_degree,
            "blocks_created": o.blocks_created, "strong": o.strong, "eventual": o.eventual,
            "delivered": o.delivered, "dropped": o.dropped, "sync_requests": o.sync_requests,
            "reply_blocks": o.reply_blocks, "reply_blocks_new": o.reply_blocks_new,
        }
    });
    let scenarios = summarize(sweep).into_iter().map(|s| {
        json_object! {
            "name": s.name, "cells": s.cells,
            "sc_pass_rate": Value::fixed(s.sc_pass_rate, 3),
            "ec_pass_rate": Value::fixed(s.ec_pass_rate, 3),
            "converged_rate": Value::fixed(s.converged_rate, 3),
            "mean_convergence_time": Value::fixed(s.mean_convergence_time, 1),
            "max_divergence_depth": s.max_divergence_depth, "max_fork_degree": s.max_fork_degree,
        }
    });
    json_object! {
        "bench": "scenarios",
        "cells": cells.collect::<Vec<_>>(),
        "scenarios": scenarios.collect::<Vec<_>>(),
    }
    .render()
}

/// Prints the per-scenario aggregate table to stdout.
pub fn print_summary(sweep: &[MatrixCell<CellOutcome>]) {
    println!(
        "{:<16} {:>5} {:>8} {:>8} {:>9} {:>10} {:>7} {:>7}",
        "scenario", "cells", "SC", "EC", "converged", "settle", "div", "forks"
    );
    for s in summarize(sweep) {
        println!(
            "{:<16} {:>5} {:>7.0}% {:>7.0}% {:>8.0}% {:>10.1} {:>7} {:>7}",
            s.name,
            s.cells,
            s.sc_pass_rate * 100.0,
            s.ec_pass_rate * 100.0,
            s.converged_rate * 100.0,
            s.mean_convergence_time,
            s.max_divergence_depth,
            s.max_fork_degree,
        );
    }
}

/// The worker count a sweep uses without `--workers`: the machine's
/// parallelism, at least 4, at most the cell count.  Outcomes do not
/// depend on it.
pub fn default_workers(cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .max(4)
        .clamp(1, cells.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(cells: &[MatrixCell<CellOutcome>]) -> Vec<(&str, u64, &CellOutcome)> {
        cells
            .iter()
            .map(|c| (c.scenario.as_str(), c.seed, &c.result))
            .collect()
    }

    #[test]
    fn scenario_histories_get_identical_indexed_and_reference_verdicts() {
        // Satellite of the reachability-index PR: every history the smoke
        // matrix produces must get byte-identical SC/EC verdicts from the
        // indexed checkers and the chain-walking reference conjunctions.
        use btadt_core::{eventual_consistency_reference, strong_consistency_reference};
        let matrix = smoke_matrix();
        for scenario in &matrix.scenarios {
            for &seed in &matrix.seeds {
                let config = scenario_pow_config(seed, scenario.duration);
                let miners = build_miners(
                    scenario.nodes,
                    scenario.adversaries,
                    &config,
                    WITHHOLD_DELAY,
                );
                let mut sim =
                    Simulator::new(miners, scenario.sim_config(seed), scenario.failure_plan());
                sim.run();
                let (mut miners, _) = sim.into_parts();
                let crashed: Vec<usize> = scenario.crashes.iter().map(|&(p, _)| p).collect();
                for (i, m) in miners.iter_mut().enumerate() {
                    if !crashed.contains(&i) {
                        m.force_read(SimTime(scenario.max_time));
                    }
                }
                let logs: Vec<ReplicaLog> = miners.iter().map(|m| m.log().clone()).collect();
                let (history, _) = build_histories(&logs);
                let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
                let sc_ref =
                    strong_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid));
                assert_eq!(
                    sc.check(&history),
                    sc_ref.check(&history),
                    "{} seed {seed}: SC verdicts diverge",
                    scenario.name
                );
                let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
                let ec_ref =
                    eventual_consistency_reference(Arc::new(LengthScore), Arc::new(AlwaysValid));
                assert_eq!(
                    ec.check(&history),
                    ec_ref.check(&history),
                    "{} seed {seed}: EC verdicts diverge",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn thread_count_is_invisible_in_outcomes() {
        // Same scenario + seed ⇒ identical SimReport and outcome whether
        // the matrix runs on one thread or four.
        let matrix = smoke_matrix();
        let serial = sweep(&matrix, 1);
        let parallel = sweep(&matrix, 4);
        assert_eq!(outcomes(&serial), outcomes(&parallel));
    }

    #[test]
    fn baseline_cells_converge_and_pass_eventual_consistency() {
        let outcome = run_cell(&Scenario::new("baseline", 5).with_duration(24), 7);
        assert!(outcome.report.events_processed > 0);
        assert!(outcome.converged, "a loss-free synchronous run converges");
        assert!(outcome.eventual, "an honest converged run satisfies EC");
        assert_eq!(outcome.divergence_depth, 0);
        assert!(outcome.blocks_created > 0);
    }

    #[test]
    fn selfish_mining_degrades_the_run() {
        let honest = run_cell(&Scenario::new("h", 5).with_duration(30), 3);
        let attacked = run_cell(
            &Scenario::new("a", 5)
                .with_duration(30)
                .with_adversaries(AdversaryMix {
                    selfish: 1,
                    withholding: 0,
                }),
            3,
        );
        assert!(
            attacked.max_fork_degree >= honest.max_fork_degree,
            "withheld branches do not reduce fork pressure (honest {}, attacked {})",
            honest.max_fork_degree,
            attacked.max_fork_degree
        );
        assert!(attacked.blocks_created > 0);
    }

    #[test]
    fn byzantine_omission_cells_record_drops() {
        let outcome = run_cell(
            &Scenario::new("b", 6).with_duration(30).with_byzantine(0),
            9,
        );
        assert!(
            outcome.dropped > 0,
            "Byzantine omission must starve some destinations"
        );
        assert!(outcome.blocks_created > 0);
    }

    #[test]
    fn partition_cells_still_converge_after_heal() {
        let outcome = run_cell(
            &Scenario::new("p", 6)
                .with_duration(30)
                .with_partition(vec![0, 1, 2], 8, 90),
            5,
        );
        assert!(outcome.dropped > 0, "the partition must cut messages");
        assert!(outcome.converged, "delta sync reconciles after the heal");
    }

    #[test]
    fn summaries_aggregate_per_scenario_in_matrix_order() {
        let summaries = summarize(&sweep(&smoke_matrix(), 2));
        assert_eq!(summaries.len(), 3);
        assert_eq!(summaries[0].name, "baseline-sync");
        assert_eq!(summaries[0].cells, 2);
        for s in &summaries {
            assert!(s.ec_pass_rate >= 0.0 && s.ec_pass_rate <= 1.0);
        }
    }

    #[test]
    fn json_report_is_structurally_sound() {
        let cells = sweep(&smoke_matrix(), 2);
        let json = render_json(&cells);
        assert!(json.contains("\"bench\": \"scenarios\""));
        assert_eq!(json.matches("\"scenario\": ").count(), cells.len());
        assert!(crate::json::parse(&json).is_ok(), "emitted JSON parses");
    }
}
