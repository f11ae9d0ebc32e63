//! `judge_histories`: one thread judges three recorded histories against
//! the strong- and eventual-consistency criteria — the researcher path,
//! read-only over the reachability index the ingest workloads pay to write.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use btadt_concurrent::AppendPath;
use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{
    eventual_consistency, eventual_consistency_reference, strong_consistency,
    strong_consistency_reference, BtHistory, BtOperation,
};
use btadt_history::ConsistencyCriterion;
use btadt_types::{AlwaysValid, Block, LengthScore};

use crate::gen;
use crate::sizes::{Sizes, JUDGE_PROCESSES};
use crate::workloads::{Check, ProbeInput, Rep, TimedBody, Workload, DEFAULT_APPEND_BUDGET};

/// One recorded history.
struct Case {
    label: &'static str,
    /// Latency pools of its strong- and eventual-consistency checks: one
    /// pool per history and criterion, since the six checks cost between
    /// 2 and 60 ms and share no median.
    pools: (&'static str, &'static str),
    history: BtHistory,
}

/// The workload.
pub struct Judge {
    cases: Vec<Case>,
    /// Blocks of the Θ_P run's tree (the forkiest), for the probes.
    blocks: Vec<Block>,
    restart_blocks: usize,
    digest: u64,
}

fn history_digest(history: &BtHistory) -> u64 {
    let appended = history.records().iter().filter_map(|r| match &r.op {
        BtOperation::Append(b) => Some(b),
        BtOperation::Read => None,
    });
    gen::digest(appended) ^ history.len() as u64
}

impl Judge {
    /// Records the three contended runs.
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        let rounds = sizes.judge_rounds;
        let kinds = [
            (
                "frugal-1",
                ("sc_frugal1", "ec_frugal1"),
                OracleKind::Frugal(1),
                rounds,
            ),
            (
                "frugal-2",
                ("sc_frugal2", "ec_frugal2"),
                OracleKind::Frugal(2),
                rounds / 2,
            ),
            (
                "prodigal",
                ("sc_prodigal", "ec_prodigal"),
                OracleKind::Prodigal,
                rounds / 2,
            ),
        ];
        let mut cases = Vec::new();
        let mut blocks = Vec::new();
        let mut digest = 0u64;
        for (lane, (label, pools, kind, rounds)) in kinds.into_iter().enumerate() {
            let run = run_contended(
                kind,
                ContendedRunConfig {
                    processes: JUDGE_PROCESSES,
                    rounds,
                    sync_probability: 0.3,
                    seed: gen::sub_seed(seed, lane as u64 + 1),
                },
            );
            digest = digest.rotate_left(7) ^ history_digest(&run.history);
            blocks = gen::tree_stream(&run.tree);
            cases.push(Case {
                label,
                pools,
                history: run.history,
            });
        }
        Judge {
            cases,
            blocks,
            restart_blocks: sizes.recover_blocks,
            digest,
        }
    }
}

impl Workload for Judge {
    fn stage(&self) -> TimedBody<'_> {
        // Untimed: a criterion is a handful of `Arc`s.
        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        Box::new(move |trace| {
            let mut check = Check::default();
            let mut pools = Vec::with_capacity(self.cases.len() * 2);
            let mut judged = 0u64;
            // One bit per verdict; `verify` holds the reference checkers to it.
            let mut admitted = 0u64;

            let phase = Instant::now();
            for case in &self.cases {
                let span = trace.enter("core.strong_consistency");
                let t0 = Instant::now();
                let sc_verdict = sc.check(&case.history);
                pools.push((case.pools.0, vec![t0.elapsed().as_nanos() as u64]));
                trace.exit(span);
                let span = trace.enter("core.eventual_consistency");
                let t0 = Instant::now();
                let ec_verdict = ec.check(&case.history);
                pools.push((case.pools.1, vec![t0.elapsed().as_nanos() as u64]));
                trace.exit(span);
                judged += 2 * case.history.len() as u64;
                admitted = admitted << 2
                    | u64::from(sc_verdict.is_admitted()) << 1
                    | u64::from(ec_verdict.is_admitted());
                // Whatever the oracle, a refinement run never breaks EC.
                check.require(ec_verdict.is_admitted(), || {
                    format!("{}: a recorded run is not EC-admitted", case.label)
                });
                check.passed(1);
            }
            let wall_ns = phase.elapsed().as_nanos() as u64;
            // The primary call goes first: the eventual-consistency check of
            // the Θ_P history, the forkiest one under the criterion of the
            // paper's PoW story.
            pools.reverse();
            Rep {
                wall_ns,
                work: judged,
                work_ns: wall_ns,
                pools,
                extras: Vec::new(),
                counts: vec![("judged_ops", judged), ("admitted_bits", admitted)],
                check,
            }
        })
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    /// A criterion verdict that differs from the `_reference` checker's is
    /// a failed operation.  The reference walks are cubic, hence once.
    fn verify(&self, check: &mut Check) {
        let score = || Arc::new(LengthScore);
        let valid = || Arc::new(AlwaysValid);
        let pairs = [
            (
                "SC",
                strong_consistency(score(), valid()),
                strong_consistency_reference(score(), valid()),
            ),
            (
                "EC",
                eventual_consistency(score(), valid()),
                eventual_consistency_reference(score(), valid()),
            ),
        ];
        for case in &self.cases {
            for (name, indexed, reference) in &pairs {
                check.require(
                    indexed.admits(&case.history) == reference.admits(&case.history),
                    || {
                        format!(
                            "{}: {name} verdict differs from the reference checker",
                            case.label
                        )
                    },
                );
            }
        }
    }

    fn probe_input(&self) -> ProbeInput {
        ProbeInput {
            blocks: self.blocks.clone(),
            history: self.cases[0].history.clone(),
            path: AppendPath::Strong,
            restart_blocks: self.restart_blocks,
            append_budget: DEFAULT_APPEND_BUDGET,
            net: None,
        }
    }

    fn predicted_ns_per_work(
        &self,
        m: &BTreeMap<&'static str, f64>,
        _counts: &BTreeMap<&'static str, u64>,
    ) -> f64 {
        // Both conjunctions run validity, monotonic reads and ever-growing;
        // SC adds the strong prefix, EC the eventual one.
        m["core.block_validity_ns_per_op"]
            + m["core.local_monotonic_ns_per_op"]
            + m["core.ever_growing_ns_per_op"]
            + (m["core.strong_prefix_ns_per_op"] + m["core.eventual_prefix_ns_per_op"]) / 2.0
    }
}
