//! Executable hierarchy experiments (Section 3.4 and Section 4.4).
//!
//! The paper orders the refined ADTs `R(BT-ADT_C, Θ)` by inclusion of the
//! history sets they can generate (Figures 8 and 14):
//!
//! * Theorem 3.1 — every history satisfying SC satisfies EC, and some EC
//!   history does not satisfy SC (`H_SC ⊂ H_EC`);
//! * Theorem 3.3 — `Ĥ(BT, Θ_F) ⊆ Ĥ(BT, Θ_P)`;
//! * Theorem 3.4 — `k1 ≤ k2 ⇒ Ĥ(BT, Θ_F,k1) ⊆ Ĥ(BT, Θ_F,k2)`;
//! * Theorem 4.8 — no oracle weaker than Θ_F,k=1 can generate only
//!   Strong-Prefix histories once appends are concurrent, which removes
//!   `R(BT-ADT_SC, Θ_P)` and `R(BT-ADT_SC, Θ_F,k>1)` from the hierarchy.
//!
//! The experiments generate *families of histories* by running the oracle
//! refinement under contention — several logical processes appending on
//! possibly stale views of a shared tree — and then measure the inclusions
//! on the generated families.  `btadt_bench::hierarchy_report` runs them
//! over a seed range, and `cargo run --release -p btadt-bench --bin
//! figures` prints the resulting counts next to the Figures 2–4
//! classification.

use std::sync::Arc;

use btadt_types::rng::ChaCha8;

use btadt_history::{ConsistencyCriterion, ProcessId};
use btadt_oracle::{
    ForkCoherenceChecker, FrugalOracle, MeritTable, OracleConfig, OracleLog, ProdigalOracle,
    TokenOracle,
};
use btadt_types::{
    AlwaysValid, BlockBuilder, BlockTree, Blockchain, LengthScore, LongestChain, NodeIdx,
    ReadSpines, SelectionFunction,
};

use crate::criteria::{eventual_consistency, strong_consistency};
use crate::ops::{BtHistory, BtOperation, BtRecorder, BtResponse};

/// Which oracle refines the BT-ADT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Θ_F,k for the given `k ≥ 1`.
    Frugal(usize),
    /// Θ_P (`k = ∞`).
    Prodigal,
}

impl OracleKind {
    /// Builds the corresponding oracle for `n` equally merited processes.
    pub fn build(self, n: usize, seed: u64) -> Box<dyn TokenOracle> {
        // Token probability 1: contention, not mining latency, is what the
        // hierarchy experiments study.
        let config = OracleConfig {
            seed,
            probability_scale: 1e9,
            min_probability: 1.0,
        };
        match self {
            OracleKind::Frugal(k) => Box::new(FrugalOracle::new(k, MeritTable::uniform(n), config)),
            OracleKind::Prodigal => Box::new(ProdigalOracle::new(MeritTable::uniform(n), config)),
        }
    }

    /// Display name used in reports.
    pub fn label(self) -> String {
        match self {
            OracleKind::Frugal(k) => format!("frugal(k={k})"),
            OracleKind::Prodigal => "prodigal".to_string(),
        }
    }
}

/// Configuration of one contended refinement run.
#[derive(Clone, Copy, Debug)]
pub struct ContendedRunConfig {
    /// Number of logical processes appending and reading.
    pub processes: usize,
    /// Number of append attempts (total, round-robin over processes).
    pub rounds: usize,
    /// Probability that a process refreshes its local view to the globally
    /// selected chain before appending.  `1.0` means perfectly synchronised
    /// processes (no contention); low values create heavy contention and —
    /// with permissive oracles — forks.
    pub sync_probability: f64,
    /// Seed for the run.
    pub seed: u64,
}

impl Default for ContendedRunConfig {
    fn default() -> Self {
        ContendedRunConfig {
            processes: 4,
            rounds: 40,
            sync_probability: 0.5,
            seed: 0,
        }
    }
}

/// The artefacts of one contended run.
pub struct ContendedRun {
    /// The concurrent BT history (appends and reads of every process).
    pub history: BtHistory,
    /// The oracle usage log (for k-Fork-Coherence checks).
    pub log: OracleLog,
    /// The final shared tree.
    pub tree: BlockTree,
    /// Which oracle generated the run.
    pub oracle: OracleKind,
    /// Blocks the recorded reads materialised: the summed length of every
    /// process's read spines (copying each read would cost its length).
    pub spine_blocks: usize,
}

impl ContendedRun {
    /// Maximum number of successful appends on a single parent observed in
    /// the run (the empirical fork degree).
    pub fn max_forks(&self) -> usize {
        self.log
            .accepted_per_parent()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Runs the oracle refinement under contention and records the history.
///
/// Each process keeps a *local view* (the tip it believes is the head of the
/// chain).  Before appending it refreshes the view with probability
/// `sync_probability`; it then asks the oracle for a token on its view's tip
/// and tries to consume it.  Successful appends extend the shared tree.
/// Every process reads after each of its attempts, and a final quiescent
/// round refreshes every view and reads once more.
///
/// Each process records its reads through a [`ReadSpines`] of its own, so
/// a read's response is a prefix view of one of that process's spines and
/// recording it costs the blocks that changed since its last read.  The
/// views are built once the run is over, so every spine has a single
/// owner while it grows.
pub fn run_contended(kind: OracleKind, config: ContendedRunConfig) -> ContendedRun {
    assert!(config.processes > 0, "need at least one process");
    let selection: Arc<dyn SelectionFunction> = Arc::new(LongestChain::new());
    let mut oracle = kind.build(config.processes, config.seed);
    let mut rng = ChaCha8::new(config.seed ^ 0xdead_beef);
    let mut tree = BlockTree::new();
    let mut recorder = BtRecorder::new();
    let mut log = OracleLog::new();
    let mut local_tips: Vec<NodeIdx> = vec![NodeIdx::GENESIS; config.processes];
    let mut spines = vec![ReadSpines::new(); config.processes];
    // Every read's record index, process, run and length; its response is
    // a placeholder until the run is over.
    let mut reads: Vec<(usize, usize, usize, usize)> = Vec::new();
    let placeholder = Blockchain::genesis_only();
    let mut nonce = 0u64;
    let mut read = |recorder: &mut BtRecorder, tree: &BlockTree, p: usize, tip: NodeIdx| {
        let (run, len) = spines[p].record(tree, tip);
        let op = recorder.instantaneous(
            ProcessId(p as u32),
            BtOperation::Read,
            BtResponse::Chain(placeholder.clone()),
        );
        reads.push((op.0 as usize, p, run, len));
    };

    for round in 0..config.rounds {
        let p = round % config.processes;
        // Optionally refresh the local view to the globally selected chain.
        if rng.gen_bool(config.sync_probability.clamp(0.0, 1.0)) {
            local_tips[p] = selection.select_tip(&tree);
        }
        let parent = tree.block_at(local_tips[p]).clone();
        nonce += 1;
        let candidate = BlockBuilder::new(&parent)
            .producer(p as u32)
            .nonce(nonce)
            .build();

        let op = recorder.invoke(ProcessId(p as u32), BtOperation::Append(candidate.clone()));
        let (grant, _) = oracle.get_token_until_granted(p, &parent, candidate);
        let outcome = oracle.consume_token(&grant);
        log.record(&grant, &outcome);
        if outcome.accepted {
            tree.insert(grant.block.clone())
                .expect("granted blocks attach to known parents");
            local_tips[p] = tree
                .idx_of(grant.block.id)
                .expect("an inserted block is in the tree");
        }
        recorder.respond(op, BtResponse::Appended(outcome.accepted));

        // The process reads its own view of the chain.
        read(&mut recorder, &tree, p, local_tips[p]);
    }

    // Quiescent final round: everyone converges on the selected chain.
    let final_tip = selection.select_tip(&tree);
    for p in 0..config.processes {
        read(&mut recorder, &tree, p, final_tip);
    }

    // A fresh recorder numbers its operations 0, 1, … in record order.
    let mut records = recorder.into_history().into_records();
    for (at, p, run, len) in reads {
        debug_assert_eq!(records[at].id.0, at as u64);
        records[at].response = Some(BtResponse::Chain(spines[p].view(run, len)));
    }
    ContendedRun {
        history: BtHistory::from_records(records),
        log,
        tree,
        oracle: kind,
        spine_blocks: spines.iter().map(ReadSpines::spine_blocks).sum(),
    }
}

/// Result of an inclusion experiment over a family of generated runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InclusionReport {
    /// Number of runs generated.
    pub total: usize,
    /// Number of runs whose history lies in the larger family.
    pub included: usize,
    /// Number of runs witnessing strictness (in the larger family but not in
    /// the smaller one).
    pub strict_witnesses: usize,
}

impl InclusionReport {
    /// Returns `true` iff every generated run was included.
    pub fn inclusion_holds(&self) -> bool {
        self.included == self.total
    }

    /// Returns `true` iff at least one strictness witness was found.
    pub fn is_strict(&self) -> bool {
        self.strict_witnesses > 0
    }
}

/// Theorem 3.4 (and 3.3 for `k2 = None`): every history generated with
/// Θ_F,k1 respects the fork bound `k2 ≥ k1`; runs generated with the larger
/// bound can exceed `k1` (strictness witnesses).
pub fn fork_bound_inclusion(
    k1: usize,
    k2: Option<usize>,
    seeds: &[u64],
    base: ContendedRunConfig,
) -> InclusionReport {
    let mut report = InclusionReport::default();
    let upper_checker = match k2 {
        Some(k2) => ForkCoherenceChecker::frugal(k2),
        None => ForkCoherenceChecker::prodigal(),
    };
    let lower_checker = ForkCoherenceChecker::frugal(k1);

    for &seed in seeds {
        let config = ContendedRunConfig { seed, ..base };
        // Runs generated with the *smaller* bound must satisfy the larger.
        let small = run_contended(OracleKind::Frugal(k1), config);
        report.total += 1;
        if upper_checker.holds(&small.log) {
            report.included += 1;
        }
        // Runs generated with the *larger* bound may violate the smaller:
        // count the witnesses of strict inclusion.
        let large_kind = match k2 {
            Some(k2) => OracleKind::Frugal(k2),
            None => OracleKind::Prodigal,
        };
        let large = run_contended(large_kind, config);
        if !lower_checker.holds(&large.log) {
            report.strict_witnesses += 1;
        }
    }
    report
}

/// Theorem 3.1: every generated history admitted by SC is admitted by EC,
/// and some history is admitted by EC but not SC.
pub fn sc_subset_ec(
    kinds: &[OracleKind],
    seeds: &[u64],
    base: ContendedRunConfig,
) -> InclusionReport {
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let mut report = InclusionReport::default();
    for &kind in kinds {
        for &seed in seeds {
            let config = ContendedRunConfig { seed, ..base };
            let run = run_contended(kind, config);
            let in_sc = sc.admits(&run.history);
            let in_ec = ec.admits(&run.history);
            report.total += 1;
            // Inclusion: SC ⊆ EC.
            if !in_sc || in_ec {
                report.included += 1;
            }
            // Strictness: EC \ SC non-empty.
            if in_ec && !in_sc {
                report.strict_witnesses += 1;
            }
        }
    }
    report
}

/// Theorem 4.8 experiment: counts, over the given seeds, how many contended
/// runs of each oracle kind violate Strong Prefix.  The frugal k=1 oracle
/// must never violate it; permissive oracles under contention must produce
/// violations (the configurations greyed out in Figure 14).
pub fn strong_prefix_violations(
    kind: OracleKind,
    seeds: &[u64],
    base: ContendedRunConfig,
) -> (usize, usize) {
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let mut violating = 0;
    for &seed in seeds {
        let config = ContendedRunConfig { seed, ..base };
        let run = run_contended(kind, config);
        if !sc.admits(&run.history) {
            violating += 1;
        }
    }
    (violating, seeds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contended(seed: u64) -> ContendedRunConfig {
        ContendedRunConfig {
            processes: 4,
            rounds: 32,
            sync_probability: 0.2,
            seed,
        }
    }

    #[test]
    fn frugal_one_runs_produce_a_single_chain() {
        let run = run_contended(OracleKind::Frugal(1), contended(1));
        assert_eq!(run.tree.max_fork_degree(), 1);
        assert!(run.max_forks() <= 1);
        assert!(ForkCoherenceChecker::frugal(1).holds(&run.log));
    }

    #[test]
    fn prodigal_runs_under_contention_fork() {
        let run = run_contended(OracleKind::Prodigal, contended(2));
        assert!(
            run.max_forks() > 1,
            "expected forks under contention, got {}",
            run.max_forks()
        );
    }

    #[test]
    fn fork_bound_inclusion_holds_and_is_strict() {
        let seeds: Vec<u64> = (0..6).collect();
        let report = fork_bound_inclusion(1, Some(3), &seeds, contended(0));
        assert!(report.inclusion_holds(), "{report:?}");
        assert!(report.is_strict(), "{report:?}");

        let report_p = fork_bound_inclusion(2, None, &seeds, contended(0));
        assert!(report_p.inclusion_holds(), "{report_p:?}");
        assert!(report_p.is_strict(), "{report_p:?}");
    }

    #[test]
    fn sc_subset_ec_holds_with_strict_witness() {
        let seeds: Vec<u64> = (0..5).collect();
        let kinds = [OracleKind::Frugal(1), OracleKind::Prodigal];
        let report = sc_subset_ec(&kinds, &seeds, contended(0));
        assert!(report.inclusion_holds(), "{report:?}");
        assert!(report.is_strict(), "{report:?}");
    }

    #[test]
    fn strong_prefix_requires_the_frugal_k1_oracle() {
        let seeds: Vec<u64> = (0..5).collect();
        let (violations_k1, total) =
            strong_prefix_violations(OracleKind::Frugal(1), &seeds, contended(0));
        assert_eq!(violations_k1, 0, "k=1 never violates Strong Prefix");
        let (violations_p, _) =
            strong_prefix_violations(OracleKind::Prodigal, &seeds, contended(0));
        assert!(violations_p > 0, "the prodigal oracle must violate Strong Prefix under contention ({violations_p}/{total})");
        let (violations_k3, _) =
            strong_prefix_violations(OracleKind::Frugal(3), &seeds, contended(0));
        assert!(
            violations_k3 > 0,
            "k>1 also violates Strong Prefix under contention"
        );
    }

    #[test]
    fn oracle_kind_labels() {
        assert_eq!(OracleKind::Frugal(1).label(), "frugal(k=1)");
        assert_eq!(OracleKind::Prodigal.label(), "prodigal");
    }

    #[test]
    fn perfectly_synchronised_runs_satisfy_strong_consistency_even_with_prodigal() {
        // With sync_probability = 1 there is no contention: every append
        // lands on the tip of the selected chain, so even the prodigal
        // oracle yields a single chain (this is the "fault-free, perfectly
        // synchronised" corner where forks simply do not arise).
        let config = ContendedRunConfig {
            processes: 3,
            rounds: 24,
            sync_probability: 1.0,
            seed: 7,
        };
        let run = run_contended(OracleKind::Prodigal, config);
        assert_eq!(run.tree.max_fork_degree(), 1);
        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert!(sc.admits(&run.history), "{}", sc.check(&run.history));
    }
}
