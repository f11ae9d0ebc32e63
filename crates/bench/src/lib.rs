//! # `btadt-bench` — Table 1, the figures, and the committed verdict reports
//!
//! Binaries (`cargo run --release -p btadt-bench --bin <name>`):
//!
//! * `table1` — regenerates Table 1 (the classification of Bitcoin,
//!   Ethereum, Algorand, ByzCoin, PeerCensus, Red Belly and Hyperledger
//!   Fabric);
//! * `figures` — regenerates the figure experiments: SC/EC classification
//!   of contended runs per oracle (Figures 2–4) and the hierarchy
//!   inclusions and Strong-Prefix counts of Figures 8 and 14 (the oracle
//!   transitions, consensus reductions and update-agreement necessity are
//!   tier-1 tests: `tests/figures.rs`, `tests/theorems.rs`);
//! * `scenarios`, `concurrent`, `chaos` and `store` — the generators of
//!   `BENCH_scenarios.json`, `BENCH_concurrent.json`,
//!   `BENCH_robustness.json` and `BENCH_store.json` (`--smoke` for the
//!   CI-sized run).
//!
//! Every committed `BENCH_*.json` is a pure function of its seeds — no
//! wall time, no host parallelism — so each one regenerates byte for byte
//! on any host and is guarded by `git diff --exit-code`.  Timings live in
//! `benchmark/`, the one perf ledger.  The library hosts the experiment
//! drivers the binaries share; the JSON writer, worker pool, flag parser
//! and write path are [`btadt_types::report`], of which [`harness`] and
//! [`json`] re-export what `benchmark/` imports.

#![warn(missing_docs)]

pub mod concurrent;
pub mod harness;
pub mod json;
pub mod robustness;
pub mod scenarios;
pub mod store;

use std::sync::Arc;

use btadt_core::hierarchy::{
    fork_bound_inclusion, run_contended, sc_subset_ec, strong_prefix_violations,
    ContendedRunConfig, InclusionReport, OracleKind,
};
use btadt_core::{eventual_consistency, strong_consistency};
use btadt_history::ConsistencyCriterion;
use btadt_types::{AlwaysValid, LengthScore};

/// Default contended-run configuration used by the hierarchy experiments.
pub fn default_contention(seed: u64) -> ContendedRunConfig {
    ContendedRunConfig {
        processes: 4,
        rounds: 40,
        sync_probability: 0.25,
        seed,
    }
}

/// The oracles the SC ⊆ EC and Strong-Prefix experiments compare, in
/// [`HierarchyReport::strong_prefix`] order.
const KINDS: [OracleKind; 3] = [
    OracleKind::Frugal(1),
    OracleKind::Frugal(4),
    OracleKind::Prodigal,
];

/// Outcome of the Figure 8 / Figure 14 hierarchy experiment.
#[derive(Clone, Debug)]
pub struct HierarchyReport {
    /// Θ_F,k1 ⊆ Θ_F,k2 inclusions, per (k1, k2) pair.
    pub fork_inclusions: Vec<(usize, Option<usize>, InclusionReport)>,
    /// SC ⊆ EC inclusion.
    pub sc_ec: InclusionReport,
    /// Strong-Prefix violations per oracle kind: (label, violating, total),
    /// for frugal(k=1), frugal(k=4) and prodigal.
    pub strong_prefix: Vec<(String, usize, usize)>,
}

impl HierarchyReport {
    /// Whether the runs show the paper's hierarchy: every Θ_F,k1 ⊆ Θ_F,k2
    /// inclusion holds, SC ⊆ EC holds strictly, frugal(k=1) never violates
    /// Strong Prefix and prodigal does.
    pub fn confirms_paper(&self) -> bool {
        let fork_inclusions = self
            .fork_inclusions
            .iter()
            .all(|(_, _, inc)| inc.inclusion_holds());
        fork_inclusions
            && self.sc_ec.inclusion_holds()
            && self.sc_ec.is_strict()
            && self.strong_prefix[0].1 == 0
            && self.strong_prefix[2].1 > 0
    }
}

/// Runs the hierarchy experiments of Figures 8 and 14 over the given seeds.
pub fn hierarchy_report(seeds: &[u64]) -> HierarchyReport {
    let base = default_contention(0);
    let fork_pairs: [(usize, Option<usize>); 3] = [(1, Some(2)), (2, Some(4)), (2, None)];
    let fork_inclusions = fork_pairs
        .iter()
        .map(|&(k1, k2)| (k1, k2, fork_bound_inclusion(k1, k2, seeds, base)))
        .collect();
    let sc_ec = sc_subset_ec(&KINDS, seeds, base);
    let strong_prefix = (KINDS.iter())
        .map(|&kind| {
            let (v, t) = strong_prefix_violations(kind, seeds, base);
            (kind.label(), v, t)
        })
        .collect();
    HierarchyReport {
        fork_inclusions,
        sc_ec,
        strong_prefix,
    }
}

/// Classifies one contended run under both criteria; returns
/// `(strong, eventual, max_forks)`.  Used by the `figures` binary.
pub fn classify_contended(kind: OracleKind, seed: u64) -> (bool, bool, usize) {
    let run = run_contended(kind, default_contention(seed));
    let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
    (
        sc.admits(&run.history),
        ec.admits(&run.history),
        run.max_forks(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_report_confirms_the_paper() {
        let seeds: Vec<u64> = (0..4).collect();
        let report = hierarchy_report(&seeds);
        assert!(report.confirms_paper(), "{report:#?}");
    }

    #[test]
    fn classify_contended_matches_expectations() {
        let (strong, eventual, forks) = classify_contended(OracleKind::Frugal(1), 3);
        assert!(strong && eventual);
        assert!(forks <= 1);
        let (strong, eventual, forks) = classify_contended(OracleKind::Prodigal, 3);
        assert!(!strong && eventual);
        assert!(forks > 1);
        // Figures 2–4 on one seed: only Θ_F,k=1 keeps Strong Consistency; a
        // wider fork bound loses it like the prodigal oracle, and every
        // contended run stays eventually consistent.
        for (kind, expect_strong) in [
            (OracleKind::Frugal(1), true),
            (OracleKind::Prodigal, false),
            (OracleKind::Frugal(4), false),
        ] {
            let (strong, eventual, _) = classify_contended(kind, 11);
            assert_eq!(strong, expect_strong, "{}", kind.label());
            assert!(eventual, "{}", kind.label());
        }
    }
}
