//! One index, shared or not, one verdict: a criterion's parts answer from
//! the index its `check` builds once, and each property checked on its own
//! builds its own.  For every part, the violations it adds to the
//! criterion's verdict must equal its standalone `check` on the same
//! history — so the criterion's verdict is the standalone verdicts
//! concatenated in part order — on recorded contended runs and on the
//! hostile battery's 330 seeds.

mod battery;

use std::collections::BTreeMap;
use std::sync::Arc;

use btadt_core::hierarchy::{run_contended, ContendedRunConfig, OracleKind};
use btadt_core::{
    eventual_consistency, strong_consistency, BlockValidity, BtHistory, BtOperation, BtResponse,
    EventualPrefix, EverGrowingTree, LocalMonotonicRead, StrongPrefix,
};
use btadt_history::{ConsistencyCriterion, Violation};
use btadt_types::{AlwaysValid, LengthScore, NoDoubleSpend, Score, ValidityPredicate, WorkScore};

type Criterion = Box<dyn ConsistencyCriterion<BtOperation, BtResponse>>;

/// Checks SC and EC against their parts alone; returns the violations
/// found per property, so a caller can tell the comparison was not vacuous.
fn assert_parts_agree(
    history: &BtHistory,
    score: &Arc<dyn Score>,
    validity: &Arc<dyn ValidityPredicate>,
    label: &str,
) -> BTreeMap<&'static str, usize> {
    let alone: Vec<Criterion> = vec![
        Box::new(BlockValidity::new(validity.clone())),
        Box::new(LocalMonotonicRead::new(score.clone())),
        Box::new(StrongPrefix::new()),
        Box::new(EverGrowingTree::new(score.clone())),
        Box::new(EventualPrefix::new(score.clone())),
    ];
    let alone: BTreeMap<&str, Vec<Violation>> = alone
        .iter()
        .map(|p| (p.name(), p.check(history).violations))
        .collect();
    let mut found = BTreeMap::new();
    for criterion in [
        strong_consistency(score.clone(), validity.clone()),
        eventual_consistency(score.clone(), validity.clone()),
    ] {
        let shared = criterion.check(history).violations;
        let mut expected = Vec::new();
        for part in criterion.part_names() {
            let mine: Vec<&Violation> = shared.iter().filter(|v| v.property == part).collect();
            assert_eq!(
                mine,
                alone[part].iter().collect::<Vec<_>>(),
                "{label}: {part} in {} differs from {part} alone",
                criterion.name()
            );
            *found.entry(part).or_default() += mine.len();
            expected.extend(alone[part].iter().cloned());
        }
        assert_eq!(shared, expected, "{label}: {} part order", criterion.name());
    }
    found
}

fn scores_and_validities() -> Vec<(Arc<dyn Score>, Arc<dyn ValidityPredicate>)> {
    vec![
        (Arc::new(LengthScore), Arc::new(AlwaysValid)),
        (Arc::new(LengthScore), Arc::new(NoDoubleSpend)),
        (Arc::new(WorkScore), Arc::new(AlwaysValid)),
        (Arc::new(WorkScore), Arc::new(NoDoubleSpend)),
    ]
}

#[test]
fn recorded_runs_get_the_same_violations_shared_and_alone() {
    let mut found: BTreeMap<&str, usize> = BTreeMap::new();
    for kind in [
        OracleKind::Frugal(1),
        OracleKind::Frugal(3),
        OracleKind::Prodigal,
    ] {
        for seed in 0..4u64 {
            for sync in [0.1, 0.5, 1.0] {
                let config = ContendedRunConfig {
                    processes: 4,
                    rounds: 24,
                    sync_probability: sync,
                    seed,
                };
                let run = run_contended(kind, config);
                for (score, validity) in scores_and_validities() {
                    let label = format!("{} seed {seed} sync {sync}", kind.label());
                    for (property, n) in assert_parts_agree(&run.history, &score, &validity, &label)
                    {
                        *found.entry(property).or_default() += n;
                    }
                }
            }
        }
    }
    assert!(found["strong-prefix"] > 0, "{found:?}");
}

#[test]
fn hostile_histories_get_the_same_violations_shared_and_alone() {
    let mut found: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 0..330u64 {
        let (history, applied) = battery::hostile_history(seed);
        for (score, validity) in scores_and_validities() {
            let label = format!("seed {seed}, mutations {applied:?}");
            for (property, n) in assert_parts_agree(&history, &score, &validity, &label) {
                *found.entry(property).or_default() += n;
            }
        }
    }
    for property in [
        "block-validity",
        "local-monotonic-read",
        "strong-prefix",
        "ever-growing-tree",
        "eventual-prefix",
    ] {
        assert!(
            found.get(property).copied().unwrap_or(0) > 0,
            "{property} never rejected: {found:?}"
        );
    }
}
