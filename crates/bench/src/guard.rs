//! The verdict guard behind `cargo run --bin bench_guard -- --verdicts`.
//!
//! Extracts the boolean consistency verdicts from a freshly generated
//! report — the `strong`/`eventual` flags of `BENCH_scenarios.json` cells,
//! the `admitted` flags of `BENCH_concurrent.json` verification rows, the
//! `admitted`/`converged` flags of `BENCH_robustness.json`, the
//! `under_ceiling`/`healed` flags of `BENCH_store.json` and the
//! `exhausted`/`as_expected` flags of `BENCH_check.json` — and fails if
//! any verdict that the committed baseline records as *admitted* flips to
//! not-admitted or goes missing.  Rows that vanished from the fresh report
//! are failures too (a removed cell silently retires its baseline);
//! brand-new rows are reported but allowed.
//!
//! Verdicts are hardware-independent by construction; timings are not,
//! and are not guarded here — `benchmark/` is the perf ledger, and
//! `BENCH_tree.json` is an unguarded record.

use crate::json::{parse, Json};

/// One boolean consistency verdict extracted from a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictRow {
    /// Stable row key, e.g. `cells/eclipse/s2/eventual` or
    /// `verification/strong-cas/t4`.
    pub key: String,
    /// The recorded verdict.
    pub admitted: bool,
}

fn push_bool_fields(
    rows: &mut Vec<VerdictRow>,
    item: &Json,
    prefix: &str,
    fields: &[&str],
) -> Result<(), String> {
    for &field in fields {
        let admitted = item
            .get(field)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("{prefix} has no boolean \"{field}\""))?;
        rows.push(VerdictRow {
            key: format!("{prefix}/{field}"),
            admitted,
        });
    }
    Ok(())
}

/// Extracts the consistency verdicts from a parsed report.  Understands
/// the shipped report shapes and takes whichever sections are present:
///
/// * `cells` (scenario sweep): `strong` / `eventual` / `converged` per
///   `(scenario, seed)` cell;
/// * `verification` (concurrent bench): `admitted` per `(path, threads)`;
/// * `chaos` / `recovery` / `sync` (robustness suite): `admitted` per
///   chaos cell, `converged` + `self_mined_kept` per recovery run,
///   `converged` per sync drill — plus a synthetic
///   `metrics/checkpoint_beats_restart` row derived from the report's mean
///   recovery rounds, admitted iff the checkpoint mode was strictly cheaper
///   than the store-less restart (so the ISSUE 6 acceptance ratio is
///   guarded alongside the boolean verdicts, not just recorded);
/// * `steady` / `corruption` (durable-store suite): `under_ceiling` per
///   steady row, `healed` + `converged` + `clean` per corruption cell.
///
/// Errors when none of the known sections exist.
pub fn verdicts_from_report(doc: &Json) -> Result<Vec<VerdictRow>, String> {
    let mut rows = Vec::new();
    if let Some(cells) = doc.get("cells").and_then(Json::as_array) {
        for (i, cell) in cells.iter().enumerate() {
            let scenario = cell
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cells[{i}] has no \"scenario\""))?;
            let seed = cell
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cells[{i}] has no \"seed\""))?;
            let prefix = format!("cells/{scenario}/s{seed}");
            push_bool_fields(
                &mut rows,
                cell,
                &prefix,
                &["strong", "eventual", "converged"],
            )?;
        }
    }
    if let Some(rows_in) = doc.get("verification").and_then(Json::as_array) {
        for (i, item) in rows_in.iter().enumerate() {
            let path = item
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("verification[{i}] has no \"path\""))?;
            let threads = item
                .get("threads")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("verification[{i}] has no \"threads\""))?;
            let prefix = format!("verification/{path}/t{threads}");
            push_bool_fields(&mut rows, item, &prefix, &["admitted"])?;
        }
    }
    if let Some(cells) = doc.get("chaos").and_then(Json::as_array) {
        for (i, cell) in cells.iter().enumerate() {
            let label = cell
                .get("cell")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("chaos[{i}] has no \"cell\""))?;
            let prefix = format!("chaos/{label}");
            push_bool_fields(&mut rows, cell, &prefix, &["admitted"])?;
        }
    }
    if let Some(runs) = doc.get("recovery").and_then(Json::as_array) {
        for (i, run) in runs.iter().enumerate() {
            let mode = run
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("recovery[{i}] has no \"mode\""))?;
            let seed = run
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("recovery[{i}] has no \"seed\""))?;
            let prefix = format!("recovery/s{seed}/{mode}");
            push_bool_fields(&mut rows, run, &prefix, &["converged", "self_mined_kept"])?;
        }
    }
    if let Some(drills) = doc.get("sync").and_then(Json::as_array) {
        for (i, drill) in drills.iter().enumerate() {
            let fault = drill
                .get("fault")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("sync[{i}] has no \"fault\""))?;
            let seed = drill
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("sync[{i}] has no \"seed\""))?;
            let prefix = format!("sync/{fault}/s{seed}");
            push_bool_fields(&mut rows, drill, &prefix, &["converged"])?;
        }
    }
    if let Some(metrics) = doc.get("metrics") {
        // The checkpoint-vs-restart mean-rounds ratio of the robustness
        // report, distilled to a verdict: recovery from the durable store
        // must stay *strictly* cheaper than a store-less full re-sync.
        if let (Some(checkpoint), Some(restart)) = (
            metrics
                .get("checkpoint_recovery_rounds")
                .and_then(Json::as_f64),
            metrics
                .get("restart_recovery_rounds")
                .and_then(Json::as_f64),
        ) {
            rows.push(VerdictRow {
                key: "metrics/checkpoint_beats_restart".to_string(),
                admitted: checkpoint > 0.0 && restart > 0.0 && checkpoint < restart,
            });
        }
    }
    if let Some(rows_in) = doc.get("steady").and_then(Json::as_array) {
        for (i, item) in rows_in.iter().enumerate() {
            let scale = item
                .get("scale")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("steady[{i}] has no \"scale\""))?;
            let prefix = format!("steady/{scale}");
            push_bool_fields(&mut rows, item, &prefix, &["under_ceiling"])?;
        }
    }
    if let Some(cells) = doc.get("corruption").and_then(Json::as_array) {
        for (i, cell) in cells.iter().enumerate() {
            let fault = cell
                .get("fault")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("corruption[{i}] has no \"fault\""))?;
            let seed = cell
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("corruption[{i}] has no \"seed\""))?;
            let prefix = format!("corruption/{fault}/s{seed}");
            push_bool_fields(&mut rows, cell, &prefix, &["healed", "converged", "clean"])?;
        }
    }
    if let Some(cells) = doc.get("model").and_then(Json::as_array) {
        for (i, cell) in cells.iter().enumerate() {
            let name = cell
                .get("cell")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("model[{i}] has no \"cell\""))?;
            let prefix = format!("model/{name}");
            push_bool_fields(&mut rows, cell, &prefix, &["exhausted", "as_expected"])?;
        }
    }
    if let Some(probes) = doc.get("race").and_then(Json::as_array) {
        for (i, probe) in probes.iter().enumerate() {
            let name = probe
                .get("probe")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("race[{i}] has no \"probe\""))?;
            let prefix = format!("race/{name}");
            push_bool_fields(&mut rows, probe, &prefix, &["as_expected"])?;
        }
    }
    if rows.is_empty() {
        return Err(
            "report has none of the verdict sections (cells / verification / chaos / recovery / \
             sync / steady / corruption / model / race)"
                .to_string(),
        );
    }
    Ok(rows)
}

/// Parses a report document and extracts its verdict rows.
pub fn verdicts_from_str(input: &str) -> Result<Vec<VerdictRow>, String> {
    let doc = parse(input).map_err(|e| e.to_string())?;
    verdicts_from_report(&doc)
}

/// Outcome of a verdict-guard comparison.
#[derive(Clone, Debug, Default)]
pub struct VerdictGuardReport {
    /// Baseline-admitted verdicts that flipped to not-admitted.
    pub flipped: Vec<String>,
    /// Baseline-admitted verdicts missing from the fresh report.
    pub missing: Vec<String>,
    /// Baseline *not*-admitted verdicts now admitted (allowed; listed).
    pub improved: Vec<String>,
    /// Fresh rows with no baseline (allowed; listed for visibility).
    pub added: Vec<String>,
    /// Rows compared.
    pub compared: usize,
}

impl VerdictGuardReport {
    /// `true` iff no admitted verdict flipped or went missing.
    pub fn passed(&self) -> bool {
        self.flipped.is_empty() && self.missing.is_empty()
    }
}

/// Compares fresh verdicts against the baseline.  Only *admitted →
/// not-admitted* transitions (and vanished admitted rows) fail: a
/// scenario that the paper expects to violate Strong Consistency is
/// recorded as `false` in the baseline and must simply not regress the
/// other way silently — those flips are listed as improvements.
pub fn compare_verdicts(baseline: &[VerdictRow], fresh: &[VerdictRow]) -> VerdictGuardReport {
    let mut report = VerdictGuardReport::default();
    for base in baseline {
        match fresh.iter().find(|f| f.key == base.key) {
            None if base.admitted => report.missing.push(base.key.clone()),
            None => {}
            Some(f) => {
                report.compared += 1;
                if base.admitted && !f.admitted {
                    report.flipped.push(base.key.clone());
                } else if !base.admitted && f.admitted {
                    report.improved.push(base.key.clone());
                }
            }
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.key == f.key) {
            report.added.push(f.key.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(key: &str, admitted: bool) -> VerdictRow {
        VerdictRow {
            key: key.into(),
            admitted,
        }
    }

    #[test]
    fn verdicts_parse_from_all_three_report_shapes() {
        let rows = verdicts_from_str(
            r#"{"cells": [
                {"scenario": "eclipse", "seed": 2, "strong": false, "eventual": true, "converged": true}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![
                verdict("cells/eclipse/s2/strong", false),
                verdict("cells/eclipse/s2/eventual", true),
                verdict("cells/eclipse/s2/converged", true),
            ]
        );
        let rows = verdicts_from_str(
            r#"{"verification": [
                {"path": "strong-cas", "threads": 4, "admitted": true}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![verdict("verification/strong-cas/t4/admitted", true)]
        );
        let rows = verdicts_from_str(
            r#"{"chaos": [{"cell": "strong-cas/token-chaos/s5/t2", "admitted": true}],
                "recovery": [{"seed": 5, "mode": "checkpoint", "converged": true, "self_mined_kept": true}],
                "sync": [{"fault": "corruption", "seed": 5, "converged": true}]}"#,
        )
        .unwrap();
        assert_eq!(rows.len(), 1 + 2 + 1);
        assert!(rows.iter().all(|r| r.admitted));
        assert!(verdicts_from_str("{\"bench\": \"tree\"}").is_err());
    }

    #[test]
    fn model_checker_report_sections_yield_verdicts() {
        let rows = verdicts_from_str(
            r#"{"model": [
                    {"cell": "strong-2c", "exhausted": true, "as_expected": true},
                    {"cell": "racy-2c", "exhausted": true, "as_expected": true}
                ],
                "race": [
                    {"probe": "strong-cas", "races": 0, "as_expected": true},
                    {"probe": "racy-scripted", "races": 1, "as_expected": true}
                ]}"#,
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![
                verdict("model/strong-2c/exhausted", true),
                verdict("model/strong-2c/as_expected", true),
                verdict("model/racy-2c/exhausted", true),
                verdict("model/racy-2c/as_expected", true),
                verdict("race/strong-cas/as_expected", true),
                verdict("race/racy-scripted/as_expected", true),
            ]
        );
        assert!(verdicts_from_str(r#"{"model": [{"cell": "x"}]}"#).is_err());
    }

    #[test]
    fn store_report_sections_yield_verdicts() {
        let rows = verdicts_from_str(
            r#"{"steady": [{"scale": "full", "under_ceiling": true}],
                "corruption": [
                    {"fault": "bit-flip", "seed": 13, "healed": true, "converged": true, "clean": true}
                ]}"#,
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![
                verdict("steady/full/under_ceiling", true),
                verdict("corruption/bit-flip/s13/healed", true),
                verdict("corruption/bit-flip/s13/converged", true),
                verdict("corruption/bit-flip/s13/clean", true),
            ]
        );
    }

    #[test]
    fn the_checkpoint_vs_restart_ratio_is_guarded_as_a_verdict() {
        // Strictly cheaper: admitted.
        let rows = verdicts_from_str(
            r#"{"sync": [{"fault": "loss-churn", "seed": 5, "converged": true}],
                "metrics": {"checkpoint_recovery_rounds": 2.0, "restart_recovery_rounds": 5.3}}"#,
        )
        .unwrap();
        let ratio = rows
            .iter()
            .find(|r| r.key == "metrics/checkpoint_beats_restart")
            .expect("ratio row present");
        assert!(ratio.admitted);
        // Checkpoint no longer cheaper: the verdict flips, so a baseline that
        // recorded it admitted fails the guard.
        let rows = verdicts_from_str(
            r#"{"sync": [{"fault": "loss-churn", "seed": 5, "converged": true}],
                "metrics": {"checkpoint_recovery_rounds": 6.0, "restart_recovery_rounds": 5.3}}"#,
        )
        .unwrap();
        let fresh = rows
            .iter()
            .find(|r| r.key == "metrics/checkpoint_beats_restart")
            .unwrap();
        assert!(!fresh.admitted);
        let report = compare_verdicts(std::slice::from_ref(ratio), std::slice::from_ref(fresh));
        assert!(!report.passed());
        assert_eq!(report.flipped, vec!["metrics/checkpoint_beats_restart"]);
        // Reports without the recovery metrics (scenarios, concurrent)
        // simply do not grow the row.
        let rows = verdicts_from_str(
            r#"{"cells": [{"scenario": "x", "seed": 1, "strong": true, "eventual": true, "converged": true}],
                "metrics": {"other": 1.0}}"#,
        )
        .unwrap();
        assert!(!rows.iter().any(|r| r.key.starts_with("metrics/")));
    }

    #[test]
    fn admitted_verdicts_must_not_flip_or_vanish() {
        let baseline = [
            verdict("verification/strong-cas/t4", true),
            verdict("cells/eclipse/s1/strong", false),
            verdict("chaos/x", true),
        ];
        // A clean fresh report passes; a not-admitted baseline may improve.
        let fresh = [
            verdict("verification/strong-cas/t4", true),
            verdict("cells/eclipse/s1/strong", true),
            verdict("chaos/x", true),
            verdict("chaos/brand-new", false),
        ];
        let report = compare_verdicts(&baseline, &fresh);
        assert!(report.passed());
        assert_eq!(report.improved, vec!["cells/eclipse/s1/strong"]);
        assert_eq!(report.added, vec!["chaos/brand-new"]);
        // A flip or a vanished admitted row fails.
        let fresh = [verdict("verification/strong-cas/t4", false)];
        let report = compare_verdicts(&baseline, &fresh);
        assert!(!report.passed());
        assert_eq!(report.flipped, vec!["verification/strong-cas/t4"]);
        assert_eq!(report.missing, vec!["chaos/x"]);
    }
}
