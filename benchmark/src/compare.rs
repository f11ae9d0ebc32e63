//! `compare <setA> <setB>`: did anything get worse between two sets of
//! runs?
//!
//! A set is a directory of result documents as `run --out <dir>` writes
//! them — several runs per workload.  Every (workload, metric) pair gets
//! its own row: medians, quartiles, the relative difference with its base
//! (set A's median), the bound from `BENCHMARK.json`, and a verdict.  A
//! combined score is never computed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use btadt_bench::json::{self, Json};

use crate::metrics::{Better, END_TO_END};
use crate::report::table_number;
use crate::stats::quartiles;

/// The verdict on one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than set A's own spread.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound: no claim either way.
    Unresolved,
    /// Not a gated metric: shown for context only.
    Informational,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Informational => "info",
        }
    }
}

/// One side's values of one row.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    /// Number of runs.
    pub n: usize,
    /// First quartile, median, third quartile (all equal for one run).
    pub quartiles: (f64, f64, f64),
    /// Smallest and largest run.
    pub range: (f64, f64),
}

impl Side {
    /// No runs at all give a side of NaNs, shown as `-`.
    fn of(values: &[f64]) -> Side {
        let q = if values.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            quartiles(values)
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Side {
            n: values.len(),
            quartiles: q,
            range: (min, max),
        }
    }

    fn spread(&self) -> f64 {
        (self.quartiles.2 - self.quartiles.0) / self.quartiles.1.abs()
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Set A (the base of every ratio).
    pub a: Side,
    /// Set B.
    pub b: Side,
    /// `(median B − median A) ÷ median A`.
    pub relative_difference: f64,
    /// The regression bound, for gated metrics.
    pub bound: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one gated metric.
pub fn judge(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Higher => -1.0,
        Better::Lower => 1.0,
    };
    let worse_by = sign * (b.quartiles.1 - a.quartiles.1) / a.quartiles.1.abs();
    // Every run of B better than every run of A settles it whatever the
    // spread.
    let b_dominates = match better {
        Better::Higher => b.range.0 > a.range.1,
        Better::Lower => b.range.1 < a.range.0,
    };
    if a.spread().max(b.spread()) > bound {
        return if b_dominates {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    // A gain needs runs to judge the spread by, must exceed it, and the
    // two interquartile ranges must not overlap (two sets of the same
    // binary differ by a few percent in their medians).
    let spread_known = a.n >= 2 && b.n >= 2;
    let apart = match better {
        Better::Higher => b.quartiles.0 > a.quartiles.2,
        Better::Lower => b.quartiles.2 < a.quartiles.0,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if spread_known && apart && -worse_by > a.spread().max(b.spread()) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

type Values = BTreeMap<(String, String), (String, Vec<f64>)>;

/// The row every workload gets besides its metrics: failed ÷ attempted of
/// each run (1 for a run that ended without a result).
pub const FAILED_OPS_SHARE: &str = "failed_ops_share";

/// What one completed run says about itself besides its metrics.
#[derive(Clone, Debug, PartialEq)]
struct Run {
    /// Client threads, and whether the host had the cores for them.
    threads: u64,
    comparable: bool,
    /// `--smoke` and the frozen sizes: two runs at different sizes measured
    /// different things.
    smoke: bool,
    sizes: Json,
    /// The seed and the digest of the inputs built from it.
    seed: u64,
    digest: String,
    /// `failed ÷ attempted`.
    failed_share: f64,
}

/// A loaded set, per workload: values per metric, the completed runs, and
/// how many runs ended without a result (wall cap, crash — `run --all`
/// leaves a marker in their place).
#[derive(Clone, Debug, Default)]
pub struct Set {
    values: Values,
    runs: BTreeMap<String, Vec<Run>>,
    aborted: BTreeMap<String, usize>,
}

fn load_document(doc: &Json, set: &mut Set) -> Option<()> {
    let workload = doc.get("workload")?.as_str()?.to_string();
    let runs = set.runs.entry(workload.clone()).or_default();
    if doc.get("aborted").and_then(Json::as_bool) == Some(true) {
        *set.aborted.entry(workload).or_default() += 1;
        return Some(());
    }
    runs.push(Run {
        threads: doc.get("threads")?.as_f64()? as u64,
        comparable: doc.get("comparable")?.as_bool()?,
        smoke: doc.get("smoke")?.as_bool()?,
        sizes: doc.get("sizes")?.clone(),
        seed: doc.get("seed")?.as_f64()? as u64,
        digest: doc.get("input_digest")?.as_str()?.to_string(),
        failed_share: doc.get("failed")?.as_f64()? / doc.get("attempted")?.as_f64()?,
    });
    for section in ["metrics", "informational"] {
        let Json::Object(metrics) = doc.get(section)? else {
            return None;
        };
        for (name, m) in metrics {
            let (Some(value), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                continue;
            };
            set.values
                .entry((workload.clone(), name.clone()))
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(value);
        }
    }
    Some(())
}

/// Loads every `*.json` result document of a directory.
pub fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    for path in &names {
        let is_trace = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("trace-"));
        if is_trace {
            continue;
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        load_document(&doc, &mut set)
            .ok_or_else(|| format!("{}: not a result document", path.display()))?;
    }
    if set.runs.is_empty() {
        return Err(format!("{} holds no result documents", dir.display()));
    }
    Ok(set)
}

/// Refuses runs of `workload` that did not measure the same thing: another
/// size, or other inputs from the same seed.  Returns whether every run
/// used the same client count on a host with the cores for it.
fn like_for_like(workload: &str, runs: &[&Run]) -> Result<bool, String> {
    let Some(first) = runs.first() else {
        return Ok(false);
    };
    let mut digests = BTreeMap::new();
    let mut same_clients = first.comparable;
    for run in runs {
        if (run.smoke, &run.sizes) != (first.smoke, &first.sizes) {
            return Err(format!(
                "{workload}: runs at different sizes do not compare"
            ));
        }
        let digest = digests.entry(run.seed).or_insert(&run.digest);
        if *digest != &run.digest {
            return Err(format!(
                "{workload}: seed {} gave inputs {digest} and {}: not the same benchmark",
                run.seed, run.digest
            ));
        }
        same_clients &= (run.threads, run.comparable) == (first.threads, first.comparable);
    }
    Ok(same_clients)
}

/// Compares two sets row by row: per workload every gated metric, the
/// failed share, then the informational numbers both sets have.  A gated
/// metric a set lacks is no reason to stay silent: missing from B (the
/// workload hung, crashed or stopped reporting it) it is `regressed`,
/// missing from A `unresolved`.
pub fn compare(a: &Set, b: &Set) -> Result<Vec<Row>, String> {
    let row = |workload: &str, metric: &str, unit: &str, va: &[f64], vb: &[f64]| {
        let (side_a, side_b) = (Side::of(va), Side::of(vb));
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            relative_difference: (side_b.quartiles.1 - side_a.quartiles.1)
                / side_a.quartiles.1.abs(),
            a: side_a,
            b: side_b,
            bound: None,
            verdict: Verdict::Informational,
        }
    };
    let no_runs = Vec::new();
    let workloads: BTreeSet<&String> = a.runs.keys().chain(b.runs.keys()).collect();
    let mut rows = Vec::new();
    for workload in workloads {
        let runs_a = a.runs.get(workload).unwrap_or(&no_runs);
        let runs_b = b.runs.get(workload).unwrap_or(&no_runs);
        let all: Vec<&Run> = runs_a.iter().chain(runs_b).collect();
        let like_for_like = like_for_like(workload, &all)?;
        let values = |set: &Set, metric: &str| {
            set.values
                .get(&(workload.clone(), metric.to_string()))
                .cloned()
        };

        for m in &END_TO_END {
            let (va, vb) = (values(a, m.name), values(b, m.name));
            let verdict = match (&va, &vb) {
                (None, None) => continue,
                (Some(_), None) => Verdict::Regressed,
                (None, Some(_)) => Verdict::Unresolved,
                (Some(_), Some(_)) if !like_for_like => Verdict::Unresolved,
                (Some((_, va)), Some((_, vb))) => {
                    judge(&Side::of(va), &Side::of(vb), m.better, m.bound)
                }
            };
            let (va, vb) = (va.unwrap_or_default().1, vb.unwrap_or_default().1);
            rows.push(Row {
                bound: Some(m.bound),
                verdict,
                ..row(workload, m.name, m.unit, &va, &vb)
            });
        }

        // A run without a result failed whole.
        let shares = |set: &Set, runs: &[Run]| -> Vec<f64> {
            let aborted = set.aborted.get(workload).copied().unwrap_or(0);
            let completed = runs.iter().map(|r| r.failed_share);
            completed.chain(std::iter::repeat_n(1.0, aborted)).collect()
        };
        let (fa, fb) = (shares(a, runs_a), shares(b, runs_b));
        if !fa.is_empty() && !fb.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            rows.push(Row {
                bound: Some(0.0),
                verdict: if mean(&fb) > mean(&fa) {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                },
                ..row(workload, FAILED_OPS_SHARE, "ratio", &fa, &fb)
            });
        }

        for ((w, metric), (unit, va)) in &a.values {
            let gated = END_TO_END.iter().any(|m| m.name == metric);
            if w != workload || gated {
                continue;
            }
            if let Some((_, vb)) = values(b, metric) {
                rows.push(row(workload, metric, unit, va, &vb));
            }
        }
    }
    Ok(rows)
}

/// The comparison as a table; every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<17} {:<22} {:<5} | {:>12} {:>25} {:>2} | {:>12} {:>25} {:>2} | {:>17} | {:>5} | verdict",
        "workload", "metric", "unit", "A median", "[q1 .. q3]", "n", "B median", "[q1 .. q3]", "n",
        "(B-A)/A-median", "bound"
    );
    let side = |s: &Side| {
        if s.n == 0 {
            return format!("{:>12} {:>25} {:>2}", "-", "-", 0);
        }
        format!(
            "{:>12} {:>25} {:>2}",
            table_number(s.quartiles.1),
            format!(
                "[{} .. {}]",
                table_number(s.quartiles.0),
                table_number(s.quartiles.2)
            ),
            s.n
        )
    };
    for r in rows {
        let bound = r
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "{:<17} {:<22} {:<5} | {} | {} | {:>17} | {:>5} | {}",
            r.workload,
            r.metric,
            r.unit,
            side(&r.a),
            side(&r.b),
            // A base of 0 (a share that never occurs) has no ratio.
            if r.relative_difference.is_finite() {
                format!("{:+.2}%", r.relative_difference * 100.0)
            } else {
                "n/a".to_string()
            },
            bound,
            r.verdict.word()
        );
    }
    out
}

/// `true` iff any row regressed.
pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = side(&[100.2, 100.9, 99.1, 100.4, 99.8]);
        let slower = side(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let faster = side(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let noisy = side(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(judge(&a, &same, Better::Lower, 0.1), Verdict::Unchanged);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.1), Verdict::Regressed);
        assert_eq!(judge(&a, &faster, Better::Lower, 0.1), Verdict::Improved);
        assert_eq!(judge(&a, &slower, Better::Higher, 0.1), Verdict::Improved);
        assert_eq!(judge(&a, &faster, Better::Higher, 0.1), Verdict::Regressed);
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // Too noisy for the bound, yet every run of B beats every run of A.
        let noisy_but_clear = side(&[10.0, 20.0, 30.0, 15.0, 25.0]);
        assert_eq!(
            judge(&a, &noisy_but_clear, Better::Lower, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn one_run_per_side_has_no_spread() {
        let s = side(&[5.0]);
        assert_eq!(s.quartiles, (5.0, 5.0, 5.0));
        assert_eq!(s.spread(), 0.0);
    }

    /// A result document of one run.
    struct Doc {
        workload: &'static str,
        value: f64,
        threads: u64,
        comparable: bool,
        seed: u64,
        digest: &'static str,
        ladder_levels: u64,
        failed: u64,
    }

    impl Doc {
        fn of(workload: &'static str, value: f64) -> Doc {
            Doc {
                workload,
                value,
                threads: 1,
                comparable: true,
                seed: 1,
                digest: "00000000000000aa",
                ladder_levels: 600,
                failed: 0,
            }
        }

        fn load(&self, set: &mut Set) {
            let doc = json::parse(&format!(
                "{{\"workload\": \"{}\", \"threads\": {}, \"comparable\": {}, \"smoke\": false, \
                 \"sizes\": {{\"ladder_levels\": {}}}, \"seed\": {}, \"input_digest\": \"{}\", \
                 \"attempted\": 100, \"failed\": {}, \
                 \"metrics\": {{\"work_per_s\": {{\"value\": {}, \"unit\": \"1/s\"}}}}, \
                 \"informational\": {{\"recover_s\": {{\"value\": 1.5, \"unit\": \"s\"}}}}}}",
                self.workload,
                self.threads,
                self.comparable,
                self.ladder_levels,
                self.seed,
                self.digest,
                self.failed,
                self.value
            ))
            .expect("test document is valid JSON");
            load_document(&doc, set).expect("well-formed");
        }
    }

    fn verdict_of(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no row {workload} {metric}"))
            .verdict
    }

    #[test]
    fn rows_are_per_workload_and_informational_rows_carry_no_verdict() {
        let (mut a, mut b) = (Set::default(), Set::default());
        for v in [100.0, 101.0, 99.0] {
            Doc::of("w1", v).load(&mut a);
            Doc::of("w1", v * 0.7).load(&mut b);
            Doc::of("w2", v).load(&mut a);
            Doc {
                threads: 2,
                ..Doc::of("w2", v)
            }
            .load(&mut b);
            // Ran on a host with fewer cores than the reference clients.
            for set in [&mut a, &mut b] {
                Doc {
                    comparable: false,
                    ..Doc::of("w3", v)
                }
                .load(set);
            }
        }
        let rows = compare(&a, &b).expect("same sizes, same inputs");
        assert_eq!(verdict_of(&rows, "w1", "work_per_s"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "w1", "recover_s"), Verdict::Informational);
        assert_eq!(
            verdict_of(&rows, "w1", FAILED_OPS_SHARE),
            Verdict::Unchanged
        );
        // Different client counts: not like for like.
        assert_eq!(verdict_of(&rows, "w2", "work_per_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "w3", "work_per_s"), Verdict::Unresolved);
        assert!(any_regressed(&rows));
        let table = render(&rows);
        assert!(table.contains("regressed") && table.contains("(B-A)/A-median"));
    }

    #[test]
    fn a_broken_set_never_compares_as_unchanged() {
        let mut a = Set::default();
        for v in [100.0, 101.0, 99.0] {
            Doc::of("hung", v).load(&mut a);
            Doc::of("missing", v).load(&mut a);
            Doc::of("failing", v).load(&mut a);
            Doc::of("crashed_once", v).load(&mut a);
        }
        let mut b = Set::default();
        let marker = |workload: &str| {
            json::parse(&crate::report::aborted_document(workload, "exit status: 3"))
                .expect("the marker is valid JSON")
        };
        for v in [100.0, 101.0, 99.0] {
            // Every run of `hung` hit the wall cap; `missing` never ran.
            load_document(&marker("hung"), &mut b).expect("well-formed");
            Doc {
                failed: 1,
                ..Doc::of("failing", v)
            }
            .load(&mut b);
            Doc::of("new", v).load(&mut b);
        }
        // Same numbers, but one of three runs ended without a result.
        Doc::of("crashed_once", 100.0).load(&mut b);
        Doc::of("crashed_once", 101.0).load(&mut b);
        load_document(&marker("crashed_once"), &mut b).expect("well-formed");

        let rows = compare(&a, &b).expect("same sizes, same inputs");
        assert_eq!(verdict_of(&rows, "hung", "work_per_s"), Verdict::Regressed);
        assert_eq!(
            verdict_of(&rows, "hung", FAILED_OPS_SHARE),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&rows, "missing", "work_per_s"),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&rows, "failing", "work_per_s"),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict_of(&rows, "failing", FAILED_OPS_SHARE),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&rows, "crashed_once", "work_per_s"),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict_of(&rows, "crashed_once", FAILED_OPS_SHARE),
            Verdict::Regressed
        );
        // A metric only the new set has cannot be judged.
        assert_eq!(verdict_of(&rows, "new", "work_per_s"), Verdict::Unresolved);
        assert!(render(&rows).contains(" - "));
    }

    #[test]
    fn sets_that_ran_other_sizes_or_other_inputs_are_refused() {
        let set = |doc: Doc| {
            let mut s = Set::default();
            doc.load(&mut s);
            s
        };
        let a = set(Doc::of("w", 100.0));
        let smaller = set(Doc {
            ladder_levels: 100,
            ..Doc::of("w", 100.0)
        });
        assert!(compare(&a, &smaller)
            .expect_err("another size")
            .contains("different sizes"));
        let other_inputs = set(Doc {
            digest: "00000000000000bb",
            ..Doc::of("w", 100.0)
        });
        assert!(compare(&a, &other_inputs)
            .expect_err("same seed, other inputs")
            .contains("not the same benchmark"));
        // Another seed is another input by design.
        let other_seed = set(Doc {
            seed: 2,
            digest: "00000000000000bb",
            ..Doc::of("w", 100.0)
        });
        assert!(compare(&a, &other_seed).is_ok());
    }
}
