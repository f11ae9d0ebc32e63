//! Rendering: the one-line result the driver reads, the full result file
//! with provenance, and the table a person reads.

use std::fmt::Write as _;
use std::path::PathBuf;

use btadt_bench::harness::json_string;

use crate::run::{Metric, RunResult};

/// `benchmark/out`: where traces and result files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A JSON number: as measured, with all its digits; non-finite values
/// (a metric the host cannot provide) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A value for a table: four decimals, or three significant digits for a
/// value too small to show any (`net_converge` sets up in microseconds).
pub fn table_number(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            number(m.value),
            json_string(m.unit)
        );
    }
    out.push('}');
    out
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.check.attempted.max(1),
        result.check.failed,
        metrics_object(&result.metrics)
    )
}

/// The full result: the one-line fields plus provenance, frozen sizes,
/// reps, sample counts, exact counts, informational metrics and span
/// totals.
pub fn result_document(result: &RunResult) -> String {
    let o = &result.options;
    let h = &result.host;
    let pairs = |items: Vec<(String, String)>| {
        let body: Vec<String> = items
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_string(&k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let host = pairs(vec![
        ("nproc".into(), h.nproc.to_string()),
        ("cpu_model".into(), json_string(&h.cpu_model)),
        ("kernel".into(), json_string(&h.kernel)),
        ("rustc".into(), json_string(&h.rustc)),
        ("commit".into(), json_string(&h.commit)),
        ("dirty".into(), h.dirty.to_string()),
    ]);
    let sizes = pairs(
        result
            .sizes
            .as_pairs()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    );
    let samples = pairs(
        result
            .sample_counts
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    );
    let counts = pairs(
        result
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    );
    let spans = pairs(
        result
            .spans
            .iter()
            .map(|(k, t)| {
                (
                    k.to_string(),
                    format!(
                        "{{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                        t.count, t.total_ns, t.self_ns
                    ),
                )
            })
            .collect(),
    );
    let notes: Vec<String> = result.check.notes.iter().map(|n| json_string(n)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"smoke\": {},\n  \
         \"seconds\": {},\n  \"reps\": {},\n  \"threads\": {},\n  \"comparable\": {},\n  \
         \"input_digest\": \"{:016x}\",\n  \"host\": {host},\n  \"sizes\": {sizes},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failure_notes\": [{}],\n  \
         \"metrics\": {},\n  \"informational\": {},\n  \"sample_counts\": {samples},\n  \
         \"exact_counts\": {counts},\n  \"spans\": {spans}\n}}\n",
        json_string(&o.workload),
        o.seed,
        o.trace,
        o.smoke,
        number(o.seconds),
        result.reps,
        result.threads,
        result.comparable,
        result.digest,
        result.correct(),
        result.check.attempted.max(1),
        result.check.failed,
        notes.join(", "),
        metrics_object(&result.metrics),
        metrics_object(&result.informational),
    )
}

/// What `run --all` leaves in place of the result of a run that ended
/// without one.
pub fn aborted_document(workload: &str, why: &str) -> String {
    format!(
        "{{\n  \"workload\": {},\n  \"aborted\": true,\n  \"why\": {}\n}}\n",
        json_string(workload),
        json_string(why)
    )
}

/// The table a person reads (goes to standard error, so standard output
/// ends with the result line).
pub fn human_table(result: &RunResult) -> String {
    let o = &result.options;
    let h = &result.host;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  {}  reps {}  threads {}  digest {:016x}",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        result.reps,
        result.threads,
        result.digest
    );
    let _ = writeln!(
        out,
        "host: {} x {} | kernel {} | {} | commit {}{}",
        h.nproc,
        h.cpu_model,
        h.kernel,
        h.rustc,
        h.commit,
        if h.dirty { " (dirty)" } else { "" }
    );
    if !result.comparable {
        let _ = writeln!(
            out,
            "NOT COMPARABLE: {} client thread(s) on {} core(s); the reference is two clients on two cores",
            result.threads, h.nproc
        );
    }
    for m in result.metrics.iter().chain(&result.informational) {
        let _ = writeln!(
            out,
            "  {:<44} {:>16} {}",
            m.name,
            table_number(m.value),
            m.unit
        );
    }
    for (name, n) in &result.sample_counts {
        let _ = writeln!(out, "  samples[{name}] = {n}");
    }
    for (name, n) in &result.counts {
        let _ = writeln!(out, "  = {name} {n}");
    }
    for (name, t) in &result.spans {
        let _ = writeln!(
            out,
            "  span {:<40} n={:<8} total {:>10.3} ms  self {:>10.3} ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let _ = writeln!(
        out,
        "checks: attempted {}  failed {}",
        result.check.attempted, result.check.failed
    );
    for note in &result.check.notes {
        let _ = writeln!(out, "  FAILED: {note}");
    }
    out
}
