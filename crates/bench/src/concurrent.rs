//! The shared-memory replica verification suite (`BENCH_concurrent.json`).
//!
//! Records executions of [`btadt_concurrent::ConcurrentBlockTree`] under
//! real OS-thread clients at 1/2/4/8 threads, for both oracle paths
//! (frugal/CAS strong appends, prodigal/snapshot eventual appends), and
//! judges each history by the consistency criterion its path claims
//! (Theorems 4.1–4.3).  The report carries only what every interleaving
//! agrees on — verdict, violation count, operation count — so it
//! regenerates byte for byte on any host.  Throughput and scaling are
//! measured by `benchmark/` (`adt_append`, `adt_read_mostly`).

use btadt_concurrent::{check_claimed, claimed_criterion, run_workload, AppendPath, DriverConfig};
use btadt_types::json_object;
use btadt_types::report::Value;

/// The thread counts the suite sweeps.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Seed of the committed report's operation mixes and oracle tapes.
pub const SEED: u64 = 2024;

/// One verification cell: a recorded run judged by its claimed criterion.
#[derive(Clone, Debug)]
pub struct VerificationCell {
    /// Append path label.
    pub path: &'static str,
    /// Client threads.
    pub threads: usize,
    /// Name of the claimed criterion.
    pub criterion: &'static str,
    /// Whether the recorded history was admitted.
    pub admitted: bool,
    /// Number of violations found (0 when admitted).
    pub violations: usize,
    /// Operations in the recorded history.
    pub ops: u64,
    /// Maximum fork degree of the final tree — interleaving-dependent on
    /// the eventual path, so printed but not reported.
    pub max_fork_degree: usize,
}

/// The full report.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentReport {
    /// Verification cells, sweep order.
    pub verification: Vec<VerificationCell>,
}

impl ConcurrentReport {
    /// `true` iff every verification cell was admitted.
    pub fn all_verified(&self) -> bool {
        self.verification.iter().all(|c| c.admitted)
    }
}

/// Runs one verification cell: `threads` clients, `ops_per_thread`
/// operations each (half appends), recorded and judged by the claimed
/// criterion.
pub fn run_verification_cell(
    path: AppendPath,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
) -> VerificationCell {
    let run = run_workload(&DriverConfig {
        threads,
        ops_per_thread,
        append_percent: 50,
        path,
        seed,
        record: true,
    });
    let verdict = check_claimed(&run);
    VerificationCell {
        path: path.label(),
        threads,
        criterion: claimed_criterion(path, run.tip_rule).name(),
        admitted: verdict.is_admitted(),
        violations: verdict.violations.len(),
        ops: run.total_ops(),
        max_fork_degree: run.max_fork_degree,
    }
}

/// Runs the full suite (80 operations per client) or the smoke suite (20).
pub fn run_all(smoke: bool) -> ConcurrentReport {
    let ops_per_thread = if smoke { 20 } else { 80 };
    let mut report = ConcurrentReport::default();
    for path in [AppendPath::Strong, AppendPath::Eventual] {
        for &threads in &THREAD_COUNTS {
            report
                .verification
                .push(run_verification_cell(path, threads, ops_per_thread, SEED));
        }
    }
    report
}

/// Renders the report as the `BENCH_concurrent.json` document.
pub fn render_json(report: &ConcurrentReport) -> String {
    let rows = report.verification.iter().map(|c| {
        json_object! {
            "path": c.path, "threads": c.threads, "criterion": c.criterion,
            "admitted": c.admitted, "violations": c.violations, "ops": c.ops,
        }
    });
    let admitted = if report.all_verified() { 1.0 } else { 0.0 };
    json_object! {
        "bench": "concurrent",
        "verification": rows.collect::<Vec<_>>(),
        "metrics": json_object! { "all_histories_admitted": Value::fixed(admitted, 3) },
    }
    .render()
}

/// Prints a human summary of the report.  The fork degree a threaded
/// run reaches depends on its interleaving, so it goes to stderr and
/// stdout stays the same from run to run.
pub fn print_summary(report: &ConcurrentReport) {
    for c in &report.verification {
        println!(
            "{:>18} {}t: {} -> {} ({} ops)",
            c.path,
            c.threads,
            c.criterion,
            if c.admitted { "admitted" } else { "REJECTED" },
            c.ops,
        );
        eprintln!(
            "{:>18} {}t: max fork degree {}",
            c.path, c.threads, c.max_fork_degree
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_produces_complete_and_verified_report() {
        let report = run_all(true);
        assert_eq!(report.verification.len(), 8, "2 paths x 4 thread counts");
        assert!(
            report.all_verified(),
            "every history passes its claimed criterion"
        );
        assert!(report.verification.iter().all(|c| c.violations == 0));
    }

    #[test]
    fn render_json_is_well_formed_enough_to_diff() {
        let json = render_json(&run_all(true));
        assert!(json.contains("\"bench\": \"concurrent\""));
        assert!(json.contains("\"verification\""));
        assert!(json.contains("\"all_histories_admitted\": 1.000"));
        assert!(crate::json::parse(&json).is_ok(), "emitted JSON parses");
    }
}
