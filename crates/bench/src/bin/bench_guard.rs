//! `cargo run --release -p btadt-bench --bin bench_guard -- <baseline.json>
//! <fresh.json> --verdicts` — the verdict gate.
//!
//! Compares the boolean consistency verdicts of a freshly generated report
//! (scenario `strong`/`eventual` flags, concurrent `admitted` flags,
//! robustness chaos/recovery/sync verdicts, store and model-checker
//! verdicts — see [`btadt_bench::guard`]) against a baseline and exits
//! non-zero if any verdict the baseline records as admitted flips to
//! not-admitted or goes missing.  The CI workflow snapshots each committed
//! `BENCH_*.json`, regenerates it, and feeds both files here.  Timings are
//! not compared: they drift with hardware, verdicts must not.

use btadt_bench::guard::{compare_verdicts, verdicts_from_str, VerdictRow};

fn read_verdicts(path: &str) -> Vec<VerdictRow> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_guard: cannot read {path}: {e}");
        std::process::exit(2);
    });
    verdicts_from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_guard: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut positional = Vec::new();
    let mut verdicts = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verdicts" => verdicts = true,
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let ([baseline_path, fresh_path], true) = (positional.as_slice(), verdicts) else {
        eprintln!("usage: bench_guard <baseline.json> <fresh.json> --verdicts");
        std::process::exit(2);
    };

    let baseline = read_verdicts(baseline_path);
    let fresh = read_verdicts(fresh_path);
    let report = compare_verdicts(&baseline, &fresh);

    println!("bench_guard: compared {} verdicts", report.compared);
    for key in &report.added {
        println!("  new verdict (no baseline yet): {key}");
    }
    for key in &report.improved {
        println!("  improved (baseline not admitted, now admitted): {key}");
    }
    for key in &report.missing {
        println!("  MISSING admitted verdict: {key}");
    }
    for key in &report.flipped {
        println!("  FLIPPED admitted -> not admitted: {key}");
    }
    if report.passed() {
        println!("bench_guard: ok, no admitted verdict flipped");
    } else {
        eprintln!(
            "bench_guard: FAILED ({} flipped, {} missing)",
            report.flipped.len(),
            report.missing.len()
        );
        std::process::exit(1);
    }
}
