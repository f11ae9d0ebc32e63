//! `cargo bench -p btadt-bench --bench robustness` — the robustness suite.
//!
//! Runs the full chaos grid (seeds × fault plans × thread counts × paths),
//! the crash-recovery comparison (restart vs checkpoint) and the hardened-sync
//! fault drills, then writes `BENCH_robustness.json` at the workspace root.
//! Every field in the report is deterministic — verdicts, recovery rounds
//! and sync counters, never wall times — so the committed baseline diffs
//! cleanly across hosts.  `-- --test` runs the single-seed smoke suite and
//! writes nothing, which is what CI exercises.

use btadt_bench::harness::workspace_root;
use btadt_bench::robustness::{print_summary, run_all, write_json};

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    let report = run_all(test_mode, 2);
    print_summary(&report);
    if !report.all_clean() {
        eprintln!("robustness: suite is NOT clean");
        std::process::exit(1);
    }
    if test_mode {
        println!("robustness: smoke run complete");
    } else {
        write_json(&report, &workspace_root().join("BENCH_robustness.json"));
    }
}
