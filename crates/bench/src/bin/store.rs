//! `cargo run --release -p btadt-bench --bin store [-- --smoke]` — the
//! durable-store suite.
//!
//! Runs the 10⁵-block steady-state ceiling drill and the seeded corruption
//! recovery cells, then writes `BENCH_store.json` at the workspace root.
//! Every field is deterministic — residency peaks, recovery counters and
//! resync rounds, never wall times — so the committed report regenerates
//! byte for byte on any host.  `--smoke` runs the 5 × 10³-block suite and
//! writes nothing, which is what CI exercises on every push.  Exits
//! nonzero, after writing the report, when any row is not clean.

use btadt_bench::harness::{workspace_root, write_report};
use btadt_bench::store::{print_summary, render_json, run_all};

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other} (expected --smoke)");
                std::process::exit(2);
            }
        }
    }
    let report = run_all(smoke);
    print_summary(&report);
    if smoke {
        println!("store: smoke run complete");
    } else {
        write_report(
            &workspace_root().join("BENCH_store.json"),
            &render_json(&report),
        );
    }
    if !report.all_clean() {
        eprintln!("store: suite is NOT clean");
        std::process::exit(1);
    }
}
