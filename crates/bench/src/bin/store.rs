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

use btadt_bench::store::{print_summary, render_json, run_all};
use btadt_types::report::{args, write_report, Flag};

fn main() {
    let args = args("store", &[Flag::Smoke], &[]);
    let report = run_all(args.smoke);
    print_summary(&report);
    if !write_report(&args, "BENCH_store.json", &render_json(&report)) {
        println!("store: smoke run complete");
    }
    if !report.all_clean() {
        eprintln!("store: suite is NOT clean");
        std::process::exit(1);
    }
}
