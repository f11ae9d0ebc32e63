//! `cargo run --release -p btadt-bench --bin concurrent [-- --smoke]` —
//! the shared-memory replica verification suite.
//!
//! Records multi-threaded executions of `ConcurrentBlockTree` on both
//! oracle paths at 1/2/4/8 client threads, judges each history by the
//! criterion its path claims, and writes `BENCH_concurrent.json` at the
//! workspace root.  `--smoke` runs shorter clients and writes nothing.
//! Exits nonzero, after writing the report, when any history is rejected.

use btadt_bench::concurrent::{print_summary, render_json, run_all};
use btadt_bench::harness::{workspace_root, write_report};

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
        println!("concurrent: smoke run complete");
    } else {
        write_report(
            &workspace_root().join("BENCH_concurrent.json"),
            &render_json(&report),
        );
    }
    if !report.all_verified() {
        eprintln!("concurrent: a recorded history failed its claimed criterion");
        std::process::exit(1);
    }
}
