//! `cargo run --release -p btadt-bench --bin concurrent [-- --smoke]` —
//! the shared-memory replica verification suite.
//!
//! Records multi-threaded executions of `ConcurrentBlockTree` on both
//! oracle paths at 1/2/4/8 client threads, judges each history by the
//! criterion its path claims, and writes `BENCH_concurrent.json` at the
//! workspace root.  `--smoke` runs shorter clients and writes nothing.
//! Exits nonzero, after writing the report, when any history is rejected.

use btadt_bench::concurrent::{print_summary, render_json, run_all};
use btadt_types::report::{args, write_report, Flag};

fn main() {
    let args = args("concurrent", &[Flag::Smoke], &[]);
    let report = run_all(args.smoke);
    print_summary(&report);
    if !write_report(&args, "BENCH_concurrent.json", &render_json(&report)) {
        println!("concurrent: smoke run complete");
    }
    if !report.all_verified() {
        eprintln!("concurrent: a recorded history failed its claimed criterion");
        std::process::exit(1);
    }
}
