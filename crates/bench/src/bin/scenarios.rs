//! `cargo run --release -p btadt-bench --bin scenarios [-- --smoke]
//! [--workers N] [--out PATH]` — the adversarial scenario sweep.
//!
//! Without flags, runs the shipped matrix on the machine's parallelism
//! (≥ 4 workers) and writes `BENCH_scenarios.json` at the workspace root.
//! `--smoke` runs the reduced matrix and writes nothing — the fast CI job.
//! `--workers N` pins the worker count (outcomes are identical by
//! construction).  `--out PATH` writes the report to PATH instead — the CI
//! determinism gate runs the smoke sweep at `--workers 1` and
//! `--workers 4` and diffs the two files.

use btadt_bench::scenarios::{
    default_workers, print_summary, render_json, shipped_matrix, smoke_matrix, sweep,
};
use btadt_types::report::{args, write_report, Flag};

fn main() {
    let args = args("scenarios", &[Flag::Smoke, Flag::Workers, Flag::Out], &[]);
    let matrix = if args.smoke {
        smoke_matrix()
    } else {
        shipped_matrix()
    };
    let workers = args
        .workers
        .unwrap_or_else(|| default_workers(matrix.len()));
    let cells = sweep(&matrix, workers);
    print_summary(&cells);
    if !write_report(&args, "BENCH_scenarios.json", &render_json(&cells)) {
        println!("scenarios: smoke run complete");
    }
}
