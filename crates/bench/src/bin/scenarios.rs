//! `cargo run --release -p btadt-bench --bin scenarios [-- --smoke]
//! [--threads N] [--out PATH]` — the adversarial scenario sweep.
//!
//! Without flags, runs the shipped matrix on the machine's parallelism
//! (≥ 4 threads) and writes `BENCH_scenarios.json` at the workspace root.
//! `--smoke` runs the reduced matrix and writes nothing — the fast CI job.
//! `--threads N` pins the worker count (outcomes are identical by
//! construction).  `--out PATH` writes the report to PATH instead — the CI
//! determinism gate runs the smoke sweep at `--threads 1` and
//! `--threads 4` and diffs the two files.

use btadt_bench::harness::{workspace_root, write_report};
use btadt_bench::scenarios::{
    default_threads, print_summary, render_json, shipped_matrix, smoke_matrix, sweep,
};

fn main() {
    let mut smoke = false;
    let mut threads: Option<usize> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .or_else(|| {
                        eprintln!("--threads expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                out = args.next().map(std::path::PathBuf::from).or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --smoke, --threads N or --out PATH)"
                );
                std::process::exit(2);
            }
        }
    }

    let matrix = if smoke {
        smoke_matrix()
    } else {
        shipped_matrix()
    };
    let threads = threads.unwrap_or_else(|| default_threads(matrix.len()));
    let cells = sweep(&matrix, threads);
    print_summary(&cells);
    match out.or_else(|| (!smoke).then(|| workspace_root().join("BENCH_scenarios.json"))) {
        Some(path) => write_report(&path, &render_json(&cells)),
        None => println!("scenarios: smoke run complete"),
    }
}
