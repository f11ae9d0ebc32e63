//! `cargo run --release -p btadt-bench --bin chaos [-- --smoke]
//! [--workers N] [--out PATH] [--seam NAME]` — the shared-memory chaos
//! grid as a plain binary.
//!
//! Without flags, runs the full robustness suite (chaos grid + recovery
//! comparison + sync drills) and writes `BENCH_robustness.json` at the
//! workspace root.  `--smoke` runs the single-seed suite and skips the
//! full report — the fast CI job.  `--workers N` pins the chaos-grid
//! worker count (each cell spawns its own client threads; verdicts are
//! scheduler-independent by construction).  `--out PATH` additionally
//! writes the *deterministic outcome summary* (cell labels + verdicts
//! only) to PATH — the CI determinism gate runs the smoke grid at
//! `--workers 1` and `--workers 4` and diffs the two summaries.
//!
//! `--seam NAME` restricts the run to the grid cells whose fault plan
//! arms that seam (e.g. `--seam store-torn-write`) and skips the
//! recovery / sync sections and all report writing — the fast loop when
//! iterating on a single fault injection point.  Composes with `--smoke`
//! (one seed instead of three) and `--workers`.
//!
//! Exits nonzero when any cell is dirty (criterion not admitted, or an
//! invariant violation observed), any recovery run fails to converge or
//! drops blocks its durable store held, or any sync drill fails to converge.

use btadt_bench::harness::workspace_root;
use btadt_bench::robustness::{
    grid_cells, print_summary, run_all, write_json, write_outcomes_json, SEEDS,
};
use btadt_concurrent::{chaos_grid, Seam};

fn main() {
    let mut smoke = false;
    let mut workers: usize = 2;
    let mut out: Option<std::path::PathBuf> = None;
    let mut seam: Option<Seam> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--workers expects a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                out = args.next().map(std::path::PathBuf::from).or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
            }
            "--seam" => {
                let name = args.next().unwrap_or_else(|| {
                    eprintln!("--seam expects a seam name");
                    std::process::exit(2);
                });
                seam = Seam::from_label(&name).or_else(|| {
                    let known: Vec<&str> = Seam::all().into_iter().map(Seam::label).collect();
                    eprintln!("unknown seam: {name} (known: {})", known.join(", "));
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (expected --smoke, --workers N, --out PATH or \
                     --seam NAME)"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(seam) = seam {
        run_seam(seam, smoke, workers);
        return;
    }

    let report = run_all(smoke, workers);
    print_summary(&report);
    if let Some(path) = &out {
        write_outcomes_json(&report, path);
    }
    if !report.all_clean() {
        eprintln!("chaos: suite is NOT clean");
        std::process::exit(1);
    }
    if smoke {
        println!("chaos: smoke run complete");
    } else {
        write_json(&report, &workspace_root().join("BENCH_robustness.json"));
    }
}

/// Runs only the grid cells whose plan arms `seam` and prints a per-cell
/// verdict line.  Exits 2 when no default plan arms the seam (a coverage
/// hole worth failing loudly on) and 1 when any cell is dirty.
fn run_seam(seam: Seam, smoke: bool, workers: usize) {
    let seeds: Vec<u64> = if smoke {
        vec![SEEDS[0]]
    } else {
        SEEDS.to_vec()
    };
    let cells: Vec<_> = grid_cells(&seeds)
        .into_iter()
        .filter(|cell| cell.plan.arms_seam(seam))
        .collect();
    if cells.is_empty() {
        eprintln!(
            "no default plan arms seam {} — nothing to run",
            seam.label()
        );
        std::process::exit(2);
    }
    println!("chaos --seam {}: {} cells", seam.label(), cells.len());
    let outcomes = chaos_grid(&cells, workers);
    for o in &outcomes {
        let state = if o.is_clean() { "clean" } else { "DIRTY" };
        println!("  {:<44} {} ({})", o.label, state, o.verdict);
        for v in &o.violations {
            println!("      violation: {v}");
        }
    }
    let dirty = outcomes.iter().filter(|o| !o.is_clean()).count();
    if dirty > 0 {
        eprintln!("chaos --seam {}: {dirty} dirty cell(s)", seam.label());
        std::process::exit(1);
    }
    println!("chaos --seam {}: all cells clean", seam.label());
}
