//! `cargo run --release -p btadt-bench --bin chaos [-- --smoke]
//! [--workers N] [--out PATH] [--seam NAME]` — the shared-memory chaos
//! grid as a plain binary.
//!
//! Without flags, runs the full robustness suite (chaos grid + recovery
//! comparison + sync drills) and writes `BENCH_robustness.json` at the
//! workspace root.  `--smoke` runs the single-seed suite and writes
//! nothing — the fast CI job.  `--workers N` pins the chaos-grid worker
//! count (each cell spawns its own client threads; verdicts are
//! scheduler-independent by construction).  `--out PATH` writes the
//! report to PATH instead — the CI determinism gate runs the smoke suite
//! at `--workers 1` and `--workers 4` and diffs the two files.
//!
//! `--seam NAME` restricts the run to the grid cells whose fault plan
//! arms that seam (e.g. `--seam store-torn-write`) and skips the
//! recovery / sync sections and all report writing — the fast loop when
//! iterating on a single fault injection point.  Composes with `--smoke`
//! (one seed instead of three) and `--workers`.
//!
//! Exits nonzero, after writing the report, when any cell is dirty
//! (criterion not admitted, or an invariant violation observed), any
//! recovery run fails to converge or drops blocks its durable store held,
//! or any sync drill fails to converge.

use btadt_bench::robustness::{grid_cells, print_summary, render_json, run_all, SEEDS};
use btadt_concurrent::{chaos_grid, Seam};
use btadt_types::report::{args, write_report, Flag};

fn main() {
    let args = args(
        "chaos",
        &[Flag::Smoke, Flag::Workers, Flag::Out, Flag::Seam],
        &[],
    );
    let workers = args.workers.unwrap_or(2);
    if let Some(name) = &args.seam {
        let Some(seam) = Seam::from_label(name) else {
            let known: Vec<&str> = Seam::all().into_iter().map(Seam::label).collect();
            eprintln!("unknown seam: {name} (known: {})", known.join(", "));
            std::process::exit(2);
        };
        run_seam(seam, args.smoke, workers);
        return;
    }

    let report = run_all(args.smoke, workers);
    print_summary(&report);
    if !write_report(&args, "BENCH_robustness.json", &render_json(&report)) {
        println!("chaos: smoke run complete");
    }
    if !report.all_clean() {
        eprintln!("chaos: suite is NOT clean");
        std::process::exit(1);
    }
}

/// Runs only the grid cells whose plan arms `seam` and prints a per-cell
/// verdict line.  Exits 2 when no default plan arms the seam (a coverage
/// hole worth failing loudly on) and 1 when any cell is dirty.
fn run_seam(seam: Seam, smoke: bool, workers: usize) {
    let seeds = if smoke { &SEEDS[..1] } else { &SEEDS[..] };
    let cells: Vec<_> = grid_cells(seeds)
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
