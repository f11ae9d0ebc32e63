//! `cargo run --release -p btadt-check --bin check [-- --smoke]
//! [--workers N] [--out PATH]` — the bounded-schedule model checker and
//! race probes as a plain binary.
//!
//! Without flags, sweeps the full cell grid plus the race probes and
//! writes `BENCH_check.json` at the workspace root.  `--smoke` restricts
//! to the 2-client cells and skips the committed report — the fast CI
//! job.  `--workers N` pins the worker-thread count (cells are
//! independent — each drives its own replicas, one client thread running
//! at a time — and the report is ordered by cell index, so the bytes are
//! identical at any worker count: the CI determinism gate diffs
//! `--workers 1` against `--workers 4`).  `--out PATH` writes the report
//! to PATH instead of the committed file (with `--smoke`, it is the only
//! report written).  Any other argument exits 2 with the usage line.
//!
//! Exits nonzero when any cell or probe misses its expectation, or when
//! the report cannot be written.

use btadt_check::checker::{cells, run_cell, scripted_racy_overlap, traced_run_races, CellResult};
use btadt_concurrent::AppendPath;
use btadt_types::json_object;
use btadt_types::report::{args, run_ordered, write_report, Flag};

/// Fixed seed for the threaded race probes (verdicts are
/// schedule-independent; the seed only pins the op mix).
const PROBE_SEED: u64 = 0xB7AD7;

struct Probe {
    name: &'static str,
    races: usize,
    stores: usize,
    as_expected: bool,
}

fn main() {
    let args = args("check", &[Flag::Smoke, Flag::Workers, Flag::Out], &[]);
    let results = run_ordered(&cells(args.smoke), args.workers.unwrap_or(2), |spec| {
        run_cell(*spec)
    });

    // The race probes: two real multi-threaded runs expected clean, one
    // scripted deterministic overlap expected flagged.
    let probes = run_probes();

    for r in &results {
        let state = if r.as_expected { "ok" } else { "UNEXPECTED" };
        println!(
            "  {:<24} {:<8} schedules {:>7}  pruned {:>7}  rejected {:>5}  racy {:>5}  ({})",
            r.spec.name,
            state,
            r.outcome.schedules,
            r.outcome.sleep_pruned,
            r.outcome.rejected,
            r.outcome.racy_schedules,
            r.spec.expect.label(),
        );
        if let (false, Some(ce)) = (r.as_expected, r.outcome.counterexample.as_ref()) {
            println!("      counterexample schedule: {:?}", ce.schedule);
            for reason in &ce.reasons {
                println!("      reason: {reason}");
            }
        }
        if let Some(why) = &r.outcome.failure {
            println!("      sweep failed: {why}");
        }
    }
    for p in &probes {
        let state = if p.as_expected { "ok" } else { "UNEXPECTED" };
        println!(
            "  race probe {:<20} {:<8} races {:>2}",
            p.name, state, p.races
        );
        // How many stores a threaded probe publishes depends on the
        // interleaving, so it stays off the stdout that runs diff.
        eprintln!("  race probe {:<20} stores {:>3}", p.name, p.stores);
    }

    let report = render_report(args.smoke, &results, &probes);
    write_report(&args, "BENCH_check.json", &report);

    let bad = results.iter().filter(|r| !r.as_expected).count()
        + probes.iter().filter(|p| !p.as_expected).count();
    if bad > 0 {
        eprintln!("check: {bad} cell(s)/probe(s) missed their expectation");
        std::process::exit(1);
    }
    println!("check: all cells and probes met their expectations");
}

fn run_probes() -> Vec<Probe> {
    let mut probes = Vec::new();
    for path in [AppendPath::Strong, AppendPath::Eventual] {
        let report = traced_run_races(path, 3, 20, PROBE_SEED);
        probes.push(Probe {
            name: path.label(),
            races: report.races.len(),
            stores: report.stores,
            as_expected: report.race_free() && report.stores > 0,
        });
    }
    let report = scripted_racy_overlap();
    probes.push(Probe {
        name: "racy-scripted",
        races: report.races.len(),
        stores: report.stores,
        as_expected: report.races.len() == 1,
    });
    probes
}

/// Renders the `BENCH_check.json` document: cells in grid order, no
/// timestamps, no durations.
fn render_report(smoke: bool, results: &[CellResult], probes: &[Probe]) -> String {
    let model = results.iter().map(|r| {
        let (o, config) = (&r.outcome, &r.spec.config);
        // One program per client: "Append Read | Append Read".
        let programs = (config.programs.iter())
            .map(|ops| ops.iter().map(|op| format!("{op:?}")).collect::<Vec<_>>())
            .map(|ops| ops.join(" "))
            .collect::<Vec<_>>()
            .join(" | ");
        let counterexample = o.counterexample.as_ref().map(|ce| {
            json_object! {
                "schedule": ce.schedule.clone(),
                "seams": ce.seams.iter().map(|(c, seam)| format!("c{c}:{seam}")).collect::<Vec<_>>(),
                "reasons": ce.reasons.clone(),
            }
        });
        json_object! {
            "cell": r.spec.name, "path": config.path.label(), "programs": programs,
            "weaken_cas": config.weaken_cas, "max_schedule_len": config.max_schedule_len(),
            "expect": r.spec.expect.label(), "schedules": o.schedules,
            "sleep_pruned": o.sleep_pruned, "exhausted": o.exhausted,
            "structural_violations": o.structural_violations, "rejected": o.rejected,
            "racy_schedules": o.racy_schedules, "races": o.races,
            "replay_confirmed": r.replay_confirmed, "as_expected": r.as_expected,
            "counterexample": counterexample,
        }
    });
    let race = probes.iter().map(|p| {
        json_object! { "probe": p.name, "races": p.races, "as_expected": p.as_expected }
    });
    json_object! {
        "bench": "check",
        "mode": if smoke { "smoke" } else { "full" },
        "model": model.collect::<Vec<_>>(),
        "race": race.collect::<Vec<_>>(),
    }
    .render()
}
