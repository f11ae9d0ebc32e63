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
//! to PATH instead of (or, without `--smoke`, in addition to) stdout.
//!
//! Exits nonzero when any cell or probe misses its expectation.

use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use btadt_check::checker::{cells, run_cell, scripted_racy_overlap, traced_run_races, CellResult};
use btadt_concurrent::AppendPath;

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
    let mut smoke = false;
    let mut workers: usize = 2;
    let mut out: Option<std::path::PathBuf> = None;
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
            other => {
                eprintln!("unknown argument: {other} (expected --smoke, --workers N, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let specs = cells(smoke);
    let slots: Vec<Mutex<Option<CellResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(specs.len()).max(1) {
            scope.spawn(|| loop {
                // ORDERING: Relaxed suffices — the cursor is a pure work
                // ticket with no data published through it; the slot
                // mutexes order the results.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let result = run_cell(*spec);
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(result);
            });
        }
    });
    let results: Vec<CellResult> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every cell index was claimed and completed")
        })
        .collect();

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

    let json = render_report(smoke, &results, &probes);
    if let Some(path) = &out {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
    }
    if !smoke {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let path = root.join("BENCH_check.json");
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
        println!("check: wrote {}", path.display());
    }

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

/// Renders the report by hand: the shape is flat enough that a writer
/// beats hauling in a serializer, and the output is deterministic by
/// construction (cells in grid order, no timestamps, no durations).
fn render_report(smoke: bool, results: &[CellResult], probes: &[Probe]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"check\",\n");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    s.push_str("  \"model\": [\n");
    for (i, r) in results.iter().enumerate() {
        let o = &r.outcome;
        // One program per client: "Append Read | Append Read".
        let programs = (r.spec.config.programs.iter())
            .map(|ops| ops.iter().map(|op| format!("{op:?}")).collect::<Vec<_>>())
            .map(|ops| ops.join(" "))
            .collect::<Vec<_>>()
            .join(" | ");
        let _ = write!(
            s,
            "    {{\"cell\": \"{}\", \"path\": \"{}\", \"programs\": \"{}\", \"weaken_cas\": {}, \
             \"max_schedule_len\": {}, \"expect\": \"{}\", \
             \"schedules\": {}, \"sleep_pruned\": {}, \"exhausted\": {}, \
             \"structural_violations\": {}, \"rejected\": {}, \"racy_schedules\": {}, \
             \"races\": {}, \"replay_confirmed\": {}, \"as_expected\": {}, \"counterexample\": ",
            r.spec.name,
            r.spec.config.path.label(),
            programs,
            r.spec.config.weaken_cas,
            r.spec.config.max_schedule_len(),
            r.spec.expect.label(),
            o.schedules,
            o.sleep_pruned,
            o.exhausted,
            o.structural_violations,
            o.rejected,
            o.racy_schedules,
            o.races,
            match r.replay_confirmed {
                None => "null".to_string(),
                Some(b) => b.to_string(),
            },
            r.as_expected,
        );
        match &o.counterexample {
            None => s.push_str("null"),
            Some(ce) => {
                s.push_str("{\"schedule\": [");
                for (j, c) in ce.schedule.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "{c}");
                }
                s.push_str("], \"seams\": [");
                for (j, (c, seam)) in ce.seams.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "\"c{c}:{seam}\"");
                }
                s.push_str("], \"reasons\": [");
                for (j, reason) in ce.reasons.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "\"{}\"", json_escape(reason));
                }
                s.push_str("]}");
            }
        }
        s.push('}');
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"race\": [\n");
    for (i, p) in probes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"probe\": \"{}\", \"races\": {}, \"as_expected\": {}}}",
            p.name, p.races, p.as_expected
        );
        s.push_str(if i + 1 < probes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
