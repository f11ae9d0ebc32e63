//! `benchmark run …` / `benchmark compare …` / `benchmark list` — see
//! `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use btadt_benchmark::compare;
use btadt_benchmark::metrics::{END_TO_END, PER_LAYER};
use btadt_benchmark::report;
use btadt_benchmark::run::{run, RunOptions};
use btadt_benchmark::workloads::WORKLOADS;

const USAGE: &str = "\
usage:
  benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                [--smoke] [--wall-cap S] [--out DIR]
  benchmark run --all [--runs N] [the options above]
  benchmark compare <setA> <setB>
  benchmark list

run      one workload in this process; --all runs all six, each in a process
         of its own, --runs times, and writes one result file per run to
         --out (default benchmark/out/set-<seed>).  The last line of standard
         output is the result: correct, attempted, failed, metrics.
         --trace 0 (default) reports the end-to-end metrics, --trace 1 the
         per-layer ones and writes benchmark/out/trace-<workload>.json.
         --seconds is how long the timed reps go on (three reps at least, so
         --seconds 0 is exactly three).  --smoke runs every workload at about
         1/50 size.
compare  two sets (directories written by run --out): one row per workload and
         metric; exits 1 if any row regressed, 2 if the sets did not run the
         same inputs.
list     the workloads and metrics.";

/// What the command line asked for.
struct RunArgs {
    options: RunOptions,
    all: bool,
    runs: usize,
    out: Option<PathBuf>,
    /// Suffix of the result file when `--all` spawned this run.
    run_index: Option<usize>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        options: RunOptions::new(""),
        all: false,
        runs: 1,
        out: None,
        run_index: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => parsed.options.workload = value("a workload name")?,
            "--all" => parsed.all = true,
            "--seed" => parsed.options.seed = number(flag, value("a seed")?)?,
            "--seconds" => parsed.options.seconds = number(flag, value("seconds")?)?,
            "--runs" => parsed.runs = number(flag, value("a count")?)?,
            "--run-index" => parsed.run_index = Some(number(flag, value("an index")?)?),
            "--wall-cap" => {
                let s: f64 = number(flag, value("seconds")?)?;
                parsed.options.wall_cap = Duration::from_secs_f64(s.max(0.0));
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => parsed.options.smoke = true,
            "--trace" => {
                parsed.options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if parsed.all != parsed.options.workload.is_empty() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    if !parsed.all && !WORKLOADS.contains(&parsed.options.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            parsed.options.workload
        ));
    }
    Ok(parsed)
}

/// The result file of run `k` of a set.
fn run_file(workload: &str, k: usize) -> String {
    format!("{workload}.{k}.json")
}

fn write_result(dir: &Path, name: &str, document: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, document)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn run_one(args: &RunArgs) -> ExitCode {
    let result = match run(&args.options) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", report::human_table(&result));
    let o = &args.options;
    let file = match args.run_index {
        Some(k) => run_file(&o.workload, k),
        None => format!(
            "result-{}-{}-trace{}.json",
            o.workload,
            o.seed,
            u8::from(o.trace)
        ),
    };
    let dir = args.out.clone().unwrap_or_else(report::out_dir);
    write_result(&dir, &file, &report::result_document(&result));
    println!("{}", report::result_line(&result));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload `--runs` times, each run in its own process.
fn run_all(args: &RunArgs, raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| report::out_dir().join(format!("set-{}", args.options.seed)));
    // Forward every option except the ones this level consumes.
    let mut forwarded = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => {}
            "--runs" | "--out" => {
                it.next();
            }
            _ => forwarded.push(a.clone()),
        }
    }
    let mut failed = false;
    for k in 0..args.runs.max(1) {
        for workload in WORKLOADS {
            // A run that ends without a result (wall cap, crash) must not
            // vanish from the set: `compare` counts the marker as a run
            // that failed whole.
            let file = run_file(workload, k);
            let _ = std::fs::remove_file(out.join(&file));
            let mut lost = |why: String| {
                eprintln!("{workload} (run {k}): {why}");
                failed = true;
                if !out.join(&file).exists() {
                    write_result(&out, &file, &report::aborted_document(workload, &why));
                }
            };
            let status = Command::new(&exe)
                .arg("run")
                .args(["--workload", workload])
                .args(&forwarded)
                .arg("--out")
                .arg(&out)
                .args(["--run-index", &k.to_string()])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => lost(format!("failed: {s}")),
                Err(e) => lost(format!("cannot start: {e}")),
            }
        }
    }
    eprintln!("results written to {}", out.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_sets(a: &str, b: &str) -> ExitCode {
    let rows = compare::load_set(Path::new(a))
        .and_then(|a| Ok((a, compare::load_set(Path::new(b))?)))
        .and_then(|(a, b)| compare::compare(&a, &b));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if compare::any_regressed(&rows) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {w}");
    }
    println!("end-to-end metrics (--trace 0), every workload reports each:");
    for m in END_TO_END {
        println!(
            "  {:<14} {:<5} {:<6} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in PER_LAYER {
        println!(
            "  {:<42} {:<6} {:<6} {}{}  [moves: {}]",
            m.name,
            m.unit,
            m.better.word(),
            if m.exact { "= " } else { "" },
            m.call,
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(parsed) if parsed.all => run_all(&parsed, rest),
            Ok(parsed) => run_one(&parsed),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            compare_sets(&rest[0], &rest[1])
        }
        Some((cmd, [])) if cmd == "list" => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
