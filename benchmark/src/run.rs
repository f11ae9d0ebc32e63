//! Runs one workload in this process: set-up, warm-up, timed reps, output
//! checks, metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{self, Host};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::probes;
use crate::sizes::Sizes;
use crate::stats::{median, quantile, quantile_sorted};
use crate::trace::{self, SpanBuf, SpanTotals};
use crate::workloads::{self, Check, Rep, Workload};

/// Set-up runs in two batches, before the warm-up rep and after the last
/// timed rep, each of at least this many set-ups and going on until
/// [`SETUP_WINDOW_S`] has gone into it; `setup_s` is their first decile,
/// the quiet side like every other wall.  (Five readings of a set-up that
/// takes microseconds — `net_converge` has next to none — would not repeat;
/// a quarter of a second of them does.  The median of five consecutive
/// set-ups differed by 20 % between two sets of the same commit whose timed
/// metrics differed by 9 %: set-up is mostly allocation, which the host's
/// slow phases hit hardest.)
pub const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const SETUP_WINDOW_S: f64 = 0.25;
/// A run measures at least this many reps, however short `--seconds` is
/// (`--seconds 0` is how the tests and the smoke suite ask for exactly
/// these).
pub const MIN_REPS: usize = 3;
/// Default per-workload wall cap: when it expires every outstanding
/// operation counts as failed and the process exits non-zero.
pub const WALL_CAP_S: u64 = 120;
/// Spans kept per traced rep and thread.
const SPAN_CAP: usize = 1 << 16;
/// Traced reps whose spans are written to the trace file.
const TRACED_REPS_KEPT: u32 = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// How long the timed reps run.
    pub seconds: f64,
    /// `true`: the traced run (per-layer metrics); `false`: end-to-end.
    pub trace: bool,
    /// `true`: the 1/50-size smoke inputs.
    pub smoke: bool,
    /// Wall cap of the whole run.
    pub wall_cap: Duration,
}

impl RunOptions {
    /// Defaults for `workload`: seed 1, 12 s (the `run_seconds` of
    /// `BENCHMARK.json`), untraced, full size.
    pub fn new(workload: &str) -> Self {
        RunOptions {
            workload: workload.to_string(),
            seed: 1,
            seconds: 12.0,
            trace: false,
            smoke: false,
            wall_cap: Duration::from_secs(WALL_CAP_S),
        }
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The options it ran with.
    pub options: RunOptions,
    /// Provenance.
    pub host: Host,
    /// The frozen sizes in force.
    pub sizes: Sizes,
    /// Client threads of the timed body.
    pub threads: usize,
    /// `false` when the host has fewer cores than the workload has client
    /// threads on the reference host: its numbers compare with nothing.
    pub comparable: bool,
    /// Digest of the generated inputs.
    pub digest: u64,
    /// Timed reps measured.
    pub reps: usize,
    /// The gated metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end numbers, not gated.
    pub informational: Vec<Metric>,
    /// Samples behind each percentile pool.
    pub sample_counts: Vec<(&'static str, usize)>,
    /// Counts that repeat exactly per seed (taken from one rep).
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-span-name totals of the traced reps (traced runs only).
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Operations attempted and failed over every rep, warm-ups included.
    pub check: Check,
}

impl RunResult {
    /// `true` iff no output check failed.
    pub fn correct(&self) -> bool {
        self.check.failed == 0
    }

    /// The value of a reported metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.informational)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Why a run could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// No workload of that name.
    UnknownWorkload(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?} (expected one of {:?})",
                workloads::WORKLOADS
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Arms the wall cap: unless the returned guard is dropped first, the
/// process reports the stall and exits with status 3 — a hung workload
/// must never look like a slow one.
pub fn arm_watchdog(workload: &str, cap: Duration) -> Watchdog {
    let done = Arc::new(AtomicBool::new(false));
    let (flag, name) = (Arc::clone(&done), workload.to_string());
    std::thread::spawn(move || {
        let deadline = Instant::now() + cap;
        while Instant::now() < deadline {
            // ORDERING: Acquire — pairs with the Release store in
            // Watchdog::drop; nothing else is published through the flag.
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!(
            "watchdog: workload {name} exceeded its {}s wall cap; every outstanding operation counts as failed",
            cap.as_secs()
        );
        std::process::exit(3);
    });
    Watchdog { done }
}

/// Disarms the wall cap when dropped.
pub struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // ORDERING: Release — pairs with the Acquire load in the watchdog
        // thread, which then returns without touching anything else.
        self.done.store(true, Ordering::Release);
    }
}

struct Measured {
    reps: Vec<Rep>,
    check: Check,
}

impl Measured {
    fn push(&mut self, mut rep: Rep) {
        self.check.merge(std::mem::take(&mut rep.check));
        self.reps.push(rep);
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// The decile of `f` over reps on the side of "nothing interfered":
    /// the first for costs, the ninth for rates.  Other tenants of the
    /// host only ever slow a rep, in bursts that last seconds — a median
    /// over ten seconds of reps does not reject them (measured: the same
    /// binary and seeds gave spreads of 20 % with medians, 3–5 % so).
    fn quiet_decile_of(&self, better: Better, f: impl Fn(&Rep) -> f64) -> f64 {
        let values: Vec<f64> = self.reps.iter().map(f).collect();
        match better {
            Better::Lower => quantile(&values, 0.1),
            Better::Higher => quantile(&values, 0.9),
        }
    }

    /// The exact counts of the first rep (the runner checks that every
    /// other rep repeats them).
    fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.reps[0].counts.iter().copied().collect()
    }

    /// Pooled, sorted samples (ns) of every pool, in first-rep order.
    fn pools(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut pools: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for rep in &self.reps {
            for (name, samples) in &rep.pools {
                let samples = samples.iter().map(|&ns| ns as f64);
                match pools.iter_mut().find(|(n, _)| n == name) {
                    Some((_, all)) => all.extend(samples),
                    None => pools.push((name, samples.collect())),
                }
            }
        }
        for (_, samples) in &mut pools {
            samples.sort_by(f64::total_cmp);
        }
        pools
    }
}

/// `false` when a workload whose timed body runs `reference_threads` client
/// threads on the reference host finds fewer cores than that here.
pub fn is_comparable(reference_threads: usize, nproc: usize) -> bool {
    nproc >= reference_threads
}

/// Everything `setup_s` covers: the inputs built from the seed (chains,
/// trees, op mixes, store images, recorded histories) and one rep's fresh
/// state prepared (pre-populated replica, copies of the batches, miners).
/// No timed body runs in it.
fn set_up(options: &RunOptions) -> Result<(Box<dyn Workload>, f64), RunError> {
    let t0 = Instant::now();
    let workload = workloads::build(&options.workload, options.seed, &options.sizes())
        .ok_or_else(|| RunError::UnknownWorkload(options.workload.clone()))?;
    let staged = workload.stage();
    let seconds = t0.elapsed().as_secs_f64();
    drop(staged);
    Ok((workload, seconds))
}

/// One batch of set-ups (see [`MIN_SETUPS`]); returns the last one.  One
/// set of inputs is in memory at a time.
fn set_ups(options: &RunOptions, setup_s: &mut Vec<f64>) -> Result<Box<dyn Workload>, RunError> {
    let (batch, start) = (setup_s.len(), Instant::now());
    loop {
        let (workload, seconds) = set_up(options)?;
        setup_s.push(seconds);
        let enough =
            setup_s.len() - batch >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_WINDOW_S;
        // The traced run reports no `setup_s` and sets up once.
        if options.trace || enough {
            return Ok(workload);
        }
    }
}

/// Reps of fixed work until `seconds` have passed, [`MIN_REPS`] at least.
fn timed_reps(seconds: f64, mut one: impl FnMut(usize) -> Rep) -> Measured {
    let mut measured = Measured {
        reps: Vec::new(),
        check: Check::default(),
    };
    let start = Instant::now();
    while measured.reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        measured.push(one(measured.reps.len()));
    }
    measured
}

const US_PER_NS: f64 = 1e-3;

/// Runs one workload and returns its result.
pub fn run(options: &RunOptions) -> Result<RunResult, RunError> {
    let _watchdog = arm_watchdog(&options.workload, options.wall_cap);
    let host = Host::probe();
    let mut check = Check::default();
    let mut metrics = Vec::new();
    let mut informational = Vec::new();
    let mut spans = BTreeMap::new();

    let mut setup_s = Vec::new();
    let workload = set_ups(options, &mut setup_s)?;
    let threads = workload.threads();
    let comparable = is_comparable(workload.reference_threads(), host.nproc);
    let digest = workload.digest();
    // Discarded warm-up rep: caches filled, lazy set-up done.
    check.merge(workload.rep(&mut SpanBuf::off()).check);

    let measured = if options.trace {
        traced_run(options, workload.as_ref(), &mut metrics, &mut spans)
    } else {
        timed_reps(options.seconds, |_| workload.rep(&mut SpanBuf::off()))
    };
    // Before `verify`: the reference checkers are not the measured path.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    workload.verify(&mut check);
    drop(workload);
    if !options.trace {
        set_ups(options, &mut setup_s)?;
    }
    let pools = measured.pools();
    let counts = measured.counts();
    for (i, rep) in measured.reps.iter().enumerate().skip(1) {
        check.require(rep.counts == measured.reps[0].counts, || {
            format!(
                "rep {i} did different work: {:?} vs {:?}",
                rep.counts, measured.reps[0].counts
            )
        });
    }

    if !options.trace {
        for def in END_TO_END {
            let value = match def.name {
                "work_per_s" => measured
                    .quiet_decile_of(def.better, |r| r.work as f64 / (r.work_ns as f64 / 1e9)),
                "rep_wall_ms" => measured.quiet_decile_of(def.better, |r| r.wall_ns as f64 / 1e6),
                // A median, not the quiet decile: when one client of a closed
                // loop is off the processor the other appends uncontended, in
                // 1 µs instead of 2, so interference moves latency both ways.
                "call_p50_us" => measured.median_of(|r| {
                    let primary: Vec<f64> = r.pools[0].1.iter().map(|&ns| ns as f64).collect();
                    median(&primary) * US_PER_NS
                }),
                "peak_rss_mb" => peak_rss_mb,
                "setup_s" => quantile(&setup_s, 0.1),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            metrics.push(Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit,
            });
        }
    }
    for (pool, samples) in &pools {
        for (p, suffix) in [(0.5, "p50_us"), (0.99, "p99_us")] {
            informational.push(Metric {
                name: format!("{pool}_{suffix}"),
                value: quantile_sorted(samples, p) * US_PER_NS,
                unit: "us",
            });
        }
    }
    for (i, &(name, _, unit)) in measured.reps[0].extras.iter().enumerate() {
        informational.push(Metric {
            name: name.to_string(),
            value: measured.median_of(|r| r.extras[i].1),
            unit,
        });
    }

    let reps = measured.reps.len();
    check.merge(measured.check);
    Ok(RunResult {
        options: options.clone(),
        comparable,
        host,
        sizes: options.sizes(),
        threads,
        digest,
        reps,
        metrics,
        informational,
        sample_counts: pools.iter().map(|(n, s)| (*n, s.len())).collect(),
        counts,
        spans,
        check,
    })
}

/// The traced run: alternates untraced and traced reps for a quarter of
/// the window (their ratio is the tracing overhead), writes the spans, then
/// replays the workload's blocks through every layer in isolation.
fn traced_run(
    options: &RunOptions,
    workload: &dyn Workload,
    metrics: &mut Vec<Metric>,
    spans: &mut BTreeMap<&'static str, SpanTotals>,
) -> Measured {
    let origin = Instant::now();
    let mut kept = SpanBuf::on(origin, 0, 0, 0);
    let mut traced_wall = Vec::new();
    let mut traced_check = Check::default();
    let mut measured = timed_reps(options.seconds / 4.0, |n| {
        let untraced = workload.rep(&mut SpanBuf::off());
        let mut buf = SpanBuf::on(origin, n as u32, 0, SPAN_CAP);
        let traced = workload.rep(&mut buf);
        traced_wall.push(traced.wall_ns as f64);
        traced_check.merge(traced.check);
        if (n as u32) < TRACED_REPS_KEPT {
            kept.absorb(buf);
        }
        untraced
    });
    measured.check.merge(traced_check);
    *spans = trace::summarize(kept.spans());
    write_trace(options, &kept);

    let untraced_wall = measured.median_of(|r| r.wall_ns as f64);
    let overhead = median(&traced_wall) / untraced_wall - 1.0;

    let sizes = options.sizes();
    let input = workload.probe_input();
    let mut layer = probes::run_all(&input, &sizes, options.seed);
    let client_ns_per_work =
        measured.median_of(|r| r.work_ns as f64 * workload.threads() as f64 / r.work as f64);
    let predicted = workload.predicted_ns_per_work(&layer, &measured.counts());
    layer.insert("bench.trace_overhead_share", overhead);
    layer.insert(
        "bench.attribution_gap",
        (client_ns_per_work - predicted) / client_ns_per_work,
    );
    for def in PER_LAYER {
        metrics.push(Metric {
            name: def.name.to_string(),
            value: *layer
                .get(def.name)
                .unwrap_or_else(|| panic!("no probe produced {}", def.name)),
            unit: def.unit,
        });
    }
    measured
}

fn write_trace(options: &RunOptions, kept: &SpanBuf) {
    let dir = crate::report::out_dir();
    let path = dir.join(format!("trace-{}.json", options.workload));
    let json = trace::render_json(&options.workload, options.seed, kept);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::workloads::{REFERENCE_CLIENTS, WORKLOADS};

    #[test]
    fn threaded_numbers_need_as_many_cores_as_the_reference_has_clients() {
        assert!(!is_comparable(REFERENCE_CLIENTS, 1));
        assert!(is_comparable(REFERENCE_CLIENTS, REFERENCE_CLIENTS));
        assert!(is_comparable(1, 1));
        // Whatever this host has, the closed loops ask for the reference
        // client count and the single-threaded workloads for one.
        for name in WORKLOADS {
            let workload = workloads::build(name, 1, &Sizes::SMOKE).expect("known workload");
            let want = if name.starts_with("adt_") {
                REFERENCE_CLIENTS
            } else {
                1
            };
            assert_eq!(workload.reference_threads(), want, "{name}");
        }
    }

    #[test]
    fn a_result_that_is_not_comparable_says_so() {
        let mut options = RunOptions::new("adt_append");
        options.smoke = true;
        options.seconds = 0.0;
        let mut result = run(&options).expect("known workload");
        assert_eq!(result.reps, MIN_REPS);
        // As on a one-core host.
        result.host.nproc = 1;
        result.comparable = is_comparable(REFERENCE_CLIENTS, result.host.nproc);
        assert!(report::human_table(&result).contains("NOT COMPARABLE"));
        assert!(report::result_document(&result).contains("\"comparable\": false"));
    }
}
