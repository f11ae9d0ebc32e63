//! The shared-memory replica throughput/scaling suite
//! (`BENCH_concurrent.json`).
//!
//! Measures [`btadt_concurrent::ConcurrentBlockTree`] under real OS-thread
//! clients at 1/2/4/8 threads on append-heavy and read-heavy operation
//! mixes, for both oracle paths (frugal/CAS strong appends,
//! prodigal/snapshot eventual appends).  Alongside raw throughput the
//! suite runs a **verification pass**: smaller recorded executions at each
//! thread count whose histories are judged by the consistency criterion
//! the path claims (Theorems 4.1–4.3) — the JSON report carries the
//! verdicts so a regression in either speed *or* correctness is visible in
//! the diff.
//!
//! A three-way pure-read comparison is measured alongside: the raw
//! wait-free read (full store walk per operation), the tip-versioned
//! memoizing reader, and a coarse-lock baseline (`Mutex<BlockTree>` with
//! selection under the lock).
//!
//! Scaling numbers are only meaningful relative to
//! `host_parallelism` (recorded in the report):
//! on a single-CPU host, thread counts above 1 time-slice one core and
//! throughput stays flat — the interesting signal there is that the
//! wait-free path does not *degrade* under contention while the
//! coarse-lock baseline convoys.

use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Instant;

use btadt_concurrent::driver::build_replica;
use btadt_concurrent::{
    check_claimed, claimed_criterion, run_workload_on, AppendPath, ConcurrentBlockTree,
    DriverConfig,
};
use btadt_types::{BlockBuilder, BlockTree, LongestChain, SelectionFunction};

use crate::harness::json_string;

/// An operation mix: what fraction of client operations are appends.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Display name of the mix.
    pub name: &'static str,
    /// Percentage (0–100) of operations that are appends.
    pub append_percent: u8,
}

/// 80% appends — the write-contention mix.
pub const APPEND_HEAVY: Mix = Mix {
    name: "append-heavy",
    append_percent: 80,
};

/// 5% appends — the snapshot-read mix.
pub const READ_HEAVY: Mix = Mix {
    name: "read-heavy",
    append_percent: 5,
};

/// The thread counts the suite sweeps.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One measured throughput cell.
#[derive(Clone, Debug)]
pub struct ThroughputCell {
    /// Append path label.
    pub path: &'static str,
    /// Mix label.
    pub mix: &'static str,
    /// Client threads.
    pub threads: usize,
    /// Operations completed (appends + reads, failed appends included).
    pub total_ops: u64,
    /// Successful appends.
    pub appends_ok: u64,
    /// Rejected appends (CAS losses on the strong path).
    pub appends_failed: u64,
    /// Reads.
    pub reads: u64,
    /// Wall-clock of the client phase, nanoseconds.
    pub wall_ns: u128,
    /// Throughput over the client phase.
    pub ops_per_sec: f64,
}

/// One verification cell: a recorded run judged by its claimed criterion.
#[derive(Clone, Debug)]
pub struct VerificationCell {
    /// Append path label.
    pub path: &'static str,
    /// Client threads.
    pub threads: usize,
    /// Name of the claimed criterion.
    pub criterion: &'static str,
    /// Whether the recorded history was admitted.
    pub admitted: bool,
    /// Number of violations found (0 when admitted).
    pub violations: usize,
    /// Operations in the recorded history.
    pub ops: u64,
    /// Maximum fork degree of the final tree.
    pub max_fork_degree: usize,
}

/// One pure-read cell of the read-path comparison on an identical
/// fixed-depth chain: the raw wait-free snapshot read (full store walk per
/// operation), the tip-versioned memoizing [`BtReader`] (the intended
/// hot-read API — sound because the published `(len, tip)` pair doubles as
/// a version stamp), and the coarse-lock baseline.
///
/// [`BtReader`]: btadt_concurrent::BtReader
#[derive(Clone, Debug)]
pub struct ReadPathCell {
    /// Client threads.
    pub threads: usize,
    /// Pure-read throughput of the raw wait-free path (walk per read).
    pub waitfree_ops_per_sec: f64,
    /// Pure-read throughput of the memoizing per-thread reader.
    pub memoized_ops_per_sec: f64,
    /// Pure-read throughput with one mutex around the tree and selection.
    pub locked_ops_per_sec: f64,
}

impl ReadPathCell {
    /// Raw wait-free / locked throughput ratio (walk vs walk — isolates
    /// the synchronization cost alone).
    pub fn ratio(&self) -> f64 {
        if self.locked_ops_per_sec > 0.0 {
            self.waitfree_ops_per_sec / self.locked_ops_per_sec
        } else {
            0.0
        }
    }

    /// Memoized / locked throughput ratio (what a hot read loop sees).
    pub fn memoized_ratio(&self) -> f64 {
        if self.locked_ops_per_sec > 0.0 {
            self.memoized_ops_per_sec / self.locked_ops_per_sec
        } else {
            0.0
        }
    }
}

/// The full report.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentReport {
    /// Threads the host can actually run in parallel.
    pub host_parallelism: usize,
    /// Throughput cells, sweep order.
    pub throughput: Vec<ThroughputCell>,
    /// Verification cells, sweep order.
    pub verification: Vec<VerificationCell>,
    /// Pure-read wait-free vs coarse-lock comparison cells.
    pub read_path: Vec<ReadPathCell>,
}

/// Sizing knobs so the smoke run (CI) stays fast.
#[derive(Clone, Copy, Debug)]
pub struct SuiteParams {
    /// Blocks appended before measuring (gives reads a realistic chain).
    pub prepopulate: usize,
    /// Measured operations per throughput cell, **split across the cell's
    /// threads** — scaling compares fixed total work, so the tree grows
    /// identically at every thread count.
    pub total_ops: usize,
    /// Operations per client thread in verification cells.
    pub verify_ops_per_thread: usize,
}

impl SuiteParams {
    /// The committed-report sizing.
    pub fn full() -> Self {
        SuiteParams {
            prepopulate: 256,
            total_ops: 16_000,
            verify_ops_per_thread: 80,
        }
    }

    /// The CI smoke sizing.
    pub fn smoke() -> Self {
        SuiteParams {
            prepopulate: 16,
            total_ops: 400,
            verify_ops_per_thread: 20,
        }
    }

    fn ops_per_thread(&self, threads: usize) -> usize {
        (self.total_ops / threads.max(1)).max(1)
    }
}

fn replica_for(path: AppendPath, clients: usize, seed: u64) -> ConcurrentBlockTree {
    build_replica(&DriverConfig {
        threads: clients,
        ops_per_thread: 0,
        append_percent: 0,
        path,
        seed,
        record: false,
    })
}

/// Runs one throughput cell: a fresh replica pre-populated to
/// `params.prepopulate` blocks, then `threads` clients issuing the mix
/// with recording off.
pub fn run_throughput_cell(
    path: AppendPath,
    mix: Mix,
    threads: usize,
    params: SuiteParams,
    seed: u64,
) -> ThroughputCell {
    let replica = replica_for(path, threads, seed);
    for _ in 0..params.prepopulate {
        replica.append(0, vec![]);
    }
    let config = DriverConfig {
        threads,
        ops_per_thread: params.ops_per_thread(threads),
        append_percent: mix.append_percent,
        path,
        seed,
        record: false,
    };
    let run = run_workload_on(&config, &replica);
    ThroughputCell {
        path: path.label(),
        mix: mix.name,
        threads,
        total_ops: run.total_ops(),
        appends_ok: run.appends_ok,
        appends_failed: run.appends_failed,
        reads: run.reads,
        wall_ns: run.wall.as_nanos(),
        ops_per_sec: run.ops_per_sec(),
    }
}

/// Runs one verification cell: a recorded execution judged by the claimed
/// criterion.
pub fn run_verification_cell(
    path: AppendPath,
    threads: usize,
    params: SuiteParams,
    seed: u64,
) -> VerificationCell {
    let config = DriverConfig {
        threads,
        ops_per_thread: params.verify_ops_per_thread,
        append_percent: 50,
        path,
        seed,
        record: true,
    };
    let replica = replica_for(path, threads, seed);
    let run = run_workload_on(&config, &replica);
    let verdict = check_claimed(&run);
    VerificationCell {
        path: path.label(),
        threads,
        criterion: claimed_criterion(path, run.tip_rule).name(),
        admitted: verdict.is_admitted(),
        violations: verdict.violations.len(),
        ops: run.total_ops(),
        max_fork_degree: run.max_fork_degree,
    }
}

/// Pure-read throughput of the coarse-lock baseline: one mutex serializes
/// the tree, reads run the selection under the lock.  This is what the
/// wait-free read path replaces.
fn locked_pure_reads(threads: usize, params: SuiteParams) -> f64 {
    let tree = Mutex::new(BlockTree::new());
    let selection = LongestChain::new();
    {
        let mut t = tree
            .lock()
            .expect("bench threads do not panic under the lock");
        for i in 0..params.prepopulate {
            let parent = t.block_at(selection.select_tip(&t)).clone();
            let block = BlockBuilder::new(&parent).nonce(i as u64).build();
            t.insert(block).expect("sequential prepopulation");
        }
    }
    let barrier = Barrier::new(threads);
    let per_thread = params.ops_per_thread(threads);
    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..threads {
            let tree = &tree;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    let t = tree
                        .lock()
                        .expect("bench threads do not panic under the lock");
                    let chain = selection.select(&t);
                    std::hint::black_box(chain.height());
                }
            });
        }
    });
    (threads * per_thread) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Pure-read throughput of the wait-free path on an identical fixed-depth
/// chain (no appends during measurement, so both sides read the same
/// amount of data).  Reads go through [`ConcurrentBlockTree::read`] — one
/// acquire load plus a full store walk per operation — *not* the memoizing
/// `BtReader`, so the comparison against the locked baseline is walk vs
/// walk, isolating the synchronization cost alone.
fn waitfree_pure_reads(threads: usize, params: SuiteParams, seed: u64) -> f64 {
    let replica = replica_for(AppendPath::Strong, threads, seed);
    for _ in 0..params.prepopulate {
        replica.append(0, vec![]);
    }
    let barrier = Barrier::new(threads);
    let per_thread = params.ops_per_thread(threads);
    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..threads {
            let replica = &replica;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    let chain = replica.read();
                    std::hint::black_box(chain.height());
                }
            });
        }
    });
    (threads * per_thread) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Pure-read throughput of the memoizing per-thread reader on the same
/// fixed-depth chain.  The tip never moves during measurement, so after
/// the first walk every read is one acquire load plus an `Arc`-backed
/// chain clone — the steady state of a hot read loop between tip moves.
fn memoized_pure_reads(threads: usize, params: SuiteParams, seed: u64) -> f64 {
    let replica = replica_for(AppendPath::Strong, threads, seed);
    for _ in 0..params.prepopulate {
        replica.append(0, vec![]);
    }
    let barrier = Barrier::new(threads);
    let per_thread = params.ops_per_thread(threads);
    let start = Instant::now();
    thread::scope(|scope| {
        for _ in 0..threads {
            let replica = &replica;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut reader = replica.reader();
                barrier.wait();
                for _ in 0..per_thread {
                    let chain = reader.read();
                    std::hint::black_box(chain.height());
                }
            });
        }
    });
    (threads * per_thread) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs one cell of the pure-read comparison.
pub fn run_read_path_cell(threads: usize, params: SuiteParams, seed: u64) -> ReadPathCell {
    ReadPathCell {
        threads,
        waitfree_ops_per_sec: waitfree_pure_reads(threads, params, seed),
        memoized_ops_per_sec: memoized_pure_reads(threads, params, seed),
        locked_ops_per_sec: locked_pure_reads(threads, params),
    }
}

/// Runs the full suite.
pub fn run_suite(params: SuiteParams, seed: u64) -> ConcurrentReport {
    let mut report = ConcurrentReport {
        host_parallelism: thread::available_parallelism().map_or(1, |n| n.get()),
        ..ConcurrentReport::default()
    };
    for path in [AppendPath::Strong, AppendPath::Eventual] {
        for mix in [APPEND_HEAVY, READ_HEAVY] {
            for &threads in &THREAD_COUNTS {
                report
                    .throughput
                    .push(run_throughput_cell(path, mix, threads, params, seed));
            }
        }
        for &threads in &THREAD_COUNTS {
            report
                .verification
                .push(run_verification_cell(path, threads, params, seed));
        }
    }
    for &threads in &THREAD_COUNTS {
        report
            .read_path
            .push(run_read_path_cell(threads, params, seed));
    }
    report
}

impl ConcurrentReport {
    fn throughput_of(&self, path: &str, mix: &str, threads: usize) -> Option<f64> {
        self.throughput
            .iter()
            .find(|c| c.path == path && c.mix == mix && c.threads == threads)
            .map(|c| c.ops_per_sec)
    }

    /// Throughput ratio between two thread counts for a (path, mix) pair.
    pub fn scaling(&self, path: &str, mix: &str, from: usize, to: usize) -> Option<f64> {
        let base = self.throughput_of(path, mix, from)?;
        let target = self.throughput_of(path, mix, to)?;
        (base > 0.0).then(|| target / base)
    }

    /// Raw wait-free vs coarse-lock pure-read throughput ratio at a thread
    /// count.
    pub fn waitfree_vs_locked(&self, threads: usize) -> Option<f64> {
        self.read_path
            .iter()
            .find(|c| c.threads == threads)
            .map(ReadPathCell::ratio)
    }

    /// Memoized-reader vs coarse-lock pure-read throughput ratio at a
    /// thread count.
    pub fn memoized_vs_locked(&self, threads: usize) -> Option<f64> {
        self.read_path
            .iter()
            .find(|c| c.threads == threads)
            .map(ReadPathCell::memoized_ratio)
    }

    /// `true` iff every verification cell was admitted.
    pub fn all_verified(&self) -> bool {
        self.verification.iter().all(|c| c.admitted)
    }
}

/// Renders the report as the `BENCH_concurrent.json` document.
pub fn render_json(report: &ConcurrentReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"concurrent\",");
    let _ = writeln!(out, "  \"host_parallelism\": {},", report.host_parallelism);
    let _ = writeln!(out, "  \"throughput\": [");
    for (i, c) in report.throughput.iter().enumerate() {
        let comma = if i + 1 == report.throughput.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"path\": {}, \"mix\": {}, \"threads\": {}, \"total_ops\": {}, \
             \"appends_ok\": {}, \"appends_failed\": {}, \"reads\": {}, \"wall_ns\": {}, \
             \"ops_per_sec\": {:.1}}}{comma}",
            json_string(c.path),
            json_string(c.mix),
            c.threads,
            c.total_ops,
            c.appends_ok,
            c.appends_failed,
            c.reads,
            c.wall_ns,
            c.ops_per_sec,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"verification\": [");
    for (i, c) in report.verification.iter().enumerate() {
        let comma = if i + 1 == report.verification.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"path\": {}, \"threads\": {}, \"criterion\": {}, \"admitted\": {}, \
             \"violations\": {}, \"ops\": {}, \"max_fork_degree\": {}}}{comma}",
            json_string(c.path),
            c.threads,
            json_string(c.criterion),
            c.admitted,
            c.violations,
            c.ops,
            c.max_fork_degree,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"read_path\": [");
    for (i, c) in report.read_path.iter().enumerate() {
        let comma = if i + 1 == report.read_path.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            out,
            "    {{\"threads\": {}, \"waitfree_ops_per_sec\": {:.1}, \
             \"memoized_ops_per_sec\": {:.1}, \"locked_ops_per_sec\": {:.1}, \
             \"ratio\": {:.3}, \"memoized_ratio\": {:.3}}}{comma}",
            c.threads,
            c.waitfree_ops_per_sec,
            c.memoized_ops_per_sec,
            c.locked_ops_per_sec,
            c.ratio(),
            c.memoized_ratio(),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"metrics\": {{");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for path in [AppendPath::Strong, AppendPath::Eventual] {
        for mix in [APPEND_HEAVY, READ_HEAVY] {
            if let Some(s) = report.scaling(path.label(), mix.name, 1, 4) {
                metrics.push((format!("{}_{}_scaling_1_to_4", path.label(), mix.name), s));
            }
        }
    }
    if let Some(r) = report.waitfree_vs_locked(4) {
        metrics.push(("waitfree_vs_locked_read_4t".to_string(), r));
    }
    if let Some(r) = report.memoized_vs_locked(4) {
        metrics.push(("memoized_vs_locked_read_4t".to_string(), r));
    }
    metrics.push((
        "all_histories_admitted".to_string(),
        if report.all_verified() { 1.0 } else { 0.0 },
    ));
    for (i, (key, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        let _ = writeln!(out, "    {}: {:.3}{comma}", json_string(key), value);
    }
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}

/// Prints a human summary of the report.
pub fn print_summary(report: &ConcurrentReport) {
    println!("host parallelism: {}", report.host_parallelism);
    for c in &report.throughput {
        println!(
            "{:>18} {:>12} {}t: {:>12.0} ops/s ({} ops, {} failed appends)",
            c.path, c.mix, c.threads, c.ops_per_sec, c.total_ops, c.appends_failed
        );
    }
    for c in &report.verification {
        println!(
            "{:>18} {}t: {} -> {}",
            c.path,
            c.threads,
            c.criterion,
            if c.admitted { "admitted" } else { "REJECTED" }
        );
    }
    for c in &report.read_path {
        println!(
            "    pure reads {}t: wait-free {:>10.0} ops/s ({:.2}x) | memoized {:>11.0} ops/s \
             ({:.1}x) | locked {:>10.0} ops/s",
            c.threads,
            c.waitfree_ops_per_sec,
            c.ratio(),
            c.memoized_ops_per_sec,
            c.memoized_ratio(),
            c.locked_ops_per_sec,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_produces_complete_and_verified_report() {
        let report = run_suite(SuiteParams::smoke(), 5);
        assert_eq!(
            report.throughput.len(),
            16,
            "2 paths x 2 mixes x 4 thread counts"
        );
        assert_eq!(report.verification.len(), 8);
        assert_eq!(report.read_path.len(), 4);
        assert!(
            report.all_verified(),
            "every history passes its claimed criterion"
        );
        assert!(report.scaling("strong-cas", "read-heavy", 1, 4).is_some());
        assert!(report.waitfree_vs_locked(4).is_some());
    }

    #[test]
    fn render_json_is_well_formed_enough_to_diff() {
        let report = run_suite(SuiteParams::smoke(), 6);
        let json = render_json(&report);
        assert!(json.contains("\"bench\": \"concurrent\""));
        assert!(json.contains("\"throughput\""));
        assert!(json.contains("\"verification\""));
        assert!(json.contains("\"all_histories_admitted\": 1.000"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn read_path_cell_measures_all_three_sides() {
        let cell = run_read_path_cell(2, SuiteParams::smoke(), 3);
        assert!(cell.waitfree_ops_per_sec > 0.0);
        assert!(cell.memoized_ops_per_sec > 0.0);
        assert!(cell.locked_ops_per_sec > 0.0);
        assert!(cell.ratio() > 0.0);
        assert!(cell.memoized_ratio() > 0.0);
        assert_eq!(cell.threads, 2);
    }
}
