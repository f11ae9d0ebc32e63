//! Multi-threaded workload driver for the shared-memory replica.
//!
//! Spawns `N` OS-thread clients against one [`ConcurrentBlockTree`], each
//! issuing the paper-ADT operations `append(b)` / `read()` with a
//! deterministic per-thread operation mix, records the execution as a
//! [`BtHistory`] through the lock-free [`RecorderHub`] clock, and hands the
//! result to the SC/EC criterion checkers of `btadt-core` — so the
//! Theorem 4.1–4.3 claims (agreement, wait-freedom, the consistency level
//! of each oracle variant) are exercised under *real* interleavings rather
//! than simulated ones.
//!
//! Every run ends with a barrier followed by one quiescent `read()` per
//! client; the finite-trace criteria (Ever-Growing Tree, Eventual Prefix)
//! are specified against exactly this kind of quiescent tail.
//!
//! The operation *mix* is deterministic per `(seed, thread)`; the
//! *interleaving* is whatever the scheduler produces — that is the point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use btadt_core::{eventual_consistency, strong_consistency, BtHistory, BtOperation, BtResponse};
use btadt_history::{ConsistencyCriterion, ProcessId, Verdict};
use btadt_types::{AlwaysValid, BlockBuilder};

use crate::blocktree::{AppendPath, ConcurrentBlockTree, ReadStats, TipRule};
use crate::fault::{FaultPlan, FaultSession, Seam};
use crate::recorder::RecorderHub;

/// Configuration of one driver run.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Number of OS-thread clients.
    pub threads: usize,
    /// Operations per client (excluding the final quiescent read).
    pub ops_per_thread: usize,
    /// Percentage (0–100) of operations that are appends.
    pub append_percent: u8,
    /// Which append path mediates the replica.
    pub path: AppendPath,
    /// Seed for the per-thread operation mix and the oracle tape.
    pub seed: u64,
    /// Whether to record a history (throughput benches turn this off).
    pub record: bool,
}

impl DriverConfig {
    /// A small recorded run, convenient for tests.
    pub fn small(path: AppendPath, threads: usize, seed: u64) -> Self {
        DriverConfig {
            threads,
            ops_per_thread: 40,
            append_percent: 50,
            path,
            seed,
            record: true,
        }
    }
}

/// The result of a driver run.
pub struct DriverRun {
    /// The configuration that produced the run.
    pub config: DriverConfig,
    /// The tip-selection rule of the replica that ran the workload (judged
    /// histories must be checked with the matching score function).
    pub tip_rule: TipRule,
    /// The recorded history (`None` when recording was off).
    pub history: Option<BtHistory>,
    /// Wall-clock time of the client phase.
    pub wall: Duration,
    /// Appends that returned `true`.
    pub appends_ok: u64,
    /// Appends that returned `false` (CAS losses on the strong path).
    pub appends_failed: u64,
    /// Reads issued (including the quiescent round).
    pub reads: u64,
    /// What each client's reader handle did, indexed by client: hits,
    /// in-place extensions, rebuilds and blocks cloned sum to that client's
    /// reads.  A recorded run retains every chain in its history, so its
    /// tip moves are rebuilds; an unrecorded one drops them and extends.
    pub read_stats: Vec<ReadStats>,
    /// Blocks published at the end (genesis included).
    pub blocks: usize,
    /// Height of the finally selected chain.
    pub height: u64,
    /// Maximum fork degree of the final tree.
    pub max_fork_degree: usize,
}

impl DriverRun {
    /// Total operations performed.
    pub fn total_ops(&self) -> u64 {
        self.appends_ok + self.appends_failed + self.reads
    }

    /// Operations per second over the client phase.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Builds the replica a config asks for.
pub fn build_replica(config: &DriverConfig) -> ConcurrentBlockTree {
    match config.path {
        AppendPath::Strong => ConcurrentBlockTree::strong(config.threads, config.seed),
        AppendPath::Eventual => ConcurrentBlockTree::eventual(config.threads),
        AppendPath::Racy => ConcurrentBlockTree::racy(config.threads),
    }
}

/// Deterministic per-thread generator (SplitMix64).
struct Mix(u64);

impl Mix {
    fn new(seed: u64, thread: usize) -> Self {
        Mix(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs the workload against a fresh replica.
pub fn run_workload(config: &DriverConfig) -> DriverRun {
    let replica = build_replica(config);
    run_workload_on(config, &replica)
}

/// Runs the workload against a fresh replica with an optional fault plan
/// armed: every client thread drives its own deterministic
/// [`FaultSession`], so injected stalls/duplicates fire at the same
/// `(client, seam, occurrence)` coordinates regardless of scheduling.
pub fn run_workload_with(config: &DriverConfig, plan: Option<&FaultPlan>) -> DriverRun {
    let replica = build_replica(config);
    run_workload_with_on(config, plan, &replica)
}

/// Runs the workload against a caller-provided replica (benches reuse a
/// pre-populated one).
pub fn run_workload_on(config: &DriverConfig, replica: &ConcurrentBlockTree) -> DriverRun {
    run_workload_with_on(config, None, replica)
}

/// The general form: caller-provided replica *and* optional fault plan.
pub fn run_workload_with_on(
    config: &DriverConfig,
    plan: Option<&FaultPlan>,
    replica: &ConcurrentBlockTree,
) -> DriverRun {
    assert!(config.threads >= 1, "at least one client thread");
    let hub = RecorderHub::new();
    let barrier = Barrier::new(config.threads);

    struct ThreadStats {
        appends_ok: u64,
        appends_failed: u64,
        reads: u64,
        read_stats: ReadStats,
        records: Vec<btadt_history::OperationRecord<BtOperation, BtResponse>>,
    }

    let start = Instant::now();
    let mut per_thread: Vec<ThreadStats> = Vec::with_capacity(config.threads);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|t| {
                let mut recorder = config
                    .record
                    .then(|| hub.handle::<BtOperation, BtResponse>(ProcessId(t as u32)));
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut mix = Mix::new(config.seed, t);
                    let mut session = plan
                        .map(|p| FaultSession::new(p, t))
                        .unwrap_or_else(FaultSession::passthrough);
                    // Per-client attribution matters when the replica is
                    // sync-traced: the race detector ties each head load
                    // to the issuing client's program order.
                    let mut reader = replica.reader_for(t);
                    let mut stats = (0u64, 0u64, 0u64);
                    // When the plan arms the batch-installer seam, every
                    // eighth operation goes through the batch door instead:
                    // a short chain extending the published tip, ingested in
                    // one writer-lock round, crossing `WriterMidBatch`
                    // between installs.  Eventual path only — batch blocks
                    // bypass the CAS mediation, so on the strong path a
                    // concurrent winner over the same parent would fork the
                    // chain and (correctly) refute the SC claim.
                    let batch_armed = plan.is_some_and(|p| p.arms_seam(Seam::WriterMidBatch))
                        && config.path == AppendPath::Eventual;
                    for op in 0..config.ops_per_thread {
                        if batch_armed && op % 8 == 0 {
                            let prepared = replica.prepare(t, vec![]);
                            let b1 = prepared.block;
                            let b2 = BlockBuilder::new(&b1).nonce(mix.next()).build();
                            let b3 = BlockBuilder::new(&b2).nonce(mix.next()).build();
                            let batch = vec![b1, b2, b3];
                            let idxs: Vec<_> = batch
                                .iter()
                                .map(|b| {
                                    recorder
                                        .as_mut()
                                        .map(|r| r.invoke(BtOperation::Append(b.clone())))
                                })
                                .collect();
                            // An injected panic mid-batch poisons the writer
                            // mutex; the client survives it and the next
                            // lock round heals the published view.
                            let report = catch_unwind(AssertUnwindSafe(|| {
                                replica.ingest_batch_with_faults(t, batch, &mut session)
                            }));
                            match report {
                                Ok(report) => {
                                    for (idx, verdict) in idxs.into_iter().zip(&report.verdicts) {
                                        let ok = verdict.is_accepted();
                                        if let (Some(r), Some(idx)) = (recorder.as_mut(), idx) {
                                            r.respond(idx, BtResponse::Appended(ok));
                                        }
                                        if ok {
                                            stats.0 += 1;
                                        } else {
                                            stats.1 += 1;
                                        }
                                    }
                                }
                                Err(_) => {
                                    for idx in idxs {
                                        if let (Some(r), Some(idx)) = (recorder.as_mut(), idx) {
                                            r.respond(idx, BtResponse::Appended(false));
                                        }
                                        stats.1 += 1;
                                    }
                                }
                            }
                            continue;
                        }
                        if (mix.next() % 100) < u64::from(config.append_percent) {
                            let prepared = replica.prepare(t, vec![]);
                            let idx = recorder
                                .as_mut()
                                .map(|r| r.invoke(BtOperation::Append(prepared.block.clone())));
                            let out = replica.commit_with_faults(prepared, &mut session);
                            if let (Some(r), Some(idx)) = (recorder.as_mut(), idx) {
                                r.respond(idx, BtResponse::Appended(out.appended));
                            }
                            if out.appended {
                                stats.0 += 1;
                            } else {
                                stats.1 += 1;
                            }
                        } else {
                            let idx = recorder.as_mut().map(|r| r.invoke(BtOperation::Read));
                            let chain = reader.read_with_faults(&mut session);
                            if let (Some(r), Some(idx)) = (recorder.as_mut(), idx) {
                                r.respond(idx, BtResponse::Chain(chain));
                            }
                            stats.2 += 1;
                        }
                    }
                    // Quiescent round: every client reads once after all
                    // appends have completed (no faults fire on this tail —
                    // the finite-trace criteria are judged against it).
                    barrier.wait();
                    let idx = recorder.as_mut().map(|r| r.invoke(BtOperation::Read));
                    let chain = reader.read();
                    if let (Some(r), Some(idx)) = (recorder.as_mut(), idx) {
                        r.respond(idx, BtResponse::Chain(chain));
                    }
                    stats.2 += 1;
                    ThreadStats {
                        appends_ok: stats.0,
                        appends_failed: stats.1,
                        reads: stats.2,
                        read_stats: reader.stats(),
                        records: recorder.map(|r| r.into_records()).unwrap_or_default(),
                    }
                })
            })
            .collect();
        for h in handles {
            per_thread.push(h.join().expect("client threads do not panic"));
        }
    });
    let wall = start.elapsed();

    let history = config.record.then(|| {
        hub.collect(
            per_thread
                .iter_mut()
                .map(|t| std::mem::take(&mut t.records))
                .collect(),
        )
    });

    DriverRun {
        config: *config,
        tip_rule: replica.tip_rule(),
        history,
        wall,
        appends_ok: per_thread.iter().map(|t| t.appends_ok).sum(),
        appends_failed: per_thread.iter().map(|t| t.appends_failed).sum(),
        reads: per_thread.iter().map(|t| t.reads).sum(),
        read_stats: per_thread.iter().map(|t| t.read_stats).collect(),
        blocks: replica.len(),
        height: replica.height(),
        max_fork_degree: replica.max_fork_degree(),
    }
}

/// The consistency criterion a path *claims* (Theorems 4.1–4.3): Strong
/// Consistency for the CAS-mediated path, Eventual Consistency for the
/// snapshot-mediated path.  The racy path claims strong consistency too —
/// that claim is exactly what the checker refutes.
pub fn claimed_criterion(
    path: AppendPath,
    rule: TipRule,
) -> Box<dyn ConsistencyCriterion<BtOperation, BtResponse>> {
    let score = rule.score();
    match path {
        AppendPath::Strong | AppendPath::Racy => {
            Box::new(strong_consistency(score, std::sync::Arc::new(AlwaysValid)))
        }
        AppendPath::Eventual => Box::new(eventual_consistency(
            score,
            std::sync::Arc::new(AlwaysValid),
        )),
    }
}

/// Checks a recorded run against the criterion its path claims, judged
/// with the score function of the tip rule the replica actually ran.
///
/// Panics if the run was not recorded.
pub fn check_claimed(run: &DriverRun) -> Verdict {
    let history = run
        .history
        .as_ref()
        .expect("check_claimed needs a recorded run");
    claimed_criterion(run.config.path, run.tip_rule).check(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_core::ops::BtHistoryExt;

    #[test]
    fn driver_counts_match_the_recorded_history() {
        let config = DriverConfig::small(AppendPath::Strong, 2, 42);
        let run = run_workload(&config);
        let history = run.history.as_ref().unwrap();
        assert_eq!(history.len() as u64, run.total_ops());
        assert_eq!(history.reads().len() as u64, run.reads);
        assert_eq!(
            history.appends().len() as u64,
            run.appends_ok + run.appends_failed
        );
        // The quiescent round adds one read per thread.
        assert!(run.reads >= config.threads as u64);
        let by_kind: u64 = run
            .read_stats
            .iter()
            .map(|s| s.hits + s.extended + s.rebuilt)
            .sum();
        assert_eq!(by_kind, run.reads, "every read is a hit or a tip move");
        assert_eq!(
            run.blocks as u64,
            run.appends_ok + 1,
            "strong path: every accepted append is installed once"
        );
    }

    #[test]
    fn unrecorded_runs_skip_the_history() {
        let mut config = DriverConfig::small(AppendPath::Eventual, 2, 7);
        config.record = false;
        let run = run_workload(&config);
        assert!(run.history.is_none());
        assert!(run.total_ops() > 0);
        assert!(
            run.read_stats.iter().all(|s| s.rebuilt == 0),
            "dropped chains are spliced in place"
        );
    }

    #[test]
    fn strong_runs_pass_their_claimed_criterion() {
        let run = run_workload(&DriverConfig::small(AppendPath::Strong, 3, 9));
        let verdict = check_claimed(&run);
        assert!(verdict.is_admitted(), "{verdict}");
        assert_eq!(run.max_fork_degree, 1);
    }

    #[test]
    fn eventual_runs_pass_their_claimed_criterion() {
        let run = run_workload(&DriverConfig::small(AppendPath::Eventual, 3, 10));
        let verdict = check_claimed(&run);
        assert!(verdict.is_admitted(), "{verdict}");
        assert_eq!(run.appends_failed, 0, "the prodigal oracle never rejects");
    }

    #[test]
    fn crash_mid_batch_runs_use_the_batch_door_and_stay_admitted() {
        let config = DriverConfig::small(AppendPath::Eventual, 2, 33);
        let plan = FaultPlan::crash_mid_batch(33);
        let run = run_workload_with(&config, Some(&plan));
        let verdict = check_claimed(&run);
        assert!(verdict.is_admitted(), "{verdict}");
        // Every eighth op per thread went through the batch door (3 blocks
        // each): 2 threads x 5 batch ops x 3 blocks on top of the regular
        // append mix.
        assert!(run.appends_ok > 0);
        assert!(
            run.appends_ok + run.appends_failed >= 30,
            "the batch door contributed its blocks"
        );
    }

    #[test]
    fn batch_door_stays_closed_on_the_strong_path() {
        let config = DriverConfig::small(AppendPath::Strong, 2, 34);
        let plan = FaultPlan::crash_mid_batch(34);
        let run = run_workload_with(&config, Some(&plan));
        let verdict = check_claimed(&run);
        assert!(verdict.is_admitted(), "{verdict}");
        assert_eq!(run.max_fork_degree, 1, "no unmediated blocks on strong");
    }

    #[test]
    fn mix_is_deterministic_per_seed_and_thread() {
        let mut a = Mix::new(5, 1);
        let mut b = Mix::new(5, 1);
        let mut c = Mix::new(5, 2);
        let xs: Vec<_> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<_> = (0..8).map(|_| b.next()).collect();
        let zs: Vec<_> = (0..8).map(|_| c.next()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
