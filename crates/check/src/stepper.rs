//! The real replica under a baton: the model checker's execution engine.
//!
//! [`ConcurrentBlockTree`] names its own preemption points: it calls
//! `FaultSession::apply(Seam::…)` at every seam, and a session asks its
//! [`SeamHook`] what happens there.  [`Baton`] is a hook that answers by
//! *blocking*: the crossing thread parks at the seam until the scheduler
//! hands it the baton ([`Baton::step`]), runs — alone — to its next park
//! point and hands the baton back.  Each model client is an OS thread on
//! the driver's program (`prepare` → `commit_with_faults`,
//! `BtReader::read_with_faults`, `ingest_batch_with_faults`; history
//! through [`RecorderHub`], sync events through [`SyncTraceHub`]), so a
//! schedule is a list of client indices and what gets explored is the code
//! that ships — the one `install_run` loop included — not a model of it.
//! Two park points belong to the client program rather than the replica,
//! [`OP_START`] and [`OP_COMMIT`]; every other label in a seam trace is a
//! [`Seam::label`].  Each park reports the [`Step`] that follows it — all
//! the scheduler knows about a client; `docs/ANALYSIS.md` §1 tabulates
//! them.  Every baton wait has a deadline: a client that neither parks nor
//! finishes fails the execution with the steps so far and where every
//! client last parked, so a deadlock — or a [`Step`] that let a client run
//! into a held lock — is a report, never a hung CI job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use btadt_concurrent::trace::SyncTraceHub;
use btadt_concurrent::{
    AppendPath, ConcurrentBlockTree, FaultAction, FaultSession, RecorderHub, Seam, SeamHook,
    ThreadRecorder,
};
use btadt_core::{BtHistory, BtOperation, BtResponse};
use btadt_history::{OperationRecord, ProcessId};
use btadt_oracle::{FrugalOracle, MeritTable, OracleConfig, SharedOracle, WeakenedFrugalOracle};
use btadt_types::{BlockBuilder, BlockId, GENESIS_ID};

/// Park label: before an operation's first shared access — an append's or
/// batch's head load, or the quiescent read behind the barrier.
pub const OP_START: &str = "op-start";
/// Park label: candidate built and `append(b)` invoked; the commit (or the
/// batch door) not yet entered.
pub const OP_COMMIT: &str = "op-commit";

/// How long any baton wait may last before the execution fails.
const DEADLINE: Duration = Duration::from_secs(10);

/// One operation of a client program; a gated quiescent read — the
/// driver's barrier, which the finite-trace criteria are specified
/// against — follows every program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A mediated append: `prepare` → `commit_with_faults`.
    Append,
    /// A 2-block run on the published tip, `ingest_batch_with_faults`.
    Batch,
    /// A [`Batch`](Op::Batch) whose writer dies at `WriterMidBatch` (the
    /// hook answers `Panic` there), poisoning the writer mutex with one
    /// block installed; the client survives as the driver's does.
    BatchPanic,
    /// A mid-run read.
    Read,
}

/// Configuration of one model-checking cell.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Which append path the replica runs.
    pub path: AppendPath,
    /// Positive control: mediate the strong path with a
    /// [`WeakenedFrugalOracle`] whose first two consumers both "win" — a
    /// mediation bug, not a head race: only the sweep catches the fork.
    pub weaken_cas: bool,
    /// One main program per client (2–3 clients is the practical range).
    pub programs: &'static [&'static [Op]],
}

impl ModelConfig {
    /// Upper bound on the steps of one schedule: an append or a 2-block
    /// run is at most 6 steps, a read (the quiescent one included) is 1.
    pub fn max_schedule_len(&self) -> usize {
        let steps = |op: &Op| if *op == Op::Read { 1 } else { 6 };
        let main = self.programs.iter().copied().flatten();
        main.map(steps).sum::<usize>() + self.programs.len()
    }

    fn build_replica(&self) -> ConcurrentBlockTree {
        let clients = self.programs.len();
        match self.path {
            AppendPath::Strong if self.weaken_cas => {
                let always_grant = OracleConfig {
                    seed: 0,
                    probability_scale: 1e9,
                    min_probability: 1.0,
                };
                let honest = FrugalOracle::new(1, MeritTable::uniform(clients), always_grant);
                let oracle = SharedOracle::new(WeakenedFrugalOracle::new(honest, 2));
                ConcurrentBlockTree::strong_with_oracle(oracle, clients)
            }
            AppendPath::Strong => ConcurrentBlockTree::strong(clients, 0),
            AppendPath::Eventual => ConcurrentBlockTree::eventual(clients),
            AppendPath::Racy => ConcurrentBlockTree::racy(clients),
        }
    }
}

/// What a parked client's next step does to shared state: all the
/// scheduler knows, and needs to know, about it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Acquire load of the packed head (`prepare`, a read).
    HeadRead,
    /// The quiescent read: a head load, disabled until every main program
    /// finished.
    QuiescentRead,
    /// RMW of the CAS register `K[parent]`.
    Cas(BlockId),
    /// `update; scan` on the token slot of one parent.
    Token(BlockId),
    /// Begins by taking the writer mutex: disabled while another client is
    /// inside the install loop (it would block on the real mutex, baton in
    /// hand).
    Lock,
    /// Inside the install loop, mutex held: lock-protected state only
    /// (validation, arena push, tree link).
    Install,
    /// Inside the install loop: the head store *and* the mutex release —
    /// one step in the real replica, no seam separates them.
    Publish,
    /// Client-local or oracle-internal state (`getToken*`, slot lookup).
    Local,
}

impl Step {
    /// Whether the client sits inside the install loop, writer mutex held.
    pub fn holds_lock(self) -> bool {
        matches!(self, Step::Install | Step::Publish)
    }

    /// Whether two steps are dependent: the sleep-set pruner must not
    /// commute them.
    pub fn conflicts(self, other: Step) -> bool {
        use Step::*;
        match (self, other) {
            (HeadRead | QuiescentRead, Publish) => true,
            (Publish, HeadRead | QuiescentRead | Publish) => true,
            (Lock, Lock | Publish) | (Publish, Lock) => true,
            (Cas(a), Cas(b)) | (Token(a), Token(b)) => a == b,
            _ => false,
        }
    }
}

/// A parked client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parked {
    /// Where it waits: [`OP_START`], [`OP_COMMIT`] or a [`Seam::label`].
    pub label: &'static str,
    /// What it does next.
    pub step: Step,
}

type Records = Vec<OperationRecord<BtOperation, BtResponse>>;

#[derive(Debug)]
struct Board {
    /// Who holds the baton (`None`: the scheduler).
    turn: Option<usize>,
    /// Where each client last parked; `None` before its first park and
    /// once its program finished.
    parked: Vec<Option<Parked>>,
    /// Per client, for its operation in flight: the candidate's parent,
    /// and whether its writer dies mid-batch.
    flight: Vec<(BlockId, bool)>,
    /// `(client, label of the park point left)` per step taken.
    seams: Vec<(usize, &'static str)>,
    /// What the finished clients recorded.
    records: Vec<Records>,
    /// Torn down: parks stop blocking and the clients run free (the
    /// replica is thread-safe: they simply finish).
    free: bool,
    failure: Option<String>,
}

/// The baton: the [`SeamHook`] (and operation-boundary gate) that parks
/// every crossing client, and the scheduler's handle to let one run.
#[derive(Debug)]
pub struct Baton {
    board: Mutex<Board>,
    /// One condvar per client, then the scheduler's.
    wake: Vec<Condvar>,
    deadline: Duration,
}

impl Baton {
    /// A baton for `clients` threads, each of which must park first thing
    /// ([`settle`](Self::settle) waits for that).
    pub fn new(clients: usize, deadline: Duration) -> Baton {
        let board = Board {
            turn: None,
            parked: vec![None; clients],
            flight: vec![(GENESIS_ID, false); clients],
            seams: Vec::new(),
            records: Vec::new(),
            free: false,
            failure: None,
        };
        Baton {
            board: Mutex::new(board),
            wake: (0..=clients).map(|_| Condvar::new()).collect(),
            deadline,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Board> {
        // Every board update is a plain store, valid at every step.
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands the baton to `to` (`None`: the scheduler).
    fn give(&self, board: &mut Board, to: Option<usize>) {
        board.turn = to;
        self.wake[to.unwrap_or(self.wake.len() - 1)].notify_one();
    }

    /// Blocks `me` (`None`: the scheduler) until `ready`, and reports how
    /// the execution stands.  Past the deadline it fails and is torn down.
    fn wait(
        &self,
        board: MutexGuard<'_, Board>,
        me: Option<usize>,
        ready: impl Fn(&Board) -> bool,
    ) -> Result<(), String> {
        let (mut board, wait) = self.wake[me.unwrap_or(self.wake.len() - 1)]
            .wait_timeout_while(board, self.deadline, |b| !ready(b) && !b.free)
            .unwrap_or_else(PoisonError::into_inner);
        if wait.timed_out() {
            board.failure = Some(format!(
                "{me:?} waited {:?} for the baton held by {:?} (None: the scheduler); steps so \
                 far {:?}; last park points {:?}",
                self.deadline, board.turn, board.seams, board.parked
            ));
            self.tear_down(&mut board);
        }
        board.failure.clone().map_or(Ok(()), Err)
    }

    fn tear_down(&self, board: &mut Board) {
        board.free = true;
        self.wake.iter().for_each(Condvar::notify_one);
    }

    /// Client side: `client` stands at `label` with `step` next; gives the
    /// baton back and blocks until the scheduler returns it.
    pub fn park(&self, client: usize, label: &'static str, step: Step) {
        let mut board = self.lock();
        board.parked[client] = Some(Parked { label, step });
        if !board.free {
            self.give(&mut board, None);
            let _ = self.wait(board, Some(client), |b| b.turn == Some(client));
        }
    }

    /// Client side: `client`'s program finished, having recorded `records`.
    pub fn done(&self, client: usize, records: Records) {
        let mut board = self.lock();
        board.parked[client] = None;
        board.records.push(records);
        self.give(&mut board, None);
    }

    /// Scheduler side: waits until every client reached its first park.
    pub fn settle(&self) -> Result<(), String> {
        self.wait(self.lock(), None, |b| !b.parked.contains(&None))
    }

    /// Scheduler side: hands `client` the baton and waits until it parks
    /// again or finishes.  Fails — with the steps so far and where every
    /// client last parked — when it does neither before the deadline.
    pub fn step(&self, client: usize) -> Result<(), String> {
        let mut board = self.lock();
        if let Some(why) = &board.failure {
            return Err(why.clone());
        }
        let label = board.parked[client].expect("step on a parked client").label;
        board.seams.push((client, label));
        self.give(&mut board, Some(client));
        self.wait(board, None, |b| b.turn.is_none())
    }

    /// Where every client is parked (`None`: its program finished).
    pub fn parked(&self) -> Vec<Option<Parked>> {
        self.lock().parked.clone()
    }

    /// `(client, label of the park point left)` per step taken: the
    /// replayable seam trace.
    pub fn seams(&self) -> Vec<(usize, &'static str)> {
        self.lock().seams.clone()
    }
}

impl SeamHook for Baton {
    fn at(&self, client: usize, seam: Seam, _occurrence: u32) -> FaultAction {
        use Seam::*;
        let (parent, dies) = self.lock().flight[client];
        let dies = dies && seam == WriterMidBatch;
        let step = match seam {
            CasPreConsume => Step::Cas(parent),
            SnapshotPreConsume => Step::Token(parent),
            CasWinPreInstall | CasLossPreHelp | SnapshotPreInstall => Step::Lock,
            WriterPrePublish => Step::Publish,
            // The injected panic releases (and poisons) the writer mutex too.
            WriterMidBatch if dies => Step::Publish,
            WriterPreInsert | WriterMidBatch => Step::Install,
            ReaderPreWalk => Step::HeadRead,
            _ => Step::Local, // the storage seams: not on these paths
        };
        self.park(client, seam.label(), step);
        match dies {
            true => FaultAction::Panic,
            false => FaultAction::Proceed,
        }
    }
}

/// The driver's per-operation program (`driver::run_workload_with_on`),
/// with the driver's barrier replaced by the gated quiescent park.
fn run_client(
    program: &[Op],
    c: usize,
    baton: &Baton,
    replica: &ConcurrentBlockTree,
    mut rec: ThreadRecorder<BtOperation, BtResponse>,
) {
    let mut session = FaultSession::hooked(baton, c);
    let mut reader = replica.reader_for(c);
    for &op in program {
        if op == Op::Read {
            let idx = rec.invoke(BtOperation::Read);
            let chain = reader.read_with_faults(&mut session);
            rec.respond(idx, BtResponse::Chain(chain));
            continue;
        }
        baton.park(c, OP_START, Step::HeadRead);
        let prepared = replica.prepare(c, vec![]);
        baton.lock().flight[c] = (prepared.parent.id, op == Op::BatchPanic);
        // Without a consume seam (racy path, batch door) the commit goes
        // straight for the writer lock.
        let direct = op != Op::Append || replica.path() == AppendPath::Racy;
        let commit = if direct { Step::Lock } else { Step::Local };
        if op == Op::Append {
            let idx = rec.invoke(BtOperation::Append(prepared.block.clone()));
            baton.park(c, OP_COMMIT, commit);
            let out = replica.commit_with_faults(prepared, &mut session);
            rec.respond(idx, BtResponse::Appended(out.appended));
            continue;
        }
        let second = BlockBuilder::new(&prepared.block)
            .producer(c as u32)
            .build();
        let run = vec![prepared.block, second];
        let idxs: Vec<usize> = (run.iter())
            .map(|b| rec.invoke(BtOperation::Append(b.clone())))
            .collect();
        baton.park(c, OP_COMMIT, commit);
        // An injected panic mid-run poisons the writer mutex; the client
        // survives it and a later lock round heals the published view.
        let report = catch_unwind(AssertUnwindSafe(|| {
            replica.ingest_batch_with_faults(c, run, &mut session)
        }));
        for (i, idx) in idxs.into_iter().enumerate() {
            let ok = (report.as_ref()).is_ok_and(|r| r.verdicts[i].is_accepted());
            rec.respond(idx, BtResponse::Appended(ok));
        }
    }
    baton.park(c, OP_START, Step::QuiescentRead);
    let idx = rec.invoke(BtOperation::Read);
    rec.respond(idx, BtResponse::Chain(reader.read()));
    baton.done(c, rec.into_records());
}

/// One run of a cell on a fresh replica, stepped through its [`Baton`];
/// once every client finished, what [`crate::checker::judge_terminal`] reads.
pub struct Execution {
    /// The cell configuration running.
    pub config: ModelConfig,
    /// The scheduler's handle on the clients.
    pub baton: Arc<Baton>,
    /// The replica the clients run against (writer tree, published view,
    /// poison-heal count).
    pub replica: Arc<ConcurrentBlockTree>,
    /// The replica's synchronization-event trace.
    pub trace: Arc<SyncTraceHub>,
    recorder: RecorderHub,
    threads: Vec<JoinHandle<()>>,
}

impl Execution {
    /// Spawns the cell's clients on a fresh replica and waits until each
    /// is parked at its first park point.
    pub fn start(config: ModelConfig) -> Result<Execution, String> {
        let baton = Arc::new(Baton::new(config.programs.len(), DEADLINE));
        let trace = SyncTraceHub::new();
        let replica = Arc::new(config.build_replica().with_sync_trace(Arc::clone(&trace)));
        let recorder = RecorderHub::new();
        let threads = (config.programs.iter().enumerate())
            .map(|(c, &program)| {
                let (baton, replica) = (Arc::clone(&baton), Arc::clone(&replica));
                let rec = recorder.handle(ProcessId(c as u32));
                thread::spawn(move || run_client(program, c, &baton, &replica, rec))
            })
            .collect();
        baton.settle()?; // on failure the clients were torn down: detach them
        Ok(Execution {
            config,
            baton,
            replica,
            trace,
            recorder,
            threads,
        })
    }

    /// The history recorded by the clients that finished.
    pub fn history(&self) -> BtHistory {
        self.recorder.collect(self.baton.lock().records.clone())
    }
}

impl Drop for Execution {
    /// Tears the baton down — clients still parked (a sleep-pruned node,
    /// the schedule cap) run free — and joins them; after a failure a
    /// client may be stuck, so they are only detached.
    fn drop(&mut self) {
        let mut board = self.baton.lock();
        self.baton.tear_down(&mut board);
        let failed = board.failure.is_some();
        drop(board);
        if !failed {
            self.threads.drain(..).for_each(|t| drop(t.join()));
        }
    }
}

#[cfg(test)]
impl ModelConfig {
    /// The smoke-sized cell: 2 clients, one append + mid-run read each.
    pub(crate) fn smoke(path: AppendPath) -> Self {
        ModelConfig {
            path,
            weaken_cas: false,
            programs: &[&[Op::Append, Op::Read], &[Op::Append, Op::Read]],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::enabled;
    use btadt_core::ops::BtHistoryExt;

    use std::sync::mpsc;

    /// Round-robin over the enabled clients: always a valid schedule.
    fn run_round_robin(config: ModelConfig) -> Execution {
        let exec = Execution::start(config).unwrap();
        let mut steps = 0;
        while exec.baton.parked().iter().any(Option::is_some) {
            let enabled = enabled(&exec.baton.parked());
            assert!(!enabled.is_empty(), "no deadlock under the baton");
            exec.baton.step(enabled[steps % enabled.len()]).unwrap();
            steps += 1;
        }
        assert!(
            steps <= config.max_schedule_len(),
            "schedules never exceed the step bound"
        );
        assert_eq!(exec.baton.seams().len(), steps, "one trace entry per step");
        exec
    }

    #[test]
    fn strong_smoke_round_robin_reaches_a_single_chain() {
        let run = run_round_robin(ModelConfig::smoke(AppendPath::Strong));
        let tree = run.replica.writer_tree_snapshot();
        assert_eq!(tree.len(), 2, "k = 1: one winner per parent");
        assert_eq!(run.replica.snapshot().len, 2);
        let history = run.history();
        let reads = history.reads(); // by response time: the quiescent pair is last
        assert_eq!(reads.len(), 4);
        assert_eq!(reads[2].1, reads[3].1, "quiescent reads agree");
    }

    #[test]
    fn eventual_smoke_round_robin_retains_every_append() {
        let run = run_round_robin(ModelConfig::smoke(AppendPath::Eventual));
        assert_eq!(run.replica.len(), 3, "the prodigal oracle never rejects");
    }

    #[test]
    fn racy_smoke_round_robin_retains_every_append() {
        let run = run_round_robin(ModelConfig::smoke(AppendPath::Racy));
        assert_eq!(run.replica.len(), 3);
    }

    #[test]
    fn weakened_cas_oracle_forks_the_strong_path() {
        let honest = ModelConfig::smoke(AppendPath::Strong);
        let weakened = ModelConfig {
            weaken_cas: true,
            ..honest
        };
        // The control is a broken *oracle*, not a different program: same
        // seams, same step bound.
        assert_eq!(weakened.max_schedule_len(), honest.max_schedule_len());
        // Round-robin prepares both candidates on genesis before either
        // consume: the oracle tells both they won and the real install
        // loop grafts both — the strong tree forks.
        let run = run_round_robin(weakened);
        let tree = run.replica.writer_tree_snapshot();
        assert_eq!(tree.len(), 3, "the broken oracle forked the chain");
        assert_eq!(tree.max_fork_degree(), 2);
    }

    #[test]
    fn seam_trace_matches_executed_steps() {
        let run = run_round_robin(ModelConfig::smoke(AppendPath::Strong));
        let seams = run.baton.seams();
        let crossed = |label: &str| seams.iter().any(|(_, s)| *s == label);
        assert!(crossed(OP_START) && crossed(OP_COMMIT));
        assert!(crossed(Seam::CasPreConsume.label()));
        assert!(crossed(Seam::WriterPrePublish.label()));
        // Every entry is a replica seam or one of the two operation
        // boundaries — nothing the replica does not itself name.
        for (_, label) in &seams {
            assert!(Seam::from_label(label).is_some() || [OP_START, OP_COMMIT].contains(label));
        }
    }

    #[test]
    fn mid_batch_panic_heals_under_the_baton() {
        let config = ModelConfig {
            programs: &[&[Op::BatchPanic, Op::Append], &[Op::Append, Op::Read]],
            ..ModelConfig::smoke(AppendPath::Eventual)
        };
        let run = run_round_robin(config);
        assert_eq!(run.replica.poison_heals(), 1);
        // One block of client 0's run, its second append, client 1's append.
        assert_eq!(
            run.replica.len(),
            4,
            "the installed prefix healed into view"
        );
        assert_eq!(run.replica.writer_tree_snapshot().len(), 4);
        assert_eq!(run.replica.poison_heals(), 1, "nothing left to heal");
    }

    /// A hook that never answers: the client crossing it neither parks nor
    /// finishes, which must fail the execution instead of hanging it.
    #[derive(Debug)]
    struct BlocksForever(Mutex<mpsc::Receiver<()>>);

    impl SeamHook for BlocksForever {
        fn at(&self, _: usize, _: Seam, _: u32) -> FaultAction {
            let _ = self.0.lock().unwrap().recv(); // until the test ends
            FaultAction::Proceed
        }
    }

    #[test]
    fn a_client_that_never_parks_fails_the_execution_with_its_schedule() {
        let (release, blocked) = mpsc::channel();
        let hook = BlocksForever(Mutex::new(blocked));
        let baton = Baton::new(2, Duration::from_millis(100));
        thread::scope(|scope| {
            for c in 0..2 {
                let (baton, hook) = (&baton, &hook);
                scope.spawn(move || {
                    baton.park(c, OP_START, Step::HeadRead);
                    if c == 0 {
                        baton.park(c, OP_COMMIT, Step::Local);
                        FaultSession::hooked(hook, c).apply(Seam::WriterPreInsert);
                    }
                    baton.done(c, Vec::new());
                });
            }
            baton.settle().unwrap();
            baton.step(0).unwrap();
            baton.step(1).unwrap();
            assert_eq!(baton.parked()[1], None, "client 1 finished");
            let why = baton.step(0).unwrap_err();
            let stuck = "None waited 100ms for the baton held by Some(0)";
            assert!(why.starts_with(stuck), "{why}");
            let so_far = r#"[(0, "op-start"), (1, "op-start"), (0, "op-commit")]"#;
            assert!(why.contains(so_far), "{why}");
            let last = r#"[Some(Parked { label: "op-commit", step: Local }), None]"#;
            assert!(why.contains(last), "{why}");
            assert_eq!(baton.step(1).unwrap_err(), why, "the failure is sticky");
            drop(release); // lets the blocked client end, and the scope with it
        });
    }
}
