//! A thread-safe shared-memory BlockTree replica mediated by the oracles.
//!
//! Section 4.1 proves the BT-ADT is implementable in shared memory by
//! reducing each oracle to a classical wait-free object:
//!
//! * **Θ_F,k=1 → Compare&Swap** (Figure 10, Theorems 4.1/4.2): with `k = 1`
//!   at most one `consumeToken` per parent succeeds, so an append mediated
//!   by [`OracleCas`] behaves like `CAS(K[h], ∅, {b})` — the tree stays a
//!   single chain and the recorded histories satisfy **BT Strong
//!   Consistency**;
//! * **Θ_P → Atomic Snapshot** (Figure 12, Theorem 4.3): the prodigal
//!   `consumeToken` is `update; scan` on a snapshot object — every append
//!   is retained, forks appear under contention, and the recorded histories
//!   satisfy **BT Eventual Consistency** (but not Strong Prefix).
//!
//! [`ConcurrentBlockTree`] turns those reductions into an actual replica:
//! OS threads call [`append`](ConcurrentBlockTree::append) /
//! [`read`](ConcurrentBlockTree::read) concurrently.  Appends run the
//! refinement `getToken* ; consumeToken` (Definition 3.7) against the
//! chosen mediator and then *install* the winning block.  There is one
//! install loop, run under the one writer mutex: per block it validates
//! chaining, mirrors the block into the wait-free [`SnapshotStore`] and
//! links it into the rich arena [`BlockTree`]; the blocks the run linked
//! are then persisted to the durable sink as one run, and one release
//! store publishes the new `(length, selected tip)` pair.  A mediated
//! append is that loop over a run of one,
//! [`ingest_batch`](ConcurrentBlockTree::ingest_batch) is that loop over a
//! staged batch, and the fault seams sit inside it — so the chaos drills
//! and the fault-free paths execute the same code.  Reads never take the
//! mutex: they decode the published pair with one acquire load and walk
//! frozen parent links — wait-free, as the reductions require.
//!
//! CAS losers **help**: the winning block returned by the failed
//! `compare_and_swap` is installed by the loser too (idempotently), so the
//! replica makes progress even if the winner is descheduled between its CAS
//! and its install.
//!
//! The deliberately unsafe third path, [`AppendPath::Racy`], bypasses the
//! oracle entirely and publishes its own block as the tip without
//! re-running the selection function — the classic unmediated
//! last-writer-wins bug.  Its histories are what the Strong-Consistency
//! checker is expected to *catch* (see `tests/histories.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use btadt_core::invariant::{check_block_tree, InvariantViolation};
use btadt_oracle::{FrugalOracle, MeritTable, OracleConfig, OracleStats, SharedOracle};
use btadt_pipeline::{stage_batch, BatchReport, Ingest, IngestError, IngestVerdict, StagedBatch};
use btadt_store::{check_fits_record, BlockStore};
use btadt_types::{
    Block, BlockBuilder, BlockId, BlockTree, Blockchain, HeaviestChain, LengthScore, LongestChain,
    NodeIdx, Score, SelectionFunction, TieBreak, Transaction, WorkScore,
};

use crate::cas_from_oracle::OracleCas;
use crate::fault::{FaultAction, FaultSession, Seam};
use crate::prodigal_from_snapshot::SnapshotConsumeToken;
use crate::store::{SnapshotStore, SnapshotView, StoreExhausted};
use crate::trace::{pack_version, SyncEventKind, SyncTraceHub};

/// Which oracle reduction mediates appends (plus the deliberately broken
/// unmediated variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendPath {
    /// Θ_F,k=1 via Compare&Swap (Figure 10): strongly-consistent appends.
    Strong,
    /// Θ_P via Atomic Snapshot (Figure 12): eventually-consistent appends.
    Eventual,
    /// No mediation at all; publishes its own tip blindly.  Exists so the
    /// consistency checkers have a genuine race to catch.
    Racy,
}

impl AppendPath {
    /// Short label used by benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            AppendPath::Strong => "strong-cas",
            AppendPath::Eventual => "eventual-snapshot",
            AppendPath::Racy => "racy-unmediated",
        }
    }
}

/// How the published tip is selected from the writer-side tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TipRule {
    /// Longest chain (maximum height), the paper's running example.
    Height {
        /// Tie-break towards the largest id (`true`) or smallest (`false`).
        prefer_largest_id: bool,
    },
    /// Heaviest chain (maximum cumulative work).
    Work {
        /// Tie-break towards the largest id (`true`) or smallest (`false`).
        prefer_largest_id: bool,
    },
}

impl Default for TipRule {
    fn default() -> Self {
        TipRule::Height {
            prefer_largest_id: true,
        }
    }
}

impl TipRule {
    /// The score function the consistency criteria should judge reads with
    /// under this rule.
    pub fn score(self) -> Arc<dyn Score> {
        match self {
            TipRule::Height { .. } => Arc::new(LengthScore),
            TipRule::Work { .. } => Arc::new(WorkScore),
        }
    }
}

enum Mediator {
    Frugal(SharedOracle),
    Prodigal {
        slots: Mutex<HashMap<btadt_types::BlockId, Arc<SnapshotConsumeToken>>>,
        capacity: usize,
    },
    Racy,
}

/// A candidate append: the parent chosen from a wait-free snapshot and the
/// block built on it.  Splitting preparation from [`commit`] lets callers
/// record the invocation of `append(b)` with the actual input block `b`,
/// and lets tests force two candidates onto the same parent.
///
/// [`commit`]: ConcurrentBlockTree::commit
#[derive(Clone, Debug)]
pub struct PreparedAppend {
    /// The client (thread) issuing the append.
    pub client: usize,
    /// The parent the candidate chains to (`last_block(f(bt))` at
    /// preparation time).
    pub parent: Block,
    /// The candidate block `b`.
    pub block: Block,
}

// Ingest failures are *structured*, not panics: a fault-injected or
// byzantine block must not tear down the replica mid-install.  The replica
// reports them in the unified [`IngestError`] taxonomy; the store-side
// exhaustion error converts in here, next to the type it wraps.
impl From<StoreExhausted> for IngestError {
    fn from(e: StoreExhausted) -> Self {
        IngestError::StoreExhausted {
            capacity: e.capacity,
        }
    }
}

/// Outcome of one committed append.
#[derive(Clone, Debug)]
pub struct AppendOutcome {
    /// `true` iff the candidate block itself was appended.
    pub appended: bool,
    /// The candidate block (appended when `appended`).
    pub block: Block,
    /// On a CAS loss, the winning block that occupies the parent's slot
    /// (installed by helping).
    pub observed: Option<Block>,
    /// `getToken` invocations before the token was granted.
    pub get_token_attempts: u64,
}

/// Everything the writer mutex serializes.
struct Writer {
    tree: BlockTree,
    /// Optional durable sink: every installed block is mirrored into this
    /// chunked [`BlockStore`], so the durable record sequence is exactly
    /// the install order.  Chaos cells attach a store over a faulted
    /// medium here and crash/recover it in their epilogue.
    durable: Option<BlockStore>,
}

/// The durable half of one install run: when dropped, persists the blocks
/// the run mirrored into the [`SnapshotStore`] — slots `from .. pushed()`,
/// contiguous and in link order because the writer lock is held — to the
/// sink as **one** [`BlockStore::append_run`].
///
/// The install loop drops it before the run publishes.  It is declared
/// before the tree's batch session, so when a panic unwinds out of the loop
/// instead, the session reconciles the tree first and the guard then
/// persists exactly the linked prefix: however the run is left, the writer
/// tree is never ahead of the sink.
struct DurableRun<'a> {
    sink: &'a mut BlockStore,
    mirror: &'a SnapshotStore,
    from: u32,
}

impl Drop for DurableRun<'_> {
    fn drop(&mut self) {
        let mirror = self.mirror;
        let linked = self.from..mirror.pushed();
        self.sink.append_run(linked.map(|slot| mirror.block(slot)));
    }
}

/// Which tip an install publishes.
#[derive(Clone, Copy)]
enum PublishTip {
    /// The tip the selection function picks from the updated tree.
    Selected,
    /// The newest installed block itself, without re-running the
    /// selection — the racy path's last-writer-wins bug.  Publishing under
    /// the writer lock keeps the store itself coherent (the bug is the tip
    /// choice, not memory corruption).
    Own,
}

/// The shared-memory BlockTree replica.
pub struct ConcurrentBlockTree {
    writer: Mutex<Writer>,
    store: SnapshotStore,
    mediator: Mediator,
    tip_rule: TipRule,
    nonce: AtomicU64,
    clients: usize,
    /// Writer-mutex poison recoveries performed by [`Self::lock_writer`] —
    /// observable evidence that a monitor or helper *healed* a dead
    /// writer's lock instead of propagating its panic.
    poison_heals: AtomicU64,
    /// Optional synchronization-event trace sink for the happens-before
    /// race detector (see [`crate::trace`]).  `None` (the default) keeps
    /// the instrumented points to a single branch.
    trace: Option<Arc<SyncTraceHub>>,
}

impl ConcurrentBlockTree {
    /// Strongly-consistent replica: appends mediated by Θ_F,k=1 through the
    /// CAS reduction.  `clients` is the number of distinct client indices
    /// that will call in (it sizes the oracle's merit table).
    ///
    /// The oracle is configured with grant probability 1 so `getToken*`
    /// terminates on the first attempt (no unbounded oracle retries);
    /// contention is resolved entirely by `consumeToken` — the CAS — as
    /// Theorem 4.1 requires.  Note that only *reads* are wait-free:
    /// appends serialize behind the shared oracle's lock and the writer
    /// mutex during installation.
    pub fn strong(clients: usize, seed: u64) -> Self {
        let oracle = SharedOracle::new(FrugalOracle::new(
            1,
            MeritTable::uniform(clients.max(1)),
            OracleConfig {
                seed,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        ));
        Self::with_mediator(Mediator::Frugal(oracle), clients)
    }

    /// Strongly-consistent replica over a caller-supplied shared oracle
    /// (must be frugal with `k = 1`).
    pub fn strong_with_oracle(oracle: SharedOracle, clients: usize) -> Self {
        assert_eq!(
            oracle.fork_bound(),
            Some(1),
            "the strong path requires the frugal oracle with k = 1"
        );
        Self::with_mediator(Mediator::Frugal(oracle), clients)
    }

    /// Eventually-consistent replica: appends mediated by Θ_P through the
    /// atomic-snapshot reduction (one snapshot object per parent block,
    /// one register per client).
    pub fn eventual(clients: usize) -> Self {
        Self::with_mediator(
            Mediator::Prodigal {
                slots: Mutex::new(HashMap::new()),
                capacity: clients.max(1),
            },
            clients,
        )
    }

    /// The deliberately racy, unmediated replica (see [`AppendPath::Racy`]).
    pub fn racy(clients: usize) -> Self {
        Self::with_mediator(Mediator::Racy, clients)
    }

    fn with_mediator(mediator: Mediator, clients: usize) -> Self {
        ConcurrentBlockTree {
            writer: Mutex::new(Writer {
                tree: BlockTree::new(),
                durable: None,
            }),
            store: SnapshotStore::new(),
            mediator,
            tip_rule: TipRule::default(),
            nonce: AtomicU64::new(1),
            clients: clients.max(1),
            poison_heals: AtomicU64::new(0),
            trace: None,
        }
    }

    /// Replaces the tip-selection rule (builder style; call before use).
    pub fn with_tip_rule(mut self, rule: TipRule) -> Self {
        self.tip_rule = rule;
        self
    }

    /// Attaches a synchronization-event trace hub (builder style; call
    /// before use).  Every head load/store, writer-lock acquire/release,
    /// CAS win/loss, token consume, and arena push is then recorded for
    /// the happens-before race detector.  Poison-heal republishes are
    /// *not* traced — they run on behalf of a dead writer, not a client.
    pub fn with_sync_trace(mut self, hub: Arc<SyncTraceHub>) -> Self {
        self.trace = Some(hub);
        self
    }

    #[inline]
    fn emit(&self, client: usize, kind: SyncEventKind) {
        if let Some(hub) = &self.trace {
            hub.record(client, kind);
        }
    }

    /// Attaches a durable block store (builder style; call before use).
    /// The blocks every subsequent install run links are appended to it as
    /// one run under the writer lock, before the run is published; a block
    /// too large for a durable record is then refused before it links.
    pub fn with_durable_store(self, store: BlockStore) -> Self {
        self.lock_writer().durable = Some(store);
        self
    }

    /// Detaches and returns the durable store, if one is attached — the
    /// hand-off point for the chaos epilogue's crash/recover drill.
    /// Subsequent installs stop mirroring.
    pub fn take_durable_store(&self) -> Option<BlockStore> {
        self.lock_writer().durable.take()
    }

    /// How many times `lock_writer` recovered the writer mutex from
    /// poison (a panic while the lock was held).
    pub fn poison_heals(&self) -> u64 {
        // ORDERING: Relaxed — a monotone diagnostic counter; readers only
        // need an eventually-visible tally, never an ordering with replica
        // state (the heal itself synchronizes via the writer mutex).
        self.poison_heals.load(Ordering::Relaxed)
    }

    /// A clone of the writer-side tree (takes the writer lock; epilogue
    /// and diagnostic use, not the hot path).
    pub fn writer_tree_snapshot(&self) -> BlockTree {
        self.lock_writer().tree.clone()
    }

    /// Which append path this replica runs.
    pub fn path(&self) -> AppendPath {
        match self.mediator {
            Mediator::Frugal(_) => AppendPath::Strong,
            Mediator::Prodigal { .. } => AppendPath::Eventual,
            Mediator::Racy => AppendPath::Racy,
        }
    }

    /// The tip-selection rule in force.
    pub fn tip_rule(&self) -> TipRule {
        self.tip_rule
    }

    /// Number of client indices the replica was sized for.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The wait-free `read()`: `{b0}⌢f(bt)` for the latest published
    /// selection.  Materializes the chain on every call; hot read loops
    /// should hold a [`BtReader`] instead, which memoizes per published
    /// tip.
    pub fn read(&self) -> Blockchain {
        self.store.read()
    }

    /// Creates a per-thread reader handle with tip-versioned memoization.
    /// Traced reads attribute to client 0; use
    /// [`reader_for`](Self::reader_for) when the client index matters.
    pub fn reader(&self) -> BtReader<'_> {
        self.reader_for(0)
    }

    /// Creates a reader handle whose traced head loads attribute to
    /// `client` — the race detector needs reads tied to the issuing
    /// client's program order.
    pub fn reader_for(&self, client: usize) -> BtReader<'_> {
        BtReader {
            replica: self,
            client,
            memo: None,
            stats: ReadStats::default(),
        }
    }

    /// The latest published `(length, tip)` view (one atomic load).
    pub fn snapshot(&self) -> SnapshotView {
        self.store.snapshot()
    }

    /// The block at the latest published tip (wait-free).
    pub fn tip_block(&self) -> Block {
        self.store.block(self.store.snapshot().tip).clone()
    }

    /// Number of published blocks, genesis included (wait-free).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` iff only the genesis block is published.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Height of the latest published selected chain (wait-free).
    pub fn height(&self) -> u64 {
        self.store.block(self.store.snapshot().tip).height
    }

    /// Maximum fork degree of the writer-side tree (takes the writer lock;
    /// diagnostic, not part of the hot path).
    pub fn max_fork_degree(&self) -> usize {
        self.lock_writer().tree.max_fork_degree()
    }

    /// Acquires the writer mutex, **recovering from poison** instead of
    /// propagating the panic: a writer that died at a seam may have
    /// installed a block without publishing it, so the healer republishes
    /// the best tip over the committed prefix and clears the poison flag.
    /// Installs happen store-first, so the writer tree never runs ahead of
    /// the arena and the heal is always a (re-)publish, never a rebuild.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.writer.clear_poison();
                let guard = poisoned.into_inner();
                self.heal_after_poison(&guard.tree);
                // ORDERING: Relaxed — counter increment only; the heal's
                // republish already synchronized via the store's release
                // publish, and the mutex orders this against other writers.
                self.poison_heals.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Re-establishes the published view after a writer died holding the
    /// lock: re-runs tip selection over the writer tree and publishes it
    /// together with the tree's full length.  Idempotent; called with the
    /// (recovered) writer lock held.
    pub fn heal_after_poison(&self, tree: &BlockTree) {
        let committed = tree.len().min(self.store.pushed() as usize);
        let tip = self.selected_tip(tree);
        if (tip as usize) < committed {
            self.store.publish(committed as u32, tip);
        }
    }

    /// Recomputes every structural invariant of the replica from scratch:
    /// the writer tree's link/leaf/work invariants (via
    /// [`btadt_core::invariant`]) plus the published view's agreement with
    /// the tree (published length never exceeds the tree, the published tip
    /// is a block the tree knows).  Takes the writer lock; intended for
    /// debug monitors and chaos harnesses, not the hot path.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let tree = &self.lock_writer().tree;
        let mut violations = check_block_tree(tree);
        let view = self.store.snapshot();
        if view.len as usize > tree.len() {
            violations.push(InvariantViolation {
                invariant: "published-view",
                block: None,
                detail: format!(
                    "published length {} exceeds writer tree length {}",
                    view.len,
                    tree.len()
                ),
            });
        }
        if view.tip >= view.len {
            violations.push(InvariantViolation {
                invariant: "published-view",
                block: None,
                detail: format!(
                    "published tip {} is not committed (len {})",
                    view.tip, view.len
                ),
            });
        } else {
            let tip_block = self.store.block(view.tip);
            if !tree.contains(tip_block.id) {
                violations.push(InvariantViolation {
                    invariant: "published-view",
                    block: Some(tip_block.id),
                    detail: "published tip is unknown to the writer tree".to_string(),
                });
            }
        }
        violations
    }

    /// Oracle usage statistics, when an oracle mediates this replica.
    pub fn oracle_stats(&self) -> Option<OracleStats> {
        match &self.mediator {
            Mediator::Frugal(oracle) => Some(oracle.stats()),
            _ => None,
        }
    }

    /// Builds a candidate on the currently selected tip (wait-free): this
    /// is the `b_h ← last_block(f(bt))` step of Definition 3.7, performed
    /// before the `append(b)` operation is invoked with the resulting `b`.
    pub fn prepare(&self, client: usize, payload: Vec<Transaction>) -> PreparedAppend {
        let view = self.store.snapshot();
        self.emit(
            client,
            SyncEventKind::HeadLoad {
                version: pack_version(view.len, view.tip),
            },
        );
        let parent = self.store.block(view.tip).clone();
        self.prepare_on(client, parent, payload)
    }

    /// Builds a candidate on an explicit parent (used by tests to force two
    /// candidates onto the same parent deterministically).
    pub fn prepare_on(
        &self,
        client: usize,
        parent: Block,
        payload: Vec<Transaction>,
    ) -> PreparedAppend {
        // ORDERING: Relaxed — only uniqueness of the fetched value matters
        // (each candidate gets a distinct nonce); no other memory is
        // published or consumed through this counter.
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let block = BlockBuilder::new(&parent)
            .producer(client as u32)
            .nonce(nonce)
            .payload(payload)
            .build();
        PreparedAppend {
            client,
            parent,
            block,
        }
    }

    /// Runs the mediated `consumeToken` and installation for a prepared
    /// candidate — the linearization of `append(b)`.
    pub fn commit(&self, prepared: PreparedAppend) -> AppendOutcome {
        self.commit_with_faults(prepared, &mut FaultSession::passthrough())
    }

    /// [`commit`](ConcurrentBlockTree::commit) with a fault session armed
    /// at the seams.  Panics only on arena exhaustion (as `commit` does);
    /// injected pauses/duplicates/drops are absorbed by the protocol.
    pub fn commit_with_faults(
        &self,
        prepared: PreparedAppend,
        session: &mut FaultSession<'_>,
    ) -> AppendOutcome {
        self.try_commit(prepared, session)
            .expect("prepared candidates chain onto the tree")
    }

    /// The fallible commit: structured [`IngestError`]s instead of panics.
    /// `session` decides what happens at each [`Seam`] the execution
    /// crosses (pass [`FaultSession::passthrough`] for none).
    pub fn try_commit(
        &self,
        prepared: PreparedAppend,
        session: &mut FaultSession<'_>,
    ) -> Result<AppendOutcome, IngestError> {
        let PreparedAppend {
            client,
            parent,
            block,
        } = prepared;
        // `getToken* ; consumeToken` against the mediator ...
        let outcome = match &self.mediator {
            Mediator::Frugal(oracle) => {
                let (grant, attempts) =
                    oracle.get_token_until_granted(client, &parent, block.clone());
                session.apply(Seam::CasPreConsume);
                // The mediator was checked to be Θ_F,k=1 when it was built.
                let observed = OracleCas::swap_on(oracle, &grant);
                // Winning the register K[h] makes ours the unique child of
                // this parent; a stall before its install is exactly the
                // window the losers' helping covers.
                let (event, seam) = match observed {
                    None => (
                        SyncEventKind::CasWin { parent: parent.id },
                        Seam::CasWinPreInstall,
                    ),
                    Some(_) => (
                        SyncEventKind::CasLoss { parent: parent.id },
                        Seam::CasLossPreHelp,
                    ),
                };
                self.emit(client, event);
                session.apply(seam);
                AppendOutcome {
                    appended: observed.is_none(),
                    block: if observed.is_none() {
                        grant.block
                    } else {
                        block
                    },
                    observed,
                    get_token_attempts: attempts,
                }
            }
            Mediator::Prodigal { slots, capacity } => {
                let slot = {
                    // Every update is one `entry` call, so the map is
                    // valid even if a holder panicked.
                    let mut map = slots.lock().unwrap_or_else(PoisonError::into_inner);
                    Arc::clone(
                        map.entry(parent.id)
                            .or_insert_with(|| Arc::new(SnapshotConsumeToken::new(*capacity))),
                    )
                };
                match session.apply(Seam::SnapshotPreConsume) {
                    FaultAction::DuplicateConsume => {
                        // A duplicated consume is an update/scan replay; the
                        // register overwrite is idempotent.
                        let _ = slot.consume_token(client, block.clone());
                        let set = slot.consume_token(client, block.clone());
                        debug_assert!(
                            set.iter().any(|b| b.id == block.id),
                            "a prodigal consume always retains the caller's token"
                        );
                    }
                    FaultAction::DropConsumeResult => {
                        // Installation must not depend on the returned set.
                        let _ = slot.consume_token(client, block.clone());
                    }
                    _ => {
                        let set = slot.consume_token(client, block.clone());
                        debug_assert!(
                            set.iter().any(|b| b.id == block.id),
                            "a prodigal consume always retains the caller's token"
                        );
                    }
                }
                self.emit(client, SyncEventKind::TokenConsume { parent: parent.id });
                session.apply(Seam::SnapshotPreInstall);
                AppendOutcome {
                    appended: true,
                    block,
                    observed: None,
                    get_token_attempts: 1,
                }
            }
            Mediator::Racy => AppendOutcome {
                appended: true,
                block,
                observed: None,
                get_token_attempts: 0,
            },
        };
        // ... then the one graft.  A CAS loser helps: it installs the
        // winner it observed, in case the winning thread has not gotten
        // there yet.  The racy path publishes its own block, so the tip
        // derives from the client's *unlocked* prepare-time head load —
        // exactly what the race detector keys on.
        let tip = match self.mediator {
            Mediator::Racy => PublishTip::Own,
            _ => PublishTip::Selected,
        };
        let graft = outcome.observed.as_ref().unwrap_or(&outcome.block);
        self.install(client, graft, session, tip)?;
        Ok(outcome)
    }

    /// The full append operation: prepare on the current tip, then commit.
    pub fn append(&self, client: usize, payload: Vec<Transaction>) -> AppendOutcome {
        let prepared = self.prepare(client, payload);
        self.commit(prepared)
    }

    /// Runs `f` with the writer lock held, bracketed by the trace's
    /// `LockAcquire` / `LockRelease` events.
    fn with_writer<R>(&self, client: usize, f: impl FnOnce(&mut Writer) -> R) -> R {
        let mut writer = self.lock_writer();
        self.emit(client, SyncEventKind::LockAcquire);
        let result = f(&mut writer);
        // Emitted while still holding the guard, so the next acquirer's
        // LockAcquire necessarily records after this.
        self.emit(client, SyncEventKind::LockRelease);
        result
    }

    /// Installs one block — a mediated `commit` is the install loop over a
    /// run of one.  Idempotent: helping may install the same winner twice.
    fn install(
        &self,
        client: usize,
        block: &Block,
        session: &mut FaultSession<'_>,
        tip: PublishTip,
    ) -> Result<(), IngestError> {
        self.with_writer(client, |writer| {
            if writer.tree.contains(block.id) {
                // Already installed, and therefore already published by
                // whoever installed it.
                return Ok(());
            }
            let mut outcome = Ok(());
            let run = std::iter::once(((0, block.clone()), None));
            self.install_run(client, writer, run, session, tip, |_, result| {
                outcome = result
            });
            outcome
        })
    }

    /// The one install loop, run with the writer lock held: every block
    /// that enters the replica — a mediated append, a helped CAS winner, a
    /// staged batch — is installed here.
    ///
    /// `run` yields `((position, block), staged parent)` parents-first,
    /// every block absent from the writer tree (the caller staged the run
    /// under this same lock hold); a staged parent `Some(j)` names the
    /// `j`-th entry of the run, `None` a block already in the tree.  Per
    /// block: validate chaining, cross [`Seam::WriterPreInsert`], push into
    /// the wait-free arena, link into the writer tree — with
    /// [`Seam::WriterMidBatch`] crossed between blocks — and
    /// `report(position, result)`.  If anything landed, the linked blocks
    /// are persisted to the durable sink as one run, then one
    /// [`Seam::WriterPrePublish`] and one publish of `tip` end the run.
    ///
    /// Chaining (parent, height, cumulative-work headroom, and — with a
    /// sink attached — that the block fits a durable record) is validated
    /// *before* any mutation and the arena mirror is pushed before the tree
    /// link, so an error never leaves the writer tree ahead of the store
    /// and a hostile block never panics under the lock; an injected panic
    /// at a seam unwinds through the tree's batch session, which reconciles
    /// the leaf count and best tips for exactly the linked prefix, and then
    /// through the [`DurableRun`] guard, which persists that prefix.
    /// Together these make
    /// [`heal_after_poison`](ConcurrentBlockTree::heal_after_poison) a pure
    /// republish.  Whether durable bytes *survive* is the medium's
    /// business — a faulted medium is the point of the chaos drills.
    fn install_run(
        &self,
        client: usize,
        writer: &mut Writer,
        run: impl Iterator<Item = ((usize, Block), Option<usize>)>,
        session: &mut FaultSession<'_>,
        tip: PublishTip,
        mut report: impl FnMut(usize, Result<(), IngestError>),
    ) {
        let Writer { tree, durable } = writer;
        // Declared before the batch session: on unwind it drops after it.
        let durable = durable.as_mut().map(|sink| DurableRun {
            sink,
            mirror: &self.store,
            from: self.store.pushed(),
        });
        let persists = durable.is_some();
        let mut batch = tree.begin_batch(run.size_hint().0);
        // Arena slot and height each entry landed at (`None` if it was
        // refused): in-batch parents cost a vector read, not a hash.
        let mut landed: Vec<Option<(NodeIdx, u64)>> = Vec::with_capacity(run.size_hint().0);
        for (k, ((pos, block), staged_parent)) in run.enumerate() {
            if k > 0 {
                session.apply(Seam::WriterMidBatch);
            }
            let installed = (|| {
                let parent_id = block.parent.ok_or(IngestError::MissingParent(block.id))?;
                let (parent_idx, parent_height) = match staged_parent {
                    Some(j) => landed[j].ok_or(IngestError::UnknownParent(parent_id))?,
                    None => {
                        let idx = batch
                            .idx_of(parent_id)
                            .ok_or(IngestError::UnknownParent(parent_id))?;
                        (idx, batch.block_at(idx).height)
                    }
                };
                let expected = parent_height + 1;
                if block.height != expected {
                    return Err(IngestError::HeightMismatch {
                        block: block.id,
                        recorded: block.height,
                        expected,
                    });
                }
                if batch
                    .cumulative_work_at(parent_idx)
                    .checked_add(block.work)
                    .is_none()
                {
                    return Err(IngestError::WorkOverflow { block: block.id });
                }
                if persists {
                    check_fits_record(&block)?;
                }
                session.apply(Seam::WriterPreInsert);
                let store_idx = self.store.try_push(block.clone(), Some(parent_idx.0))?;
                self.emit(client, SyncEventKind::ArenaPush { idx: store_idx });
                let height = block.height;
                let idx = batch
                    .push(block, Some(parent_idx))
                    .expect("chaining was validated above");
                debug_assert_eq!(store_idx, idx.0, "store indices mirror arena indices");
                Ok((idx, height))
            })();
            landed.push(installed.as_ref().ok().copied());
            report(pos, installed.map(drop));
        }
        batch.finish();
        let Some(&(newest, _)) = landed.iter().flatten().last() else {
            return;
        };
        // Persist the run before anything of it is published.
        drop(durable);
        session.apply(Seam::WriterPrePublish);
        let tip_idx = match tip {
            PublishTip::Selected => self.selected_tip(tree),
            PublishTip::Own => newest.0,
        };
        self.store.publish(tree.len() as u32, tip_idx);
        self.emit(
            client,
            SyncEventKind::HeadStore {
                version: pack_version(tree.len() as u32, tip_idx),
                locked: matches!(tip, PublishTip::Selected),
            },
        );
    }

    /// The tip the current rule selects from the writer tree, as an arena
    /// index.
    fn selected_tip(&self, tree: &BlockTree) -> u32 {
        let tie_break = |prefer_largest_id| {
            if prefer_largest_id {
                TieBreak::LargestId
            } else {
                TieBreak::SmallestId
            }
        };
        let tip = match self.tip_rule {
            TipRule::Height { prefer_largest_id } => {
                LongestChain::with_tie_break(tie_break(prefer_largest_id)).select_tip(tree)
            }
            TipRule::Work { prefer_largest_id } => {
                HeaviestChain::with_tie_break(tie_break(prefer_largest_id)).select_tip(tree)
            }
        };
        tip.0
    }

    /// Batch ingest: stages `blocks` against the writer tree and applies
    /// the topologically-ordered ready set in **one writer-lock round**
    /// with a single tip publish at the end — the tip stage of the
    /// batch-ingest pipeline, and the door gossip delta-sync and recovery
    /// replay enter through.  Unmediated: batches carry blocks that
    /// already won admission elsewhere (a peer's tree, a durable store), so no
    /// oracle tokens are consumed.  Returns one verdict per input block.
    pub fn ingest_batch(&self, client: usize, blocks: Vec<Block>) -> BatchReport {
        self.ingest_batch_with_faults(client, blocks, &mut FaultSession::passthrough())
    }

    /// [`ingest_batch`](Self::ingest_batch) with a fault session armed at
    /// the seams.  Between consecutive installs the execution crosses
    /// [`Seam::WriterMidBatch`] — an injected panic there models a writer
    /// crashing mid-batch with the lock held: the already-installed
    /// prefix is mirrored store-first, so the poison heal republishes
    /// exactly that prefix.
    pub fn ingest_batch_with_faults(
        &self,
        client: usize,
        blocks: Vec<Block>,
        session: &mut FaultSession<'_>,
    ) -> BatchReport {
        let verdicts = self.with_writer(client, |writer| {
            let StagedBatch {
                ready,
                ready_parents,
                orphans: _,
                mut verdicts,
            } = stage_batch(blocks, |id| writer.tree.contains(id));
            let run = ready.into_iter().zip(ready_parents);
            let tip = PublishTip::Selected;
            self.install_run(client, writer, run, session, tip, |pos, result| {
                verdicts[pos] = Some(IngestVerdict::from_result(result))
            });
            verdicts
        });
        BatchReport::from_verdicts(
            verdicts
                .into_iter()
                .map(|v| v.expect("every input position receives a verdict"))
                .collect(),
        )
    }
}

/// The unified ingest door.  Trait calls attribute to client 0 (the
/// trait carries no client identity); callers that care use the inherent
/// [`ingest_batch`](ConcurrentBlockTree::ingest_batch) with an explicit
/// client.  Mediated appends stay on [`commit`](ConcurrentBlockTree::commit)
/// — this door is for blocks that already exist elsewhere (sync, replay).
impl Ingest for ConcurrentBlockTree {
    fn knows_block(&self, id: BlockId) -> bool {
        self.lock_writer().tree.contains(id)
    }

    fn ingest_block(&mut self, block: Block) -> IngestVerdict {
        let report = ConcurrentBlockTree::ingest_batch(self, 0, vec![block]);
        report
            .verdicts
            .into_iter()
            .next()
            .expect("a batch of one yields one verdict")
    }

    fn ingest_batch(&mut self, blocks: Vec<Block>) -> BatchReport {
        ConcurrentBlockTree::ingest_batch(self, 0, blocks)
    }
}

/// What a [`BtReader`] has done so far, as counts: every `read()` is exactly
/// one of a hit, an extension or a rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Reads that found the published tip unchanged and returned the memo.
    pub hits: u64,
    /// Tip moves served by splicing the memoized chain in place (the caller
    /// had dropped every earlier result).
    pub extended: u64,
    /// Tip moves where an earlier result was still held, so the kept prefix
    /// was copied into a fresh chain before the new suffix went on.
    pub rebuilt: u64,
    /// Blocks cloned by all tip moves together: Δ + reorg depth per
    /// extension, plus the copied prefix per rebuild.
    pub blocks_cloned: u64,
}

/// A per-thread read handle with tip-versioned memoization.
///
/// The published `(length, tip)` pair doubles as a version stamp: the chain
/// returned by `read()` is a pure function of the tip index, so a reader
/// that still sees the tip it last materialized returns an `Arc`-backed
/// clone of the memoized chain in O(1).  When the tip moved, the memo is
/// *spliced*: [`SnapshotStore::chain_from`] walks from the new tip only down
/// to the first block the memo already holds and reuses everything below —
/// in place if the caller dropped the chains it was handed, through a copy
/// of the kept prefix if it still holds one, so a returned chain is an
/// immutable value either way.  The handle stays wait-free — a read is one
/// atomic load plus, only when the tip moved, a walk over frozen nodes
/// bounded by Δ + reorg depth ≤ height.
pub struct BtReader<'a> {
    replica: &'a ConcurrentBlockTree,
    client: usize,
    /// The last tip read and the chain to it.
    memo: Option<(u32, Blockchain)>,
    stats: ReadStats,
}

impl BtReader<'_> {
    /// The wait-free, memoizing `read()`.
    pub fn read(&mut self) -> Blockchain {
        let view = self.replica.store.snapshot();
        self.replica.emit(
            self.client,
            SyncEventKind::HeadLoad {
                version: pack_version(view.len, view.tip),
            },
        );
        if let Some((tip, chain)) = &self.memo {
            if *tip == view.tip {
                self.stats.hits += 1;
                return chain.clone();
            }
        }
        // The one miss path: splice the memo, or the genesis-only chain on
        // the first read.
        let prev = match self.memo.take() {
            Some((_, chain)) => chain,
            None => Blockchain::genesis_only(),
        };
        let (chain, cost) = self.replica.store.chain_from(prev, view.tip);
        if cost.copied == 0 {
            self.stats.extended += 1;
        } else {
            self.stats.rebuilt += 1;
        }
        self.stats.blocks_cloned += (cost.walked + cost.copied) as u64;
        self.memo = Some((view.tip, chain.clone()));
        chain
    }

    /// Counts of what this handle's reads have cost so far.
    pub fn stats(&self) -> ReadStats {
        self.stats
    }

    /// [`read`](BtReader::read) crossing the [`Seam::ReaderPreWalk`] seam:
    /// an armed session can deschedule the reader between the snapshot load
    /// and the walk, which must never surface a torn chain.
    pub fn read_with_faults(&mut self, session: &mut FaultSession<'_>) -> Blockchain {
        session.apply(Seam::ReaderPreWalk);
        self.read()
    }

    /// The replica this handle reads from.
    pub fn replica(&self) -> &ConcurrentBlockTree {
        self.replica
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn fresh_replica_reads_the_genesis_chain() {
        let t = ConcurrentBlockTree::strong(2, 1);
        assert!(t.is_empty());
        assert_eq!(t.len(), 1);
        assert_eq!(t.read(), Blockchain::genesis_only());
        assert_eq!(t.path(), AppendPath::Strong);
        assert_eq!(t.clients(), 2);
    }

    #[test]
    fn sequential_strong_appends_build_a_single_chain() {
        let t = ConcurrentBlockTree::strong(2, 7);
        for i in 0..10 {
            let out = t.append(i % 2, vec![]);
            assert!(out.appended);
            assert_eq!(out.get_token_attempts, 1);
        }
        assert_eq!(t.height(), 10);
        assert_eq!(t.max_fork_degree(), 1);
        assert_eq!(t.read().tip().id, t.tip_block().id);
        let stats = t.oracle_stats().unwrap();
        assert_eq!(stats.tokens_consumed, 10);
    }

    #[test]
    fn strong_contention_on_one_parent_has_one_winner_and_losers_observe_it() {
        let t = ConcurrentBlockTree::strong(4, 3);
        let parent = t.tip_block();
        let prepared: Vec<_> = (0..4)
            .map(|c| t.prepare_on(c, parent.clone(), vec![]))
            .collect();
        let outcomes: Vec<_> = prepared.into_iter().map(|p| t.commit(p)).collect();
        let winners: Vec<_> = outcomes.iter().filter(|o| o.appended).collect();
        assert_eq!(winners.len(), 1, "k = 1: exactly one append per parent");
        let winner_id = winners[0].block.id;
        for o in outcomes.iter().filter(|o| !o.appended) {
            assert_eq!(o.observed.as_ref().unwrap().id, winner_id);
        }
        assert_eq!(t.height(), 1);
        assert_eq!(t.max_fork_degree(), 1);
    }

    #[test]
    fn threaded_strong_appends_keep_the_tree_a_chain() {
        let t = ConcurrentBlockTree::strong(4, 11);
        thread::scope(|scope| {
            for c in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..25 {
                        t.append(c, vec![]);
                    }
                });
            }
        });
        assert_eq!(t.max_fork_degree(), 1, "CAS mediation forbids forks");
        let chain = t.read();
        assert_eq!(chain.height(), t.height());
        // Every published block sits on the single chain.
        assert_eq!(chain.len(), t.len());
    }

    #[test]
    fn eventual_appends_all_succeed_and_forks_are_possible() {
        let t = ConcurrentBlockTree::eventual(3);
        let parent = t.tip_block();
        for c in 0..3 {
            let p = t.prepare_on(c, parent.clone(), vec![]);
            assert!(t.commit(p).appended, "the prodigal oracle never rejects");
        }
        assert_eq!(t.max_fork_degree(), 3);
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), 4);
        assert_eq!(t.path(), AppendPath::Eventual);
    }

    #[test]
    fn eventual_published_tip_height_is_monotone() {
        let t = ConcurrentBlockTree::eventual(2);
        let mut last = 0;
        for i in 0..20 {
            t.append(i % 2, vec![]);
            let h = t.height();
            assert!(h >= last, "selection re-runs on every install");
            last = h;
        }
        assert_eq!(last, 20, "sequential appends chain on the selected tip");
    }

    #[test]
    fn racy_appends_publish_their_own_tip() {
        let t = ConcurrentBlockTree::racy(2);
        let parent = t.tip_block();
        let a = t.prepare_on(0, parent.clone(), vec![]);
        let b = t.prepare_on(1, parent, vec![]);
        let a_block = t.commit(a).block;
        assert_eq!(t.read().tip().id, a_block.id);
        let b_block = t.commit(b).block;
        // Last writer wins regardless of the selection function.
        assert_eq!(t.read().tip().id, b_block.id);
        assert_eq!(t.max_fork_degree(), 2);
        assert_eq!(t.path(), AppendPath::Racy);
    }

    #[test]
    fn threaded_mixed_clients_produce_unique_blocks() {
        let t = ConcurrentBlockTree::eventual(4);
        thread::scope(|scope| {
            for c in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..20 {
                        assert!(t.append(c, vec![]).appended);
                    }
                });
            }
        });
        assert_eq!(t.len(), 81, "80 appends + genesis, none lost");
        let chain = t.read();
        let ids: HashSet<_> = chain.ids().collect();
        assert_eq!(ids.len(), chain.len(), "chains never repeat blocks");
    }

    #[test]
    fn reader_memoizes_per_published_tip() {
        let t = ConcurrentBlockTree::strong(1, 13);
        let mut reader = t.reader();
        t.append(0, vec![]);
        let first = reader.read();
        let again = reader.read();
        assert_eq!(first, again, "unchanged tip returns the cached chain");
        t.append(0, vec![]);
        let moved = reader.read();
        assert_eq!(moved.height(), 2, "a moved tip re-materializes");
        assert_eq!(moved, t.read(), "cached and uncached reads agree");
        assert_eq!(reader.replica().len(), 3);
    }

    #[test]
    fn work_tip_rule_selects_by_cumulative_work() {
        let t = ConcurrentBlockTree::strong(1, 5).with_tip_rule(TipRule::Work {
            prefer_largest_id: true,
        });
        t.append(0, vec![]);
        t.append(0, vec![]);
        assert_eq!(t.height(), 2);
        assert!(matches!(t.tip_rule(), TipRule::Work { .. }));
    }

    #[test]
    fn try_commit_rejects_unchained_blocks_with_structured_errors() {
        let t = ConcurrentBlockTree::strong(2, 17);
        t.append(0, vec![]);
        // A candidate whose parent the replica never saw.
        let foreign_parent = BlockBuilder::new(&Block::genesis()).nonce(999).build();
        let prepared = t.prepare_on(1, foreign_parent, vec![]);
        let err = t
            .try_commit(prepared, &mut crate::fault::FaultSession::passthrough())
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownParent(_)));
        assert!(err.to_string().contains("rejected"));
        // The failed ingest mutated nothing.
        assert_eq!(t.len(), 2);
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn a_poisoned_writer_heals_and_the_replica_keeps_working() {
        use crate::fault::{FaultAction, FaultPlan, Seam};
        let t = ConcurrentBlockTree::strong(2, 19);
        t.append(0, vec![]);
        // A writer dies at the worst seam: block inserted and mirrored,
        // tip not yet published — while holding the writer mutex.
        let plan = FaultPlan::quiet(1).arm(Seam::WriterPrePublish, FaultAction::Panic, 100);
        let prepared = t.prepare(0, vec![]);
        let doomed_id = prepared.block.id;
        let doomed_height = prepared.block.height;
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut session = crate::fault::FaultSession::new(&plan, 0);
                    t.commit_with_faults(prepared, &mut session)
                })
                .join()
        });
        assert!(crashed.is_err(), "the injected panic propagates to join");
        assert_eq!(t.height(), 1, "the unpublished block stays invisible");
        // The next writer loses the CAS to the dead writer's block, recovers
        // the poisoned mutex on the helping install, and the heal publishes
        // the orphaned-but-mirrored block.
        let out = t.append(1, vec![]);
        assert!(!out.appended, "the dead writer still holds K[h]");
        assert_eq!(out.observed.as_ref().unwrap().id, doomed_id);
        assert_eq!(t.height(), doomed_height, "healing published the block");
        // The replica is fully operational again: appends chain on the
        // healed tip.
        let out2 = t.append(1, vec![]);
        assert!(out2.appended);
        assert_eq!(t.height(), doomed_height + 1);
        assert!(t.check_invariants().is_empty());
        assert_eq!(t.max_fork_degree(), 1, "healing kept the chain a chain");
    }

    #[test]
    fn check_invariants_accepts_a_contended_replica() {
        let t = ConcurrentBlockTree::eventual(3);
        thread::scope(|scope| {
            for c in 0..3 {
                let t = &t;
                scope.spawn(move || {
                    for _ in 0..15 {
                        t.append(c, vec![]);
                    }
                });
            }
        });
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn batch_ingest_installs_a_chain_in_one_lock_round() {
        let t = ConcurrentBlockTree::eventual(2);
        t.append(0, vec![]);
        let tip = t.tip_block();
        let b1 = BlockBuilder::new(&tip).nonce(1).build();
        let b2 = BlockBuilder::new(&b1).nonce(2).build();
        let b3 = BlockBuilder::new(&b2).nonce(3).build();
        // Shuffled input: staging orders by height before installing.
        let report = t.ingest_batch(0, vec![b3.clone(), b1.clone(), b2.clone()]);
        assert_eq!(report.accepted, 3);
        assert!(report.is_clean());
        assert_eq!(report.verdicts, vec![IngestVerdict::Accepted; 3]);
        assert_eq!(t.height(), 4);
        assert_eq!(t.len(), 5);
        assert_eq!(t.read().tip().id, b3.id);
        assert!(t.check_invariants().is_empty());
        // Re-offering the same batch is all duplicates, and publishes
        // nothing new.
        let again = t.ingest_batch(0, vec![b1, b2, b3]);
        assert_eq!(again.duplicates, 3);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn batch_ingest_pools_orphans_without_mutating() {
        let t = ConcurrentBlockTree::eventual(1);
        let stray = BlockBuilder::child_of(BlockId(0xdead), 7).nonce(5).build();
        let report = t.ingest_batch(0, vec![stray]);
        assert_eq!(report.orphaned, 1);
        assert_eq!(report.verdicts[0], IngestVerdict::Orphaned);
        assert_eq!(t.len(), 1, "an orphan batch installs nothing");
        assert!(t.check_invariants().is_empty());
    }

    #[test]
    fn a_mid_batch_panic_heals_to_exactly_the_installed_prefix() {
        use crate::fault::{FaultAction, FaultPlan, FaultSession, Seam};
        use btadt_store::{SimMedium, StoreConfig};

        // A plan whose first firing is a panic at client 0's
        // `occurrence`-th (0-based) crossing of `seam`.
        let panic_at = |seam: Seam, occurrence: u32| -> FaultPlan {
            (0..)
                .map(|seed| FaultPlan::quiet(seed).arm(seam, FaultAction::Panic, 25))
                .find(|plan| {
                    (0..=occurrence).all(|o| {
                        (plan.decide(0, seam, o) == FaultAction::Panic) == (o == occurrence)
                    })
                })
                .expect("some seed fires first at the requested occurrence")
        };
        fn ids<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> Vec<BlockId> {
            blocks.into_iter().map(|b| b.id).collect()
        }

        const BATCH: usize = 8;
        // Every seam inside the install loop, at every crossing, with the
        // number of batch blocks installed when the writer dies there.
        let mut cases: Vec<(Seam, u32, usize)> = Vec::new();
        for k in 0..BATCH {
            cases.push((Seam::WriterPreInsert, k as u32, k));
            if k > 0 {
                cases.push((Seam::WriterMidBatch, k as u32 - 1, k));
            }
        }
        cases.push((Seam::WriterPrePublish, 0, BATCH));

        for (seam, occurrence, installed) in cases {
            let what = format!("{} crossing {occurrence}", seam.label());
            let t = ConcurrentBlockTree::eventual(2)
                .with_durable_store(BlockStore::create(SimMedium::new(), StoreConfig::small()));
            let first = t.append(0, vec![]).block;
            // A forked batch, parents-first: the chain b1..b5 on the tip
            // interleaved with the sibling branch c1..c3 off b2.
            let b1 = BlockBuilder::new(&first).nonce(21).build();
            let b2 = BlockBuilder::new(&b1).nonce(22).build();
            let b3 = BlockBuilder::new(&b2).nonce(23).build();
            let c1 = BlockBuilder::new(&b2).nonce(31).work(3).build();
            let b4 = BlockBuilder::new(&b3).nonce(24).build();
            let c2 = BlockBuilder::new(&c1).nonce(32).build();
            let b5 = BlockBuilder::new(&b4).nonce(25).build();
            let c3 = BlockBuilder::new(&c2).nonce(33).build();
            let batch = vec![b1, b2, b3, c1, b4, c2, b5, c3];
            assert_eq!(batch.len(), BATCH);

            // The writer dies at the seam with the lock held: the prefix
            // is installed and mirrored, the tail is not, no tip was
            // published — and the writer mutex is poisoned.
            let plan = panic_at(seam, occurrence);
            let crashed = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let mut session = FaultSession::new(&plan, 0);
                        t.ingest_batch_with_faults(0, batch.clone(), &mut session)
                    })
                    .join()
            });
            assert!(crashed.is_err(), "{what}: the injected panic propagates");
            assert_eq!(t.height(), 1, "{what}: the prefix stays unpublished");

            // The next lock acquisition recovers the poisoned mutex; the
            // heal is a pure republish because the tree's indices already
            // describe exactly the installed prefix.
            let tree = t.writer_tree_snapshot();
            assert_eq!(t.poison_heals(), 1, "{what}");
            let mut expected = BlockTree::new();
            expected.insert(first.clone()).unwrap();
            for block in &batch[..installed] {
                expected.insert(block.clone()).unwrap();
            }
            assert_eq!(tree.leaves(), expected.leaves(), "{what}");
            for largest in [true, false] {
                assert_eq!(
                    tree.best_leaf_by_height(largest),
                    expected.best_leaf_by_height(largest),
                    "{what}"
                );
                assert_eq!(
                    tree.best_leaf_by_work(largest),
                    expected.best_leaf_by_work(largest),
                    "{what}"
                );
            }
            let prefix: Vec<Block> = expected.blocks().cloned().collect();
            assert_eq!(ids(tree.blocks()), ids(&prefix), "{what}");
            for i in 0..prefix.len() as u32 {
                assert_eq!(
                    tree.interval_at(NodeIdx(i)),
                    expected.interval_at(NodeIdx(i)),
                    "{what}: interval label of slot {i}"
                );
                assert_eq!(t.store.block(i).id, prefix[i as usize].id, "{what}");
            }
            assert_eq!(t.store.pushed() as usize, prefix.len(), "{what}");
            assert_eq!(
                t.len(),
                prefix.len(),
                "{what}: the heal published the prefix"
            );
            // The sink holds exactly the installed prefix, in install
            // order — not one block fewer (the unwind path persisted what
            // the dead writer linked), not one more — and the prefix went
            // out as one run behind the run of one that was `first`.
            let (durable, stats) = {
                let writer = t.lock_writer();
                let sink = writer.durable.as_ref().expect("attached");
                (sink.blocks(), sink.stats())
            };
            assert_eq!(ids(&durable), ids(&prefix[1..]), "{what}");
            assert_eq!(stats.appended, 1 + installed as u64, "{what}");
            assert_eq!(stats.runs, 1 + u64::from(installed > 0), "{what}");
            assert_eq!(stats.largest_run, installed.max(1) as u64, "{what}");
            assert!(t.check_invariants().is_empty(), "{what}");

            // Batch ingest keeps working post-heal and picks up the tail;
            // mediated appends chain on the healed tip.
            let report = t.ingest_batch(1, batch[installed..].to_vec());
            assert_eq!(report.accepted, BATCH - installed, "{what}");
            assert!(t.append(1, vec![]).appended, "{what}");
            assert!(t.check_invariants().is_empty(), "{what}");
            let durable = t.take_durable_store().expect("attached");
            assert_eq!(
                ids(&durable.blocks()),
                ids(t.writer_tree_snapshot().blocks().skip(1)),
                "{what}: every install persisted once, in install order"
            );
        }
    }

    #[test]
    fn a_block_too_large_for_a_durable_record_is_refused_before_it_links() {
        use btadt_store::{SimMedium, StoreConfig};
        let genesis = Block::genesis();
        let small = BlockBuilder::new(&genesis).nonce(1).build();
        // 53 + 24 · 43 689 bytes of record body: one past the limit.
        let payload = (0..43_689).map(|i| Transaction::transfer(i, 1, 2, 3));
        let big = BlockBuilder::new(&small)
            .nonce(2)
            .payload(payload.collect::<Vec<_>>())
            .build();
        let sibling = BlockBuilder::new(&small).nonce(3).build();
        let child = BlockBuilder::new(&big).nonce(4).build();
        let batch = vec![small.clone(), big.clone(), sibling.clone(), child];

        let t = ConcurrentBlockTree::eventual(1)
            .with_durable_store(BlockStore::create(SimMedium::new(), StoreConfig::small()));
        let report = t.ingest_batch(0, batch.clone());
        assert_eq!(report.verdicts[0], IngestVerdict::Accepted);
        assert!(
            matches!(&report.verdicts[1], IngestVerdict::Rejected(IngestError::Storage(why))
                if why.contains("record limit")),
            "{:?}",
            report.verdicts[1]
        );
        assert_eq!(report.verdicts[2], IngestVerdict::Accepted);
        assert!(!report.verdicts[3].is_accepted(), "its parent never linked");
        assert_eq!(t.len(), 3);
        assert!(t.check_invariants().is_empty());

        // Nothing undecodable reached the medium: a restart finds both
        // small blocks and nothing to repair.
        let mut store = t.take_durable_store().expect("attached");
        assert_eq!(store.stats().oversize_skipped, 0, "refused at the door");
        store.checkpoint();
        let (_, recovery, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::small());
        assert!(recovery.is_pristine(), "{recovery:?}");
        assert_eq!(survivors, vec![small, sibling]);

        // Without a sink there is no record to fit: the block is a block.
        let volatile = ConcurrentBlockTree::eventual(1);
        assert_eq!(volatile.ingest_batch(0, batch).accepted, 4);
    }

    #[test]
    #[should_panic(expected = "k = 1")]
    fn strong_with_oracle_rejects_wider_fork_bounds() {
        let oracle = SharedOracle::new(FrugalOracle::new(
            2,
            MeritTable::uniform(2),
            OracleConfig {
                seed: 1,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        ));
        ConcurrentBlockTree::strong_with_oracle(oracle, 2);
    }
}
