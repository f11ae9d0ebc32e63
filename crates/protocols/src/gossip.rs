//! Shared delta-sync gossip machinery for the mining replicas.
//!
//! Honest ([`PowReplica`](crate::pow::PowReplica)) and adversarial
//! ([`AdversarialMiner`](crate::adversary::AdversarialMiner)) miners repair
//! gaps the same way: orphaned blocks are buffered, a
//! [`Msg::SyncRequest`](crate::messages::Msg) asks the peer for the delta
//! above a floor, and fruitless responses halve the floor until the fork
//! point is reached.  This module holds that state machine once so the two
//! replica types cannot drift.
//!
//! # Hardened sync
//!
//! On top of the orphan-repair loop, [`GossipSync`] implements the
//! robustness layer:
//!
//! * **Request ids** — every [`Msg::SyncRequest`] carries
//!   `(incarnation << 32) | seq`.  A churn rejoin bumps the incarnation, so
//!   responses addressed to a previous life of the process are recognised
//!   and dropped ([`ResponseClass::Stale`]) instead of corrupting the
//!   rebuilt state.
//! * **Timeout / retry / backoff** — at most one sync request is in flight
//!   ([`PendingRequest`]).  A retry timer fires after an exponential
//!   backoff (base [`BASE_TIMEOUT`], doubled per attempt, plus a
//!   deterministic per-request jitter); expiry penalises the peer's health
//!   score and re-sends to the next healthy peer, up to [`MAX_ATTEMPTS`]
//!   attempts.
//! * **Peer health** — peers score +1 (clamped) on any evidence of life
//!   (message or corrupted frame received) and −1 on a request timeout.
//!   Anti-entropy skips peers below the suspicion threshold, so a crashed
//!   or partitioned peer stops absorbing sync rounds until it speaks again.
//! * **Bounded batches** — delta responses are truncated to
//!   [`MAX_SYNC_BATCH`] blocks (parents-first order is preserved by the
//!   `(height, id)` sort).  A full batch signals "more above": the
//!   requester issues a continuation strictly above the highest block it
//!   just received, so progress is guaranteed and re-sync of a long chain
//!   costs `ceil(missing / MAX_SYNC_BATCH)` rounds.
//! * **Write-ahead journal** — every applied block is appended to a
//!   [`Journal`]; [`GossipSync::crash_restart`] replays it so a recovering
//!   process only delta-syncs the gap (see [`RecoveryMode`]).  Replay is
//!   **idempotent**: already-present blocks are skipped and replay never
//!   re-journals, so a crash *during* replay followed by a second recovery
//!   ([`GossipSync::resume_replay`]) applies only the unreplayed tail and a
//!   double replay of the same WAL is a no-op.
//! * **Durable checkpoint store** — a replica built with
//!   [`GossipSync::with_durable_store`] mirrors every applied block into a
//!   `btadt-store` [`BlockStore`] (chunked, checksummed, atomically
//!   checkpointed).  [`RecoveryMode::Checkpoint`] rejoins run the store's
//!   verifying recovery pipeline instead of the WAL: torn tails are
//!   truncated, corrupt chunks quarantined, and whatever corruption cost is
//!   healed by the same delta-sync machinery that covers the churn gap.

use btadt_netsim::{Context, SimTime};
use btadt_pipeline::{stage_batch, BatchReport, IngestVerdict, StagedBatch};
use btadt_store::{BlockStore, RecoveryReport};
use btadt_types::{Block, BlockBuilder, BlockId, BlockTree, InsertError, Transaction};

use crate::extract::ReplicaLog;
use crate::journal::{Journal, JournalKind, RecoveryMode};
use crate::messages::Msg;

/// How many anti-entropy rounds keep running after mining stops, so that
/// deltas lost to the channel still reconcile before quiescence.
pub(crate) const SYNC_TAIL_ROUNDS: u64 = 12;
/// Anti-entropy requests look this far below the local height so that
/// competing same-height tips (ties the selection must see to be
/// deterministic across replicas) still propagate.
pub(crate) const SYNC_LOOKBACK: u64 = 3;

/// Maximum number of blocks in one [`Msg::Blocks`] delta batch.  Responders
/// truncate with [`truncate_batch`]; requesters detect a full batch and
/// issue a continuation request above it.
pub const MAX_SYNC_BATCH: usize = 16;

/// Timer id used by the sync retry/timeout machinery.  Must stay distinct
/// from the replica-local timers (`MINE_TIMER = 1`, `SYNC_TIMER = 2`,
/// adversary `RELEASE_TIMER = 3`, committee round timer).
pub const RETRY_TIMER: u64 = 9;

/// Base request timeout in simulated ticks (first attempt).  Doubled per
/// retry attempt; chosen above the round trip of the slowest shipped
/// channel model so healthy peers practically never time out.
pub const BASE_TIMEOUT: u64 = 24;

/// Maximum send attempts (initial send + retries) for one logical sync
/// request before giving up and leaving repair to periodic anti-entropy.
pub const MAX_ATTEMPTS: u32 = 3;

/// Health score ceiling (evidence of life saturates here).
const HEALTH_MAX: i32 = 3;
/// Health score floor (repeated timeouts saturate here).
const HEALTH_MIN: i32 = -6;
/// Peers scoring below this are skipped by anti-entropy peer selection.
const HEALTH_SUSPECT: i32 = -2;

/// SplitMix64 — used only for deterministic timeout jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Truncates a `(height, id)`-sorted delta batch to [`MAX_SYNC_BATCH`]
/// blocks.  Ascending height order means every kept block's parent is
/// either below the requested floor (the requester has it) or earlier in
/// the kept prefix, so truncation never manufactures orphans.
pub fn truncate_batch(blocks: &mut Vec<Block>) {
    blocks.truncate(MAX_SYNC_BATCH);
}

/// Builds the block a miner chains onto `parent`: a single transfer whose
/// id/nonce are derived from the miner id and a per-miner counter (which
/// this bumps).  Shared by honest and adversarial miners so the block
/// scheme cannot drift between them.
pub(crate) fn mint_block(id: usize, n: usize, next_tx: &mut u64, parent: &Block) -> Block {
    let tx = Transaction::transfer(
        (id as u64) << 32 | *next_tx,
        id as u32,
        ((id + 1) % n) as u32,
        1,
    );
    *next_tx += 1;
    BlockBuilder::new(parent)
        .producer(id as u32)
        .nonce((id as u64) << 32 | *next_tx)
        .push_tx(tx)
        .build()
}

/// The sync request currently in flight (at most one per replica).
#[derive(Clone, Copy, Debug)]
pub struct PendingRequest {
    /// `(incarnation << 32) | seq` — echoed by the responder.
    pub request_id: u64,
    /// Peer the request was sent to.
    pub peer: usize,
    /// Simulated time of the (re)send.
    pub sent_at: SimTime,
    /// Zero-based attempt counter (0 = initial send).
    pub attempt: u32,
    /// The floor the request asked the delta above.
    pub above_height: u64,
}

/// Counters describing the sync machinery's behaviour over a run.
#[derive(Clone, Debug, Default)]
pub struct SyncStats {
    /// Sync requests sent (initial sends and retries).
    pub requests_sent: u64,
    /// Requests re-sent after a timeout.
    pub retries: u64,
    /// Retry-timer expiries that found the pending request unanswered.
    pub timeouts: u64,
    /// Responses that matched the pending request.
    pub responses: u64,
    /// Matched responses whose batch was empty (anti-entropy no-ops).
    pub empty_responses: u64,
    /// Same-incarnation responses that no longer matched the pending
    /// request (late or duplicated); their blocks are still applied.
    pub late_responses: u64,
    /// Responses addressed to a previous incarnation; dropped entirely.
    pub stale_responses: u64,
    /// Corrupted frames rejected by the checksum model.
    pub corrupt_rejected: u64,
    /// Churn rejoins observed.
    pub rejoins: u64,
    /// Blocks restored from the journal across all recoveries.
    pub replayed_blocks: u64,
    /// Value of `requests_sent` at the most recent rejoin; the difference
    /// from the current value is the post-recovery sync cost.
    pub requests_at_last_rejoin: u64,
    /// Batches applied through the staged ingest pipeline (batches of one
    /// included — every ingest door routes through it).
    pub batches_applied: u64,
    /// Blocks newly attached by batch application.
    pub batch_accepted: u64,
    /// Blocks staged as orphans (parent unknown at staging time) and
    /// pooled for delta sync.
    pub batch_orphaned: u64,
    /// Blocks a batch recognised as already present.
    pub batch_duplicates: u64,
}

impl SyncStats {
    /// Sync requests sent since the most recent rejoin (all requests if the
    /// process never rejoined) — the "gossip rounds to recover" metric.
    pub fn requests_since_rejoin(&self) -> u64 {
        self.requests_sent - self.requests_at_last_rejoin
    }
}

/// Classification of an incoming [`Msg::Blocks`] response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseClass {
    /// Matched the pending request (which is now cleared).
    Fresh,
    /// Same incarnation but not the pending request: a late, duplicated or
    /// unsolicited batch.  Blocks are applied (insertion is idempotent).
    Late,
    /// Addressed to a previous incarnation of this process; the payload
    /// must be ignored wholesale.
    Stale,
}

/// A replica's local tree plus the orphan-repair / delta-sync state.
pub struct GossipSync {
    id: usize,
    tree: BlockTree,
    orphans: Vec<Block>,
    sync_round: u64,
    /// Current delta-sync floor.  While orphans persist, each fruitless
    /// sync round halves it (a response can only carry blocks *above* the
    /// requested floor, so the floor must be pushed below the unknown fork
    /// point explicitly); it resets once the orphan buffer drains.
    sync_floor: Option<u64>,
    incarnation: u32,
    next_seq: u32,
    pending: Option<PendingRequest>,
    health: Vec<i32>,
    stats: SyncStats,
    journal: Journal,
    /// Durable chunked block store, when the replica runs in
    /// [`RecoveryMode::Checkpoint`].  Every applied block is mirrored here
    /// (deduplicated by id), and a checkpoint rejoin recovers from it.
    store: Option<BlockStore>,
    /// Report of the most recent checkpoint recovery, if any.
    last_recovery: Option<RecoveryReport>,
}

impl GossipSync {
    /// Fresh sync state for replica `id`.
    pub fn new(id: usize) -> Self {
        GossipSync {
            id,
            tree: BlockTree::new(),
            orphans: Vec::new(),
            sync_round: 0,
            sync_floor: None,
            incarnation: 0,
            next_seq: 1,
            pending: None,
            health: Vec::new(),
            stats: SyncStats::default(),
            journal: Journal::new(),
            store: None,
            last_recovery: None,
        }
    }

    /// Attaches a durable chunked block store; from now on every applied
    /// block is mirrored into it and [`RecoveryMode::Checkpoint`] rejoins
    /// recover from it.
    pub fn with_durable_store(mut self, store: BlockStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached durable store, if any.
    pub fn durable_store(&self) -> Option<&BlockStore> {
        self.store.as_ref()
    }

    /// The report of the most recent checkpoint recovery, if one ran.
    pub fn last_recovery_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The replica's local block tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// Whether the tree already contains `id`.
    pub fn contains(&self, id: BlockId) -> bool {
        self.tree.contains(id)
    }

    /// Sync behaviour counters.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
    }

    /// The write-ahead journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Current incarnation (bumped on every churn rejoin).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Health score of `peer` (0 when unknown).
    pub fn health(&self, peer: usize) -> i32 {
        self.health.get(peer).copied().unwrap_or(0)
    }

    fn ensure_health(&mut self, n: usize) {
        if self.health.len() < n {
            self.health.resize(n, 0);
        }
    }

    /// Records evidence of life from `peer` (any received frame, including
    /// a corrupted one — a garbled message still proves the sender is up).
    pub fn note_alive(&mut self, peer: usize, n: usize) {
        self.ensure_health(n);
        if peer < self.health.len() {
            self.health[peer] = (self.health[peer] + 1).min(HEALTH_MAX);
        }
    }

    /// Records a corrupted frame from `peer`: rejected by checksum, but
    /// still evidence the peer is alive.
    pub fn note_corrupted(&mut self, peer: usize, n: usize) {
        self.stats.corrupt_rejected += 1;
        self.note_alive(peer, n);
    }

    fn note_timeout(&mut self, peer: usize, n: usize) {
        self.ensure_health(n);
        if peer < self.health.len() {
            self.health[peer] = (self.health[peer] - 1).max(HEALTH_MIN);
        }
    }

    fn is_suspect(&self, peer: usize) -> bool {
        self.health(peer) < HEALTH_SUSPECT
    }

    /// Deterministic timeout for `attempt` of `request_id`: exponential
    /// backoff plus a per-request jitter so the fleet's retries do not
    /// synchronise.
    fn timeout_for(&self, request_id: u64, attempt: u32) -> u64 {
        let backoff = BASE_TIMEOUT << attempt.min(4);
        let jitter = splitmix64((self.id as u64).rotate_left(32) ^ request_id) % (BASE_TIMEOUT / 4);
        backoff + jitter
    }

    /// First non-suspect peer at or after `start` (excluding self); falls
    /// back to `start` when every peer looks down, so probing never fully
    /// stops and recovered peers are rediscovered.
    fn pick_healthy(&self, start: usize, n: usize) -> usize {
        for k in 0..n {
            let candidate = (start + k) % n;
            if candidate == self.id {
                continue;
            }
            if !self.is_suspect(candidate) {
                return candidate;
            }
        }
        start
    }

    /// Sends a sync request for the delta above `above_height` to `peer`,
    /// replacing any pending request, and arms the retry timer.
    fn send_request(
        &mut self,
        ctx: &mut Context<Msg>,
        peer: usize,
        above_height: u64,
        attempt: u32,
    ) {
        let request_id = u64::from(self.incarnation) << 32 | u64::from(self.next_seq);
        self.next_seq += 1;
        self.pending = Some(PendingRequest {
            request_id,
            peer,
            sent_at: ctx.now(),
            attempt,
            above_height,
        });
        self.stats.requests_sent += 1;
        ctx.send(
            peer,
            Msg::SyncRequest {
                request_id,
                above_height,
            },
        );
        ctx.set_timer(self.timeout_for(request_id, attempt), RETRY_TIMER);
    }

    /// Inserts a block, draining any orphans it unblocks, recording each
    /// application in `log` and journaling it.  Returns `true` iff the
    /// block is in the tree after the call (attached now, or already
    /// present); `false` iff it was buffered as an orphan.  A batch of
    /// one through [`apply_batch`](Self::apply_batch).
    pub fn insert_with_orphans(&mut self, at: SimTime, block: Block, log: &mut ReplicaLog) -> bool {
        let report = self.apply_batch(at, vec![block], log);
        matches!(
            report.verdicts[0],
            IngestVerdict::Accepted | IngestVerdict::Duplicate
        )
    }

    /// Applies a delta batch through the staged ingest pipeline: blocks
    /// are staged against the local tree (`btadt-pipeline` stage 2), the
    /// topologically-ordered ready set is inserted — recording each
    /// application in `log` and journaling it — stage-2 orphans join the
    /// pool, and the pool is drained against the grown tree.  Returns one
    /// [`IngestVerdict`] per input block, in input order.
    pub fn apply_batch(
        &mut self,
        at: SimTime,
        blocks: Vec<Block>,
        log: &mut ReplicaLog,
    ) -> BatchReport {
        self.stats.batches_applied += 1;
        let StagedBatch {
            ready,
            orphans,
            mut verdicts,
            ..
        } = stage_batch(blocks, |id| self.tree.contains(id));
        for (pos, block) in ready {
            verdicts[pos] = Some(self.attach(block, Some((at, log))));
        }
        self.orphans
            .extend(orphans.into_iter().map(|(_, block)| block));
        self.drain_orphans(at, log);
        if self.orphans.is_empty() {
            self.sync_floor = None;
        }
        let report = BatchReport::from_verdicts(
            verdicts
                .into_iter()
                .map(|v| v.expect("every input position receives a verdict"))
                .collect(),
        );
        self.stats.batch_accepted += report.accepted as u64;
        self.stats.batch_orphaned += report.orphaned as u64;
        self.stats.batch_duplicates += report.duplicates as u64;
        report
    }

    /// Drains the orphan pool against the grown tree until a pass makes
    /// no progress: each pass attaches every orphan whose parent became
    /// resident, recording and journaling it.
    fn drain_orphans(&mut self, at: SimTime, log: &mut ReplicaLog) {
        loop {
            let mut progressed = false;
            // `attach` re-pools whatever still cannot link.
            for orphan in std::mem::take(&mut self.orphans) {
                progressed |= self.attach(orphan, Some((at, log))).is_accepted();
            }
            if !progressed {
                break;
            }
        }
    }

    /// The one attach step behind every door: insert the block, dropping
    /// it if the tree already has it and pooling it as an orphan if the
    /// tree refuses it (staging may have resolved the parent and the insert
    /// still refuse, e.g. on a height inconsistency).  `applied` carries
    /// the log of a *fresh* application, which is recorded and journaled;
    /// replay and recovery pass `None` (those applications were recorded
    /// before the crash, and replay never re-journals).
    fn attach(
        &mut self,
        block: Block,
        applied: Option<(SimTime, &mut ReplicaLog)>,
    ) -> IngestVerdict {
        match self.tree.insert(block.clone()) {
            Ok(()) => {
                if let Some((at, log)) = applied {
                    log.record_applied(at, block.clone());
                    self.journal_applied(block);
                }
                IngestVerdict::Accepted
            }
            Err(InsertError::Duplicate(_)) => IngestVerdict::Duplicate,
            Err(_) => {
                self.orphans.push(block);
                IngestVerdict::Orphaned
            }
        }
    }

    fn journal_applied(&mut self, block: Block) {
        // Persist before journaling: the durable store is the medium a
        // checkpoint recovery trusts, so a block must never be observable
        // in the volatile WAL without also having been handed to the
        // store.  Dedup by id — a block recovered from the store and later
        // re-applied via orphan drain must not grow a duplicate record.
        if let Some(store) = self.store.as_mut() {
            if !store.contains(block.id) {
                store.append(&block);
            }
        }
        let kind = if block.producer == self.id as u32 {
            JournalKind::Mined
        } else {
            JournalKind::Accepted
        };
        self.journal.append(kind, block);
    }

    /// Asks `peer` for the delta that can re-attach our orphans.  An orphan
    /// at height `h` is missing at least its parent at `h - 1`, and
    /// `delta_above` is strictly-above, so the floor must sit at `h - 2` for
    /// the parent to be included.  If a response surfaces still-deeper gaps,
    /// the floor-halving fallback in [`GossipSync::after_blocks`] pushes it
    /// down — bottoming out at genesis, so sync always terminates.
    pub fn request_delta_sync(&mut self, ctx: &mut Context<Msg>, peer: usize) {
        let base = self
            .orphans
            .iter()
            .map(|b| b.height)
            .min()
            .map(|h| h.saturating_sub(2))
            .unwrap_or_else(|| self.tree.height().saturating_sub(SYNC_LOOKBACK));
        let above_height = match self.sync_floor {
            Some(floor) => floor.min(base),
            None => base,
        };
        self.sync_floor = Some(above_height);
        self.send_request(ctx, peer, above_height, 0);
    }

    /// One periodic anti-entropy round: ask a rotating, non-suspect peer
    /// for the delta above our height (or above our orphan floor when gaps
    /// are known).  A request still pending from an earlier round is
    /// superseded (its response, if it ever arrives, classifies as
    /// [`ResponseClass::Late`] and is applied idempotently) — the periodic
    /// cadence must never be starved by a lost round trip.
    pub fn anti_entropy(&mut self, ctx: &mut Context<Msg>) {
        if ctx.n() < 2 {
            return;
        }
        self.ensure_health(ctx.n());
        let start = (self.id + 1 + (self.sync_round as usize % (ctx.n() - 1))) % ctx.n();
        self.sync_round += 1;
        let peer = self.pick_healthy(start, ctx.n());
        self.request_delta_sync(ctx, peer);
    }

    /// Handles a [`RETRY_TIMER`] expiry.  Timers from superseded requests
    /// are recognised (the pending request is newer than the deadline they
    /// guard) and ignored.
    pub fn on_retry_timer(&mut self, ctx: &mut Context<Msg>) {
        let Some(p) = self.pending else {
            return;
        };
        let deadline = p.sent_at.0 + self.timeout_for(p.request_id, p.attempt);
        if ctx.now().0 < deadline {
            // A stale timer armed for an earlier, already-replaced request.
            return;
        }
        self.stats.timeouts += 1;
        self.note_timeout(p.peer, ctx.n());
        if p.attempt + 1 >= MAX_ATTEMPTS {
            // Give up; the next periodic anti-entropy round starts over.
            self.pending = None;
            return;
        }
        self.stats.retries += 1;
        let peer = self.pick_healthy((p.peer + 1) % ctx.n(), ctx.n());
        self.send_request(ctx, peer, p.above_height, p.attempt + 1);
    }

    /// Classifies an incoming response by its echoed `request_id`, updating
    /// pending state and counters.  `batch_len` is the response's batch
    /// size (for the empty-response counter).
    pub fn classify_response(&mut self, request_id: u64, batch_len: usize) -> ResponseClass {
        if request_id == 0 {
            // Unsolicited batch (e.g. flood assistance); nothing to clear.
            return ResponseClass::Late;
        }
        if request_id >> 32 != u64::from(self.incarnation) {
            self.stats.stale_responses += 1;
            return ResponseClass::Stale;
        }
        match self.pending {
            Some(p) if p.request_id == request_id => {
                self.pending = None;
                self.stats.responses += 1;
                if batch_len == 0 {
                    self.stats.empty_responses += 1;
                }
                ResponseClass::Fresh
            }
            _ => {
                self.stats.late_responses += 1;
                ResponseClass::Late
            }
        }
    }

    /// Follow-up after handling a [`Msg::Blocks`] batch.  If orphans
    /// remain, the delta was not deep enough to reach the fork point: halve
    /// the floor (a response never carries blocks below the floor it
    /// answered, so orphan heights alone cannot push it down) and ask
    /// again.  Once the floor has bottomed out at 0 this peer has already
    /// sent its whole tree — stop re-asking it (the periodic anti-entropy
    /// rotates to other peers), otherwise two replicas would ping-pong
    /// full-tree payloads for the rest of the run.  With no orphans, a full
    /// batch means the responder truncated: continue strictly above the
    /// highest block received, which grows every round, so a full re-sync
    /// terminates in `ceil(missing / MAX_SYNC_BATCH)` rounds.
    pub fn after_blocks(
        &mut self,
        ctx: &mut Context<Msg>,
        from: usize,
        batch_len: usize,
        batch_max_height: u64,
    ) {
        if !self.orphans.is_empty() {
            if batch_len >= MAX_SYNC_BATCH {
                // The batch was truncated, so it proves nothing about the
                // blocks above its end — the missing ancestry may sit in
                // the cut-off region (a capped batch over a deep gap fills
                // up with blocks the requester already has).  Walk upward
                // from the truncation point; `batch_max_height` strictly
                // grows each round, so the walk terminates.
                self.sync_floor = Some(batch_max_height);
                self.send_request(ctx, from, batch_max_height, 0);
                return;
            }
            // A non-full batch is complete coverage above the floor, so the
            // fork point must lie below it: halve the floor (orphan heights
            // alone cannot push it down) and ask again.
            let floor = self.sync_floor.unwrap_or_else(|| self.tree.height());
            if floor > 0 {
                self.sync_floor = Some(floor / 2);
                self.request_delta_sync(ctx, from);
            }
            return;
        }
        if batch_len >= MAX_SYNC_BATCH {
            self.send_request(ctx, from, batch_max_height, 0);
        }
    }

    /// Records a churn rejoin: bumps the incarnation (so in-flight
    /// responses to the previous life classify as [`ResponseClass::Stale`]),
    /// clears the pending request, and applies the recovery mode.  Returns
    /// the number of blocks replayed from the journal.
    pub fn note_rejoin(&mut self, mode: RecoveryMode) -> usize {
        self.stats.rejoins += 1;
        self.stats.requests_at_last_rejoin = self.stats.requests_sent;
        self.incarnation += 1;
        self.pending = None;
        match mode {
            RecoveryMode::Retain => 0,
            RecoveryMode::Restart => self.crash_restart(false),
            RecoveryMode::Journal => self.crash_restart(true),
            RecoveryMode::Checkpoint => self.crash_recover_checkpoint(),
        }
    }

    /// Wipes all volatile state (tree, orphans, sync floor, pending
    /// request, peer health) — what any flavour of crash loses.
    fn wipe_volatile(&mut self) {
        self.tree = BlockTree::new();
        self.orphans.clear();
        self.sync_floor = None;
        self.pending = None;
        self.health.clear();
    }

    /// Replays up to `limit` journal entries (all of them when `None`) into
    /// the current tree, in sequence order.  Replay is **idempotent**:
    /// blocks already in the tree are skipped, and nothing is re-journaled
    /// — so replaying the same WAL twice is a no-op, and a replay
    /// interrupted mid-way can simply be run again.  Replay bypasses the
    /// replica log (those applications were recorded before the crash).
    /// Returns the number of blocks newly applied.
    fn replay_journal(&mut self, limit: Option<usize>) -> usize {
        let take = limit.unwrap_or(self.journal.len());
        let blocks: Vec<Block> = self.journal.blocks().take(take).cloned().collect();
        self.restore(blocks)
    }

    /// Re-attaches `blocks` (parents-first) after a crash, bypassing the
    /// replica log and the journal.  Returns the number newly attached.
    fn restore(&mut self, blocks: impl IntoIterator<Item = Block>) -> usize {
        let mut restored = 0usize;
        for block in blocks {
            if self.attach(block, None).is_accepted() {
                restored += 1;
            }
        }
        self.stats.replayed_blocks += restored as u64;
        restored
    }

    /// Simulates a crash-restart: all volatile state (tree, orphans, sync
    /// floor, peer health) is wiped.  With `replay`, the write-ahead
    /// journal — the durable part of the process — is replayed first, in
    /// sequence order, rebuilding the pre-crash tree; without it the
    /// journal is lost too and the tree restarts from genesis.  Returns the
    /// number of blocks replayed.
    pub fn crash_restart(&mut self, replay: bool) -> usize {
        self.wipe_volatile();
        if replay {
            self.replay_journal(None)
        } else {
            self.journal.clear();
            0
        }
    }

    /// Simulates a crash that strikes *again* in the middle of journal
    /// replay: volatile state is wiped and only the first `after` WAL
    /// entries are applied before the process dies once more.  The journal
    /// itself — durable storage — is untouched, so a subsequent
    /// [`GossipSync::resume_replay`] (or full [`GossipSync::crash_restart`])
    /// completes the recovery.  Returns the number of blocks applied before
    /// the second crash.
    pub fn crash_restart_interrupted(&mut self, after: usize) -> usize {
        self.wipe_volatile();
        self.replay_journal(Some(after))
    }

    /// Re-runs a full journal replay over the *current* tree without wiping
    /// anything — how a process recovering from a crash-during-replay picks
    /// up where the interrupted replay left off.  Because replay is
    /// idempotent, the already-applied prefix contributes nothing and only
    /// the unreplayed tail counts.  Returns the number of blocks newly
    /// applied.
    pub fn resume_replay(&mut self) -> usize {
        self.replay_journal(None)
    }

    /// Simulates a crash-recovery from the durable chunked store: volatile
    /// state *and* the volatile WAL are wiped (in checkpoint mode the store
    /// is the durable medium, not the journal), the store's verifying
    /// recovery pipeline runs (truncating torn tails, quarantining corrupt
    /// chunks), and the surviving blocks are re-inserted parents-first.
    /// Survivors whose ancestry was lost to corruption are buffered as
    /// orphans so the ordinary delta-sync machinery heals the gap.  Without
    /// an attached store this degrades to a bare restart.  Returns the
    /// number of blocks restored from the store.
    pub fn crash_recover_checkpoint(&mut self) -> usize {
        self.wipe_volatile();
        self.journal.clear();
        let Some(store) = self.store.take() else {
            return 0;
        };
        let config = store.config();
        let (recovered, report, survivors) = BlockStore::recover(store.into_medium(), config);
        self.last_recovery = Some(report);
        self.store = Some(recovered);
        // Survivors come back in record (= install) order; staging keeps
        // that order — the one the interval labels were allocated in — and
        // splits off what lost its ancestry to corruption, which waits in
        // the orphan pool for delta sync to fetch the gap from a peer.
        let StagedBatch { ready, orphans, .. } =
            stage_batch(survivors, |id| self.tree.contains(id));
        let restored = self.restore(ready.into_iter().map(|(_, block)| block));
        self.orphans
            .extend(orphans.into_iter().map(|(_, block)| block));
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_batch_caps_at_max_sync_batch() {
        let genesis = Block::genesis();
        let mut parent = genesis.clone();
        let mut blocks = Vec::new();
        for nonce in 0..(MAX_SYNC_BATCH as u64 + 5) {
            let b = BlockBuilder::new(&parent).nonce(nonce).build();
            parent = b.clone();
            blocks.push(b);
        }
        truncate_batch(&mut blocks);
        assert_eq!(blocks.len(), MAX_SYNC_BATCH);
    }

    #[test]
    fn classify_response_distinguishes_fresh_late_and_stale() {
        let mut sync = GossipSync::new(0);
        // Forge a pending request without a Context by driving the fields
        // the way send_request would.
        sync.pending = Some(PendingRequest {
            request_id: 5,
            peer: 1,
            sent_at: SimTime(0),
            attempt: 0,
            above_height: 0,
        });
        assert_eq!(sync.classify_response(5, 0), ResponseClass::Fresh);
        assert!(sync.pending.is_none());
        assert_eq!(sync.stats().responses, 1);
        assert_eq!(sync.stats().empty_responses, 1);
        // Same incarnation (0), no pending: late.
        assert_eq!(sync.classify_response(6, 2), ResponseClass::Late);
        assert_eq!(sync.stats().late_responses, 1);
        // Unsolicited id 0 is always late-class (applied, nothing cleared).
        assert_eq!(sync.classify_response(0, 1), ResponseClass::Late);
        // Bump incarnation: ids minted before the rejoin become stale.
        sync.note_rejoin(RecoveryMode::Retain);
        assert_eq!(sync.classify_response(7, 1), ResponseClass::Stale);
        assert_eq!(sync.stats().stale_responses, 1);
    }

    #[test]
    fn crash_restart_replays_journal_in_order() {
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).producer(0).nonce(1).build();
        let b = BlockBuilder::new(&a).producer(7).nonce(2).build();
        assert!(sync.insert_with_orphans(SimTime(1), a.clone(), &mut log));
        assert!(sync.insert_with_orphans(SimTime(2), b.clone(), &mut log));
        assert_eq!(sync.journal().len(), 2);
        assert_eq!(sync.journal().mined().count(), 1);

        let replayed = sync.crash_restart(true);
        assert_eq!(replayed, 2);
        assert!(sync.contains(a.id));
        assert!(sync.contains(b.id));
        // Journal survives a replayed restart (it is the durable medium).
        assert_eq!(sync.journal().len(), 2);

        let lost = sync.crash_restart(false);
        assert_eq!(lost, 0);
        assert!(!sync.contains(a.id));
        assert!(sync.journal().is_empty());
    }

    #[test]
    fn apply_batch_stages_orphans_and_counts_verdicts() {
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        let d = BlockBuilder::new(&c).nonce(4).build();

        // Shuffled batch missing c: b and a stage ready (topologically
        // reordered), d pools as a stage-2 orphan.
        let report = sync.apply_batch(SimTime(1), vec![b.clone(), d.clone(), a.clone()], &mut log);
        assert_eq!(
            report.verdicts,
            vec![
                IngestVerdict::Accepted,
                IngestVerdict::Orphaned,
                IngestVerdict::Accepted,
            ]
        );
        assert!(sync.contains(a.id) && sync.contains(b.id));
        assert!(!sync.contains(d.id));
        assert_eq!(sync.orphans.len(), 1);

        // Healing batch: c attaches and the drain pulls d in behind it;
        // re-offering a is a duplicate, not an error.
        let report = sync.apply_batch(SimTime(2), vec![c.clone(), a.clone()], &mut log);
        assert_eq!(
            report.verdicts,
            vec![IngestVerdict::Accepted, IngestVerdict::Duplicate]
        );
        assert!(sync.contains(d.id));
        assert!(sync.orphans.is_empty());

        let stats = sync.stats();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.batch_accepted, 3);
        assert_eq!(stats.batch_orphaned, 1);
        assert_eq!(stats.batch_duplicates, 1);
        // Every applied block hit the journal exactly once.
        assert_eq!(sync.journal().len(), 4);
    }

    #[test]
    fn a_crash_during_replay_recovers_by_replaying_again() {
        // Satellite regression: the WAL replay must be idempotent, so a
        // process that crashes *during* journal replay recovers by simply
        // replaying the whole journal once more — the already-applied
        // prefix is a no-op and only the tail counts.
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).producer(0).nonce(1).build();
        let b = BlockBuilder::new(&a).producer(1).nonce(2).build();
        let c = BlockBuilder::new(&b).producer(2).nonce(3).build();
        for (t, block) in [&a, &b, &c].into_iter().enumerate() {
            assert!(sync.insert_with_orphans(SimTime(t as u64), block.clone(), &mut log));
        }
        assert_eq!(sync.journal().len(), 3);

        // First crash; replay dies after 2 of the 3 entries.
        let partial = sync.crash_restart_interrupted(2);
        assert_eq!(partial, 2);
        assert!(sync.contains(b.id) && !sync.contains(c.id));
        assert_eq!(sync.journal().len(), 3, "the WAL itself is durable");

        // Second recovery: full replay over the half-restored tree.
        let resumed = sync.resume_replay();
        assert_eq!(resumed, 1, "only the unreplayed tail applies");
        assert!(sync.contains(c.id));

        // Replaying the same WAL twice is a no-op.
        assert_eq!(sync.resume_replay(), 0);
        assert_eq!(sync.journal().len(), 3, "replay never re-journals");
        assert_eq!(sync.stats().replayed_blocks, 3);

        // The full crash_restart path is equally idempotent.
        assert_eq!(sync.crash_restart(true), 3);
        assert_eq!(sync.crash_restart(true), 3);
        assert_eq!(sync.journal().len(), 3);
    }

    #[test]
    fn checkpoint_recovery_restores_from_the_durable_store() {
        use btadt_store::{SimMedium, StoreConfig};
        let store = BlockStore::create(SimMedium::new(), StoreConfig::small());
        let mut sync = GossipSync::new(0).with_durable_store(store);
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let mut parent = genesis.clone();
        let mut blocks = Vec::new();
        for nonce in 1..=20u64 {
            let b = BlockBuilder::new(&parent).producer(0).nonce(nonce).build();
            parent = b.clone();
            assert!(sync.insert_with_orphans(SimTime(nonce), b.clone(), &mut log));
            blocks.push(b);
        }
        assert_eq!(sync.durable_store().unwrap().blocks().len(), 20);

        let restored = sync.note_rejoin(RecoveryMode::Checkpoint);
        assert_eq!(restored, 20, "every durable block comes back");
        for b in &blocks {
            assert!(sync.contains(b.id));
        }
        let report = sync.last_recovery_report().expect("recovery ran");
        assert_eq!(report.blocks_recovered, 20);
        assert!(
            sync.journal().is_empty(),
            "in checkpoint mode the WAL is volatile and dies with the crash"
        );
        // The recovered store keeps mirroring: a fresh apply is persisted,
        // and re-applying a recovered block does not duplicate its record.
        let next = BlockBuilder::new(&parent).producer(0).nonce(99).build();
        assert!(sync.insert_with_orphans(SimTime(99), next.clone(), &mut log));
        assert!(sync.durable_store().unwrap().contains(next.id));
        assert_eq!(sync.durable_store().unwrap().blocks().len(), 21);
    }

    #[test]
    fn checkpoint_recovery_replays_in_install_order_without_a_reindex_storm() {
        // Height-major replay fragments the interval labels' pockets
        // (docs/PIPELINE.md § "Stable topological order"): on this tree it
        // ran ~10⁵ reindex passes.  Record order is the order the labels
        // were allocated in, so recovery must cost no more passes than the
        // ingest that wrote the store.
        use btadt_store::{SimMedium, StoreConfig};
        use btadt_types::workload::Workload;
        let source = Workload::new(14).random_tree(2_000, 0.7, 4);
        let blocks: Vec<Block> = source.blocks().skip(1).cloned().collect();
        let store = BlockStore::create(SimMedium::new(), StoreConfig::default());
        let mut sync = GossipSync::new(0).with_durable_store(store);
        let mut log = ReplicaLog::new();
        for batch in blocks.chunks(64) {
            let report = sync.apply_batch(SimTime(0), batch.to_vec(), &mut log);
            assert_eq!(report.accepted, batch.len());
        }
        let ingest_reindexes = sync.tree().reachability_reindexes();

        let restored = sync.note_rejoin(RecoveryMode::Checkpoint);
        assert_eq!(restored, blocks.len(), "every durable block comes back");
        assert!(sync.orphans.is_empty());
        assert_eq!(sync.tree().sorted_ids(), source.sorted_ids());
        let recover_reindexes = sync.tree().reachability_reindexes();
        assert!(
            recover_reindexes <= ingest_reindexes,
            "recovery ran {recover_reindexes} reindex passes, the ingest {ingest_reindexes}"
        );
    }

    #[test]
    fn checkpoint_recovery_buffers_corruption_gaps_as_orphans() {
        use btadt_store::{SimMedium, StoreConfig};
        let store = BlockStore::create(SimMedium::new(), StoreConfig::small());
        let mut sync = GossipSync::new(0).with_durable_store(store);
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let mut parent = genesis.clone();
        for nonce in 1..=20u64 {
            let b = BlockBuilder::new(&parent).producer(0).nonce(nonce).build();
            parent = b.clone();
            sync.insert_with_orphans(SimTime(nonce), b, &mut log);
        }
        // Flip a bit inside the first sealed chunk: recovery quarantines
        // the chunk, losing mid-chain ancestry, so the surviving upper
        // blocks cannot attach and must wait for delta sync.
        let medium = sync.store.as_mut().unwrap().medium_mut();
        let chunk = medium
            .list()
            .into_iter()
            .find(|f| f.starts_with("chunk-"))
            .expect("a sealed chunk exists");
        assert!(medium.corrupt_bit(&chunk, 40));

        let restored = sync.note_rejoin(RecoveryMode::Checkpoint);
        let report = *sync.last_recovery_report().expect("recovery ran");
        assert!(report.chunks_quarantined >= 1, "{report:?}");
        assert!(restored < 20, "the quarantined chunk cost blocks");
        assert!(
            !sync.orphans.is_empty(),
            "survivors above the gap wait as orphans for delta sync"
        );
        assert!(restored + sync.orphans.len() <= 20);
    }

    #[test]
    fn health_scores_clamp_and_gate_suspicion() {
        let mut sync = GossipSync::new(0);
        for _ in 0..10 {
            sync.note_alive(1, 4);
        }
        assert_eq!(sync.health(1), HEALTH_MAX);
        for _ in 0..10 {
            sync.note_timeout(1, 4);
        }
        assert_eq!(sync.health(1), HEALTH_MIN);
        assert!(sync.is_suspect(1));
        // pick_healthy skips the suspect peer 1 starting from it.
        assert_eq!(sync.pick_healthy(1, 4), 2);
        // Evidence of life climbs back toward healthy.
        for _ in 0..5 {
            sync.note_alive(1, 4);
        }
        assert!(!sync.is_suspect(1));
    }

    #[test]
    fn timeout_backoff_grows_and_jitter_is_deterministic() {
        let sync = GossipSync::new(3);
        let t0 = sync.timeout_for(42, 0);
        let t1 = sync.timeout_for(42, 1);
        let t2 = sync.timeout_for(42, 2);
        assert!((BASE_TIMEOUT..BASE_TIMEOUT + BASE_TIMEOUT / 4).contains(&t0));
        assert!(t1 >= 2 * BASE_TIMEOUT);
        assert!(t2 >= 4 * BASE_TIMEOUT);
        assert_eq!(t0, sync.timeout_for(42, 0));
        // Different requests jitter differently (with overwhelming odds for
        // these two fixed ids).
        assert_ne!(
            sync.timeout_for(42, 0) % BASE_TIMEOUT,
            sync.timeout_for(43, 0) % BASE_TIMEOUT
        );
    }
}
