//! Delta-sync gossip machinery for the mining replica.
//!
//! There is one mining replica, [`PowReplica`](crate::pow::PowReplica);
//! selfish and withholding miners are release policies over it
//! ([`Strategy`](crate::adversary::Strategy)), so every miner repairs gaps
//! the same way and there is no second copy to drift: orphaned blocks are
//! buffered, a [`Msg::SyncRequest`](crate::messages::Msg) asks the peer for
//! the delta above a floor, and fruitless responses halve the floor until
//! the fork point is reached.
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
//! * **Bounded batches** — a responder sends the first [`MAX_SYNC_BATCH`]
//!   blocks of the `(height, id)`-ordered walk [`BlockTree::delta_above`],
//!   so every sent block's parent is below the floor or earlier in the
//!   batch, and a reply costs the heights it spans, not the tree.  A full
//!   batch signals "more above": the requester issues a continuation
//!   strictly above the highest block it just received, so progress is
//!   guaranteed and re-sync of a long chain costs at most
//!   `ceil(missing / MAX_SYNC_BATCH)` rounds.  *Known cost:* on a forked
//!   tree a full batch can end partway through one height, and the blocks
//!   it left out at that height sit at the continuation's floor, so that
//!   walk never asks for them; later requests (anti-entropy's lookback,
//!   floor halving) pick them up.  On a `net_converge` rep (seed 1),
//!   10 107 of the 15 438 full replies end partway through a height.
//!   Continuing one height lower would close the gap but changes the event
//!   counts of every run, so it is not done here.
//! * **One durable log** — the tree, the orphan pool and the optional
//!   `btadt-store` [`BlockStore`] are one [`ReplicaCore`]: the blocks an
//!   ingest links are recorded as applied and persisted as one run before
//!   the ingest returns, and a
//!   [`RecoveryMode::Checkpoint`] rejoin runs the store's verifying
//!   recovery (torn tails truncated, corrupt chunks quarantined) and sends
//!   the survivors back through the same ingest door, so the process only
//!   delta-syncs the gap it missed plus whatever corruption cost.  Recovery
//!   is idempotent — a crash during it is answered by running it again.

use btadt_netsim::{Context, SimTime};
use btadt_pipeline::{BatchReport, IngestVerdict};
use btadt_store::{BlockStore, RecoveryReport, ReplicaCore};
use btadt_types::{Block, BlockId, BlockTree};

use crate::extract::ReplicaLog;
use crate::messages::Msg;

/// How many anti-entropy rounds keep running after mining stops, so that
/// deltas lost to the channel still reconcile before quiescence.
pub(crate) const SYNC_TAIL_ROUNDS: u64 = 12;
/// Anti-entropy requests look this far below the local height so that
/// competing same-height tips (ties the selection must see to be
/// deterministic across replicas) still propagate.
pub(crate) const SYNC_LOOKBACK: u64 = 3;

/// Maximum number of blocks in one [`Msg::Blocks`] delta batch.  Responders
/// take this many from [`BlockTree::delta_above`]; requesters detect a full
/// batch and issue a continuation request above it.
pub const MAX_SYNC_BATCH: usize = 16;

/// Timer id used by the sync retry/timeout machinery.  Must stay distinct
/// from the mining replica's own timers (`MINE_TIMER = 1`,
/// `SYNC_TIMER = 2`, `RELEASE_TIMER = 3`, all in `pow.rs`).
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
    /// Blocks restored from the durable store across all recoveries.
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

/// What a replica's `on_rejoin` does with its state after a churn window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Volatile state survives the window (a paused process, not a crashed
    /// one).  This is the historical behavior and the default.
    #[default]
    Retain,
    /// Crash-stop then restart with no durable storage: the tree is wiped
    /// and rebuilt from genesis via full delta re-sync.
    Restart,
    /// Crash then recover from the durable block store of `btadt-store`:
    /// run the checksum-verifying recovery pipeline (truncate the torn
    /// tail, quarantine corrupt chunks), relink the surviving blocks, and
    /// delta-sync both the churn gap *and* whatever corruption cost.
    /// Requires a store attached via [`GossipSync::with_durable_store`];
    /// without one it degrades to [`RecoveryMode::Restart`].
    Checkpoint,
}

impl RecoveryMode {
    /// Short label used by benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMode::Retain => "retain",
            RecoveryMode::Restart => "restart",
            RecoveryMode::Checkpoint => "checkpoint",
        }
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

/// A replica's durable core plus the orphan-repair / delta-sync state.
pub struct GossipSync {
    id: usize,
    /// The local tree, the orphan pool and — when the replica runs in
    /// [`RecoveryMode::Checkpoint`] — the durable store every applied
    /// block is persisted to.
    core: ReplicaCore,
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
    /// Report of the most recent checkpoint recovery, if any.
    last_recovery: Option<RecoveryReport>,
}

impl GossipSync {
    /// Fresh sync state for replica `id`.
    pub fn new(id: usize) -> Self {
        GossipSync {
            id,
            core: ReplicaCore::default(),
            sync_round: 0,
            sync_floor: None,
            incarnation: 0,
            next_seq: 1,
            pending: None,
            health: Vec::new(),
            stats: SyncStats::default(),
            last_recovery: None,
        }
    }

    /// Attaches a durable block store to a fresh replica; from now on
    /// every applied block is persisted to it and
    /// [`RecoveryMode::Checkpoint`] rejoins recover from it.
    pub fn with_durable_store(mut self, store: BlockStore) -> Self {
        self.core = ReplicaCore::with_store(store);
        self
    }

    /// The attached durable store, if any.
    pub fn durable_store(&self) -> Option<&BlockStore> {
        self.core.store()
    }

    /// The report of the most recent checkpoint recovery, if one ran.
    pub fn last_recovery_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The replica's local block tree.
    pub fn tree(&self) -> &BlockTree {
        self.core.tree()
    }

    /// Whether the tree already contains `id`.
    pub fn contains(&self, id: BlockId) -> bool {
        self.core.tree().contains(id)
    }

    /// Sync behaviour counters.
    pub fn stats(&self) -> &SyncStats {
        &self.stats
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

    /// Inserts a block, releasing any orphans it unblocks and recording
    /// each application in `log`.  Returns `true` iff the block is in the
    /// tree after the call (attached now, or already present); `false` iff
    /// it waits in the orphan pool.  A batch of one through
    /// [`apply_batch`](Self::apply_batch).
    pub fn insert_with_orphans(&mut self, at: SimTime, block: Block, log: &mut ReplicaLog) -> bool {
        let report = self.apply_batch(at, vec![block], log);
        matches!(
            report.verdicts[0],
            IngestVerdict::Accepted | IngestVerdict::Duplicate
        )
    }

    /// Applies a delta batch through the core's ingest door
    /// ([`ReplicaCore::ingest`]): blocks are staged against the local tree,
    /// the topologically-ordered ready run is linked, orphans join the pool
    /// (once each, however often they are re-offered), and the pooled
    /// children of whatever linked follow it in.  Every block that links is
    /// recorded in `log`, and the linked blocks are persisted as one run
    /// before the call returns.  Returns one [`IngestVerdict`] per input
    /// block, in input order.
    pub fn apply_batch(
        &mut self,
        at: SimTime,
        blocks: Vec<Block>,
        log: &mut ReplicaLog,
    ) -> BatchReport {
        self.stats.batches_applied += 1;
        let report = self
            .core
            .ingest(blocks, |block| log.record_applied(at, block.clone()));
        if self.core.pool().is_empty() {
            self.sync_floor = None;
        }
        self.stats.batch_accepted += report.accepted as u64;
        self.stats.batch_orphaned += report.orphaned as u64;
        self.stats.batch_duplicates += report.duplicates as u64;
        report
    }

    /// Asks `peer` for the delta that can re-attach our orphans.  An orphan
    /// at height `h` is missing at least its parent at `h - 1`, and
    /// `delta_above` is strictly-above, so the floor must sit at `h - 2` for
    /// the parent to be included.  If a response surfaces still-deeper gaps,
    /// the floor-halving fallback in [`GossipSync::after_blocks`] pushes it
    /// down — bottoming out at genesis, so sync always terminates.
    pub fn request_delta_sync(&mut self, ctx: &mut Context<Msg>, peer: usize) {
        let base = self
            .core
            .pool()
            .blocks()
            .map(|b| b.height)
            .min()
            .map(|h| h.saturating_sub(2))
            .unwrap_or_else(|| self.tree().height().saturating_sub(SYNC_LOOKBACK));
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
    /// batch means the responder capped its reply: continue strictly above
    /// the highest block received, which grows every round, so a full
    /// re-sync terminates in at most `ceil(missing / MAX_SYNC_BATCH)`
    /// rounds.  A batch that ended partway through its top height leaves
    /// that height's remaining blocks to later requests: the continuation
    /// asks only above it (see "Bounded batches" in the module docs).
    pub fn after_blocks(
        &mut self,
        ctx: &mut Context<Msg>,
        from: usize,
        batch_len: usize,
        batch_max_height: u64,
    ) {
        if !self.core.pool().is_empty() {
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
            let floor = self.sync_floor.unwrap_or_else(|| self.tree().height());
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
    /// the number of blocks restored from the durable store.
    pub fn note_rejoin(&mut self, mode: RecoveryMode) -> usize {
        self.stats.rejoins += 1;
        self.stats.requests_at_last_rejoin = self.stats.requests_sent;
        self.incarnation += 1;
        self.pending = None;
        match mode {
            RecoveryMode::Retain => 0,
            RecoveryMode::Restart => {
                // Nothing is durable: an attached store dies with the rest.
                self.core = ReplicaCore::default();
                self.wipe_sync_state();
                0
            }
            RecoveryMode::Checkpoint => self.crash_recover_checkpoint(),
        }
    }

    /// Wipes the volatile sync state (sync floor, pending request, peer
    /// health) — what any flavour of crash loses besides the tree and the
    /// orphan pool.
    fn wipe_sync_state(&mut self) {
        self.sync_floor = None;
        self.pending = None;
        self.health.clear();
    }

    /// Simulates a crash-recovery from the durable store
    /// ([`ReplicaCore::recover`]): all volatile state is wiped, the store's
    /// verifying recovery pipeline runs (truncating torn tails,
    /// quarantining corrupt chunks), and the surviving blocks relink in
    /// record order.  Survivors whose ancestry was lost to corruption wait
    /// in the orphan pool so the ordinary delta-sync machinery heals the
    /// gap.  Without an attached store this degrades to a bare restart.
    /// Returns the number of blocks restored from the store.
    pub fn crash_recover_checkpoint(&mut self) -> usize {
        self.wipe_sync_state();
        let Some(store) = std::mem::take(&mut self.core).into_store() else {
            return 0;
        };
        let config = store.config();
        let (core, report) = ReplicaCore::recover(store.into_medium(), config);
        self.core = core;
        self.last_recovery = Some(report);
        let restored = self.tree().len() - 1;
        self.stats.replayed_blocks += restored as u64;
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

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
    fn recovery_mode_labels() {
        assert_eq!(RecoveryMode::default(), RecoveryMode::Retain);
        assert_eq!(RecoveryMode::Retain.label(), "retain");
        assert_eq!(RecoveryMode::Restart.label(), "restart");
        assert_eq!(RecoveryMode::Checkpoint.label(), "checkpoint");
    }

    fn durable_sync() -> GossipSync {
        use btadt_store::{SimMedium, StoreConfig};
        let store = BlockStore::create(SimMedium::new(), StoreConfig::small());
        GossipSync::new(0).with_durable_store(store)
    }

    #[test]
    fn crash_restart_replays_the_durable_log_in_order() {
        let mut sync = durable_sync();
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).producer(0).nonce(1).build();
        let b = BlockBuilder::new(&a).producer(7).nonce(2).build();
        assert!(sync.insert_with_orphans(SimTime(1), a.clone(), &mut log));
        assert!(sync.insert_with_orphans(SimTime(2), b.clone(), &mut log));

        let replayed = sync.note_rejoin(RecoveryMode::Checkpoint);
        assert_eq!(replayed, 2);
        let order: Vec<BlockId> = sync.tree().blocks().skip(1).map(|x| x.id).collect();
        assert_eq!(order, vec![a.id, b.id], "relinked in record order");
        // The log survives a recovery (it is the durable medium), and
        // recovery never re-records an application.
        assert_eq!(sync.durable_store().unwrap().len(), 2);
        assert_eq!(log.applied.len(), 2);

        let lost = sync.note_rejoin(RecoveryMode::Restart);
        assert_eq!(lost, 0);
        assert!(!sync.contains(a.id));
        assert!(sync.durable_store().is_none(), "nothing durable survives");
    }

    #[test]
    fn a_block_too_large_for_a_durable_record_is_refused_before_it_links() {
        use btadt_pipeline::IngestError;
        use btadt_store::StoreConfig;
        use btadt_types::Transaction;
        let mut sync = durable_sync();
        let mut log = ReplicaLog::new();
        let a = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        // 53 + 24 · 43 689 bytes of record body: one past the limit.
        let payload = (0..43_689).map(|i| Transaction::transfer(i, 1, 2, 3));
        let big = BlockBuilder::new(&a)
            .nonce(2)
            .payload(payload.collect::<Vec<_>>())
            .build();
        let c = BlockBuilder::new(&big).nonce(3).build();
        let report = sync.apply_batch(
            SimTime(1),
            vec![a.clone(), big.clone(), c.clone()],
            &mut log,
        );
        assert_eq!(report.verdicts[0], IngestVerdict::Accepted);
        assert!(
            matches!(&report.verdicts[1], IngestVerdict::Rejected(IngestError::Storage(why))
                if why.contains("record limit")),
            "{:?}",
            report.verdicts[1]
        );
        assert_eq!(report.verdicts[2], IngestVerdict::Orphaned);
        assert_eq!(
            (report.accepted, report.rejected, report.orphaned),
            (1, 1, 1)
        );
        // Nothing links that the store cannot hold: the child waits for a
        // peer to serve a parent this replica refuses.
        assert!(!sync.contains(big.id) && !sync.contains(c.id));
        assert_eq!(sync.core.pool().missing_parents(), vec![big.id]);
        let store = sync.durable_store().expect("attached");
        assert_eq!(store.stats().oversize_skipped, 0, "refused at the door");
        assert!(store.contains(a.id) && !store.contains(big.id) && !store.contains(c.id));

        // A restart finds the one small record and nothing to repair.
        let mut store = std::mem::take(&mut sync.core)
            .into_store()
            .expect("attached");
        store.checkpoint();
        let (core, recovery) = ReplicaCore::recover(store.into_medium(), StoreConfig::small());
        assert_eq!(recovery.blocks_recovered, 1);
        assert!(recovery.is_pristine(), "{recovery:?}");
        assert!(core.tree().contains(a.id));
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
        assert_eq!(sync.core.pool().len(), 1);

        // Healing batch: c attaches and the drain pulls d in behind it;
        // re-offering a is a duplicate, not an error.
        let report = sync.apply_batch(SimTime(2), vec![c.clone(), a.clone()], &mut log);
        assert_eq!(
            report.verdicts,
            vec![IngestVerdict::Accepted, IngestVerdict::Duplicate]
        );
        assert!(sync.contains(d.id));
        assert!(sync.core.pool().is_empty());

        let stats = sync.stats();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.batch_accepted, 3);
        assert_eq!(stats.batch_orphaned, 1);
        assert_eq!(stats.batch_duplicates, 1);
        assert_eq!(log.applied.len(), 4, "every block applied exactly once");
    }

    #[test]
    fn a_reoffered_orphan_is_pooled_once_and_applied_once() {
        // A flooding network re-offers every orphan; each offer must keep
        // reporting `Orphaned` (callers keep requesting delta sync) without
        // growing the pool.
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let a = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        for offer in 0..7u64 {
            assert!(!sync.insert_with_orphans(SimTime(offer), b.clone(), &mut log));
            assert_eq!(sync.core.pool().len(), 1);
        }
        assert_eq!(sync.stats().batch_orphaned, 7);

        assert!(sync.insert_with_orphans(SimTime(7), a.clone(), &mut log));
        assert!(sync.contains(b.id) && sync.core.pool().is_empty());
        let applied: Vec<BlockId> = log.applied.iter().map(|(_, x)| x.id).collect();
        assert_eq!(applied, vec![a.id, b.id]);
    }

    #[test]
    fn a_crash_during_replay_recovers_by_replaying_again() {
        // Recovery must be idempotent: a process that crashes again while
        // relinking the survivors recovers by running recovery once more —
        // the store is never re-appended and nothing is re-recorded.
        let mut sync = durable_sync();
        let mut log = ReplicaLog::new();
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).producer(0).nonce(1).build();
        let b = BlockBuilder::new(&a).producer(1).nonce(2).build();
        let c = BlockBuilder::new(&b).producer(2).nonce(3).build();
        for (t, block) in [&a, &b, &c].into_iter().enumerate() {
            assert!(sync.insert_with_orphans(SimTime(t as u64), block.clone(), &mut log));
        }

        assert_eq!(sync.crash_recover_checkpoint(), 3);
        assert_eq!(sync.crash_recover_checkpoint(), 3);
        assert!(sync.contains(c.id));
        let report = sync.last_recovery_report().expect("recovery ran");
        assert!(report.is_pristine(), "{report:?}");
        assert_eq!(sync.durable_store().unwrap().len(), 3, "never re-appended");
        assert_eq!(log.applied.len(), 3, "never re-recorded");
        assert_eq!(sync.stats().replayed_blocks, 6);
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
        assert!(sync.core.pool().is_empty());
        assert_eq!(sync.tree().sorted_ids(), source.sorted_ids());
        let recover_reindexes = sync.tree().reachability_reindexes();
        assert!(
            recover_reindexes <= ingest_reindexes,
            "recovery ran {recover_reindexes} reindex passes, the ingest {ingest_reindexes}"
        );
    }

    #[test]
    fn forkdense_restart_and_catch_up_reindex_no_more_than_the_repeated_pass_drain() {
        // The repo benchmark's `ingest_forkdense` restart: a two-sibling
        // ladder (the chain continues on the larger-id sibling), 90 % of
        // it in the store image, the tail arriving in reversed 64-block
        // windows of 16-block batches.  Link order is behaviour here —
        // reindexing is >99 % of the work — so the pooled door must not
        // link in a worse order than the drain it replaced, which ran
        // 24 815 passes for the recovery and 29 992 with the catch-up.
        use btadt_store::{SimMedium, StoreConfig};
        let mut tip = Block::genesis();
        let mut ladder = Vec::new();
        for level in 0..600u64 {
            let sibling = |slot: u64| {
                BlockBuilder::new(&tip)
                    .producer(slot as u32)
                    .nonce(level * 2 + slot + 1)
                    .build()
            };
            let (mut first, mut second) = (sibling(0), sibling(1));
            if first.id > second.id {
                std::mem::swap(&mut first, &mut second);
            }
            ladder.push(first);
            ladder.push(second.clone());
            tip = second;
        }
        let cut = ladder.len() * 90 / 100;
        let config = StoreConfig {
            chunk_capacity: 256,
            auto_checkpoint_every: 1024,
        };
        let mut image = BlockStore::create(SimMedium::new(), config);
        for block in &ladder[..cut] {
            image.append(block);
        }
        let image = BlockStore::create(image.into_medium(), config);
        let mut sync = GossipSync::new(0).with_durable_store(image);
        let mut log = ReplicaLog::new();

        assert_eq!(sync.crash_recover_checkpoint(), cut);
        let recover_reindexes = sync.tree().reachability_reindexes();
        for window in ladder[cut..].chunks(64) {
            let reversed: Vec<Block> = window.iter().rev().cloned().collect();
            for batch in reversed.chunks(16) {
                sync.apply_batch(SimTime(0), batch.to_vec(), &mut log);
            }
        }
        assert_eq!(sync.tree().len(), ladder.len() + 1);
        assert!(sync.core.pool().is_empty());
        let total_reindexes = sync.tree().reachability_reindexes();
        assert!(
            recover_reindexes <= 24_815 && total_reindexes <= 29_992,
            "recovery ran {recover_reindexes} reindex passes, catch-up brought it to {total_reindexes}"
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
        let medium = sync.core.store_mut().unwrap().medium_mut();
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
            !sync.core.pool().is_empty(),
            "survivors above the gap wait as orphans for delta sync"
        );
        assert!(restored + sync.core.pool().len() <= 20);
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
