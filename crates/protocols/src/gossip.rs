//! Delta-sync gossip machinery for the mining replica.
//!
//! There is one mining replica, [`PowReplica`](crate::pow::PowReplica);
//! selfish and withholding miners are release policies over it
//! ([`Strategy`](crate::adversary::Strategy)), so every miner repairs gaps
//! the same way and there is no second copy to drift.  A [`SyncRequest`]
//! names what the requester holds, so a reply ([`sync_reply`]) carries
//! only blocks it lacks: every request asks above `height − SYNC_LOOKBACK`
//! naming its leaves above that floor, and while orphans wait it asks for
//! their missing parents with a block locator, whose highest entry the
//! responder knows marks the fork point — one round trip however deep the
//! fork lies.
//!
//! # Hardened sync
//!
//! On top of the orphan-repair loop, [`GossipSync`] implements the
//! robustness layer:
//!
//! * **Request ids** — every [`SyncRequest`] carries
//!   `(incarnation << 32) | seq`.  A churn rejoin bumps the incarnation, so
//!   responses addressed to a previous life of the process are recognised
//!   and dropped ([`ResponseClass::Stale`]) instead of corrupting the
//!   rebuilt state.
//! * **Timeout / retry / backoff** — at most one sync request is in flight
//!   ([`PendingRequest`]).  A retry timer fires after an exponential
//!   backoff (base [`BASE_TIMEOUT`], doubled per attempt, plus a
//!   deterministic per-request jitter); expiry penalises the peer's health
//!   score and re-sends to the next healthy peer, up to [`MAX_ATTEMPTS`]
//!   attempts.  Anti-entropy never supersedes a request younger than a
//!   first attempt's timeout: the retry timer already covers a lost round
//!   trip.  An orphan does: it proves a gap now, and its sender holds the
//!   missing parent.
//! * **Peer health** — peers score +1 (clamped) on any evidence of life
//!   (message or corrupted frame received) and −1 on a request timeout.
//!   Anti-entropy skips peers below the suspicion threshold, so a crashed
//!   or partitioned peer stops absorbing sync rounds until it speaks again.
//! * **Bounded work** — a responder examines at most [`MAX_REPLY_WALK`]
//!   blocks per request and refuses, unwalked, a request naming more than
//!   [`MAX_REQUEST_IDS`] ids.  A reply above a floor is the first
//!   [`MAX_SYNC_BATCH`] unheld blocks of the `(height, id)`-ordered walk
//!   [`BlockTree::delta_above`].  A reply to the pending request that grew
//!   the tree is followed by the next request, so a batch capped partway
//!   through a height continues at that height (the leaves the follow-up
//!   names exclude what the batch brought).  A path deeper than the walk
//!   is sent from its top; its bottom block's parent is then a missing
//!   parent, asked for next.  A late reply's blocks are applied, but the
//!   request that superseded it owns the follow-up.
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
use btadt_types::{Block, BlockId, BlockTree, NodeIdx};

use crate::extract::ReplicaLog;
use crate::messages::{Msg, SyncRequest};

/// How many anti-entropy rounds keep running after mining stops, so that
/// deltas lost to the channel still reconcile before quiescence.
pub(crate) const SYNC_TAIL_ROUNDS: u64 = 12;
/// Anti-entropy requests look this far below the local height so that
/// competing same-height tips (ties the selection must see to be
/// deterministic across replicas) still propagate.
pub(crate) const SYNC_LOOKBACK: u64 = 3;

/// Maximum number of blocks in one [`Msg::Blocks`] reply above a floor.
/// Requesters detect a full batch and issue a continuation.
pub const MAX_SYNC_BATCH: usize = 16;

/// Maximum number of blocks a responder examines for one request, and so
/// the most blocks a reply on the paths to missing parents carries.
pub const MAX_REPLY_WALK: usize = 64;

/// Maximum number of ids a [`SyncRequest`] may name.  Requesters name at
/// most this many; a responder refuses a longer request unwalked.
pub const MAX_REQUEST_IDS: usize = 64;

/// Timer id used by the sync retry/timeout machinery.  Must stay distinct
/// from the mining replica's own timers (`MINE_TIMER = 1`,
/// `SYNC_TIMER = 2`, `RELEASE_TIMER = 3`, all in `pow.rs`).
pub const RETRY_TIMER: u64 = 9;

/// Base request timeout in simulated ticks (first attempt).  Doubled per
/// retry attempt.  One anti-entropy period of the shipped scenarios and
/// above their synchronous round trip (2 to 6 ticks): a request unanswered
/// when the next round is due is retried elsewhere, and its reply still
/// applies if it comes.  With one request in flight, a longer timeout
/// leaves anti-entropy waiting behind lost round trips.
pub const BASE_TIMEOUT: u64 = 8;

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
#[derive(Clone, Debug)]
pub struct PendingRequest {
    /// Peer the request was sent to.
    pub peer: usize,
    /// Simulated time of the (re)send.
    pub sent_at: SimTime,
    /// Zero-based attempt counter (0 = initial send).
    pub attempt: u32,
    /// The request as sent; its id, `(incarnation << 32) | seq`, is
    /// echoed by the responder.  A retry re-sends it under a new id.
    pub request: SyncRequest,
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
    /// Blocks received in sync replies (stale ones included).
    pub reply_blocks: u64,
    /// Reply blocks in neither the tree nor the orphan pool when they
    /// arrived.
    pub reply_blocks_new: u64,
    /// Requests this replica refused for naming more than
    /// [`MAX_REQUEST_IDS`] ids.
    pub oversized_requests: u64,
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

/// The reply to `request` from a replica holding `tree`: the blocks the
/// requester lacks, parents first, none of them in `exclude` (an
/// adversary's withheld blocks — a sync reply is a publication).  An
/// [oversized](SyncRequest::oversized) request gets an empty reply.
///
/// The requester holds the root and every ancestor of a named id the
/// responder knows.  The reply is the path down from each wanted block to
/// the first held one, then the first [`MAX_SYNC_BATCH`] unheld blocks
/// above the floor; each part examines at most [`MAX_REPLY_WALK`] blocks.
pub fn sync_reply(tree: &BlockTree, request: &SyncRequest, exclude: &[Block]) -> Vec<Block> {
    if request.oversized() {
        return Vec::new();
    }
    let idx = |ids: &[BlockId]| {
        ids.iter()
            .filter_map(|&id| tree.idx_of(id))
            .collect::<Vec<_>>()
    };
    let mut named = idx(&request.have);
    let held = |i: NodeIdx, named: &[NodeIdx]| named.iter().any(|&n| tree.is_ancestor_idx(i, n));
    let mut reply: Vec<&Block> = Vec::new();
    for mut cursor in idx(&request.want).into_iter().map(Some) {
        while let Some(i) = cursor.filter(|&i| i != NodeIdx::GENESIS && !held(i, &named)) {
            let block = tree.block_at(i);
            if reply.len() == MAX_REPLY_WALK || reply.iter().any(|r| r.id == block.id) {
                break;
            }
            reply.push(block);
            cursor = tree.parent_idx(i);
        }
    }
    // Only a named block above the floor can descend from a block there.
    named.retain(|&n| tree.block_at(n).height > request.above_height);
    let public = |b: &&Block| !exclude.iter().any(|w| w.id == b.id);
    let unsent = |b: &&Block| !reply.iter().any(|r| r.id == b.id);
    let unheld = |b: &&Block| tree.idx_of(b.id).is_some_and(|i| !held(i, &named));
    let walk = tree.delta_above(request.above_height).take(MAX_REPLY_WALK);
    let above = walk.filter(unheld).filter(unsent).filter(public);
    let above: Vec<&Block> = above.take(MAX_SYNC_BATCH).collect();
    reply.retain(public);
    reply.extend(above);
    reply.sort_unstable_by_key(|b| (b.height, b.id));
    reply.into_iter().cloned().collect()
}

/// The leaves of `tree` above `floor`, highest first (at most
/// [`MAX_REQUEST_IDS`]): with their ancestors, everything the tree holds
/// above the floor.
fn leaves_above(tree: &BlockTree, floor: u64) -> Vec<BlockId> {
    let leaf = |b: &&Block| {
        tree.idx_of(b.id)
            .is_some_and(|i| tree.children_idx(i).next().is_none())
    };
    let leaves = tree.delta_above(floor).filter(leaf).map(|b| b.id);
    let mut leaves: Vec<BlockId> = leaves.take(MAX_REQUEST_IDS).collect();
    leaves.reverse();
    leaves
}

/// A replica's durable core plus the orphan-repair / delta-sync state.
pub struct GossipSync {
    id: usize,
    /// The local tree, the orphan pool and — when the replica runs in
    /// [`RecoveryMode::Checkpoint`] — the durable store every applied
    /// block is persisted to.
    core: ReplicaCore,
    sync_round: u64,
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

    /// `true` while a request is pending and younger than the timeout of
    /// its attempt (of a first attempt if `first`).  Anti-entropy waits
    /// that long for a first attempt — its retry timer covers a lost round
    /// trip — but not out a retry's longer backoff.
    fn awaiting_reply(&self, now: SimTime, first: bool) -> bool {
        self.pending.as_ref().is_some_and(|p| {
            let attempt = if first { 0 } else { p.attempt };
            now.0 < p.sent_at.0 + self.timeout_for(p.request.request_id, attempt)
        })
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

    /// Sends `request` to `peer` under a fresh id, replacing any pending
    /// request, and arms the retry timer.
    fn send_request(
        &mut self,
        ctx: &mut Context<Msg>,
        peer: usize,
        mut request: SyncRequest,
        attempt: u32,
    ) {
        request.request_id = u64::from(self.incarnation) << 32 | u64::from(self.next_seq);
        self.next_seq += 1;
        self.stats.requests_sent += 1;
        ctx.send(peer, Msg::SyncRequest(request.clone()));
        ctx.set_timer(self.timeout_for(request.request_id, attempt), RETRY_TIMER);
        self.pending = Some(PendingRequest {
            peer,
            sent_at: ctx.now(),
            attempt,
            request,
        });
    }

    /// What to ask for now: what lies above `height − SYNC_LOOKBACK`,
    /// naming the leaves above it, and the missing parents of the pooled
    /// orphans, naming also a block locator — offsets 0, 1, 2, 4, 8, …
    /// down the longest chain, then the root.
    fn next_request(&self) -> SyncRequest {
        let tree = self.tree();
        let floor = tree.height().saturating_sub(SYNC_LOOKBACK);
        let mut have = leaves_above(tree, floor);
        let mut want = self.core.pool().missing_parents();
        want.truncate(MAX_REQUEST_IDS / 2);
        let mut cursor = tree
            .idx_of(tree.best_leaf_by_height(true))
            .filter(|_| !want.is_empty());
        let (mut offset, mut next) = (0u64, 0u64);
        while let Some(i) = cursor {
            cursor = tree.parent_idx(i);
            if offset == next || cursor.is_none() {
                have.push(tree.block_at(i).id);
                next = (2 * next).max(1);
            }
            offset += 1;
        }
        have.truncate(MAX_REQUEST_IDS - want.len());
        SyncRequest {
            request_id: 0,
            above_height: floor,
            have,
            want,
        }
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
        self.stats.batch_accepted += report.accepted as u64;
        self.stats.batch_orphaned += report.orphaned as u64;
        self.stats.batch_duplicates += report.duplicates as u64;
        report
    }

    /// A block from `peer` orphaned: ask `peer` — which linked it, so holds
    /// its parent — for the missing parents.  The orphan proves a gap now,
    /// so the request replaces any pending one.
    pub fn request_parents(&mut self, ctx: &mut Context<Msg>, peer: usize) {
        self.send_request(ctx, peer, self.next_request(), 0);
    }

    /// One periodic anti-entropy round: unless a request is awaiting its
    /// reply, ask a rotating, non-suspect peer for what it holds above our
    /// lookback floor and for the missing parents.
    pub fn anti_entropy(&mut self, ctx: &mut Context<Msg>) {
        if ctx.n() < 2 || self.awaiting_reply(ctx.now(), true) {
            return;
        }
        self.ensure_health(ctx.n());
        let start = (self.id + 1 + (self.sync_round as usize % (ctx.n() - 1))) % ctx.n();
        self.sync_round += 1;
        let peer = self.pick_healthy(start, ctx.n());
        self.send_request(ctx, peer, self.next_request(), 0);
    }

    /// Handles a [`RETRY_TIMER`] expiry.  Timers from superseded requests
    /// are recognised (the pending request is newer than the deadline they
    /// guard) and ignored.
    pub fn on_retry_timer(&mut self, ctx: &mut Context<Msg>) {
        if self.awaiting_reply(ctx.now(), false) {
            // A stale timer armed for an earlier, already-replaced request.
            return;
        }
        let Some(p) = self.pending.take() else {
            return;
        };
        self.stats.timeouts += 1;
        self.note_timeout(p.peer, ctx.n());
        if p.attempt + 1 >= MAX_ATTEMPTS {
            // Give up; the next periodic anti-entropy round starts over.
            return;
        }
        self.stats.retries += 1;
        let peer = self.pick_healthy((p.peer + 1) % ctx.n(), ctx.n());
        self.send_request(ctx, peer, p.request, p.attempt + 1);
    }

    /// Counts `request` as refused if it is
    /// [oversized](SyncRequest::oversized); [`sync_reply`] answers it empty.
    pub fn note_request(&mut self, request: &SyncRequest) {
        self.stats.oversized_requests += u64::from(request.oversized());
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
        match &self.pending {
            Some(p) if p.request.request_id == request_id => {
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

    /// Handles a [`Msg::Blocks`] reply from `from`: applies the blocks not
    /// yet held, each recorded as received in `log`.  Returns the highest
    /// new block's height (0 if none), or `None` for a reply to a previous
    /// incarnation, which is ignored.
    ///
    /// A reply to the pending request that grew the tree or the orphan
    /// pool is followed up by the next request to `from`: a batch capped
    /// partway through a height continues at that height, since the leaves
    /// the follow-up names exclude what the batch brought.  A late reply's
    /// blocks are applied, but the request that superseded it owns the
    /// follow-up.
    pub fn on_reply(
        &mut self,
        ctx: &mut Context<Msg>,
        from: usize,
        request_id: u64,
        blocks: Vec<Block>,
        log: &mut ReplicaLog,
    ) -> Option<u64> {
        self.stats.reply_blocks += blocks.len() as u64;
        let class = self.classify_response(request_id, blocks.len());
        if class == ResponseClass::Stale {
            return None;
        }
        let held = |b: &Block| self.contains(b.id) || self.core.pool().contains(b.id);
        let fresh: Vec<Block> = blocks.into_iter().filter(|b| !held(b)).collect();
        self.stats.reply_blocks_new += fresh.len() as u64;
        let at = ctx.now();
        let highest = fresh.iter().map(|b| b.height).max().unwrap_or(0);
        for block in &fresh {
            log.record_received(at, block.clone());
        }
        let grew = !fresh.is_empty() && {
            let report = self.apply_batch(at, fresh, log);
            report.accepted + report.orphaned > 0
        };
        if grew && class == ResponseClass::Fresh {
            self.send_request(ctx, from, self.next_request(), 0);
        }
        Some(highest)
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

    /// Wipes the volatile sync state (pending request, peer health) — what
    /// any flavour of crash loses besides the tree and the orphan pool.
    fn wipe_sync_state(&mut self) {
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
            peer: 1,
            sent_at: SimTime(0),
            attempt: 0,
            request: SyncRequest {
                request_id: 5,
                above_height: 0,
                have: Vec::new(),
                want: Vec::new(),
            },
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

    /// `n` blocks chained on `parent`, nonces from `nonce`, mined by `producer`.
    fn chain_on(parent: &Block, n: u64, producer: u32, nonce: u64) -> Vec<Block> {
        let mut tip = parent.clone();
        (0..n)
            .map(|k| {
                tip = BlockBuilder::new(&tip)
                    .producer(producer)
                    .nonce(nonce + k)
                    .build();
                tip.clone()
            })
            .collect()
    }

    fn holding(id: usize, blocks: &[Block]) -> (GossipSync, ReplicaLog) {
        let mut sync = GossipSync::new(id);
        let mut log = ReplicaLog::new();
        sync.apply_batch(SimTime(0), blocks.to_vec(), &mut log);
        assert!(sync.core.pool().is_empty());
        (sync, log)
    }

    /// The sync requests a context collected.
    fn requests(ctx: Context<Msg>) -> Vec<SyncRequest> {
        let actions = ctx.into_actions();
        let requests = actions.outgoing.into_iter().filter_map(|(_, m)| match m {
            Msg::SyncRequest(r) => Some(r),
            _ => None,
        });
        requests.collect()
    }

    #[test]
    fn an_anti_entropy_tick_inside_a_young_requests_timeout_sends_nothing() {
        let mut sync = GossipSync::new(0);
        let mut ctx = Context::new(0, 4, SimTime(0));
        sync.anti_entropy(&mut ctx);
        assert_eq!(requests(ctx).len(), 1);
        let timeout = sync.timeout_for(sync.pending.as_ref().unwrap().request.request_id, 0);
        for t in [1, timeout - 1] {
            let mut ctx = Context::new(0, 4, SimTime(t));
            sync.anti_entropy(&mut ctx);
            assert!(
                requests(ctx).is_empty(),
                "tick at {t} superseded a young request"
            );
        }
        let mut ctx = Context::new(0, 4, SimTime(timeout));
        sync.anti_entropy(&mut ctx);
        assert_eq!(
            requests(ctx).len(),
            1,
            "an expired request no longer holds the tick"
        );
        assert_eq!(sync.stats().requests_sent, 2);
    }

    #[test]
    fn a_late_reply_is_applied_but_sends_no_request() {
        let genesis = Block::genesis();
        let blocks = chain_on(&genesis, MAX_SYNC_BATCH as u64, 1, 1);
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let mut ctx = Context::new(0, 4, SimTime(0));
        sync.anti_entropy(&mut ctx);
        let asked = requests(ctx).remove(0).request_id;
        // A full batch answering an id that is not pending: were it fresh,
        // it would be continued.
        let mut ctx = Context::new(0, 4, SimTime(3));
        sync.on_reply(&mut ctx, 1, asked + 7, blocks.clone(), &mut log);
        assert!(requests(ctx).is_empty(), "a late reply owns no follow-up");
        assert!(
            sync.contains(blocks[MAX_SYNC_BATCH - 1].id),
            "its blocks applied"
        );
        assert_eq!(sync.stats().late_responses, 1);
        assert!(sync.pending.is_some(), "the pending request still waits");
        assert_eq!(sync.stats().reply_blocks_new, MAX_SYNC_BATCH as u64);
    }

    #[test]
    fn a_height_wider_than_a_batch_syncs_through_continuations_alone() {
        let genesis = Block::genesis();
        let width = 2 * MAX_SYNC_BATCH as u64 + 8;
        let siblings: Vec<Block> = (0..width)
            .map(|k| BlockBuilder::new(&genesis).producer(1).nonce(k).build())
            .collect();
        let on_top = chain_on(&siblings[3], 2, 1, 100);
        let (responder, _) = holding(1, &[siblings.clone(), on_top].concat());
        let mut sync = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let mut ctx = Context::new(0, 2, SimTime(0));
        sync.anti_entropy(&mut ctx);
        let mut request = requests(ctx).pop();
        let mut round_trips = 0;
        while let Some(asked) = request {
            round_trips += 1;
            let blocks = sync_reply(responder.tree(), &asked, &[]);
            let mut ctx = Context::new(0, 2, SimTime(round_trips));
            sync.on_reply(&mut ctx, 1, asked.request_id, blocks, &mut log);
            request = requests(ctx).pop();
        }
        assert_eq!(sync.tree().sorted_ids(), responder.tree().sorted_ids());
        // 40 siblings and 2 above: 16 + 16 + 10, then an empty reply.
        assert_eq!(round_trips, 4);
        assert_eq!(sync.stats().reply_blocks, width + 2, "no block sent twice");
    }

    #[test]
    fn an_orphan_forked_40_heights_down_is_repaired_in_one_round_trip() {
        let genesis = Block::genesis();
        let shared = chain_on(&genesis, 60, 0, 1);
        let ours = chain_on(&shared[59], 20, 0, 1_000);
        let theirs = chain_on(&shared[59], 41, 1, 2_000);
        let (mut sync, mut log) = holding(0, &[shared.clone(), ours].concat());
        let (peer, _) = holding(1, &[shared, theirs.clone()].concat());
        // Their tip floods in: its parent sits 40 heights above the fork.
        let orphan = theirs[40].clone();
        assert!(!sync.insert_with_orphans(SimTime(1), orphan.clone(), &mut log));
        let mut ctx = Context::new(0, 2, SimTime(1));
        sync.request_parents(&mut ctx, 1);
        let asked = requests(ctx).remove(0);
        assert_eq!(asked.want, vec![theirs[39].id]);
        assert!(!asked.oversized());
        let blocks = sync_reply(peer.tree(), &asked, &[]);
        let mut ctx = Context::new(0, 2, SimTime(2));
        sync.on_reply(&mut ctx, 1, asked.request_id, blocks.clone(), &mut log);
        assert!(
            sync.contains(orphan.id),
            "the orphan linked after one round trip"
        );
        assert!(sync.core.pool().is_empty());
        // The 40-block path down to the fork at height 60, on through the 12
        // shared blocks above the locator entry the peer knows (height 48:
        // offset 32 below our tip at 80), plus the orphan itself from above
        // the floor.
        assert_eq!(blocks.len(), 40 + 12 + 1);
        for request in requests(ctx) {
            assert!(
                request.want.is_empty(),
                "nothing left to repair: {request:?}"
            );
        }
    }

    #[test]
    fn an_oversized_request_gets_an_empty_reply_unwalked() {
        let genesis = Block::genesis();
        let (mut sync, _) = holding(0, &chain_on(&genesis, 5, 0, 1));
        let forged = SyncRequest {
            request_id: 1,
            above_height: 0,
            have: (0..10_000).map(BlockId).collect(),
            want: Vec::new(),
        };
        sync.note_request(&forged);
        assert!(sync_reply(sync.tree(), &forged, &[]).is_empty());
        assert_eq!(sync.stats().oversized_requests, 1);
        let bounded = SyncRequest {
            have: forged.have[..MAX_REQUEST_IDS].to_vec(),
            ..forged
        };
        sync.note_request(&bounded);
        assert_eq!(sync_reply(sync.tree(), &bounded, &[]).len(), 5);
        assert_eq!(sync.stats().oversized_requests, 1);
    }

    #[test]
    fn a_forged_request_walks_no_more_than_the_reply_bound() {
        // A tall chain with one unheld side block halfway up.  Naming the
        // tip at floor 0 makes every block below it held: a walk over the
        // whole tree would find the side block, a bounded one stops first.
        let genesis = Block::genesis();
        let chain = chain_on(&genesis, 1_000, 0, 1);
        let side = BlockBuilder::new(&chain[499]).producer(9).nonce(1).build();
        let (responder, _) = holding(1, &[chain.clone(), vec![side.clone()]].concat());
        let tip = chain[999].id;
        let floor = SyncRequest {
            request_id: 1,
            above_height: 0,
            have: vec![tip],
            want: Vec::new(),
        };
        assert!(sync_reply(responder.tree(), &floor, &[]).is_empty());
        // Wanting the tip with a locator the responder does not know: the
        // path is walked down from the want for at most the bound, and its
        // top blocks are sent for the requester to pool.
        let path = SyncRequest {
            above_height: 1_000,
            have: vec![BlockId(7)],
            want: vec![tip],
            ..floor
        };
        let blocks = sync_reply(responder.tree(), &path, &[]);
        assert_eq!(blocks.len(), MAX_REPLY_WALK);
        assert_eq!(blocks.last().map(|b| b.id), Some(tip));
        assert_eq!(blocks[0].height, 1_000 - MAX_REPLY_WALK as u64 + 1);
    }
}
