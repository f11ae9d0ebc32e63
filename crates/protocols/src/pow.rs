//! The proof-of-work flooding family (Bitcoin, Ethereum — Sections 5.1/5.2).
//!
//! Every replica mines independently: on each mining tick it pops its
//! merit-parameterised tape (the Θ_P `getToken` abstraction) and, on
//! success, chains a block to the tip of its locally selected chain, applies
//! it and floods it.  `consumeToken` always succeeds (prodigal oracle), so
//! concurrent miners create forks which the selection function — longest
//! chain for Bitcoin, GHOST for Ethereum — later resolves.
//!
//! Reads are sampled whenever a replica's selected chain grows (blockchain
//! clients expose a monotone view of the chain) or, at an anti-entropy
//! round, when it switched to another tip of the same height, plus once at
//! the end of the run; the classification driver adds that final quiescent
//! read.  A read hands the log the replica's own tree and selected tip
//! ([`ReplicaLog::record_read`]): the log keeps each run of reads as prefix
//! views of one spine, so recording a read copies the blocks that changed
//! since the last one, not the whole chain.
//!
//! An adversarial replica ([`PowReplica::adversarial`]) is the same miner
//! under another *release policy* ([`Strategy`]); the one behaviour that is
//! not policy is that adversaries record no reads (see [`crate::adversary`]).

use std::sync::Arc;

use btadt_netsim::{Context, Process, SimTime};
use btadt_oracle::{Cell, Tape};
use btadt_store::{BlockStore, SimMedium, StoreConfig};
use btadt_types::{
    Block, BlockBuilder, BlockId, BlockTree, Blockchain, SelectionFunction, Transaction,
};

use crate::adversary::Strategy;
use crate::extract::ReplicaLog;
use crate::gossip::{
    sync_reply, GossipSync, RecoveryMode, SyncStats, RETRY_TIMER, SYNC_TAIL_ROUNDS,
};
use crate::messages::Msg;

const MINE_TIMER: u64 = 1;
const SYNC_TIMER: u64 = 2;
/// Fires once per block a [`Strategy::Withhold`] miner queued.
pub(crate) const RELEASE_TIMER: u64 = 3;

/// Configuration of a proof-of-work replica.
#[derive(Clone)]
pub struct PowConfig {
    /// Selection function (longest chain for Bitcoin, GHOST for Ethereum).
    pub selection: Arc<dyn SelectionFunction>,
    /// Per-tick probability of winning the puzzle (the merit-derived
    /// Bernoulli parameter of the replica's tape).
    pub success_probability: f64,
    /// Interval between mining attempts, in ticks.
    pub mine_interval: u64,
    /// Mining stops after this time; the run then quiesces so outstanding
    /// blocks flood everywhere.
    pub mine_until: u64,
    /// Interval between periodic anti-entropy rounds (each sends a
    /// delta-sync request to a rotating peer); `0` disables them and leaves
    /// only the orphan-triggered requests.
    pub sync_interval: u64,
    /// Seed for the replica's tape.
    pub seed: u64,
    /// What `on_rejoin` does with the replica's state after a churn window
    /// (see [`RecoveryMode`]).
    pub recovery: RecoveryMode,
}

/// A proof-of-work replica, honest or adversarial.
pub struct PowReplica {
    id: usize,
    config: PowConfig,
    /// `None` for an honest replica, which floods each block as it mines it.
    strategy: Option<Strategy>,
    tape: Tape,
    /// Local tree plus the shared orphan-repair / delta-sync machinery.
    sync: GossipSync,
    /// Own blocks not yet flooded, oldest first (a selfish miner's private
    /// branch, a withholding one's release queue; empty when honest).
    withheld: Vec<Block>,
    /// Highest height among blocks known to be public (foreign blocks and
    /// own released ones).
    public_height: u64,
    /// Height and id of the tip of the last recorded read.
    last_read: (u64, BlockId),
    next_tx: u64,
    /// Everything this replica did (read by the classification driver).
    pub log: ReplicaLog,
}

impl PowReplica {
    /// Creates an honest replica.
    pub fn new(id: usize, config: PowConfig) -> Self {
        Self::with_strategy(id, config, None)
    }

    /// Creates a replica that withholds the blocks it mines according to
    /// `strategy`.  It ignores `config.recovery`: a rejoin always keeps its
    /// state ([`RecoveryMode::Retain`]) and no durable store is attached.
    pub fn adversarial(id: usize, config: PowConfig, strategy: Strategy) -> Self {
        Self::with_strategy(id, config, Some(strategy))
    }

    fn with_strategy(id: usize, config: PowConfig, strategy: Option<Strategy>) -> Self {
        let tape = Tape::new(config.seed, id as u64, config.success_probability);
        let mut replica = PowReplica {
            id,
            config,
            strategy,
            tape,
            sync: GossipSync::new(id),
            withheld: Vec::new(),
            public_height: 0,
            last_read: (0, Block::genesis().id),
            next_tx: 1,
            log: ReplicaLog::new(),
        };
        if replica.recovery() == RecoveryMode::Checkpoint {
            // Seal often enough that a mid-run crash finds most of the
            // history behind a committed checkpoint.
            let store_config = StoreConfig {
                chunk_capacity: 64,
                auto_checkpoint_every: 32,
            };
            let store = BlockStore::create(SimMedium::new(), store_config);
            replica.sync = GossipSync::new(id).with_durable_store(store);
        }
        replica
    }

    /// Blocks mined but not yet released (always empty when honest).
    pub fn withheld(&self) -> &[Block] {
        &self.withheld
    }

    /// What a rejoin does with the replica's state: an adversary models a
    /// paused process, never a crash-recovery, so it keeps its private
    /// branch across churn windows.
    fn recovery(&self) -> RecoveryMode {
        match self.strategy {
            None => self.config.recovery,
            Some(_) => RecoveryMode::Retain,
        }
    }

    /// The replica's current local BlockTree.
    pub fn tree(&self) -> &BlockTree {
        self.sync.tree()
    }

    /// Sync machinery counters (requests, retries, timeouts, recoveries).
    pub fn sync_stats(&self) -> &SyncStats {
        self.sync.stats()
    }

    /// Current incarnation (bumped on every churn rejoin).
    pub fn incarnation(&self) -> u32 {
        self.sync.incarnation()
    }

    /// The durable chunked store, when running in
    /// [`RecoveryMode::Checkpoint`].
    pub fn durable_store(&self) -> Option<&BlockStore> {
        self.sync.durable_store()
    }

    /// The chain currently selected by the replica.
    pub fn selected(&self) -> Blockchain {
        self.config.selection.select(self.sync.tree())
    }

    /// The last block of the selected chain — the block mining builds on —
    /// without materialising the chain.
    pub fn tip(&self) -> &Block {
        let tree = self.sync.tree();
        tree.block_at(self.config.selection.select_tip(tree))
    }

    /// Records a read if the selected chain grew since the last one, or —
    /// when `settle` — if it switched to another tip of the same height.
    fn maybe_read(&mut self, at: SimTime, settle: bool) {
        if self.strategy.is_some() {
            return;
        }
        // The selected chain's length beyond genesis is its tip's height:
        // only a chain that grew is worth recording on every event.
        // A switch between tied tips is read at the next anti-entropy
        // round, so a replica that crashes after one does not leave its
        // last read on the losing side.
        let tree = self.sync.tree();
        let tip = self.config.selection.select_tip(tree);
        let read = (tree.block_at(tip).height, tree.block_at(tip).id);
        if read.0 > self.last_read.0
            || settle && read.0 == self.last_read.0 && read != self.last_read
        {
            self.last_read = read;
            self.log.record_read(at, tree, tip);
        }
    }

    /// Forces a read regardless of growth (used for the final quiescent
    /// read).  A no-op on an adversary, which records no reads.
    pub fn force_read(&mut self, at: SimTime) {
        if self.strategy.is_some() {
            return;
        }
        let tree = self.sync.tree();
        let tip = self.config.selection.select_tip(tree);
        self.last_read = (tree.block_at(tip).height, tree.block_at(tip).id);
        self.log.record_read(at, tree, tip);
    }

    /// One mining attempt: on a token, chains a single transfer onto the
    /// selected tip (its id and nonce derive from the miner id and a
    /// per-miner counter), applies it and hands it to the release policy.
    pub(crate) fn mine(&mut self, ctx: &mut Context<Msg>) {
        if self.tape.pop() != Cell::Token {
            return;
        }
        let id = self.id as u64;
        let tx = Transaction::transfer(
            id << 32 | self.next_tx,
            self.id as u32,
            ((self.id + 1) % ctx.n()) as u32,
            1,
        );
        self.next_tx += 1;
        let block = BlockBuilder::new(self.tip())
            .producer(self.id as u32)
            .nonce(id << 32 | self.next_tx)
            .push_tx(tx)
            .build();
        let at = ctx.now();
        self.log.record_created(at, block.clone());
        self.sync
            .insert_with_orphans(at, block.clone(), &mut self.log);
        self.maybe_read(at, false);
        match self.strategy {
            None => self.release(ctx, block),
            // Mining extends the lead; nothing is released until the
            // public chain threatens it.
            Some(Strategy::Selfish) => self.withheld.push(block),
            Some(Strategy::Withhold { delay }) => {
                self.withheld.push(block);
                ctx.set_timer(delay, RELEASE_TIMER);
            }
        }
    }

    /// Floods one of the replica's own blocks.
    fn release(&mut self, ctx: &mut Context<Msg>, block: Block) {
        self.public_height = self.public_height.max(block.height);
        ctx.broadcast(Msg::NewBlock(block));
    }

    /// Floods the entire withheld branch, oldest first.
    fn release_all(&mut self, ctx: &mut Context<Msg>) {
        for block in std::mem::take(&mut self.withheld) {
            self.release(ctx, block);
        }
    }

    /// Runs after foreign blocks arrive: an honest replica reads a grown
    /// chain; a selfish one publishes its private branch as soon as the
    /// public chain is within one block of its tip (lead ≤ 1), so honest
    /// blocks at the contested heights are orphaned by the longer branch.
    fn after_foreign_blocks(&mut self, ctx: &mut Context<Msg>) {
        self.maybe_read(ctx.now(), false);
        let private_tip = self.withheld.last().map_or(0, |tip| tip.height);
        if self.strategy == Some(Strategy::Selfish) && private_tip <= self.public_height + 1 {
            self.release_all(ctx); // a no-op when nothing is withheld
        }
    }
}

impl Process<Msg> for PowReplica {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.set_timer(self.config.mine_interval, MINE_TIMER);
        if self.config.sync_interval > 0 {
            ctx.set_timer(self.config.sync_interval, SYNC_TIMER);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
        let at = ctx.now();
        self.sync.note_alive(from, ctx.n());
        match msg {
            Msg::NewBlock(block) => {
                if !self.sync.contains(block.id) {
                    self.log.record_received(at, block.clone());
                    self.public_height = self.public_height.max(block.height);
                    if !self.sync.insert_with_orphans(at, block, &mut self.log) {
                        // The block orphaned: something upstream was lost or
                        // reordered — ask its sender for the missing parents.
                        self.sync.request_parents(ctx, from);
                    }
                    self.after_foreign_blocks(ctx);
                }
            }
            Msg::Blocks { request_id, blocks } => {
                let reply = self
                    .sync
                    .on_reply(ctx, from, request_id, blocks, &mut self.log);
                // `None`: addressed to a previous incarnation, ignored.
                if let Some(highest) = reply {
                    self.public_height = self.public_height.max(highest);
                    self.after_foreign_blocks(ctx);
                }
            }
            Msg::SyncRequest(request) => {
                // Always reply, even with an empty batch, so the requester
                // can clear its pending request; duplicate requests get
                // duplicate (idempotent) replies.  Withheld blocks never
                // leak: a sync reply is a publication.
                self.sync.note_request(&request);
                let blocks = sync_reply(self.sync.tree(), &request, &self.withheld);
                let request_id = request.request_id;
                ctx.send(from, Msg::Blocks { request_id, blocks });
            }
            Msg::Propose { .. } | Msg::Vote { .. } => {
                // Committee traffic is not part of the PoW family.
            }
        }
    }

    fn on_corrupted(&mut self, ctx: &mut Context<Msg>, from: usize) {
        // Checksum rejection: the payload is discarded, but a garbled frame
        // still proves the sender is alive.
        self.sync.note_corrupted(from, ctx.n());
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, timer_id: u64) {
        match timer_id {
            MINE_TIMER if ctx.now().0 <= self.config.mine_until => {
                self.mine(ctx);
                ctx.set_timer(self.config.mine_interval, MINE_TIMER);
            }
            // Mining is over; a selfish miner holding a lead it will never
            // extend publishes it rather than discard the work.
            MINE_TIMER if self.strategy == Some(Strategy::Selfish) => self.release_all(ctx),
            SYNC_TIMER => {
                self.maybe_read(ctx.now(), true);
                self.sync.anti_entropy(ctx);
                let sync_until =
                    self.config.mine_until + SYNC_TAIL_ROUNDS * self.config.sync_interval;
                if ctx.now().0 <= sync_until {
                    ctx.set_timer(self.config.sync_interval, SYNC_TIMER);
                }
            }
            RETRY_TIMER => self.sync.on_retry_timer(ctx),
            RELEASE_TIMER if !self.withheld.is_empty() => {
                let block = self.withheld.remove(0);
                self.release(ctx, block);
            }
            _ => {}
        }
    }

    fn on_rejoin(&mut self, ctx: &mut Context<Msg>) {
        let mode = self.recovery();
        self.sync.note_rejoin(mode);
        self.on_start(ctx);
        if mode != RecoveryMode::Retain {
            // A recovering process catches up immediately instead of
            // waiting for its next periodic anti-entropy tick.
            self.sync.anti_entropy(ctx);
        }
        // RELEASE_TIMERs armed before a churn window died with the old
        // incarnation: re-arm one per pending block, spaced by the delay,
        // or the queue is stranded (a fire on a drained queue is a no-op).
        if let Some(Strategy::Withhold { delay }) = self.strategy {
            for k in 0..self.withheld.len() as u64 {
                ctx.set_timer(delay * (k + 1), RELEASE_TIMER);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_netsim::{FailurePlan, SimConfig, Simulator};
    use btadt_types::LongestChain;

    fn config(seed: u64, p: f64) -> PowConfig {
        PowConfig {
            selection: Arc::new(LongestChain::new()),
            success_probability: p,
            mine_interval: 1,
            mine_until: 40,
            sync_interval: 8,
            seed,
            recovery: RecoveryMode::default(),
        }
    }

    fn run(n: usize, seed: u64, p: f64) -> Vec<PowReplica> {
        let replicas: Vec<PowReplica> = (0..n)
            .map(|i| PowReplica::new(i, config(seed, p)))
            .collect();
        let sim_config = SimConfig::synchronous(seed, 3, 400);
        let mut sim = Simulator::new(replicas, sim_config, FailurePlan::none());
        sim.run();
        let (mut replicas, _) = sim.into_parts();
        for r in replicas.iter_mut() {
            r.force_read(SimTime(400));
        }
        replicas
    }

    #[test]
    fn miners_produce_blocks_and_converge_after_quiescence() {
        let replicas = run(4, 3, 0.2);
        let total_created: usize = replicas.iter().map(|r| r.log.created.len()).sum();
        assert!(
            total_created > 5,
            "expected mining activity, got {total_created}"
        );
        // After quiescence every replica holds every block.
        let sizes: Vec<usize> = replicas.iter().map(|r| r.tree().len()).collect();
        assert!(
            sizes.iter().all(|&s| s == sizes[0]),
            "trees converged: {sizes:?}"
        );
        // And they select the same chain.
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        assert!(tips.iter().all(|&t| t == tips[0]), "selections converged");
    }

    #[test]
    fn concurrent_mining_creates_forks() {
        let replicas = run(6, 7, 0.3);
        let max_fork = replicas
            .iter()
            .map(|r| r.tree().max_fork_degree())
            .max()
            .unwrap();
        assert!(max_fork > 1, "expected forks under concurrent mining");
    }

    #[test]
    fn reads_are_locally_monotone() {
        let replicas = run(4, 11, 0.25);
        for r in &replicas {
            let scores: Vec<usize> = r.log.reads().map(|(_, c)| c.len()).collect();
            assert!(scores.windows(2).all(|w| w[1] >= w[0]), "{scores:?}");
            assert!(r.log.reads().len() > 0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(3, 5, 0.2);
        let b = run(3, 5, 0.2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tree().sorted_ids(), y.tree().sorted_ids());
        }
    }

    #[test]
    fn churned_replica_rejoins_and_syncs_via_delta_gossip() {
        // Replica 3 is offline during [10, 60) while the others keep mining.
        // On rejoin, `on_rejoin` restarts its timers; the next anti-entropy
        // round (and any orphan-triggered catch-up) pulls the missed blocks
        // as a delta, so by quiescence it selects the same chain.
        let replicas: Vec<PowReplica> = (0..4)
            .map(|i| PowReplica::new(i, config(17, 0.3)))
            .collect();
        let sim_config = SimConfig::synchronous(17, 3, 600);
        let plan = FailurePlan::none().with_churn(3, 10, 60);
        let mut sim = Simulator::new(replicas, sim_config, plan);
        sim.run();
        let (replicas, _) = sim.into_parts();
        let total_mined: usize = replicas.iter().map(|r| r.log.created.len()).sum();
        assert!(total_mined > 5, "expected mining activity");
        // The churned replica heard strictly less from the network first-hand…
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        let heights: Vec<_> = replicas.iter().map(|r| r.tree().height()).collect();
        // …but delta gossip restored agreement on the selected chain.
        assert!(
            tips.iter().all(|&t| t == tips[0]),
            "churned replica re-synced: tips {tips:?}, heights {heights:?}"
        );
        assert_eq!(
            heights[3], heights[0],
            "the rejoined tree caught up in height"
        );
    }

    #[test]
    fn delta_sync_repairs_losses_under_a_lossy_channel() {
        // A dropped NewBlock used to starve its receiver permanently (the
        // creator floods each block exactly once).  With delta sync, any
        // later block arriving as an orphan triggers a catch-up request, so
        // replicas converge despite the loss.
        let (replicas, trace) = run_lossy(13, 0.25);
        assert!(
            trace.dropped() > 0,
            "the channel must actually lose messages"
        );
        let total_mined: usize = replicas.iter().map(|r| r.log.created.len()).sum();
        assert!(total_mined > 5, "expected mining activity");
        // Side branches a replica never heard of are irrelevant; the
        // guarantee delta sync restores is agreement on the *selected*
        // chain: every replica recovers the globally longest chain even
        // though individual floods were dropped.
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        let heights: Vec<_> = replicas.iter().map(|r| r.tree().height()).collect();
        assert!(
            tips.iter().all(|&t| t == tips[0]),
            "delta sync reconciles lossy replicas: tips {tips:?}, heights {heights:?}"
        );
    }

    /// Four miners for 40 ticks on a synchronous channel that drops each
    /// message with probability `drop_probability`.
    fn run_lossy(seed: u64, drop_probability: f64) -> (Vec<PowReplica>, btadt_netsim::NetTrace) {
        use btadt_netsim::ChannelModel;
        let replicas: Vec<PowReplica> = (0..4)
            .map(|i| PowReplica::new(i, config(seed, 0.3)))
            .collect();
        let sim_config = SimConfig {
            seed,
            channel: ChannelModel::lossy(ChannelModel::synchronous(3), drop_probability),
            max_time: 800,
            max_events: 500_000,
        };
        let mut sim = Simulator::new(replicas, sim_config, FailurePlan::none());
        sim.run();
        sim.into_parts()
    }

    #[test]
    fn every_seed_of_a_25_percent_lossy_drill_converges() {
        // Update agreement under loss (Thms 4.6/4.7): with a quarter of all
        // messages dropped, delta sync still brings every replica to the
        // same selected tip before the anti-entropy tail ends, on every
        // seed of the drill.
        let split: Vec<u64> = (1..=60u64)
            .filter(|&seed| {
                let (replicas, _) = run_lossy(seed, 0.25);
                let tips: Vec<_> = replicas.iter().map(|r| r.tip().id).collect();
                tips.iter().any(|&t| t != tips[0])
            })
            .collect();
        assert!(split.is_empty(), "seeds ending with split tips: {split:?}");
    }

    /// Replica 3 mines alone behind a partition, then crashes before the
    /// partition heals: its partition-era blocks exist nowhere else in the
    /// network.  Run the identical schedule under each recovery mode.
    fn isolated_miner_run(recovery: RecoveryMode) -> Vec<PowReplica> {
        let mut cfg = config(21, 0.3);
        cfg.mine_until = 150;
        cfg.recovery = recovery;
        let replicas: Vec<PowReplica> = (0..4).map(|i| PowReplica::new(i, cfg.clone())).collect();
        let sim_config = SimConfig::synchronous(21, 3, 600);
        let plan = FailurePlan::none()
            .with_partition(vec![3], 80, 100)
            .with_churn(3, 100, 160);
        let mut sim = Simulator::new(replicas, sim_config, plan);
        sim.run();
        let (replicas, _) = sim.into_parts();
        replicas
    }

    #[test]
    fn checkpoint_recovery_preserves_self_mined_blocks_a_restart_loses() {
        // A crash never loses a self-mined block that nobody else holds:
        // the durable store brings it back through the checksum-verifying
        // recovery pipeline.
        let checkpointed = isolated_miner_run(RecoveryMode::Checkpoint);
        let restarted = isolated_miner_run(RecoveryMode::Restart);
        let mined_in_isolation = |r: &PowReplica| {
            r.log
                .created
                .iter()
                .filter(|(at, _)| at.0 >= 80 && at.0 < 100)
                .map(|(_, b)| b.id)
                .collect::<Vec<_>>()
        };
        let iso_c = mined_in_isolation(&checkpointed[3]);
        let iso_r = mined_in_isolation(&restarted[3]);
        assert!(
            !iso_c.is_empty() && !iso_r.is_empty(),
            "the isolated window must see mining activity"
        );
        assert!(
            iso_c.iter().all(|&id| checkpointed[3].tree().contains(id)),
            "checkpoint recovery restored every isolated self-mined block"
        );
        assert!(
            iso_r.iter().any(|&id| !restarted[3].tree().contains(id)),
            "restart without durable storage must lose the isolated blocks"
        );
        let store = checkpointed[3].durable_store().expect("store attached");
        assert!(
            iso_c.iter().all(|&id| store.contains(id)),
            "the recovered store still holds the isolated blocks"
        );
        assert!(checkpointed[3].sync_stats().replayed_blocks > 0);
        assert_eq!(checkpointed[3].sync_stats().rejoins, 1);
        // Both recoveries still converge with the network.
        for replicas in [&checkpointed, &restarted] {
            let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
            assert!(tips.iter().all(|&t| t == tips[0]), "tips {tips:?}");
        }
    }

    #[test]
    fn checkpoint_recovery_needs_strictly_fewer_sync_requests_than_full_resync() {
        let checkpointed = isolated_miner_run(RecoveryMode::Checkpoint);
        let restarted = isolated_miner_run(RecoveryMode::Restart);
        let c = checkpointed[3].sync_stats().requests_since_rejoin();
        let r = restarted[3].sync_stats().requests_since_rejoin();
        assert_eq!(checkpointed[3].sync_stats().rejoins, 1);
        assert!(
            c < r,
            "recovery must delta-sync only the gap: checkpoint {c} vs full {r} requests"
        );
    }

    #[test]
    fn crash_during_a_partition_window_then_rejoin_stays_consistent() {
        // Regression: the crash happens *inside* the partition window, so
        // deliveries and timers queued for the pre-crash incarnation are
        // still in flight when the process returns.  The simulator-level
        // incarnation stamps discard them, the gossip-level request-id
        // incarnation bits ignore stale sync responses, and applications
        // stay exactly-once.
        for recovery in [RecoveryMode::Retain, RecoveryMode::Checkpoint] {
            let mut cfg = config(29, 0.3);
            cfg.mine_until = 120;
            cfg.recovery = recovery;
            let replicas: Vec<PowReplica> =
                (0..4).map(|i| PowReplica::new(i, cfg.clone())).collect();
            let sim_config = SimConfig::synchronous(29, 3, 600);
            let plan = FailurePlan::none()
                .with_partition(vec![3], 20, 60)
                .with_churn(3, 30, 50);
            let mut sim = Simulator::new(replicas, sim_config, plan);
            sim.run();
            let (replicas, _) = sim.into_parts();
            for r in &replicas {
                // Exactly-once application: no block is ever applied twice.
                let mut ids: Vec<_> = r.log.applied.iter().map(|(_, b)| b.id).collect();
                let before = ids.len();
                ids.sort();
                ids.dedup();
                assert_eq!(before, ids.len(), "a block was applied twice");
            }
            let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
            assert!(
                tips.iter().all(|&t| t == tips[0]),
                "convergence under {recovery:?}: tips {tips:?}"
            );
            assert_eq!(replicas[3].incarnation(), 1);
        }
    }

    #[test]
    fn duplicated_sync_traffic_is_idempotent() {
        use btadt_netsim::ChannelModel;
        let replicas: Vec<PowReplica> = (0..4)
            .map(|i| PowReplica::new(i, config(31, 0.3)))
            .collect();
        let sim_config = SimConfig {
            seed: 31,
            channel: ChannelModel::faulty(ChannelModel::synchronous(3), 0.4, 0.2, 4, 0.0),
            max_time: 800,
            max_events: 500_000,
        };
        let mut sim = Simulator::new(replicas, sim_config, FailurePlan::none());
        sim.run();
        let (replicas, trace) = sim.into_parts();
        for r in &replicas {
            let mut ids: Vec<_> = r.log.applied.iter().map(|(_, b)| b.id).collect();
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(
                before,
                ids.len(),
                "duplicated deliveries must not double-apply"
            );
        }
        assert!(trace.delivered() > trace.sent(), "duplication happened");
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        assert!(tips.iter().all(|&t| t == tips[0]), "tips {tips:?}");
    }

    #[test]
    fn corrupted_frames_are_rejected_but_count_as_evidence_of_life() {
        use btadt_netsim::ChannelModel;
        let replicas: Vec<PowReplica> = (0..4)
            .map(|i| PowReplica::new(i, config(37, 0.3)))
            .collect();
        let sim_config = SimConfig {
            seed: 37,
            channel: ChannelModel::faulty(ChannelModel::synchronous(3), 0.0, 0.0, 1, 0.15),
            max_time: 800,
            max_events: 500_000,
        };
        let mut sim = Simulator::new(replicas, sim_config, FailurePlan::none());
        sim.run();
        let (replicas, trace) = sim.into_parts();
        assert!(trace.corrupted() > 0, "the channel must corrupt frames");
        let rejected: u64 = replicas
            .iter()
            .map(|r| r.sync_stats().corrupt_rejected)
            .sum();
        assert_eq!(rejected as usize, trace.corrupted());
        // Retry/anti-entropy repairs what corruption destroyed.
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        assert!(tips.iter().all(|&t| t == tips[0]), "tips {tips:?}");
    }

    #[test]
    fn empty_delta_anti_entropy_rounds_clear_pending_requests() {
        // No mining at all: every anti-entropy round yields an empty batch.
        // The always-reply rule means each request still gets a response, so
        // pending requests clear and no timeouts accumulate.
        let replicas: Vec<PowReplica> = (0..3)
            .map(|i| PowReplica::new(i, config(41, 0.0)))
            .collect();
        let sim_config = SimConfig::synchronous(41, 3, 300);
        let mut sim = Simulator::new(replicas, sim_config, FailurePlan::none());
        sim.run();
        let (replicas, _) = sim.into_parts();
        for r in &replicas {
            let s = r.sync_stats();
            assert!(s.requests_sent > 0, "anti-entropy rounds ran");
            assert_eq!(s.responses, s.requests_sent, "every request was answered");
            assert_eq!(s.empty_responses, s.responses, "all batches were empty");
            assert_eq!(s.timeouts, 0, "healthy peers never time out");
        }
    }

    #[test]
    fn a_crashed_peer_is_marked_suspect_and_skipped() {
        // Replica 2 is down for most of the run; its peers' requests to it
        // time out, drive its health score below the suspicion threshold and
        // anti-entropy routes around it.  Once it rejoins and speaks again,
        // evidence of life restores it.
        let mut cfg = config(43, 0.2);
        cfg.mine_until = 200;
        let replicas: Vec<PowReplica> = (0..3).map(|i| PowReplica::new(i, cfg.clone())).collect();
        let sim_config = SimConfig::synchronous(43, 3, 900);
        let plan = FailurePlan::none().with_churn(2, 10, 400);
        let mut sim = Simulator::new(replicas, sim_config, plan);
        sim.run();
        let (replicas, _) = sim.into_parts();
        let timeouts: u64 = replicas[..2].iter().map(|r| r.sync_stats().timeouts).sum();
        let retries: u64 = replicas[..2].iter().map(|r| r.sync_stats().retries).sum();
        assert!(timeouts > 0, "requests to the dead peer must time out");
        assert!(retries > 0, "timeouts must trigger retries");
        // After rejoin + tail rounds the survivors see it alive again.
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        assert!(tips.iter().all(|&t| t == tips[0]), "tips {tips:?}");
    }
}
