//! Adversarial proof-of-work miners.
//!
//! The PoW family of Section 5 assumes miners flood every block they
//! produce; the scenario engine stresses the consistency criteria by
//! deploying miners that do not:
//!
//! * **selfish miners** ([`Strategy::Selfish`]) mine on a *private* branch
//!   and only publish it when the honest chain threatens to catch up
//!   (the Eyal–Sirer schedule, here with a lead-1 release rule).  Released
//!   private branches orphan honest work and deepen forks, attacking
//!   Strong Prefix;
//! * **withholding miners** ([`Strategy::Withhold`]) release each mined
//!   block only after a fixed delay, widening the window in which honest
//!   miners extend a stale tip — a tunable fork-pressure knob.
//!
//! Both are [`AdversarialMiner`]s sharing the honest replica's tree,
//! orphan-repair and delta-sync machinery; their *sync responses never leak
//! withheld blocks* (an adversary that answered `SyncRequest` with its
//! private branch would be publishing it).  The [`Miner`] enum packs honest
//! and adversarial replicas into the single process type the simulator
//! needs.
//!
//! Adversarial replicas log the blocks they create and apply (the
//! consistency criteria must see their appends), but record **no reads**:
//! criterion verdicts measure the history as observed by honest clients
//! under attack, not the adversary's private view.

use std::collections::HashSet;
use std::sync::Arc;

use btadt_netsim::{AdversaryMix, AdversaryRole, Context, Process, SimTime};
use btadt_oracle::{Cell, Tape};
use btadt_types::{Block, BlockId, BlockTree, Blockchain};

use crate::extract::ReplicaLog;
use crate::gossip::RecoveryMode;
use crate::gossip::{GossipSync, ResponseClass, MAX_SYNC_BATCH, RETRY_TIMER, SYNC_TAIL_ROUNDS};
use crate::messages::Msg;
use crate::pow::{PowConfig, PowReplica};

const MINE_TIMER: u64 = 1;
const SYNC_TIMER: u64 = 2;
const RELEASE_TIMER: u64 = 3;

/// The withholding schedule of an [`AdversarialMiner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Keep the private branch secret until the public chain is within one
    /// block of it, then release the whole branch.
    Selfish,
    /// Release each mined block `delay` ticks after mining it.
    Withhold {
        /// Ticks between mining a block and flooding it.
        delay: u64,
    },
}

/// A proof-of-work miner that withholds blocks according to a
/// [`Strategy`].
pub struct AdversarialMiner {
    id: usize,
    config: PowConfig,
    strategy: Strategy,
    tape: Tape,
    /// Local tree plus the shared orphan-repair / delta-sync machinery.
    sync: GossipSync,
    /// Own blocks not yet flooded, oldest first (the private branch for
    /// selfish miners, the release queue for withholding miners).
    withheld: Vec<Block>,
    withheld_ids: HashSet<BlockId>,
    /// Highest height among blocks known to be public (foreign blocks and
    /// own released ones).
    public_height: u64,
    next_tx: u64,
    /// Everything this replica did (reads excluded by design; see the
    /// module docs).
    pub log: ReplicaLog,
}

impl AdversarialMiner {
    /// Creates an adversarial miner.
    pub fn new(id: usize, config: PowConfig, strategy: Strategy) -> Self {
        let tape = Tape::new(config.seed, id as u64, config.success_probability);
        AdversarialMiner {
            id,
            config,
            strategy,
            tape,
            sync: GossipSync::new(id),
            withheld: Vec::new(),
            withheld_ids: HashSet::new(),
            public_height: 0,
            next_tx: 1,
            log: ReplicaLog::new(),
        }
    }

    /// The miner's local tree (private branch included).
    pub fn tree(&self) -> &BlockTree {
        self.sync.tree()
    }

    /// The chain the miner mines on (private branch included).
    pub fn selected(&self) -> Blockchain {
        self.config.selection.select(self.sync.tree())
    }

    /// The last block of that chain, without materialising it.
    pub fn tip(&self) -> &Block {
        let tree = self.sync.tree();
        tree.block_at(self.config.selection.select_tip(tree))
    }

    /// Blocks mined but not yet released.
    pub fn withheld(&self) -> &[Block] {
        &self.withheld
    }

    fn note_public(&mut self, height: u64) {
        self.public_height = self.public_height.max(height);
    }

    /// Floods the entire withheld branch, oldest first.
    fn release_all(&mut self, ctx: &mut Context<Msg>) {
        for block in std::mem::take(&mut self.withheld) {
            self.withheld_ids.remove(&block.id);
            self.note_public(block.height);
            ctx.broadcast(Msg::NewBlock(block));
        }
    }

    /// Selfish release rule: publish the private branch as soon as the
    /// public chain is within one block of its tip (lead ≤ 1), so honest
    /// blocks at the contested heights are orphaned by the longer private
    /// branch.
    fn maybe_release_selfish(&mut self, ctx: &mut Context<Msg>) {
        if let Some(tip) = self.withheld.last() {
            if self.public_height + 1 >= tip.height {
                self.release_all(ctx);
            }
        }
    }

    fn mine(&mut self, ctx: &mut Context<Msg>) {
        if self.tape.pop() != Cell::Token {
            return;
        }
        let parent = self.tip().clone();
        let block = crate::gossip::mint_block(self.id, ctx.n(), &mut self.next_tx, &parent);
        let at = ctx.now();
        self.log.record_created(at, block.clone());
        self.sync
            .insert_with_orphans(at, block.clone(), &mut self.log);
        self.withheld_ids.insert(block.id);
        self.withheld.push(block);
        match self.strategy {
            Strategy::Selfish => {
                // Mining extends the lead; nothing is released until the
                // public chain threatens it.
            }
            Strategy::Withhold { delay } => {
                ctx.set_timer(delay, RELEASE_TIMER);
            }
        }
    }
}

impl Process<Msg> for AdversarialMiner {
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
                    self.note_public(block.height);
                    if !self.sync.insert_with_orphans(at, block, &mut self.log) {
                        self.sync.request_delta_sync(ctx, from);
                    }
                    if self.strategy == Strategy::Selfish {
                        self.maybe_release_selfish(ctx);
                    }
                }
            }
            Msg::Blocks { request_id, blocks } => {
                if self.sync.classify_response(request_id, blocks.len()) == ResponseClass::Stale {
                    return;
                }
                let batch_len = blocks.len();
                let batch_max = blocks.iter().map(|b| b.height).max().unwrap_or(0);
                let fresh: Vec<Block> = blocks
                    .into_iter()
                    .filter(|b| !self.sync.contains(b.id))
                    .collect();
                for block in &fresh {
                    self.log.record_received(at, block.clone());
                    self.note_public(block.height);
                }
                self.sync.apply_batch(at, fresh, &mut self.log);
                if self.strategy == Strategy::Selfish {
                    self.maybe_release_selfish(ctx);
                }
                self.sync.after_blocks(ctx, from, batch_len, batch_max);
            }
            Msg::SyncRequest {
                request_id,
                above_height,
            } => {
                // Never leak the private branch: a sync response is a
                // publication.  The reply is still always sent (possibly
                // empty) so the requester can clear its pending request —
                // staying silent would out the adversary as unresponsive.
                let blocks = self
                    .sync
                    .tree()
                    .delta_above(above_height)
                    .filter(|b| !self.withheld_ids.contains(&b.id))
                    .take(MAX_SYNC_BATCH)
                    .cloned()
                    .collect();
                ctx.send(from, Msg::Blocks { request_id, blocks });
            }
            Msg::Propose { .. } | Msg::Vote { .. } => {}
        }
    }

    fn on_corrupted(&mut self, ctx: &mut Context<Msg>, from: usize) {
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
            MINE_TIMER if self.strategy == Strategy::Selfish => self.release_all(ctx),
            SYNC_TIMER => {
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
                self.withheld_ids.remove(&block.id);
                self.note_public(block.height);
                ctx.broadcast(Msg::NewBlock(block));
            }
            _ => {}
        }
    }

    fn on_rejoin(&mut self, ctx: &mut Context<Msg>) {
        // An adversary models a paused process, never a crash-recovery: it
        // keeps its private branch across churn windows, but still bumps
        // its incarnation so stale sync responses are recognised.
        self.sync.note_rejoin(RecoveryMode::Retain);
        self.on_start(ctx);
        // RELEASE_TIMERs armed before a churn window died with the old
        // incarnation; without re-arming, a withholding miner's pending
        // blocks would be stranded forever.  One timer per pending block,
        // spaced by the configured delay (fires on an already-drained queue
        // are no-ops thanks to the `!withheld.is_empty()` guard).
        if let Strategy::Withhold { delay } = self.strategy {
            for k in 0..self.withheld.len() as u64 {
                ctx.set_timer(delay * (k + 1), RELEASE_TIMER);
            }
        }
    }
}

/// An honest or adversarial PoW miner — the single process type a
/// heterogeneous mining simulation runs on.
pub enum Miner {
    /// An honest flooding replica.
    Honest(PowReplica),
    /// A withholding/selfish replica.
    Adversarial(AdversarialMiner),
}

impl Miner {
    /// The replica's local tree.
    pub fn tree(&self) -> &BlockTree {
        match self {
            Miner::Honest(r) => r.tree(),
            Miner::Adversarial(r) => r.tree(),
        }
    }

    /// The replica's selected chain.
    pub fn selected(&self) -> Blockchain {
        match self {
            Miner::Honest(r) => r.selected(),
            Miner::Adversarial(r) => r.selected(),
        }
    }

    /// The last block of the replica's selected chain.
    pub fn tip(&self) -> &Block {
        match self {
            Miner::Honest(r) => r.tip(),
            Miner::Adversarial(r) => r.tip(),
        }
    }

    /// The replica's log.
    pub fn log(&self) -> &ReplicaLog {
        match self {
            Miner::Honest(r) => &r.log,
            Miner::Adversarial(r) => &r.log,
        }
    }

    /// Whether the replica plays the honest protocol.
    pub fn is_honest(&self) -> bool {
        matches!(self, Miner::Honest(_))
    }

    /// Forces a read on honest replicas (adversaries record no reads; see
    /// the module docs).
    pub fn force_read(&mut self, at: SimTime) {
        if let Miner::Honest(r) = self {
            r.force_read(at);
        }
    }
}

impl Process<Msg> for Miner {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        match self {
            Miner::Honest(r) => r.on_start(ctx),
            Miner::Adversarial(r) => r.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
        match self {
            Miner::Honest(r) => r.on_message(ctx, from, msg),
            Miner::Adversarial(r) => r.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, timer_id: u64) {
        match self {
            Miner::Honest(r) => r.on_timer(ctx, timer_id),
            Miner::Adversarial(r) => r.on_timer(ctx, timer_id),
        }
    }

    fn on_rejoin(&mut self, ctx: &mut Context<Msg>) {
        match self {
            Miner::Honest(r) => r.on_rejoin(ctx),
            Miner::Adversarial(r) => r.on_rejoin(ctx),
        }
    }
}

/// Builds the miner population an [`AdversaryMix`] prescribes: honest
/// replicas at the low indices, selfish then withholding miners at the
/// high ones (the [`AdversaryMix::role_of`] convention).
pub fn build_miners(
    nodes: usize,
    mix: AdversaryMix,
    config: &PowConfig,
    withhold_delay: u64,
) -> Vec<Miner> {
    (0..nodes)
        .map(|i| match mix.role_of(i, nodes) {
            AdversaryRole::Honest => Miner::Honest(PowReplica::new(i, config.clone())),
            AdversaryRole::Selfish => {
                Miner::Adversarial(AdversarialMiner::new(i, config.clone(), Strategy::Selfish))
            }
            AdversaryRole::Withholding => Miner::Adversarial(AdversarialMiner::new(
                i,
                config.clone(),
                Strategy::Withhold {
                    delay: withhold_delay,
                },
            )),
        })
        .collect()
}

/// A default PoW configuration for scenario cells: longest-chain selection
/// with the scenario's mining horizon and anti-entropy every 8 ticks.
pub fn scenario_pow_config(seed: u64, mine_until: u64) -> PowConfig {
    PowConfig {
        selection: Arc::new(btadt_types::LongestChain::new()),
        success_probability: 0.15,
        mine_interval: 1,
        mine_until,
        sync_interval: 8,
        seed,
        recovery: RecoveryMode::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_netsim::{FailurePlan, SimConfig, Simulator};
    use btadt_types::{BlockBuilder, LongestChain};

    fn certain_config(seed: u64) -> PowConfig {
        PowConfig {
            selection: Arc::new(LongestChain::new()),
            success_probability: 1.0,
            mine_interval: 1,
            mine_until: 100,
            sync_interval: 0,
            seed,
            recovery: RecoveryMode::default(),
        }
    }

    #[test]
    fn selfish_miner_withholds_mined_blocks() {
        let mut miner = AdversarialMiner::new(0, certain_config(1), Strategy::Selfish);
        let mut ctx = Context::new(0, 4, SimTime(1));
        miner.mine(&mut ctx);
        let actions = ctx.into_actions();
        assert!(
            actions.outgoing.is_empty(),
            "a selfish miner floods nothing on success"
        );
        assert_eq!(miner.withheld().len(), 1);
        assert_eq!(miner.log.created.len(), 1);
        assert_eq!(miner.tree().len(), 2, "the private block is in its tree");
    }

    #[test]
    fn sync_responses_never_leak_withheld_blocks() {
        let mut miner = AdversarialMiner::new(0, certain_config(2), Strategy::Selfish);
        let mut ctx = Context::new(0, 4, SimTime(1));
        miner.mine(&mut ctx);
        miner.mine(&mut ctx);
        drop(ctx);
        assert_eq!(miner.withheld().len(), 2);

        let mut ctx = Context::new(0, 4, SimTime(2));
        miner.on_message(
            &mut ctx,
            1,
            Msg::SyncRequest {
                request_id: 7,
                above_height: 0,
            },
        );
        let actions = ctx.into_actions();
        assert_eq!(actions.outgoing.len(), 1, "responders always reply");
        match &actions.outgoing[0].1 {
            Msg::Blocks { request_id, blocks } => {
                assert_eq!(*request_id, 7, "the reply echoes the request id");
                assert!(
                    blocks.is_empty(),
                    "the only blocks above genesis are withheld, so the batch is empty"
                );
            }
            other => panic!("expected a Blocks reply, got {other:?}"),
        }
    }

    #[test]
    fn a_capped_reply_filters_withheld_blocks_before_the_cap() {
        // Private blocks at heights 1..=3 interleave with public ones in
        // `(height, id)` order; filtering after the cap would send fewer
        // than a full batch although enough public blocks exist.
        let mut miner =
            AdversarialMiner::new(0, certain_config(5), Strategy::Withhold { delay: 1_000 });
        let mut ctx = Context::new(0, 4, SimTime(1));
        for _ in 0..3 {
            miner.mine(&mut ctx);
        }
        drop(ctx);
        let mut parent = Block::genesis();
        let mut public = Vec::new();
        for nonce in 0..MAX_SYNC_BATCH as u64 + 4 {
            let block = BlockBuilder::new(&parent).producer(1).nonce(nonce).build();
            let mut ctx = Context::new(0, 4, SimTime(2));
            miner.on_message(&mut ctx, 1, Msg::NewBlock(block.clone()));
            parent = block.clone();
            public.push(block);
        }
        let mut ctx = Context::new(0, 4, SimTime(3));
        miner.mine(&mut ctx);
        drop(ctx);
        let withheld: HashSet<BlockId> = miner.withheld().iter().map(|b| b.id).collect();
        assert_eq!(withheld.len(), 4);

        let mut ctx = Context::new(0, 4, SimTime(4));
        let request = Msg::SyncRequest {
            request_id: 8,
            above_height: 0,
        };
        miner.on_message(&mut ctx, 1, request);
        let actions = ctx.into_actions();
        let Msg::Blocks { blocks, .. } = &actions.outgoing[0].1 else {
            panic!("expected a Blocks reply, got {:?}", actions.outgoing[0].1);
        };
        assert!(blocks.iter().all(|b| !withheld.contains(&b.id)));
        assert_eq!(
            blocks.len(),
            MAX_SYNC_BATCH,
            "a full batch of public blocks"
        );
        assert_eq!(blocks.as_slice(), &public[..MAX_SYNC_BATCH]);
    }

    #[test]
    fn selfish_miner_releases_when_the_public_chain_catches_up() {
        let mut miner = AdversarialMiner::new(3, certain_config(3), Strategy::Selfish);
        // Mine a private lead of 2 (heights 1 and 2).
        let mut ctx = Context::new(3, 4, SimTime(1));
        miner.mine(&mut ctx);
        miner.mine(&mut ctx);
        assert!(ctx.into_actions().outgoing.is_empty());

        // An honest block at height 1 arrives: public height 1, private tip
        // at height 2 — lead 1, so the whole branch is published.
        let honest = BlockBuilder::new(miner.tree().genesis())
            .producer(0)
            .nonce(99)
            .build();
        let mut ctx = Context::new(3, 4, SimTime(5));
        miner.on_message(&mut ctx, 0, Msg::NewBlock(honest));
        let actions = ctx.into_actions();
        assert_eq!(
            actions.outgoing.len(),
            2,
            "both private blocks are flooded on release"
        );
        assert!(miner.withheld().is_empty());
    }

    #[test]
    fn withholding_miner_releases_on_its_timer() {
        let mut miner =
            AdversarialMiner::new(0, certain_config(4), Strategy::Withhold { delay: 10 });
        let mut ctx = Context::new(0, 3, SimTime(1));
        miner.mine(&mut ctx);
        let actions = ctx.into_actions();
        assert!(actions.outgoing.is_empty());
        assert_eq!(
            actions.timers,
            vec![(10, RELEASE_TIMER)],
            "mining schedules the delayed release"
        );

        let mut ctx = Context::new(0, 3, SimTime(11));
        miner.on_timer(&mut ctx, RELEASE_TIMER);
        let actions = ctx.into_actions();
        assert_eq!(actions.outgoing.len(), 1, "the block is released");
        assert!(miner.withheld().is_empty());
    }

    #[test]
    fn selfish_attack_forks_the_honest_chain_in_simulation() {
        let config = scenario_pow_config(21, 60);
        let mut miners = build_miners(
            5,
            AdversaryMix {
                selfish: 1,
                withholding: 0,
            },
            &config,
            0,
        );
        // Give the adversary outsized hash power so the attack bites.
        if let Miner::Adversarial(adv) = &mut miners[4] {
            *adv = AdversarialMiner::new(
                4,
                PowConfig {
                    success_probability: 0.5,
                    ..config.clone()
                },
                Strategy::Selfish,
            );
        }
        let sim_config = SimConfig::synchronous(21, 3, 800);
        let mut sim = Simulator::new(miners, sim_config, FailurePlan::none());
        sim.run();
        let (miners, _) = sim.into_parts();
        let adversary_blocks = miners[4].log().created.len();
        assert!(
            adversary_blocks > 3,
            "the adversary mined ({adversary_blocks})"
        );
        // Released private blocks must have reached honest trees.
        let honest_tree = miners[0].tree();
        let leaked = miners[4]
            .log()
            .created
            .iter()
            .filter(|(_, b)| honest_tree.contains(b.id))
            .count();
        assert!(leaked > 0, "released branches reach honest replicas");
        let max_fork = miners
            .iter()
            .map(|m| m.tree().max_fork_degree())
            .max()
            .unwrap();
        assert!(max_fork > 1, "the attack creates forks");
    }

    #[test]
    fn withholding_attack_converges_once_blocks_are_released() {
        let config = scenario_pow_config(22, 40);
        let miners = build_miners(
            4,
            AdversaryMix {
                selfish: 0,
                withholding: 1,
            },
            &config,
            12,
        );
        let sim_config = SimConfig::synchronous(22, 3, 800);
        let mut sim = Simulator::new(miners, sim_config, FailurePlan::none());
        sim.run();
        let (miners, _) = sim.into_parts();
        // Everything the withholder mined was eventually released: honest
        // trees contain its blocks.
        let withheld_left: usize = miners
            .iter()
            .filter_map(|m| match m {
                Miner::Adversarial(a) => Some(a.withheld().len()),
                Miner::Honest(_) => None,
            })
            .sum();
        assert_eq!(withheld_left, 0, "all delayed blocks were released");
        let tips: Vec<_> = miners
            .iter()
            .filter(|m| m.is_honest())
            .map(|m| m.selected().tip().id)
            .collect();
        assert!(tips.iter().all(|&t| t == tips[0]), "honest replicas agree");
    }

    #[test]
    fn churned_withholder_still_releases_its_pending_blocks() {
        // The churn window [20, 100) swallows the release timers of every
        // block the withholder mined in [8, 20) (delay 12 puts their expiry
        // inside the window); on_rejoin must re-arm them or the blocks are
        // stranded forever.
        use btadt_netsim::FailurePlan;
        let config = PowConfig {
            success_probability: 0.4,
            ..scenario_pow_config(23, 40)
        };
        let miners = build_miners(
            4,
            AdversaryMix {
                selfish: 0,
                withholding: 1,
            },
            &config,
            12,
        );
        let sim_config = SimConfig::synchronous(23, 3, 800);
        let plan = FailurePlan::none().with_churn(3, 20, 100);
        let mut sim = Simulator::new(miners, sim_config, plan);
        sim.run();
        let (miners, _) = sim.into_parts();
        let withholder_mined = miners[3].log().created.len();
        assert!(
            withholder_mined > 0,
            "the withholder mined before the window"
        );
        let withheld_left: usize = match &miners[3] {
            Miner::Adversarial(a) => a.withheld().len(),
            Miner::Honest(_) => unreachable!(),
        };
        assert_eq!(withheld_left, 0, "rejoin re-armed the stranded releases");
    }

    #[test]
    fn build_miners_assigns_roles_by_the_mix_convention() {
        let config = scenario_pow_config(1, 10);
        let miners = build_miners(
            6,
            AdversaryMix {
                selfish: 1,
                withholding: 2,
            },
            &config,
            5,
        );
        let honesty: Vec<bool> = miners.iter().map(|m| m.is_honest()).collect();
        assert_eq!(honesty, vec![true, true, true, false, false, false]);
    }
}
