//! Adversarial release policies for proof-of-work miners.
//!
//! The PoW family of Section 5 assumes miners flood every block they
//! produce; the scenario engine stresses the consistency criteria by
//! deploying miners that do not.  Such a miner is the ordinary
//! [`PowReplica`] built with [`PowReplica::adversarial`]: same tree,
//! orphan repair and delta sync, under a [`Strategy`] that decides when a
//! mined block is flooded:
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
//! Their *sync responses never leak withheld blocks* (an adversary that
//! answered `SyncRequest` with its private branch would be publishing it),
//! and a churn rejoin is always a pause ([`RecoveryMode::Retain`]), never a
//! crash.
//!
//! Adversarial replicas log the blocks they create and apply (the
//! consistency criteria must see their appends), but record **no reads**:
//! criterion verdicts measure the history as observed by honest clients
//! under attack, not the adversary's private view.

use std::sync::Arc;

use btadt_netsim::{AdversaryMix, AdversaryRole, Context, Process, SimTime};
use btadt_types::{Block, BlockTree, Blockchain};

use crate::extract::ReplicaLog;
use crate::gossip::{RecoveryMode, SyncStats};
use crate::messages::Msg;
use crate::pow::{PowConfig, PowReplica};

/// The withholding schedule of an adversarial [`PowReplica`].
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

/// A PoW miner tagged with its role in a heterogeneous mining simulation.
/// Both variants hold a [`PowReplica`]; the variant only labels the role.
pub enum Miner {
    /// An honest flooding replica.
    Honest(PowReplica),
    /// A withholding/selfish replica.
    Adversarial(PowReplica),
}

impl Miner {
    fn replica(&self) -> &PowReplica {
        match self {
            Miner::Honest(r) | Miner::Adversarial(r) => r,
        }
    }

    fn replica_mut(&mut self) -> &mut PowReplica {
        match self {
            Miner::Honest(r) | Miner::Adversarial(r) => r,
        }
    }

    /// The replica's local tree.
    pub fn tree(&self) -> &BlockTree {
        self.replica().tree()
    }

    /// The replica's selected chain.
    pub fn selected(&self) -> Blockchain {
        self.replica().selected()
    }

    /// The last block of the replica's selected chain.
    pub fn tip(&self) -> &Block {
        self.replica().tip()
    }

    /// The replica's log.
    pub fn log(&self) -> &ReplicaLog {
        &self.replica().log
    }

    /// The replica's sync counters.
    pub fn sync_stats(&self) -> &SyncStats {
        self.replica().sync_stats()
    }

    /// Whether the replica plays the honest protocol.
    pub fn is_honest(&self) -> bool {
        matches!(self, Miner::Honest(_))
    }

    /// Forces a read (a no-op on adversaries; see the module docs).
    pub fn force_read(&mut self, at: SimTime) {
        self.replica_mut().force_read(at);
    }
}

impl Process<Msg> for Miner {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.replica_mut().on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
        self.replica_mut().on_message(ctx, from, msg);
    }

    fn on_corrupted(&mut self, ctx: &mut Context<Msg>, from: usize) {
        self.replica_mut().on_corrupted(ctx, from);
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, timer_id: u64) {
        self.replica_mut().on_timer(ctx, timer_id);
    }

    fn on_rejoin(&mut self, ctx: &mut Context<Msg>) {
        self.replica_mut().on_rejoin(ctx);
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
        .map(|i| {
            let adversary = |s| Miner::Adversarial(PowReplica::adversarial(i, config.clone(), s));
            match mix.role_of(i, nodes) {
                AdversaryRole::Honest => Miner::Honest(PowReplica::new(i, config.clone())),
                AdversaryRole::Selfish => adversary(Strategy::Selfish),
                AdversaryRole::Withholding => adversary(Strategy::Withhold {
                    delay: withhold_delay,
                }),
            }
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
    use crate::gossip::MAX_SYNC_BATCH;
    use crate::messages::SyncRequest;
    use crate::pow::RELEASE_TIMER;
    use btadt_netsim::{FailurePlan, Scenario, SimConfig, Simulator};
    use btadt_types::{BlockBuilder, BlockId, LongestChain};
    use std::collections::HashSet;

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
        let mut miner = PowReplica::adversarial(0, certain_config(1), Strategy::Selfish);
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
        let mut miner = PowReplica::adversarial(0, certain_config(2), Strategy::Selfish);
        let mut ctx = Context::new(0, 4, SimTime(1));
        miner.mine(&mut ctx);
        miner.mine(&mut ctx);
        drop(ctx);
        assert_eq!(miner.withheld().len(), 2);

        let mut ctx = Context::new(0, 4, SimTime(2));
        miner.on_message(
            &mut ctx,
            1,
            Msg::SyncRequest(SyncRequest {
                request_id: 7,
                above_height: 0,
                have: vec![],
                want: vec![],
            }),
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
            PowReplica::adversarial(0, certain_config(5), Strategy::Withhold { delay: 1_000 });
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
        let request = Msg::SyncRequest(SyncRequest {
            request_id: 8,
            above_height: 0,
            have: vec![],
            want: vec![],
        });
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
        let mut miner = PowReplica::adversarial(3, certain_config(3), Strategy::Selfish);
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
            PowReplica::adversarial(0, certain_config(4), Strategy::Withhold { delay: 10 });
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
            *adv = PowReplica::adversarial(
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

    #[test]
    fn an_adversary_records_no_reads() {
        // The one branch that is not release policy: mining, receiving and
        // a forced read leave an adversary's reads empty, while the same
        // inputs make an honest replica record.
        let foreign = BlockBuilder::new(&Block::genesis())
            .producer(1)
            .nonce(77)
            .build();
        let drive = |mut replica: PowReplica| {
            let mut ctx = Context::new(0, 4, SimTime(1));
            replica.mine(&mut ctx);
            replica.on_message(&mut ctx, 1, Msg::NewBlock(foreign.clone()));
            replica.force_read(SimTime(2));
            replica
        };
        let adversary = drive(PowReplica::adversarial(
            0,
            certain_config(6),
            Strategy::Withhold { delay: 5 },
        ));
        assert_eq!(adversary.log.created.len(), 1);
        assert_eq!(adversary.log.received.len(), 1);
        assert!(
            adversary.log.reads().len() == 0,
            "adversaries record no reads"
        );
        let honest = drive(PowReplica::new(0, certain_config(6)));
        assert_eq!(
            honest.log.reads().len(),
            2,
            "the mined-block read and the forced one"
        );
    }

    #[test]
    fn honest_miners_count_every_corrupted_frame() {
        // `Miner` must forward `on_corrupted`: every frame the channel
        // garbles is rejected (and counted) by exactly one honest replica.
        let scenario = Scenario::new("corrupt", 4).with_corruption(0.2);
        let config = scenario_pow_config(9, scenario.duration);
        let miners = build_miners(4, AdversaryMix::none(), &config, 0);
        let mut sim = Simulator::new(miners, scenario.sim_config(9), scenario.failure_plan());
        sim.run();
        let (miners, trace) = sim.into_parts();
        assert!(trace.corrupted() > 0, "the channel must corrupt frames");
        let rejected: u64 = miners
            .iter()
            .map(|m| match m {
                Miner::Honest(r) => r.sync_stats().corrupt_rejected,
                Miner::Adversarial(_) => unreachable!("the mix has no adversaries"),
            })
            .sum();
        assert_eq!(rejected as usize, trace.corrupted());
    }
}
