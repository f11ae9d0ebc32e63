//! The committee / quorum-commit family (Algorand, ByzCoin, PeerCensus,
//! Red Belly, Hyperledger Fabric — Sections 5.3–5.7).
//!
//! These systems realise the frugal oracle with `k = 1`: per height (round)
//! a single block is committed, through some Byzantine-tolerant agreement
//! among a committee.  The model proceeds in rounds:
//!
//! 1. the round's **leader** (chosen by a [`LeaderRule`]: round-robin over
//!    the committee for consortium systems, stake-weighted sortition for
//!    Algorand) proposes a block extending its selected chain;
//! 2. committee members **vote** for the first valid proposal of the round;
//! 3. any replica that observes a **quorum** (> 2/3 of the committee) of
//!    votes commits the block, applies it and moves to the next round.
//!
//! A round timeout advances the round when a leader is silent (crashed or
//! Byzantine-omitting), so the chain keeps growing with up to `f < m/3`
//! faulty committee members.  Forks never occur: at most one block gathers a
//! quorum per round — this is the `consumeToken`-with-`k = 1` behaviour.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use btadt_netsim::{Context, Process, SimTime};
use btadt_types::{
    Block, BlockBuilder, BlockId, BlockTree, Blockchain, LongestChain, SelectionFunction,
    Transaction,
};

use crate::extract::ReplicaLog;
use crate::gossip::sync_reply;
use crate::messages::Msg;

/// Round timers are encoded as `ROUND_TIMER_BASE + round` so that a timeout
/// armed for an old round is ignored once the round has advanced.
const ROUND_TIMER_BASE: u64 = 1 << 32;

/// How the round leader is selected.
#[derive(Clone, Debug)]
pub enum LeaderRule {
    /// Round-robin over the committee (Hyperledger ordering service,
    /// Red Belly, PeerCensus, ByzCoin key-block committee).
    RoundRobin,
    /// Stake-weighted pseudo-random sortition (Algorand): the leader of
    /// round `r` is drawn from the committee with probability proportional
    /// to its weight, deterministically from `(seed, r)` so that every
    /// replica computes the same leader.
    Sortition {
        /// Per-committee-member weights (stake).
        weights: Vec<f64>,
        /// Common sortition seed.
        seed: u64,
    },
}

impl LeaderRule {
    /// The leader of the given round, as an index into the committee.
    pub fn leader(&self, round: u64, committee_size: usize) -> usize {
        assert!(committee_size > 0);
        match self {
            LeaderRule::RoundRobin => (round as usize) % committee_size,
            LeaderRule::Sortition { weights, seed } => {
                let total: f64 = weights.iter().take(committee_size).sum();
                // Deterministic pseudo-random draw from (seed, round).
                let mut h = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                let draw = (h as f64 / u64::MAX as f64) * total;
                let mut acc = 0.0;
                for (i, w) in weights.iter().take(committee_size).enumerate() {
                    acc += w;
                    if draw <= acc {
                        return i;
                    }
                }
                committee_size - 1
            }
        }
    }
}

/// Configuration of a committee replica.
#[derive(Clone)]
pub struct CommitteeConfig {
    /// The committee members (process indices allowed to propose and vote).
    pub committee: Vec<usize>,
    /// Leader selection rule.
    pub leader_rule: LeaderRule,
    /// Number of rounds to run (one block per committed round).
    pub rounds: u64,
    /// Round timeout: if no commit happens within this many ticks the round
    /// is skipped.
    pub round_timeout: u64,
    /// Selection function (committee systems have a single chain, so the
    /// longest-chain rule is the trivial projection).
    pub selection: Arc<dyn SelectionFunction>,
}

impl CommitteeConfig {
    /// A sensible default configuration over the given committee.
    pub fn new(committee: Vec<usize>, rounds: u64) -> Self {
        CommitteeConfig {
            committee,
            leader_rule: LeaderRule::RoundRobin,
            rounds,
            round_timeout: 20,
            selection: Arc::new(LongestChain::new()),
        }
    }

    /// The quorum size: strictly more than two thirds of the committee.
    pub fn quorum(&self) -> usize {
        (2 * self.committee.len()) / 3 + 1
    }
}

/// A committee replica.
pub struct CommitteeReplica {
    id: usize,
    config: CommitteeConfig,
    tree: BlockTree,
    round: u64,
    committed_rounds: HashSet<u64>,
    votes: HashMap<(u64, BlockId), HashSet<usize>>,
    proposals: HashMap<(u64, BlockId), Block>,
    voted_rounds: HashSet<u64>,
    /// Rounds whose quorum was observed before their parent block arrived;
    /// committed as soon as the chain catches up.
    pending_commits: HashMap<u64, BlockId>,
    seen_blocks: HashSet<BlockId>,
    next_tx: u64,
    /// Everything this replica did (read by the classification driver).
    pub log: ReplicaLog,
}

impl CommitteeReplica {
    /// Creates a replica.
    pub fn new(id: usize, config: CommitteeConfig) -> Self {
        CommitteeReplica {
            id,
            config,
            tree: BlockTree::new(),
            round: 0,
            committed_rounds: HashSet::new(),
            votes: HashMap::new(),
            proposals: HashMap::new(),
            voted_rounds: HashSet::new(),
            pending_commits: HashMap::new(),
            seen_blocks: HashSet::new(),
            next_tx: 1,
            log: ReplicaLog::new(),
        }
    }

    /// The replica's current local BlockTree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The chain currently selected by the replica.
    pub fn selected(&self) -> Blockchain {
        self.config.selection.select(&self.tree)
    }

    /// The last block of the selected chain — the block a leader proposes
    /// on — without materialising the chain.
    pub fn tip(&self) -> &Block {
        self.tree
            .block_at(self.config.selection.select_tip(&self.tree))
    }

    /// The replica's current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Forces a read (used for the final quiescent read).
    pub fn force_read(&mut self, at: SimTime) {
        let tip = self.config.selection.select_tip(&self.tree);
        self.log.record_read(at, &self.tree, tip);
    }

    fn is_member(&self, p: usize) -> bool {
        self.config.committee.contains(&p)
    }

    fn leader_of(&self, round: u64) -> usize {
        let idx = self
            .config
            .leader_rule
            .leader(round, self.config.committee.len());
        self.config.committee[idx]
    }

    /// Logs the first sighting of `block`, whatever message carried it.
    fn note_received(&mut self, at: SimTime, block: &Block) {
        if self.seen_blocks.insert(block.id) {
            self.log.record_received(at, block.clone());
        }
    }

    /// Applies `block` and reads the grown chain; a block the tree refuses
    /// (already present, or its parent unknown) is ignored.
    fn apply(&mut self, at: SimTime, block: Block) {
        if self.tree.insert(block.clone()).is_ok() {
            self.log.record_applied(at, block);
            self.force_read(at);
        }
    }

    fn propose_if_leader(&mut self, ctx: &mut Context<Msg>) {
        if self.round >= self.config.rounds {
            return;
        }
        if self.leader_of(self.round) != self.id || !self.is_member(self.id) {
            return;
        }
        let parent = self.tip().clone();
        let tx = Transaction::transfer(
            (self.id as u64) << 40 | self.next_tx,
            self.id as u32,
            ((self.id + 1) % ctx.n().max(1)) as u32,
            1,
        );
        self.next_tx += 1;
        let block = BlockBuilder::new(&parent)
            .producer(self.id as u32)
            .nonce(self.round)
            .push_tx(tx)
            .build();
        let at = ctx.now();
        self.log.record_created(at, block.clone());
        self.proposals.insert((self.round, block.id), block.clone());
        ctx.broadcast(Msg::Propose {
            round: self.round,
            block: block.clone(),
        });
        // The leader votes for its own proposal.
        self.cast_vote(ctx, self.round, block);
    }

    fn cast_vote(&mut self, ctx: &mut Context<Msg>, round: u64, block: Block) {
        if !self.is_member(self.id) || self.voted_rounds.contains(&round) {
            return;
        }
        self.voted_rounds.insert(round);
        self.register_vote(ctx, round, self.id, block.clone());
        ctx.broadcast(Msg::Vote {
            round,
            block: block.id,
            payload: block,
        });
    }

    fn register_vote(&mut self, ctx: &mut Context<Msg>, round: u64, voter: usize, block: Block) {
        if !self.is_member(voter) {
            return; // only committee votes count
        }
        self.proposals
            .entry((round, block.id))
            .or_insert_with(|| block.clone());
        let voters = self.votes.entry((round, block.id)).or_default();
        voters.insert(voter);
        if voters.len() >= self.config.quorum() {
            self.commit(ctx, round, block.id);
        }
    }

    fn commit(&mut self, ctx: &mut Context<Msg>, round: u64, block_id: BlockId) {
        if self.committed_rounds.contains(&round) {
            return;
        }
        let Some(block) = self.proposals.get(&(round, block_id)).cloned() else {
            return;
        };
        // Commits must respect the chain order: a quorum observed for round
        // `r` before `r`'s parent block has been applied is deferred until
        // the chain catches up (otherwise a stale local tip would fork the
        // chain, breaking the frugal-k=1 semantics the family models).
        let parent_known = block.parent.map(|p| self.tree.contains(p)).unwrap_or(false);
        if !parent_known {
            self.pending_commits.insert(round, block_id);
            return;
        }
        self.committed_rounds.insert(round);
        self.pending_commits.remove(&round);
        self.apply(ctx.now(), block);
        if self.round <= round {
            self.round = round + 1;
            ctx.set_timer(self.config.round_timeout, ROUND_TIMER_BASE + self.round);
            self.propose_if_leader(ctx);
        }
        // The newly applied block may unblock deferred commits.
        let retry: Vec<(u64, BlockId)> =
            self.pending_commits.iter().map(|(r, b)| (*r, *b)).collect();
        for (r, b) in retry {
            self.commit(ctx, r, b);
        }
    }
}

impl Process<Msg> for CommitteeReplica {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        ctx.set_timer(self.config.round_timeout, ROUND_TIMER_BASE + self.round);
        self.propose_if_leader(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
        let at = ctx.now();
        match msg {
            Msg::Propose { round, block } => {
                self.note_received(at, &block);
                // Vote only for the legitimate leader's proposal of the
                // current (or future) round, and only if it extends a block
                // we know.
                if round >= self.round
                    && from == self.leader_of(round)
                    && block.parent.map(|p| self.tree.contains(p)).unwrap_or(false)
                {
                    self.proposals.insert((round, block.id), block.clone());
                    self.cast_vote(ctx, round, block);
                } else {
                    self.proposals.entry((round, block.id)).or_insert(block);
                }
            }
            Msg::Vote {
                round,
                block: _,
                payload,
            } => {
                self.note_received(at, &payload);
                self.register_vote(ctx, round, from, payload);
            }
            Msg::NewBlock(block) => {
                // Committed blocks flooded to observers outside the committee.
                self.note_received(at, &block);
                self.apply(at, block);
            }
            Msg::Blocks { blocks, .. } => {
                // Delta-sync response: committed blocks, parents-first.
                // Committee replicas never *send* SyncRequest today, so this
                // arm only fires in mixed fleets; each block is a NewBlock.
                for block in blocks {
                    self.note_received(at, &block);
                    self.apply(at, block);
                }
            }
            Msg::SyncRequest(request) => {
                // Always reply (even with an empty, possibly truncated
                // batch) so the requester's pending-request machinery can
                // settle; the echoed id correlates the response.
                let blocks = sync_reply(&self.tree, &request, &[]);
                let request_id = request.request_id;
                ctx.send(from, Msg::Blocks { request_id, blocks });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Msg>, timer_id: u64) {
        if timer_id < ROUND_TIMER_BASE {
            return;
        }
        let timed_out_round = timer_id - ROUND_TIMER_BASE;
        if self.round >= self.config.rounds {
            return;
        }
        // Round timeout: only a timeout armed for the *current* round skips
        // it (timeouts for already-advanced rounds are stale and ignored).
        if self.round == timed_out_round && !self.committed_rounds.contains(&self.round) {
            self.round += 1;
            self.propose_if_leader(ctx);
        }
        ctx.set_timer(self.config.round_timeout, ROUND_TIMER_BASE + self.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_netsim::{FailurePlan, SimConfig, Simulator};

    fn run(
        n: usize,
        committee: Vec<usize>,
        rounds: u64,
        seed: u64,
        failures: FailurePlan,
    ) -> Vec<CommitteeReplica> {
        let config = CommitteeConfig::new(committee, rounds);
        let replicas: Vec<CommitteeReplica> = (0..n)
            .map(|i| CommitteeReplica::new(i, config.clone()))
            .collect();
        let sim_config = SimConfig::synchronous(seed, 2, 5_000);
        let mut sim = Simulator::new(replicas, sim_config, failures);
        sim.run();
        let (mut replicas, _) = sim.into_parts();
        for r in replicas.iter_mut() {
            r.force_read(SimTime(5_000));
        }
        replicas
    }

    #[test]
    fn committee_commits_one_block_per_round_without_forks() {
        let replicas = run(4, vec![0, 1, 2, 3], 6, 1, FailurePlan::none());
        for r in &replicas {
            assert_eq!(r.tree().max_fork_degree(), 1, "no forks ever");
            assert_eq!(r.tree().height(), 6, "all rounds committed");
        }
        let tips: Vec<_> = replicas.iter().map(|r| r.selected().tip().id).collect();
        assert!(tips.iter().all(|&t| t == tips[0]));
    }

    #[test]
    fn non_member_observers_follow_the_committee() {
        // 6 replicas, committee of 4 (consortium à la Red Belly / Fabric).
        let replicas = run(6, vec![0, 1, 2, 3], 5, 2, FailurePlan::none());
        for r in &replicas {
            assert_eq!(
                r.tree().height(),
                5,
                "observers receive committed blocks via votes"
            );
        }
        // Only committee members created blocks.
        for r in &replicas[4..] {
            assert!(r.log.created.is_empty());
        }
    }

    #[test]
    fn crashed_leader_rounds_are_skipped_and_progress_continues() {
        // Process 0 crashes immediately; its leader rounds time out but the
        // chain still grows thanks to the round timeout.
        let replicas = run(
            4,
            vec![0, 1, 2, 3],
            6,
            3,
            FailurePlan::crashing(vec![(0, 1)]),
        );
        let heights: Vec<u64> = replicas[1..].iter().map(|r| r.tree().height()).collect();
        assert!(
            heights.iter().all(|&h| h >= 3),
            "progress despite the crashed leader: {heights:?}"
        );
        for r in &replicas[1..] {
            assert_eq!(r.tree().max_fork_degree(), 1);
        }
    }

    #[test]
    fn sortition_leader_rule_is_deterministic_and_weighted() {
        let rule = LeaderRule::Sortition {
            weights: vec![0.7, 0.1, 0.1, 0.1],
            seed: 99,
        };
        let a: Vec<usize> = (0..50).map(|r| rule.leader(r, 4)).collect();
        let b: Vec<usize> = (0..50).map(|r| rule.leader(r, 4)).collect();
        assert_eq!(a, b, "sortition is deterministic");
        let heavy = a.iter().filter(|&&l| l == 0).count();
        assert!(
            heavy > 20,
            "the heavy-stake member leads most rounds ({heavy}/50)"
        );

        let rr = LeaderRule::RoundRobin;
        assert_eq!(rr.leader(0, 3), 0);
        assert_eq!(rr.leader(4, 3), 1);
    }

    #[test]
    fn quorum_is_a_two_thirds_majority() {
        assert_eq!(CommitteeConfig::new(vec![0, 1, 2, 3], 1).quorum(), 3);
        assert_eq!(CommitteeConfig::new((0..7).collect(), 1).quorum(), 5);
        assert_eq!(CommitteeConfig::new(vec![0], 1).quorum(), 1);
    }
}
