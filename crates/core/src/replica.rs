//! Replicated BlockTree processes (Section 4.2).
//!
//! In the message-passing model the BlockTree is a shared object replicated
//! at every process: `bt_i` is the local copy at process `i`.  A locally
//! generated block is applied with `update_i(b_g, b_i)`, communicated with
//! `send_i(b_g, b_i)`, and applied remotely after a `receive_j(b_g, b_i)`.
//!
//! [`ReplicatedRun`] orchestrates a set of [`BtReplica`]s with *direct*
//! (simulator-free) message delivery under the caller's control — including
//! deliberately dropping or delaying deliveries — which is exactly what the
//! impossibility/necessity experiments need (Lemmas 4.4/4.5, Theorems
//! 4.6–4.8).  The richer network models (delays, partial synchrony, loss,
//! Byzantine behaviour) live in `btadt-netsim` and are exercised by the
//! protocol models in `btadt-protocols`.

use std::sync::Arc;

use btadt_history::{ProcessId, Timestamp};
use btadt_types::{Block, BlockBuilder, BlockTree, Blockchain, SelectionFunction, Transaction};

use crate::ops::{BtHistory, BtOperation, BtRecorder, BtResponse};
use crate::update_agreement::{MessageHistory, ReplicaEvent, ReplicaEventKind};

/// A single replica: a local copy of the BlockTree plus the selection
/// function shared by all replicas.
#[derive(Clone)]
pub struct BtReplica {
    id: ProcessId,
    tree: BlockTree,
    selection: Arc<dyn SelectionFunction>,
}

impl BtReplica {
    /// Creates a replica with an empty tree.
    pub fn new(id: ProcessId, selection: Arc<dyn SelectionFunction>) -> Self {
        BtReplica {
            id,
            tree: BlockTree::new(),
            selection,
        }
    }

    /// The replica's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The replica's local BlockTree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The chain currently selected by `f` on the local tree.
    pub fn selected(&self) -> Blockchain {
        self.selection.select(&self.tree)
    }

    /// The tip of the currently selected chain (the block new blocks will be
    /// chained to), without materialising the chain.
    pub fn tip(&self) -> Block {
        self.tree
            .block_at(self.selection.select_tip(&self.tree))
            .clone()
    }

    /// Applies an update to the local tree.  Returns `true` iff the block
    /// was inserted (unknown parents and duplicates are ignored, mirroring
    /// how real replicas buffer or drop such updates).
    pub fn apply_update(&mut self, block: &Block) -> bool {
        self.tree.insert(block.clone()).is_ok()
    }

    /// Whether the replica's tree already contains the block.
    pub fn contains(&self, block: &Block) -> bool {
        self.tree.contains(block.id)
    }
}

/// A coordinated run of several replicas with caller-controlled delivery.
pub struct ReplicatedRun {
    replicas: Vec<BtReplica>,
    recorder: BtRecorder,
    messages: MessageHistory,
    clock: u64,
    next_nonce: u64,
}

impl ReplicatedRun {
    /// Creates `n` replicas sharing the same selection function.
    pub fn new(n: usize, selection: Arc<dyn SelectionFunction>) -> Self {
        assert!(n > 0, "a replicated run needs at least one replica");
        ReplicatedRun {
            replicas: (0..n)
                .map(|i| BtReplica::new(ProcessId(i as u32), selection.clone()))
                .collect(),
            recorder: BtRecorder::new(),
            messages: MessageHistory::new(),
            clock: 0,
            next_nonce: 1,
        }
    }

    fn tick(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Returns `true` iff the run has no replicas (never true).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Immutable access to a replica.
    pub fn replica(&self, i: usize) -> &BtReplica {
        &self.replicas[i]
    }

    /// Creates a new block at replica `i`, chained to the tip of its locally
    /// selected chain, applies it locally (`update_i`) and records the
    /// corresponding `send_i` event unless `suppress_send` is set (used to
    /// construct the R1-violating histories of Lemma 4.4).
    pub fn create_block(
        &mut self,
        i: usize,
        payload: Vec<Transaction>,
        suppress_send: bool,
    ) -> Block {
        let parent = self.replicas[i].tip();
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let block = BlockBuilder::new(&parent)
            .producer(i as u32)
            .nonce(nonce)
            .payload(payload)
            .build();

        // Record the append operation on the global BT history.
        let op = self
            .recorder
            .invoke(ProcessId(i as u32), BtOperation::Append(block.clone()));
        self.recorder.respond(op, BtResponse::Appended(true));

        // update_i then (optionally) send_i.
        let at = self.tick();
        self.messages.record(ReplicaEvent {
            process: ProcessId(i as u32),
            kind: ReplicaEventKind::Update {
                parent: parent.id,
                block: block.clone(),
            },
            at,
        });
        self.replicas[i].apply_update(&block);

        if !suppress_send {
            let at = self.tick();
            self.messages.record(ReplicaEvent {
                process: ProcessId(i as u32),
                kind: ReplicaEventKind::Send {
                    parent: parent.id,
                    block: block.clone(),
                },
                at,
            });
        }
        block
    }

    /// Delivers a block to replica `j`: records `receive_j` then `update_j`
    /// and applies the update to `j`'s tree.
    pub fn deliver(&mut self, j: usize, block: &Block) {
        let parent = block.parent.expect("non-genesis blocks have parents");
        let at = self.tick();
        self.messages.record(ReplicaEvent {
            process: ProcessId(j as u32),
            kind: ReplicaEventKind::Receive {
                parent,
                block: block.clone(),
            },
            at,
        });
        let at = self.tick();
        self.messages.record(ReplicaEvent {
            process: ProcessId(j as u32),
            kind: ReplicaEventKind::Update {
                parent,
                block: block.clone(),
            },
            at,
        });
        self.replicas[j].apply_update(block);
    }

    /// Delivers a block to every replica except its creator and the members
    /// of `drop` (whose delivery is lost).  The creator self-delivers first,
    /// satisfying LRC Validity.
    pub fn broadcast(&mut self, creator: usize, block: &Block, drop: &[usize]) {
        // Self-delivery (LRC validity): the creator receives its own message.
        if !drop.contains(&creator) {
            let parent = block.parent.expect("non-genesis blocks have parents");
            let at = self.tick();
            self.messages.record(ReplicaEvent {
                process: ProcessId(creator as u32),
                kind: ReplicaEventKind::Receive {
                    parent,
                    block: block.clone(),
                },
                at,
            });
        }
        for j in 0..self.replicas.len() {
            if j == creator || drop.contains(&j) {
                continue;
            }
            self.deliver(j, block);
        }
    }

    /// A `read()` at replica `i`, recorded on the global history.
    pub fn read(&mut self, i: usize) -> Blockchain {
        let chain = self.replicas[i].selected();
        self.recorder.instantaneous(
            ProcessId(i as u32),
            BtOperation::Read,
            BtResponse::Chain(chain.clone()),
        );
        chain
    }

    /// Every replica performs one read (used as the quiescent final round of
    /// the experiments).
    pub fn read_all(&mut self) -> Vec<Blockchain> {
        (0..self.replicas.len()).map(|i| self.read(i)).collect()
    }

    /// The global BT history recorded so far.
    pub fn history(&self) -> &BtHistory {
        self.recorder.history()
    }

    /// The message-passing history recorded so far.
    pub fn messages(&self) -> &MessageHistory {
        &self.messages
    }

    /// Consumes the run, returning the BT history and the message history.
    pub fn into_parts(self) -> (BtHistory, MessageHistory) {
        (self.recorder.into_history(), self.messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use btadt_types::{LengthScore, LongestChain};

    use crate::criteria::{eventual_consistency, strong_consistency};
    use crate::update_agreement::{LightReliableCommunication, UpdateAgreement};
    use btadt_history::ConsistencyCriterion;
    use btadt_types::AlwaysValid;

    fn run(n: usize) -> ReplicatedRun {
        ReplicatedRun::new(n, Arc::new(LongestChain::new()))
    }

    #[test]
    fn replicas_start_with_empty_trees() {
        let r = run(3);
        assert_eq!(r.len(), 3);
        for i in 0..3 {
            assert!(r.replica(i).tree().is_empty());
            assert!(r.replica(i).selected().is_empty());
        }
    }

    #[test]
    fn create_and_broadcast_keeps_replicas_in_sync() {
        let mut r = run(3);
        for round in 0..5 {
            let creator = round % 3;
            let block = r.create_block(creator, vec![], false);
            r.broadcast(creator, &block, &[]);
        }
        let chains = r.read_all();
        assert!(chains.iter().all(|c| c == &chains[0]));
        assert_eq!(chains[0].height(), 5);
    }

    #[test]
    fn fully_delivered_run_satisfies_update_agreement_lrc_and_both_criteria() {
        let mut r = run(4);
        for round in 0..8 {
            let creator = round % 4;
            let block = r.create_block(creator, vec![], false);
            r.broadcast(creator, &block, &[]);
            r.read(creator);
        }
        r.read_all();
        let (history, messages) = r.into_parts();

        assert!(UpdateAgreement::all_correct(&messages).holds(&messages));
        assert!(LightReliableCommunication::all_correct(&messages).holds(&messages));

        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert!(sc.admits(&history), "{}", sc.check(&history));
        assert!(ec.admits(&history), "{}", ec.check(&history));
    }

    #[test]
    fn dropped_delivery_violates_r3_and_eventual_prefix() {
        // Theorem 4.7 in action: dropping the deliveries towards replica 2
        // breaks Update Agreement, and the resulting history violates the
        // Eventual Prefix property once both sides keep reading.
        let mut r = run(3);
        for _ in 0..6 {
            let block = r.create_block(0, vec![], false);
            r.broadcast(0, &block, &[2]); // replica 2 never hears about it
            r.read(0);
            r.read(2);
        }
        r.read_all();
        let (history, messages) = r.into_parts();

        // Replica 2 never appears in the message log, so the correct set is
        // given explicitly (all three replicas are correct, one is starved).
        let correct: Vec<_> = (0..3).map(ProcessId).collect();
        let ua = UpdateAgreement::new(correct.clone());
        assert!(!ua.holds(&messages));
        assert!(ua.violations(&messages).iter().all(|v| v.rule == "R3"));
        assert!(!LightReliableCommunication::new(correct).holds(&messages));

        let ec = eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert!(!ec.admits(&history));
    }

    #[test]
    fn suppressed_send_violates_r1() {
        let mut r = run(2);
        let _block = r.create_block(0, vec![], true); // update without send
        r.read_all();
        let (_, messages) = r.into_parts();
        let ua = UpdateAgreement::new(vec![ProcessId(0), ProcessId(1)]);
        let v = ua.violations(&messages);
        assert!(v.iter().any(|v| v.rule == "R1"));
        assert!(v.iter().any(|v| v.rule == "R3"));
    }

    #[test]
    fn concurrent_creations_produce_a_fork_and_break_strong_prefix() {
        // Theorem 4.8's scenario: two replicas append concurrently on the
        // same parent; reads taken before cross-delivery diverge.
        let mut r = run(2);
        let b0 = r.create_block(0, vec![], false);
        let b1 = r.create_block(1, vec![], false);
        // Reads before the deliveries: each replica sees only its own block.
        r.read(0);
        r.read(1);
        // Deliveries then happen (LRC is respected)...
        r.broadcast(0, &b0, &[]);
        r.broadcast(1, &b1, &[]);
        r.read_all();
        let (history, messages) = r.into_parts();

        assert!(UpdateAgreement::all_correct(&messages).holds(&messages));
        let sc = strong_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid));
        assert!(!sc.admits(&history), "forks must break Strong Prefix");
    }

    #[test]
    fn replica_ignores_updates_with_unknown_parent() {
        let mut a = BtReplica::new(ProcessId(0), Arc::new(LongestChain::new()));
        let phantom_parent = BlockBuilder::new(&Block::genesis()).nonce(77).build();
        let orphan = BlockBuilder::new(&phantom_parent).nonce(78).build();
        assert!(!a.apply_update(&orphan));
        assert!(a.apply_update(&phantom_parent));
        assert!(
            a.apply_update(&orphan),
            "after the parent arrives it applies"
        );
        assert!(a.contains(&orphan));
        assert_eq!(a.id(), ProcessId(0));
    }
}
