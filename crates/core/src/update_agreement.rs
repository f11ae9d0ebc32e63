//! Update Agreement and Light Reliable Communication (Section 4.3).
//!
//! In the message-passing implementation of the BT-ADT each replica applies
//! `update_i(b_g, b_i)` operations to its local BlockTree; updates travel as
//! messages through `send_i(b_g, b)` and `receive_j(b_g, b)` events.  The
//! paper proves that the following properties are *necessary* for any
//! protocol whose histories satisfy BT Eventual Consistency (Theorem 4.6)
//! and, a fortiori, Strong Consistency (Corollary 4.6.1):
//!
//! * **R1** — every update applied at its creator is also sent;
//! * **R2** — every update applied at a remote process was received there
//!   first;
//! * **R3** — every update applied anywhere is eventually received by every
//!   (correct) process;
//!
//! and that the **Light Reliable Communication** (LRC) abstraction
//! (Definition 4.4) — Validity (a sender receives its own message) and
//! Agreement (a message received by any correct process is received by all)
//! — is likewise necessary (Theorem 4.7).
//!
//! This module provides the event log ([`MessageHistory`]) and executable
//! checkers for both property sets; the workspace's `tests/theorems.rs` and
//! `tests/figures.rs` drive them over runs with and without message loss.

use btadt_history::{ProcessId, Timestamp};
use btadt_types::{Block, BlockId};

/// The kind of a replica event.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicaEventKind {
    /// `send_i(b_g, b)`: the replica sent the update to the network.
    Send {
        /// Parent (predecessor) block of the update.
        parent: BlockId,
        /// The block carried by the update.
        block: Block,
    },
    /// `receive_i(b_g, b)`: the replica received the update.
    Receive {
        /// Parent (predecessor) block of the update.
        parent: BlockId,
        /// The block carried by the update.
        block: Block,
    },
    /// `update_i(b_g, b)`: the replica applied the update to its local tree.
    Update {
        /// Parent (predecessor) block of the update.
        parent: BlockId,
        /// The block carried by the update.
        block: Block,
    },
}

impl ReplicaEventKind {
    /// The block id carried by the event.
    pub fn block_id(&self) -> BlockId {
        match self {
            ReplicaEventKind::Send { block, .. }
            | ReplicaEventKind::Receive { block, .. }
            | ReplicaEventKind::Update { block, .. } => block.id,
        }
    }
}

/// One replica event with its process and global-clock timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaEvent {
    /// The process at which the event occurred.
    pub process: ProcessId,
    /// The event.
    pub kind: ReplicaEventKind,
    /// When the event occurred on the fictional global clock.
    pub at: Timestamp,
}

/// A log of send/receive/update events collected from a replicated run.
#[derive(Clone, Debug, Default)]
pub struct MessageHistory {
    events: Vec<ReplicaEvent>,
}

impl MessageHistory {
    /// Creates an empty log.
    pub fn new() -> Self {
        MessageHistory::default()
    }

    /// Records an event.
    pub fn record(&mut self, event: ReplicaEvent) {
        self.events.push(event);
    }

    /// All events in recording order.
    pub fn events(&self) -> &[ReplicaEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` iff the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All `update` events.
    pub fn updates(&self) -> impl Iterator<Item = &ReplicaEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ReplicaEventKind::Update { .. }))
    }

    /// All `send` events.
    pub fn sends(&self) -> impl Iterator<Item = &ReplicaEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ReplicaEventKind::Send { .. }))
    }

    /// All `receive` events.
    pub fn receives(&self) -> impl Iterator<Item = &ReplicaEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ReplicaEventKind::Receive { .. }))
    }

    /// The processes appearing in the log, sorted.
    pub fn processes(&self) -> Vec<ProcessId> {
        let mut ps: Vec<ProcessId> = self.events.iter().map(|e| e.process).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Whether process `p` sent the block.
    pub fn sent_by(&self, p: ProcessId, block: BlockId) -> bool {
        self.sends()
            .any(|e| e.process == p && e.kind.block_id() == block)
    }

    /// Whether process `p` received the block, and if so when (first time).
    pub fn received_at(&self, p: ProcessId, block: BlockId) -> Option<Timestamp> {
        self.receives()
            .filter(|e| e.process == p && e.kind.block_id() == block)
            .map(|e| e.at)
            .min()
    }

    /// The process that created a block: the first process to apply an update
    /// for it without receiving it first.
    pub fn creator_of(&self, block: BlockId) -> Option<ProcessId> {
        self.updates()
            .filter(|e| e.kind.block_id() == block)
            .filter(|e| {
                self.received_at(e.process, block)
                    .map(|recv| recv > e.at)
                    .unwrap_or(true)
            })
            .map(|e| e.process)
            .next()
    }
}

/// A description of a violation of a message-passing property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageViolation {
    /// The violated rule ("R1", "R2", "R3", "LRC-validity", "LRC-agreement").
    pub rule: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

/// Checks the Update Agreement properties R1–R3 (Definition 4.3) restricted
/// to a set of correct processes.
#[derive(Clone, Debug)]
pub struct UpdateAgreement {
    correct: Vec<ProcessId>,
}

impl UpdateAgreement {
    /// Creates the checker for the given set of correct processes.
    pub fn new(correct: Vec<ProcessId>) -> Self {
        UpdateAgreement { correct }
    }

    /// Creates the checker treating every process of the log as correct.
    pub fn all_correct(history: &MessageHistory) -> Self {
        UpdateAgreement {
            correct: history.processes(),
        }
    }

    fn is_correct(&self, p: ProcessId) -> bool {
        self.correct.contains(&p)
    }

    /// R1: every update applied at its *creator* has a matching send at that
    /// process.
    pub fn r1_violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut violations = Vec::new();
        for e in history.updates() {
            if !self.is_correct(e.process) {
                continue;
            }
            let block = e.kind.block_id();
            // Only the creator (a process that applied the update without a
            // prior receive) is required to send it.
            let received_before = history
                .received_at(e.process, block)
                .map(|t| t <= e.at)
                .unwrap_or(false);
            if !received_before && !history.sent_by(e.process, block) {
                violations.push(MessageViolation {
                    rule: "R1",
                    detail: format!(
                        "{} applied locally-created update for {} without sending it",
                        e.process, block
                    ),
                });
            }
        }
        violations
    }

    /// R2: every update applied at a process that did *not* create the block
    /// is preceded by a receive of that block at the same process.
    pub fn r2_violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut violations = Vec::new();
        for e in history.updates() {
            if !self.is_correct(e.process) {
                continue;
            }
            let block = e.kind.block_id();
            if history.creator_of(block) == Some(e.process) {
                continue;
            }
            match history.received_at(e.process, block) {
                Some(recv) if recv <= e.at => {}
                _ => violations.push(MessageViolation {
                    rule: "R2",
                    detail: format!(
                        "{} applied update for {} without receiving it first",
                        e.process, block
                    ),
                }),
            }
        }
        violations
    }

    /// R3: every update applied anywhere is received by *every* correct
    /// process (its creator counts as trivially having it).
    pub fn r3_violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut violations = Vec::new();
        let mut updated_blocks: Vec<BlockId> =
            history.updates().map(|e| e.kind.block_id()).collect();
        updated_blocks.sort_unstable();
        updated_blocks.dedup();

        for block in updated_blocks {
            let creator = history.creator_of(block);
            for &p in &self.correct {
                if Some(p) == creator {
                    continue;
                }
                if history.received_at(p, block).is_none() {
                    violations.push(MessageViolation {
                        rule: "R3",
                        detail: format!("{} never receives the update for {}", p, block),
                    });
                }
            }
        }
        violations
    }

    /// All violations of R1–R3.
    pub fn violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut v = self.r1_violations(history);
        v.extend(self.r2_violations(history));
        v.extend(self.r3_violations(history));
        v
    }

    /// Returns `true` iff the history satisfies the Update Agreement.
    pub fn holds(&self, history: &MessageHistory) -> bool {
        self.violations(history).is_empty()
    }
}

/// Checks the Light Reliable Communication abstraction (Definition 4.4).
#[derive(Clone, Debug)]
pub struct LightReliableCommunication {
    correct: Vec<ProcessId>,
}

impl LightReliableCommunication {
    /// Creates the checker for the given set of correct processes.
    pub fn new(correct: Vec<ProcessId>) -> Self {
        LightReliableCommunication { correct }
    }

    /// Creates the checker treating every process of the log as correct.
    pub fn all_correct(history: &MessageHistory) -> Self {
        LightReliableCommunication {
            correct: history.processes(),
        }
    }

    /// LRC Validity: if a correct process sends a message it eventually
    /// receives it itself.
    pub fn validity_violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut violations = Vec::new();
        for e in history.sends() {
            if !self.correct.contains(&e.process) {
                continue;
            }
            let block = e.kind.block_id();
            if history.received_at(e.process, block).is_none() {
                violations.push(MessageViolation {
                    rule: "LRC-validity",
                    detail: format!("{} sent {} but never receives it itself", e.process, block),
                });
            }
        }
        violations
    }

    /// LRC Agreement: if *any* correct process receives a message then every
    /// correct process receives it.
    pub fn agreement_violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut violations = Vec::new();
        let mut received_blocks: Vec<BlockId> = history
            .receives()
            .filter(|e| self.correct.contains(&e.process))
            .map(|e| e.kind.block_id())
            .collect();
        received_blocks.sort_unstable();
        received_blocks.dedup();

        for block in received_blocks {
            for &p in &self.correct {
                if history.received_at(p, block).is_none() {
                    violations.push(MessageViolation {
                        rule: "LRC-agreement",
                        detail: format!(
                            "{} was received by some correct process but never by {}",
                            block, p
                        ),
                    });
                }
            }
        }
        violations
    }

    /// All LRC violations.
    pub fn violations(&self, history: &MessageHistory) -> Vec<MessageViolation> {
        let mut v = self.validity_violations(history);
        v.extend(self.agreement_violations(history));
        v
    }

    /// Returns `true` iff the history satisfies LRC.
    pub fn holds(&self, history: &MessageHistory) -> bool {
        self.violations(history).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn block(nonce: u64) -> Block {
        BlockBuilder::new(&Block::genesis()).nonce(nonce).build()
    }

    fn ev(p: u32, at: u64, kind: ReplicaEventKind) -> ReplicaEvent {
        ReplicaEvent {
            process: ProcessId(p),
            kind,
            at: Timestamp(at),
        }
    }

    /// The history of Figure 13: i updates and sends, everyone (including i)
    /// receives, j and k update after receiving.
    fn figure_13_history() -> MessageHistory {
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            2,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            3,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            1,
            4,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            2,
            5,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            1,
            6,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(2, 7, ReplicaEventKind::Update { parent, block: b }));
        h
    }

    #[test]
    fn figure_13_history_satisfies_update_agreement_and_lrc() {
        let h = figure_13_history();
        assert_eq!(h.len(), 7);
        let ua = UpdateAgreement::all_correct(&h);
        assert!(ua.holds(&h), "{:?}", ua.violations(&h));
        let lrc = LightReliableCommunication::all_correct(&h);
        assert!(lrc.holds(&h), "{:?}", lrc.violations(&h));
    }

    #[test]
    fn r1_violation_update_without_send() {
        // Lemma 4.4's construction: i applies its own update but never sends
        // it, so no other process can ever receive it.
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(0, 1, ReplicaEventKind::Update { parent, block: b }));
        let ua = UpdateAgreement::new(vec![ProcessId(0), ProcessId(1)]);
        let v = ua.r1_violations(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R1");
        assert!(!ua.holds(&h));
    }

    #[test]
    fn r2_violation_update_without_receive() {
        // j applies i's update without having received it.
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            2,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            3,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            1,
            4,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(1, 5, ReplicaEventKind::Receive { parent, block: b })); // too late
        let ua = UpdateAgreement::all_correct(&h);
        let v = ua.r2_violations(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R2");
    }

    #[test]
    fn r3_violation_some_process_never_receives() {
        // Lemma 4.5's construction: i's update reaches j but never k.
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            2,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            3,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            1,
            4,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(1, 5, ReplicaEventKind::Update { parent, block: b })); // k (p2) never receives
        let ua = UpdateAgreement::new(vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        let v = ua.r3_violations(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R3");
        assert!(v[0].detail.contains("p2"));
    }

    #[test]
    fn lrc_validity_violation_sender_never_self_receives() {
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(1, 2, ReplicaEventKind::Receive { parent, block: b }));
        let lrc = LightReliableCommunication::new(vec![ProcessId(0), ProcessId(1)]);
        let v = lrc.validity_violations(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "LRC-validity");
    }

    #[test]
    fn lrc_agreement_violation_partial_delivery() {
        // Theorem 4.7's construction: some correct process receives the
        // message, another never does.
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            2,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(1, 3, ReplicaEventKind::Receive { parent, block: b }));
        let lrc = LightReliableCommunication::new(vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        let v = lrc.agreement_violations(&h);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "LRC-agreement");
        assert!(!lrc.holds(&h));
    }

    #[test]
    fn byzantine_processes_are_excluded_from_the_checks() {
        // p1 applies an update without receiving it, but p1 is Byzantine: the
        // checks restricted to correct processes {p0} still hold.
        let b = block(1);
        let parent = btadt_types::GENESIS_ID;
        let mut h = MessageHistory::new();
        h.record(ev(
            0,
            1,
            ReplicaEventKind::Send {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            2,
            ReplicaEventKind::Update {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(
            0,
            3,
            ReplicaEventKind::Receive {
                parent,
                block: b.clone(),
            },
        ));
        h.record(ev(1, 4, ReplicaEventKind::Update { parent, block: b }));
        let ua = UpdateAgreement::new(vec![ProcessId(0)]);
        assert!(ua.holds(&h));
    }

    #[test]
    fn creator_of_identifies_the_originating_process() {
        let h = figure_13_history();
        let block_id = h.updates().next().unwrap().kind.block_id();
        assert_eq!(h.creator_of(block_id), Some(ProcessId(0)));
        assert_eq!(h.creator_of(btadt_types::BlockId(0xdead)), None);
    }

    #[test]
    fn accessors_cover_send_receive_update() {
        let h = figure_13_history();
        assert_eq!(h.sends().count(), 1);
        assert_eq!(h.receives().count(), 3);
        assert_eq!(h.updates().count(), 3);
        assert_eq!(h.processes().len(), 3);
        assert!(!h.is_empty());
    }
}
