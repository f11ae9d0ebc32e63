//! Converting replica logs into the paper's history objects.
//!
//! Every protocol replica keeps a [`ReplicaLog`] of what it did: blocks it
//! created (`append` + `update` + `send`), blocks it received and applied
//! (`receive` + `update`) and the chains it read.  After the simulation the
//! logs of all replicas are merged into
//!
//! * a [`BtHistory`] — the concurrent history of
//!   `append`/`read` operations judged by the consistency criteria, and
//! * a [`MessageHistory`] — the
//!   send/receive/update event log judged by the Update-Agreement and LRC
//!   checkers.

use btadt_core::{
    BtHistory, BtOperation, BtResponse, MessageHistory, ReplicaEvent, ReplicaEventKind,
};
use btadt_history::{HistoryRecorder, ProcessId, Timestamp};
use btadt_netsim::SimTime;
use btadt_types::{Block, BlockTree, Blockchain, NodeIdx, GENESIS_ID};

/// What one replica recorded during a run.
///
/// Reads are recorded as *runs*: a run's spine is one chain the log owns
/// alone, and each read of the run is a length — the read's chain is the
/// spine's prefix of that length.  A read that extends the spine pushes
/// the new blocks onto it, a read of a prefix records a length only, and
/// only a branch switch copies: it opens a new run from the kept prefix.
/// So recording costs the blocks that changed, not the chain's height.
#[derive(Clone, Debug, Default)]
pub struct ReplicaLog {
    /// Blocks this replica created, with creation time.
    pub created: Vec<(SimTime, Block)>,
    /// Blocks this replica received from the network, with delivery time.
    pub received: Vec<(SimTime, Block)>,
    /// Blocks this replica applied to its local tree, with application time.
    pub applied: Vec<(SimTime, Block)>,
    /// The runs' spines, oldest first; only the last one still grows.
    spines: Vec<Blockchain>,
    /// Reads in order: time, spine and the read chain's length.
    reads: Vec<(SimTime, usize, usize)>,
}

impl ReplicaLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ReplicaLog::default()
    }

    /// Records a block creation.
    pub fn record_created(&mut self, at: SimTime, block: Block) {
        self.created.push((at, block));
    }

    /// Records a block reception.
    pub fn record_received(&mut self, at: SimTime, block: Block) {
        self.received.push((at, block));
    }

    /// Records a local tree update.
    pub fn record_applied(&mut self, at: SimTime, block: Block) {
        self.applied.push((at, block));
    }

    /// Records a read of `tree`'s chain ending at `tip` — the value
    /// `tree.chain_to_idx(tip)` — paying for the blocks that differ from
    /// the current spine.  It walks down from `tip` to the first block
    /// equal, in full, to the spine's block at that height; a tree whose
    /// root is not the spine's first block (a rerooted window) shares
    /// nothing and opens a new run.
    pub fn record_read(&mut self, at: SimTime, tree: &BlockTree, tip: NodeIdx) {
        let spine = self.spines.last().filter(|s| &s[0] == tree.genesis());
        let mut path = Vec::new();
        let mut cursor = Some(tip);
        let keep = loop {
            let Some(idx) = cursor else { break 0 };
            let block = tree.block_at(idx);
            if let Some(spine) = spine {
                let i = (block.height - spine[0].height) as usize;
                if spine.blocks().get(i) == Some(block) {
                    break i + 1;
                }
            }
            path.push(idx);
            cursor = tree.parent_idx(idx);
        };
        let len = keep + path.len();
        let blocks = path.iter().rev().map(|&idx| tree.block_at(idx).clone());
        match self.spines.pop() {
            // The tip is on the spine: a length is the whole record.
            Some(spine) if path.is_empty() => self.spines.push(spine),
            // The read extends the spine: push the new blocks in place.
            Some(spine) if keep == spine.len() => {
                self.spines.push(Blockchain::spliced(spine, keep, blocks).0);
            }
            // A branch switch: a new run copies the kept prefix.
            Some(spine) if keep > 0 => {
                let fresh = Blockchain::spliced(spine.clone(), keep, blocks).0;
                self.spines.extend([spine, fresh]);
            }
            old => {
                self.spines.extend(old);
                self.spines
                    .push(Blockchain::from_blocks_trusted(blocks.collect()));
            }
        }
        self.reads.push((at, self.spines.len() - 1, len));
    }

    /// The chains this replica read, with read time, in recording order:
    /// each an O(1) prefix view of its run's spine.
    pub fn reads(&self) -> impl ExactSizeIterator<Item = (SimTime, Blockchain)> + '_ {
        self.reads
            .iter()
            .map(|&(at, run, len)| (at, self.spines[run].truncated(len - 1)))
    }

    /// Blocks the recorded reads materialised: the summed length of the
    /// runs' spines (each read on its own would cost its whole length).
    pub fn spine_blocks(&self) -> usize {
        self.spines.iter().map(Blockchain::len).sum()
    }
}

/// Spreads simulator ticks so that invocation/response pairs fit between
/// consecutive network events.
fn ts(at: SimTime, offset: u64) -> Timestamp {
    Timestamp(at.0 * 10 + offset)
}

/// Merges per-replica logs into the BT history and the message history.
///
/// Block creations become successful `append` operations by their creator;
/// reads become `read` operations; creations/receptions/applications become
/// `send`/`receive`/`update` events.
pub fn build_histories(logs: &[ReplicaLog]) -> (BtHistory, MessageHistory) {
    let mut messages = MessageHistory::new();
    // Collect all BT operations as scripted records ordered by time.
    let mut recorder: HistoryRecorder<BtOperation, BtResponse> = HistoryRecorder::new();

    // Gather (time, process, op) triples first so they can be replayed in
    // global time order (sequence numbers must follow per-process order).
    enum Pending {
        Append(Block),
        Read(Blockchain),
    }
    let mut ops: Vec<(SimTime, usize, Pending)> = Vec::new();

    for (p, log) in logs.iter().enumerate() {
        for (at, block) in &log.created {
            ops.push((*at, p, Pending::Append(block.clone())));
            messages.record(ReplicaEvent {
                process: ProcessId(p as u32),
                kind: ReplicaEventKind::Send {
                    parent: block.parent.unwrap_or(GENESIS_ID),
                    block: block.clone(),
                },
                at: ts(*at, 1),
            });
        }
        for (at, block) in &log.received {
            messages.record(ReplicaEvent {
                process: ProcessId(p as u32),
                kind: ReplicaEventKind::Receive {
                    parent: block.parent.unwrap_or(GENESIS_ID),
                    block: block.clone(),
                },
                at: ts(*at, 2),
            });
        }
        for (at, block) in &log.applied {
            messages.record(ReplicaEvent {
                process: ProcessId(p as u32),
                kind: ReplicaEventKind::Update {
                    parent: block.parent.unwrap_or(GENESIS_ID),
                    block: block.clone(),
                },
                at: ts(*at, 3),
            });
        }
        for (at, chain) in log.reads() {
            ops.push((at, p, Pending::Read(chain)));
        }
    }

    ops.sort_by_key(|(at, p, _)| (*at, *p));
    for (at, p, op) in ops {
        match op {
            Pending::Append(block) => {
                recorder.scripted(
                    ProcessId(p as u32),
                    ts(at, 4),
                    ts(at, 5),
                    BtOperation::Append(block),
                    BtResponse::Appended(true),
                );
            }
            Pending::Read(chain) => {
                recorder.scripted(
                    ProcessId(p as u32),
                    ts(at, 6),
                    ts(at, 7),
                    BtOperation::Read,
                    BtResponse::Chain(chain),
                );
            }
        }
    }

    (recorder.into_history(), messages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_core::ops::BtHistoryExt;
    use btadt_core::UpdateAgreement;
    use btadt_types::BlockBuilder;

    #[test]
    fn build_histories_converts_logs_into_both_views() {
        let b = BlockBuilder::new(&Block::genesis())
            .nonce(1)
            .producer(0)
            .build();
        let mut tree = BlockTree::new();
        tree.insert(b.clone()).unwrap();
        let tip = tree.idx_of(b.id).unwrap();

        let mut creator = ReplicaLog::new();
        creator.record_created(SimTime(1), b.clone());
        creator.record_applied(SimTime(1), b.clone());
        creator.record_read(SimTime(2), &tree, tip);

        let mut follower = ReplicaLog::new();
        follower.record_received(SimTime(3), b.clone());
        follower.record_applied(SimTime(3), b.clone());
        follower.record_read(SimTime(4), &tree, tip);

        let (history, messages) = build_histories(&[creator, follower]);
        assert_eq!(history.appends().len(), 1);
        assert_eq!(history.reads().len(), 2);
        assert_eq!(messages.sends().count(), 1);
        assert_eq!(messages.receives().count(), 1);
        assert_eq!(messages.updates().count(), 2);

        // The creator's append precedes the follower's read in program order.
        let append = history.appends()[0].0;
        let late_read = history.reads()[1].0;
        assert!(history.program_order(append, late_read));

        // A fully delivered run satisfies the Update Agreement.
        assert!(UpdateAgreement::all_correct(&messages).holds(&messages));
    }

    #[test]
    fn reads_are_ordered_globally_by_time() {
        let tree = BlockTree::new();
        let root = tree.idx_of(GENESIS_ID).unwrap();
        let mut a = ReplicaLog::new();
        a.record_read(SimTime(5), &tree, root);
        let mut b = ReplicaLog::new();
        b.record_read(SimTime(2), &tree, root);
        let (history, _) = build_histories(&[a, b]);
        let reads = history.reads();
        assert_eq!(reads[0].0.process, ProcessId(1), "earlier read comes first");
        assert_eq!(reads[1].0.process, ProcessId(0));
    }

    #[test]
    fn empty_logs_produce_empty_histories() {
        let (history, messages) = build_histories(&[ReplicaLog::new(), ReplicaLog::new()]);
        assert!(history.is_empty());
        assert!(messages.is_empty());
    }
}
