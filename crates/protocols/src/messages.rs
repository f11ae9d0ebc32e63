//! Protocol messages.
//!
//! Both protocol families flood blocks; the committee family additionally
//! exchanges proposals and votes for its quorum commit.  Replicas that
//! detect a gap (an orphan block) repair it with the delta-sync pair
//! [`Msg::SyncRequest`] / [`Msg::Blocks`]: instead of gossiping whole
//! trees, a peer answers with the first
//! [`MAX_SYNC_BATCH`](crate::gossip::MAX_SYNC_BATCH) blocks above the
//! requested floor in `(height, id)` order — parents-first — taken from
//! the lazy per-height walk
//! [`BlockTree::delta_above`](btadt_types::BlockTree::delta_above), so a
//! reply costs the heights it spans, not the tree.

use btadt_types::{Block, BlockId};

/// A message exchanged between replicas.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A freshly produced (PoW) or committed (committee) block is flooded.
    NewBlock(Block),
    /// The round leader proposes a block to the committee.
    Propose {
        /// Consensus round.
        round: u64,
        /// Proposed block.
        block: Block,
    },
    /// A committee member votes for a proposal.
    Vote {
        /// Consensus round.
        round: u64,
        /// Identifier of the voted block.
        block: BlockId,
        /// The full block, piggybacked so late voters can commit directly.
        payload: Block,
    },
    /// Delta-sync request: "send me every block above this height".  Sent
    /// to the peer whose block arrived as an orphan.
    SyncRequest {
        /// Correlates the response with the request (and with the
        /// requester's incarnation — see
        /// [`GossipSync`](crate::gossip::GossipSync)-level docs).  `0` marks
        /// an unsolicited batch.
        request_id: u64,
        /// Height of the requester's tree.
        above_height: u64,
    },
    /// Delta-sync response: a batch of blocks sorted `(height, id)` so the
    /// receiver can insert them parents-first.  Responders always reply,
    /// even with an empty batch, so the requester can clear its pending
    /// request and score the peer as alive.
    Blocks {
        /// Echo of the triggering request's id (`0` for unsolicited blocks).
        request_id: u64,
        /// The delta batch, capped at
        /// [`MAX_SYNC_BATCH`](crate::gossip::MAX_SYNC_BATCH) blocks.
        blocks: Vec<Block>,
    },
}

impl Msg {
    /// The primary block carried by the message (the first of a delta
    /// batch), if any.
    pub fn block(&self) -> Option<&Block> {
        match self {
            Msg::NewBlock(b) => Some(b),
            Msg::Propose { block, .. } => Some(block),
            Msg::Vote { payload, .. } => Some(payload),
            Msg::SyncRequest { .. } => None,
            Msg::Blocks { blocks, .. } => blocks.first(),
        }
    }

    /// A short label for trace debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::NewBlock(_) => "new-block",
            Msg::Propose { .. } => "propose",
            Msg::Vote { .. } => "vote",
            Msg::SyncRequest { .. } => "sync-request",
            Msg::Blocks { .. } => "blocks",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    #[test]
    fn accessors() {
        let b = BlockBuilder::new(&Block::genesis()).nonce(1).build();
        let m = Msg::NewBlock(b.clone());
        assert_eq!(m.block().unwrap().id, b.id);
        assert_eq!(m.label(), "new-block");
        let p = Msg::Propose {
            round: 3,
            block: b.clone(),
        };
        assert_eq!(p.label(), "propose");
        assert_eq!(p.block().unwrap().id, b.id);
        let v = Msg::Vote {
            round: 3,
            block: b.id,
            payload: b.clone(),
        };
        assert_eq!(v.label(), "vote");
        assert_eq!(v.block().unwrap().id, b.id);
        let s = Msg::SyncRequest {
            request_id: 9,
            above_height: 4,
        };
        assert_eq!(s.label(), "sync-request");
        assert!(s.block().is_none());
        let d = Msg::Blocks {
            request_id: 9,
            blocks: vec![b.clone()],
        };
        assert_eq!(d.label(), "blocks");
        assert_eq!(d.block().unwrap().id, b.id);
        let empty = Msg::Blocks {
            request_id: 0,
            blocks: vec![],
        };
        assert!(empty.block().is_none());
    }
}
