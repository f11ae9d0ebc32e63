//! Protocol messages.
//!
//! Both protocol families flood blocks; the committee family additionally
//! exchanges proposals and votes for its quorum commit.  Replicas repair
//! gaps with the delta-sync pair [`Msg::SyncRequest`] / [`Msg::Blocks`]: a
//! request says what the requester holds, so the reply carries only what
//! it lacks — see [`SyncRequest`] and
//! [`sync_reply`](crate::gossip::sync_reply).

use btadt_types::{Block, BlockId};

use crate::gossip::MAX_REQUEST_IDS;

/// A delta-sync request.  It names what the requester holds, so the
/// responder sends only blocks the requester lacks.  The requester holds
/// every ancestor of a named id, so a block the responder finds below a
/// named id it knows is not sent.  The reply has two parts:
///
/// * **Above the floor**: the responder's blocks above `above_height` that
///   are not ancestors of a named id, in `(height, id)` order.  `have`
///   starts with the requester's leaves above the floor, which with their
///   ancestors are everything it holds there.
/// * **Missing parents**: while orphans wait, `want` lists the blocks they
///   wait for and `have` goes on with a block locator — ids spaced
///   exponentially down the requester's longest chain (offsets 0, 1, 2,
///   4, 8, …, then the root), as in Bitcoin Core.  For each wanted block
///   the reply has the path down to the first block below a named id (the
///   fork point), however deep the fork lies.
///
/// A request naming more than [`MAX_REQUEST_IDS`] ids in all is refused
/// with an empty reply, unwalked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncRequest {
    /// Correlates the response with the request (and with the requester's
    /// incarnation — see [`GossipSync`](crate::gossip::GossipSync)-level
    /// docs).  `0` marks an unsolicited batch.
    pub request_id: u64,
    /// The floor: the reply's first part carries no block at or below it.
    pub above_height: u64,
    /// Ids the requester holds: its leaves above the floor, then a block
    /// locator when `want` is set.
    pub have: Vec<BlockId>,
    /// The missing parents of the requester's orphans, if it has any.
    pub want: Vec<BlockId>,
}

impl SyncRequest {
    /// Whether the request names more ids than a responder walks.
    pub fn oversized(&self) -> bool {
        self.have.len() + self.want.len() > MAX_REQUEST_IDS
    }
}

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
    /// Delta-sync request: what the requester holds, and what it wants.
    SyncRequest(SyncRequest),
    /// Delta-sync response: a batch of blocks in parents-first order
    /// (`(height, id)` order) so the
    /// receiver can insert them as they come.  Responders always reply,
    /// even with an empty batch, so the requester can clear its pending
    /// request and score the peer as alive.
    Blocks {
        /// Echo of the triggering request's id (`0` for unsolicited blocks).
        request_id: u64,
        /// The delta batch, capped at
        /// [`MAX_SYNC_BATCH`](crate::gossip::MAX_SYNC_BATCH) blocks above a
        /// floor and at [`MAX_REPLY_WALK`](crate::gossip::MAX_REPLY_WALK)
        /// on the paths to missing parents.
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
            Msg::SyncRequest(_) => None,
            Msg::Blocks { blocks, .. } => blocks.first(),
        }
    }

    /// A short label for trace debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Msg::NewBlock(_) => "new-block",
            Msg::Propose { .. } => "propose",
            Msg::Vote { .. } => "vote",
            Msg::SyncRequest(_) => "sync-request",
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
        let s = Msg::SyncRequest(SyncRequest {
            request_id: 9,
            above_height: 4,
            have: vec![b.id],
            want: vec![],
        });
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
