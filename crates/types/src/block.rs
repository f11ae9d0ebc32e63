//! Blocks and block identifiers.
//!
//! A block is a vertex of the BlockTree.  The paper treats blocks abstractly
//! (elements of a countable set `B`, with a distinguished genesis block
//! `b0`).  Here a block carries enough structure to drive realistic
//! workloads: a parent pointer, a payload of transactions, the merit of the
//! producing process and a nonce.  The identifier is a structural (FNV-1a)
//! hash of the block contents — *not* a cryptographic commitment, which the
//! paper never relies on (see DESIGN.md, non-goals).
//!
//! A block is immutable once built, so every holder — the tree arena, the
//! snapshot slot, a message, a replica log, a history — shares one copy of
//! its transactions through [`Payload`]: cloning a [`Block`] is a 64-byte
//! copy plus, for a non-empty payload, one reference-count increment.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::transaction::Transaction;

/// The transactions of a block: an 8-byte handle on one immutable,
/// reference-counted list that every clone of the block shares.
///
/// It reads as a `[Transaction]` (`Deref`), compares and hashes by content
/// exactly as that slice does, and prints as it.  An empty payload holds no
/// allocation and touches no counter, so the many empty-payload blocks of
/// the shared-memory workloads clone as plain copies.  Wrapping a
/// `Vec<Transaction>` keeps the vector's buffer: nothing is copied.
#[derive(Clone, Default)]
pub struct Payload(Option<Arc<Vec<Transaction>>>);

impl Payload {
    /// Appends one transaction, copying the list first if another holder
    /// shares it (builders only: a built block's payload never changes).
    fn push(&mut self, tx: Transaction) {
        match &mut self.0 {
            Some(txs) => Arc::make_mut(txs).push(tx),
            None => self.0 = Some(Arc::new(vec![tx])),
        }
    }
}

impl Deref for Payload {
    type Target = [Transaction];

    fn deref(&self) -> &[Transaction] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl From<Vec<Transaction>> for Payload {
    fn from(txs: Vec<Transaction>) -> Self {
        Payload((!txs.is_empty()).then(|| Arc::new(txs)))
    }
}

impl FromIterator<Transaction> for Payload {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        Payload::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl<'a> IntoIterator for &'a Payload {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Identifier of a block: a structural 64-bit hash of its contents.
///
/// `BlockId` is `Copy`, ordered and hashable so it can be used as an arena
/// key and for the deterministic lexicographic tie-breaks used by selection
/// functions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// The identifier of the genesis block `b0`.
///
/// The genesis block is valid by assumption (`b0 ∈ B'`) and is the root of
/// every BlockTree.
pub const GENESIS_ID: BlockId = BlockId(0);

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == GENESIS_ID {
            write!(f, "b0")
        } else {
            write!(f, "b{:x}", self.0)
        }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for BlockId {
    fn from(v: u64) -> Self {
        BlockId(v)
    }
}

/// A block of the BlockTree.
///
/// Every block except the genesis block points backward to its parent; the
/// height of a block is its distance to the root (the genesis block has
/// height 0).  The `merit` field records the merit parameter `α_i` of the
/// process that produced the block (scaled by 10⁶ to keep the type `Eq` and
/// hashable), and `work` records the amount of "work" the block embodies —
/// used by weight-based scores and selection functions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Block {
    /// Identifier of this block (structural hash of the remaining fields).
    pub id: BlockId,
    /// Identifier of the parent block (`None` only for the genesis block).
    pub parent: Option<BlockId>,
    /// Distance to the genesis block.
    pub height: u64,
    /// Payload carried by the block, shared by every clone of it.
    pub payload: Payload,
    /// Identifier of the producing process.
    pub producer: u32,
    /// Merit `α_i` of the producing process, scaled by 10⁶.
    pub merit_ppm: u32,
    /// Arbitrary nonce (used by the simulated proof-of-work backend).
    pub nonce: u64,
    /// Work embodied by the block (difficulty units); ≥ 1 for valid blocks.
    pub work: u64,
}

impl Block {
    /// Returns the genesis block `b0`.
    pub fn genesis() -> Self {
        Block {
            id: GENESIS_ID,
            parent: None,
            height: 0,
            payload: Payload::default(),
            producer: 0,
            merit_ppm: 0,
            nonce: 0,
            work: 1,
        }
    }

    /// Returns `true` iff this block is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.id == GENESIS_ID
    }

    /// Computes the structural identifier of a block from its contents.
    ///
    /// FNV-1a over the parent id, producer, nonce, work and transaction ids.
    /// Deterministic across runs and platforms.
    pub fn compute_id(
        parent: BlockId,
        producer: u32,
        nonce: u64,
        work: u64,
        payload: &[Transaction],
    ) -> BlockId {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(parent.0);
        mix(u64::from(producer));
        mix(nonce);
        mix(work);
        for tx in payload {
            mix(tx.id.0);
            mix(u64::from(tx.from));
            mix(u64::from(tx.to));
            mix(tx.amount);
        }
        // Never collide with the genesis id.
        if h == GENESIS_ID.0 {
            h = 1;
        }
        BlockId(h)
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("height", &self.height)
            .field("txs", &self.payload.len())
            .field("producer", &self.producer)
            .field("work", &self.work)
            .finish()
    }
}

/// Builder for [`Block`]s.
///
/// The builder keeps the block-construction code in workloads, protocols and
/// tests terse while guaranteeing that the identifier is always the
/// structural hash of the final contents.
///
/// ```
/// use btadt_types::{Block, BlockBuilder, GENESIS_ID};
///
/// let genesis = Block::genesis();
/// let b1 = BlockBuilder::new(&genesis).producer(3).nonce(42).build();
/// assert_eq!(b1.parent, Some(GENESIS_ID));
/// assert_eq!(b1.height, 1);
/// ```
#[derive(Clone, Debug)]
pub struct BlockBuilder {
    parent: BlockId,
    parent_height: u64,
    payload: Payload,
    producer: u32,
    merit_ppm: u32,
    nonce: u64,
    work: u64,
}

impl BlockBuilder {
    /// Starts building a child of `parent`.
    pub fn new(parent: &Block) -> Self {
        BlockBuilder {
            parent: parent.id,
            parent_height: parent.height,
            payload: Payload::default(),
            producer: 0,
            merit_ppm: 0,
            nonce: 0,
            work: 1,
        }
    }

    /// Starts building a child of a block known only by id and height.
    pub fn child_of(parent: BlockId, parent_height: u64) -> Self {
        BlockBuilder {
            parent,
            parent_height,
            payload: Payload::default(),
            producer: 0,
            merit_ppm: 0,
            nonce: 0,
            work: 1,
        }
    }

    /// Sets the payload: a `Vec<Transaction>` is wrapped without copying,
    /// and a [`Payload`] taken from another block is shared with it.
    pub fn payload(mut self, txs: impl Into<Payload>) -> Self {
        self.payload = txs.into();
        self
    }

    /// Appends a single transaction to the payload.
    pub fn push_tx(mut self, tx: Transaction) -> Self {
        self.payload.push(tx);
        self
    }

    /// Sets the producing process.
    pub fn producer(mut self, producer: u32) -> Self {
        self.producer = producer;
        self
    }

    /// Sets the merit of the producing process (parts per million).
    pub fn merit_ppm(mut self, merit_ppm: u32) -> Self {
        self.merit_ppm = merit_ppm;
        self
    }

    /// Sets the nonce.
    pub fn nonce(mut self, nonce: u64) -> Self {
        self.nonce = nonce;
        self
    }

    /// Sets the work embodied by the block.
    pub fn work(mut self, work: u64) -> Self {
        self.work = work.max(1);
        self
    }

    /// Finalises the block, computing its structural identifier.
    pub fn build(self) -> Block {
        let id = Block::compute_id(
            self.parent,
            self.producer,
            self.nonce,
            self.work,
            &self.payload,
        );
        Block {
            id,
            parent: Some(self.parent),
            height: self.parent_height + 1,
            payload: self.payload,
            producer: self.producer,
            merit_ppm: self.merit_ppm,
            nonce: self.nonce,
            work: self.work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    #[test]
    fn genesis_is_height_zero_and_has_no_parent() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert_eq!(g.height, 0);
        assert_eq!(g.parent, None);
        assert_eq!(g.id, GENESIS_ID);
        assert_eq!(g.work, 1);
    }

    #[test]
    fn builder_links_child_to_parent() {
        let g = Block::genesis();
        let b = BlockBuilder::new(&g).producer(7).nonce(99).build();
        assert_eq!(b.parent, Some(GENESIS_ID));
        assert_eq!(b.height, 1);
        assert_eq!(b.producer, 7);
        assert!(!b.is_genesis());
    }

    #[test]
    fn identifier_is_deterministic() {
        let g = Block::genesis();
        let a = BlockBuilder::new(&g).producer(1).nonce(5).build();
        let b = BlockBuilder::new(&g).producer(1).nonce(5).build();
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn identifier_depends_on_nonce() {
        let g = Block::genesis();
        let a = BlockBuilder::new(&g).nonce(1).build();
        let b = BlockBuilder::new(&g).nonce(2).build();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn identifier_depends_on_parent() {
        let g = Block::genesis();
        let a = BlockBuilder::new(&g).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(1).build();
        assert_ne!(a.id, b.id);
        assert_eq!(b.height, 2);
    }

    #[test]
    fn identifier_depends_on_payload() {
        let g = Block::genesis();
        let a = BlockBuilder::new(&g).build();
        let b = BlockBuilder::new(&g)
            .push_tx(Transaction::transfer(1, 1, 2, 10))
            .build();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn identifier_never_collides_with_genesis() {
        // Even for a block whose hash would be zero we remap to 1.
        let g = Block::genesis();
        for nonce in 0..1000 {
            let b = BlockBuilder::new(&g).nonce(nonce).build();
            assert_ne!(b.id, GENESIS_ID);
        }
    }

    #[test]
    fn block_id_display_names_genesis() {
        assert_eq!(format!("{}", GENESIS_ID), "b0");
        assert_eq!(format!("{}", BlockId(0x2a)), "b2a");
    }

    #[test]
    fn work_is_at_least_one() {
        let g = Block::genesis();
        let b = BlockBuilder::new(&g).work(0).build();
        assert_eq!(b.work, 1);
    }

    #[test]
    fn child_of_builder_uses_given_height() {
        let b = BlockBuilder::child_of(BlockId(77), 10).build();
        assert_eq!(b.height, 11);
        assert_eq!(b.parent, Some(BlockId(77)));
    }

    #[test]
    fn a_block_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<Payload>(), 8);
        assert_eq!(std::mem::size_of::<Block>(), 64);
    }

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n).map(|i| Transaction::transfer(i, 1, 2, 3)).collect()
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn payloads_compare_and_hash_by_content() {
        let (a, b) = (Payload::from(txs(3)), Payload::from(txs(3)));
        assert_ne!(a.as_ptr(), b.as_ptr(), "two allocations");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&txs(3)));
        assert_ne!(a, Payload::from(txs(2)));
        assert_eq!(hash_of(&Payload::default()), hash_of(&txs(0)));
        assert_eq!(format!("{a:?}"), format!("{:?}", txs(3)));
    }

    #[test]
    fn the_default_payload_is_empty() {
        let empty = Payload::default();
        assert!(empty.is_empty());
        assert_eq!(empty, Payload::from(Vec::new()));
        assert_eq!(Block::genesis().payload, empty);
    }

    #[test]
    fn wrapping_a_vec_keeps_its_buffer_and_clones_share_it() {
        let v = txs(4);
        let buffer = v.as_ptr();
        let payload = Payload::from(v);
        assert_eq!(payload.as_ptr(), buffer, "nothing was copied");
        let block = BlockBuilder::new(&Block::genesis())
            .payload(payload)
            .build();
        assert_eq!(block.clone().payload.as_ptr(), buffer);
        let rebuilt = BlockBuilder::new(&block)
            .payload(block.payload.clone())
            .build();
        assert_eq!(rebuilt.payload.as_ptr(), buffer);
    }

    #[test]
    fn pushing_onto_a_shared_payload_leaves_the_other_holder_alone() {
        let shared = Payload::from(txs(2));
        let b = BlockBuilder::new(&Block::genesis())
            .payload(shared.clone())
            .push_tx(Transaction::transfer(9, 1, 2, 3))
            .build();
        assert_eq!(b.payload.len(), 3);
        assert_eq!(*shared, txs(2)[..]);
    }
}
