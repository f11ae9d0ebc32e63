//! Wait-free snapshot store backing [`crate::ConcurrentBlockTree`] reads.
//!
//! The paper's `read()` returns `{b0}⌢f(bt)` — a chain through the tree.
//! For a shared-memory replica the read path must be **wait-free**
//! (Theorems 4.1–4.3 build the append mediation from wait-free objects, and
//! reads are the easy half: they never contend for tokens).  This store
//! gives reads that property without locks:
//!
//! * Blocks live in an **append-only chunked arena**: fixed-capacity chunks
//!   allocated on demand, each slot a [`OnceLock`].  Chunks never move and
//!   slots are written exactly once, so readers never race a reallocation.
//! * The visible state is a single packed `AtomicU64` holding
//!   `(committed length, selected tip index)`.  Writers install a fully
//!   linked block first and publish the new `(len, tip)` pair with one
//!   release store; readers decode both with one acquire load — a read's
//!   linearization point — and then walk immutable parent links.
//!
//! A reader therefore performs one atomic load plus a pointer walk over
//! frozen memory: no CAS retries, no lock acquisition, no helping — every
//! read finishes in a bounded number of its own steps regardless of writer
//! activity (wait-freedom).  Writers are expected to be serialized
//! externally (the [`crate::ConcurrentBlockTree`] writer mutex); this is
//! asserted, not assumed.
//!
//! Indices handed out by [`SnapshotStore::push`] are insertion-ordered and
//! deliberately coincide with the `NodeIdx` arena indices of
//! [`btadt_types::BlockTree`], so the writer side can maintain the rich
//! tree (leaf count, incremental best tips) and mirror each insert here.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use btadt_types::{Block, Blockchain};

/// Capacity of one arena chunk (blocks).
const CHUNK_CAP: usize = 1 << 10;
/// Number of chunk slots in the (fixed) chunk table.
const NUM_CHUNKS: usize = 1 << 10;

/// One immutable node of the store: the block plus its parent's store index.
#[derive(Debug)]
struct StoredNode {
    block: Block,
    parent: Option<u32>,
}

type Chunk = Box<[OnceLock<StoredNode>]>;

/// The arena's fixed capacity was exhausted by a push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreExhausted {
    /// The capacity that was exceeded.
    pub capacity: usize,
}

impl std::fmt::Display for StoreExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SnapshotStore capacity ({}) exhausted", self.capacity)
    }
}

impl std::error::Error for StoreExhausted {}

/// A consistent `(length, tip)` view of the store, decoded from one atomic
/// load.  `len` counts committed blocks (genesis included) and `tip` is the
/// store index of the currently selected chain tip; `tip < len` always.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotView {
    /// Number of committed blocks visible to this snapshot.
    pub len: u32,
    /// Store index of the selected tip at publication time.
    pub tip: u32,
}

/// What one [`SnapshotStore::chain_from`] splice cost, in blocks cloned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpliceCost {
    /// Blocks cloned out of the store: the walked suffix (Δ + reorg depth).
    pub walked: usize,
    /// Blocks of the kept prefix copied because the previous chain was
    /// still held elsewhere (`0` when it was reused in place).
    pub copied: usize,
}

/// The chunked append-only block arena with a packed `(len, tip)` head.
pub struct SnapshotStore {
    chunks: Box<[OnceLock<Chunk>]>,
    /// Packed head: high 32 bits = committed length, low 32 bits = tip.
    head: AtomicU64,
    /// Writer-side push cursor (also guards against concurrent writers).
    next: AtomicU32,
}

impl SnapshotStore {
    /// Creates a store holding only the genesis block, published as the tip.
    pub fn new() -> Self {
        let store = SnapshotStore {
            chunks: (0..NUM_CHUNKS).map(|_| OnceLock::new()).collect(),
            head: AtomicU64::new(0),
            next: AtomicU32::new(0),
        };
        let genesis = store.push(Block::genesis(), None);
        store.publish(1, genesis);
        store
    }

    /// Appends a block to the arena, returning its store index.  The block
    /// is **not** visible to readers until a subsequent [`publish`] covers
    /// its index.
    ///
    /// Callers must serialize pushes (the `ConcurrentBlockTree` writer
    /// mutex); a racing push is detected and panics rather than corrupting
    /// the arena.
    ///
    /// [`publish`]: SnapshotStore::publish
    pub fn push(&self, block: Block, parent: Option<u32>) -> u32 {
        self.try_push(block, parent)
            .expect("SnapshotStore capacity exhausted")
    }

    /// [`push`](SnapshotStore::push) with a structured error instead of a
    /// panic when the fixed arena capacity is exhausted — the ingest paths
    /// surface this as [`btadt_pipeline::IngestError::StoreExhausted`]
    /// rather than tearing the process down mid-install.
    pub fn try_push(&self, block: Block, parent: Option<u32>) -> Result<u32, StoreExhausted> {
        // ORDERING: Relaxed — the cursor is only advanced under the
        // writer mutex; publication of the slot contents happens through
        // the OnceLock set + the Release head store, not this counter.
        let idx = self.next.fetch_add(1, Ordering::Relaxed) as usize;
        if idx >= CHUNK_CAP * NUM_CHUNKS {
            // Back the cursor out so repeated attempts fail cleanly instead
            // of wrapping; callers hold the writer mutex, so no other push
            // can have advanced the cursor in between.
            // ORDERING: Relaxed — same single-writer regime as the
            // fetch_add above; this only backs the private cursor out.
            self.next.fetch_sub(1, Ordering::Relaxed);
            return Err(StoreExhausted {
                capacity: CHUNK_CAP * NUM_CHUNKS,
            });
        }
        let chunk = self.chunks[idx / CHUNK_CAP]
            .get_or_init(|| (0..CHUNK_CAP).map(|_| OnceLock::new()).collect());
        chunk[idx % CHUNK_CAP]
            .set(StoredNode { block, parent })
            .unwrap_or_else(|_| panic!("concurrent writers raced on store slot {idx}"));
        Ok(idx as u32)
    }

    /// Number of blocks *pushed* so far (published or not).  The healing
    /// path compares this against the writer tree's length to find blocks
    /// whose mirror step was lost to a poisoned lock.
    pub fn pushed(&self) -> u32 {
        // ORDERING: Relaxed — a monitoring read; the value is advisory
        // (healing re-checks under the writer mutex before acting).
        self.next.load(Ordering::Relaxed)
    }

    /// Publishes a new `(len, tip)` head with release ordering.  Every slot
    /// `< len` must already be pushed; `tip` must be `< len`.
    pub fn publish(&self, len: u32, tip: u32) {
        debug_assert!(tip < len, "published tip must be committed");
        self.head
            // ORDERING: Release — pairs with the Acquire in snapshot(): a
            // reader that observes the new head also observes every slot
            // write sequenced before this store.
            .store(u64::from(len) << 32 | u64::from(tip), Ordering::Release);
    }

    /// The wait-free snapshot: one acquire load decoding the committed
    /// length and the selected tip together.
    pub fn snapshot(&self) -> SnapshotView {
        // ORDERING: Acquire — pairs with the Release in publish(); all
        // slots below the loaded len are visible after this load.
        let packed = self.head.load(Ordering::Acquire);
        SnapshotView {
            len: (packed >> 32) as u32,
            tip: packed as u32,
        }
    }

    /// Number of committed (reader-visible) blocks.
    pub fn len(&self) -> usize {
        self.snapshot().len as usize
    }

    /// Returns `true` iff only the genesis block is visible.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    fn node(&self, idx: u32) -> &StoredNode {
        self.chunks[idx as usize / CHUNK_CAP]
            .get()
            .and_then(|chunk| chunk[idx as usize % CHUNK_CAP].get())
            .expect("store index must be committed before it is read")
    }

    /// The block at a committed store index.
    pub fn block(&self, idx: u32) -> &Block {
        &self.node(idx).block
    }

    /// The parent store index of a committed block (`None` for genesis).
    pub fn parent(&self, idx: u32) -> Option<u32> {
        self.node(idx).parent
    }

    /// The chain from the genesis block to `tip`, spliced onto `prev` — a
    /// chain this store produced earlier (or the genesis-only chain).
    ///
    /// Walks frozen parent links from `tip` only down to the first block
    /// `prev` already holds at the same height, then keeps `prev` up to
    /// that block and appends the walked suffix
    /// ([`Blockchain::spliced`]).  Ids are unique in the store, so an equal
    /// id at an equal height means an equal prefix below it; an extension
    /// (the match is `prev`'s tip) and a reorg (the match is the fork
    /// point) are the same code, and the genesis block always matches.
    ///
    /// Wait-free: touches only committed, immutable slots, in at most
    /// `height(tip)` steps — Δ + reorg depth when `prev` is recent.  Also
    /// returns what the splice cost, in blocks cloned.
    pub fn chain_from(&self, prev: Blockchain, tip: u32) -> (Blockchain, SpliceCost) {
        // The walk records references, not blocks: each block is then
        // cloned once, straight into its place in the chain.  The capacity
        // is exact for an extension, a lower bound across a reorg.
        let growth = (self.node(tip).block.height as usize + 1).saturating_sub(prev.len());
        let mut path: Vec<&Block> = Vec::with_capacity(growth);
        let mut cursor = tip;
        let keep = loop {
            let node = self.node(cursor);
            let height = node.block.height as usize;
            if prev.blocks().get(height).map(|b| b.id) == Some(node.block.id) {
                break height + 1;
            }
            path.push(&node.block);
            // Writers only push blocks whose parent is already committed,
            // so the walk is a chain by construction and ends at genesis.
            cursor = node.parent.expect("the genesis block is on every chain");
        };
        let walked = path.len();
        let (chain, copied) = Blockchain::spliced(prev, keep, path.into_iter().rev().cloned());
        (chain, SpliceCost { walked, copied })
    }

    /// Materializes the chain from the genesis block to `tip` from scratch:
    /// [`chain_from`](Self::chain_from) with nothing to reuse.
    pub fn chain_to(&self, tip: u32) -> Blockchain {
        self.chain_from(Blockchain::genesis_only(), tip).0
    }

    /// The wait-free `read()`: `{b0}⌢f(bt)` for the latest published
    /// selection — one atomic load, then a walk over immutable nodes.
    pub fn read(&self) -> Blockchain {
        self.chain_to(self.snapshot().tip)
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;
    use std::sync::Arc;
    use std::thread;

    fn chain_blocks(n: usize) -> Vec<Block> {
        let mut parent = Block::genesis();
        (0..n)
            .map(|i| {
                let b = BlockBuilder::new(&parent).nonce(i as u64).build();
                parent = b.clone();
                b
            })
            .collect()
    }

    #[test]
    fn fresh_store_reads_the_genesis_chain() {
        let store = SnapshotStore::new();
        assert_eq!(store.len(), 1);
        assert!(store.is_empty());
        assert_eq!(store.read(), Blockchain::genesis_only());
        assert_eq!(store.snapshot(), SnapshotView { len: 1, tip: 0 });
    }

    #[test]
    fn pushed_blocks_are_invisible_until_published() {
        let store = SnapshotStore::new();
        let blocks = chain_blocks(2);
        let i1 = store.push(blocks[0].clone(), Some(0));
        assert_eq!(store.len(), 1, "push alone must not change the view");
        store.publish(2, i1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.read().tip().id, blocks[0].id);
        let i2 = store.push(blocks[1].clone(), Some(i1));
        store.publish(3, i2);
        assert_eq!(store.read().height(), 2);
        assert_eq!(store.parent(i2), Some(i1));
        assert_eq!(store.block(i2).id, blocks[1].id);
    }

    #[test]
    fn chain_to_walks_any_committed_tip() {
        let store = SnapshotStore::new();
        let blocks = chain_blocks(5);
        let mut parent = 0;
        let mut idxs = Vec::new();
        for b in &blocks {
            parent = store.push(b.clone(), Some(parent));
            idxs.push(parent);
        }
        store.publish(6, parent);
        // Reads of interior tips (earlier snapshots) still work.
        assert_eq!(store.chain_to(idxs[2]).height(), 3);
        assert_eq!(store.chain_to(idxs[4]).height(), 5);
        assert_eq!(store.read().height(), 5);
        // Splicing an earlier chain walks only the two blocks it lacks.
        let (spliced, cost) = store.chain_from(store.chain_to(idxs[2]), idxs[4]);
        assert_eq!(spliced, store.chain_to(idxs[4]));
        let expected = SpliceCost {
            walked: 2,
            copied: 0,
        };
        assert_eq!(cost, expected);
    }

    #[test]
    fn store_spans_multiple_chunks() {
        let store = SnapshotStore::new();
        let mut parent_block = Block::genesis();
        let mut parent = 0u32;
        let n = CHUNK_CAP + 5;
        for i in 0..n {
            let b = BlockBuilder::new(&parent_block).nonce(i as u64).build();
            parent_block = b.clone();
            parent = store.push(b, Some(parent));
        }
        store.publish(n as u32 + 1, parent);
        assert_eq!(store.len(), n + 1);
        assert_eq!(store.read().height(), n as u64);
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_chain() {
        // One writer extends the chain and publishes; readers hammer the
        // store and must always materialize a well-formed chain whose tip
        // height equals the published length - 1.
        let store = Arc::new(SnapshotStore::new());
        let writer = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut parent_block = Block::genesis();
                let mut parent = 0u32;
                for i in 0..500u64 {
                    let b = BlockBuilder::new(&parent_block).nonce(i).build();
                    parent_block = b.clone();
                    parent = store.push(b, Some(parent));
                    store.publish(i as u32 + 2, parent);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    for _ in 0..300 {
                        let view = store.snapshot();
                        let chain = store.chain_to(view.tip);
                        // On this linear workload the tip is the last
                        // committed block, so height = len - 1 exactly.
                        assert_eq!(chain.height(), u64::from(view.len - 1));
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.read().height(), 500);
    }

    #[test]
    fn pushed_counts_uncommitted_blocks() {
        let store = SnapshotStore::new();
        assert_eq!(store.pushed(), 1, "genesis is pushed at construction");
        let blocks = chain_blocks(2);
        let i1 = store
            .try_push(blocks[0].clone(), Some(0))
            .expect("capacity is ample");
        assert_eq!(store.pushed(), 2);
        assert_eq!(store.len(), 1, "pushed but unpublished stays invisible");
        store.publish(2, i1);
        assert_eq!(store.len(), 2);
        let err = StoreExhausted { capacity: 4 };
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    #[should_panic(expected = "must be committed")]
    fn reading_an_uncommitted_index_panics() {
        let store = SnapshotStore::new();
        store.block(7);
    }
}
