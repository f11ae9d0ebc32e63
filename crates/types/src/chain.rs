//! Blockchains: paths from the genesis block to some block of the tree.
//!
//! In the paper a blockchain `bc ∈ BC` is a path from a leaf of the
//! BlockTree to the genesis block `b0`; the `read()` operation returns
//! `{b0}⌢f(bt)`, i.e. the selected chain rooted at the genesis block.  This
//! module implements the chain value itself, the prefix relation `⊑` and the
//! *maximal common prefix score* `mcps` used by the Strong Prefix and
//! Eventual Prefix properties of the consistency criteria
//! (Definitions 3.2/3.4).

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::block::{Block, BlockId, GENESIS_ID};

/// A blockchain: an ordered sequence of blocks starting at the genesis block.
///
/// Invariants (checked in debug builds and by the property tests):
/// * the first block is the genesis block;
/// * every subsequent block's parent is the preceding block;
/// * heights increase by one along the chain.
///
/// A chain is a *prefix view* of an `Arc`-shared block sequence: its blocks
/// are the first `len` of the backing sequence, which may hold more.
/// Cloning a chain — which every recorded `read()` response, replica
/// snapshot and criterion check does — is O(1) instead of a deep copy, and
/// so is [`truncated`](Blockchain::truncated): a recorder's reads are
/// views of different lengths over one spine ([`ReadSpines`](crate::ReadSpines)).  Two views of one backing answer `==`, `⊑` and `mcps`
/// from their lengths alone.  Chains are immutable values; extension and
/// truncation return new chains, and nothing past a view's `len` is ever
/// visible through it.
#[derive(Clone)]
pub struct Blockchain {
    /// The backing sequence; the chain is `blocks[..len]`.
    blocks: Arc<Vec<Block>>,
    len: usize,
}

impl PartialEq for Blockchain {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (self.shares_backing(other) || self.blocks() == other.blocks())
    }
}

impl Eq for Blockchain {}

impl Blockchain {
    /// The chain containing only the genesis block (`read()` on an empty
    /// BlockTree returns this).
    pub fn genesis_only() -> Self {
        Self::from_vec_trusted(vec![Block::genesis()])
    }

    /// Builds a chain from a vector of blocks, checking the chain invariants.
    ///
    /// Returns `None` if the sequence does not start at the genesis block or
    /// the parent/height links are inconsistent.
    pub fn from_blocks(blocks: Vec<Block>) -> Option<Self> {
        if blocks.is_empty() || !blocks[0].is_genesis() {
            return None;
        }
        for w in blocks.windows(2) {
            if w[1].parent != Some(w[0].id) || w[1].height != w[0].height + 1 {
                return None;
            }
        }
        Some(Self::from_vec_trusted(blocks))
    }

    /// Builds a chain from a vector already known to satisfy the chain
    /// invariants — a tree root (the genesis block, or the boundary root of
    /// a pruned window, see [`BlockTree::rerooted`](crate::BlockTree::rerooted))
    /// first, parent/height links consistent — as the arena tree's path
    /// walks and the concurrent store's parent walks produce.  The
    /// invariants are checked in debug builds only; callers who cannot
    /// guarantee them must use [`from_blocks`](Blockchain::from_blocks).
    pub fn from_blocks_trusted(blocks: Vec<Block>) -> Self {
        Self::from_vec_trusted(blocks)
    }

    /// Crate-internal alias predating [`from_blocks_trusted`].
    pub(crate) fn from_vec_trusted(blocks: Vec<Block>) -> Self {
        debug_assert!(!blocks.is_empty() && blocks[0].parent.is_none());
        debug_assert!(blocks
            .windows(2)
            .all(|w| w[1].parent == Some(w[0].id) && w[1].height == w[0].height + 1));
        let len = blocks.len();
        Blockchain {
            blocks: Arc::new(blocks),
            len,
        }
    }

    /// Number of blocks in the chain, including the genesis block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff the chain consists of the genesis block only.
    pub fn is_empty(&self) -> bool {
        self.len == 1
    }

    /// Height of the tip of the chain (0 for the genesis-only chain).
    pub fn height(&self) -> u64 {
        self.tip().height
    }

    /// The last block of the chain.
    pub fn tip(&self) -> &Block {
        self.blocks().last().expect("chain is never empty")
    }

    /// All blocks of the chain, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks[..self.len]
    }

    /// Iterator over the block identifiers, genesis first.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks().iter().map(|b| b.id)
    }

    /// Returns `true` iff the chain contains the block with the given id.
    pub fn contains(&self, id: BlockId) -> bool {
        self.blocks().iter().any(|b| b.id == id)
    }

    /// Total work embodied by the chain (sum of per-block work, saturating
    /// at `u64::MAX` — a hand-built hostile chain must not panic or wrap).
    pub fn total_work(&self) -> u64 {
        self.blocks()
            .iter()
            .fold(0u64, |sum, b| sum.saturating_add(b.work))
    }

    /// Total number of transactions carried by the chain.
    pub fn total_transactions(&self) -> usize {
        self.blocks().iter().map(|b| b.payload.len()).sum()
    }

    /// Appends a block to the chain, returning the extended chain.
    ///
    /// Returns `None` if `block` does not link to the current tip.
    pub fn extended_with(&self, block: Block) -> Option<Self> {
        if block.parent != Some(self.tip().id) || block.height != self.tip().height + 1 {
            return None;
        }
        Some(Blockchain::spliced(self.clone(), self.len(), [block]).0)
    }

    /// The prefix-reusing constructor: the chain made of `prev`'s first
    /// `keep` blocks followed by `suffix` — how a `read()` after a tip move
    /// turns the chain it returned last time into the new one, paying for
    /// the blocks that changed instead of the whole height.
    ///
    /// When `prev` is the last handle to its block sequence the sequence is
    /// truncated and extended in place (dropping whatever the backing held
    /// past `prev`'s view); otherwise exactly the kept prefix is copied
    /// into a fresh sequence, so a chain value somebody still holds is
    /// never mutated.  Returns the chain together with the number
    /// of prefix blocks that had to be copied (`0` on the in-place path).
    ///
    /// `keep` must be in `1..=prev.len()` (a chain never loses its root) and
    /// `suffix` must link onto block `keep - 1`; like
    /// [`from_blocks_trusted`](Blockchain::from_blocks_trusted) the links
    /// are checked in debug builds only.
    pub fn spliced(
        mut prev: Blockchain,
        keep: usize,
        suffix: impl IntoIterator<Item = Block>,
    ) -> (Blockchain, usize) {
        assert!(
            (1..=prev.len()).contains(&keep),
            "a splice keeps between the root and the whole chain"
        );
        let copied = match Arc::get_mut(&mut prev.blocks) {
            Some(blocks) => {
                blocks.truncate(keep);
                blocks.extend(suffix);
                0
            }
            None => {
                let suffix = suffix.into_iter();
                let mut blocks = Vec::with_capacity(keep + suffix.size_hint().0);
                blocks.extend_from_slice(&prev.blocks[..keep]);
                blocks.extend(suffix);
                prev.blocks = Arc::new(blocks);
                keep
            }
        };
        prev.len = prev.blocks.len();
        debug_assert!(prev.blocks()[keep - 1..]
            .windows(2)
            .all(|w| w[1].parent == Some(w[0].id) && w[1].height == w[0].height + 1));
        (prev, copied)
    }

    /// The prefix relation `bc ⊑ bc'`: `self` is a prefix of `other`.
    ///
    /// Every chain is a prefix of itself; two views of one backing answer
    /// from their lengths.
    pub fn is_prefix_of(&self, other: &Blockchain) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.shares_backing(other) || self.ids().zip(other.ids()).all(|(a, b)| a == b)
    }

    /// Returns `true` iff one of the two chains is a prefix of the other.
    ///
    /// This is exactly the condition required of every pair of reads by the
    /// Strong Prefix property.
    pub fn prefix_compatible(&self, other: &Blockchain) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// The maximal common prefix of two chains.
    ///
    /// Both chains start at the genesis block, so the common prefix always
    /// contains at least the genesis block.
    pub fn common_prefix(&self, other: &Blockchain) -> Blockchain {
        let shared = self.shared_blocks(other);
        self.truncated(shared - 1)
    }

    /// Length (number of blocks beyond genesis) of the maximal common
    /// prefix — counted, not materialised.
    pub fn mcp_len(&self, other: &Blockchain) -> u64 {
        (self.shared_blocks(other) - 1) as u64
    }

    /// `true` iff both chains are views of one backing sequence, so the
    /// shorter is a prefix of the longer.
    fn shares_backing(&self, other: &Blockchain) -> bool {
        Arc::ptr_eq(&self.blocks, &other.blocks)
    }

    /// Number of leading blocks the two chains share (≥ 1: both start at
    /// the genesis block).
    fn shared_blocks(&self, other: &Blockchain) -> usize {
        if self.shares_backing(other) {
            return self.len.min(other.len);
        }
        let shared = self
            .ids()
            .zip(other.ids())
            .take_while(|(a, b)| a == b)
            .count();
        debug_assert!(shared > 0, "chains share at least the genesis block");
        shared
    }

    /// The prefix of this chain truncated to the given number of non-genesis
    /// blocks (`take = 0` returns the genesis-only chain): an O(1) view of
    /// the same backing sequence.
    pub fn truncated(&self, take: usize) -> Blockchain {
        Blockchain {
            blocks: Arc::clone(&self.blocks),
            len: (take + 1).min(self.len),
        }
    }

    /// Consumes the chain and returns its `len()` blocks (without copying
    /// when this is the last handle to the underlying sequence).
    pub fn into_blocks(self) -> Vec<Block> {
        match Arc::try_unwrap(self.blocks) {
            Ok(mut blocks) => {
                blocks.truncate(self.len);
                blocks
            }
            Err(shared) => shared[..self.len].to_vec(),
        }
    }
}

impl Default for Blockchain {
    fn default() -> Self {
        Blockchain::genesis_only()
    }
}

impl Index<usize> for Blockchain {
    type Output = Block;

    fn index(&self, index: usize) -> &Block {
        &self.blocks()[index]
    }
}

impl fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for b in self.blocks() {
            if !first {
                write!(f, "⌢")?;
            }
            write!(f, "{}", b.id)?;
            first = false;
        }
        Ok(())
    }
}

/// Convenience: check that an arbitrary sequence of block ids is a plausible
/// chain id sequence (starts at genesis, no duplicates).  Used by tests.
pub fn ids_form_chain(ids: &[BlockId]) -> bool {
    if ids.first() != Some(&GENESIS_ID) {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    ids.iter().all(|id| seen.insert(*id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;

    fn chain_of(n: usize) -> Blockchain {
        let mut chain = Blockchain::genesis_only();
        for i in 0..n {
            let b = BlockBuilder::new(chain.tip()).nonce(i as u64).build();
            chain = chain.extended_with(b).unwrap();
        }
        chain
    }

    #[test]
    fn genesis_only_chain_has_height_zero() {
        let c = Blockchain::genesis_only();
        assert_eq!(c.len(), 1);
        assert_eq!(c.height(), 0);
        assert!(c.is_empty());
        assert!(c.tip().is_genesis());
    }

    #[test]
    fn extended_with_links_blocks() {
        let c = chain_of(3);
        assert_eq!(c.len(), 4);
        assert_eq!(c.height(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn extended_with_rejects_unlinked_block() {
        let c = chain_of(2);
        let stray = BlockBuilder::child_of(BlockId(12345), 7).build();
        assert!(c.extended_with(stray).is_none());
    }

    #[test]
    fn from_blocks_accepts_valid_chain_and_rejects_broken_links() {
        let c = chain_of(3);
        let blocks = c.blocks().to_vec();
        assert!(Blockchain::from_blocks(blocks.clone()).is_some());

        let mut broken = blocks;
        broken.remove(1);
        assert!(Blockchain::from_blocks(broken).is_none());
        assert!(Blockchain::from_blocks(vec![]).is_none());
    }

    #[test]
    fn prefix_relation_is_reflexive_and_detects_prefixes() {
        let c4 = chain_of(4);
        let c2 = Blockchain::from_blocks(c4.blocks()[..3].to_vec()).unwrap();
        assert!(c2.is_prefix_of(&c4));
        assert!(!c4.is_prefix_of(&c2));
        assert!(c4.is_prefix_of(&c4));
        assert!(c2.prefix_compatible(&c4));
    }

    #[test]
    fn diverging_chains_are_not_prefix_compatible() {
        let base = chain_of(2);
        let a = base
            .extended_with(BlockBuilder::new(base.tip()).nonce(100).build())
            .unwrap();
        let b = base
            .extended_with(BlockBuilder::new(base.tip()).nonce(200).build())
            .unwrap();
        assert!(!a.prefix_compatible(&b));
        assert_eq!(a.common_prefix(&b), base);
        assert_eq!(a.mcp_len(&b), 2);
    }

    #[test]
    fn common_prefix_of_identical_chain_is_itself() {
        let c = chain_of(5);
        assert_eq!(c.common_prefix(&c), c);
        assert_eq!(c.mcp_len(&c), 5);
    }

    #[test]
    fn truncated_returns_prefix() {
        let c = chain_of(5);
        let t = c.truncated(2);
        assert_eq!(t.len(), 3);
        assert!(t.is_prefix_of(&c));
        // Truncating beyond the length returns the full chain.
        assert_eq!(c.truncated(100), c);
        // Truncating to zero returns the genesis-only chain.
        assert_eq!(c.truncated(0), Blockchain::genesis_only());
    }

    /// `base`'s first `keep` blocks followed by `n` fresh ones.
    fn suffix_on(base: &Blockchain, keep: usize, n: usize) -> Vec<Block> {
        let mut parent = base[keep - 1].clone();
        (0..n)
            .map(|i| {
                parent = BlockBuilder::new(&parent).nonce(1000 + i as u64).build();
                parent.clone()
            })
            .collect()
    }

    #[test]
    fn spliced_reuses_a_unique_handle_in_place() {
        let base = chain_of(6);
        let expected_ids: Vec<_> = base.ids().collect();
        for keep in [1, 3, base.len()] {
            for n in [0, 2] {
                let suffix = suffix_on(&base, keep, n);
                let mut expected = expected_ids[..keep].to_vec();
                expected.extend(suffix.iter().map(|b| b.id));
                // A deep copy: the only handle to its blocks.
                let unique = Blockchain::from_blocks(base.blocks().to_vec()).unwrap();
                let (chain, copied) = Blockchain::spliced(unique, keep, suffix);
                assert_eq!(copied, 0, "keep {keep}, suffix {n}: in place");
                assert_eq!(chain.ids().collect::<Vec<_>>(), expected);
                assert!(Blockchain::from_blocks(chain.blocks().to_vec()).is_some());
            }
        }
    }

    #[test]
    fn spliced_copies_the_kept_prefix_of_a_shared_handle() {
        let base = chain_of(6);
        let before = base.blocks().to_vec();
        for keep in [1, 3, base.len()] {
            for n in [0, 2] {
                let suffix = suffix_on(&base, keep, n);
                let (chain, copied) = Blockchain::spliced(base.clone(), keep, suffix.clone());
                assert_eq!(copied, keep, "keep {keep}, suffix {n}: exactly the prefix");
                assert_eq!(chain.len(), keep + n);
                assert_eq!(chain.blocks()[..keep], before[..keep]);
                assert_eq!(chain.blocks()[keep..], suffix[..]);
                assert_eq!(base.blocks(), &before[..], "the held chain is a value");
            }
        }
        // Keeping everything and appending nothing is the identity.
        let (same, _) = Blockchain::spliced(base.clone(), base.len(), []);
        assert_eq!(same, base);
    }

    #[test]
    #[should_panic(expected = "keeps between the root and the whole chain")]
    fn spliced_never_drops_the_root() {
        let _ = Blockchain::spliced(chain_of(2), 0, []);
    }

    #[test]
    fn views_of_one_spine_differ_by_length() {
        let spine = chain_of(5);
        let (short, long) = (spine.truncated(2), spine.truncated(4));
        assert_ne!(short, long);
        assert_eq!(long, spine.truncated(4));
        assert_eq!(
            short,
            Blockchain::from_blocks(spine.blocks()[..3].to_vec()).unwrap()
        );
    }

    #[test]
    fn truncated_is_a_view_of_the_same_backing() {
        let spine = chain_of(5);
        let view = spine.truncated(2);
        assert_eq!(view.blocks().as_ptr(), spine.blocks().as_ptr());
        assert_eq!(view.len(), 3);
        assert_eq!(view.tip(), &spine[2]);
        assert_eq!(view.height(), 2);
        assert_eq!(format!("{view:?}").matches('⌢').count(), 2);
    }

    #[test]
    fn relations_between_views_of_one_spine_follow_the_lengths() {
        let spine = chain_of(6);
        let (a, b) = (spine.truncated(2), spine.truncated(5));
        assert!(a.is_prefix_of(&b) && !b.is_prefix_of(&a));
        assert_eq!((a.mcp_len(&b), b.mcp_len(&a)), (2, 2));
        let common = b.common_prefix(&a);
        assert_eq!(common, a);
        assert_eq!(common.blocks().as_ptr(), spine.blocks().as_ptr());
        // The same answers as from two unshared copies.
        let copy = |c: &Blockchain| Blockchain::from_blocks(c.blocks().to_vec()).unwrap();
        assert!(copy(&a).is_prefix_of(&copy(&b)));
        assert_eq!(copy(&a).mcp_len(&copy(&b)), 2);
        assert_eq!(copy(&b).common_prefix(&copy(&a)), a);
    }

    #[test]
    fn into_blocks_of_a_view_returns_its_blocks_only() {
        let spine = chain_of(5);
        let expected = spine.blocks()[..3].to_vec();
        // Shared backing: the view's blocks are copied out.
        assert_eq!(spine.truncated(2).into_blocks(), expected);
        // Last handle: the backing is reused and cut to the view.
        let unique = Blockchain::from_blocks(spine.blocks().to_vec()).unwrap();
        let view = unique.truncated(2);
        drop(unique);
        assert_eq!(view.into_blocks(), expected);
    }

    #[test]
    fn spliced_on_a_unique_view_of_a_longer_backing() {
        let spine = Blockchain::from_blocks(chain_of(6).blocks().to_vec()).unwrap();
        let hidden = spine[5].id;
        // The last handle, a view of 4 over a backing of 7.
        let view = spine.truncated(3);
        drop(spine);
        for keep in [2, 4] {
            let suffix = suffix_on(&view, keep, 2);
            let mut expected = view.blocks()[..keep].to_vec();
            expected.extend(suffix.iter().cloned());
            let (shared, copied) = Blockchain::spliced(view.clone(), keep, suffix.clone());
            assert_eq!((copied, shared.blocks()), (keep, &expected[..]));
        }
        let suffix = suffix_on(&view, 4, 2);
        let mut expected = view.blocks().to_vec();
        expected.extend(suffix.iter().cloned());
        let (chain, copied) = Blockchain::spliced(view, 4, suffix);
        assert_eq!(copied, 0, "the last handle splices in place");
        assert_eq!(chain.blocks(), &expected[..]);
        assert!(!chain.contains(hidden), "nothing past the view comes back");
        assert!(Blockchain::from_blocks(chain.into_blocks()).is_some());
    }

    #[test]
    fn total_work_sums_block_work() {
        let mut chain = Blockchain::genesis_only();
        for i in 0..3 {
            let b = BlockBuilder::new(chain.tip()).nonce(i).work(5).build();
            chain = chain.extended_with(b).unwrap();
        }
        // genesis work 1 + 3 * 5
        assert_eq!(chain.total_work(), 16);
        // A hand-built hostile chain saturates instead of wrapping.
        let mut heavy = chain.blocks().to_vec();
        heavy[1].work = u64::MAX;
        let heavy = Blockchain::from_blocks(heavy).unwrap();
        assert_eq!(heavy.total_work(), u64::MAX);
    }

    #[test]
    fn contains_finds_blocks() {
        let c = chain_of(3);
        let tip = c.tip().id;
        assert!(c.contains(GENESIS_ID));
        assert!(c.contains(tip));
        assert!(!c.contains(BlockId(0xdead_beef)));
    }

    #[test]
    fn ids_form_chain_checks_genesis_and_duplicates() {
        let c = chain_of(3);
        let ids: Vec<_> = c.ids().collect();
        assert!(ids_form_chain(&ids));
        assert!(!ids_form_chain(&ids[1..]));
        let mut dup = ids.clone();
        dup.push(ids[1]);
        assert!(!ids_form_chain(&dup));
    }

    #[test]
    fn debug_format_concatenates_ids() {
        let c = Blockchain::genesis_only();
        assert_eq!(format!("{:?}", c), "b0");
    }
}
