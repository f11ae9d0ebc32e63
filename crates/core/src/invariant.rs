//! Structural invariant checking for [`BlockTree`] instances.
//!
//! The arena-indexed tree maintains several aggregates incrementally
//! (leaf count, best tips, cumulative work, child lists).  Under fault
//! injection — stalled writers, poisoned locks healed mid-install — the
//! cheap way to trust the incremental state is to recompute it from first
//! principles and compare.
//! [`check_block_tree`] does exactly that through the tree's *public* API,
//! so it can run against any replica (simulated, shared-memory, recovered
//! from a durable store) without privileged access:
//!
//! 1. **Link consistency** — every non-genesis block's parent is present,
//!    sits exactly one height below, and lists the block among its
//!    children; child links point back at their parent.  Each node's child
//!    walk (`children_idx`) yields exactly `fork_degree` entries, in
//!    strictly increasing arena index, each naming that node as its parent.
//! 2. **Leaf-count agreement** — the incrementally maintained
//!    `leaf_count()` equals the number of blocks no block names as its
//!    parent, recomputed from the parent pointers alone (`leaves()` is
//!    derived from the child links, so comparing it against them would
//!    check the links against themselves).
//! 3. **Cumulative-work monotonicity** — cumulative work strictly increases
//!    along every parent→child edge (block work is positive), and equals
//!    `parent's cumulative work + own work`.
//! 4. **Aggregate agreement** — `height()` and `max_fork_degree()` match
//!    recomputed values.
//! 5. **Reachability labeling** — every node's `[start, end)` interval nests
//!    strictly inside its parent's usable range, sibling intervals are
//!    pairwise disjoint, and allocation cursors stay in bounds, so interval
//!    containment remains a sound ancestor test (see
//!    `btadt_types::reachability`).
//! 6. **Height levels** — `delta_above(root height)`, the walk over the
//!    per-height lists delta-sync replies are served from, yields every
//!    non-root block exactly once, in strictly ascending `(height, id)`.
//!
//! Violations are reported, not panicked, so background monitor threads can
//! collect them and fail a run at the end with context.

use std::collections::{HashMap, HashSet};
use std::fmt;

use btadt_types::{Block, BlockId, BlockTree, GENESIS_ID};

/// One detected violation of a BlockTree structural invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant family failed (stable, machine-matchable label).
    pub invariant: &'static str,
    /// The offending block, when the violation is attributable to one.
    pub block: Option<BlockId>,
    /// Human-readable description with the observed/expected values.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(id) => write!(f, "[{}] block {}: {}", self.invariant, id, self.detail),
            None => write!(f, "[{}] {}", self.invariant, self.detail),
        }
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(
    invariant: &'static str,
    block: Option<BlockId>,
    detail: String,
) -> InvariantViolation {
    InvariantViolation {
        invariant,
        block,
        detail,
    }
}

/// Checks every structural invariant, returning all violations found (empty
/// means the tree is sound).  Runs in `O(n)` over the tree's public API.
pub fn check_block_tree(tree: &BlockTree) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let mut recomputed_height = 0u64;
    let mut recomputed_max_fork = 0usize;
    let mut parents: HashSet<BlockId> = HashSet::new();

    for block in tree.blocks() {
        let id = block.id;
        if block.height > recomputed_height {
            recomputed_height = block.height;
        }
        // The child walk: exactly `fork_degree` entries, in strictly
        // increasing arena index (a child is appended when it is linked, and
        // its slot follows its parent's), each pointing back at this block.
        // Bounded by the tree's size, so a cyclic sibling list is reported,
        // not followed forever.
        let idx = tree.idx_of(id).expect("enumerated blocks resolve");
        let mut walked = 0usize;
        let mut prev = idx;
        for child in tree.children_idx(idx).take(tree.len()) {
            walked += 1;
            let child_block = tree.block_at(child);
            let child_id = child_block.id;
            if child <= prev {
                out.push(violation(
                    "links",
                    Some(id),
                    format!(
                        "child walk visits {child_id} at slot {} after slot {}",
                        child.0, prev.0
                    ),
                ));
            }
            if tree.parent_idx(child) != Some(idx) || child_block.parent != Some(id) {
                out.push(violation(
                    "links",
                    Some(id),
                    format!("child {child_id} does not point back at this parent"),
                ));
            }
            prev = child;
        }
        if walked != tree.fork_degree(id) {
            out.push(violation(
                "links",
                Some(id),
                format!(
                    "child walk yields {walked} entries, fork degree is {}",
                    tree.fork_degree(id)
                ),
            ));
        }
        recomputed_max_fork = recomputed_max_fork.max(walked);

        parents.extend(block.parent);
        let Some(parent_id) = block.parent else {
            // Exactly one parentless block is allowed: the genesis.
            if id != tree.genesis().id {
                out.push(violation(
                    "links",
                    Some(id),
                    "non-genesis block has no parent pointer".to_string(),
                ));
            }
            continue;
        };
        let Some(parent) = tree.get(parent_id) else {
            out.push(violation(
                "links",
                Some(id),
                format!("parent {parent_id} is not in the tree"),
            ));
            continue;
        };
        if block.height != parent.height + 1 {
            out.push(violation(
                "links",
                Some(id),
                format!(
                    "height {} is not parent height {} + 1",
                    block.height, parent.height
                ),
            ));
        }
        if !tree.children(parent_id).contains(&id) {
            out.push(violation(
                "links",
                Some(id),
                format!("parent {parent_id} does not list this block as a child"),
            ));
        }

        match (tree.cumulative_work(id), tree.cumulative_work(parent_id)) {
            (Some(own), Some(parents)) => {
                if own <= parents {
                    out.push(violation(
                        "work-monotone",
                        Some(id),
                        format!("cumulative work {own} does not exceed parent's {parents}"),
                    ));
                } else if own != parents + block.work {
                    out.push(violation(
                        "work-monotone",
                        Some(id),
                        format!(
                            "cumulative work {own} != parent {parents} + own work {}",
                            block.work
                        ),
                    ));
                }
            }
            _ => out.push(violation(
                "work-monotone",
                Some(id),
                "cumulative work is untracked for a present block".to_string(),
            )),
        }
    }

    // Every parent pointer names a present block (checked above), so the
    // blocks no pointer names are the leaves.
    let childless = tree.len() - parents.len();
    if tree.leaf_count() != childless {
        out.push(violation(
            "leaf-set",
            None,
            format!(
                "maintained leaf count {} != {childless} blocks no block names as its parent",
                tree.leaf_count()
            ),
        ));
    }

    if tree.height() != recomputed_height {
        out.push(violation(
            "aggregates",
            None,
            format!(
                "maintained height {} != recomputed {}",
                tree.height(),
                recomputed_height
            ),
        ));
    }
    if tree.max_fork_degree() != recomputed_max_fork {
        out.push(violation(
            "aggregates",
            None,
            format!(
                "maintained max fork degree {} != recomputed {}",
                tree.max_fork_degree(),
                recomputed_max_fork
            ),
        ));
    }

    check_reachability_labels(tree, &mut out);
    check_height_levels(tree, &mut out);

    out
}

/// The per-height lists: walked from the root's height they must list
/// every non-root block once, in the strictly ascending `(height, id)`
/// order that makes a capped delta-sync reply parents-first.
fn check_height_levels(tree: &BlockTree, out: &mut Vec<InvariantViolation>) {
    let root = tree.genesis();
    let mut listed = 0usize;
    let mut prev: Option<(u64, BlockId)> = None;
    // LINT-ALLOW: the audit walks the whole index on purpose
    for block in tree.delta_above(root.height) {
        let key = (block.height, block.id);
        if block.id == root.id {
            out.push(violation(
                "levels",
                Some(block.id),
                "the root is listed at a height".to_string(),
            ));
        }
        if let Some((h, id)) = prev.filter(|&p| p >= key) {
            out.push(violation(
                "levels",
                Some(block.id),
                format!(
                    "listed at height {} after block {id} at height {h}",
                    block.height
                ),
            ));
        }
        prev = Some(key);
        listed += 1;
    }
    if listed != tree.len() - 1 {
        out.push(violation(
            "levels",
            None,
            format!(
                "height lists hold {listed} blocks, the tree {} non-root ones",
                tree.len() - 1
            ),
        ));
    }
}

/// The reachability-labeling invariants: interval nesting (child strictly
/// inside the parent's usable range `[start, end-1)`), sibling disjointness,
/// and cursor bounds.  These are exactly the conditions under which interval
/// containment equals ancestry, so the O(1) `is_ancestor` fast path stays
/// trustworthy under fault injection.
fn check_reachability_labels(tree: &BlockTree, out: &mut Vec<InvariantViolation>) {
    for block in tree.blocks() {
        let idx = tree.idx_of(block.id).expect("enumerated blocks resolve");
        let iv = tree.interval_at(idx);
        if iv.start >= iv.end {
            out.push(violation(
                "reachability",
                Some(block.id),
                format!("empty labeling interval [{}, {})", iv.start, iv.end),
            ));
            continue;
        }
        let cursor = tree.interval_cursor_at(idx);
        if cursor < iv.start || cursor > iv.end - 1 {
            out.push(violation(
                "reachability",
                Some(block.id),
                format!(
                    "allocation cursor {cursor} outside usable range [{}, {})",
                    iv.start,
                    iv.end - 1
                ),
            ));
        }
        let mut child_ivs: Vec<_> = tree
            .children_idx(idx)
            .map(|c| (tree.block_at(c).id, tree.interval_at(c)))
            .collect();
        child_ivs.sort_by_key(|(_, c)| c.start);
        for (k, (child_id, child_iv)) in child_ivs.iter().enumerate() {
            if child_iv.start < iv.start || child_iv.end > iv.end - 1 {
                out.push(violation(
                    "reachability",
                    Some(*child_id),
                    format!(
                        "interval [{}, {}) escapes the parent's usable range [{}, {})",
                        child_iv.start,
                        child_iv.end,
                        iv.start,
                        iv.end - 1
                    ),
                ));
            }
            if k > 0 && child_ivs[k - 1].1.end > child_iv.start {
                out.push(violation(
                    "reachability",
                    Some(*child_id),
                    format!(
                        "interval [{}, {}) overlaps sibling {} ending at {}",
                        child_iv.start,
                        child_iv.end,
                        child_ivs[k - 1].0,
                        child_ivs[k - 1].1.end
                    ),
                ));
            }
        }
    }
}

/// Checks that a durable block set agrees with a (possibly pruned)
/// resident tree — the store↔tree contract of a checkpointed replica:
///
/// 1. **No duplicates** — the durable set stores each block id once.
/// 2. **Tree ⊆ store** — every resident block except the implicit genesis
///    is durable, and the durable copy is field-for-field identical.  The
///    tree's root is exempted from the parent-pointer comparison: a pruned
///    window's root is a boundary copy whose parent link was deliberately
///    cleared by rerooting, while the durable copy keeps the true pointer.
/// 3. **Store ⊆ tree above the floor** — every durable block strictly above
///    the tree root's height (the pruning floor) is resident; below the
///    floor the store legitimately holds cold history the tree dropped.
///
/// `stored` is the decoded durable set (e.g. `BlockStore::blocks()` from
/// `btadt-store`); taking plain blocks keeps this crate free of a store
/// dependency, so the check runs against any durable backend.
pub fn check_store_tree_agreement(tree: &BlockTree, stored: &[Block]) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    let floor = tree.genesis().height;
    let root_id = tree.genesis().id;
    let mut by_id: HashMap<BlockId, &Block> = HashMap::with_capacity(stored.len());
    for block in stored {
        if by_id.insert(block.id, block).is_some() {
            out.push(violation(
                "store-agree",
                Some(block.id),
                "stored more than once".to_string(),
            ));
        }
    }

    for block in tree.blocks() {
        if block.id == GENESIS_ID {
            // The genesis block is implicit everywhere and never persisted.
            continue;
        }
        match by_id.get(&block.id) {
            None => out.push(violation(
                "store-agree",
                Some(block.id),
                "resident in the tree but not durable".to_string(),
            )),
            Some(durable) => {
                let agrees = if block.id == root_id {
                    let mut normalized = (*durable).clone();
                    normalized.parent = block.parent;
                    normalized == *block
                } else {
                    **durable == *block
                };
                if !agrees {
                    out.push(violation(
                        "store-agree",
                        Some(block.id),
                        format!(
                            "durable copy (height {}, work {}) disagrees with the \
                             resident block (height {}, work {})",
                            durable.height, durable.work, block.height, block.work
                        ),
                    ));
                }
            }
        }
    }

    for block in stored {
        if block.height > floor && !tree.contains(block.id) {
            out.push(violation(
                "store-agree",
                Some(block.id),
                format!(
                    "durable at height {} above the pruning floor {floor} but not resident",
                    block.height
                ),
            ));
        }
    }

    out
}

/// [`check_block_tree`] as a `Result`, surfacing the first violation.
pub fn assert_block_tree(tree: &BlockTree) -> Result<(), InvariantViolation> {
    match check_block_tree(tree).into_iter().next() {
        None => Ok(()),
        Some(v) => Err(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::workload::Workload;
    use btadt_types::{Block, BlockBuilder};

    #[test]
    fn a_fresh_tree_is_sound() {
        assert!(check_block_tree(&BlockTree::new()).is_empty());
        assert_eq!(assert_block_tree(&BlockTree::new()), Ok(()));
    }

    #[test]
    fn random_trees_are_sound() {
        for seed in [1u64, 7, 23] {
            let tree = Workload::new(seed).random_tree(200, 0.6, 0);
            let violations = check_block_tree(&tree);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn reindexed_trees_keep_the_labeling_invariants() {
        // A wide star forces interval exhaustion and reindex passes; the
        // labeling family must stay clean through every pass.
        let tree = Workload::new(13).forked_tree(0, 200, 1);
        assert!(tree.reachability_reindexes() > 0, "star must reindex");
        let violations = check_block_tree(&tree);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_forked_window_keeps_its_height_levels() {
        // Four branches above a two-block prefix, re-rooted at the fork
        // point: the lists start at the root's absolute height.
        let full = Workload::new(13).forked_tree(2, 4, 5);
        let fork_point = full.blocks().find(|b| b.height == 2).unwrap().clone();
        let mut window = BlockTree::rerooted(fork_point);
        for block in full.blocks().filter(|b| b.height > 2) {
            window.insert(block.clone()).unwrap();
        }
        assert_eq!(window.len(), 21);
        let violations = check_block_tree(&window);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_forged_height_is_reported() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        tree.insert(a.clone()).unwrap();
        // Forge a block whose height skips a level but whose parent is the
        // genesis; the arena accepts only consistent heights, so build the
        // inconsistency by hand via a forged parent pointer instead.
        let mut b = BlockBuilder::new(&a).nonce(2).build();
        b.parent = Some(tree.genesis().id);
        // `insert` itself rejects the mismatch — that rejection is the
        // first line of defence the checker backstops.
        assert!(tree.insert(b).is_err());
        assert!(check_block_tree(&tree).is_empty());
    }

    #[test]
    fn store_tree_agreement_accepts_a_faithful_mirror() {
        let tree = Workload::new(11).random_tree(60, 0.5, 0);
        let stored: Vec<Block> = tree.blocks().filter(|b| !b.is_genesis()).cloned().collect();
        assert!(check_store_tree_agreement(&tree, &stored).is_empty());
    }

    #[test]
    fn store_tree_agreement_reports_gaps_duplicates_and_strays() {
        let mut tree = BlockTree::new();
        let a = BlockBuilder::new(tree.genesis()).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        tree.insert(a.clone()).unwrap();
        tree.insert(b.clone()).unwrap();
        // Gap: `b` resident but not durable.
        let gaps = check_store_tree_agreement(&tree, std::slice::from_ref(&a));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].block, Some(b.id));
        assert!(gaps[0].detail.contains("not durable"));
        // Duplicate durable copy.
        let dups = check_store_tree_agreement(&tree, &[a.clone(), a.clone(), b.clone()]);
        assert!(dups.iter().any(|v| v.detail.contains("more than once")));
        // A stray durable block above the floor that the tree never saw.
        let stray = BlockBuilder::new(&a).nonce(99).build();
        let strays = check_store_tree_agreement(&tree, &[a.clone(), b.clone(), stray.clone()]);
        assert_eq!(strays.len(), 1);
        assert_eq!(strays[0].block, Some(stray.id));
        assert!(strays[0].detail.contains("not resident"));
        // A forged durable copy under the resident block's id.
        let mut forged = b.clone();
        forged.work += 1;
        let forgeries = check_store_tree_agreement(&tree, &[a, forged]);
        assert!(forgeries.iter().any(|v| v.detail.contains("disagrees")));
    }

    #[test]
    fn store_tree_agreement_exempts_the_pruned_boundary_and_cold_history() {
        let mut full = BlockTree::new();
        let a = BlockBuilder::new(full.genesis()).nonce(1).build();
        let b = BlockBuilder::new(&a).nonce(2).build();
        let c = BlockBuilder::new(&b).nonce(3).build();
        for blk in [&a, &b, &c] {
            full.insert(blk.clone()).unwrap();
        }
        // A hot window rooted at `b`: the resident root is a boundary copy
        // with its parent pointer cleared, the store keeps the true block.
        let mut window = BlockTree::rerooted(b.clone());
        window.insert(c.clone()).unwrap();
        let stored = vec![a, b, c];
        let violations = check_store_tree_agreement(&window, &stored);
        assert!(
            violations.is_empty(),
            "boundary copy and cold spine are legitimate: {violations:?}"
        );
    }

    #[test]
    fn violations_render_with_invariant_labels() {
        let v = InvariantViolation {
            invariant: "leaf-set",
            block: Some(Block::genesis().id),
            detail: "demo".to_string(),
        };
        assert!(v.to_string().contains("[leaf-set]"));
        let anon = InvariantViolation {
            invariant: "aggregates",
            block: None,
            detail: "demo".to_string(),
        };
        assert!(anon.to_string().starts_with("[aggregates]"));
    }
}
