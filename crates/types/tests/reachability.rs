//! Differential battery for the interval-labeled reachability index.
//!
//! Two families:
//!
//! 1. **Differential property tests** — for every tree shape (chains, stars,
//!    balanced, adversarial deep forks, random mixes) and every node pair,
//!    `BlockTree::is_ancestor` must agree with the naive parent-walk over
//!    [`NaiveBlockTree`] (the executable spec), and `mcp_idx` must agree
//!    with the walk-computed lowest common ancestor — including on
//!    post-`rerooted` pruned windows, where the labels are rebased.
//!
//! 2. **Reindexing stress** — adversarial append orders that exhaust the
//!    interval space and force amortized reindex passes, asserting the
//!    nesting invariants (child ⊂ parent, siblings disjoint, cursors in
//!    bounds) survive every pass.

use btadt_types::rng::ChaCha8;

use btadt_types::workload::Workload;
use btadt_types::{BlockBuilder, BlockId, BlockTree, NaiveBlockTree, NodeIdx};

/// The executable spec: does `a` reach `b` by walking parent pointers?
fn naive_is_ancestor(naive: &NaiveBlockTree, a: BlockId, b: BlockId) -> bool {
    let mut cursor = Some(b);
    while let Some(id) = cursor {
        if id == a {
            return true;
        }
        cursor = naive.get(id).and_then(|blk| blk.parent);
    }
    false
}

/// Parent-walk ancestor check on the arena itself (used for pruned windows,
/// whose root block is not insertable into a genesis-rooted spec tree).
fn walk_is_ancestor(tree: &BlockTree, a: NodeIdx, b: NodeIdx) -> bool {
    let mut cursor = Some(b);
    while let Some(idx) = cursor {
        if idx == a {
            return true;
        }
        cursor = tree.parent_idx(idx);
    }
    false
}

/// Walk-computed lowest common ancestor (the spec for `mcp_idx`).
fn walk_mcp(tree: &BlockTree, a: NodeIdx, b: NodeIdx) -> NodeIdx {
    let mut cursor = a;
    while !walk_is_ancestor(tree, cursor, b) {
        cursor = tree.parent_idx(cursor).expect("root reaches everything");
    }
    cursor
}

/// Exhaustive pairwise agreement of the index with the parent walk, plus
/// the interval nesting invariants.
fn assert_index_agrees(label: &str, tree: &BlockTree) {
    let n = tree.len() as u32;
    for a in 0..n {
        for b in 0..n {
            let (a, b) = (NodeIdx(a), NodeIdx(b));
            assert_eq!(
                tree.is_ancestor_idx(a, b),
                walk_is_ancestor(tree, a, b),
                "{label}: is_ancestor({a:?}, {b:?}) disagrees with the parent walk"
            );
            assert_eq!(
                tree.mcp_idx(a, b),
                walk_mcp(tree, a, b),
                "{label}: mcp_idx({a:?}, {b:?}) disagrees with the parent walk"
            );
        }
    }
    assert_nesting_invariants(label, tree);
}

/// The structural invariants the labeling maintains: every child interval
/// strictly inside its parent's (below the reserved top unit), siblings
/// pairwise disjoint, and allocation cursors inside the usable range.
fn assert_nesting_invariants(label: &str, tree: &BlockTree) {
    for i in 0..tree.len() as u32 {
        let idx = NodeIdx(i);
        let iv = tree.interval_at(idx);
        assert!(iv.start < iv.end, "{label}: node {i} has an empty interval");
        let cursor = tree.interval_cursor_at(idx);
        assert!(
            iv.start <= cursor && cursor < iv.end,
            "{label}: node {i} cursor {cursor} outside usable [{}, {})",
            iv.start,
            iv.end - 1
        );
        let mut children: Vec<_> = tree
            .children_idx(idx)
            .map(|c| tree.interval_at(c))
            .collect();
        children.sort_by_key(|c| c.start);
        for (k, child) in children.iter().enumerate() {
            assert!(
                iv.start <= child.start && child.end < iv.end,
                "{label}: child interval [{}, {}) escapes parent {i}'s usable [{}, {})",
                child.start,
                child.end,
                iv.start,
                iv.end - 1
            );
            if k > 0 {
                assert!(
                    children[k - 1].end <= child.start,
                    "{label}: sibling intervals under node {i} overlap"
                );
            }
        }
    }
}

/// Mirrors a genesis-rooted arena tree into the naive spec and checks the
/// index against the spec's parent walk for every pair of ids.
fn assert_matches_reference(label: &str, tree: &BlockTree) {
    let mut naive = NaiveBlockTree::new();
    for block in tree.blocks().skip(1) {
        naive
            .insert(block.clone())
            .expect("arena order is insertable");
    }
    let ids = tree.sorted_ids();
    for &a in &ids {
        for &b in &ids {
            assert_eq!(
                tree.is_ancestor(a, b),
                Some(naive_is_ancestor(&naive, a, b)),
                "{label}: is_ancestor({a}, {b}) disagrees with the reference"
            );
        }
    }
    assert_index_agrees(label, tree);
}

// ---------------------------------------------------------------------------
// Differential battery: shapes × seeds
// ---------------------------------------------------------------------------

#[test]
fn chains_agree_with_the_reference() {
    for seed in [1u64, 7, 23] {
        let tree = Workload::new(seed).random_tree(100, 1.0, 0);
        assert_eq!(tree.max_fork_degree(), 1, "bias 1.0 yields a chain");
        assert_matches_reference(&format!("chain seed {seed}"), &tree);
    }
}

#[test]
fn stars_agree_with_the_reference() {
    for (forks, branch) in [(40, 1), (12, 4)] {
        let tree = Workload::new(9).forked_tree(0, forks, branch);
        assert_matches_reference(&format!("star {forks}x{branch}"), &tree);
    }
}

#[test]
fn balanced_trees_agree_with_the_reference() {
    // A complete binary tree built breadth-first.
    let mut tree = BlockTree::new();
    let mut frontier = vec![tree.genesis().clone()];
    let mut nonce = 0u64;
    for _level in 0..6 {
        let mut next = Vec::new();
        for parent in &frontier {
            for _ in 0..2 {
                nonce += 1;
                let block = BlockBuilder::new(parent).nonce(nonce).build();
                tree.insert(block.clone()).unwrap();
                next.push(block);
            }
        }
        frontier = next;
    }
    assert_eq!(tree.len(), 127);
    assert_matches_reference("balanced binary", &tree);
}

#[test]
fn adversarial_deep_forks_agree_with_the_reference() {
    // A deep spine that forks repeatedly near the tip: each fork point sits
    // inside an interval already narrowed by its depth, the worst case for
    // exhaustion-driven reindexing.
    let mut w = Workload::new(31);
    let mut tree = BlockTree::new();
    let mut spine = tree.genesis().clone();
    for depth in 0..40 {
        let next = w.block_on(&spine, 0, 0, 1);
        tree.insert(next.clone()).unwrap();
        if depth % 5 == 0 {
            // Burst of siblings at the current spine tip.
            for p in 1..8 {
                let fork = w.block_on(&spine, p, 0, 1);
                tree.insert(fork).unwrap();
            }
        }
        spine = next;
    }
    assert_matches_reference("adversarial deep forks", &tree);
}

#[test]
fn random_trees_agree_with_the_reference_across_seeds() {
    for case in 0..12u64 {
        let mut rng = ChaCha8::new(0x5eed_ab1e ^ case);
        let seed = rng.next_u64() % 10_000;
        let size = 20 + (rng.next_u64() % 90) as usize;
        let bias = f64::from((rng.next_u64() % 101) as u32) / 100.0;
        let tree = Workload::new(seed).random_tree(size, bias, 0);
        assert_matches_reference(
            &format!("random seed={seed} size={size} bias={bias}"),
            &tree,
        );
    }
}

#[test]
fn rerooted_pruned_windows_rebase_the_labels() {
    for seed in [3u64, 17, 101] {
        let full = Workload::new(seed).random_tree(80, 0.6, 0);
        // Re-root at a mid-height block on the best chain: the pruned
        // window's labels are rebuilt from scratch, so ancestor queries
        // inside the surviving window keep working.
        let spine = full
            .chain_to(full.best_leaf_by_height(false))
            .expect("best leaf resolves");
        let pivot = spine.blocks()[spine.len() / 2].clone();
        let pivot_idx = full.idx_of(pivot.id).unwrap();

        let mut window = BlockTree::rerooted(pivot.clone());
        // Reinsert the pivot's descendants in arena order (parents first).
        for block in full.blocks().skip(1) {
            let idx = full.idx_of(block.id).unwrap();
            if idx != pivot_idx && full.is_ancestor_idx(pivot_idx, idx) {
                window.insert(block.clone()).unwrap();
            }
        }
        assert_index_agrees(&format!("rerooted window seed {seed}"), &window);

        // Containment inside the window matches containment in the full
        // tree restricted to the window's blocks.
        for &a in &window.sorted_ids() {
            for &b in &window.sorted_ids() {
                assert_eq!(
                    window.is_ancestor(a, b),
                    full.is_ancestor(a, b),
                    "seed {seed}: window and full tree disagree on ({a}, {b})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reindexing stress
// ---------------------------------------------------------------------------

#[test]
fn sibling_bursts_force_reindexing() {
    // After the first child's subtractive grant, a parent keeps at most
    // SLACK = 4096 units, so exponential splitting admits ~12 more siblings
    // before the interval space is exhausted and a reindex pass must run.
    let mut w = Workload::new(5);
    let mut tree = BlockTree::new();
    let mut spine = tree.genesis().clone();
    for _ in 0..3 {
        let next = w.block_on(&spine, 0, 0, 1);
        tree.insert(next.clone()).unwrap();
        spine = next;
    }
    for p in 0..64 {
        let fork = w.block_on(&spine, p, 0, 1);
        tree.insert(fork).unwrap();
    }
    assert!(
        tree.reachability_reindexes() > 0,
        "64 siblings under one deep parent must exhaust the interval space"
    );
    assert_matches_reference("sibling burst", &tree);
}

#[test]
fn wide_star_reindexes_and_stays_consistent() {
    let tree = Workload::new(13).forked_tree(0, 200, 1);
    assert!(
        tree.reachability_reindexes() > 0,
        "200 genesis children must trigger reindexing"
    );
    assert_matches_reference("wide star", &tree);
}

#[test]
fn comb_growth_survives_repeated_reindexing() {
    // A comb: every spine node also sprouts a burst of leaf teeth, so
    // exhaustion hits at many different depths and the reindex roots climb.
    let mut w = Workload::new(77);
    let mut tree = BlockTree::new();
    let mut spine = tree.genesis().clone();
    for _ in 0..12 {
        for p in 1..20 {
            let tooth = w.block_on(&spine, p, 0, 1);
            tree.insert(tooth).unwrap();
        }
        let next = w.block_on(&spine, 0, 0, 1);
        tree.insert(next.clone()).unwrap();
        spine = next;
    }
    assert!(tree.reachability_reindexes() > 0, "combs must reindex");
    assert_matches_reference("comb", &tree);
}

#[test]
fn narrow_rerooted_window_reindexes_from_scratch() {
    // A rerooted window restarts with the full width; stress it with the
    // same sibling-burst adversary to cover reindexing on rebased labels.
    let mut w = Workload::new(41);
    let mut full = BlockTree::new();
    let root = w.block_on(full.genesis(), 0, 0, 1);
    full.insert(root.clone()).unwrap();

    let mut window = BlockTree::rerooted(root.clone());
    let mut spine = root;
    for _ in 0..4 {
        for p in 1..40 {
            let fork = w.block_on(&spine, p, 0, 1);
            window.insert(fork).unwrap();
        }
        let next = w.block_on(&spine, 0, 0, 1);
        window.insert(next.clone()).unwrap();
        spine = next;
    }
    assert!(window.reachability_reindexes() > 0);
    assert_index_agrees("rerooted stress window", &window);
}

#[test]
fn deep_chains_never_reindex() {
    // The subtractive first-child grant means pure chain growth consumes
    // only SLACK units per level out of 2^64 — no reindex, ever.
    let tree = Workload::new(2).random_tree(2_000, 1.0, 0);
    assert_eq!(
        tree.reachability_reindexes(),
        0,
        "chains must never exhaust the interval space"
    );
    // Spot-check agreement on the spine without the O(n²) sweep.
    let tip = tree.idx_of(tree.best_leaf_by_height(false)).unwrap();
    assert!(tree.is_ancestor_idx(NodeIdx::GENESIS, tip));
    assert!(!tree.is_ancestor_idx(tip, NodeIdx::GENESIS));
    assert_eq!(tree.mcp_idx(tip, NodeIdx(1000)), NodeIdx(1000));
    assert_nesting_invariants("deep chain", &tree);
}

#[test]
fn merge_preserves_index_agreement() {
    // Merging imports blocks through insert(), so the labels ride along.
    let a = Workload::new(51).random_tree(60, 0.4, 0);
    let mut b = Workload::new(52).random_tree(60, 0.7, 0);
    b.merge(&a);
    assert_matches_reference("merged trees", &b);
}
