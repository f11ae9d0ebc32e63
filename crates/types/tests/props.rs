//! Property-based tests for the core data structures.
//!
//! Two families of properties:
//!
//! 1. **Observational equivalence** — the arena-indexed [`BlockTree`] must
//!    behave exactly like the naive map-based [`NaiveBlockTree`] (the
//!    executable specification) under random insert/merge sequences,
//!    including out-of-order and duplicate inserts: same insert outcomes,
//!    same leaves, heights, fork degrees, cumulative/subtree works, same
//!    `read()` chain under every selection rule, and the same capped
//!    delta-sync prefixes (`delta_above(h).take(k)`), re-rooted windows
//!    included.  A known id re-offered with a forged height, parent or
//!    work is a `Duplicate` through every door (`insert`, `insert_batch`,
//!    `Ingest::ingest_batch`), exactly as in the spec.
//! 2. **Algebraic laws** the rest of the workspace relies on: score
//!    monotonicity, prefix-relation laws, selection determinism and
//!    tree/chain consistency.
//!
//! Cases are driven by the workspace's deterministic ChaCha8 generator, so
//! every failure reproduces from its printed seed.

use std::collections::HashMap;

use btadt_types::rng::ChaCha8;

use btadt_pipeline::{Ingest, IngestVerdict};

use btadt_types::workload::Workload;
use btadt_types::{
    Block, BlockBuilder, BlockId, BlockTree, Blockchain, GhostSelection, HeaviestChain,
    InsertError, LengthScore, LongestChain, NaiveBlockTree, Score, SelectionFunction, TieBreak,
    WorkScore, GENESIS_ID,
};

const CASES: u64 = 96;

/// Deterministic per-case parameters: (seed, size, chain-bias).
fn tree_params(case: u64) -> (u64, usize, f64) {
    let mut rng = ChaCha8::new(0xbead_5eed ^ case);
    let seed = rng.next_u64() % 5_000;
    let size = 1 + (rng.next_u64() % 80) as usize;
    let bias = f64::from((rng.next_u64() % 101) as u32) / 100.0;
    (seed, size, bias)
}

fn build_tree(seed: u64, size: usize, bias: f64) -> BlockTree {
    Workload::new(seed).random_tree(size, bias, 1)
}

// ---------------------------------------------------------------------------
// Arena tree ≡ naive reference
// ---------------------------------------------------------------------------

/// A randomised stream of insert attempts: mostly valid blocks attached to
/// random known parents, plus duplicates, orphans (unknown parents, possibly
/// delivered out of order), height-corrupted blocks and forged duplicates
/// (a known id re-offered with a corrupted height, an unknown parent or a
/// work that overflows).
fn random_insert_sequence(seed: u64, len: usize) -> Vec<Block> {
    let mut rng = ChaCha8::new(seed);
    let mut w = Workload::new(seed ^ 0x5a5a);
    let mut known: Vec<Block> = vec![Block::genesis()];
    let mut sequence: Vec<Block> = Vec::with_capacity(len);
    let mut deferred: Vec<Block> = Vec::new();

    for _ in 0..len {
        let roll = rng.next_u64() % 100;
        if roll < 60 || known.len() == 1 {
            // Valid insert under a random known parent.
            let parent = known[rng.gen_range(0..known.len())].clone();
            let block = w.block_on(&parent, (roll % 8) as u32, 1, 4);
            known.push(block.clone());
            sequence.push(block);
        } else if roll < 72 {
            // Duplicate of an already-emitted block.
            let block = known[rng.gen_range(0..known.len())].clone();
            if block.is_genesis() {
                continue;
            }
            sequence.push(block);
        } else if roll < 84 {
            // Orphan pair: child emitted now, parent deferred (out of order).
            let parent = known[rng.gen_range(0..known.len())].clone();
            let middle = w.block_on(&parent, 7, 0, 2);
            let child = w.block_on(&middle, 7, 0, 2);
            sequence.push(child);
            deferred.push(middle);
        } else if roll < 92 {
            // Height-corrupted block.
            let parent = known[rng.gen_range(0..known.len())].clone();
            let mut block = w.block_on(&parent, 3, 0, 2);
            block.height += 1 + rng.next_u64() % 3;
            sequence.push(block);
        } else if roll < 96 {
            // Forged duplicate: invalid for a second reason besides its id.
            let mut block = known[rng.gen_range(0..known.len())].clone();
            if block.is_genesis() {
                continue;
            }
            match rng.next_u64() % 3 {
                0 => block.height += 1 + rng.next_u64() % 3,
                1 => block.parent = Some(BlockId(rng.next_u64())),
                _ => block.work = u64::MAX,
            }
            sequence.push(block);
        } else if let Some(parent) = deferred.pop() {
            // Deliver a deferred parent late: it becomes insertable now.
            known.push(parent.clone());
            sequence.push(parent);
        }
    }
    sequence
}

/// Asserts every observable of the two implementations agrees.
fn assert_equivalent(case: u64, arena: &BlockTree, naive: &NaiveBlockTree) {
    assert_eq!(arena.len(), naive.len(), "case {case}: len");
    assert_eq!(arena.is_empty(), naive.is_empty(), "case {case}: is_empty");
    assert_eq!(arena.height(), naive.height(), "case {case}: height");
    assert_eq!(arena.leaves(), naive.leaves(), "case {case}: leaves");
    assert_eq!(
        arena.max_fork_degree(),
        naive.max_fork_degree(),
        "case {case}: max fork degree"
    );
    assert_eq!(arena.sorted_ids(), naive.sorted_ids(), "case {case}: ids");

    for id in arena.sorted_ids() {
        assert_eq!(
            arena.fork_degree(id),
            naive.fork_degree(id),
            "case {case}: fork degree of {id}"
        );
        let mut arena_children = arena.children(id);
        let mut naive_children = naive.children(id);
        arena_children.sort_unstable();
        naive_children.sort_unstable();
        assert_eq!(
            arena_children, naive_children,
            "case {case}: children of {id}"
        );
        assert_eq!(
            arena.cumulative_work(id),
            naive.cumulative_work(id),
            "case {case}: cumulative work of {id}"
        );
        assert_eq!(
            arena.subtree_work(id),
            naive.subtree_work(id),
            "case {case}: subtree work of {id}"
        );
        assert_eq!(
            arena.subtree_size(id),
            naive.subtree_size(id),
            "case {case}: subtree size of {id}"
        );
        assert_eq!(
            arena.chain_to(id),
            naive.chain_to(id),
            "case {case}: chain to {id}"
        );
        assert_eq!(arena.get(id), naive.get(id), "case {case}: block {id}");
    }

    for tie in [TieBreak::LargestId, TieBreak::SmallestId] {
        assert_eq!(
            LongestChain::with_tie_break(tie).select(arena),
            naive.select_longest(tie),
            "case {case}: longest-chain read ({tie:?})"
        );
        assert_eq!(
            HeaviestChain::with_tie_break(tie).select(arena),
            naive.select_heaviest(tie),
            "case {case}: heaviest-chain read ({tie:?})"
        );
        assert_eq!(
            GhostSelection::with_tie_break(tie).select(arena),
            naive.select_ghost(tie),
            "case {case}: GHOST read ({tie:?})"
        );
    }
}

/// The naive tree holding the same blocks as a genesis-rooted arena tree.
fn naive_mirror(tree: &BlockTree) -> NaiveBlockTree {
    let mut naive = NaiveBlockTree::new();
    for block in tree.blocks().skip(1) {
        naive
            .insert(block.clone())
            .expect("arena order is insertable");
    }
    naive
}

#[test]
fn arena_tree_is_observationally_equivalent_to_the_naive_reference() {
    let mut forged = 0;
    for case in 0..CASES {
        let (seed, size, _) = tree_params(case);
        let sequence = random_insert_sequence(seed, size.max(4) * 2);
        let mut arena = BlockTree::new();
        let mut naive = NaiveBlockTree::new();
        let mut outcomes = Vec::with_capacity(sequence.len());
        for block in &sequence {
            let a = arena.insert(block.clone());
            let n = naive.insert(block.clone());
            assert_eq!(a, n, "case {case}: insert outcomes must agree");
            outcomes.push(n);
        }
        assert_equivalent(case, &arena, &naive);

        // The batch doors decide every block as the single inserts did.
        let batched = BlockTree::new().insert_batch(&sequence);
        assert_eq!(batched, outcomes, "case {case}: insert_batch");
        let ingested = BlockTree::new().ingest_batch(sequence.clone());
        assert_eq!(
            ingested,
            NaiveBlockTree::new().ingest_batch(sequence.clone()),
            "case {case}: ingest_batch"
        );
        // Every re-offered id is refused as a duplicate, whatever else is
        // wrong with the copy.
        let mut accepted: HashMap<BlockId, &Block> = HashMap::new();
        for (pos, block) in sequence.iter().enumerate() {
            if let Some(original) = accepted.get(&block.id) {
                forged += usize::from(*original != block);
                let what = format!("case {case}, position {pos}");
                assert_eq!(
                    outcomes[pos],
                    Err(InsertError::Duplicate(block.id)),
                    "{what}"
                );
                assert_eq!(ingested.verdicts[pos], IngestVerdict::Duplicate, "{what}");
            } else if outcomes[pos].is_ok() {
                accepted.insert(block.id, block);
            }
        }
    }
    assert!(forged > 0, "the sequences offer forged duplicates");
}

#[test]
fn arena_and_naive_agree_under_random_merges() {
    for case in 0..CASES / 2 {
        let (seed_a, size_a, bias_a) = tree_params(case);
        let (seed_b, size_b, bias_b) = tree_params(case + 10_000);

        // Build two independent arena trees and their naive mirrors.
        let arena_a = build_tree(seed_a, size_a, bias_a);
        let arena_b = build_tree(seed_b, size_b, bias_b);
        let naive_a = naive_mirror(&arena_a);
        let naive_b = naive_mirror(&arena_b);

        let mut arena_merged = arena_a.clone();
        let inserted_arena = arena_merged.merge(&arena_b);
        let mut naive_merged = naive_a.clone();
        let inserted_naive = naive_merged.merge(&naive_b);
        assert_eq!(inserted_arena, inserted_naive, "case {case}: merge count");
        assert_equivalent(case, &arena_merged, &naive_merged);

        // Merging is idempotent...
        let mut again = arena_merged.clone();
        assert_eq!(again.merge(&arena_b), 0, "case {case}");
        // ...and commutative on the block set.
        let mut other_way = arena_b.clone();
        other_way.merge(&arena_a);
        assert_eq!(
            arena_merged.sorted_ids(),
            other_way.sorted_ids(),
            "case {case}: merge commutes"
        );
    }
}

// ---------------------------------------------------------------------------
// Delta-sync walk ≡ naive collect-filter-sort
// ---------------------------------------------------------------------------

/// Asserts `delta_above(h).take(k)` is the first `k` blocks of `spec(h)`
/// for every floor from 0 to one above the top and every cap in
/// {0, 1, 16, all}.
fn assert_delta_matches(what: &str, tree: &BlockTree, spec: impl Fn(u64) -> Vec<Block>) {
    for h in 0..=tree.height() + 1 {
        let expected = spec(h);
        for k in [0, 1, 16, usize::MAX] {
            let got: Vec<Block> = tree.delta_above(h).take(k).cloned().collect();
            assert_eq!(
                got.as_slice(),
                &expected[..k.min(expected.len())],
                "{what}: floor {h}, cap {k}"
            );
        }
    }
}

/// A two-sibling ladder: every height holds two blocks and the chain
/// continues on the larger-id one — the shape two racing miners produce.
fn sibling_ladder(levels: u64) -> BlockTree {
    let mut tree = BlockTree::new();
    let mut tip = Block::genesis();
    for level in 0..levels {
        let sibling = |slot: u64| {
            BlockBuilder::new(&tip)
                .producer(slot as u32)
                .nonce(level * 2 + slot + 1)
                .build()
        };
        let (a, b) = (sibling(0), sibling(1));
        tree.insert(a.clone()).unwrap();
        tree.insert(b.clone()).unwrap();
        tip = if a.id > b.id { a } else { b };
    }
    tree
}

#[test]
fn delta_above_takes_the_spec_prefix_on_forked_trees_windows_and_the_ladder() {
    for case in 0..CASES {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let naive = naive_mirror(&tree);
        assert_delta_matches(&format!("case {case}"), &tree, |h| naive.delta_above(h));

        // A window re-rooted at a block a third of the way into the arena:
        // the spec is the naive walk over the window's non-root blocks.
        let root = tree.blocks().nth(tree.len() / 3).unwrap().clone();
        let mut window = BlockTree::rerooted(root.clone());
        for block in tree.blocks() {
            if block.parent.is_some_and(|p| window.contains(p)) {
                window.insert(block.clone()).unwrap();
            }
        }
        assert_delta_matches(&format!("case {case} window"), &window, |h| {
            let mut spec = naive.delta_above(h);
            spec.retain(|b| b.id != root.id && window.contains(b.id));
            spec
        });
    }

    // Heights wider than a batch, so a capped reply ends mid-height.
    for seed in 0..8 {
        let tree = Workload::new(seed).forked_tree(3, 24, 4);
        let naive = naive_mirror(&tree);
        assert_delta_matches(&format!("wide fork {seed}"), &tree, |h| {
            naive.delta_above(h)
        });
    }

    let ladder = sibling_ladder(120);
    let naive = naive_mirror(&ladder);
    assert_delta_matches("ladder", &ladder, |h| naive.delta_above(h));
}

// ---------------------------------------------------------------------------
// Chain and score laws (ported from the original proptest suite)
// ---------------------------------------------------------------------------

#[test]
fn chains_start_at_genesis_with_linked_heights() {
    for case in 0..CASES {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        for chain in tree.all_chains() {
            assert!(chain[0].is_genesis());
            for w in chain.blocks().windows(2) {
                assert_eq!(w[1].height, w[0].height + 1);
                assert_eq!(w[1].parent, Some(w[0].id));
            }
        }
    }
}

#[test]
fn scores_strictly_monotonic() {
    for case in 0..CASES / 2 {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let scores: [&dyn Score; 2] = [&LengthScore, &WorkScore];
        for chain in tree.all_chains() {
            for s in scores {
                for k in 1..chain.len() {
                    assert!(
                        s.score(&chain.truncated(k)) > s.score(&chain.truncated(k - 1)),
                        "case {case}: {} monotonic",
                        s.name()
                    );
                }
            }
        }
    }
}

#[test]
fn prefix_relation_is_partial_order() {
    for case in 0..CASES / 2 {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let chains = tree.all_chains();
        for a in &chains {
            assert!(a.is_prefix_of(a));
            for b in &chains {
                if a.is_prefix_of(b) && b.is_prefix_of(a) {
                    assert_eq!(a, b, "case {case}: antisymmetry");
                }
                for c in &chains {
                    if a.is_prefix_of(b) && b.is_prefix_of(c) {
                        assert!(a.is_prefix_of(c), "case {case}: transitivity");
                    }
                }
            }
        }
    }
}

#[test]
fn mcps_laws() {
    for case in 0..CASES / 2 {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let chains = tree.all_chains();
        let s = LengthScore;
        for a in &chains {
            for b in &chains {
                let m = s.mcps(a, b);
                assert_eq!(m, s.mcps(b, a), "case {case}: symmetry");
                assert!(m <= s.score(a) && m <= s.score(b), "case {case}: bound");
                if a.is_prefix_of(b) {
                    assert_eq!(m, s.score(a), "case {case}: prefix-compatible");
                }
            }
        }
    }
}

#[test]
fn selection_returns_existing_maximal_chain_deterministically() {
    for case in 0..CASES {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let fns: [&dyn SelectionFunction; 3] = [
            &LongestChain::new(),
            &HeaviestChain::new(),
            &GhostSelection::new(),
        ];
        for f in fns {
            let a = f.select(&tree);
            let b = f.select(&tree);
            assert_eq!(a, b, "case {case}: {} deterministic", f.name());
            let tip = a.tip().id;
            assert!(
                tree.children(tip).is_empty(),
                "case {case}: {} returns a maximal chain",
                f.name()
            );
            assert_eq!(tree.chain_to(tip).unwrap(), a, "case {case}: {}", f.name());
        }
    }
}

#[test]
fn selection_maximises_its_score() {
    for case in 0..CASES {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let longest = LongestChain::new().select(&tree);
        let heaviest = HeaviestChain::new().select(&tree);
        for leaf in tree.leaves() {
            let chain = tree.chain_to(leaf).unwrap();
            assert!(chain.height() <= longest.height(), "case {case}");
            assert!(chain.total_work() <= heaviest.total_work(), "case {case}");
        }
    }
}

#[test]
fn genesis_is_unique_root() {
    for case in 0..CASES / 2 {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        assert!(tree.contains(GENESIS_ID));
        let roots: Vec<_> = tree.blocks().filter(|b| b.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "case {case}");
        assert!(roots[0].is_genesis(), "case {case}");
    }
}

#[test]
fn truncation_yields_prefixes() {
    for case in 0..CASES {
        let mut rng = ChaCha8::new(case);
        let len = (rng.next_u64() % 40) as usize;
        let k = (rng.next_u64() % 50) as usize;
        let chain = Workload::new(case).linear_chain(len, 0);
        let t = chain.truncated(k);
        assert!(t.is_prefix_of(&chain), "case {case}");
        assert_eq!(t.len(), (k + 1).min(chain.len()), "case {case}");
    }
}

#[test]
fn common_prefix_is_shared_prefix() {
    for case in 0..CASES / 2 {
        let (seed, size, bias) = tree_params(case);
        let tree = build_tree(seed, size, bias);
        let chains = tree.all_chains();
        for a in &chains {
            for b in &chains {
                let p = a.common_prefix(b);
                assert!(p.is_prefix_of(a), "case {case}");
                assert!(p.is_prefix_of(b), "case {case}");
                assert!(tree.contains(p.tip().id), "case {case}");
            }
        }
    }
}

/// Non-randomised sanity check: Blockchain equality is structural.
#[test]
fn chain_equality_is_structural() {
    let mut w1 = Workload::new(99);
    let mut w2 = Workload::new(99);
    assert_eq!(w1.linear_chain(12, 2), w2.linear_chain(12, 2));
    assert_eq!(Blockchain::genesis_only(), Blockchain::default());
}

/// The extended builder path and the tree path produce identical chains.
#[test]
fn extension_and_tree_walk_agree() {
    let mut w = Workload::new(4242);
    let mut chain = Blockchain::genesis_only();
    let mut tree = BlockTree::new();
    for _ in 0..32 {
        let block = BlockBuilder::new(chain.tip())
            .nonce(w.next_transaction().id.0)
            .build();
        chain = chain.extended_with(block.clone()).unwrap();
        tree.insert(block).unwrap();
    }
    assert_eq!(tree.chain_to(chain.tip().id).unwrap(), chain);
    assert_eq!(LongestChain::new().select(&tree), chain);
}
