//! Differential test of the flat `K[]` arena against the layout it
//! replaced: a `Vec<Block>` per parent behind an id index, plus one global
//! `HashSet<u64>` of consumed serials.
//!
//! Seeded sequences with `k ∈ {1, 2, 3, ∞}` over at most 8 interleaved
//! parents mint grants (some for a candidate block already granted, under
//! a new serial) and consume each one 1–3 times, interleaved with other
//! grants; two long prodigal sequences make lists span arena chunks.
//! After every consume, `FrugalOracle` / `ProdigalOracle` and
//! `SimulatedPow` must agree with the reference on `accepted`, on every
//! `K[h]` in order and on `OracleStats`.  Re-granted blocks are what make
//! freshness by block id (instead of by serial) fail this test.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use btadt_oracle::{
    ConsumeOutcome, FrugalOracle, MeritTable, OracleConfig, OracleStats, ProdigalOracle,
    SimulatedPow, TokenGrant, TokenOracle,
};
use btadt_types::rng::ChaCha8;
use btadt_types::{Block, BlockBuilder, BlockId};

/// The `K[]` layout and `consumeToken` body before the flat arena.
#[derive(Default)]
struct Reference {
    k: Option<usize>,
    index: HashMap<BlockId, usize>,
    slots: Vec<Vec<Block>>,
    consumed_serials: HashSet<u64>,
    stats: OracleStats,
}

impl Reference {
    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome {
        self.stats.consume_calls += 1;
        let next = self.slots.len();
        let idx = *self.index.entry(grant.parent).or_insert(next);
        if idx == next {
            self.slots.push(Vec::new());
        }
        let slot = &mut self.slots[idx];
        let under_bound = self.k.is_none_or(|k| slot.len() < k);
        let fresh = !self.consumed_serials.contains(&grant.serial);
        let accepted = under_bound && fresh;
        if accepted {
            self.consumed_serials.insert(grant.serial);
            slot.push(grant.block.clone());
            self.stats.tokens_consumed += 1;
        }
        ConsumeOutcome {
            accepted,
            slot: slot.clone(),
        }
    }

    fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.index
            .get(&parent)
            .map_or_else(Vec::new, |&idx| self.slots[idx].clone())
    }
}

fn always_granting(seed: u64) -> OracleConfig {
    OracleConfig {
        seed,
        probability_scale: 1e9,
        min_probability: 1.0,
    }
}

/// Every oracle whose `K[]` is under test, for fork bound `k`.
fn oracles(k: Option<usize>, seed: u64) -> Vec<Box<dyn TokenOracle>> {
    let merits = || MeritTable::uniform(4);
    let frugal: Box<dyn TokenOracle> = match k {
        Some(k) => Box::new(FrugalOracle::new(k, merits(), always_granting(seed))),
        None => Box::new(ProdigalOracle::new(merits(), always_granting(seed))),
    };
    vec![
        frugal,
        Box::new(SimulatedPow::new(k, merits(), always_granting(seed))),
    ]
}

/// Runs one seeded sequence against `oracle`, consuming every grant it
/// mints 1–3 times; returns how many accepted consumes put a block into a
/// `K[h]` that already held it (a re-granted block under a fresh serial).
fn run(seed: u64, k: Option<usize>, steps: Range<u64>, oracle: &mut dyn TokenOracle) -> usize {
    let mut rng = ChaCha8::new(seed);
    let genesis = Block::genesis();
    let parents: Vec<Block> = std::iter::once(genesis.clone())
        .chain((1..rng.gen_range(1..=8u64)).map(|n| BlockBuilder::new(&genesis).nonce(n).build()))
        .collect();
    let mut reference = Reference {
        k,
        ..Reference::default()
    };
    let mut granted: Vec<Block> = Vec::new();
    let mut pending: Vec<(TokenGrant, u32)> = Vec::new();
    let mut regranted_accepts = 0;
    let steps = rng.gen_range(steps);
    for step in 0.. {
        if step >= steps && pending.is_empty() {
            break;
        }
        if step < steps && (pending.is_empty() || rng.gen_bool(0.4)) {
            let requester = rng.gen_range(0..4usize);
            let candidate = if !granted.is_empty() && rng.gen_bool(0.3) {
                granted[rng.gen_range(0..granted.len())].clone()
            } else {
                let parent = &parents[rng.gen_range(0..parents.len())];
                BlockBuilder::new(parent).nonce(step).build()
            };
            let parent = parents
                .iter()
                .find(|p| candidate.parent == Some(p.id))
                .expect("candidates are children of a parent");
            let grant = oracle
                .get_token(requester, parent, candidate.clone())
                .expect("probability 1 always grants");
            reference.stats.get_token_calls += 1;
            reference.stats.tokens_granted += 1;
            granted.push(candidate);
            pending.push((grant, rng.gen_range(1..=3)));
            continue;
        }
        let at = rng.gen_range(0..pending.len());
        let grant = pending[at].0.clone();
        pending[at].1 -= 1;
        if pending[at].1 == 0 {
            pending.swap_remove(at);
        }
        let held_before = reference.slot(grant.parent).contains(&grant.block);
        let want = reference.consume_token(&grant);
        let got = oracle.consume_token(&grant);
        let ctx = format!("seed {seed}, k {k:?}, {}, step {step}", oracle.name());
        assert_eq!(got, want, "{ctx}");
        regranted_accepts += usize::from(want.accepted && held_before);
        for parent in &parents {
            assert_eq!(oracle.slot(parent.id), reference.slot(parent.id), "{ctx}");
        }
        assert_eq!(oracle.stats(), reference.stats, "{ctx}");
    }
    regranted_accepts
}

#[test]
fn the_flat_arena_consumes_like_the_per_parent_vectors() {
    let mut regranted_accepts = 0;
    for seed in 0..150 {
        for k in [Some(1), Some(2), Some(3), None] {
            for mut oracle in oracles(k, seed) {
                regranted_accepts += run(seed, k, 20..80, oracle.as_mut());
            }
        }
    }
    // A re-granted block is accepted under its new serial: the case that
    // tells freshness by serial from freshness by block id.
    assert!(regranted_accepts > 0);
}

#[test]
fn lists_spanning_arena_chunks_consume_like_the_reference() {
    // Thousands of cells over at most 8 parents: under k = ∞ a `K[h]` list
    // runs across several 1 024-cell chunks of the arena.
    for seed in 0..2 {
        for mut oracle in oracles(None, seed) {
            run(seed, None, 3000..3001, oracle.as_mut());
            assert!(oracle.stats().tokens_consumed > 1024);
        }
    }
}
