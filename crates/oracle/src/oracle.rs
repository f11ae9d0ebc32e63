//! The token oracle Θ-ADT (Definitions 3.5 and 3.6, Figure 6).
//!
//! The oracle exposes two operations:
//!
//! * `getToken(b_h, b_ℓ)` — invoked by a process with merit `α_i`; the
//!   oracle pops the first cell of the tape associated with `α_i` and, if it
//!   contains `tkn`, returns the candidate block stamped with a token for
//!   parent `b_h` (the block `b_ℓ^{tkn_h}`, valid by construction).
//! * `consumeToken(b_ℓ^{tkn_h})` — inserts the block into the set `K[h]`
//!   provided `|K[h]| < k` and the token has not been consumed before;
//!   in every case it returns the current contents of `K[h]`.
//!
//! [`FrugalOracle`] implements Θ_F,k for finite `k`; [`ProdigalOracle`]
//! implements Θ_P, which the paper defines as Θ_F with `k = ∞`.

use std::collections::HashMap;

use btadt_types::{Block, BlockId};

use crate::merit::MeritTable;
use crate::tape::{Cell, Tape};

/// One accepted token of a `K[h]`: block, serial, next cell (its own index in the last); 80 bytes.
#[derive(Clone, Debug)]
struct TokenCell {
    block: Block,
    serial: u64,
    next: usize,
}

/// Cells per arena chunk (80 KiB).  A chunk is allocated once at full
/// size and never moves, so `K[]` grows without copying or doubling.
const CHUNK: usize = 1024;

/// The indices of the cells of the list starting at `head`.
fn list(cells: &[Vec<TokenCell>], head: Option<usize>) -> impl Iterator<Item = usize> + Clone + '_ {
    std::iter::successors(head, |&at| {
        Some(cells[at / CHUNK][at % CHUNK].next).filter(|&next| next != at)
    })
}

/// The oracle's `K[]` array and the one `consumeToken` body every oracle
/// runs ([`SlotArena::consume`]).
///
/// One arena holds a cell per accepted token, appended in consume order
/// and addressed by a flat `usize` index over fixed-size chunks.  The
/// cells of one `K[h]` form a list threaded through `next`, and a
/// `BlockId → head` index finds the first; the walk that checks freshness
/// also yields the length and the tail.  A token costs an 80-byte cell
/// plus, per parent, a 16-byte index entry: ≈ 103 bytes with `k = 1`
/// after the map's growth slack (`tests/k_bytes.rs`).
#[derive(Clone, Debug, Default)]
pub struct SlotArena {
    index: HashMap<BlockId, usize>,
    chunks: Vec<Vec<TokenCell>>,
    cells: usize,
    minted: u64,
}

impl SlotArena {
    /// `getToken`'s grant `b_ℓ^{tkn_h}` for `parent`, under a serial no
    /// earlier grant of this oracle carries.
    pub(crate) fn grant(&mut self, parent: BlockId, block: Block) -> TokenGrant {
        self.minted += 1;
        TokenGrant {
            parent,
            block,
            serial: self.minted,
        }
    }

    /// `consumeToken(b_ℓ^{tkn_h})`'s transition: inserts the grant's block
    /// into `K[h]` iff `|K[h]| < k` (`None` is `k = ∞`) and the token is
    /// fresh; returns whether it did.
    ///
    /// `SlotArena::grant` mints a serial for one parent, and only
    /// accepted serials enter `K[h]`, which never shrinks, so "never
    /// consumed" is "not in `K[grant.parent]`".  The walk is `O(k)` under
    /// Θ_F,k; under Θ_P it is `O(|K[h]|)`, which stays at or below the
    /// process count in every caller in this workspace.
    pub fn consume(&mut self, grant: &TokenGrant, k: Option<usize>) -> bool {
        let fresh = self.cells;
        let (mut len, mut tail) = (0, None);
        for at in list(&self.chunks, self.index.get(&grant.parent).copied()) {
            if self.chunks[at / CHUNK][at % CHUNK].serial == grant.serial {
                return false;
            }
            (len, tail) = (len + 1, Some(at));
        }
        if k.is_some_and(|k| len >= k) {
            return false;
        }
        if let Some(at) = tail {
            self.chunks[at / CHUNK][at % CHUNK].next = fresh;
        } else {
            self.index.insert(grant.parent, fresh);
        }
        self.cells += 1;
        if fresh.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[fresh / CHUNK].push(TokenCell {
            block: grant.block.clone(),
            serial: grant.serial,
            next: fresh,
        });
        true
    }

    /// `consumeToken` under fork bound `k`, counted in `stats`: the
    /// transition plus the output function `δ`, a copy of `K[h]`.
    pub(crate) fn consume_token(
        &mut self,
        grant: &TokenGrant,
        k: Option<usize>,
        stats: &mut OracleStats,
    ) -> ConsumeOutcome {
        stats.consume_calls += 1;
        let accepted = self.consume(grant, k);
        stats.tokens_consumed += u64::from(accepted);
        ConsumeOutcome {
            accepted,
            slot: self.slot(grant.parent),
        }
    }

    /// The contents of `K[h]` in consume order, empty for parents never
    /// consumed against.
    pub fn slot(&self, parent: BlockId) -> Vec<Block> {
        let cells = list(&self.chunks, self.index.get(&parent).copied());
        let mut out = Vec::with_capacity(cells.clone().count());
        out.extend(cells.map(|at| self.chunks[at / CHUNK][at % CHUNK].block.clone()));
        out
    }
}

/// Configuration of a token oracle.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Seed of the pseudo-random tapes (deterministic reproduction).
    pub seed: u64,
    /// Scaling factor from merit to token probability:
    /// `p_{α_i} = clamp(scale · α_i, min_probability, 1)` for `α_i > 0`.
    pub probability_scale: f64,
    /// Floor applied to positive-merit processes so that `p_{α_i} > 0`
    /// always holds, as the paper requires.
    pub min_probability: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seed: 0,
            probability_scale: 1.0,
            min_probability: 1e-3,
        }
    }
}

impl OracleConfig {
    /// Config with an explicit seed and default probabilities.
    pub fn seeded(seed: u64) -> Self {
        OracleConfig {
            seed,
            ..Default::default()
        }
    }

    /// Token probability for a process with the given merit.
    pub fn probability_for(&self, merit: f64) -> f64 {
        if merit <= 0.0 {
            0.0
        } else {
            (self.probability_scale * merit).clamp(self.min_probability, 1.0)
        }
    }
}

/// A block stamped with a token for its parent: the `b_ℓ^{tkn_h}` object.
///
/// Grants are produced only by the oracle, so holding a grant is the proof
/// that the wrapped block belongs to `B'` (the valid blocks).
#[derive(Clone, Debug, PartialEq)]
pub struct TokenGrant {
    /// The parent block the token refers to (`b_h`).
    pub parent: BlockId,
    /// The stamped block (`b_ℓ`), now valid by construction.
    pub block: Block,
    /// Serial number of the token; each token can be consumed at most once.
    pub serial: u64,
}

/// Result of a `consumeToken` operation.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsumeOutcome {
    /// `true` iff the block was inserted into `K[h]` by this call.
    pub accepted: bool,
    /// The contents of `K[h]` after the call (what the Θ-ADT's output
    /// function `δ` returns: `get(K, h)`).
    pub slot: Vec<Block>,
}

/// Statistics kept by an oracle, used by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of `getToken` invocations.
    pub get_token_calls: u64,
    /// Number of `getToken` invocations that returned a grant.
    pub tokens_granted: u64,
    /// Number of `consumeToken` invocations.
    pub consume_calls: u64,
    /// Number of `consumeToken` invocations that inserted into `K[h]`.
    pub tokens_consumed: u64,
}

/// The token-oracle interface shared by Θ_P and Θ_F,k.
pub trait TokenOracle: Send {
    /// `getToken(b_h ← parent, b_ℓ ← candidate)` invoked by process
    /// `requester`.  Pops one cell of the requester's tape; returns a grant
    /// iff the cell contained `tkn`.
    fn get_token(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant>;

    /// `consumeToken(b_ℓ^{tkn_h})`.
    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome;

    /// The fork bound `k`, fixed for the oracle's lifetime (`None`: Θ_P's `k = ∞`).
    fn fork_bound(&self) -> Option<usize>;

    /// Current contents of `K[h]` for the given parent.
    fn slot(&self, parent: BlockId) -> Vec<Block>;

    /// Usage statistics.
    fn stats(&self) -> OracleStats;

    /// Human-readable oracle name.
    fn name(&self) -> &'static str;

    /// Repeatedly invokes `get_token` until a grant is produced (the
    /// `τ_b ∘ τ_a*` refinement of the append operation, Definition 3.7).
    /// Returns the grant and the number of `getToken` invocations needed.
    ///
    /// The candidate block is rebuilt identically at each attempt; only a
    /// positive-merit requester terminates (the paper assumes
    /// `p_{α_i} > 0`).
    fn get_token_until_granted(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> (TokenGrant, u64) {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if let Some(grant) = self.get_token(requester, parent, candidate.clone()) {
                return (grant, attempts);
            }
        }
    }
}

/// The frugal oracle Θ_F,k: at most `k` tokens can be consumed per parent
/// block.
#[derive(Debug)]
pub struct FrugalOracle {
    config: OracleConfig,
    merits: MeritTable,
    k: Option<usize>,
    tapes: HashMap<usize, Tape>,
    slots: SlotArena,
    stats: OracleStats,
}

impl FrugalOracle {
    /// Creates a frugal oracle with fork bound `k ≥ 1`.
    pub fn new(k: usize, merits: MeritTable, config: OracleConfig) -> Self {
        assert!(k >= 1, "the frugal oracle requires k ≥ 1");
        Self::with_bound(Some(k), merits, config)
    }

    /// Internal constructor shared with the prodigal oracle.
    fn with_bound(k: Option<usize>, merits: MeritTable, config: OracleConfig) -> Self {
        FrugalOracle {
            config,
            merits,
            k,
            tapes: HashMap::new(),
            slots: SlotArena::default(),
            stats: OracleStats::default(),
        }
    }

    /// Number of processes known to the oracle.
    pub fn processes(&self) -> usize {
        self.merits.len()
    }

    /// The merit table used by the oracle.
    pub fn merits(&self) -> &MeritTable {
        &self.merits
    }

    fn tape_for(&mut self, requester: usize) -> &mut Tape {
        let config = self.config;
        let merit = self.merits.merit(requester).0;
        self.tapes.entry(requester).or_insert_with(|| {
            Tape::new(config.seed, requester as u64, config.probability_for(merit))
        })
    }
}

impl TokenOracle for FrugalOracle {
    fn get_token(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant> {
        self.stats.get_token_calls += 1;
        let cell = self.tape_for(requester).pop();
        if cell == Cell::Token {
            self.stats.tokens_granted += 1;
            Some(self.slots.grant(parent.id, candidate))
        } else {
            None
        }
    }

    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome {
        self.slots.consume_token(grant, self.k, &mut self.stats)
    }

    fn fork_bound(&self) -> Option<usize> {
        self.k
    }

    fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.slots.slot(parent)
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        match self.k {
            Some(1) => "frugal(k=1)",
            Some(_) => "frugal(k)",
            None => "prodigal",
        }
    }
}

/// The prodigal oracle Θ_P: Θ_F with `k = ∞` (Definition 3.6).
#[derive(Debug)]
pub struct ProdigalOracle {
    inner: FrugalOracle,
}

impl ProdigalOracle {
    /// Creates a prodigal oracle.
    pub fn new(merits: MeritTable, config: OracleConfig) -> Self {
        ProdigalOracle {
            inner: FrugalOracle::with_bound(None, merits, config),
        }
    }

    /// Number of processes known to the oracle.
    pub fn processes(&self) -> usize {
        self.inner.processes()
    }
}

impl TokenOracle for ProdigalOracle {
    fn get_token(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant> {
        self.inner.get_token(requester, parent, candidate)
    }

    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome {
        self.inner.consume_token(grant)
    }

    fn fork_bound(&self) -> Option<usize> {
        None
    }

    fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.inner.slot(parent)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        "prodigal"
    }
}

/// A deliberately broken Θ_F,k=1 — the oracle-side counterpart of the
/// shared-memory replica's racy path.  It *claims* `k = 1` but reports
/// `K[h]` empty to its first `lies` consumers, so each of them believes it
/// won its parent: handed to a strongly-consistent replica it forks the
/// chain through the real commit code.  Exists so the model checker has a
/// genuine mediation bug to catch; never use it to mediate anything.
#[derive(Debug)]
pub struct WeakenedFrugalOracle {
    inner: FrugalOracle,
    lies_left: usize,
}

impl WeakenedFrugalOracle {
    /// Wraps a frugal `k = 1` oracle; the first `lies` consumes are lied to.
    pub fn new(inner: FrugalOracle, lies: usize) -> Self {
        assert_eq!(inner.fork_bound(), Some(1), "weakens the k = 1 oracle");
        WeakenedFrugalOracle {
            inner,
            lies_left: lies,
        }
    }
}

impl TokenOracle for WeakenedFrugalOracle {
    fn get_token(
        &mut self,
        requester: usize,
        parent: &Block,
        candidate: Block,
    ) -> Option<TokenGrant> {
        self.inner.get_token(requester, parent, candidate)
    }

    fn consume_token(&mut self, grant: &TokenGrant) -> ConsumeOutcome {
        if self.lies_left == 0 {
            return self.inner.consume_token(grant);
        }
        self.lies_left -= 1;
        ConsumeOutcome {
            accepted: true,
            slot: vec![grant.block.clone()],
        }
    }

    fn fork_bound(&self) -> Option<usize> {
        Some(1)
    }

    fn slot(&self, parent: BlockId) -> Vec<Block> {
        self.inner.slot(parent)
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        "weakened-frugal(k=1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn always_granting_config() -> OracleConfig {
        OracleConfig {
            seed: 1,
            probability_scale: 1e9, // clamps to probability 1
            min_probability: 1.0,
        }
    }

    fn candidate(nonce: u64) -> (Block, Block) {
        let genesis = Block::genesis();
        let block = BlockBuilder::new(&genesis).nonce(nonce).build();
        (genesis, block)
    }

    #[test]
    fn get_token_grants_iff_tape_cell_is_token() {
        let merits = MeritTable::uniform(2);
        // probability 0.5: over many calls we must see both grants and refusals
        let config = OracleConfig {
            seed: 7,
            probability_scale: 0.5 * 2.0, // 0.5 for merit 0.5
            min_probability: 1e-6,
        };
        let mut oracle = FrugalOracle::new(1, merits, config);
        let (genesis, block) = candidate(1);
        let mut granted = 0;
        let mut refused = 0;
        for _ in 0..200 {
            match oracle.get_token(0, &genesis, block.clone()) {
                Some(_) => granted += 1,
                None => refused += 1,
            }
        }
        assert!(granted > 0 && refused > 0);
        assert_eq!(oracle.stats().get_token_calls, 200);
        assert_eq!(oracle.stats().tokens_granted, granted);
    }

    #[test]
    fn zero_merit_process_never_gets_a_token() {
        let merits = MeritTable::consortium(3, &[0]);
        let mut oracle = FrugalOracle::new(1, merits, OracleConfig::seeded(3));
        let (genesis, block) = candidate(1);
        for _ in 0..300 {
            assert!(oracle.get_token(2, &genesis, block.clone()).is_none());
        }
    }

    #[test]
    fn frugal_oracle_consumes_at_most_k_tokens_per_parent() {
        let merits = MeritTable::uniform(1);
        let mut oracle = FrugalOracle::new(2, merits, always_granting_config());
        let (genesis, _) = candidate(0);
        let mut accepted = 0;
        for nonce in 0..10 {
            let block = BlockBuilder::new(&genesis).nonce(nonce).build();
            let grant = oracle.get_token(0, &genesis, block).unwrap();
            let outcome = oracle.consume_token(&grant);
            if outcome.accepted {
                accepted += 1;
            }
            assert!(outcome.slot.len() <= 2);
        }
        assert_eq!(accepted, 2);
        assert_eq!(oracle.slot(genesis.id).len(), 2);
        assert_eq!(oracle.stats().tokens_consumed, 2);
        assert_eq!(oracle.stats().consume_calls, 10);
    }

    #[test]
    fn prodigal_oracle_accepts_unboundedly_many_tokens() {
        let merits = MeritTable::uniform(1);
        let mut oracle = ProdigalOracle::new(merits, always_granting_config());
        let (genesis, _) = candidate(0);
        for nonce in 0..50 {
            let block = BlockBuilder::new(&genesis).nonce(nonce).build();
            let grant = oracle.get_token(0, &genesis, block).unwrap();
            assert!(oracle.consume_token(&grant).accepted);
        }
        assert_eq!(oracle.slot(genesis.id).len(), 50);
        assert_eq!(oracle.fork_bound(), None);
        assert_eq!(oracle.name(), "prodigal");
    }

    #[test]
    fn each_token_is_consumed_at_most_once() {
        let merits = MeritTable::uniform(1);
        let mut oracle = FrugalOracle::new(10, merits, always_granting_config());
        let (genesis, block) = candidate(1);
        let grant = oracle.get_token(0, &genesis, block).unwrap();
        assert!(oracle.consume_token(&grant).accepted);
        let second = oracle.consume_token(&grant);
        assert!(!second.accepted, "a token can be consumed at most once");
        assert_eq!(second.slot.len(), 1);
    }

    #[test]
    fn consume_returns_slot_contents_even_when_rejected() {
        let merits = MeritTable::uniform(1);
        let mut oracle = FrugalOracle::new(1, merits, always_granting_config());
        let (genesis, _) = candidate(0);
        let b1 = BlockBuilder::new(&genesis).nonce(1).build();
        let b2 = BlockBuilder::new(&genesis).nonce(2).build();
        let g1 = oracle.get_token(0, &genesis, b1.clone()).unwrap();
        let g2 = oracle.get_token(0, &genesis, b2).unwrap();
        assert!(oracle.consume_token(&g1).accepted);
        let outcome = oracle.consume_token(&g2);
        assert!(!outcome.accepted);
        assert_eq!(outcome.slot, vec![b1]);
    }

    #[test]
    fn get_token_until_granted_counts_attempts() {
        let merits = MeritTable::uniform(1);
        let config = OracleConfig {
            seed: 11,
            probability_scale: 0.2, // p = 0.2
            min_probability: 1e-6,
        };
        let mut oracle = FrugalOracle::new(1, merits, config);
        let (genesis, block) = candidate(5);
        let (grant, attempts) = oracle.get_token_until_granted(0, &genesis, block.clone());
        assert!(attempts >= 1);
        assert_eq!(grant.block, block);
        assert_eq!(oracle.stats().get_token_calls, attempts);
    }

    #[test]
    fn slots_are_per_parent() {
        let merits = MeritTable::uniform(1);
        let mut oracle = FrugalOracle::new(1, merits, always_granting_config());
        let genesis = Block::genesis();
        let a = BlockBuilder::new(&genesis).nonce(1).build();
        let ga = oracle.get_token(0, &genesis, a.clone()).unwrap();
        assert!(oracle.consume_token(&ga).accepted);
        // A token for a *different* parent (a) is still consumable even with k=1.
        let b = BlockBuilder::new(&a).nonce(2).build();
        let gb = oracle.get_token_until_granted(0, &a, b).0;
        assert!(oracle.consume_token(&gb).accepted);
        assert_eq!(oracle.slot(genesis.id).len(), 1);
        assert_eq!(oracle.slot(a.id).len(), 1);
    }

    #[test]
    fn oracle_names_reflect_fork_bound() {
        let merits = MeritTable::uniform(1);
        assert_eq!(
            FrugalOracle::new(1, merits.clone(), OracleConfig::default()).name(),
            "frugal(k=1)"
        );
        assert_eq!(
            FrugalOracle::new(3, merits.clone(), OracleConfig::default()).name(),
            "frugal(k)"
        );
        assert_eq!(
            ProdigalOracle::new(merits, OracleConfig::default()).name(),
            "prodigal"
        );
    }

    #[test]
    fn weakened_frugal_oracle_lets_two_consumers_win_one_parent() {
        let inner = FrugalOracle::new(1, MeritTable::uniform(3), always_granting_config());
        let mut oracle = WeakenedFrugalOracle::new(inner, 2);
        assert_eq!(oracle.fork_bound(), Some(1), "it claims k = 1");
        let genesis = Block::genesis();
        let mut consume = |requester: usize| {
            let block = BlockBuilder::new(&genesis).nonce(requester as u64).build();
            let grant = oracle.get_token_until_granted(requester, &genesis, block).0;
            (oracle.consume_token(&grant), grant.block)
        };
        // The first two consumers are both told K[h] = {their own block} ...
        for requester in 0..2 {
            let (outcome, own) = consume(requester);
            assert!(outcome.accepted);
            assert_eq!(outcome.slot, vec![own]);
        }
        // ... after which the wrapped oracle answers honestly again.
        let (third, third_block) = consume(2);
        assert!(third.accepted && third.slot == vec![third_block]);
        let (fourth, _) = consume(0);
        assert!(!fourth.accepted, "the honest k = 1 bound is back");
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn frugal_requires_positive_k() {
        FrugalOracle::new(0, MeritTable::uniform(1), OracleConfig::default());
    }

    #[test]
    fn probability_for_clamps_and_floors() {
        let config = OracleConfig::default();
        assert_eq!(config.probability_for(0.0), 0.0);
        assert!(config.probability_for(1e-9) >= config.min_probability);
        assert_eq!(config.probability_for(5.0), 1.0);
    }
}
