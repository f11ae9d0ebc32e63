//! Per-merit pseudo-random tapes (Figure 5, footnote 3).
//!
//! For each merit `α_i` the oracle's state embeds an infinite tape whose
//! cells contain either `tkn` or `⊥`; the probability that a cell contains
//! `tkn` is `p_{α_i}`.  The paper assumes the tape is a pseudo-random
//! sequence "mostly indistinguishable from a Bernoulli sequence".  We
//! implement exactly that: a ChaCha8-seeded Bernoulli stream, deterministic
//! given `(oracle seed, merit index)` so that every experiment is
//! reproducible, with the `head` / `pop` interface of the Θ-ADT definition.

use btadt_types::rng::ChaCha8;

/// One cell of a tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// The cell grants a token.
    Token,
    /// The cell is empty (`⊥`).
    Bottom,
}

/// An infinite pseudo-random tape of [`Cell`]s for one merit value.
///
/// The tape is generated lazily: `head()` inspects the next cell without
/// consuming it, `pop()` consumes it, matching the `head`/`pop` auxiliary
/// functions of Definition 3.5.
#[derive(Clone, Debug)]
pub struct Tape {
    rng: ChaCha8,
    probability: f64,
    /// Lazily generated lookahead cell (the current head).
    lookahead: Option<Cell>,
    /// Number of cells popped so far (for diagnostics and benchmarks).
    popped: u64,
}

impl Tape {
    /// Creates a tape whose cells contain a token with probability
    /// `probability` (clamped into `[0, 1]`), seeded deterministically from
    /// `(seed, stream)`.
    pub fn new(seed: u64, stream: u64, probability: f64) -> Self {
        Tape {
            rng: ChaCha8::with_stream(seed, stream),
            probability: probability.clamp(0.0, 1.0),
            lookahead: None,
            popped: 0,
        }
    }

    fn generate(&mut self) -> Cell {
        if self.rng.gen_bool(self.probability) {
            Cell::Token
        } else {
            Cell::Bottom
        }
    }

    /// The probability that a cell contains a token.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// `head(tape)`: the first cell of the tape, without consuming it.
    pub fn head(&mut self) -> Cell {
        if self.lookahead.is_none() {
            let cell = self.generate();
            self.lookahead = Some(cell);
        }
        self.lookahead.expect("the lookahead cell was just filled")
    }

    /// `pop(tape)`: consumes and returns the first cell of the tape.
    pub fn pop(&mut self) -> Cell {
        let cell = self.head();
        self.lookahead = None;
        self.popped += 1;
        cell
    }

    /// Number of cells consumed so far.
    pub fn cells_consumed(&self) -> u64 {
        self.popped
    }

    /// Pops cells until a token is found, returning the number of cells
    /// consumed (including the token cell).  Because the token probability
    /// is positive this terminates with probability 1; a zero-probability
    /// tape never yields and this method would not return, so callers must
    /// only use it for positive-merit processes (the paper requires
    /// `p_{α_i} > 0`).
    pub fn pop_until_token(&mut self) -> u64 {
        let mut n = 0;
        loop {
            n += 1;
            if self.pop() == Cell::Token {
                return n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tape_is_deterministic_given_seed_and_stream() {
        let mut a = Tape::new(42, 3, 0.5);
        let mut b = Tape::new(42, 3, 0.5);
        let cells_a: Vec<Cell> = (0..100).map(|_| a.pop()).collect();
        let cells_b: Vec<Cell> = (0..100).map(|_| b.pop()).collect();
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Tape::new(42, 0, 0.5);
        let mut b = Tape::new(42, 1, 0.5);
        let cells_a: Vec<Cell> = (0..200).map(|_| a.pop()).collect();
        let cells_b: Vec<Cell> = (0..200).map(|_| b.pop()).collect();
        assert_ne!(cells_a, cells_b);
    }

    #[test]
    fn head_does_not_consume() {
        let mut t = Tape::new(7, 0, 0.5);
        let h1 = t.head();
        let h2 = t.head();
        assert_eq!(h1, h2);
        assert_eq!(t.cells_consumed(), 0);
        let p = t.pop();
        assert_eq!(p, h1);
        assert_eq!(t.cells_consumed(), 1);
    }

    #[test]
    fn probability_zero_never_yields_tokens() {
        let mut t = Tape::new(1, 0, 0.0);
        assert!((0..500).all(|_| t.pop() == Cell::Bottom));
    }

    #[test]
    fn probability_one_always_yields_tokens() {
        let mut t = Tape::new(1, 0, 1.0);
        assert!((0..500).all(|_| t.pop() == Cell::Token));
        assert_eq!(t.pop_until_token(), 1);
    }

    #[test]
    fn empirical_frequency_tracks_probability() {
        let p = 0.3;
        let mut t = Tape::new(123, 0, p);
        let n = 20_000;
        let tokens = (0..n).filter(|_| t.pop() == Cell::Token).count();
        let freq = tokens as f64 / n as f64;
        assert!(
            (freq - p).abs() < 0.02,
            "empirical frequency {freq} too far from {p}"
        );
    }

    #[test]
    fn pop_until_token_mean_is_close_to_inverse_probability() {
        let p = 0.2;
        let mut t = Tape::new(99, 0, p);
        let trials = 2_000;
        let total: u64 = (0..trials).map(|_| t.pop_until_token()).sum();
        let mean = total as f64 / trials as f64;
        assert!(
            (mean - 1.0 / p).abs() < 0.5,
            "mean waiting time {mean} too far from {}",
            1.0 / p
        );
    }

    #[test]
    fn out_of_range_probability_is_clamped() {
        let t = Tape::new(1, 0, 2.5);
        assert_eq!(t.probability(), 1.0);
        let t = Tape::new(1, 0, -0.5);
        assert_eq!(t.probability(), 0.0);
    }
}
