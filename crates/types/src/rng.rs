//! The workspace's one seeded randomness source: a ChaCha8 keystream
//! (Bernstein, 2008) keyed by SplitMix64 (Steele, Lea & Flood, OOPSLA 2014).
//!
//! The oracles' tapes (Θ-ADT, Fig. 5 fn. 3), the workload generators, the
//! simulator's channel draws, the PoW nonces and every fault, jitter and
//! shuffle seed draw from here, so every committed report and the
//! benchmark's input digests are functions of these streams.  They must
//! stay bit-identical — a changed word re-seeds every experiment — and
//! `tests/rng_streams.rs` pins them: the key expansion and nonce layout,
//! [`ChaCha8::next_u32`] taking one keystream word (not half a `u64`), the
//! `u128` remainder in [`ChaCha8::gen_range`] and the 53-bit compare in
//! [`ChaCha8::gen_bool`].  [`ChaCha8`] is not bit-compatible with the
//! `rand_chacha` crate.

use std::ops::{Range, RangeInclusive};

/// SplitMix64's increment, the 64-bit golden ratio.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// "expand 32-byte k", the first four words of a ChaCha state.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The output of a SplitMix64 generator whose state is `x`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 generator: a counter stepped by the golden ratio, each
/// state passed through [`mix64`].
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// A ChaCha8 keystream, computed a 16-word block at a time and handed out
/// a word at a time.
#[derive(Clone, Debug)]
pub struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    block: [u32; 16],
    /// Next unread word of `block`; 16 when it is used up.
    cursor: usize,
}

impl ChaCha8 {
    /// The keystream of `seed` on stream 0.
    pub fn new(seed: u64) -> Self {
        ChaCha8::with_stream(seed, 0)
    }

    /// The keystream of `seed` on `stream` (the nonce words): the streams
    /// of one seed are independent, and each is reproducible.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let mut expand = SplitMix64::new(seed);
        let mut key = [0u32; 8];
        for pair in key.chunks_exact_mut(2) {
            let word = expand.next_u64();
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        ChaCha8 {
            key,
            counter: 0,
            stream,
            block: [0; 16],
            cursor: 16,
        }
    }

    fn refill(&mut self) {
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&SIGMA);
        s[4..12].copy_from_slice(&self.key);
        s[12] = self.counter as u32;
        s[13] = (self.counter >> 32) as u32;
        s[14] = self.stream as u32;
        s[15] = (self.stream >> 32) as u32;
        let initial = s;
        // Eight rounds: four times a column round, then a diagonal round.
        for _ in 0..4 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (word, init) in s.iter_mut().zip(initial) {
            *word = word.wrapping_add(init);
        }
        self.block = s;
        self.cursor = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The next keystream word.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.refill();
        }
        self.cursor += 1;
        self.block[self.cursor - 1]
    }

    /// The next two keystream words, the first one low.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        lo | (u64::from(self.next_u32()) << 32)
    }

    /// `true` with probability `p`: no draw when `p` is at or outside
    /// `[0, 1]`'s ends, else a `u64` draw's top 53 bits over 2⁵³ below `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 || p >= 1.0 {
            return p >= 1.0;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A value of `range` (`a..b` or `a..=b`; panics if it is empty): its
    /// start plus a `u64` draw modulo its width, in `u128`.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// A range [`ChaCha8::gen_range`] draws from: `a..b` or `a..=b` over
/// `u32`, `u64` or `usize`.
pub trait SampleRange<T> {
    /// One value of the range.
    fn sample(self, rng: &mut ChaCha8) -> T;
}

macro_rules! sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut ChaCha8) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let width = self.end as u128 - self.start as u128;
                self.start + (u128::from(rng.next_u64()) % width) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut ChaCha8) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample from an empty range");
                let width = end as u128 - start as u128 + 1;
                start + (u128::from(rng.next_u64()) % width) as $t
            }
        }
    )*};
}

sample_range!(u32, u64, usize);
