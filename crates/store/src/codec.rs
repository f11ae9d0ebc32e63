//! Block record encoding with per-record checksums: record format v2.
//!
//! Each block persists as one length-prefixed record:
//!
//! ```text
//! [u32 body_len][body][u64 sum64(body)]
//! ```
//!
//! The body serialises every [`Block`] field little-endian (a flag byte
//! marks the optional parent): id, parent, height, producer, merit, nonce,
//! work, transaction count, then 24 bytes per transaction — 149 bytes for a
//! block of four transactions.  The checksum defends against *media*
//! faults (torn tails, flipped bits, lost pages), not against adversarial
//! forgery, which the paper's model never relies on (see DESIGN.md).
//!
//! ## The v2 sum
//!
//! [`sum64`] reads its input 8 bytes at a time, round-robin over four
//! independent lanes seeded with the input length (so a record's sum also
//! covers its length prefix), zero-pads the last partial word, adds the
//! lanes together rotated, and ends with an avalanche finaliser.  The four
//! lane chains do not wait on each other, so their multiplies overlap: a
//! 149-byte body costs a few dozen cycles, where format v1's byte-at-a-time
//! FNV-1a chain cost one dependent multiply per byte.
//!
//! **Detection guarantee.**  A lane step is a bijection in the word for a
//! fixed lane state and in the lane state for a fixed word, the lanes
//! combine bijectively (each is added in rotated while the others stay
//! fixed), and the finaliser is a bijection.  So two inputs of one length
//! that differ in exactly one 8-byte word always have different sums: every
//! single-bit flip of a body is detected, as is every byte swap inside one
//! word.  A flip in the stored sum is detected trivially, and a flip in the
//! length prefix either runs the record past its buffer
//! ([`DecodeError::Truncated`]) or reseeds the sum over different bytes.
//! The unit tests prove single-bit flips (prefix, body and sum) and every
//! swap of two differing body bytes exhaustively on a 149-byte body.
//!
//! A sealed chunk's checksum is an order-sensitive fold of its record sums
//! ([`ChunkSum`], the same lane step), so neither sealing a chunk nor
//! verifying it at recovery reads a record's bytes a second time.
//!
//! Format v2 replaces format v1, which summed each record, chunk and
//! manifest byte by byte with FNV-1a; v1 is not read.  A v1 manifest or
//! record fails its sum as corrupt.
//!
//! Decoding distinguishes the two failure shapes recovery treats
//! differently: [`DecodeError::Truncated`] (the record runs past the end of
//! the buffer — a torn tail, or a length field mangled upward) and
//! [`DecodeError::Corrupt`] (the record is self-delimiting but its checksum
//! or structural identifier disagrees — salvage can skip it and continue at
//! the next record boundary).

use btadt_pipeline::IngestError;
use btadt_types::{Block, BlockId, Payload, Transaction};

/// Upper bound on a record body, obeyed by both sides: the encoder refuses a
/// block whose body would exceed it ([`check_fits_record`]), and a decoded
/// length above it is treated as corruption rather than an allocation
/// request.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// One lane step of [`sum64`] and [`ChunkSum`]: a bijection in `word` for
/// a fixed `lane`, and in `lane` for a fixed `word` (an odd multiply, an
/// add, a rotation and an odd multiply, each invertible).
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The little-endian word at the start of `bytes` (at most 8 of them),
/// zero-padded.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    let mut padded = [0u8; 8];
    padded[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(padded)
}

/// The v2 checksum: four independent lanes over 8-byte words, seeded with
/// the length, a zero-padded tail and an avalanche finaliser (see the
/// [module docs](self) for the detection guarantee).
pub fn sum64(bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut lanes = [
        len.wrapping_add(P1).wrapping_add(P2),
        len.wrapping_add(P2),
        len,
        len.wrapping_sub(P1),
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(bytes));
        }
    }
    // Fewer than 32 bytes are left: at most four words, the last one
    // possibly partial, one to a lane.
    for (lane, bytes) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        *lane = round(*lane, word(bytes));
    }
    let [a, b, c, d] = lanes;
    let mut h = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// The v2 checksum of a chunk: an order-sensitive fold of its record sums,
/// one lane step per record, so a chunk is sealed and verified from the
/// sums its records already carry.  Any one record sum changing, a record
/// going missing and two records trading places all change it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkSum(u64);

impl ChunkSum {
    /// Folds the next record's sum in.
    pub fn push(&mut self, record_sum: u64) {
        self.0 = round(self.0, record_sum);
    }

    /// The checksum of the records folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the record does: a torn tail (or a length
    /// field corrupted past the end — indistinguishable, and treated the
    /// same way: everything from here on is lost).
    Truncated,
    /// The record is self-delimiting but its contents fail verification;
    /// the byte offset just past it is recoverable, so salvage can skip it.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::Corrupt(why) => write!(f, "record corrupt: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decode failure surfacing through an ingest path (recovery replay,
/// peer-served deltas) folds into the unified taxonomy as a storage
/// failure.
impl From<DecodeError> for IngestError {
    fn from(e: DecodeError) -> Self {
        IngestError::Storage(e.to_string())
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u32(buf: &[u8], off: &mut usize) -> Result<u32, DecodeError> {
    let end = off.checked_add(4).ok_or(DecodeError::Truncated)?;
    let bytes = buf.get(*off..end).ok_or(DecodeError::Truncated)?;
    *off = end;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

pub(crate) fn get_u64(buf: &[u8], off: &mut usize) -> Result<u64, DecodeError> {
    let end = off.checked_add(8).ok_or(DecodeError::Truncated)?;
    let bytes = buf.get(*off..end).ok_or(DecodeError::Truncated)?;
    *off = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn get_u8(buf: &[u8], off: &mut usize) -> Result<u8, DecodeError> {
    let b = *buf.get(*off).ok_or(DecodeError::Truncated)?;
    *off += 1;
    Ok(b)
}

/// Bytes of a block's fixed fields in a record body: id, parent flag,
/// height, producer, merit, nonce, work, transaction count.
const BODY_FIXED_BYTES: usize = 8 + 1 + 8 + 4 + 4 + 8 + 8 + 4;
/// Bytes of one transaction in a record body.
const TX_BYTES: usize = 8 + 4 + 4 + 8;

/// The length of `block`'s record body (saturating, so an absurd payload
/// length reads as "too large" instead of wrapping).
fn body_len(block: &Block) -> usize {
    let parent = if block.parent.is_some() { 8 } else { 0 };
    block
        .payload
        .len()
        .saturating_mul(TX_BYTES)
        .saturating_add(BODY_FIXED_BYTES + parent)
}

/// `Ok` iff `block` encodes to a record [`decode_record`] will read back:
/// its body stays within [`MAX_RECORD_BYTES`].  A longer record would be
/// written "successfully" and then taken for a mangled length field on
/// restart, costing the rest of its chunk as a torn tail — so the encoder
/// refuses it, and every ingest door with a store attached refuses such a
/// block before it links with this [`IngestError::Storage`] verdict: a
/// linked block that is not durable would not survive a restart.
pub fn check_fits_record(block: &Block) -> Result<(), IngestError> {
    if body_len(block) <= MAX_RECORD_BYTES {
        Ok(())
    } else {
        Err(IngestError::Storage(format!(
            "block {} exceeds the {MAX_RECORD_BYTES}-byte durable record limit",
            block.id
        )))
    }
}

/// Encodes one block as a checksummed, length-prefixed record appended to
/// `out`, and returns the record's sum — what the writer folds into the
/// [checksum of the chunk](ChunkSum) the record is going into.
///
/// This is the store's one encoder: nothing is allocated beyond `out`'s own
/// growth, and the body is summed once, a word at a time ([`sum64`]).
///
/// Returns `None`, writing nothing, when the block does not
/// [fit a record](check_fits_record).
pub fn encode_record_into(out: &mut Vec<u8>, block: &Block) -> Option<u64> {
    let body_len = body_len(block);
    if body_len > MAX_RECORD_BYTES {
        return None;
    }
    out.reserve(body_len + 12);
    put_u32(out, body_len as u32); // ≤ MAX_RECORD_BYTES, checked above
    let body = out.len();
    put_u64(out, block.id.0);
    match block.parent {
        Some(parent) => {
            out.push(1);
            put_u64(out, parent.0);
        }
        None => out.push(0),
    }
    put_u64(out, block.height);
    put_u32(out, block.producer);
    put_u32(out, block.merit_ppm);
    put_u64(out, block.nonce);
    put_u64(out, block.work);
    put_u32(out, block.payload.len() as u32); // < body_len, checked above
    for tx in &block.payload {
        put_u64(out, tx.id.0);
        put_u32(out, tx.from);
        put_u32(out, tx.to);
        put_u64(out, tx.amount);
    }
    debug_assert_eq!(out.len() - body, body_len, "body_len mirrors the layout");
    let sum = sum64(&out[body..]);
    put_u64(out, sum);
    Some(sum)
}

/// Encodes one block as a checksummed, length-prefixed record in a fresh
/// buffer: the allocating wrapper over [`encode_record_into`] for callers
/// that want one record's bytes (tests, probes).  Empty when the block does
/// not [fit a record](check_fits_record).
pub fn encode_record(block: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, block);
    out
}

/// Decodes one record at the start of `buf`.
///
/// On success returns the block and the number of bytes consumed.  A
/// [`DecodeError::Corrupt`] record still has a well-defined end — callers
/// that want to salvage the rest of a chunk can advance by
/// `record_span(buf)` and continue.
pub fn decode_record(buf: &[u8]) -> Result<(Block, usize), DecodeError> {
    decode_summed(buf).map(|(block, consumed, _)| (block, consumed))
}

/// [`decode_record`], also returning the record's verified stored sum —
/// what recovery folds into the chunk's [`ChunkSum`].
pub(crate) fn decode_summed(buf: &[u8]) -> Result<(Block, usize, u64), DecodeError> {
    let mut off = 0usize;
    let body_len = get_u32(buf, &mut off)? as usize;
    if body_len > MAX_RECORD_BYTES {
        // A mangled length field this large is corruption, but the record
        // boundary is unrecoverable: treat it as a truncating fault.
        return Err(DecodeError::Truncated);
    }
    let body_end = off + body_len;
    let body = buf.get(off..body_end).ok_or(DecodeError::Truncated)?;
    off = body_end;
    let stored_sum = get_u64(buf, &mut off)?;
    let consumed = off;
    if sum64(body) != stored_sum {
        return Err(DecodeError::Corrupt("checksum mismatch".to_string()));
    }

    let mut at = 0usize;
    let corrupt = |why: &str| DecodeError::Corrupt(why.to_string());
    let id = BlockId(get_u64(body, &mut at).map_err(|_| corrupt("short body"))?);
    let parent = match get_u8(body, &mut at).map_err(|_| corrupt("short body"))? {
        0 => None,
        1 => Some(BlockId(
            get_u64(body, &mut at).map_err(|_| corrupt("short body"))?,
        )),
        flag => return Err(corrupt(&format!("bad parent flag {flag}"))),
    };
    let height = get_u64(body, &mut at).map_err(|_| corrupt("short body"))?;
    let producer = get_u32(body, &mut at).map_err(|_| corrupt("short body"))?;
    let merit_ppm = get_u32(body, &mut at).map_err(|_| corrupt("short body"))?;
    let nonce = get_u64(body, &mut at).map_err(|_| corrupt("short body"))?;
    let work = get_u64(body, &mut at).map_err(|_| corrupt("short body"))?;
    let tx_count = get_u32(body, &mut at).map_err(|_| corrupt("short body"))? as usize;
    // The fixed fields are read, so the rest of the body must be exactly
    // `tx_count` transactions — checked before anything is allocated.
    let claimed = tx_count.saturating_mul(TX_BYTES);
    let rest = body.len() - at;
    if claimed > rest {
        return Err(corrupt("transaction count exceeds body"));
    }
    if claimed < rest {
        return Err(corrupt("trailing bytes in body"));
    }
    let payload: Payload = body[at..].chunks_exact(TX_BYTES).map(decode_tx).collect();

    // Defence in depth: for non-genesis blocks the identifier must be the
    // structural hash of the contents (a checksum collision would have to
    // also collide FNV over a *different* byte layout to slip through).
    if let Some(parent) = parent {
        let expected = Block::compute_id(parent, producer, nonce, work, &payload);
        if expected != id {
            return Err(corrupt("structural identifier mismatch"));
        }
    }

    Ok((
        Block {
            id,
            parent,
            height,
            payload,
            producer,
            merit_ppm,
            nonce,
            work,
        },
        consumed,
        stored_sum,
    ))
}

/// Decodes one transaction (id, from, to, amount) from exactly
/// [`TX_BYTES`] bytes.
fn decode_tx(bytes: &[u8]) -> Transaction {
    let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    Transaction::transfer(u64_at(0), u32_at(8), u32_at(12), u64_at(16))
}

/// The byte span of the record at the start of `buf`, if its length field
/// is intact enough to delimit it (used to skip a corrupt record during
/// salvage).
pub fn record_span(buf: &[u8]) -> Option<usize> {
    let mut off = 0usize;
    let body_len = get_u32(buf, &mut off).ok()? as usize;
    if body_len > MAX_RECORD_BYTES {
        return None;
    }
    let span = off + body_len + 8;
    (span <= buf.len()).then_some(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btadt_types::BlockBuilder;

    fn sample() -> Block {
        BlockBuilder::new(&Block::genesis())
            .producer(3)
            .merit_ppm(250_000)
            .nonce(42)
            .work(5)
            .push_tx(Transaction::transfer(9, 1, 2, 100))
            .push_tx(Transaction::heartbeat(10, 1))
            .build()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let block = sample();
        let rec = encode_record(&block);
        let (decoded, consumed) = decode_record(&rec).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(consumed, rec.len());
    }

    #[test]
    fn genesis_round_trips_without_a_parent() {
        let rec = encode_record(&Block::genesis());
        let (decoded, _) = decode_record(&rec).unwrap();
        assert_eq!(decoded, Block::genesis());
    }

    #[test]
    fn truncation_reports_truncated_at_every_cut() {
        let rec = encode_record(&sample());
        for cut in 0..rec.len() {
            assert_eq!(
                decode_record(&rec[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_records_are_skippable_by_span() {
        let a = encode_record(&sample());
        let b = encode_record(&Block::genesis());
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        // Corrupt a body byte of the first record (not its length prefix).
        buf[6] ^= 0xFF;
        let err = decode_record(&buf).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
        let span = record_span(&buf).unwrap();
        assert_eq!(span, a.len());
        let (decoded, _) = decode_record(&buf[span..]).unwrap();
        assert_eq!(decoded, Block::genesis());
    }

    #[test]
    fn absurd_length_fields_are_truncating() {
        let mut rec = encode_record(&sample());
        rec[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_record(&rec).unwrap_err(), DecodeError::Truncated);
        assert_eq!(record_span(&rec), None);
    }

    /// A four-transaction block: a 149-byte body, the size the ingest
    /// workloads persist.
    fn four_tx() -> Block {
        BlockBuilder::new(&sample())
            .producer(7)
            .nonce(0x0123_4567_89ab_cdef)
            .work(3)
            .payload(
                (1..=4)
                    .map(|i| Transaction::transfer(i * 1_000_003, 2, 3, i << 40))
                    .collect::<Vec<_>>(),
            )
            .build()
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        // Prefix, body and stored sum of a 149-byte body, exhaustively.
        let rec = encode_record(&four_tx());
        assert_eq!(rec.len(), 4 + 149 + 8);
        for bit in 0..rec.len() * 8 {
            let mut copy = rec.clone();
            copy[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_record(&copy).is_err(),
                "flip of bit {bit} slipped through"
            );
        }
    }

    #[test]
    fn every_swap_of_two_differing_body_bytes_fails_the_v2_sum() {
        let rec = encode_record(&four_tx());
        let body = &rec[4..rec.len() - 8];
        let sum = sum64(body);
        let mut swaps = 0;
        for i in 0..body.len() {
            for j in i + 1..body.len() {
                if body[i] != body[j] {
                    let mut swapped = body.to_vec();
                    swapped.swap(i, j);
                    assert_ne!(sum64(&swapped), sum, "swap of bytes {i} and {j}");
                    swaps += 1;
                }
            }
        }
        assert!(swaps > 5_000, "the body is varied enough to test: {swaps}");
    }

    /// The v2 functions are the on-disk format: these values may only
    /// change with a new format version.
    #[test]
    fn the_v2_sums_are_pinned() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        assert_eq!(sum64(&[]), 0x2684_ee2f_46d8_b5ec);
        assert_eq!(sum64(&bytes), 0x13c9_1826_9daf_4eb9);
        // The tail is zero-padded, and the length seed tells the two apart.
        assert_ne!(sum64(b"abc"), sum64(b"abc\0"));
        let mut chunk = ChunkSum::default();
        for part in bytes.chunks(149) {
            chunk.push(sum64(part));
        }
        assert_eq!(chunk.finish(), 0x7bd9_1569_1b88_9e1e);
        // Order-sensitive: the same record sums folded in another order.
        let mut reversed = ChunkSum::default();
        for part in bytes.chunks(149).rev() {
            reversed.push(sum64(part));
        }
        assert_ne!(reversed, chunk);
    }

    #[test]
    fn in_place_encoding_appends_the_same_record_and_returns_its_sum() {
        let blocks = [sample(), Block::genesis(), four_tx()];
        let mut out = b"earlier bytes".to_vec();
        let mut expected = out.clone();
        for block in &blocks {
            let at = out.len();
            let sum = encode_record_into(&mut out, block).expect("fits");
            let rec = encode_record(block);
            assert_eq!(
                sum,
                sum64(&rec[4..rec.len() - 8]),
                "the sum covers the body"
            );
            assert_eq!(
                out[out.len() - 8..],
                sum.to_le_bytes(),
                "and is stored last"
            );
            assert_eq!(out.len() - at, rec.len());
            expected.extend_from_slice(&rec);
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn the_encoder_refuses_exactly_what_the_decoder_would() {
        // 53 bytes of fixed fields + 24 per transaction: 43 688 still fit.
        let with_txs = |n: u64| {
            BlockBuilder::new(&Block::genesis())
                .payload(
                    (0..n)
                        .map(|i| Transaction::transfer(i, 1, 2, 3))
                        .collect::<Vec<_>>(),
                )
                .build()
        };
        let largest = with_txs(43_688);
        assert_eq!(check_fits_record(&largest), Ok(()));
        let rec = encode_record(&largest);
        assert_eq!(rec.len(), 4 + 53 + 24 * 43_688 + 8);
        assert_eq!(decode_record(&rec).unwrap().0, largest);

        let oversize = with_txs(43_689);
        assert!(
            matches!(check_fits_record(&oversize), Err(IngestError::Storage(why)) if why.contains("record limit"))
        );
        assert!(encode_record(&oversize).is_empty());
        let mut out = vec![7u8];
        assert_eq!(encode_record_into(&mut out, &oversize), None);
        assert_eq!(out, vec![7u8]);
    }

    #[test]
    fn the_transaction_count_must_match_the_body_exactly() {
        // A well-checksummed record whose count field claims one
        // transaction more, or one fewer, than its body holds.
        let rec = encode_record(&sample());
        let body_len = rec.len() - 12;
        let count_at = 4 + BODY_FIXED_BYTES + 8 - 4;
        let with_count = |count: u32| {
            let mut forged = rec.clone();
            forged[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            let sum = sum64(&forged[4..4 + body_len]);
            forged[4 + body_len..].copy_from_slice(&sum.to_le_bytes());
            decode_record(&forged)
        };
        let corrupt = |why: &str| Err(DecodeError::Corrupt(why.to_string()));
        assert_eq!(with_count(2), Ok((sample(), rec.len())));
        assert_eq!(with_count(3), corrupt("transaction count exceeds body"));
        assert_eq!(
            with_count(u32::MAX),
            corrupt("transaction count exceeds body")
        );
        assert_eq!(with_count(1), corrupt("trailing bytes in body"));
    }

    #[test]
    fn forged_contents_fail_the_structural_identifier() {
        let block = sample();
        let mut forged = block.clone();
        forged.nonce += 1; // contents change, id does not
        let rec = encode_record(&forged);
        let err = decode_record(&rec).unwrap_err();
        assert!(
            matches!(&err, DecodeError::Corrupt(why) if why.contains("identifier")),
            "{err}"
        );
    }
}
