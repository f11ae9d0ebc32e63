//! Block record encoding with per-record checksums.
//!
//! Each block persists as one length-prefixed record:
//!
//! ```text
//! [u32 body_len][body][u64 checksum64(body)]
//! ```
//!
//! The body serialises every [`Block`] field little-endian (a flag byte
//! marks the optional parent), and the trailing checksum is FNV-1a over the
//! body — the same structural-hash family the block identifiers use, which
//! is exactly the right strength here: the store defends against *media*
//! faults (torn tails, flipped bits, lost pages), not against adversarial
//! forgery, which the paper's model never relies on (see DESIGN.md).
//!
//! Decoding distinguishes the two failure shapes recovery treats
//! differently: [`DecodeError::Truncated`] (the record runs past the end of
//! the buffer — a torn tail, or a length field mangled upward) and
//! [`DecodeError::Corrupt`] (the record is self-delimiting but its checksum
//! or structural identifier disagrees — salvage can skip it and continue at
//! the next record boundary).

use btadt_types::{Block, BlockId, Payload, Transaction};

/// Upper bound on a record body, obeyed by both sides: the encoder refuses a
/// block whose body would exceed it ([`fits_record`]), and a decoded length
/// above it is treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Streaming FNV-1a: the chunk checksum is maintained incrementally as
/// records are appended, so sealing a chunk never re-reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feeds bytes into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds the same bytes into `self` and `other` in one pass.  Each
    /// FNV-1a chain is serial (xor, then a multiply the next byte waits
    /// for), but the two chains are independent of each other, so their
    /// multiplies overlap and the second hash costs little over the first.
    pub fn update_both(&mut self, other: &mut Fnv64, bytes: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        self.0 = a;
        other.0 = b;
    }

    /// The hash of everything fed so far (non-consuming).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a byte slice — the record and chunk checksum function.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
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
impl From<DecodeError> for btadt_pipeline::IngestError {
    fn from(e: DecodeError) -> Self {
        btadt_pipeline::IngestError::Storage(e.to_string())
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

/// `true` iff `block` encodes to a record [`decode_record`] will read back:
/// its body stays within [`MAX_RECORD_BYTES`].  A longer record would be
/// written "successfully" and then taken for a mangled length field on
/// restart, costing the rest of its chunk as a torn tail — so the encoder
/// refuses it and ingest doors reject such a block before it links.
pub fn fits_record(block: &Block) -> bool {
    body_len(block) <= MAX_RECORD_BYTES
}

/// Encodes one block as a checksummed, length-prefixed record appended to
/// `out`, and feeds the record's bytes to `running` — the checksum of the
/// chunk the record is going into.
///
/// This is the store's one encoder.  Nothing is allocated beyond `out`'s
/// own growth, and the body is hashed once for both checksums
/// ([`Fnv64::update_both`]): the record checksum over the body, and the
/// running chunk checksum over prefix, body and record checksum.
///
/// Returns `false`, writing nothing and leaving `running` untouched, when
/// the block does not [fit a record](fits_record).
pub fn encode_record_into(out: &mut Vec<u8>, block: &Block, running: &mut Fnv64) -> bool {
    let body_len = body_len(block);
    if body_len > MAX_RECORD_BYTES {
        return false;
    }
    out.reserve(body_len + 12);
    let prefix = out.len();
    put_u32(out, body_len as u32); // ≤ MAX_RECORD_BYTES, checked above
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
    let body = prefix + 4;
    debug_assert_eq!(out.len() - body, body_len, "body_len mirrors the layout");
    running.update(&out[prefix..body]);
    let mut record = Fnv64::new();
    record.update_both(running, &out[body..]);
    let sum = record.finish().to_le_bytes();
    out.extend_from_slice(&sum);
    running.update(&sum);
    true
}

/// Encodes one block as a checksummed, length-prefixed record in a fresh
/// buffer: the allocating wrapper over [`encode_record_into`] for callers
/// that want one record's bytes (tests, probes).  Empty when the block does
/// not [fit a record](fits_record).
pub fn encode_record(block: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, block, &mut Fnv64::new());
    out
}

/// Decodes one record at the start of `buf`.
///
/// On success returns the block and the number of bytes consumed.  A
/// [`DecodeError::Corrupt`] record still has a well-defined end — callers
/// that want to salvage the rest of a chunk can advance by
/// `record_span(buf)` and continue.
pub fn decode_record(buf: &[u8]) -> Result<(Block, usize), DecodeError> {
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
    if checksum64(body) != stored_sum {
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
    fn any_single_bit_flip_is_detected() {
        let rec = encode_record(&sample());
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

    #[test]
    fn update_both_feeds_two_hashers_what_update_feeds_each() {
        let bytes: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
        b.update(b"already running");
        let (mut a2, mut b2) = (a, b);
        a.update_both(&mut b, &bytes);
        a2.update(&bytes);
        b2.update(&bytes);
        assert_eq!((a, b), (a2, b2));
    }

    #[test]
    fn in_place_encoding_appends_the_same_record_and_feeds_the_chunk_checksum() {
        let blocks = [sample(), Block::genesis(), sample()];
        let mut out = b"earlier bytes".to_vec();
        let mut running = Fnv64::new();
        running.update(&out);
        let mut expected = out.clone();
        for block in &blocks {
            assert!(encode_record_into(&mut out, block, &mut running));
            expected.extend_from_slice(&encode_record(block));
        }
        assert_eq!(out, expected);
        assert_eq!(running.finish(), checksum64(&expected));
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
        assert!(fits_record(&largest));
        let rec = encode_record(&largest);
        assert_eq!(rec.len(), 4 + 53 + 24 * 43_688 + 8);
        assert_eq!(decode_record(&rec).unwrap().0, largest);

        let oversize = with_txs(43_689);
        assert!(!fits_record(&oversize));
        assert!(encode_record(&oversize).is_empty());
        let (mut out, mut running) = (vec![7u8], Fnv64::new());
        assert!(!encode_record_into(&mut out, &oversize, &mut running));
        assert_eq!((out, running), (vec![7u8], Fnv64::new()));
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
            let sum = checksum64(&forged[4..4 + body_len]);
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
