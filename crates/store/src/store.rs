//! The chunked append-only block store.
//!
//! ## Layout
//!
//! Blocks are appended as checksummed records (see [`crate::codec`]) to an
//! *active chunk* file; when the chunk reaches
//! [`StoreConfig::chunk_capacity`] records it is **sealed** — its byte
//! length and chunk checksum (an order-sensitive fold of its record sums,
//! [`ChunkSum`], so no byte is read twice) become part of the next
//! checkpoint.  A **checkpoint** writes a manifest listing every sealed
//! chunk, the active chunk index, the pruning height, a generation counter
//! and the record format version, protected by its own trailing checksum —
//! first to `manifest.tmp`, then committed with one atomic rename.  The
//! chunk files themselves are never rewritten on the happy path, so the
//! only commit point in the whole store is that rename: the
//! crash-consistency argument is the classic shadow-manifest one
//! (rusty-kaspa's store/pruning split applies the same discipline).
//!
//! Records reach the medium a **run** at a time
//! ([`BlockStore::append_run`]; `append` is a run of one): the blocks one
//! ingest linked are encoded into one reused buffer and written with one
//! medium write per stretch of the run that falls into one chunk between
//! two checkpoints — group commit with no group to configure, and no
//! bytes left unwritten when the call returns.  Where the runs were cut
//! leaves no trace in the files.
//!
//! ## Corruption taxonomy and recovery
//!
//! [`BlockStore::recover`] rebuilds a store from a medium of unknown
//! integrity:
//!
//! 1. the manifest is read and checksum-verified; if it is absent or
//!    corrupt, recovery falls back to an empty manifest and trusts only
//!    per-record checksums (`manifest_fallback`);
//! 2. every chunk file on the medium is scanned record by record — records
//!    with intact boundaries but failing checksums are **skipped and
//!    counted** (bit flips), a record that runs past the end of the file
//!    **truncates the torn tail** (torn writes, mangled length fields);
//! 3. a sealed chunk whose byte length or chunk checksum disagrees
//!    with its manifest entry is **damaged** even when every surviving
//!    record parses — that is how *dropped* appends inside sealed history
//!    are detected.  Damaged chunks are copied to `quarantine-*` for
//!    forensics; chunks listed in the manifest but missing from the medium
//!    count as lost;
//! 4. surviving blocks (deduplicated by id — interrupted compactions leave
//!    benign duplicates) are rewritten into a **fresh canonical layout**
//!    and immediately checkpointed, so a second crash during recovery
//!    replays the same pipeline over an already-clean store (idempotent).
//!
//! Each record's bytes are read once: decoding verifies the record sum,
//! and a sealed chunk is checked against the fold of those sums.
//!
//! Blocks that existed only in lost/damaged regions are simply *gone* from
//! the store's perspective — the recovery report and the returned block
//! set tell the replica layer exactly what survived, and the replica
//! delta-syncs the gap from healthy peers (hardened gossip, or the healing
//! loop of the store drill, which serves a `ReplicaCore`'s missing parents).
//!
//! ## Pruning
//!
//! [`BlockStore::prune`] garbage-collects losing subtrees.  Its one library
//! caller is `ReplicaCore::prune`, which supplies the keep-set (the cold
//! spine + the hot window) and a requested pruning height, which is
//! clamped to the **last checkpoint height** — history is only GC'd once a
//! durable manifest seals it.
//! Compaction writes the retained blocks into fresh chunk indices, commits
//! them with a manifest swap, and only then deletes the old chunk files;
//! a crash at any intermediate point (the `PruneRace` seam) leaves either
//! the old layout (manifest not yet swapped) or a benign superposition of
//! both, which recovery's id-dedup canonicalisation collapses.

use std::collections::{HashMap, HashSet};

use btadt_types::{Block, BlockId, BlockIdSet};

use crate::codec::{
    decode_record, decode_summed, encode_record_into, get_u32, get_u64, put_u32, put_u64,
    record_span, sum64, ChunkSum, DecodeError,
};
use crate::medium::SimMedium;

/// The durable manifest file name.
pub const MANIFEST: &str = "manifest";
/// The shadow manifest written before the atomic swap.
pub const MANIFEST_TMP: &str = "manifest.tmp";

const MANIFEST_MAGIC: u64 = 0x4254_5354_4f52_4531; // "BTSTORE1"
/// The record format the store writes and reads (see [`crate::codec`]).
const MANIFEST_VERSION: u32 = 2;

/// Static configuration of a [`BlockStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Records per chunk before the active chunk is sealed.
    pub chunk_capacity: u32,
    /// Appends between automatic checkpoints (0 = manual checkpoints only).
    pub auto_checkpoint_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            chunk_capacity: 256,
            auto_checkpoint_every: 0,
        }
    }
}

impl StoreConfig {
    /// A small configuration that seals and checkpoints often — convenient
    /// for tests and chaos cells that want many commit points.
    pub fn small() -> Self {
        StoreConfig {
            chunk_capacity: 8,
            auto_checkpoint_every: 16,
        }
    }
}

/// Metadata of one sealed chunk, as recorded in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Chunk index (chunk indices are assigned once and never reused).
    pub index: u64,
    /// Number of records sealed into the chunk.
    pub records: u32,
    /// Byte length of the chunk file at sealing time.
    pub bytes: u64,
    /// Chunk checksum at sealing time: the [`ChunkSum`] of its records.
    pub checksum: u64,
}

/// The file name of a chunk index (zero-padded so sorted listings are in
/// index order).
pub fn chunk_file(index: u64) -> String {
    format!("chunk-{index:010}")
}

fn parse_chunk_index(name: &str) -> Option<u64> {
    name.strip_prefix("chunk-")?.parse().ok()
}

/// Counters of store activity (volatile; reset by recovery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blocks appended.
    pub appended: u64,
    /// Chunks sealed.
    pub chunks_sealed: u64,
    /// Checkpoints attempted (the medium decides what became durable).
    pub checkpoints: u64,
    /// Blocks garbage-collected by pruning.
    pub pruned: u64,
    /// Compaction passes completed.
    pub prunes: u64,
    /// [`append_run`](BlockStore::append_run) calls that wrote at least one
    /// record.
    pub runs: u64,
    /// Records written by the largest single run.
    pub largest_run: u64,
    /// Blocks refused because their record would exceed
    /// [`MAX_RECORD_BYTES`](crate::codec::MAX_RECORD_BYTES) — skipped, not
    /// written: recovery would take such a record for a torn tail.  The
    /// ingest doors refuse such blocks before they link
    /// ([`check_fits_record`](crate::codec::check_fits_record)), so only a
    /// direct caller of [`append_run`](BlockStore::append_run) meets this.
    pub oversize_skipped: u64,
}

/// What one recovery pass found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks that survived verification (after id-dedup).
    pub blocks_recovered: usize,
    /// Records skipped for failing their checksum (bit flips et al.).
    pub corrupt_records: usize,
    /// Bytes dropped from chunk tails (torn writes, mangled lengths).
    pub torn_tail_bytes: u64,
    /// Chunks quarantined for damage (bad whole-chunk checksum, short
    /// record count, or any record-level fault inside them).
    pub chunks_quarantined: usize,
    /// Chunks listed in the manifest but absent from the medium.
    pub chunks_missing: usize,
    /// Chunks that verified clean end to end.
    pub chunks_verified: usize,
    /// Duplicate records dropped (benign residue of interrupted compaction).
    pub duplicates_dropped: usize,
    /// `true` when the manifest itself was absent or corrupt and recovery
    /// fell back to per-record trust only.
    pub manifest_fallback: bool,
    /// The pruning height carried over from the recovered manifest.
    pub pruning_height: u64,
}

impl RecoveryReport {
    /// `true` iff recovery found no damage of any kind.
    pub fn is_pristine(&self) -> bool {
        self.corrupt_records == 0
            && self.torn_tail_bytes == 0
            && self.chunks_quarantined == 0
            && self.chunks_missing == 0
            && self.duplicates_dropped == 0
            && !self.manifest_fallback
    }
}

/// The result of one pruning compaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Blocks retained in the compacted layout.
    pub retained: usize,
    /// Blocks garbage-collected.
    pub dropped: usize,
    /// The effective pruning height (requested, clamped to the last
    /// checkpoint height).
    pub pruning_height: u64,
}

struct Manifest {
    generation: u64,
    pruning_height: u64,
    checkpoint_height: u64,
    next_index: u64,
    active_index: u64,
    sealed: Vec<ChunkMeta>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + m.sealed.len() * 28);
    put_u64(&mut out, MANIFEST_MAGIC);
    put_u32(&mut out, MANIFEST_VERSION);
    put_u64(&mut out, m.generation);
    put_u64(&mut out, m.pruning_height);
    put_u64(&mut out, m.checkpoint_height);
    put_u64(&mut out, m.next_index);
    put_u64(&mut out, m.active_index);
    put_u32(
        &mut out,
        u32::try_from(m.sealed.len()).expect("sealed count fits u32"),
    );
    for chunk in &m.sealed {
        put_u64(&mut out, chunk.index);
        put_u32(&mut out, chunk.records);
        put_u64(&mut out, chunk.bytes);
        put_u64(&mut out, chunk.checksum);
    }
    let sum = sum64(&out);
    put_u64(&mut out, sum);
    out
}

fn decode_manifest(buf: &[u8]) -> Result<Manifest, DecodeError> {
    if buf.len() < 8 {
        return Err(DecodeError::Truncated);
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if sum64(body) != stored {
        return Err(DecodeError::Corrupt("manifest checksum mismatch".into()));
    }
    let mut off = 0usize;
    if get_u64(body, &mut off)? != MANIFEST_MAGIC {
        return Err(DecodeError::Corrupt("bad manifest magic".into()));
    }
    if get_u32(body, &mut off)? != MANIFEST_VERSION {
        return Err(DecodeError::Corrupt("unknown manifest version".into()));
    }
    let generation = get_u64(body, &mut off)?;
    let pruning_height = get_u64(body, &mut off)?;
    let checkpoint_height = get_u64(body, &mut off)?;
    let next_index = get_u64(body, &mut off)?;
    let active_index = get_u64(body, &mut off)?;
    let count = get_u32(body, &mut off)? as usize;
    let mut sealed = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        sealed.push(ChunkMeta {
            index: get_u64(body, &mut off)?,
            records: get_u32(body, &mut off)?,
            bytes: get_u64(body, &mut off)?,
            checksum: get_u64(body, &mut off)?,
        });
    }
    if off != body.len() {
        return Err(DecodeError::Corrupt("trailing manifest bytes".into()));
    }
    Ok(Manifest {
        generation,
        pruning_height,
        checkpoint_height,
        next_index,
        active_index,
        sealed,
    })
}

/// The write position of a chunk layout: its sealed chunks and the active
/// chunk that records are appended to.  The live store has one; a pruning
/// compaction builds a second one at fresh indices and swaps it in when it
/// commits.
#[derive(Debug)]
struct Layout {
    sealed: Vec<ChunkMeta>,
    next_index: u64,
    active_index: u64,
    /// `chunk_file(active_index)`, rebuilt only when a chunk is sealed.
    active_file: String,
    active_records: u32,
    active_bytes: u64,
    active_sum: ChunkSum,
}

impl Layout {
    /// An empty layout whose first chunk has index `first`.
    fn starting_at(first: u64) -> Self {
        Layout {
            sealed: Vec::new(),
            next_index: first + 1,
            active_index: first,
            active_file: chunk_file(first),
            active_records: 0,
            active_bytes: 0,
            active_sum: ChunkSum::default(),
        }
    }

    /// Chunk indices of the layout, sealed chunks first.
    fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.sealed
            .iter()
            .map(|c| c.index)
            .chain([self.active_index])
    }

    /// Writes the encoded records waiting in `buf` to the active chunk
    /// with one medium write.
    fn flush(&mut self, medium: &mut SimMedium, buf: &mut Vec<u8>) {
        if !buf.is_empty() {
            medium.append(&self.active_file, buf);
            self.active_bytes += buf.len() as u64;
            buf.clear();
        }
    }

    fn seal(&mut self) {
        self.sealed.push(ChunkMeta {
            index: self.active_index,
            records: self.active_records,
            bytes: self.active_bytes,
            checksum: self.active_sum.finish(),
        });
        self.active_index = self.next_index;
        self.next_index += 1;
        self.active_file = chunk_file(self.active_index);
        self.active_records = 0;
        self.active_bytes = 0;
        self.active_sum = ChunkSum::default();
    }

    /// The store's one record writer: encodes blocks from `blocks` into
    /// `buf` (empty on entry and on return), folds their record sums into
    /// the active chunk's checksum, and seals the chunk every `capacity`
    /// records.
    ///
    /// The records of one stretch — the part of the run that falls into
    /// one chunk — reach the medium as **one** write.  After each record
    /// `checkpoint_due` is asked whether a checkpoint must follow it; on
    /// `true` the stretch is written out and the call returns `true` with
    /// the rest of `blocks` untaken, so the caller checkpoints over exactly
    /// the bytes a record-at-a-time writer would have written, and calls
    /// again.  Returns `false` once `blocks` is exhausted.  A block the
    /// encoder refuses (it does not fit a record) is skipped.
    fn write_until<'a>(
        &mut self,
        medium: &mut SimMedium,
        buf: &mut Vec<u8>,
        capacity: u32,
        blocks: &mut impl Iterator<Item = &'a Block>,
        mut checkpoint_due: impl FnMut(&Block) -> bool,
    ) -> bool {
        for block in blocks {
            let Some(sum) = encode_record_into(buf, block) else {
                continue;
            };
            self.active_sum.push(sum);
            self.active_records += 1;
            let due = checkpoint_due(block);
            let full = self.active_records >= capacity;
            if full || due {
                self.flush(medium, buf);
            }
            if full {
                self.seal();
            }
            if due {
                return true;
            }
        }
        self.flush(medium, buf);
        false
    }
}

/// The chunked append-only block store over a [`SimMedium`].
#[derive(Debug)]
pub struct BlockStore {
    config: StoreConfig,
    medium: SimMedium,
    layout: Layout,
    /// Encoded records of the stretch being written; reused across runs and
    /// empty between calls — the store never holds unwritten bytes.
    buf: Vec<u8>,
    index: BlockIdSet,
    generation: u64,
    pruning_height: u64,
    checkpoint_height: u64,
    max_height: u64,
    appends_since_checkpoint: u64,
    stats: StoreStats,
}

impl BlockStore {
    /// Creates a fresh store over `medium` (which should be empty of
    /// `chunk-*`/`manifest` files; recovery is the entry point for a
    /// non-empty medium).
    pub fn create(medium: SimMedium, config: StoreConfig) -> Self {
        BlockStore {
            config,
            medium,
            layout: Layout::starting_at(0),
            buf: Vec::new(),
            index: BlockIdSet::default(),
            generation: 0,
            pruning_height: 0,
            checkpoint_height: 0,
            max_height: 0,
            appends_since_checkpoint: 0,
            stats: StoreStats::default(),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of blocks the store believes it holds.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` iff no blocks have been appended.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` iff the store believes it holds `id`.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.contains(&id)
    }

    /// The current pruning height (blocks at or below it exist only on the
    /// selected-chain spine).
    pub fn pruning_height(&self) -> u64 {
        self.pruning_height
    }

    /// The maximum block height covered by the last checkpoint attempt.
    pub fn checkpoint_height(&self) -> u64 {
        self.checkpoint_height
    }

    /// Sealed chunks of the live layout.
    pub fn sealed_chunks(&self) -> &[ChunkMeta] {
        &self.layout.sealed
    }

    /// Volatile activity counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Read-only access to the medium.
    pub fn medium(&self) -> &SimMedium {
        &self.medium
    }

    /// Mutable access to the medium — the hook point for attaching fault
    /// injectors and for corruption drills.
    pub fn medium_mut(&mut self) -> &mut SimMedium {
        &mut self.medium
    }

    /// Simulates a crash: every volatile structure (index, sealed list,
    /// counters) is dropped, only the durable medium survives — with its
    /// fault injector detached, because the *replacement* hardware is
    /// healthy even though the bytes it reads back may not be.
    pub fn into_medium(mut self) -> SimMedium {
        self.medium.clear_injector();
        self.medium
    }

    /// Appends one block: [`append_run`](Self::append_run) over a run of
    /// one.
    pub fn append(&mut self, block: &Block) {
        self.append_run(std::iter::once(block));
    }

    /// Appends a run of blocks — the unit of durability — sealing and
    /// checkpointing as configured.  The run is *believed* durable when the
    /// call returns — whether it actually became durable is the medium's
    /// (and recovery's) business.
    ///
    /// The run is encoded into one reused buffer and reaches the medium
    /// with one write per stretch that falls into one chunk between two
    /// checkpoints: it is cut exactly where appending block by block seals
    /// a chunk or fires [`StoreConfig::auto_checkpoint_every`].  The
    /// medium therefore ends up with the same files holding the same bytes
    /// (manifest included) as after one `append` per block; only the
    /// number of medium writes differs, so a torn, flipped or dropped
    /// write now costs up to a stretch of records where it used to cost
    /// one — recovery salvages the whole records before a tear either way.
    /// Nothing stays buffered across calls: a run is whatever the caller
    /// linked, and it is written before the call returns.
    ///
    /// A block whose record would not decode again
    /// ([`check_fits_record`](crate::codec::check_fits_record)) is skipped
    /// and counted in [`StoreStats::oversize_skipped`], never written.
    pub fn append_run<'a>(&mut self, blocks: impl IntoIterator<Item = &'a Block>) {
        let every = self.config.auto_checkpoint_every;
        let sealed_before = self.layout.sealed.len();
        let appended_before = self.stats.appended;
        let mut offered = 0u64;
        {
            let mut blocks = blocks.into_iter().inspect(|_| offered += 1);
            while self.layout.write_until(
                &mut self.medium,
                &mut self.buf,
                self.config.chunk_capacity,
                &mut blocks,
                |block| {
                    self.index.insert(block.id);
                    self.max_height = self.max_height.max(block.height);
                    self.stats.appended += 1;
                    self.appends_since_checkpoint += 1;
                    every > 0 && self.appends_since_checkpoint >= every
                },
            ) {
                self.checkpoint();
            }
        }
        let written = self.stats.appended - appended_before;
        self.stats.chunks_sealed += (self.layout.sealed.len() - sealed_before) as u64;
        self.stats.oversize_skipped += offered - written;
        if written > 0 {
            self.stats.runs += 1;
            self.stats.largest_run = self.stats.largest_run.max(written);
        }
    }

    /// Writes a checkpoint: shadow manifest, then the atomic swap.  The
    /// `PartialCheckpoint` fault tears the shadow write; the
    /// `StaleManifest` fault drops the swap — both leave the *previous*
    /// durable manifest authoritative, which is exactly what recovery
    /// assumes.
    pub fn checkpoint(&mut self) {
        self.generation += 1;
        let manifest = Manifest {
            generation: self.generation,
            pruning_height: self.pruning_height,
            checkpoint_height: self.max_height,
            next_index: self.layout.next_index,
            active_index: self.layout.active_index,
            sealed: self.layout.sealed.clone(),
        };
        let bytes = encode_manifest(&manifest);
        self.medium.overwrite(MANIFEST_TMP, &bytes);
        self.medium.rename(MANIFEST_TMP, MANIFEST);
        self.checkpoint_height = self.max_height;
        self.appends_since_checkpoint = 0;
        self.stats.checkpoints += 1;
    }

    /// Decodes every block of the live layout from the medium, in chunk
    /// order (append order: parents precede children barring corruption).
    ///
    /// Undecodable records are *skipped* — this accessor reports what the
    /// medium can prove, the recovery pipeline is the authority on damage.
    pub fn blocks(&self) -> Vec<Block> {
        let mut out = Vec::with_capacity(self.index.len());
        for index in self.layout.indices() {
            let Some(bytes) = self.medium.read(&chunk_file(index)) else {
                continue;
            };
            let mut off = 0usize;
            while off < bytes.len() {
                match decode_record(&bytes[off..]) {
                    Ok((block, consumed)) => {
                        out.push(block);
                        off += consumed;
                    }
                    Err(DecodeError::Corrupt(_)) => match record_span(&bytes[off..]) {
                        Some(span) => off += span,
                        None => break,
                    },
                    Err(DecodeError::Truncated) => break,
                }
            }
        }
        out
    }

    /// Garbage-collects every block that is neither above the effective
    /// pruning height nor in `keep` (the selected-chain spine).  See the
    /// module docs for the crash-safety argument.
    pub fn prune(&mut self, keep: &HashSet<BlockId>, requested_height: u64) -> PruneOutcome {
        self.prune_inner(keep, requested_height, false)
            .expect("uninterrupted prune completes")
    }

    /// Pruning interrupted *after* the compacted chunks are written but
    /// *before* the manifest swap — the `PruneRace` seam.  Consumes the
    /// store and returns the crashed medium; [`BlockStore::recover`] must
    /// collapse the old-layout/new-layout superposition.
    pub fn prune_crashing_before_commit(
        mut self,
        keep: &HashSet<BlockId>,
        requested_height: u64,
    ) -> SimMedium {
        let interrupted = self.prune_inner(keep, requested_height, true);
        debug_assert!(
            interrupted.is_none(),
            "interrupted prune returns no outcome"
        );
        self.into_medium()
    }

    fn prune_inner(
        &mut self,
        keep: &HashSet<BlockId>,
        requested_height: u64,
        crash_before_commit: bool,
    ) -> Option<PruneOutcome> {
        let effective = requested_height.min(self.checkpoint_height);
        let all = self.blocks();
        let total = all.len();
        let retained: Vec<Block> = all
            .into_iter()
            .filter(|b| b.height > effective || keep.contains(&b.id))
            .collect();
        let dropped = total - retained.len();

        // Write the compacted layout at fresh indices (never reused, so
        // the old and new layouts coexist until the swap commits).  No
        // checkpoint may fire mid-compaction: it would commit half a layout.
        let mut compacted = Layout::starting_at(self.layout.next_index);
        compacted.write_until(
            &mut self.medium,
            &mut self.buf,
            self.config.chunk_capacity,
            &mut retained.iter(),
            |_| false,
        );

        if crash_before_commit {
            return None;
        }

        // Commit: swap in a manifest describing only the new layout…
        let old = std::mem::replace(&mut self.layout, compacted);
        self.index = retained.iter().map(|b| b.id).collect();
        self.pruning_height = effective;
        self.checkpoint();
        // …then delete the superseded chunk files (pure garbage now).
        for index in old.indices() {
            self.medium.remove(&chunk_file(index));
        }
        self.stats.pruned += dropped as u64;
        self.stats.prunes += 1;
        Some(PruneOutcome {
            retained: retained.len(),
            dropped,
            pruning_height: effective,
        })
    }

    /// Rebuilds a store from a medium of unknown integrity.  Returns the
    /// recovered store (fresh canonical layout, already checkpointed), the
    /// damage report, and the surviving blocks in scan order.
    pub fn recover(
        mut medium: SimMedium,
        config: StoreConfig,
    ) -> (Self, RecoveryReport, Vec<Block>) {
        let mut report = RecoveryReport::default();

        let manifest = match medium.read(MANIFEST).map(decode_manifest) {
            Some(Ok(manifest)) => Some(manifest),
            Some(Err(_)) => {
                report.manifest_fallback = true;
                None
            }
            None => {
                // An absent manifest is only a fault if data exists.
                report.manifest_fallback = medium.list().iter().any(|f| f.starts_with("chunk-"));
                None
            }
        };
        report.pruning_height = manifest.as_ref().map(|m| m.pruning_height).unwrap_or(0);

        // The scan set: every chunk file on the medium, in index order.
        let mut on_disk: Vec<(u64, String)> = medium
            .list()
            .into_iter()
            .filter_map(|name| parse_chunk_index(&name).map(|i| (i, name)))
            .collect();
        on_disk.sort_unstable();
        // The manifest's sealed chunks by index, looked up once per chunk
        // on the medium.
        let mut sealed: HashMap<u64, ChunkMeta> = manifest
            .iter()
            .flat_map(|m| &m.sealed)
            .map(|c| (c.index, *c))
            .collect();

        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut blocks: Vec<Block> = Vec::new();
        let mut quarantine: Vec<(String, Vec<u8>)> = Vec::new();
        for (index, name) in &on_disk {
            let bytes = medium.read(name).expect("listed file exists");
            let meta = sealed.remove(index);
            let mut damaged = meta.is_some_and(|meta| meta.bytes != bytes.len() as u64);
            let mut chunk_sum = ChunkSum::default();
            let mut parsed = 0u32;
            let mut off = 0usize;
            while off < bytes.len() {
                match decode_summed(&bytes[off..]) {
                    Ok((block, consumed, sum)) => {
                        if seen.insert(block.id) {
                            blocks.push(block);
                        } else {
                            report.duplicates_dropped += 1;
                        }
                        chunk_sum.push(sum);
                        parsed += 1;
                        off += consumed;
                    }
                    Err(DecodeError::Corrupt(_)) => {
                        report.corrupt_records += 1;
                        damaged = true;
                        match record_span(&bytes[off..]) {
                            Some(span) => off += span,
                            None => {
                                report.torn_tail_bytes += (bytes.len() - off) as u64;
                                break;
                            }
                        }
                    }
                    Err(DecodeError::Truncated) => {
                        report.torn_tail_bytes += (bytes.len() - off) as u64;
                        damaged = true;
                        break;
                    }
                }
            }
            if let Some(meta) = meta {
                // Fewer surviving records than sealed: dropped appends.
                // The chunk checksum is the fold of its record sums.
                if parsed < meta.records || meta.checksum != chunk_sum.finish() {
                    damaged = true;
                }
            }
            if damaged {
                report.chunks_quarantined += 1;
                quarantine.push((format!("quarantine-{name}"), bytes.to_vec()));
            } else {
                report.chunks_verified += 1;
            }
        }
        // Whatever the manifest lists and the medium lacks is lost.
        report.chunks_missing = sealed.len();

        // Canonicalise: quarantine forensic copies, drop the old layout,
        // rewrite the survivors, checkpoint.
        for (name, bytes) in quarantine {
            medium.overwrite(&name, &bytes);
        }
        for (_, name) in &on_disk {
            medium.remove(name);
        }
        medium.remove(MANIFEST);
        medium.remove(MANIFEST_TMP);

        let mut store = BlockStore::create(medium, config);
        store.pruning_height = report.pruning_height;
        store.append_run(&blocks);
        store.checkpoint();
        store.stats = StoreStats::default();
        report.blocks_recovered = blocks.len();
        (store, report, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_record;
    use btadt_types::BlockBuilder;

    /// A deterministic chain of `n` blocks hanging off the genesis block.
    fn chain(n: usize) -> Vec<Block> {
        let mut parent = Block::genesis();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let block = BlockBuilder::new(&parent)
                .producer(1)
                .nonce(i as u64)
                .work(1 + (i as u64 % 3))
                .build();
            parent = block.clone();
            out.push(block);
        }
        out
    }

    fn store_with(blocks: &[Block], config: StoreConfig) -> BlockStore {
        let mut store = BlockStore::create(SimMedium::new(), config);
        for b in blocks {
            store.append(b);
        }
        store
    }

    #[test]
    fn append_seal_checkpoint_recover_round_trip() {
        let blocks = chain(30);
        let mut store = store_with(&blocks, StoreConfig::small());
        store.checkpoint();
        assert_eq!(store.len(), 30);
        assert!(store.sealed_chunks().len() >= 3);
        let (recovered, report, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::small());
        assert!(report.is_pristine(), "{report:?}");
        assert_eq!(report.blocks_recovered, 30);
        assert_eq!(survivors, blocks);
        assert_eq!(recovered.len(), 30);
        for b in &blocks {
            assert!(recovered.contains(b.id));
        }
    }

    #[test]
    fn crash_without_any_checkpoint_still_recovers_records() {
        let blocks = chain(10);
        let store = store_with(&blocks, StoreConfig::default());
        // No checkpoint at all: no manifest, only the active chunk file.
        let (_, report, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::default());
        assert_eq!(survivors.len(), 10);
        assert!(report.manifest_fallback, "no manifest to trust");
        assert_eq!(report.corrupt_records, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_rest_survives() {
        let blocks = chain(5);
        let mut store = store_with(&blocks, StoreConfig::default());
        store.checkpoint();
        let file = chunk_file(0);
        let len = store.medium().len(&file);
        let mut medium = store.into_medium();
        medium.truncate(&file, len - 7); // tear the last record
        let (_, report, survivors) = BlockStore::recover(medium, StoreConfig::default());
        assert_eq!(survivors.len(), 4);
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(report.chunks_quarantined, 1);
        assert_eq!(survivors, blocks[..4]);
    }

    #[test]
    fn bit_flip_quarantines_the_chunk_but_salvages_the_rest() {
        let blocks = chain(6);
        let mut store = store_with(&blocks, StoreConfig::default());
        store.checkpoint();
        let mut medium = store.into_medium();
        // Flip a bit in the *second* record's body, far from length fields.
        let record_len = encode_record(&blocks[0]).len();
        medium.corrupt_bit(&chunk_file(0), (record_len + 10) * 8);
        let (_, report, survivors) = BlockStore::recover(medium, StoreConfig::default());
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(report.chunks_quarantined, 1);
        assert_eq!(survivors.len(), 5, "all but the flipped record salvage");
        assert!(survivors.iter().all(|b| b.id != blocks[1].id));
    }

    #[test]
    fn a_corrupt_manifest_falls_back_to_per_record_trust() {
        let blocks = chain(12);
        let mut store = store_with(&blocks, StoreConfig::small());
        store.checkpoint();
        let mut medium = store.into_medium();
        medium.corrupt_bit(MANIFEST, 100);
        let (_, report, survivors) = BlockStore::recover(medium, StoreConfig::small());
        assert!(report.manifest_fallback);
        assert_eq!(survivors.len(), 12, "records carry their own checksums");
    }

    #[test]
    fn dropped_records_inside_a_sealed_chunk_are_detected() {
        // Build the same sealed chunk twice: once faithfully, once with a
        // record missing — then graft the short file under the faithful
        // manifest, as a dropped append would leave it.
        let blocks = chain(8);
        let config = StoreConfig {
            chunk_capacity: 8,
            auto_checkpoint_every: 0,
        };
        let mut faithful = store_with(&blocks, config);
        faithful.checkpoint();
        let mut medium = faithful.into_medium();
        let file = chunk_file(0);
        let full = medium.read(&file).unwrap().to_vec();
        let span = record_span(&full).unwrap();
        medium.overwrite(&file, &full[span..]); // first record silently gone
        let (_, report, survivors) = BlockStore::recover(medium, config);
        assert_eq!(report.chunks_quarantined, 1, "short chunk is damaged");
        assert_eq!(survivors.len(), 7);
        assert!(survivors.iter().all(|b| b.id != blocks[0].id));
    }

    #[test]
    fn records_trading_places_inside_a_sealed_chunk_are_detected() {
        // Every record still verifies and the chunk keeps its length and
        // record count: only the fold of record sums is order-sensitive.
        let blocks = chain(8);
        let config = StoreConfig {
            chunk_capacity: 8,
            auto_checkpoint_every: 0,
        };
        let mut store = store_with(&blocks, config);
        store.checkpoint();
        let mut medium = store.into_medium();
        let file = chunk_file(0);
        let full = medium.read(&file).unwrap().to_vec();
        let first = record_span(&full).unwrap();
        let second = first + record_span(&full[first..]).unwrap();
        let mut swapped = full[first..second].to_vec();
        swapped.extend_from_slice(&full[..first]);
        swapped.extend_from_slice(&full[second..]);
        assert_eq!(swapped.len(), full.len());
        medium.overwrite(&file, &swapped);
        let (_, report, survivors) = BlockStore::recover(medium, config);
        assert_eq!(report.corrupt_records, 0, "each record is intact");
        assert_eq!(report.chunks_quarantined, 1, "the order is not");
        assert_eq!(survivors.len(), 8);
    }

    #[test]
    fn missing_chunk_files_are_reported() {
        let blocks = chain(20);
        let mut store = store_with(&blocks, StoreConfig::small());
        store.checkpoint();
        let mut medium = store.into_medium();
        assert!(medium.remove(&chunk_file(1)));
        let (_, report, survivors) = BlockStore::recover(medium, StoreConfig::small());
        assert_eq!(report.chunks_missing, 1);
        assert_eq!(survivors.len(), 12, "8 of 20 lived in the lost chunk");
    }

    #[test]
    fn prune_drops_losers_and_is_clamped_to_the_checkpoint() {
        let blocks = chain(20);
        let mut store = store_with(&blocks, StoreConfig::small());
        // Last checkpoint covered height 16 (auto, every 16 appends).
        assert_eq!(store.checkpoint_height(), 16);
        let keep: HashSet<BlockId> = blocks[..10].iter().map(|b| b.id).collect();
        let outcome = store.prune(&keep, 18);
        assert_eq!(outcome.pruning_height, 16, "clamped to the checkpoint");
        // Heights 11..=16 are neither kept nor above the pruning height.
        assert_eq!(outcome.dropped, 6);
        assert_eq!(outcome.retained, 14);
        assert_eq!(store.len(), 14);
        assert!(store.contains(blocks[0].id), "spine survives");
        assert!(!store.contains(blocks[12].id), "loser is gone");
        assert!(store.contains(blocks[17].id), "above the point survives");
        // The compacted layout recovers cleanly.
        let (recovered, report, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::small());
        assert!(report.is_pristine(), "{report:?}");
        assert_eq!(survivors.len(), 14);
        assert_eq!(recovered.pruning_height(), 16);
    }

    #[test]
    fn prune_race_crash_recovers_the_old_layout_without_duplicates() {
        let blocks = chain(20);
        let mut store = store_with(&blocks, StoreConfig::small());
        store.checkpoint();
        let keep: HashSet<BlockId> = blocks[..5].iter().map(|b| b.id).collect();
        let medium = store.prune_crashing_before_commit(&keep, 10);
        // Old chunks AND uncommitted compacted chunks coexist on disk.
        let (recovered, report, survivors) = BlockStore::recover(medium, StoreConfig::small());
        assert_eq!(survivors.len(), 20, "the committed layout wins: no loss");
        assert!(report.duplicates_dropped > 0, "compaction residue deduped");
        assert_eq!(report.corrupt_records, 0);
        assert_eq!(recovered.len(), 20);
    }

    #[test]
    fn recovery_is_idempotent_under_double_crash() {
        let blocks = chain(25);
        let mut store = store_with(&blocks, StoreConfig::small());
        store.checkpoint();
        let mut medium = store.into_medium();
        medium.corrupt_bit(&chunk_file(0), 999);
        let (first, report1, survivors1) = BlockStore::recover(medium, StoreConfig::small());
        // Crash again mid-life: the second recovery sees a clean store.
        let (_, report2, survivors2) =
            BlockStore::recover(first.into_medium(), StoreConfig::small());
        assert!(report1.corrupt_records > 0);
        assert!(report2.is_pristine(), "{report2:?}");
        assert_eq!(survivors1.len(), survivors2.len());
    }

    #[test]
    fn an_oversize_block_is_skipped_and_costs_its_neighbours_nothing() {
        use btadt_types::Transaction;
        let small = chain(2);
        // 53 + 24 · 43 689 bytes of body: one past what a record may hold.
        let payload = (0..43_689).map(|i| Transaction::transfer(i, 1, 2, 3));
        let big = BlockBuilder::new(&small[0])
            .payload(payload.collect::<Vec<_>>())
            .build();
        let mut store = BlockStore::create(SimMedium::new(), StoreConfig::default());
        for block in [&small[0], &big, &small[1]] {
            store.append(block);
        }
        let stats = store.stats();
        assert_eq!((stats.appended, stats.oversize_skipped), (2, 1));
        assert!(!store.contains(big.id), "the store does not claim it");
        store.checkpoint();
        let (_, report, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::default());
        assert!(report.is_pristine(), "{report:?}");
        assert_eq!(survivors, small);
    }

    #[test]
    fn stale_manifest_recovery_scans_unlisted_chunks() {
        use crate::medium::{FaultInjector, WriteFault, WriteKind, WriteOp};
        struct DropRenames;
        impl FaultInjector for DropRenames {
            fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
                if op.kind == WriteKind::Rename {
                    WriteFault::Drop
                } else {
                    WriteFault::None
                }
            }
        }
        let blocks = chain(20);
        let mut store = store_with(&blocks[..10], StoreConfig::small());
        store.checkpoint(); // durable manifest covers the first 10
        store.medium_mut().set_injector(Box::new(DropRenames));
        for b in &blocks[10..] {
            store.append(b);
        }
        store.checkpoint(); // this swap is dropped: manifest stays stale
        let (_, _report, survivors) =
            BlockStore::recover(store.into_medium(), StoreConfig::small());
        assert_eq!(
            survivors.len(),
            20,
            "chunks beyond the stale manifest are still scanned"
        );
    }
}
