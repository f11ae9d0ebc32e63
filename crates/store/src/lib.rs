//! # btadt-store — durable state for the BT-ADT reproduction
//!
//! The paper's replicas are in-memory objects; the ROADMAP north-star
//! (million-block, million-user scale) needs durable state that can be
//! **wrong**: torn writes, bit flips, lost pages and stale checkpoints
//! must be detected, quarantined and repaired from peers rather than
//! trusted.  This crate supplies that layer, modelled on the caching
//! store + pruning-processor split of rusty-kaspa:
//!
//! * [`SimMedium`] — a simulated durable medium with an injectable fault
//!   vocabulary (torn / flipped / dropped writes, dropped renames);
//! * [`codec`] — length-prefixed block records, each checksummed a word at
//!   a time (record format v2);
//! * [`BlockStore`] — chunked append-only store with per-record and
//!   per-chunk checksums, atomic-manifest checkpoints, a canonicalising
//!   recovery pipeline and crash-safe pruning compaction.  Its unit of
//!   durability is the *run* ([`BlockStore::append_run`]): the blocks one
//!   ingest linked reach the medium with one write per chunk they touch;
//! * [`ReplicaCore`] — the durable replica core: a
//!   [`BlockTree`](btadt_types::BlockTree), the orphan pool of blocks
//!   waiting for it and an optional [`BlockStore`], with one ingest door
//!   (link, persist what linked, pool the rest, release what the links
//!   unblocked) and one restart (recover the store, survivors back
//!   through the door).  The gossip replicas of `btadt-protocols` own one
//!   too;
//! * [`CheckpointedReplica`] — a memory-bounded replica: a core whose
//!   tree is a hot window over cold chunks, with peer-healing of
//!   corruption gaps.
//!
//! Everything is deterministic: faults are seeded functions of the write
//! sequence, never of wall time, so every corruption/recovery drill in the
//! chaos grid and the store report replays byte-identically.

#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod medium;
pub mod replica;
pub mod store;

pub use codec::{
    check_fits_record, decode_record, encode_record, encode_record_into, DecodeError,
    MAX_RECORD_BYTES,
};
pub use durable::ReplicaCore;
pub use medium::{
    FaultInjector, MediumStats, SeededCorruption, SimMedium, WriteFault, WriteKind, WriteOp,
};
pub use replica::{CheckpointedReplica, ReplicaConfig};
pub use store::{
    chunk_file, BlockStore, ChunkMeta, PruneOutcome, RecoveryReport, StoreConfig, StoreStats,
    MANIFEST, MANIFEST_TMP,
};
