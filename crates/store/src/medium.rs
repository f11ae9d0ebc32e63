//! A simulated durable medium with injectable write faults.
//!
//! The store never touches the real filesystem — every "file" is a named
//! byte vector inside [`SimMedium`].  That keeps recovery drills
//! deterministic and lets fault injection model exactly the failure
//! vocabulary real disks exhibit at the write boundary:
//!
//! * **torn write** — a crash mid-`write(2)` persists only a prefix of the
//!   buffer;
//! * **bit flip** — silent media corruption of a persisted byte;
//! * **dropped write** — the write "succeeds" but the page cache is lost
//!   before it reaches the platter (no `fsync` barrier held);
//! * **dropped rename** — the atomic manifest swap is acknowledged but the
//!   directory entry update never becomes durable, leaving the *previous*
//!   manifest in place (a stale checkpoint).
//!
//! Faults are decided by a pluggable [`FaultInjector`] at each write, so
//! both the seeded standalone injector ([`SeededCorruption`]) and the
//! chaos-grid seam bridge in `btadt-concurrent` drive the same medium.

use std::collections::BTreeMap;
use std::fmt;

use btadt_types::rng::mix64;

/// The kind of durable operation a fault decision applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// Appending bytes to the end of a file (block records).
    Append,
    /// Replacing a file's contents wholesale (the manifest temp file).
    Overwrite,
    /// Atomically renaming a file over another (the manifest swap).
    Rename,
}

/// One durable operation, presented to the injector before it is applied.
#[derive(Clone, Copy, Debug)]
pub struct WriteOp<'a> {
    /// What the operation does.
    pub kind: WriteKind,
    /// Target file name (the rename *destination* for renames).
    pub file: &'a str,
    /// Payload length in bytes (0 for renames).
    pub len: usize,
}

/// The fault injected into one durable operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The operation completes faithfully.
    None,
    /// Only the first `keep` bytes of the payload become durable
    /// (torn write; clamped to the payload length).
    Torn(usize),
    /// The payload becomes durable with bit `bit % (len * 8)` inverted.
    FlipBit(usize),
    /// Nothing becomes durable: a lost write (or, for renames, a lost
    /// directory-entry update — the old destination survives).
    Drop,
}

/// Decides the fault, if any, for each durable operation.
pub trait FaultInjector: Send {
    /// Called once per durable operation, *before* it is applied.
    fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault;
}

/// Counters of what the medium actually did (and mangled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Durable operations attempted (appends + overwrites + renames).
    pub writes: u64,
    /// Payload bytes that became durable.
    pub bytes_written: u64,
    /// Writes that were torn to a prefix.
    pub torn: u64,
    /// Writes that had a bit flipped.
    pub flipped: u64,
    /// Writes (or renames) that were dropped entirely.
    pub dropped: u64,
}

/// The simulated durable medium: a set of named byte-vector files.
pub struct SimMedium {
    files: BTreeMap<String, Vec<u8>>,
    injector: Option<Box<dyn FaultInjector>>,
    stats: MediumStats,
}

impl fmt::Debug for SimMedium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMedium")
            .field("files", &self.files.len())
            .field("stats", &self.stats)
            .field("injector", &self.injector.is_some())
            .finish()
    }
}

impl Default for SimMedium {
    fn default() -> Self {
        SimMedium::new()
    }
}

impl SimMedium {
    /// An empty, fault-free medium.
    pub fn new() -> Self {
        SimMedium {
            files: BTreeMap::new(),
            injector: None,
            stats: MediumStats::default(),
        }
    }

    /// Attaches a fault injector (replacing any previous one).
    pub fn set_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Detaches the fault injector: subsequent writes are faithful.
    ///
    /// A crash-restart detaches implicitly (see
    /// [`BlockStore::into_medium`](crate::BlockStore::into_medium)): the
    /// replacement hardware is healthy even though the bytes it reads back
    /// are not.
    pub fn clear_injector(&mut self) {
        self.injector = None;
    }

    /// Counters of durable activity so far.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// A deep copy of the current file set — a disk image.  The snapshot
    /// carries no injector and fresh stats, so independent fault drills can
    /// each corrupt their own copy of the same crashed medium.
    pub fn snapshot(&self) -> SimMedium {
        SimMedium {
            files: self.files.clone(),
            injector: None,
            stats: MediumStats::default(),
        }
    }

    fn decide(&mut self, kind: WriteKind, file: &str, len: usize) -> WriteFault {
        match self.injector.as_mut() {
            Some(injector) => injector.on_write(&WriteOp { kind, file, len }),
            None => WriteFault::None,
        }
    }

    /// Appends `bytes` to `file` (creating it if absent), subject to
    /// injected faults.  Returns the number of bytes that became durable.
    pub fn append(&mut self, file: &str, bytes: &[u8]) -> usize {
        let fault = self.decide(WriteKind::Append, file, bytes.len());
        self.stats.writes += 1;
        // Appends mostly land in a file that exists: look it up by `&str`
        // and build the owned name only to create one.
        if !self.files.contains_key(file) {
            self.files.insert(file.to_string(), Vec::new());
        }
        let target = self.files.get_mut(file).expect("created just above");
        let durable = match fault {
            WriteFault::None => {
                target.extend_from_slice(bytes);
                bytes.len()
            }
            WriteFault::Torn(keep) => {
                let keep = keep.min(bytes.len().saturating_sub(1));
                target.extend_from_slice(&bytes[..keep]);
                self.stats.torn += 1;
                keep
            }
            WriteFault::FlipBit(bit) => {
                let start = target.len();
                target.extend_from_slice(bytes);
                if !bytes.is_empty() {
                    let bit = bit % (bytes.len() * 8);
                    target[start + bit / 8] ^= 1 << (bit % 8);
                }
                self.stats.flipped += 1;
                bytes.len()
            }
            WriteFault::Drop => {
                self.stats.dropped += 1;
                0
            }
        };
        self.stats.bytes_written += durable as u64;
        durable
    }

    /// Replaces the contents of `file`, subject to injected faults.
    pub fn overwrite(&mut self, file: &str, bytes: &[u8]) {
        let fault = self.decide(WriteKind::Overwrite, file, bytes.len());
        self.stats.writes += 1;
        let durable: Vec<u8> = match fault {
            WriteFault::None => bytes.to_vec(),
            WriteFault::Torn(keep) => {
                self.stats.torn += 1;
                bytes[..keep.min(bytes.len().saturating_sub(1))].to_vec()
            }
            WriteFault::FlipBit(bit) => {
                let mut copy = bytes.to_vec();
                if !copy.is_empty() {
                    let bit = bit % (copy.len() * 8);
                    copy[bit / 8] ^= 1 << (bit % 8);
                }
                self.stats.flipped += 1;
                copy
            }
            WriteFault::Drop => {
                // The old contents (if any) survive untouched.
                self.stats.dropped += 1;
                return;
            }
        };
        self.stats.bytes_written += durable.len() as u64;
        self.files.insert(file.to_string(), durable);
    }

    /// Atomically renames `from` over `to`.  Subject only to the `Drop`
    /// fault (the acknowledged-but-lost directory update); a dropped rename
    /// leaves *both* the source and the old destination in place.  Returns
    /// `false` if the source does not exist.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        if !self.files.contains_key(from) {
            return false;
        }
        let fault = self.decide(WriteKind::Rename, to, 0);
        self.stats.writes += 1;
        if matches!(fault, WriteFault::Drop) {
            self.stats.dropped += 1;
            return true;
        }
        let contents = self.files.remove(from).expect("source checked above");
        self.files.insert(to.to_string(), contents);
        true
    }

    /// Reads a file's durable contents.
    pub fn read(&self, file: &str) -> Option<&[u8]> {
        self.files.get(file).map(|v| v.as_slice())
    }

    /// Removes a file (no fault seam: deletion of garbage is never the
    /// commit point of any protocol in this crate).
    pub fn remove(&mut self, file: &str) -> bool {
        self.files.remove(file).is_some()
    }

    /// Returns `true` iff the file exists.
    pub fn exists(&self, file: &str) -> bool {
        self.files.contains_key(file)
    }

    /// Durable length of a file in bytes (0 if absent).
    pub fn len(&self, file: &str) -> usize {
        self.files.get(file).map(|v| v.len()).unwrap_or(0)
    }

    /// Returns `true` iff the medium holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// All file names, in sorted order (deterministic).
    pub fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Test/drill helper: flips one bit of an already-durable file in
    /// place, bypassing the injector.  Returns `false` if the file is
    /// absent or empty.
    pub fn corrupt_bit(&mut self, file: &str, bit: usize) -> bool {
        match self.files.get_mut(file) {
            Some(bytes) if !bytes.is_empty() => {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    /// Test/drill helper: truncates an already-durable file in place,
    /// bypassing the injector.
    pub fn truncate(&mut self, file: &str, len: usize) -> bool {
        match self.files.get_mut(file) {
            Some(bytes) => {
                bytes.truncate(len);
                true
            }
            None => false,
        }
    }
}

/// A standalone seeded injector: each durable operation draws one
/// SplitMix64 value from `(seed, occurrence)` and converts it into a fault
/// according to per-kind percentage rates.  Purely a function of the seed
/// and the operation *sequence*, never of wall time — replaying the same
/// write sequence replays the same faults.
#[derive(Clone, Copy, Debug)]
pub struct SeededCorruption {
    seed: u64,
    occurrence: u64,
    /// Percent of appends torn to a prefix.
    pub torn_percent: u8,
    /// Percent of appends with a flipped bit.
    pub flip_percent: u8,
    /// Percent of appends dropped entirely.
    pub drop_percent: u8,
    /// Percent of manifest overwrites torn (partial checkpoint).
    pub checkpoint_percent: u8,
    /// Percent of manifest renames dropped (stale manifest).
    pub stale_percent: u8,
}

impl SeededCorruption {
    /// A quiet injector for `seed` — arm rates field by field.
    pub fn new(seed: u64) -> Self {
        SeededCorruption {
            seed,
            occurrence: 0,
            torn_percent: 0,
            flip_percent: 0,
            drop_percent: 0,
            checkpoint_percent: 0,
            stale_percent: 0,
        }
    }

    /// A record-corruption profile: torn + flipped + dropped appends.
    pub fn records(seed: u64, torn: u8, flip: u8, drop: u8) -> Self {
        let mut c = SeededCorruption::new(seed);
        c.torn_percent = torn;
        c.flip_percent = flip;
        c.drop_percent = drop;
        c
    }

    /// A checkpoint-corruption profile: partial checkpoints + stale
    /// manifests.
    pub fn checkpoints(seed: u64, partial: u8, stale: u8) -> Self {
        let mut c = SeededCorruption::new(seed);
        c.checkpoint_percent = partial;
        c.stale_percent = stale;
        c
    }

    fn draw(&mut self) -> u64 {
        let v = mix64(self.seed ^ self.occurrence.wrapping_mul(0xA076_1D64_78BD_642F));
        self.occurrence += 1;
        v
    }
}

impl FaultInjector for SeededCorruption {
    fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
        let roll = self.draw();
        let pct = (roll % 100) as u8;
        let detail = roll >> 7; // independent bits for fault parameters
        match op.kind {
            WriteKind::Append => {
                if pct < self.torn_percent {
                    WriteFault::Torn(detail as usize % op.len.max(1))
                } else if pct < self.torn_percent.saturating_add(self.flip_percent) {
                    WriteFault::FlipBit(detail as usize)
                } else if pct
                    < self
                        .torn_percent
                        .saturating_add(self.flip_percent)
                        .saturating_add(self.drop_percent)
                {
                    WriteFault::Drop
                } else {
                    WriteFault::None
                }
            }
            WriteKind::Overwrite => {
                if pct < self.checkpoint_percent {
                    WriteFault::Torn(detail as usize % op.len.max(1))
                } else {
                    WriteFault::None
                }
            }
            WriteKind::Rename => {
                if pct < self.stale_percent {
                    WriteFault::Drop
                } else {
                    WriteFault::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_append_and_read_back() {
        let mut m = SimMedium::new();
        assert_eq!(m.append("a", b"hello"), 5);
        assert_eq!(m.append("a", b" world"), 6);
        assert_eq!(m.read("a"), Some(&b"hello world"[..]));
        assert_eq!(m.len("a"), 11);
        assert_eq!(m.stats().bytes_written, 11);
        assert_eq!(m.stats().writes, 2);
    }

    #[test]
    fn rename_is_an_atomic_swap() {
        let mut m = SimMedium::new();
        m.overwrite("manifest.tmp", b"new");
        m.overwrite("manifest", b"old");
        assert!(m.rename("manifest.tmp", "manifest"));
        assert_eq!(m.read("manifest"), Some(&b"new"[..]));
        assert!(!m.exists("manifest.tmp"));
        assert!(!m.rename("missing", "manifest"));
    }

    struct Script(Vec<WriteFault>);
    impl FaultInjector for Script {
        fn on_write(&mut self, _op: &WriteOp<'_>) -> WriteFault {
            if self.0.is_empty() {
                WriteFault::None
            } else {
                self.0.remove(0)
            }
        }
    }

    #[test]
    fn torn_append_keeps_a_strict_prefix() {
        let mut m = SimMedium::new();
        m.set_injector(Box::new(Script(vec![WriteFault::Torn(3)])));
        assert_eq!(m.append("a", b"hello"), 3);
        assert_eq!(m.read("a"), Some(&b"hel"[..]));
        assert_eq!(m.stats().torn, 1);
        // A torn write never persists the full payload, even if asked to.
        m.set_injector(Box::new(Script(vec![WriteFault::Torn(99)])));
        assert_eq!(m.append("b", b"xy"), 1);
    }

    #[test]
    fn flipped_append_changes_exactly_one_bit() {
        let mut m = SimMedium::new();
        m.append("a", b"prefix");
        m.set_injector(Box::new(Script(vec![WriteFault::FlipBit(9)])));
        m.append("a", b"\x00\x00");
        let got = m.read("a").unwrap();
        assert_eq!(&got[..6], b"prefix");
        assert_eq!(got[6], 0);
        assert_eq!(got[7], 0b10); // bit 9 = byte 1, bit 1
        assert_eq!(m.stats().flipped, 1);
    }

    #[test]
    fn dropped_append_and_dropped_rename_change_nothing() {
        let mut m = SimMedium::new();
        m.overwrite("manifest", b"old");
        m.overwrite("manifest.tmp", b"new");
        m.set_injector(Box::new(Script(vec![WriteFault::Drop, WriteFault::Drop])));
        assert_eq!(m.append("a", b"xyz"), 0);
        assert!(!m.exists("a") || m.len("a") == 0);
        assert!(m.rename("manifest.tmp", "manifest"));
        assert_eq!(m.read("manifest"), Some(&b"old"[..]), "stale manifest");
        assert!(m.exists("manifest.tmp"), "orphaned temp file survives");
        assert_eq!(m.stats().dropped, 2);
    }

    #[test]
    fn corrupt_bit_and_truncate_helpers() {
        let mut m = SimMedium::new();
        m.append("a", &[0u8; 4]);
        assert!(m.corrupt_bit("a", 8));
        assert_eq!(m.read("a").unwrap()[1], 1);
        assert!(m.truncate("a", 2));
        assert_eq!(m.len("a"), 2);
        assert!(!m.corrupt_bit("missing", 0));
        assert!(!m.truncate("missing", 0));
    }

    #[test]
    fn seeded_corruption_is_deterministic() {
        let run = |seed: u64| {
            let mut inj = SeededCorruption::records(seed, 20, 10, 5);
            (0..64)
                .map(|i| {
                    inj.on_write(&WriteOp {
                        kind: WriteKind::Append,
                        file: "chunk-0",
                        len: 40 + i,
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let faults = run(7);
        assert!(faults.iter().any(|f| *f != WriteFault::None));
        assert!(faults.contains(&WriteFault::None));
    }

    #[test]
    fn checkpoint_profile_only_faults_manifest_operations() {
        let mut inj = SeededCorruption::checkpoints(3, 100, 100);
        let append = inj.on_write(&WriteOp {
            kind: WriteKind::Append,
            file: "chunk-0",
            len: 10,
        });
        assert_eq!(append, WriteFault::None);
        let over = inj.on_write(&WriteOp {
            kind: WriteKind::Overwrite,
            file: "manifest.tmp",
            len: 10,
        });
        assert!(matches!(over, WriteFault::Torn(_)));
        let ren = inj.on_write(&WriteOp {
            kind: WriteKind::Rename,
            file: "manifest",
            len: 0,
        });
        assert_eq!(ren, WriteFault::Drop);
    }
}
