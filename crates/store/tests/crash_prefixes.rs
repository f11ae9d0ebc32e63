//! Crash states, enumerated rather than sampled: a small scripted workload
//! is recorded as its sequence of medium writes, and for **every** prefix
//! of that sequence — a power cut after write N — plus a tear of write
//! N + 1 at each record boundary and one byte either side of it, the
//! medium is materialised and recovered.
//!
//! Each state is judged exactly: the survivors are the records that fully
//! reached the medium, in write order; `torn_tail_bytes` is the partial
//! record the tear left; nothing is corrupt, lost or duplicated; and
//! recovering the recovered medium again finds the same survivors with
//! nothing left to repair.

use std::sync::{Arc, Mutex};

use btadt_store::codec::record_span;
use btadt_store::{
    BlockStore, FaultInjector, SimMedium, StoreConfig, WriteFault, WriteKind, WriteOp, MANIFEST,
};
use btadt_types::workload::Workload;
use btadt_types::Block;

/// Five records to a chunk, a checkpoint every seven: seals and
/// checkpoints fall in and out of step, and inside runs.
const CONFIG: StoreConfig = StoreConfig {
    chunk_capacity: 5,
    auto_checkpoint_every: 7,
};
const BLOCKS: usize = 300;
const RUN: usize = 16;

/// A forked tree, parents first.
fn forked_tree() -> Vec<Block> {
    let tree = Workload::new(29).random_tree(BLOCKS, 0.6, 0);
    tree.blocks().skip(1).cloned().collect()
}

/// Lets the first `keep` writes through, tears write `keep + 1` to its
/// first `tear` bytes when one is given, and drops every write after:
/// the power goes out during write `keep + 1`.
struct PowerCut {
    keep: usize,
    tear: Option<usize>,
    /// Every write offered, faithful or not: (kind, file, length).
    log: Arc<Mutex<Vec<(WriteKind, String, usize)>>>,
}

impl PowerCut {
    /// `true` once the power is out: nothing after it reaches the medium,
    /// so the workload may as well stop.
    fn is_out(log: &Mutex<Vec<(WriteKind, String, usize)>>, keep: usize) -> bool {
        log.lock().expect("no writer panics").len() > keep
    }
}

impl FaultInjector for PowerCut {
    fn on_write(&mut self, op: &WriteOp<'_>) -> WriteFault {
        let mut log = self.log.lock().expect("no writer panics");
        log.push((op.kind, op.file.to_string(), op.len));
        if log.len() <= self.keep {
            WriteFault::None
        } else if log.len() == self.keep + 1 {
            self.tear.map_or(WriteFault::Drop, WriteFault::Torn)
        } else {
            WriteFault::Drop
        }
    }
}

/// Persists `blocks` in runs of [`RUN`] (what a replica's ingest door
/// hands the store) over a medium that loses power during write
/// `keep + 1` (torn to `tear` bytes, or dropped); returns the crashed
/// medium and the write log.
fn ingest(
    blocks: &[Block],
    keep: usize,
    tear: Option<usize>,
) -> (SimMedium, Vec<(WriteKind, String, usize)>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut medium = SimMedium::new();
    medium.set_injector(Box::new(PowerCut {
        keep,
        tear,
        log: Arc::clone(&log),
    }));
    let mut store = BlockStore::create(medium, CONFIG);
    for run in blocks.chunks(RUN) {
        if PowerCut::is_out(&log, keep) {
            break;
        }
        store.append_run(run);
    }
    let medium = store.into_medium();
    let log = log.lock().expect("no writer panics").clone();
    (medium, log)
}

/// One medium write of the faithful run, as far as records go.
struct Write {
    /// Offsets inside the write at which a record ends, ascending; empty
    /// for manifest writes.
    record_ends: Vec<usize>,
    len: usize,
}

/// The faithful run's writes, with the record boundaries of each append
/// read back from the final medium.
fn faithful_writes(blocks: &[Block]) -> Vec<Write> {
    let (medium, log) = ingest(blocks, usize::MAX, None);
    let mut written: std::collections::HashMap<String, usize> = Default::default();
    log.into_iter()
        .map(|(kind, file, len)| {
            let mut record_ends = Vec::new();
            if kind == WriteKind::Append {
                let at = written.entry(file.clone()).or_default();
                let bytes = &medium.read(&file).expect("appended")[*at..*at + len];
                let mut end = 0;
                while end < len {
                    end += record_span(&bytes[end..]).expect("whole records");
                    record_ends.push(end);
                }
                *at += len;
            }
            Write { record_ends, len }
        })
        .collect()
}

/// Judges every crash state with exactly `keep` writes done: the clean
/// cut, then write `keep + 1` torn around each of its record boundaries (a
/// tear never keeps a whole write).  `whole` records reached the medium in
/// the first `keep` writes.  Returns the number of states judged.
fn judge_states_after(blocks: &[Block], writes: &[Write], keep: usize, whole: usize) -> usize {
    let mut tears: Vec<Option<usize>> = vec![None];
    if let Some(next) = writes.get(keep) {
        let boundaries = std::iter::once(0).chain(next.record_ends.iter().copied());
        let mut at: Vec<usize> = boundaries
            .flat_map(|b| [b.saturating_sub(1), b, b + 1])
            .filter(|&t| t < next.len && !next.record_ends.is_empty())
            .collect();
        at.sort_unstable();
        at.dedup();
        tears.extend(at.into_iter().map(Some));
    }
    for &tear in &tears {
        let (medium, _) = ingest(blocks, keep, tear);
        let (torn_records, torn_tail) = match tear {
            None => (0, 0),
            Some(t) => {
                let ends = &writes[keep].record_ends;
                let n = ends.iter().take_while(|&&e| e <= t).count();
                (n, t - n.checked_sub(1).map_or(0, |i| ends[i]))
            }
        };
        let expected = &blocks[..whole + torn_records];
        let what = format!("{keep} writes, tear {tear:?}");
        let had_manifest = medium.exists(MANIFEST);
        let had_chunks = medium.list().iter().any(|f| f.starts_with("chunk-"));

        let (store, report, survivors) = BlockStore::recover(medium, CONFIG);
        assert_eq!(survivors, expected, "{what}");
        assert_eq!(report.torn_tail_bytes, torn_tail as u64, "{what}");
        assert_eq!(
            report.chunks_quarantined,
            usize::from(torn_tail > 0),
            "{what}"
        );
        assert_eq!(
            (
                report.corrupt_records,
                report.chunks_missing,
                report.duplicates_dropped
            ),
            (0, 0, 0),
            "{what}: {report:?}"
        );
        assert_eq!(
            report.manifest_fallback,
            had_chunks && !had_manifest,
            "{what}"
        );

        let (_, again, survivors_again) = BlockStore::recover(store.into_medium(), CONFIG);
        assert_eq!(survivors_again, survivors, "{what}: recovered twice");
        assert!(again.is_pristine(), "{what}: {again:?}");
    }
    tears.len()
}

#[test]
fn every_prefix_of_the_write_sequence_recovers_exactly_what_it_holds() {
    let blocks = forked_tree();
    let writes = faithful_writes(&blocks);
    let records: usize = writes.iter().map(|w| w.record_ends.len()).sum();
    assert_eq!(records, BLOCKS, "one record per block");
    // Records fully written by the first `keep` writes, for every `keep`.
    let whole: Vec<usize> = std::iter::once(0)
        .chain(writes.iter().scan(0, |done, w| {
            *done += w.record_ends.len();
            Some(*done)
        }))
        .collect();

    // The states are independent: judge them on a few threads, each
    // taking every `workers`-th prefix.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let states: usize = std::thread::scope(|scope| {
        let (blocks, writes, whole) = (&blocks, &writes, &whole);
        let handles: Vec<_> = (0..workers)
            .map(|first| {
                scope.spawn(move || {
                    (first..=writes.len())
                        .step_by(workers)
                        .map(|keep| judge_states_after(blocks, writes, keep, whole[keep]))
                        .sum::<usize>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a failed state fails the test"))
            .sum()
    });
    // The state count moves only with the workload, the store's write
    // schedule or the record layout.
    assert_eq!((writes.len(), states), (191, 1092));
}
