//! The six workloads.  Each builds its inputs from the seed once
//! ([`build`]), then runs its timed body any number of times on fresh
//! state ([`Workload::rep`]); every rep of one seed does identical work.

pub mod adt;
pub mod ingest;
pub mod judge;
pub mod net;

use std::collections::BTreeMap;

use btadt_concurrent::AppendPath;
use btadt_core::BtHistory;
use btadt_types::Block;

use crate::sizes::Sizes;
use crate::trace::SpanBuf;

/// The workload names, in the order `run --all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "adt_append",
    "adt_read_mostly",
    "ingest_recover",
    "ingest_forkdense",
    "judge_histories",
    "net_converge",
];

/// Appends a per-layer probe may issue where nothing makes them expensive.
pub const DEFAULT_APPEND_BUDGET: usize = 20_000;

/// Client threads of the threaded workloads on the reference host.
pub const REFERENCE_CLIENTS: usize = 2;

/// Client threads of the threaded workloads here: `min(nproc, 2)`.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(REFERENCE_CLIENTS))
}

/// Failure accounting of one rep: every output check is one attempt.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Operations (or checks) attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Check {
    const MAX_NOTES: usize = 8;

    /// Counts one attempt; `note` is only rendered when it failed.
    pub fn require(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, note);
        }
    }

    /// Counts `n` attempts that all passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failures among attempts already counted.
    pub fn fail(&mut self, n: u64, note: impl FnOnce() -> String) {
        self.failed += n;
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(note());
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// What one rep measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Wall of the whole timed body, every phase included.
    pub wall_ns: u64,
    /// Work units the primary phase completed (ops, blocks, judged ops,
    /// simulator events — see each workload).
    pub work: u64,
    /// Wall of the primary phase.
    pub work_ns: u64,
    /// Latency samples in ns, by pool name.  A pool holds calls of one
    /// kind on inputs of one shape; the first pool is the workload's
    /// primary call.
    pub pools: Vec<(&'static str, Vec<u64>)>,
    /// Named values of this rep that only some workloads have:
    /// `(name, value, unit)`.
    pub extras: Vec<(&'static str, f64, &'static str)>,
    /// Counts that repeat exactly for a given seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Output checks.
    pub check: Check,
}

/// What the per-layer probes replay: the workload's own blocks and a
/// history of operations over them.
pub struct ProbeInput {
    /// Non-genesis blocks, parents first.
    pub blocks: Vec<Block>,
    /// A history whose reads return chains of those blocks.
    pub history: BtHistory,
    /// The append path the workload's replica runs.  The closed-loop probe
    /// appends only on the strong path and reads mostly on the eventual
    /// one (two Θ_P clients appending in lock step build the ladder).
    pub path: AppendPath,
    /// How many of the blocks the restart probes replay: crash recovery
    /// re-inserts height-major, which is cubic on a forky tree.
    pub restart_blocks: usize,
    /// How many appends one probe may issue on a replica holding the
    /// blocks (on the ladder every append reindexes, at milliseconds
    /// apiece).
    pub append_budget: usize,
    /// The workload's own network cell, when its journey crosses `netsim`;
    /// otherwise the probes run the small reference cell.
    pub net: Option<net::CellSpec>,
}

/// The timed body of one rep, holding the fresh state it runs on.  Spans
/// go to the buffer it is given (a disabled one on every run that reports
/// end-to-end metrics).
pub type TimedBody<'a> = Box<dyn FnOnce(&mut SpanBuf) -> Rep + 'a>;

/// One workload with its inputs built.
pub trait Workload {
    /// Prepares the fresh state of one rep — pre-populated replica, empty
    /// store, owned copies of the batches, miners — and returns the timed
    /// body.  The preparation is untimed; the first one of a run counts
    /// towards `setup_s`.
    fn stage(&self) -> TimedBody<'_>;

    /// Runs the timed body once on fresh state.
    fn rep(&self, trace: &mut SpanBuf) -> Rep {
        self.stage()(trace)
    }

    /// Digest of the generated inputs: equal seeds give equal digests.
    fn digest(&self) -> u64;

    /// Client threads the timed body uses here.
    fn threads(&self) -> usize {
        1
    }

    /// Client threads the timed body uses on the reference host.
    fn reference_threads(&self) -> usize {
        1
    }

    /// Output checks too slow to repeat in every rep; the runner calls
    /// this once, outside every timed region.
    fn verify(&self, _check: &mut Check) {}

    /// The input of the per-layer probes.
    fn probe_input(&self) -> ProbeInput;

    /// Predicted ns per work unit from isolated per-layer costs — the
    /// "Σ layer parts" of `bench.attribution_gap`.  `counts` are the exact
    /// counts of one rep.
    fn predicted_ns_per_work(
        &self,
        layer: &BTreeMap<&'static str, f64>,
        counts: &BTreeMap<&'static str, u64>,
    ) -> f64;
}

/// Builds a workload's inputs from `seed`.
pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "adt_append" => Box::new(adt::Adt::append(seed, sizes)),
        "adt_read_mostly" => Box::new(adt::Adt::read_mostly(seed, sizes)),
        "ingest_recover" => Box::new(ingest::Ingest::recover(seed, sizes)),
        "ingest_forkdense" => Box::new(ingest::Ingest::forkdense(seed, sizes)),
        "judge_histories" => Box::new(judge::Judge::new(seed, sizes)),
        "net_converge" => Box::new(net::Net::new(seed, sizes)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts_attempts_and_caps_notes() {
        let mut c = Check::default();
        c.require(true, || unreachable!("passing checks render no note"));
        for i in 0..20 {
            c.require(false, || format!("bad {i}"));
        }
        c.passed(5);
        assert_eq!((c.attempted, c.failed), (26, 20));
        assert_eq!(c.notes.len(), 8);
        let mut d = Check::default();
        d.require(false, || "other".into());
        c.merge(d);
        assert_eq!((c.attempted, c.failed), (27, 21));
        assert_eq!(c.notes.len(), 8);
    }

    #[test]
    fn unknown_workload_names_are_refused() {
        assert!(build("nope", 1, &Sizes::SMOKE).is_none());
        for name in WORKLOADS {
            assert!(build(name, 1, &Sizes::SMOKE).is_some(), "{name}");
        }
    }
}
