//! Concurrent histories `H = ⟨Σ, E, Λ, ↦, ≺, ↗⟩` (Definition 2.4).
//!
//! A concurrent history is recorded as a set of *operation records*: each
//! record bundles the invocation and response events of one operation (its
//! process, invocation timestamp, response timestamp, input and output).
//! The three orders of the paper are derived from the records:
//!
//! * **process order** `↦` — same process, earlier sequence number;
//! * **operation order** `≺` — the response happened (strictly) before the
//!   other operation's invocation on the global clock;
//! * **program order** `↗` — the union of the two.
//!
//! Histories are generic over the operation (`Op`) and response (`Resp`)
//! types so that the BlockTree ADT, the token oracles and the
//! message-passing executions can all be captured with the same machinery.

use std::collections::BTreeMap;

use crate::event::{OpId, ProcessId, Timestamp};

/// One operation of a concurrent history: its invocation and response events
/// together with the labelling `Λ`.
#[derive(Clone, Debug, PartialEq)]
pub struct OperationRecord<Op, Resp> {
    /// Identifier of the operation.
    pub id: OpId,
    /// Process that issued the operation.
    pub process: ProcessId,
    /// Position of this operation in its process's local sequence
    /// (defines the process order `↦`).
    pub seq: u64,
    /// Timestamp of the invocation event on the fictional global clock.
    pub invoked_at: Timestamp,
    /// Timestamp of the response event; `None` while the operation is
    /// pending.
    pub responded_at: Option<Timestamp>,
    /// The input symbol (element of `A`).
    pub op: Op,
    /// The output (element of `B`); `None` while pending.
    pub response: Option<Resp>,
}

impl<Op, Resp> OperationRecord<Op, Resp> {
    /// Returns `true` iff the operation has both its invocation and response
    /// events in the history.
    pub fn is_complete(&self) -> bool {
        self.responded_at.is_some() && self.response.is_some()
    }
}

/// A concurrent history over operations of type `Op` returning `Resp`.
#[derive(Clone, Debug)]
pub struct ConcurrentHistory<Op, Resp> {
    records: Vec<OperationRecord<Op, Resp>>,
}

impl<Op, Resp> Default for ConcurrentHistory<Op, Resp> {
    fn default() -> Self {
        ConcurrentHistory {
            records: Vec::new(),
        }
    }
}

impl<Op: Clone, Resp: Clone> ConcurrentHistory<Op, Resp> {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a history directly from records (used by scripted examples).
    pub fn from_records(records: Vec<OperationRecord<Op, Resp>>) -> Self {
        ConcurrentHistory { records }
    }

    /// Consumes the history and returns its records, in recording order
    /// (the inverse of [`from_records`](ConcurrentHistory::from_records)).
    pub fn into_records(self) -> Vec<OperationRecord<Op, Resp>> {
        self.records
    }

    /// Number of operations (complete or pending) in the history.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` iff the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All operation records.
    pub fn records(&self) -> &[OperationRecord<Op, Resp>] {
        &self.records
    }

    /// All *complete* operation records (both events present).
    pub fn complete(&self) -> impl Iterator<Item = &OperationRecord<Op, Resp>> {
        self.records.iter().filter(|r| r.is_complete())
    }

    /// Looks an operation up by id.
    pub fn get(&self, id: OpId) -> Option<&OperationRecord<Op, Resp>> {
        self.records.iter().find(|r| r.id == id)
    }

    /// The set of processes appearing in the history, sorted.
    pub fn processes(&self) -> Vec<ProcessId> {
        let mut ps: Vec<ProcessId> = self.records.iter().map(|r| r.process).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// The complete operations of one process in process order.
    pub fn process_sequence(&self, p: ProcessId) -> Vec<&OperationRecord<Op, Resp>> {
        let mut seq: Vec<&OperationRecord<Op, Resp>> = self
            .records
            .iter()
            .filter(|r| r.process == p && r.is_complete())
            .collect();
        seq.sort_by_key(|r| r.seq);
        seq
    }

    /// All complete operations grouped by process, in process order.
    pub fn by_process(&self) -> BTreeMap<ProcessId, Vec<&OperationRecord<Op, Resp>>> {
        let mut map: BTreeMap<ProcessId, Vec<&OperationRecord<Op, Resp>>> = BTreeMap::new();
        for p in self.processes() {
            map.insert(p, self.process_sequence(p));
        }
        map
    }

    /// Process order `↦` between two operations: same process and `a` comes
    /// earlier in that process's sequence than `b`.
    pub fn process_order(
        &self,
        a: &OperationRecord<Op, Resp>,
        b: &OperationRecord<Op, Resp>,
    ) -> bool {
        a.process == b.process && a.seq < b.seq
    }

    /// Operation (real-time) order `≺` between two operations: the response
    /// of `a` occurred strictly before the invocation of `b` on the global
    /// clock.
    pub fn operation_order(
        &self,
        a: &OperationRecord<Op, Resp>,
        b: &OperationRecord<Op, Resp>,
    ) -> bool {
        match a.responded_at {
            Some(resp) => resp < b.invoked_at,
            None => false,
        }
    }

    /// Program order `↗`: union of process order and operation order.
    ///
    /// `program_order(a, b)` is what the criteria write as
    /// `e_rsp(a) ↗ e_inv(b)`.
    pub fn program_order(
        &self,
        a: &OperationRecord<Op, Resp>,
        b: &OperationRecord<Op, Resp>,
    ) -> bool {
        self.process_order(a, b) || self.operation_order(a, b)
    }

    /// All complete operations sorted by response timestamp (ties broken by
    /// operation id), which is the natural order in which to inspect reads.
    pub fn by_response_time(&self) -> Vec<&OperationRecord<Op, Resp>> {
        let mut ops: Vec<&OperationRecord<Op, Resp>> = self.complete().collect();
        ops.sort_by_key(|r| {
            (
                r.responded_at
                    .expect("complete() yields only responded records"),
                r.id,
            )
        });
        ops
    }

    /// Filters the history, keeping only operations satisfying the predicate
    /// (used e.g. to purge unsuccessful appends as in Section 3.4).
    pub fn filtered(&self, keep: impl Fn(&OperationRecord<Op, Resp>) -> bool) -> Self {
        ConcurrentHistory {
            records: self.records.iter().filter(|r| keep(r)).cloned().collect(),
        }
    }

    /// Merges another history into this one (used to combine per-replica
    /// recordings into a single global history).  Operation ids must be
    /// globally unique; this is the recorder's responsibility.
    pub fn merge(&mut self, other: &ConcurrentHistory<Op, Resp>) {
        self.records.extend(other.records.iter().cloned());
    }
}

/// A recorder that assigns operation ids, sequence numbers and global-clock
/// timestamps while an execution unfolds.
///
/// The recorder implements the "fictional global clock" of Section 4.2: each
/// recorded event advances the clock by one tick, and processes never read
/// the clock.  Two recording styles are supported:
///
/// * [`HistoryRecorder::invoke`] / [`HistoryRecorder::respond`] for
///   executions where invocation and response are separated (concurrent
///   operations overlap);
/// * [`HistoryRecorder::instantaneous`] for executions where an operation's
///   invocation and response are adjacent ticks;
/// * [`HistoryRecorder::scripted`] for replaying the paper's figures with
///   explicit timestamps.
#[derive(Clone, Debug, Default)]
pub struct HistoryRecorder<Op, Resp> {
    history: ConcurrentHistory<Op, Resp>,
    clock: u64,
    next_op: u64,
    next_seq: BTreeMap<ProcessId, u64>,
}

impl<Op: Clone, Resp: Clone> HistoryRecorder<Op, Resp> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        HistoryRecorder {
            history: ConcurrentHistory::new(),
            clock: 0,
            next_op: 0,
            next_seq: BTreeMap::new(),
        }
    }

    fn tick(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    fn next_seq(&mut self, p: ProcessId) -> u64 {
        let seq = self.next_seq.entry(p).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// Records the invocation of an operation by process `p`; the operation
    /// stays pending until [`HistoryRecorder::respond`] is called.
    pub fn invoke(&mut self, p: ProcessId, op: Op) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        let seq = self.next_seq(p);
        let invoked_at = self.tick();
        self.history.records.push(OperationRecord {
            id,
            process: p,
            seq,
            invoked_at,
            responded_at: None,
            op,
            response: None,
        });
        id
    }

    /// Records the response of a pending operation.  Panics if the operation
    /// id is unknown or already completed (programming error in the caller).
    pub fn respond(&mut self, id: OpId, response: Resp) {
        let at = self.tick();
        let rec = self
            .history
            .records
            .iter_mut()
            // Newest first: a response usually follows its invocation closely.
            .rfind(|r| r.id == id)
            .expect("respond() called for an unknown operation");
        assert!(
            rec.responded_at.is_none(),
            "respond() called twice for {:?}",
            id
        );
        rec.responded_at = Some(at);
        rec.response = Some(response);
    }

    /// Records an operation whose invocation and response occupy two adjacent
    /// ticks of the global clock.
    pub fn instantaneous(&mut self, p: ProcessId, op: Op, response: Resp) -> OpId {
        let id = self.invoke(p, op);
        self.respond(id, response);
        id
    }

    /// Records a fully scripted operation with explicit timestamps (used to
    /// replay the concurrent histories drawn in the paper's figures).
    pub fn scripted(
        &mut self,
        p: ProcessId,
        invoked_at: Timestamp,
        responded_at: Timestamp,
        op: Op,
        response: Resp,
    ) -> OpId {
        assert!(invoked_at < responded_at, "response must follow invocation");
        let id = OpId(self.next_op);
        self.next_op += 1;
        let seq = self.next_seq(p);
        self.clock = self.clock.max(responded_at.0);
        self.history.records.push(OperationRecord {
            id,
            process: p,
            seq,
            invoked_at,
            responded_at: Some(responded_at),
            op,
            response: Some(response),
        });
        id
    }

    /// Current value of the global clock.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.clock)
    }

    /// Read-only view of the history recorded so far.
    pub fn history(&self) -> &ConcurrentHistory<Op, Resp> {
        &self.history
    }

    /// Consumes the recorder and returns the history.
    pub fn into_history(self) -> ConcurrentHistory<Op, Resp> {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type H = HistoryRecorder<&'static str, u32>;

    #[test]
    fn recorder_assigns_monotonic_timestamps_and_sequences() {
        let mut rec = H::new();
        let a = rec.invoke(ProcessId(0), "read");
        let b = rec.invoke(ProcessId(1), "read");
        rec.respond(a, 1);
        rec.respond(b, 2);
        let h = rec.into_history();
        assert_eq!(h.len(), 2);
        let ra = h.get(a).unwrap();
        let rb = h.get(b).unwrap();
        assert!(ra.invoked_at < rb.invoked_at);
        assert!(ra.is_complete() && rb.is_complete());
        assert_eq!(ra.seq, 0);
        assert_eq!(rb.seq, 0, "sequence numbers are per process");
    }

    #[test]
    fn instantaneous_records_complete_operation() {
        let mut rec = H::new();
        let id = rec.instantaneous(ProcessId(0), "append", 7);
        let h = rec.into_history();
        let r = h.get(id).unwrap();
        assert!(r.is_complete());
        assert_eq!(r.response, Some(7));
        assert!(r.invoked_at < r.responded_at.unwrap());
    }

    #[test]
    fn process_order_relates_same_process_operations_only() {
        let mut rec = H::new();
        let a = rec.instantaneous(ProcessId(0), "a", 0);
        let b = rec.instantaneous(ProcessId(0), "b", 0);
        let c = rec.instantaneous(ProcessId(1), "c", 0);
        let h = rec.into_history();
        let (a, b, c) = (h.get(a).unwrap(), h.get(b).unwrap(), h.get(c).unwrap());
        assert!(h.process_order(a, b));
        assert!(!h.process_order(b, a));
        assert!(!h.process_order(a, c));
    }

    #[test]
    fn operation_order_requires_real_time_separation() {
        let mut rec = H::new();
        // a: invoked t1, responded t4; b: invoked t2, responded t3 (concurrent)
        let a = rec.scripted(ProcessId(0), Timestamp(1), Timestamp(4), "a", 0);
        let b = rec.scripted(ProcessId(1), Timestamp(2), Timestamp(3), "b", 0);
        let c = rec.scripted(ProcessId(1), Timestamp(5), Timestamp(6), "c", 0);
        let h = rec.into_history();
        let (a, b, c) = (h.get(a).unwrap(), h.get(b).unwrap(), h.get(c).unwrap());
        assert!(!h.operation_order(a, b), "overlapping ops are concurrent");
        assert!(!h.operation_order(b, a));
        assert!(h.operation_order(a, c), "a responded before c was invoked");
        assert!(h.program_order(a, c));
        assert!(h.program_order(b, c), "same process, earlier seq");
    }

    #[test]
    fn pending_operations_are_excluded_from_complete() {
        let mut rec = H::new();
        rec.invoke(ProcessId(0), "pending");
        rec.instantaneous(ProcessId(0), "done", 1);
        let h = rec.into_history();
        assert_eq!(h.len(), 2);
        assert_eq!(h.complete().count(), 1);
    }

    #[test]
    fn by_response_time_sorts_completed_operations() {
        let mut rec = H::new();
        let late = rec.scripted(ProcessId(0), Timestamp(1), Timestamp(10), "late", 0);
        let early = rec.scripted(ProcessId(1), Timestamp(2), Timestamp(3), "early", 0);
        let h = rec.into_history();
        let sorted = h.by_response_time();
        assert_eq!(sorted[0].id, early);
        assert_eq!(sorted[1].id, late);
    }

    #[test]
    fn filtered_keeps_matching_operations() {
        let mut rec = H::new();
        rec.instantaneous(ProcessId(0), "keep", 1);
        rec.instantaneous(ProcessId(0), "drop", 0);
        let h = rec.into_history();
        let kept = h.filtered(|r| r.response == Some(1));
        assert_eq!(kept.len(), 1);
        assert_eq!(kept.records()[0].op, "keep");
    }

    #[test]
    fn merge_combines_histories() {
        let mut rec1 = H::new();
        rec1.instantaneous(ProcessId(0), "a", 0);
        let mut h1 = rec1.into_history();

        let mut rec2 = HistoryRecorder::<&'static str, u32>::new();
        rec2.instantaneous(ProcessId(1), "b", 0);
        let h2 = rec2.into_history();

        h1.merge(&h2);
        assert_eq!(h1.len(), 2);
        assert_eq!(h1.processes(), vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    fn process_sequence_is_ordered_by_seq() {
        let mut rec = H::new();
        rec.instantaneous(ProcessId(0), "first", 0);
        rec.instantaneous(ProcessId(1), "other", 0);
        rec.instantaneous(ProcessId(0), "second", 0);
        let h = rec.into_history();
        let seq = h.process_sequence(ProcessId(0));
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].op, "first");
        assert_eq!(seq[1].op, "second");
        let map = h.by_process();
        assert_eq!(map.len(), 2);
    }

    #[test]
    #[should_panic(expected = "respond() called twice")]
    fn responding_twice_panics() {
        let mut rec = H::new();
        let id = rec.invoke(ProcessId(0), "x");
        rec.respond(id, 1);
        rec.respond(id, 2);
    }

    #[test]
    #[should_panic(expected = "response must follow invocation")]
    fn scripted_rejects_inverted_timestamps() {
        let mut rec = H::new();
        rec.scripted(ProcessId(0), Timestamp(5), Timestamp(5), "x", 1);
    }
}
