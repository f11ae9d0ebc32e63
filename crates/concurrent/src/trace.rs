//! Synchronization-event tracing for the shared-memory replica.
//!
//! The race detector in `btadt-check` is a *happens-before* analysis: it
//! needs the replica's synchronization-relevant accesses as an explicit
//! event stream — loads and stores of the packed `(len, tip)` head in
//! [`crate::store::SnapshotStore`], writer-lock acquire/release pairs,
//! CAS wins and losses on the per-parent `K[h]` registers, prodigal token
//! consumes, and arena publishes.  [`SyncTraceHub`] is that stream's
//! collection point, in the spirit of [`crate::recorder::RecorderHub`]:
//! every emission draws a globally ordered tick, so the recorded order is
//! a real-time linearization of the emission points.
//!
//! Tracing is opt-in: a replica built without
//! [`with_sync_trace`](crate::ConcurrentBlockTree::with_sync_trace)
//! pays one `Option` check per instrumented point and records nothing.
//! The hub serializes emissions behind one mutex — acceptable for
//! analysis runs, which are small by design; it is **not** part of any
//! benchmarked path.
//!
//! The event vocabulary is deliberately *logical*, not byte-level: the
//! implementation is data-race-free in the C++ memory-model sense on
//! every path (even the deliberately broken one publishes under the
//! writer lock with a release store), so a memory-level detector would
//! find nothing.  What the detector checks instead is the **head
//! protocol**: every head store is tagged with whether the tip it
//! publishes was *decided under the writer lock* (the mediated installs
//! re-run tip selection over the locked tree) or derived from an
//! **unlocked** earlier head load (the racy path's last-writer-wins
//! publish).  See `btadt-check`'s `vclock` module for the analysis.

use btadt_types::BlockId;
use std::sync::{Arc, Mutex, PoisonError};

/// One synchronization-relevant access, as emitted by the replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncEventKind {
    /// An acquire load of the packed `(len, tip)` head; `version` is the
    /// packed word that was observed.
    HeadLoad {
        /// The packed `(len << 32) | tip` word the load returned.
        version: u64,
    },
    /// A release store of the packed head.  `locked` is `true` iff the
    /// published tip was decided under the writer lock (mediated
    /// installs); `false` iff it derives from the client's latest
    /// *unlocked* [`SyncEventKind::HeadLoad`] (the racy publish).
    HeadStore {
        /// The packed `(len << 32) | tip` word that was published.
        version: u64,
        /// Whether the tip decision was made under the writer lock.
        locked: bool,
    },
    /// The writer mutex was acquired.
    LockAcquire,
    /// The writer mutex is about to be released.
    LockRelease,
    /// The client's `consumeToken` CAS on `K[parent]` succeeded.
    CasWin {
        /// The parent block whose child slot was won.
        parent: BlockId,
    },
    /// The client's CAS failed and it observed the winner (the edge the
    /// helping protocol synchronizes on).
    CasLoss {
        /// The parent block whose child slot was contested.
        parent: BlockId,
    },
    /// A prodigal `consumeToken` (snapshot `update; scan`) on `parent`.
    TokenConsume {
        /// The parent block whose token slot was updated and scanned.
        parent: BlockId,
    },
    /// A block was pushed into the wait-free arena at `idx` (still
    /// unpublished; visibility comes from the next head store).
    ArenaPush {
        /// The arena index the block landed at.
        idx: u32,
    },
}

/// One recorded event: a tick (global emission order), the client that
/// emitted it, and what happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncEvent {
    /// Global emission order (unique, dense from 0).
    pub tick: u64,
    /// The client (thread) index that emitted the event.
    pub client: usize,
    /// The access that was traced.
    pub kind: SyncEventKind,
}

/// The collection hub: one mutex-serialized event log whose push order is
/// the tick order.
#[derive(Default)]
pub struct SyncTraceHub {
    events: Mutex<Vec<SyncEvent>>,
}

impl SyncTraceHub {
    /// Creates an empty, shareable hub.
    pub fn new() -> Arc<Self> {
        Arc::new(SyncTraceHub::default())
    }

    /// Records one event, assigning it the next tick.
    pub fn record(&self, client: usize, kind: SyncEventKind) {
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let tick = events.len() as u64;
        events.push(SyncEvent { tick, client, kind });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Returns `true` iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the recorded events (tick order), leaving the hub empty.
    pub fn take(&self) -> Vec<SyncEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A copy of the recorded events (tick order).
    pub fn events(&self) -> Vec<SyncEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Packs a `(len, tip)` view into the head word the store publishes —
/// kept identical to [`crate::store::SnapshotStore`]'s packing so traced
/// versions are directly comparable.
pub fn pack_version(len: u32, tip: u32) -> u64 {
    u64::from(len) << 32 | u64::from(tip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_dense_and_ordered() {
        let hub = SyncTraceHub::new();
        assert!(hub.is_empty());
        hub.record(0, SyncEventKind::HeadLoad { version: 7 });
        hub.record(1, SyncEventKind::LockAcquire);
        hub.record(1, SyncEventKind::LockRelease);
        let events = hub.events();
        assert_eq!(events.len(), 3);
        assert_eq!(hub.len(), 3);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tick, i as u64);
        }
        assert_eq!(events[0].client, 0);
        assert_eq!(events[1].kind, SyncEventKind::LockAcquire);
        let drained = hub.take();
        assert_eq!(drained, events);
        assert!(hub.is_empty());
    }

    #[test]
    fn versions_pack_like_the_store_head() {
        assert_eq!(pack_version(1, 0), 1u64 << 32);
        assert_eq!(pack_version(3, 2), (3u64 << 32) | 2);
    }
}
