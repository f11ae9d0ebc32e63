//! Deterministic seam-point fault injection for the shared-memory replica.
//!
//! The oracle reductions of Section 4.1 are *wait-free object* arguments:
//! their correctness must survive a scheduler that stalls a thread at the
//! worst possible instruction.  The OS scheduler rarely produces those
//! schedules on its own, so this module names the dangerous program points
//! (**seams**) inside [`crate::blocktree::ConcurrentBlockTree`] and lets a
//! [`FaultPlan`] force adversarial behaviour at them — pausing a CAS winner
//! between its win and its install, duplicating or discarding a prodigal
//! `consumeToken`, panicking while the writer mutex is held.
//!
//! Injection is **deterministic in its decisions**: whether a fault fires
//! at a given seam is a pure function of `(plan seed, client, seam,
//! occurrence index)` via SplitMix64, so a chaos cell injects the same
//! fault *set* regardless of thread count or scheduling.  (The resulting
//! interleaving still varies — that is the point; the consistency verdicts
//! must not.)
//!
//! The decision itself sits behind one trait, [`SeamHook`]: a
//! [`FaultSession`] asks its hook what happens at each crossing.
//! [`FaultPlan`] is the seeded hook of the chaos grid; `btadt-check`'s
//! stepper is another — it *parks* the calling thread at the seam until a
//! scheduler hands it the baton, which is how the model checker explores
//! every interleaving of this very code instead of a model of it.

use std::thread;

use btadt_types::rng::mix64;

/// A named dangerous program point inside the replica's append/read paths.
///
/// The variants are ordered by where they sit in the refinement
/// `getToken* ; consumeToken ; install` (Definition 3.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Seam {
    /// Strong path: after the token grant, before `compare_and_swap`.
    CasPreConsume,
    /// Strong path: after *winning* the CAS, before installing the block —
    /// the window the losers' helping protocol exists to cover.
    CasWinPreInstall,
    /// Strong path: after *losing* the CAS, before helping install the
    /// observed winner.
    CasLossPreHelp,
    /// Eventual path: before the snapshot `consumeToken` (`update; scan`).
    SnapshotPreConsume,
    /// Eventual path: after the consume, before installing the block.
    SnapshotPreInstall,
    /// Installer: writer mutex held, before the arena insert.
    WriterPreInsert,
    /// Installer: run inserted, mirrored and persisted, before the tip
    /// publish.
    WriterPrePublish,
    /// Reader: before walking the published chain.
    ReaderPreWalk,
    /// Durable medium: a write of a run's records to the active chunk (a
    /// [`FaultAction::Corrupt`] here tears the write to a prefix).
    StoreTornWrite,
    /// Durable medium: a write of a run's records to the active chunk (a
    /// [`FaultAction::Corrupt`] here flips one persisted bit).
    StoreBitFlip,
    /// Durable medium: the shadow-manifest overwrite of a checkpoint (a
    /// [`FaultAction::Corrupt`] here tears the shadow write, so the swap
    /// publishes a half-written manifest candidate — recovery must fall
    /// back rather than trust it).
    StorePartialCheckpoint,
    /// Durable medium: the atomic manifest rename (a
    /// [`FaultAction::Corrupt`] here drops the directory-entry update,
    /// leaving the previous, stale manifest authoritative).
    StoreStaleManifest,
    /// Store epilogue: a pruning compaction crashes after writing the
    /// compacted chunks but before the manifest swap commits them, leaving
    /// old and new layouts superposed for recovery to collapse.
    StorePruneRace,
    /// Batch installer: writer mutex held, between two installs of one
    /// batch — some blocks of the batch are installed and mirrored, the
    /// rest are not, and no tip has been published.  A panic here models a
    /// writer crashing mid-batch; the poison heal must republish exactly
    /// the installed prefix.  (Appended last: seam indices feed the
    /// deterministic trigger hash, so existing plans' decisions must not
    /// shift.)
    WriterMidBatch,
}

/// Number of distinct seams (sizes per-seam occurrence counters).
pub const SEAM_COUNT: usize = 14;

impl Seam {
    /// Dense index used for counters and rate tables.
    pub fn index(self) -> usize {
        match self {
            Seam::CasPreConsume => 0,
            Seam::CasWinPreInstall => 1,
            Seam::CasLossPreHelp => 2,
            Seam::SnapshotPreConsume => 3,
            Seam::SnapshotPreInstall => 4,
            Seam::WriterPreInsert => 5,
            Seam::WriterPrePublish => 6,
            Seam::ReaderPreWalk => 7,
            Seam::StoreTornWrite => 8,
            Seam::StoreBitFlip => 9,
            Seam::StorePartialCheckpoint => 10,
            Seam::StoreStaleManifest => 11,
            Seam::StorePruneRace => 12,
            Seam::WriterMidBatch => 13,
        }
    }

    /// All seams, in [`Seam::index`] order.
    pub fn all() -> [Seam; SEAM_COUNT] {
        [
            Seam::CasPreConsume,
            Seam::CasWinPreInstall,
            Seam::CasLossPreHelp,
            Seam::SnapshotPreConsume,
            Seam::SnapshotPreInstall,
            Seam::WriterPreInsert,
            Seam::WriterPrePublish,
            Seam::ReaderPreWalk,
            Seam::StoreTornWrite,
            Seam::StoreBitFlip,
            Seam::StorePartialCheckpoint,
            Seam::StoreStaleManifest,
            Seam::StorePruneRace,
            Seam::WriterMidBatch,
        ]
    }

    /// Stable label for reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Seam::CasPreConsume => "cas-pre-consume",
            Seam::CasWinPreInstall => "cas-win-pre-install",
            Seam::CasLossPreHelp => "cas-loss-pre-help",
            Seam::SnapshotPreConsume => "snapshot-pre-consume",
            Seam::SnapshotPreInstall => "snapshot-pre-install",
            Seam::WriterPreInsert => "writer-pre-insert",
            Seam::WriterPrePublish => "writer-pre-publish",
            Seam::ReaderPreWalk => "reader-pre-walk",
            Seam::StoreTornWrite => "store-torn-write",
            Seam::StoreBitFlip => "store-bit-flip",
            Seam::StorePartialCheckpoint => "store-partial-checkpoint",
            Seam::StoreStaleManifest => "store-stale-manifest",
            Seam::StorePruneRace => "store-prune-race",
            Seam::WriterMidBatch => "writer-mid-batch",
        }
    }

    /// Parses a [`Seam::label`] back into the seam (the `--seam` CLI flag).
    pub fn from_label(label: &str) -> Option<Seam> {
        Seam::all().into_iter().find(|s| s.label() == label)
    }

    /// `true` iff the seam sits in the durable-storage layer (its faults
    /// corrupt bytes on the medium rather than perturbing the schedule).
    pub fn is_storage(self) -> bool {
        matches!(
            self,
            Seam::StoreTornWrite
                | Seam::StoreBitFlip
                | Seam::StorePartialCheckpoint
                | Seam::StoreStaleManifest
                | Seam::StorePruneRace
        )
    }
}

/// What an armed seam does when its trigger fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: fall through.
    Proceed,
    /// Yield the thread this many times — a forced descheduling window.
    Pause(u32),
    /// Run the prodigal `consumeToken` **twice** for the same block
    /// (only meaningful at [`Seam::SnapshotPreConsume`]; the snapshot
    /// reduction must stay idempotent under the duplicate).
    DuplicateConsume,
    /// Discard the set returned by `consumeToken` without inspecting it
    /// (only meaningful at [`Seam::SnapshotPreConsume`]; installation must
    /// not depend on the returned set).
    DropConsumeResult,
    /// Panic at the seam.  At the writer seams this poisons the writer
    /// mutex, exercising [`heal_after_poison`].
    ///
    /// [`heal_after_poison`]: crate::blocktree::ConcurrentBlockTree::heal_after_poison
    Panic,
    /// Corrupt the durable write crossing the seam (only meaningful at the
    /// storage seams; the medium bridge in [`crate::storage`] translates it
    /// into the seam's write fault — torn prefix, flipped bit or dropped
    /// rename).
    Corrupt,
}

/// What a [`FaultSession`] consults at every seam crossing.  `at` runs on
/// the crossing thread, *at* the seam: it may block (a controlled scheduler
/// parking the client there) before it answers.
pub trait SeamHook: std::fmt::Debug + Sync {
    /// What fires at `seam` for `client`'s `occurrence`-th crossing.
    fn at(&self, client: usize, seam: Seam, occurrence: u32) -> FaultAction;
}

/// One seam's arming: the action and how often it fires (percent, 0–100).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeamArm {
    /// The action taken when the trigger fires.
    pub action: FaultAction,
    /// Trigger probability in percent over the deterministic hash.
    pub rate_percent: u8,
}

impl SeamArm {
    const OFF: SeamArm = SeamArm {
        action: FaultAction::Proceed,
        rate_percent: 0,
    };
}

/// A deterministic fault plan: per-seam arming plus the seed that drives
/// the trigger hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Stable name for grids, reports and JSON output.
    pub name: &'static str,
    /// Seed mixed into every trigger decision.
    pub seed: u64,
    arms: [SeamArm; SEAM_COUNT],
}

impl FaultPlan {
    /// A plan with every seam disarmed (equivalent to no plan at all).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            name: "quiet",
            seed,
            arms: [SeamArm::OFF; SEAM_COUNT],
        }
    }

    /// Arms one seam (builder style).
    pub fn arm(mut self, seam: Seam, action: FaultAction, rate_percent: u8) -> Self {
        self.arms[seam.index()] = SeamArm {
            action,
            rate_percent: rate_percent.min(100),
        };
        self
    }

    /// **Stalled winners**: CAS winners and losers pause between consume
    /// and install, and the installer pauses between mirror and publish —
    /// the windows the helping protocol and the single release store
    /// exist to close.
    pub fn stalled_winners(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::CasWinPreInstall, FaultAction::Pause(24), 40)
            .arm(Seam::CasLossPreHelp, FaultAction::Pause(12), 40)
            .arm(Seam::WriterPrePublish, FaultAction::Pause(8), 25)
            .arm(Seam::SnapshotPreInstall, FaultAction::Pause(24), 40);
        plan.name = "stalled-winners";
        plan
    }

    /// **Contention storm**: every append pauses just before its
    /// `consumeToken`, herding candidates onto the same parent so CAS
    /// losses (strong) and forks (eventual) spike.
    pub fn contention_storm(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::CasPreConsume, FaultAction::Pause(16), 70)
            .arm(Seam::SnapshotPreConsume, FaultAction::Pause(16), 35)
            .arm(Seam::WriterPreInsert, FaultAction::Pause(4), 20);
        plan.name = "contention-storm";
        plan
    }

    /// **Token chaos**: prodigal consumes are duplicated or their results
    /// discarded, and readers pause mid-walk — the snapshot reduction must
    /// stay idempotent and reads wait-free regardless.
    pub fn token_chaos(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::SnapshotPreConsume, FaultAction::DuplicateConsume, 30)
            .arm(Seam::CasLossPreHelp, FaultAction::Pause(32), 50)
            .arm(Seam::ReaderPreWalk, FaultAction::Pause(6), 30);
        plan.name = "token-chaos";
        plan
    }

    /// **Torn storage**: block-record appends are torn to a prefix or bit
    /// flipped on the durable medium while the usual install stalls keep
    /// the schedule adversarial — recovery must quarantine the damage and
    /// the replica must re-heal the gap from its in-memory peer.
    pub fn torn_storage(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::StoreTornWrite, FaultAction::Corrupt, 6)
            .arm(Seam::StoreBitFlip, FaultAction::Corrupt, 5)
            .arm(Seam::CasWinPreInstall, FaultAction::Pause(12), 25)
            .arm(Seam::SnapshotPreInstall, FaultAction::Pause(12), 25);
        plan.name = "torn-storage";
        plan
    }

    /// **Checkpoint chaos**: checkpoint shadow writes are torn, manifest
    /// swaps dropped (stale manifests), and the epilogue pruning compaction
    /// crashes before its commit — recovery must fall back to the last
    /// durable manifest and collapse the layout superposition.
    pub fn checkpoint_chaos(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::StorePartialCheckpoint, FaultAction::Corrupt, 40)
            .arm(Seam::StoreStaleManifest, FaultAction::Corrupt, 40)
            .arm(Seam::StorePruneRace, FaultAction::Corrupt, 100)
            .arm(Seam::WriterPrePublish, FaultAction::Pause(6), 15);
        plan.name = "checkpoint-chaos";
        plan
    }

    /// **Crash mid-batch**: the batch installer stalls between two
    /// installs of one batch, with the usual publish stall on top — the
    /// installed-but-unpublished prefix must stay invisible to readers
    /// until the batch's single publish lands.  (The *panic* flavour of
    /// this seam, which poisons the writer mutex mid-batch and forces the
    /// heal to republish exactly the installed prefix, is exercised by
    /// dedicated unit tests; a default plan must keep the grid's verdicts
    /// deterministic, so it only stalls.)
    pub fn crash_mid_batch(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed)
            .arm(Seam::WriterMidBatch, FaultAction::Pause(16), 60)
            .arm(Seam::WriterPrePublish, FaultAction::Pause(8), 25);
        plan.name = "crash-mid-batch";
        plan
    }

    /// The arming of one seam.
    pub fn arm_of(&self, seam: Seam) -> SeamArm {
        self.arms[seam.index()]
    }

    /// `true` iff at least one seam is armed.
    pub fn is_armed(&self) -> bool {
        self.arms.iter().any(|a| a.rate_percent > 0)
    }

    /// `true` iff `seam` is armed (non-zero rate).
    pub fn arms_seam(&self, seam: Seam) -> bool {
        self.arm_of(seam).rate_percent > 0
    }

    /// `true` iff the plan arms any [storage seam](Seam::is_storage) — such
    /// plans make their chaos cells attach a durable store and run the
    /// crash/recover/heal epilogue.
    pub fn arms_storage(&self) -> bool {
        Seam::all()
            .into_iter()
            .any(|s| s.is_storage() && self.arms_seam(s))
    }

    /// The deterministic trigger decision: what fires at `seam` for
    /// `client`'s `occurrence`-th crossing.  This is the pure function
    /// behind the plan's [`SeamHook`]; the storage bridge calls it with its
    /// own occurrence counters.
    pub fn decide(&self, client: usize, seam: Seam, occurrence: u32) -> FaultAction {
        let arm = self.arm_of(seam);
        if arm.rate_percent == 0 {
            return FaultAction::Proceed;
        }
        let mixed = mix64(
            self.seed
                ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ ((seam.index() as u64) << 32)
                ^ u64::from(occurrence),
        );
        if mixed % 100 < u64::from(arm.rate_percent) {
            arm.action
        } else {
            FaultAction::Proceed
        }
    }
}

impl SeamHook for FaultPlan {
    fn at(&self, client: usize, seam: Seam, occurrence: u32) -> FaultAction {
        self.decide(client, seam, occurrence)
    }
}

/// Per-thread fault session: holds the per-seam occurrence counters that
/// make trigger decisions reproducible.  One session per client thread;
/// sessions are cheap and `Send`.
#[derive(Clone, Debug)]
pub struct FaultSession<'a> {
    hook: Option<&'a dyn SeamHook>,
    client: usize,
    hits: [u32; SEAM_COUNT],
    injected: u64,
}

impl<'a> FaultSession<'a> {
    /// A session that injects nothing (the plain, un-instrumented paths).
    pub fn passthrough() -> Self {
        FaultSession {
            hook: None,
            client: 0,
            hits: [0; SEAM_COUNT],
            injected: 0,
        }
    }

    /// A session driving `plan` for one client thread.
    pub fn new(plan: &'a FaultPlan, client: usize) -> Self {
        Self::hooked(plan, client)
    }

    /// A session consulting an arbitrary [`SeamHook`] for one client thread.
    pub fn hooked(hook: &'a dyn SeamHook, client: usize) -> Self {
        FaultSession {
            hook: Some(hook),
            client,
            hits: [0; SEAM_COUNT],
            injected: 0,
        }
    }

    /// Asks the hook what happens at `seam` this time (for a plan:
    /// deterministic in `(plan seed, client, seam, occurrence)`); each call
    /// advances the seam's occurrence counter.
    pub fn decide(&mut self, seam: Seam) -> FaultAction {
        let Some(hook) = self.hook else {
            return FaultAction::Proceed;
        };
        let occurrence = self.hits[seam.index()];
        self.hits[seam.index()] = occurrence.wrapping_add(1);
        let action = hook.at(self.client, seam, occurrence);
        if action != FaultAction::Proceed {
            self.injected += 1;
        }
        action
    }

    /// Decides and *executes* the scheduling-only actions: pauses yield in
    /// place, panics unwind from here.  Returns the action so call sites that
    /// special-case [`FaultAction::DuplicateConsume`] /
    /// [`FaultAction::DropConsumeResult`] can branch on it.
    pub fn apply(&mut self, seam: Seam) -> FaultAction {
        let action = self.decide(seam);
        match action {
            FaultAction::Pause(yields) => {
                for _ in 0..yields {
                    thread::yield_now();
                }
            }
            FaultAction::Panic => {
                // A scheduled event, not a bug to report: unwind without
                // invoking the process panic hook (no stderr noise, no
                // backtrace capture per injected fault).
                let message = format!("injected fault: panic at seam {}", seam.label());
                std::panic::resume_unwind(Box::new(message));
            }
            _ => {}
        }
        action
    }

    /// Number of faults injected so far by this session.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_never_injects() {
        let mut s = FaultSession::passthrough();
        for _ in 0..100 {
            for seam in Seam::all() {
                assert_eq!(s.decide(seam), FaultAction::Proceed);
            }
        }
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn decisions_are_deterministic_per_client_and_occurrence() {
        let plan = FaultPlan::stalled_winners(9);
        let trace = |client: usize| -> Vec<FaultAction> {
            let mut s = FaultSession::new(&plan, client);
            (0..64).map(|_| s.decide(Seam::CasWinPreInstall)).collect()
        };
        assert_eq!(trace(0), trace(0), "same client replays identically");
        assert_ne!(trace(0), trace(1), "clients draw independent streams");
        let injected: usize = trace(0)
            .iter()
            .filter(|a| **a != FaultAction::Proceed)
            .count();
        assert!(injected > 0, "a 40% arm fires within 64 occurrences");
        assert!(injected < 64, "a 40% arm does not always fire");
    }

    #[test]
    fn named_plans_are_armed_and_quiet_is_not() {
        for plan in [
            FaultPlan::stalled_winners(1),
            FaultPlan::contention_storm(1),
            FaultPlan::token_chaos(1),
            FaultPlan::torn_storage(1),
            FaultPlan::checkpoint_chaos(1),
            FaultPlan::crash_mid_batch(1),
        ] {
            assert!(plan.is_armed(), "{} must arm at least one seam", plan.name);
        }
        assert!(!FaultPlan::quiet(1).is_armed());
    }

    #[test]
    fn seam_labels_round_trip_and_storage_seams_are_flagged() {
        for seam in Seam::all() {
            assert_eq!(Seam::from_label(seam.label()), Some(seam));
        }
        assert_eq!(Seam::from_label("no-such-seam"), None);
        let storage: Vec<Seam> = Seam::all().into_iter().filter(|s| s.is_storage()).collect();
        assert_eq!(storage.len(), 5, "exactly the five storage seams");
        assert!(!Seam::CasPreConsume.is_storage());
    }

    #[test]
    fn storage_plans_arm_storage_and_schedule_plans_do_not() {
        assert!(FaultPlan::torn_storage(1).arms_storage());
        assert!(FaultPlan::checkpoint_chaos(1).arms_storage());
        assert!(FaultPlan::checkpoint_chaos(1).arms_seam(Seam::StorePruneRace));
        assert!(!FaultPlan::torn_storage(1).arms_seam(Seam::StorePruneRace));
        for plan in [
            FaultPlan::quiet(1),
            FaultPlan::stalled_winners(1),
            FaultPlan::contention_storm(1),
            FaultPlan::token_chaos(1),
            FaultPlan::crash_mid_batch(1),
        ] {
            assert!(!plan.arms_storage(), "{} must not arm storage", plan.name);
        }
    }

    #[test]
    fn plan_decide_matches_the_session_stream() {
        let plan = FaultPlan::torn_storage(17);
        let mut session = FaultSession::new(&plan, 3);
        for occurrence in 0..32u32 {
            assert_eq!(
                session.decide(Seam::StoreTornWrite),
                plan.decide(3, Seam::StoreTornWrite, occurrence),
            );
        }
    }

    #[test]
    fn apply_executes_pauses_and_reports_special_actions() {
        let plan = FaultPlan::quiet(3)
            .arm(Seam::SnapshotPreConsume, FaultAction::DuplicateConsume, 100)
            .arm(Seam::ReaderPreWalk, FaultAction::Pause(2), 100);
        let mut s = FaultSession::new(&plan, 0);
        assert_eq!(
            s.apply(Seam::SnapshotPreConsume),
            FaultAction::DuplicateConsume
        );
        assert_eq!(s.apply(Seam::ReaderPreWalk), FaultAction::Pause(2));
        assert_eq!(s.apply(Seam::CasPreConsume), FaultAction::Proceed);
        assert_eq!(s.injected(), 2);
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn apply_fires_injected_panics() {
        let plan = FaultPlan::quiet(3).arm(Seam::WriterPreInsert, FaultAction::Panic, 100);
        let mut s = FaultSession::new(&plan, 0);
        s.apply(Seam::WriterPreInsert);
    }
}
