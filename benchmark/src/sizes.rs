//! The frozen input sizes.  Op counts are fixed, never time-boxed: two reps
//! do identical work, and a run repeats reps for `--seconds`.  Tuned once
//! on the 2-core reference host so one rep takes 0.1–0.7 s; change them only
//! in a PR that changes nothing else (the baseline is re-measured after).

/// Transactions per generated block payload.
pub const PAYLOAD_TXS: usize = 4;
/// `adt_read_mostly`: appends per thousand operations.
pub const ADT_READ_APPEND_PER_MILLE: u64 = 50;
/// `ingest_*`: blocks per `ingest_batch` call.
pub const INGEST_BATCH: usize = 64;
/// `ingest_*`: records per store chunk.
pub const STORE_CHUNK: u32 = 256;
/// `ingest_*`: appends between automatic checkpoints.
pub const STORE_CHECKPOINT_EVERY: u64 = 1024;
/// `ingest_*`: percent of the restarted node's history already in its store
/// image; the rest arrives from peers.
pub const RECOVER_IMAGE_PERCENT: usize = 90;
/// `ingest_*`: blocks per catch-up `apply_batch` call.
pub const CATCHUP_BATCH: usize = 16;
/// `ingest_*`: the catch-up tail arrives with every window of this many
/// blocks reversed.
pub const CATCHUP_WINDOW: usize = 64;
/// `judge_histories`: processes of each contended run.
pub const JUDGE_PROCESSES: usize = 8;
/// `net_converge`: miners.
pub const NET_MINERS: usize = 8;

/// The sizes that differ between a full run and `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// `adt_*`: blocks pre-populated into the replica before each rep.
    pub adt_prefill: usize,
    /// `adt_append`: `prepare`+`commit` pairs per client.
    pub adt_append_ops: usize,
    /// `adt_read_mostly`: operations per client.
    pub adt_read_ops: usize,
    /// `ingest_recover`: blocks of the random tree.
    pub ingest_blocks: usize,
    /// `ingest_recover`: the restarted node's history is this prefix of the
    /// stream.  Pinned small because of a cliff: `crash_recover_checkpoint`
    /// re-inserts survivors in `(height, id)` order, which is cubic on a
    /// forky tree (1 400 blocks 0.1–0.3 s, 2 000 blocks 2.8 s, 5 000 blocks
    /// 53 s).  Do not grow it.  (`ingest_forkdense` restarts its whole
    /// ladder.)
    pub recover_blocks: usize,
    /// `ingest_forkdense`: heights of the two-sibling ladder.  Pinned small
    /// because insert cost is cubic in it.  Do not grow it.
    pub ladder_levels: usize,
    /// `judge_histories`: rounds of the Θ_F,k=1 run (the Θ_F,k=2 and Θ_P
    /// runs take half as many).
    pub judge_rounds: usize,
    /// `net_converge`: mining horizon in ticks; the partition, churn and
    /// stabilisation times scale with it.
    pub net_duration: u64,
    /// `net_converge`: (sync, partial-sync) pairs of cells per rep, each
    /// cell with a seed of its own.  Many short cells, not two long ones:
    /// what one cell costs depends on where its forks fall (one pair of
    /// 640-tick cells took 394–543 ms over ten seeds, spread 24–30 %; six
    /// pairs of 320-tick cells 5–8 %).
    pub net_pairs: usize,
    /// Per-layer probes: at most this many of the workload's blocks feed a
    /// probe.
    pub probe_blocks: usize,
    /// Per-layer probes: blocks replayed into the history the criterion
    /// probes judge, for workloads that record none of their own.
    pub probe_history_blocks: usize,
    /// Per-layer probes: operations of the closed-loop ADT probe.
    pub probe_loop_ops: usize,
}

impl Sizes {
    /// The sizes every reported number refers to.
    pub const FULL: Sizes = Sizes {
        adt_prefill: 20_000,
        adt_append_ops: 100_000,
        adt_read_ops: 6_000,
        ingest_blocks: 100_000,
        recover_blocks: 800,
        ladder_levels: 600,
        judge_rounds: 1_600,
        net_duration: 320,
        net_pairs: 6,
        probe_blocks: 20_000,
        probe_history_blocks: 1_024,
        probe_loop_ops: 20_000,
    };

    /// `--smoke`: every workload at about 1/50 size, all output checks on.
    pub const SMOKE: Sizes = Sizes {
        adt_prefill: 400,
        adt_append_ops: 4_000,
        adt_read_ops: 2_000,
        ingest_blocks: 2_000,
        recover_blocks: 400,
        ladder_levels: 100,
        judge_rounds: 240,
        net_duration: 40,
        net_pairs: 1,
        probe_blocks: 1_000,
        probe_history_blocks: 256,
        probe_loop_ops: 1_000,
    };

    /// `(name, value)` pairs for the provenance block of a result: the
    /// sizes above and the constants of this file.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("payload_txs", PAYLOAD_TXS as u64),
            ("adt_prefill", self.adt_prefill as u64),
            ("adt_append_ops", self.adt_append_ops as u64),
            ("adt_read_ops", self.adt_read_ops as u64),
            ("adt_read_append_per_mille", ADT_READ_APPEND_PER_MILLE),
            ("ingest_blocks", self.ingest_blocks as u64),
            ("ingest_batch", INGEST_BATCH as u64),
            ("store_chunk", u64::from(STORE_CHUNK)),
            ("store_checkpoint_every", STORE_CHECKPOINT_EVERY),
            ("recover_blocks", self.recover_blocks as u64),
            ("recover_image_percent", RECOVER_IMAGE_PERCENT as u64),
            ("catchup_batch", CATCHUP_BATCH as u64),
            ("catchup_window", CATCHUP_WINDOW as u64),
            ("ladder_levels", self.ladder_levels as u64),
            ("judge_processes", JUDGE_PROCESSES as u64),
            ("judge_rounds", self.judge_rounds as u64),
            ("net_miners", NET_MINERS as u64),
            ("net_duration", self.net_duration),
            ("net_pairs", self.net_pairs as u64),
            ("probe_blocks", self.probe_blocks as u64),
            ("probe_history_blocks", self.probe_history_blocks as u64),
            ("probe_loop_ops", self.probe_loop_ops as u64),
        ]
    }
}
