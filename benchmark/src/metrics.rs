//! The metric catalogue: names, units, directions, regression bounds, and
//! — for per-layer metrics — which end-to-end metric each should move on
//! which workload.  `BENCHMARK.json` at the repo root repeats the names,
//! units, directions and bounds; `tests/contract.rs` keeps the two equal.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: every workload reports every one of them.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// The end-to-end metrics, in report order.
///
/// Rates and walls aggregate over reps by the decile on the quiet side (the
/// ninth for rates, the first for walls): interference from the host's
/// other tenants only ever slows a rep, in bursts of seconds.  Latency
/// takes the median over reps (see `run.rs`).  Tail
/// latencies (`*_p99_us`) and the phase splits (`recover_s`, …) are
/// reported per workload as informational numbers, not gated: they did
/// not repeat within 10 % between sets on the reference host.  Every bound
/// is the contract's maximum: two sets of ten runs on ten seeds differed by
/// up to 9 % in their medians and spread by up to 14 % within a set when
/// the host was busy (5 % and 9 % when it was not).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work units of the primary phase per second of its wall, ninth decile over reps",
    },
    EndToEnd {
        name: "rep_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "wall of one whole timed body, every phase included, first decile over reps",
    },
    EndToEnd {
        name: "call_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median latency of the workload's primary call within a rep, median over reps",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation + store image + one rep's fresh pre-populated state, no timed body; first decile of ten or more set-ups, half before and half after the timed reps",
    },
];

/// A per-layer metric: one layer's public function timed in isolation over
/// the workload's own blocks (or a count taken at that boundary).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `true` iff the value repeats exactly for a given seed.
    pub exact: bool,
    /// The timed call.
    pub call: &'static str,
    /// The end-to-end metric → workload pairs it should move.
    pub moves: &'static str,
}

const fn timed(
    name: &'static str,
    unit: &'static str,
    call: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
        call,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    call: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        call,
        moves,
    }
}

const fn higher(mut m: PerLayer) -> PerLayer {
    m.better = Better::Higher;
    m
}

/// The per-layer metrics, in report order.
pub const PER_LAYER: [PerLayer; 53] = [
    timed(
        "types.insert_ns_per_block",
        "ns",
        "BlockTree::insert over the workload's blocks",
        "work_per_s → ingest_forkdense, ingest_recover; call_p50_us → adt_append",
    ),
    timed(
        "types.insert_batch_ns_per_block",
        "ns",
        "BlockTree::insert_batch, 64-block chunks",
        "work_per_s → ingest_recover",
    ),
    timed(
        "types.naive_insert_ns_per_block",
        "ns",
        "NaiveBlockTree::insert (reference row)",
        "none (base of types.insert_vs_naive)",
    ),
    higher(timed(
        "types.insert_vs_naive",
        "ratio",
        "naive ÷ arena insert time",
        "work_per_s → ingest_recover",
    )),
    count(
        "types.reindexes_per_block",
        "count",
        "BlockTree::reachability_reindexes ÷ blocks",
        "work_per_s, batch_p99_us (informational) → ingest_forkdense; rep_wall_ms → net_converge",
    ),
    timed(
        "types.select_tip_ns",
        "ns",
        "BlockTree::best_leaf_by_height",
        "call_p50_us → adt_append",
    ),
    timed(
        "types.chain_to_ns_per_block",
        "ns",
        "BlockTree::chain_to(tip) ÷ chain length",
        "work_per_s → adt_read_mostly",
    ),
    timed(
        "types.is_ancestor_ns",
        "ns",
        "BlockTree::is_ancestor on seeded pairs",
        "work_per_s → judge_histories",
    ),
    timed(
        "pipeline.validate_ns_per_block",
        "ns",
        "validate_isolated",
        "work_per_s → ingest_recover",
    ),
    timed(
        "pipeline.stage_ns_per_block",
        "ns",
        "stage_batch against a BlockTree::contains closure",
        "work_per_s, rep_wall_ms → ingest_recover",
    ),
    count(
        "pipeline.orphaned_share",
        "ratio",
        "orphan verdicts ÷ inputs when every 64-block window arrives reversed",
        "rep_wall_ms → ingest_recover",
    ),
    timed(
        "oracle.frugal_token_ns",
        "ns",
        "SharedOracle::get_token_until_granted + OracleCas::compare_and_swap",
        "call_p50_us, work_per_s → adt_append",
    ),
    timed(
        "oracle.prodigal_consume_ns",
        "ns",
        "SnapshotConsumeToken::consume_token",
        "call_p50_us → adt_read_mostly",
    ),
    timed(
        "oracle.cas_loss_share",
        "ratio",
        "appends with appended == false ÷ appends, closed loop at C clients",
        "work_per_s → adt_append",
    ),
    timed(
        "concurrent.prepare_ns",
        "ns",
        "ConcurrentBlockTree::prepare",
        "call_p50_us → adt_append",
    ),
    timed(
        "concurrent.commit_ns",
        "ns",
        "ConcurrentBlockTree::commit",
        "call_p50_us → adt_append, adt_read_mostly; append_p99_us (informational) → adt_append",
    ),
    timed(
        "concurrent.read_hit_ns",
        "ns",
        "BtReader::read, tip unchanged",
        "read_p50_us (informational) → adt_read_mostly",
    ),
    timed(
        "concurrent.read_miss_ns_per_block",
        "ns",
        "BtReader::read after a tip move ÷ chain length",
        "read_p99_us (informational), work_per_s → adt_read_mostly",
    ),
    timed(
        "concurrent.read_miss_share",
        "ratio",
        "reads that found the tip moved ÷ reads, closed loop at C clients",
        "work_per_s → adt_read_mostly",
    ),
    timed(
        "concurrent.snapshot_push_ns_per_block",
        "ns",
        "SnapshotStore::try_push + publish",
        "work_per_s → ingest_recover; call_p50_us → adt_append",
    ),
    timed(
        "concurrent.ingest_batch_ns_per_block",
        "ns",
        "ConcurrentBlockTree::ingest_batch, no durable store",
        "work_per_s → ingest_recover",
    ),
    timed(
        "concurrent.door_self_ns_per_block",
        "ns",
        "ingest_batch − (stage_batch + insert_batch + snapshot push)",
        "work_per_s → ingest_recover",
    ),
    timed(
        "concurrent.recorder_ns_per_op",
        "ns",
        "RecorderHub: invoke + respond, collect amortised",
        "none today (recording is off in the timed loops)",
    ),
    higher(timed(
        "concurrent.scaling_1_to_c",
        "ratio",
        "closed-loop ops/s at C clients ÷ at 1 client (the single-node baseline)",
        "work_per_s → adt_append",
    )),
    timed(
        "store.append_ns_per_block",
        "ns",
        "BlockStore::append, no checkpoints",
        "work_per_s → ingest_recover",
    ),
    timed(
        "store.checkpoint_ns",
        "ns",
        "BlockStore::checkpoint with every block appended",
        "batch_p99_us (informational) → ingest_recover",
    ),
    count(
        "store.checkpoints",
        "count",
        "StoreStats::checkpoints under the workload's store config",
        "batch_p99_us (informational) → ingest_recover",
    ),
    count(
        "store.bytes_per_block",
        "bytes",
        "MediumStats::bytes_written ÷ blocks",
        "work_per_s, peak_rss_mb → ingest_recover",
    ),
    count(
        "store.writes_per_block",
        "count",
        "MediumStats::writes ÷ blocks",
        "work_per_s → ingest_recover",
    ),
    timed(
        "store.encode_ns_per_block",
        "ns",
        "encode_record",
        "work_per_s → ingest_recover",
    ),
    timed(
        "store.decode_ns_per_block",
        "ns",
        "decode_record",
        "rep_wall_ms → ingest_recover",
    ),
    timed(
        "store.recover_ns_per_block",
        "ns",
        "BlockStore::recover of the workload's store image",
        "rep_wall_ms → ingest_recover",
    ),
    timed(
        "protocols.recover_reinsert_ns_per_block",
        "ns",
        "GossipSync::crash_recover_checkpoint − BlockStore::recover",
        "rep_wall_ms → ingest_recover",
    ),
    timed(
        "protocols.apply_batch_ns_per_block",
        "ns",
        "GossipSync::apply_batch, in-order 16-block batches",
        "rep_wall_ms → ingest_recover, net_converge",
    ),
    timed(
        "protocols.apply_batch_ooo_ns_per_block",
        "ns",
        "GossipSync::apply_batch, every 64-block window reversed",
        "rep_wall_ms → ingest_recover",
    ),
    timed(
        "protocols.handler_ns_per_event",
        "ns",
        "time inside the miners' Process handlers ÷ events",
        "work_per_s → net_converge",
    ),
    count(
        "protocols.msgs_per_block",
        "count",
        "messages delivered ÷ blocks mined",
        "work_per_s → net_converge",
    ),
    count(
        "protocols.sync_requests_per_block",
        "count",
        "Σ SyncStats::requests_sent ÷ blocks mined",
        "work_per_s → net_converge",
    ),
    count(
        "netsim.events",
        "count",
        "SimReport::events_processed",
        "rep_wall_ms → net_converge",
    ),
    timed(
        "netsim.self_ns_per_event",
        "ns",
        "(Simulator::run − handler time) ÷ events",
        "work_per_s → net_converge",
    ),
    count(
        "netsim.dropped_share",
        "ratio",
        "messages dropped ÷ sent",
        "none (input sanity)",
    ),
    timed(
        "history.build_ns_per_op",
        "ns",
        "build_histories ÷ history operations",
        "work_per_s → net_converge",
    ),
    timed(
        "core.forest_build_ns_per_read",
        "ns",
        "ReachForest::from_chains ÷ reads",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.strong_prefix_ns_per_op",
        "ns",
        "StrongPrefix::check alone",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.eventual_prefix_ns_per_op",
        "ns",
        "EventualPrefix::check alone",
        "work_per_s → judge_histories, net_converge",
    ),
    timed(
        "core.ever_growing_ns_per_op",
        "ns",
        "EverGrowingTree::check alone",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.local_monotonic_ns_per_op",
        "ns",
        "LocalMonotonicRead::check alone",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.block_validity_ns_per_op",
        "ns",
        "BlockValidity::check alone",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.sc_check_ns_per_op",
        "ns",
        "strong_consistency(..).check",
        "work_per_s → judge_histories",
    ),
    timed(
        "core.ec_check_ns_per_op",
        "ns",
        "eventual_consistency(..).check",
        "work_per_s → judge_histories, net_converge",
    ),
    higher(timed(
        "core.ec_vs_reference",
        "ratio",
        "eventual_consistency_reference ÷ eventual_consistency time",
        "work_per_s → judge_histories",
    )),
    timed(
        "bench.trace_overhead_share",
        "ratio",
        "traced rep wall ÷ untraced rep wall − 1",
        "none (the cost of the spans themselves)",
    ),
    timed(
        "bench.attribution_gap",
        "ratio",
        "(client time per work unit − Σ isolated layer parts) ÷ client time per work unit",
        "none (reported, not gated: isolated replays share no cache state)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
