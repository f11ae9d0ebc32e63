//! `ingest_recover` and `ingest_forkdense`: one thread streams blocks in
//! batches through the replica's unified ingest door with a durable store
//! attached, then a node restarts from a store image and catches up
//! through out-of-order gossip batches — the node-operator path.  The two
//! differ in the tree's shape only: a random tree that almost never
//! reindexes, and a ladder that does little else.

use std::collections::BTreeMap;
use std::time::Instant;

use btadt_concurrent::{AppendPath, ConcurrentBlockTree, IngestVerdict};
use btadt_netsim::SimTime;
use btadt_protocols::{GossipSync, ReplicaLog};
use btadt_store::{BlockStore, SimMedium, StoreConfig};
use btadt_types::workload::Workload as Generator;
use btadt_types::{Block, BlockId, BlockTree};

use crate::gen::{self, Batch};
use crate::sizes::{
    Sizes, CATCHUP_BATCH, CATCHUP_WINDOW, INGEST_BATCH, PAYLOAD_TXS, RECOVER_IMAGE_PERCENT,
    STORE_CHECKPOINT_EVERY, STORE_CHUNK,
};
use crate::trace::SpanBuf;
use crate::workloads::{Check, ProbeInput, Rep, TimedBody, Workload, DEFAULT_APPEND_BUDGET};

/// The restart phase: a node comes back with a disk image of most of its
/// history and receives the rest from its peers.
struct Restart {
    /// Disk image holding the first part of the node's history.
    image: SimMedium,
    /// The missing tail, in arrival order.
    tail: Vec<Vec<Block>>,
    /// Sorted ids of the whole history, genesis included.
    expected_ids: Vec<BlockId>,
}

impl Restart {
    fn new(history: &[Block]) -> Self {
        let cut = history.len() * RECOVER_IMAGE_PERCENT / 100;
        let mut expected_ids: Vec<BlockId> = history.iter().map(|b| b.id).collect();
        expected_ids.push(btadt_types::GENESIS_ID);
        expected_ids.sort_unstable();
        Restart {
            image: store_image(&history[..cut]),
            tail: gen::reversed_windows(&history[cut..], CATCHUP_WINDOW, CATCHUP_BATCH),
            expected_ids,
        }
    }
}

/// Either ingest workload.
pub struct Ingest {
    stream: Vec<Block>,
    batches: Vec<Batch>,
    expected_ids: Vec<BlockId>,
    expected_height: u64,
    restart: Restart,
    history_blocks: usize,
    append_budget: usize,
    digest: u64,
}

/// The store configuration of the ingest workloads.
pub const STORE_CONFIG: StoreConfig = StoreConfig {
    chunk_capacity: STORE_CHUNK,
    auto_checkpoint_every: STORE_CHECKPOINT_EVERY,
};

/// A disk image of a store that ingested `blocks` and then lost power: no
/// final checkpoint, so the records after the last automatic one are only
/// provable record by record.
pub fn store_image(blocks: &[Block]) -> SimMedium {
    let mut store = BlockStore::create(SimMedium::new(), STORE_CONFIG);
    for b in blocks {
        store.append(b);
    }
    store.into_medium()
}

/// Checks one batch's verdicts against the rule for its kind.
pub fn check_verdicts(check: &mut Check, batch: usize, resent: bool, verdicts: &[IngestVerdict]) {
    let want = if resent {
        IngestVerdict::Duplicate
    } else {
        IngestVerdict::Accepted
    };
    for (i, v) in verdicts.iter().enumerate() {
        check.require(*v == want, || {
            format!("batch {batch} block {i}: {v:?}, expected {want:?}")
        });
    }
}

/// Checks that `tree` holds exactly the generator's blocks.
pub fn check_same_tree(check: &mut Check, what: &str, tree: &BlockTree, expected: &[BlockId]) {
    check.require(tree.sorted_ids() == expected, || {
        format!(
            "{what}: tree holds {} blocks, the generator {}",
            tree.len(),
            expected.len()
        )
    });
}

impl Ingest {
    /// `ingest_recover`: a 23 %-leaves random tree, mild in-batch disorder
    /// and re-sends; the restarted node holds a short prefix of it (see
    /// [`Sizes::recover_blocks`]).
    pub fn recover(seed: u64, sizes: &Sizes) -> Self {
        let tree = Generator::new(gen::sub_seed(seed, 1)).random_tree(
            sizes.ingest_blocks,
            0.7,
            PAYLOAD_TXS,
        );
        let stream = gen::tree_stream(&tree);
        let batches = gen::stream_batches(&stream, INGEST_BATCH, gen::sub_seed(seed, 2));
        let restart = Restart::new(&stream[..stream.len().min(sizes.recover_blocks)]);
        Self::from_parts(
            stream,
            batches,
            &tree,
            restart,
            sizes,
            DEFAULT_APPEND_BUDGET,
        )
    }

    /// `ingest_forkdense`: the two-sibling ladder, in order, no re-sends —
    /// the shape alone is the stress.  The restarted node holds all of it.
    pub fn forkdense(seed: u64, sizes: &Sizes) -> Self {
        let stream = gen::ladder(gen::sub_seed(seed, 1), sizes.ladder_levels, PAYLOAD_TXS);
        let batches = stream
            .chunks(INGEST_BATCH)
            .map(|c| Batch {
                blocks: c.to_vec(),
                resent: false,
            })
            .collect();
        let mut tree = BlockTree::new();
        for r in tree.insert_batch(&stream) {
            r.expect("the ladder is parents-first");
        }
        let restart = Restart::new(&stream);
        Self::from_parts(stream, batches, &tree, restart, sizes, 64)
    }

    fn from_parts(
        stream: Vec<Block>,
        batches: Vec<Batch>,
        tree: &BlockTree,
        restart: Restart,
        sizes: &Sizes,
        append_budget: usize,
    ) -> Self {
        let digest = gen::digest(batches.iter().flat_map(|b| &b.blocks))
            ^ gen::digest(restart.tail.iter().flatten()).rotate_left(1);
        Ingest {
            stream,
            batches,
            expected_ids: tree.sorted_ids(),
            expected_height: tree.height(),
            restart,
            history_blocks: sizes.probe_history_blocks,
            append_budget,
            digest,
        }
    }

    /// Ingest phase, one read, the output checks, then the restart phase.
    fn timed_body(
        &self,
        replica: ConcurrentBlockTree,
        offered: Vec<Vec<Block>>,
        image: SimMedium,
        tail: Vec<Vec<Block>>,
        trace: &mut SpanBuf,
    ) -> Rep {
        let mut reports = Vec::with_capacity(offered.len());
        let mut batch_ns = Vec::with_capacity(offered.len());

        let phase = Instant::now();
        for blocks in offered {
            let span = trace.enter("concurrent.ingest_batch");
            let t0 = Instant::now();
            let report = replica.ingest_batch(0, blocks);
            batch_ns.push(t0.elapsed().as_nanos() as u64);
            trace.exit(span);
            reports.push(report);
        }
        let ingest_ns = phase.elapsed().as_nanos() as u64;
        let span = trace.enter("concurrent.read");
        let chain = replica.read();
        trace.exit(span);
        let ingest_and_read_ns = phase.elapsed().as_nanos() as u64;

        let mut check = Check::default();
        let mut accepted = 0u64;
        for (i, (batch, report)) in self.batches.iter().zip(&reports).enumerate() {
            check_verdicts(&mut check, i, batch.resent, &report.verdicts);
            accepted += report.accepted as u64;
        }
        check.require(
            chain.blocks()[0].is_genesis() && chain.height() == self.expected_height,
            || {
                format!(
                    "read has height {}, expected {}",
                    chain.height(),
                    self.expected_height
                )
            },
        );
        check_same_tree(
            &mut check,
            "ingesting replica",
            &replica.writer_tree_snapshot(),
            &self.expected_ids,
        );
        let durable = replica
            .take_durable_store()
            .expect("the store was attached when the rep was staged");
        let checkpoints = durable.stats().checkpoints;
        check.require(durable.len() as u64 == accepted, || {
            format!(
                "store holds {} blocks, {accepted} were accepted",
                durable.len()
            )
        });

        // Time without service: `crash_recover_checkpoint()` start → last
        // tail block attached.
        let (node, recover_ns) = restart_node(image, tail, trace);
        check_same_tree(
            &mut check,
            "restarted node",
            node.tree(),
            &self.restart.expected_ids,
        );
        Rep {
            wall_ns: ingest_and_read_ns + recover_ns,
            work: accepted,
            work_ns: ingest_ns,
            pools: vec![("batch", batch_ns)],
            extras: vec![
                (
                    "ingest_blocks_per_s",
                    accepted as f64 / (ingest_ns as f64 / 1e9),
                    "1/s",
                ),
                ("recover_s", recover_ns as f64 / 1e9, "s"),
            ],
            counts: vec![
                ("accepted", accepted),
                ("batches", self.batches.len() as u64),
                ("checkpoints", checkpoints),
            ],
            check,
        }
    }
}

/// Restarts a node from `image` and feeds it `tail`; returns the node and
/// the ns from the start of recovery to the last batch applied.
pub fn restart_node(
    image: SimMedium,
    tail: Vec<Vec<Block>>,
    trace: &mut SpanBuf,
) -> (GossipSync, u64) {
    let mut log = ReplicaLog::new();
    let t0 = Instant::now();
    let mut node = GossipSync::new(0).with_durable_store(BlockStore::create(image, STORE_CONFIG));
    let span = trace.enter("protocols.crash_recover_checkpoint");
    node.crash_recover_checkpoint();
    trace.exit(span);
    for batch in tail {
        let span = trace.enter("protocols.apply_batch");
        node.apply_batch(SimTime(0), batch, &mut log);
        trace.exit(span);
    }
    let recover_ns = t0.elapsed().as_nanos() as u64;
    (node, recover_ns)
}

impl Workload for Ingest {
    fn stage(&self) -> TimedBody<'_> {
        // Untimed: fresh replica, fresh store, owned copies of the batches,
        // the restarting node's disk and what its peers will send it.
        let store = BlockStore::create(SimMedium::new(), STORE_CONFIG);
        let replica = ConcurrentBlockTree::eventual(1).with_durable_store(store);
        let offered: Vec<Vec<Block>> = self.batches.iter().map(|b| b.blocks.clone()).collect();
        let image = self.restart.image.snapshot();
        let tail = self.restart.tail.clone();
        Box::new(move |trace| self.timed_body(replica, offered, image, tail, trace))
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn probe_input(&self) -> ProbeInput {
        let replayed = &self.stream[..self.stream.len().min(self.history_blocks)];
        ProbeInput {
            history: gen::replay_history(replayed, 8, 16),
            blocks: self.stream.clone(),
            path: AppendPath::Eventual,
            restart_blocks: self.restart.expected_ids.len() - 1,
            append_budget: self.append_budget,
            net: None,
        }
    }

    fn predicted_ns_per_work(
        &self,
        m: &BTreeMap<&'static str, f64>,
        counts: &BTreeMap<&'static str, u64>,
    ) -> f64 {
        let checkpoints = counts["checkpoints"] as f64 / counts["accepted"] as f64;
        m["pipeline.stage_ns_per_block"]
            + m["types.insert_batch_ns_per_block"]
            + m["concurrent.snapshot_push_ns_per_block"]
            + m["store.append_ns_per_block"]
            + m["store.checkpoint_ns"] * checkpoints
    }
}
