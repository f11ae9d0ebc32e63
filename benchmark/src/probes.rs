//! Per-layer probes: the workload's own blocks replayed through each
//! layer's public entry points **in isolation**, timed from outside.
//!
//! A door call such as `ingest_batch` hides the layers beneath it; these
//! replays price each of them on the same inputs.  Isolated replays share
//! no cache state with the end-to-end path, which is why the sum of the
//! parts is reported (`bench.attribution_gap`) but never gated.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use btadt_concurrent::{
    AppendPath, ConcurrentBlockTree, OracleCas, RecorderHub, SnapshotConsumeToken, SnapshotStore,
};
use btadt_core::{
    eventual_consistency, eventual_consistency_reference, strong_consistency, BlockValidity,
    BtHistory, BtOperation, BtResponse, EventualPrefix, EverGrowingTree, LocalMonotonicRead,
    ReachForest, StrongPrefix,
};
use btadt_history::{ConsistencyCriterion, ProcessId};
use btadt_netsim::SimTime;
use btadt_oracle::{FrugalOracle, MeritTable, OracleConfig, SharedOracle};
use btadt_pipeline::{stage_batch, validate_isolated};
use btadt_protocols::{GossipSync, ReplicaLog};
use btadt_store::{decode_record, encode_record, BlockStore, SimMedium, StoreConfig};
use btadt_types::{
    AlwaysValid, Block, BlockBuilder, BlockTree, Blockchain, LengthScore, NaiveBlockTree,
    GENESIS_ID,
};

use crate::gen::{self, SplitMix64};
use crate::sizes::{
    Sizes, ADT_READ_APPEND_PER_MILLE, CATCHUP_BATCH, CATCHUP_WINDOW, PAYLOAD_TXS, STORE_CHUNK,
};
use crate::stats::median;
use crate::trace::SpanBuf;
use crate::workloads::adt::{fresh_replica, LoopInput};
use crate::workloads::ingest::{restart_node, store_image, STORE_CONFIG};
use crate::workloads::net::{self, CellSpec};
use crate::workloads::{client_threads, ProbeInput};

type Layer = BTreeMap<&'static str, f64>;

/// A probe is repeated up to this many times (median) …
const REPEATS: usize = 3;
/// … unless one pass already took this long.
const SLOW_PASS_NS: f64 = 0.4e9;

/// Median ns of up to [`REPEATS`] passes of `pass`, which returns the ns of
/// its own timed region (set-up inside a pass is untimed).
fn repeat(mut pass: impl FnMut() -> f64) -> f64 {
    let mut ns = Vec::with_capacity(REPEATS);
    while ns.len() < REPEATS {
        ns.push(pass());
        if ns[0] > SLOW_PASS_NS {
            break;
        }
    }
    median(&ns)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_nanos() as f64, r)
}

/// Runs every probe; the result holds every per-layer metric except the
/// two `bench.*` rows, which the runner adds.
pub fn run_all(input: &ProbeInput, sizes: &Sizes, seed: u64) -> Layer {
    let blocks = &input.blocks[..input.blocks.len().min(sizes.probe_blocks)];
    assert!(!blocks.is_empty(), "a workload has blocks to replay");
    let mut m = Layer::new();
    types(blocks, seed, &mut m);
    pipeline(blocks, &mut m);
    oracle(blocks, seed, &mut m);
    concurrent(blocks, input, sizes, seed, &mut m);
    store(blocks, &mut m);
    recovery(&blocks[..blocks.len().min(input.restart_blocks)], &mut m);
    gossip(blocks, &mut m);
    let reference = || net::cells(seed, sizes.net_duration / 4, 1).remove(0);
    network(&input.net.clone().unwrap_or_else(reference), &mut m);
    criteria(&input.history, &mut m);
    m
}

fn types(blocks: &[Block], seed: u64, m: &mut Layer) {
    let n = blocks.len() as f64;
    let mut built = BlockTree::new();
    let insert = repeat(|| {
        let owned = blocks.to_vec();
        let mut tree = BlockTree::new();
        let (ns, ()) = timed(|| {
            for b in owned {
                tree.insert(b).expect("stream is parents-first");
            }
        });
        built = tree;
        ns
    });
    let batch = repeat(|| {
        let mut tree = BlockTree::new();
        let (ns, ()) = timed(|| {
            for chunk in blocks.chunks(64) {
                black_box(tree.insert_batch(chunk));
            }
        });
        assert_eq!(tree.len(), blocks.len() + 1, "every block landed");
        ns
    });
    let naive = repeat(|| {
        let owned = blocks.to_vec();
        let mut tree = NaiveBlockTree::new();
        let (ns, ()) = timed(|| {
            for b in owned {
                tree.insert(b).expect("stream is parents-first");
            }
        });
        black_box(tree);
        ns
    });
    m.insert("types.insert_ns_per_block", insert / n);
    m.insert("types.insert_batch_ns_per_block", batch / n);
    m.insert("types.naive_insert_ns_per_block", naive / n);
    m.insert("types.insert_vs_naive", naive / insert);
    m.insert(
        "types.reindexes_per_block",
        built.reachability_reindexes() as f64 / n,
    );

    const TIP_CALLS: usize = 200_000;
    let tip_ns = repeat(|| {
        timed(|| {
            for _ in 0..TIP_CALLS {
                black_box(black_box(&built).best_leaf_by_height(true));
            }
        })
        .0
    });
    m.insert("types.select_tip_ns", tip_ns / TIP_CALLS as f64);

    let tip = built.best_leaf_by_height(true);
    let mut walked = 0usize;
    let chain_ns = repeat(|| {
        let (ns, chain) = timed(|| built.chain_to(tip).expect("the best leaf is in the tree"));
        walked = chain.len();
        ns
    });
    m.insert("types.chain_to_ns_per_block", chain_ns / walked as f64);

    const PAIRS: usize = 200_000;
    let mut rng = SplitMix64::new(gen::sub_seed(seed, 0x30));
    let pairs: Vec<_> = (0..PAIRS)
        .map(|_| {
            let a = blocks[rng.below(blocks.len() as u64) as usize].id;
            let b = blocks[rng.below(blocks.len() as u64) as usize].id;
            (a, b)
        })
        .collect();
    let anc_ns = repeat(|| {
        timed(|| {
            for &(a, b) in &pairs {
                black_box(built.is_ancestor(a, b));
            }
        })
        .0
    });
    m.insert("types.is_ancestor_ns", anc_ns / PAIRS as f64);
}

fn pipeline(blocks: &[Block], m: &mut Layer) {
    let n = blocks.len() as f64;
    const PASSES: usize = 8;
    let validate = repeat(|| {
        timed(|| {
            for _ in 0..PASSES {
                for b in blocks {
                    black_box(validate_isolated(black_box(b))).expect("generated blocks are valid");
                }
            }
        })
        .0
    });
    m.insert(
        "pipeline.validate_ns_per_block",
        validate / (n * PASSES as f64),
    );

    let stage = repeat(|| {
        let mut tree = BlockTree::new();
        let mut ns = 0.0;
        for chunk in blocks.chunks(64) {
            let owned = chunk.to_vec();
            let (dt, staged) = timed(|| stage_batch(owned, |id| tree.contains(id)));
            ns += dt;
            assert_eq!(
                staged.ready.len(),
                chunk.len(),
                "in-order chunks stage whole"
            );
            black_box(tree.insert_batch(chunk));
        }
        ns
    });
    m.insert("pipeline.stage_ns_per_block", stage / n);
}

fn oracle(blocks: &[Block], seed: u64, m: &mut Layer) {
    let parents = &blocks[..blocks.len().min(10_000)];
    let candidates = || -> Vec<Block> {
        parents
            .iter()
            .enumerate()
            .map(|(i, p)| BlockBuilder::new(p).nonce(i as u64 + 1).build())
            .collect()
    };
    let frugal = repeat(|| {
        let oracle = SharedOracle::new(FrugalOracle::new(
            1,
            MeritTable::uniform(1),
            OracleConfig {
                seed,
                probability_scale: 1e9,
                min_probability: 1.0,
            },
        ));
        let candidates = candidates();
        timed(|| {
            for (parent, candidate) in parents.iter().zip(candidates) {
                let (grant, _) = oracle.get_token_until_granted(0, parent, candidate);
                let cas = OracleCas::new(oracle.clone(), parent.id);
                black_box(cas.compare_and_swap(&grant));
            }
        })
        .0
    });
    m.insert("oracle.frugal_token_ns", frugal / parents.len() as f64);

    let clients = client_threads();
    let prodigal = repeat(|| {
        let slots: Vec<_> = parents
            .iter()
            .map(|_| SnapshotConsumeToken::new(clients))
            .collect();
        let candidates = candidates();
        timed(|| {
            for (slot, candidate) in slots.iter().zip(candidates) {
                black_box(slot.consume_token(0, candidate));
            }
        })
        .0
    });
    m.insert(
        "oracle.prodigal_consume_ns",
        prodigal / parents.len() as f64,
    );
}

fn concurrent(blocks: &[Block], input: &ProbeInput, sizes: &Sizes, seed: u64, m: &mut Layer) {
    let n = blocks.len() as f64;
    let loop_input = |clients: usize, append_per_mille: u64| {
        let ops = sizes
            .probe_loop_ops
            .min(input.append_budget * 1000 / append_per_mille as usize);
        LoopInput::generate(
            seed,
            input.path,
            blocks.to_vec(),
            clients,
            ops / clients,
            append_per_mille,
        )
    };

    // prepare / commit / read on one client.
    let appends = input.append_budget.min(2_000);
    let single = || fresh_replica(input.path, 1, seed, blocks);
    let payloads = gen::payloads(gen::sub_seed(seed, 0x31), appends, PAYLOAD_TXS);
    let (mut prepare_ns, mut commit_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let replica = single();
        let (mut p_ns, mut c_ns) = (0.0, 0.0);
        for payload in payloads.clone() {
            let (dt, prepared) = timed(|| replica.prepare(0, payload));
            p_ns += dt;
            c_ns += timed(|| replica.commit(prepared)).0;
        }
        prepare_ns.push(p_ns);
        commit_ns.push(c_ns);
    }
    m.insert(
        "concurrent.prepare_ns",
        median(&prepare_ns) / appends as f64,
    );
    m.insert("concurrent.commit_ns", median(&commit_ns) / appends as f64);

    const HITS: usize = 200_000;
    const MISSES: usize = 32;
    let replica = single();
    let mut reader = replica.reader_for(0);
    black_box(reader.read());
    let hit = repeat(|| {
        timed(|| {
            for _ in 0..HITS {
                black_box(reader.read());
            }
        })
        .0
    });
    m.insert("concurrent.read_hit_ns", hit / HITS as f64);
    let (mut miss_ns, mut walked) = (0.0, 0usize);
    for payload in payloads.iter().take(MISSES) {
        replica.append(0, payload.clone());
        let (dt, chain) = timed(|| reader.read());
        miss_ns += dt;
        walked += chain.len();
    }
    m.insert("concurrent.read_miss_ns_per_block", miss_ns / walked as f64);
    drop(reader);

    // The snapshot mirror alone.
    let mut slot_of: HashMap<_, u32> = HashMap::with_capacity(blocks.len() + 1);
    slot_of.insert(GENESIS_ID, 0);
    let parent_slots: Vec<u32> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            slot_of.insert(b.id, i as u32 + 1);
            slot_of[&b.parent.expect("non-genesis blocks have parents")]
        })
        .collect();
    let push = repeat(|| {
        let store = SnapshotStore::new();
        let owned = blocks.to_vec();
        timed(|| {
            for (b, &parent) in owned.into_iter().zip(&parent_slots) {
                let slot = store.try_push(b, Some(parent)).expect("store has room");
                store.publish(slot + 1, slot);
            }
        })
        .0
    });
    m.insert("concurrent.snapshot_push_ns_per_block", push / n);

    // The door with nothing durable behind it.
    let door = repeat(|| {
        let replica = ConcurrentBlockTree::eventual(1);
        let batches: Vec<Vec<Block>> = blocks.chunks(64).map(<[Block]>::to_vec).collect();
        let (ns, accepted) = timed(|| {
            batches
                .into_iter()
                .map(|b| replica.ingest_batch(0, b).accepted)
                .sum::<usize>()
        });
        assert_eq!(accepted, blocks.len(), "every block is accepted");
        ns
    });
    m.insert("concurrent.ingest_batch_ns_per_block", door / n);
    m.insert(
        "concurrent.door_self_ns_per_block",
        door / n
            - (m["pipeline.stage_ns_per_block"]
                + m["types.insert_batch_ns_per_block"]
                + m["concurrent.snapshot_push_ns_per_block"]),
    );

    const RECORDED: usize = 20_000;
    let recorder = repeat(|| {
        timed(|| {
            let hub = RecorderHub::new();
            let mut rec = hub.handle::<BtOperation, BtResponse>(ProcessId(0));
            for _ in 0..RECORDED {
                let idx = rec.invoke(BtOperation::Read);
                rec.respond(idx, BtResponse::Appended(true));
            }
            black_box(hub.collect(vec![rec.into_records()]));
        })
        .0
    });
    m.insert("concurrent.recorder_ns_per_op", recorder / RECORDED as f64);

    // The closed loop at 1 and at C clients, on the mix of the ADT
    // workload that runs this path.
    let append_per_mille = match input.path {
        AppendPath::Strong => 1000,
        _ => ADT_READ_APPEND_PER_MILLE,
    };
    let clients = client_threads();
    let quiet = &mut SpanBuf::off();
    let at_one = loop_input(1, append_per_mille).run(quiet);
    let at_c = loop_input(clients, append_per_mille).run(quiet);
    m.insert(
        "concurrent.scaling_1_to_c",
        at_c.ops_per_s() / at_one.ops_per_s(),
    );
    m.insert(
        "oracle.cas_loss_share",
        at_c.cas_losses as f64 / at_c.appends.max(1) as f64,
    );
    // A mix with (almost) no reads says nothing about read misses: ask a
    // read-mostly loop on the same replica kind instead.
    let reads = if append_per_mille == 1000 {
        loop_input(clients, ADT_READ_APPEND_PER_MILLE).run(quiet)
    } else {
        at_c
    };
    m.insert(
        "concurrent.read_miss_share",
        reads.read_misses as f64 / reads.reads.max(1) as f64,
    );
}

fn store(blocks: &[Block], m: &mut Layer) {
    let n = blocks.len() as f64;
    let manual = StoreConfig {
        chunk_capacity: STORE_CHUNK,
        auto_checkpoint_every: 0,
    };
    let mut checkpoint_ns = Vec::new();
    let append = repeat(|| {
        let mut store = BlockStore::create(SimMedium::new(), manual);
        let (ns, ()) = timed(|| {
            for b in blocks {
                store.append(b);
            }
        });
        checkpoint_ns.push(timed(|| store.checkpoint()).0);
        ns
    });
    m.insert("store.append_ns_per_block", append / n);
    m.insert("store.checkpoint_ns", median(&checkpoint_ns));

    let mut store = BlockStore::create(SimMedium::new(), STORE_CONFIG);
    for b in blocks {
        store.append(b);
    }
    let written = store.medium().stats();
    m.insert("store.checkpoints", store.stats().checkpoints as f64);
    m.insert("store.bytes_per_block", written.bytes_written as f64 / n);
    m.insert("store.writes_per_block", written.writes as f64 / n);

    let mut records = Vec::new();
    let encode = repeat(|| {
        let (ns, encoded) = timed(|| blocks.iter().map(encode_record).collect::<Vec<_>>());
        records = encoded;
        ns
    });
    let decode = repeat(|| {
        timed(|| {
            for r in &records {
                black_box(decode_record(r).expect("freshly encoded records decode"));
            }
        })
        .0
    });
    m.insert("store.encode_ns_per_block", encode / n);
    m.insert("store.decode_ns_per_block", decode / n);
}

/// `BlockStore::recover` alone, then through `crash_recover_checkpoint`,
/// which adds the re-insert of every survivor.
fn recovery(blocks: &[Block], m: &mut Layer) {
    let n = blocks.len() as f64;
    let image = store_image(blocks);
    let recover = repeat(|| {
        let disk = image.snapshot();
        let (ns, (_, _, survivors)) = timed(|| BlockStore::recover(disk, STORE_CONFIG));
        assert_eq!(survivors.len(), blocks.len(), "a clean image loses nothing");
        ns
    });
    let restart = repeat(|| {
        let (node, ns) = restart_node(image.snapshot(), Vec::new(), &mut SpanBuf::off());
        assert_eq!(
            node.tree().len(),
            blocks.len() + 1,
            "every survivor is re-inserted"
        );
        ns as f64
    });
    m.insert("store.recover_ns_per_block", recover / n);
    m.insert(
        "protocols.recover_reinsert_ns_per_block",
        (restart - recover).max(0.0) / n,
    );
}

fn gossip(blocks: &[Block], m: &mut Layer) {
    let n = blocks.len() as f64;
    let apply = |batches: Vec<Vec<Block>>| {
        let mut node = GossipSync::new(0);
        let mut log = ReplicaLog::new();
        let (ns, ()) = timed(|| {
            for batch in batches {
                black_box(node.apply_batch(SimTime(0), batch, &mut log));
            }
        });
        assert_eq!(node.tree().len(), blocks.len() + 1, "every block attached");
        (ns, node.stats().batch_orphaned)
    };
    let in_order = repeat(|| {
        let batches = blocks
            .chunks(CATCHUP_BATCH)
            .map(<[Block]>::to_vec)
            .collect();
        apply(batches).0
    });
    let mut orphaned = 0;
    let reversed = repeat(|| {
        let batches = gen::reversed_windows(blocks, CATCHUP_WINDOW, CATCHUP_BATCH);
        let (ns, orphans) = apply(batches);
        orphaned = orphans;
        ns
    });
    m.insert("protocols.apply_batch_ns_per_block", in_order / n);
    m.insert("protocols.apply_batch_ooo_ns_per_block", reversed / n);
    m.insert("pipeline.orphaned_share", orphaned as f64 / n);
}

fn network(spec: &CellSpec, m: &mut Layer) {
    let quiet = &mut SpanBuf::off();
    let first = net::run_cell(spec, net::stage_cell(spec), true, quiet);
    let (events, ops) = (first.events as f64, first.history_ops as f64);
    let blocks = first.blocks_created.max(1) as f64;
    m.insert("netsim.events", events);
    m.insert(
        "netsim.dropped_share",
        first.dropped as f64 / first.sent.max(1) as f64,
    );
    m.insert("protocols.msgs_per_block", first.delivered as f64 / blocks);
    m.insert(
        "protocols.sync_requests_per_block",
        first.sync_requests as f64 / blocks,
    );
    let mut passes = vec![first];
    while passes.len() < REPEATS && passes[0].wall_ns as f64 <= SLOW_PASS_NS {
        passes.push(net::run_cell(spec, net::stage_cell(spec), true, quiet));
    }
    let med =
        |f: &dyn Fn(&net::CellOutcome) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    m.insert(
        "protocols.handler_ns_per_event",
        med(&|c| c.handler_ns as f64) / events,
    );
    m.insert(
        "netsim.self_ns_per_event",
        med(&|c| c.run_ns.saturating_sub(c.handler_ns) as f64) / events,
    );
    m.insert("history.build_ns_per_op", med(&|c| c.build_ns as f64) / ops);
}

fn criteria(history: &BtHistory, m: &mut Layer) {
    let ops = history.len() as f64;
    let chains: Vec<&Blockchain> = history
        .records()
        .iter()
        .filter_map(|r| r.response.as_ref().and_then(BtResponse::chain))
        .collect();
    let forest = repeat(|| {
        let (ns, forest) = timed(|| ReachForest::from_chains(chains.iter().copied()));
        black_box(forest);
        ns
    });
    m.insert(
        "core.forest_build_ns_per_read",
        forest / chains.len().max(1) as f64,
    );

    let score = || Arc::new(LengthScore);
    let valid = || Arc::new(AlwaysValid);
    let mut check = |name: &'static str, c: &dyn ConsistencyCriterion<BtOperation, BtResponse>| {
        let ns = repeat(|| {
            let (ns, verdict) = timed(|| c.check(history));
            black_box(verdict);
            ns
        });
        m.insert(name, ns / ops);
        ns
    };
    check("core.strong_prefix_ns_per_op", &StrongPrefix::new());
    check(
        "core.eventual_prefix_ns_per_op",
        &EventualPrefix::new(score()),
    );
    check(
        "core.ever_growing_ns_per_op",
        &EverGrowingTree::new(score()),
    );
    check(
        "core.local_monotonic_ns_per_op",
        &LocalMonotonicRead::new(score()),
    );
    check(
        "core.block_validity_ns_per_op",
        &BlockValidity::new(valid()),
    );
    check(
        "core.sc_check_ns_per_op",
        &strong_consistency(score(), valid()),
    );
    let ec = check(
        "core.ec_check_ns_per_op",
        &eventual_consistency(score(), valid()),
    );
    let reference = repeat(|| {
        let c = eventual_consistency_reference(score(), valid());
        let (ns, verdict) = timed(|| c.check(history));
        black_box(verdict);
        ns
    });
    m.insert("core.ec_vs_reference", reference / ec);
}
