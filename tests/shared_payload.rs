//! One allocation per block, however many hold it.
//!
//! A block's transactions live in one shared, immutable `Payload`: the tree
//! arena, the snapshot slot, a message, a replica log and a recorded
//! history all hold the same allocation.  These tests count allocations
//! (`payload.as_ptr()`), not time, so they read the same on any host.

use std::collections::HashSet;
use std::sync::Arc;

use btadt_concurrent::ConcurrentBlockTree;
use btadt_core::ops::BtHistoryExt;
use btadt_netsim::{FailurePlan, SimConfig, SimTime, Simulator};
use btadt_protocols::{build_histories, PowConfig, PowReplica, RecoveryMode};
use btadt_types::{Block, BlockBuilder, LongestChain, Transaction};

/// Adds the allocation of every non-empty payload in `blocks` to `seen`.
fn note<'a>(seen: &mut HashSet<usize>, blocks: impl IntoIterator<Item = &'a Block>) {
    for block in blocks {
        if !block.payload.is_empty() {
            seen.insert(block.payload.as_ptr() as usize);
        }
    }
}

#[test]
fn eight_miners_hold_one_payload_allocation_per_mined_block() {
    // No churn and no durable store: nothing re-decodes a block, so every
    // copy of a block descends from the one its miner built.
    let config = PowConfig {
        selection: Arc::new(LongestChain::new()),
        success_probability: 0.05,
        mine_interval: 1,
        mine_until: 120,
        sync_interval: 8,
        seed: 3,
        recovery: RecoveryMode::Retain,
    };
    let miners: Vec<PowReplica> = (0..8).map(|i| PowReplica::new(i, config.clone())).collect();
    let mut sim = Simulator::new(
        miners,
        SimConfig::synchronous(3, 3, 400),
        FailurePlan::none(),
    );
    sim.run();
    let (mut miners, trace) = sim.into_parts();
    for m in &mut miners {
        m.force_read(SimTime(400));
    }

    let mined: usize = miners.iter().map(|m| m.log.created.len()).sum();
    let mut seen = HashSet::new();
    let mut holders = 0usize;
    for m in &miners {
        note(&mut seen, m.tree().blocks());
        note(&mut seen, m.log.created.iter().map(|(_, b)| b));
        note(&mut seen, m.log.received.iter().map(|(_, b)| b));
        note(&mut seen, m.log.applied.iter().map(|(_, b)| b));
        for (_, chain) in m.log.reads() {
            note(&mut seen, chain.blocks());
        }
        holders += m.tree().len() - 1 + m.log.received.len() + m.log.applied.len();
    }
    let logs: Vec<_> = miners.iter().map(|m| m.log.clone()).collect();
    let (history, _) = build_histories(&logs);
    note(&mut seen, history.appends().into_iter().map(|(_, b, _)| b));
    for (_, chain) in history.reads() {
        note(&mut seen, chain.blocks());
    }

    assert!(
        mined > 20 && trace.delivered() > 0,
        "the run must mine and gossip"
    );
    assert!(holders > 8 * mined, "each block has many holders");
    assert_eq!(seen.len(), mined, "one allocation per mined block");
}

#[test]
fn an_ingested_block_shares_its_payload_with_the_snapshot_and_every_read() {
    let replica = ConcurrentBlockTree::eventual(1);
    let mut parent = Block::genesis();
    let mut batch = Vec::new();
    let mut buffers = Vec::new();
    for i in 0..8u64 {
        let txs = vec![Transaction::transfer(i, 1, 2, 3); 4];
        buffers.push(txs.as_ptr());
        let block = BlockBuilder::new(&parent).nonce(i).payload(txs).build();
        batch.push(block.clone());
        parent = block;
    }
    let report = replica.ingest_batch(0, batch);
    assert_eq!(report.accepted, 8);

    let arena = replica.writer_tree_snapshot();
    let chain = replica.reader().read();
    for (height, &buffer) in (1..).zip(&buffers) {
        let in_chain = &chain.blocks()[height];
        assert_eq!(in_chain.payload.as_ptr(), buffer, "read at height {height}");
        let in_arena = arena.get(in_chain.id).expect("installed");
        assert_eq!(
            in_arena.payload.as_ptr(),
            buffer,
            "arena at height {height}"
        );
    }
    let tip = replica.tip_block();
    assert_eq!(tip.payload.as_ptr(), buffers[7], "snapshot slot");
}
