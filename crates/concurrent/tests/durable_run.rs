//! Count gate for the durable arm of the ingest door (no timings): a batch
//! that links is persisted as one run, so the medium sees about one write
//! per batch — not one per block — and the same bytes either way.

use btadt_concurrent::ConcurrentBlockTree;
use btadt_store::{BlockStore, SimMedium, StoreConfig};
use btadt_types::workload::Workload;
use btadt_types::Block;

#[test]
fn batched_ingest_costs_a_twentieth_of_a_medium_write_per_block() {
    const BLOCKS: usize = 20_000;
    const BATCH: usize = 64;
    let config = StoreConfig {
        chunk_capacity: 256,
        auto_checkpoint_every: 1024,
    };
    // Generation (arena) order is parents-first; `(height, id)` order would
    // walk this tree into the reindexing cliff of ROADMAP item 1.
    let tree = Workload::new(7).random_tree(BLOCKS, 0.7, 4);
    let blocks: Vec<Block> = tree.blocks().skip(1).cloned().collect();

    let replica = ConcurrentBlockTree::eventual(1)
        .with_durable_store(BlockStore::create(SimMedium::new(), config));
    for batch in blocks.chunks(BATCH) {
        assert_eq!(
            replica.ingest_batch(0, batch.to_vec()).accepted,
            batch.len()
        );
    }
    let batched = replica.take_durable_store().expect("attached");

    let mut per_block = BlockStore::create(SimMedium::new(), config);
    for block in &blocks {
        per_block.append(block);
    }

    let (batched_io, per_block_io) = (batched.medium().stats(), per_block.medium().stats());
    assert_eq!(batched.stats().appended, BLOCKS as u64);
    assert_eq!(batched.stats().runs, BLOCKS.div_ceil(BATCH) as u64);
    assert_eq!(batched.stats().largest_run, BATCH as u64);
    assert_eq!(batched_io.bytes_written, per_block_io.bytes_written);
    assert_eq!(batched.sealed_chunks(), per_block.sealed_chunks());
    // One write per batch, one more where a batch straddles a chunk, two
    // per checkpoint: 351 for 20 000 blocks, against 20 038.
    let writes_per_block = batched_io.writes as f64 / BLOCKS as f64;
    assert!(
        writes_per_block <= 0.05,
        "{} medium writes for {BLOCKS} blocks",
        batched_io.writes
    );
    assert!(per_block_io.writes > BLOCKS as u64);
}
