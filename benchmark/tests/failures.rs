//! Every failure rule, exercised with a seeded bad input: a failed
//! operation must be counted, never absorbed.

use btadt_benchmark::gen;
use btadt_benchmark::sizes::Sizes;
use btadt_benchmark::trace::SpanBuf;
use btadt_benchmark::workloads::adt::check_read;
use btadt_benchmark::workloads::ingest::{
    check_same_tree, check_verdicts, restart_node, store_image,
};
use btadt_benchmark::workloads::net::{cells, Net};
use btadt_benchmark::workloads::{Check, Workload};
use btadt_concurrent::ConcurrentBlockTree;
use btadt_store::chunk_file;
use btadt_types::{BlockTree, Blockchain};

#[test]
fn an_orphan_block_is_a_failed_operation() {
    let chain = gen::chain(1, 10, 1);
    let replica = ConcurrentBlockTree::eventual(1);
    // Block 5 arrives without blocks 0..5: valid, yet not accepted.
    let report = replica.ingest_batch(0, vec![chain[5].clone()]);
    let mut check = Check::default();
    check_verdicts(&mut check, 0, false, &report.verdicts);
    assert_eq!((check.attempted, check.failed), (1, 1));
    assert!(check.notes[0].contains("Orphaned"), "{:?}", check.notes);
}

#[test]
fn a_re_sent_batch_must_come_back_as_duplicates() {
    let chain = gen::chain(1, 8, 1);
    let replica = ConcurrentBlockTree::eventual(1);
    let first = replica.ingest_batch(0, chain.clone());
    let again = replica.ingest_batch(0, chain.clone());
    let mut check = Check::default();
    check_verdicts(&mut check, 0, false, &first.verdicts);
    check_verdicts(&mut check, 1, true, &again.verdicts);
    assert_eq!((check.attempted, check.failed), (16, 0));
    // The same verdicts under the wrong rule are failures both ways.
    check_verdicts(&mut check, 0, true, &first.verdicts);
    check_verdicts(&mut check, 1, false, &again.verdicts);
    assert_eq!((check.attempted, check.failed), (32, 16));
}

#[test]
fn a_truncated_store_image_fails_the_restart_check() {
    let chain = gen::chain(2, 300, 1);
    let mut expected = BlockTree::new();
    assert!(expected.insert_batch(&chain).iter().all(Result::is_ok));
    let expected_ids = expected.sorted_ids();
    let restart = |image| restart_node(image, Vec::new(), &mut SpanBuf::off()).0;

    let mut check = Check::default();
    let intact = restart(store_image(&chain));
    check_same_tree(&mut check, "intact", intact.tree(), &expected_ids);
    assert_eq!(check.failed, 0);

    // Cut the second chunk in half: its blocks and every descendant are gone.
    let mut image = store_image(&chain);
    let file = chunk_file(1);
    assert!(image.truncate(&file, image.len(&file) / 2));
    let damaged = restart(image);
    check_same_tree(&mut check, "truncated", damaged.tree(), &expected_ids);
    assert_eq!((check.attempted, check.failed), (2, 1));
    assert!(damaged.tree().len() < expected.len());
}

#[test]
fn a_read_not_rooted_at_genesis_or_shrinking_on_the_strong_path_fails() {
    let chain = Blockchain::from_blocks(
        std::iter::once(btadt_types::Block::genesis())
            .chain(gen::chain(3, 5, 0))
            .collect(),
    )
    .expect("a valid chain");
    let mut check = Check::default();
    check_read(&mut check, 0, &chain, 6, true);
    check_read(&mut check, 0, &chain, 9, false);
    assert_eq!(check.failed, 0, "eventual reads may shrink");
    check_read(&mut check, 0, &chain, 9, true);
    assert_eq!(check.failed, 1, "strong reads may not");
    let rootless = Blockchain::from_blocks_trusted({
        let mut blocks = chain.blocks()[1..].to_vec();
        blocks[0].parent = None;
        blocks
    });
    check_read(&mut check, 1, &rootless, 0, false);
    assert_eq!((check.attempted, check.failed), (4, 2));
}

#[test]
fn a_cell_that_cannot_converge_is_a_failed_operation() {
    let sizes = Sizes::SMOKE;
    let mut specs = cells(21, sizes.net_duration, 1);
    let healthy = Net::from_cells(specs.clone(), &sizes).rep(&mut SpanBuf::off());
    assert_eq!(healthy.check.failed, 0, "{:?}", healthy.check.notes);
    // A partition that outlives the run: the halves never reconcile.
    let spec = &mut specs[0];
    let forever = spec.scenario.max_time + 1;
    spec.scenario = spec
        .scenario
        .clone()
        .with_partition(vec![0, 1, 2, 3], 0, forever);
    let split = Net::from_cells(specs, &sizes).rep(&mut SpanBuf::off());
    assert!(split.check.failed >= 1);
    assert!(split
        .check
        .notes
        .iter()
        .any(|n| n.contains("did not converge")));
}
