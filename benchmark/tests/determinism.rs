//! Same seed → same inputs and same exact counts; another seed → other
//! inputs.

use btadt_benchmark::metrics::PER_LAYER;
use btadt_benchmark::run::{run, RunOptions};
use btadt_benchmark::sizes::Sizes;
use btadt_benchmark::trace::SpanBuf;
use btadt_benchmark::workloads::{build, WORKLOADS};

#[test]
fn digests_and_counts_are_a_pure_function_of_the_seed() {
    for name in WORKLOADS {
        let a = build(name, 11, &Sizes::SMOKE).expect("known workload");
        let b = build(name, 11, &Sizes::SMOKE).expect("known workload");
        let c = build(name, 12, &Sizes::SMOKE).expect("known workload");
        assert_eq!(a.digest(), b.digest(), "{name}: same seed, same inputs");
        assert_ne!(a.digest(), c.digest(), "{name}: another seed, other inputs");
        let (ra, rb) = (a.rep(&mut SpanBuf::off()), b.rep(&mut SpanBuf::off()));
        assert_eq!(ra.counts, rb.counts, "{name}: exact counts repeat");
        assert_eq!(ra.work, rb.work, "{name}: two reps do identical work");
        assert_eq!(ra.check.failed, 0, "{name}: {:?}", ra.check.notes);
        assert!(ra.check.attempted > 0 && !ra.pools.is_empty() && !ra.pools[0].1.is_empty());
    }
}

#[test]
fn exact_per_layer_counts_repeat_across_traced_runs() {
    let traced = |seed| {
        let mut options = RunOptions::new("ingest_recover");
        options.seed = seed;
        options.trace = true;
        options.smoke = true;
        options.seconds = 0.0;
        run(&options).expect("known workload")
    };
    let (a, b) = (traced(5), traced(5));
    assert!(a.correct() && b.correct());
    for def in PER_LAYER.iter().filter(|m| m.exact) {
        assert_eq!(a.metric(def.name), b.metric(def.name), "{}", def.name);
    }
    assert_eq!(a.counts, b.counts);
    assert!(a.spans.contains_key("concurrent.ingest_batch"));
}
