//! `adt_append` and `adt_read_mostly`: closed loops of client threads on
//! one shared-memory replica — the mediated `append`/`read` of §4.1.
//!
//! Closed loop: a client issues its next operation only after the previous
//! one returned.  `C = min(nproc, 2)` clients.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use btadt_concurrent::{AppendPath, ConcurrentBlockTree};
use btadt_types::{Block, Blockchain, Transaction};

use crate::gen::{self, SplitMix64};
use crate::sizes::{Sizes, ADT_READ_APPEND_PER_MILLE, PAYLOAD_TXS};
use crate::trace::SpanBuf;
use crate::workloads::{
    client_threads, Check, ProbeInput, Rep, TimedBody, Workload, DEFAULT_APPEND_BUDGET,
    REFERENCE_CLIENTS,
};

/// Latency is sampled on one operation in this many — and on every append
/// where appends are the minority, so the primary pool stays populated.
const SAMPLE_EVERY: usize = 16;
/// Spans are recorded on one operation in this many (traced runs only).
const SPAN_EVERY: usize = 64;

/// The inputs of one closed loop.
pub struct LoopInput {
    /// Which oracle reduction mediates appends.
    pub path: AppendPath,
    /// Seed of the strong replica's oracle.
    pub oracle_seed: u64,
    /// Chain the replica holds before the clients start.
    pub prefill: Vec<Block>,
    /// Per client: `true` = append, `false` = read, in issue order.
    pub mix: Vec<Vec<bool>>,
    /// Per client: one payload per append of its mix.
    pub payloads: Vec<Vec<Vec<Transaction>>>,
}

/// What one closed loop measured.
#[derive(Clone, Debug, Default)]
pub struct LoopOutcome {
    /// First client start to last client end.
    pub client_ns: u64,
    /// The quiescent `read()` after the clients joined.
    pub final_read_ns: u64,
    /// Operations completed.
    pub ops: u64,
    /// Appends issued.
    pub appends: u64,
    /// Those that lost their CAS (`appended == false`).
    pub cas_losses: u64,
    /// Reads issued.
    pub reads: u64,
    /// Those that found the tip moved and re-materialised the chain.
    pub read_misses: u64,
    /// Sampled `prepare`→`commit` latencies, ns.
    pub append_ns: Vec<u64>,
    /// Sampled `BtReader::read` latencies, ns.
    pub read_ns: Vec<u64>,
    /// Output checks.
    pub check: Check,
}

/// A fresh replica of `path` for `clients` clients holding the `prefill`
/// chain (untimed preparation).
pub fn fresh_replica(
    path: AppendPath,
    clients: usize,
    oracle_seed: u64,
    prefill: &[Block],
) -> ConcurrentBlockTree {
    let replica = match path {
        AppendPath::Strong => ConcurrentBlockTree::strong(clients, oracle_seed),
        _ => ConcurrentBlockTree::eventual(clients),
    };
    for chunk in prefill.chunks(1024) {
        let report = replica.ingest_batch(0, chunk.to_vec());
        assert_eq!(report.accepted, chunk.len(), "prefill chain is valid");
    }
    replica
}

impl LoopInput {
    /// Generates the mix and payloads of `clients` clients from `seed`.
    pub fn generate(
        seed: u64,
        path: AppendPath,
        prefill: Vec<Block>,
        clients: usize,
        ops_per_client: usize,
        append_per_mille: u64,
    ) -> Self {
        let mut mix = Vec::with_capacity(clients);
        let mut payloads = Vec::with_capacity(clients);
        for c in 0..clients as u64 {
            let mut rng = SplitMix64::new(gen::sub_seed(seed, 0x10 + c));
            let ops: Vec<bool> = (0..ops_per_client)
                .map(|_| rng.below(1000) < append_per_mille)
                .collect();
            let appends = ops.iter().filter(|&&a| a).count();
            payloads.push(gen::payloads(
                gen::sub_seed(seed, 0x20 + c),
                appends,
                PAYLOAD_TXS,
            ));
            mix.push(ops);
        }
        LoopInput {
            path,
            oracle_seed: seed,
            prefill,
            mix,
            payloads,
        }
    }

    /// Prepares one run of the loop: a fresh pre-populated replica and
    /// owned payloads (untimed).
    pub fn stage(&self) -> StagedLoop<'_> {
        StagedLoop {
            input: self,
            replica: fresh_replica(self.path, self.mix.len(), self.oracle_seed, &self.prefill),
            payloads: self.payloads.clone(),
        }
    }

    /// Runs the closed loop on a fresh replica.
    pub fn run(&self, trace: &mut SpanBuf) -> LoopOutcome {
        self.stage().run(trace)
    }
}

/// A closed loop ready to start.
pub struct StagedLoop<'a> {
    input: &'a LoopInput,
    replica: ConcurrentBlockTree,
    payloads: Vec<Vec<Vec<Transaction>>>,
}

impl StagedLoop<'_> {
    /// Runs the clients, then one quiescent read and the output checks.
    pub fn run(self, trace: &mut SpanBuf) -> LoopOutcome {
        let StagedLoop {
            input,
            replica,
            payloads,
        } = self;
        let clients = input.mix.len();
        let barrier = Barrier::new(clients);
        let origin = Instant::now();
        let strong = input.path == AppendPath::Strong;

        let mut out = LoopOutcome::default();
        let mut spans: Vec<SpanBuf> = Vec::new();
        let (mut first_start, mut last_end) = (u64::MAX, 0u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = payloads
                .into_iter()
                .enumerate()
                .map(|(c, payloads)| {
                    let (replica, barrier, ops) = (&replica, &barrier, &input.mix[c]);
                    let mut buf = trace.fork(c as u32);
                    scope.spawn(move || {
                        barrier.wait();
                        let start = origin.elapsed().as_nanos() as u64;
                        let client = client_loop(replica, c, ops, payloads, strong, &mut buf);
                        let end = origin.elapsed().as_nanos() as u64;
                        (client, start, end, buf)
                    })
                })
                .collect();
            for (c, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((client, start, end, buf)) => {
                        first_start = first_start.min(start);
                        last_end = last_end.max(end);
                        out.absorb(client);
                        spans.push(buf);
                    }
                    // A panic inside `commit`/`read`: every operation of
                    // that client counts as failed.
                    Err(_) => {
                        let n = input.mix[c].len() as u64;
                        out.check.attempted += n;
                        out.check.fail(n, || format!("client {c} panicked"));
                    }
                }
            }
        });
        for buf in spans {
            trace.absorb(buf);
        }
        out.client_ns = last_end.saturating_sub(first_start);

        // One quiescent read: another client's view of everything appended.
        let span = trace.enter("concurrent.read");
        let t0 = Instant::now();
        let chain = replica.read();
        out.final_read_ns = t0.elapsed().as_nanos() as u64;
        trace.exit(span);
        let tree = replica.writer_tree_snapshot();
        let installed = input.prefill.len() as u64 + out.appends - out.cas_losses;
        out.check.require(tree.len() as u64 == installed + 1, || {
            format!(
                "tree holds {} blocks, expected {}",
                tree.len(),
                installed + 1
            )
        });
        out.check.require(
            chain.blocks()[0].is_genesis() && chain.height() == tree.height(),
            || {
                format!(
                    "quiescent read has height {}, the tree {}",
                    chain.height(),
                    tree.height()
                )
            },
        );
        if strong {
            out.check.require(chain.len() as u64 == installed + 1, || {
                format!(
                    "strong replica forked: chain {} of {}",
                    chain.len(),
                    installed + 1
                )
            });
        }
        out
    }
}

impl LoopOutcome {
    fn absorb(&mut self, client: LoopOutcome) {
        self.ops += client.ops;
        self.appends += client.appends;
        self.cas_losses += client.cas_losses;
        self.reads += client.reads;
        self.read_misses += client.read_misses;
        self.append_ns.extend(client.append_ns);
        self.read_ns.extend(client.read_ns);
        self.check.merge(client.check);
    }

    /// Completed operations per second of the client phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.client_ns as f64 / 1e9)
    }
}

/// A read must be rooted at genesis and, on the strong path, never
/// shorter than the same client's previous read.
pub fn check_read(
    check: &mut Check,
    client: usize,
    chain: &Blockchain,
    prev_len: usize,
    strong: bool,
) {
    let ok = chain.blocks()[0].is_genesis() && (!strong || chain.len() >= prev_len);
    check.require(ok, || {
        format!(
            "client {client} read a chain of {} rooted at {} after one of {prev_len}",
            chain.len(),
            chain.blocks()[0].id
        )
    });
}

fn client_loop(
    replica: &ConcurrentBlockTree,
    client: usize,
    ops: &[bool],
    payloads: Vec<Vec<Transaction>>,
    strong: bool,
    trace: &mut SpanBuf,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    out.append_ns.reserve(ops.len() / SAMPLE_EVERY + 1);
    out.read_ns.reserve(ops.len() / SAMPLE_EVERY + 1);
    let mut reader = replica.reader_for(client);
    let rare_appends = payloads.len() * 2 < ops.len();
    let mut payloads = payloads.into_iter();
    let mut prev_len = 0usize;
    let mut last_tip = None;
    let quiet = &mut SpanBuf::off();
    for (i, &is_append) in ops.iter().enumerate() {
        let sampled = i % SAMPLE_EVERY == 0 || (is_append && rare_appends);
        let trace = if i % SPAN_EVERY == 0 {
            &mut *trace
        } else {
            &mut *quiet
        };
        if is_append {
            let payload = payloads.next().expect("one payload per append of the mix");
            let t0 = sampled.then(Instant::now);
            let op = trace.enter("adt.append");
            let span = trace.enter("concurrent.prepare");
            let prepared = replica.prepare(client, payload);
            trace.exit(span);
            let span = trace.enter("concurrent.commit");
            let outcome = replica.commit(prepared);
            trace.exit(span);
            trace.exit(op);
            if let Some(t0) = t0 {
                out.append_ns.push(t0.elapsed().as_nanos() as u64);
            }
            out.appends += 1;
            // A CAS loss is the oracle doing its job, not a failure.
            out.cas_losses += u64::from(!outcome.appended);
            out.check.passed(1);
        } else {
            let t0 = sampled.then(Instant::now);
            let span = trace.enter("concurrent.read");
            let chain = reader.read();
            trace.exit(span);
            if let Some(t0) = t0 {
                out.read_ns.push(t0.elapsed().as_nanos() as u64);
            }
            out.reads += 1;
            let tip = chain.tip().id;
            out.read_misses += u64::from(last_tip != Some(tip));
            last_tip = Some(tip);
            check_read(&mut out.check, client, &chain, prev_len, strong);
            prev_len = chain.len();
        }
        out.ops += 1;
    }
    out
}

/// Either ADT workload.
pub struct Adt {
    input: LoopInput,
    append_per_mille: u64,
    history_blocks: usize,
    digest: u64,
}

impl Adt {
    /// `adt_append`: every operation is a mediated append on the strong
    /// (Θ_F,k=1) replica.
    pub fn append(seed: u64, sizes: &Sizes) -> Self {
        Self::new(seed, sizes, AppendPath::Strong, sizes.adt_append_ops, 1000)
    }

    /// `adt_read_mostly`: mostly memoized reads, a few Θ_P appends.
    pub fn read_mostly(seed: u64, sizes: &Sizes) -> Self {
        Self::new(
            seed,
            sizes,
            AppendPath::Eventual,
            sizes.adt_read_ops,
            ADT_READ_APPEND_PER_MILLE,
        )
    }

    fn new(seed: u64, sizes: &Sizes, path: AppendPath, ops: usize, append_per_mille: u64) -> Self {
        let prefill = gen::chain(gen::sub_seed(seed, 1), sizes.adt_prefill, PAYLOAD_TXS);
        let digest = gen::digest(&prefill);
        let input =
            LoopInput::generate(seed, path, prefill, client_threads(), ops, append_per_mille);
        // The mix is an input too: fold it into the digest.
        let mix_bits = input.mix.iter().flatten().fold(digest, |h, &a| {
            (h ^ u64::from(a)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Adt {
            input,
            append_per_mille,
            history_blocks: sizes.probe_history_blocks,
            digest: mix_bits,
        }
    }
}

impl Workload for Adt {
    fn stage(&self) -> TimedBody<'_> {
        let staged = self.input.stage();
        Box::new(move |trace| {
            let out = staged.run(trace);
            // The mediated append is the primary call of both workloads: a
            // read hit (≈ 18 ns) is below what two clock reads can resolve,
            // and its sampled median moved by 25 % with code alignment alone.
            let mut pools = vec![("append", out.append_ns), ("read", out.read_ns)];
            pools.retain(|(_, samples)| !samples.is_empty());
            Rep {
                wall_ns: out.client_ns + out.final_read_ns,
                work: out.ops,
                work_ns: out.client_ns,
                pools,
                extras: vec![(
                    "cas_loss_share",
                    out.cas_losses as f64 / out.appends.max(1) as f64,
                    "ratio",
                )],
                counts: vec![("ops", out.ops), ("appends", out.appends)],
                check: out.check,
            }
        })
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn threads(&self) -> usize {
        self.input.mix.len()
    }

    fn reference_threads(&self) -> usize {
        REFERENCE_CLIENTS
    }

    fn probe_input(&self) -> ProbeInput {
        let prefill = &self.input.prefill;
        ProbeInput {
            history: gen::replay_history(&prefill[..prefill.len().min(self.history_blocks)], 8, 16),
            blocks: self.input.prefill.clone(),
            path: self.input.path,
            // A chain re-inserts in order: no cliff to stay clear of.
            restart_blocks: prefill.len(),
            append_budget: DEFAULT_APPEND_BUDGET,
            net: None,
        }
    }

    fn predicted_ns_per_work(
        &self,
        m: &BTreeMap<&'static str, f64>,
        _counts: &BTreeMap<&'static str, u64>,
    ) -> f64 {
        let token = match self.input.path {
            AppendPath::Strong => m["oracle.frugal_token_ns"],
            _ => m["oracle.prodigal_consume_ns"],
        };
        let append = m["concurrent.prepare_ns"]
            + token
            + m["types.insert_ns_per_block"]
            + m["concurrent.snapshot_push_ns_per_block"]
            + m["types.select_tip_ns"];
        let chain_len = self.input.prefill.len() as f64;
        let miss = m["concurrent.read_miss_share"];
        let read = (1.0 - miss) * m["concurrent.read_hit_ns"]
            + miss * m["concurrent.read_miss_ns_per_block"] * chain_len;
        let share = self.append_per_mille as f64 / 1000.0;
        share * append + (1.0 - share) * read
    }
}
