//! `net_converge`: eight PoW miners on the simulated network — the
//! message-passing half of the paper (Table 1's PoW row).  Two cells per
//! rep: a synchronous one, and a partially synchronous one with a 4/4
//! partition and one churn window.  Each cell is simulate → forced reads →
//! history extraction → eventual-consistency verdict.
//!
//! The clock is simulated and message delays are the injected ones stated
//! on the scenario, so latency here is processor time only, and every
//! count (events, messages, blocks) repeats exactly for a given seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use btadt_concurrent::AppendPath;
use btadt_core::{eventual_consistency, BtHistory};
use btadt_history::ConsistencyCriterion;
use btadt_netsim::{Context, Latency, NetTrace, Process, Scenario, SimReport, SimTime, Simulator};
use btadt_protocols::{build_histories, build_miners, scenario_pow_config, Miner, Msg, ReplicaLog};
use btadt_types::{AlwaysValid, LengthScore};

use crate::gen;
use crate::sizes::{Sizes, NET_MINERS};
use crate::trace::SpanBuf;
use crate::workloads::{Check, ProbeInput, Rep, TimedBody, Workload, DEFAULT_APPEND_BUDGET};

/// One cell: a scenario and the seed of its channel and miners.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The network regime.
    pub scenario: Scenario,
    /// Seed of the run.
    pub seed: u64,
    /// The latency pool its wall goes to: cells of one regime share one.
    /// The synchronous cells come first and are the workload's primary
    /// call; what a healed partition costs depends too much on the seed
    /// (211–358 ms against 174–251 ms over ten seeds at 640 ticks).
    pub pool: &'static str,
}

/// Wraps a process and accumulates the time spent in its handlers, so
/// `netsim`'s own event-loop cost can be told from the protocol's.
pub struct Timed<P> {
    inner: P,
    busy_ns: u64,
}

impl<P> Timed<P> {
    fn call<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        r
    }
}

impl<P: Process<Msg>> Process<Msg> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        self.call(|p| p.on_start(ctx));
    }
    fn on_message(&mut self, ctx: &mut Context<Msg>, from: usize, msg: Msg) {
        self.call(|p| p.on_message(ctx, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<Msg>, timer_id: u64) {
        self.call(|p| p.on_timer(ctx, timer_id));
    }
    fn on_corrupted(&mut self, ctx: &mut Context<Msg>, from: usize) {
        self.call(|p| p.on_corrupted(ctx, from));
    }
    fn on_rejoin(&mut self, ctx: &mut Context<Msg>) {
        self.call(|p| p.on_rejoin(ctx));
    }
}

/// What one cell did and how long each stage took.
pub struct CellOutcome {
    /// Events the simulator processed.
    pub events: u64,
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped (partition, churn).
    pub dropped: u64,
    /// Blocks mined.
    pub blocks_created: u64,
    /// Delta-sync requests sent by all miners.
    pub sync_requests: u64,
    /// `Simulator::run`.
    pub run_ns: u64,
    /// Time inside the miners' handlers (0 unless timed).
    pub handler_ns: u64,
    /// Operations of the extracted history.
    pub history_ops: u64,
    /// `build_histories`.
    pub build_ns: u64,
    /// The eventual-consistency check.
    pub judge_ns: u64,
    /// Simulate → verdict.
    pub wall_ns: u64,
    /// Every miner selects the same tip at the end.
    pub converged: bool,
    /// The history is EC-admitted.
    pub ec_admitted: bool,
    /// The extracted history.
    pub history: BtHistory,
    /// The miners after the run.
    pub miners: Vec<Miner>,
}

fn simulate<P: Process<Msg>>(processes: Vec<P>, spec: &CellSpec) -> (SimReport, Vec<P>, NetTrace) {
    let mut sim = Simulator::new(
        processes,
        spec.scenario.sim_config(spec.seed),
        spec.scenario.failure_plan(),
    );
    let report = sim.run();
    let (processes, net) = sim.into_parts();
    (report, processes, net)
}

/// The fresh miners of one cell (untimed preparation).
pub fn stage_cell(spec: &CellSpec) -> Vec<Miner> {
    let scenario = &spec.scenario;
    let config = scenario_pow_config(spec.seed, scenario.duration);
    build_miners(scenario.nodes, scenario.adversaries, &config, 0)
}

/// Runs one cell on fresh `miners`; `timed` wraps each in [`Timed`].
pub fn run_cell(
    spec: &CellSpec,
    miners: Vec<Miner>,
    timed: bool,
    trace: &mut SpanBuf,
) -> CellOutcome {
    let scenario = &spec.scenario;
    let start = Instant::now();
    let span = trace.enter("netsim.run");
    let (report, mut miners, net, handler_ns) = if timed {
        let wrapped = miners
            .into_iter()
            .map(|inner| Timed { inner, busy_ns: 0 })
            .collect();
        let (report, wrapped, net) = simulate(wrapped, spec);
        let busy = wrapped.iter().map(|t| t.busy_ns).sum();
        let miners = wrapped.into_iter().map(|t| t.inner).collect();
        (report, miners, net, busy)
    } else {
        let (report, miners, net) = simulate(miners, spec);
        (report, miners, net, 0)
    };
    trace.exit(span);
    let run_ns = start.elapsed().as_nanos() as u64;

    for m in &mut miners {
        m.force_read(SimTime(scenario.max_time));
    }
    let logs: Vec<ReplicaLog> = miners.iter().map(|m| m.log().clone()).collect();
    let span = trace.enter("history.build_histories");
    let t0 = Instant::now();
    let (history, _messages) = build_histories(&logs);
    let build_ns = t0.elapsed().as_nanos() as u64;
    trace.exit(span);
    let span = trace.enter("core.eventual_consistency");
    let t0 = Instant::now();
    let ec_admitted =
        eventual_consistency(Arc::new(LengthScore), Arc::new(AlwaysValid)).admits(&history);
    let judge_ns = t0.elapsed().as_nanos() as u64;
    trace.exit(span);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let tips: Vec<_> = miners.iter().map(|m| m.selected().tip().id).collect();
    CellOutcome {
        events: report.events_processed,
        sent: net.sent() as u64,
        delivered: net.delivered() as u64,
        dropped: net.dropped() as u64,
        blocks_created: logs.iter().map(|l| l.created.len() as u64).sum(),
        sync_requests: miners
            .iter()
            .map(|m| match m {
                Miner::Honest(r) => r.sync_stats().requests_sent,
                Miner::Adversarial(_) => 0,
            })
            .sum(),
        run_ns,
        handler_ns,
        history_ops: history.len() as u64,
        build_ns,
        judge_ns,
        wall_ns,
        converged: report.quiescent && tips.windows(2).all(|w| w[0] == w[1]),
        ec_admitted,
        history,
        miners,
    }
}

/// The cells of a run, `pairs` times two: a synchronous one, and a partially
/// synchronous one with a half/half partition and one churn window, both
/// scaled to `duration`; every cell has a seed of its own.
pub fn cells(seed: u64, duration: u64, pairs: usize) -> Vec<CellSpec> {
    let nodes = NET_MINERS;
    let sync = Scenario::new("sync", nodes).with_duration(duration);
    let partial = Scenario::new("partial-sync", nodes)
        .with_duration(duration)
        .with_latency(Latency::PartialSync {
            gst: duration / 2,
            pre_gst_delay: 24,
            delta: 3,
        })
        .with_partition((0..nodes / 2).collect(), duration / 8, duration / 2)
        .with_churn(nodes - 1, duration / 4, duration * 3 / 8);
    (0..pairs as u64)
        .flat_map(|pair| {
            [
                CellSpec {
                    scenario: sync.clone(),
                    seed: gen::sub_seed(seed, 2 * pair + 1),
                    pool: "cell_sync",
                },
                CellSpec {
                    scenario: partial.clone(),
                    seed: gen::sub_seed(seed, 2 * pair + 2),
                    pool: "cell_partial_sync",
                },
            ]
        })
        .collect()
}

/// The workload.
pub struct Net {
    cells: Vec<CellSpec>,
    restart_blocks: usize,
    digest: u64,
}

impl Net {
    /// Builds the cells.
    pub fn new(seed: u64, sizes: &Sizes) -> Self {
        Self::from_cells(cells(seed, sizes.net_duration, sizes.net_pairs), sizes)
    }

    /// The workload over the given cells.
    pub fn from_cells(cells: Vec<CellSpec>, sizes: &Sizes) -> Self {
        // The inputs are the seeds and the schedule; the blocks are mined
        // by the program under test.
        let digest = cells.iter().fold(sizes.net_duration, |h, c| {
            h.rotate_left(17) ^ c.seed ^ c.scenario.max_time
        });
        Net {
            cells,
            restart_blocks: sizes.recover_blocks,
            digest,
        }
    }
}

impl Workload for Net {
    fn stage(&self) -> TimedBody<'_> {
        let miners: Vec<Vec<Miner>> = self.cells.iter().map(stage_cell).collect();
        Box::new(move |trace| {
            let mut check = Check::default();
            let mut pools: Vec<(&'static str, Vec<u64>)> = Vec::new();
            let (mut events, mut delivered, mut blocks, mut ops) = (0, 0, 0, 0);
            let mut wall_ns = 0;
            for (spec, miners) in self.cells.iter().zip(miners) {
                let span = trace.enter("net.cell");
                let out = run_cell(spec, miners, false, trace);
                trace.exit(span);
                let name = &spec.scenario.name;
                check.require(out.converged, || format!("cell {name} did not converge"));
                check.require(out.ec_admitted, || {
                    format!("cell {name} is not EC-admitted")
                });
                match pools.iter_mut().find(|(name, _)| *name == spec.pool) {
                    Some((_, walls)) => walls.push(out.wall_ns),
                    None => pools.push((spec.pool, vec![out.wall_ns])),
                }
                wall_ns += out.wall_ns;
                events += out.events;
                delivered += out.delivered;
                blocks += out.blocks_created;
                ops += out.history_ops;
            }
            Rep {
                wall_ns,
                work: events,
                work_ns: wall_ns,
                pools,
                extras: vec![("converge_s", wall_ns as f64 / 1e9, "s")],
                counts: vec![
                    ("events", events),
                    ("delivered", delivered),
                    ("blocks_created", blocks),
                    ("history_ops", ops),
                ],
                check,
            }
        })
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    /// Blocks and history come from a quarter-length copy of the sync cell
    /// (the reference checkers and the height-major re-insert are cubic);
    /// the netsim probes run the sync cell itself.
    fn probe_input(&self) -> ProbeInput {
        let spec = self.cells[0].clone();
        let mut short = spec.clone();
        short.scenario = short.scenario.with_duration(spec.scenario.duration / 4);
        let out = run_cell(&short, stage_cell(&short), false, &mut SpanBuf::off());
        ProbeInput {
            blocks: gen::tree_stream(out.miners[0].tree()),
            history: out.history,
            path: AppendPath::Strong,
            restart_blocks: self.restart_blocks,
            append_budget: DEFAULT_APPEND_BUDGET,
            net: Some(spec),
        }
    }

    fn predicted_ns_per_work(
        &self,
        m: &BTreeMap<&'static str, f64>,
        counts: &BTreeMap<&'static str, u64>,
    ) -> f64 {
        let ops_per_event = counts["history_ops"] as f64 / counts["events"] as f64;
        m["netsim.self_ns_per_event"]
            + m["protocols.handler_ns_per_event"]
            + (m["history.build_ns_per_op"] + m["core.ec_check_ns_per_op"]) * ops_per_event
    }
}
