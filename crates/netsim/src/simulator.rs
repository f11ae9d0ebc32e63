//! The discrete-event simulator.
//!
//! The simulator owns the processes, a single seeded RNG, the channel model
//! and the event queue.  It activates processes (start, message delivery,
//! timer expiry), applies the actions they request, and records the network
//! trace.  Failures are injected through a [`FailurePlan`]:
//!
//! * **crashes** — a crashed process receives no further activations and its
//!   pending messages are discarded (crash-stop);
//! * **Byzantine omission/equivocation** — messages sent by a Byzantine
//!   process are delivered to an arbitrary subset of destinations (each
//!   destination independently omitted with probability ½), which is the
//!   adversarial behaviour the committee-quorum protocol models need to
//!   tolerate.  Richer Byzantine behaviours (content forgery) are modelled
//!   at the protocol layer where the message structure is known.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use btadt_types::rng::ChaCha8;

use crate::channel::{ChannelModel, Fate};
use crate::process::{Context, Destination, Process};
use crate::time::SimTime;
use crate::trace::{NetTrace, TraceEvent, TraceEventKind};

/// Static configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed of the run (drives channel delays and Byzantine omissions).
    pub seed: u64,
    /// Channel model.
    pub channel: ChannelModel,
    /// Hard bound on simulated time; events scheduled later are not
    /// processed.
    pub max_time: u64,
    /// Hard bound on the number of processed events (runaway protection).
    pub max_events: u64,
}

impl SimConfig {
    /// A synchronous configuration with the given bound δ.
    pub fn synchronous(seed: u64, delta: u64, max_time: u64) -> Self {
        SimConfig {
            seed,
            channel: ChannelModel::synchronous(delta),
            max_time,
            max_events: 2_000_000,
        }
    }
}

/// A timed network partition: messages crossing the `group_a` / rest split
/// are dropped while `from ≤ now < until`, after which the partition heals.
///
/// A plan may schedule several windows (partition, heal, re-partition) —
/// the adversarial schedules the scenario engine fans out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Members of the first group (everyone else is in the second).
    pub group_a: Vec<usize>,
    /// Start of the partition (inclusive).
    pub from: u64,
    /// End of the partition (exclusive): the heal time.
    pub until: u64,
}

impl PartitionWindow {
    /// Whether a message sent at `now` from `from` to `to` is cut by this
    /// window.
    pub fn cuts(&self, now: SimTime, from: usize, to: usize) -> bool {
        now.0 >= self.from
            && now.0 < self.until
            && (self.group_a.contains(&from) != self.group_a.contains(&to))
    }
}

/// A node-churn window: the process goes offline at `down_at` and rejoins
/// at `up_at`.
///
/// While down the process receives no activations, its pending deliveries
/// and timers are discarded, and it sends nothing.  At `up_at` the simulator
/// calls [`Process::on_rejoin`], whose default implementation restarts the
/// process via [`Process::on_start`] so it can re-arm its timers and (for
/// gossip protocols) catch up on the blocks it missed via delta sync.  A
/// window with `down_at = 0` models a late joiner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnWindow {
    /// The churned process.
    pub process: usize,
    /// When the process goes offline (inclusive).
    pub down_at: u64,
    /// When the process rejoins (exclusive end of the down window).
    pub up_at: u64,
}

impl ChurnWindow {
    /// Whether the process is down at `at` under this window.
    pub fn covers(&self, process: usize, at: SimTime) -> bool {
        process == self.process && at.0 >= self.down_at && at.0 < self.up_at
    }
}

/// Failure injection plan.
///
/// Combines permanent failures (crash-stop, Byzantine omission) with the
/// timed adversarial schedule — partition windows that heal and node churn —
/// used by the scenario engine ([`crate::scenario`]).
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    /// `(process, time)` pairs: the process crashes at the given time.
    pub crashes: Vec<(usize, u64)>,
    /// Processes exhibiting Byzantine omission/equivocation.
    pub byzantine: Vec<usize>,
    /// Timed partitions (each heals on schedule).
    pub partitions: Vec<PartitionWindow>,
    /// Node churn: temporary offline windows with automatic rejoin.
    pub churn: Vec<ChurnWindow>,
}

impl FailurePlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// A plan crashing the given processes at the given times.
    pub fn crashing(crashes: Vec<(usize, u64)>) -> Self {
        FailurePlan {
            crashes,
            ..FailurePlan::default()
        }
    }

    /// A plan marking the given processes Byzantine.
    pub fn byzantine(byzantine: Vec<usize>) -> Self {
        FailurePlan {
            byzantine,
            ..FailurePlan::default()
        }
    }

    /// Adds a partition window: `group_a` is split from the rest during
    /// `[from, until)`.
    pub fn with_partition(mut self, group_a: Vec<usize>, from: u64, until: u64) -> Self {
        self.partitions.push(PartitionWindow {
            group_a,
            from,
            until,
        });
        self
    }

    /// Adds a churn window: `process` is down during `[down_at, up_at)`.
    pub fn with_churn(mut self, process: usize, down_at: u64, up_at: u64) -> Self {
        self.churn.push(ChurnWindow {
            process,
            down_at,
            up_at,
        });
        self
    }

    /// Whether a message sent at `now` crosses an active partition window.
    pub fn partition_cuts(&self, now: SimTime, from: usize, to: usize) -> bool {
        self.partitions.iter().any(|w| w.cuts(now, from, to))
    }

    /// Whether `process` is inside one of its churn down-windows at `at`.
    pub fn churned_down(&self, process: usize, at: SimTime) -> bool {
        self.churn.iter().any(|w| w.covers(process, at))
    }
}

/// Summary statistics of a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Simulated time at which the run stopped.
    pub final_time: SimTime,
    /// Number of events processed.
    pub events_processed: u64,
    /// Whether the run stopped because the event queue drained (as opposed
    /// to hitting the time or event bound).
    pub quiescent: bool,
}

#[derive(Debug)]
enum QueuedEvent<M> {
    Deliver {
        to: usize,
        from: usize,
        message_id: u64,
        /// Broadcast fan-out shares one allocation across all destinations;
        /// the payload is only deep-cloned at delivery time, and not at all
        /// for the last (or only) receiver.
        msg: Arc<M>,
        /// The *recipient's* incarnation when the message was sent.  A
        /// rejoin bumps the incarnation, so a message addressed to a process
        /// that has since churned and come back is stale — it was "pending
        /// while the process was down" and must be discarded, even if its
        /// delivery time lands after the rejoin.
        incarnation: u64,
    },
    DeliverCorrupted {
        to: usize,
        from: usize,
        message_id: u64,
        /// Same staleness stamp as [`QueuedEvent::Deliver`].
        incarnation: u64,
    },
    Timer {
        process: usize,
        timer_id: u64,
        /// The process's incarnation when the timer was armed; a rejoin
        /// bumps the incarnation, invalidating every timer armed before
        /// the churn window (they "were discarded while the process was
        /// down", even if their expiry lands after the rejoin).
        incarnation: u64,
    },
    Rejoin {
        process: usize,
    },
}

/// The simulator.
pub struct Simulator<M, P> {
    processes: Vec<P>,
    config: SimConfig,
    failures: FailurePlan,
    rng: ChaCha8,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<QueuedEvent<M>>>,
    clock: SimTime,
    next_seq: u64,
    next_message_id: u64,
    crashed: Vec<bool>,
    halted: Vec<bool>,
    /// Per-process rejoin count; timers from older incarnations are stale.
    incarnation: Vec<u64>,
    trace: NetTrace,
}

impl<M: Clone, P: Process<M>> Simulator<M, P> {
    /// Creates a simulator over the given processes.
    pub fn new(processes: Vec<P>, config: SimConfig, failures: FailurePlan) -> Self {
        let n = processes.len();
        assert!(n > 0, "a simulation needs at least one process");
        Simulator {
            rng: ChaCha8::new(config.seed),
            processes,
            config,
            failures,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            clock: SimTime::ZERO,
            next_seq: 0,
            next_message_id: 0,
            crashed: vec![false; n],
            halted: vec![false; n],
            incarnation: vec![0; n],
            trace: NetTrace::new(),
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Returns `true` iff there are no processes (never true).
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Immutable access to a process (e.g. to inspect its state after the
    /// run).
    pub fn process(&self, i: usize) -> &P {
        &self.processes[i]
    }

    /// The network trace recorded so far.
    pub fn trace(&self) -> &NetTrace {
        &self.trace
    }

    /// Consumes the simulator, returning the processes and the trace.
    pub fn into_parts(self) -> (Vec<P>, NetTrace) {
        (self.processes, self.trace)
    }

    fn crash_time(&self, p: usize) -> Option<SimTime> {
        self.failures
            .crashes
            .iter()
            .find(|(proc, _)| *proc == p)
            .map(|(_, t)| SimTime(*t))
    }

    fn is_down(&self, p: usize, at: SimTime) -> bool {
        self.crashed[p]
            || self.halted[p]
            || self.crash_time(p).map(|t| at >= t).unwrap_or(false)
            || self.failures.churned_down(p, at)
    }

    fn push(&mut self, at: SimTime, event: QueuedEvent<M>) {
        let idx = self.payloads.len();
        self.payloads.push(Some(event));
        self.queue.push(Reverse((at, self.next_seq, idx)));
        self.next_seq += 1;
    }

    fn apply_actions(&mut self, from: usize, actions: crate::process::Actions<M>) {
        if actions.halt {
            self.halted[from] = true;
        }
        let byzantine = self.failures.byzantine.contains(&from);
        for (dest, msg) in actions.outgoing {
            let targets: Vec<usize> = match dest {
                Destination::To(t) => vec![t],
                Destination::Broadcast => {
                    (0..self.processes.len()).filter(|&t| t != from).collect()
                }
            };
            let message_id = self.next_message_id;
            self.next_message_id += 1;
            // One allocation per logical message, shared by every queued
            // delivery — broadcasts no longer deep-clone the payload per
            // destination.
            let payload = Arc::new(msg);
            for to in targets {
                if to >= self.processes.len() {
                    continue;
                }
                self.trace.record(TraceEvent {
                    at: self.clock,
                    from,
                    to,
                    message_id,
                    kind: TraceEventKind::Sent,
                });
                // An active partition window cuts the message before the
                // channel model even sees it (and before it consumes any
                // randomness, so healing windows do not perturb the delay
                // stream of unrelated runs).
                if self.failures.partition_cuts(self.clock, from, to) {
                    self.trace.record(TraceEvent {
                        at: self.clock,
                        from,
                        to,
                        message_id,
                        kind: TraceEventKind::Dropped,
                    });
                    continue;
                }
                // Byzantine omission: each destination independently starved.
                if byzantine && self.rng.gen_bool(0.5) {
                    self.trace.record(TraceEvent {
                        at: self.clock,
                        from,
                        to,
                        message_id,
                        kind: TraceEventKind::Dropped,
                    });
                    continue;
                }
                // `fates` generalizes `delivery`: a faulty channel can
                // duplicate, reorder or corrupt the message in flight.
                let fates = self.config.channel.fates(self.clock, &mut self.rng);
                for fate in fates {
                    match fate {
                        Fate::Drop => {
                            self.trace.record(TraceEvent {
                                at: self.clock,
                                from,
                                to,
                                message_id,
                                kind: TraceEventKind::Dropped,
                            });
                        }
                        Fate::Deliver(at) => {
                            self.push(
                                at,
                                QueuedEvent::Deliver {
                                    to,
                                    from,
                                    message_id,
                                    msg: Arc::clone(&payload),
                                    incarnation: self.incarnation[to],
                                },
                            );
                        }
                        Fate::DeliverCorrupted(at) => {
                            self.push(
                                at,
                                QueuedEvent::DeliverCorrupted {
                                    to,
                                    from,
                                    message_id,
                                    incarnation: self.incarnation[to],
                                },
                            );
                        }
                    }
                }
            }
        }
        for (delay, timer_id) in actions.timers {
            self.push(
                self.clock + delay,
                QueuedEvent::Timer {
                    process: from,
                    timer_id,
                    incarnation: self.incarnation[from],
                },
            );
        }
    }

    fn activate(&mut self, p: usize, f: impl FnOnce(&mut P, &mut Context<M>)) {
        let mut ctx = Context::new(p, self.processes.len(), self.clock);
        f(&mut self.processes[p], &mut ctx);
        self.apply_actions(p, ctx.into_actions());
    }

    /// Runs the simulation to quiescence or until the time/event bound is
    /// reached, and returns a report.
    pub fn run(&mut self) -> SimReport {
        // Schedule a rejoin activation at the end of every churn window.
        for w in self.failures.churn.clone() {
            if w.process < self.processes.len() && w.up_at > w.down_at {
                self.push(SimTime(w.up_at), QueuedEvent::Rejoin { process: w.process });
            }
        }

        // Start every process at time zero (churned-out processes — late
        // joiners — start when their rejoin fires instead).
        for p in 0..self.processes.len() {
            if !self.is_down(p, SimTime::ZERO) {
                self.activate(p, |proc, ctx| proc.on_start(ctx));
            }
        }

        let mut processed = 0u64;
        let mut quiescent = true;
        while let Some(Reverse((at, _, idx))) = self.queue.pop() {
            if at.0 > self.config.max_time || processed >= self.config.max_events {
                quiescent = false;
                break;
            }
            self.clock = at;
            processed += 1;
            let event = self.payloads[idx].take().expect("payload consumed once");
            match event {
                QueuedEvent::Deliver {
                    to,
                    from,
                    message_id,
                    msg,
                    incarnation,
                } => {
                    if self.is_down(to, at) || incarnation != self.incarnation[to] {
                        // Down, or sent to an incarnation that has since
                        // churned out: the delivery was pending while the
                        // process was down and is discarded with it.
                        if incarnation != self.incarnation[to] {
                            self.trace.record(TraceEvent {
                                at,
                                from,
                                to,
                                message_id,
                                kind: TraceEventKind::Dropped,
                            });
                        }
                        continue;
                    }
                    self.trace.record(TraceEvent {
                        at,
                        from,
                        to,
                        message_id,
                        kind: TraceEventKind::Delivered,
                    });
                    // The last receiver takes ownership without copying.
                    let msg = Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone());
                    self.activate(to, |proc, ctx| proc.on_message(ctx, from, msg));
                }
                QueuedEvent::DeliverCorrupted {
                    to,
                    from,
                    message_id,
                    incarnation,
                } => {
                    if self.is_down(to, at) || incarnation != self.incarnation[to] {
                        continue;
                    }
                    self.trace.record(TraceEvent {
                        at,
                        from,
                        to,
                        message_id,
                        kind: TraceEventKind::Corrupted,
                    });
                    self.activate(to, |proc, ctx| proc.on_corrupted(ctx, from));
                }
                QueuedEvent::Timer {
                    process,
                    timer_id,
                    incarnation,
                } => {
                    if self.is_down(process, at) || incarnation != self.incarnation[process] {
                        // Down, or armed before a churn window the process
                        // has since rejoined from: the timer is stale even
                        // if its expiry lands after the rejoin.
                        continue;
                    }
                    self.activate(process, |proc, ctx| proc.on_timer(ctx, timer_id));
                }
                QueuedEvent::Rejoin { process } => {
                    if self.is_down(process, at) {
                        // Crashed/halted (or still inside a later churn
                        // window) — the rejoin is moot.
                        continue;
                    }
                    // A new incarnation: every timer armed before the churn
                    // window dies with the old one.
                    self.incarnation[process] += 1;
                    self.activate(process, |proc, ctx| proc.on_rejoin(ctx));
                }
            }
        }

        // Mark crash flags that became effective during the run so that
        // post-run inspection can tell who was down.
        for p in 0..self.processes.len() {
            if self.crash_time(p).map(|t| self.clock >= t).unwrap_or(false) {
                self.crashed[p] = true;
            }
        }

        SimReport {
            final_time: self.clock,
            events_processed: processed,
            quiescent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that floods a counter value: on start it broadcasts 0, and
    /// whenever it receives a value greater than its own it adopts and
    /// re-broadcasts it.  Process 0 additionally bumps the value on a timer.
    struct Flooder {
        value: u64,
        bumps_left: u64,
        received: u64,
    }

    impl Flooder {
        fn new(bumps: u64) -> Self {
            Flooder {
                value: 0,
                bumps_left: bumps,
                received: 0,
            }
        }
    }

    impl Process<u64> for Flooder {
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            if ctx.id() == 0 {
                ctx.set_timer(5, 1);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<u64>, _from: usize, msg: u64) {
            self.received += 1;
            if msg > self.value {
                self.value = msg;
                ctx.broadcast(msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<u64>, _timer_id: u64) {
            if self.bumps_left == 0 {
                ctx.halt();
                return;
            }
            self.bumps_left -= 1;
            self.value += 1;
            ctx.broadcast(self.value);
            ctx.set_timer(5, 1);
        }
    }

    fn flooders(n: usize, bumps: u64) -> Vec<Flooder> {
        (0..n).map(|_| Flooder::new(bumps)).collect()
    }

    #[test]
    fn synchronous_flood_reaches_every_process() {
        let config = SimConfig::synchronous(1, 3, 10_000);
        let mut sim = Simulator::new(flooders(5, 3), config, FailurePlan::none());
        let report = sim.run();
        assert!(report.quiescent);
        assert!(report.events_processed > 0);
        for p in 0..5 {
            assert_eq!(sim.process(p).value, 3, "process {p} converged");
        }
        assert_eq!(sim.trace().dropped(), 0);
        // Messages addressed to process 0 after it halted are neither
        // delivered nor dropped, so the ratio is high but not exactly 1.
        assert!(sim.trace().delivery_ratio() > 0.8);
    }

    #[test]
    fn runs_are_deterministic_given_the_seed() {
        let run = |seed: u64| {
            let config = SimConfig::synchronous(seed, 4, 10_000);
            let mut sim = Simulator::new(flooders(4, 2), config, FailurePlan::none());
            let report = sim.run();
            (report.events_processed, sim.trace().len())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn crashed_process_stops_participating() {
        let config = SimConfig::synchronous(2, 3, 10_000);
        let mut sim = Simulator::new(
            flooders(4, 3),
            config,
            FailurePlan::crashing(vec![(3, 1)]), // process 3 crashes immediately
        );
        sim.run();
        assert_eq!(
            sim.process(3).received,
            0,
            "crashed process received nothing"
        );
        for p in 0..3 {
            assert_eq!(sim.process(p).value, 3);
        }
    }

    #[test]
    fn lossy_channel_records_drops() {
        let config = SimConfig {
            seed: 3,
            channel: ChannelModel::lossy(ChannelModel::synchronous(3), 0.4),
            max_time: 10_000,
            max_events: 100_000,
        };
        let mut sim = Simulator::new(flooders(5, 4), config, FailurePlan::none());
        sim.run();
        assert!(sim.trace().dropped() > 0);
        assert!(sim.trace().delivery_ratio() < 1.0);
    }

    #[test]
    fn byzantine_process_omits_some_messages() {
        let config = SimConfig::synchronous(4, 3, 10_000);
        let mut sim = Simulator::new(
            flooders(4, 6),
            config,
            FailurePlan::byzantine(vec![0]), // the bumping process equivocates
        );
        sim.run();
        assert!(
            sim.trace().dropped() > 0,
            "Byzantine omissions must appear in the trace"
        );
    }

    #[test]
    fn max_time_bound_stops_the_run() {
        let config = SimConfig {
            seed: 5,
            channel: ChannelModel::synchronous(2),
            max_time: 8, // only one or two bump rounds fit
            max_events: 1_000_000,
        };
        let mut sim = Simulator::new(flooders(3, 1_000_000), config, FailurePlan::none());
        let report = sim.run();
        assert!(!report.quiescent);
        assert!(report.final_time.0 <= 8);
    }

    #[test]
    fn partitioned_groups_do_not_converge_before_heal() {
        let config = SimConfig {
            seed: 6,
            channel: ChannelModel::synchronous(2),
            max_time: 60,
            max_events: 100_000,
        };
        let plan = FailurePlan::none().with_partition(vec![0, 1], 0, 1_000);
        let mut sim = Simulator::new(flooders(4, 3), config, plan);
        sim.run();
        // Processes 2 and 3 are on the other side of the partition and never
        // hear the bumps originating at process 0.
        assert_eq!(sim.process(0).value, 3);
        assert_eq!(sim.process(1).value, 3);
        assert_eq!(sim.process(2).value, 0);
        assert_eq!(sim.process(3).value, 0);
    }

    #[test]
    fn failure_plan_partition_heals_on_schedule() {
        // Processes {0, 1} are cut off from {2, 3} for the first 40 ticks.
        // Process 0 keeps bumping well past the heal, so once the window
        // closes the other side catches up on the next flood.
        let config = SimConfig::synchronous(8, 2, 10_000);
        let plan = FailurePlan::none().with_partition(vec![0, 1], 0, 40);
        let mut sim = Simulator::new(flooders(4, 20), config, plan);
        let report = sim.run();
        assert!(report.quiescent);
        assert!(
            sim.trace().dropped() > 0,
            "the partition must cut cross-group messages"
        );
        for p in 0..4 {
            assert_eq!(sim.process(p).value, 20, "process {p} converged after heal");
        }
    }

    #[test]
    fn partition_window_only_cuts_cross_group_messages_inside_the_window() {
        let w = PartitionWindow {
            group_a: vec![0, 1],
            from: 10,
            until: 20,
        };
        assert!(w.cuts(SimTime(10), 0, 2));
        assert!(w.cuts(SimTime(19), 3, 1));
        assert!(!w.cuts(SimTime(9), 0, 2), "not yet active");
        assert!(!w.cuts(SimTime(20), 0, 2), "healed");
        assert!(!w.cuts(SimTime(15), 0, 1), "same group");
        assert!(!w.cuts(SimTime(15), 2, 3), "same group");
    }

    #[test]
    fn churned_process_misses_the_window_but_rejoins() {
        // Process 3 is down during [10, 50); process 0 bumps until ~t=105,
        // so after rejoining process 3 adopts the next flooded value.
        let config = SimConfig::synchronous(9, 2, 10_000);
        let plan = FailurePlan::none().with_churn(3, 10, 50);
        let mut sim = Simulator::new(flooders(4, 20), config, plan);
        let report = sim.run();
        assert!(report.quiescent);
        for p in 0..4 {
            assert_eq!(sim.process(p).value, 20, "process {p} converged");
        }
        // Down processes receive strictly fewer messages than their peers.
        assert!(sim.process(3).received < sim.process(1).received);
    }

    #[test]
    fn late_joiner_starts_at_its_rejoin_time() {
        // A churn window starting at 0 models a late joiner: the process is
        // only started (via on_rejoin -> on_start) when the window closes.
        let config = SimConfig::synchronous(11, 2, 10_000);
        let plan = FailurePlan::none().with_churn(2, 0, 30);
        let mut sim = Simulator::new(flooders(3, 12), config, plan);
        sim.run();
        assert_eq!(sim.process(2).value, 12, "late joiner caught up");
    }

    #[test]
    fn timers_armed_before_a_churn_window_do_not_survive_the_rejoin() {
        /// Re-arms an 8-tick timer forever and counts the fires.
        struct Ticker {
            fires: u64,
        }
        impl Process<u64> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.set_timer(8, 1);
            }
            fn on_message(&mut self, _: &mut Context<u64>, _: usize, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Context<u64>, _: u64) {
                self.fires += 1;
                ctx.set_timer(8, 1);
            }
        }
        // The timer armed at t=8 expires at t=16 — *after* the [10, 15)
        // window — but must still die with the old incarnation; otherwise
        // the rejoin's fresh chain would run alongside it, doubling the
        // tick rate for the rest of the run.
        let config = SimConfig {
            seed: 1,
            channel: ChannelModel::synchronous(1),
            max_time: 100,
            max_events: 10_000,
        };
        let plan = FailurePlan::none().with_churn(0, 10, 15);
        let mut sim = Simulator::new(vec![Ticker { fires: 0 }], config, plan);
        sim.run();
        // One chain: a fire at t=8, then from the rejoin at 15 every 8
        // ticks until 100 → 1 + ⌊(100 − 15) / 8⌋ = 11 fires.  A surviving
        // stale chain would roughly double that.
        assert_eq!(sim.process(0).fires, 11);
    }

    #[test]
    fn deliveries_pending_across_a_churn_window_are_discarded() {
        /// Process 0 sends `1` to process 1 at t=5 and `2` at t=55; every
        /// process records what it receives.
        struct OneShotSender {
            sent: Vec<u64>,
            received: Vec<u64>,
        }
        impl Process<u64> for OneShotSender {
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                if ctx.id() == 0 {
                    ctx.set_timer(5, 1);
                    ctx.set_timer(55, 2);
                }
            }
            fn on_message(&mut self, _: &mut Context<u64>, _: usize, msg: u64) {
                self.received.push(msg);
            }
            fn on_timer(&mut self, ctx: &mut Context<u64>, timer_id: u64) {
                self.sent.push(timer_id);
                ctx.send(1, timer_id);
            }
        }
        // Fixed 60-tick delay: the t=5 message lands at t=65, *after*
        // process 1's churn window [10, 50) — it was pending while the
        // process was down and must die with the old incarnation.  The
        // t=55 message lands at t=115 within the new incarnation.
        let config = SimConfig {
            seed: 3,
            channel: ChannelModel::Synchronous {
                min_delay: 60,
                delta: 60,
            },
            max_time: 1_000,
            max_events: 10_000,
        };
        let plan = FailurePlan::none().with_churn(1, 10, 50);
        let procs = vec![
            OneShotSender {
                sent: vec![],
                received: vec![],
            },
            OneShotSender {
                sent: vec![],
                received: vec![],
            },
        ];
        let mut sim = Simulator::new(procs, config, plan);
        sim.run();
        assert_eq!(
            sim.trace().dropped(),
            1,
            "the stale delivery is traced as a drop"
        );
        assert_eq!(
            sim.process(1).received,
            vec![2],
            "only the post-rejoin message reaches the new incarnation"
        );
    }

    #[test]
    fn crash_during_a_partition_window_discards_pre_crash_deliveries_on_rejoin() {
        // Regression for the crash-during-partition double-delivery: a
        // message sent to process 1 *before* it churns down (and before a
        // partition isolates the sender) has a delivery time after the
        // rejoin.  Without the incarnation stamp on deliveries it reached
        // the rejoined process — contradicting crash semantics (the message
        // was pending while the process was down).
        let config = SimConfig {
            seed: 7,
            channel: ChannelModel::Synchronous {
                min_delay: 60,
                delta: 60,
            },
            max_time: 2_000,
            max_events: 10_000,
        };
        // Partition isolates {0} during [20, 40); process 1 is down during
        // [10, 50), i.e. the crash window sits inside an active partition.
        let plan = FailurePlan::none()
            .with_partition(vec![0], 20, 40)
            .with_churn(1, 10, 50);
        let mut sim = Simulator::new(flooders(2, 1), config, plan);
        sim.run();
        // Flooder 0 broadcasts its bump at t=5 (armed on start); the copy
        // to process 1 lands at t=65 > up_at and must be discarded, so the
        // rejoined process 1 never adopts the value first-hand from it.
        assert!(
            sim.trace().dropped() > 0,
            "pre-crash deliveries must be discarded at the rejoin boundary"
        );
    }

    #[test]
    fn corrupted_messages_are_traced_and_do_not_reach_on_message() {
        let config = SimConfig {
            seed: 11,
            channel: ChannelModel::faulty(ChannelModel::synchronous(2), 0.0, 0.0, 1, 1.0),
            max_time: 10_000,
            max_events: 100_000,
        };
        let mut sim = Simulator::new(flooders(3, 2), config, FailurePlan::none());
        sim.run();
        assert!(sim.trace().corrupted() > 0, "corruption must be traced");
        assert_eq!(sim.trace().delivered(), 0, "every payload was corrupted");
        for p in 1..3 {
            assert_eq!(
                sim.process(p).received,
                0,
                "corrupted payloads never reach on_message"
            );
        }
    }

    #[test]
    fn duplicating_channel_delivers_extra_copies_deterministically() {
        let run = |_: ()| {
            let config = SimConfig {
                seed: 13,
                channel: ChannelModel::faulty(ChannelModel::synchronous(2), 0.5, 0.0, 1, 0.0),
                max_time: 10_000,
                max_events: 100_000,
            };
            let mut sim = Simulator::new(flooders(3, 3), config, FailurePlan::none());
            sim.run();
            (
                sim.trace().sent(),
                sim.trace().delivered(),
                sim.process(1).received,
            )
        };
        let (sent, delivered, received) = run(());
        assert!(
            delivered > sent,
            "duplicates mean more deliveries ({delivered}) than sends ({sent})"
        );
        assert!(received > 0);
        assert_eq!(run(()), (sent, delivered, received), "deterministic");
    }

    #[test]
    fn extended_failure_plans_stay_deterministic() {
        let run = |_: ()| {
            let config = SimConfig::synchronous(13, 3, 10_000);
            let plan = FailurePlan::none()
                .with_partition(vec![0], 5, 25)
                .with_churn(2, 12, 40);
            let mut sim = Simulator::new(flooders(4, 10), config, plan);
            let report = sim.run();
            (
                report.events_processed,
                report.final_time,
                sim.trace().len(),
            )
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn into_parts_returns_processes_and_trace() {
        let config = SimConfig::synchronous(7, 2, 1_000);
        let mut sim = Simulator::new(flooders(2, 1), config, FailurePlan::none());
        sim.run();
        let (procs, trace) = sim.into_parts();
        assert_eq!(procs.len(), 2);
        assert!(trace.sent() > 0);
    }
}
