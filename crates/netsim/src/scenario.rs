//! The scenario engine: declarative adversarial-network experiments.
//!
//! The consistency criteria of the paper (BT Strong / Eventual Consistency,
//! Definitions 3.2/3.4, and k-Fork Coherence, Theorem 3.2) are statements
//! about *sets* of executions, so checking them empirically means sweeping
//! many adversarial runs, not hand-picking a few.  This module provides the
//! substrate for such sweeps:
//!
//! * [`Scenario`] — a declarative description of one experiment: node
//!   count, latency distribution, message loss, a partition/heal and churn
//!   schedule ([`PartitionWindow`] / [`ChurnWindow`]), crash and Byzantine
//!   sets, and an [`AdversaryMix`] of selfish-mining and block-withholding
//!   processes riding alongside the honest ones;
//! * [`ScenarioMatrix`] — the (scenario × seed) product, fanned across
//!   worker threads.  Every cell runs on its *own* deterministic
//!   [`Simulator`](crate::simulator::Simulator) seeded from the cell's
//!   seed, so results are bit-for-bit identical whatever the worker count
//!   — parallelism changes wall-clock only, never outcomes.
//!
//! The scenario description is deliberately protocol-agnostic: it names
//! adversary *roles* as data and leaves their instantiation to the protocol
//! layer (`btadt-protocols::adversary`) and the experiment driver
//! (`btadt-bench::scenarios`), which aggregates per-cell reports into
//! `BENCH_scenarios.json`.

use btadt_types::report::run_ordered;

use crate::channel::ChannelModel;
use crate::simulator::{ChurnWindow, FailurePlan, PartitionWindow, SimConfig};

/// The latency regime of a scenario — the synchrony assumptions of
/// Section 4.2, minus the failure wrappers (loss and partitions are
/// scheduled separately on the [`Scenario`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Latency {
    /// Synchronous: delivery within `δ` ticks.
    Sync {
        /// The synchrony bound `δ`.
        delta: u64,
    },
    /// Partially synchronous: arbitrary delays up to `pre_gst_delay` before
    /// the global stabilisation time, synchronous with bound `delta` after.
    PartialSync {
        /// Global stabilisation time.
        gst: u64,
        /// Worst-case delay before GST.
        pre_gst_delay: u64,
        /// Synchrony bound after GST.
        delta: u64,
    },
    /// Asynchronous: delays uniform in `[1, max_delay]` with no bound
    /// promised to the processes.
    Async {
        /// Largest delay the simulator will generate.
        max_delay: u64,
    },
}

impl Latency {
    /// The bare timing model, without loss.
    pub fn base_channel(&self) -> ChannelModel {
        match *self {
            Latency::Sync { delta } => ChannelModel::synchronous(delta),
            Latency::PartialSync {
                gst,
                pre_gst_delay,
                delta,
            } => ChannelModel::partially_synchronous(gst, pre_gst_delay, delta),
            Latency::Async { max_delay } => ChannelModel::asynchronous(max_delay),
        }
    }
}

/// How many processes of each adversarial kind a scenario deploys.
///
/// Adversaries occupy the *highest* node indices: with `n` nodes, `s`
/// selfish miners and `w` withholding miners, nodes `0 .. n-s-w` are
/// honest, nodes `n-s-w .. n-w` mine selfishly and nodes `n-w .. n` withhold
/// blocks.  [`AdversaryMix::role_of`] encodes this convention so the
/// scenario description, the protocol layer and the reports agree on who is
/// adversarial.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdversaryMix {
    /// Number of selfish miners (private-chain withholding à la Eyal–Sirer).
    pub selfish: usize,
    /// Number of block-withholding miners (each mined block is released
    /// only after a fixed delay).
    pub withholding: usize,
}

/// The role the [`AdversaryMix`] assigns to one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryRole {
    /// An honest protocol process.
    Honest,
    /// A selfish miner: mines on a private branch and releases it only when
    /// the honest chain threatens to catch up.
    Selfish,
    /// A withholding miner: releases each mined block after a fixed delay.
    Withholding,
}

impl AdversaryMix {
    /// A mix with no adversaries.
    pub fn none() -> Self {
        AdversaryMix::default()
    }

    /// Total number of adversarial nodes.
    pub fn total(&self) -> usize {
        self.selfish + self.withholding
    }

    /// The role of `node` in a system of `nodes` processes (adversaries sit
    /// at the highest indices; see the type-level docs).
    pub fn role_of(&self, node: usize, nodes: usize) -> AdversaryRole {
        let honest = nodes.saturating_sub(self.total());
        if node < honest {
            AdversaryRole::Honest
        } else if node < honest + self.selfish {
            AdversaryRole::Selfish
        } else {
            AdversaryRole::Withholding
        }
    }
}

/// A declarative description of one adversarial network experiment.
///
/// A scenario fixes everything about a run *except* the seed; the
/// [`ScenarioMatrix`] then takes the product with a seed list.  Construct
/// with [`Scenario::new`] and refine with the builder methods.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name (used in reports and JSON output).
    pub name: String,
    /// Number of processes (honest + adversarial).
    pub nodes: usize,
    /// Latency regime.
    pub latency: Latency,
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Probability that a message is delivered twice (second copy with an
    /// independent delay).
    pub duplication: f64,
    /// Probability that a message picks up extra delay past the latency
    /// regime's bound, overtaking later sends.
    pub reordering: f64,
    /// Probability that a message arrives corrupted and is rejected by the
    /// receiver's integrity check.
    pub corruption: f64,
    /// Timed partitions (each heals on schedule).
    pub partitions: Vec<PartitionWindow>,
    /// Node churn windows (each node rejoins and re-syncs).
    pub churn: Vec<ChurnWindow>,
    /// Crash-stop failures: `(process, time)`.
    pub crashes: Vec<(usize, u64)>,
    /// Byzantine-omission processes.
    pub byzantine: Vec<usize>,
    /// Adversarial miner mix.
    pub adversaries: AdversaryMix,
    /// Length of the active phase (e.g. the mining horizon) in ticks.
    pub duration: u64,
    /// Hard bound on simulated time (leaves room for the gossip tail that
    /// reconciles replicas after the active phase).
    pub max_time: u64,
}

impl Scenario {
    /// A loss-free synchronous scenario with `nodes` honest processes and
    /// default horizons.
    pub fn new(name: impl Into<String>, nodes: usize) -> Self {
        assert!(nodes > 0, "a scenario needs at least one node");
        let duration = 40;
        Scenario {
            name: name.into(),
            nodes,
            latency: Latency::Sync { delta: 3 },
            loss: 0.0,
            duplication: 0.0,
            reordering: 0.0,
            corruption: 0.0,
            partitions: Vec::new(),
            churn: Vec::new(),
            crashes: Vec::new(),
            byzantine: Vec::new(),
            adversaries: AdversaryMix::none(),
            duration,
            max_time: duration * 10 + 240,
        }
    }

    /// Sets the latency regime.
    pub fn with_latency(mut self, latency: Latency) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the per-message loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_duplication(mut self, duplication: f64) -> Self {
        self.duplication = duplication.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message reordering probability.
    pub fn with_reordering(mut self, reordering: f64) -> Self {
        self.reordering = reordering.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-message corruption probability.
    pub fn with_corruption(mut self, corruption: f64) -> Self {
        self.corruption = corruption.clamp(0.0, 1.0);
        self
    }

    /// Schedules a partition splitting `group_a` from the rest during
    /// `[from, until)`.
    pub fn with_partition(mut self, group_a: Vec<usize>, from: u64, until: u64) -> Self {
        self.partitions.push(PartitionWindow {
            group_a,
            from,
            until,
        });
        self
    }

    /// Schedules a churn window: `process` is down during `[down_at, up_at)`
    /// and rejoins (re-syncing via the protocol's gossip) at `up_at`.
    pub fn with_churn(mut self, process: usize, down_at: u64, up_at: u64) -> Self {
        self.churn.push(ChurnWindow {
            process,
            down_at,
            up_at,
        });
        self
    }

    /// Crashes `process` at `at` (crash-stop, never rejoins).
    pub fn with_crash(mut self, process: usize, at: u64) -> Self {
        self.crashes.push((process, at));
        self
    }

    /// Marks `process` Byzantine (omission/equivocation at the network
    /// layer).
    pub fn with_byzantine(mut self, process: usize) -> Self {
        self.byzantine.push(process);
        self
    }

    /// Sets the adversarial miner mix.
    pub fn with_adversaries(mut self, adversaries: AdversaryMix) -> Self {
        assert!(
            adversaries.total() < self.nodes,
            "at least one honest node is required"
        );
        self.adversaries = adversaries;
        self
    }

    /// Sets the active-phase length and scales the simulation horizon
    /// accordingly.
    pub fn with_duration(mut self, duration: u64) -> Self {
        self.duration = duration;
        self.max_time = duration * 10 + 240;
        self
    }

    /// The channel model the scenario induces: the latency regime, wrapped
    /// with loss when `loss > 0` and with duplication / reordering /
    /// corruption when any of those knobs is non-zero.
    pub fn channel(&self) -> ChannelModel {
        let base = self.latency.base_channel();
        let base = if self.loss > 0.0 {
            ChannelModel::lossy(base, self.loss)
        } else {
            base
        };
        if self.duplication > 0.0 || self.reordering > 0.0 || self.corruption > 0.0 {
            let reorder_extra = base.delay_bound().unwrap_or(1).max(1);
            ChannelModel::faulty(
                base,
                self.duplication,
                self.reordering,
                reorder_extra,
                self.corruption,
            )
        } else {
            base
        }
    }

    /// The failure plan the scenario induces (crashes, Byzantine set,
    /// partition windows, churn).
    pub fn failure_plan(&self) -> FailurePlan {
        FailurePlan {
            crashes: self.crashes.clone(),
            byzantine: self.byzantine.clone(),
            partitions: self.partitions.clone(),
            churn: self.churn.clone(),
        }
    }

    /// The simulator configuration for one cell of the matrix.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            channel: self.channel(),
            max_time: self.max_time,
            max_events: 4_000_000,
        }
    }
}

/// One completed cell of a scenario matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell<R> {
    /// Name of the scenario the cell ran.
    pub scenario: String,
    /// Seed of the cell.
    pub seed: u64,
    /// Whatever the runner returned for the cell.
    pub result: R,
}

/// The (scenario × seed) product, ready to be fanned across threads.
///
/// Every scenario runs once per seed; the runner receives `(&Scenario,
/// seed)` and builds its own [`Simulator`](crate::simulator::Simulator), so
/// cells share no mutable state.  Results come back in matrix order
/// (scenario-major, then seed) regardless of which thread finished first —
/// a sweep is a pure function of (matrix, runner).
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    /// The scenarios to sweep.
    pub scenarios: Vec<Scenario>,
    /// The seeds each scenario runs under.
    pub seeds: Vec<u64>,
}

impl ScenarioMatrix {
    /// Creates a matrix from scenarios and seeds.
    pub fn new(scenarios: Vec<Scenario>, seeds: Vec<u64>) -> Self {
        ScenarioMatrix { scenarios, seeds }
    }

    /// Number of cells (scenarios × seeds).
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// Returns `true` iff the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell on `workers` OS threads and returns the results in
    /// matrix order ([`run_ordered`]); the results are the same at any
    /// worker count because each cell is deterministic in (scenario, seed)
    /// alone.
    pub fn run<R, F>(&self, workers: usize, runner: F) -> Vec<MatrixCell<R>>
    where
        R: Send,
        F: Fn(&Scenario, u64) -> R + Sync,
    {
        let cells: Vec<(&Scenario, u64)> = (self.scenarios.iter())
            .flat_map(|s| self.seeds.iter().map(move |&seed| (s, seed)))
            .collect();
        run_ordered(&cells, workers, |&(scenario, seed)| MatrixCell {
            scenario: scenario.name.clone(),
            seed,
            result: runner(scenario, seed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_the_failure_plan() {
        let s = Scenario::new("demo", 6)
            .with_loss(0.1)
            .with_partition(vec![0, 1], 10, 50)
            .with_churn(5, 20, 60)
            .with_crash(4, 99)
            .with_byzantine(3);
        let plan = s.failure_plan();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.churn.len(), 1);
        assert_eq!(plan.crashes, vec![(4, 99)]);
        assert_eq!(plan.byzantine, vec![3]);
        assert!(s.channel().label().contains("lossy"));
        assert!(Scenario::new("dry", 3).channel().label().contains("sync"));
    }

    #[test]
    fn fault_knobs_wrap_the_channel_in_a_faulty_model() {
        let s = Scenario::new("faulty", 4)
            .with_duplication(0.1)
            .with_reordering(0.2)
            .with_corruption(0.05);
        let label = s.channel().label();
        assert!(label.contains("faulty"), "{label}");
        assert!(
            !Scenario::new("clean", 4)
                .channel()
                .label()
                .contains("faulty"),
            "zero knobs leave the channel unwrapped"
        );
    }

    #[test]
    fn adversary_roles_sit_at_the_highest_indices() {
        let mix = AdversaryMix {
            selfish: 1,
            withholding: 2,
        };
        assert_eq!(mix.total(), 3);
        let roles: Vec<AdversaryRole> = (0..6).map(|i| mix.role_of(i, 6)).collect();
        assert_eq!(
            roles,
            vec![
                AdversaryRole::Honest,
                AdversaryRole::Honest,
                AdversaryRole::Honest,
                AdversaryRole::Selfish,
                AdversaryRole::Withholding,
                AdversaryRole::Withholding,
            ]
        );
        assert_eq!(AdversaryMix::none().role_of(0, 1), AdversaryRole::Honest);
    }

    #[test]
    #[should_panic(expected = "at least one honest node")]
    fn all_adversarial_scenarios_are_rejected() {
        let _ = Scenario::new("bad", 2).with_adversaries(AdversaryMix {
            selfish: 2,
            withholding: 0,
        });
    }

    #[test]
    fn matrix_results_come_back_in_matrix_order() {
        let matrix = ScenarioMatrix::new(
            vec![Scenario::new("a", 2), Scenario::new("b", 2)],
            vec![7, 8, 9],
        );
        assert_eq!(matrix.len(), 6);
        let cells = matrix.run(3, |s, seed| format!("{}#{}", s.name, seed));
        let labels: Vec<&str> = cells.iter().map(|c| c.result.as_str()).collect();
        assert_eq!(labels, vec!["a#7", "a#8", "a#9", "b#7", "b#8", "b#9"]);
        assert_eq!(cells[4].scenario, "b");
        assert_eq!(cells[4].seed, 8);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The runner does real (if small) deterministic work: a simulated
        // arithmetic reduction over the seed.
        let matrix = ScenarioMatrix::new(
            vec![Scenario::new("x", 3), Scenario::new("y", 4)],
            vec![1, 2, 3, 4],
        );
        let work = |s: &Scenario, seed: u64| {
            (0..10_000u64).fold(seed + s.nodes as u64, |acc, i| {
                acc.wrapping_mul(6364136223846793005).wrapping_add(i)
            })
        };
        let serial: Vec<u64> = matrix.run(1, work).into_iter().map(|c| c.result).collect();
        let parallel: Vec<u64> = matrix.run(4, work).into_iter().map(|c| c.result).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn latency_regimes_map_to_channel_models() {
        assert!(matches!(
            Latency::Sync { delta: 3 }.base_channel(),
            ChannelModel::Synchronous { .. }
        ));
        assert!(matches!(
            Latency::PartialSync {
                gst: 50,
                pre_gst_delay: 20,
                delta: 3
            }
            .base_channel(),
            ChannelModel::PartiallySynchronous { .. }
        ));
        assert!(matches!(
            Latency::Async { max_delay: 9 }.base_channel(),
            ChannelModel::Asynchronous { .. }
        ));
    }
}
