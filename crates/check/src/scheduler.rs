//! Exhaustive bounded-schedule exploration with sleep-set pruning
//! (`docs/ANALYSIS.md` §1 has the long form).
//!
//! At each node every client has at most one enabled step — run from where
//! it is parked to its next park point (see [`crate::stepper`]) — so a
//! schedule is the sequence of client indices picked, and DFS over client
//! choices enumerates every interleaving.  Programs are loop-free, so every
//! schedule is bounded by [`ModelConfig::max_schedule_len`] steps.
//!
//! The search is *stateless* (CHESS, Musuvathi et al., OSDI 2008): a live
//! replica with OS threads parked inside it cannot be cloned at a branch
//! point, so the execution that reached a node carries on into its first
//! child and every sibling re-executes the choice prefix on a fresh
//! replica — deterministic under the baton, so it reaches the same node.
//! Enabledness and independence are read off the [`Step`] each parked
//! client reported.
//!
//! Sleep sets (Godefroid 1996) keep one representative per Mazurkiewicz
//! trace and the terminal replica state, but permute the recorded ticks of
//! concurrent operations — hence the differential mode
//! ([`ExploreOptions::prune`] off) and the CI test that pruned and
//! unpruned sweeps agree on every cell verdict.

use crate::stepper::{Execution, ModelConfig, Parked, Step};

/// Clients with an enabled step, ascending (`parked[c]` is `None` once
/// client `c` finished).  A step that takes the writer lock is disabled
/// while another client sits inside the install loop; the quiescent read
/// until every main program finished.
pub fn enabled(parked: &[Option<Parked>]) -> Vec<usize> {
    let steps = || parked.iter().flatten().map(|p| p.step);
    let mains_done = steps().all(|s| s == Step::QuiescentRead);
    let lock_held = steps().any(Step::holds_lock);
    let can_run = |p: Parked| match p.step {
        Step::QuiescentRead => mains_done,
        Step::Lock => !lock_held,
        _ => true,
    };
    let clients = 0..parked.len();
    clients
        .filter(|&c| parked[c].is_some_and(can_run))
        .collect()
}

/// What the judge decided about one terminal state.
#[derive(Clone, Debug, Default)]
pub struct TerminalSummary {
    /// Structural violations: tree invariants, published-view coherence,
    /// reachability/rerooted/forest disagreements.  Expected empty on
    /// *every* path, racy included.
    pub structural: Vec<String>,
    /// Violations of the path's claimed consistency criterion.
    pub criterion: Vec<String>,
    /// Lost-update races found by the vector-clock detector.
    pub races: usize,
}

impl TerminalSummary {
    /// `true` iff the schedule violated nothing (races are tallied
    /// separately — a racy schedule can still satisfy EC, for example).
    pub fn clean(&self) -> bool {
        self.structural.is_empty() && self.criterion.is_empty()
    }
}

/// A replayable witness of a violating schedule.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Client index per step; feed to [`replay`].
    pub schedule: Vec<usize>,
    /// The seam trace: which park point each step left.
    pub seams: Vec<(usize, &'static str)>,
    /// Why the terminal state was rejected.
    pub reasons: Vec<String>,
}

/// Exploration knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Sleep-set pruning (on by default; the differential test runs both).
    pub prune: bool,
    /// Safety cap on explored schedules; hitting it clears `exhausted`.
    pub max_schedules: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            prune: true,
            max_schedules: 5_000_000,
        }
    }
}

/// Aggregate result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreOutcome {
    /// Terminal states (schedules) reached and judged.
    pub schedules: u64,
    /// Interior nodes cut by the sleep-set rule.
    pub sleep_pruned: u64,
    /// `true` iff the sweep completed: no schedule cap hit, no failure.
    pub exhausted: bool,
    /// Schedules with structural violations (expected 0 on every path).
    pub structural_violations: u64,
    /// Schedules rejected by the claimed criterion.
    pub rejected: u64,
    /// Schedules with at least one detected race.
    pub racy_schedules: u64,
    /// Total races across all schedules.
    pub races: u64,
    /// The first violating schedule, if any.
    pub counterexample: Option<Counterexample>,
    /// Why the sweep stopped early, if it did (a deadlock, a client that
    /// neither parked nor finished in time), with the steps that led there.
    pub failure: Option<String>,
}

struct Dfs<'a, F> {
    config: ModelConfig,
    opts: &'a ExploreOptions,
    judge: F,
    out: ExploreOutcome,
}

impl<F: FnMut(&Execution) -> TerminalSummary> Dfs<'_, F> {
    fn capped(&mut self) -> bool {
        let capped = self.out.schedules >= self.opts.max_schedules;
        self.out.exhausted &= !capped;
        capped
    }

    /// Explores the subtree under the node `exec` stands at.
    fn run(&mut self, exec: Execution, sleep: &[usize]) -> Result<(), String> {
        if self.capped() {
            return Ok(());
        }
        let parked = exec.baton.parked();
        let seams = exec.baton.seams();
        let schedule: Vec<usize> = seams.iter().map(|s| s.0).collect();
        if parked.iter().all(Option::is_none) {
            self.out.schedules += 1;
            let summary = (self.judge)(&exec);
            self.out.structural_violations += u64::from(!summary.structural.is_empty());
            self.out.rejected += u64::from(!summary.criterion.is_empty());
            self.out.racy_schedules += u64::from(summary.races > 0);
            self.out.races += summary.races as u64;
            if !summary.clean() && self.out.counterexample.is_none() {
                let mut reasons = summary.structural;
                reasons.extend(summary.criterion);
                self.out.counterexample = Some(Counterexample {
                    schedule,
                    seams,
                    reasons,
                });
            }
            return Ok(());
        }
        let enabled = enabled(&parked);
        if enabled.is_empty() {
            return Err(format!(
                "deadlock after {schedule:?}: no client is enabled at {parked:?}"
            ));
        }
        let explorable: Vec<usize> = (enabled.into_iter())
            .filter(|c| !sleep.contains(c))
            .collect();
        if explorable.is_empty() {
            // Every enabled step is asleep: this subtree only contains
            // reorderings of already-explored traces.
            self.out.sleep_pruned += 1;
            return Ok(());
        }
        let step_of = |c: usize| parked[c].expect("enabled clients are parked").step;
        let mut exec = Some(exec);
        // Explored siblings; stays empty (as does `sleep`) without pruning.
        let mut done: Vec<usize> = Vec::new();
        for &c in &explorable {
            // The execution that reached this node carries on into the
            // first child; every sibling re-executes the choice prefix on
            // a fresh replica.
            let next = match exec.take() {
                Some(exec) => exec,
                None => reexecute(self.config, &schedule)?,
            };
            next.baton.step(c)?;
            let next_sleep: Vec<usize> = (sleep.iter().chain(&done).copied())
                .filter(|&d| !step_of(d).conflicts(step_of(c)))
                .collect();
            self.run(next, &next_sleep)?;
            if self.opts.prune {
                done.push(c);
            }
        }
        Ok(())
    }
}

/// A fresh replica driven down `schedule`.
fn reexecute(config: ModelConfig, schedule: &[usize]) -> Result<Execution, String> {
    let exec = Execution::start(config)?;
    for &c in schedule {
        exec.baton.step(c)?;
    }
    Ok(exec)
}

/// Explores every schedule of `config`, judging each terminal state with
/// `judge`.
pub fn explore<F>(config: ModelConfig, opts: &ExploreOptions, judge: F) -> ExploreOutcome
where
    F: FnMut(&Execution) -> TerminalSummary,
{
    let mut dfs = Dfs {
        config,
        opts,
        judge,
        out: ExploreOutcome::default(),
    };
    dfs.out.exhausted = true;
    if let Err(why) = Execution::start(config).and_then(|exec| dfs.run(exec, &[])) {
        dfs.out.exhausted = false;
        dfs.out.failure = Some(why);
    }
    dfs.out
}

/// Replays a schedule on a fresh replica and returns the judged terminal
/// state.  Panics if the schedule picks a client that cannot run or stops
/// short of a terminal state — a stored counterexample always replays
/// fully.
pub fn replay<F>(config: ModelConfig, schedule: &[usize], judge: F) -> (Execution, TerminalSummary)
where
    F: FnOnce(&Execution) -> TerminalSummary,
{
    let exec = reexecute(config, schedule)
        .unwrap_or_else(|why| panic!("schedule {schedule:?} does not replay: {why}"));
    let unfinished = exec.baton.parked().iter().flatten().count();
    assert_eq!(unfinished, 0, "schedule {schedule:?} stops short");
    let summary = judge(&exec);
    (exec, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepper::Op;
    use btadt_concurrent::AppendPath;

    fn count_only(_: &Execution) -> TerminalSummary {
        TerminalSummary::default()
    }

    #[test]
    fn unpruned_exploration_counts_every_interleaving() {
        // One append, no mid-run read, 2 clients.  The count is small and
        // stable — assert it exactly so the enabledness rules cannot
        // silently drift.
        let config = ModelConfig {
            programs: &[&[Op::Append], &[Op::Append]],
            ..ModelConfig::smoke(AppendPath::Strong)
        };
        let opts = ExploreOptions {
            prune: false,
            max_schedules: u64::MAX,
        };
        let out = explore(config, &opts, count_only);
        assert!(out.exhausted, "{:?}", out.failure);
        assert_eq!(out.sleep_pruned, 0);
        // Regression anchor, derived from the real seam sequence.  A strong
        // append is six steps: from op-start (prepare), op-commit
        // (getToken*), cas-pre-consume (the CAS), cas-win-pre-install or
        // cas-loss-pre-help (writer lock), writer-pre-insert (push + link)
        // and writer-pre-publish (head store + lock release + response:
        // one step, no seam separates publish from release).  Whoever
        // locks first — winner or helping loser — installs the winning
        // block and runs all six, x1..x6, holding the lock from x4 to x6.
        // The other client's lock step y4 is disabled meanwhile, then
        // finds the block installed (`contains` early return) and ends its
        // append there: four steps, y4 after x6 and hence last.  So
        // y1..y3 interleave freely with x1..x6: C(9,3) = 84 orders, times
        // 2 choices of first locker, times the 2 orders of the quiescent
        // reads (gated on both appends) = 336.  (The step-machine model
        // this replaced had a separate release step and pinned 112.)
        assert_eq!(out.schedules, 336);
    }

    #[test]
    fn pruning_only_removes_redundant_interleavings() {
        let config = ModelConfig::smoke(AppendPath::Strong);
        let unpruned = explore(
            config,
            &ExploreOptions {
                prune: false,
                max_schedules: u64::MAX,
            },
            count_only,
        );
        let pruned = explore(config, &ExploreOptions::default(), count_only);
        assert!(pruned.exhausted && unpruned.exhausted);
        assert!(
            pruned.schedules < unpruned.schedules,
            "sleep sets prune something: {} vs {}",
            pruned.schedules,
            unpruned.schedules
        );
    }

    #[test]
    fn schedule_cap_clears_exhausted() {
        let config = ModelConfig::smoke(AppendPath::Eventual);
        let out = explore(
            config,
            &ExploreOptions {
                prune: false,
                max_schedules: 3,
            },
            count_only,
        );
        assert!(!out.exhausted);
        assert_eq!(out.schedules, 3);
        assert_eq!(out.failure, None, "a cap is not a failure");
    }

    #[test]
    fn replay_reaches_a_terminal_state() {
        let config = ModelConfig::smoke(AppendPath::Strong);
        // Record any full schedule: round-robin over the enabled clients
        // is always valid.
        let exec = Execution::start(config).unwrap();
        let mut schedule = Vec::new();
        loop {
            let enabled = enabled(&exec.baton.parked());
            let Some(&c) = enabled.get(schedule.len() % enabled.len().max(1)) else {
                break;
            };
            schedule.push(c);
            exec.baton.step(c).unwrap();
        }
        let (replayed, summary) = replay(config, &schedule, count_only);
        assert!(summary.clean());
        assert_eq!(replayed.baton.seams().len(), schedule.len());
        assert_eq!(replayed.baton.seams(), exec.baton.seams());
        assert_eq!(
            replayed.history().records(),
            exec.history().records(),
            "re-execution is deterministic"
        );
    }

    #[test]
    fn the_lock_holder_disables_every_lock_taking_step() {
        // Two batch clients prepared on genesis: c0 enters the door and
        // parks inside the install loop; c1, whose next step would block
        // on the real writer mutex, must not be offered to the scheduler
        // until c0 has published and released.
        let config = ModelConfig {
            programs: &[&[Op::Batch], &[Op::Batch]],
            ..ModelConfig::smoke(AppendPath::Eventual)
        };
        let exec = Execution::start(config).unwrap();
        let stepper = &exec.baton;
        for c in [0, 1, 0] {
            stepper.step(c).unwrap(); // both from op-start, then c0 from op-commit
        }
        let mut held = 0;
        while stepper.parked()[0].is_some_and(|p| p.step.holds_lock()) {
            assert_eq!(enabled(&stepper.parked()), vec![0]);
            stepper.step(0).unwrap();
            held += 1;
        }
        assert_eq!(held, 4, "pre-insert, mid-batch, pre-insert, pre-publish");
        assert!(enabled(&stepper.parked()).contains(&1));
    }
}
