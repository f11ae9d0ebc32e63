//! What delta sync costs on the repo benchmark's `net_converge` cells,
//! counted rather than timed: eight PoW miners for 320 ticks, one
//! synchronous cell and one partially synchronous cell with a 4/4
//! partition and one churn window, seed 1.
//!
//! A request names what the requester holds, so a reply carries what it
//! lacks.  When a request named only a floor, replies shipped ≈ 84 blocks
//! per mined block, 1.2 % of them new to the receiver, over ≈ 6 requests
//! per mined block.  Most reply blocks are still not new: a floor reply
//! races the flood that is delivering the same tips, and before GST the
//! partially synchronous cell's orphans ask for parents the flood
//! delivers first.  The synchronous cell loses nothing, so none of its
//! reply blocks can be new: the bounds are over the two cells together.

use btadt_netsim::{Latency, Scenario, Simulator};
use btadt_protocols::{build_miners, scenario_pow_config, Miner, SyncStats};

/// The `net_converge` cell shapes at their shipped size.
fn cells() -> [Scenario; 2] {
    let (nodes, duration) = (8, 320);
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
    [sync, partial]
}

/// Runs one cell; returns the miners' summed sync counters and the
/// number of blocks mined, after checking that the cell converged.
fn run(scenario: &Scenario, seed: u64) -> (SyncStats, u64) {
    let config = scenario_pow_config(seed, scenario.duration);
    let miners = build_miners(scenario.nodes, scenario.adversaries, &config, 0);
    let mut sim = Simulator::new(miners, scenario.sim_config(seed), scenario.failure_plan());
    let report = sim.run();
    let (miners, _) = sim.into_parts();
    let tips: Vec<_> = miners.iter().map(|m| m.tip().id).collect();
    assert!(report.quiescent, "{}: the run settles", scenario.name);
    assert!(
        tips.windows(2).all(|w| w[0] == w[1]),
        "{}: every miner selects the same tip",
        scenario.name
    );
    let mut total = SyncStats::default();
    let mut mined = 0;
    for miner in &miners {
        let Miner::Honest(replica) = miner else {
            unreachable!("the cells have no adversaries")
        };
        let s = replica.sync_stats();
        total.requests_sent += s.requests_sent;
        total.reply_blocks += s.reply_blocks;
        total.reply_blocks_new += s.reply_blocks_new;
        mined += replica.log.created.len() as u64;
    }
    (total, mined)
}

#[test]
fn a_reply_carries_what_the_requester_lacks() {
    let (mut stats, mut mined) = (SyncStats::default(), 0);
    for scenario in &cells() {
        let (cell, cell_mined) = run(scenario, 1);
        stats.requests_sent += cell.requests_sent;
        stats.reply_blocks += cell.reply_blocks;
        stats.reply_blocks_new += cell.reply_blocks_new;
        mined += cell_mined;
    }
    // Seed 1: 806 mined, 1 107 requests, 6 748 reply blocks, 509 new.
    let per_block = |n: u64| n as f64 / mined as f64;
    assert!(
        per_block(stats.reply_blocks) <= 10.0,
        "{} reply blocks for {mined} mined blocks",
        stats.reply_blocks
    );
    assert!(
        stats.reply_blocks_new as f64 >= 0.05 * stats.reply_blocks as f64,
        "only {} of {} reply blocks were new to the receiver",
        stats.reply_blocks_new,
        stats.reply_blocks
    );
    assert!(
        per_block(stats.requests_sent) <= 2.0,
        "{} sync requests for {mined} mined blocks",
        stats.requests_sent
    );
}
