//! # `btadt-protocols` — protocol models of the systems classified in
//! Table 1
//!
//! Section 5 of the paper classifies seven existing systems by (a) who may
//! append, (b) how `getToken` / `consumeToken` are realised (prodigal vs
//! frugal k=1 oracle) and (c) which selection function they use:
//!
//! | System | Refinement |
//! |---|---|
//! | Bitcoin | R(BT-ADT_EC, Θ_P), heaviest/longest chain |
//! | Ethereum | R(BT-ADT_EC, Θ_P), GHOST |
//! | Algorand | R(BT-ADT_SC, Θ_F,k=1), sortition committee |
//! | ByzCoin | R(BT-ADT_SC, Θ_F,k=1), PoW-elected committee |
//! | PeerCensus | R(BT-ADT_SC, Θ_F,k=1), committee |
//! | Red Belly | R(BT-ADT_SC, Θ_F,k=1), consortium |
//! | Hyperledger Fabric | R(BT-ADT_SC, Θ_F,k=1), ordering service |
//!
//! This crate implements executable models of the two protocol *families*
//! the table reduces to — proof-of-work flooding with a fork-prone
//! (prodigal) oracle, and committee/quorum commit with a fork-free (frugal
//! k=1) oracle — parameterised by selection function, merit distribution and
//! leader rule so each named system maps onto a configuration.  The models
//! run on the deterministic simulator of `btadt-netsim`, their executions
//! are converted into BT histories and message histories, and the
//! consistency checkers of `btadt-core` classify them — regenerating
//! Table 1 empirically (`classification::table1`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod classification;
pub mod committee;
pub mod extract;
pub mod gossip;
pub mod messages;
pub mod pow;

pub use adversary::{build_miners, scenario_pow_config, Miner, Strategy};
pub use classification::{classify, table1, Classification, ProtocolSpec, SystemModel, TableRow};
pub use committee::{CommitteeConfig, CommitteeReplica, LeaderRule};
pub use extract::{build_histories, ReplicaLog};
pub use gossip::{GossipSync, RecoveryMode, ResponseClass, SyncStats, MAX_SYNC_BATCH};
pub use messages::{Msg, SyncRequest};
pub use pow::{PowConfig, PowReplica};
