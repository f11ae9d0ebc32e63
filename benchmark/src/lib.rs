//! # The repo benchmark
//!
//! Six named workloads follow one block's journey — validated → staged →
//! installed → labeled → mirrored → persisted → read → judged — through
//! the workspace crates, each in its own process.  A run reports the
//! end-to-end metrics a user of the system would see (`--trace 0`) or one
//! row per layer, measured from outside through the layer's public entry
//! points (`--trace 1`).  See `README.md` for the catalogue and
//! `../BENCHMARK.json` for the contract the driver checks.
//!
//! No file outside this directory changes and no gain is claimed here:
//! every later performance claim names one end-to-end metric and one
//! workload from [`metrics`] and [`workloads::WORKLOADS`].

#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod run;
pub mod sizes;
pub mod stats;
pub mod trace;
pub mod workloads;
