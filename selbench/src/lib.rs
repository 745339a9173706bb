//! The repository benchmark.
//!
//! One command runs one named workload for a fixed number of seconds,
//! verifies every answer outside the timed regions, and prints one JSON
//! result line: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a separate traced run. It drives the system
//! only through public items of the workspace crates and times each
//! layer from outside, around the calls into it.

pub mod host;
pub mod library;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod schedule;
pub mod service;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
