//! The repository's benchmark: six named workloads, end-to-end metrics
//! from an untraced run, per-layer metrics and a span file from a traced
//! run. See `README.md` for why each workload exists and which
//! end-to-end metric each layer metric should move.
//!
//! Everything is measured from outside, through public functions of the
//! workspace's crates; nothing in the repository changes for it.

pub mod cli;
pub mod common;
pub mod json;
pub mod layers;
pub mod probe;
pub mod report;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
