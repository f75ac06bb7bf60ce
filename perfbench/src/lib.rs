//! The repository's benchmark: one command runs a named workload against the log
//! service and prints every end-to-end metric (untraced) or the per-layer
//! breakdown (traced). See `perfbench/README.md`.

pub mod online;
pub mod openloop;
pub mod parse;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
