//! # converge-bench
//!
//! Experiment regenerators for every table and figure of the Converge
//! (SIGCOMM 2023) evaluation, plus the shared run/aggregate machinery.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p converge-bench --bin experiments -- all --jobs 8
//! ```
//!
//! or a single experiment (`fig3`, `table5`, ...); add `--quick` for short
//! smoke runs and `--jobs N` to size the worker pool. Experiments
//! declare `Cell × seed` jobs; the sweep engine ([`sweep`]) dedups them by
//! canonical fingerprint, executes each unique job once on the pool, and
//! memoizes reports in a process-wide cache. Performance is measured by
//! the repo benchmark in `benchmark/`, which drives this crate from
//! outside.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod explain;
pub mod runner;
pub mod stats;
pub mod sweep;

pub use runner::{Job, Scale};
pub use stats::{mean_std, metric, pm};
pub use sweep::{render, run_sweep, CellCache, ExperimentSpec, SweepStats};
