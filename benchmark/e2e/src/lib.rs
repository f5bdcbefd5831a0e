//! # The repo benchmark — harness and end-to-end gate
//!
//! Five workloads, six end-to-end metrics, one timing estimator
//! (reference-normalised lower quartiles, [`estimator`]). This crate pins
//! only the simulator's stable public surface ([`workloads`]); the sibling
//! `layers` package times each layer from outside and may break when
//! internals move. See `benchmark/README.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod compare;
pub mod digest;
pub mod estimator;
pub mod json;
pub mod procfs;
pub mod run;
pub mod spec;
pub mod workloads;
