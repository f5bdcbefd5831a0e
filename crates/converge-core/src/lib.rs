//! # converge-core
//!
//! The primary contribution of the Converge (SIGCOMM 2023) reproduction:
//! the closed loop between a video-aware multipath scheduler, receiver-side
//! video QoE feedback, and path-specific packet protection.
//!
//! - [`metrics`]: the per-path transport snapshot every scheduler consumes.
//! - [`priority`]: packet priority levels (paper Table 2).
//! - [`fastpath`]: completion-time fast-path selection (Algorithm 1).
//! - [`scheduler`]: the [`scheduler::ConvergeScheduler`] (Eq. 1 split,
//!   Eq. 2 feedback adjustment, Eq. 3 path re-enablement) and the baseline
//!   schedulers: single-path WebRTC, WebRTC-CM, SRTT/minRTT, M-TPUT
//!   (Musher), M-RTP (MPRTP).
//! - [`feedback`]: the receiver-side QoE monitor (FCD/IFD tracking,
//!   late-packet attribution) and the sender-side path-share state.
//! - [`fec_controller`]: Converge's path-specific `l·P·β` FEC controller
//!   and WebRTC's static table-based FEC baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fastpath;
pub mod fec_controller;
pub mod feedback;
pub mod metrics;
pub mod priority;
pub mod scheduler;
#[cfg(test)]
mod test_rng;

pub use fastpath::{completion_time, select_fast_path, select_fast_path_by, FastPathMetric};
pub use fec_controller::{ConvergeFec, FecPolicy, WebRtcTableFec};
pub use feedback::{PathShare, QoeMonitor};
pub use metrics::PathMetrics;
pub use priority::{classify, PacketClass};
pub use scheduler::{
    Assignment, ConnectionMigration, ConvergeScheduler, ConvergeSchedulerConfig, MRtpScheduler,
    MTputScheduler, Schedulable, Scheduler, SinglePathScheduler, SrttScheduler,
};
