//! # converge-signal
//!
//! The per-path connection monitor of the Converge (SIGCOMM 2023)
//! reproduction: the wrapper of paper section 5 that synchronizes Converge's
//! multipath management with WebRTC connection management. It tracks each
//! path's liveness from the packets heard on it and debounces the
//! up/suspect/down transitions the sender acts on.
//!
//! The paper's other section 5 changes (SDP's multipath capability, ICE
//! gathering per path, the multipath SRTP nonce) only deploy Converge inside
//! Chromium; the evaluation never reaches them, and neither does this
//! reproduction. The single-path WebRTC fallback is a configuration (one
//! path, table-driven FEC), not a negotiation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod monitor;

pub use monitor::{ConnectionMonitor, PathEvent, PathState};
