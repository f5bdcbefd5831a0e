//! # converge-signal
//!
//! Connection establishment for the Converge (SIGCOMM 2023) reproduction.
//! The paper modifies three WebRTC protocols for multipath (section 5):
//! SDP advertises multipath capability, ICE gathers connections for
//! multiple paths, and the session falls back to standard single-path
//! WebRTC when either endpoint lacks multipath support.
//!
//! - [`sdp`]: an SDP subset with the `a=x-converge-multipath` capability
//!   attribute and path-set negotiation (backward compatible with legacy
//!   peers).
//! - [`ice`]: ICE-lite candidate gathering, pairing, connectivity checks,
//!   and per-path nomination over the emulated network.
//! - [`monitor`]: the connection-status wrapper that synchronizes Converge's
//!   multipath management with WebRTC connection management (per-path
//!   liveness with debounced up/suspect/down transitions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ice;
pub mod monitor;
pub mod sdp;

pub use ice::{CandidatePair, CheckMessage, IceAgent, Interface, PairState};
pub use monitor::{ConnectionMonitor, PathEvent, PathState};
pub use sdp::{Candidate, MediaSection, SdpError, SessionDescription};
