//! # converge-cc
//!
//! The pluggable congestion-control boundary of the Converge reproduction.
//!
//! The paper takes its per-path rate signal from GCC, but nothing in the
//! scheduler/FEC loop depends on *how* that signal is produced — only on
//! a target rate, a smoothed RTT and a loss fraction per path. The sender
//! holds one [`PathController`] per path: a concrete shell that owns what
//! every controller needs (RTT smoothing, loss bookkeeping and its FEC
//! discount, the coupled-growth scale, trace emission) and drives a boxed
//! [`CongestionController`] — the algorithm, and nothing but the
//! algorithm.
//!
//! Three algorithms ship here:
//!
//! - [`GccController`] — the paper's controller: delay trendline + loss,
//!   AIMD, composed from the estimator parts in `converge-gcc`.
//! - [`NadaController`] — NADA per RFC 8698: a unified congestion signal
//!   `x_curr = d_queue + DLOSS_REF · (p_loss/PLR_REF)²`, accelerated
//!   ramp-up bounded by γ, and a PI gradual-update mode.
//! - [`MpBbrController`] — a multipath-tuned BBR: windowed-max bandwidth
//!   and min-RTT probing with per-path staggered pacing-gain cycling.
//!
//! Callers select one with [`ControllerKind`] in a [`ControllerConfig`];
//! [`ControllerConfig::build`] produces the per-path instance. Each
//! algorithm's tuning is constants in its module; the rate bounds the
//! invariant checker polices are defined once, in `converge-trace`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod controller;
pub mod gcc;
pub mod mpbbr;
pub mod nada;
pub mod sbd;

use converge_net::PathId;

pub use controller::{CongestionController, PathController, PathObservations};
pub use converge_trace::{CcAlgorithm, CcPhase};
pub use gcc::GccController;
pub use mpbbr::MpBbrController;
pub use nada::NadaController;
pub use sbd::{FlowSignature, SbdDetector};

/// Which congestion-control algorithm drives each path: the enum the
/// trace tags `Cc*` events with, under the name callers select it by.
pub use converge_trace::CcAlgorithm as ControllerKind;

/// Controller selection; the session builder carries one of these.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Which algorithm to instantiate per path.
    pub kind: ControllerKind,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::for_kind(ControllerKind::Gcc)
    }
}

impl ControllerConfig {
    /// The given kind.
    pub fn for_kind(kind: ControllerKind) -> Self {
        ControllerConfig { kind }
    }

    /// Builds the controller of `path`. The path id also lets path-aware
    /// algorithms (mp-BBR's staggered gain cycling) desynchronize across
    /// the multipath set.
    pub fn build(&self, path: PathId) -> PathController {
        let inner: Box<dyn CongestionController> = match self.kind {
            ControllerKind::Gcc => Box::<GccController>::default(),
            ControllerKind::Nada => Box::<NadaController>::default(),
            ControllerKind::MpBbr => Box::new(MpBbrController::new(path)),
        };
        PathController::new(self.kind, inner, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_matching_algorithms() {
        for kind in ControllerKind::ALL {
            let ctl = ControllerConfig::for_kind(kind).build(PathId(1));
            assert_eq!(ctl.algorithm(), kind);
            assert!(ctl.target_rate_bps() > 0, "{}", kind.id());
        }
    }

    #[test]
    fn kind_ids_round_trip() {
        for kind in ControllerKind::ALL {
            assert_eq!(ControllerKind::parse(kind.id()), Some(kind));
            assert!(!kind.label().is_empty());
        }
        assert_eq!(ControllerKind::parse("bbr"), Some(ControllerKind::MpBbr));
        assert_eq!(ControllerKind::parse("cubic"), None);
    }
}
