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
//! Callers select one with [`ControllerKind`] and tune it via
//! [`ControllerConfig`]; [`ControllerConfig::build`] produces the per-path
//! instance.

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
pub use gcc::{GccConfig, GccController};
pub use mpbbr::{MpBbrConfig, MpBbrController};
pub use nada::{NadaConfig, NadaController};
pub use sbd::{FlowSignature, SbdConfig, SbdDetector};

/// Which congestion-control algorithm drives each path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// Google Congestion Control — the paper's controller and the
    /// default.
    Gcc,
    /// NADA (RFC 8698).
    Nada,
    /// Multipath-tuned BBR.
    MpBbr,
}

impl ControllerKind {
    /// Every selectable controller, in shootout order.
    pub const ALL: [ControllerKind; 3] =
        [ControllerKind::Gcc, ControllerKind::Nada, ControllerKind::MpBbr];

    /// Canonical lowercase identifier (fingerprints, CLI arguments).
    pub fn id(self) -> &'static str {
        match self {
            ControllerKind::Gcc => "gcc",
            ControllerKind::Nada => "nada",
            ControllerKind::MpBbr => "mp-bbr",
        }
    }

    /// Human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ControllerKind::Gcc => "GCC",
            ControllerKind::Nada => "NADA",
            ControllerKind::MpBbr => "mp-BBR",
        }
    }

    /// Parses a CLI identifier (`gcc`, `nada`, `mp-bbr`/`mpbbr`/`bbr`).
    pub fn parse(s: &str) -> Option<ControllerKind> {
        match s {
            "gcc" => Some(ControllerKind::Gcc),
            "nada" => Some(ControllerKind::Nada),
            "mp-bbr" | "mpbbr" | "bbr" => Some(ControllerKind::MpBbr),
            _ => None,
        }
    }
}

/// Full controller selection: the kind plus per-algorithm tuning. The
/// session builder carries one of these; only the selected kind's config
/// is consulted at build time.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Which algorithm to instantiate per path.
    pub kind: ControllerKind,
    /// GCC tuning (used when `kind == Gcc`).
    pub gcc: GccConfig,
    /// NADA tuning (used when `kind == Nada`).
    pub nada: NadaConfig,
    /// mp-BBR tuning (used when `kind == MpBbr`).
    pub mpbbr: MpBbrConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::for_kind(ControllerKind::Gcc)
    }
}

impl ControllerConfig {
    /// Default tuning for the given kind.
    pub fn for_kind(kind: ControllerKind) -> Self {
        ControllerConfig {
            kind,
            gcc: GccConfig::default(),
            nada: NadaConfig::default(),
            mpbbr: MpBbrConfig::default(),
        }
    }

    /// Builds the controller of `path`. The path id also lets path-aware
    /// algorithms (mp-BBR's staggered gain cycling) desynchronize across
    /// the multipath set.
    pub fn build(&self, path: PathId) -> PathController {
        let (algorithm, inner, traced_phase): (_, Box<dyn CongestionController>, _) =
            match self.kind {
                ControllerKind::Gcc => {
                    (CcAlgorithm::Gcc, Box::new(GccController::new(self.gcc)), None)
                }
                ControllerKind::Nada => {
                    (CcAlgorithm::Nada, Box::new(NadaController::new(self.nada)), None)
                }
                // Startup is implicit in an mp-BBR timeline: only the phases
                // it moves on to are traced.
                ControllerKind::MpBbr => (
                    CcAlgorithm::MpBbr,
                    Box::new(MpBbrController::new(self.mpbbr, path)),
                    Some(CcPhase::Startup),
                ),
            };
        PathController::new(algorithm, inner, path, traced_phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_matching_algorithms() {
        for kind in ControllerKind::ALL {
            let ctl = ControllerConfig::for_kind(kind).build(PathId(1));
            let expected = match kind {
                ControllerKind::Gcc => CcAlgorithm::Gcc,
                ControllerKind::Nada => CcAlgorithm::Nada,
                ControllerKind::MpBbr => CcAlgorithm::MpBbr,
            };
            assert_eq!(ctl.algorithm(), expected);
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
