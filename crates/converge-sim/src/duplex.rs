//! Bidirectional (duplex) conference calls.
//!
//! A real conference sends media both ways: endpoint A's media travels the
//! forward direction while endpoint B's media travels the reverse — which
//! means B's media now *contends* with A's feedback on the reverse links,
//! a dynamic the one-way [`crate::Session`] cannot exhibit. The duplex
//! session runs a full sender+receiver at each endpoint over the same
//! emulated paths and reports one [`CallReport`] per direction.

use converge_net::{Path, PathId};
use converge_trace::TraceHandle;

use crate::flow::run_call;
use crate::metrics::CallReport;
use crate::scenarios::ScenarioConfig;
use crate::session::SessionConfig;

/// A bidirectional session between two Converge endpoints.
pub struct DuplexSession {
    config: SessionConfig,
}

impl DuplexSession {
    /// Creates a duplex session; both directions use the scenario's path
    /// characteristics symmetrically (unlike the one-way session, whose
    /// reverse links are feedback-only and deliberately uncongested).
    pub fn new(config: SessionConfig) -> Self {
        DuplexSession { config }
    }

    fn build_symmetric_paths(scenario: &ScenarioConfig, seed: u64) -> Vec<Path> {
        scenario
            .paths
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let cfg = spec.forward_link(seed.wrapping_add(i as u64 * 7919));
                let mut rev = cfg.clone();
                rev.seed = cfg.seed.wrapping_add(0xB1D1);
                rev.impairment = spec.reverse_impairment;
                Path::new(PathId(i as u8), cfg, rev)
            })
            .collect()
    }

    /// Runs the call; returns `(a_to_b, b_to_a)` reports. Two flows on one
    /// emulator: A's media travels `Forward` and its feedback `Reverse`,
    /// B's the other way round, so each direction's media contends with
    /// the other's feedback. Untraced: both flows would emit on the same
    /// `PathId`s, which `converge-trace/v1` cannot tell apart.
    pub fn run(self) -> (CallReport, CallReport) {
        let cfg = self.config;
        let paths = Self::build_symmetric_paths(&cfg.scenario, cfg.seed);
        let [a_to_b, b_to_a] = run_call(
            &cfg,
            paths,
            [TraceHandle::disabled(), TraceHandle::disabled()],
        );
        (a_to_b, b_to_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{FecKind, SchedulerKind};

    fn duplex_config(rate_bps: u64, secs: u64) -> SessionConfig {
        let mut scenario = ScenarioConfig::fec_tradeoff(0.0);
        for p in &mut scenario.paths {
            let owd = converge_net::SimDuration::from_millis(50);
            p.trace = converge_net::DriveTrace::constant(rate_bps, owd);
        }
        SessionConfig::builder()
            .scenario(scenario)
            .scheduler(SchedulerKind::Converge)
            .fec(FecKind::Converge)
            .streams(1)
            .duration(converge_net::SimDuration::from_secs(secs))
            .seed(17)
            .build()
            .expect("valid session config")
    }

    #[test]
    fn both_directions_deliver_video() {
        let (a, b) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        assert!(a.fps > 20.0, "A→B fps {}", a.fps);
        assert!(b.fps > 20.0, "B→A fps {}", b.fps);
        assert!(a.throughput_bps > 2_000_000.0);
        assert!(b.throughput_bps > 2_000_000.0);
    }

    #[test]
    fn directions_share_the_path_fairly() {
        let (a, b) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        let ratio = a.throughput_bps / b.throughput_bps;
        assert!(
            (0.5..2.0).contains(&ratio),
            "direction starvation: {:.2} vs {:.2} Mbps",
            a.throughput_bps / 1e6,
            b.throughput_bps / 1e6
        );
    }

    #[test]
    fn duplex_contention_costs_vs_one_way() {
        // The same scenario one-way: the duplex directions see RTCP +
        // reverse media contention and cannot beat the one-way call.
        let (a, _) = DuplexSession::new(duplex_config(15_000_000, 20)).run();
        let one_way = crate::Session::new(duplex_config(15_000_000, 20)).run();
        assert!(
            a.throughput_bps <= one_way.throughput_bps * 1.1,
            "duplex {:.2} should not exceed one-way {:.2}",
            a.throughput_bps / 1e6,
            one_way.throughput_bps / 1e6
        );
    }

    #[test]
    fn reports_are_per_direction() {
        // 8 % extra loss on the forward links only: A→B repairs, B→A is
        // clean, and each report must hold one direction's counters.
        let mut cfg = duplex_config(15_000_000, 20);
        let lossy = converge_net::ImpairmentConfig::degraded(0.08, converge_net::SimDuration::ZERO);
        for p in &mut cfg.scenario.paths {
            p.forward_impairment = lossy;
        }
        let (a, b) = DuplexSession::new(cfg).run();
        for (name, r) in [("A→B", &a), ("B→A", &b)] {
            assert!(
                r.fec_packets_used <= r.fec_packets_received
                    && r.fec_packets_received <= r.fec_packets_sent,
                "{name}: FEC used {} / received {} / sent {}",
                r.fec_packets_used,
                r.fec_packets_received,
                r.fec_packets_sent
            );
        }
        assert!(
            a.nacks_sent > 0 && a.fec_packets_used > 0,
            "A→B is the lossy direction"
        );
        assert_eq!(b.nacks_sent, 0, "B→A is clean");
        assert!(a.fps < b.fps, "A→B fps {} vs B→A fps {}", a.fps, b.fps);
    }

    #[test]
    fn deterministic() {
        let (a1, b1) = DuplexSession::new(duplex_config(15_000_000, 10)).run();
        let (a2, b2) = DuplexSession::new(duplex_config(15_000_000, 10)).run();
        assert_eq!(a1.frames_decoded, a2.frames_decoded);
        assert_eq!(b1.frames_decoded, b2.frames_decoded);
        assert_eq!(a1.throughput_bps, a2.throughput_bps);
    }
}
