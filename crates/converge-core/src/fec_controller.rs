//! FEC policies: Converge's path-specific loss-based controller (§4.3) and
//! WebRTC's static table-based baseline.
//!
//! Converge computes `FEC_i = l_i × P_i × β` repair packets for the `P_i`
//! media packets destined to path `i` with loss `l_i`; `β` grows when NACKs
//! reveal the protection was insufficient:
//! `β = 1 + NACK_i / (P_i − FEC_i)`. WebRTC instead applies one
//! protection rate to all packets regardless of path, looked up from a
//! static loss→rate table (doubled for keyframes) — the behaviour the paper
//! shows wasting 40 %+ overhead at 1 % loss (Fig. 12).

use std::collections::BTreeMap;

use converge_net::{PathId, SimTime};
use converge_trace::{TraceEvent, TraceHandle, FEC_BETA_CAP};

/// A pluggable FEC rate policy.
pub trait FecPolicy: std::fmt::Debug + Send {
    /// Short name for reporting.
    fn name(&self) -> &'static str;

    /// Installs a trace handle. Policies that emit structured events store
    /// it; the default ignores it.
    fn set_trace(&mut self, _trace: TraceHandle) {}

    /// Number of repair packets to generate for `media_count` media packets
    /// destined to `path` whose current loss fraction is `loss`.
    fn repair_count(
        &mut self,
        now: SimTime,
        path: PathId,
        media_count: usize,
        loss: f64,
        is_keyframe: bool,
    ) -> usize;

    /// Notifies the policy that `nacked` packets on `path` needed
    /// retransmission despite protection (drives β for Converge).
    fn on_nack(&mut self, _path: PathId, _nacked: usize) {}
}

/// Converge's path-specific, NACK-adaptive FEC controller.
#[derive(Debug, Default)]
pub struct ConvergeFec {
    state: BTreeMap<PathId, PathFecState>,
    trace: TraceHandle,
    /// Last traced `(β‰, repair)` per path, to record changes only.
    last_traced: BTreeMap<PathId, (u32, u32)>,
}

#[derive(Debug)]
struct PathFecState {
    beta: f64,
    /// NACKs observed since the last β update.
    pending_nacks: usize,
    /// Media/FEC counts of the last batch `repair_count` protected.
    last_media: usize,
    last_fec: usize,
}

impl Default for PathFecState {
    fn default() -> Self {
        PathFecState {
            beta: 1.0,
            pending_nacks: 0,
            last_media: 0,
            last_fec: 0,
        }
    }
}

impl ConvergeFec {
    /// Creates the controller with β = 1 on every path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current β for a path (for telemetry/tests).
    pub fn beta(&self, path: PathId) -> f64 {
        self.state.get(&path).map(|s| s.beta).unwrap_or(1.0)
    }
}

impl FecPolicy for ConvergeFec {
    fn name(&self) -> &'static str {
        "converge-path-fec"
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn repair_count(
        &mut self,
        now: SimTime,
        path: PathId,
        media_count: usize,
        loss: f64,
        _is_keyframe: bool,
    ) -> usize {
        let s = self.state.entry(path).or_default();
        // Fold pending NACK evidence into β:
        // β = 1 + NACK_i / (P_i − FEC_i).
        if s.pending_nacks > 0 {
            let denom = s.last_media.saturating_sub(s.last_fec).max(1);
            s.beta = (1.0 + s.pending_nacks as f64 / denom as f64).min(FEC_BETA_CAP);
            s.pending_nacks = 0;
        } else {
            // Decay β back toward 1 as the path behaves.
            s.beta = 1.0 + (s.beta - 1.0) * 0.9;
        }
        let l = loss.clamp(0.0, 1.0);
        // FEC_i = l_i × P_i × β, rounded up so any nonzero loss on a
        // nonzero batch yields at least one repair packet.
        let fec = (l * media_count as f64 * s.beta).ceil() as usize;
        let fec = fec.min(media_count);
        s.last_media = media_count;
        s.last_fec = fec;
        if self.trace.is_enabled() {
            let beta_milli = (self.beta(path) * 1000.0).round() as u32;
            let key = (beta_milli, fec as u32);
            if self.last_traced.insert(path, key) != Some(key) {
                self.trace.emit(
                    now,
                    TraceEvent::FecUpdated {
                        path,
                        beta_milli,
                        media: media_count as u32,
                        repair: fec as u32,
                    },
                );
            }
        }
        fec
    }

    fn on_nack(&mut self, path: PathId, nacked: usize) {
        self.state.entry(path).or_default().pending_nacks += nacked;
    }
}

/// WebRTC's static table-based FEC baseline.
///
/// Protection rate looked up from effective loss, applied uniformly to all
/// paths (aggregate loss, not per-path), and doubled for keyframes — the
/// design the paper measures as "overly aggressive" (≈40 % overhead at 1 %
/// loss with <20 % utilization).
#[derive(Debug, Default)]
pub struct WebRtcTableFec {
    /// Loss seen per path, pooled into one application-level estimate.
    path_loss: BTreeMap<PathId, f64>,
}

/// `(loss fraction, protection rate)` breakpoints of the table, linearly
/// interpolated. Calibrated to the behaviour in the paper's Fig. 12.
const TABLE: &[(f64, f64)] = &[
    (0.000, 0.00),
    (0.002, 0.25),
    (0.010, 0.40),
    (0.020, 0.44),
    (0.030, 0.47),
    (0.050, 0.52),
    (0.080, 0.56),
    (0.100, 0.60),
    (0.200, 0.65),
    (1.000, 0.70),
];

impl WebRtcTableFec {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table lookup with linear interpolation.
    pub fn table_rate(loss: f64) -> f64 {
        let l = loss.clamp(0.0, 1.0);
        for w in TABLE.windows(2) {
            let (l0, r0) = w[0];
            let (l1, r1) = w[1];
            if l <= l1 {
                if l1 == l0 {
                    return r1;
                }
                return r0 + (r1 - r0) * (l - l0) / (l1 - l0);
            }
        }
        TABLE.last().expect("table non-empty").1
    }

    fn aggregate_loss(&self) -> f64 {
        if self.path_loss.is_empty() {
            return 0.0;
        }
        self.path_loss.values().sum::<f64>() / self.path_loss.len() as f64
    }
}

impl FecPolicy for WebRtcTableFec {
    fn name(&self) -> &'static str {
        "webrtc-table-fec"
    }

    fn repair_count(
        &mut self,
        _now: SimTime,
        path: PathId,
        media_count: usize,
        loss: f64,
        is_keyframe: bool,
    ) -> usize {
        // Pool the per-path loss into the aggregate, application-level
        // estimate WebRTC would see.
        self.path_loss.insert(path, loss.clamp(0.0, 1.0));
        let mut rate = Self::table_rate(self.aggregate_loss());
        if is_keyframe {
            rate = (rate * 2.0).min(0.8);
        }
        ((media_count as f64) * rate).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PathId = PathId(0);
    const P1: PathId = PathId(1);

    #[test]
    fn converge_fec_proportional_to_loss() {
        let mut f = ConvergeFec::new();
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 30, 0.0, false), 0);
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 30, 0.10, false), 3);
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 60, 0.05, false), 3);
    }

    #[test]
    fn converge_fec_rounds_up_small_losses() {
        let mut f = ConvergeFec::new();
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 10, 0.01, false), 1);
    }

    #[test]
    fn converge_fec_capped_at_media_count() {
        let mut f = ConvergeFec::new();
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 5, 1.0, false), 5);
    }

    #[test]
    fn nacks_raise_beta_then_decay() {
        let mut f = ConvergeFec::new();
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 20, 0.1, false), 2);
        f.on_nack(P0, 6);
        // β = 1 + 6/(20-2) = 1.333…; FEC = 0.1 * 30 * 1.333 = 4.
        let fec = f.repair_count(SimTime::ZERO, P0, 30, 0.10, false);
        assert_eq!(fec, 4);
        assert!((f.beta(P0) - 1.3333).abs() < 0.001);
        // Without further NACKs β decays toward 1.
        f.repair_count(SimTime::ZERO, P0, 30, 0.10, false);
        assert!(f.beta(P0) < 1.3333);
    }

    #[test]
    fn beta_isolated_per_path() {
        let mut f = ConvergeFec::new();
        assert_eq!(f.repair_count(SimTime::ZERO, P0, 20, 0.1, false), 2);
        f.on_nack(P0, 3);
        f.repair_count(SimTime::ZERO, P0, 10, 0.1, false);
        assert!(f.beta(P0) > 1.0);
        assert_eq!(f.beta(P1), 1.0);
    }

    #[test]
    fn table_rate_interpolates() {
        assert_eq!(WebRtcTableFec::table_rate(0.0), 0.0);
        assert!((WebRtcTableFec::table_rate(0.01) - 0.40).abs() < 1e-9);
        assert!((WebRtcTableFec::table_rate(0.10) - 0.60).abs() < 1e-9);
        let mid = WebRtcTableFec::table_rate(0.015);
        assert!(mid > 0.40 && mid < 0.44, "{mid}");
        assert_eq!(WebRtcTableFec::table_rate(5.0), 0.70);
    }

    #[test]
    fn webrtc_fec_heavy_at_low_loss() {
        let mut f = WebRtcTableFec::new();
        // 1% loss → ~40% overhead: 100 media → ~40 repair.
        let fec = f.repair_count(SimTime::ZERO, P0, 100, 0.01, false);
        assert_eq!(fec, 40);
    }

    #[test]
    fn webrtc_fec_doubles_keyframes() {
        let mut f = WebRtcTableFec::new();
        let delta = f.repair_count(SimTime::ZERO, P0, 100, 0.01, false);
        let key = f.repair_count(SimTime::ZERO, P0, 100, 0.01, true);
        assert_eq!(key, delta * 2);
    }

    #[test]
    fn webrtc_fec_keyframe_rate_capped() {
        let mut f = WebRtcTableFec::new();
        let key = f.repair_count(SimTime::ZERO, P0, 100, 0.5, true);
        assert_eq!(key, 80); // 2×0.675 capped at 0.8
    }

    #[test]
    fn webrtc_fec_uses_aggregate_loss() {
        let mut f = WebRtcTableFec::new();
        // Path 0 clean, path 1 at 10% — aggregate 5% drives BOTH paths'
        // protection, the waste Converge's path-specific design avoids.
        f.repair_count(SimTime::ZERO, P1, 100, 0.10, false);
        let clean_path_fec = f.repair_count(SimTime::ZERO, P0, 100, 0.0, false);
        assert!(
            clean_path_fec > 0,
            "aggregate loss should leak to clean path"
        );
    }

    #[test]
    fn converge_cheaper_than_webrtc_at_low_loss() {
        let mut c = ConvergeFec::new();
        let mut w = WebRtcTableFec::new();
        let c_fec = c.repair_count(SimTime::ZERO, P0, 100, 0.01, false);
        let w_fec = w.repair_count(SimTime::ZERO, P0, 100, 0.01, false);
        assert!(
            c_fec * 5 <= w_fec,
            "converge {c_fec} should be ≤ 1/5 of webrtc {w_fec}"
        );
    }
}
