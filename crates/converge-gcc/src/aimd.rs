//! AIMD remote-rate controller: converts overuse-detector signals into a
//! delay-based bitrate estimate (the rate-control state machine of the GCC
//! design: Hold / Increase / Decrease).

use converge_net::SimTime;

use crate::trendline::BandwidthUsage;
use crate::{MAX_RATE_BPS, MIN_RATE_BPS};

/// Rate-controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateState {
    /// Keep the current estimate.
    Hold,
    /// Probe upward (multiplicative far from convergence, additive near).
    Increase,
    /// Back off below the measured incoming rate.
    Decrease,
}

/// Multiplicative increase per second (1.08 = +8 %/s).
const ETA_PER_SEC: f64 = 1.08;
/// Backoff factor applied to the measured incoming rate on overuse.
const BETA: f64 = 0.85;
/// Additive increase: the least growth per second of a near-convergence
/// step, bps.
const ADDITIVE_BPS_MIN: f64 = 4_000.0;

/// The AIMD rate controller.
#[derive(Debug)]
pub struct AimdController {
    state: RateState,
    estimate_bps: f64,
    /// Exponential average/variance of the incoming rate at decrease time,
    /// used to tell "near convergence" (additive) from "far" (multiplicative).
    avg_max_bps: Option<f64>,
    var_max: f64,
    last_update: Option<SimTime>,
    /// Scale applied to growth steps (1.0 = uncoupled). Coupled congestion
    /// control dampens each subflow's increase so the aggregate grows like
    /// a single flow (LIA-style coupling).
    increase_scale: f64,
}

impl AimdController {
    /// Creates a controller starting from `initial_bps`.
    pub fn new(initial_bps: f64) -> Self {
        AimdController {
            state: RateState::Increase,
            estimate_bps: initial_bps.clamp(MIN_RATE_BPS, MAX_RATE_BPS),
            avg_max_bps: None,
            var_max: 0.4,
            last_update: None,
            increase_scale: 1.0,
        }
    }

    /// Current delay-based estimate, bps.
    pub fn estimate_bps(&self) -> f64 {
        self.estimate_bps
    }

    /// Current state (for telemetry/tests).
    pub fn state(&self) -> RateState {
        self.state
    }

    /// Sets the growth-step scale in (0, 1]; used by coupled congestion
    /// control to dampen per-subflow increases. The caller keeps it in
    /// range (the path controller clamps to `[0.01, 1]`).
    pub fn set_increase_scale(&mut self, scale: f64) {
        self.increase_scale = scale;
    }

    /// Pulls the estimate down to at most `bps` (never below the floor).
    /// Used when a path stops carrying traffic and its estimate would
    /// otherwise go stale-high.
    pub fn cap_to(&mut self, bps: f64) {
        self.estimate_bps = self.estimate_bps.min(bps).max(MIN_RATE_BPS);
    }

    /// Updates the estimate from the detector signal and the measured
    /// incoming rate (receiver goodput), returning the new estimate.
    pub fn update(
        &mut self,
        now: SimTime,
        signal: BandwidthUsage,
        incoming_rate_bps: f64,
        rtt_ms: f64,
    ) -> f64 {
        self.transition(signal);
        let dt_s = match self.last_update {
            Some(prev) => (now.saturating_since(prev).as_micros() as f64 / 1e6).min(1.0),
            None => 0.2,
        };
        self.last_update = Some(now);

        match self.state {
            RateState::Hold => {}
            RateState::Increase => {
                // Capacity obviously changed (e.g. a coverage gap ended):
                // the incoming rate left the remembered convergence region
                // upward, so forget it and ramp multiplicatively again —
                // the GCC design's link-capacity reset.
                if let Some(avg) = self.avg_max_bps {
                    let sigma = (self.var_max * avg).sqrt().max(1.0);
                    if incoming_rate_bps > avg + 3.0 * sigma && incoming_rate_bps > 1.5 * avg {
                        self.avg_max_bps = None;
                    }
                }
                let near_convergence = self.avg_max_bps.is_some_and(|avg| {
                    let sigma = (self.var_max * avg).sqrt().max(1.0);
                    (incoming_rate_bps - avg).abs() < 3.0 * sigma
                });
                let grown = if near_convergence {
                    // Additive: about one packet per response time.
                    let response_ms = 100.0 + rtt_ms;
                    let additive = (1000.0 / response_ms) * 1200.0 * 8.0 * dt_s * 5.0;
                    self.estimate_bps + additive.max(ADDITIVE_BPS_MIN * dt_s) * self.increase_scale
                } else if self.avg_max_bps.is_none() {
                    // Start-up: no congestion has ever been observed, so
                    // probe aggressively (WebRTC's initial BWE probing
                    // doubles the rate until the first backoff).
                    self.estimate_bps * 2.0f64.powf(dt_s.min(1.0) * self.increase_scale)
                } else {
                    self.estimate_bps * ETA_PER_SEC.powf(dt_s.min(1.0) * self.increase_scale)
                };
                // Growth is gated at 1.5x of what actually arrives, but the
                // cap never pulls an existing estimate down: when the sender
                // is application-limited (encoder below the estimate), the
                // incoming rate says nothing about the path's capacity, and
                // pulling the estimate toward it deadlocks the rate at the
                // floor. Decreases come only from overuse/loss signals.
                let growth_cap = 1.5 * incoming_rate_bps.max(MIN_RATE_BPS);
                self.estimate_bps = grown.min(growth_cap).max(self.estimate_bps);
            }
            RateState::Decrease => {
                self.update_max_stats(incoming_rate_bps);
                self.estimate_bps = BETA * incoming_rate_bps;
                // After decreasing, hold until the detector recovers.
                self.state = RateState::Hold;
            }
        }
        self.estimate_bps = self.estimate_bps.clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        self.estimate_bps
    }

    /// State machine of the GCC design: overuse forces Decrease, underuse
    /// forces Hold (queues draining — don't push), normal moves toward
    /// Increase.
    fn transition(&mut self, signal: BandwidthUsage) {
        self.state = match (self.state, signal) {
            (_, BandwidthUsage::Overusing) => RateState::Decrease,
            (_, BandwidthUsage::Underusing) => RateState::Hold,
            (RateState::Hold, BandwidthUsage::Normal) => RateState::Increase,
            (RateState::Increase, BandwidthUsage::Normal) => RateState::Increase,
            (RateState::Decrease, BandwidthUsage::Normal) => RateState::Hold,
        };
    }

    fn update_max_stats(&mut self, incoming_rate_bps: f64) {
        const ALPHA: f64 = 0.05;
        match self.avg_max_bps {
            None => self.avg_max_bps = Some(incoming_rate_bps),
            Some(avg) => {
                let new_avg = (1.0 - ALPHA) * avg + ALPHA * incoming_rate_bps;
                let norm = avg.max(1.0);
                self.var_max = (1.0 - ALPHA) * self.var_max
                    + ALPHA * ((incoming_rate_bps - avg) / norm).powi(2) * norm;
                self.avg_max_bps = Some(new_avg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_millis(s * 200)
    }

    #[test]
    fn increases_under_normal_signal() {
        let mut c = AimdController::new(1_000_000.0);
        let start = c.estimate_bps();
        for i in 0..50 {
            c.update(t(i), BandwidthUsage::Normal, 10_000_000.0, 50.0);
        }
        assert!(c.estimate_bps() > start);
    }

    #[test]
    fn decrease_backs_off_below_incoming_rate() {
        let mut c = AimdController::new(5_000_000.0);
        let est = c.update(t(0), BandwidthUsage::Overusing, 4_000_000.0, 50.0);
        assert!((est - 0.85 * 4_000_000.0).abs() < 1.0);
        assert_eq!(c.state(), RateState::Hold);
    }

    #[test]
    fn underuse_holds() {
        let mut c = AimdController::new(2_000_000.0);
        let before = c.estimate_bps();
        c.update(t(0), BandwidthUsage::Underusing, 3_000_000.0, 50.0);
        assert_eq!(c.estimate_bps(), before);
        assert_eq!(c.state(), RateState::Hold);
    }

    #[test]
    fn growth_gated_but_estimate_never_pulled_down() {
        // Starting above 1.5x the incoming rate: growth is blocked but the
        // existing estimate stays (app-limited senders must not deadlock).
        let mut c = AimdController::new(8_000_000.0);
        for i in 0..100 {
            c.update(t(i), BandwidthUsage::Normal, 2_000_000.0, 50.0);
        }
        assert!((c.estimate_bps() - 8_000_000.0).abs() < 1.0);
        // Starting below the gate: growth proceeds up to the gate.
        let mut c = AimdController::new(1_000_000.0);
        for i in 0..100 {
            c.update(t(i), BandwidthUsage::Normal, 2_000_000.0, 50.0);
        }
        assert!(c.estimate_bps() <= 1.5 * 2_000_000.0 + 1.0);
        assert!(c.estimate_bps() > 2_000_000.0);
    }

    #[test]
    fn increase_scale_dampens_growth() {
        let grow = |scale: f64| -> f64 {
            let mut c = AimdController::new(1_000_000.0);
            c.set_increase_scale(scale);
            for i in 0..25 {
                c.update(t(i), BandwidthUsage::Normal, 20_000_000.0, 50.0);
            }
            c.estimate_bps()
        };
        let full = grow(1.0);
        let half = grow(0.5);
        assert!(half < full, "dampened {half} must trail undampened {full}");
        assert!(half > 1_000_000.0, "still grows");
    }

    #[test]
    fn recovers_from_app_limited_floor() {
        // The deadlock scenario: estimate at the floor, sender app-limited
        // so incoming equals the floor; the estimate must still climb.
        let mut c = AimdController::new(MIN_RATE_BPS);
        // Incoming tracks the (tiny) estimate — the app-limited loop.
        for i in 0..200 {
            let incoming = c.estimate_bps();
            c.update(t(i), BandwidthUsage::Normal, incoming, 50.0);
        }
        assert!(
            c.estimate_bps() > MIN_RATE_BPS * 10.0,
            "stuck at {}",
            c.estimate_bps()
        );
    }

    #[test]
    fn estimate_respects_bounds() {
        let mut c = AimdController::new(100.0);
        assert!(c.estimate_bps() >= MIN_RATE_BPS);
        for i in 0..1000 {
            c.update(t(i), BandwidthUsage::Normal, 1e12, 50.0);
        }
        assert!(c.estimate_bps() <= MAX_RATE_BPS);
    }

    #[test]
    fn recovers_after_decrease() {
        let mut c = AimdController::new(5_000_000.0);
        c.update(t(0), BandwidthUsage::Overusing, 4_000_000.0, 50.0);
        let low = c.estimate_bps();
        // Normal signals: Hold → Increase, then growth.
        for i in 1..50 {
            c.update(t(i), BandwidthUsage::Normal, 6_000_000.0, 50.0);
        }
        assert!(c.estimate_bps() > low);
    }

    #[test]
    fn near_convergence_switches_to_additive() {
        let mut c = AimdController::new(5_000_000.0);
        // Two decreases at similar incoming rates establish avg_max.
        c.update(t(0), BandwidthUsage::Overusing, 5_000_000.0, 50.0);
        for i in 1..10 {
            c.update(t(i), BandwidthUsage::Normal, 5_000_000.0, 50.0);
        }
        let before = c.estimate_bps();
        c.update(t(10), BandwidthUsage::Normal, 5_000_000.0, 50.0);
        let growth = c.estimate_bps() - before;
        // Additive growth in 200 ms is far below 8%/s multiplicative (which
        // would be ~66 kbps at 4.25 Mbps); additive is ~100 kbps max. Accept
        // growth but bounded.
        assert!(growth > 0.0 && growth < 200_000.0, "growth {growth}");
    }
}
