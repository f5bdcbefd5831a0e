//! NADA congestion control (RFC 8698), adapted to Converge's per-path
//! feedback loop.
//!
//! NADA folds every congestion signal into one scalar, the *aggregate
//! congestion signal* `x_curr`:
//!
//! ```text
//! x_curr = d_queue + DLOSS_REF · (p_loss / PLR_REF)²
//! ```
//!
//! where `d_queue` is the filtered queuing delay (one-way delay above the
//! per-path minimum baseline) and the quadratic term converts observed
//! loss into an equivalent delay penalty. The controller then runs in one
//! of two modes (RFC 8698 §4.2–4.3):
//!
//! - **Accelerated ramp-up** while the path shows no congestion (no loss,
//!   queuing delay under `qeps_ms`): the rate jumps to
//!   `(1 + γ) · r_recv`, with `γ ≤ γ_max` shrinking as the feedback loop
//!   slows (`γ = min(γ_max, qbound / (rtt + δ + d_filt))`), so the
//!   transient queue the jump can build stays bounded by `qbound`.
//! - **Gradual update** otherwise: a PI controller steps the rate against
//!   the offset of `x_curr` from a rate-inverse reference point
//!   (`x_offset`) and against the signal's slope (`x_diff`), giving
//!   proportional fairness between NADA flows.

use converge_gcc::PacketTiming;
use converge_net::{SimDuration, SimTime};
use converge_trace::{CcPhase, RATE_CEILING_BPS};

use crate::controller::{CongestionController, PathObservations, RateWindow};

// NADA tuning: RFC 8698 §6.2's values where the simulator has an
// equivalent knob.

/// Starting rate, bps.
const INITIAL_RATE_BPS: f64 = 1_000_000.0;
/// Rate floor (RMIN), bps.
const MIN_RATE_BPS: f64 = 150_000.0;
/// Rate ceiling (RMAX), bps.
const MAX_RATE_BPS: f64 = RATE_CEILING_BPS as f64;
/// Reference congestion level XREF, ms.
const XREF_MS: f64 = 10.0;
/// Scaling parameter for gradual rate updates (κ).
const KAPPA: f64 = 0.5;
/// Scaling parameter for the derivative term (η).
const ETA: f64 = 2.0;
/// Upper bound of the RTT in the gradual-update loop (τ), ms.
const TAU_MS: f64 = 500.0;
/// Queuing-delay gate for accelerated ramp-up, ms: above this the
/// controller drops to gradual mode.
const QEPS_MS: f64 = 10.0;
/// Upper bound on self-inflicted queuing delay during ramp-up (QBOUND), ms.
const QBOUND_MS: f64 = 50.0;
/// Maximum ramp-up step γ_max (fractional rate increase per update).
const GAMMA_MAX: f64 = 0.5;
/// Delay-measurement filtering latency (DFILT), ms — part of the ramp-up
/// feedback-loop delay budget.
const DFILT_MS: f64 = 120.0;
/// Reference delay penalty for loss at the reference rate (DLOSS), ms.
const DLOSS_REF_MS: f64 = 10.0;
/// Reference packet-loss ratio the quadratic penalty normalizes to.
const PLR_REF: f64 = 0.01;
/// Weight of the flow (priority, RFC 8698 §5.1).
const PRIORITY: f64 = 1.0;
/// Window over which the receive rate is measured.
const RATE_WINDOW: SimDuration = SimDuration::from_millis(1_000);

/// Per-path NADA controller.
#[derive(Debug)]
pub struct NadaController {
    rate_bps: f64,
    /// Minimum one-way delay observed on the path, µs (the delay
    /// baseline; queuing delay is measured above it).
    d_base_us: Option<u64>,
    /// Filtered queuing delay, ms.
    d_queue_ms: f64,
    seen_delay: bool,
    /// Previous aggregate congestion signal, ms.
    x_prev_ms: f64,
    /// Smoothed loss ratio the controller reacts to (protection-adjusted).
    p_loss: f64,
    last_update: Option<SimTime>,
    received: RateWindow,
    phase: CcPhase,
}

impl Default for NadaController {
    fn default() -> Self {
        NadaController {
            rate_bps: INITIAL_RATE_BPS,
            d_base_us: None,
            d_queue_ms: 0.0,
            seen_delay: false,
            x_prev_ms: 0.0,
            p_loss: 0.0,
            last_update: None,
            received: RateWindow::new(RATE_WINDOW),
            phase: CcPhase::RampUp,
        }
    }
}

impl NadaController {
    /// Current aggregate congestion signal `x_curr`, ms.
    pub fn congestion_signal_ms(&self) -> f64 {
        let loss_term = DLOSS_REF_MS * (self.p_loss / PLR_REF).powi(2);
        (self.d_queue_ms + loss_term).min(10_000.0)
    }
}

impl CongestionController for NadaController {
    fn on_transport_feedback(
        &mut self,
        now: SimTime,
        packets: &[PacketTiming],
        path: &PathObservations,
    ) -> bool {
        if packets.is_empty() {
            return false;
        }
        // Delay baseline + per-batch minimum queuing delay (the batch
        // minimum approximates RFC 8698's min-filter over the feedback
        // interval and is robust to intra-batch jitter).
        let mut batch_queue_us: Option<u64> = None;
        for p in packets {
            let owd_us = p.arrival_time.saturating_since(p.send_time).as_micros();
            let base = match self.d_base_us {
                Some(b) => b.min(owd_us),
                None => owd_us,
            };
            self.d_base_us = Some(base);
            let queued = owd_us - base.min(owd_us);
            batch_queue_us = Some(batch_queue_us.map_or(queued, |q| q.min(queued)));
        }
        let recv = self.received.measure(now, packets);
        if let Some(q_us) = batch_queue_us {
            let q_ms = q_us as f64 / 1_000.0;
            self.d_queue_ms = if self.seen_delay {
                0.9 * self.d_queue_ms + 0.1 * q_ms
            } else {
                q_ms
            };
            self.seen_delay = true;
        }

        let x_curr = self.congestion_signal_ms();
        let delta_ms = match self.last_update {
            Some(prev) => {
                (now.saturating_since(prev).as_micros() as f64 / 1_000.0).clamp(10.0, 1_000.0)
            }
            None => 100.0,
        };
        self.last_update = Some(now);

        if self.p_loss <= 1e-9 && self.d_queue_ms < QEPS_MS {
            // Accelerated ramp-up: jump toward (1+γ)·r_recv, where γ
            // shrinks with the feedback-loop delay so the transient queue
            // the jump builds stays under qbound.
            self.phase = CcPhase::RampUp;
            let gamma = (QBOUND_MS / (path.rtt_ms + delta_ms + DFILT_MS)).min(GAMMA_MAX)
                * path.increase_scale;
            if recv > 0.0 {
                self.rate_bps = self.rate_bps.max((1.0 + gamma) * recv);
            }
        } else {
            // Gradual update: PI step against the reference offset and
            // the signal slope.
            self.phase = CcPhase::Gradual;
            let x_offset =
                x_curr - PRIORITY * XREF_MS * MAX_RATE_BPS / self.rate_bps.max(MIN_RATE_BPS);
            let x_diff = x_curr - self.x_prev_ms;
            let step = KAPPA * (delta_ms / TAU_MS) * (x_offset / TAU_MS) * self.rate_bps
                + KAPPA * ETA * (x_diff / TAU_MS) * self.rate_bps;
            self.rate_bps -= step;
        }
        self.rate_bps = self.rate_bps.clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        self.x_prev_ms = x_curr;
        true
    }

    fn on_loss(&mut self, effective_loss: f64) {
        self.p_loss = 0.875 * self.p_loss + 0.125 * effective_loss;
        // Snap the EWMA tail to zero so loss-free paths re-enter the
        // accelerated ramp-up instead of creeping asymptotically.
        if effective_loss <= 0.0 && self.p_loss < 1e-4 {
            self.p_loss = 0.0;
        }
    }

    fn target_rate_bps(&self) -> u64 {
        self.rate_bps as u64
    }

    fn cap_estimate(&mut self, bps: f64) {
        self.rate_bps = self.rate_bps.min(bps).max(MIN_RATE_BPS);
    }

    fn estimate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn phase(&self) -> CcPhase {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An uncoupled path with a 60 ms smoothed RTT.
    const PATH: PathObservations = PathObservations {
        rtt_ms: 60.0,
        increase_scale: 1.0,
    };

    /// Feeds `duration_ms` of packets arriving at `rate_bps` with a fixed
    /// base delay plus `queue_ms` of standing queue, in 10-packet batches.
    fn feedback_at_rate(
        ctl: &mut NadaController,
        start_ms: u64,
        duration_ms: u64,
        rate_bps: f64,
        queue_ms: u64,
    ) {
        let pkt_interval_us = (1_200.0 * 8.0 / rate_bps * 1e6) as u64;
        let n = (duration_ms * 1_000 / pkt_interval_us.max(1)) as usize;
        let mut batch = Vec::new();
        for i in 0..n {
            let send = SimTime::from_micros(start_ms * 1_000 + i as u64 * pkt_interval_us);
            batch.push(PacketTiming {
                send_time: send,
                arrival_time: send + SimDuration::from_micros(30_000 + queue_ms * 1_000),
                size: 1_200,
            });
            if batch.len() == 10 {
                let now = batch.last().unwrap().arrival_time;
                ctl.on_transport_feedback(now, &batch, &PATH);
                batch.clear();
            }
        }
    }

    #[test]
    fn ramp_up_is_bounded_by_gamma() {
        let mut ctl = NadaController::default();
        let mut prev = ctl.target_rate_bps() as f64;
        for sec in 0..5 {
            feedback_at_rate(&mut ctl, sec * 1_000, 1_000, 8_000_000.0, 0);
            for _ in 0..10 {
                ctl.on_loss(0.0);
            }
            let rate = ctl.target_rate_bps() as f64;
            assert!(rate >= prev, "ramp-up never decreases: {prev} -> {rate}");
            prev = rate;
        }
        assert_eq!(ctl.phase(), CcPhase::RampUp);
        let rate = ctl.target_rate_bps() as f64;
        assert!(rate > INITIAL_RATE_BPS, "must ramp above start: {rate}");
        // The jump target is (1+γ)·r_recv with γ ≤ γ_max, so the rate can
        // never exceed the delivered rate by more than the γ_max factor.
        assert!(
            rate <= (1.0 + GAMMA_MAX) * 8_000_000.0 * 1.05,
            "ramp-up overshoots the γ bound: {rate}"
        );
    }

    #[test]
    fn pi_decreases_rate_under_queuing_delay() {
        let mut ctl = NadaController::default();
        // Establish the delay baseline and a working rate.
        feedback_at_rate(&mut ctl, 0, 3_000, 8_000_000.0, 0);
        let before = ctl.target_rate_bps();
        // A standing 80 ms queue pushes x_curr far above the reference
        // point: the PI controller must back off.
        feedback_at_rate(&mut ctl, 3_000, 2_000, 8_000_000.0, 80);
        assert_eq!(ctl.phase(), CcPhase::Gradual);
        let after = ctl.target_rate_bps();
        assert!(after < before, "PI must back off: {before} -> {after}");
    }

    #[test]
    fn pi_increases_rate_when_signal_is_below_reference() {
        let mut ctl = NadaController::default();
        feedback_at_rate(&mut ctl, 0, 1_000, 2_000_000.0, 0);
        // A trickle of loss keeps the controller in gradual mode, but at
        // a low rate the reference term dominates (x_offset < 0): the PI
        // sign pushes the rate up, not down.
        ctl.on_loss(0.02);
        let before = ctl.target_rate_bps();
        feedback_at_rate(&mut ctl, 1_000, 2_000, 2_000_000.0, 0);
        assert_eq!(ctl.phase(), CcPhase::Gradual);
        let after = ctl.target_rate_bps();
        assert!(
            after > before,
            "PI must grow below reference: {before} -> {after}"
        );
    }

    #[test]
    fn heavy_loss_shows_in_signal_and_rate() {
        let mut ctl = NadaController::default();
        feedback_at_rate(&mut ctl, 0, 3_000, 6_000_000.0, 0);
        let before = ctl.target_rate_bps();
        for _ in 0..10 {
            ctl.on_loss(0.3);
        }
        assert!(ctl.congestion_signal_ms() > 100.0);
        feedback_at_rate(&mut ctl, 3_000, 1_000, 6_000_000.0, 0);
        assert!(ctl.target_rate_bps() < before);
    }

    #[test]
    fn respects_floor_ceiling_and_cap() {
        let mut ctl = NadaController::default();
        ctl.cap_estimate(10_000.0);
        assert_eq!(ctl.target_rate_bps() as f64, MIN_RATE_BPS);
        // Sustained clean traffic cannot push past the ceiling.
        for sec in 0..20 {
            feedback_at_rate(&mut ctl, sec * 1_000, 1_000, 60_000_000.0, 0);
        }
        assert!(ctl.target_rate_bps() <= RATE_CEILING_BPS);
    }
}
