//! Loss-based rate controller.
//!
//! The sender-side half of GCC: adjusts its estimate from the fraction of
//! packets lost reported in RTCP receiver reports. Below 2 % loss the rate
//! grows 5 % per update; above 10 % it backs off proportionally to the loss
//! level; in between it holds.

use crate::{MAX_RATE_BPS, MIN_RATE_BPS};

/// Loss fraction below which the rate may grow.
const LOW_LOSS: f64 = 0.02;
/// Loss fraction above which the rate must shrink.
const HIGH_LOSS: f64 = 0.10;
/// Multiplicative growth applied below `LOW_LOSS`.
const GROWTH: f64 = 1.05;

/// The loss-based controller for one path.
#[derive(Debug)]
pub struct LossBasedController {
    estimate_bps: f64,
}

impl LossBasedController {
    /// Creates a controller starting from `initial_bps`.
    pub fn new(initial_bps: f64) -> Self {
        LossBasedController {
            estimate_bps: initial_bps.clamp(MIN_RATE_BPS, MAX_RATE_BPS),
        }
    }

    /// Current loss-based estimate, bps.
    pub fn estimate_bps(&self) -> f64 {
        self.estimate_bps
    }

    /// Feeds one loss report (`fraction_lost` in 0..=1) and returns the new
    /// estimate.
    pub fn on_loss_report(&mut self, fraction_lost: f64) -> f64 {
        let p = fraction_lost.clamp(0.0, 1.0);
        if p < LOW_LOSS {
            self.estimate_bps *= GROWTH;
        } else if p > HIGH_LOSS {
            self.estimate_bps *= 1.0 - 0.5 * p;
        }
        self.estimate_bps = self.estimate_bps.clamp(MIN_RATE_BPS, MAX_RATE_BPS);
        self.estimate_bps
    }

    /// Allows the delay-based side to pull the loss estimate down with it so
    /// the two do not diverge (WebRTC clamps similarly).
    pub fn cap_to(&mut self, bps: f64) {
        self.estimate_bps = self
            .estimate_bps
            .min(bps.max(MIN_RATE_BPS))
            .max(MIN_RATE_BPS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_under_low_loss() {
        let mut c = LossBasedController::new(1_000_000.0);
        let e1 = c.on_loss_report(0.0);
        assert!((e1 - 1_050_000.0).abs() < 1.0);
        let e2 = c.on_loss_report(0.01);
        assert!(e2 > e1);
    }

    #[test]
    fn holds_in_middle_band() {
        let mut c = LossBasedController::new(1_000_000.0);
        let e = c.on_loss_report(0.05);
        assert_eq!(e, 1_000_000.0);
    }

    #[test]
    fn shrinks_under_high_loss() {
        let mut c = LossBasedController::new(1_000_000.0);
        let e = c.on_loss_report(0.20);
        assert!((e - 900_000.0).abs() < 1.0); // 1 - 0.5*0.2 = 0.9
    }

    #[test]
    fn extreme_loss_halves() {
        let mut c = LossBasedController::new(1_000_000.0);
        let e = c.on_loss_report(1.0);
        assert!((e - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn clamps_to_bounds() {
        let mut c = LossBasedController::new(MIN_RATE_BPS);
        for _ in 0..100 {
            c.on_loss_report(1.0);
        }
        assert_eq!(c.estimate_bps(), MIN_RATE_BPS);
        for _ in 0..500 {
            c.on_loss_report(0.0);
        }
        assert_eq!(c.estimate_bps(), MAX_RATE_BPS);
    }

    #[test]
    fn cap_pulls_down_not_up() {
        let mut c = LossBasedController::new(5_000_000.0);
        c.cap_to(2_000_000.0);
        assert_eq!(c.estimate_bps(), 2_000_000.0);
        c.cap_to(10_000_000.0);
        assert_eq!(c.estimate_bps(), 2_000_000.0);
    }

    #[test]
    fn garbage_loss_fraction_clamped() {
        let mut c = LossBasedController::new(1_000_000.0);
        let e = c.on_loss_report(5.0); // clamped to 1.0
        assert!((e - 500_000.0).abs() < 1.0);
        let before = c.estimate_bps();
        let e = c.on_loss_report(-2.0); // clamped to 0.0 → grow
        assert!(e > before);
    }
}
